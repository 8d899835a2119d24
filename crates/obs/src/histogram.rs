//! Lock-free log-bucketed histogram.
//!
//! Values below 16 land in exact unit buckets; larger values are split
//! by their highest set bit into log2 tiers of 16 linear sub-buckets
//! each. Bucket width at magnitude `2^h` is `2^(h-4)`, so the relative
//! width of any bucket is at most 1/16 and a midpoint representative is
//! within ~3% of any value that fell in it. The full `u64` range maps
//! onto [`BUCKETS`] buckets (~7.8 KiB of counters per histogram).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Sub-bucket resolution: each power-of-two tier has `2^SUB_BITS`
/// linear buckets.
const SUB_BITS: u32 = 4;
const SUB_COUNT: usize = 1 << SUB_BITS; // 16

/// Total bucket count covering all of `u64`.
pub const BUCKETS: usize = SUB_COUNT + (64 - SUB_BITS as usize) * SUB_COUNT;

/// Map a value to its bucket index. Contiguous: 15 → 15, 16 → 16.
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        v as usize
    } else {
        let h = 63 - v.leading_zeros(); // >= SUB_BITS
        let sub = ((v >> (h - SUB_BITS)) & (SUB_COUNT as u64 - 1)) as usize;
        (h - SUB_BITS + 1) as usize * SUB_COUNT + sub
    }
}

/// Inclusive-exclusive `[lo, hi)` bounds of a bucket.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB_COUNT {
        (idx as u64, idx as u64 + 1)
    } else {
        let h = (idx / SUB_COUNT) as u32 + SUB_BITS - 1;
        let sub = (idx % SUB_COUNT) as u64;
        let width = 1u64 << (h - SUB_BITS);
        let lo = (1u64 << h) + sub * width;
        (lo, lo.saturating_add(width))
    }
}

/// Midpoint representative of a bucket, used for quantile estimates.
fn bucket_mid(idx: usize) -> u64 {
    let (lo, hi) = bucket_bounds(idx);
    lo + (hi - lo - 1) / 2
}

/// A lock-free latency histogram. All methods take `&self`; recording
/// is wait-free (relaxed atomic increments) and safe from any number of
/// threads. Values are unitless `u64`s — the runtime records
/// microseconds.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        let buckets = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        // Wraps for pathological inputs; latencies in µs never get close.
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Record a duration in microseconds (saturating).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Take a point-in-time copy of the counters. If recorders are
    /// running concurrently the copy may straddle an in-flight record
    /// (count off by the handful of racing writers); once writers are
    /// quiescent the snapshot is exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            min: self.min.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }

    /// Zero every counter.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
    }
}

/// Plain-data copy of a [`Histogram`]. Mergeable: bucket boundaries are
/// a pure function of the index, so adding counts bucket-wise is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    pub fn empty() -> Self {
        HistogramSnapshot {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`). Returns the midpoint
    /// of the bucket holding the target rank, clamped to the observed
    /// `[min, max]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_mid(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another snapshot into this one. Exact: boundaries depend
    /// only on the bucket index, never on what was recorded.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Raw bucket counts (length [`BUCKETS`]).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn small_values_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v + 1));
        }
    }

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        // Every bucket's hi equals the next bucket's lo, across the
        // whole range, and every value maps inside its bucket bounds.
        let mut prev_hi = 0u64;
        for idx in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, prev_hi, "gap before bucket {idx}");
            assert!(hi > lo || hi == u64::MAX);
            prev_hi = hi;
        }
        for &v in &[
            0,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1000,
            65_535,
            65_536,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "{v} outside [{lo},{hi})"
            );
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut rng = 0x1234_5678_u64;
        for _ in 0..10_000 {
            // xorshift
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let v = rng >> (rng % 48); // spread across magnitudes
            let (lo, hi) = bucket_bounds(bucket_index(v));
            if v >= 16 {
                let width = hi - lo;
                assert!(width as f64 / lo as f64 <= 1.0 / 16.0 + 1e-9);
            }
        }
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 1000);
        let p50 = s.quantile(0.5);
        assert!((460..=540).contains(&p50), "p50={p50}");
        let p99 = s.quantile(0.99);
        assert!((920..=1000).contains(&p99), "p99={p99}");
        assert!((s.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        // Property: after N threads each record M values, the total
        // count, the bucket sum and the value sum are all exact.
        const THREADS: u64 = 8;
        const PER: u64 = 10_000;
        let h = Arc::new(Histogram::new());
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            joins.push(std::thread::spawn(move || {
                let mut local_sum = 0u64;
                for i in 0..PER {
                    let v = (t * 1_000_003 + i * 37) % 1_000_000;
                    h.record(v);
                    local_sum += v;
                }
                local_sum
            }));
        }
        let expect_sum: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        let s = h.snapshot();
        assert_eq!(s.count(), THREADS * PER);
        assert_eq!(s.counts().iter().sum::<u64>(), THREADS * PER);
        assert_eq!(s.sum(), expect_sum);
    }

    #[test]
    fn merge_round_trips_bucket_boundaries() {
        // Property: recording a stream into one histogram equals
        // splitting the stream across two histograms and merging the
        // snapshots — bucket-for-bucket, plus count/sum/min/max.
        let mut rng = 0x9e37_79b9_u64;
        let whole = Histogram::new();
        let left = Histogram::new();
        let right = Histogram::new();
        for i in 0..50_000u64 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let v = rng >> (rng % 40);
            whole.record(v);
            if i % 2 == 0 { &left } else { &right }.record(v);
        }
        let mut merged = left.snapshot();
        merged.merge(&right.snapshot());
        assert_eq!(merged, whole.snapshot());
        // Quantiles agree exactly since the bucket contents agree.
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(merged.quantile(q), whole.snapshot().quantile(q));
        }
    }

    #[test]
    fn reset_zeroes_everything() {
        let h = Histogram::new();
        h.record(42);
        h.reset();
        let s = h.snapshot();
        assert!(s.is_empty());
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.counts().iter().sum::<u64>(), 0);
    }
}
