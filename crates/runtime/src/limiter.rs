//! Adaptive admission control: an AIMD concurrency limiter.
//!
//! A static in-flight cap is tuned for one service time; when dispatch
//! slows down (lock contention, a slow dependency, GC-like pauses) the
//! same cap admits far more work than the server can finish before the
//! callers' deadlines, and the queue fills with doomed requests. The
//! [`AimdLimiter`] replaces the constant with a limit that tracks the
//! *measured* tail: dispatch workers feed each request's sojourn time
//! (queue wait plus dispatch, so queueing delay — the first symptom of
//! overload — is visible) into a windowed histogram, and every window
//! the limit moves — one
//! additive step up while the p99 is under target, a multiplicative
//! cut (⅞) when it overshoots. TCP congestion control, applied to
//! dispatch concurrency.
//!
//! Two admission tiers give brownout-before-blackout semantics: once
//! in-flight work crosses ⅞ of the current limit, requests whose
//! caller marked them sheddable are cut (cheap traffic first); only at
//! the full limit does critical traffic shed too.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use mockingbird_obs::Histogram;

use crate::metrics::MetricsRegistry;

/// Observations per adjustment window: enough samples for a stable
/// p99 estimate, few enough that the limit reacts within tens of
/// calls.
const WINDOW: u64 = 64;

/// What the limiter says about one admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Under the (tier-appropriate) limit: dispatch it.
    Admit,
    /// At or over the limit for this tier: shed it.
    Shed,
    /// In the brownout band and the request is sheddable: shed it,
    /// counted separately so operators can see brownouts start before
    /// blackouts.
    Brownout,
}

/// An additive-increase / multiplicative-decrease concurrency limiter.
///
/// With `adaptive` off (the default server config) the limit is pinned
/// at `max` and the limiter degenerates to the historical static cap —
/// zero behaviour change, one branch per admission.
pub struct AimdLimiter {
    limit: AtomicUsize,
    min: usize,
    max: usize,
    adaptive: bool,
    target_p99_us: u64,
    window: Histogram,
    observed: AtomicU64,
}

impl std::fmt::Debug for AimdLimiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AimdLimiter")
            .field("limit", &self.current())
            .field("max", &self.max)
            .field("adaptive", &self.adaptive)
            .finish_non_exhaustive()
    }
}

impl AimdLimiter {
    /// A static limiter pinned at `max` (the historical cap).
    #[must_use]
    pub fn pinned(max: usize) -> Self {
        AimdLimiter {
            limit: AtomicUsize::new(max.max(1)),
            min: 1,
            max: max.max(1),
            adaptive: false,
            target_p99_us: u64::MAX,
            window: Histogram::new(),
            observed: AtomicU64::new(0),
        }
    }

    /// An adaptive limiter: starts at `max` (the configured ceiling)
    /// and cuts multiplicatively whenever the windowed p99 exceeds
    /// `target_p99`.
    #[must_use]
    pub fn adaptive(max: usize, target_p99: Duration) -> Self {
        AimdLimiter {
            limit: AtomicUsize::new(max.max(1)),
            min: 1,
            max: max.max(1),
            adaptive: true,
            target_p99_us: u64::try_from(target_p99.as_micros()).unwrap_or(u64::MAX),
            window: Histogram::new(),
            observed: AtomicU64::new(0),
        }
    }

    /// The current admission limit.
    #[must_use]
    pub fn current(&self) -> usize {
        self.limit.load(Ordering::Relaxed)
    }

    /// Whether this limiter adjusts (false ⇒ pinned static cap).
    #[must_use]
    pub fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// Classifies one admission attempt. `in_flight` is work being
    /// dispatched right now, `queued` is work waiting for a worker.
    ///
    /// A pinned limiter compares `in_flight` alone against the cap —
    /// byte-for-byte the historical static admission. An adaptive
    /// limiter bounds *outstanding* work (`in_flight + queued`): the
    /// limit is what keeps the measured sojourn at target, and queued
    /// work is sojourn-in-waiting — but the limit must also cover a
    /// runway of queued requests, or every worker would idle between
    /// jobs while admission sheds.
    #[must_use]
    pub fn admit(&self, in_flight: usize, queued: usize, sheddable: bool) -> Admission {
        let limit = self.current();
        let load = if self.adaptive {
            in_flight + queued
        } else {
            in_flight
        };
        if load >= limit {
            return Admission::Shed;
        }
        // Brownout band: the top ⅛ of the limit is reserved for
        // critical traffic (only meaningful for adaptive limiters; a
        // pinned limiter keeps the historical single-tier behaviour).
        if self.adaptive && sheddable && load >= limit.saturating_sub(limit / 8).max(1) {
            return Admission::Brownout;
        }
        Admission::Admit
    }

    /// Feeds one dispatch latency observation; every `WINDOW`
    /// observations the limit adjusts (AIMD) and is published to
    /// `metrics` as the `admission_limit` gauge.
    pub fn observe(&self, elapsed: Duration, metrics: &MetricsRegistry) {
        if !self.adaptive {
            return;
        }
        self.window.record_duration(elapsed);
        let n = self.observed.fetch_add(1, Ordering::Relaxed) + 1;
        if !n.is_multiple_of(WINDOW) {
            return;
        }
        let p99 = self.window.snapshot().quantile(0.99);
        self.window.reset();
        let cur = self.current();
        let next = if p99 > self.target_p99_us {
            // Multiplicative decrease: shed an eighth of the limit (at
            // least one slot, so small limits keep shrinking).
            cur.saturating_sub((cur / 8).max(1)).max(self.min)
        } else {
            // Additive increase: probe one more slot, up to the
            // configured ceiling.
            (cur + 1).min(self.max)
        };
        if next != cur {
            self.limit.store(next, Ordering::Relaxed);
        }
        metrics.set_admission_limit(next as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_limiter_is_the_static_cap() {
        let l = AimdLimiter::pinned(4);
        let m = MetricsRegistry::new();
        assert!(!l.is_adaptive());
        assert_eq!(l.admit(3, 0, false), Admission::Admit);
        assert_eq!(l.admit(3, 0, true), Admission::Admit, "no brownout tier");
        assert_eq!(
            l.admit(3, 64, false),
            Admission::Admit,
            "a pinned cap ignores queue depth (the historical behaviour)"
        );
        assert_eq!(l.admit(4, 0, false), Admission::Shed);
        for _ in 0..10 * WINDOW {
            l.observe(Duration::from_secs(1), &m);
        }
        assert_eq!(l.current(), 4, "pinned limit never moves");
    }

    #[test]
    fn slow_windows_cut_multiplicatively_fast_windows_raise_additively() {
        let l = AimdLimiter::adaptive(256, Duration::from_millis(1));
        let m = MetricsRegistry::new();
        for _ in 0..WINDOW {
            l.observe(Duration::from_millis(50), &m);
        }
        assert_eq!(l.current(), 256 - 256 / 8, "one overshoot window cuts ⅛");
        assert_eq!(m.snapshot().admission_limit, (256 - 256 / 8) as u64);
        let cut = l.current();
        for _ in 0..WINDOW {
            l.observe(Duration::from_micros(10), &m);
        }
        assert_eq!(l.current(), cut + 1, "one healthy window raises by 1");
    }

    #[test]
    fn limit_never_leaves_its_bounds() {
        let l = AimdLimiter::adaptive(8, Duration::from_millis(1));
        let m = MetricsRegistry::new();
        // Sustained overload cannot push the limit below 1.
        for _ in 0..64 * WINDOW {
            l.observe(Duration::from_millis(100), &m);
        }
        assert_eq!(l.current(), 1);
        // Sustained health cannot push it above the configured max.
        for _ in 0..64 * WINDOW {
            l.observe(Duration::from_micros(1), &m);
        }
        assert_eq!(l.current(), 8);
    }

    #[test]
    fn brownout_sheds_sheddable_traffic_first() {
        let l = AimdLimiter::adaptive(16, Duration::from_millis(50));
        // 16 - 16/8 = 14: the brownout band is [14, 16).
        assert_eq!(l.admit(13, 0, true), Admission::Admit);
        assert_eq!(l.admit(14, 0, true), Admission::Brownout);
        assert_eq!(l.admit(15, 0, true), Admission::Brownout);
        assert_eq!(
            l.admit(2, 13, true),
            Admission::Brownout,
            "adaptive admission counts queued work"
        );
        assert_eq!(l.admit(14, 0, false), Admission::Admit, "critical rides on");
        assert_eq!(l.admit(15, 0, false), Admission::Admit);
        assert_eq!(
            l.admit(16, 0, false),
            Admission::Shed,
            "blackout at the cap"
        );
        assert_eq!(l.admit(2, 14, false), Admission::Shed);
        assert_eq!(l.admit(16, 0, true), Admission::Shed);
    }
}
