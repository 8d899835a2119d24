//! Deterministic fault injection for transports.
//!
//! A [`ChaosConnection`] wraps any [`Connection`] and injects faults
//! drawn from a [`ChaosSchedule`] — a seeded stream over a
//! [`ChaosConfig`]'s rates. The schedule is *fully determined by the
//! seed*: replaying the same seed against the same call sequence yields
//! byte-for-byte the same faults, so every chaos test prints its seed
//! and any failure reproduces exactly.
//!
//! The fault model is **detected-at-link**: truncated and corrupted
//! frames surface as [`RuntimeError::Transport`], exactly as a real
//! framing layer rejects a frame whose declared length or payload does
//! not check out. A fault can lose a request, lose or damage a reply,
//! delay an exchange, or tear the connection down — but it can never
//! hand the caller a wrong payload, which is what the GIOP length
//! header and CDR typing buy in the real stack.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mockingbird_rng::StdRng;
use mockingbird_wire::Message;

use crate::error::RuntimeError;
use crate::metrics::MetricsRegistry;
use crate::options::CallOptions;
use crate::sync::LockExt;
use crate::transport::Connection;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The request never reaches the server.
    Drop,
    /// The exchange is delayed by the given duration before proceeding.
    Delay(Duration),
    /// The reply frame is cut short; the link detects the short frame.
    Truncate,
    /// The reply frame is damaged in flight; the link detects it.
    Corrupt,
    /// The connection tears down; this and all later calls fail.
    Disconnect,
}

/// Per-call fault probabilities for a [`ChaosSchedule`].
///
/// Rates are evaluated in order (drop, delay, truncate, corrupt,
/// disconnect) against a single uniform draw, so they partition the
/// unit interval and must sum to at most 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Probability a request is dropped.
    pub drop_rate: f64,
    /// Probability an exchange is delayed.
    pub delay_rate: f64,
    /// Upper bound on an injected delay (uniform in `0..=max_delay`).
    pub max_delay: Duration,
    /// Probability a reply is truncated.
    pub truncate_rate: f64,
    /// Probability a reply is corrupted.
    pub corrupt_rate: f64,
    /// Probability the connection disconnects.
    pub disconnect_rate: f64,
}

impl ChaosConfig {
    /// No faults at all (the wrapper becomes a passthrough).
    #[must_use]
    pub fn none() -> Self {
        ChaosConfig {
            drop_rate: 0.0,
            delay_rate: 0.0,
            max_delay: Duration::ZERO,
            truncate_rate: 0.0,
            corrupt_rate: 0.0,
            disconnect_rate: 0.0,
        }
    }

    /// A mixed workload with total fault probability `rate`, split
    /// 40% drops, 20% delays (up to 2 ms), 15% truncations, 15%
    /// corruptions, and 10% disconnects — the blend the X7 resilience
    /// experiment injects at 5% and 20%.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    #[must_use]
    pub fn fault_rate(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate {rate} out of range"
        );
        ChaosConfig {
            drop_rate: rate * 0.40,
            delay_rate: rate * 0.20,
            max_delay: Duration::from_millis(2),
            truncate_rate: rate * 0.15,
            corrupt_rate: rate * 0.15,
            disconnect_rate: rate * 0.10,
        }
    }

    fn total(&self) -> f64 {
        self.drop_rate
            + self.delay_rate
            + self.truncate_rate
            + self.corrupt_rate
            + self.disconnect_rate
    }
}

/// Applies a fault directly to an encoded wire frame, seeded so the
/// same `(fault, seed)` pair always damages the same bytes. The
/// reactor's frame state machines are tested against frames mangled by
/// this helper: truncation must surface as a mid-frame close, byte
/// corruption as a protocol error or a parseable-but-wrong frame —
/// never a panic or an oversized allocation.
///
/// `Delay` and `Disconnect` are timing faults with no byte-level
/// counterpart; they leave the frame untouched.
pub fn wire_fault(frame: &mut Vec<u8>, fault: Fault, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    match fault {
        Fault::Drop => frame.clear(),
        Fault::Truncate => {
            if !frame.is_empty() {
                let keep = rng.gen_range(0..frame.len() as u64) as usize;
                frame.truncate(keep);
            }
        }
        Fault::Corrupt => {
            if !frame.is_empty() {
                let at = rng.gen_range(0..frame.len() as u64) as usize;
                let bit = rng.gen_range(0..8u64) as u8;
                frame[at] ^= 1 << bit;
            }
        }
        Fault::Delay(_) | Fault::Disconnect => {}
    }
}

/// A seeded stream of per-call fault decisions.
///
/// Each [`next_fault`](Self::next_fault) consumes a fixed number of
/// draws from the generator, so the decision for call *k* depends only
/// on the seed and *k* — never on wall-clock time or thread timing.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    rng: StdRng,
    cfg: ChaosConfig,
}

impl ChaosSchedule {
    /// A schedule fully determined by `seed` over `cfg`'s rates.
    ///
    /// # Panics
    ///
    /// Panics if `cfg`'s rates sum above 1.
    #[must_use]
    pub fn new(seed: u64, cfg: ChaosConfig) -> Self {
        assert!(
            cfg.total() <= 1.0 + 1e-9,
            "fault rates sum to {} > 1",
            cfg.total()
        );
        ChaosSchedule {
            rng: StdRng::seed_from_u64(seed),
            cfg,
        }
    }

    /// The fault (if any) for the next call.
    pub fn next_fault(&mut self) -> Option<Fault> {
        // One positional draw decides the fault class, one more the
        // delay magnitude — every call consumes exactly two draws, so
        // the stream position (and thus the whole schedule) depends
        // only on the call index.
        let r: f64 = self.rng.gen_range(0.0..1.0);
        let delay_us = self
            .rng
            .gen_range(0..=self.cfg.max_delay.as_micros().max(1) as u64);
        let c = &self.cfg;
        let mut edge = c.drop_rate;
        if r < edge {
            return Some(Fault::Drop);
        }
        edge += c.delay_rate;
        if r < edge {
            return Some(Fault::Delay(Duration::from_micros(delay_us)));
        }
        edge += c.truncate_rate;
        if r < edge {
            return Some(Fault::Truncate);
        }
        edge += c.corrupt_rate;
        if r < edge {
            return Some(Fault::Corrupt);
        }
        edge += c.disconnect_rate;
        if r < edge {
            return Some(Fault::Disconnect);
        }
        None
    }
}

/// One entry in a [`ChaosConnection`]'s fault trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// 0-based index of the call the fault was injected into.
    pub call: u64,
    /// The injected fault.
    pub fault: Fault,
}

/// A [`Connection`] wrapper injecting faults from a seeded schedule.
///
/// Calls that draw no fault pass straight through to the wrapped
/// connection. Faulted calls fail with [`RuntimeError::Transport`]
/// (drop/truncate/corrupt/disconnect) or proceed after a pause
/// (delay). After a [`Fault::Disconnect`] the connection reports
/// [`healthy`](Connection::healthy)` == false` and every further call
/// fails, so pools and breakers see a genuinely dead endpoint.
pub struct ChaosConnection {
    inner: Arc<dyn Connection>,
    schedule: Mutex<ChaosSchedule>,
    trace: Mutex<Vec<FaultRecord>>,
    calls: AtomicU64,
    dead: AtomicBool,
    metrics: Arc<MetricsRegistry>,
}

impl ChaosConnection {
    /// Wraps `inner`, drawing faults from `schedule`. Injected faults
    /// are counted in the wrapped connection's registry when it has
    /// one, so the node under test sees its own chaos.
    #[must_use]
    pub fn new(inner: Arc<dyn Connection>, schedule: ChaosSchedule) -> Self {
        let metrics = inner.metrics().unwrap_or_else(MetricsRegistry::shared);
        ChaosConnection {
            inner,
            schedule: Mutex::new(schedule),
            trace: Mutex::new(Vec::new()),
            calls: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            metrics,
        }
    }

    /// Wraps `inner` with the standard mixed-fault blend at `rate`,
    /// seeded by `seed`.
    #[must_use]
    pub fn with_fault_rate(inner: Arc<dyn Connection>, seed: u64, rate: f64) -> Self {
        ChaosConnection::new(
            inner,
            ChaosSchedule::new(seed, ChaosConfig::fault_rate(rate)),
        )
    }

    /// Every fault injected so far, in call order.
    pub fn trace(&self) -> Vec<FaultRecord> {
        self.trace.plock().clone()
    }

    /// Calls attempted through this connection (faulted or not).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }
}

impl Connection for ChaosConnection {
    fn call(&self, msg: &Message) -> Result<Option<Message>, RuntimeError> {
        self.call_with(msg, &CallOptions::default())
    }

    fn call_with(
        &self,
        msg: &Message,
        options: &CallOptions,
    ) -> Result<Option<Message>, RuntimeError> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(RuntimeError::Transport(
                "chaos: connection torn down".into(),
            ));
        }
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        let fault = self.schedule.plock().next_fault();
        let Some(fault) = fault else {
            return self.inner.call_with(msg, options);
        };
        self.trace.plock().push(FaultRecord { call, fault });
        self.metrics.add_fault_injected();
        match fault {
            Fault::Drop => Err(RuntimeError::Transport(
                "chaos: request dropped at the link".into(),
            )),
            Fault::Delay(d) => {
                if !d.is_zero() {
                    std::thread::sleep(d);
                }
                self.inner.call_with(msg, options)
            }
            // The server still executes (the reply was lost after the
            // fact) — the nastier case for retry correctness.
            Fault::Truncate => {
                let _ = self.inner.call_with(msg, options);
                Err(RuntimeError::Transport(
                    "chaos: reply truncated mid-frame".into(),
                ))
            }
            Fault::Corrupt => {
                let _ = self.inner.call_with(msg, options);
                Err(RuntimeError::Transport(
                    "chaos: reply failed frame integrity check".into(),
                ))
            }
            Fault::Disconnect => {
                self.dead.store(true, Ordering::SeqCst);
                Err(RuntimeError::Transport("chaos: peer disconnected".into()))
            }
        }
    }

    fn healthy(&self) -> bool {
        !self.dead.load(Ordering::SeqCst) && self.inner.healthy()
    }

    fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        Some(Arc::clone(&self.metrics))
    }

    fn supports_failover(&self) -> bool {
        self.inner.supports_failover()
    }

    fn retry_budget(&self) -> Option<Arc<crate::budget::RetryBudget>> {
        self.inner.retry_budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{Dispatcher, Servant, WireOp, WireServant};
    use crate::transport::InMemoryConnection;
    use mockingbird_mtype::{IntRange, MtypeGraph};
    use mockingbird_values::{Endian, MValue};
    use mockingbird_wire::CdrWriter;
    use std::collections::HashMap;

    #[test]
    fn same_seed_same_schedule() {
        let cfg = ChaosConfig::fault_rate(0.3);
        let mut a = ChaosSchedule::new(42, cfg);
        let mut b = ChaosSchedule::new(42, cfg);
        for _ in 0..1000 {
            assert_eq!(a.next_fault(), b.next_fault());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = ChaosConfig::fault_rate(0.5);
        let mut a = ChaosSchedule::new(1, cfg);
        let mut b = ChaosSchedule::new(2, cfg);
        let fa: Vec<_> = (0..200).map(|_| a.next_fault()).collect();
        let fb: Vec<_> = (0..200).map(|_| b.next_fault()).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn fault_frequency_tracks_the_rate() {
        let mut s = ChaosSchedule::new(7, ChaosConfig::fault_rate(0.2));
        let hits = (0..10_000).filter(|_| s.next_fault().is_some()).count();
        assert!(
            (1_500..2_500).contains(&hits),
            "expected ~2000 faults at 20%, got {hits}"
        );
    }

    #[test]
    fn zero_rate_is_a_passthrough() {
        let mut s = ChaosSchedule::new(9, ChaosConfig::none());
        assert!((0..1000).all(|_| s.next_fault().is_none()));
    }

    fn echo_connection() -> Arc<dyn Connection> {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(64));
        let args = g.record(vec![i]);
        let result = g.record(vec![i]);
        let graph = Arc::new(g);
        let servant: Arc<dyn Servant> = Arc::new(|_op: &str, args: MValue| Ok(args));
        let mut ops = HashMap::new();
        ops.insert("echo".to_string(), WireOp::new(graph, args, result));
        let d = Arc::new(Dispatcher::new());
        d.register(b"echo".to_vec(), WireServant::new(servant, ops));
        Arc::new(InMemoryConnection::new(d))
    }

    fn echo_request(k: i64) -> Message {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(64));
        let args = g.record(vec![i]);
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(&g, args, &MValue::Record(vec![MValue::Int(k as i128)]))
            .unwrap();
        Message::request(
            k as u32,
            true,
            b"echo".to_vec(),
            "echo",
            Endian::Little,
            w.into_bytes(),
        )
    }

    #[test]
    fn faults_surface_as_transport_errors_and_replay_identically() {
        let run = |seed: u64| {
            let chaos = ChaosConnection::new(
                echo_connection(),
                ChaosSchedule::new(seed, ChaosConfig::fault_rate(0.4)),
            );
            let mut outcomes = Vec::new();
            for k in 0..200 {
                match chaos.call(&echo_request(k)) {
                    Ok(Some(reply)) => outcomes.push(format!("ok:{}", reply.body.len())),
                    Ok(None) => outcomes.push("oneway".into()),
                    Err(RuntimeError::Transport(m)) => outcomes.push(format!("transport:{m}")),
                    Err(e) => panic!("unexpected error class: {e}"),
                }
            }
            (outcomes, chaos.trace())
        };
        let (o1, t1) = run(0xC4A05);
        let (o2, t2) = run(0xC4A05);
        assert_eq!(o1, o2, "client-visible outcomes replay from the seed");
        assert_eq!(t1, t2, "fault traces replay from the seed");
        assert!(!t1.is_empty(), "a 40% rate over 200 calls injects faults");
    }

    #[test]
    fn disconnect_kills_the_connection_for_good() {
        // disconnect-only config: first fault tears the link down.
        let cfg = ChaosConfig {
            disconnect_rate: 1.0,
            ..ChaosConfig::none()
        };
        let chaos = ChaosConnection::new(echo_connection(), ChaosSchedule::new(3, cfg));
        assert!(chaos.healthy());
        assert!(chaos.call(&echo_request(0)).is_err());
        assert!(!chaos.healthy());
        // Later calls fail without consuming schedule draws.
        let trace_len = chaos.trace().len();
        assert!(chaos.call(&echo_request(1)).is_err());
        assert_eq!(chaos.trace().len(), trace_len);
    }

    #[test]
    fn delays_still_deliver_the_reply() {
        let cfg = ChaosConfig {
            delay_rate: 1.0,
            max_delay: Duration::from_micros(100),
            ..ChaosConfig::none()
        };
        let chaos = ChaosConnection::new(echo_connection(), ChaosSchedule::new(5, cfg));
        let reply = chaos.call(&echo_request(7)).unwrap();
        assert!(reply.is_some(), "delayed calls still complete");
        assert_eq!(chaos.trace().len(), 1);
    }
}
