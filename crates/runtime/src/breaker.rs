//! Per-endpoint circuit breakers.
//!
//! A [`CircuitBreaker`] watches the outcomes of calls to one endpoint
//! and walks the classic three-state machine:
//!
//! - **Closed** — traffic flows; outcomes are recorded into a sliding
//!   window. Too many consecutive failures, or a failure rate above the
//!   threshold once the window has enough samples, trips the breaker
//!   **open**.
//! - **Open** — calls are refused locally (the pool routes around the
//!   endpoint) until the cooldown elapses, at which point the next
//!   [`allow`](CircuitBreaker::allow) probe moves it **half-open**.
//! - **Half-open** — probe traffic is admitted; a run of consecutive
//!   successes closes the breaker, any failure re-opens it.
//!
//! Every transition is counted both on the breaker itself (for tests
//! and per-endpoint introspection) and in the owning node's
//! [`MetricsRegistry`].

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::MetricsRegistry;
use crate::sync::LockExt;

/// The breaker's position in the closed → open → half-open cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows normally.
    Closed,
    /// The endpoint is quarantined; calls are refused until cooldown.
    Open,
    /// Probe traffic is testing whether the endpoint recovered.
    HalfOpen,
}

/// Tuning for a [`CircuitBreaker`].
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Outcomes remembered for the failure-rate window.
    pub window: usize,
    /// Minimum outcomes in the window before the rate can trip.
    pub min_samples: usize,
    /// Failure rate (0..=1) at or above which the breaker opens.
    pub failure_rate: f64,
    /// Consecutive failures that open the breaker regardless of rate.
    pub consecutive_failures: u32,
    /// How long an open breaker waits before admitting a probe.
    pub cooldown: Duration,
    /// Consecutive half-open successes required to close.
    pub half_open_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 32,
            min_samples: 8,
            failure_rate: 0.5,
            consecutive_failures: 5,
            cooldown: Duration::from_millis(250),
            half_open_successes: 2,
        }
    }
}

impl BreakerConfig {
    /// A breaker that never trips (for baselines and ablations).
    #[must_use]
    pub fn disabled() -> Self {
        BreakerConfig {
            failure_rate: 2.0, // unreachable
            consecutive_failures: u32::MAX,
            ..BreakerConfig::default()
        }
    }
}

/// Counts of the breaker's own state transitions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerTransitions {
    /// Trips into the open state.
    pub opened: u64,
    /// Cooldown expiries into the half-open state.
    pub half_opened: u64,
    /// Recoveries back to closed.
    pub closed: u64,
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    /// Recent outcomes, `true` = failure.
    window: VecDeque<bool>,
    failures_in_window: usize,
    consecutive: u32,
    opened_at: Option<Instant>,
    half_open_streak: u32,
    transitions: BreakerTransitions,
}

/// A thread-safe circuit breaker for one endpoint.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<Inner>,
    metrics: Arc<MetricsRegistry>,
}

impl CircuitBreaker {
    /// A closed breaker under `cfg`, counting transitions into a
    /// private registry. Pools use
    /// [`with_metrics`](Self::with_metrics) so every endpoint's breaker
    /// shares the pool's registry.
    #[must_use]
    pub fn new(cfg: BreakerConfig) -> Self {
        Self::with_metrics(cfg, MetricsRegistry::shared())
    }

    /// A closed breaker under `cfg` that counts its transitions in
    /// `metrics`.
    #[must_use]
    pub fn with_metrics(cfg: BreakerConfig, metrics: Arc<MetricsRegistry>) -> Self {
        CircuitBreaker {
            cfg,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                window: VecDeque::new(),
                failures_in_window: 0,
                consecutive: 0,
                opened_at: None,
                half_open_streak: 0,
                transitions: BreakerTransitions::default(),
            }),
            metrics,
        }
    }

    /// The current state (an open breaker past its cooldown still reads
    /// `Open` until an [`allow`](Self::allow) probe promotes it).
    pub fn state(&self) -> BreakerState {
        self.inner.plock().state
    }

    /// The breaker's transition counters.
    pub fn transitions(&self) -> BreakerTransitions {
        self.inner.plock().transitions
    }

    /// Whether a call may proceed now. An open breaker whose cooldown
    /// has elapsed transitions to half-open and admits the call as a
    /// probe.
    pub fn allow(&self) -> bool {
        let mut st = self.inner.plock();
        match st.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                let cooled = st
                    .opened_at
                    .is_some_and(|at| at.elapsed() >= self.cfg.cooldown);
                if cooled {
                    st.state = BreakerState::HalfOpen;
                    st.half_open_streak = 0;
                    st.transitions.half_opened += 1;
                    self.metrics.add_breaker_half_open();
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful call.
    pub fn record_success(&self) {
        let mut st = self.inner.plock();
        st.consecutive = 0;
        Self::push(&mut st, self.cfg.window, false);
        if st.state == BreakerState::HalfOpen {
            st.half_open_streak += 1;
            if st.half_open_streak >= self.cfg.half_open_successes {
                st.state = BreakerState::Closed;
                st.opened_at = None;
                st.window.clear();
                st.failures_in_window = 0;
                st.transitions.closed += 1;
                self.metrics.add_breaker_close();
            }
        }
    }

    /// Records a failed call (transport error, timeout, overload).
    pub fn record_failure(&self) {
        let mut st = self.inner.plock();
        st.consecutive = st.consecutive.saturating_add(1);
        Self::push(&mut st, self.cfg.window, true);
        let trip = match st.state {
            BreakerState::Open => false,
            // Any failure during probing sends the breaker straight back
            // to open for another cooldown.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => {
                st.consecutive >= self.cfg.consecutive_failures
                    || (st.window.len() >= self.cfg.min_samples
                        && st.failures_in_window as f64 / st.window.len() as f64
                            >= self.cfg.failure_rate)
            }
        };
        if trip {
            st.state = BreakerState::Open;
            st.opened_at = Some(Instant::now());
            st.half_open_streak = 0;
            st.transitions.opened += 1;
            self.metrics.add_breaker_open();
        }
    }

    fn push(st: &mut Inner, cap: usize, failure: bool) {
        if cap == 0 {
            return;
        }
        if st.window.len() == cap && st.window.pop_front() == Some(true) {
            st.failures_in_window -= 1;
        }
        st.window.push_back(failure);
        if failure {
            st.failures_in_window += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> BreakerConfig {
        BreakerConfig {
            cooldown: Duration::from_millis(20),
            ..BreakerConfig::default()
        }
    }

    #[test]
    fn consecutive_failures_trip_the_breaker() {
        let b = CircuitBreaker::new(fast_cfg());
        assert_eq!(b.state(), BreakerState::Closed);
        for _ in 0..4 {
            b.record_failure();
            assert_eq!(b.state(), BreakerState::Closed);
        }
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(), "open breaker refuses before cooldown");
        assert_eq!(b.transitions().opened, 1);
    }

    #[test]
    fn failure_rate_trips_once_window_has_samples() {
        let cfg = BreakerConfig {
            min_samples: 8,
            failure_rate: 0.5,
            consecutive_failures: u32::MAX,
            ..fast_cfg()
        };
        let b = CircuitBreaker::new(cfg);
        // Alternate: never 5 consecutive, but 50% of the window fails.
        for _ in 0..4 {
            b.record_success();
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Open, "rate threshold tripped");
    }

    #[test]
    fn successes_keep_the_breaker_closed() {
        let b = CircuitBreaker::new(fast_cfg());
        for _ in 0..100 {
            b.record_success();
        }
        // A sprinkle of failures below every threshold changes nothing.
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.transitions(), BreakerTransitions::default());
    }

    #[test]
    fn cooldown_promotes_to_half_open_and_successes_close() {
        let b = CircuitBreaker::new(fast_cfg());
        for _ in 0..5 {
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow());
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.allow(), "cooldown elapsed: probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(
            b.state(),
            BreakerState::HalfOpen,
            "one success is not enough"
        );
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        let t = b.transitions();
        assert_eq!((t.opened, t.half_opened, t.closed), (1, 1, 1));
    }

    #[test]
    fn half_open_failure_reopens() {
        let b = CircuitBreaker::new(fast_cfg());
        for _ in 0..5 {
            b.record_failure();
        }
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.transitions().opened, 2);
        assert!(!b.allow(), "fresh cooldown after the failed probe");
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let b = CircuitBreaker::new(BreakerConfig::disabled());
        for _ in 0..10_000 {
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn window_evicts_old_outcomes() {
        let cfg = BreakerConfig {
            window: 4,
            min_samples: 4,
            failure_rate: 0.75,
            consecutive_failures: u32::MAX,
            ..fast_cfg()
        };
        let b = CircuitBreaker::new(cfg);
        // Old failures scroll out of the window: 2 failures then 4
        // successes leaves a clean window.
        b.record_failure();
        b.record_failure();
        for _ in 0..4 {
            b.record_success();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // 3 of the last 4 failing trips the 75% threshold.
        b.record_failure();
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
    }
}
