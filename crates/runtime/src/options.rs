//! Per-call options: deadlines, retry policies, and hedging.
//!
//! A [`CallOptions`] value travels with each invocation (a
//! [`RemoteRef`](crate::proxy::RemoteRef) holds a default set; every
//! `invoke_with` can override it). The deadline bounds how long the
//! caller waits for a reply; the retry policy re-sends calls whose
//! operation is declared idempotent after transport failures, expired
//! deadlines, and `Overloaded` sheds, backing off exponentially — with
//! seeded jitter, so a fleet of synchronized clients does not retry in
//! lockstep — between attempts. The hedge policy (honoured by
//! [`ConnectionPool`](crate::pool::ConnectionPool), and only for
//! idempotent operations) launches a second attempt on a different
//! connection when the first has not answered within the hedge delay.

use std::time::Duration;

use mockingbird_rng::StdRng;

/// Options applied to one remote call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallOptions {
    /// How long to wait for the reply. `None` waits indefinitely
    /// (the pre-deadline serial semantics).
    pub deadline: Option<Duration>,
    /// Retry policy for idempotent operations. `None` never retries.
    pub retry: Option<RetryPolicy>,
    /// Hedging policy for idempotent operations routed through a
    /// connection pool. `None` never hedges.
    pub hedge: Option<HedgePolicy>,
    /// The call's criticality tier: sheddable traffic is cut first
    /// when the server's adaptive limiter browns out, so a degraded
    /// node keeps answering critical calls (brownout before blackout).
    pub criticality: Criticality,
}

/// Two-tier criticality: which traffic an overloaded server sheds
/// first. Propagated to the server in the deadline service-context
/// slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Criticality {
    /// Shed only when the server is fully saturated (the default).
    #[default]
    Critical,
    /// Shed early, before critical traffic, once the adaptive limiter
    /// enters its brownout band.
    Sheddable,
}

impl CallOptions {
    /// Options with no deadline, no retries, and no hedging.
    #[must_use]
    pub fn new() -> Self {
        CallOptions::default()
    }

    /// Sets the reply deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the retry policy (applied only to idempotent operations).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Sets the hedging policy (applied only to idempotent operations
    /// sent through a connection pool).
    #[must_use]
    pub fn with_hedge(mut self, hedge: HedgePolicy) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// Sets the criticality tier ([`Criticality::Critical`] is the
    /// default).
    #[must_use]
    pub fn with_criticality(mut self, criticality: Criticality) -> Self {
        self.criticality = criticality;
        self
    }

    /// Marks the call sheddable: the first traffic cut under brownout.
    #[must_use]
    pub fn sheddable(self) -> Self {
        self.with_criticality(Criticality::Sheddable)
    }
}

/// When a pooled call launches its hedged second attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HedgePolicy {
    /// Hedge after a fixed delay.
    After(Duration),
}

/// Bounded exponential backoff for re-sending idempotent calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (3 means up to 4 sends).
    pub max_retries: u32,
    /// Pause before the first retry; doubles each further retry.
    pub initial_backoff: Duration,
    /// Ceiling on the pause between retries.
    pub max_backoff: Duration,
    /// Adds seeded random jitter on top of each backoff (bounded so the
    /// jittered pause stays within `[backoff, max_backoff]`), decorrelating
    /// clients that failed at the same instant. On by default.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter: true,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_retries` retries and default backoff bounds.
    #[must_use]
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        }
    }

    /// Sets the retry budget (additional attempts after the first).
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets the pause before the first retry.
    #[must_use]
    pub fn with_initial_backoff(mut self, initial: Duration) -> Self {
        self.initial_backoff = initial;
        self
    }

    /// Sets the ceiling on the pause between retries.
    #[must_use]
    pub fn with_max_backoff(mut self, max: Duration) -> Self {
        self.max_backoff = max;
        self
    }

    /// Disables jitter (deterministic backoff; mainly for tests).
    #[must_use]
    pub fn without_jitter(mut self) -> Self {
        self.jitter = false;
        self
    }

    /// The deterministic pause before retry number `attempt` (0-based):
    /// the initial backoff doubled `attempt` times, capped at
    /// `max_backoff`.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base = self.initial_backoff.as_millis() as u64;
        let scaled = base.saturating_mul(1u64 << attempt.min(20));
        Duration::from_millis(scaled).min(self.max_backoff)
    }

    /// The pause before retry number `attempt` with seeded jitter drawn
    /// from `rng`: uniform in `[backoff, min(2·backoff, max_backoff)]`.
    /// With `jitter` disabled this is exactly [`backoff`](Self::backoff).
    #[must_use]
    pub fn jittered_backoff(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let base = self.backoff(attempt);
        if !self.jitter {
            return base;
        }
        let cap = self.max_backoff.max(base);
        let span = (cap - base).min(base);
        if span.is_zero() {
            return base;
        }
        base + Duration::from_micros(rng.gen_range(0..=span.as_micros() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy {
            max_retries: 8,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            jitter: false,
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(80));
        assert_eq!(p.backoff(4), Duration::from_millis(100));
        assert_eq!(p.backoff(63), Duration::from_millis(100));
    }

    #[test]
    fn jittered_backoff_stays_within_base_and_cap() {
        let p = RetryPolicy {
            max_retries: 8,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            jitter: true,
        };
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            for attempt in 0..10 {
                let base = p.backoff(attempt);
                let j = p.jittered_backoff(attempt, &mut rng);
                assert!(j >= base, "jitter below base: {j:?} < {base:?}");
                assert!(
                    j <= p.max_backoff,
                    "jitter above cap: {j:?} > {:?}",
                    p.max_backoff
                );
            }
        }
    }

    #[test]
    fn jittered_backoff_spreads_lockstep_clients() {
        // Two clients retrying at the same instant with different seeds
        // must not sleep identically on every attempt.
        let p = RetryPolicy::default();
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let distinct = (0..8)
            .filter(|&k| p.jittered_backoff(k, &mut a) != p.jittered_backoff(k, &mut b))
            .count();
        assert!(distinct >= 4, "only {distinct}/8 attempts decorrelated");
    }

    #[test]
    fn jitter_off_is_deterministic() {
        let p = RetryPolicy::retries(3).without_jitter();
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(p.jittered_backoff(2, &mut rng), p.backoff(2));
    }

    #[test]
    fn builders_compose() {
        let o = CallOptions::new()
            .with_deadline(Duration::from_millis(250))
            .with_retry(RetryPolicy::retries(2))
            .with_hedge(HedgePolicy::After(Duration::from_millis(5)));
        assert_eq!(o.deadline, Some(Duration::from_millis(250)));
        assert_eq!(o.retry.unwrap().max_retries, 2);
        assert_eq!(o.hedge, Some(HedgePolicy::After(Duration::from_millis(5))));
    }

    #[test]
    fn criticality_defaults_to_critical() {
        assert_eq!(CallOptions::new().criticality, Criticality::Critical);
        assert_eq!(
            CallOptions::new().sheddable().criticality,
            Criticality::Sheddable
        );
    }
}
