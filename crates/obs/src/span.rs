//! Sampled span capture.
//!
//! A [`SpanLog`] is a bounded ring of [`SpanRecord`]s. The runtime
//! records one span per sampled attempt (client side, with endpoint and
//! breaker state) and one per dispatch (server side); when a hedged
//! race resolves, the winning attempt's span is flagged via
//! [`SpanLog::mark_winner`]. The ring is lossy by design — it holds the
//! most recent `capacity` spans and is meant for slow-call forensics,
//! not as a durable trace store.

use crate::trace::TraceContext;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Which side of the call recorded the span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Client,
    Server,
}

/// One captured call attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub trace_id: u128,
    pub span_id: u64,
    /// Span id of the logical call this attempt belongs to; 0 for roots.
    pub parent_span_id: u64,
    pub kind: SpanKind,
    pub operation: String,
    /// Remote endpoint (client side) or peer (server side); may be empty.
    pub endpoint: String,
    /// Circuit-breaker state at attempt time; empty when no breaker.
    pub breaker: String,
    /// Microseconds since the owning [`SpanLog`] was created.
    pub start_us: u64,
    pub duration_us: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// Set on the attempt that won a hedged race.
    pub winner: bool,
    pub error: Option<String>,
}

impl SpanRecord {
    /// Start a record from a context; the caller fills in the rest.
    pub fn new(ctx: TraceContext, kind: SpanKind, operation: impl Into<String>) -> SpanRecord {
        SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span_id: 0,
            kind,
            operation: operation.into(),
            endpoint: String::new(),
            breaker: String::new(),
            start_us: 0,
            duration_us: 0,
            bytes_out: 0,
            bytes_in: 0,
            winner: false,
            error: None,
        }
    }
}

/// Bounded ring of recent spans.
pub struct SpanLog {
    inner: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
    epoch: Instant,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new(512)
    }
}

impl SpanLog {
    pub fn new(capacity: usize) -> SpanLog {
        SpanLog {
            inner: Mutex::new(VecDeque::with_capacity(capacity.min(64))),
            capacity: capacity.max(1),
            epoch: Instant::now(),
        }
    }

    /// Microseconds since this log was created; use for `start_us`.
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Append a span, evicting the oldest when full.
    pub fn record(&self, span: SpanRecord) {
        let mut q = self.inner.lock().unwrap();
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(span);
    }

    /// Flag the span identified by `(trace_id, span_id)` as the winner
    /// of a hedged race. Returns whether it was found (it may already
    /// have been evicted).
    pub fn mark_winner(&self, trace_id: u128, span_id: u64) -> bool {
        let mut q = self.inner.lock().unwrap();
        for s in q.iter_mut().rev() {
            if s.trace_id == trace_id && s.span_id == span_id {
                s.winner = true;
                return true;
            }
        }
        false
    }

    /// Copy out the current contents, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.inner.lock().unwrap().iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().is_empty()
    }

    pub fn clear(&self) {
        self.inner.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let log = SpanLog::new(4);
        for i in 0..10u64 {
            let mut s = SpanRecord::new(TraceContext::root(), SpanKind::Client, "op");
            s.duration_us = i;
            log.record(s);
        }
        let spans = log.snapshot();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            spans.iter().map(|s| s.duration_us).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn mark_winner_finds_the_span() {
        let log = SpanLog::new(8);
        let ctx = TraceContext::root();
        let a = ctx.child();
        let b = ctx.child();
        log.record(SpanRecord::new(a, SpanKind::Client, "op"));
        log.record(SpanRecord::new(b, SpanKind::Client, "op"));
        assert!(log.mark_winner(ctx.trace_id, b.span_id));
        assert!(!log.mark_winner(ctx.trace_id, 0xdead));
        let spans = log.snapshot();
        assert!(!spans[0].winner);
        assert!(spans[1].winner);
    }

    #[test]
    fn clock_is_monotonic_and_clear_empties() {
        let log = SpanLog::default();
        let a = log.now_us();
        let b = log.now_us();
        assert!(b >= a);
        log.record(SpanRecord::new(TraceContext::root(), SpanKind::Server, "x"));
        assert_eq!(log.len(), 1);
        log.clear();
        assert!(log.is_empty());
    }
}
