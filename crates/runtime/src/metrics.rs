//! Runtime metrics: counters, a gauge, per-operation latency
//! histograms, and sampled span capture, scoped to a
//! [`MetricsRegistry`].
//!
//! The transport and proxy layers record what crosses the wire —
//! requests sent, replies received, retries, deadline expiries, raw
//! bytes in each direction — plus per-operation latency histograms on
//! both the client ([`crate::proxy`]) and server ([`crate::dispatch`])
//! sides. All of it lives in a `MetricsRegistry` owned by the node that
//! produced it: a `TcpServer`'s dispatcher, a `ConnectionPool`, or a
//! single connection. Two nodes in one process (or one test binary)
//! therefore never clobber each other's numbers, and resetting one
//! node's registry cannot skew another's measurement section.
//!
//! The mesh naming layer records here too: members discovered, gossip
//! rounds, directory resolutions, failovers, and stale-entry
//! evictions, so a node's Prometheus scrape shows its view of the
//! cluster next to its wire traffic.
//!
//! Each counter and gauge is declared once, as one row of the table
//! below: its doc comment (which doubles as the Prometheus `# HELP`
//! text), its kind, its field name, and its recording method. The rows
//! generate the atomic storage ([`Metrics`]), [`MetricsSnapshot`], the
//! recorders, `snapshot`, `reset`, and [`METRICS`], which both
//! exposition formats iterate. Adding a metric is one row plus the
//! call site that records it.

use mockingbird_obs::{Histogram, HistogramSnapshot, SpanLog, SpanRecord};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use crate::sync::RwLockExt;

/// One row of the metric table: everything exposition needs besides
/// the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// The field name in [`MetricsSnapshot`] and `/metrics.json`.
    pub name: &'static str,
    /// `"counter"` or `"gauge"`: the row's kind, spelled as its
    /// Prometheus `# TYPE` keyword.
    pub kind: &'static str,
    /// The row's doc comment, exported as the `# HELP` text.
    pub help: &'static str,
}

impl Metric {
    /// The Prometheus family name: `mockingbird_<name>_total` for a
    /// counter, `mockingbird_<name>` for a gauge.
    #[must_use]
    pub fn family(&self) -> String {
        let suffix = if self.kind == "counter" { "_total" } else { "" };
        format!("mockingbird_{}{suffix}", self.name)
    }
}

/// Generates the metric set from its rows (see the module docs). A
/// recorder taking an argument adds it to a counter or sets a gauge to
/// it; one without adds one to a counter.
macro_rules! metric_table {
    (@recorder counter $field:ident $record:ident) => {
        #[doc = concat!("Adds one to [`MetricsSnapshot::", stringify!($field), "`].")]
        pub fn $record(&self) {
            self.$field.fetch_add(1, Ordering::Relaxed);
        }
    };
    (@recorder counter $field:ident $record:ident $arg:ident) => {
        #[doc = concat!("Adds `", stringify!($arg), "` to [`MetricsSnapshot::", stringify!($field), "`].")]
        pub fn $record(&self, $arg: u64) {
            self.$field.fetch_add($arg, Ordering::Relaxed);
        }
    };
    (@recorder gauge $field:ident $record:ident $arg:ident) => {
        #[doc = concat!("Sets [`MetricsSnapshot::", stringify!($field), "`] to `", stringify!($arg), "`.")]
        pub fn $record(&self, $arg: u64) {
            self.$field.store($arg, Ordering::Relaxed);
        }
    };
    ($($(#[doc = $doc:literal])+ $kind:ident $field:ident: $record:ident($($arg:ident)?);)+) => {
        /// One node's metric cells: an atomic per table row.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($field: AtomicU64,)+
        }

        /// A consistent-enough point-in-time copy of every metric.
        ///
        /// Each field is read atomically; the set as a whole is not a
        /// single atomic transaction, which is fine for reporting.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[doc = $doc])+ pub $field: u64,)+
        }

        /// Every row of the metric table, in declaration order.
        pub const METRICS: &[Metric] = &[$(Metric {
            name: stringify!($field),
            kind: stringify!($kind),
            help: concat!($($doc),+).trim_ascii_start(),
        }),+];

        impl Metrics {
            /// A zeroed metric set.
            #[must_use]
            pub const fn new() -> Self {
                Metrics { $($field: AtomicU64::new(0),)+ }
            }

            $(metric_table!(@recorder $kind $field $record $($arg)?);)+

            /// Copies every metric.
            #[must_use]
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot { $($field: self.$field.load(Ordering::Relaxed),)+ }
            }

            /// Zeroes every metric.
            pub fn reset(&self) {
                $(self.$field.store(0, Ordering::Relaxed);)+
            }
        }

        impl MetricsSnapshot {
            /// Each row of [`METRICS`] with its value, in declaration
            /// order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static Metric, u64)> {
                METRICS.iter().zip([$(self.$field),+])
            }
        }
    };
}

metric_table! {
    /// Request frames handed to a connection (every retry counts).
    counter requests: add_request();
    /// Reply frames successfully correlated back to a caller.
    counter replies: add_reply();
    /// Re-sends of idempotent calls after transport/timeout failures.
    counter retries: add_retry();
    /// Calls whose deadline elapsed before a reply arrived.
    counter timeouts: add_timeout();
    /// Frame bytes written to sockets/streams.
    counter bytes_sent: add_bytes_sent(n);
    /// Frame bytes read from sockets/streams.
    counter bytes_received: add_bytes_received(n);
    /// CDR body bytes produced by the data plane (native → wire).
    counter bytes_marshalled: add_bytes_marshalled(n);
    /// CDR body bytes consumed by the data plane (wire → native).
    counter bytes_unmarshalled: add_bytes_unmarshalled(n);
    /// Wire programs compiled from plans or types.
    counter programs_compiled: add_programs_compiled(n);
    /// Remote calls marshalled by emitted native stubs (the second
    /// Futamura projection tier, ahead of the opcode VM).
    counter native_calls: add_native_call();
    /// Fused calls that ran on the opcode VM because no native stub was
    /// registered for one or both directions.
    counter native_fallbacks: add_native_fallback();
    /// Marshal buffers handed out from a pool with warmed capacity.
    counter pool_reuses: add_pool_reuse();
    /// Marshal buffer requests that had to allocate fresh.
    counter pool_misses: add_pool_miss();
    /// Connect-time handshakes attempted (client side).
    counter handshakes: add_handshake();
    /// Handshakes rejected for protocol/interface skew (both sides).
    counter handshake_rejects: add_handshake_reject();
    /// Handshakes that degraded to the interpretive marshal path.
    counter handshake_fallbacks: add_handshake_fallback();
    /// Circuit-breaker transitions into the open state.
    counter breaker_opens: add_breaker_open();
    /// Circuit-breaker transitions into the half-open state.
    counter breaker_half_opens: add_breaker_half_open();
    /// Circuit-breaker transitions back to the closed state.
    counter breaker_closes: add_breaker_close();
    /// Requests the server shed instead of queueing (Overloaded reply).
    counter sheds: add_shed();
    /// Overloaded replies received by clients.
    counter overloads: add_overload();
    /// Hedged second attempts launched after the hedge delay.
    counter hedges_fired: add_hedge_fired();
    /// Hedged calls won by the second attempt.
    counter hedges_won: add_hedge_won();
    /// Faults injected by the chaos transport (drops, truncations,
    /// corruptions, disconnects — delays are not counted).
    counter faults_injected: add_fault_injected();
    /// Distinct mesh members this node has learned about (first sight
    /// of each node id, across joins and rejoins).
    counter mesh_members_seen: add_mesh_member_seen();
    /// Gossip rounds this node has initiated.
    counter mesh_gossip_rounds: add_mesh_gossip_round();
    /// Directory resolutions applied to a pool's endpoint set.
    counter mesh_resolutions: add_mesh_resolution();
    /// Calls re-routed to another replica after a failure.
    counter mesh_failovers: add_mesh_failover();
    /// Mesh membership entries evicted as stale (no refresh within the
    /// eviction horizon).
    counter mesh_evictions: add_mesh_eviction();
    /// Requests a server refused because their propagated deadline had
    /// already expired (admission, dequeue, or pre-dispatch check).
    counter deadline_expired_server: add_deadline_expired_server();
    /// Calls that failed fast because the pool's retry budget was
    /// empty when a retry, hedge, or failover redial wanted a token.
    counter retry_budget_exhausted: add_retry_budget_exhausted();
    /// Sheddable requests cut in the adaptive limiter's brownout band
    /// (before critical traffic was touched).
    counter brownout_sheds: add_brownout_shed();
    /// Artifact-store lookups that found the key.
    counter artifact_hits: add_artifact_hits(n);
    /// Artifact-store lookups that missed.
    counter artifact_misses: add_artifact_misses(n);
    /// Artifact records dropped by store capacity eviction.
    counter artifact_evictions: add_artifact_evictions(n);
    /// Artifact records fetched from mesh peers over `MBAR`.
    counter peer_fetches: add_peer_fetch();
    /// Artifact body bytes received from mesh peers over `MBAR`.
    counter peer_fetch_bytes: add_peer_fetch_bytes(n);
    /// Artifact records rejected for failing a checksum or content-hash
    /// check (hostile store files, corrupt peer transfers).
    counter artifact_integrity_failures: add_artifact_integrity_failure();
    /// The adaptive limiter's current admission limit (0 until a server
    /// publishes one).
    gauge admission_limit: set_admission_limit(limit);
}

/// A per-node metrics handle: the counter set plus per-operation latency
/// histograms for both call sides, a bounded span log for sampled slow
/// calls, and the tracing switch. Owned (as an `Arc`) by a `TcpServer`'s
/// dispatcher, a `ConnectionPool`, or an individual connection;
/// everything recorded through one registry stays scoped to that node.
///
/// Derefs to [`Metrics`], so counter recording reads the same at every
/// call site: `registry.add_request()`.
pub struct MetricsRegistry {
    counters: Metrics,
    client_ops: RwLock<HashMap<String, Arc<Histogram>>>,
    server_ops: RwLock<HashMap<String, Arc<Histogram>>>,
    spans: SpanLog,
    tracing: AtomicBool,
    slow_threshold_us: AtomicU64,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.counters)
            .field("tracing", &self.tracing_enabled())
            .field("spans", &self.spans.len())
            .finish_non_exhaustive()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for MetricsRegistry {
    type Target = Metrics;
    fn deref(&self) -> &Metrics {
        &self.counters
    }
}

impl MetricsRegistry {
    /// A fresh registry: zeroed counters, no histograms, tracing off.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry {
            counters: Metrics::new(),
            client_ops: RwLock::new(HashMap::new()),
            server_ops: RwLock::new(HashMap::new()),
            spans: SpanLog::default(),
            tracing: AtomicBool::new(false),
            slow_threshold_us: AtomicU64::new(0),
        }
    }

    /// A fresh registry behind an `Arc`, ready to hand to a node.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Zeroes the counters and drops all histograms and spans.
    pub fn reset(&self) {
        self.counters.reset();
        self.client_ops.pwrite().clear();
        self.server_ops.pwrite().clear();
        self.spans.clear();
    }

    /// Turns trace propagation + span capture on or off for callers
    /// using this registry. Latency histograms record regardless.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Whether trace contexts are being minted and spans captured.
    #[must_use]
    pub fn tracing_enabled(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Only capture spans for sampled calls at least this slow
    /// (default: zero, i.e. every sampled call).
    pub fn set_slow_threshold(&self, min: Duration) {
        self.slow_threshold_us.store(
            u64::try_from(min.as_micros()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }

    fn histogram(map: &RwLock<HashMap<String, Arc<Histogram>>>, op: &str) -> Arc<Histogram> {
        if let Some(h) = map.pread().get(op) {
            return Arc::clone(h);
        }
        let mut w = map.pwrite();
        Arc::clone(w.entry(op.to_string()).or_default())
    }

    /// The client-side latency histogram for `op` (created on first use).
    #[must_use]
    pub fn client_histogram(&self, op: &str) -> Arc<Histogram> {
        Self::histogram(&self.client_ops, op)
    }

    /// The server-side latency histogram for `op` (created on first use).
    #[must_use]
    pub fn server_histogram(&self, op: &str) -> Arc<Histogram> {
        Self::histogram(&self.server_ops, op)
    }

    /// Records one client-side call latency for `op`.
    pub fn record_client(&self, op: &str, elapsed: Duration) {
        self.client_histogram(op).record_duration(elapsed);
    }

    /// Records one server-side dispatch latency for `op`.
    pub fn record_server(&self, op: &str, elapsed: Duration) {
        self.server_histogram(op).record_duration(elapsed);
    }

    /// Snapshots of every client-side histogram, sorted by operation.
    #[must_use]
    pub fn client_ops(&self) -> Vec<(String, HistogramSnapshot)> {
        Self::ops_snapshot(&self.client_ops)
    }

    /// Snapshots of every server-side histogram, sorted by operation.
    #[must_use]
    pub fn server_ops(&self) -> Vec<(String, HistogramSnapshot)> {
        Self::ops_snapshot(&self.server_ops)
    }

    fn ops_snapshot(
        map: &RwLock<HashMap<String, Arc<Histogram>>>,
    ) -> Vec<(String, HistogramSnapshot)> {
        let mut v: Vec<_> = map
            .pread()
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// The bounded span log.
    #[must_use]
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Whether a sampled span of this duration clears the slow-call
    /// threshold. Hot paths check this before building a
    /// [`SpanRecord`], whose endpoint/error strings allocate.
    #[must_use]
    pub fn wants_span(&self, duration_us: u64) -> bool {
        duration_us >= self.slow_threshold_us.load(Ordering::Relaxed)
    }

    /// Captures a span if it clears the slow-call threshold.
    pub fn record_span(&self, span: SpanRecord) {
        if self.wants_span(span.duration_us) {
            self.spans.record(span);
        }
    }

    /// Flags the winning attempt of a hedged race.
    pub fn mark_winner(&self, trace_id: u128, span_id: u64) -> bool {
        self.spans.mark_winner(trace_id, span_id)
    }

    /// Renders everything in the Prometheus text exposition format: a
    /// `# HELP`, `# TYPE` and sample line for each row of [`METRICS`],
    /// then per-operation latency summaries (`quantile` labelled) for
    /// each side, then a gauge with the current span-log depth.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        for (metric, value) in self.snapshot().fields() {
            let family = metric.family();
            let _ = writeln!(out, "# HELP {family} {}", metric.help);
            let _ = writeln!(out, "# TYPE {family} {}", metric.kind);
            let _ = writeln!(out, "{family} {value}");
        }
        let _ = writeln!(
            out,
            "# HELP mockingbird_op_latency_microseconds Call latency (client) and dispatch latency (server) per operation.\n# TYPE mockingbird_op_latency_microseconds summary"
        );
        for (side, ops) in [("client", self.client_ops()), ("server", self.server_ops())] {
            for (op, s) in ops {
                for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
                    let _ = writeln!(
                        out,
                        "mockingbird_op_latency_microseconds{{side=\"{side}\",op=\"{op}\",quantile=\"{label}\"}} {}",
                        s.quantile(q)
                    );
                }
                let _ = writeln!(
                    out,
                    "mockingbird_op_latency_microseconds_sum{{side=\"{side}\",op=\"{op}\"}} {}",
                    s.sum()
                );
                let _ = writeln!(
                    out,
                    "mockingbird_op_latency_microseconds_count{{side=\"{side}\",op=\"{op}\"}} {}",
                    s.count()
                );
            }
        }
        let _ = writeln!(
            out,
            "# HELP mockingbird_spans_captured Sampled spans held in the bounded span log.\n# TYPE mockingbird_spans_captured gauge"
        );
        let _ = writeln!(out, "mockingbird_spans_captured {}", self.spans.len());
        out
    }

    /// Renders the metrics as a JSON object: the counter rows of
    /// [`METRICS`] under `counters`, per-op latency quantiles under
    /// `client_ops`/`server_ops`, then each gauge row, the tracing
    /// switch and the span-log depth as top-level keys (hand-rolled:
    /// operation names come from in-tree declarations and never need
    /// escaping beyond quotes/backslashes).
    #[must_use]
    pub fn json_snapshot(&self) -> String {
        use std::fmt::Write as _;
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        fn ops_json(out: &mut String, ops: &[(String, HistogramSnapshot)]) {
            out.push('{');
            for (i, (op, s)) in ops.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\"{}\":{{\"count\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{},\"mean_us\":{:.1}}}",
                    esc(op),
                    s.count(),
                    s.quantile(0.5),
                    s.quantile(0.95),
                    s.quantile(0.99),
                    s.max(),
                    s.mean()
                );
            }
            out.push('}');
        }
        let snapshot = self.snapshot();
        let rows = |kind: &'static str| snapshot.fields().filter(move |(m, _)| m.kind == kind);
        let mut out = String::with_capacity(2048);
        out.push_str("{\"counters\":{");
        for (i, (metric, value)) in rows("counter").enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{value}", metric.name);
        }
        out.push_str("},\"client_ops\":");
        ops_json(&mut out, &self.client_ops());
        out.push_str(",\"server_ops\":");
        ops_json(&mut out, &self.server_ops());
        for (metric, value) in rows("gauge") {
            let _ = write!(out, ",\"{}\":{value}", metric.name);
        }
        let _ = write!(
            out,
            ",\"tracing\":{},\"spans_captured\":{}}}",
            self.tracing_enabled(),
            self.spans.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = Metrics::new();
        m.add_request();
        m.add_request();
        m.add_reply();
        m.add_retry();
        m.add_timeout();
        m.add_bytes_sent(100);
        m.add_bytes_received(60);
        m.add_bytes_marshalled(48);
        m.add_bytes_unmarshalled(24);
        m.add_programs_compiled(2);
        m.add_pool_reuse();
        m.add_pool_reuse();
        m.add_pool_miss();
        m.add_handshake();
        m.add_handshake_reject();
        m.add_handshake_fallback();
        m.add_breaker_open();
        m.add_breaker_half_open();
        m.add_breaker_close();
        m.add_shed();
        m.add_overload();
        m.add_hedge_fired();
        m.add_hedge_won();
        m.add_fault_injected();
        m.add_mesh_member_seen();
        m.add_mesh_gossip_round();
        m.add_mesh_resolution();
        m.add_mesh_failover();
        m.add_mesh_eviction();
        m.add_deadline_expired_server();
        m.add_retry_budget_exhausted();
        m.add_brownout_shed();
        m.add_artifact_hits(4);
        m.add_artifact_misses(2);
        m.add_artifact_evictions(3);
        m.add_peer_fetch();
        m.add_peer_fetch_bytes(512);
        m.add_artifact_integrity_failure();
        m.set_admission_limit(64);
        let s = m.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.replies, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.bytes_sent, 100);
        assert_eq!(s.bytes_received, 60);
        assert_eq!(s.bytes_marshalled, 48);
        assert_eq!(s.bytes_unmarshalled, 24);
        assert_eq!(s.programs_compiled, 2);
        assert_eq!(s.pool_reuses, 2);
        assert_eq!(s.pool_misses, 1);
        assert_eq!(s.handshakes, 1);
        assert_eq!(s.handshake_rejects, 1);
        assert_eq!(s.handshake_fallbacks, 1);
        assert_eq!(s.breaker_opens, 1);
        assert_eq!(s.breaker_half_opens, 1);
        assert_eq!(s.breaker_closes, 1);
        assert_eq!(s.sheds, 1);
        assert_eq!(s.overloads, 1);
        assert_eq!(s.hedges_fired, 1);
        assert_eq!(s.hedges_won, 1);
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.mesh_members_seen, 1);
        assert_eq!(s.mesh_gossip_rounds, 1);
        assert_eq!(s.mesh_resolutions, 1);
        assert_eq!(s.mesh_failovers, 1);
        assert_eq!(s.mesh_evictions, 1);
        assert_eq!(s.deadline_expired_server, 1);
        assert_eq!(s.retry_budget_exhausted, 1);
        assert_eq!(s.brownout_sheds, 1);
        assert_eq!(s.artifact_hits, 4);
        assert_eq!(s.artifact_misses, 2);
        assert_eq!(s.artifact_evictions, 3);
        assert_eq!(s.peer_fetches, 1);
        assert_eq!(s.peer_fetch_bytes, 512);
        assert_eq!(s.artifact_integrity_failures, 1);
        assert_eq!(s.admission_limit, 64);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn registries_are_isolated() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.add_request();
        a.record_client("echo", Duration::from_micros(120));
        b.add_retry();
        assert_eq!(a.snapshot().requests, 1);
        assert_eq!(a.snapshot().retries, 0);
        assert_eq!(b.snapshot().requests, 0);
        assert_eq!(b.snapshot().retries, 1);
        assert!(b.client_ops().is_empty());
        let ops = a.client_ops();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].0, "echo");
        assert_eq!(ops[0].1.count(), 1);
        a.reset();
        assert_eq!(a.snapshot(), MetricsSnapshot::default());
        assert!(a.client_ops().is_empty());
        assert_eq!(b.snapshot().retries, 1, "resetting a leaves b alone");
    }

    #[test]
    fn registry_histograms_and_spans() {
        use mockingbird_obs::{SpanKind, TraceContext};
        let r = MetricsRegistry::new();
        assert!(!r.tracing_enabled());
        r.set_tracing(true);
        assert!(r.tracing_enabled());
        for us in [100u64, 200, 300] {
            r.record_server("work", Duration::from_micros(us));
        }
        let ops = r.server_ops();
        assert_eq!(ops[0].1.count(), 3);
        let ctx = TraceContext::root();
        let mut span = SpanRecord::new(ctx, SpanKind::Client, "work");
        span.duration_us = 50;
        r.record_span(span.clone());
        assert_eq!(r.spans().len(), 1);
        assert!(r.mark_winner(ctx.trace_id, ctx.span_id));
        assert!(r.spans().snapshot()[0].winner);
        // Raising the slow threshold filters fast spans out.
        r.set_slow_threshold(Duration::from_micros(1000));
        r.record_span(span);
        assert_eq!(r.spans().len(), 1);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let r = MetricsRegistry::new();
        r.add_request();
        r.record_client("echo", Duration::from_micros(250));
        r.record_server("echo", Duration::from_micros(90));
        let text = r.prometheus_text();
        // Every family declared exactly once.
        let mut families = std::collections::HashSet::new();
        for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
            let fam = line.split_whitespace().nth(2).unwrap();
            assert!(families.insert(fam.to_string()), "duplicate family {fam}");
        }
        assert!(text.contains("mockingbird_requests_total 1"));
        // The artifact-store families export alongside everything else.
        r.add_artifact_hits(5);
        r.add_peer_fetch();
        r.add_peer_fetch_bytes(640);
        r.add_artifact_integrity_failure();
        let text = r.prometheus_text();
        assert!(text.contains("mockingbird_artifact_hits_total 5"));
        assert!(text.contains("mockingbird_artifact_misses_total 0"));
        assert!(text.contains("mockingbird_artifact_evictions_total 0"));
        assert!(text.contains("mockingbird_peer_fetches_total 1"));
        assert!(text.contains("mockingbird_peer_fetch_bytes_total 640"));
        assert!(text.contains("mockingbird_artifact_integrity_failures_total 1"));
        assert!(text.contains("side=\"client\",op=\"echo\",quantile=\"0.5\""));
        assert!(text
            .contains("mockingbird_op_latency_microseconds_count{side=\"server\",op=\"echo\"} 1"));
        let json = r.json_snapshot();
        assert!(json.contains("\"requests\":1"));
        assert!(json.contains("\"client_ops\":{\"echo\""));
        // Gauge rows are top-level keys, not members of `counters`.
        assert_eq!(json.matches("\"admission_limit\"").count(), 1);
        assert!(json.ends_with(",\"admission_limit\":0,\"tracing\":false,\"spans_captured\":0}"));
    }
}
