//! Client-side remote references.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mockingbird_obs::{SpanKind, SpanRecord, TraceContext};
use mockingbird_rng::StdRng;
use mockingbird_values::{Endian, MValue};
use mockingbird_wire::{CdrReader, HandshakeInfo, Message, MessageKind, ReplyStatus, WireDeadline};

use crate::dispatch::{interface_fingerprint, WireOp};
use crate::error::RuntimeError;
use crate::metrics::MetricsRegistry;
use crate::options::{CallOptions, Criticality};
use crate::pool::BufferPool;
use crate::transport::Connection;

/// Per-thread retry-jitter stream. Each thread seeds differently (the
/// golden-ratio stride keeps seeds well spread), so clients that failed
/// at the same instant back off to different points in the window; the
/// stream does not need to be reproducible across runs — chaos tests
/// that want reproducibility disable jitter or pin their own policy.
static RETRY_SEED: AtomicU64 = AtomicU64::new(0x5EED);
thread_local! {
    static RETRY_RNG: RefCell<StdRng> = RefCell::new(StdRng::seed_from_u64(
        RETRY_SEED.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed),
    ));
}

/// Failover attempts granted to version-skew failures over a dynamic
/// endpoint set when the caller set no retry policy of their own. Two
/// re-routes cover the common case (one skewed replica out of three)
/// without letting a fully-skewed cluster spin.
const DEFAULT_FAILOVER_RETRIES: u32 = 2;

/// The client side of a remote object: holds a connection, the target's
/// object key, and the wire types of each operation. `invoke` encodes the
/// argument record, frames a GIOP Request, and decodes the Reply.
///
/// A reference carries default [`CallOptions`] (set with
/// [`with_options`](RemoteRef::with_options)); `invoke_with` overrides
/// them per call. When the options hold a retry policy, calls to
/// operations declared [idempotent](WireOp::idempotent) are re-sent
/// after transport failures and expired deadlines, with bounded
/// exponential backoff between attempts.
pub struct RemoteRef {
    connection: Arc<dyn Connection>,
    object_key: Vec<u8>,
    ops: HashMap<String, WireOp>,
    endian: Endian,
    next_request: AtomicU32,
    options: CallOptions,
    buffers: BufferPool,
    metrics: Arc<MetricsRegistry>,
}

impl RemoteRef {
    /// Builds a reference to `object_key` reachable over `connection`.
    /// The reference records into the connection's metrics registry when
    /// it has one (pools and multiplexed links do), otherwise into a
    /// fresh private registry.
    pub fn new(
        connection: Arc<dyn Connection>,
        object_key: impl Into<Vec<u8>>,
        mut ops: HashMap<String, WireOp>,
        endian: Endian,
    ) -> Self {
        let metrics = connection.metrics().unwrap_or_else(MetricsRegistry::shared);
        for op in ops.values_mut() {
            op.attach_metrics(&metrics);
        }
        RemoteRef {
            connection,
            object_key: object_key.into(),
            ops,
            endian,
            next_request: AtomicU32::new(1),
            options: CallOptions::default(),
            buffers: BufferPool::new().with_metrics(&metrics),
            metrics,
        }
    }

    /// The registry this reference records requests, retries, latency
    /// histograms, and spans into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Rebinds the reference (and its operations and buffer pool) to an
    /// explicit registry, overriding the one inherited from the
    /// connection.
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        for op in self.ops.values_mut() {
            op.rebind_metrics(&registry);
        }
        self.buffers = BufferPool::new().with_metrics(&registry);
        self.metrics = registry;
        self
    }

    /// The reference's request-buffer pool. Fused stubs check encoders
    /// out of this pool and return request bodies to it, so a warmed
    /// reference marshals without allocating.
    pub fn buffers(&self) -> &BufferPool {
        &self.buffers
    }

    /// The byte order this reference marshals with.
    pub fn endian(&self) -> Endian {
        self.endian
    }

    /// Sets the default per-call options for this reference.
    #[must_use]
    pub fn with_options(mut self, options: CallOptions) -> Self {
        self.options = options;
        self
    }

    /// The default per-call options.
    pub fn options(&self) -> &CallOptions {
        &self.options
    }

    /// The operations this reference can invoke.
    pub fn operations(&self) -> impl Iterator<Item = &str> {
        self.ops.keys().map(String::as_str)
    }

    /// Whether `operation` is declared idempotent (and so participates
    /// in retry policies).
    pub fn is_idempotent(&self, operation: &str) -> bool {
        self.ops.get(operation).is_some_and(|op| op.idempotent)
    }

    /// The handshake this reference's declarations imply: the interface
    /// fingerprint of its operation table plus the caller's marshal-rules
    /// fingerprint.
    pub fn handshake_info(&self, rules_fp: u64) -> HandshakeInfo {
        HandshakeInfo::new(interface_fingerprint(&self.ops), rules_fp)
    }

    /// Invokes `operation` with an argument record under the reference's
    /// default options, awaiting the result record.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownOperation`] when the operation is
    /// not declared, [`RuntimeError::Application`] when the remote
    /// servant raised, [`RuntimeError::Timeout`] when the deadline
    /// elapses, and transport/protocol errors otherwise.
    pub fn invoke(&self, operation: &str, args: &MValue) -> Result<MValue, RuntimeError> {
        let options = self.options.clone();
        self.invoke_with(operation, args, &options)
    }

    /// Invokes `operation` under explicit per-call options.
    ///
    /// # Errors
    ///
    /// As [`invoke`](RemoteRef::invoke).
    pub fn invoke_with(
        &self,
        operation: &str,
        args: &MValue,
        options: &CallOptions,
    ) -> Result<MValue, RuntimeError> {
        let op = self
            .ops
            .get(operation)
            .ok_or_else(|| RuntimeError::UnknownOperation(operation.to_string()))?;
        let mut enc = self.buffers.encoder(self.endian);
        op.encode_with(enc.writer(), op.args_ty, args)?;
        let body = enc.finish();
        let (reply_body, reply_endian) =
            self.invoke_body_with(operation, body, op.idempotent, options)?;
        op.decode(op.result_ty, &reply_body, reply_endian)
    }

    /// Invokes `operation` with a pre-encoded CDR request body, returning
    /// the raw reply body and its byte order. This is the entry point of
    /// the fused data plane: compiled stubs marshal straight into a
    /// pooled buffer and hand the bytes here, bypassing the interpretive
    /// value pipeline entirely.
    ///
    /// The body buffer is recycled into [`buffers`](RemoteRef::buffers)
    /// when the call completes (it is reused as-is across retry
    /// attempts — no per-attempt clone).
    ///
    /// # Errors
    ///
    /// As [`invoke`](RemoteRef::invoke), except conversion errors, which
    /// cannot arise from raw bytes.
    pub fn invoke_body_with(
        &self,
        operation: &str,
        body: Vec<u8>,
        idempotent: bool,
        options: &CallOptions,
    ) -> Result<(Vec<u8>, Endian), RuntimeError> {
        // Retries are opt-in twice over: the options must carry a policy
        // and the operation must be declared idempotent.
        let policy = if idempotent {
            options.retry.as_ref()
        } else {
            None
        };
        // Hedging executes the request twice when the race is close, so
        // it is idempotent-only for the same reason retries are.
        let stripped;
        let options = if options.hedge.is_some() && !idempotent {
            stripped = CallOptions {
                hedge: None,
                ..options.clone()
            };
            &stripped
        } else {
            options
        };
        let max_retries = policy.map_or(0, |p| p.max_retries);
        // Over a dynamic endpoint set a failed attempt may succeed on a
        // *different* replica, so connect-time failures get a failover
        // budget even without an explicit retry policy. Version skew in
        // particular: the skewed replica is quarantined by the pool, so
        // the re-resolved retry routes elsewhere — and since the skewed
        // handshake never executed the request, retrying is safe even
        // for non-idempotent operations.
        let failover = self.connection.supports_failover();
        let skew_budget = if failover {
            options
                .retry
                .as_ref()
                .map_or(DEFAULT_FAILOVER_RETRIES, |p| p.max_retries.max(1))
        } else {
            0
        };
        // One logical call mints one trace context; every retry attempt
        // (and any hedged duplicate further down) is a child span of the
        // same trace, so a flaky call reads as one story in the span log.
        let trace = self
            .metrics
            .tracing_enabled()
            .then(TraceContext::root)
            .map(|t| t.with_sampled(true));
        let started = Instant::now();
        let budget = self.connection.retry_budget();
        let mut attempt = 0u32;
        let mut body = body;
        loop {
            let attempt_trace = trace.map(|t| t.child());
            // Deadline deduction: every attempt (the first included) gets
            // only what remains of the caller's budget, so a retry after
            // a slow failure carries a shorter wire deadline than the
            // original send. A spent budget fails fast here instead of
            // shipping work the server is obliged to refuse.
            let restamped;
            let (current, spent) = match options.deadline {
                Some(total) => {
                    let remaining = total.saturating_sub(started.elapsed());
                    if remaining.is_zero() {
                        (options, true)
                    } else {
                        restamped = CallOptions {
                            deadline: Some(remaining),
                            ..options.clone()
                        };
                        (&restamped, false)
                    }
                }
                None => (options, false),
            };
            let (recovered, mut outcome) = if spent {
                (
                    body,
                    Err(RuntimeError::DeadlineExpired(
                        "call budget spent before the attempt could start".into(),
                    )),
                )
            } else {
                self.invoke_once_raw(operation, body, current, attempt_trace)
            };
            // Overloaded sheds are retryable by design: the server
            // answered *instead of executing*, so re-sending after
            // backoff is safe even mid-overload. Expired deadlines are
            // not: the budget is gone, no attempt can still help.
            let transient = attempt < max_retries
                && matches!(
                    outcome,
                    Err(RuntimeError::Transport(_)
                        | RuntimeError::Timeout(_)
                        | RuntimeError::Overloaded(_))
                );
            // Version skew is a connect-time verdict — the request
            // was never executed, so failing over to another replica
            // is safe regardless of idempotence. No backoff either:
            // the pool already quarantined the skewed endpoint, so
            // the retry routes to a different replica immediately.
            let skew =
                attempt < skew_budget && matches!(outcome, Err(RuntimeError::VersionSkew(_)));
            if transient || skew {
                // Every re-send amplifies offered load, so it buys a
                // token from the pool's retry budget first; an empty
                // bucket degrades the call to its single attempt and a
                // distinct fail-fast error.
                if budget.as_ref().is_none_or(|b| b.try_withdraw()) {
                    self.metrics.add_retry();
                    if skew || failover {
                        self.metrics.add_mesh_failover();
                    }
                    if transient {
                        let pause = RETRY_RNG.with(|rng| {
                            policy
                                .unwrap()
                                .jittered_backoff(attempt, &mut rng.borrow_mut())
                        });
                        // Backoff never sleeps past the caller's
                        // deadline: saturate at whatever budget remains.
                        let pause = match options.deadline {
                            Some(total) => pause.min(total.saturating_sub(started.elapsed())),
                            None => pause,
                        };
                        std::thread::sleep(pause);
                    }
                    attempt += 1;
                    body = recovered;
                    continue;
                }
                self.metrics.add_retry_budget_exhausted();
                let cause = outcome
                    .as_ref()
                    .err()
                    .map_or_else(String::new, ToString::to_string);
                outcome = Err(RuntimeError::RetryBudgetExhausted(format!(
                    "no token to retry after: {cause}"
                )));
            }
            let bytes_out = recovered.len() as u64;
            self.buffers.put(recovered);
            let elapsed = started.elapsed();
            self.metrics.record_client(operation, elapsed);
            let duration_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
            if let Some(t) = trace.filter(|t| t.sampled && self.metrics.wants_span(duration_us)) {
                let mut span = SpanRecord::new(t, SpanKind::Client, operation);
                span.start_us = self.metrics.spans().now_us().saturating_sub(duration_us);
                span.duration_us = duration_us;
                span.bytes_out = bytes_out;
                match &outcome {
                    Ok((reply, _)) => span.bytes_in = reply.len() as u64,
                    Err(e) => span.error = Some(e.to_string()),
                }
                self.metrics.record_span(span);
            }
            return outcome;
        }
    }

    /// One attempt: frames the body, calls, correlates the reply. Always
    /// hands the request body back so the caller can retry or pool it.
    #[allow(clippy::type_complexity)]
    fn invoke_once_raw(
        &self,
        operation: &str,
        body: Vec<u8>,
        options: &CallOptions,
        trace: Option<TraceContext>,
    ) -> (Vec<u8>, Result<(Vec<u8>, Endian), RuntimeError>) {
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        let mut msg = Message::request(
            request_id,
            true,
            self.object_key.clone(),
            operation,
            self.endian,
            body,
        );
        if let Some(t) = trace {
            msg = msg.with_trace(t);
        }
        // The deadline context slot rides along only when the caller set
        // a budget or marked the call sheddable, so deadline-free
        // critical traffic stays byte-identical to the pre-deadline wire
        // format.
        let sheddable = options.criticality == Criticality::Sheddable;
        if options.deadline.is_some() || sheddable {
            msg = msg.with_deadline(match options.deadline {
                Some(d) => WireDeadline::new(d, sheddable),
                None => WireDeadline::sheddable_only(),
            });
        }
        self.metrics.add_request();
        let outcome = self.connection.call_with(&msg, options);
        let body = msg.body;
        let result = (|| {
            let reply =
                outcome?.ok_or_else(|| RuntimeError::Protocol("expected a reply".into()))?;
            let MessageKind::Reply {
                request_id: rid,
                status,
            } = reply.kind
            else {
                return Err(RuntimeError::Protocol("expected a Reply message".into()));
            };
            if rid != request_id {
                return Err(RuntimeError::Protocol(format!(
                    "reply correlates to request {rid}, expected {request_id}"
                )));
            }
            self.metrics.add_reply();
            match status {
                ReplyStatus::NoException => Ok((reply.body, reply.endian)),
                ReplyStatus::Overloaded => {
                    self.metrics.add_overload();
                    let mut r = CdrReader::new(&reply.body, reply.endian);
                    let text = r
                        .get_bytes()
                        .map(|b| String::from_utf8_lossy(b).into_owned())
                        .unwrap_or_else(|_| "request shed by the server".to_string());
                    Err(RuntimeError::Overloaded(text))
                }
                ReplyStatus::DeadlineExpired => {
                    let mut r = CdrReader::new(&reply.body, reply.endian);
                    let text = r
                        .get_bytes()
                        .map(|b| String::from_utf8_lossy(b).into_owned())
                        .unwrap_or_else(|_| "deadline expired before dispatch".to_string());
                    Err(RuntimeError::DeadlineExpired(text))
                }
                ReplyStatus::UserException | ReplyStatus::SystemException => {
                    let mut r = CdrReader::new(&reply.body, reply.endian);
                    let text = r
                        .get_bytes()
                        .map(|b| String::from_utf8_lossy(b).into_owned())
                        .unwrap_or_else(|_| "remote exception".to_string());
                    Err(if status == ReplyStatus::UserException {
                        RuntimeError::Application(text)
                    } else {
                        RuntimeError::Protocol(text)
                    })
                }
            }
        })();
        (body, result)
    }

    /// Sends a oneway message: no reply is awaited.
    ///
    /// # Errors
    ///
    /// Returns transport failures; remote failures are invisible
    /// (messaging semantics).
    pub fn send(&self, operation: &str, args: &MValue) -> Result<(), RuntimeError> {
        let op = self
            .ops
            .get(operation)
            .ok_or_else(|| RuntimeError::UnknownOperation(operation.to_string()))?;
        let mut enc = self.buffers.encoder(self.endian);
        op.encode_with(enc.writer(), op.args_ty, args)?;
        self.send_body(operation, enc.finish())
    }

    /// Sends a oneway message with a pre-encoded CDR body (the fused
    /// counterpart of [`send`](RemoteRef::send)); the buffer is pooled
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Returns transport failures.
    pub fn send_body(&self, operation: &str, body: Vec<u8>) -> Result<(), RuntimeError> {
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        let msg = Message::request(
            request_id,
            false,
            self.object_key.clone(),
            operation,
            self.endian,
            body,
        );
        self.metrics.add_request();
        let outcome = self.connection.call_with(&msg, &self.options);
        self.buffers.put(msg.body);
        outcome?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{Dispatcher, Servant, WireServant};
    use crate::transport::InMemoryConnection;
    use mockingbird_mtype::{IntRange, MtypeGraph};

    fn setup() -> RemoteRef {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(64));
        let args = g.record(vec![i, i]);
        let result = g.record(vec![i]);
        let graph = Arc::new(g);
        let servant: Arc<dyn Servant> = Arc::new(|op: &str, args: MValue| {
            let MValue::Record(items) = args else {
                unreachable!()
            };
            let (MValue::Int(a), MValue::Int(b)) = (&items[0], &items[1]) else {
                unreachable!()
            };
            match op {
                "add" => Ok(MValue::Record(vec![MValue::Int(a + b)])),
                "div" if *b == 0 => Err(RuntimeError::Application("divide by zero".into())),
                "div" => Ok(MValue::Record(vec![MValue::Int(a / b)])),
                other => Err(RuntimeError::UnknownOperation(other.into())),
            }
        });
        let op = WireOp::new(graph, args, result);
        let mut ops = HashMap::new();
        ops.insert("add".to_string(), op.clone());
        ops.insert("div".to_string(), op.clone());
        let d = Arc::new(Dispatcher::new());
        let mut server_ops = HashMap::new();
        server_ops.insert("add".to_string(), op.clone());
        server_ops.insert("div".to_string(), op);
        d.register(b"calc".to_vec(), WireServant::new(servant, server_ops));
        RemoteRef::new(
            Arc::new(InMemoryConnection::new(d)),
            b"calc".to_vec(),
            ops,
            Endian::Little,
        )
    }

    fn args(a: i128, b: i128) -> MValue {
        MValue::Record(vec![MValue::Int(a), MValue::Int(b)])
    }

    #[test]
    fn invoke_round_trip() {
        let r = setup();
        assert_eq!(
            r.invoke("add", &args(20, 22)).unwrap(),
            MValue::Record(vec![MValue::Int(42)])
        );
        assert_eq!(
            r.invoke("div", &args(10, 3)).unwrap(),
            MValue::Record(vec![MValue::Int(3)])
        );
    }

    #[test]
    fn application_exceptions_propagate() {
        let r = setup();
        let e = r.invoke("div", &args(1, 0)).unwrap_err();
        assert!(matches!(e, RuntimeError::Application(m) if m.contains("divide by zero")));
    }

    #[test]
    fn unknown_operation_is_local() {
        let r = setup();
        assert!(matches!(
            r.invoke("pow", &args(1, 2)).unwrap_err(),
            RuntimeError::UnknownOperation(_)
        ));
    }

    #[test]
    fn oneway_send() {
        let r = setup();
        r.send("add", &args(1, 2)).unwrap();
    }

    #[test]
    fn version_skew_fails_over_to_another_replica() {
        use crate::pool::{ConnectionPool, Connector};
        use crate::resolver::{ObjectName, ResolvedEndpoint, Resolver};
        use std::net::SocketAddr;

        /// A dynamic directory with a fixed answer — enough to put the
        /// pool (and therefore the reference) into failover mode.
        struct TwoReplicas(Vec<SocketAddr>);
        impl Resolver for TwoReplicas {
            fn resolve(&self, _name: &ObjectName) -> Vec<ResolvedEndpoint> {
                self.0
                    .iter()
                    .copied()
                    .map(ResolvedEndpoint::plain)
                    .collect()
            }
            fn version(&self) -> u64 {
                1
            }
        }

        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(64));
        let a = g.record(vec![i, i]);
        let res = g.record(vec![i]);
        let graph = Arc::new(g);
        let servant: Arc<dyn Servant> = Arc::new(|_: &str, v: MValue| {
            let MValue::Record(items) = v else {
                unreachable!()
            };
            let (MValue::Int(x), MValue::Int(y)) = (&items[0], &items[1]) else {
                unreachable!()
            };
            Ok(MValue::Record(vec![MValue::Int(x + y)]))
        });
        let op = WireOp::new(graph, a, res);
        let mut ops = HashMap::new();
        ops.insert("add".to_string(), op.clone());
        let d = Arc::new(Dispatcher::new());
        let mut server_ops = HashMap::new();
        server_ops.insert("add".to_string(), op);
        d.register(b"calc".to_vec(), WireServant::new(servant, server_ops));

        let skewed: SocketAddr = "127.0.0.1:21".parse().unwrap();
        let good: SocketAddr = "127.0.0.1:22".parse().unwrap();
        let connector: Connector = Arc::new(move |addr| {
            if addr == skewed {
                Err(RuntimeError::VersionSkew(
                    "replica built from older declarations".into(),
                ))
            } else {
                Ok(Arc::new(InMemoryConnection::new(d.clone())) as Arc<dyn Connection>)
            }
        });
        let pool = ConnectionPool::builder(Vec::new())
            .with_slots(1)
            .with_connector(connector)
            .with_resolver(
                Arc::new(TwoReplicas(vec![skewed, good])),
                ObjectName::any("calc"),
            )
            .build()
            .unwrap();
        let r = RemoteRef::new(Arc::new(pool), b"calc".to_vec(), ops, Endian::Little);
        // Routing starts on the skewed replica; the skew verdict must
        // quarantine it and the call fail over — no retry policy needed,
        // and "add" is not even idempotent (skew never executed it).
        assert_eq!(
            r.invoke("add", &args(20, 22)).unwrap(),
            MValue::Record(vec![MValue::Int(42)])
        );
        let s = r.metrics().snapshot();
        assert_eq!(s.mesh_failovers, 1, "exactly one re-route");
        assert_eq!(s.retries, 1);
    }

    #[test]
    fn request_buffers_are_pooled_across_calls() {
        let r = setup();
        r.invoke("add", &args(1, 2)).unwrap();
        // The request body came back to the pool after the first call…
        assert_eq!(r.buffers().idle(), 1);
        r.invoke("add", &args(3, 4)).unwrap();
        r.send("add", &args(5, 6)).unwrap();
        // …and steady state never grows beyond one resting buffer.
        assert_eq!(r.buffers().idle(), 1);
    }

    #[test]
    fn invoke_body_round_trip() {
        let r = setup();
        let op = r.ops.get("add").unwrap();
        let body = op
            .encode(op.args_ty, &args(20, 22), Endian::Little)
            .unwrap();
        let opts = CallOptions::default();
        let (reply, endian) = r.invoke_body_with("add", body, false, &opts).unwrap();
        assert_eq!(
            op.decode(op.result_ty, &reply, endian).unwrap(),
            MValue::Record(vec![MValue::Int(42)])
        );
    }

    /// Sheds the first `sheds` calls with an `Overloaded` reply, then
    /// delegates — the client-visible shape of server load shedding.
    struct ShedFirst {
        inner: Arc<dyn Connection>,
        sheds: AtomicU32,
    }

    impl Connection for ShedFirst {
        fn call(&self, msg: &Message) -> Result<Option<Message>, RuntimeError> {
            self.call_with(msg, &CallOptions::default())
        }

        fn call_with(
            &self,
            msg: &Message,
            options: &CallOptions,
        ) -> Result<Option<Message>, RuntimeError> {
            let remaining = self.sheds.load(Ordering::SeqCst);
            if remaining > 0 {
                self.sheds.store(remaining - 1, Ordering::SeqCst);
                let MessageKind::Request { request_id, .. } = msg.kind else {
                    panic!("clients send requests")
                };
                return Ok(Some(Message::reply(
                    request_id,
                    ReplyStatus::Overloaded,
                    msg.endian,
                    Vec::new(),
                )));
            }
            self.inner.call_with(msg, options)
        }
    }

    fn shedding_ref(sheds: u32) -> RemoteRef {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(64));
        let rec = g.record(vec![i, i]);
        let result = g.record(vec![i]);
        let graph = Arc::new(g);
        let servant: Arc<dyn Servant> = Arc::new(|_: &str, args: MValue| {
            let MValue::Record(items) = args else {
                unreachable!()
            };
            let (MValue::Int(a), MValue::Int(b)) = (&items[0], &items[1]) else {
                unreachable!()
            };
            Ok(MValue::Record(vec![MValue::Int(a + b)]))
        });
        let op = WireOp::new(graph, rec, result).idempotent();
        let mut ops = HashMap::new();
        ops.insert("add".to_string(), op.clone());
        let d = Arc::new(Dispatcher::new());
        let mut server_ops = HashMap::new();
        server_ops.insert("add".to_string(), op);
        d.register(b"calc".to_vec(), WireServant::new(servant, server_ops));
        RemoteRef::new(
            Arc::new(ShedFirst {
                inner: Arc::new(InMemoryConnection::new(d)),
                sheds: AtomicU32::new(sheds),
            }),
            b"calc".to_vec(),
            ops,
            Endian::Little,
        )
    }

    #[test]
    fn overloaded_reply_is_a_typed_error_without_retry() {
        let r = shedding_ref(1);
        let e = r.invoke("add", &args(1, 2)).unwrap_err();
        assert!(matches!(e, RuntimeError::Overloaded(_)), "got {e}");
    }

    #[test]
    fn overloaded_reply_is_retried_for_idempotent_ops() {
        use crate::options::RetryPolicy;
        let r = shedding_ref(2);
        let opts = CallOptions::new().with_retry(RetryPolicy {
            max_retries: 3,
            initial_backoff: std::time::Duration::from_millis(1),
            max_backoff: std::time::Duration::from_millis(2),
            jitter: true,
        });
        let v = r.invoke_with("add", &args(20, 22), &opts).unwrap();
        assert_eq!(v, MValue::Record(vec![MValue::Int(42)]));
    }

    #[test]
    fn handshake_info_reflects_the_op_table() {
        let r = setup();
        let info = r.handshake_info(7);
        assert_eq!(info.rules_fp, 7);
        assert_eq!(
            info.interface_fp,
            interface_fingerprint(&r.ops),
            "info carries the table's fingerprint"
        );
    }

    #[test]
    fn request_ids_increment() {
        let r = setup();
        r.invoke("add", &args(0, 0)).unwrap();
        r.invoke("add", &args(0, 0)).unwrap();
        assert!(r.next_request.load(Ordering::Relaxed) >= 3);
    }
}
