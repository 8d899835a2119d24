//! Servants, wire-typed operations, and the request dispatcher.

use std::collections::HashMap;
use std::sync::Arc;

use std::sync::RwLock;

use mockingbird_mtype::{MtypeGraph, MtypeId};
use mockingbird_values::{Endian, MValue};
use mockingbird_wire::native::{self, Layouts, ProgramSource};
use mockingbird_wire::{
    CdrReader, CdrWriter, Message, MessageKind, NativeStub, ReplyStatus, WireProgram,
};

use mockingbird_obs::{SpanKind, SpanRecord};

use crate::error::RuntimeError;
use crate::metrics::MetricsRegistry;
use crate::sync::RwLockExt;

/// An invocable object: receives its inputs as a `Record` value and
/// returns its outputs as a `Record` value (the `I`/`O` of the paper's
/// `port(Record(I, port(O)))` shape).
pub trait Servant: Send + Sync {
    /// Handles one invocation.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownOperation`] for unknown names or
    /// [`RuntimeError::Application`] for application failures.
    fn invoke(&self, operation: &str, args: MValue) -> Result<MValue, RuntimeError>;
}

impl<F> Servant for F
where
    F: Fn(&str, MValue) -> Result<MValue, RuntimeError> + Send + Sync,
{
    fn invoke(&self, operation: &str, args: MValue) -> Result<MValue, RuntimeError> {
        self(operation, args)
    }
}

/// The wire types of one operation: the Mtypes its argument and result
/// records encode against. Both sides of a connection hold the same
/// `WireOp` (the Mtype plays the role GIOP gives the IDL type).
///
/// Construction compiles fused identity [`WireProgram`]s for both types
/// (both ends of a `WireOp` share the Mtype, so the coercion is the
/// identity) and resolves the emitted native stubs registered for them
/// under their [`Identity`](mockingbird_wire::NativeProgramKind::Identity)
/// keys, the way `RemoteStub` resolves its pair programs. Each
/// direction then runs native → opcode VM → interpreter: the server
/// decodes requests and encodes replies with no opcode loop, and types
/// the program compiler declines fall back to the interpretive
/// `put_value`/`get_value` path transparently.
#[derive(Debug, Clone)]
pub struct WireOp {
    /// The graph the ids live in.
    pub graph: Arc<MtypeGraph>,
    /// The input record Mtype.
    pub args_ty: MtypeId,
    /// The output record Mtype.
    pub result_ty: MtypeId,
    /// Whether re-invoking after an ambiguous failure is safe. Only
    /// idempotent operations participate in the client's retry policy.
    pub idempotent: bool,
    /// The marshal tiers of `args_ty`.
    args: Tiers,
    /// The marshal tiers of `result_ty`.
    result: Tiers,
    /// The registry marshalling byte counts are recorded into; attached
    /// when the op joins a node (servant registration / proxy build).
    metrics: Option<Arc<MetricsRegistry>>,
}

/// One record type's marshal tiers above the interpreter.
#[derive(Debug, Clone)]
struct Tiers {
    /// Fused identity program (`None`: interpretive path).
    program: Option<Arc<WireProgram>>,
    /// Emitted stub for `program`, used ahead of its opcode VM.
    native: NativeStub,
    /// The type's layout fingerprint: its identity key's part, kept for
    /// [`interface_fingerprint`].
    fingerprint: u128,
}

impl Tiers {
    fn identity(graph: &MtypeGraph, ty: MtypeId, layouts: &mut Layouts<'_>) -> Tiers {
        let program = WireProgram::identity(graph, ty).ok().map(Arc::new);
        let key = ProgramSource::Identity(graph, ty).key_in(layouts);
        Tiers {
            native: native::resolve(program.as_deref(), &key),
            program,
            fingerprint: key.pair.left_fp,
        }
    }
}

impl WireOp {
    /// A non-idempotent operation over `graph` (use [`idempotent`] to
    /// opt into retries). Compiles the fused marshal programs up front
    /// and resolves their emitted native stubs.
    ///
    /// [`idempotent`]: WireOp::idempotent
    #[must_use]
    pub fn new(graph: Arc<MtypeGraph>, args_ty: MtypeId, result_ty: MtypeId) -> Self {
        let mut layouts = Layouts::new(&graph);
        let args = Tiers::identity(&graph, args_ty, &mut layouts);
        let result = if result_ty == args_ty {
            args.clone()
        } else {
            Tiers::identity(&graph, result_ty, &mut layouts)
        };
        WireOp {
            graph,
            args_ty,
            result_ty,
            idempotent: false,
            args,
            result,
            metrics: None,
        }
    }

    /// Scopes this operation's marshalling metrics to `registry` and
    /// credits the registry with the programs compiled at construction.
    /// Later calls are no-ops, so an op adopted by a node keeps that
    /// node's registry.
    pub fn attach_metrics(&mut self, registry: &Arc<MetricsRegistry>) {
        if self.metrics.is_none() {
            let compiled =
                self.args.program.is_some() as u64 + self.result.program.is_some() as u64;
            registry.add_programs_compiled(compiled);
            self.metrics = Some(Arc::clone(registry));
        }
    }

    /// Builder form of [`attach_metrics`](WireOp::attach_metrics).
    #[must_use]
    pub fn with_metrics(mut self, registry: &Arc<MetricsRegistry>) -> Self {
        self.attach_metrics(registry);
        self
    }

    /// Rebinds the operation to `registry` even if one is already
    /// attached, crediting the compiled-program count to the new
    /// registry (the old one is being abandoned by the caller).
    pub fn rebind_metrics(&mut self, registry: &Arc<MetricsRegistry>) {
        self.metrics = None;
        self.attach_metrics(registry);
    }

    /// Marks the operation safe to retry after transport failures and
    /// expired deadlines.
    #[must_use]
    pub fn idempotent(mut self) -> Self {
        self.idempotent = true;
        self
    }

    /// Whether `ty` has a fused program on this operation.
    pub fn is_fused(&self, ty: MtypeId) -> bool {
        self.tiers_for(ty).is_some_and(|t| t.program.is_some())
    }

    /// Whether `ty` encodes and decodes through emitted native stubs.
    pub fn is_native(&self, ty: MtypeId) -> bool {
        self.tiers_for(ty)
            .is_some_and(|t| t.native.encode.is_some() && t.native.decode.is_some())
    }

    fn tiers_for(&self, ty: MtypeId) -> Option<&Tiers> {
        if ty == self.args_ty {
            Some(&self.args)
        } else if ty == self.result_ty {
            Some(&self.result)
        } else {
            None
        }
    }

    /// Encodes an argument/result record for the wire.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Conversion`] when the value does not
    /// inhabit the Mtype.
    pub fn encode(
        &self,
        ty: MtypeId,
        value: &MValue,
        endian: Endian,
    ) -> Result<Vec<u8>, RuntimeError> {
        let mut w = CdrWriter::new(endian);
        self.encode_with(&mut w, ty, value)?;
        Ok(w.into_bytes())
    }

    /// Encodes into a caller-owned (pooled) writer — the allocation-free
    /// entry point of the fused marshal path.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Conversion`] when the value does not
    /// inhabit the Mtype.
    pub fn encode_with(
        &self,
        w: &mut CdrWriter,
        ty: MtypeId,
        value: &MValue,
    ) -> Result<(), RuntimeError> {
        let before = w.len();
        let tiers = self.tiers_for(ty);
        match (
            tiers.and_then(|t| t.native.encode),
            tiers.and_then(|t| t.program.as_ref()),
        ) {
            (Some(native), _) => native(w, value),
            (None, Some(p)) => p.encode_value(w, value),
            (None, None) => w.put_value(&self.graph, ty, value),
        }
        .map_err(|e| RuntimeError::Conversion(e.to_string()))?;
        if let Some(m) = &self.metrics {
            m.add_bytes_marshalled((w.len() - before) as u64);
        }
        Ok(())
    }

    /// Decodes an argument/result record from the wire.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Conversion`] on malformed bodies.
    pub fn decode(&self, ty: MtypeId, body: &[u8], endian: Endian) -> Result<MValue, RuntimeError> {
        let mut r = CdrReader::new(body, endian);
        let tiers = self.tiers_for(ty);
        let value = match (
            tiers.and_then(|t| t.native.decode),
            tiers.and_then(|t| t.program.as_ref()),
        ) {
            (Some(native), _) => native(&mut r),
            (None, Some(p)) if p.two_way() => p.decode_value(&mut r),
            _ => r.get_value(&self.graph, ty),
        }
        .map_err(|e| RuntimeError::Conversion(e.to_string()))?;
        if let Some(m) = &self.metrics {
            m.add_bytes_unmarshalled((body.len() - r.remaining()) as u64);
        }
        Ok(value)
    }
}

/// An order-independent fingerprint of an operation table.
///
/// Each operation contributes a digest of its name and the *layout*
/// fingerprints of its argument and result Mtypes (see [`Layouts`]),
/// computed when the [`WireOp`] was built; the digests combine
/// with a wrapping sum, so iteration order (and hence `HashMap`
/// ordering) cannot change the value. Two peers agree on this
/// fingerprint exactly when their stubs were compiled from the same
/// pairs of declarations — the property the connect-time handshake
/// checks before any request is decoded.
pub fn interface_fingerprint(ops: &HashMap<String, WireOp>) -> u128 {
    const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    ops.iter().fold(0u128, |acc, (name, op)| {
        let mut h = FNV_OFFSET;
        for &b in name.as_bytes() {
            h = (h ^ u128::from(b)).wrapping_mul(FNV_PRIME);
        }
        for word in [op.args.fingerprint, op.result.fingerprint] {
            h = (h ^ word).wrapping_mul(FNV_PRIME);
        }
        acc.wrapping_add(h)
    })
}

/// A servant plus the wire types of its operations: everything the
/// dispatcher needs to decode a request body and encode the reply.
pub struct WireServant {
    ops: HashMap<String, WireOp>,
    inner: Arc<dyn Servant>,
}

impl WireServant {
    /// Wraps a servant with its operation table.
    pub fn new(inner: Arc<dyn Servant>, ops: HashMap<String, WireOp>) -> Self {
        WireServant { ops, inner }
    }

    /// The wire types of `operation`, if declared.
    pub fn op(&self, operation: &str) -> Option<&WireOp> {
        self.ops.get(operation)
    }

    /// The [`interface_fingerprint`] of this servant's operation table.
    pub fn interface_fingerprint(&self) -> u128 {
        interface_fingerprint(&self.ops)
    }

    /// Decodes, invokes, and re-encodes one request.
    ///
    /// # Errors
    ///
    /// Propagates decoding, dispatch and application failures.
    pub fn handle(
        &self,
        operation: &str,
        body: &[u8],
        endian: Endian,
    ) -> Result<Vec<u8>, RuntimeError> {
        let op = self
            .ops
            .get(operation)
            .ok_or_else(|| RuntimeError::UnknownOperation(operation.to_string()))?;
        let args = op.decode(op.args_ty, body, endian)?;
        let result = self.inner.invoke(operation, args)?;
        op.encode(op.result_ty, &result, endian)
    }
}

/// Routes framed requests to registered servants.
///
/// Owns the server side's [`MetricsRegistry`]: per-operation dispatch
/// histograms, marshalling byte counts from every registered op, and
/// sampled server spans all land here, scoped to this node.
#[derive(Default)]
pub struct Dispatcher {
    servants: RwLock<HashMap<Vec<u8>, Arc<WireServant>>>,
    metrics: Arc<MetricsRegistry>,
}

impl Dispatcher {
    /// Creates an empty dispatcher with a fresh metrics registry.
    pub fn new() -> Self {
        Dispatcher::default()
    }

    /// Creates an empty dispatcher recording into `metrics`.
    pub fn with_metrics(metrics: Arc<MetricsRegistry>) -> Self {
        Dispatcher {
            servants: RwLock::new(HashMap::new()),
            metrics,
        }
    }

    /// This node's metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Registers a servant under an object key. The servant's operations
    /// are scoped to this dispatcher's metrics registry.
    pub fn register(&self, object_key: impl Into<Vec<u8>>, mut servant: WireServant) {
        for op in servant.ops.values_mut() {
            op.attach_metrics(&self.metrics);
        }
        self.servants
            .pwrite()
            .insert(object_key.into(), Arc::new(servant));
    }

    /// Removes a servant; returns whether one was registered.
    pub fn unregister(&self, object_key: &[u8]) -> bool {
        self.servants.pwrite().remove(object_key).is_some()
    }

    /// Number of registered servants.
    pub fn len(&self) -> usize {
        self.servants.pread().len()
    }

    /// Whether no servants are registered.
    pub fn is_empty(&self) -> bool {
        self.servants.pread().is_empty()
    }

    /// A fingerprint over every registered servant's operation table
    /// (wrapping sum: registration order does not matter). Servers hand
    /// this to the connect-time handshake as their side of the
    /// declaration pair.
    pub fn interface_fingerprint(&self) -> u128 {
        self.servants
            .pread()
            .values()
            .fold(0u128, |acc, s| acc.wrapping_add(s.interface_fingerprint()))
    }

    /// Handles one framed message, producing the reply frame (`None`
    /// for oneway requests, which get no reply even on failure).
    pub fn dispatch(&self, msg: &Message) -> Option<Message> {
        self.dispatch_with_deadline(msg, None)
    }

    /// [`dispatch`](Dispatcher::dispatch) under the request's propagated
    /// deadline: when `expires_at` has already passed the servant is
    /// *not* invoked — the caller stopped waiting, so executing would
    /// burn capacity on a result nobody reads — and the request is
    /// answered with `DeadlineExpired` instead.
    pub fn dispatch_with_deadline(
        &self,
        msg: &Message,
        expires_at: Option<std::time::Instant>,
    ) -> Option<Message> {
        if expires_at.is_some_and(|at| std::time::Instant::now() >= at) {
            return deadline_expired_reply(msg, &self.metrics);
        }
        let MessageKind::Request {
            request_id,
            response_expected,
            object_key,
            operation,
        } = &msg.kind
        else {
            // A stray Reply: nothing to do.
            return None;
        };
        let servant = self.servants.pread().get(object_key.as_slice()).cloned();
        let start = std::time::Instant::now();
        let declared = servant.as_ref().is_some_and(|s| s.op(operation).is_some());
        let outcome = match servant {
            // Contain handler panics at the dispatch boundary: the
            // panicking call gets a SystemException reply and every
            // other connection (and this worker) keeps serving, instead
            // of the worker dying and poisoning shared locks.
            Some(s) => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    s.handle(operation, &msg.body, msg.endian)
                })) {
                    Ok(result) => result,
                    Err(payload) => {
                        let what = payload
                            .downcast_ref::<&str>()
                            .map(ToString::to_string)
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "opaque panic payload".into());
                        Err(RuntimeError::Protocol(format!(
                            "servant panicked handling {operation}: {what}"
                        )))
                    }
                }
            }
            None => Err(RuntimeError::UnknownObject(
                String::from_utf8_lossy(object_key).into_owned(),
            )),
        };
        let elapsed = start.elapsed();
        // Only declared operations get a histogram: the name arrives off
        // the wire, so keying on anything else would let peers grow the
        // registry without bound and forge exposition lines.
        if declared {
            self.metrics.record_server(operation, elapsed);
        }
        // The propagated context keeps the client's trace id through the
        // dispatch worker; the server span is a child of the attempt
        // span that carried the request.
        let duration_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        if let Some(t) = msg
            .trace
            .filter(|t| t.sampled && self.metrics.wants_span(duration_us))
        {
            let mut span = SpanRecord::new(t.child(), SpanKind::Server, operation.as_str());
            span.parent_span_id = t.span_id;
            span.start_us = self.metrics.spans().now_us().saturating_sub(duration_us);
            span.duration_us = duration_us;
            span.bytes_in = msg.body.len() as u64;
            span.bytes_out = match &outcome {
                Ok(body) => body.len() as u64,
                Err(_) => 0,
            };
            span.error = outcome.as_ref().err().map(ToString::to_string);
            self.metrics.record_span(span);
        }
        if !response_expected {
            return None;
        }
        Some(match outcome {
            Ok(body) => Message::reply(*request_id, ReplyStatus::NoException, msg.endian, body),
            Err(e) => {
                let status = match e {
                    RuntimeError::Application(_) => ReplyStatus::UserException,
                    _ => ReplyStatus::SystemException,
                };
                let mut w = CdrWriter::new(msg.endian);
                w.put_bytes(e.to_string().as_bytes());
                Message::reply(*request_id, status, msg.endian, w.into_bytes())
            }
        })
    }
}

/// The `DeadlineExpired` refusal reply for `msg` (`None` for oneways,
/// which get no reply even when refused). Counts into
/// `deadline_expired_server` either way: the refusal happened whether
/// or not the caller hears about it.
pub(crate) fn deadline_expired_reply(msg: &Message, metrics: &MetricsRegistry) -> Option<Message> {
    metrics.add_deadline_expired_server();
    let MessageKind::Request {
        request_id,
        response_expected: true,
        ..
    } = &msg.kind
    else {
        return None;
    };
    let mut w = CdrWriter::new(msg.endian);
    w.put_bytes(b"deadline expired before dispatch");
    Some(Message::reply(
        *request_id,
        ReplyStatus::DeadlineExpired,
        msg.endian,
        w.into_bytes(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mockingbird_mtype::{IntRange, RealPrecision};

    fn echo_setup() -> (Dispatcher, Arc<MtypeGraph>, MtypeId) {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let rec = g.record(vec![i]);
        let graph = Arc::new(g);
        let op = WireOp::new(graph.clone(), rec, rec);
        let servant: Arc<dyn Servant> = Arc::new(|op: &str, args: MValue| {
            if op == "echo" {
                Ok(args)
            } else if op == "boom" {
                Err(RuntimeError::Application("deliberate".into()))
            } else {
                Err(RuntimeError::UnknownOperation(op.to_string()))
            }
        });
        let mut ops = HashMap::new();
        ops.insert("echo".to_string(), op.clone());
        ops.insert("boom".to_string(), op);
        let d = Dispatcher::new();
        d.register(b"obj".to_vec(), WireServant::new(servant, ops));
        (d, graph, rec)
    }

    fn encode_args(graph: &MtypeGraph, ty: MtypeId, v: &MValue) -> Vec<u8> {
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(graph, ty, v).unwrap();
        w.into_bytes()
    }

    #[test]
    fn dispatch_echo_round_trip() {
        let (d, graph, rec) = echo_setup();
        let v = MValue::Record(vec![MValue::Int(41)]);
        let body = encode_args(&graph, rec, &v);
        let req = Message::request(1, true, b"obj".to_vec(), "echo", Endian::Little, body);
        let reply = d.dispatch(&req).unwrap();
        let MessageKind::Reply { request_id, status } = reply.kind else {
            panic!()
        };
        assert_eq!(request_id, 1);
        assert_eq!(status, ReplyStatus::NoException);
        let mut r = CdrReader::new(&reply.body, reply.endian);
        assert_eq!(r.get_value(&graph, rec).unwrap(), v);
    }

    #[test]
    fn unknown_object_and_operation_become_system_exceptions() {
        let (d, graph, rec) = echo_setup();
        let body = encode_args(&graph, rec, &MValue::Record(vec![MValue::Int(0)]));
        let req = Message::request(
            2,
            true,
            b"nope".to_vec(),
            "echo",
            Endian::Little,
            body.clone(),
        );
        let reply = d.dispatch(&req).unwrap();
        assert!(matches!(
            reply.kind,
            MessageKind::Reply {
                status: ReplyStatus::SystemException,
                ..
            }
        ));
        let req = Message::request(3, true, b"obj".to_vec(), "missing", Endian::Little, body);
        let reply = d.dispatch(&req).unwrap();
        assert!(matches!(
            reply.kind,
            MessageKind::Reply {
                status: ReplyStatus::SystemException,
                ..
            }
        ));
    }

    #[test]
    fn undeclared_operations_get_no_server_histogram() {
        let (d, graph, rec) = echo_setup();
        let body = encode_args(&graph, rec, &MValue::Record(vec![MValue::Int(0)]));
        let forged = "x\"} 1\n# TYPE mockingbird_evil_total counter\nmockingbird_evil_total 42\n#";
        for (id, key, op) in [
            (1, &b"nope"[..], "echo"),
            (2, &b"obj"[..], "missing"),
            (3, &b"obj"[..], forged),
        ] {
            let req = Message::request(id, true, key.to_vec(), op, Endian::Little, body.clone());
            d.dispatch(&req).unwrap();
        }
        assert!(d.metrics().server_ops().is_empty());
        assert!(!d
            .metrics()
            .prometheus_text()
            .contains("mockingbird_evil_total"));
        // A declared operation still records.
        let req = Message::request(4, true, b"obj".to_vec(), "echo", Endian::Little, body);
        d.dispatch(&req).unwrap();
        let ops = d.metrics().server_ops();
        assert_eq!(ops.len(), 1);
        assert_eq!((ops[0].0.as_str(), ops[0].1.count()), ("echo", 1));
    }

    #[test]
    fn application_errors_become_user_exceptions() {
        let (d, graph, rec) = echo_setup();
        let body = encode_args(&graph, rec, &MValue::Record(vec![MValue::Int(0)]));
        let req = Message::request(4, true, b"obj".to_vec(), "boom", Endian::Little, body);
        let reply = d.dispatch(&req).unwrap();
        let MessageKind::Reply { status, .. } = reply.kind else {
            panic!()
        };
        assert_eq!(status, ReplyStatus::UserException);
        let mut r = CdrReader::new(&reply.body, reply.endian);
        let text = String::from_utf8_lossy(r.get_bytes().unwrap()).into_owned();
        assert!(text.contains("deliberate"));
    }

    #[test]
    fn oneway_requests_get_no_reply_even_on_failure() {
        let (d, graph, rec) = echo_setup();
        let body = encode_args(&graph, rec, &MValue::Record(vec![MValue::Int(0)]));
        let req = Message::request(5, false, b"nope".to_vec(), "echo", Endian::Little, body);
        assert!(d.dispatch(&req).is_none());
    }

    #[test]
    fn cross_endian_dispatch() {
        let (d, graph, rec) = echo_setup();
        let mut w = CdrWriter::new(Endian::Big);
        let v = MValue::Record(vec![MValue::Int(7)]);
        w.put_value(&graph, rec, &v).unwrap();
        let req = Message::request(
            6,
            true,
            b"obj".to_vec(),
            "echo",
            Endian::Big,
            w.into_bytes(),
        );
        let reply = d.dispatch(&req).unwrap();
        let mut r = CdrReader::new(&reply.body, reply.endian);
        assert_eq!(r.get_value(&graph, rec).unwrap(), v);
    }

    #[test]
    fn fused_wire_op_matches_interpretive_bytes() {
        let mut g = MtypeGraph::new();
        let i32_ = g.integer(IntRange::signed_bits(32));
        let i8_ = g.integer(IntRange::signed_bits(8));
        let r = g.real(RealPrecision::DOUBLE);
        let list = g.list_of(i8_);
        let u = g.unit();
        let c = g.choice(vec![u, i32_]);
        let rec = g.record(vec![i32_, r, list, c]);
        let graph = Arc::new(g);
        let op = WireOp::new(graph.clone(), rec, rec);
        assert!(op.is_fused(rec));
        let v = MValue::Record(vec![
            MValue::Int(-7),
            MValue::Real(2.5),
            MValue::List(vec![MValue::Int(1), MValue::Int(2)]),
            MValue::Choice {
                index: 1,
                value: Box::new(MValue::Int(9)),
            },
        ]);
        for endian in [Endian::Little, Endian::Big] {
            let fused = op.encode(rec, &v, endian).unwrap();
            let mut w = CdrWriter::new(endian);
            w.put_value(&graph, rec, &v).unwrap();
            assert_eq!(fused, w.into_bytes(), "fused encode diverges ({endian:?})");
            assert_eq!(op.decode(rec, &fused, endian).unwrap(), v);
        }
    }

    #[test]
    fn interface_fingerprint_tracks_declarations() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let rec = g.record(vec![i]);
        let wide = g.integer(IntRange::signed_bits(64));
        let wide_rec = g.record(vec![wide]);
        let graph = Arc::new(g);
        let op = WireOp::new(graph.clone(), rec, rec);

        // Same table built in different insertion orders: same value.
        let mut a = HashMap::new();
        a.insert("add".to_string(), op.clone());
        a.insert("sub".to_string(), op.clone());
        let mut b = HashMap::new();
        b.insert("sub".to_string(), op.clone());
        b.insert("add".to_string(), op.clone());
        assert_eq!(interface_fingerprint(&a), interface_fingerprint(&b));

        // Renaming an operation changes it.
        let mut renamed = a.clone();
        let v = renamed.remove("sub").unwrap();
        renamed.insert("mul".to_string(), v);
        assert_ne!(interface_fingerprint(&a), interface_fingerprint(&renamed));

        // Changing an argument type changes it.
        let mut retyped = a.clone();
        retyped.insert("sub".to_string(), WireOp::new(graph, wide_rec, rec));
        assert_ne!(interface_fingerprint(&a), interface_fingerprint(&retyped));

        // Dispatcher and WireServant expose the same digest machinery.
        let servant: Arc<dyn Servant> = Arc::new(|_: &str, v: MValue| Ok(v));
        let d = Dispatcher::new();
        d.register(b"x".to_vec(), WireServant::new(servant, a.clone()));
        assert_eq!(d.interface_fingerprint(), interface_fingerprint(&a));
    }

    #[test]
    fn register_unregister() {
        let (d, _, _) = echo_setup();
        assert_eq!(d.len(), 1);
        assert!(d.unregister(b"obj"));
        assert!(!d.unregister(b"obj"));
        assert!(d.is_empty());
    }
}
