//! Executable stubs.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use mockingbird_comparer::{Entry, Mode};
use mockingbird_plan::{CoercionPlan, ConvertError};
use mockingbird_runtime::{RemoteRef, RuntimeError, Servant};
use mockingbird_values::{MValue, PortRef};
use mockingbird_wire::{native, CdrReader, NativeDecodeFn, NativeEncodeInvocationFn, WireProgram};

use crate::shape::{methods_of, FnShape, ShapeError};

/// Errors from stub construction or invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StubError {
    /// The Mtypes do not have function/interface shape.
    Shape(ShapeError),
    /// A conversion failed.
    Convert(ConvertError),
    /// The target implementation failed.
    Target(String),
    /// Transport/dispatch failed.
    Runtime(String),
    /// The plan cannot back a two-way stub.
    OneWayPlan,
}

impl fmt::Display for StubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StubError::Shape(e) => write!(f, "{e}"),
            StubError::Convert(e) => write!(f, "{e}"),
            StubError::Target(m) => write!(f, "target failed: {m}"),
            StubError::Runtime(m) => write!(f, "runtime failure: {m}"),
            StubError::OneWayPlan => {
                write!(f, "function stubs require an equivalence (two-way) plan")
            }
        }
    }
}

impl std::error::Error for StubError {}

impl From<ShapeError> for StubError {
    fn from(e: ShapeError) -> Self {
        StubError::Shape(e)
    }
}

impl From<ConvertError> for StubError {
    fn from(e: ConvertError) -> Self {
        StubError::Convert(e)
    }
}

/// A local two-way function stub: adapts calls made against the *left*
/// declaration onto an implementation of the *right* declaration.
///
/// This is the paper's "efficient local stub that can be used when the
/// components reside in the same process" (§1): no wire format is
/// involved, only the structural conversion.
pub struct FunctionStub {
    plan: Arc<CoercionPlan>,
    left: FnShape,
    right: FnShape,
}

impl FunctionStub {
    /// Builds a function stub from an equivalence plan over two function
    /// Mtypes.
    ///
    /// # Errors
    ///
    /// Returns [`StubError::OneWayPlan`] for subtype plans and
    /// [`StubError::Shape`] when either root is not a function port.
    pub fn new(plan: Arc<CoercionPlan>) -> Result<Self, StubError> {
        if plan.mode() != Mode::Equivalence {
            return Err(StubError::OneWayPlan);
        }
        let left = FnShape::of_function(plan.left_graph(), plan.left_root())?;
        let right = FnShape::of_function(plan.right_graph(), plan.right_root())?;
        Ok(FunctionStub { plan, left, right })
    }

    /// The left-side shape (caller's declaration).
    pub fn left_shape(&self) -> &FnShape {
        &self.left
    }

    /// The right-side shape (implementation's declaration).
    pub fn right_shape(&self) -> &FnShape {
        &self.right
    }

    /// The underlying plan.
    pub fn plan(&self) -> &CoercionPlan {
        &self.plan
    }

    /// Converts left-side inputs into the right-side argument record.
    ///
    /// # Errors
    ///
    /// Returns [`StubError::Convert`] on shape mismatches.
    pub fn convert_args(&self, inputs: &[MValue]) -> Result<MValue, StubError> {
        if inputs.len() != self.left.inputs.len() {
            return Err(StubError::Convert(ConvertError(format!(
                "stub takes {} inputs, got {}",
                self.left.inputs.len(),
                inputs.len()
            ))));
        }
        // Build the left invocation record with a placeholder reply port.
        let mut items: Vec<MValue> = Vec::with_capacity(inputs.len() + 1);
        items.extend(inputs.iter().cloned());
        items.insert(self.left.reply_index, MValue::Port(PortRef(0)));
        let inv_l = MValue::Record(items);
        let inv_r = self
            .plan
            .convert_pair(self.left.invocation, self.right.invocation, &inv_l)?;
        let MValue::Record(mut ritems) = inv_r else {
            return Err(StubError::Convert(ConvertError(
                "converted invocation is not a record".into(),
            )));
        };
        ritems.remove(self.right.reply_index);
        Ok(MValue::Record(ritems))
    }

    /// Converts a right-side output record back to the left side.
    ///
    /// # Errors
    ///
    /// Returns [`StubError::Convert`] on shape mismatches.
    pub fn convert_result(&self, out_r: &MValue) -> Result<MValue, StubError> {
        Ok(self
            .plan
            .convert_pair_back(self.left.output, self.right.output, out_r)?)
    }

    /// Adapts one call: converts inputs, invokes `target` with the
    /// right-side argument record, converts the result record back.
    ///
    /// # Errors
    ///
    /// Propagates conversion failures and the target's error string.
    pub fn call(
        &self,
        inputs: &[MValue],
        target: &dyn Fn(MValue) -> Result<MValue, String>,
    ) -> Result<MValue, StubError> {
        let args_r = self.convert_args(inputs)?;
        let out_r = target(args_r).map_err(StubError::Target)?;
        self.convert_result(&out_r)
    }
}

/// A local stub over a multi-method interface pair
/// (`port(Choice(inv...))` on both sides): resolves which right-side
/// method each left-side method corresponds to, then adapts like a
/// [`FunctionStub`] per method.
pub struct InterfaceStub {
    plan: Arc<CoercionPlan>,
    left_methods: Vec<FnShape>,
    right_methods: Vec<FnShape>,
    /// `method_map[i] = j`: left method `i` is right method `j`.
    method_map: Vec<usize>,
}

impl InterfaceStub {
    /// Builds an interface stub from an equivalence plan over two object
    /// reference Mtypes.
    ///
    /// # Errors
    ///
    /// Returns [`StubError::Shape`] when either side is not an object
    /// port, or [`StubError::Convert`] when the method Choice pair is
    /// missing from the proof.
    pub fn new(plan: Arc<CoercionPlan>) -> Result<Self, StubError> {
        if plan.mode() != Mode::Equivalence {
            return Err(StubError::OneWayPlan);
        }
        let left_methods = methods_of(plan.left_graph(), plan.left_root())?;
        let right_methods = methods_of(plan.right_graph(), plan.right_root())?;
        let method_map = if left_methods.len() == 1 && right_methods.len() == 1 {
            vec![0]
        } else {
            // The Choice entry at the port payloads records the mapping.
            let lport = plan.left_graph().resolve(plan.left_root());
            let rport = plan.right_graph().resolve(plan.right_root());
            let (lpay, rpay) = match (
                plan.left_graph().kind(lport),
                plan.right_graph().kind(rport),
            ) {
                (
                    mockingbird_mtype::MtypeKind::Port(lp),
                    mockingbird_mtype::MtypeKind::Port(rp),
                ) => (*lp, *rp),
                _ => {
                    return Err(StubError::Shape(ShapeError(
                        "interface stubs need port roots".into(),
                    )))
                }
            };
            match plan.matched_entry(lpay, rpay)? {
                Entry::Choice { alt_map, .. } => alt_map,
                _ => {
                    return Err(StubError::Shape(ShapeError(
                        "interface payloads did not match as a Choice".into(),
                    )))
                }
            }
        };
        Ok(InterfaceStub {
            plan,
            left_methods,
            right_methods,
            method_map,
        })
    }

    /// Number of methods on the left interface.
    pub fn method_count(&self) -> usize {
        self.left_methods.len()
    }

    /// Which right-side method a left-side method maps to.
    pub fn target_method(&self, left_method: usize) -> Option<usize> {
        self.method_map.get(left_method).copied()
    }

    /// Adapts a call to left method `left_method`. The target receives
    /// `(right_method_index, right_args_record)`.
    ///
    /// # Errors
    ///
    /// Propagates conversion failures and the target's error string.
    pub fn call_method(
        &self,
        left_method: usize,
        inputs: &[MValue],
        target: &dyn Fn(usize, MValue) -> Result<MValue, String>,
    ) -> Result<MValue, StubError> {
        let lshape = self
            .left_methods
            .get(left_method)
            .ok_or_else(|| StubError::Shape(ShapeError(format!("no method {left_method}"))))?;
        let right_method = self.method_map[left_method];
        let rshape = &self.right_methods[right_method];
        if inputs.len() != lshape.inputs.len() {
            return Err(StubError::Convert(ConvertError(format!(
                "method takes {} inputs, got {}",
                lshape.inputs.len(),
                inputs.len()
            ))));
        }
        let mut items: Vec<MValue> = inputs.to_vec();
        items.insert(lshape.reply_index, MValue::Port(PortRef(0)));
        let inv_r =
            self.plan
                .convert_pair(lshape.invocation, rshape.invocation, &MValue::Record(items))?;
        let MValue::Record(mut ritems) = inv_r else {
            return Err(StubError::Convert(ConvertError(
                "converted invocation is not a record".into(),
            )));
        };
        ritems.remove(rshape.reply_index);
        let out_r = target(right_method, MValue::Record(ritems)).map_err(StubError::Target)?;
        Ok(self
            .plan
            .convert_pair_back(lshape.output, rshape.output, &out_r)?)
    }
}

/// A network-enabled client stub: the same conversions as a
/// [`FunctionStub`], but the right-side argument record is marshalled
/// and sent to a remote object (the paper's "network-enabled stub for
/// the case where the components are in different processes", §1).
pub struct RemoteStub {
    inner: FunctionStub,
    remote: Arc<RemoteRef>,
    operation: String,
    /// Fused one-pass marshal: left inputs → right-side wire bytes with
    /// the reply port elided, straight into a pooled buffer. `None`
    /// falls back to the interpretive convert-then-encode pipeline.
    args_program: Option<Arc<WireProgram>>,
    /// Fused unmarshal: right-side reply bytes → left output record.
    result_program: Option<Arc<WireProgram>>,
    /// Emitted native marshal stub (the second Futamura projection):
    /// resolved from the global registry by layout fingerprint at
    /// construction, used ahead of `args_program`'s opcode VM.
    native_args: Option<NativeEncodeInvocationFn>,
    /// Emitted native unmarshal stub, ahead of `result_program`.
    native_result: Option<NativeDecodeFn>,
}

impl RemoteStub {
    /// Wraps a function stub around a remote reference, compiling the
    /// fused wire programs for its argument and result coercions (pairs
    /// the program compiler declines run interpretively).
    pub fn new(inner: FunctionStub, remote: Arc<RemoteRef>, operation: impl Into<String>) -> Self {
        let args_program = WireProgram::compile_invocation(
            inner.plan(),
            inner.left.invocation,
            inner.right.invocation,
            inner.right.reply_index,
        )
        .ok()
        .map(Arc::new);
        let result_program =
            WireProgram::compile_pair(inner.plan(), inner.left.output, inner.right.output)
                .ok()
                .filter(|p| p.two_way())
                .map(Arc::new);
        let compiled = args_program.is_some() as u64 + result_program.is_some() as u64;
        if compiled > 0 {
            remote.metrics().add_programs_compiled(compiled);
        }
        // Native tier: an emitted stub may stand in for each direction's
        // opcode program (the resolver gates it on that program).
        let (args_key, result_key) = crate::native::native_keys_for(&inner);
        let native_args = native::resolve(args_program.as_deref(), &args_key).encode_invocation;
        let native_result = native::resolve(result_program.as_deref(), &result_key).decode;
        RemoteStub {
            inner,
            remote,
            operation: operation.into(),
            args_program,
            result_program,
            native_args,
            native_result,
        }
    }

    /// The remote operation name.
    pub fn operation(&self) -> &str {
        &self.operation
    }

    /// Whether calls run the fused data plane end to end (both the
    /// argument and result coercions compiled to wire programs).
    pub fn is_fused(&self) -> bool {
        self.args_program.is_some() && self.result_program.is_some()
    }

    /// The marshal tier every call uses: `"native"` (emitted stubs both
    /// ways), `"opcode"` (at least one direction on the wire-program
    /// VM), or `"interpretive"`.
    pub fn dispatch_tier(&self) -> &'static str {
        if !self.is_fused() {
            "interpretive"
        } else if self.native_args.is_some() && self.native_result.is_some() {
            "native"
        } else {
            "opcode"
        }
    }

    /// Performs one remote call: convert, marshal, send, await, convert
    /// back. Uses the remote reference's default call options.
    ///
    /// # Errors
    ///
    /// Propagates conversion failures and remote/transport failures.
    pub fn call(&self, inputs: &[MValue]) -> Result<MValue, StubError> {
        self.call_with(inputs, &self.remote.options().clone())
    }

    /// As [`call`](RemoteStub::call), under explicit per-call options
    /// (deadline, retry policy).
    ///
    /// # Errors
    ///
    /// Propagates conversion failures and remote/transport failures,
    /// including expired deadlines as runtime errors.
    pub fn call_with(
        &self,
        inputs: &[MValue],
        options: &mockingbird_runtime::CallOptions,
    ) -> Result<MValue, StubError> {
        if let (Some(args_p), Some(result_p)) = (&self.args_program, &self.result_program) {
            return self.call_fused(args_p, result_p, inputs, options);
        }
        let args_r = self.inner.convert_args(inputs)?;
        let out_r = self
            .remote
            .invoke_with(&self.operation, &args_r, options)
            .map_err(remote_err)?;
        self.inner.convert_result(&out_r)
    }

    /// The fused data plane: inputs marshal straight into a pooled
    /// request buffer (no intermediate right-side value is built), the
    /// raw reply bytes unmarshal straight into the left output record.
    fn call_fused(
        &self,
        args_p: &WireProgram,
        result_p: &WireProgram,
        inputs: &[MValue],
        options: &mockingbird_runtime::CallOptions,
    ) -> Result<MValue, StubError> {
        if inputs.len() != self.inner.left.inputs.len() {
            return Err(StubError::Convert(ConvertError(format!(
                "stub takes {} inputs, got {}",
                self.inner.left.inputs.len(),
                inputs.len()
            ))));
        }
        let native_used = self.native_args.is_some() as u32 + self.native_result.is_some() as u32;
        if native_used > 0 {
            self.remote.metrics().add_native_call();
        }
        if native_used < 2 {
            self.remote.metrics().add_native_fallback();
        }
        let mut enc = self.remote.buffers().encoder(self.remote.endian());
        if let Some(native) = self.native_args {
            native(enc.writer(), inputs, self.inner.left.reply_index)
                .map_err(|e| StubError::Convert(ConvertError(e.to_string())))?;
        } else {
            args_p
                .encode_invocation(enc.writer(), inputs, self.inner.left.reply_index)
                .map_err(|e| StubError::Convert(ConvertError(e.to_string())))?;
        }
        let body = enc.finish();
        self.remote
            .metrics()
            .add_bytes_marshalled(body.len() as u64);
        let idempotent = self.remote.is_idempotent(&self.operation);
        let (reply, endian) = self
            .remote
            .invoke_body_with(&self.operation, body, idempotent, options)
            .map_err(remote_err)?;
        let mut r = CdrReader::new(&reply, endian);
        let out = if let Some(native) = self.native_result {
            native(&mut r).map_err(|e| StubError::Convert(ConvertError(e.to_string())))?
        } else {
            result_p
                .decode_value(&mut r)
                .map_err(|e| StubError::Convert(ConvertError(e.to_string())))?
        };
        self.remote
            .metrics()
            .add_bytes_unmarshalled((reply.len() - r.remaining()) as u64);
        Ok(out)
    }
}

fn remote_err(e: RuntimeError) -> StubError {
    match e {
        RuntimeError::Application(m) => StubError::Target(m),
        other => StubError::Runtime(other.to_string()),
    }
}

/// Builders for the §5 collaboration study's messaging model: custom
/// "send" and "receive" stubs for declared message types, carried as
/// oneway requests.
pub struct MessagingStubs;

type MessageHandler = Arc<dyn Fn(MValue) + Send + Sync>;

impl MessagingStubs {
    /// A servant that dispatches received messages to per-message-type
    /// handlers (keyed by operation name) and returns an empty record
    /// (messaging expects no reply).
    pub fn receive_servant(handlers: HashMap<String, MessageHandler>) -> Arc<dyn Servant> {
        Arc::new(
            move |operation: &str, args: MValue| match handlers.get(operation) {
                Some(h) => {
                    h(args);
                    Ok(MValue::Record(vec![]))
                }
                None => Err(RuntimeError::UnknownOperation(operation.to_string())),
            },
        )
    }

    /// A send stub: converts a left-declared message through `plan` and
    /// sends it oneway as `operation`.
    ///
    /// # Errors
    ///
    /// Returns conversion or transport failures.
    pub fn send(
        plan: &CoercionPlan,
        remote: &RemoteRef,
        operation: &str,
        message: &MValue,
    ) -> Result<(), StubError> {
        let converted = plan.convert(message)?;
        remote
            .send(operation, &converted)
            .map_err(|e| StubError::Runtime(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    use mockingbird_comparer::{Comparer, RuleSet};
    use mockingbird_mtype::{IntRange, MtypeGraph, RealPrecision};
    use mockingbird_runtime::{
        CallOptions, Connection, Dispatcher, InMemoryConnection, MetricsRegistry,
        MultiplexedConnection, RetryBudget, ServerConfig, TcpServer, WireOp, WireServant,
    };
    use mockingbird_values::Endian;
    use mockingbird_wire::{HandshakeInfo, Message};

    /// The fitter pair at the Mtype level: Java-style (list)->(line) vs
    /// C-style (list)->(point, point).
    fn fitter_plan() -> (Arc<CoercionPlan>, MtypeGraph) {
        let mut g = MtypeGraph::new();
        let r = g.real(RealPrecision::SINGLE);
        let point = g.record(vec![r, r]);
        let line = g.record(vec![point, point]);
        let jlist = g.list_of(point);
        let java = g.function(vec![jlist], vec![line]);
        let clist = g.list_of(point);
        let cfun = g.function(vec![clist], vec![point, point]);
        let corr = Comparer::new(&g, &g)
            .compare(java, cfun, Mode::Equivalence)
            .unwrap();
        let plan = CoercionPlan::new(&g, &g, corr, RuleSet::full(), Mode::Equivalence);
        (Arc::new(plan), g)
    }

    fn point(x: f64, y: f64) -> MValue {
        MValue::Record(vec![MValue::Real(x), MValue::Real(y)])
    }

    #[test]
    fn fitter_stub_adapts_java_call_onto_c_function() {
        let (plan, _g) = fitter_plan();
        let stub = FunctionStub::new(plan).unwrap();
        // The C-side implementation: a real line fitter over the points.
        let c_fitter = |args: MValue| -> Result<MValue, String> {
            let MValue::Record(items) = args else {
                return Err("bad args".into());
            };
            let MValue::List(pts) = &items[0] else {
                return Err("bad pts".into());
            };
            let first = pts.first().cloned().ok_or("empty")?;
            let last = pts.last().cloned().ok_or("empty")?;
            // Outputs in C shape: Record(start_point, end_point).
            Ok(MValue::Record(vec![first, last]))
        };
        let java_pts = MValue::List(vec![point(0.0, 0.0), point(1.0, 1.0), point(2.0, 2.0)]);
        let out = stub.call(&[java_pts], &c_fitter).unwrap();
        // Java shape: Record(Line) = Record(Record(point, point)).
        assert_eq!(
            out,
            MValue::Record(vec![MValue::Record(vec![point(0.0, 0.0), point(2.0, 2.0)])])
        );
    }

    #[test]
    fn stub_rejects_wrong_arity_and_propagates_target_errors() {
        let (plan, _g) = fitter_plan();
        let stub = FunctionStub::new(plan).unwrap();
        assert!(matches!(
            stub.call(&[], &|_| Ok(MValue::Unit)),
            Err(StubError::Convert(_))
        ));
        let e = stub
            .call(&[MValue::List(vec![])], &|_| {
                Err("fitter needs points".into())
            })
            .unwrap_err();
        assert!(matches!(e, StubError::Target(m) if m.contains("needs points")));
    }

    #[test]
    fn subtype_plans_cannot_back_function_stubs() {
        let mut g = MtypeGraph::new();
        let small = g.integer(IntRange::signed_bits(16));
        let big = g.integer(IntRange::signed_bits(32));
        let corr = Comparer::new(&g, &g)
            .compare(small, big, Mode::Subtype)
            .unwrap();
        let plan = CoercionPlan::new(&g, &g, corr, RuleSet::full(), Mode::Subtype);
        assert!(matches!(
            FunctionStub::new(Arc::new(plan)),
            Err(StubError::OneWayPlan)
        ));
    }

    #[test]
    fn interface_stub_maps_methods_across_orderings() {
        // Left interface: { get(): int, set(int): void }
        // Right interface: { set(int): void, get(): int } — reordered.
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let get_out = g.record(vec![i]);
        let get_reply = g.port(get_out);
        let get_inv = g.record(vec![get_reply]);
        let set_out = g.record(vec![]);
        let set_reply = g.port(set_out);
        let set_inv = g.record(vec![i, set_reply]);
        let left = g.object_reference(vec![get_inv, set_inv]);
        let right = g.object_reference(vec![set_inv, get_inv]);
        let corr = Comparer::new(&g, &g)
            .compare(left, right, Mode::Equivalence)
            .unwrap();
        let plan = Arc::new(CoercionPlan::new(
            &g,
            &g,
            corr,
            RuleSet::full(),
            Mode::Equivalence,
        ));
        let stub = InterfaceStub::new(plan).unwrap();
        assert_eq!(stub.method_count(), 2);
        assert_eq!(stub.target_method(0), Some(1), "left get is right method 1");
        assert_eq!(stub.target_method(1), Some(0));

        let cell = std::sync::Mutex::new(0i128);
        let target = |method: usize, args: MValue| -> Result<MValue, String> {
            match method {
                1 => Ok(MValue::Record(vec![MValue::Int(*cell.lock().unwrap())])),
                0 => {
                    let MValue::Record(items) = args else {
                        return Err("bad".into());
                    };
                    let MValue::Int(v) = items[0] else {
                        return Err("bad".into());
                    };
                    *cell.lock().unwrap() = v;
                    Ok(MValue::Record(vec![]))
                }
                _ => Err("no such method".into()),
            }
        };
        // Left method 1 = set.
        stub.call_method(1, &[MValue::Int(7)], &target).unwrap();
        // Left method 0 = get.
        let out = stub.call_method(0, &[], &target).unwrap();
        assert_eq!(out, MValue::Record(vec![MValue::Int(7)]));
    }

    /// A server for the fitter pair's C side: its wire types are the C
    /// invocation minus the reply port and the C output record, and its
    /// servant returns the first and last points. Returns the client's
    /// operation table and the server's dispatcher.
    fn fitter_service(g: MtypeGraph) -> (HashMap<String, WireOp>, Arc<Dispatcher>) {
        let mut g = g;
        let r = g.real(RealPrecision::SINGLE);
        let pt = g.record(vec![r, r]);
        let c_args = {
            let list = g.list_of(pt);
            g.record(vec![list])
        };
        let c_out = g.record(vec![pt, pt]);
        let graph = Arc::new(g);
        let servant: Arc<dyn Servant> = Arc::new(|_: &str, args: MValue| {
            let MValue::Record(items) = args else {
                return Err(RuntimeError::Application("bad args".into()));
            };
            let MValue::List(pts) = &items[0] else {
                return Err(RuntimeError::Application("bad pts".into()));
            };
            let first = pts.first().cloned().unwrap();
            let last = pts.last().cloned().unwrap();
            Ok(MValue::Record(vec![first, last]))
        });
        let op = WireOp::new(graph, c_args, c_out);
        let ops = HashMap::from([("fit".to_string(), op)]);
        let d = Arc::new(Dispatcher::new());
        d.register(b"fitter".to_vec(), WireServant::new(servant, ops.clone()));
        (ops, d)
    }

    /// Three Java-side points and the line the fitter returns for them.
    fn fitter_call(k: u32) -> (MValue, MValue) {
        let x = f64::from(k);
        let pts = MValue::List(vec![point(0.0, x), point(1.0, 1.0), point(x, 2.0)]);
        let line = MValue::Record(vec![MValue::Record(vec![point(0.0, x), point(x, 2.0)])]);
        (pts, line)
    }

    #[test]
    fn remote_stub_runs_the_fused_data_plane() {
        let (plan, g) = fitter_plan();
        let (ops, d) = fitter_service(g);
        let remote = Arc::new(RemoteRef::new(
            Arc::new(InMemoryConnection::new(d)),
            b"fitter".to_vec(),
            ops,
            Endian::Little,
        ));
        let stub = RemoteStub::new(FunctionStub::new(plan).unwrap(), remote.clone(), "fit");
        assert!(stub.is_fused(), "the fitter pair must compile to programs");
        let java_pts = MValue::List(vec![point(0.0, 0.0), point(1.0, 1.0), point(2.0, 2.0)]);
        let out = stub.call(&[java_pts]).unwrap();
        assert_eq!(
            out,
            MValue::Record(vec![MValue::Record(vec![point(0.0, 0.0), point(2.0, 2.0)])])
        );
        // The pooled request buffer came back after the call.
        assert_eq!(remote.buffers().idle(), 1);
    }

    #[test]
    fn remote_stub_keeps_its_compiled_tier_under_a_rules_skew() {
        let (plan, g) = fitter_plan();
        let (ops, d) = fitter_service(g);
        let mine = HandshakeInfo::new(d.interface_fingerprint(), plan.rules().fingerprint());
        let mut server = TcpServer::bind_with(
            "127.0.0.1:0",
            d,
            ServerConfig::default().with_handshake(mine),
        )
        .unwrap();
        // A client whose stubs were compiled under other rules.
        let skewed = HandshakeInfo::new(mine.interface_fp, mine.rules_fp ^ 1);
        let conn = MultiplexedConnection::connect_with(server.addr(), Some(&skewed)).unwrap();
        let remote = Arc::new(RemoteRef::new(
            Arc::new(conn),
            b"fitter".to_vec(),
            ops,
            Endian::Little,
        ));
        let stub = RemoteStub::new(FunctionStub::new(plan).unwrap(), remote.clone(), "fit");
        assert!(stub.is_fused());
        let calls = 5;
        for k in 0..calls {
            let (pts, line) = fitter_call(k);
            assert_eq!(stub.call(&[pts]).unwrap(), line);
        }
        // Every call ran a compiled tier: native both ways counts a
        // native call, no native stub counts a fallback to the VM.
        let m = remote.metrics().snapshot();
        assert_eq!(m.native_calls + m.native_fallbacks, u64::from(calls));
        assert_eq!(server.metrics().snapshot().handshake_rejects, 0);
        server.shutdown();
    }

    /// A connection that records the body of every request it sends and
    /// forwards every [`Connection`] method, so a stub over it behaves
    /// exactly as over the connection it wraps.
    struct Recording {
        inner: Arc<dyn Connection>,
        bodies: Mutex<Vec<Vec<u8>>>,
    }

    impl Connection for Recording {
        fn call(&self, msg: &Message) -> Result<Option<Message>, RuntimeError> {
            self.bodies.lock().unwrap().push(msg.body.clone());
            self.inner.call(msg)
        }

        fn call_with(
            &self,
            msg: &Message,
            options: &CallOptions,
        ) -> Result<Option<Message>, RuntimeError> {
            self.bodies.lock().unwrap().push(msg.body.clone());
            self.inner.call_with(msg, options)
        }

        fn healthy(&self) -> bool {
            self.inner.healthy()
        }

        fn fused_allowed(&self) -> bool {
            self.inner.fused_allowed()
        }

        fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
            self.inner.metrics()
        }

        fn supports_failover(&self) -> bool {
            self.inner.supports_failover()
        }

        fn retry_budget(&self) -> Option<Arc<RetryBudget>> {
            self.inner.retry_budget()
        }
    }

    #[test]
    fn a_rules_skew_changes_no_request_byte() {
        let (plan, g) = fitter_plan();
        let (ops, d) = fitter_service(g);
        let mine = HandshakeInfo::new(d.interface_fingerprint(), plan.rules().fingerprint());
        let mut server = TcpServer::bind_with(
            "127.0.0.1:0",
            d,
            ServerConfig::default().with_handshake(mine),
        )
        .unwrap();
        let bodies_under = |rules_fp: u64| {
            let info = HandshakeInfo::new(mine.interface_fp, rules_fp);
            let recording = Arc::new(Recording {
                inner: Arc::new(
                    MultiplexedConnection::connect_with(server.addr(), Some(&info)).unwrap(),
                ),
                bodies: Mutex::default(),
            });
            let remote = Arc::new(RemoteRef::new(
                recording.clone(),
                b"fitter".to_vec(),
                ops.clone(),
                Endian::Little,
            ));
            let stub = RemoteStub::new(FunctionStub::new(plan.clone()).unwrap(), remote, "fit");
            for k in 0..4 {
                let (pts, line) = fitter_call(k);
                assert_eq!(stub.call(&[pts]).unwrap(), line);
            }
            let bodies = recording.bodies.lock().unwrap().clone();
            bodies
        };
        let matching = bodies_under(mine.rules_fp);
        let skewed = bodies_under(mine.rules_fp ^ 1);
        assert_eq!(matching.len(), 4);
        assert_eq!(matching, skewed);
        server.shutdown();
    }

    #[test]
    fn messaging_receive_servant_dispatches() {
        let received = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = received.clone();
        let mut handlers: HashMap<String, MessageHandler> = HashMap::new();
        handlers.insert(
            "update".to_string(),
            Arc::new(move |v: MValue| sink.lock().unwrap().push(v)),
        );
        let servant = MessagingStubs::receive_servant(handlers);
        servant
            .invoke("update", MValue::Record(vec![MValue::Int(1)]))
            .unwrap();
        assert!(servant.invoke("unknown", MValue::Unit).is_err());
        assert_eq!(received.lock().unwrap().len(), 1);
    }
}
