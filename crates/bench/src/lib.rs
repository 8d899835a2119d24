//! Shared fixtures for the experiment report, the integration tests and
//! `perfbench`.
//!
//! Each fixture corresponds to one experiment of DESIGN.md §4; the
//! `report` binary and the tests both build on these, so the numbers in
//! EXPERIMENTS.md and the tests' assertions describe the same workloads.

/// The native marshal stubs of the seed-pinned fixture corpus, emitted
/// by this crate's build script (the same text `mbc emit-stubs` writes).
pub mod generated_stubs {
    include!(concat!(env!("OUT_DIR"), "/generated_stubs.rs"));
}

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::OnceLock;
use std::sync::{Arc, Mutex};

use mockingbird::comparer::Mode;
use mockingbird::plan::CoercionPlan;
use mockingbird::runtime::{CallOptions, Connection, LockExt, MetricsRegistry};
use mockingbird::runtime::{Dispatcher, RemoteRef, Servant, WireServant};
use mockingbird::runtime::{InMemoryConnection, MultiplexedConnection, RuntimeError};
use mockingbird::stubgen::{FunctionStub, RemoteStub};
use mockingbird::values::{Endian, MValue};
use mockingbird::wire::Message;
use mockingbird::{Session, SessionError};

/// The fitter declarations (Figs. 1, 2, 5) and §3.4 annotations.
pub const FIG2_C: &str = "typedef float point[2];
void fitter(point pts[], int count, point *start, point *end);";

/// The Java side of the fitter example.
pub const FIG1_5_JAVA: &str = "
public class Point { private float x; private float y; }
public class Line { private Point start; private Point end; }
public class PointVector extends java.util.Vector;
public interface JavaIdeal { Line fitter(PointVector pts); }";

/// The §3.4 annotation script.
pub const FITTER_SCRIPT: &str = "
annotate fitter.param(pts) length=param(count)
annotate fitter.param(start) direction=out
annotate fitter.param(end) direction=out
annotate Line.field(start) non-null no-alias
annotate Line.field(end) non-null no-alias
annotate PointVector element=Point non-null
annotate JavaIdeal.method(fitter).param(pts) non-null
annotate JavaIdeal.method(fitter).ret non-null";

/// Installs the emitted native marshal stubs into the process-global
/// registry (idempotent), returning how many programs are registered.
/// Tests and `report` sections that want the native tier call this
/// before building stubs; a stub built without it resolves the opcode
/// VM.
pub fn register_native_stubs() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        generated_stubs::register_all(mockingbird::wire::NativeStubRegistry::global())
    })
}

/// A fully annotated fitter session.
///
/// # Errors
///
/// Propagates load/annotation failures (none for the canned sources).
pub fn fitter_session() -> Result<Session, SessionError> {
    let mut s = Session::new();
    s.load_c(FIG2_C)?;
    s.load_java(FIG1_5_JAVA)?;
    s.annotate(FITTER_SCRIPT)?;
    Ok(s)
}

/// A point list of length `n` in Java shape.
pub fn point_list(n: usize) -> MValue {
    MValue::List(
        (0..n)
            .map(|k| {
                MValue::Record(vec![
                    MValue::Real(k as f64),
                    MValue::Real((2 * k) as f64 + 0.5),
                ])
            })
            .collect(),
    )
}

/// The reference C-side fitter implementation used across benchmarks.
pub fn c_fitter_impl(args: MValue) -> Result<MValue, String> {
    let MValue::Record(items) = args else {
        return Err("bad frame".into());
    };
    let MValue::List(pts) = &items[0] else {
        return Err("bad pts".into());
    };
    fit_points(pts)
}

/// The fitter's body over a borrowed point array, as a C caller passes
/// it: the line from the first point to the last.
pub fn fit_points(pts: &[MValue]) -> Result<MValue, String> {
    Ok(MValue::Record(vec![
        pts.first().cloned().ok_or("empty")?,
        pts.last().cloned().ok_or("empty")?,
    ]))
}

/// The fitter as a local function stub plus its plan.
///
/// # Errors
///
/// Propagates comparison failures.
pub fn fitter_stub() -> Result<(FunctionStub, Arc<CoercionPlan>), SessionError> {
    let mut s = fitter_session()?;
    let plan = Arc::new(s.compare("JavaIdeal", "fitter", Mode::Equivalence)?);
    Ok((FunctionStub::new(plan.clone())?, plan))
}

/// A remote fitter over the in-memory loopback (full marshalling, no
/// sockets), for the X1 remote rows.
///
/// # Errors
///
/// Propagates session failures.
pub fn fitter_remote_loopback() -> Result<RemoteStub, SessionError> {
    let mut s = fitter_session()?;
    let wire_op = s.wire_op("fitter")?;
    let servant: Arc<dyn Servant> =
        Arc::new(|_: &str, args: MValue| c_fitter_impl(args).map_err(RuntimeError::Application));
    let mut ops = HashMap::new();
    ops.insert("fitter".to_string(), wire_op.clone());
    let dispatcher = Arc::new(Dispatcher::new());
    dispatcher.register(b"svc".to_vec(), WireServant::new(servant, ops));
    let conn = Arc::new(InMemoryConnection::new(dispatcher));
    let mut cops = HashMap::new();
    cops.insert("fitter".to_string(), wire_op);
    let remote = Arc::new(RemoteRef::new(conn, b"svc".to_vec(), cops, Endian::Little));
    let plan = Arc::new(s.compare("JavaIdeal", "fitter", Mode::Equivalence)?);
    Ok(RemoteStub::new(FunctionStub::new(plan)?, remote, "fitter"))
}

/// A serial client: callers of one [`MultiplexedConnection`] take turns
/// under a lock, so they queue with their budgets running (the X4
/// baseline, X12 and the overload suite).
pub struct OneCallAtATime(MultiplexedConnection, Mutex<()>);

impl OneCallAtATime {
    /// Dials `addr` without a handshake.
    pub fn connect(addr: SocketAddr) -> Result<Self, RuntimeError> {
        Ok(OneCallAtATime(
            MultiplexedConnection::connect(addr)?,
            Mutex::default(),
        ))
    }
}

impl Connection for OneCallAtATime {
    fn call(&self, msg: &Message) -> Result<Option<Message>, RuntimeError> {
        self.call_with(msg, &CallOptions::default())
    }

    fn call_with(
        &self,
        msg: &Message,
        opts: &CallOptions,
    ) -> Result<Option<Message>, RuntimeError> {
        let _turn = self.1.plock();
        self.0.call_with(msg, opts)
    }

    fn healthy(&self) -> bool {
        self.0.healthy()
    }

    fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.0.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let (stub, plan) = fitter_stub().unwrap();
        assert!(!plan.is_empty());
        let out = stub.call(&[point_list(4)], &c_fitter_impl).unwrap();
        assert!(matches!(out, MValue::Record(_)));
        let remote = fitter_remote_loopback().unwrap();
        let out = remote.call(&[point_list(4)]).unwrap();
        assert!(matches!(out, MValue::Record(_)));
    }
}
