//! `call_small` and `call_bulk`: the paper's fitter called through
//! `RemoteStub` on the native marshal tier, over pooled TCP connections
//! to a reactor `TcpServer` in the same process.
//!
//! Load is open-loop: arrival times are Poisson at a fixed rate, drawn
//! from the seed before the run, and sender threads take them in order
//! over a pool of `nproc` connections. Each call's latency is timed from
//! its due time, so a stall that delays later sends counts against those
//! sends too.
//!
//! The traced run adds a timing decorator over the public `Connection`
//! trait and a timing wrapper over the public `Servant` trait. The
//! servant finds the call it serves by the call number the sender wrote
//! into the first point, so each call's time splits into: generator lag,
//! client stub (marshal and unmarshal), request path (frame write,
//! reactor, admission, queue, server decode), servant, and reply path.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mockingbird::artifact::{ArtifactStore, MemoryStore};
use mockingbird::comparer::Mode;
use mockingbird::mtype::canon::{CanonOpts, Canonizer};
use mockingbird::runtime::{
    CallOptions, Connection, ConnectionPool, Dispatcher, MetricsRegistry, MetricsSnapshot,
    RemoteRef, RetryBudget, RuntimeError, Servant, TcpServer, WireOp, WireServant,
};
use mockingbird::stubgen::{native_keys_for, FunctionStub, RemoteStub};
use mockingbird::values::{Endian, MValue};
use mockingbird::wire::{CdrReader, CdrWriter, Message, NativeStubRegistry, WireProgram};
use mockingbird::{BatchCompiler, BatchOptions, BatchStats, CoercionPlan, PairOutcome, Session};
use mockingbird_bench::{c_fitter_impl, generated_stubs, FIG1_5_JAVA, FIG2_C, FITTER_SCRIPT};
use mockingbird_rng::{SliceRandom, StdRng};

use crate::measure::{self, mean, median, ms, quantile, us};
use crate::Outcome;

/// Which call workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum CallShape {
    /// 4-point lists: the transport sets the cost.
    Small,
    /// 1,024 to 4,096 points: marshalling and copying set the cost.
    Bulk,
}

impl CallShape {
    /// Offered load, calls per second.
    fn rate(self) -> f64 {
        match self {
            CallShape::Small => 200.0,
            CallShape::Bulk => 60.0,
        }
    }

    /// A call slower than this does not count as goodput.
    fn limit(self) -> Duration {
        match self {
            CallShape::Small => Duration::from_millis(10),
            CallShape::Bulk => Duration::from_millis(25),
        }
    }

    /// Point-list lengths of the payload set: evenly spread over the
    /// workload's range with seeded jitter, so every seed sees the same
    /// size distribution.
    fn lengths(self, rng: &mut StdRng) -> Vec<usize> {
        match self {
            CallShape::Small => vec![4; PAYLOADS],
            CallShape::Bulk => (0..PAYLOADS)
                .map(|k| {
                    let step = (BULK_MAX - BULK_MIN) as f64 / PAYLOADS as f64;
                    BULK_MIN + ((k as f64 + unit(rng)) * step) as usize
                })
                .collect(),
        }
    }

    /// Sender threads. Each waits for its call's reply, and a small call
    /// takes a few milliseconds (the server reactor's idle park), so with
    /// fewer senders a due call often finds them all busy and the
    /// generator's own queue sets the tail. A bulk call also needs about
    /// 1.4 ms of CPU; more bulk calls in flight than cores only queue for
    /// the CPU, so bulk keeps one sender per core.
    fn senders(self, cores: usize) -> usize {
        match self {
            CallShape::Small => 8,
            CallShape::Bulk => cores,
        }
    }

    /// Passes over the payload set when timing the marshal tiers.
    fn tier_passes(self) -> usize {
        match self {
            CallShape::Small => 200,
            CallShape::Bulk => 3,
        }
    }
}

/// Distinct payloads per run.
const PAYLOADS: usize = 64;
const BULK_MIN: usize = 1024;
const BULK_MAX: usize = 4096;
/// Times the rig is set up; `setup_s` is the median.
const SETUPS: usize = 15;
/// Calls through each stub before measuring.
const WARMUP: usize = 32;
/// The fitter pair is compiled cold and rebuilt once per this interval
/// while the calls run, so the compile times sample the whole run.
const COMPILE_EVERY: Duration = Duration::from_millis(100);
/// Traced and untraced windows alternate at this length.
const WINDOW: Duration = Duration::from_millis(500);
/// The per-layer means must add back to the end-to-end mean within this
/// share.
const LAYER_TOLERANCE: f64 = 0.05;
const OBJECT: &[u8] = b"fitter";
const OP: &str = "fitter";

/// A uniform draw in `[0, 1)`.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A point list of `n` points whose coordinates are exact in `f32`, the
/// fitter's wire precision.
fn points(n: usize, rng: &mut StdRng) -> MValue {
    let coord = |rng: &mut StdRng| f64::from((rng.next_u64() % 65_536) as u16) / 8.0;
    MValue::List(
        (0..n)
            .map(|_| MValue::Record(vec![MValue::Real(coord(rng)), MValue::Real(coord(rng))]))
            .collect(),
    )
}

/// Writes the call number into the first point's x coordinate (exact in
/// `f32` below 2^24). Payloads are built carrying -1, which no call
/// number matches; only traced calls are stamped.
fn stamp(payload: &mut MValue, id: f64) {
    if let MValue::List(pts) = payload {
        if let Some(MValue::Record(xy)) = pts.first_mut() {
            xy[0] = MValue::Real(id);
        }
    }
}

/// The call number a servant sees in its (C-side) argument record.
fn call_id(args: &MValue) -> Option<usize> {
    let MValue::Record(items) = args else {
        return None;
    };
    let MValue::List(pts) = items.first()? else {
        return None;
    };
    let MValue::Record(xy) = pts.first()? else {
        return None;
    };
    match xy.first()? {
        MValue::Real(x) if *x >= 0.0 => Some(*x as usize),
        _ => None,
    }
}

/// The fitter's reply for `payload`, computed here: the Java-side
/// `Line` from the first to the last point.
fn expected(payload: &MValue) -> MValue {
    let MValue::List(pts) = payload else {
        return MValue::Unit;
    };
    let first = pts.first().cloned().unwrap_or(MValue::Unit);
    let last = pts.last().cloned().unwrap_or(MValue::Unit);
    MValue::Record(vec![MValue::Record(vec![first, last])])
}

/// Servant start and end per call number, in nanoseconds since `epoch`.
struct Probe {
    epoch: Instant,
    starts: Vec<AtomicU64>,
    ends: Vec<AtomicU64>,
}

impl Probe {
    fn new(epoch: Instant, calls: usize) -> Probe {
        Probe {
            epoch,
            starts: (0..calls).map(|_| AtomicU64::new(0)).collect(),
            ends: (0..calls).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }
}

/// Timing wrapper over the fitter servant.
struct TimedServant {
    inner: Arc<dyn Servant>,
    probe: Arc<Probe>,
}

impl Servant for TimedServant {
    fn invoke(&self, operation: &str, args: MValue) -> Result<MValue, RuntimeError> {
        let id = call_id(&args).filter(|&i| i < self.probe.starts.len());
        let start = Instant::now();
        let result = self.inner.invoke(operation, args);
        let end = Instant::now();
        if let Some(i) = id {
            self.probe.starts[i].store(self.probe.ns(start), Ordering::Relaxed);
            self.probe.ends[i].store(self.probe.ns(end), Ordering::Relaxed);
        }
        result
    }
}

thread_local! {
    /// The calling thread's first entry into and last exit from the
    /// timed connection during the current call.
    static INSIDE: Cell<Option<(Instant, Instant)>> = const { Cell::new(None) };
}

/// Timing decorator over the client's connection pool. A stub calls its
/// connection on the caller's thread, so the span lands in that
/// thread's `INSIDE` slot.
struct TimedConnection {
    inner: Arc<ConnectionPool>,
}

impl TimedConnection {
    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let entry = Instant::now();
        let r = f();
        let exit = Instant::now();
        INSIDE.with(|c| c.set(Some((c.get().map_or(entry, |(e, _)| e), exit))));
        r
    }
}

impl Connection for TimedConnection {
    fn call(&self, msg: &Message) -> Result<Option<Message>, RuntimeError> {
        self.timed(|| self.inner.call(msg))
    }

    fn call_with(
        &self,
        msg: &Message,
        options: &CallOptions,
    ) -> Result<Option<Message>, RuntimeError> {
        self.timed(|| self.inner.call_with(msg, options))
    }

    fn healthy(&self) -> bool {
        Connection::healthy(self.inner.as_ref())
    }

    fn fused_allowed(&self) -> bool {
        Connection::fused_allowed(self.inner.as_ref())
    }

    fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        Connection::metrics(self.inner.as_ref())
    }

    fn supports_failover(&self) -> bool {
        Connection::supports_failover(self.inner.as_ref())
    }

    fn retry_budget(&self) -> Option<Arc<RetryBudget>> {
        Connection::retry_budget(self.inner.as_ref())
    }
}

/// An annotated fitter session: the two declarations and the §3.4
/// script.
fn fitter_session() -> Session {
    let mut s = Session::new();
    s.load_c(FIG2_C).expect("the fitter's C declaration parses");
    s.load_java(FIG1_5_JAVA)
        .expect("the fitter's Java declarations parse");
    s.annotate(FITTER_SCRIPT)
        .expect("the fitter script applies");
    s
}

/// The timings of one compile of the fitter pair, from declaration
/// text to a remote stub with its wire programs.
struct FitterCompile {
    wall: Duration,
    annotate: Duration,
    lower: Duration,
    /// Cold: export to the store. Rebuild: import from it.
    store_io: Duration,
    programs: Duration,
    graph_nodes: usize,
    stats: BatchStats,
}

fn compile_fitter(
    conn: Arc<dyn Connection>,
    ops: &HashMap<String, WireOp>,
    store: &MemoryStore,
    cold: bool,
) -> (FitterCompile, Arc<CoercionPlan>, RemoteStub) {
    let start = Instant::now();
    let mut s = Session::new();
    let mut store_io = Duration::ZERO;
    if !cold {
        let t = Instant::now();
        s.import_artifacts(store);
        store_io = t.elapsed();
    }
    s.load_c(FIG2_C).expect("the fitter's C declaration parses");
    s.load_java(FIG1_5_JAVA)
        .expect("the fitter's Java declarations parse");
    let t = Instant::now();
    s.annotate(FITTER_SCRIPT)
        .expect("the fitter script applies");
    let annotate = t.elapsed();
    let t = Instant::now();
    let left = s.mtype("JavaIdeal").expect("JavaIdeal lowers");
    let right = s.mtype(OP).expect("fitter lowers");
    let lower = t.elapsed();
    let graph = Arc::new(s.graph().clone());
    let report = BatchCompiler::new(graph.clone())
        .with_cache(s.compile_cache().clone())
        .compile(
            &[(left, right)],
            &BatchOptions {
                mode: Mode::Equivalence,
                jobs: 1,
                build_plans: true,
                build_programs: false,
            },
        );
    let PairOutcome::Match {
        plan: Some(plan), ..
    } = &report.pairs[0].outcome
    else {
        panic!("the fitter pair matches");
    };
    let plan = plan.clone();
    let t = Instant::now();
    let remote = Arc::new(RemoteRef::new(conn, OBJECT, ops.clone(), Endian::Little));
    let stub = RemoteStub::new(
        FunctionStub::new(plan.clone()).expect("the fitter plan backs a stub"),
        remote,
        OP,
    );
    let programs = t.elapsed();
    if cold {
        let t = Instant::now();
        s.export_artifacts(store);
        store_io = t.elapsed();
    }
    let times = FitterCompile {
        wall: start.elapsed(),
        annotate,
        lower,
        store_io,
        programs,
        graph_nodes: graph.len(),
        stats: report.stats,
    };
    (times, plan, stub)
}

/// The server, the client pool, and the stubs over it.
struct Rig {
    server: TcpServer,
    pool: Arc<ConnectionPool>,
    ops: HashMap<String, WireOp>,
    wire_op: WireOp,
    plan: Arc<CoercionPlan>,
    /// The stub over the bare pool.
    stub: RemoteStub,
    /// The stub over the timing decorator (traced runs only).
    timed: Option<RemoteStub>,
}

fn setup(slots: usize, probe: Option<&Arc<Probe>>, warm: &[MValue]) -> Rig {
    generated_stubs::register_all(NativeStubRegistry::global());
    let mut s = fitter_session();
    let wire_op = s.wire_op(OP).expect("the fitter has a wire op");
    let mut ops = HashMap::new();
    ops.insert(OP.to_string(), wire_op.clone());
    let fitter: Arc<dyn Servant> =
        Arc::new(|_: &str, args: MValue| c_fitter_impl(args).map_err(RuntimeError::Application));
    let servant: Arc<dyn Servant> = match probe {
        Some(p) => Arc::new(TimedServant {
            inner: fitter,
            probe: p.clone(),
        }),
        None => fitter,
    };
    let dispatcher = Arc::new(Dispatcher::new());
    dispatcher.register(OBJECT.to_vec(), WireServant::new(servant, ops.clone()));
    let server = TcpServer::bind("127.0.0.1:0", dispatcher).expect("bind the fitter server");
    let pool = Arc::new(ConnectionPool::connect(server.addr(), slots).expect("connect the pool"));
    let (_, plan, stub) = compile_fitter(pool.clone(), &ops, &MemoryStore::new(), true);
    let timed = probe.map(|_| {
        let conn = Arc::new(TimedConnection {
            inner: pool.clone(),
        });
        compile_fitter(conn, &ops, &MemoryStore::new(), true).2
    });
    for k in 0..WARMUP {
        let payload = &warm[k % warm.len()];
        for stub in std::iter::once(&stub).chain(&timed) {
            let _ = stub.call(std::slice::from_ref(payload));
        }
    }
    Rig {
        server,
        pool,
        ops,
        wire_op,
        plan,
        stub,
        timed,
    }
}

/// The fitter compiles of a run.
#[derive(Default)]
struct Compiles {
    colds: Vec<FitterCompile>,
    rebuilds: Vec<FitterCompile>,
    /// The store the last cold compile wrote.
    store: MemoryStore,
}

impl Compiles {
    /// Compiles the fitter pair cold into a fresh store, then rebuilds
    /// it from that store.
    fn pair(&mut self, rig: &Rig, out: &mut Outcome) {
        self.store = MemoryStore::new();
        let conn: Arc<dyn Connection> = rig.pool.clone();
        for cold in [true, false] {
            let (times, _, stub) = compile_fitter(conn.clone(), &rig.ops, &self.store, cold);
            out.check(stub.dispatch_tier() == "native", "compiled stub is native");
            if cold {
                self.colds.push(times);
            } else {
                self.rebuilds.push(times);
            }
        }
    }
}

/// One call as the sender saw it, in nanoseconds since the epoch.
struct Rec {
    id: usize,
    due: u64,
    start: u64,
    end: u64,
    /// First entry into and last exit from the timed connection.
    inside: Option<(u64, u64)>,
    ok: bool,
    traced: bool,
}

/// Drives the open-loop schedule; returns every call's record. The
/// calling thread runs `between` every `COMPILE_EVERY` meanwhile.
#[allow(clippy::too_many_arguments)]
fn drive(
    rig: &Rig,
    schedule: &[(Duration, usize)],
    payloads: &[MValue],
    senders: usize,
    epoch: Instant,
    base: Duration,
    traced: bool,
    between: &mut dyn FnMut(),
) -> Vec<Rec> {
    let next = AtomicUsize::new(0);
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut recs = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(at, p)) = schedule.get(i) else {
                            break;
                        };
                        let in_window = traced && (at.as_nanos() / WINDOW.as_nanos()) % 2 == 1;
                        // A traced call carries its number for the
                        // servant: copied and stamped before it is due.
                        let payload = if in_window {
                            let mut copy = payloads[p].clone();
                            stamp(&mut copy, i as f64);
                            Cow::Owned(copy)
                        } else {
                            Cow::Borrowed(&payloads[p])
                        };
                        let due = epoch + base + at;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let stub = match (&rig.timed, in_window) {
                            (Some(t), true) => t,
                            _ => &rig.stub,
                        };
                        INSIDE.with(|c| c.set(None));
                        let start = Instant::now();
                        let result = stub.call(std::slice::from_ref(&*payload));
                        let end = Instant::now();
                        let inside = INSIDE.with(Cell::get).map(|(a, b)| (ns(a), ns(b)));
                        recs.push(Rec {
                            id: i,
                            due: ns(due),
                            start: ns(start),
                            end: ns(end),
                            inside,
                            ok: result.is_ok_and(|v| v == expected(&payload)),
                            traced: in_window,
                        });
                    }
                    recs
                })
            })
            .collect();
        while next.load(Ordering::Relaxed) < schedule.len() {
            std::thread::sleep(COMPILE_EVERY);
            between();
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a sender thread panicked"))
            .collect()
    })
}

/// Mean time per item of `f` over `passes` passes, in microseconds.
fn time_each<T>(items: &[T], passes: usize, mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for _ in 0..passes {
        for item in items {
            f(item);
        }
    }
    us(t.elapsed()) / (passes * items.len()) as f64
}

/// Times the three marshal tiers on the workload's own payloads and
/// checks that they write the same bytes. Returns `(native encode,
/// native decode, opcode encode, interpretive encode)` in microseconds.
fn tiers(rig: &Rig, payloads: &[MValue], passes: usize, out: &mut Outcome) -> [f64; 4] {
    let f = &FunctionStub::new(rig.plan.clone()).expect("the fitter plan backs a stub");
    let (left, right) = (f.left_shape(), f.right_shape());
    let (args_key, result_key) = native_keys_for(f);
    let registry = NativeStubRegistry::global();
    let native_enc = registry.lookup(&args_key).and_then(|s| s.encode_invocation);
    let native_dec = registry.lookup(&result_key).and_then(|s| s.decode);
    let opcode = WireProgram::compile_invocation(
        f.plan(),
        left.invocation,
        right.invocation,
        right.reply_index,
    )
    .ok();
    out.check(
        native_enc.is_some() && native_dec.is_some(),
        "native stubs registered",
    );
    out.check(opcode.is_some(), "opcode program compiles");
    let (Some(native_enc), Some(native_dec), Some(opcode)) = (native_enc, native_dec, opcode)
    else {
        return [0.0; 4];
    };
    let op = &rig.wire_op;
    let interp = |p: &MValue| -> Option<Vec<u8>> {
        let args = f.convert_args(std::slice::from_ref(p)).ok()?;
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(&op.graph, op.args_ty, &args).ok()?;
        Some(w.into_bytes())
    };
    let encode = |enc: &dyn Fn(&mut CdrWriter, &[MValue]) -> bool, p: &MValue| {
        let mut w = CdrWriter::new(Endian::Little);
        enc(&mut w, std::slice::from_ref(p)).then(|| w.into_bytes())
    };
    let native =
        |w: &mut CdrWriter, inputs: &[MValue]| native_enc(w, inputs, left.reply_index).is_ok();
    let vm = |w: &mut CdrWriter, inputs: &[MValue]| {
        opcode
            .encode_invocation(w, inputs, left.reply_index)
            .is_ok()
    };
    let mut replies = Vec::with_capacity(payloads.len());
    for p in payloads {
        let bytes = encode(&native, p);
        let same = bytes.is_some() && encode(&vm, p) == bytes && interp(p) == bytes;
        out.check(same, "native, opcode and interpretive encodes agree");
        let reply = f
            .convert_args(std::slice::from_ref(p))
            .ok()
            .and_then(|args| c_fitter_impl(args).ok())
            .and_then(|r| {
                let mut w = CdrWriter::new(Endian::Little);
                w.put_value(&op.graph, op.result_ty, &r).ok()?;
                Some(w.into_bytes())
            })
            .unwrap_or_default();
        let decoded = native_dec(&mut CdrReader::new(&reply, Endian::Little));
        out.check(decoded.as_ref() == Ok(&expected(p)), "native decode");
        replies.push(reply);
    }
    let mut buf = Vec::new();
    let mut pooled = |enc: &dyn Fn(&mut CdrWriter, &[MValue]) -> bool| {
        time_each(payloads, passes, |p| {
            let mut w = CdrWriter::from_vec(std::mem::take(&mut buf), Endian::Little);
            std::hint::black_box(enc(&mut w, std::slice::from_ref(p)));
            buf = w.into_bytes();
        })
    };
    let native_us = pooled(&native);
    let opcode_us = pooled(&vm);
    let interp_us = time_each(payloads, passes.div_ceil(4), |p| {
        std::hint::black_box(interp(p));
    });
    let decode_us = time_each(&replies, passes, |bytes| {
        std::hint::black_box(native_dec(&mut CdrReader::new(bytes, Endian::Little)).ok());
    });
    [native_us, decode_us, opcode_us, interp_us]
}

pub fn run(shape: CallShape, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let slots = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rng = StdRng::seed_from_u64(seed);

    // Inputs: payloads, then the arrival schedule and each arrival's
    // payload.
    let payloads: Vec<MValue> = shape
        .lengths(&mut rng)
        .into_iter()
        .map(|n| {
            let mut payload = points(n, &mut rng);
            stamp(&mut payload, -1.0);
            payload
        })
        .collect();
    let mut schedule: Vec<(Duration, usize)> = Vec::new();
    let mut at = 0.0f64;
    let mut order: Vec<usize> = (0..payloads.len()).collect();
    loop {
        at += -(1.0 - unit(&mut rng)).ln() / shape.rate();
        if at >= seconds {
            break;
        }
        if schedule.len().is_multiple_of(order.len()) {
            order.shuffle(&mut rng);
        }
        schedule.push((
            Duration::from_secs_f64(at),
            order[schedule.len() % order.len()],
        ));
    }

    let epoch = Instant::now();
    let probe = trace.then(|| Arc::new(Probe::new(epoch, schedule.len())));
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rig: Option<Rig> = None;
    for _ in 0..SETUPS {
        if let Some(mut old) = rig.take() {
            old.server.shutdown();
        }
        let t = Instant::now();
        rig = Some(setup(slots, probe.as_ref(), &payloads));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one setup");
    let tier = rig.stub.dispatch_tier();
    out.check(tier == "native", "the fitter stub runs on the native tier");
    println!(
        "{}: {} calls offered at {}/s by {} senders over {slots} pooled connections \
         for {seconds} s, tier {tier}, seed {seed}",
        if shape == CallShape::Small {
            "call_small"
        } else {
            "call_bulk"
        },
        schedule.len(),
        shape.rate(),
        shape.senders(slots),
    );

    let client = rig.pool.metrics().clone();
    let server_metrics = rig.server.metrics().clone();
    let dispatch_hist = server_metrics.server_histogram(OP);
    dispatch_hist.reset();
    let before = (client.snapshot(), server_metrics.snapshot());
    // The fitter compile, cold into a fresh store and then rebuilt from
    // it, repeated on this thread while the calls run. This thread does
    // nothing else meanwhile, so its own CPU time is taken out of the
    // calls' CPU time.
    let mut compiles = Compiles::default();
    compiles.pair(&rig, &mut out);
    let cpu0 = (measure::cpu_seconds(), measure::thread_cpu_seconds());
    // Leaves the senders time to start before the first call is due.
    let base = epoch.elapsed() + Duration::from_millis(200);
    let recs = drive(
        &rig,
        &schedule,
        &payloads,
        shape.senders(slots),
        epoch,
        base,
        trace,
        &mut || compiles.pair(&rig, &mut out),
    );
    let cpu = (measure::cpu_seconds() - cpu0.0) - (measure::thread_cpu_seconds() - cpu0.1);
    let after = (client.snapshot(), server_metrics.snapshot());
    rig.server.shutdown();
    let Compiles {
        colds,
        rebuilds,
        store,
    } = compiles;

    let delta = |f: fn(&MetricsSnapshot) -> u64| (f(&after.0) - f(&before.0)) as f64;
    let fallbacks = delta(|s| s.native_fallbacks);
    out.check(fallbacks == 0.0, "no native fallbacks");
    let calls = recs.len() as f64;
    let mut good = 0u64;
    let mut latency = Vec::with_capacity(recs.len());
    for r in &recs {
        out.check(r.ok, "fitter reply equals the expected line");
        let e2e = (r.end - r.due) as f64 / 1e3;
        latency.push(e2e);
        if r.ok && e2e <= us(shape.limit()) {
            good += 1;
        }
    }
    println!(
        "latency from due time over {} calls: p50 {:.0} us, p90 {:.0} us, p95 {:.0} us, \
         p99 {:.0} us, p99.9 {:.0} us",
        latency.len(),
        quantile(&latency, 0.5),
        quantile(&latency, 0.9),
        quantile(&latency, 0.95),
        quantile(&latency, 0.99),
        quantile(&latency, 0.999)
    );

    if !trace {
        let walls = |v: &[FitterCompile]| {
            median(&v.iter().map(|c| c.wall.as_secs_f64()).collect::<Vec<_>>())
        };
        out.set("setup_s", median(&setups));
        out.set("compile_cold_s", walls(&colds));
        out.set("compile_rebuild_s", walls(&rebuilds));
        out.set("call_p50_us", quantile(&latency, 0.5));
        out.set("goodput_per_s", good as f64 / seconds);
        out.set("cpu_us_per_call", cpu * 1e6 / calls.max(1.0));
        return out;
    }

    // Per-layer split of the traced windows' calls.
    let probe = probe.expect("traced runs have a probe");
    let (mut lag, mut client_self, mut transport) = (Vec::new(), Vec::new(), Vec::new());
    let (mut request, mut servant, mut reply, mut e2e) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut traced_lat, mut plain_lat) = (Vec::new(), Vec::new());
    let mut all_lag = Vec::with_capacity(recs.len());
    for r in &recs {
        let us_of = |ns: u64| ns as f64 / 1e3;
        all_lag.push(us_of(r.start.saturating_sub(r.due)));
        if !r.traced {
            plain_lat.push(us_of(r.end - r.due));
            continue;
        }
        traced_lat.push(us_of(r.end - r.due));
        let s0 = probe.starts[r.id].load(Ordering::Relaxed);
        let s1 = probe.ends[r.id].load(Ordering::Relaxed);
        let Some((c0, c1)) = r
            .inside
            .filter(|&(c0, c1)| c0 <= s0 && s0 <= s1 && s1 <= c1)
        else {
            out.check(
                false,
                "traced call has a consistent connection and servant span",
            );
            continue;
        };
        lag.push(us_of(r.start - r.due));
        client_self.push(us_of((r.end - r.start) - (c1 - c0)));
        transport.push(us_of(c1 - c0));
        request.push(us_of(s0 - c0));
        servant.push(us_of(s1 - s0));
        reply.push(us_of(c1 - s1));
        e2e.push(us_of(r.end - r.due));
    }
    // The layers are differences of the same timestamps, so they add
    // back to the end-to-end mean by construction; what can fail is the
    // span ordering above. The runtime's own dispatch histogram is timed
    // apart from the benchmark's clocks: it must fall between the
    // servant span and the connection span that contain it.
    let layers = mean(&lag) + mean(&client_self) + mean(&request) + mean(&servant) + mean(&reply);
    let unattributed = (1.0 - layers / mean(&e2e)).abs();
    out.check(
        unattributed <= LAYER_TOLERANCE,
        "layers add back to the end-to-end mean",
    );
    let dispatch = dispatch_hist.snapshot().mean();
    out.check(
        mean(&servant) <= dispatch && dispatch <= mean(&transport),
        "the dispatch histogram lies between the servant and connection spans",
    );
    println!(
        "traced calls: {} of {}, end-to-end mean {:.1} us, layers add to {layers:.1} us; \
         servant {:.1} us <= dispatch {dispatch:.1} us <= connection {:.1} us",
        e2e.len(),
        recs.len(),
        mean(&e2e),
        mean(&servant),
        mean(&transport)
    );

    let [encode, decode, opcode, interp] = tiers(&rig, &payloads, shape.tier_passes(), &mut out);
    println!("encode per call: native {encode:.2} us, opcode {opcode:.2} us, interpretive {interp:.2} us");

    // Compile-side layers of the fitter pair (means over the compiles).
    let avg = |f: &dyn Fn(&FitterCompile) -> f64, v: &[FitterCompile]| {
        mean(&v.iter().map(f).collect::<Vec<_>>())
    };
    let phase = |c: &FitterCompile, name: &str| {
        c.stats
            .phases
            .iter()
            .find(|p| p.name == name)
            .cloned()
            .expect("batch phases")
    };
    let first = &colds[0];
    let t = Instant::now();
    let mut canon = Canonizer::new(rig.plan.left_graph(), CanonOpts::full());
    std::hint::black_box(canon.fingerprint(rig.plan.left_root()));
    std::hint::black_box(canon.fingerprint(rig.plan.right_root()));
    let canon_ms = ms(t.elapsed());
    let hits: u64 = rebuilds.iter().map(|c| c.stats.cache.hits).sum();
    let misses: u64 = rebuilds.iter().map(|c| c.stats.cache.misses).sum();
    let programs = if rig.stub.is_fused() { 2.0 } else { 0.0 };
    let record_bytes: usize = store
        .keys()
        .iter()
        .filter_map(|(_, id)| store.body(id))
        .map(|b| b.len())
        .sum();

    out.set("stype.annotate_ms", avg(&|c| ms(c.annotate), &colds));
    out.set("stype.lower_ms", avg(&|c| ms(c.lower), &colds));
    out.set("mtype.graph_nodes", first.graph_nodes as f64);
    out.set("mtype.canon_ms", canon_ms);
    out.set(
        "comparer.compare_ms",
        avg(&|c| phase(c, "compare").total_us as f64 / 1e3, &colds),
    );
    out.set(
        "comparer.pair_p50_us",
        avg(&|c| phase(c, "compare").p50_us as f64, &colds),
    );
    out.set(
        "comparer.pair_max_ms",
        avg(&|c| phase(c, "compare").max_us as f64 / 1e3, &colds),
    );
    out.set(
        "comparer.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set(
        "comparer.cache_misses",
        avg(&|c| c.stats.cache.misses as f64, &colds),
    );
    out.set(
        "comparer.corr_hits",
        avg(&|c| c.stats.cache.corr_hits as f64, &colds),
    );
    out.set(
        "plan.plan_ms",
        avg(&|c| phase(c, "plan").total_us as f64 / 1e3, &colds),
    );
    out.set("wire.canonize_ms", 0.0);
    out.set("wire.lower_ms", avg(&|c| ms(c.programs), &colds));
    out.set("wire.programs", programs);
    out.set("wire.fallbacks", 2.0 - programs);
    out.set("artifact.commit_ms", avg(&|c| ms(c.store_io), &colds));
    out.set("artifact.load_ms", avg(&|c| ms(c.store_io), &rebuilds));
    out.set("artifact.records", store.len() as f64);
    out.set("artifact.bytes", record_bytes as f64);
    out.set("wire.encode_us", encode);
    out.set("wire.decode_us", decode);
    out.set("wire.encode_opcode_us", opcode);
    out.set("wire.encode_interp_us", interp);
    out.set("stubgen.client_self_us", mean(&client_self));
    out.set("runtime.transport_us", mean(&transport));
    out.set("runtime.request_path_us", mean(&request));
    out.set("runtime.dispatch_us", dispatch);
    out.set("runtime.servant_us", mean(&servant));
    out.set("runtime.reply_path_us", mean(&reply));
    out.set("runtime.retries", delta(|s| s.retries));
    out.set("runtime.sheds", (after.1.sheds - before.1.sheds) as f64);
    out.set("runtime.overloads", delta(|s| s.overloads));
    out.set("runtime.native_calls", delta(|s| s.native_calls));
    out.set("runtime.native_fallbacks", fallbacks);
    let reuses = delta(|s| s.pool_reuses);
    out.set(
        "runtime.pool_reuse_ratio",
        reuses / (reuses + delta(|s| s.pool_misses)).max(1.0),
    );
    out.set(
        "runtime.bytes_sent_per_call",
        delta(|s| s.bytes_sent) / calls.max(1.0),
    );
    out.set("loadgen.lag_p99_us", quantile(&all_lag, 0.99));
    out.set("tail.call_p90_us", quantile(&latency, 0.9));
    out.set("tail.call_p99_us", quantile(&latency, 0.99));
    out.set(
        "trace.overhead_ratio",
        median(&traced_lat) / median(&plain_lat),
    );
    out.set("trace.unattributed_ratio", unattributed);
    out
}
