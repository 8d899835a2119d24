//! Overload: the metastable-failure A/B scenario for the
//! resilience stack (deadline propagation + retry budgets + AIMD
//! admission).
//!
//! The failure mode under test is the classic metastable collapse:
//! offered load exceeds capacity, queues grow past the callers'
//! patience, the server spends its whole budget executing work whose
//! callers already gave up, and *goodput* (replies that arrive while
//! someone still wants them) falls to zero even though throughput
//! stays high. The old static-cap stack reproduces that collapse; the
//! new stack — propagated deadlines shed doomed work at admission,
//! dequeue, and dispatch, retry budgets cap amplification, and the
//! AIMD limiter turns queueing delay into early sheds — keeps goodput
//! at capacity through the same storm.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mockingbird::mtype::{IntRange, MtypeGraph};
use mockingbird::runtime::{
    CallOptions, ChaosConnection, Connection, ConnectionPool, Connector, Dispatcher,
    InMemoryConnection, RemoteRef, RetryBudget, RetryPolicy, RuntimeError, Servant, ServerConfig,
    TcpServer, WireOp, WireServant,
};
use mockingbird::values::{Endian, MValue};
use mockingbird_bench::OneCallAtATime;

/// Per-request servant work: with [`WORKERS`] dispatch workers the
/// server's capacity is `WORKERS / SERVICE_TIME` ≈ 500 calls/s.
const SERVICE_TIME: Duration = Duration::from_millis(4);
const WORKERS: usize = 2;

/// The callers' patience: a reply landing after this is worthless to
/// the client that asked, whether or not the server produced it.
const DEADLINE: Duration = Duration::from_millis(30);

/// Injected fault rate for both stacks (the ISSUE scenario's 20%).
const FAULT_RATE: f64 = 0.20;

/// Tolerance when checking that the server never *executed* expired
/// work: the propagated budget is restarted from the server's receive
/// instant, so loopback transit can legitimately push execution
/// slightly past the client's absolute deadline. (A chaos `Delay`
/// upstream of the transport is deducted before the write.)
const TRANSIT_SLACK: Duration = Duration::from_millis(10);

/// Each load phase runs warmup (limiter convergence, queue fill) then
/// a measured window; only calls finishing inside the window count.
const WARMUP: Duration = Duration::from_millis(1000);
const MEASURE: Duration = Duration::from_millis(1500);

/// Client threads at 1× (saturates the workers without queue growth)
/// and under overload (~2× the server's service capacity once the
/// deadline bounds each cycle).
const BASELINE_THREADS: usize = 4;
const OVERLOAD_THREADS: usize = 32;

type DeadlineMap = Arc<Mutex<HashMap<i128, Instant>>>;

/// An idempotent echo servant that records whether it was ever asked
/// to execute a request whose caller's absolute deadline had already
/// passed (plus [`TRANSIT_SLACK`]) — the property the server-side
/// deadline checks must enforce.
fn echo_service(
    deadlines: DeadlineMap,
    late_executions: Arc<AtomicU64>,
) -> (Arc<Dispatcher>, HashMap<String, WireOp>) {
    let mut g = MtypeGraph::new();
    let i = g.integer(IntRange::signed_bits(64));
    let rec = g.record(vec![i]);
    let graph = Arc::new(g);
    let op = WireOp::new(graph, rec, rec).idempotent();
    let servant: Arc<dyn Servant> = Arc::new(move |_: &str, v: MValue| {
        if let MValue::Record(fields) = &v {
            if let Some(MValue::Int(k)) = fields.first() {
                if let Some(deadline) = deadlines.lock().unwrap().get(k) {
                    if Instant::now() > *deadline + TRANSIT_SLACK {
                        late_executions.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        }
        std::thread::sleep(SERVICE_TIME);
        Ok(v)
    });
    let mut ops = HashMap::new();
    ops.insert("echo".to_string(), op);
    let d = Arc::new(Dispatcher::new());
    d.register(b"obj".to_vec(), WireServant::new(servant, ops.clone()));
    (d, ops)
}

fn payload(k: i128) -> MValue {
    MValue::Record(vec![MValue::Int(k)])
}

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 3,
        initial_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        jitter: false,
    }
}

/// Drives `threads` closed-loop callers against `addr` through one
/// shared pool (chaos-wrapped [`OneCallAtATime`] dials at
/// [`FAULT_RATE`]; callers sharing a slot queue on it with their
/// budgets running) and returns the
/// goodput count: calls that succeeded within [`DEADLINE`] during the
/// measured window. When `deadlines` is given, each call registers its
/// absolute deadline before being sent so the servant can detect
/// expired executions.
fn drive(
    addr: SocketAddr,
    threads: usize,
    ops: &HashMap<String, WireOp>,
    options: &CallOptions,
    budget: Arc<RetryBudget>,
    seed: u64,
    deadlines: Option<&DeadlineMap>,
) -> u64 {
    let dials = Arc::new(AtomicU64::new(0));
    let connector: Connector = Arc::new(move |a| {
        let n = dials.fetch_add(1, Ordering::SeqCst);
        Ok(Arc::new(ChaosConnection::with_fault_rate(
            Arc::new(OneCallAtATime::connect(a)?),
            seed + n,
            FAULT_RATE,
        )) as Arc<dyn Connection>)
    });
    let pool = Arc::new(
        ConnectionPool::builder(vec![addr])
            .with_slots(threads)
            .with_connector(connector)
            .with_retry_budget(budget)
            .build()
            .unwrap(),
    );
    let measure_from = Instant::now() + WARMUP;
    let stop_at = measure_from + MEASURE;
    let on_time = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let remote = RemoteRef::new(pool.clone(), b"obj".to_vec(), ops.clone(), Endian::Little)
                .with_options(options.clone());
            let deadlines = deadlines.cloned();
            let on_time = Arc::clone(&on_time);
            std::thread::spawn(move || {
                let mut i: i128 = 0;
                while Instant::now() < stop_at {
                    let k = (t as i128) * 1_000_000 + i;
                    i += 1;
                    if let Some(map) = &deadlines {
                        map.lock().unwrap().insert(k, Instant::now() + DEADLINE);
                    }
                    let begin = Instant::now();
                    let ok = remote.invoke("echo", &payload(k)).is_ok();
                    let done = Instant::now();
                    if ok && done - begin <= DEADLINE && done >= measure_from {
                        on_time.fetch_add(1, Ordering::SeqCst);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    on_time.load(Ordering::SeqCst)
}

#[test]
fn metastable_overload_collapses_the_static_stack_but_not_the_adaptive_one() {
    let seed = 0x0B5E_5512u64;
    println!("overload seed: {seed:#x}");

    // Phase 1 — capacity: the new stack at 1× load. This measures what
    // the server can actually deliver on this machine (service time,
    // chaos overhead, scheduler noise included), so the overload
    // assertions calibrate themselves instead of trusting nominal
    // numbers.
    let new_config = || {
        ServerConfig::default()
            .with_workers(WORKERS)
            .with_max_in_flight(8)
            .with_adaptive_limit(true)
            .with_target_p99(Duration::from_millis(10))
    };
    let new_options = CallOptions::new()
        .with_deadline(DEADLINE)
        .with_retry(retry_policy());
    let capacity = {
        let deadlines: DeadlineMap = Arc::new(Mutex::new(HashMap::new()));
        let late = Arc::new(AtomicU64::new(0));
        let (d, ops) = echo_service(Arc::clone(&deadlines), Arc::clone(&late));
        let mut server = TcpServer::bind_with("127.0.0.1:0", d, new_config()).unwrap();
        let good = drive(
            server.addr(),
            BASELINE_THREADS,
            &ops,
            &new_options,
            Arc::new(RetryBudget::default_for_pool()),
            seed,
            Some(&deadlines),
        );
        server.shutdown();
        assert_eq!(late.load(Ordering::SeqCst), 0, "no expired work at 1×");
        good
    };
    println!("capacity: {capacity} on-time replies in {MEASURE:?}");
    assert!(
        capacity > 200,
        "baseline too slow to calibrate ({capacity} on-time replies)"
    );

    // Phase 2 — the new stack under the storm: ~2× offered load, same
    // 20% faults. Deadline sheds + the AIMD limiter keep the queues
    // short, so goodput stays within 20% of capacity.
    let new_overload = {
        let deadlines: DeadlineMap = Arc::new(Mutex::new(HashMap::new()));
        let late = Arc::new(AtomicU64::new(0));
        let (d, ops) = echo_service(Arc::clone(&deadlines), Arc::clone(&late));
        let metrics = Arc::clone(d.metrics());
        let mut server = TcpServer::bind_with("127.0.0.1:0", d, new_config()).unwrap();
        let good = drive(
            server.addr(),
            OVERLOAD_THREADS,
            &ops,
            &new_options,
            Arc::new(RetryBudget::default_for_pool()),
            seed ^ 0x5eed,
            Some(&deadlines),
        );
        server.shutdown();
        assert_eq!(
            late.load(Ordering::SeqCst),
            0,
            "the server executed a request whose propagated deadline had expired"
        );
        let snap = metrics.snapshot();
        assert!(
            snap.deadline_expired_server > 0,
            "overload must make the server refuse some doomed work \
             (deadline_expired_server = 0 means propagation is dead)"
        );
        good
    };
    println!("new stack under overload: {new_overload} on-time replies");
    assert!(
        5 * new_overload >= 4 * capacity,
        "adaptive stack goodput collapsed: {new_overload} on-time vs capacity {capacity}"
    );

    // Phase 3 — the old stack in the same storm: static pinned cap, no
    // propagated deadlines (the client's patience is invisible to the
    // server), effectively unlimited retry tokens. Every queue slot is
    // spent on work whose caller has already given up.
    let old_overload = {
        let deadlines: DeadlineMap = Arc::new(Mutex::new(HashMap::new()));
        let late = Arc::new(AtomicU64::new(0));
        let (d, ops) = echo_service(deadlines, late);
        let old_config = ServerConfig::default().with_workers(WORKERS);
        let mut server = TcpServer::bind_with("127.0.0.1:0", d, old_config).unwrap();
        // No deadline in the options: nothing on the wire, no client
        // timeout — the legacy caller just waits, and the test scores
        // lateness from the outside.
        let old_options = CallOptions::new().with_retry(retry_policy());
        let good = drive(
            server.addr(),
            OVERLOAD_THREADS,
            &ops,
            &old_options,
            Arc::new(RetryBudget::new(1_000_000, 1_000_000)),
            seed ^ 0x01d5,
            None,
        );
        server.shutdown();
        good
    };
    println!("old stack under overload: {old_overload} on-time replies");
    assert!(
        2 * old_overload < capacity,
        "the static stack was supposed to collapse: {old_overload} on-time vs capacity {capacity}"
    );
}

#[test]
fn overload_outcomes_replay_from_the_seed() {
    // Determinism for the new machinery: with deadlines stamped on the
    // wire, criticality flags set, and a small retry budget draining
    // mid-run, the client-visible outcome sequence is a pure function
    // of the chaos seed.
    for seed in 0..16u64 {
        let run = || {
            let mut g = MtypeGraph::new();
            let i = g.integer(IntRange::signed_bits(64));
            let rec = g.record(vec![i]);
            let graph = Arc::new(g);
            let op = WireOp::new(graph, rec, rec).idempotent();
            let servant: Arc<dyn Servant> = Arc::new(move |_: &str, v: MValue| Ok(v));
            let mut ops = HashMap::new();
            ops.insert("echo".to_string(), op);
            let d = Arc::new(Dispatcher::new());
            d.register(b"obj".to_vec(), WireServant::new(servant, ops.clone()));
            // Each (re)dial gets its own schedule offset by the dial
            // index; calls run single-threaded, so the dial sequence —
            // and with it every fault decision — is seed-determined.
            let dials = Arc::new(AtomicU64::new(0));
            let connector: Connector = Arc::new(move |_| {
                let n = dials.fetch_add(1, Ordering::SeqCst);
                Ok(Arc::new(ChaosConnection::with_fault_rate(
                    Arc::new(InMemoryConnection::new(d.clone())),
                    seed + n,
                    0.35,
                )) as Arc<dyn Connection>)
            });
            let pool = Arc::new(
                ConnectionPool::builder(vec!["127.0.0.1:1".parse().unwrap()])
                    .with_slots(1)
                    .with_connector(connector)
                    .with_retry_budget(Arc::new(RetryBudget::new(2, 4)))
                    .build()
                    .unwrap(),
            );
            let base = CallOptions::new()
                .with_deadline(Duration::from_millis(50))
                .with_retry(retry_policy());
            let critical =
                RemoteRef::new(pool.clone(), b"obj".to_vec(), ops.clone(), Endian::Little)
                    .with_options(base.clone());
            let shed = RemoteRef::new(pool.clone(), b"obj".to_vec(), ops, Endian::Little)
                .with_options(base.sheddable());
            let outcomes: Vec<String> = (0..40)
                .map(|k| {
                    let remote = if k % 2 == 0 { &critical } else { &shed };
                    match remote.invoke("echo", &payload(k)) {
                        Ok(v) => format!("ok:{v:?}"),
                        Err(RuntimeError::RetryBudgetExhausted(m)) => format!("budget:{m}"),
                        Err(RuntimeError::Transport(m)) => format!("transport:{m}"),
                        Err(e) => format!("other:{e}"),
                    }
                })
                .collect();
            (outcomes, pool.metrics().snapshot().retry_budget_exhausted)
        };
        let (o1, x1) = run();
        let (o2, x2) = run();
        assert_eq!(o1, o2, "outcomes diverged; reproduce with seed={seed}");
        assert_eq!(
            x1, x2,
            "budget refusals diverged; reproduce with seed={seed}"
        );
    }
}
