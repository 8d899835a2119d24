//! E3: messaging throughput — the collaboration framework's send/receive
//! stubs over the in-memory transport (marshalling cost without socket
//! noise) for representative message types.

use mockingbird_bench::harness::{BenchmarkId, Criterion, Throughput};
use mockingbird_bench::{criterion_group, criterion_main, OneCallAtATime};
use mockingbird_rng::StdRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mockingbird::corpus::collab::{collaboration, MESSAGE_TYPES};
use mockingbird::corpus::sample_value;
use mockingbird::mtype::{IntRange, MtypeGraph};
use mockingbird::runtime::{
    Connection, ConnectionPool, Dispatcher, InMemoryConnection, MultiplexedConnection, RemoteRef,
    RuntimeError, Servant, TcpServer, WireOp, WireServant,
};
use mockingbird::stubgen::MessagingStubs;
use mockingbird::values::{Endian, MValue};
use mockingbird::Session;

fn setup() -> (RemoteRef, Arc<AtomicUsize>, Vec<(String, MValue)>) {
    let corpus = collaboration();
    let mut s = Session::new();
    for d in corpus.java.iter() {
        s.universe_mut().insert(d.clone()).unwrap();
    }
    s.annotate(&corpus.script).unwrap();

    let mut tys = HashMap::new();
    for m in MESSAGE_TYPES {
        tys.insert(m, s.mtype(m).unwrap());
    }
    let graph = Arc::new(s.graph().clone());
    let mut ops = HashMap::new();
    for m in MESSAGE_TYPES {
        ops.insert(m.to_string(), WireOp::new(graph.clone(), tys[m], tys[m]));
    }

    let counter = Arc::new(AtomicUsize::new(0));
    let mut handlers: HashMap<String, Arc<dyn Fn(MValue) + Send + Sync>> = HashMap::new();
    for m in MESSAGE_TYPES {
        let c = counter.clone();
        handlers.insert(
            m.to_string(),
            Arc::new(move |_| {
                c.fetch_add(1, Ordering::Relaxed);
            }),
        );
    }
    let dispatcher = Arc::new(Dispatcher::new());
    dispatcher.register(
        b"collab".to_vec(),
        mockingbird::runtime::WireServant::new(
            MessagingStubs::receive_servant(handlers),
            ops.clone(),
        ),
    );
    let remote = RemoteRef::new(
        Arc::new(InMemoryConnection::new(dispatcher)),
        b"collab".to_vec(),
        ops,
        Endian::Little,
    );

    let mut rng = StdRng::seed_from_u64(5);
    let samples: Vec<(String, MValue)> = ["CursorMoved", "ShapeMoved", "StateSnapshot"]
        .iter()
        .map(|m| ((*m).to_string(), sample_value(&graph, tys[m], &mut rng, 8)))
        .collect();
    (remote, counter, samples)
}

fn bench_send(c: &mut Criterion) {
    let (remote, counter, samples) = setup();
    let mut group = c.benchmark_group("e3/oneway_send");
    for (name, value) in &samples {
        group.bench_with_input(BenchmarkId::from_parameter(name), value, |b, v| {
            b.iter(|| remote.send(black_box(name), black_box(v)).unwrap())
        });
    }
    group.finish();
    assert!(counter.load(Ordering::Relaxed) > 0, "handlers actually ran");
}

fn bench_burst(c: &mut Criterion) {
    let (remote, _counter, samples) = setup();
    let (name, value) = &samples[0];
    c.bench_function("e3/burst_100_cursor_moves", |b| {
        b.iter(|| {
            for _ in 0..100 {
                remote.send(black_box(name), black_box(value)).unwrap();
            }
        })
    });
}

/// E3b: concurrent echo throughput over real TCP — 8 client threads
/// sharing (a) one connection taken one call at a time (a lock held
/// across each exchange), (b) one multiplexed connection (pipelined
/// requests, one demultiplexing reader), (c) a pool of 4 multiplexed
/// connections.
///
/// The servant models a service with per-call latency (database hit,
/// downstream RPC): each echo sleeps `SERVICE_DELAY` before replying.
/// The one-call-at-a-time client holds its lock across the full
/// exchange, so the 8 threads serialise on that latency; the
/// multiplexed paths keep several requests in flight and overlap it.
fn bench_concurrent_echo(c: &mut Criterion) {
    const THREADS: usize = 8;
    const CALLS_PER_THREAD: usize = 10;
    const SERVICE_DELAY: std::time::Duration = std::time::Duration::from_micros(500);

    fn echo_server() -> (TcpServer, WireOp) {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let rec = g.record(vec![i]);
        let graph = Arc::new(g);
        let op = WireOp::new(graph, rec, rec);
        let servant: Arc<dyn Servant> = Arc::new(|_: &str, v: MValue| {
            std::thread::sleep(SERVICE_DELAY);
            Ok::<_, RuntimeError>(v)
        });
        let mut ops = HashMap::new();
        ops.insert("echo".to_string(), op.clone());
        let d = Arc::new(Dispatcher::new());
        d.register(b"obj".to_vec(), WireServant::new(servant, ops));
        (TcpServer::bind("127.0.0.1:0", d).unwrap(), op)
    }

    fn remote_over(conn: Arc<dyn Connection>, op: &WireOp) -> Arc<RemoteRef> {
        let mut ops = HashMap::new();
        ops.insert("echo".to_string(), op.clone());
        Arc::new(RemoteRef::new(conn, b"obj".to_vec(), ops, Endian::Little))
    }

    fn run_threads(remote: &Arc<RemoteRef>) {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let r = remote.clone();
                std::thread::spawn(move || {
                    for k in 0..CALLS_PER_THREAD {
                        let payload = (t * 1_000 + k) as i128;
                        let out = r
                            .invoke("echo", &MValue::Record(vec![MValue::Int(payload)]))
                            .unwrap();
                        assert_eq!(out, MValue::Record(vec![MValue::Int(payload)]));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    let mut group = c.benchmark_group("e3b/concurrent_echo_8_threads");
    group.throughput(Throughput::Elements((THREADS * CALLS_PER_THREAD) as u64));
    group.sample_size(10);

    {
        let (mut server, op) = echo_server();
        let conn = Arc::new(OneCallAtATime::connect(server.addr()).unwrap());
        let remote = remote_over(conn, &op);
        group.bench_function("one_call_at_a_time", |b| {
            b.iter(|| run_threads(black_box(&remote)))
        });
        drop(remote);
        server.shutdown();
    }
    {
        let (mut server, op) = echo_server();
        let conn = Arc::new(MultiplexedConnection::connect(server.addr()).unwrap());
        let remote = remote_over(conn, &op);
        group.bench_function("multiplexed", |b| {
            b.iter(|| run_threads(black_box(&remote)))
        });
        drop(remote);
        server.shutdown();
    }
    {
        let (mut server, op) = echo_server();
        let pool = Arc::new(ConnectionPool::connect(server.addr(), 4).unwrap());
        let remote = remote_over(pool, &op);
        group.bench_function("pooled_4", |b| b.iter(|| run_threads(black_box(&remote))));
        drop(remote);
        server.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_send, bench_burst, bench_concurrent_echo);
criterion_main!(benches);
