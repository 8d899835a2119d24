//! End-to-end observability: per-node metric registries, propagated
//! trace contexts, and the metrics endpoint on [`TcpServer`].
//!
//! The trace tests drive real TCP servers and assert on the spans the
//! client- and server-side registries captured: one logical call keeps
//! one trace id across retries, hedged duplicates, and server dispatch.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mockingbird::mtype::{IntRange, MtypeGraph};
use mockingbird::runtime::metrics::METRICS;
use mockingbird::runtime::{
    CallOptions, Connection, ConnectionPool, Dispatcher, HedgePolicy, InMemoryConnection,
    MetricsRegistry, RemoteRef, RetryPolicy, RuntimeError, Servant, SpanKind, TcpServer, WireOp,
    WireServant,
};
use mockingbird::values::{Endian, MValue};
use mockingbird::wire::Message;

/// An idempotent echo servant and the op table a client needs to call
/// it. `delay` holds each dispatch for that long (server-side work).
fn echo_service(delay: Duration) -> (Arc<Dispatcher>, HashMap<String, WireOp>) {
    let mut g = MtypeGraph::new();
    let i = g.integer(IntRange::signed_bits(64));
    let rec = g.record(vec![i]);
    let graph = Arc::new(g);
    let op = WireOp::new(graph, rec, rec).idempotent();
    let servant: Arc<dyn Servant> = Arc::new(move |_: &str, v: MValue| {
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
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

/// One HTTP/1.0 request against a server's metrics listener.
fn scrape(server: &TcpServer, path: &str) -> String {
    let mut s = TcpStream::connect(server.metrics_addr()).unwrap();
    write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut reply = String::new();
    s.read_to_string(&mut reply).unwrap();
    let body_at = reply.find("\r\n\r\n").map(|k| k + 4).unwrap_or(0);
    reply.split_off(body_at)
}

#[test]
fn two_concurrent_nodes_report_disjoint_counts() {
    // The bug this API replaced: with process-global counters, one
    // node's report `reset()` raced every other node's workers. With
    // per-node registries, two clients hammering two servers at once
    // each see exactly their own calls.
    let (d_a, ops_a) = echo_service(Duration::ZERO);
    let (d_b, ops_b) = echo_service(Duration::ZERO);
    let mut server_a = TcpServer::bind("127.0.0.1:0", d_a).unwrap();
    let mut server_b = TcpServer::bind("127.0.0.1:0", d_b).unwrap();

    let client = |addr, ops| {
        let pool = Arc::new(ConnectionPool::connect(addr, 2).unwrap());
        Arc::new(RemoteRef::new(pool, b"obj".to_vec(), ops, Endian::Little))
    };
    let a = client(server_a.addr(), ops_a);
    let b = client(server_b.addr(), ops_b);

    let (calls_a, calls_b) = (40u64, 70u64);
    let ta = {
        let a = a.clone();
        std::thread::spawn(move || {
            for k in 0..calls_a {
                a.invoke("echo", &payload(i128::from(k))).unwrap();
            }
        })
    };
    let tb = {
        let b = b.clone();
        std::thread::spawn(move || {
            for k in 0..calls_b {
                b.invoke("echo", &payload(i128::from(k))).unwrap();
            }
        })
    };
    ta.join().unwrap();
    tb.join().unwrap();

    assert_eq!(a.metrics().snapshot().requests, calls_a);
    assert_eq!(b.metrics().snapshot().requests, calls_b);
    assert_eq!(
        a.metrics().client_histogram("echo").snapshot().count(),
        calls_a
    );
    assert_eq!(
        b.metrics().client_histogram("echo").snapshot().count(),
        calls_b
    );
    // Server-side dispatch histograms are just as disjoint.
    assert_eq!(
        server_a
            .metrics()
            .server_histogram("echo")
            .snapshot()
            .count(),
        calls_a
    );
    assert_eq!(
        server_b
            .metrics()
            .server_histogram("echo")
            .snapshot()
            .count(),
        calls_b
    );
    // And resetting one node cannot disturb the other.
    a.metrics().reset();
    assert_eq!(a.metrics().snapshot().requests, 0);
    assert_eq!(b.metrics().snapshot().requests, calls_b);
    server_a.shutdown();
    server_b.shutdown();
}

#[test]
fn hedged_call_keeps_one_trace_id_and_marks_the_winner() {
    // One endpoint answers in 300 ms, the other instantly; a 10 ms
    // hedge races a duplicate. The logical call must show ONE trace id
    // with TWO client attempt span ids under it, winner flagged.
    let (slow_d, ops) = echo_service(Duration::from_millis(300));
    let (fast_d, _) = echo_service(Duration::ZERO);
    let mut slow = TcpServer::bind("127.0.0.1:0", slow_d).unwrap();
    let mut fast = TcpServer::bind("127.0.0.1:0", fast_d).unwrap();

    let pool = Arc::new(
        ConnectionPool::builder(vec![slow.addr(), fast.addr()])
            .with_slots(1)
            .build()
            .unwrap(),
    );
    pool.metrics().set_tracing(true);
    let remote = RemoteRef::new(pool.clone(), b"obj".to_vec(), ops, Endian::Little)
        .with_options(CallOptions::new().with_hedge(HedgePolicy::After(Duration::from_millis(10))));

    // Round-robin parks one primary on the slow endpoint; run a couple
    // of calls so at least one hedges.
    for k in 0..2 {
        assert_eq!(remote.invoke("echo", &payload(k)).unwrap(), payload(k));
    }
    assert!(
        pool.metrics().snapshot().hedges_won > 0,
        "a hedge must win against a 300 ms primary"
    );

    // The losing (slow) attempt records its span only when the slow
    // server finally answers — wait for both attempts of some trace.
    let deadline = Instant::now() + Duration::from_secs(5);
    let hedged = loop {
        let spans = pool.metrics().spans().snapshot();
        let mut by_trace: HashMap<u128, Vec<_>> = HashMap::new();
        for s in spans {
            if s.kind == SpanKind::Client && !s.endpoint.is_empty() {
                by_trace.entry(s.trace_id).or_default().push(s);
            }
        }
        if let Some((_, attempts)) = by_trace.into_iter().find(|(_, a)| a.len() >= 2) {
            break attempts;
        }
        assert!(
            Instant::now() < deadline,
            "no trace accumulated two attempt spans"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(hedged.len(), 2, "primary + hedge duplicate");
    assert_ne!(hedged[0].span_id, hedged[1].span_id, "distinct span ids");
    assert_ne!(hedged[0].endpoint, hedged[1].endpoint, "distinct endpoints");
    assert_eq!(
        hedged.iter().filter(|s| s.winner).count(),
        1,
        "exactly one attempt won the race"
    );
    let winner = hedged.iter().find(|s| s.winner).unwrap();
    assert_eq!(
        winner.endpoint,
        fast.addr().to_string(),
        "the fast endpoint won"
    );
    // The root client span for the same logical call shares the trace.
    let trace_id = hedged[0].trace_id;
    let spans = pool.metrics().spans().snapshot();
    assert!(
        spans
            .iter()
            .any(|s| s.trace_id == trace_id && s.endpoint.is_empty()),
        "the logical-call root span carries the same trace id"
    );
    // And the dispatch on the winning server joined the same trace.
    assert!(
        fast.metrics()
            .spans()
            .snapshot()
            .iter()
            .any(|s| s.kind == SpanKind::Server && s.trace_id == trace_id),
        "the server span propagated the client's trace id"
    );
    slow.shutdown();
    fast.shutdown();
}

#[test]
fn retries_stay_inside_one_trace() {
    // A connection that fails the first exchange, then delegates. It
    // forwards the dispatcher's registry, so client and server spans
    // land in one log we can join.
    struct Flaky {
        inner: InMemoryConnection,
        failed: std::sync::atomic::AtomicBool,
    }
    impl Connection for Flaky {
        fn call(&self, msg: &Message) -> Result<Option<Message>, RuntimeError> {
            if !self.failed.swap(true, std::sync::atomic::Ordering::SeqCst) {
                return Err(RuntimeError::Transport("injected failure".into()));
            }
            self.inner.call(msg)
        }
        fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
            self.inner.metrics()
        }
    }

    let (d, ops) = echo_service(Duration::ZERO);
    let registry = Arc::clone(d.metrics());
    registry.set_tracing(true);
    let flaky = Flaky {
        inner: InMemoryConnection::new(d),
        failed: std::sync::atomic::AtomicBool::new(false),
    };
    let remote = RemoteRef::new(Arc::new(flaky), b"obj".to_vec(), ops, Endian::Little)
        .with_options(CallOptions::new().with_retry(RetryPolicy::retries(3)));
    assert_eq!(remote.invoke("echo", &payload(9)).unwrap(), payload(9));
    assert_eq!(remote.metrics().snapshot().retries, 1);

    let spans = registry.spans().snapshot();
    let roots: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Client)
        .collect();
    let servers: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Server)
        .collect();
    assert_eq!(roots.len(), 1, "one logical call, one client root span");
    assert_eq!(
        servers.len(),
        1,
        "only the retried attempt reached dispatch"
    );
    assert_eq!(
        roots[0].trace_id, servers[0].trace_id,
        "the retry reused the call's trace id"
    );
    // The server span hangs off the per-attempt child context, not the
    // root itself.
    assert_ne!(servers[0].parent_span_id, 0);
    assert_ne!(servers[0].parent_span_id, roots[0].span_id);
}

#[test]
fn prometheus_endpoint_is_well_formed_and_monotonic() {
    let (d, ops) = echo_service(Duration::ZERO);
    let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
    let pool = Arc::new(ConnectionPool::connect(server.addr(), 2).unwrap());
    let remote = RemoteRef::new(pool, b"obj".to_vec(), ops, Endian::Little);
    for k in 0..5 {
        remote.invoke("echo", &payload(k)).unwrap();
    }

    // Every line is a HELP, TYPE or parseable sample line; families are
    // unique. Returns each family's HELP texts, each family's TYPE
    // kinds, and every sample's values, keyed by name.
    type Lines = HashMap<String, Vec<String>>;
    let parse = |text: &str| -> (Lines, Lines, HashMap<String, Vec<f64>>) {
        let (mut helps, mut types) = (Lines::new(), Lines::new());
        let mut samples: HashMap<String, Vec<f64>> = HashMap::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP NAME TEXT");
                helps
                    .entry(name.to_string())
                    .or_default()
                    .push(help.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE NAME KIND");
                assert!(
                    matches!(kind, "counter" | "gauge" | "summary"),
                    "unknown family kind in {line:?}"
                );
                types
                    .entry(name.to_string())
                    .or_default()
                    .push(kind.to_string());
            } else if !line.is_empty() {
                let (name, value) = line.rsplit_once(' ').expect("SAMPLE VALUE");
                let value: f64 = value.parse().expect("numeric sample");
                samples.entry(name.to_string()).or_default().push(value);
            }
        }
        for (name, kinds) in &types {
            assert_eq!(kinds.len(), 1, "duplicate metric family {name}");
        }
        (helps, types, samples)
    };
    let first = scrape(&server, "/metrics");
    let (helps, types, samples1) = parse(&first);
    // Each row of the metric table exports as exactly one family with
    // one HELP line carrying its doc text, one TYPE line with its
    // declared kind, and one sample.
    for m in METRICS {
        let family = m.family();
        assert_eq!(
            helps.get(&family),
            Some(&vec![m.help.to_string()]),
            "HELP for {family}"
        );
        assert_eq!(
            types.get(&family),
            Some(&vec![m.kind.to_string()]),
            "TYPE for {family}"
        );
        assert_eq!(
            samples1.get(&family).map(Vec::len),
            Some(1),
            "sample for {family}"
        );
    }
    // Beyond the table: the per-op latency summary and the span gauge.
    assert_eq!(types.len(), METRICS.len() + 2);
    assert_eq!(helps.len(), types.len(), "every family has a HELP line");

    // More traffic, then a second scrape: counters never go backwards.
    for k in 0..5 {
        remote.invoke("echo", &payload(100 + k)).unwrap();
    }
    let second = scrape(&server, "/metrics");
    let (_, _, samples2) = parse(&second);
    let counter = |samples: &HashMap<String, Vec<f64>>, family: &str| samples[family][0];
    for m in METRICS.iter().filter(|m| m.kind == "counter") {
        let family = m.family();
        let (v1, v2) = (counter(&samples1, &family), counter(&samples2, &family));
        assert!(v2 >= v1, "counter {family} went backwards: {v1} -> {v2}");
    }
    assert!(
        counter(&samples2, "mockingbird_bytes_received_total")
            > counter(&samples1, "mockingbird_bytes_received_total"),
        "the second burst moved the server's byte counters"
    );
    // The per-op dispatch summary counted both bursts.
    let served = second
        .lines()
        .find_map(|l| {
            l.strip_prefix(
                "mockingbird_op_latency_microseconds_count{side=\"server\",op=\"echo\"} ",
            )
        })
        .expect("server-side echo summary exported");
    assert!(served.parse::<u64>().unwrap() >= 10);

    // The JSON snapshot serves the same numbers for programmatic use.
    let json = scrape(&server, "/metrics.json");
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"counters\""));
    assert!(json.contains("\"server_ops\""));
    assert!(json.contains("\"echo\""));
    for m in METRICS {
        assert!(
            json.contains(&format!("\"{}\":", m.name)),
            "{} in JSON",
            m.name
        );
    }

    // Unknown paths 404 without wedging the listener.
    let miss = scrape(&server, "/nope");
    assert!(miss.contains("not found"));
    server.shutdown();
}
