//! Chaos: the supervised runtime under deterministic fault injection.
//!
//! Every test that draws faults prints its seed; re-running with the
//! same seed replays the same schedule byte-for-byte, so any failure
//! here reproduces exactly.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mockingbird::mtype::{IntRange, MtypeGraph};
use mockingbird::runtime::dispatch::interface_fingerprint;
use mockingbird::runtime::{
    BreakerConfig, BreakerState, CallOptions, ChaosConnection, Connection, ConnectionPool,
    Connector, Dispatcher, HedgePolicy, InMemoryConnection, MultiplexedConnection, RemoteRef,
    RetryBudget, RetryPolicy, RuntimeError, Servant, ServerConfig, TcpServer, WireOp, WireServant,
};
use mockingbird::values::{Endian, MValue};
use mockingbird::wire::HandshakeInfo;

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

/// A loopback address whose port was just released: dials are refused.
fn refused_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    drop(listener);
    addr
}

#[test]
fn chaos_outcomes_replay_byte_for_byte_from_the_seed() {
    // The headline determinism property: for 64 seeds, two full runs of
    // the same call sequence produce identical client-visible outcomes
    // AND identical fault traces.
    for seed in 0..64u64 {
        let run = || {
            let (d, ops) = echo_service(Duration::ZERO);
            let chaos = Arc::new(ChaosConnection::with_fault_rate(
                Arc::new(InMemoryConnection::new(d)),
                seed,
                0.35,
            ));
            let remote =
                RemoteRef::new(chaos.clone(), b"obj".to_vec(), ops.clone(), Endian::Little);
            let outcomes: Vec<String> = (0..60)
                .map(|k| match remote.invoke("echo", &payload(k)) {
                    Ok(v) => format!("ok:{v:?}"),
                    Err(RuntimeError::Transport(m)) => format!("transport:{m}"),
                    Err(e) => format!("other:{e}"),
                })
                .collect();
            (outcomes, chaos.trace())
        };
        let (o1, t1) = run();
        let (o2, t2) = run();
        assert_eq!(o1, o2, "outcomes diverged; reproduce with seed={seed}");
        assert_eq!(t1, t2, "fault traces diverged; reproduce with seed={seed}");
    }
}

#[test]
fn twenty_percent_faults_with_breaker_and_hedging_stay_above_99_percent() {
    // The X7 acceptance bar: at a 20% injected fault rate, idempotent
    // calls through the supervised pool (breaker + retry + hedging)
    // succeed ≥99% of the time and NEVER return a wrong payload.
    let seed = 0x0C4A_0520u64;
    println!("chaos seed: {seed:#x}");
    let (d, ops) = echo_service(Duration::ZERO);
    // Faults are injected below the pool: the chaos wrapper inherits the
    // in-memory dispatcher's registry, while retries/hedges land on the
    // pool's own registry.
    let service_metrics = Arc::clone(d.metrics());
    let dials = Arc::new(AtomicU64::new(0));
    let connector: Connector = Arc::new(move |_| {
        // Each (re)dial gets its own schedule, offset by the dial
        // index, so a torn-down endpoint comes back with fresh faults.
        let n = dials.fetch_add(1, Ordering::SeqCst);
        Ok(Arc::new(ChaosConnection::with_fault_rate(
            Arc::new(InMemoryConnection::new(d.clone())),
            seed + n,
            0.20,
        )) as Arc<dyn Connection>)
    });
    let pool = ConnectionPool::builder(vec![
        "127.0.0.1:1".parse().unwrap(),
        "127.0.0.1:2".parse().unwrap(),
    ])
    .with_slots(1)
    .with_connector(connector)
    .build()
    .unwrap();
    let remote = RemoteRef::new(Arc::new(pool), b"obj".to_vec(), ops, Endian::Little).with_options(
        CallOptions::new()
            .with_retry(RetryPolicy {
                max_retries: 5,
                initial_backoff: Duration::from_micros(200),
                max_backoff: Duration::from_millis(2),
                jitter: true,
            })
            .with_hedge(HedgePolicy::After(Duration::from_millis(3))),
    );

    let total = 400;
    let mut ok = 0u32;
    for k in 0..total {
        match remote.invoke("echo", &payload(i128::from(k))) {
            Ok(v) => {
                assert_eq!(
                    v,
                    payload(i128::from(k)),
                    "WRONG PAYLOAD at call {k}; reproduce with seed={seed:#x}"
                );
                ok += 1;
            }
            Err(RuntimeError::Transport(_) | RuntimeError::Timeout(_)) => {}
            Err(e) => panic!("unexpected error class at call {k}: {e} (seed={seed:#x})"),
        }
    }
    let rate = f64::from(ok) / f64::from(total);
    assert!(
        rate >= 0.99,
        "success rate {rate:.3} below 0.99; reproduce with seed={seed:#x}"
    );
    assert!(
        service_metrics.snapshot().faults_injected > 0,
        "a 20% rate over {total} calls injects faults"
    );
    assert!(
        remote.metrics().snapshot().retries > 0,
        "retries drove the recovery"
    );
}

#[test]
fn version_skew_is_rejected_at_connect_time() {
    let (d, ops) = echo_service(Duration::ZERO);
    let server_info = HandshakeInfo::new(d.interface_fingerprint(), 7);
    let mut server = TcpServer::bind_with(
        "127.0.0.1:0",
        d,
        ServerConfig::default().with_handshake(server_info),
    )
    .unwrap();

    // A client compiled against a *different* interface: one extra op
    // changes the interface fingerprint, and the handshake refuses it.
    let mut skewed = ops.clone();
    skewed.insert("evict".to_string(), ops["echo"].clone());
    let skewed_info = HandshakeInfo::new(interface_fingerprint(&skewed), 7);
    let Err(err) = MultiplexedConnection::connect_with(server.addr(), Some(&skewed_info)) else {
        panic!("a skewed peer must not connect");
    };
    assert!(matches!(err, RuntimeError::VersionSkew(_)), "{err}");
    assert!(server.metrics().snapshot().handshake_rejects > 0);

    // The matching client is unaffected and calls fine.
    let good = HandshakeInfo::new(interface_fingerprint(&ops), 7);
    let conn = MultiplexedConnection::connect_with(server.addr(), Some(&good)).unwrap();
    let remote = RemoteRef::new(Arc::new(conn), b"obj".to_vec(), ops, Endian::Little);
    assert_eq!(remote.invoke("echo", &payload(4)).unwrap(), payload(4));
    server.shutdown();
}

#[test]
fn rules_skew_is_accepted_and_still_serves() {
    let (d, ops) = echo_service(Duration::ZERO);
    let fp = d.interface_fingerprint();
    let mut server = TcpServer::bind_with(
        "127.0.0.1:0",
        d,
        ServerConfig::default().with_handshake(HandshakeInfo::new(fp, 1)),
    )
    .unwrap();

    // Same interface, different coercion-rules fingerprint: rules only
    // shape each side's own stub, never the wire types, so the
    // handshake accepts.
    let conn = MultiplexedConnection::connect_with(server.addr(), Some(&HandshakeInfo::new(fp, 2)))
        .unwrap();
    let m = server.metrics().snapshot();
    assert_eq!((m.handshakes, m.handshake_rejects), (1, 0));
    let remote = RemoteRef::new(Arc::new(conn), b"obj".to_vec(), ops, Endian::Little);
    for k in 0..5 {
        assert_eq!(remote.invoke("echo", &payload(k)).unwrap(), payload(k));
    }
    server.shutdown();
}

#[test]
fn overload_sheds_are_typed_and_retries_ride_them_out() {
    // A deliberately tiny server: one worker, a one-deep queue, and a
    // servant that holds each dispatch 20 ms. A burst must overflow.
    let (d, ops) = echo_service(Duration::from_millis(20));
    let mut server = TcpServer::bind_with(
        "127.0.0.1:0",
        d,
        ServerConfig {
            max_queue: 1,
            max_in_flight: 2,
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Burst WITHOUT retry: some calls are shed with a typed error.
    let pool = Arc::new(ConnectionPool::connect(server.addr(), 2).unwrap());
    let remote = Arc::new(RemoteRef::new(pool, b"obj".to_vec(), ops, Endian::Little));
    let handles: Vec<_> = (0..12)
        .map(|k: i128| {
            let r = remote.clone();
            std::thread::spawn(move || match r.invoke("echo", &payload(k)) {
                Ok(v) => {
                    assert_eq!(v, payload(k), "shed pressure must never corrupt replies");
                    0u32
                }
                Err(RuntimeError::Overloaded(_)) => 1,
                Err(e) => panic!("unexpected error class: {e}"),
            })
        })
        .collect();
    let shed: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(shed > 0, "a 12-call burst into a 1-worker server sheds");
    assert!(
        server.metrics().snapshot().sheds > 0,
        "server counted its sheds"
    );
    assert!(
        remote.metrics().snapshot().overloads > 0,
        "clients saw typed sheds"
    );

    // The same burst WITH retry: every call eventually lands.
    let retrying = remote.clone();
    let handles: Vec<_> = (100..112)
        .map(|k: i128| {
            let r = retrying.clone();
            std::thread::spawn(move || {
                let opts = CallOptions::new().with_retry(RetryPolicy {
                    max_retries: 10,
                    initial_backoff: Duration::from_millis(10),
                    max_backoff: Duration::from_millis(60),
                    jitter: true,
                });
                let v = r.invoke_with("echo", &payload(k), &opts).unwrap();
                assert_eq!(v, payload(k));
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
}

#[test]
fn breaker_quarantines_a_dead_endpoint_while_the_live_one_serves() {
    let (d, ops) = echo_service(Duration::ZERO);
    let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
    let dead = refused_addr();

    let pool = ConnectionPool::builder(vec![dead, server.addr()])
        .with_slots(1)
        .with_breaker(BreakerConfig {
            consecutive_failures: 3,
            cooldown: Duration::from_secs(30),
            ..BreakerConfig::default()
        })
        .build()
        .unwrap();
    let pool = Arc::new(pool);
    let remote = RemoteRef::new(pool.clone(), b"obj".to_vec(), ops, Endian::Little).with_options(
        CallOptions::new().with_retry(RetryPolicy {
            max_retries: 4,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter: false,
        }),
    );

    // Retries route around the refused dials until the breaker trips;
    // from then on the dead endpoint is skipped outright.
    for k in 0..20 {
        assert_eq!(remote.invoke("echo", &payload(k)).unwrap(), payload(k));
    }
    assert_eq!(pool.breaker_state(0), BreakerState::Open);
    assert_eq!(pool.breaker_state(1), BreakerState::Closed);
    assert!(pool.metrics().snapshot().breaker_opens > 0);
    server.shutdown();
}

#[test]
fn hedging_routes_past_a_slow_endpoint() {
    let (slow_d, ops) = echo_service(Duration::from_millis(300));
    let (fast_d, _) = echo_service(Duration::ZERO);
    let mut slow = TcpServer::bind("127.0.0.1:0", slow_d).unwrap();
    let mut fast = TcpServer::bind("127.0.0.1:0", fast_d).unwrap();

    let pool = ConnectionPool::builder(vec![slow.addr(), fast.addr()])
        .with_slots(1)
        .build()
        .unwrap();
    let pool = Arc::new(pool);
    let remote = RemoteRef::new(pool.clone(), b"obj".to_vec(), ops, Endian::Little)
        .with_options(CallOptions::new().with_hedge(HedgePolicy::After(Duration::from_millis(10))));

    // Round-robin parks half the primaries on the 300 ms endpoint; the
    // hedge must cap every call well under that.
    for k in 0..8 {
        let start = Instant::now();
        assert_eq!(remote.invoke("echo", &payload(k)).unwrap(), payload(k));
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(200),
            "call {k} took {elapsed:?} despite hedging"
        );
    }
    let after = pool.metrics().snapshot();
    assert!(after.hedges_fired > 0, "hedges fired");
    assert!(after.hedges_won > 0, "a hedge won the race");
    slow.shutdown();
    fast.shutdown();
}

#[test]
fn hedges_do_not_fire_on_an_empty_retry_budget() {
    // With the pool's retry budget drained, hedge timers that expire
    // must NOT launch a second attempt — the call rides out its slow
    // primary instead of amplifying load on a struggling cluster.
    let (slow_d, ops) = echo_service(Duration::from_millis(60));
    let (fast_d, _) = echo_service(Duration::ZERO);
    let mut slow = TcpServer::bind("127.0.0.1:0", slow_d).unwrap();
    let mut fast = TcpServer::bind("127.0.0.1:0", fast_d).unwrap();

    let budget = Arc::new(RetryBudget::new(0, 16));
    let pool = ConnectionPool::builder(vec![slow.addr(), fast.addr()])
        .with_slots(1)
        .with_retry_budget(budget.clone())
        .build()
        .unwrap();
    let pool = Arc::new(pool);
    let remote = RemoteRef::new(pool.clone(), b"obj".to_vec(), ops, Endian::Little)
        .with_options(CallOptions::new().with_hedge(HedgePolicy::After(Duration::from_millis(5))));

    // Six calls keep the 0.1-token-per-success deposits safely below a
    // whole token, so the bucket stays unspendable throughout.
    for k in 0..6 {
        assert_eq!(remote.invoke("echo", &payload(k)).unwrap(), payload(k));
    }
    let after = pool.metrics().snapshot();
    assert_eq!(
        after.hedges_fired, 0,
        "no hedge may fire on an empty budget"
    );
    assert!(
        after.retry_budget_exhausted > 0,
        "expired hedge timers were refused by the budget"
    );
    assert_eq!(budget.balance(), 0);
    slow.shutdown();
    fast.shutdown();
}

#[test]
fn a_losing_hedge_refunds_its_budget_token() {
    // A hedge that fires but loses the race consumed no capacity worth
    // charging for: its token goes back, so a trickle of slow primaries
    // cannot bleed the budget dry.
    let (primary_d, ops) = echo_service(Duration::from_millis(40));
    let (hedge_d, _) = echo_service(Duration::from_millis(400));
    let mut primary = TcpServer::bind("127.0.0.1:0", primary_d).unwrap();
    let mut hedged = TcpServer::bind("127.0.0.1:0", hedge_d).unwrap();

    let budget = Arc::new(RetryBudget::new(1, 16));
    // Round-robin sends the first primary to the 40 ms endpoint; the
    // hedge lands on the 400 ms one and is guaranteed to lose.
    let pool = ConnectionPool::builder(vec![primary.addr(), hedged.addr()])
        .with_slots(1)
        .with_retry_budget(budget.clone())
        .build()
        .unwrap();
    let pool = Arc::new(pool);
    let remote = RemoteRef::new(pool.clone(), b"obj".to_vec(), ops, Endian::Little)
        .with_options(CallOptions::new().with_hedge(HedgePolicy::After(Duration::from_millis(5))));

    assert_eq!(remote.invoke("echo", &payload(7)).unwrap(), payload(7));
    let after = pool.metrics().snapshot();
    assert_eq!(after.hedges_fired, 1, "the hedge fired");
    assert_eq!(after.hedges_won, 0, "the primary won the race");
    assert_eq!(after.retry_budget_exhausted, 0);
    assert_eq!(
        budget.balance(),
        1,
        "the losing hedge returned its withdrawn token"
    );
    primary.shutdown();
    hedged.shutdown();
}
