//! Failure injection: the runtime and wire layers must fail loudly and
//! cleanly, never hang or corrupt, when peers misbehave.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mockingbird::mtype::{IntRange, MtypeGraph};
use mockingbird::runtime::{
    CallOptions, Connection, ConnectionPool, Dispatcher, MultiplexedConnection, RemoteRef,
    RetryPolicy, RuntimeError, Servant, TcpServer, WireOp, WireServant,
};
use mockingbird::values::{Endian, MValue};
use mockingbird::wire::Message;

fn adder() -> (Arc<Dispatcher>, WireOp) {
    let mut g = MtypeGraph::new();
    let i = g.integer(IntRange::signed_bits(32));
    let rec = g.record(vec![i]);
    let graph = Arc::new(g);
    let op = WireOp::new(graph, rec, rec).idempotent();
    let servant: Arc<dyn Servant> = Arc::new(|_: &str, v: MValue| Ok(v));
    let mut ops = HashMap::new();
    ops.insert("echo".to_string(), op.clone());
    let d = Arc::new(Dispatcher::new());
    d.register(b"obj".to_vec(), WireServant::new(servant, ops));
    (d, op)
}

#[test]
fn garbage_bytes_do_not_kill_the_server() {
    let (d, op) = adder();
    let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();

    // A rogue client sends garbage; its connection dies, the server
    // keeps serving others.
    {
        let mut rogue = TcpStream::connect(server.addr()).unwrap();
        rogue.write_all(b"NOT-A-GIOP-FRAME-AT-ALL").unwrap();
    }

    let conn = MultiplexedConnection::connect(server.addr()).unwrap();
    let mut ops = HashMap::new();
    ops.insert("echo".to_string(), op);
    let remote = RemoteRef::new(Arc::new(conn), b"obj".to_vec(), ops, Endian::Little);
    let out = remote
        .invoke("echo", &MValue::Record(vec![MValue::Int(3)]))
        .unwrap();
    assert_eq!(out, MValue::Record(vec![MValue::Int(3)]));
    server.shutdown();
}

#[test]
fn truncated_frames_are_transport_errors_not_hangs() {
    let (d, op) = adder();
    let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
    let conn = MultiplexedConnection::connect(server.addr()).unwrap();
    // A frame that lies about its size: the server's read_exact fails and
    // the connection closes; the client's next call errors cleanly.
    let mut fake =
        Message::request(1, true, b"obj".to_vec(), "echo", Endian::Little, vec![1, 2]).to_bytes();
    fake[11] = 200; // inflate the declared size
    fake.truncate(fake.len().min(30));
    {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(&fake).unwrap();
        // The server waits for the declared bytes; dropping the socket
        // resolves the read with an error on the server side.
    }
    // Normal clients remain unaffected.
    let mut ops = HashMap::new();
    ops.insert("echo".to_string(), op);
    let remote = RemoteRef::new(Arc::new(conn), b"obj".to_vec(), ops, Endian::Little);
    assert!(remote
        .invoke("echo", &MValue::Record(vec![MValue::Int(1)]))
        .is_ok());
    server.shutdown();
}

#[test]
fn calls_after_shutdown_fail_with_transport_errors() {
    let (d, op) = adder();
    let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
    let conn = Arc::new(MultiplexedConnection::connect(server.addr()).unwrap());
    let mut ops = HashMap::new();
    ops.insert("echo".to_string(), op);
    let remote = RemoteRef::new(conn, b"obj".to_vec(), ops, Endian::Little);
    remote
        .invoke("echo", &MValue::Record(vec![MValue::Int(1)]))
        .unwrap();
    server.shutdown();
    // Shutdown closes every server socket, but the OS may buffer one
    // write, so spin until the failure surfaces.
    let mut failed = false;
    for _ in 0..50 {
        match remote.invoke("echo", &MValue::Record(vec![MValue::Int(1)])) {
            Err(RuntimeError::Transport(_)) | Err(RuntimeError::Protocol(_)) => {
                failed = true;
                break;
            }
            Ok(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            Err(other) => panic!("unexpected error class: {other}"),
        }
    }
    assert!(failed, "calls kept succeeding after the server shut down");
}

#[test]
fn malformed_body_is_a_conversion_error() {
    let (d, op) = adder();
    // A request whose body is valid framing but garbage CDR for the
    // declared Mtype: the dispatcher answers with a system exception.
    let msg = Message::request(7, true, b"obj".to_vec(), "echo", Endian::Little, vec![0xFF]);
    let reply = d.dispatch(&msg).unwrap();
    let mockingbird::wire::MessageKind::Reply { status, .. } = reply.kind else {
        panic!()
    };
    assert_eq!(status, mockingbird::wire::ReplyStatus::SystemException);
    let _ = op;
}

#[test]
fn wrong_value_shape_is_rejected_before_the_wire() {
    let (d, op) = adder();
    let conn = mockingbird::runtime::InMemoryConnection::new(d);
    let mut ops = HashMap::new();
    ops.insert("echo".to_string(), op);
    let remote = RemoteRef::new(Arc::new(conn), b"obj".to_vec(), ops, Endian::Little);
    let err = remote.invoke("echo", &MValue::Int(1)).unwrap_err();
    assert!(matches!(err, RuntimeError::Conversion(_)), "{err}");
}

#[test]
fn stalled_server_costs_one_deadline_not_a_hang() {
    // A server that accepts and reads but never replies: the client's
    // per-call deadline must fire; nothing may hang.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut sink = [0u8; 1024];
        // Swallow whatever arrives until the client hangs up.
        while let Ok(n) = sock.read(&mut sink) {
            if n == 0 {
                break;
            }
        }
    });

    let (_, op) = adder();
    let conn = MultiplexedConnection::connect(addr).unwrap();
    let mut ops = HashMap::new();
    ops.insert("echo".to_string(), op);
    let remote = RemoteRef::new(Arc::new(conn), b"obj".to_vec(), ops, Endian::Little)
        .with_options(CallOptions::new().with_deadline(Duration::from_millis(200)));

    let start = Instant::now();
    let err = remote
        .invoke("echo", &MValue::Record(vec![MValue::Int(1)]))
        .unwrap_err();
    let elapsed = start.elapsed();
    assert!(matches!(err, RuntimeError::Timeout(_)), "{err}");
    assert!(
        elapsed >= Duration::from_millis(150),
        "deadline respected: {elapsed:?}"
    );
    // Under 400 ms: only the reactor's deadline wheel fires that soon.
    // The waiter's local backstop would fail the call no earlier than
    // the deadline plus its 250 ms grace, so a reactor that never wakes
    // for an armed deadline fails this bound.
    assert!(
        elapsed < Duration::from_millis(400),
        "the deadline wheel fired promptly: {elapsed:?}"
    );

    // A second call fails the same way — the connection is still usable
    // for bookkeeping even though the server never answers.
    let err = remote
        .invoke("echo", &MValue::Record(vec![MValue::Int(2)]))
        .unwrap_err();
    assert!(matches!(err, RuntimeError::Timeout(_)), "{err}");

    drop(remote); // closes the socket; the stalled server sees EOF
    stall.join().unwrap();
}

#[test]
fn stalled_server_deadline_is_an_end_to_end_budget() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = stop.clone();
    let stall = std::thread::spawn(move || {
        let mut socks = Vec::new();
        // Keep accepting (retries may reconnect) but never reply.
        listener.set_nonblocking(true).ok();
        while !stop2.load(Ordering::SeqCst) {
            if let Ok((sock, _)) = listener.accept() {
                socks.push(sock);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    });

    let (_, op) = adder(); // echo is declared idempotent
    let pool = ConnectionPool::connect(addr, 1).unwrap();
    let mut ops = HashMap::new();
    ops.insert("echo".to_string(), op);
    let remote = RemoteRef::new(Arc::new(pool), b"obj".to_vec(), ops, Endian::Little).with_options(
        CallOptions::new()
            .with_deadline(Duration::from_millis(100))
            .with_retry(RetryPolicy {
                max_retries: 2,
                initial_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(10),
                jitter: false,
            }),
    );

    let start = Instant::now();
    let err = remote
        .invoke("echo", &MValue::Record(vec![MValue::Int(1)]))
        .unwrap_err();
    let elapsed = start.elapsed();
    // The deadline is an end-to-end budget shared by every attempt:
    // the first attempt consumes it all waiting on the stalled server,
    // and the retry fails fast with DeadlineExpired instead of being
    // granted a fresh 100ms of its own (the old per-attempt semantics
    // would have burned ~300ms here).
    assert!(matches!(err, RuntimeError::DeadlineExpired(_)), "{err}");
    assert!(
        elapsed >= Duration::from_millis(95),
        "the first attempt got the full budget: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(4),
        "still bounded: {elapsed:?}"
    );
    drop(remote);
    stop.store(true, Ordering::SeqCst);
    stall.join().unwrap();
}

/// Sleeps, then forwards the call unchanged: time a request spends
/// upstream of the transport (a pool acquire, a dial, an injected delay).
struct Delayed<C> {
    inner: C,
    delay: Duration,
}

impl<C: Connection> Connection for Delayed<C> {
    fn call(&self, msg: &Message) -> Result<Option<Message>, RuntimeError> {
        self.call_with(msg, &CallOptions::default())
    }

    fn call_with(
        &self,
        msg: &Message,
        options: &CallOptions,
    ) -> Result<Option<Message>, RuntimeError> {
        std::thread::sleep(self.delay);
        self.inner.call_with(msg, options)
    }
}

#[test]
fn a_budget_spent_before_the_transport_never_reaches_the_server() {
    let ran = Arc::new(AtomicUsize::new(0));
    let (d, op) = {
        let ran = ran.clone();
        let (_, op) = adder();
        let servant: Arc<dyn Servant> = Arc::new(move |_: &str, v: MValue| {
            ran.fetch_add(1, Ordering::SeqCst);
            Ok(v)
        });
        let mut ops = HashMap::new();
        ops.insert("echo".to_string(), op.clone());
        let d = Arc::new(Dispatcher::new());
        d.register(b"obj".to_vec(), WireServant::new(servant, ops));
        (d, op)
    };
    let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
    let conn = Delayed {
        inner: MultiplexedConnection::connect(server.addr()).unwrap(),
        delay: Duration::from_millis(40),
    };
    let mut ops = HashMap::new();
    ops.insert("echo".to_string(), op);
    let remote = RemoteRef::new(Arc::new(conn), b"obj".to_vec(), ops, Endian::Little)
        .with_options(CallOptions::new().with_deadline(Duration::from_millis(30)));
    let err = remote
        .invoke("echo", &MValue::Record(vec![MValue::Int(1)]))
        .unwrap_err();
    assert!(matches!(err, RuntimeError::DeadlineExpired(_)), "{err}");
    server.shutdown();
    assert_eq!(
        ran.load(Ordering::SeqCst),
        0,
        "the servant ran after its caller's deadline"
    );
}

#[test]
fn time_spent_before_the_transport_comes_out_of_the_callers_wait() {
    let (_, op) = adder();
    let servant: Arc<dyn Servant> = Arc::new(|_: &str, v: MValue| {
        std::thread::sleep(Duration::from_secs(1));
        Ok(v)
    });
    let mut ops = HashMap::new();
    ops.insert("echo".to_string(), op);
    let d = Arc::new(Dispatcher::new());
    d.register(b"obj".to_vec(), WireServant::new(servant, ops.clone()));
    let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
    let conn = Delayed {
        inner: MultiplexedConnection::connect(server.addr()).unwrap(),
        delay: Duration::from_millis(100),
    };
    let remote = RemoteRef::new(Arc::new(conn), b"obj".to_vec(), ops, Endian::Little)
        .with_options(CallOptions::new().with_deadline(Duration::from_millis(150)));
    let start = Instant::now();
    let err = remote
        .invoke("echo", &MValue::Record(vec![MValue::Int(1)]))
        .unwrap_err();
    let elapsed = start.elapsed();
    assert!(matches!(err, RuntimeError::Timeout(_)), "{err}");
    // The 100 ms upstream delay is part of the 150 ms budget: waiting
    // a full deadline from the write would return after ~250 ms.
    assert!(
        elapsed < Duration::from_millis(200),
        "the wait ended with the budget: {elapsed:?}"
    );
    server.shutdown();
}

#[test]
fn multi_client_stress_correlates_replies_over_one_pool() {
    let (d, op) = adder();
    let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
    let pool = Arc::new(ConnectionPool::connect(server.addr(), 2).unwrap());
    let mut ops = HashMap::new();
    ops.insert("echo".to_string(), op);
    let remote = Arc::new(RemoteRef::new(pool, b"obj".to_vec(), ops, Endian::Little));

    let mismatches = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..8)
        .map(|t: i128| {
            let r = remote.clone();
            let bad = mismatches.clone();
            std::thread::spawn(move || {
                for k in 0..100i128 {
                    let payload = t * 1_000 + k;
                    let out = r
                        .invoke("echo", &MValue::Record(vec![MValue::Int(payload)]))
                        .unwrap();
                    if out != MValue::Record(vec![MValue::Int(payload)]) {
                        bad.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "every reply correlated to its own request"
    );
    server.shutdown();
}

#[test]
fn idempotent_calls_retry_through_transient_failures() {
    // A connection that fails the first two exchanges, then delegates.
    struct Flaky {
        inner: mockingbird::runtime::InMemoryConnection,
        failures_left: AtomicUsize,
    }
    impl Connection for Flaky {
        fn call(&self, msg: &Message) -> Result<Option<Message>, RuntimeError> {
            if self
                .failures_left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                return Err(RuntimeError::Transport("injected failure".into()));
            }
            self.inner.call(msg)
        }
    }

    let (d, op) = adder();
    let flaky = Flaky {
        inner: mockingbird::runtime::InMemoryConnection::new(d),
        failures_left: AtomicUsize::new(2),
    };
    let mut ops = HashMap::new();
    ops.insert("echo".to_string(), op.clone());
    let remote = RemoteRef::new(Arc::new(flaky), b"obj".to_vec(), ops, Endian::Little)
        .with_options(CallOptions::new().with_retry(RetryPolicy {
            max_retries: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter: false,
        }));
    let out = remote
        .invoke("echo", &MValue::Record(vec![MValue::Int(11)]))
        .unwrap();
    assert_eq!(out, MValue::Record(vec![MValue::Int(11)]));
    assert!(
        remote.metrics().snapshot().retries >= 2,
        "both transient failures were retried"
    );

    // The same failure pattern on a *non*-idempotent operation fails
    // immediately: retries are opt-in per operation.
    let (d2, op2) = adder();
    let flaky2 = Flaky {
        inner: mockingbird::runtime::InMemoryConnection::new(d2),
        failures_left: AtomicUsize::new(1),
    };
    let mut nops = HashMap::new();
    let mut not_idempotent = op2;
    not_idempotent.idempotent = false;
    nops.insert("echo".to_string(), not_idempotent);
    let remote2 = RemoteRef::new(Arc::new(flaky2), b"obj".to_vec(), nops, Endian::Little)
        .with_options(CallOptions::new().with_retry(RetryPolicy::retries(3)));
    let err = remote2
        .invoke("echo", &MValue::Record(vec![MValue::Int(1)]))
        .unwrap_err();
    assert!(matches!(err, RuntimeError::Transport(_)), "{err}");
}

#[test]
fn in_memory_connection_round_trips_frames_byte_exactly() {
    let (d, op) = adder();
    let conn = mockingbird::runtime::InMemoryConnection::new(d);
    let body = op
        .encode(
            op.args_ty,
            &MValue::Record(vec![MValue::Int(9)]),
            Endian::Big,
        )
        .unwrap();
    let msg = Message::request(3, true, b"obj".to_vec(), "echo", Endian::Big, body);
    let reply = conn.call(&msg).unwrap().unwrap();
    let out = op.decode(op.result_ty, &reply.body, reply.endian).unwrap();
    assert_eq!(out, MValue::Record(vec![MValue::Int(9)]));
}
