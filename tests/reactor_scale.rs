//! Connection-lifecycle soak tests for the reactor transport.
//!
//! The reactor's whole point is that connections are table slots, not
//! threads: churning thousands of client connections must leave the
//! process thread count flat and the server's slot table empty. These
//! tests are the regression net for lifecycle leaks — server slots or
//! client threads that outlive their connection — and for the
//! write-stall clock, the one reactor timer no socket event drives.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mockingbird::mtype::{IntRange, MtypeGraph};
use mockingbird::runtime::reactor::WRITE_STALL;
use mockingbird::runtime::{
    Connection, Dispatcher, MultiplexedConnection, RuntimeError, Servant, ServerConfig, TcpServer,
    WireOp, WireServant,
};
use mockingbird::values::{Endian, MValue};
use mockingbird::wire::{CdrWriter, Message, MessageKind, ReplyStatus};

fn echo_dispatcher() -> (
    Arc<Dispatcher>,
    Arc<MtypeGraph>,
    mockingbird::mtype::MtypeId,
) {
    let mut g = MtypeGraph::new();
    let i = g.integer(IntRange::signed_bits(64));
    let rec = g.record(vec![i]);
    let graph = Arc::new(g);
    let servant: Arc<dyn Servant> = Arc::new(|_: &str, v: MValue| Ok(v));
    let mut ops = HashMap::new();
    ops.insert("echo".to_string(), WireOp::new(graph.clone(), rec, rec));
    let d = Arc::new(Dispatcher::new());
    d.register(b"echo".to_vec(), WireServant::new(servant, ops));
    (d, graph, rec)
}

fn echo_call(
    conn: &dyn Connection,
    graph: &MtypeGraph,
    rec: mockingbird::mtype::MtypeId,
    id: u32,
    v: i64,
) -> Result<(), RuntimeError> {
    let mut w = CdrWriter::new(Endian::Little);
    w.put_value(graph, rec, &MValue::Record(vec![MValue::Int(v as i128)]))
        .unwrap();
    let req = Message::request(
        id,
        true,
        b"echo".to_vec(),
        "echo",
        Endian::Little,
        w.into_bytes(),
    );
    let reply = conn.call(&req)?.expect("two-way call has a reply");
    let MessageKind::Reply { status, .. } = reply.kind else {
        panic!("expected a reply frame");
    };
    assert_eq!(status, ReplyStatus::NoException);
    Ok(())
}

/// The process's live thread count, from `/proc/self/status` on Linux.
/// Elsewhere returns `None` and the thread-flatness assertion is
/// skipped (the slot-count assertion still runs everywhere).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
}

#[test]
fn churn_soak_holds_threads_and_slots_flat() {
    let (d, graph, rec) = echo_dispatcher();
    let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
    let addr = server.addr();

    // Warm up: the client reactor thread, the server worker pool, and
    // the lazily-spawned runtime threads all exist after one exchange.
    {
        let conn = MultiplexedConnection::connect(addr).unwrap();
        echo_call(&conn, &graph, rec, 1, 1).unwrap();
    }
    let baseline_threads = thread_count();

    // Churn: open, call, close — 5000 times. Every iteration must
    // fully release its connection on both sides.
    const CHURN: u32 = 5_000;
    let started = Instant::now();
    for k in 0..CHURN {
        let conn = MultiplexedConnection::connect(addr).unwrap();
        echo_call(&conn, &graph, rec, k, i64::from(k)).unwrap();
        drop(conn);
    }
    let elapsed = started.elapsed();
    println!("churned {CHURN} connections in {elapsed:?}");

    // Threads: flat against the post-warmup baseline. The reactor adds
    // zero threads per connection; a small tolerance absorbs unrelated
    // runtime threads coming or going.
    if let (Some(before), Some(after)) = (baseline_threads, thread_count()) {
        assert!(
            after <= before + 4,
            "thread count grew under churn: {before} -> {after}"
        );
    }

    // Slots: the server prunes a connection the moment it sees the
    // close; poll briefly rather than racing the server reactor.
    let mut open = server.open_connections();
    for _ in 0..200 {
        if open == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        open = server.open_connections();
    }
    assert_eq!(open, 0, "server slot table returned to empty after churn");
    server.shutdown();
}

#[test]
fn many_concurrent_connections_on_one_reactor() {
    let (d, graph, rec) = echo_dispatcher();
    let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
    let addr = server.addr();

    // Hold a few hundred connections open at once — all on one client
    // reactor thread and one server reactor thread — and verify every
    // one still does a correct round trip.
    const CONNS: usize = 256;
    let conns: Vec<MultiplexedConnection> = (0..CONNS)
        .map(|_| MultiplexedConnection::connect(addr).unwrap())
        .collect();
    // The server sees every connection as a live slot.
    let mut open = server.open_connections();
    for _ in 0..200 {
        if open >= CONNS {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        open = server.open_connections();
    }
    assert_eq!(open, CONNS, "every connection occupies one slot");

    for (k, conn) in conns.iter().enumerate() {
        echo_call(conn, &graph, rec, k as u32, k as i64).unwrap();
    }

    drop(conns);
    let mut open = server.open_connections();
    for _ in 0..200 {
        if open == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        open = server.open_connections();
    }
    assert_eq!(open, 0, "all slots pruned after the batch close");
    server.shutdown();
}

#[test]
fn write_stall_clock_closes_a_peer_that_stopped_reading() {
    // Echo lists of 64-bit integers: each reply is as large as its
    // request, 64 KiB.
    const REQUESTS: usize = 256;
    const ELEMENTS: usize = 8 * 1024;
    let mut g = MtypeGraph::new();
    let i = g.integer(IntRange::signed_bits(64));
    let list = g.list_of(i);
    let graph = Arc::new(g);
    let servant: Arc<dyn Servant> = Arc::new(|_: &str, v: MValue| Ok(v));
    let mut ops = HashMap::new();
    ops.insert("echo".to_string(), WireOp::new(graph.clone(), list, list));
    let d = Arc::new(Dispatcher::new());
    d.register(b"echo".to_vec(), WireServant::new(servant, ops));
    // Admit every request, so none is shed and the replies total
    // exactly REQUESTS × 64 KiB = 16 MiB: several times what the
    // loopback socket buffers hold, a quarter of the 64 MiB write
    // backlog cap. Only the stall clock can close this connection.
    let config = ServerConfig::default().with_max_queue(REQUESTS);
    let mut server = TcpServer::bind_with("127.0.0.1:0", d, config).unwrap();

    let mut w = CdrWriter::new(Endian::Little);
    let value = MValue::List((0..ELEMENTS).map(|k| MValue::Int(k as i128)).collect());
    w.put_value(&graph, list, &value).unwrap();
    let body = w.into_bytes();
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    for id in 0..REQUESTS as u32 {
        let req = Message::request(
            id,
            true,
            b"echo".to_vec(),
            "echo",
            Endian::Little,
            body.clone(),
        );
        sock.write_all(&req.to_bytes()).unwrap();
    }

    // The client never reads a reply and keeps its socket open. The
    // server read every request, so it holds the connection now; the
    // stall clock must free it WRITE_STALL after the writer's last
    // progress. The margin covers requests still in dispatch when the
    // client stopped, whose replies can make that progress later.
    let stopped = Instant::now();
    let limit = WRITE_STALL + Duration::from_secs(3);
    assert_eq!(server.open_connections(), 1);
    while server.open_connections() > 0 {
        assert!(
            stopped.elapsed() < limit,
            "a peer that stopped reading still holds its slot after {:?}",
            stopped.elapsed()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    println!(
        "stalled connection closed {:?} after the last request",
        stopped.elapsed()
    );
    drop(sock);
    server.shutdown();
}
