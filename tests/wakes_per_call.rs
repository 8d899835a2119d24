//! Wakes per call: how often the runtime's own threads go to sleep and
//! are woken again to carry one sequential call over TCP.
//!
//! A voluntary context switch is a thread blocking: every wake the
//! runtime pays for shows up as one. On the server, the poller that
//! reads a request runs it and writes the reply, so a call costs that
//! one thread one wake; on the client, the caller reads its own reply,
//! so the client reactor is not woken at all. The counts come from
//! `/proc/self/task/*/status`, grouped by thread name, so this file
//! holds one test: no other test's traffic may share the process-wide
//! client reactor while it counts.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use mockingbird::mtype::{IntRange, MtypeGraph};
use mockingbird::runtime::{
    Connection, Dispatcher, MultiplexedConnection, Servant, TcpServer, WireOp, WireServant,
};
use mockingbird::values::{Endian, MValue};
use mockingbird::wire::{CdrReader, CdrWriter, Message, MessageKind, ReplyStatus};

/// The prefix of every server thread's name (`mb-srv-poll`,
/// `mb-srv-oneway`, `mb-srv-accept`, `mb-srv-metrics`).
const SERVER_THREADS: &str = "mb-srv-";

/// Voluntary context switches of every live thread of this process,
/// keyed by thread id, with the thread's name.
fn switches() -> HashMap<String, (String, u64)> {
    let mut out = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let dir = task.unwrap().path();
        let (Ok(comm), Ok(status)) = (
            std::fs::read_to_string(dir.join("comm")),
            std::fs::read_to_string(dir.join("status")),
        ) else {
            continue; // the thread exited between the listing and the read
        };
        let voluntary = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|n| n.trim().parse().ok())
            .unwrap();
        let tid = dir.file_name().unwrap().to_string_lossy().into_owned();
        out.insert(tid, (comm.trim().to_string(), voluntary));
    }
    out
}

/// Switches per call over `calls`, summed over the threads whose names
/// `wanted` accepts.
fn per_call(
    before: &HashMap<String, (String, u64)>,
    after: &HashMap<String, (String, u64)>,
    calls: u32,
    wanted: impl Fn(&str) -> bool,
) -> f64 {
    let total: u64 = after
        .iter()
        .filter(|(_, (name, _))| wanted(name))
        .map(|(tid, (_, n))| n - before.get(tid).map_or(0, |(_, b)| *b))
        .sum();
    total as f64 / f64::from(calls)
}

#[test]
fn a_sequential_call_wakes_one_server_thread_and_not_the_client_reactor() {
    let mut g = MtypeGraph::new();
    let i = g.integer(IntRange::signed_bits(64));
    let rec = g.record(vec![i]);
    let graph = Arc::new(g);
    let servant: Arc<dyn Servant> = Arc::new(|_: &str, v: MValue| Ok(v));
    let mut ops = HashMap::new();
    ops.insert("echo".to_string(), WireOp::new(graph.clone(), rec, rec));
    let d = Arc::new(Dispatcher::new());
    d.register(b"echo".to_vec(), WireServant::new(servant, ops));
    let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
    let conn = MultiplexedConnection::connect(server.addr()).unwrap();

    let call = |k: u32| {
        let value = MValue::Record(vec![MValue::Int(k.into())]);
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(&graph, rec, &value).unwrap();
        let req = Message::request(
            k,
            true,
            b"echo".to_vec(),
            "echo",
            Endian::Little,
            w.into_bytes(),
        );
        let reply = conn.call(&req).unwrap().expect("a reply");
        assert_eq!(
            reply.kind,
            MessageKind::Reply {
                request_id: k,
                status: ReplyStatus::NoException
            }
        );
        let mut r = CdrReader::new(&reply.body, reply.endian);
        assert_eq!(r.get_value(&graph, rec).unwrap(), value, "call {k}");
    };

    for k in 0..20 {
        call(k);
    }
    const CALLS: u32 = 300;
    let before = switches();
    for k in 0..CALLS {
        call(k);
        std::thread::sleep(Duration::from_millis(1));
    }
    let after = switches();

    let server_threads = per_call(&before, &after, CALLS, |name| {
        name.starts_with(SERVER_THREADS)
    });
    let reactor = per_call(&before, &after, CALLS, |name| name == "mb-reactor");
    println!("voluntary switches per call: server threads {server_threads:.2}, client reactor {reactor:.2}");
    assert!(
        server_threads <= 1.3,
        "the server's threads woke {server_threads:.2} times per call"
    );
    assert!(
        reactor <= 0.1,
        "the client reactor woke {reactor:.2} times per call"
    );
    server.shutdown();
}
