//! E3: the collaboration framework study (paper §5) over a real wire.
//!
//! 21 message types declared as Java classes, send/receive stubs, and a
//! replicated-object update exchange between two sites over TCP — "it
//! supports messaging as well as remote invocation gracefully".

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mockingbird_rng::StdRng;

use mockingbird::corpus::collab::{collaboration, APP_CLASSES, MESSAGE_TYPES};
use mockingbird::corpus::sample_value;
use mockingbird::runtime::{MultiplexedConnection, Node, RemoteRef, TcpServer, WireOp};
use mockingbird::stubgen::MessagingStubs;
use mockingbird::values::mvalue::typecheck;
use mockingbird::values::{Endian, MValue};
use mockingbird::Session;

fn message_session() -> Session {
    let corpus = collaboration();
    let mut s = Session::new();
    for d in corpus.java.iter() {
        s.universe_mut().insert(d.clone()).unwrap();
    }
    s.annotate(&corpus.script).unwrap();
    s
}

#[test]
fn corpus_shape_matches_the_paper() {
    assert_eq!(MESSAGE_TYPES.len(), 21, "the 21 message types");
    assert_eq!(APP_CLASSES.len(), 22, "the 22 application classes");
}

#[test]
fn every_message_type_round_trips_the_wire() {
    let mut s = message_session();
    let mut rng = StdRng::seed_from_u64(99);
    for m in MESSAGE_TYPES {
        let ty = s.mtype(m).unwrap();
        let v = sample_value(s.graph(), ty, &mut rng, 4);
        typecheck(s.graph(), ty, &v).unwrap();
        for endian in [Endian::Little, Endian::Big] {
            let mut w = mockingbird::wire::CdrWriter::new(endian);
            w.put_value(s.graph(), ty, &v).unwrap();
            let bytes = w.into_bytes();
            let mut r = mockingbird::wire::CdrReader::new(&bytes, endian);
            assert_eq!(r.get_value(s.graph(), ty).unwrap(), v, "{m} via {endian:?}");
        }
        // The self-describing MBP format carries them too.
        let enc = mockingbird::wire::mbp::encode(&v);
        assert_eq!(
            mockingbird::wire::mbp::decode(&enc).unwrap(),
            v,
            "{m} via MBP"
        );
    }
}

#[test]
fn two_sites_exchange_updates_over_tcp() {
    let mut s = message_session();
    let mut ops: HashMap<String, WireOp> = HashMap::new();
    let graph = Arc::new(s.graph().clone());
    // Pre-lower all message types, then share one graph snapshot.
    let mut tys = HashMap::new();
    for m in MESSAGE_TYPES {
        tys.insert(m, s.mtype(m).unwrap());
    }
    let graph = {
        let _ = graph;
        Arc::new(s.graph().clone())
    };
    for m in MESSAGE_TYPES {
        ops.insert(m.to_string(), WireOp::new(graph.clone(), tys[m], tys[m]));
    }

    // Receiving site.
    let received: Arc<Mutex<Vec<(String, MValue)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handlers: HashMap<String, Arc<dyn Fn(MValue) + Send + Sync>> = HashMap::new();
    for m in MESSAGE_TYPES {
        let sink = received.clone();
        let name = m.to_string();
        handlers.insert(
            m.to_string(),
            Arc::new(move |v| sink.lock().unwrap().push((name.clone(), v))),
        );
    }
    let site_b = Node::new("b");
    site_b.register_object(
        b"collab".to_vec(),
        MessagingStubs::receive_servant(handlers),
        ops.clone(),
    );
    let mut server = TcpServer::bind("127.0.0.1:0", site_b.dispatcher()).unwrap();

    // Sending site: one sampled value per message type.
    let conn = Arc::new(MultiplexedConnection::connect(server.addr()).unwrap());
    let remote = RemoteRef::new(conn, b"collab".to_vec(), ops, Endian::Little);
    let mut rng = StdRng::seed_from_u64(7);
    let mut sent = Vec::new();
    for m in MESSAGE_TYPES {
        let v = sample_value(&graph, tys[m], &mut rng, 3);
        remote.send(m, &v).unwrap();
        sent.push((m.to_string(), v));
    }

    // Oneway messages race the assertion; wait for delivery.
    for _ in 0..200 {
        if received.lock().unwrap().len() >= sent.len() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let got = received.lock().unwrap();
    assert_eq!(got.len(), sent.len(), "all 21 messages delivered");
    // TCP preserves order on one connection; payloads survive intact.
    for ((sm, sv), (gm, gv)) in sent.iter().zip(got.iter()) {
        assert_eq!(sm, gm);
        assert_eq!(sv, gv, "{sm} payload survives the wire");
    }
    drop(got);
    server.shutdown();
}

#[test]
fn unknown_message_types_are_refused_by_the_receiver() {
    let s = {
        let mut s = message_session();
        let _ = s.mtype("JoinSession").unwrap();
        s
    };
    let graph = Arc::new(s.graph().clone());
    let mut handlers: HashMap<String, Arc<dyn Fn(MValue) + Send + Sync>> = HashMap::new();
    handlers.insert("JoinSession".to_string(), Arc::new(|_| {}));
    let servant = MessagingStubs::receive_servant(handlers);
    assert!(servant.invoke("NotAMessage", MValue::Unit).is_err());
    let _ = graph;
}
