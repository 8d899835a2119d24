//! The collaboration framework study (paper §5, E3): messaging stubs.
//!
//! "Our colleagues declared the 21 message types they needed as Java
//! classes ... Mockingbird generated custom 'send' and 'receive' stubs
//! for these messages ... This project illustrates that Mockingbird is
//! useful even for distributed programming within a single language,
//! and that it supports messaging as well as remote invocation
//! gracefully."
//!
//! Two "sites" exchange collaboration messages over TCP as oneway GIOP
//! requests; each message type's Mtype drives its CDR encoding.
//!
//! Run with: `cargo run --example collaboration`

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mockingbird::corpus::collab::{collaboration, MESSAGE_TYPES};
use mockingbird::runtime::{Node, RemoteRef, TcpServer, WireOp};
use mockingbird::stubgen::MessagingStubs;
use mockingbird::values::{Endian, MValue};
use mockingbird::Session;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Load the 21 message types + 22 application classes.
    let corpus = collaboration();
    let mut session = Session::new();
    for decl in corpus.java.iter() {
        session.universe_mut().insert(decl.clone()).unwrap();
    }
    session.annotate(&corpus.script)?;
    println!(
        "loaded {} declarations ({} message types)",
        session.universe().len(),
        MESSAGE_TYPES.len()
    );

    // Wire types: each message type's Mtype, shared by both sites.
    let mut msg_ops: HashMap<String, WireOp> = HashMap::new();
    for m in MESSAGE_TYPES {
        let ty = session.mtype(m)?;
        msg_ops.insert(
            m.to_string(),
            // result_ty is unused for oneway messages.
            WireOp::new(Arc::new(session.graph().clone()), ty, ty),
        );
    }

    // Site B: receives messages.
    let received: Arc<Mutex<Vec<(String, MValue)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handlers: HashMap<String, Arc<dyn Fn(MValue) + Send + Sync>> = HashMap::new();
    for m in MESSAGE_TYPES {
        let sink = received.clone();
        let name = m.to_string();
        handlers.insert(
            m.to_string(),
            Arc::new(move |v: MValue| sink.lock().unwrap().push((name.clone(), v))),
        );
    }
    let site_b = Node::new("site-b");
    site_b.register_object(
        b"collab".to_vec(),
        MessagingStubs::receive_servant(handlers),
        msg_ops.clone(),
    );
    let mut server = TcpServer::bind("127.0.0.1:0", site_b.dispatcher())?;
    println!("site B listening on {}", server.addr());

    // Site A: sends a burst of updates.
    let conn = Arc::new(mockingbird::runtime::MultiplexedConnection::connect(
        server.addr(),
    )?);
    let remote = RemoteRef::new(conn, b"collab".to_vec(), msg_ops, Endian::Little);

    // Message payloads are sampled straight from each message type's
    // Mtype — the declared Java classes fully determine the shape.
    use mockingbird::corpus::sample_value;
    use mockingbird_rng::StdRng;
    let mut rng = StdRng::seed_from_u64(2026);

    let join_ty = session.mtype("JoinSession")?;
    let join = sample_value(session.graph(), join_ty, &mut rng, 3);
    remote.send("JoinSession", &join)?;

    let cursor_ty = session.mtype("CursorMoved")?;
    let cursor = sample_value(session.graph(), cursor_ty, &mut rng, 3);
    for _ in 0..10 {
        remote.send("CursorMoved", &cursor)?;
    }

    let leave_ty = session.mtype("LeaveSession")?;
    let leave = sample_value(session.graph(), leave_ty, &mut rng, 3);
    remote.send("LeaveSession", &leave)?;

    // Oneway sends race the assertions; wait for delivery.
    for _ in 0..100 {
        if received.lock().unwrap().len() >= 12 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let log = received.lock().unwrap();
    println!("\nsite B received {} messages:", log.len());
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for (name, _) in log.iter() {
        *counts.entry(name.as_str()).or_default() += 1;
    }
    let mut counts: Vec<_> = counts.into_iter().collect();
    counts.sort();
    for (name, n) in counts {
        println!("  {name:<16} × {n}");
    }
    assert_eq!(log.len(), 12);
    println!("\nreplicated-object updates flowed as declared Java classes — no IDL anywhere.");

    drop(log);
    server.shutdown();
    Ok(())
}
