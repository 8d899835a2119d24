//! CORBA interoperation (paper §2, Figs. 3–4) and a real remote call.
//!
//! One declaration may be CORBA IDL, "enabling interoperation with
//! remote IDL-based non-Mockingbird components while still conferring
//! the benefits of Mockingbird locally" (§1). This example:
//!
//! 1. parses both Fig. 3 IDL interfaces (CFriendly and JavaFriendly);
//! 2. shows the *imposed* Java types a traditional IDL compiler emits
//!    (Fig. 4) and what an X2Y tool would impose;
//! 3. proves the native C `fitter` and the native `JavaIdeal` both match
//!    the IDL interface via Mtypes;
//! 4. runs a remote invocation over TCP with GIOP framing and CDR
//!    marshalling: a Java-declared client calls a C-declared server.
//!
//! Run with: `cargo run --example corba_interop`

use std::collections::HashMap;
use std::sync::Arc;

use mockingbird::baselines::{c_to_java, generate_java};
use mockingbird::runtime::{RemoteRef, Servant, TcpServer};
use mockingbird::stubgen::RemoteStub;
use mockingbird::values::{Endian, MValue};
use mockingbird::{Mode, Session};

const FIG3B_IDL: &str = "
interface CFriendly {
  typedef float Point[2];
  typedef sequence<Point> pointseq;
  void fitter(in pointseq pts, in long count,
              out Point start, out Point end);
};";

const FIG3A_IDL: &str = "
interface JavaFriendly {
  struct Point { float x; float y; };
  struct Line { Point start; Point end; };
  typedef sequence<Point> PointVector;
  Line fitter(in PointVector pts);
};";

const FIG2_C: &str = "typedef float cpoint[2];
void fitter(cpoint pts[], int count, cpoint *start, cpoint *end);";

const JAVA: &str = "
public class Point { private float x; private float y; }
public class Line { private Point start; private Point end; }
public class PointVector extends java.util.Vector;
public interface JavaIdeal { Line fitter(PointVector pts); }";

const SCRIPT: &str = "
annotate fitter.param(pts) length=param(count)
annotate fitter.param(start) direction=out
annotate fitter.param(end) direction=out
annotate Line.field(start) non-null no-alias
annotate Line.field(end) non-null no-alias
annotate PointVector element=Point non-null
annotate JavaIdeal.method(fitter).param(pts) non-null
annotate JavaIdeal.method(fitter).ret non-null
annotate CFriendly.method(fitter).param(pts) length=param(count)";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut s = Session::new();
    s.load_idl(FIG3B_IDL)?;
    s.load_idl(FIG3A_IDL)?;
    s.load_c(FIG2_C)?;
    s.load_java(JAVA)?;
    s.annotate(SCRIPT)?;

    println!("== What a traditional IDL compiler imposes (Fig. 4) ==");
    for (file, src) in generate_java(s.universe(), "JavaFriendly.Point") {
        println!("--- {file} ---\n{src}");
    }
    for (file, src) in generate_java(s.universe(), "CFriendly") {
        println!("--- {file} ---\n{src}");
    }

    println!("== What an X2Y tool imposes ==");
    println!("{}", c_to_java(s.universe(), "fitter").unwrap());

    println!("== Mockingbird instead matches the declarations you already have ==");
    for (left, right) in [
        ("JavaIdeal", "CFriendly"),
        ("fitter", "CFriendly"),
        ("JavaIdeal", "JavaFriendly"),
        ("JavaIdeal", "fitter"),
    ] {
        let plan = s.compare(left, right, Mode::Equivalence)?;
        println!("  {left:<10} ≅ {right:<12} ({} matched pairs)", plan.len());
    }

    // ---- Remote invocation: Java client -> TCP/GIOP/CDR -> C server. ----
    println!("\n== Remote call over TCP (GIOP framing, CDR marshalling) ==");
    // The wire shape is the C declaration (the server's native form).
    let wire_op = s.wire_op("fitter")?;

    // Server: the C fitter as a servant.
    let servant: Arc<dyn Servant> = Arc::new(|_op: &str, args: MValue| {
        let MValue::Record(items) = &args else {
            return Err(mockingbird::runtime::RuntimeError::Conversion(
                "bad args".into(),
            ));
        };
        let MValue::List(pts) = &items[0] else {
            return Err(mockingbird::runtime::RuntimeError::Conversion(
                "bad pts".into(),
            ));
        };
        let first = pts
            .first()
            .cloned()
            .unwrap_or(MValue::Record(vec![MValue::Real(0.0), MValue::Real(0.0)]));
        let last = pts.last().cloned().unwrap_or_else(|| first.clone());
        Ok(MValue::Record(vec![first, last]))
    });
    let node = mockingbird::runtime::Node::new("c-server");
    let mut ops = HashMap::new();
    ops.insert("fitter".to_string(), wire_op.clone());
    node.register_object(b"fitter-service".to_vec(), servant, ops);
    let mut server = TcpServer::bind("127.0.0.1:0", node.dispatcher())?;
    println!("server listening on {}", server.addr());

    // Client: JavaIdeal-declared, adapted by the coercion plan.
    let plan = s.compare("JavaIdeal", "fitter", Mode::Equivalence)?;
    let stub = mockingbird::stubgen::FunctionStub::new(Arc::new(plan))?;
    let conn = Arc::new(mockingbird::runtime::MultiplexedConnection::connect(
        server.addr(),
    )?);
    let mut client_ops = HashMap::new();
    client_ops.insert("fitter".to_string(), wire_op);
    let remote = Arc::new(RemoteRef::new(
        conn,
        b"fitter-service".to_vec(),
        client_ops,
        Endian::Little,
    ));
    let remote_stub = RemoteStub::new(stub, remote, "fitter");

    let pts = MValue::List(vec![
        MValue::Record(vec![MValue::Real(1.0), MValue::Real(2.0)]),
        MValue::Record(vec![MValue::Real(3.0), MValue::Real(4.0)]),
        MValue::Record(vec![MValue::Real(5.0), MValue::Real(6.0)]),
    ]);
    let line = remote_stub.call(&[pts]).map_err(|e| e.to_string())?;
    println!("remote fitter returned (Java shape): {line}");

    server.shutdown();
    Ok(())
}
