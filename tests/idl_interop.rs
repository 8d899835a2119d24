//! F3–F4: the IDL route (paper §2, Figs. 3–4).
//!
//! Both ways of writing the interface in CORBA IDL must parse, the
//! traditional IDL compiler's *imposed* Java translation must match the
//! paper's Fig. 4, and Mockingbird must prove the native declarations
//! interoperable with either IDL — plus a real remote invocation with
//! GIOP/CDR where the IDL declaration defines the wire.

use std::collections::HashMap;
use std::sync::Arc;

use mockingbird::baselines::{c_to_java, generate_java};
use mockingbird::runtime::{
    Dispatcher, MultiplexedConnection, RemoteRef, RuntimeError, Servant, TcpServer, WireServant,
};
use mockingbird::stubgen::{FunctionStub, RemoteStub};
use mockingbird::values::{Endian, MValue};
use mockingbird::{Mode, Session};

const FIG3A: &str = "
interface JavaFriendly {
  struct Point { float x; float y; };
  struct Line { Point start; Point end; };
  typedef sequence<Point> PointVector;
  Line fitter(in PointVector pts);
};";

const FIG3B: &str = "
interface CFriendly {
  typedef float Point[2];
  typedef sequence<Point> pointseq;
  void fitter(in pointseq pts, in long count,
              out Point start, out Point end);
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

fn full_session() -> Session {
    let mut s = Session::new();
    s.load_idl(FIG3A).unwrap();
    s.load_idl(FIG3B).unwrap();
    s.load_c(FIG2_C).unwrap();
    s.load_java(JAVA).unwrap();
    s.annotate(SCRIPT).unwrap();
    s
}

#[test]
fn f4_imposed_java_matches_the_paper() {
    let s = full_session();
    // Fig. 4 upper half: the imposed final Point class.
    let units = generate_java(s.universe(), "JavaFriendly.Point");
    let (_, point) = &units[0];
    assert!(point.contains("public final class Point {"));
    assert!(point.contains("public float x;"));
    assert!(point.contains("public float y;"));
    // Fig. 4 lower half: the imposed interfaces.
    let (_, iface) = &generate_java(s.universe(), "JavaFriendly")[0];
    assert!(iface.contains("extends org.omg.CORBA.Object"));
    assert!(iface.contains("Line fitter(Point[] pts);"));
    let (_, cface) = &generate_java(s.universe(), "CFriendly")[0];
    assert!(cface.contains("void fitter(float[][] pts"));
    assert!(cface.contains("CFriendlyPackage.PointHolder start"));
    // The X2Y tool's output imposes C shapes the same way (§2).
    let x2y = c_to_java(s.universe(), "fitter").unwrap();
    assert!(x2y.contains("int count"));
}

#[test]
fn every_pairing_of_the_four_declarations_matches() {
    let mut s = full_session();
    let decls = ["JavaIdeal", "fitter", "CFriendly", "JavaFriendly"];
    for (i, left) in decls.iter().enumerate() {
        for right in decls.iter().skip(i) {
            let plan = s
                .compare(left, right, Mode::Equivalence)
                .unwrap_or_else(|e| panic!("{left} vs {right}: {e}"));
            assert!(!plan.is_empty(), "{left} vs {right}");
        }
    }
}

#[test]
fn remote_invocation_with_idl_defined_wire() {
    let mut s = full_session();
    // "If one declaration is an IDL, Mockingbird generates a
    // network-enabled stub obeying the network architecture implied by
    // the IDL" (§1): the wire types come from CFriendly.
    let wire_op = s.wire_op("CFriendly").unwrap();

    // Server: a C-declared implementation behind a CFriendly wire.
    let server_plan = s.compare("CFriendly", "fitter", Mode::Equivalence).unwrap();
    let server_stub = Arc::new(FunctionStub::new(Arc::new(server_plan)).unwrap());
    let servant_stub = server_stub.clone();
    let servant: Arc<dyn Servant> = Arc::new(move |_op: &str, args: MValue| {
        // args arrive in CFriendly wire shape; adapt onto the C function.
        let MValue::Record(items) = &args else {
            return Err(RuntimeError::Conversion("bad args".into()));
        };
        let inputs: Vec<MValue> = items.clone();
        servant_stub
            .call(&inputs, &|cargs| {
                let MValue::Record(items) = cargs else {
                    return Err("bad".into());
                };
                let MValue::List(pts) = &items[0] else {
                    return Err("bad".into());
                };
                Ok(MValue::Record(vec![
                    pts.first().cloned().ok_or("empty")?,
                    pts.last().cloned().ok_or("empty")?,
                ]))
            })
            .map_err(|e| RuntimeError::Application(e.to_string()))
    });
    let dispatcher = Arc::new(Dispatcher::new());
    let mut ops = HashMap::new();
    ops.insert("fitter".to_string(), wire_op.clone());
    dispatcher.register(b"svc".to_vec(), WireServant::new(servant, ops));
    let mut server = TcpServer::bind("127.0.0.1:0", dispatcher).unwrap();

    // Client: JavaIdeal-declared, adapted onto the CFriendly wire.
    let client_plan = s
        .compare("JavaIdeal", "CFriendly", Mode::Equivalence)
        .unwrap();
    let client_stub = FunctionStub::new(Arc::new(client_plan)).unwrap();
    let conn = Arc::new(MultiplexedConnection::connect(server.addr()).unwrap());
    let mut cops = HashMap::new();
    cops.insert("fitter".to_string(), wire_op);
    let remote = Arc::new(RemoteRef::new(conn, b"svc".to_vec(), cops, Endian::Big));
    let stub = RemoteStub::new(client_stub, remote, "fitter");

    let pts = MValue::List(vec![
        MValue::Record(vec![MValue::Real(9.0), MValue::Real(8.0)]),
        MValue::Record(vec![MValue::Real(7.0), MValue::Real(6.0)]),
    ]);
    let out = stub.call(&[pts]).unwrap();
    assert_eq!(
        out,
        MValue::Record(vec![MValue::Record(vec![
            MValue::Record(vec![MValue::Real(9.0), MValue::Real(8.0)]),
            MValue::Record(vec![MValue::Real(7.0), MValue::Real(6.0)]),
        ])]),
        "the Line returns in Java shape through two adapters and the wire"
    );
    server.shutdown();
}

#[test]
fn subtype_interop_one_way() {
    // A JavaIdeal-shaped *message* (not function) against a Dynamic
    // sink: any record is a subtype of Dynamic.
    let mut s = full_session();
    let plan = s.compare("Point", "Point", Mode::Subtype).unwrap();
    assert!(plan
        .convert(&MValue::Record(vec![MValue::Real(1.0), MValue::Real(2.0)]))
        .is_ok());
    assert!(plan
        .convert_back(&MValue::Record(vec![MValue::Real(1.0), MValue::Real(2.0)]))
        .is_err());
}
