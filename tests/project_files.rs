//! F6: the tool anatomy (paper Fig. 6) — project files and the
//! annotate/compare loop.
//!
//! "Mockingbird can parse C/C++ declarations, Java class files, CORBA
//! IDL, or project files (representing a previously saved session with
//! the tool). ... At any point, the programmer can save the current
//! state of the parsed and annotated declarations in a project file for
//! later use."

use mockingbird::artifact::{ArtifactKind, ArtifactStore, MemoryStore, StoreKey};
use mockingbird::stype::json::Json;
use mockingbird::wire::WireProgram;
use mockingbird::{BatchOptions, Mode, Session};

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("mockingbird-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn all_four_input_kinds_coexist_in_one_session() {
    let mut s = Session::new();
    s.load_c("typedef float point[2];").unwrap();
    s.load_java("public class Point { private float x; private float y; }")
        .unwrap();
    s.load_idl("struct IdlPoint { float x; float y; };")
        .unwrap();
    // Java class files are the fourth kind.
    let blob = mockingbird::lang_java::ClassSpec::new("BinPoint")
        .field("x", "F")
        .field("y", "F")
        .write();
    s.load_java_classes(&[blob]).unwrap();
    // All four spellings of a point are mutually equivalent.
    let mut pairs = 0;
    for (l, r) in [
        ("point", "Point"),
        ("point", "IdlPoint"),
        ("point", "BinPoint"),
        ("Point", "IdlPoint"),
        ("Point", "BinPoint"),
        ("IdlPoint", "BinPoint"),
    ] {
        assert!(s.compare(l, r, Mode::Equivalence).is_ok(), "{l} vs {r}");
        pairs += 1;
    }
    assert_eq!(pairs, 6);
}

#[test]
fn saved_session_resumes_where_it_left_off() {
    let path = scratch("resume.mbproj.json");
    {
        let mut s = Session::new();
        s.load_c("typedef float point[2];\nvoid draw(point *p, int n);")
            .unwrap();
        s.load_java("public class Canvas { private int width; private int height; }")
            .unwrap();
        // Half-finished annotation state.
        s.annotate("annotate draw.param(p) length=param(n)")
            .unwrap();
        s.save_project("wip", &path).unwrap();
    }
    let mut s = Session::load_project(&path).unwrap();
    // The annotation survived; the remaining work continues.
    let shown = s.display_mtype("draw").unwrap();
    assert!(
        shown.contains("Rec#L("),
        "length annotation survived: {shown}"
    );
    s.annotate("annotate Canvas.field(width) range=0..4096")
        .unwrap();
    let canvas = s.display_mtype("Canvas").unwrap();
    assert!(canvas.contains("Int{0..=4096}"), "{canvas}");
    std::fs::remove_file(path).ok();
}

#[test]
fn project_files_are_versioned_json() {
    let path = scratch("versioned.mbproj.json");
    let mut s = Session::new();
    s.load_c("typedef int handle;").unwrap();
    s.save_project("v", &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"version\": 1"));
    assert!(text.contains("\"handle\""));
    // Corrupt the version: load must fail cleanly.
    let bad = text.replace("\"version\": 1", "\"version\": 42");
    std::fs::write(&path, bad).unwrap();
    assert!(Session::load_project(&path).is_err());
    std::fs::remove_file(path).ok();
}

/// A project file holds declarations only. A file that carries the
/// compile-cache sections older writers emitted (`compile_cache` and
/// `wire_programs`) still loads, but neither section reaches the
/// session: a planted mismatch under every verdict key of the fitter
/// pair, and `Point`'s identity program under its program key, decide
/// nothing and serve nothing.
#[test]
fn a_project_file_cannot_plant_a_verdict_or_a_program() {
    let mut warm = mockingbird_bench::fitter_session().unwrap();
    let pair = [("JavaIdeal", "fitter")];
    warm.batch_compile(&pair, &BatchOptions::default()).unwrap();
    let records = MemoryStore::new();
    warm.export_artifacts(&records);
    let point = warm.mtype("Point").unwrap();
    let planted_program = WireProgram::identity(warm.graph(), point)
        .unwrap()
        .to_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect::<String>();

    let key_fields = |key: &StoreKey| {
        [
            ("l", Json::str(format!("{:032x}", key.left_fp))),
            ("r", Json::str(format!("{:032x}", key.right_fp))),
            ("rules", Json::str(format!("{:016x}", key.rules_fp))),
            ("sub", Json::Bool(key.subtype)),
        ]
    };
    let (mut verdicts, mut programs) = (Vec::new(), Vec::new());
    for (key, _) in records.keys() {
        let fields = key_fields(&key).into_iter();
        match key.kind {
            ArtifactKind::Verdict => verdicts.push(Json::obj(fields.chain([
                ("ok", Json::Bool(false)),
                ("reason", Json::str("planted")),
                ("depth", Json::Int(0)),
            ]))),
            ArtifactKind::WireProgram => {
                programs.push(Json::obj(
                    fields.chain([("bytes", Json::str(&planted_program))]),
                ));
            }
            ArtifactKind::NativeStubMeta => {}
        }
    }
    assert!(!verdicts.is_empty(), "the fitter pair has verdict keys");
    assert_eq!(programs.len(), 1, "the fitter pair has one program key");

    let path = scratch("planted.mbproj.json");
    mockingbird_bench::fitter_session()
        .unwrap()
        .save_project("planted", &path)
        .unwrap();
    let mut file = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let Json::Object(top) = &mut file else {
        panic!("a project file is a JSON object")
    };
    top.insert(
        stringify!(compile_cache).into(),
        Json::obj([("verdicts", Json::Array(verdicts))]),
    );
    top.insert(
        stringify!(wire_programs).into(),
        Json::obj([("programs", Json::Array(programs))]),
    );
    std::fs::write(&path, file.pretty()).unwrap();

    let mut s = Session::load_project(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let plan = s.compare("JavaIdeal", "fitter", Mode::Equivalence);
    assert!(plan.is_ok(), "{}", plan.unwrap_err());
    let report = s.batch_compile(&pair, &BatchOptions::default()).unwrap();
    assert!(report.pairs[0].outcome.is_match());
    let stats = s.program_stats();
    assert_eq!((stats.compiles, stats.hits), (1, 0), "{stats:?}");
}

#[test]
fn iterative_annotate_compare_loop_converges() {
    // The Fig. 6 loop: compare, read the diagnostics, annotate, repeat.
    let mut s = Session::new();
    s.load_c("typedef float vec3[3];\nstruct CBody { vec3 pos; vec3 vel; unsigned int id; };")
        .unwrap();
    s.load_java(
        "public class JBody {
           private int id;
           private float[] pos;
           private float[] vel;
         }",
    )
    .unwrap();
    // Round 1: Java arrays are indefinite, C arrays fixed; id signs differ.
    let e1 = s.compare("JBody", "CBody", Mode::Equivalence).unwrap_err();
    assert!(e1.to_string().contains("types do not match"));
    // Round 2: fix the arrays.
    s.annotate(
        "annotate JBody.field(pos) length=static(3)
         annotate JBody.field(vel) length=static(3)",
    )
    .unwrap();
    let e2 = s.compare("JBody", "CBody", Mode::Equivalence).unwrap_err();
    assert!(e2.to_string().contains("types do not match"));
    // Round 3: reconcile the integer ranges (paper §3.1's annotation).
    s.annotate(
        "annotate JBody.field(id) range=0..2147483647
         annotate CBody.field(id) range=0..2147483647",
    )
    .unwrap();
    assert!(s.compare("JBody", "CBody", Mode::Equivalence).is_ok());
}

#[test]
fn dot_export_for_the_mtype_diagram_pane() {
    let mut s = Session::new();
    s.load_java("public class Node { private int v; private Node next; }")
        .unwrap();
    let dot = s.dot("Node").unwrap();
    assert!(dot.starts_with("digraph Node {"));
    assert!(dot.contains("Recursive"));
}
