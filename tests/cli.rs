//! Driving the `mbc` command-line tool end to end (the batch-mode
//! equivalent of the paper's Fig. 7 session).

use std::path::PathBuf;
use std::process::Command;

fn mbc() -> Command {
    // Cargo builds the binary before this test target and names it here.
    Command::new(env!("CARGO_BIN_EXE_mbc"))
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbc-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &std::path::Path, name: &str, content: &str) -> String {
    let p = dir.join(name);
    std::fs::write(&p, content).unwrap();
    p.to_string_lossy().into_owned()
}

fn fitter_files(dir: &std::path::Path) -> (String, String, String) {
    let c = write(
        dir,
        "fitter.c",
        "typedef float point[2];\nvoid fitter(point pts[], int count, point *start, point *end);\n",
    );
    let java = write(
        dir,
        "app.java",
        "public class Point { private float x; private float y; }\n\
         public class Line { private Point start; private Point end; }\n\
         public class PointVector extends java.util.Vector;\n\
         public interface JavaIdeal { Line fitter(PointVector pts); }\n",
    );
    let script = write(
        dir,
        "fitter.mba",
        "annotate fitter.param(pts) length=param(count)\n\
         annotate fitter.param(start) direction=out\n\
         annotate fitter.param(end) direction=out\n\
         annotate Line.field(start) non-null no-alias\n\
         annotate Line.field(end) non-null no-alias\n\
         annotate PointVector element=Point non-null\n\
         annotate JavaIdeal.method(fitter).param(pts) non-null\n\
         annotate JavaIdeal.method(fitter).ret non-null\n",
    );
    (c, java, script)
}

#[test]
fn parse_lists_declarations() {
    let dir = scratch();
    let (c, java, _) = fitter_files(&dir);
    let out = mbc().args(["parse", &c, &java]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "point",
        "fitter",
        "Point",
        "Line",
        "PointVector",
        "JavaIdeal",
    ] {
        assert!(text.contains(name), "{name} missing from:\n{text}");
    }
}

#[test]
fn mtype_prints_the_section_3_4_form() {
    let dir = scratch();
    let (c, _java, script) = fitter_files(&dir);
    let out = mbc()
        .args(["mtype", &c, "--of", "fitter", "--script", &script])
        .output()
        .unwrap();
    // The script mentions Java names the C-only session lacks: expect a
    // clean failure with a selector diagnostic.
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown declaration"), "{err}");

    // With both files the Mtype prints.
    let (c, java, script) = fitter_files(&dir);
    let out = mbc()
        .args(["mtype", &c, &java, "--of", "fitter", "--script", &script])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("port(Record(Rec#L("), "{text}");
}

#[test]
fn compare_match_and_mismatch() {
    let dir = scratch();
    let (c, java, script) = fitter_files(&dir);
    let out = mbc()
        .args([
            "compare",
            &c,
            &java,
            "--left",
            "JavaIdeal",
            "--right",
            "fitter",
            "--script",
            &script,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("MATCH (two-way)"));

    // Without the script: NO MATCH, nonzero exit, diagnostics on stderr.
    let out = mbc()
        .args([
            "compare",
            &c,
            &java,
            "--left",
            "JavaIdeal",
            "--right",
            "fitter",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("types do not match"));
}

#[test]
fn emit_produces_stub_sources() {
    let dir = scratch();
    let (c, java, script) = fitter_files(&dir);
    let out = mbc()
        .args([
            "emit",
            &c,
            &java,
            "--left",
            "JavaIdeal",
            "--right",
            "fitter",
            "--script",
            &script,
            "--name",
            "fitter",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fitter_stub"));
    assert!(text.contains("JNIEXPORT"));
    assert!(text.contains("pub fn fitter"));
}

#[test]
fn save_then_reload_project() {
    let dir = scratch();
    let (c, java, script) = fitter_files(&dir);
    let proj = dir
        .join("session.mbproj.json")
        .to_string_lossy()
        .into_owned();
    let out = mbc()
        .args([
            "save", &c, &java, "--script", &script, "--name", "fitter", "--out", &proj,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Compare straight from the project file: annotations persisted.
    let out = mbc()
        .args(["compare", &proj, "--left", "JavaIdeal", "--right", "fitter"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_usage_is_reported() {
    let out = mbc().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let out = mbc().args(["compare"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no input files"));
    let dir = scratch();
    let f = write(&dir, "x.unknown", "zzz");
    let out = mbc().args(["parse", &f]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown file kind"));
}

#[test]
fn mbc_store_flag_warms_the_next_run() {
    let dir = scratch();
    let (c, java, script) = fitter_files(&dir);
    let pairs = write(&dir, "pairs.txt", "JavaIdeal fitter\n");
    let store_dir = dir.join("store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = store_dir.to_string_lossy().into_owned();
    let batch = || {
        mbc()
            .args([
                "batch", &c, &java, "--script", &script, "--pairs", &pairs, "--store", &store,
            ])
            .output()
            .unwrap()
    };

    // First run: cold, commits its artifacts to the store.
    let out = batch();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert!(err.contains("store: committed"), "{err}");

    // Second run: a fresh process, warmed entirely from the store.
    let out = batch();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("artifacts restored:"), "{text}");
    assert!(text.contains("MATCH"), "{text}");
    // Nothing new to persist: no second commit message.
    assert!(!err.contains("store: committed"), "{err}");
    let _ = std::fs::remove_dir_all(&store_dir);
}
