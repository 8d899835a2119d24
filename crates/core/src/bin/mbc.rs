//! `mbc` — the Mockingbird stub compiler, as a command-line tool.
//!
//! The paper's prototype was driven through a GUI (Fig. 7); this binary
//! is the batch equivalent, built on the same [`Session`] pipeline:
//!
//! ```text
//! mbc parse <files...>                          list the declarations
//! mbc mtype <files...> --of NAME [--script F]   print a declaration's Mtype
//! mbc dot   <files...> --of NAME [--script F]   Graphviz of the Mtype
//! mbc compare <files...> --left A --right B [--script F] [--subtype]
//! mbc emit  <files...> --left A --right B --script F [--name N]
//! mbc save  <files...> --script F --out P.mbproj.json
//! mbc batch <files...> --pairs F [--jobs N] [--subtype] [--profile] [--out P.mbproj.json] [--store DIR]
//! mbc emit-stubs --out stubs.rs
//! ```
//!
//! `batch` compiles many pairs through one shared, content-addressed
//! verdict cache (see [`BatchCompiler`]); `--pairs` names a file of
//! whitespace-separated `LEFT RIGHT` lines (`#` comments), and `--out`
//! saves the declarations, as `save` does. A project file holds
//! declarations and annotations only; compiled artifacts persist through
//! `--store DIR`, a segment store that warms the session before any
//! command runs and records what the command compiled.
//!
//! `emit-stubs` writes the module of the second Futamura projection
//! that the bench crate's build script compiles: the canonical fixture
//! corpus (the same pairs `report x11` and the differential
//! property suite reconstruct) as wire programs, each specialised into
//! straight-line native Rust. The output is deterministic — running it
//! twice yields byte-identical source.
//!
//! [`BatchCompiler`]: mockingbird::BatchCompiler
//!
//! File kinds are chosen by extension: `.c`/`.h` C, `.cpp`/`.cc`/`.cxx`
//! C++, `.java` Java source, `.class` Java class files, `.idl` CORBA
//! IDL, `.mbproj.json` project files. A project file restores
//! declarations, never compiled artifacts.

use std::process::ExitCode;

use mockingbird::artifact::SegmentStore;
use mockingbird::stubgen::emit::{emit_c_stub, emit_jni_bridge, emit_rust_adapter};
use mockingbird::stype::project::Project;
use mockingbird::{ArtifactImport, BatchOptions, Mode, PairOutcome, Session, SessionError};

fn usage() -> String {
    "usage: mbc <parse|mtype|dot|compare|emit|save|batch> <files...> [options]\n\
     \x20      mbc emit-stubs --out FILE\n\
     options: --of NAME | --left NAME --right NAME | --script FILE |\n\
     \x20        --subtype | --name STUBNAME | --out FILE |\n\
     \x20        --pairs FILE | --jobs N | --profile | --store DIR"
        .to_string()
}

struct Args {
    command: String,
    files: Vec<String>,
    of: Option<String>,
    left: Option<String>,
    right: Option<String>,
    script: Option<String>,
    name: String,
    out: Option<String>,
    subtype: bool,
    pairs: Option<String>,
    jobs: usize,
    profile: bool,
    store: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter().peekable();
    let command = it.next().ok_or_else(usage)?.clone();
    let mut args = Args {
        command,
        files: Vec::new(),
        of: None,
        left: None,
        right: None,
        script: None,
        name: "stub".to_string(),
        out: None,
        subtype: false,
        pairs: None,
        jobs: 0,
        profile: false,
        store: None,
    };
    while let Some(a) = it.next() {
        let mut take = |what: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value\n{}", usage()))
        };
        match a.as_str() {
            "--of" => args.of = Some(take("--of")?),
            "--left" => args.left = Some(take("--left")?),
            "--right" => args.right = Some(take("--right")?),
            "--script" => args.script = Some(take("--script")?),
            "--name" => args.name = take("--name")?,
            "--out" => args.out = Some(take("--out")?),
            "--pairs" => args.pairs = Some(take("--pairs")?),
            "--jobs" => {
                args.jobs = take("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--subtype" => args.subtype = true,
            "--profile" => args.profile = true,
            "--store" => args.store = Some(take("--store")?),
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`\n{}", usage()))
            }
            file => args.files.push(file.to_string()),
        }
    }
    Ok(args)
}

fn load_into(session: &mut Session, path: &str) -> Result<(), String> {
    let fail = |e: SessionError| format!("{path}: {e}");
    if path.ends_with(".class") {
        let blob = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        session.load_java_classes(&[blob]).map_err(fail)?;
        return Ok(());
    }
    if path.ends_with(".mbproj.json") {
        let p = Project::load(path).map_err(|e| format!("{path}: {e}"))?;
        return session.absorb_project(p).map_err(fail);
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".c") || path.ends_with(".h") {
        session.load_c(&text).map_err(fail)?;
    } else if path.ends_with(".cpp") || path.ends_with(".cc") || path.ends_with(".cxx") {
        session.load_cxx(&text).map_err(fail)?;
    } else if path.ends_with(".java") {
        session.load_java(&text).map_err(fail)?;
    } else if path.ends_with(".idl") {
        session.load_idl(&text).map_err(fail)?;
    } else {
        return Err(format!(
            "{path}: unknown file kind (expected .c/.h/.cpp/.java/.class/.idl/.mbproj.json)"
        ));
    }
    Ok(())
}

fn run(args: Args) -> Result<(), String> {
    // `emit-stubs` is fixture-driven — it reconstructs the canonical
    // corpus itself and takes no input declarations.
    if args.command == "emit-stubs" {
        let out = args.out.as_deref().ok_or("emit-stubs needs --out FILE")?;
        return emit_stubs(out);
    }
    let mut session = Session::new();
    if args.files.is_empty() {
        return Err(format!("no input files\n{}", usage()));
    }
    for f in &args.files {
        load_into(&mut session, f)?;
    }
    // A persistent artifact store warms the session before any command
    // runs and captures whatever the command compiled afterwards.
    let mut restored = ArtifactImport::default();
    let store = match &args.store {
        Some(dir) => {
            let s = SegmentStore::open(dir).map_err(|e| format!("{dir}: {e}"))?;
            restored = session.import_artifacts(&s);
            Some(s)
        }
        None => None,
    };
    if let Some(script_path) = &args.script {
        let text =
            std::fs::read_to_string(script_path).map_err(|e| format!("{script_path}: {e}"))?;
        let n = session.annotate(&text).map_err(|e| e.to_string())?;
        eprintln!("applied {n} annotation statements from {script_path}");
    }
    let result = match args.command.as_str() {
        "parse" => {
            for d in session.universe().iter() {
                println!("{:<12} {}", d.lang.to_string(), d.name);
            }
            Ok(())
        }
        "mtype" => {
            let name = args.of.ok_or("mtype needs --of NAME")?;
            println!(
                "{}",
                session.display_mtype(&name).map_err(|e| e.to_string())?
            );
            Ok(())
        }
        "dot" => {
            let name = args.of.ok_or("dot needs --of NAME")?;
            println!("{}", session.dot(&name).map_err(|e| e.to_string())?);
            Ok(())
        }
        "compare" => {
            let left = args.left.ok_or("compare needs --left NAME")?;
            let right = args.right.ok_or("compare needs --right NAME")?;
            let mode = if args.subtype {
                Mode::Subtype
            } else {
                Mode::Equivalence
            };
            match session.compare(&left, &right, mode) {
                Ok(plan) => {
                    println!(
                        "MATCH ({}): {} node pairs",
                        if args.subtype { "one-way" } else { "two-way" },
                        plan.len()
                    );
                    Ok(())
                }
                Err(e) => Err(format!("NO MATCH\n{e}")),
            }
        }
        "emit" => {
            let left = args.left.ok_or("emit needs --left NAME")?;
            let right = args.right.ok_or("emit needs --right NAME")?;
            let stub = session
                .function_stub(&left, &right)
                .map_err(|e| e.to_string())?;
            println!(
                "{}",
                emit_c_stub(&stub, &args.name, &["args"]).map_err(|e| e.to_string())?
            );
            println!(
                "{}",
                emit_jni_bridge(&stub, &left, &args.name, &args.name).map_err(|e| e.to_string())?
            );
            println!(
                "{}",
                emit_rust_adapter(&stub, &args.name, &["args"]).map_err(|e| e.to_string())?
            );
            Ok(())
        }
        "batch" => {
            let pairs_path = args.pairs.ok_or("batch needs --pairs FILE")?;
            let text =
                std::fs::read_to_string(&pairs_path).map_err(|e| format!("{pairs_path}: {e}"))?;
            let mut names: Vec<(String, String)> = Vec::new();
            for (lineno, line) in text.lines().enumerate() {
                let line = line.split('#').next().unwrap_or("").trim();
                if line.is_empty() {
                    continue;
                }
                let mut parts = line.split_whitespace();
                match (parts.next(), parts.next(), parts.next()) {
                    (Some(l), Some(r), None) => names.push((l.to_string(), r.to_string())),
                    _ => {
                        return Err(format!(
                            "{pairs_path}:{}: expected `LEFT RIGHT`, got `{line}`",
                            lineno + 1
                        ))
                    }
                }
            }
            let pairs: Vec<(&str, &str)> = names
                .iter()
                .map(|(l, r)| (l.as_str(), r.as_str()))
                .collect();
            let opts = BatchOptions {
                mode: if args.subtype {
                    Mode::Subtype
                } else {
                    Mode::Equivalence
                },
                jobs: args.jobs,
                // Plans feed the data plane: matched pairs get fused
                // wire programs compiled (and persisted with --store).
                build_plans: true,
                build_programs: true,
            };
            let report = session
                .batch_compile(&pairs, &opts)
                .map_err(|e| e.to_string())?;
            for p in &report.pairs {
                match &p.outcome {
                    PairOutcome::Match {
                        entries,
                        fallback: Some(kind),
                        ..
                    } => println!(
                        "MATCH    {} ~ {} ({entries} node pairs, interpretive: {})",
                        p.left,
                        p.right,
                        kind.label()
                    ),
                    PairOutcome::Match { entries, .. } => {
                        println!("MATCH    {} ~ {} ({entries} node pairs)", p.left, p.right)
                    }
                    PairOutcome::Mismatch(m) => {
                        println!("MISMATCH {} ~ {}: {}", p.left, p.right, m.reason)
                    }
                }
            }
            let s = &report.stats;
            println!(
                "batch: {} pairs ({} unique), {} matched, {} mismatched, \
                 {} workers, {:.1?}",
                s.total_pairs, s.unique_pairs, s.matched, s.mismatched, s.workers, s.wall
            );
            println!(
                "cache: {} hits, {} misses, {} inserts ({} corr hits, {:.0}% hit rate, {} stored)",
                s.cache.hits,
                s.cache.misses,
                s.cache.inserts,
                s.cache.corr_hits,
                s.cache.hit_rate() * 100.0,
                s.cache.verdicts
            );
            println!(
                "programs: {} compiled, {} cache hits, {} interpretive fallbacks",
                s.programs.compiles, s.programs.hits, s.programs.unsupported
            );
            if restored.restored() > 0 || restored.stale > 0 {
                println!("artifacts restored: {restored}");
            }
            let parts: Vec<String> = session
                .wire_programs()
                .fallback_breakdown()
                .into_iter()
                .filter(|&(_, count)| count > 0)
                .map(|(kind, count)| format!("{count} {}", kind.label()))
                .collect();
            if !parts.is_empty() {
                println!("fallback reasons: {}", parts.join(", "));
            }
            if args.profile {
                println!("phase      calls  total_us  p50_us  p95_us  max_us");
                for p in &s.phases {
                    println!(
                        "{:<9} {:>6} {:>9} {:>7} {:>7} {:>7}",
                        p.name, p.calls, p.total_us, p.p50_us, p.p95_us, p.max_us
                    );
                }
            }
            if let Some(out) = &args.out {
                session
                    .save_project(&args.name, out)
                    .map_err(|e| e.to_string())?;
                println!("saved {} declarations to {out}", session.universe().len());
            }
            Ok(())
        }
        "save" => {
            let out = args.out.ok_or("save needs --out FILE")?;
            session
                .save_project(&args.name, &out)
                .map_err(|e| e.to_string())?;
            println!("saved {} declarations to {out}", session.universe().len());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    if let (Some(store), Ok(())) = (&store, &result) {
        session.export_artifacts(store);
        match store.commit() {
            Ok(n) if n > 0 => eprintln!("store: committed {n} new artifacts"),
            Ok(_) => {}
            Err(e) => return Err(format!("store commit failed: {e}")),
        }
    }
    result
}

/// `emit-stubs --out FILE`: writes the native marshal stubs of the
/// seed-pinned fixture corpus (see [`mockingbird::emit_fixture_stubs`]),
/// byte for byte the module the bench crate's build script compiles.
fn emit_stubs(out: &str) -> Result<(), String> {
    let stubs = mockingbird::emit_fixture_stubs()?;
    std::fs::write(out, &stubs.source).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "emitted {} native stub programs ({} corpus, {} fixture, {} fitter; \
         {} of {} corpus pairs interpretive) to {out} ({} bytes)",
        stubs.programs,
        stubs.corpus_programs,
        stubs.programs - stubs.corpus_programs - stubs.fitter_programs,
        stubs.fitter_programs,
        stubs.corpus_interpretive,
        stubs.corpus_matched,
        stubs.source.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
