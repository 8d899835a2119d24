//! `compile_api`: the paper's §5 corpus compiled cold, rebuilt from the
//! artifact store the cold compile wrote, and its generated wire
//! programs run.
//!
//! One cycle builds a corpus of its own from the seed, then runs a cold
//! compile (fresh caches; writes the on-disk artifact store) followed
//! by a rebuild (fresh caches warmed from that store, as a second
//! `mbc batch --store` run is). Each compile applies
//! the annotation script, lowers both universes, compiles the API pairs
//! to verdicts and plans, and compiles the message corpus with wire
//! programs on. A call of this workload is one compile request, cold
//! or rebuild. The traced run also runs the generated wire programs of
//! the first cold compile on sampled values, for the marshal layers.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mockingbird::artifact::{ArtifactStore, SegmentStore};
use mockingbird::comparer::{CompareCache, Mode};
use mockingbird::corpus::marshal::MarshalCorpus;
use mockingbird::corpus::{marshal_corpus, sample_value, visualage};
use mockingbird::mtype::canon::{CanonOpts, Canonizer};
use mockingbird::mtype::{MtypeGraph, MtypeId};
use mockingbird::plan::CoercionPlan;
use mockingbird::stype::ast::{Method, SNode, Universe};
use mockingbird::stype::lower::Lowerer;
use mockingbird::stype::script::apply_script;
use mockingbird::values::{Endian, MValue};
use mockingbird::wire::{CdrReader, CdrWriter, ProgramCache, WireProgram};
use mockingbird::{BatchCompiler, BatchOptions, BatchReport, BatchStats, PairOutcome};
use mockingbird_rng::{SliceRandom, StdRng};

use crate::measure::{self, mean, median, ms, quantile, us, WorkDir};
use crate::Outcome;

/// Classes in the API corpus (200 classes, about 1,600 methods).
const CLASSES: usize = 200;
/// Near-miss pairs added to the API pairs.
const NEAR_MISSES: usize = 20;
/// Message types in the marshal corpus.
const MESSAGES: usize = 200;
/// Times each cycle's inputs are built; `setup_s` is the median over
/// the run.
const SETUPS: usize = 3;
/// The cold compile's layers must add back to its wall time within
/// this share.
const LAYER_TOLERANCE: f64 = 0.05;
/// List length of sampled message values.
const LIST_LEN: usize = 6;
/// Length of the slice of generated-code calls after each compile in
/// the traced run, in seconds.
const SLICE_SECONDS: f64 = 0.25;
/// A compile slower than this does not count as goodput.
const COMPILE_LIMIT: Duration = Duration::from_secs(10);

/// API pairs: verdicts and plans only. Wire programs stay off for the
/// API corpus: `wire::nominal_fingerprint` renders the whole display
/// text of the inter-related class graph and exhausts memory (see
/// NOTES.md). Serial jobs keep the phase profile additive.
const API: BatchOptions = BatchOptions {
    mode: Mode::Equivalence,
    jobs: 1,
    build_plans: true,
    build_programs: false,
};

/// Message pairs: verdicts, plans and wire programs.
const MESSAGES_OPTS: BatchOptions = BatchOptions {
    mode: Mode::Equivalence,
    jobs: 1,
    build_plans: true,
    build_programs: true,
};

/// The seeded inputs of one run.
struct Inputs {
    cxx: Universe,
    /// The Java universe before annotation, near-miss copies included.
    java: Universe,
    /// The corpus script plus the lines for the near-miss copies.
    script: String,
    classes: Vec<String>,
    /// `(class index, name of its Java copy with one method removed)`.
    near_misses: Vec<(usize, String)>,
    messages: MarshalCorpus,
}

/// A method's type shape as the comparer sees it: parameter types in
/// any order (records are commutative) and the return type; names do
/// not count.
fn method_shape(m: &Method) -> String {
    let mut params: Vec<String> = m.sig.params.iter().map(|p| format!("{:?}", p.ty)).collect();
    params.sort();
    format!("{params:?} -> {:?}", m.sig.ret)
}

fn build_inputs(seed: u64) -> Inputs {
    let corpus = visualage(CLASSES, seed);
    let mut java = corpus.java;
    let mut script = corpus.script;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6e65_6172_6d69_7373);
    let mut picks: Vec<usize> = (0..corpus.class_names.len()).collect();
    picks.shuffle(&mut rng);
    picks.truncate(NEAR_MISSES);
    picks.sort_unstable();
    let mut near_misses = Vec::with_capacity(picks.len());
    for i in picks {
        let name = &corpus.class_names[i];
        let mut decl = java.get(name).expect("corpus class").clone();
        let SNode::Class { methods, .. } = &mut decl.ty.node else {
            panic!("corpus declarations are classes");
        };
        // Only a method whose shape no sibling shares is missed: a
        // duplicate alternative would collapse into its twin.
        let shapes: Vec<String> = methods.iter().map(method_shape).collect();
        let unique: Vec<usize> = (0..methods.len())
            .filter(|&m| shapes.iter().filter(|s| **s == shapes[m]).count() == 1)
            .collect();
        let Some(&m) = unique.choose(&mut rng) else {
            continue;
        };
        let removed = methods.remove(m).name;
        let copy = format!("{name}NearMiss");
        decl.name = copy.clone();
        java.insert(decl).expect("near-miss names are fresh");
        // The copy gets the original's annotations, minus the removed
        // method's, so the missing method is its only difference.
        let prefix = format!("annotate {name}.");
        let skip = format!("method({removed})");
        let extra: Vec<String> = script
            .lines()
            .filter_map(|l| l.strip_prefix(&prefix))
            .filter(|rest| !rest.starts_with(&skip))
            .map(|rest| format!("annotate {copy}.{rest}\n"))
            .collect();
        script.extend(extra);
        near_misses.push((i, copy));
    }
    Inputs {
        cxx: corpus.cxx,
        java,
        script,
        classes: corpus.class_names,
        near_misses,
        messages: marshal_corpus(MESSAGES, seed),
    }
}

/// What the run keeps of one cold compile or rebuild.
struct Compile {
    wall: Duration,
    annotate: Duration,
    lower: Duration,
    /// Cold: open, write and commit the store. Rebuild: open and load it.
    store_io: Duration,
    /// Records and bytes in the store after a cold compile (0 after a
    /// rebuild).
    records: usize,
    bytes: u64,
    graph_nodes: usize,
    api: BatchStats,
    messages: BatchStats,
}

/// One compile's full output; only the first cycle's is kept past its
/// checks.
struct Compiled {
    summary: Compile,
    api: BatchReport,
    messages: BatchReport,
    graph: Arc<MtypeGraph>,
    roots: Vec<MtypeId>,
}

fn lower_all<'a>(
    uni: &Universe,
    g: &mut MtypeGraph,
    names: impl Iterator<Item = &'a String>,
) -> Vec<MtypeId> {
    let mut lw = Lowerer::new(uni, g);
    names
        .map(|n| lw.lower_named(n).expect("corpus classes lower"))
        .collect()
}

fn compile(inputs: &Inputs, store_dir: &Path, cold: bool) -> Compiled {
    let mut java = inputs.java.clone();
    let start = Instant::now();
    let cache = Arc::new(CompareCache::new());
    let programs = Arc::new(ProgramCache::new());
    let mut store_io = Duration::ZERO;
    let (mut records, mut bytes) = (0, 0);
    if !cold {
        let t = Instant::now();
        let store = SegmentStore::open(store_dir).expect("open the artifact store");
        cache.load_from(&store);
        programs.load_from(&store);
        store_io = t.elapsed();
    }

    let t = Instant::now();
    apply_script(&mut java, &inputs.script).expect("the corpus script applies");
    let annotate = t.elapsed();

    let t = Instant::now();
    let mut g = MtypeGraph::new();
    let cxx = lower_all(&inputs.cxx, &mut g, inputs.classes.iter());
    let copies = inputs.near_misses.iter().map(|(_, copy)| copy);
    let jv = lower_all(&java, &mut g, inputs.classes.iter().chain(copies));
    let graph = g.snapshot();
    let lower = t.elapsed();

    let mut pairs: Vec<(MtypeId, MtypeId)> = cxx.iter().copied().zip(jv.iter().copied()).collect();
    for (k, (i, _)) in inputs.near_misses.iter().enumerate() {
        pairs.push((cxx[*i], jv[inputs.classes.len() + k]));
    }
    let api = BatchCompiler::new(graph.clone())
        .with_cache(cache.clone())
        .with_programs(programs.clone())
        .compile(&pairs, &API);
    let messages = BatchCompiler::new(inputs.messages.graph.clone())
        .with_cache(cache.clone())
        .with_programs(programs.clone())
        .compile(&inputs.messages.pairs, &MESSAGES_OPTS);

    if cold {
        let t = Instant::now();
        let store = SegmentStore::open(store_dir).expect("open the artifact store");
        cache.store_into(&store);
        programs.store_into(&store);
        store.commit().expect("commit the artifact store");
        store_io = t.elapsed();
        records = store.len();
        bytes = dir_bytes(store_dir);
    }
    let roots = cxx.into_iter().chain(jv).collect();
    Compiled {
        summary: Compile {
            wall: start.elapsed(),
            annotate,
            lower,
            store_io,
            records,
            bytes,
            graph_nodes: graph.len(),
            api: api.stats.clone(),
            messages: messages.stats.clone(),
        },
        api,
        messages,
        graph,
        roots,
    }
}

/// Checks every verdict against the generator's ground truth: each
/// class matches its Java twin, each near-miss copy mismatches, and each
/// message matches its isomorphic variant.
fn check_verdicts(c: &Compiled, classes: usize, out: &mut Outcome) -> bool {
    let failed = out.failed;
    for (i, p) in c.api.pairs.iter().enumerate() {
        let want = i < classes;
        out.check(p.outcome.is_match() == want, "API verdict");
    }
    for p in &c.messages.pairs {
        out.check(p.outcome.is_match(), "message verdict");
    }
    out.failed == failed
}

/// Total time of one batch phase (`compare`, `plan`, `canonize`,
/// `lower`), in milliseconds.
fn phase_ms(r: &BatchStats, name: &str) -> f64 {
    r.phases
        .iter()
        .find(|p| p.name == name)
        .map_or(0.0, |p| p.total_us as f64 / 1e3)
}

fn phase_sum_ms(r: &BatchStats) -> f64 {
    r.phases.iter().map(|p| p.total_us as f64 / 1e3).sum()
}

/// One generated-code case: a message program, a sampled value, and
/// the bytes and decoded value the interpretive path gives for it.
struct Case {
    plan: Arc<CoercionPlan>,
    program: Arc<WireProgram>,
    value: MValue,
    oracle: Vec<u8>,
    expect: MValue,
}

fn build_cases(messages: &BatchReport, seed: u64, out: &mut Outcome) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7661_6c75_6573);
    let mut cases = Vec::new();
    for p in &messages.pairs {
        let PairOutcome::Match {
            plan: Some(plan),
            program: Some(program),
            ..
        } = &p.outcome
        else {
            continue;
        };
        if !program.two_way() {
            continue;
        }
        let g = plan.right_graph();
        let value = sample_value(plan.left_graph(), plan.left_root(), &mut rng, LIST_LEN);
        let oracle = plan.convert(&value).ok().and_then(|v| {
            let mut w = CdrWriter::new(Endian::Little);
            w.put_value(g, plan.right_root(), &v).ok()?;
            Some(w.into_bytes())
        });
        let expect = oracle.as_ref().and_then(|bytes| {
            let wire = CdrReader::new(bytes, Endian::Little)
                .get_value(g, plan.right_root())
                .ok()?;
            plan.convert_back(&wire).ok()
        });
        out.check(expect.is_some(), "interpretive oracle");
        if let (Some(oracle), Some(expect)) = (oracle, expect) {
            cases.push(Case {
                plan: plan.clone(),
                program: program.clone(),
                value,
                oracle,
                expect,
            });
        }
    }
    cases
}

/// Calls of the generated code, closed loop on one thread. One call
/// marshals and unmarshals one value of every message pair.
#[derive(Default)]
struct Calls {
    latency_us: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    failed: u64,
}

fn run_calls(cases: &[Case], seconds: f64, split: bool) -> Calls {
    let mut calls = Calls::default();
    let mut buf = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let (mut encode, mut decode) = (Duration::ZERO, Duration::ZERO);
        let mut ok = true;
        for case in cases {
            let t0 = Instant::now();
            let mut w = CdrWriter::from_vec(std::mem::take(&mut buf), Endian::Little);
            let encoded = case.program.encode_value(&mut w, &case.value);
            buf = w.into_bytes();
            let t1 = if split { Instant::now() } else { t0 };
            let decoded = case
                .program
                .decode_value(&mut CdrReader::new(&buf, Endian::Little));
            let t2 = Instant::now();
            encode += t1 - t0;
            decode += t2 - t1;
            ok &= encoded.is_ok() && buf == case.oracle && decoded.as_ref() == Ok(&case.expect);
        }
        calls.latency_us.push(us(encode + decode));
        if split {
            calls.encode_us.push(us(encode));
            calls.decode_us.push(us(decode));
        }
        calls.failed += u64::from(!ok);
    }
    calls
}

/// The generated-code calls of a traced run: untraced and traced
/// windows, pooled.
#[derive(Default)]
struct CallLog {
    plain: Calls,
    split: Calls,
}

impl CallLog {
    /// Runs one slice of calls in alternating untraced and traced
    /// windows; the traced windows time encode and decode apart.
    fn slice(&mut self, cases: &[Case], out: &mut Outcome) {
        for w in 0..4 {
            let calls = run_calls(cases, SLICE_SECONDS / 4.0, w % 2 == 1);
            out.attempted += calls.latency_us.len() as u64;
            out.failed += calls.failed;
            let into = if w % 2 == 1 {
                &mut self.split
            } else {
                &mut self.plain
            };
            into.latency_us.extend(calls.latency_us);
            into.encode_us.extend(calls.encode_us);
            into.decode_us.extend(calls.decode_us);
        }
    }
}

/// Time of the interpretive tier (convert, then encode by Mtype) for
/// the values of one call, in microseconds: the reference for
/// `wire.encode_us`.
fn interpretive_encode_us(cases: &[Case], passes: usize) -> f64 {
    let t = Instant::now();
    for _ in 0..passes {
        for c in cases {
            let converted = c.plan.convert(&c.value).expect("checked when built");
            let mut w = CdrWriter::new(Endian::Little);
            w.put_value(c.plan.right_graph(), c.plan.right_root(), &converted)
                .expect("checked when built");
            std::hint::black_box(w.into_bytes());
        }
    }
    us(t.elapsed()) / passes as f64
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let work = WorkDir::new();
    // Each cycle compiles a corpus of its own, drawn from the run's
    // seed: the cost of a corpus depends on the shape of its class graph,
    // so one corpus per run would make the run's times a property of
    // its seed.
    let mut corpus_seeds = StdRng::seed_from_u64(seed);
    let mut setups = Vec::new();

    // Cycles until the budget is spent, rounded to the nearest whole
    // cycle. Traced runs follow each compile with a slice of
    // generated-code calls.
    let mut colds: Vec<Compile> = Vec::new();
    let mut rebuilds: Vec<Compile> = Vec::new();
    let mut good = 0usize;
    let mut cases = Vec::new();
    let mut log = CallLog::default();
    let mut canon_ms = 0.0;
    let mut cpu = 0.0;
    let start = Instant::now();
    loop {
        let cycle = Instant::now();
        let corpus_seed = corpus_seeds.next_u64();
        let mut inputs = None;
        for _ in 0..SETUPS {
            let t = Instant::now();
            inputs = Some(build_inputs(corpus_seed));
            setups.push(t.elapsed().as_secs_f64());
        }
        let inputs = inputs.expect("at least one setup");
        println!(
            "cycle {}: {} classes, {} near misses, {} message types, corpus seed {corpus_seed}",
            colds.len(),
            inputs.classes.len(),
            inputs.near_misses.len(),
            inputs.messages.pairs.len()
        );
        let cpu0 = measure::cpu_seconds();
        let dir = work.path().join(format!("store-{}", colds.len()));
        let cold = compile(&inputs, &dir, true);
        let cold_ok = check_verdicts(&cold, inputs.classes.len(), &mut out);
        if trace && colds.is_empty() {
            cases = build_cases(&cold.messages, seed, &mut out);
            out.check(!cases.is_empty(), "generated programs to run");
            // The canoniser alone over the cold snapshot's roots.
            let t = Instant::now();
            let mut canon = Canonizer::new(&cold.graph, CanonOpts::full());
            for &root in &cold.roots {
                std::hint::black_box(canon.fingerprint(root));
            }
            canon_ms = ms(t.elapsed());
        }
        if !cases.is_empty() {
            log.slice(&cases, &mut out);
        }
        let rebuild = compile(&inputs, &dir, false);
        let _ = std::fs::remove_dir_all(&dir);
        let rebuild_ok = check_verdicts(&rebuild, inputs.classes.len(), &mut out);
        if !cases.is_empty() {
            log.slice(&cases, &mut out);
        }
        cpu += measure::cpu_seconds() - cpu0;
        println!(
            "cycle {}: cold {:.3} s, rebuild {:.3} s",
            colds.len(),
            cold.summary.wall.as_secs_f64(),
            rebuild.summary.wall.as_secs_f64()
        );
        for (ok, c) in [(cold_ok, &cold), (rebuild_ok, &rebuild)] {
            good += usize::from(ok && c.summary.wall <= COMPILE_LIMIT);
        }
        colds.push(cold.summary);
        rebuilds.push(rebuild.summary);
        let per_cycle = cycle.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + per_cycle / 2.0 > seconds {
            break;
        }
    }
    let walls_us: Vec<f64> = colds.iter().chain(&rebuilds).map(|c| us(c.wall)).collect();

    if !trace {
        // Means, not medians: a run has only about five compiles of each
        // kind, and the host's speed wanders over seconds, so the mean
        // over the run is the steadier figure.
        let walls =
            |v: &[Compile]| mean(&v.iter().map(|c| c.wall.as_secs_f64()).collect::<Vec<_>>());
        let busy = walls_us.iter().sum::<f64>() / 1e6;
        out.set("setup_s", median(&setups));
        out.set("compile_cold_s", walls(&colds));
        out.set("compile_rebuild_s", walls(&rebuilds));
        out.set("call_p50_us", quantile(&walls_us, 0.5));
        out.set("goodput_per_s", good as f64 / busy);
        out.set("cpu_us_per_call", cpu * 1e6 / walls_us.len() as f64);
        return out;
    }
    if cases.is_empty() {
        return out;
    }

    // Traced: per-layer numbers from the cold compiles (means over
    // cycles, so the layers add up), the rebuilds, and the generated
    // code.
    let avg =
        |f: &dyn Fn(&Compile) -> f64, v: &[Compile]| mean(&v.iter().map(f).collect::<Vec<_>>());
    let both =
        |f: &dyn Fn(&BatchStats) -> f64| avg(&|c: &Compile| f(&c.api) + f(&c.messages), &colds);
    let annotate = avg(&|c| ms(c.annotate), &colds);
    let lower = avg(&|c| ms(c.lower), &colds);
    let compare = both(&|r| phase_ms(r, "compare"));
    let plan = both(&|r| phase_ms(r, "plan"));
    let canonize = avg(&|c| phase_ms(&c.messages, "canonize"), &colds);
    let wire_lower = avg(&|c| phase_ms(&c.messages, "lower"), &colds);
    let commit = avg(&|c| ms(c.store_io), &colds);
    let batches = both(&phase_sum_ms);
    let wall = avg(&|c| ms(c.wall), &colds);
    let attributed = annotate + lower + batches + commit;
    let unattributed = (1.0 - attributed / wall).abs();
    out.check(
        unattributed <= LAYER_TOLERANCE,
        "layers add back to the cold compile",
    );
    println!("cold compile: {wall:.1} ms, layers add to {attributed:.1} ms");
    let last = colds.last().expect("at least one cycle");

    let api_compare = |c: &Compile| {
        c.api
            .phases
            .iter()
            .find(|p| p.name == "compare")
            .cloned()
            .expect("every batch has a compare phase")
    };
    let rebuild_hits = rebuilds
        .iter()
        .map(|c| c.api.cache.hits + c.messages.cache.hits)
        .sum::<u64>() as f64;
    let rebuild_misses = rebuilds
        .iter()
        .map(|c| c.api.cache.misses + c.messages.cache.misses)
        .sum::<u64>() as f64;

    let encode = mean(&log.split.encode_us);

    out.set("stype.annotate_ms", annotate);
    out.set("stype.lower_ms", lower);
    out.set("mtype.graph_nodes", last.graph_nodes as f64);
    out.set("mtype.canon_ms", canon_ms);
    out.set("comparer.compare_ms", compare);
    out.set(
        "comparer.pair_p50_us",
        avg(&|c| api_compare(c).p50_us as f64, &colds),
    );
    out.set(
        "comparer.pair_max_ms",
        avg(&|c| api_compare(c).max_us as f64 / 1e3, &colds),
    );
    out.set(
        "comparer.cache_hit_ratio",
        rebuild_hits / (rebuild_hits + rebuild_misses).max(1.0),
    );
    out.set(
        "comparer.cache_misses",
        avg(
            &|c| (c.api.cache.misses + c.messages.cache.misses) as f64,
            &colds,
        ),
    );
    out.set(
        "comparer.corr_hits",
        avg(
            &|c| (c.api.cache.corr_hits + c.messages.cache.corr_hits) as f64,
            &colds,
        ),
    );
    out.set("plan.plan_ms", plan);
    out.set("wire.canonize_ms", canonize);
    out.set("wire.lower_ms", wire_lower);
    out.set("wire.programs", last.messages.programs.compiles as f64);
    out.set("wire.fallbacks", last.messages.programs.unsupported as f64);
    out.set("artifact.commit_ms", commit);
    out.set("artifact.load_ms", avg(&|c| ms(c.store_io), &rebuilds));
    out.set("artifact.records", last.records as f64);
    out.set("artifact.bytes", last.bytes as f64);
    out.set("wire.encode_us", encode);
    out.set("wire.decode_us", mean(&log.split.decode_us));
    out.set("wire.encode_opcode_us", encode);
    out.set("wire.encode_interp_us", interpretive_encode_us(&cases, 20));
    for name in [
        "stubgen.client_self_us",
        "runtime.transport_us",
        "runtime.request_path_us",
        "runtime.dispatch_us",
        "runtime.servant_us",
        "runtime.reply_path_us",
        "runtime.retries",
        "runtime.sheds",
        "runtime.overloads",
        "runtime.native_calls",
        "runtime.native_fallbacks",
        "runtime.pool_reuse_ratio",
        "runtime.bytes_sent_per_call",
        "loadgen.lag_p99_us",
    ] {
        out.set(name, 0.0);
    }
    out.set(
        "trace.overhead_ratio",
        median(&log.split.latency_us) / median(&log.plain.latency_us),
    );
    out.set("tail.call_p90_us", quantile(&walls_us, 0.9));
    out.set("tail.call_p99_us", quantile(&walls_us, 0.99));
    out.set("trace.unattributed_ratio", unattributed);
    out
}
