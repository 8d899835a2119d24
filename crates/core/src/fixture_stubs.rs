//! The native marshal stubs for the seed-pinned fixture corpus — the
//! build-time half of the second Futamura projection.
//!
//! [`emit_fixture_stubs`] compiles the canonical fixtures (the same
//! pairs `report x6`/`x11` and the differential property suite
//! reconstruct) into wire programs and specialises each into
//! straight-line native Rust. The bench crate's build script writes its
//! output into `OUT_DIR`, and `mbc emit-stubs` writes the same text to
//! a file for reading; neither copy is checked in.

use std::sync::Arc;

use mockingbird_comparer::{Comparer, Mode, RuleSet};
use mockingbird_corpus::{
    choice_heavy_pair, deep_list_pair, fitter_pair, marshal_corpus, property_pair,
};
use mockingbird_mtype::{MtypeGraph, MtypeId};
use mockingbird_plan::CoercionPlan;
use mockingbird_stubgen::{emit_native_module, native_keys_for, FnShape, FunctionStub};
use mockingbird_wire::{NativeKey, NativeProgramKind, ProgramSource, WireProgram};

use crate::batch::{BatchCompiler, BatchOptions};

/// One emission of the fixture stubs: the module source and a census
/// of the programs it specialises.
#[derive(Debug, Clone)]
pub struct FixtureStubs {
    /// The complete module: one function family per program plus a
    /// `register_all(&NativeStubRegistry) -> usize`.
    pub source: String,
    /// Programs emitted, before duplicate keys collapse.
    pub programs: usize,
    /// Of those, programs from the 200-class marshal corpus.
    pub corpus_programs: usize,
    /// Of those, the fitter's: the client stub's invocation and result
    /// programs and the server op's two identity programs.
    pub fitter_programs: usize,
    /// Marshal-corpus pairs that matched.
    pub corpus_matched: usize,
    /// Matched marshal-corpus pairs the program compiler declined
    /// (they stay interpretive).
    pub corpus_interpretive: u64,
}

/// Emits the native stub module for the canonical fixture corpus: the
/// marshal corpus (200 classes, seed 42) through [`BatchCompiler`],
/// the 64-seed property stream, the two adversarial pairs, the
/// fitter's invocation and result programs and the identity programs
/// of the fitter's server op. The corpus is seed-pinned, so the emitted
/// functions resolve by nominal fingerprint in every binary that
/// reconstructs the same fixtures, and the output is byte-identical
/// from run to run.
///
/// # Errors
///
/// Returns a description of the first fixture that fails to compile or
/// emit; none does for the pinned seeds.
pub fn emit_fixture_stubs() -> Result<FixtureStubs, String> {
    let mut entries: Vec<(NativeKey, Arc<WireProgram>)> = Vec::new();

    // The X6/X11 marshal corpus: batch-compile the 200 classes and take
    // every program the shared cache holds — its keys are exactly what
    // the benches derive at run time.
    let corpus = marshal_corpus(200, 42);
    let bc = BatchCompiler::new(corpus.graph.clone());
    let report = bc.compile(&corpus.pairs, &BatchOptions::default());
    for (key, prog) in bc.programs().export() {
        entries.push((
            NativeKey {
                pair: key,
                kind: NativeProgramKind::Value,
            },
            prog,
        ));
    }
    let corpus_programs = entries.len();

    // The 64-seed property stream plus the adversarial shapes, each
    // pair across its own two graphs — the layout the differential
    // suite reconstructs.
    let mut fixture_pair = |g: &MtypeGraph, h: &MtypeGraph, ty: MtypeId, var: MtypeId| {
        let Ok(corr) = Comparer::new(g, h).compare(ty, var, Mode::Equivalence) else {
            return;
        };
        let plan = CoercionPlan::new(g, h, corr, RuleSet::full(), Mode::Equivalence);
        // Pairs the program compiler declines stay interpretive.
        let Ok(prog) = WireProgram::compile(&plan) else {
            return;
        };
        let key = ProgramSource::Pair {
            left: (g, ty),
            right: (h, var),
            mode: Mode::Equivalence,
            rules_fp: RuleSet::full().fingerprint(),
            reply_child: None,
        }
        .key();
        entries.push((key, Arc::new(prog)));
    };
    for seed in 0..64u64 {
        let (g, h, ty, var, _) = property_pair(seed);
        fixture_pair(&g, &h, ty, var);
    }
    let (g, h, ty, var) = choice_heavy_pair();
    fixture_pair(&g, &h, ty, var);
    let (g, h, ty, var) = deep_list_pair();
    fixture_pair(&g, &h, ty, var);

    // The fitter's remote data plane: invocation (encode) and result
    // (decode) programs, keyed the way `RemoteStub::new` resolves them.
    let before_fitter = entries.len();
    let mut fg = MtypeGraph::new();
    let (java, cfun) = fitter_pair(&mut fg);
    let corr = Comparer::new(&fg, &fg)
        .compare(java, cfun, Mode::Equivalence)
        .map_err(|e| format!("fitter pair does not match: {e}"))?;
    let plan = Arc::new(CoercionPlan::new(
        &fg,
        &fg,
        corr,
        RuleSet::full(),
        Mode::Equivalence,
    ));
    let stub = FunctionStub::new(plan.clone()).map_err(|e| e.to_string())?;
    let (args_key, result_key) = native_keys_for(&stub);
    let (left, right) = (stub.left_shape(), stub.right_shape());
    let inv = WireProgram::compile_invocation(
        &plan,
        left.invocation,
        right.invocation,
        right.reply_index,
    )
    .map_err(|e| format!("fitter invocation program: {e}"))?;
    let res = WireProgram::compile_pair(&plan, left.output, right.output)
        .map_err(|e| format!("fitter result program: {e}"))?;
    entries.push((args_key, Arc::new(inv)));
    entries.push((result_key, Arc::new(res)));

    // The fitter's server op: the identity programs of its argument and
    // result records, typed as `Session::wire_op` types them and keyed
    // the way `WireOp::new` resolves them.
    let shape = FnShape::of_function(&fg, cfun).map_err(|e| e.to_string())?;
    let server_args = fg.record(shape.inputs.clone());
    for ty in [server_args, shape.output] {
        let prog =
            WireProgram::identity(&fg, ty).map_err(|e| format!("fitter server op program: {e}"))?;
        entries.push((ProgramSource::Identity(&fg, ty).key(), Arc::new(prog)));
    }

    Ok(FixtureStubs {
        source: emit_native_module(&entries).map_err(|e| e.to_string())?,
        programs: entries.len(),
        corpus_programs,
        fitter_programs: entries.len() - before_fitter,
        corpus_matched: report.stats.matched,
        corpus_interpretive: report.stats.programs.unsupported,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The batch stage compiles on parallel workers; no scheduling
    // order may leak into the module every build regenerates.
    #[test]
    fn fixture_stub_emission_is_deterministic() {
        let a = emit_fixture_stubs().expect("fixtures emit");
        let b = emit_fixture_stubs().expect("fixtures emit");
        assert!(a.corpus_programs > 0 && a.programs > a.corpus_programs);
        assert_eq!(a.fitter_programs, 4);
        assert!(a.source == b.source, "two emissions differ");
    }
}
