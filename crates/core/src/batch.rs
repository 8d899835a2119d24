//! Batch compilation: many declaration pairs, one shared cache.
//!
//! The paper's tool compares one pair per Compare click; real interface
//! migrations (§5's VisualAge corpus) compile *hundreds* of pairs whose
//! Mtypes overlap heavily. [`BatchCompiler`] takes a frozen graph
//! snapshot plus a list of root pairs, deduplicates them, fans the
//! unique work out over worker threads that all share one
//! [`CompareCache`], and reports per-pair outcomes alongside cache
//! effectiveness. A failing pair yields a [`PairOutcome::Mismatch`] in
//! its slot; siblings are unaffected.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mockingbird_comparer::{CacheStats, CompareCache, Comparer, Mismatch, Mode, RuleSet};
use mockingbird_mtype::{MtypeGraph, MtypeId};
use mockingbird_obs::Histogram;
use mockingbird_plan::CoercionPlan;
use mockingbird_wire::{
    FallbackKind, Layouts, ProgramCache, ProgramSource, ProgramStats, WireProgram,
};

/// Knobs for one [`BatchCompiler::compile`] run.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Equivalence or subtype, applied to every pair.
    pub mode: Mode,
    /// Worker threads; `0` picks the host's available parallelism.
    pub jobs: usize,
    /// Whether matched pairs also get a [`CoercionPlan`] derived. Turn
    /// off to measure or run the compare stage alone.
    pub build_plans: bool,
    /// Whether matched pairs (with plans) also get fused
    /// [`WireProgram`]s compiled through the shared [`ProgramCache`].
    /// Requires `build_plans`; pairs the program compiler declines run
    /// interpretively and are cached negatively.
    pub build_programs: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            mode: Mode::Equivalence,
            jobs: 0,
            build_plans: true,
            build_programs: true,
        }
    }
}

/// What happened to one pair.
#[derive(Clone)]
pub enum PairOutcome {
    /// The pair compared successfully.
    Match {
        /// The shared coercion plan (when `build_plans` was on).
        plan: Option<Arc<CoercionPlan>>,
        /// The fused wire program (when `build_programs` was on and the
        /// program compiler supported the pair).
        program: Option<Arc<WireProgram>>,
        /// Why the program compiler declined this pair, when it did
        /// (`None` when a program compiled or programs were off) — the
        /// attribution behind every interpretive fallback.
        fallback: Option<FallbackKind>,
        /// Size of the correspondence backing the match.
        entries: usize,
    },
    /// The pair failed with diagnostics; the rest of the batch is
    /// unaffected.
    Mismatch(Box<Mismatch>),
}

impl PairOutcome {
    /// Whether this outcome is a match.
    pub fn is_match(&self) -> bool {
        matches!(self, PairOutcome::Match { .. })
    }
}

/// One pair's slot in a [`BatchReport`].
#[derive(Clone)]
pub struct PairReport {
    /// Position in the input slice.
    pub index: usize,
    /// Left root as submitted.
    pub left: MtypeId,
    /// Right root as submitted.
    pub right: MtypeId,
    /// When the same `(left, right)` pair appeared earlier in the input,
    /// the index of its first occurrence (this slot shares its outcome).
    pub duplicate_of: Option<usize>,
    /// The verdict.
    pub outcome: PairOutcome,
}

/// Whole-batch accounting.
#[derive(Debug, Clone)]
pub struct BatchStats {
    /// Pairs submitted.
    pub total_pairs: usize,
    /// Pairs actually compiled after exact-pair dedup.
    pub unique_pairs: usize,
    /// Submitted pairs that matched.
    pub matched: usize,
    /// Submitted pairs that mismatched.
    pub mismatched: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Cache counter deltas attributable to this run.
    pub cache: CacheStats,
    /// Program-cache counter deltas attributable to this run.
    pub programs: ProgramStats,
    /// Per-phase timing profile of this run (compare, plan, canonize,
    /// lower), in pipeline order. Phases a run never entered (e.g.
    /// `lower` with programs off) report zero calls.
    pub phases: Vec<PhaseStats>,
}

/// Latency profile of one compile phase across a batch run, distilled
/// from a lock-free [`Histogram`] the workers record into.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Phase name: `compare`, `plan`, `canonize`, or `lower`.
    pub name: &'static str,
    /// Times the phase ran (once per unique pair that reached it).
    pub calls: u64,
    /// Total time spent in the phase, microseconds.
    pub total_us: u64,
    /// Median per-call time, microseconds.
    pub p50_us: u64,
    /// 95th-percentile per-call time, microseconds.
    pub p95_us: u64,
    /// Worst per-call time, microseconds.
    pub max_us: u64,
}

/// Per-phase histograms shared by every worker of one `compile` run.
#[derive(Default)]
struct PhaseTimings {
    compare: Histogram,
    plan: Histogram,
    canonize: Histogram,
    lower: Histogram,
}

impl PhaseTimings {
    fn stats(&self) -> Vec<PhaseStats> {
        [
            ("compare", &self.compare),
            ("plan", &self.plan),
            ("canonize", &self.canonize),
            ("lower", &self.lower),
        ]
        .into_iter()
        .map(|(name, h)| {
            let s = h.snapshot();
            PhaseStats {
                name,
                calls: s.count(),
                total_us: s.sum(),
                p50_us: s.quantile(0.5),
                p95_us: s.quantile(0.95),
                max_us: s.max(),
            }
        })
        .collect()
    }
}

/// Result of one [`BatchCompiler::compile`] call.
pub struct BatchReport {
    /// One slot per submitted pair, in input order.
    pub pairs: Vec<PairReport>,
    /// Whole-batch accounting.
    pub stats: BatchStats,
}

/// A [`PairReport`] with the declaration names the session resolved.
#[derive(Clone)]
pub struct NamedPairReport {
    /// Left declaration name.
    pub left: String,
    /// Right declaration name.
    pub right: String,
    /// As [`PairReport::duplicate_of`].
    pub duplicate_of: Option<usize>,
    /// The verdict.
    pub outcome: PairOutcome,
}

/// A [`BatchReport`] with names attached (the session-level view).
pub struct NamedBatchReport {
    /// One slot per submitted pair, in input order.
    pub pairs: Vec<NamedPairReport>,
    /// Whole-batch accounting.
    pub stats: BatchStats,
}

impl NamedBatchReport {
    /// Zips a graph-level report with the names it was compiled from.
    pub fn from_report(report: BatchReport, names: Vec<(String, String)>) -> Self {
        debug_assert_eq!(report.pairs.len(), names.len());
        let pairs = report
            .pairs
            .into_iter()
            .zip(names)
            .map(|(p, (left, right))| NamedPairReport {
                left,
                right,
                duplicate_of: p.duplicate_of,
                outcome: p.outcome,
            })
            .collect();
        NamedBatchReport {
            pairs,
            stats: report.stats,
        }
    }
}

/// The graph-level batch engine. Works directly on a frozen
/// [`MtypeGraph`] snapshot so callers that lower declarations themselves
/// (benchmarks, the CLI's project mode) need no [`Session`].
///
/// [`Session`]: crate::Session
pub struct BatchCompiler {
    graph: Arc<MtypeGraph>,
    rules: RuleSet,
    cache: Arc<CompareCache>,
    programs: Arc<ProgramCache>,
}

impl BatchCompiler {
    /// A compiler over `graph` with the full rule set and fresh caches.
    pub fn new(graph: Arc<MtypeGraph>) -> Self {
        BatchCompiler {
            graph,
            rules: RuleSet::full(),
            cache: Arc::new(CompareCache::new()),
            programs: Arc::new(ProgramCache::new()),
        }
    }

    /// Replaces the rule set.
    pub fn with_rules(mut self, rules: RuleSet) -> Self {
        self.rules = rules;
        self
    }

    /// Shares an existing cache (e.g. a session's, or one warmed from a
    /// project file) instead of starting cold.
    pub fn with_cache(mut self, cache: Arc<CompareCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Shares an existing program cache (e.g. a session's, or one warmed
    /// from a project file).
    pub fn with_programs(mut self, programs: Arc<ProgramCache>) -> Self {
        self.programs = programs;
        self
    }

    /// The cache this compiler feeds and reads.
    pub fn cache(&self) -> &Arc<CompareCache> {
        &self.cache
    }

    /// The wire-program cache this compiler feeds and reads.
    pub fn programs(&self) -> &Arc<ProgramCache> {
        &self.programs
    }

    /// The frozen graph snapshot.
    pub fn graph(&self) -> &Arc<MtypeGraph> {
        &self.graph
    }

    fn outcome(
        &self,
        cmp: &Comparer<'_, '_>,
        layouts: &mut Layouts<'_>,
        l: MtypeId,
        r: MtypeId,
        opts: &BatchOptions,
        timers: &PhaseTimings,
    ) -> PairOutcome {
        let t = Instant::now();
        let compared = cmp.compare_arc(l, r, opts.mode);
        timers.compare.record_duration(t.elapsed());
        match compared {
            Ok(corr) => {
                let entries = corr.entries.len();
                let plan = opts.build_plans.then(|| {
                    let t = Instant::now();
                    let plan = Arc::new(CoercionPlan::new_shared(
                        self.graph.clone(),
                        self.graph.clone(),
                        corr,
                        self.rules.clone(),
                        opts.mode,
                    ));
                    timers.plan.record_duration(t.elapsed());
                    plan
                });
                let (program, fallback) = match (&plan, opts.build_programs) {
                    (Some(plan), true) => {
                        let t = Instant::now();
                        let key = ProgramSource::Pair {
                            left: (&*self.graph, l),
                            right: (&*self.graph, r),
                            mode: opts.mode,
                            rules_fp: self.rules.fingerprint(),
                            reply_child: None,
                        }
                        .key_in(layouts)
                        .pair;
                        timers.canonize.record_duration(t.elapsed());
                        let t = Instant::now();
                        let program = self
                            .programs
                            .get_or_compile_reasoned(key, || WireProgram::compile(plan));
                        timers.lower.record_duration(t.elapsed());
                        match program {
                            Ok(p) => (Some(p), None),
                            Err(kind) => (None, Some(kind)),
                        }
                    }
                    _ => (None, None),
                };
                PairOutcome::Match {
                    plan,
                    program,
                    fallback,
                    entries,
                }
            }
            Err(m) => PairOutcome::Mismatch(Box::new(m)),
        }
    }

    fn comparer(&self) -> Comparer<'_, '_> {
        Comparer::with_rules(&self.graph, &self.graph, self.rules.clone())
            .with_shared_cache(self.cache.clone())
    }

    /// Compiles every pair, deduplicating exact `(left, right)` repeats
    /// up front (fingerprint-level duplicates collapse in the cache).
    pub fn compile(&self, pairs: &[(MtypeId, MtypeId)], opts: &BatchOptions) -> BatchReport {
        let before = self.cache.stats();
        let programs_before = self.programs.stats();
        let start = Instant::now();

        // Exact-pair dedup: later occurrences borrow the first's outcome.
        let mut first_at: HashMap<(MtypeId, MtypeId), usize> = HashMap::new();
        let mut duplicate_of: Vec<Option<usize>> = Vec::with_capacity(pairs.len());
        let mut unique: Vec<(MtypeId, MtypeId)> = Vec::new();
        // Maps each input index to its slot in `unique`.
        let mut slot_of: Vec<usize> = Vec::with_capacity(pairs.len());
        for (i, &pair) in pairs.iter().enumerate() {
            match first_at.get(&pair) {
                Some(&j) => {
                    duplicate_of.push(Some(j));
                    slot_of.push(slot_of[j]);
                }
                None => {
                    first_at.insert(pair, i);
                    duplicate_of.push(None);
                    slot_of.push(unique.len());
                    unique.push(pair);
                }
            }
        }

        let workers = if opts.jobs > 0 {
            opts.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
        .clamp(1, unique.len().max(1));

        // Lock-free histograms: every worker records phase timings
        // concurrently with no coordination beyond the atomic buckets.
        let timers = PhaseTimings::default();
        let outcomes: Vec<PairOutcome> = if workers == 1 {
            let cmp = self.comparer();
            let mut layouts = Layouts::new(&self.graph);
            unique
                .iter()
                .map(|&(l, r)| self.outcome(&cmp, &mut layouts, l, r, opts, &timers))
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            let slots: Mutex<Vec<Option<PairOutcome>>> = Mutex::new(vec![None; unique.len()]);
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {
                        // One long-lived comparer and layout engine per
                        // worker: their fingerprint memos amortise
                        // across pairs.
                        let cmp = self.comparer();
                        let mut layouts = Layouts::new(&self.graph);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(l, r)) = unique.get(i) else { break };
                            let out = self.outcome(&cmp, &mut layouts, l, r, opts, &timers);
                            slots.lock().expect("batch slots")[i] = Some(out);
                        }
                    });
                }
            });
            slots
                .into_inner()
                .expect("batch slots")
                .into_iter()
                .map(|o| o.expect("every slot filled"))
                .collect()
        };

        let mut matched = 0usize;
        let mut mismatched = 0usize;
        let reports: Vec<PairReport> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(left, right))| {
                let outcome = outcomes[slot_of[i]].clone();
                if outcome.is_match() {
                    matched += 1;
                } else {
                    mismatched += 1;
                }
                PairReport {
                    index: i,
                    left,
                    right,
                    duplicate_of: duplicate_of[i],
                    outcome,
                }
            })
            .collect();

        BatchReport {
            pairs: reports,
            stats: BatchStats {
                total_pairs: pairs.len(),
                unique_pairs: unique.len(),
                matched,
                mismatched,
                workers,
                wall: start.elapsed(),
                cache: self.cache.stats().since(&before),
                programs: self.programs.stats().since(&programs_before),
                phases: timers.stats(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mockingbird_mtype::{IntRange, RealPrecision};

    fn small_graph() -> (Arc<MtypeGraph>, MtypeId, MtypeId, MtypeId) {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let r = g.real(RealPrecision::SINGLE);
        let nested = {
            let inner = g.record(vec![r, i]);
            g.record(vec![i, inner])
        };
        let flat = g.record(vec![i, i, r]);
        let odd = g.record(vec![r, r]);
        (g.snapshot(), nested, flat, odd)
    }

    #[test]
    fn batch_reports_per_pair_and_dedups() {
        let (g, nested, flat, odd) = small_graph();
        let bc = BatchCompiler::new(g);
        let pairs = [(nested, flat), (nested, odd), (nested, flat)];
        let rep = bc.compile(&pairs, &BatchOptions::default());

        assert_eq!(rep.stats.total_pairs, 3);
        assert_eq!(rep.stats.unique_pairs, 2);
        assert_eq!((rep.stats.matched, rep.stats.mismatched), (2, 1));
        assert!(rep.pairs[0].outcome.is_match());
        assert!(!rep.pairs[1].outcome.is_match(), "odd shape must mismatch");
        assert_eq!(rep.pairs[2].duplicate_of, Some(0));
        assert!(rep.pairs[2].outcome.is_match());
        let PairOutcome::Match {
            plan,
            program,
            fallback,
            entries,
        } = &rep.pairs[0].outcome
        else {
            panic!()
        };
        assert!(plan.is_some() && *entries > 0);
        assert!(
            program.is_some(),
            "the nested/flat record pair compiles to a wire program"
        );
        assert_eq!(*fallback, None, "a compiled pair has no fallback reason");
    }

    #[test]
    fn wire_programs_are_cached_across_runs_and_agree_with_plans() {
        use mockingbird_values::{Endian, MValue};
        use mockingbird_wire::{CdrReader, CdrWriter};

        let (g, nested, flat, _) = small_graph();
        let bc = BatchCompiler::new(g.clone());
        let pairs = [(nested, flat)];
        let cold = bc.compile(&pairs, &BatchOptions::default());
        assert_eq!(cold.stats.programs.compiles, 1, "{:?}", cold.stats.programs);
        let warm = bc.compile(&pairs, &BatchOptions::default());
        assert_eq!(warm.stats.programs.compiles, 0);
        assert!(warm.stats.programs.hits >= 1, "{:?}", warm.stats.programs);

        // The cached program is the real data plane: its output matches
        // the interpretive plan byte for byte.
        let PairOutcome::Match {
            plan: Some(plan),
            program: Some(program),
            ..
        } = &warm.pairs[0].outcome
        else {
            panic!("expected a fused match")
        };
        let v = MValue::Record(vec![
            MValue::Int(1),
            MValue::Record(vec![MValue::Real(0.5), MValue::Int(2)]),
        ]);
        let mut fused = CdrWriter::new(Endian::Little);
        program.encode_value(&mut fused, &v).unwrap();
        let converted = plan.convert(&v).unwrap();
        let mut oracle = CdrWriter::new(Endian::Little);
        oracle.put_value(&g, flat, &converted).unwrap();
        let oracle = oracle.into_bytes();
        assert_eq!(fused.into_bytes(), oracle);
        let mut r = CdrReader::new(&oracle, Endian::Little);
        assert_eq!(program.decode_value(&mut r).unwrap(), v);
    }

    #[test]
    fn failing_pair_does_not_poison_cache_or_siblings() {
        let (g, nested, flat, odd) = small_graph();
        let bc = BatchCompiler::new(g);
        let pairs = [(nested, odd), (nested, flat)];
        let cold = bc.compile(&pairs, &BatchOptions::default());
        assert!(!cold.pairs[0].outcome.is_match());
        assert!(cold.pairs[1].outcome.is_match(), "sibling unaffected");

        // A second run over the same pairs must hit the cache and agree.
        let warm = bc.compile(&pairs, &BatchOptions::default());
        assert!(!warm.pairs[0].outcome.is_match());
        assert!(warm.pairs[1].outcome.is_match());
        assert!(warm.stats.cache.hits >= 2, "{:?}", warm.stats.cache);
        assert_eq!(warm.stats.cache.inserts, 0, "no re-proofs when warm");
    }

    #[test]
    fn phase_timings_cover_the_pipeline() {
        let (g, nested, flat, odd) = small_graph();
        let bc = BatchCompiler::new(g);
        let pairs = [(nested, flat), (nested, odd)];
        let rep = bc.compile(&pairs, &BatchOptions::default());
        let phase = |name: &str| {
            rep.stats
                .phases
                .iter()
                .find(|p| p.name == name)
                .unwrap()
                .clone()
        };
        // Every unique pair is compared; only the matching one goes on
        // to plan, canonize, and lower.
        assert_eq!(phase("compare").calls, 2);
        assert_eq!(phase("plan").calls, 1);
        assert_eq!(phase("canonize").calls, 1);
        assert_eq!(phase("lower").calls, 1);
        for p in &rep.stats.phases {
            assert!(p.p50_us <= p.p95_us && p.p95_us <= p.max_us, "{p:?}");
            assert!(p.total_us >= p.max_us.min(p.total_us), "{p:?}");
        }

        // With plans (and thus programs) off, the later phases never run.
        let rep = bc.compile(
            &pairs,
            &BatchOptions {
                build_plans: false,
                build_programs: false,
                ..BatchOptions::default()
            },
        );
        assert_eq!(rep.stats.phases.iter().map(|p| p.calls).sum::<u64>(), 2);
    }

    #[test]
    fn explicit_jobs_fan_out() {
        let (g, nested, flat, odd) = small_graph();
        let bc = BatchCompiler::new(g);
        let pairs = [(nested, flat), (nested, odd), (flat, odd), (flat, flat)];
        let rep = bc.compile(
            &pairs,
            &BatchOptions {
                jobs: 3,
                ..BatchOptions::default()
            },
        );
        assert_eq!(rep.stats.workers, 3);
        assert_eq!(rep.pairs.len(), 4);
        assert!(rep.pairs[3].outcome.is_match(), "reflexive pair matches");
    }

    #[test]
    fn the_section_5_miniature_compiles_with_default_options() {
        // The paper's 12-class VisualAge miniature, after its batch
        // script, through the whole compile: every pair matches and
        // every pair gets a wire program. Every class root reaches the
        // whole inter-related class graph, whose rendering runs to
        // gigabytes, so no key may be derived from it.
        use mockingbird_stype::lower::Lowerer;
        use mockingbird_stype::script::apply_script;
        let mut pair = mockingbird_corpus::visualage(12, 42);
        apply_script(&mut pair.java, &pair.script).unwrap();
        let mut g = MtypeGraph::new();
        let mut pairs = Vec::new();
        for name in &pair.class_names {
            let cxx = Lowerer::new(&pair.cxx, &mut g).lower_named(name).unwrap();
            let java = Lowerer::new(&pair.java, &mut g).lower_named(name).unwrap();
            pairs.push((cxx, java));
        }
        let report = BatchCompiler::new(Arc::new(g)).compile(&pairs, &BatchOptions::default());
        assert_eq!(report.stats.matched, 12);
        let programs = report
            .pairs
            .iter()
            .filter(|p| {
                matches!(
                    p.outcome,
                    PairOutcome::Match {
                        program: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(programs, 12);
        assert_eq!(report.stats.programs.unsupported, 0);
    }
}
