//! The comparison algorithm: Amadio–Cardelli coinduction plus
//! isomorphism rules.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mockingbird_mtype::canon::{Canonizer, FingerprintMemo, MtypeSummary};
use mockingbird_mtype::{MtypeGraph, MtypeId, MtypeKind};

use crate::cache::{CacheKey, CompareCache, Verdict};
use crate::correspondence::{Correspondence, Entry, PrimCoercion, RecordFlatten};
use crate::diagnose::Mismatch;
use crate::rules::RuleSet;

/// The relation being decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Two-way convertibility: the Mtypes are isomorphic.
    Equivalence,
    /// One-way convertibility: left is a subtype of right.
    Subtype,
}

/// The internal relation, tracking contravariant flips at Ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Rel {
    Eq,
    /// left ≤ right
    Sub,
    /// left ≥ right
    Sup,
}

impl Rel {
    fn flip(self) -> Rel {
        match self {
            Rel::Eq => Rel::Eq,
            Rel::Sub => Rel::Sup,
            Rel::Sup => Rel::Sub,
        }
    }
}

/// No coinductive assumption was used (an unconditional proof).
const NO_DEP: usize = usize::MAX;

/// Proof state that stays valid across `compare()` calls on the same
/// graph pair: proven/disproven pairs, fingerprints, record views.
/// Reusing one [`Comparer`] across many comparisons over a shared
/// declaration corpus (the batch pipelines of §5) amortises the whole
/// corpus proof to roughly linear total work.
#[derive(Default)]
struct Cache {
    /// Unconditionally proven pairs.
    proved: HashSet<(MtypeId, MtypeId, Rel)>,
    /// Structurally disproven pairs. Failures are monotone — extra
    /// coinductive assumptions can only create successes — so a failure
    /// observed under any assumption set holds absolutely.
    disproved: HashSet<(MtypeId, MtypeId, Rel)>,
    /// Per-side filter fingerprints of the ids queried so far.
    lfp: HashMap<MtypeId, u64>,
    rfp: HashMap<MtypeId, u64>,
    /// Per-side `(node, depth)` memos the filter fingerprints share.
    lmemo: FingerprintMemo,
    rmemo: FingerprintMemo,
    lviews: HashMap<MtypeId, std::rc::Rc<Vec<MtypeId>>>,
    rviews: HashMap<MtypeId, std::rc::Rc<Vec<MtypeId>>>,
}

/// Compares Mtypes from a left and a right graph (which may be the same
/// graph) under a [`RuleSet`].
pub struct Comparer<'l, 'r> {
    left: &'l MtypeGraph,
    right: &'r MtypeGraph,
    rules: RuleSet,
    cache: std::cell::RefCell<Cache>,
    /// Pairs the programmer declared semantically interconvertible
    /// (paper §6): the comparer accepts them as axioms and records
    /// [`Entry::Semantic`]; the coercion plan supplies the hand-written
    /// converter.
    semantic_bridges: HashSet<(MtypeId, MtypeId)>,
    /// Cross-comparer verdict/correspondence memo, consulted before any
    /// structural work. `None` keeps the historical one-shot behaviour.
    shared: Option<Arc<CompareCache>>,
    /// Per-side canonical-fingerprint engines backing `shared_key`:
    /// incremental, so keying many roots of one graph shares all common
    /// substructure. Lazily built — comparers without a shared cache
    /// never pay for them.
    lcanon: std::cell::RefCell<Option<Canonizer<'l>>>,
    rcanon: std::cell::RefCell<Option<Canonizer<'r>>>,
}

impl<'l, 'r> Comparer<'l, 'r> {
    /// A comparer with the paper's full rule set.
    pub fn new(left: &'l MtypeGraph, right: &'r MtypeGraph) -> Self {
        Self::with_rules(left, right, RuleSet::full())
    }

    /// A comparer with an explicit rule set (used by the ablation study).
    pub fn with_rules(left: &'l MtypeGraph, right: &'r MtypeGraph, rules: RuleSet) -> Self {
        Comparer {
            left,
            right,
            rules,
            cache: std::cell::RefCell::new(Cache::default()),
            semantic_bridges: HashSet::new(),
            shared: None,
            lcanon: std::cell::RefCell::new(None),
            rcanon: std::cell::RefCell::new(None),
        }
    }

    /// Attaches a shared [`CompareCache`]: verdicts (and, for holders of
    /// the same graph snapshots, correspondences) are looked up by
    /// canonical fingerprint before any structural comparison runs, and
    /// published afterwards. The cache is consulted only while no
    /// semantic bridges are declared — bridged verdicts are not
    /// structural facts and must not leak to comparers without the same
    /// bridges.
    pub fn with_shared_cache(mut self, cache: Arc<CompareCache>) -> Self {
        self.shared = Some(cache);
        self
    }

    /// Declares a semantic bridge: the (resolved) pair is accepted as
    /// matched without structural comparison, on the promise that the
    /// coercion plan will carry a hand-written converter for it
    /// (paper §6: "the programmer wishes to convert between the two
    /// representations ... hand-written conversions which are then
    /// integrated with the automated structural ones").
    pub fn with_semantic_bridge(mut self, left: MtypeId, right: MtypeId) -> Self {
        let l = Ctx::resolve(self.left, &self.rules, left);
        let r = Ctx::resolve(self.right, &self.rules, right);
        self.semantic_bridges.insert((l, r));
        self
    }

    /// Decides whether `lroot` (in the left graph) and `rroot` (in the
    /// right graph) are related under `mode`, returning the
    /// [`Correspondence`] on success.
    ///
    /// # Errors
    ///
    /// Returns a [`Mismatch`] describing the deepest failing
    /// sub-comparison when the types are not related (or when the
    /// comparer's documented incompleteness prevents it from proving
    /// that they are).
    #[allow(clippy::result_large_err)] // Mismatch carries full diagnostics by design
    pub fn compare(
        &self,
        lroot: MtypeId,
        rroot: MtypeId,
        mode: Mode,
    ) -> Result<Correspondence, Mismatch> {
        self.compare_arc(lroot, rroot, mode).map(|c| (*c).clone())
    }

    /// As [`compare`](Comparer::compare), but returning the
    /// [`Correspondence`] behind an `Arc` so shared-cache hits avoid
    /// cloning it. The batch compiler builds its `CoercionPlan`s from
    /// this entry point.
    ///
    /// # Errors
    ///
    /// As [`compare`](Comparer::compare).
    #[allow(clippy::result_large_err)]
    pub fn compare_arc(
        &self,
        lroot: MtypeId,
        rroot: MtypeId,
        mode: Mode,
    ) -> Result<Arc<Correspondence>, Mismatch> {
        // Semantic bridges make verdicts non-structural; bypass the
        // shared cache entirely in their presence.
        let Some(shared) = self
            .shared
            .as_ref()
            .filter(|_| self.semantic_bridges.is_empty())
        else {
            return self.run(lroot, rroot, mode).0.map(Arc::new);
        };
        let key = self.shared_key(lroot, rroot, mode);
        match shared.lookup(&key) {
            Some(Verdict::Mismatch { reason, depth }) => {
                // Resynthesize a diagnosis identical to the original
                // run's (displays and summaries are pure functions of the
                // roots; reason and depth come from the cache).
                Err(Mismatch {
                    reason,
                    depth,
                    left_display: self.left.display_capped(lroot, 640),
                    right_display: self.right.display_capped(rroot, 640),
                    left_summary: MtypeSummary::of(self.left, lroot),
                    right_summary: MtypeSummary::of(self.right, rroot),
                })
            }
            Some(Verdict::Match) => {
                if let Some(corr) = shared.lookup_correspondence(
                    &key,
                    self.left.uid(),
                    self.right.uid(),
                    lroot,
                    rroot,
                ) {
                    return Ok(corr);
                }
                // Verdict known, correspondence not transferable (other
                // graph snapshot): re-derive and publish it. If the live
                // run somehow disagrees with the cache, trust the run.
                let (res, _) = self.run(lroot, rroot, mode);
                res.map(|corr| {
                    let corr = Arc::new(corr);
                    shared.insert_correspondence(
                        key,
                        self.left.uid(),
                        self.right.uid(),
                        corr.clone(),
                    );
                    corr
                })
            }
            None => {
                let (res, budget_exhausted) = self.run(lroot, rroot, mode);
                match res {
                    Ok(corr) => {
                        let corr = Arc::new(corr);
                        shared.insert(key, Verdict::Match);
                        shared.insert_correspondence(
                            key,
                            self.left.uid(),
                            self.right.uid(),
                            corr.clone(),
                        );
                        Ok(corr)
                    }
                    Err(m) => {
                        // Budget-exhaustion failures are resource
                        // artifacts, not semantic facts (mirrors the
                        // internal negative-cache suppression).
                        if !budget_exhausted {
                            shared.insert(
                                key,
                                Verdict::Mismatch {
                                    reason: m.reason.clone(),
                                    depth: m.depth,
                                },
                            );
                        }
                        Err(m)
                    }
                }
            }
        }
    }

    /// The shared-cache key of a root pair under this comparer's rules:
    /// rule-relative canonical fingerprints plus the rule-set digest.
    fn shared_key(&self, lroot: MtypeId, rroot: MtypeId, mode: Mode) -> CacheKey {
        let opts = self.rules.canon_opts();
        let left_fp = self
            .lcanon
            .borrow_mut()
            .get_or_insert_with(|| Canonizer::new(self.left, opts))
            .fingerprint(lroot);
        // Session/batch comparers compare within one snapshot; ids are
        // graph-local, so when both sides are literally the same graph
        // the left engine (and its memoised tables) serves both.
        let same_graph = std::ptr::eq(
            std::ptr::from_ref(self.left).cast::<u8>(),
            std::ptr::from_ref(self.right).cast::<u8>(),
        );
        let right_fp = if same_graph {
            self.lcanon
                .borrow_mut()
                .as_mut()
                .expect("left engine initialised above")
                .fingerprint(rroot)
        } else {
            self.rcanon
                .borrow_mut()
                .get_or_insert_with(|| Canonizer::new(self.right, opts))
                .fingerprint(rroot)
        };
        CacheKey {
            left_fp,
            right_fp,
            mode,
            rules_fp: self.rules.fingerprint(),
        }
    }

    /// One full structural comparison; also reports whether the search
    /// budget ran out (failures under exhaustion are not cacheable).
    #[allow(clippy::result_large_err)]
    fn run(
        &self,
        lroot: MtypeId,
        rroot: MtypeId,
        mode: Mode,
    ) -> (Result<Correspondence, Mismatch>, bool) {
        let mut cache = self.cache.borrow_mut();
        let mut ctx = Ctx {
            l: self.left,
            r: self.right,
            rules: &self.rules,
            semantic_bridges: &self.semantic_bridges,
            fp_exact: self.rules.fingerprint_filter && self.semantic_bridges.is_empty(),
            stack: Vec::new(),
            stack_index: HashMap::new(),
            cache: &mut cache,
            cond_log: Vec::new(),
            cond_pos: HashMap::new(),
            budget_exhausted: false,
            entries: HashMap::new(),
            deepest_fail: None,
            budget: self.rules.search_budget,
        };
        let rel = match mode {
            Mode::Equivalence => Rel::Eq,
            Mode::Subtype => Rel::Sub,
        };
        let outcome = ctx.check(lroot, rroot, rel, 0);
        let budget_exhausted = ctx.budget_exhausted;
        let res = match outcome {
            Ok(_) => Ok(Correspondence {
                left_root: lroot,
                right_root: rroot,
                entries: ctx.entries,
            }),
            Err(()) => {
                let (depth, reason) = ctx
                    .deepest_fail
                    .unwrap_or((0, "no structural match found".to_string()));
                Err(Mismatch {
                    reason,
                    depth,
                    left_display: self.left.display_capped(lroot, 640),
                    right_display: self.right.display_capped(rroot, 640),
                    left_summary: MtypeSummary::of(self.left, lroot),
                    right_summary: MtypeSummary::of(self.right, rroot),
                })
            }
        };
        (res, budget_exhausted)
    }

    /// Convenience: are the two Mtypes equivalent?
    pub fn equivalent(&self, lroot: MtypeId, rroot: MtypeId) -> bool {
        self.compare(lroot, rroot, Mode::Equivalence).is_ok()
    }

    /// Convenience: is the left Mtype a subtype of the right?
    pub fn subtype(&self, lroot: MtypeId, rroot: MtypeId) -> bool {
        self.compare(lroot, rroot, Mode::Subtype).is_ok()
    }
}

/// Resolves through `Recursive` binders and (when the rule set enables
/// it) transparent singleton Choices — the same node normalisation the
/// comparer applies before recording [`Correspondence`] entries. The
/// coercion-plan interpreter uses this to look entries up consistently.
pub fn resolve_transparent(graph: &MtypeGraph, rules: &RuleSet, id: MtypeId) -> MtypeId {
    Ctx::resolve(graph, rules, id)
}

struct Ctx<'a> {
    l: &'a MtypeGraph,
    r: &'a MtypeGraph,
    rules: &'a RuleSet,
    semantic_bridges: &'a HashSet<(MtypeId, MtypeId)>,
    /// Whether fingerprints may be used as an *exact* rejection filter.
    /// Semantic bridges make structurally different pairs matchable, so
    /// their presence demotes fingerprints to a heuristic.
    fp_exact: bool,
    /// Stack of in-progress (coinductive) assumptions.
    stack: Vec<(MtypeId, MtypeId, Rel)>,
    stack_index: HashMap<(MtypeId, MtypeId, Rel), usize>,
    /// Persistent proof state shared across runs (see [`Cache`]).
    cache: &'a mut Cache,
    /// Pairs proven *conditionally*, in creation order, each with the
    /// smallest stack index of the coinductive assumptions it rests on.
    /// Without this cache, strongly-connected declaration graphs
    /// recompute shared pairs exponentially within a single proof.
    /// Everything proven while a frame is on the stack lies past the log
    /// length it was pushed at, so a frame settles exactly its own tail:
    /// promoted to `proved` when its assumptions are discharged,
    /// re-tagged when the frame is itself conditional, and discarded
    /// when it fails.
    cond_log: Vec<((MtypeId, MtypeId, Rel), usize)>,
    /// Where each pair of `cond_log` sits. Settling a tail leaves stale
    /// positions behind; a position counts only while it holds its key.
    cond_pos: HashMap<(MtypeId, MtypeId, Rel), usize>,
    /// Set when the search budget ran out; suppresses negative caching
    /// from that point (those failures are resource artifacts).
    budget_exhausted: bool,
    entries: HashMap<(MtypeId, MtypeId), Entry>,
    deepest_fail: Option<(usize, String)>,
    budget: usize,
}

impl Ctx<'_> {
    fn fail(&mut self, depth: usize, reason: String) -> Result<usize, ()> {
        match &self.deepest_fail {
            Some((d, _)) if *d >= depth => {}
            _ => self.deepest_fail = Some((depth, reason)),
        }
        Err(())
    }

    fn fp_left(&mut self, id: MtypeId) -> u64 {
        if let Some(&h) = self.cache.lfp.get(&id) {
            return h;
        }
        let h = self.cache.lmemo.fingerprint(self.l, id);
        self.cache.lfp.insert(id, h);
        h
    }

    fn fp_right(&mut self, id: MtypeId) -> u64 {
        if let Some(&h) = self.cache.rfp.get(&id) {
            return h;
        }
        let h = self.cache.rmemo.fingerprint(self.r, id);
        self.cache.rfp.insert(id, h);
        h
    }

    /// Resolves through `Recursive` binders and (when enabled) transparent
    /// singleton Choices.
    fn resolve(graph: &MtypeGraph, rules: &RuleSet, id: MtypeId) -> MtypeId {
        let mut cur = graph.resolve(id);
        if !rules.singleton_choice {
            return cur;
        }
        let mut hops = 0usize;
        while let MtypeKind::Choice(_) = graph.kind(cur) {
            let alts = if rules.assoc {
                mockingbird_mtype::canon::flatten_choice(graph, cur)
            } else {
                graph.kind(cur).children().to_vec()
            };
            if alts.len() != 1 || alts[0] == cur {
                break;
            }
            cur = graph.resolve(alts[0]);
            hops += 1;
            if hops > graph.len() {
                break;
            }
        }
        cur
    }

    /// The coinductive entry point. Returns the smallest stack index of
    /// any assumption the proof depended on ([`NO_DEP`] if none).
    fn check(&mut self, a: MtypeId, b: MtypeId, rel: Rel, depth: usize) -> Result<usize, ()> {
        if depth > 10_000 {
            return self.fail(depth, "recursion limit exceeded".into());
        }
        let a = Self::resolve(self.l, self.rules, a);
        let b = Self::resolve(self.r, self.rules, b);
        let key = (a, b, rel);
        if self.semantic_bridges.contains(&(a, b)) {
            // Programmer-declared bridge: matched by fiat, converter
            // supplied out of band.
            self.entries.insert((a, b), Entry::Semantic);
            return Ok(NO_DEP);
        }
        if self.cache.proved.contains(&key) {
            return Ok(NO_DEP);
        }
        if self.cache.disproved.contains(&key) {
            // Cheap failure: diagnostics were produced when the pair was
            // first disproven.
            match &self.deepest_fail {
                Some((d, _)) if *d >= depth => {}
                _ => self.deepest_fail = Some((depth, "pair already disproven".to_string())),
            }
            return Err(());
        }
        if let Some(&(_, d)) = self
            .cond_pos
            .get(&key)
            .and_then(|&at| self.cond_log.get(at))
            .filter(|(k, _)| *k == key)
        {
            // Proven earlier in this run, conditional on a still-active
            // ancestor assumption: reuse, propagating the dependence.
            return Ok(d);
        }
        if let Some(&i) = self.stack_index.get(&key) {
            // Coinductive hit: assume the pair holds; record dependence.
            return Ok(i);
        }
        if rel == Rel::Eq && self.fp_exact && self.fp_left(a) != self.fp_right(b) {
            return self.fail(
                depth,
                format!(
                    "structural fingerprints differ: `{}` vs `{}`",
                    self.l.display_capped(a, 320),
                    self.r.display_capped(b, 320)
                ),
            );
        }
        let my_index = self.stack.len();
        let mark = self.cond_log.len();
        self.stack.push(key);
        self.stack_index.insert(key, my_index);
        let result = self.check_structural(a, b, rel, depth);
        self.stack.pop();
        self.stack_index.remove(&key);
        match result {
            Ok(min_dep) if min_dep >= my_index => {
                // Self-contained (possibly via its own cycle): a valid
                // greatest-fixed-point proof. Cache unconditionally, and
                // discharge every proof made under this frame that rests
                // on nothing further out. Proofs from abandoned branches
                // that leaned on an outer assumption stay conditional.
                self.cache.proved.insert(key);
                let mut kept = mark;
                for i in mark..self.cond_log.len() {
                    let (k, d) = self.cond_log[i];
                    if d >= my_index {
                        self.cache.proved.insert(k);
                    } else {
                        self.cond_log[kept] = (k, d);
                        self.cond_pos.insert(k, kept);
                        kept += 1;
                    }
                }
                self.cond_log.truncate(kept);
                Ok(NO_DEP)
            }
            Ok(min_dep) => {
                // This proof, and everything proven under it, is now
                // conditional on the outer assumption too.
                for (_, d) in &mut self.cond_log[mark..] {
                    *d = (*d).min(min_dep);
                }
                self.cond_pos.insert(key, self.cond_log.len());
                self.cond_log.push((key, min_dep));
                Ok(min_dep)
            }
            Err(()) => {
                // The assumption failed: everything proven under it may
                // have relied on it, whatever outer index it is recorded
                // under, so all of it is unproven. The failure itself is
                // absolute (failures are monotone in the assumption set),
                // so cache it — unless the budget ran out, which is a
                // resource artifact.
                self.cond_log.truncate(mark);
                if !self.budget_exhausted {
                    self.cache.disproved.insert(key);
                }
                Err(())
            }
        }
    }

    fn check_structural(
        &mut self,
        a: MtypeId,
        b: MtypeId,
        rel: Rel,
        depth: usize,
    ) -> Result<usize, ()> {
        use MtypeKind::*;
        let ka = self.l.kind(a).clone();
        let kb = self.r.kind(b).clone();

        // Dynamic absorbs anything on the supertype side.
        match (&ka, &kb, rel) {
            (Dynamic, Dynamic, _) => {
                self.entries
                    .insert((a, b), Entry::Prim(PrimCoercion::Dynamic));
                return Ok(NO_DEP);
            }
            (_, Dynamic, Rel::Sub) | (Dynamic, _, Rel::Sup) => {
                self.entries
                    .insert((a, b), Entry::Prim(PrimCoercion::IntoDynamic));
                return Ok(NO_DEP);
            }
            _ => {}
        }

        // Record-view path. With associativity enabled it also engages
        // cross-kind, letting a unary Record match its single child and
        // an empty Record match Unit; under strict rules both sides must
        // be Records.
        let l_rec = matches!(ka, Record(_));
        let r_rec = matches!(kb, Record(_));
        if l_rec && r_rec {
            // One-level fast path: when neither side regrouped, the
            // direct children match under permutation without unfolding
            // the (potentially huge) transitive value structure.
            let lv1 = one_level_view(self.l, self.rules, a);
            let rv1 = one_level_view(self.r, self.rules, b);
            if lv1.len() == rv1.len() {
                let snapshot_fail = self.deepest_fail.clone();
                match self.match_records(a, b, lv1, rv1, rel, depth, RecordFlatten::OneLevel) {
                    Ok(dep) => return Ok(dep),
                    Err(()) if self.rules.assoc => {
                        // Fall through to the full-flatten view.
                        self.deepest_fail = snapshot_fail;
                    }
                    Err(()) => return Err(()),
                }
            } else if !self.rules.assoc {
                return self.fail(
                    depth,
                    format!(
                        "record arity mismatch: {} vs {} fields",
                        lv1.len(),
                        rv1.len()
                    ),
                );
            }
        }
        if self.rules.assoc && (l_rec || r_rec) {
            let lv = self.record_view_left(a);
            let rv = self.record_view_right(b);
            return self.match_records(a, b, lv, rv, rel, depth, RecordFlatten::Full);
        }

        // Choice-view path; cross-kind only with singleton-choice
        // elimination enabled (resolve() has already collapsed true
        // singletons, so cross-kind arity mismatches fail below).
        let l_ch = matches!(ka, Choice(_));
        let r_ch = matches!(kb, Choice(_));
        if (l_ch && r_ch) || (self.rules.singleton_choice && (l_ch || r_ch)) {
            let lv = self.choice_view(self.l, a);
            let rv = self.choice_view(self.r, b);
            return self.match_choices(a, b, lv, rv, rel, depth);
        }

        match (&ka, &kb) {
            (Integer(x), Integer(y)) => {
                let ok = match rel {
                    Rel::Eq => x == y,
                    Rel::Sub => x.is_subrange_of(y),
                    Rel::Sup => y.is_subrange_of(x),
                };
                if ok {
                    self.entries.insert((a, b), Entry::Prim(PrimCoercion::Int));
                    Ok(NO_DEP)
                } else {
                    self.fail(depth, format!("integer ranges incompatible: {x} vs {y}"))
                }
            }
            (Character(x), Character(y)) => {
                let ok = match rel {
                    Rel::Eq => x == y,
                    Rel::Sub => x.is_subrepertoire_of(y),
                    Rel::Sup => y.is_subrepertoire_of(x),
                };
                if ok {
                    self.entries.insert((a, b), Entry::Prim(PrimCoercion::Char));
                    Ok(NO_DEP)
                } else {
                    self.fail(
                        depth,
                        format!("character repertoires incompatible: {x} vs {y}"),
                    )
                }
            }
            (Real(x), Real(y)) => {
                let ok = match rel {
                    Rel::Eq => x == y,
                    Rel::Sub => x.fits_in(y),
                    Rel::Sup => y.fits_in(x),
                };
                if ok {
                    let widen = y.mantissa_bits > x.mantissa_bits;
                    self.entries
                        .insert((a, b), Entry::Prim(PrimCoercion::Real { widen }));
                    Ok(NO_DEP)
                } else {
                    self.fail(depth, format!("real precisions incompatible: {x} vs {y}"))
                }
            }
            (Unit, Unit) => {
                self.entries.insert((a, b), Entry::Prim(PrimCoercion::Unit));
                Ok(NO_DEP)
            }
            (Port(x), Port(y)) => {
                // Ports are contravariant in their payload: a port
                // accepting τ serves wherever a port accepting σ ≤ τ is
                // expected.
                let dep = self.check(*x, *y, rel.flip(), depth + 1)?;
                self.entries.insert(
                    (a, b),
                    Entry::Port {
                        left_payload: *x,
                        right_payload: *y,
                    },
                );
                Ok(dep)
            }
            _ => self.fail(
                depth,
                format!("kind mismatch: {} vs {}", ka.tag(), kb.tag()),
            ),
        }
    }

    fn record_view_left(&mut self, id: MtypeId) -> Vec<MtypeId> {
        if let Some(v) = self.cache.lviews.get(&id) {
            return v.as_ref().clone();
        }
        let v = std::rc::Rc::new(Self::record_view_of(self.l, self.rules, id));
        self.cache.lviews.insert(id, v.clone());
        v.as_ref().clone()
    }

    fn record_view_right(&mut self, id: MtypeId) -> Vec<MtypeId> {
        if let Some(v) = self.cache.rviews.get(&id) {
            return v.as_ref().clone();
        }
        let v = std::rc::Rc::new(Self::record_view_of(self.r, self.rules, id));
        self.cache.rviews.insert(id, v.clone());
        v.as_ref().clone()
    }

    /// The flattened children a node contributes to a Record match.
    fn record_view_of(graph: &MtypeGraph, rules: &RuleSet, id: MtypeId) -> Vec<MtypeId> {
        match graph.kind(id) {
            MtypeKind::Record(cs) => {
                if rules.assoc {
                    // canon's flattening is binder-transparent and
                    // cycle-aware, matching the full rule set.
                    if rules.unit_elim {
                        mockingbird_mtype::canon::flatten_record(graph, id)
                    } else {
                        mockingbird_mtype::canon::flatten_record_keep_units(graph, id)
                    }
                } else if rules.unit_elim {
                    cs.iter()
                        .copied()
                        .filter(|&c| !matches!(graph.kind(graph.resolve(c)), MtypeKind::Unit))
                        .collect()
                } else {
                    cs.clone()
                }
            }
            MtypeKind::Unit if rules.unit_elim => vec![],
            _ => vec![id],
        }
    }

    /// The flattened alternatives a node contributes to a Choice match.
    fn choice_view(&self, graph: &MtypeGraph, id: MtypeId) -> Vec<MtypeId> {
        match graph.kind(id) {
            MtypeKind::Choice(cs) => {
                if self.rules.assoc {
                    mockingbird_mtype::canon::flatten_choice(graph, id)
                } else {
                    cs.clone()
                }
            }
            _ => vec![id],
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn match_records(
        &mut self,
        a: MtypeId,
        b: MtypeId,
        lv: Vec<MtypeId>,
        rv: Vec<MtypeId>,
        rel: Rel,
        depth: usize,
        policy: RecordFlatten,
    ) -> Result<usize, ()> {
        if lv.len() != rv.len() {
            return self.fail(
                depth,
                format!("record arity mismatch: {} vs {} fields", lv.len(), rv.len()),
            );
        }
        let n = rv.len();
        let mut perm = vec![usize::MAX; n];
        let min_dep = if self.rules.comm {
            // Fast path (equivalence with exact fingerprint grouping):
            // greedily pair each right child with an unused left child of
            // the same fingerprint; any pairing within a fingerprint class
            // is valid unless a hash collision slips through, in which
            // case fall back to backtracking search.
            let greedy = if rel == Rel::Eq && self.fp_exact {
                self.match_greedy(&lv, &rv, rel, depth, &mut perm)
            } else {
                None
            };
            match greedy {
                Some(dep) => dep,
                None => {
                    let mut used = vec![false; n];
                    perm.fill(usize::MAX);
                    self.match_perm(&lv, &rv, rel, depth, 0, &mut used, &mut perm)?
                }
            }
        } else {
            let mut dep = NO_DEP;
            for i in 0..n {
                dep = dep.min(self.check(lv[i], rv[i], rel, depth + 1)?);
                perm[i] = i;
            }
            dep
        };
        self.entries.insert(
            (a, b),
            Entry::Record {
                left_children: lv,
                right_children: rv,
                perm,
                policy,
            },
        );
        Ok(min_dep)
    }

    /// Greedy bijection by fingerprint class. Returns `Some(min_dep)` on
    /// success, `None` when the greedy pairing fails verification (hash
    /// collision) and backtracking must decide.
    fn match_greedy(
        &mut self,
        lv: &[MtypeId],
        rv: &[MtypeId],
        rel: Rel,
        depth: usize,
        perm: &mut [usize],
    ) -> Option<usize> {
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for (j, &l) in lv.iter().enumerate() {
            let fp = self.fp_left(l);
            buckets.entry(fp).or_default().push(j);
        }
        // Reverse so pop() hands indices out in left-to-right order.
        for b in buckets.values_mut() {
            b.reverse();
        }
        let snapshot_fail = self.deepest_fail.clone();
        let mut dep = NO_DEP;
        for (i, &r) in rv.iter().enumerate() {
            let fp = self.fp_right(r);
            let j = buckets.get_mut(&fp).and_then(Vec::pop)?;
            match self.check(lv[j], r, rel, depth + 1) {
                Ok(d) => {
                    dep = dep.min(d);
                    perm[i] = j;
                }
                Err(()) => {
                    // Collision: restore diagnostics and let the
                    // backtracking search decide.
                    self.deepest_fail = snapshot_fail;
                    return None;
                }
            }
        }
        Some(dep)
    }

    /// Backtracking bijection search: assign each right position a
    /// distinct left child, preferring fingerprint-identical candidates.
    #[allow(clippy::too_many_arguments)]
    fn match_perm(
        &mut self,
        lv: &[MtypeId],
        rv: &[MtypeId],
        rel: Rel,
        depth: usize,
        i: usize,
        used: &mut [bool],
        perm: &mut [usize],
    ) -> Result<usize, ()> {
        if i == rv.len() {
            return Ok(NO_DEP);
        }
        // Candidate ordering: same-fingerprint left children first. In
        // equivalence mode with the filter on this is exact; in subtype
        // mode it is only a heuristic.
        let target_fp = self.fp_right(rv[i]);
        let mut candidates: Vec<usize> = (0..lv.len()).filter(|&j| !used[j]).collect();
        candidates.sort_by_key(|&j| {
            let fp = self.cache.lfp.get(&lv[j]).copied();
            match fp {
                Some(h) if h == target_fp => 0,
                _ => 1,
            }
        });
        if rel == Rel::Eq && self.fp_exact {
            // Exact grouping: only fingerprint-equal children can match.
            candidates.retain(|&j| self.fp_left(lv[j]) == target_fp);
        }
        for j in candidates {
            if self.budget == 0 {
                self.budget_exhausted = true;
                return self.fail(depth, "commutative matching search budget exhausted".into());
            }
            self.budget -= 1;
            let snapshot_fail = self.deepest_fail.clone();
            match self.check(lv[j], rv[i], rel, depth + 1) {
                Ok(dep_child) => {
                    used[j] = true;
                    perm[i] = j;
                    match self.match_perm(lv, rv, rel, depth, i + 1, used, perm) {
                        Ok(dep_rest) => return Ok(dep_child.min(dep_rest)),
                        Err(()) => {
                            used[j] = false;
                            perm[i] = usize::MAX;
                        }
                    }
                }
                Err(()) => {
                    // Restore: failures inside a rejected branch are not
                    // the overall diagnosis.
                    self.deepest_fail = snapshot_fail;
                }
            }
        }
        self.fail(
            depth,
            format!(
                "no child of the left record matches right child `{}`",
                self.r.display_capped(rv[i], 240)
            ),
        )
    }

    fn match_choices(
        &mut self,
        a: MtypeId,
        b: MtypeId,
        lv: Vec<MtypeId>,
        rv: Vec<MtypeId>,
        rel: Rel,
        depth: usize,
    ) -> Result<usize, ()> {
        match rel {
            Rel::Eq => {
                if lv.len() != rv.len() {
                    return self.fail(
                        depth,
                        format!(
                            "choice arity mismatch: {} vs {} alternatives",
                            lv.len(),
                            rv.len()
                        ),
                    );
                }
                let n = rv.len();
                let mut perm = vec![usize::MAX; n];
                let min_dep = if self.rules.comm {
                    let mut used = vec![false; n];
                    self.match_perm(&lv, &rv, rel, depth, 0, &mut used, &mut perm)?
                } else {
                    let mut dep = NO_DEP;
                    for i in 0..n {
                        dep = dep.min(self.check(lv[i], rv[i], rel, depth + 1)?);
                        perm[i] = i;
                    }
                    dep
                };
                // perm maps right index -> left index; invert for alt_map
                // (left alternative -> right alternative).
                let mut alt_map = vec![usize::MAX; n];
                for (right_i, &left_j) in perm.iter().enumerate() {
                    alt_map[left_j] = right_i;
                }
                self.entries.insert(
                    (a, b),
                    Entry::Choice {
                        left_alts: lv,
                        right_alts: rv,
                        alt_map,
                    },
                );
                Ok(min_dep)
            }
            Rel::Sub | Rel::Sup => {
                // Covariant width subtyping on alternatives: every
                // alternative of the "smaller" side must convert to some
                // alternative of the larger. Alternatives are independent
                // (no bijection needed).
                let (small, large, small_is_left) = match rel {
                    Rel::Sub => (&lv, &rv, true),
                    _ => (&rv, &lv, false),
                };
                let mut map = vec![usize::MAX; small.len()];
                let mut dep = NO_DEP;
                'alts: for (i, &s) in small.iter().enumerate() {
                    for (j, &t) in large.iter().enumerate() {
                        if self.budget == 0 {
                            self.budget_exhausted = true;
                            return self
                                .fail(depth, "choice matching search budget exhausted".into());
                        }
                        self.budget -= 1;
                        let snapshot_fail = self.deepest_fail.clone();
                        let attempt = if small_is_left {
                            self.check(s, t, rel, depth + 1)
                        } else {
                            self.check(t, s, rel, depth + 1)
                        };
                        match attempt {
                            Ok(d) => {
                                dep = dep.min(d);
                                map[i] = j;
                                continue 'alts;
                            }
                            Err(()) => self.deepest_fail = snapshot_fail,
                        }
                    }
                    return self.fail(
                        depth,
                        format!(
                            "choice alternative `{}` has no counterpart",
                            if small_is_left {
                                self.l.display_capped(s, 240)
                            } else {
                                self.r.display_capped(s, 240)
                            }
                        ),
                    );
                }
                // Express alt_map uniformly as left-alt -> right-alt.
                let alt_map = if small_is_left {
                    map
                } else {
                    // map: right index -> left index; invert (may be
                    // partial on the left side: unmapped left alts keep
                    // usize::MAX, they are never produced by conversion).
                    let mut inv = vec![usize::MAX; lv.len()];
                    for (right_i, &left_j) in map.iter().enumerate() {
                        if left_j != usize::MAX {
                            inv[left_j] = right_i;
                        }
                    }
                    inv
                };
                self.entries.insert(
                    (a, b),
                    Entry::Choice {
                        left_alts: lv,
                        right_alts: rv,
                        alt_map,
                    },
                );
                Ok(dep)
            }
        }
    }
}

/// The direct (binder-resolved) children of a Record node, `Unit`s
/// dropped when unit elimination is active. Children keep their original
/// ids.
fn one_level_view(graph: &MtypeGraph, rules: &RuleSet, id: MtypeId) -> Vec<MtypeId> {
    match graph.kind(id) {
        MtypeKind::Record(cs) => cs
            .iter()
            .copied()
            .filter(|&c| {
                !(rules.unit_elim && matches!(graph.kind(graph.resolve(c)), MtypeKind::Unit))
            })
            .collect(),
        _ => vec![id],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mockingbird_mtype::{IntRange, RealPrecision, Repertoire};

    fn graph() -> MtypeGraph {
        MtypeGraph::new()
    }

    #[test]
    fn primitive_equivalence_and_subtyping() {
        let mut g = graph();
        let short = g.integer(IntRange::signed_bits(16));
        let int = g.integer(IntRange::signed_bits(32));
        let cmp = Comparer::new(&g, &g);
        assert!(cmp.equivalent(short, short));
        assert!(!cmp.equivalent(short, int));
        assert!(cmp.subtype(short, int));
        assert!(!cmp.subtype(int, short));

        let f32_ = g.real(RealPrecision::SINGLE);
        let f64_ = g.real(RealPrecision::DOUBLE);
        let cmp = Comparer::new(&g, &g);
        assert!(cmp.subtype(f32_, f64_));
        assert!(!cmp.subtype(f64_, f32_));

        let latin = g.character(Repertoire::Latin1);
        let uni = g.character(Repertoire::Unicode);
        let cmp = Comparer::new(&g, &g);
        assert!(cmp.subtype(latin, uni));
        assert!(!cmp.subtype(uni, latin));
        assert!(!cmp.equivalent(latin, uni));
    }

    #[test]
    fn paper_associativity_commutativity_example() {
        // Record(Integer, Record(Real, Character)) ≡
        // Record(Character, Real, Integer)   (paper §4)
        let mut g = graph();
        let i = g.integer(IntRange::signed_bits(32));
        let r = g.real(RealPrecision::SINGLE);
        let c = g.character(Repertoire::Unicode);
        let inner = g.record(vec![r, c]);
        let nested = g.record(vec![i, inner]);
        let flat = g.record(vec![c, r, i]);
        let corr = Comparer::new(&g, &g)
            .compare(nested, flat, Mode::Equivalence)
            .unwrap();
        let Entry::Record {
            perm,
            left_children,
            right_children,
            ..
        } = corr.entry(nested, flat).unwrap()
        else {
            panic!("expected a Record entry");
        };
        assert_eq!(left_children, &vec![i, r, c]);
        assert_eq!(right_children, &vec![c, r, i]);
        assert_eq!(perm, &vec![2, 1, 0]);
    }

    #[test]
    fn strict_rules_reject_reordering() {
        let mut g = graph();
        let i = g.integer(IntRange::signed_bits(32));
        let r = g.real(RealPrecision::SINGLE);
        let ab = g.record(vec![i, r]);
        let ba = g.record(vec![r, i]);
        assert!(Comparer::new(&g, &g).equivalent(ab, ba));
        assert!(!Comparer::with_rules(&g, &g, RuleSet::strict()).equivalent(ab, ba));
        // Strict rules still accept identical structure.
        assert!(Comparer::with_rules(&g, &g, RuleSet::strict()).equivalent(ab, ab));
    }

    #[test]
    fn line_matches_four_floats_via_associativity() {
        // Paper §3: "a Line might match anything with four float values".
        let mut g = graph();
        let r = g.real(RealPrecision::SINGLE);
        let point = g.record(vec![r, r]);
        let line = g.record(vec![point, point]);
        let four = g.record(vec![r, r, r, r]);
        assert!(Comparer::new(&g, &g).equivalent(line, four));
    }

    #[test]
    fn unit_elimination() {
        let mut g = graph();
        let i = g.integer(IntRange::boolean());
        let u = g.unit();
        let with_unit = g.record(vec![i, u]);
        let without = g.record(vec![i]);
        assert!(Comparer::new(&g, &g).equivalent(with_unit, without));
        assert!(
            Comparer::new(&g, &g).equivalent(with_unit, i),
            "unary record collapses"
        );
        let mut strict = RuleSet::strict();
        strict.assoc = false;
        assert!(!Comparer::with_rules(&g, &g, strict).equivalent(with_unit, without));
    }

    #[test]
    fn recursive_lists_are_equivalent_across_graphs() {
        // Fig. 8: a Java linked list and a C float[] (runtime length)
        // share the canonical recursive Mtype.
        let mut g1 = graph();
        let r1 = g1.real(RealPrecision::SINGLE);
        let list1 = g1.list_of(r1);

        let mut g2 = graph();
        let _pad = g2.unit();
        let r2 = g2.real(RealPrecision::SINGLE);
        let list2 = g2.list_of(r2);

        let corr = Comparer::new(&g1, &g2)
            .compare(list1, list2, Mode::Equivalence)
            .unwrap();
        assert!(!corr.is_empty());
        // Element type mismatch is caught.
        let mut g3 = graph();
        let d = g3.real(RealPrecision::DOUBLE);
        let list3 = g3.list_of(d);
        assert!(!Comparer::new(&g1, &g3).equivalent(list1, list3));
    }

    #[test]
    fn mutually_recursive_types_compare() {
        // Rec X. Record(Int, Choice(Unit, X)) built two different ways.
        let mut g = graph();
        let i = g.integer(IntRange::signed_bits(32));
        let t1 = g.recursive(|g, me| {
            let tail = g.nullable(me);
            g.record(vec![i, tail])
        });
        // Unrolled once: Record(Int, Choice(Unit, Rec X. Record(Int, Choice(Unit, X))))
        let t2 = {
            let inner = g.recursive(|g, me| {
                let tail = g.nullable(me);
                g.record(vec![i, tail])
            });
            let tail = g.nullable(inner);
            g.record(vec![i, tail])
        };
        assert!(
            Comparer::new(&g, &g).equivalent(t1, t2),
            "a recursive type equals its unrolling (Amadio–Cardelli)"
        );
    }

    #[test]
    fn a_failed_assumption_takes_down_proofs_recorded_under_outer_ones() {
        // A = μa. Choice(Unit, S), S = μs. Record(Record(a, Choice(Unit, s)), Int[0,100]).
        let mut g = graph();
        let unit = g.unit();
        let to_100 = g.integer(IntRange::new(0, 100));
        let a = g.recursive(|g, a| {
            let s = g.recursive(|g, s| {
                let tail = g.choice(vec![unit, s]);
                let inner = g.record(vec![a, tail]);
                g.record(vec![inner, to_100])
            });
            g.choice(vec![unit, s])
        });
        // B = μb. Choice(Unit, T1, T2), T1 = μt. Record(Q, Int[0,10]),
        // Q = Record(b, Choice(Unit, t)) and T2 = Record(Q, Int[0,1000]).
        let mut h = graph();
        let unit = h.unit();
        let to_10 = h.integer(IntRange::new(0, 10));
        let to_1000 = h.integer(IntRange::new(0, 1000));
        let b = h.recursive(|h, b| {
            let mut q = None;
            let t1 = h.recursive(|h, t| {
                let tail = h.choice(vec![unit, t]);
                let inner = h.record(vec![b, tail]);
                q = Some(inner);
                h.record(vec![inner, to_10])
            });
            let t2 = h.record(vec![q.expect("the binder body ran"), to_1000]);
            h.choice(vec![unit, t1, t2])
        });
        // S fits neither T1 (100 > 10) nor T2 (the S nested in it would
        // have to fit T1). While S <: T1 is tried, Record(a, Choice(Unit,
        // s)) <: Q is proven assuming both A <: B and S <: T1, and only
        // the outer A <: B records it; S <: T1 then fails, and S <: T2
        // must not reuse that proof.
        for rules in [RuleSet::strict(), RuleSet::full()] {
            let verdict = Comparer::with_rules(&g, &h, rules.clone()).compare(a, b, Mode::Subtype);
            assert!(verdict.is_err(), "{rules:?}: A is not a subtype of B");
        }
    }

    #[test]
    fn a_self_contained_frame_leaves_outer_assumptions_conditional() {
        // Under commutative records, a frame may prove a child pair that
        // leans on an outer assumption, abandon that branch, and succeed
        // on its own through another permutation. The abandoned proof
        // must stay conditional on the outer assumption, which fails.
        let rules = RuleSet {
            comm: true,
            ..RuleSet::strict()
        };
        // Left: A = μa. Record(X, Int[0,100]), X = Record(P1, P2),
        // P1 = Record(a, Int[0,5]), P2 = Record(C, Int[0,50]), where C is
        // a left copy of B (so C <: B holds on its own).
        let mut g = graph();
        let (i5, i10, i50, i100) = (
            g.integer(IntRange::new(0, 5)),
            g.integer(IntRange::new(0, 10)),
            g.integer(IntRange::new(0, 50)),
            g.integer(IntRange::new(0, 100)),
        );
        let dyn_l = g.dynamic();
        let copy = g.recursive(|g, c| {
            let q1 = g.record(vec![c, i100]);
            let q2 = g.record(vec![dyn_l, i5]);
            let y = g.record(vec![q1, q2]);
            g.record(vec![y, i10])
        });
        let mut p1 = None;
        let a = g.recursive(|g, a| {
            let first = g.record(vec![a, i5]);
            p1 = Some(first);
            let second = g.record(vec![copy, i50]);
            let x = g.record(vec![first, second]);
            g.record(vec![x, i100])
        });
        // Right: B = μb. Record(Y, Int[0,10]), Y = Record(Q1, Q2),
        // Q1 = Record(b, Int[0,100]), Q2 = Record(Dynamic, Int[0,5]).
        let mut h = graph();
        let (i5, i10, i100) = (
            h.integer(IntRange::new(0, 5)),
            h.integer(IntRange::new(0, 10)),
            h.integer(IntRange::new(0, 100)),
        );
        let dyn_r = h.dynamic();
        let mut q1 = None;
        let b = h.recursive(|h, b| {
            let first = h.record(vec![b, i100]);
            q1 = Some(first);
            let second = h.record(vec![dyn_r, i5]);
            let y = h.record(vec![first, second]);
            h.record(vec![y, i10])
        });
        let (p1, q1) = (
            p1.expect("the binder body ran"),
            q1.expect("the binder body ran"),
        );
        // X <: Y first tries P1 <: Q1, proven assuming A <: B, then fails
        // P2 <: Q2 and succeeds as P2 <: Q1, P1 <: Q2. A <: B then fails
        // (100 > 10), so P1 <: Q1 is false, and the cache must say so.
        let cmp = Comparer::with_rules(&g, &h, rules);
        assert!(cmp.compare(a, b, Mode::Subtype).is_err());
        assert!(cmp.compare(p1, q1, Mode::Subtype).is_err());
    }

    #[test]
    fn port_payloads_are_contravariant() {
        let mut g = graph();
        let small = g.integer(IntRange::signed_bits(16));
        let big = g.integer(IntRange::signed_bits(32));
        let p_small = g.port(small);
        let p_big = g.port(big);
        let cmp = Comparer::new(&g, &g);
        // A port accepting big ints serves where a port accepting small
        // ints is required.
        assert!(cmp.subtype(p_big, p_small));
        assert!(!cmp.subtype(p_small, p_big));
        assert!(cmp.equivalent(p_big, p_big));
    }

    #[test]
    fn choice_subtyping_is_width_and_depth() {
        let mut g = graph();
        let i1 = g.integer(IntRange::new(0, 5));
        let i2 = g.integer(IntRange::new(0, 100));
        let r = g.real(RealPrecision::SINGLE);
        let narrow = g.choice(vec![i1, r]);
        let wide = g.choice(vec![r, i2]);
        let cmp = Comparer::new(&g, &g);
        assert!(cmp.subtype(narrow, wide), "0..5 ≤ 0..100 and Real ≤ Real");
        assert!(!cmp.subtype(wide, narrow));

        // Width: fewer alternatives is a subtype of more.
        let u = g.unit();
        let wider = g.choice(vec![r, i2, u]);
        let cmp = Comparer::new(&g, &g);
        assert!(cmp.subtype(narrow, wider));
        assert!(!cmp.subtype(wider, narrow));
    }

    #[test]
    fn singleton_choice_is_transparent() {
        let mut g = graph();
        let i = g.integer(IntRange::boolean());
        let single = g.choice(vec![i]);
        assert!(Comparer::new(&g, &g).equivalent(single, i));
        assert!(!Comparer::with_rules(&g, &g, RuleSet::strict()).equivalent(single, i));
    }

    #[test]
    fn dynamic_absorbs_in_subtype_mode() {
        let mut g = graph();
        let d = g.dynamic();
        let i = g.integer(IntRange::boolean());
        let rec = g.record(vec![i, i]);
        let cmp = Comparer::new(&g, &g);
        assert!(cmp.subtype(i, d));
        assert!(cmp.subtype(rec, d));
        assert!(!cmp.subtype(d, i));
        assert!(cmp.equivalent(d, d));
        assert!(!cmp.equivalent(d, i));
    }

    #[test]
    fn mismatch_diagnostics_are_informative() {
        let mut g = graph();
        let r = g.real(RealPrecision::SINGLE);
        let three = g.record(vec![r, r, r]);
        let four = g.record(vec![r, r, r, r]);
        let err = Comparer::new(&g, &g)
            .compare(three, four, Mode::Equivalence)
            .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("types do not match"), "{text}");
        // Either the fingerprint filter or the arity check fires; both
        // name the structural problem.
        assert!(
            err.reason.contains("arity") || err.reason.contains("fingerprint"),
            "{}",
            err.reason
        );
    }

    #[test]
    fn function_parameter_reordering_matches() {
        // port(Record(Int, Real, port(...))) vs port(Record(Real, Int, port(...)))
        let mut g = graph();
        let i = g.integer(IntRange::signed_bits(32));
        let r = g.real(RealPrecision::SINGLE);
        let f1 = g.function(vec![i, r], vec![i]);
        let f2 = g.function(vec![r, i], vec![i]);
        assert!(Comparer::new(&g, &g).equivalent(f1, f2));
        // But not when an output type differs.
        let f3 = g.function(vec![r, i], vec![r]);
        assert!(!Comparer::new(&g, &g).equivalent(f1, f3));
    }

    #[test]
    fn nested_grouping_with_mixed_leaves() {
        // Record(Record(Int, Real), Record(Char, Int)) ≡
        // Record(Int, Record(Real, Char), Int)
        let mut g = graph();
        let i = g.integer(IntRange::signed_bits(32));
        let r = g.real(RealPrecision::SINGLE);
        let c = g.character(Repertoire::Unicode);
        let left = {
            let a = g.record(vec![i, r]);
            let b = g.record(vec![c, i]);
            g.record(vec![a, b])
        };
        let right = {
            let m = g.record(vec![r, c]);
            g.record(vec![i, m, i])
        };
        assert!(Comparer::new(&g, &g).equivalent(left, right));
    }

    #[test]
    fn subtype_record_depth() {
        let mut g = graph();
        let small = g.integer(IntRange::signed_bits(16));
        let big = g.integer(IntRange::signed_bits(32));
        let r = g.real(RealPrecision::SINGLE);
        let left = g.record(vec![small, r]);
        let right = g.record(vec![big, r]);
        let cmp = Comparer::new(&g, &g);
        assert!(cmp.subtype(left, right));
        assert!(!cmp.subtype(right, left));
        assert!(!cmp.equivalent(left, right));
    }

    #[test]
    fn shared_cache_preserves_verdicts_and_counts() {
        use crate::cache::CompareCache;
        let mut g = graph();
        let i = g.integer(IntRange::signed_bits(32));
        let r = g.real(RealPrecision::SINGLE);
        let left = g.record(vec![i, r]);
        let right = g.record(vec![r, i]); // comm-equivalent
        let bad = g.record(vec![r, r]);

        let cache = std::sync::Arc::new(CompareCache::new());
        let baseline = Comparer::new(&g, &g);
        let cold = Comparer::new(&g, &g).with_shared_cache(cache.clone());
        let ok_cold = cold.compare(left, right, Mode::Equivalence).unwrap();
        let err_cold = cold.compare(left, bad, Mode::Equivalence).unwrap_err();
        assert!(baseline.equivalent(left, right));

        // A *fresh* comparer over the same graph hits the shared cache.
        let warm = Comparer::new(&g, &g).with_shared_cache(cache.clone());
        let ok_warm = warm.compare(left, right, Mode::Equivalence).unwrap();
        let err_warm = warm.compare(left, bad, Mode::Equivalence).unwrap_err();
        assert_eq!(ok_cold.left_root, ok_warm.left_root);
        assert_eq!(ok_cold.entries.len(), ok_warm.entries.len());
        assert_eq!(err_cold.reason, err_warm.reason);
        assert_eq!(err_cold.depth, err_warm.depth);
        assert_eq!(err_cold.left_display, err_warm.left_display);

        let s = cache.stats();
        assert_eq!(s.hits, 2, "both warm lookups hit");
        assert_eq!(s.misses, 2, "both cold lookups missed");
        assert!(s.inserts >= 2);
        // Same graph object, same roots: the correspondence itself is
        // reused, not just the verdict.
        assert_eq!(s.corr_hits, 1);
    }

    #[test]
    fn shared_cache_is_bypassed_with_semantic_bridges() {
        use crate::cache::CompareCache;
        let mut g = graph();
        let i = g.integer(IntRange::signed_bits(32));
        let r = g.real(RealPrecision::SINGLE);
        let cache = std::sync::Arc::new(CompareCache::new());
        let bridged = Comparer::new(&g, &g)
            .with_shared_cache(cache.clone())
            .with_semantic_bridge(i, r);
        assert!(bridged.equivalent(i, r), "bridge axiom accepted");
        assert_eq!(
            cache.stats().hits + cache.stats().misses,
            0,
            "bridged comparisons must never consult the shared cache"
        );
        // And a bridge-free comparer still decides the pair honestly.
        let plain = Comparer::new(&g, &g).with_shared_cache(cache.clone());
        assert!(!plain.equivalent(i, r));
    }

    #[test]
    fn equivalence_entries_cover_the_proof() {
        let mut g = graph();
        let r = g.real(RealPrecision::SINGLE);
        let point = g.record(vec![r, r]);
        let list_l = g.list_of(point);
        let list_r = g.list_of(point);
        let corr = Comparer::new(&g, &g)
            .compare(list_l, list_r, Mode::Equivalence)
            .unwrap();
        // The cons-cell Record, the Choice, the element Record and leaves
        // all have entries reachable from the resolved roots.
        let lroot = g.resolve(list_l);
        let rroot = g.resolve(list_r);
        assert!(corr.entry(lroot, rroot).is_some());
    }
}
