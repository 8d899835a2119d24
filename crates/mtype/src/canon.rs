//! Canonicalisation helpers backing the comparer's isomorphism rules.
//!
//! The paper (§4) extends the Amadio–Cardelli algorithm with isomorphism
//! rules: `Record` and `Choice` are associative and commutative, so
//! `Record(Integer, Record(Real, Character))` ≡
//! `Record(Character, Real, Integer)`. This module provides the
//! *flattening* (associativity) and *structural fingerprinting*
//! (a canonical sort key for commutativity) that the comparer combines
//! with coinduction.
//!
//! Both operations are **binder-transparent**: `Recursive` nodes are
//! where a μ-binder happened to be placed during lowering, and two
//! translations of the same declarations can legitimately cut their
//! cycles at different points (lowering order differs). Flattening
//! resolves through binders and stops only at *actual* cycles; the
//! fingerprint hashes the depth-bounded tree unfolding, which is
//! invariant under binder placement.

use std::collections::HashMap;

use crate::graph::{MtypeGraph, MtypeId};
use crate::kind::MtypeKind;

/// Depth (in structural constructors) to which [`fingerprint`] unfolds a
/// type. Types differing only below this depth collide — the comparer
/// then decides by full coinduction, so collisions cost time, not
/// soundness.
pub const FINGERPRINT_DEPTH: u32 = 12;

/// Flattens nested `Record`s under `id` (associativity) and drops `Unit`
/// children (unit elimination: `Record(τ, Unit) ≡ Record(τ)`), returning
/// the flattened child list. If `id` is not a Record it is returned as a
/// singleton.
///
/// Flattening resolves through `Recursive` binders; a Record reached
/// again *on the current flattening path* (a genuine cycle) is kept as a
/// leaf, so the operation is total on cyclic graphs.
///
/// ```
/// use mockingbird_mtype::{MtypeGraph, IntRange, RealPrecision, canon::flatten_record};
/// let mut g = MtypeGraph::new();
/// let i = g.integer(IntRange::boolean());
/// let r = g.real(RealPrecision::SINGLE);
/// let inner = g.record(vec![r, i]);
/// let u = g.unit();
/// let outer = g.record(vec![i, inner, u]);
/// assert_eq!(flatten_record(&g, outer), vec![i, r, i]);
/// ```
pub fn flatten_record(graph: &MtypeGraph, id: MtypeId) -> Vec<MtypeId> {
    let mut out = Vec::new();
    let mut path = Vec::new();
    flatten_record_into(graph, id, &mut out, &mut path, true);
    out
}

/// As [`flatten_record`] but keeping `Unit` children (used when the
/// unit-elimination rule is disabled).
pub fn flatten_record_keep_units(graph: &MtypeGraph, id: MtypeId) -> Vec<MtypeId> {
    let mut out = Vec::new();
    let mut path = Vec::new();
    flatten_record_into(graph, id, &mut out, &mut path, false);
    out
}

fn flatten_record_into(
    graph: &MtypeGraph,
    id: MtypeId,
    out: &mut Vec<MtypeId>,
    path: &mut Vec<MtypeId>,
    unit_elim: bool,
) {
    let rid = graph.resolve(id);
    match graph.kind(rid) {
        MtypeKind::Record(cs) if !path.contains(&rid) => {
            path.push(rid);
            for &c in cs.clone().iter() {
                flatten_record_into(graph, c, out, path, unit_elim);
            }
            path.pop();
        }
        MtypeKind::Unit if unit_elim => {}
        _ => out.push(id),
    }
}

/// Flattens nested `Choice`s under `id` (associativity of alternatives)
/// and deduplicates identical alternative ids. If `id` is not a Choice
/// it is returned as a singleton. Binder-transparent and cycle-safe like
/// [`flatten_record`].
pub fn flatten_choice(graph: &MtypeGraph, id: MtypeId) -> Vec<MtypeId> {
    let mut out = Vec::new();
    let mut path = Vec::new();
    flatten_choice_into(graph, id, &mut out, &mut path);
    let mut seen = Vec::new();
    out.retain(|c| {
        if seen.contains(c) {
            false
        } else {
            seen.push(*c);
            true
        }
    });
    out
}

fn flatten_choice_into(
    graph: &MtypeGraph,
    id: MtypeId,
    out: &mut Vec<MtypeId>,
    path: &mut Vec<MtypeId>,
) {
    let rid = graph.resolve(id);
    match graph.kind(rid) {
        // Canonical list spines are opaque alternatives: their own
        // Unit/cons choice is the collection's encoding, not a set of
        // alternatives of the enclosing Choice.
        MtypeKind::Choice(cs)
            if !path.contains(&rid)
                && (path.is_empty() || list_element_type(graph, rid).is_none()) =>
        {
            path.push(rid);
            for &c in cs.clone().iter() {
                flatten_choice_into(graph, c, out, path);
            }
            path.pop();
        }
        _ => out.push(id),
    }
}

/// If the (resolved) node is the canonical list shape
/// `Choice(Unit, Record(elem, back))` (paper §3.2, Fig. 8), returns the
/// element type.
pub fn list_element_type(graph: &MtypeGraph, ty: MtypeId) -> Option<MtypeId> {
    let ty = graph.resolve(ty);
    let MtypeKind::Choice(alts) = graph.kind(ty) else {
        return None;
    };
    if alts.len() != 2 {
        return None;
    }
    let (first, second) = (alts[0], alts[1]);
    let cons = if matches!(graph.kind(graph.resolve(first)), MtypeKind::Unit) {
        second
    } else if matches!(graph.kind(graph.resolve(second)), MtypeKind::Unit) {
        first
    } else {
        return None;
    };
    let MtypeKind::Record(cell) = graph.kind(graph.resolve(cons)) else {
        return None;
    };
    if cell.len() != 2 {
        return None;
    }
    if graph.resolve(cell[1]) == ty {
        Some(cell[0])
    } else if graph.resolve(cell[0]) == ty {
        Some(cell[1])
    } else {
        None
    }
}

/// A structural fingerprint of the Mtype rooted at `id`: the hash of its
/// tree unfolding truncated at [`FINGERPRINT_DEPTH`] constructors.
///
/// Equivalent Mtypes (under the full isomorphism rule set — assoc, comm,
/// unit elimination, singleton-choice and unary-record collapse, and
/// *any* placement of recursive binders) receive equal fingerprints; the
/// converse does not hold (deep differences and hash collisions fall
/// through to the comparer's coinduction). Used as a canonical sort key
/// for commutative matching and as a fast rejection filter.
pub fn fingerprint(graph: &MtypeGraph, id: MtypeId) -> u64 {
    FingerprintMemo::default().fingerprint(graph, id)
}

/// A [`fingerprint`] memo that outlives one query: the comparer keeps
/// one per side, so the `(node, depth)` unfoldings of a shared graph are
/// hashed once per comparer instead of once per queried node.
///
/// Every query returns what a fresh [`fingerprint`] returns, in any
/// query order. Only a same-depth edge (a unary record or a singleton
/// choice collapsing into its one child) can lead back to an
/// in-progress `(node, depth)`, and such a node has no other same-depth
/// edge, so the cycle is a plain ring of collapses: every node on it
/// hashes to the cycle constant whichever node the walk entered at.
#[derive(Debug, Default)]
pub struct FingerprintMemo {
    memo: HashMap<(MtypeId, u32), u64>,
    in_progress: Vec<(MtypeId, u32)>,
    flats: HashMap<MtypeId, std::rc::Rc<Vec<MtypeId>>>,
}

impl FingerprintMemo {
    /// The [`fingerprint`] of `id`. Every query on one memo must pass
    /// the same graph.
    pub fn fingerprint(&mut self, graph: &MtypeGraph, id: MtypeId) -> u64 {
        self.fp(graph, id, FINGERPRINT_DEPTH)
    }

    fn flatten(&mut self, graph: &MtypeGraph, id: MtypeId) -> std::rc::Rc<Vec<MtypeId>> {
        self.flats
            .entry(id)
            .or_insert_with(|| std::rc::Rc::new(flatten_record(graph, id)))
            .clone()
    }

    fn fp(&mut self, graph: &MtypeGraph, id: MtypeId, k: u32) -> u64 {
        let id = graph.resolve(id);
        if k == 0 {
            return DEPTH_CUTOFF_HASH;
        }
        if let Some(&h) = self.memo.get(&(id, k)) {
            return h;
        }
        if self.in_progress.contains(&(id, k)) {
            // Only reachable through same-depth transparent collapses
            // (non-contractive shapes); hash as an opaque cycle.
            return CYCLE_HASH;
        }
        self.in_progress.push((id, k));
        let h = match graph.kind(id) {
            MtypeKind::Integer(r) => mix(
                mix(1, r.lo as u64 ^ (r.lo >> 64) as u64),
                r.hi as u64 ^ (r.hi >> 64) as u64,
            ),
            MtypeKind::Character(rep) => {
                let mut h = 2u64;
                for b in format!("{rep}").bytes() {
                    h = mix(h, b as u64);
                }
                h
            }
            MtypeKind::Real(p) => mix(mix(3, p.mantissa_bits as u64), p.exponent_bits as u64),
            MtypeKind::Unit => 4,
            MtypeKind::Dynamic => 5,
            MtypeKind::Record(_) => {
                // Hash the flattened children as an unordered multiset
                // (assoc + comm invariance). An empty record hashes like
                // Unit; a unary record hashes like its child at the same
                // depth (collapse invariance).
                let kids = self.flatten(graph, id);
                match kids.len() {
                    0 => 4,
                    1 => self.fp(graph, kids[0], k),
                    _ => self.multiset(graph, 6, &kids, k - 1),
                }
            }
            MtypeKind::Choice(_) => {
                let kids = flatten_choice(graph, id);
                if kids.len() == 1 {
                    self.fp(graph, kids[0], k)
                } else {
                    self.multiset(graph, 7, &kids, k - 1)
                }
            }
            MtypeKind::Port(p) => mix(8, self.fp(graph, *p, k - 1)),
            MtypeKind::Recursive(_) => unreachable!("resolve() removes binders"),
        };
        self.in_progress.pop();
        self.memo.insert((id, k), h);
        h
    }

    /// The order-independent hash of `kids` at depth `k` under `tag`.
    fn multiset(&mut self, graph: &MtypeGraph, tag: u64, kids: &[MtypeId], k: u32) -> u64 {
        let mut hashes: Vec<u64> = kids.iter().map(|&c| self.fp(graph, c, k)).collect();
        hashes.sort_unstable();
        hashes.into_iter().fold(tag, mix)
    }
}

fn mix(h: u64, v: u64) -> u64 {
    // FNV-style mixing; deterministic across runs and platforms.
    (h ^ v).wrapping_mul(0x100_0000_01b3).rotate_left(17)
}

const DEPTH_CUTOFF_HASH: u64 = 0xD3E9_C07F;
const CYCLE_HASH: u64 = 0xBACC_0ED6;

/// Which isomorphism rules a [`canonical_fingerprint_opts`] run is allowed
/// to normalise away. Mirrors the structural flags of the comparer's
/// `RuleSet`: a normalisation may only be applied when the corresponding
/// rule is on, otherwise two types the rule set *distinguishes* (say,
/// `Record(Int, Real)` vs `Record(Real, Int)` without commutativity)
/// would collide — and a content-addressed cache keyed by the fingerprint
/// would serve the wrong verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CanonOpts {
    /// Flatten nested `Record`s/`Choice`s (associativity).
    pub assoc: bool,
    /// Hash `Record`/`Choice` children as an unordered multiset
    /// (commutativity).
    pub comm: bool,
    /// Drop `Unit` children of flattened `Record`s (only effective
    /// together with `assoc`, matching the comparer's flatten view).
    pub unit_elim: bool,
    /// Collapse single-alternative `Choice`s into their alternative.
    pub singleton_choice: bool,
}

impl CanonOpts {
    /// All normalisations on — matches `RuleSet::full()`.
    pub const fn full() -> Self {
        Self {
            assoc: true,
            comm: true,
            unit_elim: true,
            singleton_choice: true,
        }
    }

    /// No normalisation beyond binder transparency — matches
    /// `RuleSet::strict()`.
    pub const fn strict() -> Self {
        Self {
            assoc: false,
            comm: false,
            unit_elim: false,
            singleton_choice: false,
        }
    }
}

impl Default for CanonOpts {
    fn default() -> Self {
        Self::full()
    }
}

/// A *canonical* fingerprint of the Mtype rooted at `id` under the full
/// isomorphism rule set: a 128-bit hash of the entire (possibly cyclic)
/// structure, identical across graphs and insensitive to provenance
/// labels and arena layout. See [`canonical_fingerprint_opts`].
pub fn canonical_fingerprint(graph: &MtypeGraph, id: MtypeId) -> u128 {
    canonical_fingerprint_opts(graph, id, &CanonOpts::full())
}

/// [`canonical_fingerprint`] relative to an explicit rule-option set.
///
/// Unlike [`fingerprint`], which truncates at [`FINGERPRINT_DEPTH`] and is
/// only a fast *rejection* filter, this hashes the full graph (see
/// [`Canonizer`] for the algorithm), so the result is invariant under
/// arena ids, labels and μ-binder placement. Two types with equal
/// canonical fingerprints under options `O` are equivalent under any rule
/// set whose isomorphism rules include `O` — up to 128-bit hash
/// collisions, which content-addressed consumers accept the same way any
/// content store does.
///
/// Conservative misses are possible and harmless: structurally different
/// cuttings of the same infinite unfolding (when hash-consing did not
/// merge them) hash differently, and disabled options leave
/// rule-sanctioned variants distinct.
pub fn canonical_fingerprint_opts(graph: &MtypeGraph, id: MtypeId, opts: &CanonOpts) -> u128 {
    Canonizer::new(graph, *opts).fingerprint(id)
}

const CTAG_INTEGER: u128 = 0xA11C_E001;
const CTAG_CHARACTER: u128 = 0xA11C_E002;
const CTAG_REAL: u128 = 0xA11C_E003;
const CTAG_UNIT: u128 = 0xA11C_E004;
const CTAG_DYNAMIC: u128 = 0xA11C_E005;
const CTAG_RECORD: u128 = 0xA11C_E006;
const CTAG_CHOICE: u128 = 0xA11C_E007;
const CTAG_PORT: u128 = 0xA11C_E008;
/// Fallback value for references the chase could not ground (only
/// reachable through non-contractive shapes like a cycle made purely of
/// unary records); deterministic, never a soundness hazard.
const CTAG_OPAQUE: u128 = 0xA11C_E00A;

/// Deterministic, platform-independent 128-bit mixing (two 64-bit lanes
/// with cross-lane rotation; not cryptographic, but avalanche enough for
/// content addressing).
fn mix128(h: u128, v: u128) -> u128 {
    const K0: u64 = 0x9E37_79B9_7F4A_7C15;
    const K1: u64 = 0xC2B2_AE3D_27D4_EB4F;
    let a = (h as u64) ^ (v as u64).wrapping_mul(K0);
    let b = ((h >> 64) as u64) ^ ((v >> 64) as u64).wrapping_mul(K1);
    let a2 = (a ^ b.rotate_left(29)).wrapping_mul(K1);
    let b2 = (b ^ a.rotate_left(13)).wrapping_mul(K0);
    ((b2 as u128) << 64) | (a2 as u128)
}

/// A normal-form reference produced by collapse-chasing: either a
/// synthetic `Unit` (an empty record normalised away with nothing left to
/// point at) or a *terminal* node the active options cannot collapse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NfRef {
    Unit,
    Node(MtypeId),
}

/// Incremental canonical-fingerprint engine over one graph.
///
/// The algorithm runs in near-linear time on shared, cyclic graphs
/// (the naive "hash the unfolding" scheme re-expands shared children once
/// per path and is exponential on mutually recursive corpora):
///
/// 1. **Collapse-chase** every node to a terminal: binders are resolved,
///    unary records, singleton choices and empty records are chased
///    through per the active [`CanonOpts`], so rule-collapsible wrappers
///    never contribute to a hash.
/// 2. **Condense** the reachable subgraph into strongly connected
///    components (iterative Tarjan over resolved child edges).
/// 3. Hash SCCs bottom-up. Acyclic nodes hash directly from their
///    children's final fingerprints. A cyclic SCC runs a fixed-point
///    iteration: every member starts from a local signature and is
///    re-hashed `|SCC| + 1` rounds, each round folding in the previous
///    round's member values (and the final values of nodes below the
///    SCC). Bisimilar members of isomorphic SCCs stay equal at every
///    round, so equal types in different arenas get equal fingerprints.
///
/// `Record`/`Choice` children are flattened under associativity with an
/// SCC guard (a nested record in the *same* SCC is a genuine cycle and
/// stays a leaf), sorted under commutativity, and unit-eliminated per the
/// options — mirroring [`flatten_record`]/[`flatten_choice`] which the
/// comparer itself uses.
///
/// The engine is incremental: fingerprints, chases and flattened views
/// are memoised, so fingerprinting many roots of one graph shares all
/// common substructure. The comparer keeps one `Canonizer` per side
/// precisely for that reason.
pub struct Canonizer<'g> {
    graph: &'g MtypeGraph,
    opts: CanonOpts,
    /// Final fingerprints, keyed by resolved node id.
    fps: HashMap<MtypeId, u128>,
    /// Collapse-chase memo, keyed by resolved node id.
    chased: HashMap<MtypeId, NfRef>,
    /// Ids currently being chased (cuts non-contractive chase cycles).
    chasing: Vec<MtypeId>,
    /// Bumped whenever a chase hits the in-progress guard; results
    /// computed under a guard hit are order-dependent and not memoised.
    chase_taint: u64,
    /// SCC index of every resolved node processed so far.
    scc: HashMap<MtypeId, usize>,
    scc_count: usize,
    /// Flattened (or, without assoc, chased) child views of terminals.
    flats: HashMap<MtypeId, std::rc::Rc<Vec<NfRef>>>,
}

impl<'g> Canonizer<'g> {
    /// A fresh engine for `graph` under `opts`. The graph must not change
    /// while the engine is alive (the shared borrow enforces this).
    pub fn new(graph: &'g MtypeGraph, opts: CanonOpts) -> Self {
        Self {
            graph,
            opts,
            fps: HashMap::new(),
            chased: HashMap::new(),
            chasing: Vec::new(),
            chase_taint: 0,
            scc: HashMap::new(),
            scc_count: 0,
            flats: HashMap::new(),
        }
    }

    /// The canonical fingerprint of the type rooted at `id`, computing
    /// (and memoising) fingerprints for everything reachable from it.
    pub fn fingerprint(&mut self, id: MtypeId) -> u128 {
        match self.chase(id) {
            NfRef::Unit => CTAG_UNIT,
            NfRef::Node(t) => {
                if let Some(&h) = self.fps.get(&t) {
                    return h;
                }
                self.compute_from(t);
                self.fps.get(&t).copied().unwrap_or(CTAG_OPAQUE)
            }
        }
    }

    /// Chases `id` through everything the options collapse: binders
    /// (always), unary and empty records (assoc/unit-elim), singleton
    /// choices (singleton-choice, deduplicating alternatives under
    /// assoc). Returns the terminal the hash will be attributed to.
    fn chase(&mut self, id: MtypeId) -> NfRef {
        let rid = self.graph.resolve(id);
        if let Some(&nf) = self.chased.get(&rid) {
            return nf;
        }
        if self.chasing.contains(&rid) {
            // Non-contractive collapse cycle (e.g. mutually unary
            // records): cut it here, do not memoise under a guard hit.
            self.chase_taint += 1;
            return NfRef::Node(rid);
        }
        let taint_before = self.chase_taint;
        let nf = match self.graph.kind(rid) {
            MtypeKind::Record(cs) if self.opts.assoc => {
                let cs = cs.clone();
                self.chasing.push(rid);
                let eff: Vec<MtypeId> = if self.opts.unit_elim {
                    cs.iter()
                        .copied()
                        .filter(|&c| !self.chases_to_unit(c))
                        .collect()
                } else {
                    cs
                };
                let nf = match eff.len() {
                    0 if self.opts.unit_elim => NfRef::Unit,
                    1 => self.chase(eff[0]),
                    _ => NfRef::Node(rid),
                };
                self.chasing.pop();
                nf
            }
            MtypeKind::Choice(cs) if self.opts.singleton_choice => {
                let mut alts: Vec<MtypeId> = cs.iter().map(|&c| self.graph.resolve(c)).collect();
                if self.opts.assoc {
                    let mut seen = Vec::new();
                    alts.retain(|c| {
                        if seen.contains(c) {
                            false
                        } else {
                            seen.push(*c);
                            true
                        }
                    });
                }
                if alts.len() == 1 {
                    self.chasing.push(rid);
                    let nf = self.chase(alts[0]);
                    self.chasing.pop();
                    nf
                } else {
                    NfRef::Node(rid)
                }
            }
            _ => NfRef::Node(rid),
        };
        if self.chase_taint == taint_before {
            self.chased.insert(rid, nf);
        }
        nf
    }

    fn chases_to_unit(&mut self, id: MtypeId) -> bool {
        match self.chase(id) {
            NfRef::Unit => true,
            NfRef::Node(t) => matches!(self.graph.kind(t), MtypeKind::Unit),
        }
    }

    /// Resolved child edges as the condensation sees them (pre-chase:
    /// collapsible wrappers are ordinary pass-through nodes and do not
    /// change which nodes are mutually reachable).
    fn raw_children(&self, v: MtypeId) -> Vec<MtypeId> {
        match self.graph.kind(v) {
            MtypeKind::Record(cs) | MtypeKind::Choice(cs) => {
                cs.iter().map(|&c| self.graph.resolve(c)).collect()
            }
            MtypeKind::Port(p) => vec![self.graph.resolve(*p)],
            _ => Vec::new(),
        }
    }

    /// Iterative Tarjan from `root` over nodes without a final
    /// fingerprint; pops SCCs in dependency order and hashes each as it
    /// completes (previously fingerprinted nodes act as external leaves).
    fn compute_from(&mut self, root: MtypeId) {
        if self.fps.contains_key(&root) {
            return;
        }
        let mut index: HashMap<MtypeId, usize> = HashMap::new();
        let mut low: HashMap<MtypeId, usize> = HashMap::new();
        let mut on_stack: HashMap<MtypeId, ()> = HashMap::new();
        let mut stack: Vec<MtypeId> = Vec::new();
        let mut next_index = 0usize;
        // (node, resolved children, next child to visit)
        let mut frames: Vec<(MtypeId, Vec<MtypeId>, usize)> = Vec::new();

        index.insert(root, next_index);
        low.insert(root, next_index);
        next_index += 1;
        stack.push(root);
        on_stack.insert(root, ());
        frames.push((root, self.raw_children(root), 0));

        enum Step {
            Descend(MtypeId),
            Finish(MtypeId),
        }
        loop {
            let step = {
                let Some(top) = frames.last_mut() else { break };
                if top.2 < top.1.len() {
                    let w = top.1[top.2];
                    top.2 += 1;
                    if self.fps.contains_key(&w) {
                        continue; // finished in an earlier run: a leaf
                    }
                    if let Some(&wi) = index.get(&w) {
                        if on_stack.contains_key(&w) {
                            let v = top.0;
                            if wi < low[&v] {
                                low.insert(v, wi);
                            }
                        }
                        continue;
                    }
                    Step::Descend(w)
                } else {
                    Step::Finish(top.0)
                }
            };
            match step {
                Step::Descend(w) => {
                    index.insert(w, next_index);
                    low.insert(w, next_index);
                    next_index += 1;
                    stack.push(w);
                    on_stack.insert(w, ());
                    frames.push((w, self.raw_children(w), 0));
                }
                Step::Finish(v) => {
                    frames.pop();
                    if low[&v] == index[&v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("Tarjan stack underflow");
                            on_stack.remove(&w);
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        self.finish_scc(comp);
                    }
                    if let Some(parent) = frames.last() {
                        let pv = parent.0;
                        if low[&v] < low[&pv] {
                            let lv = low[&v];
                            low.insert(pv, lv);
                        }
                    }
                }
            }
        }
    }

    /// Hashes one completed SCC. Everything below it already has final
    /// fingerprints; members of a cyclic SCC are iterated to a fixed
    /// point together.
    fn finish_scc(&mut self, comp: Vec<MtypeId>) {
        let scc_id = self.scc_count;
        self.scc_count += 1;
        for &m in &comp {
            self.scc.insert(m, scc_id);
        }
        // Only terminals get fingerprints; collapsed wrappers chase to
        // their terminal and never appear as hash inputs.
        let terms: Vec<MtypeId> = comp
            .iter()
            .copied()
            .filter(|&m| self.chase(m) == NfRef::Node(m))
            .collect();
        if terms.is_empty() {
            return;
        }
        let cyclic = comp.len() > 1 || self.raw_children(comp[0]).contains(&comp[0]);
        if !cyclic {
            let t = terms[0];
            let v = self.node_value(t);
            self.fps.insert(t, v);
            return;
        }
        // Compile each member's hashing recipe once — child slots are
        // either final fingerprints (below the SCC) or positions of
        // fellow members — so the fixed-point rounds run over plain
        // vectors with no map lookups.
        enum Slot {
            Fixed(u128),
            Member(usize),
        }
        enum Recipe {
            Port(Slot),
            Kids { tag: u128, slots: Vec<Slot> },
        }
        let pos: HashMap<MtypeId, usize> = terms.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let compile = |this: &mut Self, nf: NfRef| match nf {
            NfRef::Unit => Slot::Fixed(CTAG_UNIT),
            NfRef::Node(x) => match this.fps.get(&x) {
                Some(&h) => Slot::Fixed(h),
                None => match pos.get(&x) {
                    Some(&i) => Slot::Member(i),
                    None => Slot::Fixed(CTAG_OPAQUE),
                },
            },
        };
        let recipes: Vec<Recipe> = terms
            .iter()
            .map(|&t| match self.graph.kind(t) {
                MtypeKind::Port(p) => {
                    let c = self.chase(*p);
                    Recipe::Port(compile(self, c))
                }
                MtypeKind::Record(_) => {
                    let kids = self.kids(t);
                    Recipe::Kids {
                        tag: CTAG_RECORD,
                        slots: kids.iter().map(|&k| compile(self, k)).collect(),
                    }
                }
                MtypeKind::Choice(_) => {
                    let kids = self.kids(t);
                    Recipe::Kids {
                        tag: CTAG_CHOICE,
                        slots: kids.iter().map(|&k| compile(self, k)).collect(),
                    }
                }
                // Childless kinds are never part of a cycle.
                _ => Recipe::Kids {
                    tag: self.node_value(t),
                    slots: Vec::new(),
                },
            })
            .collect();
        let slot_val = |s: &Slot, cur: &[u128]| match *s {
            Slot::Fixed(h) => h,
            Slot::Member(i) => cur[i],
        };
        let mut cur: Vec<u128> = terms.iter().map(|&t| self.sig(t)).collect();
        let mut next = vec![0u128; terms.len()];
        let mut vals: Vec<u128> = Vec::new();
        // |terms| + 1 rounds: partition refinement over the SCC settles
        // within |terms| rounds; folding the previous value into the next
        // (`mix128(cur, …)`) keeps separations monotone.
        for _ in 0..terms.len() + 1 {
            for (i, r) in recipes.iter().enumerate() {
                let v = match r {
                    Recipe::Port(s) => mix128(CTAG_PORT, slot_val(s, &cur)),
                    Recipe::Kids { tag, slots } => {
                        vals.clear();
                        vals.extend(slots.iter().map(|s| slot_val(s, &cur)));
                        if self.opts.comm {
                            vals.sort_unstable();
                        }
                        let mut h = mix128(*tag, slots.len() as u128);
                        for &x in &vals {
                            h = mix128(h, x);
                        }
                        h
                    }
                };
                next[i] = mix128(cur[i], v);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        for (i, &t) in terms.iter().enumerate() {
            self.fps.insert(t, cur[i]);
        }
    }

    /// The zeroth fixed-point approximation: a child-free local
    /// signature. Scalars use their final value outright.
    fn sig(&mut self, t: MtypeId) -> u128 {
        match self.graph.kind(t) {
            MtypeKind::Record(_) => mix128(CTAG_RECORD, self.kids(t).len() as u128),
            MtypeKind::Choice(_) => mix128(CTAG_CHOICE, self.kids(t).len() as u128),
            MtypeKind::Port(_) => CTAG_PORT,
            _ => self.node_value(t),
        }
    }

    /// The flattened (assoc) or chased (no assoc) child view of a
    /// terminal `Record`/`Choice`, memoised.
    fn kids(&mut self, t: MtypeId) -> std::rc::Rc<Vec<NfRef>> {
        if let Some(k) = self.flats.get(&t) {
            return k.clone();
        }
        let k = match self.graph.kind(t) {
            MtypeKind::Record(cs) => {
                if self.opts.assoc {
                    return self.flat_record(t);
                }
                let cs = cs.clone();
                std::rc::Rc::new(cs.iter().map(|&c| self.chase(c)).collect::<Vec<_>>())
            }
            MtypeKind::Choice(cs) => {
                if self.opts.assoc {
                    return self.flat_choice(t);
                }
                let cs = cs.clone();
                std::rc::Rc::new(cs.iter().map(|&c| self.chase(c)).collect::<Vec<_>>())
            }
            _ => unreachable!("kids() is only called on Records and Choices"),
        };
        self.flats.insert(t, k.clone());
        k
    }

    /// Associative record flattening with an SCC guard: a nested record
    /// in a *different* SCC is spliced in (it sits strictly below in the
    /// condensation, so this terminates); one in the same SCC is a
    /// genuine cycle and stays a leaf. Unit children drop per the
    /// options. Mirrors [`flatten_record`]'s path-guard view.
    fn flat_record(&mut self, m: MtypeId) -> std::rc::Rc<Vec<NfRef>> {
        if let Some(k) = self.flats.get(&m) {
            return k.clone();
        }
        let MtypeKind::Record(cs) = self.graph.kind(m) else {
            unreachable!("flat_record on a non-Record");
        };
        let cs = cs.clone();
        let mut out: Vec<NfRef> = Vec::with_capacity(cs.len());
        for &c in &cs {
            match self.chase(c) {
                NfRef::Unit => {
                    if !self.opts.unit_elim {
                        out.push(NfRef::Unit);
                    }
                }
                NfRef::Node(t) => {
                    if self.opts.unit_elim && matches!(self.graph.kind(t), MtypeKind::Unit) {
                        continue;
                    }
                    if matches!(self.graph.kind(t), MtypeKind::Record(_))
                        && self.scc.get(&t) != self.scc.get(&m)
                    {
                        let inner = self.flat_record(t);
                        out.extend(inner.iter().copied());
                    } else {
                        out.push(NfRef::Node(t));
                    }
                }
            }
        }
        let k = std::rc::Rc::new(out);
        self.flats.insert(m, k.clone());
        k
    }

    /// Associative choice flattening (same SCC guard as
    /// [`Self::flat_record`]); canonical list spines stay opaque
    /// alternatives and alternatives are deduplicated.
    fn flat_choice(&mut self, m: MtypeId) -> std::rc::Rc<Vec<NfRef>> {
        if let Some(k) = self.flats.get(&m) {
            return k.clone();
        }
        let MtypeKind::Choice(cs) = self.graph.kind(m) else {
            unreachable!("flat_choice on a non-Choice");
        };
        let cs = cs.clone();
        let mut out: Vec<NfRef> = Vec::with_capacity(cs.len());
        for &c in &cs {
            match self.chase(c) {
                NfRef::Unit => out.push(NfRef::Unit),
                NfRef::Node(t) => {
                    if matches!(self.graph.kind(t), MtypeKind::Choice(_))
                        && self.scc.get(&t) != self.scc.get(&m)
                        && list_element_type(self.graph, t).is_none()
                    {
                        let inner = self.flat_choice(t);
                        out.extend(inner.iter().copied());
                    } else {
                        out.push(NfRef::Node(t));
                    }
                }
            }
        }
        let mut seen: Vec<NfRef> = Vec::new();
        out.retain(|r| {
            if seen.contains(r) {
                false
            } else {
                seen.push(*r);
                true
            }
        });
        let k = std::rc::Rc::new(out);
        self.flats.insert(m, k.clone());
        k
    }

    /// Hashes one acyclic terminal from its children's final
    /// fingerprints (cyclic SCCs compile recipes instead — see
    /// [`Self::finish_scc`]).
    fn node_value(&mut self, t: MtypeId) -> u128 {
        match self.graph.kind(t) {
            MtypeKind::Integer(r) => mix128(mix128(CTAG_INTEGER, r.lo as u128), r.hi as u128),
            MtypeKind::Character(rep) => {
                let mut h = CTAG_CHARACTER;
                for b in format!("{rep}").bytes() {
                    h = mix128(h, u128::from(b));
                }
                h
            }
            MtypeKind::Real(p) => mix128(
                mix128(CTAG_REAL, u128::from(p.mantissa_bits)),
                u128::from(p.exponent_bits),
            ),
            MtypeKind::Unit => CTAG_UNIT,
            MtypeKind::Dynamic => CTAG_DYNAMIC,
            MtypeKind::Port(p) => {
                let c = self.chase(*p);
                let v = self.refval(c);
                mix128(CTAG_PORT, v)
            }
            MtypeKind::Record(_) => {
                let kids = self.kids(t);
                self.kids_value(CTAG_RECORD, &kids)
            }
            MtypeKind::Choice(_) => {
                let kids = self.kids(t);
                self.kids_value(CTAG_CHOICE, &kids)
            }
            MtypeKind::Recursive(_) => unreachable!("resolve() removes binders"),
        }
    }

    fn kids_value(&mut self, tag: u128, kids: &[NfRef]) -> u128 {
        let mut vals: Vec<u128> = kids.iter().map(|&k| self.refval(k)).collect();
        if self.opts.comm {
            vals.sort_unstable();
        }
        let mut h = mix128(tag, kids.len() as u128);
        for v in vals {
            h = mix128(h, v);
        }
        h
    }

    fn refval(&self, nf: NfRef) -> u128 {
        match nf {
            NfRef::Unit => CTAG_UNIT,
            NfRef::Node(t) => self.fps.get(&t).copied().unwrap_or(CTAG_OPAQUE),
        }
    }
}

/// Per-kind node counts for the Mtype reachable from `root`; used by
/// mismatch diagnostics ("left has 3 Reals, right has 4").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MtypeSummary {
    /// Count of `Integer` nodes reachable.
    pub integers: usize,
    /// Count of `Character` nodes reachable.
    pub characters: usize,
    /// Count of `Real` nodes reachable.
    pub reals: usize,
    /// Count of `Unit` nodes reachable.
    pub units: usize,
    /// Count of `Record` nodes reachable.
    pub records: usize,
    /// Count of `Choice` nodes reachable.
    pub choices: usize,
    /// Count of `Recursive` binders reachable.
    pub recursives: usize,
    /// Count of `Port` nodes reachable.
    pub ports: usize,
    /// Count of `Dynamic` nodes reachable.
    pub dynamics: usize,
}

impl MtypeSummary {
    /// Computes the summary of the Mtype reachable from `root`.
    pub fn of(graph: &MtypeGraph, root: MtypeId) -> Self {
        let mut s = MtypeSummary::default();
        for id in graph.reachable(root) {
            match graph.kind(id) {
                MtypeKind::Integer(_) => s.integers += 1,
                MtypeKind::Character(_) => s.characters += 1,
                MtypeKind::Real(_) => s.reals += 1,
                MtypeKind::Unit => s.units += 1,
                MtypeKind::Record(_) => s.records += 1,
                MtypeKind::Choice(_) => s.choices += 1,
                MtypeKind::Recursive(_) => s.recursives += 1,
                MtypeKind::Port(_) => s.ports += 1,
                MtypeKind::Dynamic => s.dynamics += 1,
            }
        }
        s
    }

    /// Total number of reachable nodes counted.
    pub fn total(&self) -> usize {
        self.integers
            + self.characters
            + self.reals
            + self.units
            + self.records
            + self.choices
            + self.recursives
            + self.ports
            + self.dynamics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::{IntRange, RealPrecision, Repertoire};

    #[test]
    fn flatten_is_identity_on_flat_records() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::boolean());
        let r = g.record(vec![i, i]);
        assert_eq!(flatten_record(&g, r), vec![i, i]);
        assert_eq!(flatten_record(&g, i), vec![i]);
    }

    #[test]
    fn flatten_removes_units_entirely() {
        let mut g = MtypeGraph::new();
        let u = g.unit();
        let r = g.record(vec![u, u]);
        assert!(flatten_record(&g, r).is_empty());
        assert_eq!(flatten_record_keep_units(&g, r).len(), 2);
    }

    #[test]
    fn flatten_stops_at_list_spines() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::boolean());
        let list = g.list_of(i);
        let r = g.record(vec![i, list]);
        // The list resolves to a Choice (not a Record), so it is a leaf.
        assert_eq!(flatten_record(&g, r), vec![i, list]);
    }

    #[test]
    fn flatten_resolves_through_binders() {
        // A binder wrapping a Record is transparent for flattening.
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::boolean());
        let r = g.real(RealPrecision::SINGLE);
        let inner = g.record(vec![i, r]);
        let wrapped = g.recursive(|_, _| inner);
        let outer = g.record(vec![i, wrapped]);
        assert_eq!(flatten_record(&g, outer), vec![i, i, r]);
    }

    #[test]
    fn flatten_keeps_genuine_cycles_as_leaves() {
        // Rec X. Record(Int, X): flattening X's body must not loop.
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::boolean());
        let rec = g.recursive(|g, me| g.record(vec![i, me]));
        let flat = flatten_record(&g, rec);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat[0], i);
        // The cycle leaf resolves back to the record body.
        assert_eq!(g.resolve(flat[1]), g.resolve(rec));
    }

    #[test]
    fn flatten_choice_dedupes() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::boolean());
        let c1 = g.choice(vec![i, i]);
        assert_eq!(flatten_choice(&g, c1), vec![i]);
        let u = g.unit();
        let c2 = g.choice(vec![c1, u]);
        assert_eq!(flatten_choice(&g, c2), vec![i, u]);
    }

    #[test]
    fn fingerprint_invariant_under_assoc_comm() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let r = g.real(RealPrecision::SINGLE);
        let c = g.character(Repertoire::Unicode);
        let inner = g.record(vec![r, c]);
        let nested = g.record(vec![i, inner]);
        let flat = g.record(vec![c, r, i]);
        assert_eq!(fingerprint(&g, nested), fingerprint(&g, flat));
        let different = g.record(vec![c, r]);
        assert_ne!(fingerprint(&g, nested), fingerprint(&g, different));
    }

    #[test]
    fn fingerprint_alpha_invariant_for_cycles() {
        let mut g1 = MtypeGraph::new();
        let r1 = g1.real(RealPrecision::SINGLE);
        let l1 = g1.list_of(r1);

        let mut g2 = MtypeGraph::new();
        // Same type built with padding nodes first, so arena ids differ.
        let _pad = g2.integer(IntRange::boolean());
        let r2 = g2.real(RealPrecision::SINGLE);
        let l2 = g2.list_of(r2);

        assert_eq!(fingerprint(&g1, l1), fingerprint(&g2, l2));
    }

    #[test]
    fn shared_memo_agrees_with_fresh_walks_on_collapse_cycles() {
        // A non-contractive cycle (a unary record and a singleton choice
        // collapsing into each other) meets in-progress nodes; a shared
        // memo must still answer every query as a fresh walk does.
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(8));
        let r = g.real(RealPrecision::DOUBLE);
        let a = g.recursive(|g, me| {
            let c = g.choice(vec![me]);
            g.record(vec![c])
        });
        let pair = g.record(vec![i, a]);
        let wide = g.record(vec![r, pair, a]);
        let ids = g.reachable(wide);
        let fresh: Vec<u64> = ids.iter().map(|&id| fingerprint(&g, id)).collect();
        for order in [ids.clone(), ids.iter().rev().copied().collect()] {
            let mut memo = FingerprintMemo::default();
            for id in order {
                let k = ids.iter().position(|&x| x == id).unwrap();
                assert_eq!(memo.fingerprint(&g, id), fresh[k], "node {id:?}");
            }
        }
    }

    #[test]
    fn fingerprint_invariant_under_binder_placement() {
        // Mutually recursive A = Record(Int, B), B = Record(Real, A),
        // built twice with the μ-binder on A first, then on B first.
        let build = |binder_on_a: bool| -> (MtypeGraph, MtypeId) {
            let mut g = MtypeGraph::new();
            let i = g.integer(IntRange::signed_bits(32));
            let r = g.real(RealPrecision::SINGLE);
            if binder_on_a {
                let a = g.recursive(|g, me_a| {
                    let b = g.record(vec![r, me_a]);
                    g.record(vec![i, b])
                });
                (g, a)
            } else {
                let b = g.recursive(|g, me_b| {
                    let a = g.record(vec![i, me_b]);
                    g.record(vec![r, a])
                });
                // A = Record(Int, B).
                let a = g.record(vec![i, b]);
                (g, a)
            }
        };
        let (g1, a1) = build(true);
        let (g2, a2) = build(false);
        assert_eq!(
            fingerprint(&g1, a1),
            fingerprint(&g2, a2),
            "fingerprints must not depend on where lowering cut the cycle"
        );
    }

    #[test]
    fn fingerprint_distinguishes_element_types() {
        let mut g = MtypeGraph::new();
        let r = g.real(RealPrecision::SINGLE);
        let d = g.real(RealPrecision::DOUBLE);
        let lr = g.list_of(r);
        let ld = g.list_of(d);
        assert_ne!(fingerprint(&g, lr), fingerprint(&g, ld));
    }

    #[test]
    fn transparent_binder_hashes_like_body() {
        // Rec X. Int (X unused) fingerprints like plain Int.
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::boolean());
        let rec = g.recursive(|_, _| i);
        assert_eq!(fingerprint(&g, rec), fingerprint(&g, i));
    }

    #[test]
    fn unary_and_empty_collapse_invariance() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::boolean());
        let unary = g.record(vec![i]);
        assert_eq!(fingerprint(&g, unary), fingerprint(&g, i));
        let u = g.unit();
        let empty = g.record(vec![]);
        assert_eq!(fingerprint(&g, empty), fingerprint(&g, u));
        let single_choice = g.choice(vec![i]);
        assert_eq!(fingerprint(&g, single_choice), fingerprint(&g, i));
    }

    #[test]
    fn canonical_fp_is_label_insensitive_and_cross_graph_stable() {
        let mut g1 = MtypeGraph::new();
        let r1 = g1.real(RealPrecision::SINGLE);
        let p1 = g1.record(vec![r1, r1]);
        g1.set_label(p1, "Point");

        let mut g2 = MtypeGraph::new();
        let _pad = g2.integer(IntRange::boolean()); // shift arena ids
        let r2 = g2.real(RealPrecision::SINGLE);
        let p2 = g2.record(vec![r2, r2]);
        // No label at all on the second graph.
        assert_eq!(
            canonical_fingerprint(&g1, p1),
            canonical_fingerprint(&g2, p2)
        );
    }

    #[test]
    fn canonical_fp_sees_past_the_fingerprint_cutoff() {
        // A chain of Ports deeper than FINGERPRINT_DEPTH: the bounded
        // fingerprint truncates and collides, the canonical one must not.
        let build = |g: &mut MtypeGraph, leaf: MtypeId| -> MtypeId {
            let mut cur = leaf;
            for _ in 0..(FINGERPRINT_DEPTH + 4) {
                cur = g.port(cur);
            }
            cur
        };
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let r = g.real(RealPrecision::SINGLE);
        let deep_i = build(&mut g, i);
        let deep_r = build(&mut g, r);
        assert_eq!(fingerprint(&g, deep_i), fingerprint(&g, deep_r));
        assert_ne!(
            canonical_fingerprint(&g, deep_i),
            canonical_fingerprint(&g, deep_r)
        );
    }

    #[test]
    fn canonical_fp_full_opts_match_iso_rules() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let r = g.real(RealPrecision::SINGLE);
        let c = g.character(Repertoire::Unicode);
        let inner = g.record(vec![r, c]);
        let nested = g.record(vec![i, inner]);
        let flat = g.record(vec![c, r, i]);
        assert_eq!(
            canonical_fingerprint(&g, nested),
            canonical_fingerprint(&g, flat)
        );
        let unary = g.record(vec![i]);
        assert_eq!(
            canonical_fingerprint(&g, unary),
            canonical_fingerprint(&g, i)
        );
        let single = g.choice(vec![i]);
        assert_eq!(
            canonical_fingerprint(&g, single),
            canonical_fingerprint(&g, i)
        );
        let u = g.unit();
        let empty = g.record(vec![]);
        assert_eq!(
            canonical_fingerprint(&g, empty),
            canonical_fingerprint(&g, u)
        );
    }

    #[test]
    fn canonical_fp_strict_opts_stay_order_sensitive() {
        // Without commutativity Record(Int, Real) and Record(Real, Int)
        // are distinguished by the comparer, so the strict fingerprint
        // must keep them apart — a collision here would poison any
        // verdict cache keyed by the fingerprint.
        let strict = CanonOpts::strict();
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let r = g.real(RealPrecision::SINGLE);
        let ir = g.record(vec![i, r]);
        let ri = g.record(vec![r, i]);
        assert_ne!(
            canonical_fingerprint_opts(&g, ir, &strict),
            canonical_fingerprint_opts(&g, ri, &strict)
        );
        assert_eq!(
            canonical_fingerprint(&g, ir),
            canonical_fingerprint(&g, ri),
            "comm rule on: same fingerprint"
        );
        // Strict opts also keep singleton choices and unary records.
        let single = g.choice(vec![i]);
        assert_ne!(
            canonical_fingerprint_opts(&g, single, &strict),
            canonical_fingerprint_opts(&g, i, &strict)
        );
        // But identical shapes still agree cross-graph.
        let mut h = MtypeGraph::new();
        let hi = h.integer(IntRange::signed_bits(32));
        let hr = h.real(RealPrecision::SINGLE);
        let hir = h.record(vec![hi, hr]);
        assert_eq!(
            canonical_fingerprint_opts(&g, ir, &strict),
            canonical_fingerprint_opts(&h, hir, &strict)
        );
    }

    #[test]
    fn canonical_fp_handles_cycles_and_binder_placement() {
        let mut g1 = MtypeGraph::new();
        let r1 = g1.real(RealPrecision::SINGLE);
        let l1 = g1.list_of(r1);
        let mut g2 = MtypeGraph::new();
        let r2 = g2.real(RealPrecision::SINGLE);
        let l2 = g2.list_of(r2);
        assert_eq!(
            canonical_fingerprint(&g1, l1),
            canonical_fingerprint(&g2, l2)
        );
        let d2 = g2.real(RealPrecision::DOUBLE);
        let ld = g2.list_of(d2);
        assert_ne!(
            canonical_fingerprint(&g2, l2),
            canonical_fingerprint(&g2, ld)
        );

        // Mutually recursive pair cut at different points (see the
        // bounded-fingerprint test of the same name).
        let build = |binder_on_a: bool| -> (MtypeGraph, MtypeId) {
            let mut g = MtypeGraph::new();
            let i = g.integer(IntRange::signed_bits(32));
            let r = g.real(RealPrecision::SINGLE);
            if binder_on_a {
                let a = g.recursive(|g, me_a| {
                    let b = g.record(vec![r, me_a]);
                    g.record(vec![i, b])
                });
                (g, a)
            } else {
                let b = g.recursive(|g, me_b| {
                    let a = g.record(vec![i, me_b]);
                    g.record(vec![r, a])
                });
                let a = g.record(vec![i, b]);
                (g, a)
            }
        };
        let (ga, aa) = build(true);
        let (gb, ab) = build(false);
        assert_eq!(
            canonical_fingerprint(&ga, aa),
            canonical_fingerprint(&gb, ab)
        );
    }

    #[test]
    fn summary_counts() {
        let mut g = MtypeGraph::new();
        let r = g.real(RealPrecision::SINGLE);
        let point = g.record(vec![r, r]);
        let list = g.list_of(point);
        let s = MtypeSummary::of(&g, list);
        assert_eq!(s.reals, 1); // hash-consed single Real node
        assert_eq!(s.records, 2); // point + cons cell
        assert_eq!(s.recursives, 1);
        assert_eq!(s.choices, 1);
        assert_eq!(s.units, 1);
        assert_eq!(s.total(), 6);
    }
}
