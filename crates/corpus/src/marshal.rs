//! Canonical fixtures for the fused/native data plane.
//!
//! The X11 marshal experiment, `mbc emit-stubs`, and the three-way
//! differential property suite must all agree on the *same* type pairs:
//! native stubs are compiled into binaries ahead of time and resolved by
//! layout fingerprint, so every consumer has to reconstruct the exact
//! corpus the emitter saw. These constructors are that single source of
//! truth — all deterministic, all seed-pinned.

use std::sync::Arc;

use mockingbird_mtype::{IntRange, MtypeGraph, MtypeId, RealPrecision, Repertoire};
use mockingbird_rng::StdRng;

use crate::random::{isomorphic_variant, random_mtype};

/// The X11 marshal corpus: `classes` random message Mtypes and their
/// comm/assoc-permuted isomorphic variants, imported into one shared
/// graph. The returned RNG continues the deterministic stream, so value
/// sampling that follows corpus construction replays identically
/// everywhere (`report x11`, `mbc emit-stubs`).
pub struct MarshalCorpus {
    /// Frozen shared graph holding both sides of every pair.
    pub graph: Arc<MtypeGraph>,
    /// `(left, right)` roots, in generation order.
    pub pairs: Vec<(MtypeId, MtypeId)>,
    /// The RNG state after corpus construction.
    pub rng: StdRng,
}

/// Builds the marshal corpus for `classes` classes under `seed`
/// (X11 pins `classes = 200`, `seed = 42`).
#[must_use]
pub fn marshal_corpus(classes: usize, seed: u64) -> MarshalCorpus {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = MtypeGraph::new();
    let mut pairs = Vec::with_capacity(classes);
    for _ in 0..classes {
        let mut scratch = MtypeGraph::new();
        let ty = random_mtype(&mut scratch, &mut rng, 3);
        let left = g.import(&scratch, ty);
        let right = isomorphic_variant(&scratch, ty, &mut g);
        pairs.push((left, right));
    }
    MarshalCorpus {
        graph: g.snapshot(),
        pairs,
        rng,
    }
}

/// One pair of the 64-seed differential property stream: a random Mtype
/// under `seed` and its isomorphic variant, each in its own graph (the
/// shape the fused-program property suite has always used). The
/// returned RNG continues the stream for value sampling.
#[must_use]
pub fn property_pair(seed: u64) -> (MtypeGraph, MtypeGraph, MtypeId, MtypeId, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = MtypeGraph::new();
    let ty = random_mtype(&mut g, &mut rng, 3);
    let mut h = MtypeGraph::new();
    let var = isomorphic_variant(&g, ty, &mut h);
    (g, h, ty, var, rng)
}

/// A deliberately choice-heavy pair: nested choices on both sides, with
/// the right side flattened relative to the left (exercising the
/// dispatch-tree arms of the compiled and emitted code).
#[must_use]
pub fn choice_heavy_pair() -> (MtypeGraph, MtypeGraph, MtypeId, MtypeId) {
    let mut g = MtypeGraph::new();
    let i = g.integer(IntRange::signed_bits(32));
    let r = g.real(RealPrecision::DOUBLE);
    let c = g.character(Repertoire::Ascii);
    let b = g.integer(IntRange::boolean());
    let inner = g.choice(vec![i, r]);
    let rec = g.record(vec![b, c]);
    let ty = g.choice(vec![inner, rec, c]);
    let mut h = MtypeGraph::new();
    let var = isomorphic_variant(&g, ty, &mut h);
    (g, h, ty, var)
}

/// A recursive list-of-self pair (`T = list(T)`): values nest
/// arbitrarily deep, so both the opcode VM and emitted native code hit
/// the shared depth bound on hostile inputs — the property suite checks
/// they fail *identically*.
#[must_use]
pub fn deep_list_pair() -> (MtypeGraph, MtypeGraph, MtypeId, MtypeId) {
    let mut g = MtypeGraph::new();
    let ty = g.recursive(|g, me| g.list_of(me));
    let mut h = MtypeGraph::new();
    let var = isomorphic_variant(&g, ty, &mut h);
    (g, h, ty, var)
}

/// The paper's fitter pair at the Mtype level, in one shared graph:
/// Java-style `(list) -> (line)` on the left, C-style
/// `(list) -> (point, point)` on the right. `mbc emit-stubs` compiles
/// its invocation/result programs into native stubs; `RemoteStub`
/// resolves them back by layout fingerprint.
pub fn fitter_pair(g: &mut MtypeGraph) -> (MtypeId, MtypeId) {
    let r = g.real(RealPrecision::SINGLE);
    let point = g.record(vec![r, r]);
    let line = g.record(vec![point, point]);
    let jlist = g.list_of(point);
    let java = g.function(vec![jlist], vec![line]);
    let clist = g.list_of(point);
    let cfun = g.function(vec![clist], vec![point, point]);
    (java, cfun)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marshal_corpus_is_deterministic() {
        let a = marshal_corpus(8, 42);
        let b = marshal_corpus(8, 42);
        assert_eq!(a.pairs.len(), 8);
        for (&(al, ar), &(bl, br)) in a.pairs.iter().zip(&b.pairs) {
            assert_eq!(
                a.graph.display(al).to_string(),
                b.graph.display(bl).to_string()
            );
            assert_eq!(
                a.graph.display(ar).to_string(),
                b.graph.display(br).to_string()
            );
        }
    }

    #[test]
    fn property_pairs_are_isomorphic() {
        use mockingbird_comparer::Comparer;
        for seed in 0..4 {
            let (g, h, ty, var, _) = property_pair(seed);
            assert!(Comparer::new(&g, &h).equivalent(ty, var), "seed {seed}");
        }
        let (g, h, ty, var) = choice_heavy_pair();
        assert!(Comparer::new(&g, &h).equivalent(ty, var));
        let (g, h, ty, var) = deep_list_pair();
        assert!(Comparer::new(&g, &h).equivalent(ty, var));
    }
}
