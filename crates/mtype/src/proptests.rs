//! Property-style tests over randomly generated Mtype graphs.
//!
//! Each property runs against a deterministic stream of random type
//! recipes (seeded [`StdRng`]), so failures reproduce exactly while the
//! coverage stays property-shaped.

use mockingbird_rng::StdRng;

use crate::canon::{fingerprint, flatten_choice, flatten_record, FingerprintMemo};
use crate::graph::{MtypeGraph, MtypeId};
use crate::kind::{IntRange, MtypeKind, RealPrecision, Repertoire};

/// A recipe for building an Mtype in a fresh graph; the RNG generates
/// recipes, we materialise them.
#[derive(Debug, Clone)]
pub(crate) enum Recipe {
    Int(u32),
    Char(u8),
    Real(bool),
    Unit,
    Record(Vec<Recipe>),
    Choice(Vec<Recipe>),
    List(Box<Recipe>),
    Port(Box<Recipe>),
}

pub(crate) fn build(g: &mut MtypeGraph, r: &Recipe) -> MtypeId {
    match r {
        Recipe::Int(bits) => g.integer(IntRange::signed_bits(bits % 63 + 1)),
        Recipe::Char(sel) => g.character(match sel % 3 {
            0 => Repertoire::Ascii,
            1 => Repertoire::Latin1,
            _ => Repertoire::Unicode,
        }),
        Recipe::Real(double) => g.real(if *double {
            RealPrecision::DOUBLE
        } else {
            RealPrecision::SINGLE
        }),
        Recipe::Unit => g.unit(),
        Recipe::Record(cs) => {
            let kids = cs.iter().map(|c| build(g, c)).collect();
            g.record(kids)
        }
        Recipe::Choice(cs) => {
            let kids = cs.iter().map(|c| build(g, c)).collect();
            g.choice(kids)
        }
        Recipe::List(e) => {
            let elem = build(g, e);
            g.list_of(elem)
        }
        Recipe::Port(e) => {
            let payload = build(g, e);
            g.port(payload)
        }
    }
}

fn random_leaf(rng: &mut StdRng) -> Recipe {
    match rng.gen_range(0..4) {
        0 => Recipe::Int(rng.gen_range(0..u32::MAX)),
        1 => Recipe::Char(rng.gen_range(0u8..=255)),
        2 => Recipe::Real(rng.gen_bool(0.5)),
        _ => Recipe::Unit,
    }
}

pub(crate) fn random_recipe(rng: &mut StdRng, depth: usize) -> Recipe {
    if depth == 0 {
        return random_leaf(rng);
    }
    match rng.gen_range(0..5) {
        0 => {
            let n = rng.gen_range(0..4);
            Recipe::Record((0..n).map(|_| random_recipe(rng, depth - 1)).collect())
        }
        1 => {
            let n = rng.gen_range(1..4);
            Recipe::Choice((0..n).map(|_| random_recipe(rng, depth - 1)).collect())
        }
        2 => Recipe::List(Box::new(random_recipe(rng, depth - 1))),
        3 => Recipe::Port(Box::new(random_recipe(rng, depth - 1))),
        _ => random_leaf(rng),
    }
}

/// Runs `prop` against `cases` random recipes; each case is seeded by its
/// index so a counterexample replays exactly.
fn for_recipes(cases: u64, mut prop: impl FnMut(&Recipe)) {
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = rng.gen_range(1usize..=4);
        let recipe = random_recipe(&mut rng, depth);
        prop(&recipe);
    }
}

#[test]
fn generated_graphs_validate() {
    for_recipes(128, |recipe| {
        let mut g = MtypeGraph::new();
        let root = build(&mut g, recipe);
        assert!(g.validate().is_ok(), "invalid graph for {recipe:?}");
        assert!(root.index() < g.len());
    });
}

#[test]
fn fingerprint_is_deterministic() {
    for_recipes(128, |recipe| {
        let mut g1 = MtypeGraph::new();
        let r1 = build(&mut g1, recipe);
        let mut g2 = MtypeGraph::new();
        // Pad g2 so arena indices differ.
        let _ = g2.integer(IntRange::signed_bits(63));
        let _ = g2.unit();
        let r2 = build(&mut g2, recipe);
        assert_eq!(fingerprint(&g1, r1), fingerprint(&g2, r2), "for {recipe:?}");
    });
}

#[test]
fn import_preserves_fingerprint() {
    for_recipes(128, |recipe| {
        let mut g = MtypeGraph::new();
        let root = build(&mut g, recipe);
        let mut h = MtypeGraph::new();
        let copied = h.import(&g, root);
        assert!(h.validate().is_ok());
        assert_eq!(
            fingerprint(&g, root),
            fingerprint(&h, copied),
            "for {recipe:?}"
        );
    });
}

#[test]
fn flattened_records_contain_no_records_or_units() {
    for_recipes(128, |recipe| {
        let mut g = MtypeGraph::new();
        let root = build(&mut g, recipe);
        for id in g.reachable(root) {
            if matches!(g.kind(id), MtypeKind::Record(_)) {
                for c in flatten_record(&g, id) {
                    assert!(!matches!(g.kind(c), MtypeKind::Record(_) | MtypeKind::Unit));
                }
            }
        }
    });
}

#[test]
fn flattened_choices_contain_no_choices() {
    for_recipes(128, |recipe| {
        let mut g = MtypeGraph::new();
        let root = build(&mut g, recipe);
        for id in g.reachable(root) {
            if matches!(g.kind(id), MtypeKind::Choice(_)) {
                let flat = flatten_choice(&g, id);
                assert!(!flat.is_empty());
                for c in &flat {
                    assert!(!matches!(g.kind(*c), MtypeKind::Choice(_)));
                }
                // Deduped: all ids distinct.
                let mut sorted = flat.clone();
                sorted.sort();
                sorted.dedup();
                assert_eq!(sorted.len(), flat.len());
            }
        }
    });
}

#[test]
fn display_never_panics_and_is_nonempty() {
    for_recipes(128, |recipe| {
        let mut g = MtypeGraph::new();
        let root = build(&mut g, recipe);
        let s = g.display(root).to_string();
        assert!(!s.is_empty());
    });
}

#[test]
fn reachable_is_closed() {
    for_recipes(128, |recipe| {
        let mut g = MtypeGraph::new();
        let root = build(&mut g, recipe);
        let reach = g.reachable(root);
        for &id in &reach {
            for &c in g.kind(id).children() {
                assert!(reach.contains(&c));
            }
        }
    });
}

#[test]
fn shared_fingerprint_memo_matches_fresh_fingerprints_in_any_order() {
    for_recipes(128, |recipe| {
        let mut g = MtypeGraph::new();
        let root = build(&mut g, recipe);
        let ids = g.reachable(root);
        let fresh: std::collections::HashMap<MtypeId, u64> =
            ids.iter().map(|&id| (id, fingerprint(&g, id))).collect();
        let mut orders = vec![ids.clone(), ids.iter().rev().copied().collect()];
        let mut rng = StdRng::seed_from_u64(ids.len() as u64);
        let mut shuffled = ids.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        orders.push(shuffled);
        for order in orders {
            let mut memo = FingerprintMemo::default();
            for id in order {
                assert_eq!(
                    memo.fingerprint(&g, id),
                    fresh[&id],
                    "node {id:?} of {recipe:?}"
                );
            }
        }
    });
}
