//! Property tests for the fused data plane: on random corpus pairs, the
//! compiled [`WireProgram`] must agree with the interpretive path —
//! encode byte-for-byte (`plan.convert` + `put_value`), decode
//! value-for-value (`get_value` + `plan.convert_back`) — in both byte
//! orders, on hostile bodies as on valid ones, and survive its portable
//! serialisation unchanged. Each property runs over a deterministic
//! stream of seeds so failures replay exactly.

use mockingbird_rng::StdRng;

use mockingbird::comparer::{Comparer, Mode, RuleSet};
use mockingbird::corpus::{isomorphic_variant, random_mtype, sample_value};
use mockingbird::mtype::MtypeGraph;
use mockingbird::plan::CoercionPlan;
use mockingbird::values::{Endian, MValue};
use mockingbird::wire::{CdrReader, CdrWriter, WireProgram};

const CASES: u64 = 64;

/// Builds the plan for a random pair under `seed`, or `None` when the
/// program compiler does not support the pair's shape (ports, Dynamic):
/// those fall back to the interpretive path by design.
fn fused_case(seed: u64) -> Option<(MtypeGraph, MtypeGraph, CoercionPlan, WireProgram, StdRng)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = MtypeGraph::new();
    let ty = random_mtype(&mut g, &mut rng, 3);
    let mut h = MtypeGraph::new();
    let var = isomorphic_variant(&g, ty, &mut h);
    let corr = Comparer::new(&g, &h)
        .compare(ty, var, Mode::Equivalence)
        .expect("isomorphic variants must match");
    let plan = CoercionPlan::new(&g, &h, corr, RuleSet::full(), Mode::Equivalence);
    let program = WireProgram::compile(&plan).ok()?;
    Some((g, h, plan, program, rng))
}

/// Fused encode produces byte-for-byte the interpretive encoding, and
/// fused decode produces value-for-value the interpretive decoding, for
/// random values in both byte orders.
#[test]
fn fused_programs_agree_with_the_interpretive_path() {
    let mut fused = 0usize;
    for seed in 0..CASES {
        let Some((_g, h, plan, program, mut rng)) = fused_case(seed) else {
            continue;
        };
        fused += 1;
        assert!(program.two_way(), "equivalence plans fuse both directions");
        for _round in 0..4 {
            let v = sample_value(plan.left_graph(), plan.left_root(), &mut rng, 3);
            for endian in [Endian::Little, Endian::Big] {
                // Encode: byte-for-byte against convert + put_value.
                let converted = plan.convert(&v).unwrap();
                let mut oracle = CdrWriter::new(endian);
                oracle.put_value(&h, plan.right_root(), &converted).unwrap();
                let oracle = oracle.into_bytes();
                let mut w = CdrWriter::new(endian);
                program.encode_value(&mut w, &v).unwrap();
                assert_eq!(w.into_bytes(), oracle, "seed {seed} encode {endian:?}");

                // Decode: value-for-value against get_value +
                // convert_back (which may canonicalise Choice indices,
                // so the oracle is the interpretive result, not `v`).
                let mut or = CdrReader::new(&oracle, endian);
                let wire = or.get_value(&h, plan.right_root()).unwrap();
                let expected = plan.convert_back(&wire).unwrap();
                let mut r = CdrReader::new(&oracle, endian);
                assert_eq!(
                    program.decode_value(&mut r).unwrap(),
                    expected,
                    "seed {seed} decode {endian:?}"
                );
                assert_eq!(r.remaining(), 0, "seed {seed} {endian:?}");
            }
        }
    }
    assert!(
        fused >= CASES as usize / 2,
        "the program compiler should cover most of the corpus, got {fused}/{CASES}"
    );
}

/// Value equality that compares reals by their bits: a flipped exponent
/// decodes to NaN, and NaN is not equal to itself under `MValue`'s
/// `PartialEq`.
fn same_bits(a: &MValue, b: &MValue) -> bool {
    match (a, b) {
        (MValue::Real(x), MValue::Real(y)) => x.to_bits() == y.to_bits(),
        (MValue::Record(xs), MValue::Record(ys)) | (MValue::List(xs), MValue::List(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        (MValue::Choice { index: i, value: x }, MValue::Choice { index: j, value: y }) => {
            i == j && same_bits(x, y)
        }
        (MValue::Dynamic { tag: s, value: x }, MValue::Dynamic { tag: t, value: y }) => {
            s == t && same_bits(x, y)
        }
        _ => a == b,
    }
}

/// Fused decode is fail-closed exactly where the interpretive decode
/// is: for every fused case, every prefix of a valid body and every
/// single-bit flip at bits 0, 3 and 7 of each byte either fails on both
/// paths, or decodes on both to the same value with the same bytes
/// left.
#[test]
fn fused_decode_matches_the_interpretive_decode_on_hostile_bodies() {
    let mut bodies = 0usize;
    for seed in 0..CASES {
        let Some((_g, h, plan, program, mut rng)) = fused_case(seed) else {
            continue;
        };
        let v = sample_value(plan.left_graph(), plan.left_root(), &mut rng, 3);
        for endian in [Endian::Little, Endian::Big] {
            let mut w = CdrWriter::new(endian);
            program.encode_value(&mut w, &v).unwrap();
            let valid = w.into_bytes();
            let prefixes = (0..valid.len()).map(|n| valid[..n].to_vec());
            let flips = (0..valid.len()).flat_map(|i| {
                let valid = &valid;
                [0, 3, 7].map(move |bit| {
                    let mut body = valid.clone();
                    body[i] ^= 1 << bit;
                    body
                })
            });
            for body in prefixes.chain(flips) {
                bodies += 1;
                let mut r = CdrReader::new(&body, endian);
                let fused = program
                    .decode_value(&mut r)
                    .ok()
                    .map(|v| (v, r.remaining()));
                let mut r = CdrReader::new(&body, endian);
                let interpretive = r
                    .get_value(&h, plan.right_root())
                    .ok()
                    .and_then(|wire| plan.convert_back(&wire).ok())
                    .map(|v| (v, r.remaining()));
                match (&fused, &interpretive) {
                    (None, None) => {}
                    (Some((a, left_a)), Some((b, left_b)))
                        if same_bits(a, b) && left_a == left_b => {}
                    _ => panic!(
                        "seed {seed} {endian:?} body {body:?}: fused {fused:?}, \
                         interpretive {interpretive:?}"
                    ),
                }
            }
        }
    }
    assert!(bodies > 1000, "only {bodies} hostile bodies checked");
}

/// A program survives its portable byte serialisation with identical
/// observable behaviour (what the project-file persistence relies on).
#[test]
fn serialised_programs_behave_identically() {
    for seed in 0..CASES {
        let Some((g, _h, plan, program, mut rng)) = fused_case(seed) else {
            continue;
        };
        let restored = WireProgram::from_bytes(&program.to_bytes()).expect("round trip");
        assert_eq!(restored.two_way(), program.two_way());
        let v = sample_value(&g, plan.left_root(), &mut rng, 3);
        for endian in [Endian::Little, Endian::Big] {
            let mut a = CdrWriter::new(endian);
            program.encode_value(&mut a, &v).unwrap();
            let a = a.into_bytes();
            let mut b = CdrWriter::new(endian);
            restored.encode_value(&mut b, &v).unwrap();
            assert_eq!(b.into_bytes(), a, "seed {seed} {endian:?}");
            let mut r = CdrReader::new(&a, endian);
            let mut rr = CdrReader::new(&a, endian);
            assert_eq!(
                restored.decode_value(&mut rr).unwrap(),
                program.decode_value(&mut r).unwrap(),
                "seed {seed} {endian:?}"
            );
        }
    }
}
