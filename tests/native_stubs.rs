//! Three-way differential suite for the second Futamura projection:
//! the emitted native marshal stubs must agree with the opcode VM and
//! the interpretive oracle — encode byte-for-byte, decode
//! value-for-value against the interpretive round trip — over the
//! canonical 64-seed property stream plus the adversarial shapes, in
//! both byte orders. Also covers the depth bound (hostile nesting must
//! fail identically on every tier), the sequence-count bound (a count
//! the body cannot back must fail on every tier without allocating for
//! it), a zero-allocation check for native and opcode encode over a
//! pooled buffer, the allocation count of a request decode, the server's
//! `WireOp` on the native tier (three-way agreement, hostile request
//! bodies, and the fallbacks when no stub applies), and the
//! `RemoteStub` end-to-end path (native tier resolved by fingerprint,
//! metrics attributed).
//!
//! The stubs under test are the module the bench crate's build script
//! emits into `OUT_DIR` from the same seed-pinned fixtures this suite
//! reconstructs; `mbc emit-stubs` writes the same text for reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use mockingbird::comparer::{Comparer, Mode, RuleSet};
use mockingbird::corpus::{
    choice_heavy_pair, deep_list_pair, fitter_pair, property_pair, sample_value,
};
use mockingbird::mtype::{IntRange, MtypeGraph, MtypeId, RealPrecision};
use mockingbird::plan::CoercionPlan;
use mockingbird::runtime::{
    Dispatcher, InMemoryConnection, RemoteRef, RuntimeError, Servant, WireOp, WireServant,
};
use mockingbird::stubgen::{FunctionStub, RemoteStub};
use mockingbird::values::{Endian, MValue};
use mockingbird::wire::{
    native, CdrError, CdrReader, CdrWriter, NativeStub, NativeStubRegistry, ProgramSource,
    WireProgram, MAX_ZERO_WIDTH_SEQUENCE,
};
use mockingbird_bench::{fitter_session, point_list, register_native_stubs};

/// Counts allocations so the zero-allocation property of compiled
/// encode over a pooled buffer is checkable (not just claimed).
struct CountingAlloc;

thread_local! {
    /// This thread's allocations. Per thread, so the other tests of
    /// this binary, running in parallel, cannot show up in the count;
    /// `const`-initialised, so bumping it never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: an allocation during thread teardown is not counted
    // rather than a panic inside the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CASES: u64 = 64;

/// The emitted stub registered for a two-graph value pair, if any.
fn native_for(g: &MtypeGraph, h: &MtypeGraph, ty: MtypeId, var: MtypeId) -> Option<NativeStub> {
    let key = ProgramSource::Pair {
        left: (g, ty),
        right: (h, var),
        mode: Mode::Equivalence,
        rules_fp: RuleSet::full().fingerprint(),
        reply_child: None,
    }
    .key();
    NativeStubRegistry::global().lookup(&key)
}

fn plan_for(g: &MtypeGraph, h: &MtypeGraph, ty: MtypeId, var: MtypeId) -> CoercionPlan {
    let corr = Comparer::new(g, h)
        .compare(ty, var, Mode::Equivalence)
        .expect("fixture pairs must match");
    CoercionPlan::new(g, h, corr, RuleSet::full(), Mode::Equivalence)
}

/// One three-way agreement check: native and opcode encodings must
/// equal the interpretive bytes, and native and opcode decodes must
/// equal the interpretive round trip (which canonicalises values using
/// dedup-collapsed duplicate alternatives — the oracle, not the input,
/// is ground truth).
fn assert_three_way(
    plan: &CoercionPlan,
    program: &WireProgram,
    native: &NativeStub,
    v: &MValue,
    endian: Endian,
    what: &str,
) {
    let h = plan.right_graph();
    let converted = plan.convert(v).unwrap();
    let mut oracle = CdrWriter::new(endian);
    oracle.put_value(h, plan.right_root(), &converted).unwrap();
    let oracle = oracle.into_bytes();

    let mut w = CdrWriter::new(endian);
    program.encode_value(&mut w, v).unwrap();
    assert_eq!(w.into_bytes(), oracle, "{what}: opcode encode {endian:?}");
    let mut w = CdrWriter::new(endian);
    (native.encode.expect("value stubs emit encode"))(&mut w, v).unwrap();
    assert_eq!(w.into_bytes(), oracle, "{what}: native encode {endian:?}");

    let mut or = CdrReader::new(&oracle, endian);
    let wire = or.get_value(h, plan.right_root()).unwrap();
    let expected = plan.convert_back(&wire).unwrap();
    let mut r = CdrReader::new(&oracle, endian);
    assert_eq!(
        program.decode_value(&mut r).unwrap(),
        expected,
        "{what}: opcode decode {endian:?}"
    );
    let mut r = CdrReader::new(&oracle, endian);
    assert_eq!(
        (native.decode.expect("two-way stubs emit decode"))(&mut r).unwrap(),
        expected,
        "{what}: native decode {endian:?}"
    );
    assert_eq!(r.remaining(), 0, "{what}: native decode consumed all bytes");
}

/// Native ≡ opcode ≡ interpretive over the 64-seed property stream, in
/// both byte orders. Every pair the program compiler accepts must have
/// an emitted stub (the generated module was built from these seeds).
#[test]
fn native_stubs_agree_three_ways_across_the_property_stream() {
    register_native_stubs();
    let mut covered = 0usize;
    for seed in 0..CASES {
        let (g, h, ty, var, mut rng) = property_pair(seed);
        let plan = plan_for(&g, &h, ty, var);
        let Ok(program) = WireProgram::compile(&plan) else {
            // Declined pairs stay interpretive — no stub may be
            // registered for them.
            continue;
        };
        let native = native_for(&g, &h, ty, var)
            .unwrap_or_else(|| panic!("seed {seed}: compiled pair lacks an emitted stub"));
        covered += 1;
        for _round in 0..4 {
            let v = sample_value(&g, ty, &mut rng, 3);
            for endian in [Endian::Little, Endian::Big] {
                assert_three_way(
                    &plan,
                    &program,
                    &native,
                    &v,
                    endian,
                    &format!("seed {seed}"),
                );
            }
        }
    }
    assert!(
        covered >= CASES as usize / 2,
        "emitted stubs should cover most of the stream, got {covered}/{CASES}"
    );
}

/// The deliberately choice-heavy pair exercises nested dispatch trees
/// in the emitted `match` chains.
#[test]
fn native_stubs_agree_on_the_choice_heavy_pair() {
    register_native_stubs();
    let (g, h, ty, var) = choice_heavy_pair();
    let plan = plan_for(&g, &h, ty, var);
    let program = WireProgram::compile(&plan).expect("choice-heavy pair compiles");
    let native = native_for(&g, &h, ty, var).expect("choice-heavy stub is emitted");
    let mut rng = mockingbird_rng::StdRng::seed_from_u64(7);
    for _ in 0..16 {
        let v = sample_value(&g, ty, &mut rng, 4);
        for endian in [Endian::Little, Endian::Big] {
            assert_three_way(&plan, &program, &native, &v, endian, "choice-heavy");
        }
    }
}

/// `T = list(T)` values nest arbitrarily deep: within the bound all
/// three tiers agree; past it the native stub and the opcode VM must
/// fail with the *same* error (the emitted depth guards replicate the
/// VM's checks exactly).
#[test]
fn native_stubs_enforce_the_depth_bound_identically() {
    register_native_stubs();
    let (g, h, ty, var) = deep_list_pair();
    let plan = plan_for(&g, &h, ty, var);
    let program = WireProgram::compile(&plan).expect("recursive list pair compiles");
    let native = native_for(&g, &h, ty, var).expect("recursive list stub is emitted");

    // A list nested to `depth` levels: List([List([... List([])])]).
    let nested = |depth: usize| {
        let mut v = MValue::List(vec![]);
        for _ in 0..depth {
            v = MValue::List(vec![v]);
        }
        v
    };

    for endian in [Endian::Little, Endian::Big] {
        assert_three_way(&plan, &program, &native, &nested(64), endian, "deep-list");
    }

    let hostile = nested(1024);
    let mut w = CdrWriter::new(Endian::Little);
    let vm_err = program.encode_value(&mut w, &hostile).unwrap_err();
    let mut w = CdrWriter::new(Endian::Little);
    let native_err = (native.encode.unwrap())(&mut w, &hostile).unwrap_err();
    assert_eq!(
        native_err, vm_err,
        "hostile nesting must fail identically on both tiers"
    );
}

/// Encode into a pooled, pre-sized buffer performs no heap allocation
/// on either compiled tier: the emitted code reserves bulk runs up
/// front and writes fixed-width copies, and the opcode VM streams the
/// borrowed value through its program. The choice-heavy pair has no
/// sequence, so the VM also encodes 1,024 points whose fields swap on
/// the way to the wire.
#[test]
fn native_encode_is_allocation_free_over_a_pooled_buffer() {
    register_native_stubs();
    let (g, h, ty, var) = choice_heavy_pair();
    let native = native_for(&g, &h, ty, var).expect("choice-heavy stub is emitted");
    let program =
        WireProgram::compile(&plan_for(&g, &h, ty, var)).expect("choice-heavy pair compiles");
    let mut rng = mockingbird_rng::StdRng::seed_from_u64(11);
    let v = sample_value(&g, ty, &mut rng, 4);
    assert_pooled_encode_allocates_nothing("native choice-heavy", &v, native.encode.unwrap());
    assert_pooled_encode_allocates_nothing("opcode choice-heavy", &v, |w, v| {
        program.encode_value(w, v)
    });

    let mut g = MtypeGraph::new();
    let i = g.integer(IntRange::signed_bits(32));
    let f = g.real(RealPrecision::SINGLE);
    let (left, right) = (g.record(vec![f, i]), g.record(vec![i, f]));
    let (left, right) = (g.list_of(left), g.list_of(right));
    let program =
        WireProgram::compile(&plan_for(&g, &g, left, right)).expect("permuted point list compiles");
    let points = MValue::List(
        (0..1024)
            .map(|k| MValue::Record(vec![MValue::Real(k as f64), MValue::Int(k)]))
            .collect(),
    );
    assert_pooled_encode_allocates_nothing("opcode permuted points", &points, |w, v| {
        program.encode_value(w, v)
    });
}

/// Warms a buffer to `encode`'s high-water capacity, then encodes `v`
/// into it 32 more times: no encode may allocate or grow the buffer.
fn assert_pooled_encode_allocates_nothing(
    what: &str,
    v: &MValue,
    encode: impl Fn(&mut CdrWriter, &MValue) -> Result<(), CdrError>,
) {
    let mut w = CdrWriter::new(Endian::Little);
    encode(&mut w, v).unwrap();
    let mut pooled = w.into_bytes();
    let capacity = pooled.capacity();
    for _ in 0..32 {
        pooled.clear();
        let mut w = CdrWriter::from_vec(pooled, Endian::Little);
        let (allocated, out) = allocations_in(|| encode(&mut w, v));
        out.unwrap();
        assert_eq!(allocated, 0, "{what}: encode must not allocate");
        pooled = w.into_bytes();
        assert_eq!(pooled.capacity(), capacity, "{what}: buffer must not grow");
    }
}

/// Allocations this thread makes while `f` runs.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = allocations();
    let out = f();
    (allocations() - before, out)
}

/// A body whose sequence counts claim more zero-width elements than a
/// stream may hold fails on every CDR tier before anything is allocated
/// for them: 2^28 `Unit`s or `Record()`s in a 4-byte body, and two
/// nested `List(Unit)`s of the full cap each, which no single count
/// exceeds. The encoders refuse exactly the zero-width elements the
/// decoders would, so the most they accept still round-trips.
#[test]
fn unbacked_sequence_counts_fail_on_every_tier() {
    // Element functions standing in for emitted stubs.
    fn unit_elem(_: &mut CdrReader<'_>, _: usize) -> Result<MValue, CdrError> {
        Ok(MValue::Unit)
    }
    fn empty_elem(_: &mut CdrReader<'_>, _: usize) -> Result<MValue, CdrError> {
        Ok(MValue::Record(vec![]))
    }
    fn unit_list_elem(r: &mut CdrReader<'_>, depth: usize) -> Result<MValue, CdrError> {
        native::decode_seq(r, unit_elem, depth)
    }
    fn put_unit_elem(_: &mut CdrWriter, v: &MValue, _: usize) -> Result<(), CdrError> {
        native::expect_unit(v)
    }
    fn put_empty_elem(_: &mut CdrWriter, _: &MValue, _: usize) -> Result<(), CdrError> {
        Ok(())
    }
    fn put_unit_list_elem(w: &mut CdrWriter, v: &MValue, depth: usize) -> Result<(), CdrError> {
        native::encode_seq(w, v, put_unit_elem, depth)
    }
    /// Well under one allocation per claimed element: the error's
    /// message, the decode frame, and the request error's copy.
    const SMALL: usize = 8;
    const CAP: usize = MAX_ZERO_WIDTH_SEQUENCE;
    let list = |items: Vec<MValue>| MValue::List(items);
    let units = |n: usize| list(vec![MValue::Unit; n]);
    let words =
        |ws: &[usize]| -> Vec<u8> { ws.iter().flat_map(|&w| (w as u32).to_le_bytes()).collect() };

    let mut g = MtypeGraph::new();
    let unit = g.unit();
    let empty = g.record(vec![]);
    let unit_list = g.list_of(unit);
    let empty_list = g.list_of(empty);
    let nested = g.list_of(unit_list);
    // (argument record type, hostile body, native element decoder,
    // native element encoder, the list with the most zero-width
    // elements allowed, and with one more).
    type Case = (
        MtypeId,
        Vec<u8>,
        native::DecNodeFn,
        native::EncNodeFn,
        MValue,
        MValue,
    );
    let cases: Vec<Case> = vec![
        (
            g.record(vec![unit_list]),
            words(&[1 << 28]),
            unit_elem as native::DecNodeFn,
            put_unit_elem as native::EncNodeFn,
            units(CAP),
            units(CAP + 1),
        ),
        (
            g.record(vec![empty_list]),
            words(&[1 << 28]),
            empty_elem,
            put_empty_elem,
            list(vec![MValue::Record(vec![]); CAP]),
            list(vec![MValue::Record(vec![]); CAP + 1]),
        ),
        (
            g.record(vec![nested]),
            words(&[2, CAP, CAP]),
            unit_list_elem,
            put_unit_list_elem,
            list(vec![units(CAP / 2), units(CAP / 2)]),
            list(vec![units(CAP / 2), units(CAP / 2 + 1)]),
        ),
    ];
    let graph = Arc::new(g);
    let args = |list: &MValue| MValue::Record(vec![list.clone()]);
    for (ty, hostile, dec_elem, enc_elem, most, too_many) in cases {
        let program = WireProgram::identity(&graph, ty).expect("zero-width lists compile");
        let op = WireOp::new(Arc::clone(&graph), ty, ty);
        let reader = || CdrReader::new(&hostile, Endian::Little);
        let refused = |tier: &str, (n, accepted): (usize, bool)| {
            assert!(
                !accepted && n < SMALL,
                "{tier}: accepted {accepted} after {n} allocations"
            );
        };
        refused(
            "interpretive",
            allocations_in(|| reader().get_value(&graph, ty).is_ok()),
        );
        refused(
            "opcode VM",
            allocations_in(|| program.decode_value(&mut reader()).is_ok()),
        );
        refused(
            "WireOp",
            allocations_in(|| op.decode(ty, &hostile, Endian::Little).is_ok()),
        );
        refused(
            "native",
            allocations_in(|| native::decode_seq(&mut reader(), dec_elem, 0).is_ok()),
        );

        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(&graph, ty, &args(&most)).unwrap();
        let body = w.into_bytes();
        let mut w = CdrWriter::new(Endian::Little);
        program.encode_value(&mut w, &args(&most)).unwrap();
        assert_eq!(w.into_bytes(), body);
        let mut w = CdrWriter::new(Endian::Little);
        native::encode_seq(&mut w, &most, enc_elem, 0).unwrap();
        assert_eq!(w.into_bytes(), body);
        let reader = || CdrReader::new(&body, Endian::Little);
        assert_eq!(reader().get_value(&graph, ty).unwrap(), args(&most));
        assert_eq!(program.decode_value(&mut reader()).unwrap(), args(&most));
        assert_eq!(
            native::decode_seq(&mut reader(), dec_elem, 0).unwrap(),
            most
        );

        let mut w = CdrWriter::new(Endian::Little);
        assert!(w.put_value(&graph, ty, &args(&too_many)).is_err());
        let mut w = CdrWriter::new(Endian::Little);
        assert!(program.encode_value(&mut w, &args(&too_many)).is_err());
        let mut w = CdrWriter::new(Endian::Little);
        assert!(native::encode_seq(&mut w, &too_many, enc_elem, 0).is_err());
    }
}

/// A request decode allocates only what the decoded value owns, on
/// the opcode VM and on the emitted native stub alike: a fitter request
/// of `n` points costs one allocation per point record plus a constant,
/// so 4,032 more points cost exactly 4,032 more allocations.
#[test]
fn request_decode_allocates_once_per_point() {
    let op = native_fitter_op();
    let vm = WireProgram::identity(&op.graph, op.args_ty).expect("the fitter request compiles");
    assert!(
        op.is_native(op.args_ty),
        "the request decodes on the native tier"
    );
    let decode_allocations = |n: usize, native: bool| {
        let args = MValue::Record(vec![point_list(n)]);
        let body = op.encode(op.args_ty, &args, Endian::Little).unwrap();
        let (count, decoded) = if native {
            allocations_in(|| op.decode(op.args_ty, &body, Endian::Little).ok())
        } else {
            allocations_in(|| {
                vm.decode_value(&mut CdrReader::new(&body, Endian::Little))
                    .ok()
            })
        };
        assert_eq!(decoded, Some(args), "{n} points round-trip");
        count
    };
    for native in [false, true] {
        assert_eq!(
            decode_allocations(4096, native) - decode_allocations(64, native),
            4032,
            "native tier: {native}"
        );
    }
}

/// The fitter's server op as servers build it, `Session::wire_op`,
/// constructed after the emitted stubs are registered.
fn native_fitter_op() -> WireOp {
    register_native_stubs();
    fitter_session().unwrap().wire_op("fitter").unwrap()
}

/// A seeded point of single-precision reals (what the fitter's
/// `Real{24,8}` coordinates carry, so every tier round-trips it).
fn seeded_point(rng: &mut mockingbird_rng::StdRng) -> MValue {
    let mut coord = || MValue::Real(f64::from(rng.gen_range(-1.0e6f32..1.0e6f32)));
    MValue::Record(vec![coord(), coord()])
}

/// The server op's three tiers agree: over seeded fitter requests (0,
/// 1, 4 and 4,096 points among them) and replies, in both byte orders,
/// the native stubs `WireOp` resolved, the opcode VM and the
/// interpreter write the same bytes and decode the same values.
#[test]
fn server_op_agrees_three_ways() {
    let op = native_fitter_op();
    for ty in [op.args_ty, op.result_ty] {
        assert!(op.is_native(ty), "both records resolve emitted stubs");
    }
    let mut rng = mockingbird_rng::StdRng::seed_from_u64(20);
    let mut lengths = vec![0, 1, 4, 4096];
    lengths.extend((0..12).map(|_| rng.gen_range(0..300usize)));
    let mut cases: Vec<(MtypeId, MValue)> = Vec::new();
    for n in lengths {
        let points = (0..n).map(|_| seeded_point(&mut rng)).collect();
        cases.push((op.args_ty, MValue::Record(vec![MValue::List(points)])));
        let reply = MValue::Record(vec![seeded_point(&mut rng), seeded_point(&mut rng)]);
        cases.push((op.result_ty, reply));
    }
    for (ty, v) in &cases {
        let vm = WireProgram::identity(&op.graph, *ty).expect("the fitter records compile");
        for endian in [Endian::Little, Endian::Big] {
            let mut oracle = CdrWriter::new(endian);
            oracle.put_value(&op.graph, *ty, v).unwrap();
            let oracle = oracle.into_bytes();
            let mut w = CdrWriter::new(endian);
            vm.encode_value(&mut w, v).unwrap();
            assert_eq!(w.into_bytes(), oracle, "opcode encode {endian:?}");
            assert_eq!(
                op.encode(*ty, v, endian).unwrap(),
                oracle,
                "native encode {endian:?}"
            );

            let reader = || CdrReader::new(&oracle, endian);
            assert_eq!(&reader().get_value(&op.graph, *ty).unwrap(), v);
            assert_eq!(&vm.decode_value(&mut reader()).unwrap(), v);
            assert_eq!(&op.decode(*ty, &oracle, endian).unwrap(), v);
        }
    }
}

/// Bitwise value equality (a flipped bit can make a NaN, which `==`
/// never equates).
fn same_bits(a: &MValue, b: &MValue) -> bool {
    match (a, b) {
        (MValue::Real(x), MValue::Real(y)) => x.to_bits() == y.to_bits(),
        (MValue::Record(xs), MValue::Record(ys)) | (MValue::List(xs), MValue::List(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        _ => a == b,
    }
}

/// The server's native request decode fails closed exactly where the
/// opcode VM does: every prefix of a fitter request body and every
/// flip of bit 0, 3 or 7 of each byte decodes to the same value on
/// both tiers, or fails on both.
#[test]
fn server_native_decode_matches_the_vm_on_hostile_bodies() {
    let op = native_fitter_op();
    assert!(op.is_native(op.args_ty));
    let vm = WireProgram::identity(&op.graph, op.args_ty).expect("the fitter request compiles");
    let mut rng = mockingbird_rng::StdRng::seed_from_u64(21);
    let mut bodies = 0usize;
    for n in [0, 1, 6] {
        let points = (0..n).map(|_| seeded_point(&mut rng)).collect();
        let args = MValue::Record(vec![MValue::List(points)]);
        for endian in [Endian::Little, Endian::Big] {
            let valid = op.encode(op.args_ty, &args, endian).unwrap();
            let prefixes = (0..valid.len()).map(|k| valid[..k].to_vec());
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
                let native = op.decode(op.args_ty, &body, endian);
                let opcode = vm.decode_value(&mut CdrReader::new(&body, endian));
                match (&native, &opcode) {
                    (Err(_), Err(_)) => {}
                    (Ok(a), Ok(b)) if same_bits(a, b) => {}
                    _ => panic!(
                        "{n} points {endian:?} body {body:?}: native {native:?}, \
                         opcode {opcode:?}"
                    ),
                }
            }
        }
    }
    assert!(bodies > 500, "only {bodies} hostile bodies checked");
}

/// A `WireOp` runs native only where a stub was emitted from the
/// program it compiled: a type with no registered stub stays on the
/// opcode VM, and a type whose identity program the compiler declines
/// stays on the interpreter even with a stale stub registered under
/// its identity key.
#[test]
fn wire_ops_without_an_emitted_stub_stay_on_the_vm_or_interpreter() {
    fn stale_encode(_: &mut CdrWriter, _: &MValue) -> Result<(), CdrError> {
        Ok(())
    }
    fn stale_decode(_: &mut CdrReader<'_>) -> Result<MValue, CdrError> {
        Ok(MValue::Unit)
    }
    register_native_stubs();
    let mut g = MtypeGraph::new();
    let i = g.integer(mockingbird::mtype::IntRange::new(-7, 12_345));
    let unstubbed = g.record(vec![i, i]);
    // A record cycle with no intervening choice: declined.
    let declined = g.recursive(|g, me| g.record(vec![i, me]));
    let stale = NativeStub {
        encode: Some(stale_encode),
        encode_invocation: None,
        decode: Some(stale_decode),
    };
    NativeStubRegistry::global().register(ProgramSource::Identity(&g, declined).key(), stale);
    let graph = Arc::new(g);

    let op = WireOp::new(Arc::clone(&graph), unstubbed, unstubbed);
    assert!(op.is_fused(unstubbed) && !op.is_native(unstubbed));
    let v = MValue::Record(vec![MValue::Int(-7), MValue::Int(12_345)]);
    for endian in [Endian::Little, Endian::Big] {
        let body = op.encode(unstubbed, &v, endian).unwrap();
        assert_eq!(op.decode(unstubbed, &body, endian).unwrap(), v);
    }

    let op = WireOp::new(graph, declined, declined);
    assert!(!op.is_fused(declined) && !op.is_native(declined));
    // The stale stub would accept both; the interpreter refuses both.
    assert!(op.encode(declined, &MValue::Unit, Endian::Little).is_err());
    assert!(op.decode(declined, &[], Endian::Little).is_err());
}

/// End to end: a `RemoteStub` built in this process resolves the
/// emitted fitter stubs by layout fingerprint alone, reports the
/// native dispatch tier, runs a call through them, and attributes the
/// call in the runtime metrics.
#[test]
fn remote_stub_resolves_and_runs_the_native_tier() {
    register_native_stubs();
    let mut g = MtypeGraph::new();
    let (java, cfun) = fitter_pair(&mut g);
    let corr = Comparer::new(&g, &g)
        .compare(java, cfun, Mode::Equivalence)
        .expect("fitter pair matches");
    let plan = Arc::new(CoercionPlan::new(
        &g,
        &g,
        corr,
        RuleSet::full(),
        Mode::Equivalence,
    ));

    // Wire types the server speaks: the C invocation minus its reply
    // port, and the C output record.
    let r = g.real(mockingbird::mtype::RealPrecision::SINGLE);
    let pt = g.record(vec![r, r]);
    let c_args = {
        let list = g.list_of(pt);
        g.record(vec![list])
    };
    let c_out = g.record(vec![pt, pt]);
    let graph = Arc::new(g);
    let servant: Arc<dyn Servant> = Arc::new(|_: &str, args: MValue| {
        let MValue::Record(items) = args else {
            return Err(RuntimeError::Application("bad args".into()));
        };
        let MValue::List(pts) = &items[0] else {
            return Err(RuntimeError::Application("bad pts".into()));
        };
        let first = pts.first().cloned().unwrap();
        let last = pts.last().cloned().unwrap();
        Ok(MValue::Record(vec![first, last]))
    });
    let op = WireOp::new(graph, c_args, c_out);
    let mut ops = HashMap::new();
    ops.insert("fit".to_string(), op.clone());
    let d = Arc::new(Dispatcher::new());
    let mut server_ops = HashMap::new();
    server_ops.insert("fit".to_string(), op);
    d.register(b"fitter".to_vec(), WireServant::new(servant, server_ops));
    let remote = Arc::new(RemoteRef::new(
        Arc::new(InMemoryConnection::new(d)),
        b"fitter".to_vec(),
        ops,
        Endian::Little,
    ));
    let stub = RemoteStub::new(FunctionStub::new(plan).unwrap(), remote.clone(), "fit");
    assert_eq!(
        stub.dispatch_tier(),
        "native",
        "both directions must resolve emitted stubs"
    );

    let point = |x: f64, y: f64| MValue::Record(vec![MValue::Real(x), MValue::Real(y)]);
    let pts = MValue::List(vec![point(0.0, 0.0), point(1.0, 1.0), point(2.0, 2.0)]);
    let out = stub.call(&[pts]).unwrap();
    assert_eq!(
        out,
        MValue::Record(vec![MValue::Record(vec![point(0.0, 0.0), point(2.0, 2.0)])])
    );

    let snap = remote.metrics().snapshot();
    assert!(snap.native_calls >= 1, "the call must count as native");
    assert_eq!(snap.native_fallbacks, 0, "no direction fell back");
}
