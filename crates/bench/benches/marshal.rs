//! X6: the fused data plane — compiled wire programs vs the
//! interpretive convert-then-encode path.
//!
//! Each fixture is a pair of isomorphic-but-permuted declarations whose
//! coercion plan does real work (field permutation, per-element
//! conversion). The interpretive rows materialise the intermediate
//! MValue (`plan.convert` + `put_value`, `get_value` +
//! `plan.convert_back`); the fused rows run the compiled
//! [`WireProgram`] in one pass. A counting global allocator proves the
//! steady-state fused encode over a pooled buffer performs **zero**
//! heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use mockingbird_bench::harness::{BenchmarkId, Criterion, Throughput};
use mockingbird_bench::{criterion_group, criterion_main};

use mockingbird::comparer::{Comparer, Mode, RuleSet};
use mockingbird::mtype::{IntRange, MtypeGraph, RealPrecision, Repertoire};
use mockingbird::plan::CoercionPlan;
use mockingbird::values::{Endian, MValue};
use mockingbird::wire::{CdrReader, CdrWriter, WireProgram};

/// A system allocator that counts allocations, so the bench can assert
/// the fused encode path is allocation-free at steady state.
struct CountingAlloc;

thread_local! {
    /// This thread's allocations: per thread, so allocations on other
    /// threads cannot show up in the count; `const`-initialised, so
    /// bumping it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: an allocation during thread teardown is not counted
    // rather than a panic inside the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a thread-local side effect that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made so far on the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct Fixture {
    name: &'static str,
    graph: MtypeGraph,
    plan: CoercionPlan,
    program: WireProgram,
    value: MValue,
}

fn pair_fixture(
    name: &'static str,
    build: impl FnOnce(&mut MtypeGraph) -> (mockingbird::mtype::MtypeId, mockingbird::mtype::MtypeId),
    value: MValue,
) -> Fixture {
    let mut g = MtypeGraph::new();
    let (l, r) = build(&mut g);
    let corr = Comparer::new(&g, &g)
        .compare(l, r, Mode::Equivalence)
        .expect("fixture pair must match");
    let plan = CoercionPlan::new(&g, &g, corr, RuleSet::full(), Mode::Equivalence);
    let program = WireProgram::compile(&plan).expect("fixture pair must fuse");
    assert!(program.two_way(), "fixtures exercise both directions");
    Fixture {
        name,
        graph: g,
        plan,
        program,
        value,
    }
}

fn fixtures() -> Vec<Fixture> {
    vec![
        // A flat record whose wire layout permutes every field.
        pair_fixture(
            "permuted_record",
            |g| {
                let i = g.integer(IntRange::signed_bits(32));
                let d = g.real(RealPrecision::DOUBLE);
                let c = g.character(Repertoire::Latin1);
                (g.record(vec![i, d, c]), g.record(vec![c, d, i]))
            },
            MValue::Record(vec![MValue::Int(42), MValue::Real(2.5), MValue::Char('m')]),
        ),
        // 1024 points, each permuted on the way to the wire: the plan
        // allocates a fresh record per element; the program does not.
        pair_fixture(
            "list_1024_permuted_points",
            |g| {
                let i = g.integer(IntRange::signed_bits(32));
                let f = g.real(RealPrecision::SINGLE);
                let left_pt = g.record(vec![f, i]);
                let right_pt = g.record(vec![i, f]);
                (g.list_of(left_pt), g.list_of(right_pt))
            },
            MValue::List(
                (0..1024)
                    .map(|k| MValue::Record(vec![MValue::Real(k as f64), MValue::Int(k)]))
                    .collect(),
            ),
        ),
        // Nested records permuted at two levels (a quad of lines).
        pair_fixture(
            "nested_permuted_quad",
            |g| {
                let i = g.integer(IntRange::signed_bits(64));
                let d = g.real(RealPrecision::DOUBLE);
                let lpt = g.record(vec![d, i]);
                let rpt = g.record(vec![i, d]);
                let lline = g.record(vec![lpt, lpt]);
                let rline = g.record(vec![rpt, rpt]);
                (g.record(vec![lline, lline]), g.record(vec![rline, rline]))
            },
            {
                let p = |x: f64, k: i128| MValue::Record(vec![MValue::Real(x), MValue::Int(k)]);
                let l = |x: f64| MValue::Record(vec![p(x, 1), p(x + 1.0, 2)]);
                MValue::Record(vec![l(0.0), l(2.0)])
            },
        ),
    ]
}

fn encoded_bytes(f: &Fixture, endian: Endian) -> Vec<u8> {
    let mut w = CdrWriter::new(endian);
    f.program.encode_value(&mut w, &f.value).unwrap();
    w.into_bytes()
}

fn bench_encode(c: &mut Criterion) {
    for f in fixtures() {
        let mut group = c.benchmark_group(format!("x6/encode/{}", f.name));
        let bytes = encoded_bytes(&f, Endian::Little);
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        for endian in [Endian::Little, Endian::Big] {
            group.bench_with_input(
                BenchmarkId::new("interpretive", format!("{endian:?}")),
                &endian,
                |b, &endian| {
                    b.iter(|| {
                        let converted = f.plan.convert(black_box(&f.value)).unwrap();
                        let mut w = CdrWriter::new(endian);
                        w.put_value(&f.graph, f.plan.right_root(), &converted)
                            .unwrap();
                        black_box(w.into_bytes())
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new("fused", format!("{endian:?}")),
                &endian,
                |b, &endian| {
                    b.iter(|| {
                        let mut w = CdrWriter::new(endian);
                        f.program.encode_value(&mut w, black_box(&f.value)).unwrap();
                        black_box(w.into_bytes())
                    })
                },
            );
            // The runtime path: a pooled buffer whose capacity is warm.
            let mut pooled = Vec::with_capacity(bytes.len());
            group.bench_with_input(
                BenchmarkId::new("fused_pooled", format!("{endian:?}")),
                &endian,
                |b, &endian| {
                    b.iter(|| {
                        let mut w = CdrWriter::from_vec(std::mem::take(&mut pooled), endian);
                        f.program.encode_value(&mut w, black_box(&f.value)).unwrap();
                        pooled = w.into_bytes();
                        black_box(pooled.len())
                    })
                },
            );
        }
        group.finish();
    }
}

fn bench_decode(c: &mut Criterion) {
    for f in fixtures() {
        let mut group = c.benchmark_group(format!("x6/decode/{}", f.name));
        let bytes = encoded_bytes(&f, Endian::Little);
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        for endian in [Endian::Little, Endian::Big] {
            let encoded = encoded_bytes(&f, endian);
            group.bench_with_input(
                BenchmarkId::new("interpretive", format!("{endian:?}")),
                &endian,
                |b, &endian| {
                    b.iter(|| {
                        let mut r = CdrReader::new(black_box(&encoded), endian);
                        let wire = r.get_value(&f.graph, f.plan.right_root()).unwrap();
                        black_box(f.plan.convert_back(&wire).unwrap())
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new("fused", format!("{endian:?}")),
                &endian,
                |b, &endian| {
                    b.iter(|| {
                        let mut r = CdrReader::new(black_box(&encoded), endian);
                        black_box(f.program.decode_value(&mut r).unwrap())
                    })
                },
            );
        }
        group.finish();
    }
}

/// Not a timing benchmark: proves the fused encode allocates nothing
/// once its output buffer has warmed to capacity. Runs (and asserts) in
/// quick mode too, so `cargo test --benches` exercises it.
fn prove_zero_alloc_encode(c: &mut Criterion) {
    for f in fixtures() {
        let name = f.name;
        c.bench_function(&format!("x6/zero_alloc/{name}"), move |b| {
            let mut pooled = encoded_bytes(&f, Endian::Little); // warm capacity
                                                                // One warmup round outside the counted window.
            let mut w = CdrWriter::from_vec(std::mem::take(&mut pooled), Endian::Little);
            f.program.encode_value(&mut w, &f.value).unwrap();
            pooled = w.into_bytes();
            let before = allocations();
            for _ in 0..16 {
                let mut w = CdrWriter::from_vec(std::mem::take(&mut pooled), Endian::Little);
                f.program.encode_value(&mut w, &f.value).unwrap();
                pooled = w.into_bytes();
            }
            let steady_state = allocations() - before;
            assert_eq!(
                steady_state, 0,
                "{name}: fused encode must not allocate at steady state"
            );
            b.iter(|| black_box(steady_state));
        });
    }
}

criterion_group!(benches, bench_encode, bench_decode, prove_zero_alloc_encode);
criterion_main!(benches);
