//! §3.2 "Logical Reduction" — the paper prices reduction as a one-time
//! cost with exponential worst case. Measures Quine–McCluskey over
//! growing variable counts and selection widths, the shapes the service
//! reduces on every request — a scattered IN-list, and a value range
//! both as the code interval it is on the default value-ordered codes
//! (`interval_cover/*`, no Quine–McCluskey) and as the scattered code
//! set it is on first-seen codes (`first_seen_range/*`) — rendering the
//! result, plus the exact minimum-support computation behind the
//! Figure 9 best case.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ebi_bench::zipf_cells;
use ebi_boolean::{qm, support};
use ebi_core::{EncodedBitmapIndex, Mapping};
use ebi_storage::Cell;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

fn bench_qm(c: &mut Criterion) {
    let mut group = c.benchmark_group("quine_mccluskey");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    for k in [6u32, 8, 10] {
        let m = 1u64 << k;
        // Half-domain contiguous selection: the heavy, realistic case.
        let on: Vec<u64> = (0..m / 2).collect();
        group.bench_with_input(BenchmarkId::new("contiguous_half", k), &on, |b, on| {
            b.iter(|| black_box(qm::minimize(on, &[], k)));
        });
        // Scattered selection (every third code).
        let scattered: Vec<u64> = (0..m).step_by(3).collect();
        group.bench_with_input(
            BenchmarkId::new("scattered_third", k),
            &scattered,
            |b, on| {
                b.iter(|| black_box(qm::minimize(on, &[], k)));
            },
        );
    }
    group.finish();
}

/// A code space with no regard to value order: codes in first-seen
/// order (an explicit `BuildOptions::mapping`; the default build's until
/// it became value-ordered), the unassigned ones don't-care.
struct CodeSpace {
    mapping: Mapping,
    dont_cares: Vec<u64>,
}

impl CodeSpace {
    fn of(cells: &[Cell]) -> Self {
        let mapping = Mapping::from_values(&Mapping::first_seen_values(cells)).unwrap();
        let dont_cares = mapping.unassigned_codes();
        Self {
            mapping,
            dont_cares,
        }
    }

    fn reduce(&self, values: &[u64]) -> ebi_boolean::DnfExpr {
        let codes = self.mapping.codes_of(values).unwrap();
        qm::minimize(&codes, &self.dont_cares, self.mapping.width())
    }
}

/// One reduction per iteration, of one seeded selection per routine.
fn bench_served_shapes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x1998);

    // Column `c` of the repository benchmark: Zipf(1.0) over 1 000
    // values, k = 10, 24 don't-cares.
    let cells = zipf_cells(1000, 1.0, 100_000, rng.random());
    let served = CodeSpace::of(&cells);
    // The same column as a default build indexes it: codes in value
    // order, so the same ranges are code intervals and `explain_in_list`
    // covers them without Quine–McCluskey.
    let ordered = EncodedBitmapIndex::build(cells).unwrap();
    assert_eq!(served.dont_cares.len(), 24);
    for width in [50u64, 200, 400] {
        let lo = rng.random_range(0..1000 - width);
        let values = served.mapping.values_between(lo, lo + width);
        c.bench_function(&format!("first_seen_range/{width}"), |b| {
            b.iter(|| black_box(served.reduce(&values)));
        });
        c.bench_function(&format!("interval_cover/{width}"), |b| {
            b.iter(|| black_box(ordered.explain_in_list(&values)));
        });
        if width == 400 {
            let expr = served.reduce(&values);
            c.bench_function("display/range400", |b| {
                b.iter(|| black_box(expr.to_string()));
            });
        }
    }
    for len in [8usize, 64] {
        let mut values = std::collections::BTreeSet::new();
        while values.len() < len {
            values.insert(rng.random_range(0..1000u64));
        }
        let values: Vec<u64> = values.into_iter().collect();
        c.bench_function(&format!("scattered_inlist/{len}"), |b| {
            b.iter(|| black_box(served.reduce(&values)));
        });
    }

    // Column `d` of `lib_maintain`: 8 160 values, so k = 13 with 32 free
    // codes; the draws are followed by every value once.
    let mut cells = zipf_cells(8160, 1.0, 50_000, rng.random());
    cells.extend((0..8160).map(Cell::Value));
    let wide = CodeSpace::of(&cells);
    let ordered = EncodedBitmapIndex::build(cells).unwrap();
    assert_eq!((wide.mapping.width(), wide.dont_cares.len()), (13, 32));
    let lo = rng.random_range(0..8160 - 50u64);
    for (name, hi) in [("eq", lo), ("range50", lo + 50)] {
        let values = wide.mapping.values_between(lo, hi);
        c.bench_function(&format!("k13_free32/{name}"), |b| {
            b.iter(|| black_box(wide.reduce(&values)));
        });
    }
    c.bench_function("interval_cover/eq_k13", |b| {
        b.iter(|| black_box(ordered.explain_in_list(&[lo])));
    });
}

fn bench_min_support(c: &mut Criterion) {
    let mut group = c.benchmark_group("min_support");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    for (m, delta) in [(50u64, 31u64), (1000, 500)] {
        let k = if m <= 2 { 1 } else { (m - 1).ilog2() + 1 };
        let on: Vec<u64> = (0..delta).collect();
        let dc: Vec<u64> = (m..(1u64 << k)).collect();
        group.bench_with_input(
            BenchmarkId::new("prefix", format!("m{m}_d{delta}")),
            &(on, dc),
            |b, (on, dc)| {
                b.iter(|| black_box(support::min_vectors(on, dc, k)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_qm, bench_served_shapes, bench_min_support);
criterion_main!(benches);
