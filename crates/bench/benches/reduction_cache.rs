//! §3.2's one-time-cost claim, measured: logical reduction dominates
//! in-memory wide-IN-list latency (the paper's model ignores CPU and
//! counts disk accesses), and precomputing the reduced functions for
//! predefined predicates — exactly what §3.2 proposes — removes it.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ebi_bench::uniform_cells;
use ebi_core::index::BuildOptions;
use ebi_core::{EncodedBitmapIndex, Mapping};
use std::hint::black_box;
use std::time::Duration;

fn bench_reduction_cache(c: &mut Criterion) {
    let m = 1000u64;
    let rows = 100_000usize;
    let cells = uniform_cells(m, rows, 0xCA);
    // First-seen codes, explicitly: on the default value-ordered codes
    // these selections are code intervals, which skip Quine–McCluskey and
    // leave nothing for the cache to remove. A scattered code set is the
    // case §3.2's precomputation is for.
    let build = || {
        let options = BuildOptions {
            mapping: Mapping::from_values(&Mapping::first_seen_values(&cells)).ok(),
            ..Default::default()
        };
        EncodedBitmapIndex::build_with(cells.iter().copied(), options).unwrap()
    };
    let (cold, mut warm) = (build(), build());

    let mut group = c.benchmark_group("reduction_cache");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    for delta in [8u64, 64, 512] {
        let selection: Vec<u64> = (0..delta).collect();
        warm.precompute_predicates(std::slice::from_ref(&selection));
        group.bench_with_input(BenchmarkId::new("uncached", delta), &selection, |b, sel| {
            b.iter(|| black_box(cold.in_list(sel).unwrap()));
        });
        group.bench_with_input(
            BenchmarkId::new("precomputed", delta),
            &selection,
            |b, sel| {
                b.iter(|| black_box(warm.in_list(sel).unwrap()));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_reduction_cache);
criterion_main!(benches);
