//! Experiment E15 — maintenance cost (§3.1): appends are O(h) for both
//! bitmap indexes, but h = m for simple and h = ceil(log2 m) for
//! encoded; domain expansion costs O(|T|) for simple (a whole new
//! vector) and amortises for encoded.
//!
//! `maintenance_update` and `build` time the encoded write path on the
//! shape of the repository benchmark's `lib_maintain` workload, so that
//! a change to it can be measured without that benchmark.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ebi_baselines::SimpleBitmapIndex;
use ebi_bench::{uniform_cells, zipf_cells};
use ebi_core::EncodedBitmapIndex;
use ebi_storage::Cell;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

const APPENDS: usize = 2_000;

/// `lib_maintain`'s table: Zipf(1.0) over `LIB_M` values, then every
/// value once, so k = 13 with 32 free codes.
const LIB_ROWS: usize = 1_000_000;
const LIB_M: u64 = 8_160;
const LIB_UPDATES: usize = 16_000;

fn lib_maintain_cells() -> Vec<Cell> {
    let mut cells = zipf_cells(LIB_M, 1.0, LIB_ROWS - LIB_M as usize, 0x1AB);
    cells.extend((0..LIB_M).map(Cell::Value));
    cells
}

fn bench_update(c: &mut Criterion) {
    // One row deleted, so that `B_NotExist` is among the vectors every
    // update writes, as in `lib_maintain` after its first batch.
    let mut base = EncodedBitmapIndex::build(lib_maintain_cells()).unwrap();
    base.delete(0).unwrap();
    let mut rng = StdRng::seed_from_u64(0x1AC);
    let updates: Vec<(usize, Cell)> = zipf_cells(LIB_M, 1.0, LIB_UPDATES, 0x1AD)
        .into_iter()
        .map(|cell| (rng.random_range(0..LIB_ROWS), cell))
        .collect();
    let mut group = c.benchmark_group("maintenance_update");
    group.sample_size(10);
    group.throughput(Throughput::Elements(LIB_UPDATES as u64));
    group.bench_function("lib_maintain_shape", |b| {
        b.iter_batched(
            || base.clone(),
            |mut idx| {
                for &(row, cell) in &updates {
                    idx.update(row, cell).unwrap();
                }
                black_box(idx)
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let cells = lib_maintain_cells();
    let mut group = c.benchmark_group("build");
    group.sample_size(10);
    group.throughput(Throughput::Elements(LIB_ROWS as u64));
    group.bench_function("lib_maintain_shape", |b| {
        b.iter(|| EncodedBitmapIndex::build(black_box(&cells).iter().copied()).unwrap());
    });
    group.finish();
}

fn bench_appends(c: &mut Criterion) {
    let rows = 20_000usize;
    let mut group = c.benchmark_group("maintenance_append");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.throughput(Throughput::Elements(APPENDS as u64));
    for m in [64u64, 1024] {
        let cells = uniform_cells(m, rows, 0xA9 + m);
        group.bench_with_input(BenchmarkId::new("encoded", m), &cells, |b, cells| {
            b.iter_batched(
                || EncodedBitmapIndex::build(cells.iter().copied()).unwrap(),
                |mut idx| {
                    for i in 0..APPENDS {
                        idx.append(Cell::Value((i as u64) % m)).unwrap();
                    }
                    black_box(idx)
                },
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("simple", m), &cells, |b, cells| {
            b.iter_batched(
                || SimpleBitmapIndex::build(cells.iter().copied()),
                |mut idx| {
                    for i in 0..APPENDS {
                        idx.append(Cell::Value((i as u64) % m));
                    }
                    black_box(idx)
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_domain_expansion(c: &mut Criterion) {
    // Appends that each introduce a brand-new value: simple must create
    // a whole vector per append; encoded mostly reuses free codes.
    let rows = 20_000usize;
    let m = 256u64;
    let cells = uniform_cells(m, rows, 0xAE);
    let mut group = c.benchmark_group("maintenance_expansion");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.throughput(Throughput::Elements(200));
    group.bench_function("encoded_new_values", |b| {
        b.iter_batched(
            || EncodedBitmapIndex::build(cells.iter().copied()).unwrap(),
            |mut idx| {
                for i in 0..200u64 {
                    idx.append(Cell::Value(m + i)).unwrap();
                }
                black_box(idx)
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("simple_new_values", |b| {
        b.iter_batched(
            || SimpleBitmapIndex::build(cells.iter().copied()),
            |mut idx| {
                for i in 0..200u64 {
                    idx.append(Cell::Value(m + i));
                }
                black_box(idx)
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_appends,
    bench_domain_expansion,
    bench_update,
    bench_build
);
criterion_main!(benches);
