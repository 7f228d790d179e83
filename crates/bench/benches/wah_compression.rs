//! §2.1/§4 compression side-note: run-length compression attacks the
//! sparsity of simple bitmaps; encoded vectors (density ≈ 1/2) barely
//! compress. Measures WAH compress/decompress.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ebi_bitvec::wah::WahBitmap;
use ebi_bitvec::BitVec;
use std::hint::black_box;
use std::time::Duration;

fn sparse_bitmap(rows: usize, one_in: usize) -> BitVec {
    (0..rows).map(|i| i % one_in == 0).collect()
}

fn dense_random(rows: usize) -> BitVec {
    (0..rows).map(|i| (i * 2654435761) % 97 < 48).collect()
}

fn bench_wah(c: &mut Criterion) {
    let rows = 1_000_000usize;
    let mut group = c.benchmark_group("wah");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.throughput(Throughput::Bytes((rows / 8) as u64));

    let sparse = sparse_bitmap(rows, 1000); // simple-bitmap regime
    let dense = dense_random(rows); // encoded-bitmap regime
    group.bench_function(BenchmarkId::new("compress", "sparse_0.1%"), |b| {
        b.iter(|| black_box(WahBitmap::compress(&sparse)));
    });
    group.bench_function(BenchmarkId::new("compress", "dense_50%"), |b| {
        b.iter(|| black_box(WahBitmap::compress(&dense)));
    });

    let ws = WahBitmap::compress(&sparse);
    group.bench_function(BenchmarkId::new("decompress", "sparse"), |b| {
        b.iter(|| black_box(ws.decompress()));
    });
    group.finish();
}

criterion_group!(benches, bench_wah);
criterion_main!(benches);
