//! Wall-clock comparison of the evaluation engines on the Figure-9
//! workload shape: range selections of width δ over m = 1000, reduced
//! by Quine–McCluskey, evaluated over 1M-row slices.
//!
//! Engines: `eval_expr_naive` (literal-at-a-time with temporaries),
//! the fused kernel, and the fused kernel with segment summaries.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ebi_bench::uniform_cells;
use ebi_bitvec::summary::summarize_slices;
use ebi_boolean::{eval_expr_naive, eval_expr_tracked, qm, AccessTracker};
use ebi_core::EncodedBitmapIndex;
use std::hint::black_box;
use std::time::Duration;

fn bench_eval(c: &mut Criterion) {
    let m = 1000u64;
    let rows = 1_000_000usize;
    let cells = uniform_cells(m, rows, 0xE7A1);
    let index = EncodedBitmapIndex::build(cells).expect("build");
    let dense: Vec<ebi_bitvec::BitVec> = index
        .slices()
        .iter()
        .map(ebi_bitvec::SliceStorage::to_dense)
        .collect();
    let slices = &dense[..];
    let summaries = summarize_slices(slices);
    let k = index.width();

    let mut group = c.benchmark_group("eval_fused");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    for delta in [8u64, 64, 512] {
        let codes: Vec<u64> = (0..delta)
            .map(|v| index.mapping().code_of(v).expect("mapped"))
            .collect();
        let expr = qm::minimize(&codes, &[], k);

        // Sanity outside the timing loops: all engines agree bit for bit
        // and fusing leaves the paper's cost metric untouched.
        let naive = eval_expr_naive(&expr, slices, rows);
        let mut tracker = AccessTracker::new();
        assert_eq!(
            eval_expr_tracked(&expr, slices, None, rows, &mut tracker),
            naive
        );
        assert_eq!(
            tracker.finish().vectors_accessed,
            expr.vectors_accessed() as u64
        );

        group.bench_with_input(BenchmarkId::new("naive", delta), &expr, |b, e| {
            b.iter(|| black_box(eval_expr_naive(e, slices, rows)));
        });
        group.bench_with_input(BenchmarkId::new("fused", delta), &expr, |b, e| {
            b.iter(|| {
                let mut t = AccessTracker::new();
                black_box(eval_expr_tracked(e, slices, None, rows, &mut t))
            });
        });
        group.bench_with_input(
            BenchmarkId::new("fused_summarized", delta),
            &expr,
            |b, e| {
                b.iter(|| {
                    let mut t = AccessTracker::new();
                    black_box(eval_expr_tracked(e, slices, Some(&summaries), rows, &mut t))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_eval);
criterion_main!(benches);
