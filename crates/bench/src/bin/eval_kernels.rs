//! Measures the retrieval-expression evaluation engines and writes
//! `BENCH_eval.json` and `BENCH_compressed.json` at the repository
//! root.
//!
//! **Engine comparison** (`BENCH_eval.json`): Figure-9-style range
//! selections (width δ ∈ {8, 64, 512}) over a uniform m = 1000 column,
//! reduced with Quine–McCluskey, then evaluated at 1M and 10M rows by:
//!
//! * `naive` — the literal-at-a-time evaluator with full-length
//!   temporaries ([`ebi_boolean::eval_expr_naive`]);
//! * `fused` — the fused kernel;
//! * `fused_summarized` — the fused kernel plus segment-summary pruning.
//!
//! Its `simd` array times the same dense plans with the kernel
//! dispatcher pinned to the scalar tier versus the tier the host
//! detects.
//!
//! **Storage comparison** (`BENCH_compressed.json`): the same range
//! selections over columns at three skew levels (uniform, 90% hot,
//! 99% hot), each slice family repacked as dense, Roaring, and WAH
//! containers and evaluated compressed-domain via
//! [`ebi_boolean::eval_expr_tracked`]. Reports median latency, bytes
//! stored, and bytes touched per engine.
//!
//! Every engine is checked bit-identical to naive and every query's
//! `vectors_accessed` is checked invariant under fusing, pruning, and
//! container choice before any timing is recorded.
//!
//! Pass `--smoke` for a small-row CI run exercising every code path
//! and still emitting every JSON artefact; `--check` makes the run
//! self-validating: it exits non-zero if the detected tier falls below
//! 0.8× the scalar tier. `--out-dir DIR` redirects the JSON artefacts
//! (used to regenerate the committed baselines).

use ebi_bench::{uniform_cells, write_json};
use ebi_bitvec::simd::{self, KernelPath};
use ebi_bitvec::summary::summarize_slices;
use ebi_bitvec::{BitVec, SliceStorage, StoragePolicy};
use ebi_boolean::{eval_expr_naive, eval_expr_tracked, qm, AccessTracker};
use ebi_core::EncodedBitmapIndex;
use ebi_obs::CostCounters;
use ebi_storage::Cell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Floor for `--check`: the dispatched SIMD tier must stay within
/// noise of the scalar tier (the scalar loops autovectorize, so parity
/// is expected on bandwidth-bound hosts; a real dispatch bug tanks it).
const SIMD_FLOOR_VS_SCALAR: f64 = 0.8;

const M: u64 = 1000;
const DELTAS: [u64; 3] = [8, 64, 512];

/// Median wall-clock nanoseconds of `iters` runs of `f`.
fn median_ns<F: FnMut()>(iters: usize, mut f: F) -> u128 {
    let mut samples: Vec<u128> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

struct Row {
    rows: usize,
    delta: u64,
    cubes: usize,
    vectors_accessed: usize,
    naive_ns: u128,
    fused_ns: u128,
    fused_summarized_ns: u128,
}

impl Row {
    fn speedup_fused(&self) -> f64 {
        self.naive_ns as f64 / self.fused_ns as f64
    }
}

fn measure(rows: usize, iters: usize, out: &mut Vec<Row>) {
    eprintln!("building {rows}-row index (m = {M})…");
    let cells = uniform_cells(M, rows, 0xE7A1 ^ rows as u64);
    let index = EncodedBitmapIndex::build(cells).expect("build index");
    let dense: Vec<BitVec> = index.slices().iter().map(SliceStorage::to_dense).collect();
    let slices = &dense[..];
    let summaries = summarize_slices(slices);
    let k = index.width();

    for delta in DELTAS {
        let codes: Vec<u64> = (0..delta)
            .map(|v| index.mapping().code_of(v).expect("value mapped"))
            .collect();
        let expr = qm::minimize(&codes, &[], k);

        // Correctness gates: all engines bit-identical to naive, and the
        // paper's I/O metric unchanged by fusing/pruning.
        let naive = eval_expr_naive(&expr, slices, rows);
        let mut t_fused = AccessTracker::new();
        assert_eq!(
            eval_expr_tracked(&expr, slices, None, rows, &mut t_fused),
            naive,
            "fused != naive"
        );
        let mut t_sum = AccessTracker::new();
        assert_eq!(
            eval_expr_tracked(&expr, slices, Some(&summaries), rows, &mut t_sum),
            naive,
            "summarized != naive"
        );
        for (engine, got) in [
            ("fused", t_fused.finish().vectors_accessed),
            ("summarized", t_sum.finish().vectors_accessed),
        ] {
            assert_eq!(
                got,
                expr.vectors_accessed() as u64,
                "{engine} changed vectors_accessed at rows={rows} delta={delta}"
            );
        }

        let naive_ns = median_ns(iters, || {
            std::hint::black_box(eval_expr_naive(&expr, slices, rows));
        });
        let fused_ns = median_ns(iters, || {
            let mut t = AccessTracker::new();
            std::hint::black_box(eval_expr_tracked(&expr, slices, None, rows, &mut t));
        });
        let fused_summarized_ns = median_ns(iters, || {
            let mut t = AccessTracker::new();
            std::hint::black_box(eval_expr_tracked(
                &expr,
                slices,
                Some(&summaries),
                rows,
                &mut t,
            ));
        });

        let row = Row {
            rows,
            delta,
            cubes: expr.cubes().len(),
            vectors_accessed: expr.vectors_accessed(),
            naive_ns,
            fused_ns,
            fused_summarized_ns,
        };
        eprintln!(
            "rows={rows:>9} δ={delta:<4} naive={naive_ns:>12}ns fused={fused_ns:>12}ns \
             (×{:.2}) summarized={fused_summarized_ns:>12}ns",
            row.speedup_fused(),
        );
        out.push(row);
    }
}

/// Time-clustered skew: `hot_pct`% of rows carry four hot values, the
/// rest sweep the whole domain — the warehouse load pattern where the
/// high-order slices are long zero runs.
fn clustered_cells(rows: usize, m: u64, hot_pct: usize) -> Vec<Cell> {
    let head = rows * hot_pct / 100;
    (0..rows as u64)
        .map(|i| Cell::Value(if (i as usize) < head { i % 4 } else { i % m }))
        .collect()
}

struct CRow {
    skew: &'static str,
    delta: u64,
    storage: &'static str,
    median_ns: u128,
    bytes_stored: usize,
    bytes_touched: u64,
    compressed_chunks_skipped: u64,
    vectors_accessed: u64,
}

fn measure_compressed(rows: usize, iters: usize, out: &mut Vec<CRow>) {
    for (skew, hot_pct) in [("uniform", 0usize), ("skew90", 90), ("skew99", 99)] {
        eprintln!("building {rows}-row {skew} index for the storage comparison…");
        let cells = clustered_cells(rows, M, hot_pct);
        let index = EncodedBitmapIndex::build(cells).expect("build index");
        let k = index.width();
        let families: Vec<(&'static str, Vec<SliceStorage>)> = [
            ("dense", StoragePolicy::Dense),
            ("roaring", StoragePolicy::Roaring),
            ("wah", StoragePolicy::Wah),
        ]
        .into_iter()
        .map(|(name, policy)| {
            (
                name,
                index
                    .slices()
                    .iter()
                    .map(|s| s.repack(policy))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();

        for delta in DELTAS {
            let codes: Vec<u64> = (0..delta)
                .map(|v| index.mapping().code_of(v).expect("value mapped"))
                .collect();
            let expr = qm::minimize(&codes, &[], k);

            let mut expect: Option<(BitVec, u64)> = None;
            for (name, family) in &families {
                let mut tracker = AccessTracker::new();
                let result = eval_expr_tracked(&expr, family, None, rows, &mut tracker);
                let cost = tracker.finish();
                // Correctness gates before timing: bit-identical results
                // and the container-independent access metric.
                match &expect {
                    None => expect = Some((result, cost.vectors_accessed)),
                    Some((bits, va)) => {
                        assert_eq!(&result, bits, "{name} != dense at {skew} δ={delta}");
                        assert_eq!(
                            cost.vectors_accessed, *va,
                            "{name} changed vectors_accessed at {skew} δ={delta}"
                        );
                    }
                }
                let bytes_stored = family
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| expr.support() >> i & 1 == 1)
                    .map(|(_, s)| s.storage_bytes())
                    .sum();
                let median = median_ns(iters, || {
                    let mut t = AccessTracker::new();
                    std::hint::black_box(eval_expr_tracked(&expr, family, None, rows, &mut t));
                });
                eprintln!(
                    "{skew:<8} δ={delta:<4} {name:<8} {median:>12}ns bytes_touched={:>12} \
                     skipped={}",
                    cost.bytes_touched, cost.compressed_chunks_skipped,
                );
                out.push(CRow {
                    skew,
                    delta,
                    storage: name,
                    median_ns: median,
                    bytes_stored,
                    bytes_touched: cost.bytes_touched,
                    compressed_chunks_skipped: cost.compressed_chunks_skipped,
                    vectors_accessed: cost.vectors_accessed,
                });
            }
        }
    }
}

/// Deterministic Zipf-skewed column: head-heavy but *scattered* (no
/// pre-existing clustering) — the regime where build-time reordering
/// pays. `theta = 0` degenerates to uniform: reordering cannot help.
fn zipf_cells(rows: usize, m: u64, theta: f64, seed: u64) -> Vec<Cell> {
    // CDF over value ids 1..=m with weight 1/i^theta.
    let mut cdf: Vec<f64> = (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).collect();
    let total: f64 = cdf.iter().sum();
    let mut acc = 0.0;
    for w in &mut cdf {
        acc += *w / total;
        *w = acc;
    }
    // splitmix64 stream: seeded, stable across platforms.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..rows)
        .map(|_| {
            let u = next() as f64 / u64::MAX as f64;
            let v = cdf.partition_point(|&c| c < u) as u64;
            Cell::Value(v.min(m - 1))
        })
        .collect()
}

struct RRow {
    skew: &'static str,
    storage: &'static str,
    order: &'static str,
    median_ns: u128,
    bytes_stored: usize,
    bytes_touched: u64,
    compressed_chunks_skipped: u64,
    vectors_accessed: u64,
    slice_runs: u64,
    fill_word_fraction: f64,
}

/// Sorted-vs-unsorted comparison: the same scattered-skew column built
/// in original order and lexicographically reordered, per container
/// family. The query is a mid-tail IN-list (moderate selectivity), so
/// the O(matches) RID translation of the reordered index is priced in,
/// not hidden.
fn measure_reorder(rows: usize, iters: usize, out: &mut Vec<RRow>) {
    use ebi_core::index::{BuildOptions, QueryOptions};
    use ebi_core::RowOrder;
    const REORDER_M: u64 = 64;
    // Mid-tail band of a 64-value Zipf domain: rare enough that results
    // stay small, common enough that evaluation reads real data.
    let in_list: Vec<u64> = (9..17).collect();
    for (skew, theta) in [("uniform", 0.0), ("zipf0.8", 0.8), ("zipf1.2", 1.2)] {
        eprintln!("building {rows}-row {skew} indexes for the reorder comparison…");
        let cells = zipf_cells(rows, REORDER_M, theta, 0xEB1_0007);
        for order in [RowOrder::Original, RowOrder::Lexicographic] {
            let mut index = EncodedBitmapIndex::build_with(
                cells.iter().copied(),
                BuildOptions {
                    row_order: order,
                    ..Default::default()
                },
            )
            .expect("build index");
            for (name, policy) in [
                ("dense", StoragePolicy::Dense),
                ("roaring", StoragePolicy::Roaring),
                ("wah", StoragePolicy::Wah),
            ] {
                index.set_query_options(QueryOptions {
                    storage_policy: policy,
                    ..Default::default()
                });
                let result = index.in_list(&in_list).expect("query");
                let median = median_ns(iters, || {
                    std::hint::black_box(index.in_list(&in_list).expect("query"));
                });
                let rs = index.run_stats();
                eprintln!(
                    "{skew:<8} {name:<8} {:<14} {median:>12}ns stored={:>10} skipped={:>8} runs={}",
                    order.as_str(),
                    index.storage_bytes(),
                    result.stats.compressed_chunks_skipped,
                    rs.runs,
                );
                out.push(RRow {
                    skew,
                    storage: name,
                    order: order.as_str(),
                    median_ns: median,
                    bytes_stored: index.storage_bytes(),
                    bytes_touched: result.stats.bytes_touched,
                    compressed_chunks_skipped: result.stats.compressed_chunks_skipped,
                    vectors_accessed: result.stats.vectors_accessed,
                    slice_runs: rs.runs,
                    fill_word_fraction: rs.fill_word_fraction(),
                });
            }
        }
        // Correctness gate: sorted results must equal original-order
        // results (both report original row ids).
        let plain = EncodedBitmapIndex::build(cells.iter().copied()).expect("build");
        let sorted = EncodedBitmapIndex::build_with(
            cells.iter().copied(),
            BuildOptions {
                row_order: RowOrder::Lexicographic,
                ..Default::default()
            },
        )
        .expect("build");
        assert_eq!(
            plain.in_list(&in_list).expect("query").bitmap,
            sorted.in_list(&in_list).expect("query").bitmap,
            "reordered results diverged at {skew}"
        );
    }
}

struct SimdRow {
    rows: usize,
    delta: u64,
    scalar_ns: u128,
    simd_ns: u128,
    kernel_path: &'static str,
    speedup: f64,
}

/// Scalar-tier versus detected-tier latency for the dense fused plans.
/// The two runs are correctness-gated bit-identical before timing, and
/// the dispatched tier is read back from [`CostCounters::kernel_path`].
fn measure_simd(rows: usize, iters: usize, out: &mut Vec<SimdRow>) {
    eprintln!("building {rows}-row dense index for the SIMD comparison…");
    let cells = uniform_cells(M, rows, 0x51D ^ rows as u64);
    let index = EncodedBitmapIndex::build(cells).expect("build index");
    let dense: Vec<BitVec> = index.slices().iter().map(SliceStorage::to_dense).collect();
    let summaries = summarize_slices(&dense);
    let k = index.width();

    for delta in DELTAS {
        let codes: Vec<u64> = (0..delta)
            .map(|v| index.mapping().code_of(v).expect("value mapped"))
            .collect();
        let expr = qm::minimize(&codes, &[], k);
        let lowered = expr.lower();
        let plan = lowered.bind(&dense, Some(&summaries), rows);

        let best = simd::detected_path();
        let mut ks_scalar = CostCounters::default();
        let scalar_result =
            simd::with_forced_path(KernelPath::Scalar, || plan.eval(&mut ks_scalar));
        assert_eq!(ks_scalar.kernel_path(), "scalar", "scalar pin ignored");
        let mut ks_best = CostCounters::default();
        let best_result = plan.eval(&mut ks_best);
        assert_eq!(
            best_result,
            scalar_result,
            "{} tier != scalar tier at δ={delta}",
            ks_best.kernel_path()
        );

        // Interleave the two tiers so scheduler interference hits both
        // sides of the ratio alike. The reported speedup is the median
        // of the per-pair ratios: adjacent runs see the same
        // environment, so the ratio is stable even when the host is
        // noisy, and the median discards outlier pairs on both tails.
        let time_once = |path: KernelPath| {
            simd::with_forced_path(path, || {
                let t0 = Instant::now();
                let mut s = CostCounters::default();
                std::hint::black_box(plan.eval(&mut s));
                t0.elapsed().as_nanos()
            })
        };
        let mut scalar_ns = u128::MAX;
        let mut simd_ns = u128::MAX;
        let mut ratios: Vec<f64> = Vec::with_capacity(iters);
        for _ in 0..iters {
            let s = time_once(KernelPath::Scalar);
            let v = time_once(best);
            scalar_ns = scalar_ns.min(s);
            simd_ns = simd_ns.min(v);
            ratios.push(s as f64 / v as f64);
        }
        ratios.sort_by(f64::total_cmp);
        let speedup = ratios[ratios.len() / 2];

        let row = SimdRow {
            rows,
            delta,
            scalar_ns,
            simd_ns,
            kernel_path: ks_best.kernel_path(),
            speedup,
        };
        eprintln!(
            "simd     δ={delta:<4} scalar={scalar_ns:>12}ns {}={simd_ns:>12}ns (×{:.2})",
            row.kernel_path, row.speedup,
        );
        out.push(row);
    }
}

const USAGE: &str = "eval_kernels — evaluation-engine benchmarks (BENCH_eval/compressed.json)

USAGE:
    eval_kernels [--smoke] [--check] [--out-dir DIR]

FLAGS:
    --smoke         small-row CI run, every code path, every artefact
    --check         self-validating run: non-zero exit if the detected
                    kernel tier falls below its floor against scalar
    --out-dir DIR   write the JSON artefacts into DIR instead of the
                    repository root (used to regenerate baselines)
    -h, --help      print this help

Unknown flags are an error.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut check = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            "--out-dir" => {
                i += 1;
                match args.get(i) {
                    Some(d) => out_dir = Some(PathBuf::from(d)),
                    None => {
                        eprintln!("error: --out-dir needs a path\n\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("error: unknown flag {other:?}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let out_dir = out_dir.as_deref();
    let mut rows_out = Vec::new();
    let mut simd_out = Vec::new();
    if smoke {
        eprintln!("--smoke: small-row CI run");
        // Enough iterations that the medians are stable: the regression
        // gate compares these speedups at 15% tolerance.
        measure(300_000, 15, &mut rows_out);
        measure_simd(300_000, 9, &mut simd_out);
    } else {
        measure(1_000_000, 9, &mut rows_out);
        measure(10_000_000, 5, &mut rows_out);
        measure_simd(10_000_000, 7, &mut simd_out);
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"ebi.bench_eval.v2\",");
    let _ = writeln!(
        json,
        "  \"workload\": \"fig9-style range selections, m = {M}, QM-reduced\","
    );
    let _ = writeln!(
        json,
        "  \"engines\": [\"naive\", \"fused\", \"fused_summarized\"],"
    );
    let _ = writeln!(
        json,
        "  \"unit\": \"median wall-clock ns (simd: best-of-N)\","
    );
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(
        json,
        "  \"kernel_path\": \"{}\",",
        simd::detected_path().name()
    );
    let _ = writeln!(
        json,
        "  \"check\": {{ \"simd_floor_vs_scalar\": {SIMD_FLOOR_VS_SCALAR} }},"
    );
    let _ = writeln!(
        json,
        "  \"invariants\": {{ \"bit_identical_to_naive\": true, \"vectors_accessed_unchanged\": true, \
         \"bit_identical_across_kernel_paths\": true }},"
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in rows_out.iter().enumerate() {
        let _ = write!(
            json,
            "    {{ \"rows\": {}, \"delta\": {}, \"cubes\": {}, \"vectors_accessed\": {}, \
             \"naive_ns\": {}, \"fused_ns\": {}, \"fused_summarized_ns\": {}, \
             \"speedup_fused_vs_naive\": {:.2} }}",
            r.rows,
            r.delta,
            r.cubes,
            r.vectors_accessed,
            r.naive_ns,
            r.fused_ns,
            r.fused_summarized_ns,
            r.speedup_fused(),
        );
        json.push_str(if i + 1 < rows_out.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"simd\": [\n");
    for (i, r) in simd_out.iter().enumerate() {
        let _ = write!(
            json,
            "    {{ \"rows\": {}, \"delta\": {}, \"scalar_ns\": {}, \"simd_ns\": {}, \
             \"kernel_path\": \"{}\", \"speedup_simd_vs_scalar\": {:.3} }}",
            r.rows, r.delta, r.scalar_ns, r.simd_ns, r.kernel_path, r.speedup,
        );
        json.push_str(if i + 1 < simd_out.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    write_json(out_dir, "BENCH_eval.json", &json);
    println!("{json}");

    // Storage comparison: dense vs Roaring vs WAH, compressed-domain.
    let crows_count = if smoke { 400_000 } else { 4_000_000 };
    let citers = if smoke { 3 } else { 5 };
    let mut c_out = Vec::new();
    measure_compressed(crows_count, citers, &mut c_out);
    let mut r_out = Vec::new();
    measure_reorder(crows_count, citers, &mut r_out);

    let mut cjson = String::from("{\n");
    let _ = writeln!(cjson, "  \"schema\": \"ebi.bench_compressed.v2\",");
    let _ = writeln!(
        cjson,
        "  \"workload\": \"fig9-style range selections, m = {M}, QM-reduced, per-slice container comparison\","
    );
    let _ = writeln!(cjson, "  \"rows\": {crows_count},");
    let _ = writeln!(cjson, "  \"storages\": [\"dense\", \"roaring\", \"wah\"],");
    let _ = writeln!(cjson, "  \"unit\": \"median wall-clock ns\",");
    let _ = writeln!(cjson, "  \"smoke\": {smoke},");
    let _ = writeln!(
        cjson,
        "  \"invariants\": {{ \"bit_identical_across_storages\": true, \"vectors_accessed_unchanged\": true }},"
    );
    cjson.push_str("  \"results\": [\n");
    for (i, r) in c_out.iter().enumerate() {
        let _ = write!(
            cjson,
            "    {{ \"skew\": \"{}\", \"delta\": {}, \"storage\": \"{}\", \"median_ns\": {}, \
             \"bytes_stored\": {}, \"bytes_touched\": {}, \"compressed_chunks_skipped\": {}, \
             \"vectors_accessed\": {} }}",
            r.skew,
            r.delta,
            r.storage,
            r.median_ns,
            r.bytes_stored,
            r.bytes_touched,
            r.compressed_chunks_skipped,
            r.vectors_accessed,
        );
        cjson.push_str(if i + 1 < c_out.len() { ",\n" } else { "\n" });
    }
    cjson.push_str("  ],\n");
    let _ = writeln!(
        cjson,
        "  \"reorder_workload\": \"mid-tail IN-list over a scattered m = 64 Zipf column, \
         original vs lexicographic build order, full query path including RID translation\","
    );
    let _ = writeln!(
        cjson,
        "  \"row_orders\": [\"original\", \"lexicographic\"],"
    );
    cjson.push_str("  \"reorder_results\": [\n");
    for (i, r) in r_out.iter().enumerate() {
        let _ = write!(
            cjson,
            "    {{ \"skew\": \"{}\", \"storage\": \"{}\", \"order\": \"{}\", \
             \"median_ns\": {}, \"bytes_stored\": {}, \"bytes_touched\": {}, \
             \"compressed_chunks_skipped\": {}, \"vectors_accessed\": {}, \
             \"slice_runs\": {}, \"fill_word_fraction\": {:.4} }}",
            r.skew,
            r.storage,
            r.order,
            r.median_ns,
            r.bytes_stored,
            r.bytes_touched,
            r.compressed_chunks_skipped,
            r.vectors_accessed,
            r.slice_runs,
            r.fill_word_fraction,
        );
        cjson.push_str(if i + 1 < r_out.len() { ",\n" } else { "\n" });
    }
    cjson.push_str("  ]\n}\n");
    write_json(out_dir, "BENCH_compressed.json", &cjson);
    println!("{cjson}");

    if check {
        let failures: Vec<&SimdRow> = simd_out
            .iter()
            .filter(|r| r.speedup < SIMD_FLOOR_VS_SCALAR)
            .collect();
        for r in &failures {
            eprintln!(
                "--check FAILED: simd δ={}: {} tier is ×{:.3} of scalar (floor {:.2})",
                r.delta, r.kernel_path, r.speedup, SIMD_FLOOR_VS_SCALAR,
            );
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        eprintln!(
            "--check passed: {} tier ≥ {SIMD_FLOOR_VS_SCALAR}× scalar",
            simd::detected_path().name()
        );
    }

    let worst_10m = rows_out
        .iter()
        .filter(|r| r.rows == 10_000_000)
        .map(Row::speedup_fused)
        .fold(f64::INFINITY, f64::min);
    if !smoke {
        eprintln!("worst-case fused speedup at 10M rows: ×{worst_10m:.2}");
    }

    // Headline for the storage comparison: the skewed δ=512 workload.
    for skew in ["skew90", "skew99"] {
        let find = |storage: &str| {
            c_out
                .iter()
                .find(|r| r.skew == skew && r.delta == 512 && r.storage == storage)
        };
        if let (Some(d), Some(r), Some(w)) = (find("dense"), find("roaring"), find("wah")) {
            eprintln!(
                "{skew} δ=512: roaring ×{:.2} speedup, {:.1}× fewer bytes touched; \
                 wah ×{:.2} speedup, {:.1}× fewer bytes touched",
                d.median_ns as f64 / r.median_ns as f64,
                d.bytes_touched as f64 / r.bytes_touched.max(1) as f64,
                d.median_ns as f64 / w.median_ns as f64,
                d.bytes_touched as f64 / w.bytes_touched.max(1) as f64,
            );
        }
    }
}
