//! Times the fused kernel with its dispatcher pinned to the scalar tier
//! against the tier the host detects, and writes `BENCH_eval.json` at
//! the repository root.
//!
//! The plans are Figure-9-style range selections (width δ ∈ {8, 64,
//! 512}) over a uniform m = 1000 column, reduced with Quine–McCluskey
//! and evaluated over dense slices. No served workload compares the two
//! tiers, so this is the one place the explicit SIMD tier is measured
//! against scalar.
//!
//! Pass `--smoke` for a 300k-row run instead of 10M rows; `--check`
//! makes the run its own gate: it exits non-zero if the detected tier
//! falls below 0.8× the scalar tier in this run.

use ebi_bench::uniform_cells;
use ebi_bitvec::simd::{self, KernelPath};
use ebi_bitvec::summary::summarize_slices;
use ebi_bitvec::{BitVec, SliceStorage};
use ebi_boolean::qm;
use ebi_core::EncodedBitmapIndex;
use ebi_obs::CostCounters;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Floor for `--check`: the dispatched SIMD tier must stay within
/// noise of the scalar tier (the scalar loops autovectorize, so parity
/// is expected on bandwidth-bound hosts; a real dispatch bug tanks it).
const SIMD_FLOOR_VS_SCALAR: f64 = 0.8;

const M: u64 = 1000;
const DELTAS: [u64; 3] = [8, 64, 512];

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
fn measure_simd(rows: usize, iters: usize) -> Vec<SimdRow> {
    eprintln!("building {rows}-row dense index for the SIMD comparison…");
    let cells = uniform_cells(M, rows, 0x51D ^ rows as u64);
    let index = EncodedBitmapIndex::build(cells).expect("build index");
    let dense: Vec<BitVec> = index.slices().iter().map(SliceStorage::to_dense).collect();
    let summaries = summarize_slices(&dense);
    let k = index.width();

    let mut out = Vec::with_capacity(DELTAS.len());
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
    out
}

const USAGE: &str = "eval_kernels — scalar vs detected kernel tier (BENCH_eval.json)

USAGE:
    eval_kernels [--smoke] [--check]

FLAGS:
    --smoke         300k rows instead of 10M
    --check         non-zero exit if the detected kernel tier falls
                    below its floor against scalar in this run
    -h, --help      print this help

Unknown flags are an error.";

fn main() {
    let mut smoke = false;
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("error: unknown flag {other:?}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let (rows, iters) = if smoke { (300_000, 9) } else { (10_000_000, 7) };
    let simd_out = measure_simd(rows, iters);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"ebi.bench_eval.v3\",");
    let _ = writeln!(
        json,
        "  \"workload\": \"fig9-style range selections, m = {M}, QM-reduced, dense fused kernel\","
    );
    let _ = writeln!(
        json,
        "  \"unit\": \"best-of-N wall-clock ns; speedup is the median of interleaved pair ratios\","
    );
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(
        json,
        "  \"check\": {{ \"simd_floor_vs_scalar\": {SIMD_FLOOR_VS_SCALAR} }},"
    );
    let _ = writeln!(
        json,
        "  \"invariants\": {{ \"bit_identical_across_kernel_paths\": true }},"
    );
    json.push_str("  \"simd\": [\n");
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
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_eval.json");
    std::fs::write(&path, &json).expect("write BENCH_eval.json");
    eprintln!("wrote {}", path.display());
    println!("{json}");

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
}
