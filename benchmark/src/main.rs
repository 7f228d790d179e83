//! The repository benchmark (README.md, ../BENCHMARK.json).
//!
//! ```text
//! ebi_benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1]
//!               [--smoke]
//! ```
//!
//! One process runs one workload once: untraced (`--trace 0`, the
//! end-to-end metrics and the window's latency and rate as observed) or
//! traced (`--trace 1`, the per-layer metrics and
//! `benchmark/out/<workload>.trace.jsonl`). Every metric is printed
//! by name with its unit; the last line of standard output is the JSON
//! result. Exit status 1 when an answer was wrong or the trace checker
//! failed, 2 on a usage error.

mod inputs;
mod maintain;
mod oracle;
mod serve;
mod stats;
mod trace;

use ebi_obs::CostCounters;
use std::collections::BTreeMap;
use std::path::Path;

const USAGE: &str =
    "usage: ebi_benchmark --workload <serve_point|serve_range|serve_inlist|lib_maintain> \
[--seed n] [--seconds s] [--trace 0|1] [--smoke]";

/// A workload's name, table size and script length. The script has
/// `ops_per_second × --seconds` ops: the rate is what this host (2
/// vCPUs) sustains, measured once and frozen, so a run measures for
/// about `--seconds` seconds while every count in it repeats exactly.
struct Workload {
    name: &'static str,
    rows: usize,
    ops_per_second: usize,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_point",
        rows: 100_000,
        ops_per_second: 3200,
    },
    Workload {
        name: "serve_range",
        rows: 1_000_000,
        ops_per_second: 100,
    },
    Workload {
        name: "serve_inlist",
        rows: 100_000,
        ops_per_second: 1700,
    },
    Workload {
        name: "lib_maintain",
        rows: 1_000_000,
        ops_per_second: 120,
    },
];

/// Where a run leaves its files (the service's log, the trace),
/// relative to the repository root that `run.sh` runs it from.
pub const OUT_DIR: &str = "benchmark/out";

/// The traced run replays this share of the script.
pub const TRACED_SHARE: usize = 4;

/// Adds one evaluation's counters into a total.
pub fn add_cost(total: &mut CostCounters, part: &CostCounters) {
    total.vectors_accessed += part.vectors_accessed;
    total.words_scanned += part.words_scanned;
    total.bytes_touched += part.bytes_touched;
    total.compressed_chunks_skipped += part.compressed_chunks_skipped;
    total.segments_pruned += part.segments_pruned;
    total.segments_short_circuited += part.segments_short_circuited;
}

/// Table size of `--smoke`, the determinism self-test.
const SMOKE_ROWS: usize = 20_000;
const SMOKE_CUT: usize = 8;
const DEFAULT_SEED: u64 = 1998;
const DEFAULT_SECONDS: usize = 15;

/// End-to-end metrics, in the order they are printed.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("quiet_us", "us"),
    ("quiet_p95_us", "us"),
    ("vectors_per_op", "count"),
    ("index_bytes_per_row", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, named `<crate>.<module>.<what>`. A workload that
/// does not exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 52] = [
    ("client.p50_us", "us"),
    ("client.p95_us", "us"),
    ("client.throughput_ops", "1/s"),
    ("service.server.exec_us", "us"),
    ("service.server.transport_us", "us"),
    ("service.server.residual_us", "us"),
    ("service.server.accounted_share", "ratio"),
    ("service.server.trace_overhead_pct", "%"),
    ("service.protocol.parse_us", "us"),
    ("service.shard.compile_us", "us"),
    ("service.shard.estimate_us", "us"),
    ("service.shard.eval_us", "us"),
    ("service.shard.eval_max_us", "us"),
    ("service.shard.merge_us", "us"),
    ("service.shard.build_s", "s"),
    ("service.pool.handoff_us", "us"),
    ("service.pool.dispatched_share", "ratio"),
    ("boolean.qm.reduce_us", "us"),
    ("boolean.qm.cubes_per_op", "count"),
    ("boolean.qm.literals_per_op", "count"),
    ("core.index.run_dnf_us_per_call", "us"),
    ("core.index.build_us_per_krow", "us"),
    ("core.index.eq_us", "us"),
    ("core.index.range_us", "us"),
    ("core.index.refresh_summaries_ms", "ms"),
    ("core.index.range_after_refresh_us", "us"),
    ("core.index.bytes_per_row_before", "bytes"),
    ("core.index.bytes_per_row_after", "bytes"),
    ("core.maintenance.append_ns", "ns"),
    ("core.maintenance.update_ns", "ns"),
    ("core.maintenance.delete_ns", "ns"),
    ("core.maintenance.admit_value_us", "us"),
    ("core.maintenance.expand_width_ms", "ms"),
    ("core.maintenance.share", "ratio"),
    ("core.persist.save_ms", "ms"),
    ("core.persist.load_ms", "ms"),
    ("storage.pager.pages_written", "count"),
    ("storage.pager.pages_read", "count"),
    ("bitvec.kernels.kwords_scanned_per_op", "count"),
    ("bitvec.kernels.kbytes_touched_per_op", "count"),
    ("bitvec.kernels.segments_pruned_per_op", "count"),
    ("bitvec.kernels.segments_short_circuited_per_op", "count"),
    ("bitvec.kernels.ns_per_kword", "ns"),
    ("bitvec.store.chunks_skipped_per_op", "count"),
    ("bitvec.store.dense_slices", "count"),
    ("bitvec.store.roaring_slices", "count"),
    ("bitvec.store.wah_slices", "count"),
    ("storage.buffer.fetch_us", "us"),
    ("storage.buffer.pages_per_op", "count"),
    ("storage.buffer.hit_ratio", "ratio"),
    ("storage.buffer.evictions_per_op", "count"),
    ("obs.enabled_overhead_pct", "%"),
];

/// The untraced window's latency and rate as the client observed them,
/// the host's interference included. Printed, and bounded by `aa.sh`
/// on interleaved runs, but not end-to-end metrics of `BENCHMARK.json`:
/// on this host their spread over ten runs exceeds any bound a single
/// set of runs can hold (README, "Noise"); `quiet_us` and
/// `quiet_p95_us` are what such a set can hold. The traced run reports
/// them as `client.*`.
const WINDOW: [(&str, &str); 3] = [
    ("p50_us", "us"),
    ("p95_us", "us"),
    ("throughput_ops", "1/s"),
];

/// One invocation, after argument parsing.
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    /// Script length, a multiple of `stats::SEGMENTS`.
    pub ops: usize,
    pub trace: bool,
}

/// What a workload hands back to be printed.
pub struct Outcome {
    pub script_hash: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples behind the timing metrics.
    pub samples: usize,
    metrics: BTreeMap<&'static str, f64>,
    /// Names of the metrics that are counts: they repeat exactly for a
    /// seed, which `run.sh --smoke` checks.
    exact: Vec<&'static str>,
    pub checked: Option<trace::Checked>,
}

impl Outcome {
    pub fn new(script_hash: u64) -> Self {
        Self {
            script_hash,
            attempted: 0,
            failed: 0,
            samples: 0,
            metrics: BTreeMap::new(),
            exact: Vec::new(),
            checked: None,
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn set_exact(&mut self, name: &'static str, value: f64) {
        self.set(name, value);
        self.exact.push(name);
    }

    /// Kernel and container counts per op, from `ops` ops whose
    /// evaluation took `eval_us` each on average.
    pub fn set_kernel_counts(&mut self, cost: &CostCounters, ops: f64, eval_us: f64) {
        let kwords = cost.words_scanned as f64 / 1e3 / ops;
        self.set_exact("bitvec.kernels.kwords_scanned_per_op", kwords);
        self.set_exact(
            "bitvec.kernels.kbytes_touched_per_op",
            cost.bytes_touched as f64 / 1e3 / ops,
        );
        self.set_exact(
            "bitvec.kernels.segments_pruned_per_op",
            cost.segments_pruned as f64 / ops,
        );
        self.set_exact(
            "bitvec.kernels.segments_short_circuited_per_op",
            cost.segments_short_circuited as f64 / ops,
        );
        self.set_exact(
            "bitvec.store.chunks_skipped_per_op",
            cost.compressed_chunks_skipped as f64 / ops,
        );
        if kwords > 0.0 {
            self.set("bitvec.kernels.ns_per_kword", eval_us * 1e3 / kwords);
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .unwrap_or_else(|| usage("--seconds takes a whole number from 1 to 60"));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    let Some(w) = workload
        .as_deref()
        .and_then(|name| WORKLOADS.iter().find(|w| w.name == name))
    else {
        usage("--workload names one of the four workloads");
    };

    std::fs::create_dir_all(OUT_DIR).expect("create the output directory");
    // Slow-query logging stays on, as shipped, but goes to a file. Set
    // before the first log call configures the sink, and before any
    // thread starts.
    std::env::set_var("EBI_LOG", Path::new(OUT_DIR).join("ebi.log"));
    ebi_obs::set_enabled(false);

    // The self-test runs the same code on a small table and a short
    // script, so that all its runs end within half a minute.
    let smoke_cut = if smoke { SMOKE_CUT } else { 1 };
    let run = Run {
        workload: w.name,
        seed,
        ops: w.ops_per_second * seconds / smoke_cut / stats::SEGMENTS * stats::SEGMENTS,
        trace,
    };
    let rows = if smoke { SMOKE_ROWS } else { w.rows };
    let outcome = match w.name {
        "serve_point" => serve::run(serve::Kind::Point, rows, &run),
        "serve_range" => serve::run(serve::Kind::Range, rows, &run),
        "serve_inlist" => serve::run(serve::Kind::InList, rows, &run),
        _ => maintain::run(rows, &run),
    };
    report(&run, rows, &outcome);
}

fn report(run: &Run, rows: usize, o: &Outcome) {
    let names: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "workload {} seed {} rows {} script_ops {} trace {}",
        run.workload,
        run.seed,
        rows,
        run.ops,
        u8::from(run.trace)
    );
    println!(
        "attempted {} failed {} latency_samples {}",
        o.attempted, o.failed, o.samples
    );
    for name in o.metrics.keys() {
        assert!(
            names.iter().chain(&WINDOW).any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
    let value = |name: &str| {
        let v = o.metrics.get(name).copied().unwrap_or(0.0);
        if v.is_finite() {
            v
        } else {
            0.0
        }
    };
    for (name, unit) in names {
        println!("{name} {} {unit}", value(name));
    }
    if !run.trace {
        for (name, unit) in &WINDOW {
            println!("{name} {} {unit}", value(name));
        }
    }
    let mut trace_ok = true;
    if let Some(c) = &o.checked {
        trace_ok = c.passed();
        println!(
            "trace spans {} ops {} structure_errors {} over_budget_ops {} median_layers_per_client {:.3} layers_us_per_op {:.3} client_us_per_op {:.3} {}",
            c.spans,
            c.ops,
            c.error_count,
            c.over_budget_ops,
            c.budget_ratio,
            c.layer_total_ns as f64 / 1e3 / c.ops as f64,
            c.client_total_ns as f64 / 1e3 / c.ops as f64,
            if trace_ok { "passed" } else { "FAILED" }
        );
        for e in &c.errors {
            println!("trace error: {e}");
        }
    }
    // Everything that must repeat exactly for a seed, on one line.
    let mut exact = format!(
        "script_hash={:016x} attempted={}",
        o.script_hash, o.attempted
    );
    for name in &o.exact {
        exact.push_str(&format!(" {name}={}", value(name)));
    }
    println!("determinism {exact}");

    let correct = o.failed == 0 && trace_ok;
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                value(name)
            )
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
