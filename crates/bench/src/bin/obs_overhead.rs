//! Observability overhead — proves the disabled path is (near) free.
//!
//! Runs the same selection mix three ways per row count:
//!
//! * `baseline` — `profile: false`, subscriber off: the query path
//!   contains no observability calls at all;
//! * `disabled` — `profile: true`, subscriber off: every span entry
//!   point runs but bails after one relaxed atomic load. This is the
//!   path the <2% overhead budget applies to;
//! * `enabled`  — `profile: true`, subscriber on, full `QueryReport`
//!   assembly through the profiled executor.
//!
//! Timing is min-of-medians: each round's time is the median of three
//! mix runs, and the reported figure is the minimum over rounds —
//! robust against one-sided scheduler noise. Results go to
//! `BENCH_obs.json` at the workspace root; `--check` exits non-zero
//! when the disabled-path overhead exceeds 2%, `--smoke` shrinks the
//! dataset for CI.

use ebi_bench::{service_columns, uniform_cells, SERVICE_QUERIES};
use ebi_core::index::QueryOptions;
use ebi_core::EncodedBitmapIndex;
use ebi_service::{ServiceConfig, ShardedTable, TableOptions};
use ebi_warehouse::workload::{Predicate, Query};
use ebi_warehouse::{ConjunctiveQuery, DnfQuery, Executor};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Disabled-path overhead budget, percent.
const BUDGET_PCT: f64 = 2.0;

fn mix() -> Vec<DnfQuery> {
    let clause = |predicate: Predicate| Query {
        column: "c".into(),
        predicate,
    };
    vec![
        DnfQuery {
            disjuncts: vec![ConjunctiveQuery {
                clauses: vec![clause(Predicate::Eq(5))],
            }],
        },
        DnfQuery {
            disjuncts: vec![ConjunctiveQuery {
                clauses: vec![clause(Predicate::InList(vec![1, 9, 17, 33]))],
            }],
        },
        DnfQuery {
            disjuncts: vec![ConjunctiveQuery {
                clauses: vec![clause(Predicate::Range(8, 40))],
            }],
        },
        DnfQuery {
            disjuncts: vec![
                ConjunctiveQuery {
                    clauses: vec![clause(Predicate::Range(50, 60))],
                },
                ConjunctiveQuery {
                    clauses: vec![clause(Predicate::Eq(2))],
                },
            ],
        },
    ]
}

/// Each timed sample runs the mix enough times to take at least this
/// long, so scheduler jitter cannot masquerade as overhead.
const TARGET_SAMPLE_NS: u64 = 5_000_000;

/// Times `iters` passes over the mix, returning (nanoseconds, match
/// total per pass). The match total guards against dead-code
/// elimination and cross-mode result drift.
fn run_mix(exec: &Executor<'_>, queries: &[DnfQuery], profiled: bool, iters: usize) -> (u64, u64) {
    let start = Instant::now();
    let mut matches = 0u64;
    for _ in 0..iters {
        matches = 0;
        for q in queries {
            matches += if profiled {
                exec.run_dnf_profiled(q, "overhead mix").1.matches
            } else {
                exec.run_dnf(q).1.matches as u64
            };
        }
    }
    (start.elapsed().as_nanos() as u64, matches)
}

struct Mode<'m, 'a> {
    exec: &'m Executor<'a>,
    profiled: bool,
}

/// Min-of-medians over *interleaved* rounds: every round times each
/// mode back to back (median of `reps` samples), so slow thermal /
/// frequency drift hits all modes alike; the reported figure is the
/// per-mode minimum across rounds, normalised to one mix pass.
fn measure(modes: &[Mode<'_, '_>], queries: &[DnfQuery], iters: usize) -> Vec<u64> {
    let (rounds, reps) = (5usize, 3usize);
    let expected = run_mix(modes[0].exec, queries, modes[0].profiled, 1).1;
    for m in modes {
        let (_, got) = run_mix(m.exec, queries, m.profiled, 1); // warm-up
        assert_eq!(got, expected, "mode changed query results");
    }
    let mut best = vec![u64::MAX; modes.len()];
    for _ in 0..rounds {
        for (slot, m) in modes.iter().enumerate() {
            let mut times: Vec<u64> = (0..reps)
                .map(|_| run_mix(m.exec, queries, m.profiled, iters).0)
                .collect();
            times.sort_unstable();
            best[slot] = best[slot].min(times[reps / 2]);
        }
    }
    best.into_iter().map(|ns| ns / iters as u64).collect()
}

fn pct(over: u64, base: u64) -> f64 {
    (over as f64 - base as f64) / base as f64 * 100.0
}

const USAGE: &str = "\
usage: obs_overhead [--smoke] [--check]

  --smoke   shrink the dataset for CI
  --check   exit 1 when the disabled-path overhead exceeds the budget";

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
                eprintln!("obs_overhead: unknown argument {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let sizes: &[usize] = if smoke {
        &[200_000]
    } else {
        &[1_000_000, 10_000_000]
    };
    let queries = mix();

    let mut results = String::new();
    let mut over_budget = false;
    for (i, &rows) in sizes.iter().enumerate() {
        let cells = uniform_cells(64, rows, 0xC3);
        // Two identical indexes, one per instrumentation setting, so
        // rounds can interleave modes without touching options.
        let plain = EncodedBitmapIndex::build(cells.iter().copied()).expect("build");
        let mut instrumented = EncodedBitmapIndex::build(cells).expect("build");
        instrumented.set_query_options(QueryOptions {
            profile: true,
            ..Default::default()
        });
        let mut exec_plain = Executor::new(rows);
        exec_plain.register("c", &plain);
        let mut exec_instr = Executor::new(rows);
        exec_instr.register("c", &instrumented);

        // Calibrate how many mix passes one timed sample needs.
        let (once_ns, _) = run_mix(&exec_plain, &queries, false, 1);
        let iters = (TARGET_SAMPLE_NS / once_ns.max(1)).clamp(1, 2_000) as usize;

        // baseline: no observability calls in the query path.
        // disabled: instrumented path, subscriber off — the <2% budget.
        ebi_obs::set_enabled(false);
        let cold = measure(
            &[
                Mode {
                    exec: &exec_plain,
                    profiled: false,
                },
                Mode {
                    exec: &exec_instr,
                    profiled: false,
                },
            ],
            &queries,
            iters,
        );
        let (baseline_ns, disabled_ns) = (cold[0], cold[1]);

        // enabled: full profiling through the executor.
        ebi_obs::set_enabled(true);
        let enabled_ns = measure(
            &[Mode {
                exec: &exec_instr,
                profiled: true,
            }],
            &queries,
            iters,
        )[0];
        ebi_obs::set_enabled(false);

        let disabled_pct = pct(disabled_ns, baseline_ns);
        let enabled_pct = pct(enabled_ns, baseline_ns);
        over_budget |= disabled_pct > BUDGET_PCT;
        println!(
            "rows={rows}: baseline={baseline_ns}ns disabled={disabled_ns}ns ({disabled_pct:+.2}%) \
             enabled={enabled_ns}ns ({enabled_pct:+.2}%)"
        );
        if i > 0 {
            results.push(',');
        }
        let _ = write!(
            results,
            "{{\"rows\":{rows},\"baseline_ns\":{baseline_ns},\"disabled_ns\":{disabled_ns},\
             \"enabled_ns\":{enabled_ns},\"disabled_overhead_pct\":{disabled_pct:.3},\
             \"enabled_overhead_pct\":{enabled_pct:.3}}}"
        );
    }

    let service = service_section(smoke);

    let json = format!(
        "{{\"schema\":\"ebi.bench_obs.v1\",\"budget_pct\":{BUDGET_PCT},\"results\":[{results}],\
         \"service\":{service}}}\n"
    );
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_obs.json");
    std::fs::write(&path, json).expect("write BENCH_obs.json");
    println!("[written] {}", path.display());

    if check && over_budget {
        eprintln!("disabled-path overhead exceeds the {BUDGET_PCT}% budget");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// Service mix: full tail-sampled tracing cost, end to end
// ---------------------------------------------------------------------------

/// Times one closed-loop client: `reqs` COUNT requests cycling the
/// mix, returning total nanoseconds.
fn drive_service(tcp: std::net::SocketAddr, reqs: usize) -> u64 {
    let mut stream = TcpStream::connect(tcp).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let start = Instant::now();
    let mut line = String::new();
    for i in 0..reqs {
        let q = SERVICE_QUERIES[i % SERVICE_QUERIES.len()];
        stream
            .write_all(format!("COUNT {q}\n").as_bytes())
            .expect("write");
        line.clear();
        reader.read_line(&mut line).expect("read");
        assert!(line.starts_with("OK {"), "service answered {line}");
    }
    start.elapsed().as_nanos() as u64
}

/// Measures per-request latency of the service mix in one obs mode
/// against a live in-process service (min of `rounds` medians-of-one,
/// mirroring the index-path discipline at service scale).
fn measure_service(tcp: std::net::SocketAddr, reqs: usize) -> u64 {
    let _ = drive_service(tcp, reqs); // warm-up
    let best = (0..5).map(|_| drive_service(tcp, reqs)).min().unwrap();
    best / reqs as u64
}

/// The enabled-path section: what full always-on tail-sampled tracing
/// costs under the service mix. Three figures over the same table:
///
/// * `disabled` — subscriber off: the ring still retains every trace
///   (tail sampling is always on) but reports carry no phase tree;
/// * `enabled` — subscriber on: spans, `QueryReport` assembly, ring;
/// * `tail_all_slow` — subscriber on with a 0ms slow threshold, so
///   every trace is additionally classified and retained as slow —
///   the worst-case tail-sampling write path.
fn service_section(smoke: bool) -> String {
    let (rows, reqs) = if smoke { (50_000, 200) } else { (500_000, 400) };
    let shards = 4;
    let table = ShardedTable::build(
        service_columns(rows),
        &TableOptions {
            shards,
            ..TableOptions::default()
        },
    )
    .expect("table builds");

    let run_mode = |enabled: bool, slow_ms: Option<u64>| -> u64 {
        let cfg = ServiceConfig {
            workers: 2,
            max_inflight: 4,
            timeout: Duration::from_secs(10),
            min_dispatch_words: 0,
            slow_query_ms: slow_ms,
            ..ServiceConfig::default()
        };
        ebi_obs::set_enabled(enabled);
        let (tx, rx) = mpsc::channel();
        let table = &table;
        let ns = std::thread::scope(|s| {
            let server =
                s.spawn(move || ebi_service::run(table, &cfg, |h| tx.send(h).expect("send")));
            let handle = rx.recv().expect("service came up");
            let ns = measure_service(handle.tcp_addr(), reqs);
            handle.shutdown();
            server.join().expect("service thread").expect("service ran");
            ns
        });
        ebi_obs::set_enabled(false);
        ns
    };

    let disabled_ns = run_mode(false, None);
    let enabled_ns = run_mode(true, None);
    let tail_ns = run_mode(true, Some(0));
    let enabled_pct = pct(enabled_ns, disabled_ns);
    let tail_pct = pct(tail_ns, disabled_ns);
    println!(
        "service mix ({rows} rows x {shards} shards): disabled={disabled_ns}ns/req \
         enabled={enabled_ns}ns/req ({enabled_pct:+.2}%) tail_all_slow={tail_ns}ns/req \
         ({tail_pct:+.2}%)"
    );
    format!(
        "{{\"rows\":{rows},\"shards\":{shards},\"requests\":{reqs},\
         \"disabled_ns_per_req\":{disabled_ns},\"enabled_ns_per_req\":{enabled_ns},\
         \"tail_all_slow_ns_per_req\":{tail_ns},\"enabled_overhead_pct\":{enabled_pct:.3},\
         \"tail_all_slow_overhead_pct\":{tail_pct:.3}}}"
    )
}
