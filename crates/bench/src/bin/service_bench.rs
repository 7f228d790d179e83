//! Closed-loop concurrency benchmark for the sharded query service
//! (`ebi-service`): N clients × S shards, each client a persistent TCP
//! line-protocol connection firing `COUNT` queries back-to-back.
//! Writes `BENCH_service.json` (schema `ebi.bench_service.v1`) with
//! throughput and exact p50/p95/p99 latency per (clients × shards)
//! cell.
//!
//! Every service answer is checked against the library path before it
//! counts (the `matches` field must equal the single-process
//! `eval_local` count), and the library counts themselves are checked
//! invariant across shard counts — so the numbers come with the same
//! correctness gates as the other BENCH artefacts.
//!
//! Throughput is measured closed-loop: a client only issues its next
//! request after the previous answer arrives, so offered load rises
//! with the client count until the admission bound (`max_inflight`)
//! turns the excess into `BUSY` rejections. Each cell runs twice and
//! keeps the faster run — ratios of best-of-N are far more stable
//! under scheduler interference than single-shot medians, and the CI
//! regression gate compares throughput *ratios* at 15% tolerance.
//!
//! Pass `--smoke` for a small CI run, `--out-dir DIR` to redirect the
//! artefact (used to regenerate the committed baseline).

use ebi_bench::{service_columns, write_json, SERVICE_QUERIES};
use ebi_service::{parse_dnf, ServiceConfig, ServiceHandle, ShardedTable, TableOptions};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const USAGE: &str = "service_bench — closed-loop throughput/latency bench for ebi-service

USAGE:
    service_bench [--smoke] [--out-dir DIR]

FLAGS:
    --smoke         small-row CI run (fewer rows, clients, requests)
    --out-dir DIR   write BENCH_service.json into DIR instead of the
                    repository root (used to regenerate baselines)
    -h, --help      print this help

Unknown flags are an error.";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// One measured (clients × shards) cell.
struct CellRow {
    shards: usize,
    clients: usize,
    requests: u64,
    ok: u64,
    busy: u64,
    throughput_rps: f64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    /// `throughput(clients) / throughput(clients = 1)` at the same
    /// shard count — the dimensionless point the CI gate compares.
    scaling_vs_one_client: f64,
}

/// Nearest-rank percentile of an already-sorted latency vector.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct CellOut {
    ok: u64,
    busy: u64,
    wall: Duration,
    latencies: Vec<u64>,
}

/// Drives `clients` closed-loop connections for `per_client` answered
/// requests each; checks every answer against the expected library
/// count.
fn run_cell(
    tcp: SocketAddr,
    clients: usize,
    per_client: usize,
    expected: &[(String, u64)],
) -> CellOut {
    let t0 = Instant::now();
    let outs: Vec<(Vec<u64>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                s.spawn(move || {
                    let stream = TcpStream::connect(tcp).expect("connect");
                    stream.set_nodelay(true).ok();
                    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                    let mut writer = stream;
                    let mut latencies = Vec::with_capacity(per_client);
                    let mut busy = 0u64;
                    // Offset the query cycle per client so the mix
                    // interleaves instead of marching in lockstep.
                    let mut qi = client;
                    while latencies.len() < per_client {
                        let (query, want) = &expected[qi % expected.len()];
                        qi += 1;
                        let t = Instant::now();
                        writer
                            .write_all(format!("COUNT {query}\n").as_bytes())
                            .expect("write request");
                        let mut line = String::new();
                        reader.read_line(&mut line).expect("read response");
                        let ns = t.elapsed().as_nanos() as u64;
                        let line = line.trim_end();
                        if line == "BUSY" {
                            busy += 1;
                            std::thread::sleep(Duration::from_micros(200));
                            continue;
                        }
                        assert!(line.starts_with("OK {"), "unexpected response: {line}");
                        assert!(
                            line.contains(&format!("\"matches\":{want}")),
                            "service answer diverged from library for {query}: {line}"
                        );
                        latencies.push(ns);
                    }
                    (latencies, busy)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall = t0.elapsed();
    let mut latencies = Vec::new();
    let mut busy = 0;
    for (lat, b) in outs {
        latencies.extend(lat);
        busy += b;
    }
    latencies.sort_unstable();
    CellOut {
        ok: latencies.len() as u64,
        busy,
        wall,
        latencies,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out-dir" => {
                i += 1;
                match args.get(i) {
                    Some(d) => out_dir = Some(PathBuf::from(d)),
                    None => die("--out-dir needs a path"),
                }
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (rows, shard_counts, client_counts, per_client): (usize, Vec<usize>, Vec<usize>, usize) =
        if smoke {
            (20_000, vec![1, 4], vec![1, 2, 4], 400)
        } else {
            (100_000, vec![1, 2, 4, 8], vec![1, 2, 4, 8, 16], 500)
        };
    // Repeats per cell, keeping the fastest: best-of-N throughput
    // converges to the host's ceiling, so the *ratios* the CI gate
    // compares stay stable even when single runs are ±10% noisy.
    let repeats = if smoke { 5 } else { 3 };

    // Timings measure the service itself, not the span/metrics
    // plumbing; the obs overhead is quantified separately by
    // `obs_overhead`.
    ebi_obs::set_enabled(false);

    let cfg = ServiceConfig {
        // Force the shard fan-out path: the bench tables sit below the
        // real auto-serialise floor, and an all-serial run would leave
        // the worker pool unmeasured.
        min_dispatch_words: 0,
        timeout: Duration::from_secs(30),
        ..ServiceConfig::default()
    };
    let columns = service_columns(rows);

    // Library-path ground truth, checked invariant across shard counts
    // before any client traffic flows.
    let mut expected: Vec<(String, u64)> = Vec::new();
    let mut results: Vec<CellRow> = Vec::new();
    for &shards in &shard_counts {
        let table = ShardedTable::build(
            columns.clone(),
            &TableOptions {
                shards,
                ..TableOptions::default()
            },
        )
        .expect("table builds");
        let counts: Vec<(String, u64)> = SERVICE_QUERIES
            .iter()
            .map(|q| {
                let dnf = parse_dnf(q).expect("query parses");
                let compiled = table.compile(&dnf).expect("query compiles");
                (
                    q.to_string(),
                    table.eval_local(&compiled).0.count_ones() as u64,
                )
            })
            .collect();
        if expected.is_empty() {
            expected = counts;
        } else {
            assert_eq!(
                expected, counts,
                "library counts diverged between shard counts"
            );
        }

        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            let server = s.spawn(|| {
                ebi_service::run(&table, &cfg, |h: ServiceHandle| {
                    tx.send(h).expect("publish handle");
                })
            });
            let handle = rx.recv().expect("service came up");
            let tcp = handle.tcp_addr();

            for &clients in &client_counts {
                // Interleave each N-client run with a fresh 1-client
                // run and gate on the *median of per-pair ratios*:
                // adjacent runs see the same host conditions, so the
                // dimensionless scaling number stays stable even when
                // absolute throughput is ±10% noisy (same idiom as the
                // SIMD-vs-scalar pairs in eval_kernels).
                let mut best: Option<CellOut> = None;
                let mut ratios: Vec<f64> = Vec::with_capacity(repeats);
                for _ in 0..repeats {
                    let base = run_cell(tcp, 1, per_client, &expected);
                    let cell = run_cell(tcp, clients, per_client, &expected);
                    let base_rps = base.ok as f64 / base.wall.as_secs_f64();
                    let rps = cell.ok as f64 / cell.wall.as_secs_f64();
                    ratios.push(rps / base_rps);
                    let keep = match &best {
                        None => true,
                        Some(b) => cell.wall < b.wall,
                    };
                    if keep {
                        best = Some(cell);
                    }
                }
                ratios.sort_by(f64::total_cmp);
                let scaling = if clients == 1 {
                    1.0
                } else {
                    ratios[ratios.len() / 2]
                };
                let cell = best.expect("at least one run");
                let rps = cell.ok as f64 / cell.wall.as_secs_f64();
                let row = CellRow {
                    shards,
                    clients,
                    requests: cell.ok + cell.busy,
                    ok: cell.ok,
                    busy: cell.busy,
                    throughput_rps: rps,
                    p50_ns: percentile(&cell.latencies, 0.50),
                    p95_ns: percentile(&cell.latencies, 0.95),
                    p99_ns: percentile(&cell.latencies, 0.99),
                    scaling_vs_one_client: scaling,
                };
                eprintln!(
                    "shards={shards} clients={clients:<3} {rps:>10.0} req/s \
                     p50={:>9}ns p95={:>9}ns p99={:>9}ns busy={} (×{:.2} vs 1 client)",
                    row.p50_ns, row.p95_ns, row.p99_ns, row.busy, row.scaling_vs_one_client,
                );
                results.push(row);
            }

            handle.shutdown();
            let summary = server.join().expect("service thread").expect("service ran");
            assert_eq!(summary.timeouts, 0, "bench queries must not time out");
        });
    }

    let mut notes: Vec<String> = vec![format!(
        "min_dispatch_words forced to 0 so every query exercises the shard fan-out \
         and worker pool; observability is disabled during timing (see obs_overhead \
         for that cost)"
    )];
    if cores < 2 {
        notes.push(
            "host exposes a single CPU: client concurrency pipelines request parsing \
             against evaluation but cannot show multi-core throughput scaling here; \
             the admission bound and fan-out path are still fully exercised"
                .into(),
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"ebi.bench_service.v1\",");
    let _ = writeln!(
        json,
        "  \"workload\": \"closed-loop COUNT queries over the TCP line protocol; \
         {}-query DNF mix over uniform m=7 / m=13 columns\",",
        SERVICE_QUERIES.len()
    );
    let _ = writeln!(json, "  \"rows\": {rows},");
    let _ = writeln!(
        json,
        "  \"unit\": \"requests/sec; exact nearest-rank percentiles in ns\","
    );
    let _ = writeln!(json, "  \"protocol\": \"tcp\",");
    let _ = writeln!(json, "  \"workers\": {},", cfg.workers);
    let _ = writeln!(json, "  \"max_inflight\": {},", cfg.max_inflight);
    let _ = writeln!(json, "  \"cores_available\": {cores},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = write!(json, "  \"shard_counts\": [");
    for (i, s) in shard_counts.iter().enumerate() {
        let _ = write!(json, "{}{s}", if i > 0 { ", " } else { "" });
    }
    json.push_str("],\n");
    let _ = write!(json, "  \"client_counts\": [");
    for (i, c) in client_counts.iter().enumerate() {
        let _ = write!(json, "{}{c}", if i > 0 { ", " } else { "" });
    }
    json.push_str("],\n");
    let _ = writeln!(
        json,
        "  \"invariants\": {{ \"answers_match_library\": true, \
         \"library_counts_invariant_across_shard_counts\": true, \"timeouts\": 0 }},"
    );
    json.push_str("  \"notes\": [\n");
    for (i, n) in notes.iter().enumerate() {
        let _ = write!(json, "    \"{n}\"");
        json.push_str(if i + 1 < notes.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{ \"shards\": {}, \"clients\": {}, \"requests\": {}, \"ok\": {}, \
             \"busy\": {}, \"throughput_rps\": {:.1}, \"p50_ns\": {}, \"p95_ns\": {}, \
             \"p99_ns\": {}, \"throughput_scaling_vs_one_client\": {:.3} }}",
            r.shards,
            r.clients,
            r.requests,
            r.ok,
            r.busy,
            r.throughput_rps,
            r.p50_ns,
            r.p95_ns,
            r.p99_ns,
            r.scaling_vs_one_client,
        );
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    write_json(out_dir.as_deref(), "BENCH_service.json", &json);
    println!("{json}");
}
