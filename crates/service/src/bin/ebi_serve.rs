//! `ebi_serve` — stand-alone query server over a synthetic fact table.
//!
//! ```text
//! ebi_serve [--rows N] [--workers N] [--max-inflight N]
//! ```
//!
//! Builds a deterministic three-column table (`a`, `b`, `c` with
//! cardinalities 7, 5 and 13), one index per column, and serves the TCP line
//! protocol and the HTTP/JSON frontend until `SHUTDOWN` /
//! `POST /shutdown` / SIGPIPE of the controlling pipe. On startup it
//! prints one machine-parseable line with the bound addresses:
//!
//! ```text
//! EBI_SERVICE tcp=127.0.0.1:40231 http=127.0.0.1:40232
//! ```
//!
//! Every flag also has an `EBI_SERVICE_*` environment override (flags
//! win); see `--help`.

use ebi_obs::log as obslog;
use ebi_service::{ColumnSpec, ServiceConfig, ShardedTable, TableOptions};
use ebi_storage::Cell;
use std::io::Write as _;

const USAGE: &str = "\
ebi_serve - concurrent query service over encoded bitmap indexes

USAGE:
    ebi_serve [OPTIONS]

OPTIONS:
    --rows N          synthetic fact-table rows        [default: 100000, env EBI_SERVICE_ROWS]
    --workers N       pool size, max threads per query [env EBI_SERVICE_WORKERS]
    --max-inflight N  admission bound (excess -> BUSY) [env EBI_SERVICE_MAX_INFLIGHT]
    --timeout-ms N    per-request deadline, N > 0      [env EBI_SERVICE_TIMEOUT_MS]
    --tcp ADDR        TCP bind address                 [default: 127.0.0.1:0, env EBI_SERVICE_ADDR]
    --http ADDR       HTTP bind address                [default: 127.0.0.1:0, env EBI_SERVICE_HTTP_ADDR]
    --quiet-obs       record no spans (metrics count regardless)
    -h, --help        print this help

PROTOCOLS:
    TCP  : PING | STATS | SHUTDOWN | TRACES [n] | SLOW [n]
           | COUNT <dnf> | QUERY <dnf> [LIMIT k] | EXPLAIN <dnf>
           (any request may be prefixed with `TRACEPARENT <w3c-traceparent>`)
    HTTP : GET /healthz | GET /stats | GET /metrics | GET /query?q=<dnf>&limit=k
           GET /count?q=<dnf> | GET /explain?q=<dnf> | POST /shutdown
           GET /debug/traces | GET /debug/slow | GET /debug/trace/<id>
    <dnf>: clause {AND|OR clause}*   clause: col=v | col IN a,b,c | col BETWEEN lo hi

TELEMETRY:
    Structured JSONL logs go to stderr, or a rotating file via EBI_LOG=<path>
    (EBI_LOG_LEVEL, EBI_LOG_MAX_BYTES). A tail-sampling ring keeps the most
    recent 64 traces plus the last 256 slower than rolling p99 (or a fixed
    EBI_SLOW_QUERY_MS). /debug/trace/<id> emits Chrome trace-event JSON.
    /metrics reads every metric family when scraped; STATS and /stats are
    admission and ring state.
";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn main() {
    let mut rows = env_usize("EBI_SERVICE_ROWS", 100_000);
    let mut cfg = ServiceConfig::from_env();
    let mut obs = true;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            "--rows" => rows = parse_n(&take(&args, &mut i, "--rows")),
            "--workers" => cfg.workers = parse_n(&take(&args, &mut i, "--workers")),
            "--max-inflight" => {
                cfg.max_inflight = parse_n(&take(&args, &mut i, "--max-inflight")).max(1);
            }
            "--timeout-ms" => {
                let ms = parse_n(&take(&args, &mut i, "--timeout-ms"));
                if ms == 0 {
                    die("--timeout-ms must be positive");
                }
                cfg.timeout = std::time::Duration::from_millis(ms as u64);
            }
            "--tcp" => cfg.tcp_addr = take(&args, &mut i, "--tcp"),
            "--http" => cfg.http_addr = take(&args, &mut i, "--http"),
            "--quiet-obs" => obs = false,
            other => die(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if rows == 0 {
        die("--rows must be positive");
    }

    ebi_obs::set_enabled(obs);

    let table = match ShardedTable::build(synthetic_columns(rows), &TableOptions::default()) {
        Ok(t) => t,
        Err(e) => {
            obslog::error("service.bin", "table build failed").str("error", &e.to_string());
            std::process::exit(1);
        }
    };
    obslog::info("service.bin", "table built")
        .u64("rows", table.rows() as u64)
        .u64("windows", table.windows() as u64)
        .u64("workers", cfg.workers as u64)
        .u64("max_inflight", cfg.max_inflight as u64);

    let summary = ebi_service::run(&table, &cfg, |handle| {
        // The one machine-parseable line scripts wait for.
        println!(
            "EBI_SERVICE tcp={} http={}",
            handle.tcp_addr(),
            handle.http_addr()
        );
        let _ = std::io::stdout().flush();
    });
    match summary {
        Ok(s) => {
            obslog::info("service.bin", "service drained")
                .u64("served", s.served)
                .u64("busy", s.rejected_busy)
                .u64("draining", s.rejected_draining)
                .u64("timeouts", s.timeouts);
        }
        Err(e) => {
            obslog::error("service.bin", "serve failed").str("error", &e.to_string());
            std::process::exit(1);
        }
    }
}

/// Consumes the value following flag `what`, advancing the cursor.
fn take(args: &[String], i: &mut usize, what: &str) -> String {
    *i += 1;
    args.get(*i)
        .unwrap_or_else(|| die(&format!("{what} needs a value")))
        .clone()
}

fn parse_n(s: &str) -> usize {
    s.trim()
        .parse()
        .unwrap_or_else(|_| die(&format!("expected a number, got {s:?}")))
}

/// Deterministic three-column synthetic fact table (xorshift; no rand
/// dependency) with cardinalities 7 / 5 / 13 and ~1% NULLs in `b`.
fn synthetic_columns(rows: usize) -> Vec<ColumnSpec> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut a = Vec::with_capacity(rows);
    let mut b = Vec::with_capacity(rows);
    let mut c = Vec::with_capacity(rows);
    for _ in 0..rows {
        a.push(Cell::Value(next() % 7));
        let r = next();
        b.push(if r % 100 == 0 {
            Cell::Null
        } else {
            Cell::Value(r % 5)
        });
        c.push(Cell::Value(next() % 13));
    }
    vec![
        ColumnSpec::new("a", a),
        ColumnSpec::new("b", b),
        ColumnSpec::new("c", c),
    ]
}
