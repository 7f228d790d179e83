//! End-to-end telemetry tests: trace propagation and echo on both
//! frontends, tail-sampled trace/slow rings, `/debug/*` endpoints,
//! and the Chrome trace-event export.

use ebi_service::{ColumnSpec, ServiceConfig, ServiceHandle, ShardedTable, TableOptions};
use ebi_storage::Cell;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

fn small_table(shards: usize) -> ShardedTable {
    let rows = 4_003;
    let mut a = Vec::with_capacity(rows);
    let mut b = Vec::with_capacity(rows);
    for i in 0..rows {
        a.push(Cell::Value((i as u64 * 7 + 3) % 6));
        b.push(if i % 97 == 0 {
            Cell::Null
        } else {
            Cell::Value((i as u64 * 13 + 1) % 9)
        });
    }
    ShardedTable::build(
        vec![ColumnSpec::new("a", a), ColumnSpec::new("b", b)],
        &TableOptions {
            shards,
            ..TableOptions::default()
        },
    )
    .expect("table builds")
}

fn test_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        max_inflight: 4,
        timeout: Duration::from_secs(5),
        min_dispatch_words: 0,
        ..ServiceConfig::default()
    }
}

fn with_service<F>(table: &ShardedTable, cfg: &ServiceConfig, f: F)
where
    F: FnOnce(&ServiceHandle) + Send,
{
    ebi_obs::set_enabled(true);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = s.spawn(move || ebi_service::run(table, cfg, |h| tx.send(h).expect("send")));
        let handle = rx.recv().expect("service came up");
        f(&handle);
        handle.shutdown();
        server.join().expect("service thread").expect("service ran");
    });
}

/// Sends one line, reads one response line.
fn tcp_line(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    let mut reader = BufReader::new(stream);
    let mut out = String::new();
    reader.read_line(&mut out).expect("read");
    out.trim_end().to_string()
}

/// Sends one line and reads a multi-line `OK <n>` page terminated by a
/// lone `.` line: returns (n, payload lines).
fn tcp_page(addr: SocketAddr, line: &str) -> (usize, Vec<String>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    reader.read_line(&mut head).expect("read head");
    let head = head.trim_end();
    let n: usize = head
        .strip_prefix("OK ")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad page head: {head}"));
    let mut lines = Vec::new();
    loop {
        let mut l = String::new();
        reader.read_line(&mut l).expect("read body");
        let l = l.trim_end().to_string();
        if l == "." {
            break;
        }
        lines.push(l);
    }
    (n, lines)
}

/// GET with optional extra headers; returns (status, raw headers, body).
fn http_get_full(addr: SocketAddr, target: &str, extra: &[(&str, &str)]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut req = format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n");
    for (k, v) in extra {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str("\r\n");
    stream.write_all(req.as_bytes()).expect("write");
    let mut raw = String::new();
    BufReader::new(stream)
        .read_to_string(&mut raw)
        .expect("read");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    (status, head.to_string(), body.to_string())
}

fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    let (status, _, body) = http_get_full(addr, target, &[]);
    (status, body)
}

fn json_u64(json: &str, key: &str) -> Option<u64> {
    let at = json.find(&format!("\"{key}\":"))?;
    let digits: String = json[at + key.len() + 3..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Pulls `"key":"value"` out of a flat JSON rendering.
fn json_str(json: &str, key: &str) -> Option<String> {
    let at = json.find(&format!("\"{key}\":\""))?;
    let rest = &json[at + key.len() + 4..];
    Some(rest[..rest.find('"')?].to_string())
}

const TP: &str = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
const TRACE32: &str = "4bf92f3577b34da6a3ce929d0e0e4736";

#[test]
fn tcp_traceparent_is_adopted_and_echoed() {
    let table = small_table(3);
    with_service(&table, &test_config(), |h| {
        let addr = h.tcp_addr();
        let resp = tcp_line(addr, &format!("TRACEPARENT {TP} COUNT a=1"));
        assert!(resp.starts_with("OK {"), "got {resp}");
        let echoed = json_str(&resp, "trace").expect("answer carries trace");
        assert!(
            echoed.starts_with(&format!("00-{TRACE32}-")),
            "inbound trace id not adopted: {echoed}"
        );
        assert!(echoed.ends_with("-01"), "sampled flag lost: {echoed}");
        // The parent span field is the query id, so two queries on the
        // same trace get distinct traceparents.
        let again = tcp_line(addr, &format!("TRACEPARENT {TP} COUNT a=1"));
        assert_ne!(json_str(&again, "trace"), Some(echoed));

        // A malformed traceparent falls back to a minted trace.
        let minted = tcp_line(addr, "TRACEPARENT garbage COUNT a=1");
        let minted = json_str(&minted, "trace").expect("trace");
        assert!(!minted.contains(TRACE32), "garbage adopted: {minted}");
    });
}

#[test]
fn http_traceparent_is_echoed_on_success_and_error() {
    let table = small_table(3);
    with_service(&table, &test_config(), |h| {
        let addr = h.http_addr();
        let (status, head, body) = http_get_full(addr, "/count?q=a%3D1", &[("traceparent", TP)]);
        assert_eq!(status, 200, "body: {body}");
        let echo = head
            .lines()
            .find_map(|l| l.strip_prefix("traceparent: "))
            .expect("traceparent response header");
        assert!(echo.starts_with(&format!("00-{TRACE32}-")), "got {echo}");
        assert_eq!(json_str(&body, "trace").as_deref(), Some(echo));

        // Errors still echo, parented at the inbound span.
        let (status, head, _) = http_get_full(addr, "/count?q=nosuch%3D1", &[("traceparent", TP)]);
        assert_eq!(status, 400);
        let echo = head
            .lines()
            .find_map(|l| l.strip_prefix("traceparent: "))
            .expect("traceparent echoed on error");
        assert_eq!(echo, TP);
    });
}

#[test]
fn slow_queries_land_in_the_slow_ring_with_full_reports() {
    let table = small_table(4);
    let cfg = ServiceConfig {
        // Threshold 0: every query is "slow", deterministically.
        slow_query_ms: Some(0),
        ..test_config()
    };
    with_service(&table, &cfg, |h| {
        let tcp = h.tcp_addr();
        let http = h.http_addr();
        for _ in 0..3 {
            let resp = tcp_line(tcp, "QUERY a=1 AND b IN 2,3 LIMIT 5");
            assert!(resp.starts_with("OK {"), "got {resp}");
        }

        let (status, body) = http_get(http, "/debug/slow");
        assert_eq!(status, 200);
        let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
        assert!(lines.len() >= 3, "slow ring missing entries: {body}");
        for line in &lines {
            assert!(line.contains("\"schema\":\"ebi.trace.v1\""), "got {line}");
            assert!(line.contains("\"slow\":true"), "got {line}");
            // The embedded QueryReport is complete: identity, label,
            // counts, and a phase tree with the fan-out workers.
            assert!(json_u64(line, "query_id").is_some(), "got {line}");
            assert!(json_u64(line, "matches").is_some(), "got {line}");
            assert!(line.contains("\"label\""), "got {line}");
            assert!(line.contains("\"phases\""), "got {line}");
            assert!(line.contains("eval.worker"), "got {line}");
        }

        // The slow count surfaces in stats on both frontends.
        let stats = tcp_line(tcp, "STATS");
        assert!(
            json_u64(&stats, "slow_queries").unwrap_or(0) >= 3,
            "got {stats}"
        );
        let (_, body) = http_get(http, "/stats");
        assert!(
            json_u64(&body, "slow_queries").unwrap_or(0) >= 3,
            "got {body}"
        );
    });
}

#[test]
fn debug_endpoints_serve_traces_vars_and_chrome_export() {
    let table = small_table(3);
    with_service(&table, &test_config(), |h| {
        let tcp = h.tcp_addr();
        let http = h.http_addr();
        let resp = tcp_line(tcp, &format!("TRACEPARENT {TP} COUNT a=1 AND b=2"));
        let echoed = json_str(&resp, "trace").expect("trace");

        // /debug/traces: JSONL, newest last, carrying our trace id.
        let (status, body) = http_get(http, "/debug/traces");
        assert_eq!(status, 200);
        let last = body.lines().last().expect("at least one trace");
        assert!(last.contains("\"schema\":\"ebi.trace.v1\""), "got {last}");
        assert_eq!(json_str(last, "trace").as_deref(), Some(TRACE32));
        assert_eq!(
            json_str(last, "traceparent").as_deref(),
            Some(echoed.as_str())
        );

        // /debug/trace/<id>: Chrome trace-event JSON by trace-hex
        // prefix and by decimal query id.
        for key in [TRACE32.to_string(), TRACE32[..12].to_string()] {
            let (status, body) = http_get(http, &format!("/debug/trace/{key}"));
            assert_eq!(status, 200, "key {key}: {body}");
            assert!(body.contains("\"traceEvents\":["), "got {body}");
            assert!(body.contains("\"ph\":\"X\""), "got {body}");
            assert!(body.contains("eval.worker"), "got {body}");
            assert!(body.contains("\"displayTimeUnit\":\"ns\""), "got {body}");
        }
        let qid = json_u64(last, "query_id").expect("query id");
        let (status, _) = http_get(http, &format!("/debug/trace/{qid}"));
        assert_eq!(status, 200);
        let (status, _) = http_get(http, "/debug/trace/ffffffffffffffff");
        assert_eq!(status, 404);

        // /debug/vars: admission, ring and metrics state in one page.
        let (status, body) = http_get(http, "/debug/vars");
        assert_eq!(status, 200);
        for key in [
            "uptime_ms",
            "served",
            "traces_recorded",
            "slow_queries",
            "slow_threshold_ns",
            "trace_ring_capacity",
        ] {
            assert!(json_u64(&body, key).is_some(), "missing {key}: {body}");
        }
        assert!(body.contains("\"metrics\":["), "got {body}");
        assert!(body.contains("ebi_service_requests_total"), "got {body}");

        // TCP equivalents page the same rings.
        let (n, lines) = tcp_page(tcp, "TRACES");
        assert_eq!(n, lines.len());
        assert!(n >= 1, "TRACES empty");
        assert!(lines.iter().any(|l| l.contains(TRACE32)), "{lines:?}");
        let (n1, lines1) = tcp_page(tcp, "TRACES 1");
        assert_eq!((n1, lines1.len()), (1, 1));
        let (n_slow, _) = tcp_page(tcp, "SLOW");
        assert_eq!(n_slow, 0, "nothing should be slow here");
    });
}

#[test]
fn shard_labelled_metrics_appear_in_prometheus_export() {
    let table = small_table(3);
    with_service(&table, &test_config(), |h| {
        let _ = tcp_line(h.tcp_addr(), "COUNT a=1");
        let (status, body) = http_get(h.http_addr(), "/metrics");
        assert_eq!(status, 200);
        assert!(
            body.contains("ebi_service_shard_evals_total{shard=\"0\"}"),
            "missing shard-labelled counter: {body}"
        );
        assert!(
            body.contains("ebi_service_shard_eval_ns_bucket{shard=\"0\",le=\""),
            "missing shard-labelled histogram buckets: {body}"
        );
        assert!(body.contains("ebi_service_shard_eval_ns_sum{shard=\"2\"}"));
    });
}

#[test]
fn served_queries_export_kernel_counters() {
    // No shard index profiles, so the kernel counters reach `/metrics`
    // only through the query report the service publishes.
    // Asserted after the service shut down: a panic inside
    // `with_service` would leave the server running and the test hung.
    let table = small_table(2);
    let (mut reply, mut metrics) = (String::new(), (0, String::new()));
    with_service(&table, &test_config(), |h| {
        reply = tcp_line(h.tcp_addr(), "COUNT a=1");
        metrics = http_get(h.http_addr(), "/metrics");
    });
    assert!(reply.starts_with("OK {"), "got {reply}");
    let (status, body) = metrics;
    assert_eq!(status, 200);
    assert!(
        body.contains("ebi_kernel_words_scanned_total"),
        "missing kernel counter: {body}"
    );
}

/// The subsystem prefixes every exported metric family starts with.
const METRIC_PREFIXES: [&str; 6] = [
    "ebi_query_",
    "ebi_queries_",
    "ebi_kernel_",
    "ebi_pager_",
    "ebi_buffer_",
    "ebi_service_",
];

#[test]
fn every_exported_metric_family_is_in_the_ebi_namespace() {
    // Every request kind on both frontends, so each path that registers
    // a metric has run before the scrape. Asserted after shutdown, as
    // above.
    let table = small_table(3);
    let mut metrics = (0, String::new());
    with_service(&table, &test_config(), |h| {
        let (tcp, http) = (h.tcp_addr(), h.http_addr());
        for _ in 0..4 {
            for line in [
                "COUNT a=1 AND b IN 2,3",
                "QUERY a BETWEEN 1 4 OR b=0 LIMIT 5",
                "EXPLAIN b=2",
            ] {
                let resp = tcp_line(tcp, line);
                assert!(resp.starts_with("OK"), "{line}: {resp}");
            }
            for target in [
                "/count?q=a%3D1",
                "/query?q=b%3D2&limit=3",
                "/explain?q=a%3D4",
            ] {
                assert_eq!(http_get(http, target).0, 200, "{target}");
            }
        }
        metrics = http_get(http, "/metrics");
    });
    let (status, body) = metrics;
    assert_eq!(status, 200);
    let families: Vec<&str> = body
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(families.len() > 10, "too few families: {body}");
    for family in families {
        assert!(
            METRIC_PREFIXES.iter().any(|p| family.starts_with(p)),
            "metric family {family} is outside the ebi_<subsystem>_ namespace"
        );
    }
}
