//! End-to-end telemetry tests: trace propagation and echo on both
//! frontends, tail-sampled trace/slow rings, `/debug/*` endpoints,
//! the Chrome trace-event export, and `/metrics`.

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
    with_service_spans(true, table, cfg, f);
}

/// Runs `f` against a live service, with the span subscriber `spans`.
fn with_service_spans<F>(spans: bool, table: &ShardedTable, cfg: &ServiceConfig, f: F)
where
    F: FnOnce(&ServiceHandle) + Send,
{
    ebi_obs::set_enabled(spans);
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
        // prefix and by decimal query id, labelled with the retained
        // trace's own context.
        let qid = json_u64(last, "query_id").expect("query id");
        for key in [
            TRACE32.to_string(),
            TRACE32[..12].to_string(),
            qid.to_string(),
        ] {
            let (status, body) = http_get(http, &format!("/debug/trace/{key}"));
            assert_eq!(status, 200, "key {key}: {body}");
            assert!(body.contains("\"traceEvents\":["), "got {body}");
            assert!(body.contains("\"ph\":\"X\""), "got {body}");
            assert!(body.contains("eval.worker"), "got {body}");
            assert!(body.contains("\"displayTimeUnit\":\"ns\""), "got {body}");
            assert!(
                body.contains(&format!("\"otherData\":{{\"trace\":\"{TRACE32}\"")),
                "got {body}"
            );
        }
        let (status, _) = http_get(http, "/debug/trace/ffffffffffffffff");
        assert_eq!(status, 404);

        // /debug/vars: admission and ring state in one page; the
        // metric families are `/metrics`' alone.
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
        assert!(!body.contains("\"metrics\""), "got {body}");

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
fn a_retained_trace_renders_what_was_served() {
    // The ring keeps the request, not its text: the label and the
    // expressions of a `/debug/traces` line are rendered when read, and
    // must spell the request sent and the expressions EXPLAIN reports.
    let table = small_table(3);
    let queries = [
        "a=1",
        "b IN 1,4,6",
        "a BETWEEN 2 4",
        "a=1 AND b IN 2,3 OR b BETWEEN 5 7",
    ];
    let mut seen = Vec::new();
    with_service(&table, &test_config(), |h| {
        let (tcp, http) = (h.tcp_addr(), h.http_addr());
        for q in queries {
            let count = tcp_line(tcp, &format!("COUNT {q}"));
            let (_, body) = http_get(http, "/debug/traces");
            let line = body.lines().last().unwrap_or_default().to_string();
            let explain = tcp_line(tcp, &format!("EXPLAIN {q}"));
            seen.push((q, count, line, explain));
        }
    });
    for (q, count, line, explain) in seen {
        assert!(count.starts_with("OK {"), "{q}: {count}");
        let qid = json_u64(&count, "query_id").expect("query id");
        assert_eq!(json_u64(&line, "query_id"), Some(qid), "{q}: {line}");
        let label = json_str(&line, "label").expect("label");
        assert_eq!(
            ebi_service::parse_dnf(&label),
            ebi_service::parse_dnf(q),
            "{q}: label {label:?}"
        );
        let listed = line
            .split_once("\"expressions\":[\"")
            .and_then(|(_, rest)| rest.split_once("\"]"))
            .map(|(list, _)| list.replace("\",\"", "  |  "))
            .expect("a trace line lists its expressions");
        let explained = explain
            .split_once("expressions: ")
            .and_then(|(_, rest)| rest.split_once("\\n"))
            .map(|(list, _)| list.to_string())
            .expect("EXPLAIN lists its expressions");
        assert_eq!(listed, explained, "{q}");
        let clauses = ebi_service::parse_dnf(q)
            .expect("parses")
            .disjuncts
            .concat();
        assert_eq!(explained.split("  |  ").count(), clauses.len(), "{q}");
    }
}

/// The row ids of a `QUERY` reply, as the `"rows"` array spells them.
fn json_rows(json: &str) -> Option<String> {
    let rest = json.split_once("\"rows\":[")?.1;
    Some(rest[..rest.find(']')?].to_string())
}

#[test]
fn spans_are_a_pure_observer_of_the_served_answers() {
    // Telemetry never moves an answer or the paper's cost metric: each
    // query answers the same matches, `vectors_accessed` and first row
    // ids with spans on and off, and the same as the library's serial
    // evaluation. Asserted after shutdown, as below.
    const QUERIES: [&str; 4] = [
        "a=1",
        "b IN 1,4,6",
        "a BETWEEN 2 4",
        "a=1 AND b IN 2,3 OR b BETWEEN 5 7",
    ];
    const LIMIT: usize = 40;
    let table = small_table(3);
    let served = |spans| {
        let mut replies = Vec::new();
        with_service_spans(spans, &table, &test_config(), |h| {
            for q in QUERIES {
                replies.push(tcp_line(h.tcp_addr(), &format!("QUERY {q} LIMIT {LIMIT}")));
            }
        });
        replies
    };
    let (on, off) = (served(true), served(false));
    for (i, q) in QUERIES.into_iter().enumerate() {
        let request = ebi_service::parse_dnf(q).expect("parses");
        let (bitmap, cost) = table.eval_local(&table.compile(&request).expect("compiles"));
        let ids: Vec<String> = bitmap
            .iter_ones()
            .take(LIMIT)
            .map(|r| r.to_string())
            .collect();
        let expected = (
            Some(bitmap.count_ones() as u64),
            Some(cost.vectors_accessed),
            Some(ids.join(",")),
        );
        for reply in [&on[i], &off[i]] {
            assert!(reply.starts_with("OK {"), "{q}: {reply}");
            let answered = (
                json_u64(reply, "matches"),
                json_u64(reply, "vectors_accessed"),
                json_rows(reply),
            );
            assert_eq!(answered, expected, "{q}: {reply}");
        }
    }
}

#[test]
fn shard_labelled_metrics_appear_in_prometheus_export() {
    let table = small_table(3);
    with_service(&table, &test_config(), |h| {
        let _ = tcp_line(h.tcp_addr(), "COUNT a=1");
        let (status, body) = http_get(h.http_addr(), "/metrics");
        assert_eq!(status, 200);
        assert!(
            body.contains("ebi_service_shard_eval_ns_count{shard=\"0\"} 1"),
            "missing shard-labelled count: {body}"
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
    // The kernel's word and byte counts reach `/metrics` through the
    // cost histograms the service records once per answered query.
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
    for family in ["ebi_query_words_scanned", "ebi_query_bytes_touched"] {
        let sum = metric(&body, &format!("{family}_sum")).unwrap_or(0);
        assert!(sum > 0, "{family}_sum missing or zero: {body}");
    }
}

/// The value of the sample named `series` (labels included) in a
/// Prometheus text page.
fn metric(body: &str, series: &str) -> Option<u64> {
    body.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn metrics_count_with_spans_off_and_agree_with_the_traces() {
    // Four clients at once, two per frontend, on two workers with every
    // query dispatched and two frames per shard pool: page walks on one
    // shard interleave and evict each other's frames. Fewer than 64
    // queries, so the ring retains every one.
    const PER_CLIENT: usize = 10;
    const TCP_OK: &str = r#"ebi_service_requests_total{proto="tcp",status="ok"}"#;
    let n = 2 * PER_CLIENT as u64;
    let table = small_table(3);
    let cfg = ServiceConfig {
        buffer_frames: 2,
        ..test_config()
    };
    let (mut traces, mut metrics) = (String::new(), String::new());
    with_service_spans(false, &table, &cfg, |h| {
        let (tcp, http) = (h.tcp_addr(), h.http_addr());
        std::thread::scope(|s| {
            for c in 0..2 {
                s.spawn(move || {
                    for i in 0..PER_CLIENT {
                        let q = ["a=1", "b IN 2,3", "a BETWEEN 2 4", "b=0 OR a=5"][(c + i) % 4];
                        let resp = tcp_line(tcp, &format!("COUNT {q}"));
                        assert!(resp.starts_with("OK {"), "{q}: {resp}");
                    }
                });
                s.spawn(move || {
                    for i in 0..PER_CLIENT {
                        let q = ["a%3D1", "b%3D2", "a%3D4"][(c + i) % 3];
                        assert_eq!(http_get(http, &format!("/count?q={q}")).0, 200, "{q}");
                    }
                });
            }
        });
        traces = http_get(http, "/debug/traces").1;
        // A request is counted once its reply is written, which the
        // client may see first: scrape until the last one is in.
        for _ in 0..100 {
            metrics = http_get(http, "/metrics").1;
            if metric(&metrics, TCP_OK) == Some(n) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    });
    assert_eq!(metric(&metrics, TCP_OK), Some(n), "{metrics}");
    assert_eq!(
        metric(&metrics, "ebi_query_latency_ns_count"),
        Some(2 * n),
        "{metrics}"
    );
    let lines: Vec<&str> = traces.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len() as u64, 2 * n, "every query retained: {traces}");
    let retained = |key: &str| {
        lines
            .iter()
            .map(|l| json_u64(l, key).expect(key))
            .sum::<u64>()
    };
    for (family, key) in [
        ("ebi_buffer_hits_total", "buffer_hits"),
        ("ebi_buffer_misses_total", "buffer_misses"),
        ("ebi_buffer_evictions_total", "buffer_evictions"),
        ("ebi_pager_page_reads_total", "pager_reads"),
    ] {
        assert_eq!(
            metric(&metrics, family),
            Some(retained(key)),
            "{family}: {metrics}"
        );
    }
    assert!(
        retained("buffer_evictions") > 0,
        "two frames per shard must evict"
    );
}

/// The subsystem prefixes every exported metric family starts with.
const METRIC_PREFIXES: [&str; 5] = [
    "ebi_query_",
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
