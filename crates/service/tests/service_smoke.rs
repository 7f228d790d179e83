//! In-process end-to-end smoke tests: real sockets against a running
//! service, answers checked bit-identically against the library path,
//! graceful shutdown with traffic in flight.

mod common;

use common::{json_u64, small_table, tcp_line, test_config, with_service};
use ebi_service::{parse_dnf, ServiceConfig, ServiceHandle, MAX_CONNECTIONS};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    let request = format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    http_pieces(addr, &[request.as_bytes()])
}

/// Longer than the server's idle poll (150 ms), so a request sent in
/// pieces this far apart straddles at least one read timeout.
const GAP: Duration = Duration::from_millis(400);

/// Connects and sends `pieces` one by one, `GAP` apart. Write errors
/// are ignored: a server that rejects an oversized request stops
/// reading before the client stops writing. Reads give up after a few
/// seconds, so a server that never answers fails the test instead of
/// hanging it.
fn send_pieces(addr: SocketAddr, pieces: &[&[u8]]) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .expect("read timeout");
    for (i, piece) in pieces.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(GAP);
        }
        let _ = stream.write_all(piece);
    }
    stream
}

/// The first line of the response to a request sent in `pieces`.
fn first_line_of_pieces(addr: SocketAddr, pieces: &[&[u8]]) -> String {
    let stream = send_pieces(addr, pieces);
    let mut out = String::new();
    let _ = BufReader::new(stream).read_line(&mut out);
    out.trim_end().to_string()
}

/// Status (0 when there is none) and body of the response to one
/// `Connection: close` HTTP request sent in `pieces`.
fn http_pieces(addr: SocketAddr, pieces: &[&[u8]]) -> (u16, String) {
    let stream = send_pieces(addr, pieces);
    let mut raw = String::new();
    let _ = BufReader::new(stream).read_to_string(&mut raw);
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string());
    (status, body.unwrap_or_default())
}

#[test]
fn tcp_protocol_answers_match_library() {
    let table = small_table();
    let query = "a=1 AND b IN 2,3 OR b=7";
    let compiled = table
        .compile(&parse_dnf(query).expect("parses"))
        .expect("compiles");
    let (bitmap, _) = table.eval_local(&compiled);
    let want = bitmap.count_ones() as u64;
    assert!(want > 0, "query should match something");

    let summary = with_service(&table, &test_config(), |h| {
        let addr = h.tcp_addr();
        assert_eq!(tcp_line(addr, "PING"), "PONG");

        let count = tcp_line(addr, &format!("COUNT {query}"));
        assert!(count.starts_with("OK {"), "got {count}");
        assert_eq!(json_u64(&count, "matches"), Some(want));
        assert!(count.contains("\"dispatched\":true"), "got {count}");

        // QUERY rows must be exactly the library bitmap's first ones,
        // in global row-id space.
        let resp = tcp_line(addr, &format!("QUERY {query} LIMIT 10"));
        let lib_rows: Vec<String> = bitmap.iter_ones().take(10).map(|r| r.to_string()).collect();
        assert!(
            resp.contains(&format!("\"rows\":[{}]", lib_rows.join(","))),
            "rows mismatch: {resp}"
        );

        let explain = tcp_line(addr, &format!("EXPLAIN {query}"));
        assert!(explain.contains("EXPLAIN ANALYZE"), "got {explain}");
        assert!(explain.contains("eval.worker"), "got {explain}");

        let stats = tcp_line(addr, "STATS");
        assert_eq!(json_u64(&stats, "max_inflight"), Some(4));

        let err = tcp_line(addr, "COUNT nosuch=1");
        assert!(err.starts_with("ERR"), "got {err}");
        let bad = tcp_line(addr, "FROB x");
        assert!(bad.starts_with("ERR unknown verb"), "got {bad}");
    });
    assert!(summary.served >= 3, "summary: {summary:?}");
}

/// More closed-loop clients than `max_inflight`: some requests are
/// refused with `BUSY` and retried, every answered one equals the
/// library count, and the drain summary accounts for every reply.
#[test]
fn concurrent_clients_over_the_admission_bound_agree_with_the_library() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 50;
    let table = small_table();
    let expected: Vec<(&str, u64)> = ["a=1", "a IN 1,3,5 AND b BETWEEN 2 7", "a=0 OR b=1"]
        .into_iter()
        .map(|q| {
            let compiled = table
                .compile(&parse_dnf(q).expect("parses"))
                .expect("compiles");
            (q, table.eval_local(&compiled).0.count_ones() as u64)
        })
        .collect();
    let expected = &expected;

    let mut busy = 0;
    let summary = with_service(&table, &test_config(), |h| {
        let tcp = h.tcp_addr();
        busy = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    s.spawn(move || {
                        let stream = TcpStream::connect(tcp).expect("connect");
                        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                        let mut writer = stream;
                        let (mut ok, mut busy) = (0, 0u64);
                        while ok < PER_CLIENT {
                            let (query, want) = expected[(client + ok) % expected.len()];
                            writeln!(writer, "COUNT {query}").expect("write");
                            let mut line = String::new();
                            reader.read_line(&mut line).expect("read");
                            let line = line.trim_end();
                            if line == "BUSY" {
                                busy += 1;
                                std::thread::sleep(Duration::from_micros(200));
                                continue;
                            }
                            assert!(line.starts_with("OK {"), "got {line:?}");
                            assert_eq!(json_u64(line, "matches"), Some(want), "{query}: {line}");
                            ok += 1;
                        }
                        busy
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().expect("client")).sum()
        });
    });
    assert_eq!(summary.served, (CLIENTS * PER_CLIENT) as u64, "{summary:?}");
    assert_eq!(summary.rejected_busy, busy, "{summary:?}");
    assert_eq!(summary.timeouts, 0, "{summary:?}");
}

#[test]
fn http_frontend_answers_match_library_and_metrics_render() {
    let table = small_table();
    let compiled = table
        .compile(&parse_dnf("a BETWEEN 1 3").expect("parses"))
        .expect("compiles");
    let want = table.eval_local(&compiled).0.count_ones() as u64;

    with_service(&table, &test_config(), |h| {
        let addr = h.http_addr();
        let (status, body) = http_get(addr, "/healthz");
        assert_eq!((status, body.trim()), (200, "ok"));

        let (status, body) = http_get(addr, "/query?q=a+BETWEEN+1+3&limit=4");
        assert_eq!(status, 200, "body: {body}");
        assert_eq!(json_u64(&body, "matches"), Some(want));

        let (status, body) = http_get(addr, "/count?q=a%3D2");
        assert_eq!(status, 200);
        let lib = table
            .compile(&parse_dnf("a=2").expect("parses"))
            .expect("compiles");
        assert_eq!(
            json_u64(&body, "matches"),
            Some(table.eval_local(&lib).0.count_ones() as u64)
        );

        let (status, body) = http_get(addr, "/explain?q=a%3D2");
        assert_eq!(status, 200);
        assert!(body.contains("EXPLAIN ANALYZE"), "got {body}");

        let (status, body) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(
            body.contains("ebi_service_requests_total"),
            "metrics missing service counters: {body}"
        );
        assert!(body.contains("ebi_service_request_ns_bucket"));
        // Every line must be a comment or `name{labels} value`.
        for line in body
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let value = line.rsplit(' ').next().expect("value field");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable metric line: {line}"
            );
        }

        let (status, _) = http_get(addr, "/nosuch");
        assert_eq!(status, 404);
        let (status, body) = http_get(addr, "/query?q=a%3Dx");
        assert_eq!(status, 400, "body: {body}");
        let (status, body) = http_get(addr, "/query");
        assert_eq!(status, 400, "body: {body}");
    });
}

/// `STATS` (TCP) and `GET /stats` (HTTP) must expose the same schema:
/// the same key set, including the telemetry additions (uptime,
/// inflight, admission-rejected and slow-query counts).
#[test]
fn tcp_stats_and_http_stats_agree() {
    let table = small_table();
    with_service(&table, &test_config(), |h| {
        let _ = tcp_line(h.tcp_addr(), "COUNT a=1");
        let stats = tcp_line(h.tcp_addr(), "STATS");
        let stats = stats.strip_prefix("OK ").expect("OK payload");
        let (status, body) = http_get(h.http_addr(), "/stats");
        assert_eq!(status, 200);
        let keys = |json: &str| -> Vec<String> {
            json.split('"')
                .skip(1)
                .step_by(2)
                .filter(|k| json.contains(&format!("\"{k}\":")))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(keys(stats), keys(body.trim()), "stats schemas diverged");
        for key in [
            "uptime_ms",
            "inflight",
            "rejected_busy",
            "rejected_draining",
            "slow_queries",
        ] {
            assert!(
                json_u64(stats, key).is_some(),
                "STATS missing {key}: {stats}"
            );
            assert!(json_u64(&body, key).is_some(), "/stats missing {key}");
        }
    });
}

/// The same queries served inline (no workers) and split into morsels
/// across three workers: equal counts, row ids and `vectors_accessed`.
#[test]
fn dispatched_and_inline_services_agree() {
    let table = small_table();
    let queries = ["a=0", "a IN 1,4 AND b=2", "b BETWEEN 0 8", "a=5 OR b=0"];
    let served = |workers: usize| {
        let cfg = ServiceConfig {
            workers,
            ..test_config()
        };
        let mut replies = Vec::new();
        with_service(&table, &cfg, |h| {
            for q in queries {
                replies.push(tcp_line(h.tcp_addr(), &format!("QUERY {q} LIMIT 10000")));
            }
        });
        replies
    };
    // `"matches":…,"rows":[…],` and the vectors read.
    let answer = |r: &str| {
        let at = |key: &str| r.find(key).unwrap_or_else(|| panic!("{key} in {r}"));
        let (text, vectors) = (
            &r[at("\"matches\"")..at("\"wall_ns\"")],
            json_u64(r, "vectors_accessed"),
        );
        (text.to_string(), vectors)
    };
    for ((q, a), b) in queries.iter().zip(served(0)).zip(served(3)) {
        assert_eq!(answer(&a), answer(&b), "{q}");
        assert!(a.contains("\"dispatched\":false"), "{q}: {a}");
        assert!(b.contains("\"dispatched\":true"), "{q}: {b}");
    }
}

/// A request split across the pool that misses its deadline answers
/// `ERR timeout` and is counted.
#[test]
fn a_dispatched_request_past_its_deadline_times_out() {
    let table = small_table();
    let cfg = ServiceConfig {
        timeout: Duration::from_nanos(1),
        ..test_config()
    };
    let mut timed_out = 0;
    let summary = with_service(&table, &cfg, |h| {
        for _ in 0..5 {
            let reply = tcp_line(h.tcp_addr(), "COUNT a IN 1,3,5 AND b BETWEEN 2 7 OR a=0");
            assert!(
                reply == "ERR timeout" || reply.starts_with("OK {"),
                "{reply}"
            );
            timed_out += u64::from(reply == "ERR timeout");
        }
    });
    assert!(timed_out > 0, "no request of five missed a 1 ns deadline");
    assert_eq!(summary.timeouts, timed_out);
}

#[test]
fn graceful_shutdown_drains_requests_in_flight() {
    let table = small_table();
    let cfg = test_config();
    let summary = with_service(&table, &cfg, |h| {
        let tcp = h.tcp_addr();
        let http = h.http_addr();
        std::thread::scope(|s| {
            // Closed-loop clients hammering both frontends...
            for _ in 0..3 {
                s.spawn(move || {
                    for _ in 0..30 {
                        // After the drain completes the listener is
                        // gone; refused connects and clean EOFs are the
                        // expected shapes. What must never happen is a
                        // torn (partial) response on an accepted line.
                        let Ok(mut stream) = TcpStream::connect(tcp) else {
                            break;
                        };
                        if stream.write_all(b"COUNT a=1 OR b=3\n").is_err() {
                            break;
                        }
                        let mut resp = String::new();
                        if BufReader::new(stream).read_line(&mut resp).is_err() {
                            break;
                        }
                        let resp = resp.trim_end();
                        assert!(
                            resp.starts_with("OK {")
                                || resp == "BUSY"
                                || resp.starts_with("ERR draining")
                                || resp.is_empty(),
                            "torn response: {resp:?}"
                        );
                    }
                });
            }
            // ...while the shutdown arrives over HTTP mid-storm.
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                let mut stream = TcpStream::connect(http).expect("connect");
                write!(stream, "POST /shutdown HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n")
                    .expect("write");
                let mut raw = String::new();
                let _ = BufReader::new(stream).read_to_string(&mut raw);
                assert!(raw.contains("draining"), "got {raw}");
            });
        });
    });
    assert!(summary.served > 0, "summary: {summary:?}");
}

/// `COUNT a=1` as the unsplit request answers it.
fn unsplit_matches(h: &ServiceHandle) -> u64 {
    json_u64(&tcp_line(h.tcp_addr(), "COUNT a=1"), "matches").expect("unsplit answer")
}

// A request that arrives in two pieces, with a read timeout of the
// server's poll loop in between, gets the answer of the unsplit request
// (the parent's two read loops dropped or corrupted the first piece).

#[test]
fn tcp_line_split_across_a_read_timeout_is_answered_whole() {
    let table = small_table();
    with_service(&table, &test_config(), |h| {
        let split = first_line_of_pieces(h.tcp_addr(), &[b"COUNT a", b"=1\n"]);
        assert!(split.starts_with("OK {"), "answered {split:?}");
        assert_eq!(json_u64(&split, "matches"), Some(unsplit_matches(h)));
    });
}

#[test]
fn http_head_split_across_a_read_timeout_is_answered_whole() {
    let table = small_table();
    with_service(&table, &test_config(), |h| {
        let (status, body) = http_pieces(
            h.http_addr(),
            &[
                b"GET /count?q=a%3D1 HTT",
                b"P/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            ],
        );
        assert_eq!(status, 200, "body: {body:?}");
        assert_eq!(json_u64(&body, "matches"), Some(unsplit_matches(h)));
    });
}

#[test]
fn http_body_split_across_a_read_timeout_is_answered_whole() {
    let table = small_table();
    with_service(&table, &test_config(), |h| {
        let (status, body) = http_pieces(
            h.http_addr(),
            &[
                b"POST /count HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 3\r\n\r\na",
                b"=1",
            ],
        );
        assert_eq!(status, 200, "body: {body:?}");
        assert_eq!(json_u64(&body, "matches"), Some(unsplit_matches(h)));
    });
}

// One client cannot make the server buffer without bound: past the head
// cap it gets a typed refusal and the connection closes, and the
// service keeps answering everyone else.

#[test]
fn oversized_tcp_line_is_refused_and_the_service_stays_up() {
    let table = small_table();
    with_service(&table, &test_config(), |h| {
        let line = vec![b'x'; 1 << 20];
        assert_eq!(
            first_line_of_pieces(h.tcp_addr(), &[&line]),
            "ERR request too large"
        );
        assert_eq!(tcp_line(h.tcp_addr(), "PING"), "PONG");
    });
}

#[test]
fn oversized_http_header_is_refused_and_the_service_stays_up() {
    let table = small_table();
    with_service(&table, &test_config(), |h| {
        let mut request = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
        request.resize(1 << 20, b'x');
        request.extend_from_slice(b"\r\n\r\n");
        let status = first_line_of_pieces(h.http_addr(), &[&request]);
        assert!(status.starts_with("HTTP/1.1 431 "), "got {status:?}");
        assert_eq!(tcp_line(h.tcp_addr(), "PING"), "PONG");
    });
}

/// One request cannot ask for logical reductions without bound: past
/// `MAX_CLAUSES` it gets a typed refusal, and the next request on the
/// same connection is answered.
#[test]
fn too_many_clauses_are_refused_and_the_connection_answers_the_next_request() {
    let table = small_table();
    with_service(&table, &test_config(), |h| {
        let clauses = ["a=1"; 65];
        let (over, at_cap) = (clauses.join(" OR "), clauses[..64].join(" OR "));
        let lines = format!("COUNT {over}\nCOUNT {at_cap}\n");
        let stream = send_pieces(h.tcp_addr(), &[lines.as_bytes()]);
        let mut replies = BufReader::new(stream).lines().map(|l| l.expect("reply"));
        assert_eq!(
            replies.next().as_deref(),
            Some("ERR too many clauses: 65 > 64")
        );
        let next = replies.next().unwrap_or_default();
        assert!(next.starts_with("OK {"), "got {next:?}");

        let requests = format!(
            "GET /count?q={} HTTP/1.1\r\nHost: t\r\n\r\n\
             GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            over.replace(' ', "+").replace('=', "%3D")
        );
        let mut stream = send_pieces(h.http_addr(), &[requests.as_bytes()]);
        let mut raw = String::new();
        let _ = stream.read_to_string(&mut raw);
        let (refusal, next) = raw.split_once("HTTP/1.1 200 OK").unwrap_or((&raw, ""));
        assert!(refusal.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{raw}");
        assert!(refusal.contains("too many clauses: 65 > 64"), "{raw}");
        assert!(next.ends_with("\r\n\r\nok\n"), "{raw}");
    });
}

/// A request still incomplete `timeout` after its first byte is given
/// up with a typed reply, and the connection closes.
#[test]
fn incomplete_requests_are_given_up_at_the_deadline() {
    let table = small_table();
    let cfg = ServiceConfig {
        timeout: Duration::from_millis(300),
        ..test_config()
    };
    with_service(&table, &cfg, |h| {
        let mut stream = send_pieces(h.tcp_addr(), &[b"COUNT a"]);
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("reply, then EOF");
        assert_eq!(raw, "ERR request incomplete at the deadline\n");

        let mut stream = send_pieces(h.http_addr(), &[b"GET /healthz HTT"]);
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("reply, then EOF");
        assert!(raw.starts_with("HTTP/1.1 408 Request Timeout\r\n"), "{raw}");
    });
}

/// `ebi_serve` shares the bins' convention: an unknown flag prints the
/// usage text on stderr and exits with status 2 before binding a port.
#[test]
fn ebi_serve_rejects_an_unknown_flag_with_its_usage() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ebi_serve"))
        .arg("--no-such-flag")
        .output()
        .expect("ebi_serve runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("USAGE:"), "no usage printed: {stderr}");
}

/// A zero deadline would answer `ERR timeout` to every dispatched query,
/// so the flag refuses it before `--rows 0` is looked at.
#[test]
fn ebi_serve_refuses_a_zero_deadline() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ebi_serve"))
        .args(["--timeout-ms", "0", "--rows", "0"])
        .output()
        .expect("ebi_serve runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--timeout-ms must be positive"), "{stderr}");
}

#[test]
fn connections_over_the_cap_are_refused_until_one_closes() {
    let table = small_table();
    let mut refused = 0;
    let summary = with_service(&table, &test_config(), |h| {
        // The cap's worth of connections, each answered once so the
        // server is serving all of them, then left idle.
        let mut held: Vec<BufReader<TcpStream>> = (0..MAX_CONNECTIONS)
            .map(|_| {
                let mut stream = TcpStream::connect(h.tcp_addr()).expect("connect");
                stream.write_all(b"PING\n").expect("write");
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                reader.read_line(&mut line).expect("read");
                assert_eq!(line, "PONG\n");
                reader
            })
            .collect();
        assert_eq!(tcp_line(h.tcp_addr(), "PING"), "BUSY");
        let (status, _) = http_get(h.http_addr(), "/healthz");
        assert_eq!(status, 429, "the cap spans both protocols");
        refused += 2;
        // A closed connection gives its place back once its thread sees
        // the close.
        drop(held.pop());
        let mut answer = tcp_line(h.tcp_addr(), "PING");
        while answer == "BUSY" && refused < 200 {
            refused += 1;
            std::thread::sleep(Duration::from_millis(10));
            answer = tcp_line(h.tcp_addr(), "PING");
        }
        assert_eq!(answer, "PONG");
    });
    assert_eq!(summary.rejected_busy, refused);
}
