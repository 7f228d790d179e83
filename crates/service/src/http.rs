//! A minimal hand-rolled HTTP/1.1 layer — just enough for the JSON
//! frontend: request-line + headers + optional `Content-Length` body,
//! keep-alive, and fixed-length responses. No chunked encoding, no
//! TLS, no async runtime; one blocking thread per connection, which is
//! exactly the closed-loop shape the bench drives.
//!
//! Like the line protocol, this layer only frames
//! ([`parse_request`]), parses ([`to_request`]) and renders
//! ([`render`]); what a request *does* is `server::respond`'s business
//! and is the same on both frontends.

use crate::protocol::{self, Framed, Reply, Request, MAX_HEAD_BYTES};
use ebi_obs::export::JsonObject;
use ebi_obs::TraceContext;

/// Most header lines one request may carry.
pub const MAX_HEADERS: usize = 100;
/// Largest request body accepted.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (uppercased).
    pub method: String,
    /// Path component, percent-decoded.
    pub path: String,
    /// Raw query string (undecoded; parameters are decoded by
    /// [`query_param`]).
    pub query: String,
    /// Request body (empty without `Content-Length`).
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// Raw `traceparent` header value, if the client sent one.
    pub traceparent: Option<String>,
}

/// Frames and parses the request at the front of `buf`: a head of at
/// most [`MAX_HEAD_BYTES`] and [`MAX_HEADERS`] header lines, ended by
/// an empty line, then exactly `Content-Length` body bytes.
pub fn parse_request(buf: &[u8]) -> Framed<HttpRequest> {
    let bad = |msg: &str| Reply::Bad(msg.into());
    // The head ends with the first empty line: `\n` directly followed
    // by `\n` or `\r\n`.
    let window = &buf[..buf.len().min(MAX_HEAD_BYTES)];
    let head_len = (0..window.len()).find_map(|i| match &window[i..] {
        [b'\n', b'\n', ..] => Some(i + 2),
        [b'\n', b'\r', b'\n', ..] => Some(i + 3),
        _ => None,
    });
    let head_len = match head_len {
        Some(n) => n,
        // A head that has not ended by the cap never will.
        None if buf.len() >= MAX_HEAD_BYTES => return Err(Reply::TooLarge),
        None => return Ok(None),
    };
    let head =
        std::str::from_utf8(&buf[..head_len]).map_err(|_| bad("request head is not UTF-8"))?;
    let mut lines = head.lines();
    let mut parts = lines.next().unwrap_or_default().split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(bad("malformed request line"));
    };
    let mut keep_alive = parts.next().unwrap_or("HTTP/1.1").ends_with("1.1");
    let mut content_length = 0usize;
    let mut traceparent = None;
    for (n, header) in lines.take_while(|l| !l.is_empty()).enumerate() {
        if n >= MAX_HEADERS {
            return Err(Reply::TooLarge);
        }
        let (name, value) = header.split_once(':').unwrap_or((header, ""));
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| bad("bad Content-Length"))?;
            if content_length > MAX_BODY_BYTES {
                return Err(bad("body too large"));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("traceparent") {
            traceparent = Some(value.to_string());
        }
    }
    let Some(body) = buf.get(head_len..head_len + content_length) else {
        return Ok(None);
    };
    let body = std::str::from_utf8(body).map_err(|_| bad("non-utf8 body"))?;
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let request = HttpRequest {
        method: method.to_ascii_uppercase(),
        path: percent_decode(path),
        query: query.to_string(),
        body: body.to_string(),
        keep_alive,
        traceparent,
    };
    Ok(Some((request, head_len + content_length)))
}

/// Maps a route onto the protocol request it stands for (`Err` when
/// its query text is missing or malformed); `None` for paths that are
/// not requests: the server's HTTP-only dumps, and unknown routes.
#[must_use]
pub fn to_request(req: &HttpRequest) -> Option<Result<Request, String>> {
    let dnf = || {
        let text = query_text(req).ok_or("missing query (q=)")?;
        protocol::parse_dnf(&text)
    };
    Some(match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok(Request::Ping),
        ("GET", "/stats") => Ok(Request::Stats),
        ("GET", "/debug/traces") => Ok(Request::Traces(usize::MAX)),
        ("GET", "/debug/slow") => Ok(Request::Slow(usize::MAX)),
        ("POST", "/shutdown") => Ok(Request::Shutdown),
        ("GET" | "POST", "/count") => dnf().map(Request::Count),
        ("GET" | "POST", "/explain") => dnf().map(Request::Explain),
        ("GET" | "POST", "/query") => {
            let limit = query_param(&req.query, "limit")
                .and_then(|l| l.parse().ok())
                .unwrap_or(protocol::DEFAULT_LIMIT)
                .min(protocol::MAX_LIMIT);
            dnf().map(|d| Request::Query(d, limit))
        }
        _ => return None,
    })
}

/// Pulls the query text from `?q=`, a raw text body, or a tiny JSON
/// body of the form `{"q": "..."}`.
fn query_text(req: &HttpRequest) -> Option<String> {
    if let Some(q) = query_param(&req.query, "q") {
        return Some(q);
    }
    let body = req.body.trim();
    if body.is_empty() {
        return None;
    }
    if body.starts_with('{') {
        // Hand-rolled extraction of a flat {"q":"..."} — the vendored
        // serde has no derive, and the grammar needs nothing more.
        let key = body.find("\"q\"")?;
        let colon = body[key + 3..].find(':')? + key + 4;
        let rest = body[colon..].trim_start();
        let rest = rest.strip_prefix('"')?;
        let end = rest.find('"')?;
        return Some(rest[..end].to_string());
    }
    Some(body.to_string())
}

/// Extracts and percent-decodes one query-string parameter.
#[must_use]
pub fn query_param(query: &str, name: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == name).then(|| percent_decode(v))
    })
}

/// Decodes `%XX` escapes and `+` (space). Malformed escapes pass
/// through verbatim.
#[must_use]
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex(bytes.get(i + 1)), hex(bytes.get(i + 2))) {
                (Some(h), Some(l)) => {
                    out.push(h * 16 + l);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex(b: Option<&u8>) -> Option<u8> {
    char::from(*b?).to_digit(16).map(|d| d as u8)
}

const JSON: &str = "application/json";
const TEXT: &str = "text/plain; charset=utf-8";
const NDJSON: &str = "application/x-ndjson";

/// The HTTP rendering of a [`Reply`]: one fixed-length response, head
/// and body, as the bytes of a single write. Refusals and errors echo
/// the request's `traceparent` (parented at the inbound span) so a
/// client can correlate them with the server's logs; `tctx` is `None`
/// when the reply belongs to no trace.
#[must_use]
pub fn render(reply: &Reply, tctx: Option<&TraceContext>, keep_alive: bool) -> Vec<u8> {
    let (echo, error);
    let (status, content_type, body, traceparent) = match reply {
        Reply::Pong => (200, TEXT, "ok\n", None),
        Reply::Json(body) => (200, JSON, body.as_str(), None),
        Reply::Text(body) => (200, TEXT, body.as_str(), None),
        Reply::ShuttingDown => (200, JSON, r#"{"status":"draining"}"#, None),
        Reply::Page(lines) => (200, NDJSON, lines.as_str(), None),
        Reply::Answer { body, traceparent } => (200, JSON, body.as_str(), Some(traceparent)),
        refusal => {
            let status = match refusal {
                Reply::Busy => 429,
                Reply::Draining => 503,
                Reply::TimedOut => 504,
                Reply::Internal => 500,
                Reply::NotFound(_) => 404,
                Reply::TooLarge => 431,
                Reply::Incomplete => 408,
                _ => 400,
            };
            echo = tctx.map(|t| t.to_traceparent(t.parent_id()));
            error = JsonObject::new()
                .str("error", refusal.error().unwrap_or_default())
                .finish();
            (status, JSON, error.as_str(), echo.as_ref())
        }
    };
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    );
    if let Some(tp) = traceparent {
        // Header-safe by construction: hex fields and dashes.
        out.push_str("traceparent: ");
        out.push_str(tp);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(
            percent_decode("a%3D1+AND+b%20IN%202%2C3"),
            "a=1 AND b IN 2,3"
        );
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("trail%2"), "trail%2");
    }

    #[test]
    fn query_param_lookup() {
        let q = "q=a%3D1&limit=5";
        assert_eq!(query_param(q, "q").as_deref(), Some("a=1"));
        assert_eq!(query_param(q, "limit").as_deref(), Some("5"));
        assert_eq!(query_param(q, "missing"), None);
    }

    fn complete(raw: &str) -> (HttpRequest, usize) {
        match parse_request(raw.as_bytes()) {
            Ok(Some(framed)) => framed,
            other => panic!("{raw:?} framed as {other:?}"),
        }
    }

    #[test]
    fn request_framing_waits_for_the_whole_head_and_body() {
        let raw = "POST /count?x=1 HTTP/1.1\r\nHost: t\r\ntraceparent: tp\r\nContent-Length: 3\r\n\r\na=1";
        for cut in 0..raw.len() {
            assert_eq!(parse_request(&raw.as_bytes()[..cut]), Ok(None), "cut {cut}");
        }
        let (req, n) = complete(raw);
        assert_eq!(n, raw.len());
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/count"));
        assert_eq!((req.query.as_str(), req.body.as_str()), ("x=1", "a=1"));
        assert_eq!(req.traceparent.as_deref(), Some("tp"));
        assert!(req.keep_alive);
        // Pipelined: the second request's bytes are left alone.
        let two = format!("{raw}GET /healthz HTTP/1.0\n\n");
        assert_eq!(complete(&two).1, raw.len());
        let (second, n) = complete(&two[raw.len()..]);
        assert_eq!(n, two.len() - raw.len());
        assert_eq!(second.path, "/healthz");
        assert!(!second.keep_alive, "HTTP/1.0 closes by default");
        assert!(
            !complete("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .0
                .keep_alive
        );
    }

    #[test]
    fn request_framing_rejects_oversized_and_malformed_input() {
        let reject = |raw: &[u8]| parse_request(raw).expect_err("framed");
        // A head that has not ended by the cap never will.
        let mut long = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        long.resize(MAX_HEAD_BYTES - 1, b'x');
        assert_eq!(parse_request(&long), Ok(None));
        long.push(b'x');
        assert_eq!(reject(&long), Reply::TooLarge);
        // Header lines are counted, not only bytes.
        let headers = |n: usize| format!("GET / HTTP/1.1\r\n{}\r\n", "X-H: 1\r\n".repeat(n));
        assert!(matches!(
            parse_request(headers(MAX_HEADERS).as_bytes()),
            Ok(Some(_))
        ));
        assert_eq!(reject(headers(MAX_HEADERS + 1).as_bytes()), Reply::TooLarge);
        assert_eq!(
            reject(b"POST /count HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n"),
            Reply::Bad("body too large".into())
        );
        assert_eq!(
            reject(b"POST /count HTTP/1.1\r\nContent-Length: many\r\n\r\n"),
            Reply::Bad("bad Content-Length".into())
        );
        assert_eq!(
            reject(b"\r\n\r\n"),
            Reply::Bad("malformed request line".into())
        );
        assert_eq!(
            reject(b"GET\r\n\r\n"),
            Reply::Bad("malformed request line".into())
        );
        assert_eq!(
            reject(b"GET /\xff HTTP/1.1\r\n\r\n"),
            Reply::Bad("request head is not UTF-8".into())
        );
        assert_eq!(
            reject(b"POST /count HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe"),
            Reply::Bad("non-utf8 body".into())
        );
    }

    #[test]
    fn routes_map_onto_protocol_requests() {
        let route = |raw: &str| to_request(&complete(raw).0);
        assert_eq!(
            route("GET /healthz HTTP/1.1\r\n\r\n"),
            Some(Ok(Request::Ping))
        );
        assert_eq!(
            route("POST /shutdown HTTP/1.1\r\n\r\n"),
            Some(Ok(Request::Shutdown))
        );
        assert_eq!(route("GET /shutdown HTTP/1.1\r\n\r\n"), None);
        assert_eq!(route("GET /metrics HTTP/1.1\r\n\r\n"), None);
        let dnf = protocol::parse_dnf("a=1").unwrap();
        assert_eq!(
            route("GET /query?q=a%3D1&limit=7 HTTP/1.1\r\n\r\n"),
            Some(Ok(Request::Query(dnf.clone(), 7)))
        );
        assert_eq!(
            route("POST /count HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"q\":\"a=1\"}"),
            Some(Ok(Request::Count(dnf)))
        );
        assert_eq!(
            route("GET /count HTTP/1.1\r\n\r\n"),
            Some(Err("missing query (q=)".into()))
        );
    }

    #[test]
    fn replies_render_with_status_and_trace_echo() {
        let tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
        let tctx = TraceContext::parse(tp);
        let text = |bytes: Vec<u8>| String::from_utf8(bytes).unwrap();
        let busy = text(render(&Reply::Busy, tctx.as_ref(), true));
        assert!(
            busy.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{busy}"
        );
        assert!(
            busy.contains(&format!("\r\ntraceparent: {tp}\r\n")),
            "{busy}"
        );
        assert!(busy.ends_with("\r\n\r\n{\"error\":\"busy\"}"), "{busy}");
        let large = text(render(&Reply::TooLarge, None, false));
        assert!(large.starts_with("HTTP/1.1 431 "), "{large}");
        assert!(!large.contains("traceparent"), "{large}");
        assert!(text(render(&Reply::Incomplete, None, false)).starts_with("HTTP/1.1 408 "));
        let internal = text(render(&Reply::Internal, None, false));
        assert!(
            internal.starts_with("HTTP/1.1 500 Internal Server Error\r\n"),
            "{internal}"
        );
        assert!(internal.ends_with("{\"error\":\"internal\"}"), "{internal}");
        assert_eq!(
            text(render(&Reply::Pong, None, false)),
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 3\r\nConnection: close\r\n\r\nok\n"
        );
    }
}
