//! The line-oriented query grammar shared by both frontends, and the
//! protocol-neutral [`Reply`] both render.
//!
//! One request per `\n`-terminated line ([`frame_line`]):
//!
//! ```text
//! PING
//! STATS
//! SHUTDOWN
//! TRACES [n]
//! SLOW [n]
//! COUNT  <dnf>
//! QUERY  <dnf> [LIMIT k]
//! EXPLAIN <dnf>
//! ```
//!
//! Any line may carry a leading `TRACEPARENT <value>` field — the
//! line-protocol equivalent of the HTTP `traceparent` header — which
//! [`split_traceparent`] strips before verb parsing; the service
//! adopts the carried trace id and echoes it in the answer.
//! `TRACES` and `SLOW` page the retained-trace ring / slow-query log
//! as JSON lines (newest-last, optionally capped at `n`), terminated
//! by a lone `.` line.
//!
//! where `<dnf>` is `clause AND clause ... OR clause AND ...` and a
//! clause is one of
//!
//! ```text
//! col=5            point selection
//! col IN 1,2,3     IN-list
//! col BETWEEN 2 7  value range (inclusive)
//! ```
//!
//! Keywords are case-insensitive; column names are case-sensitive.
//! The HTTP frontend reuses exactly this grammar for the `q=`
//! parameter, so a query pasted from `netcat` works in `curl`
//! unchanged (URL-encoding aside).

use crate::shard::{Clause, DnfRequest, Predicate};

/// A parsed frontend request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered `PONG` without admission.
    Ping,
    /// Service statistics (no admission).
    Stats,
    /// Begin graceful shutdown.
    Shutdown,
    /// Retained recent traces as JSON lines, capped at the count.
    Traces(usize),
    /// Retained slow traces as JSON lines, capped at the count.
    Slow(usize),
    /// COUNT(*) of a selection.
    Count(DnfRequest),
    /// Selection returning matches and up to `limit` row ids.
    Query(DnfRequest, usize),
    /// Selection returning the `EXPLAIN ANALYZE` rendering.
    Explain(DnfRequest),
}

/// What the server answers, before a frontend renders it:
/// [`Reply::to_line`] is the TCP rendering, [`crate::http::render`]
/// the HTTP one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Liveness answer.
    Pong,
    /// One JSON object (`STATS`, `/debug/vars`).
    Json(String),
    /// Plain text (`/metrics`).
    Text(String),
    /// Graceful shutdown has begun.
    ShuttingDown,
    /// A page of retained traces as `\n`-terminated JSON lines.
    Page(String),
    /// A document that belongs to a trace: a query's answer, a
    /// retained trace's export.
    Answer {
        /// The JSON document.
        body: String,
        /// The `traceparent` to echo.
        traceparent: String,
    },
    /// Refused at the in-flight bound: back off and retry.
    Busy,
    /// Refused because the service is draining for shutdown.
    Draining,
    /// The query hit its per-request deadline.
    TimedOut,
    /// A shard evaluation panicked; the panic was contained.
    Internal,
    /// The request did not parse or compile.
    Bad(String),
    /// Nothing is served under that name.
    NotFound(&'static str),
    /// The request exceeds what one connection may buffer.
    TooLarge,
    /// The request had not arrived in full at the deadline.
    Incomplete,
}

/// Every value [`Reply::status`] returns.
pub(crate) const STATUSES: [&str; 3] = ["ok", "busy", "error"];

impl Reply {
    /// The message of a reply that is a refusal or an error.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        Some(match self {
            Self::Busy => "busy",
            Self::Draining => "draining",
            Self::TimedOut => "timeout",
            Self::Internal => "internal",
            Self::Bad(msg) => msg,
            Self::NotFound(msg) => msg,
            Self::TooLarge => "request too large",
            Self::Incomplete => "request incomplete at the deadline",
            _ => return None,
        })
    }

    /// The `status` label the request counter files this reply under:
    /// `ok`, `busy` or `error`.
    #[must_use]
    pub fn status(&self) -> &'static str {
        match self.error() {
            None => "ok",
            Some(_) if *self == Self::Busy => "busy",
            Some(_) => "error",
        }
    }

    /// The line-protocol rendering, final newline included. A page is
    /// an `OK <n>` line, its JSON lines, and a lone `.` terminator.
    #[must_use]
    pub fn to_line(&self) -> String {
        match self {
            Self::Pong => "PONG\n".into(),
            Self::ShuttingDown => "OK draining\n".into(),
            Self::Page(lines) => format!("OK {}\n{lines}.\n", lines.lines().count()),
            Self::Json(body) | Self::Text(body) | Self::Answer { body, .. } => {
                format!("OK {body}\n")
            }
            Self::Busy => "BUSY\n".into(),
            other => format!("ERR {}\n", other.error().unwrap_or_default()),
        }
    }
}

/// Longest request line (TCP) or request head (HTTP) one connection
/// may make the server buffer.
pub const MAX_HEAD_BYTES: usize = 64 << 10;

/// Most clauses one query may hold, counted across `AND` and `OR`. Each
/// clause is one logical reduction, and `c BETWEEN 100 500` is 18 bytes
/// for a 400-min-term one: without a cap a single line under
/// [`MAX_HEAD_BYTES`] asks for some 3 600 of them.
pub const MAX_CLAUSES: usize = 64;

/// What a framing function finds at the front of a connection's
/// buffered bytes: `Ok(Some((request, n)))` is a complete request in
/// the first `n` bytes, `Ok(None)` a proper prefix of one (read more),
/// and `Err` the reply to bytes that can never become a request
/// (answer, then close). Framing is pure: it never consumes, so bytes
/// that arrive in several reads are framed again once more are in.
pub type Framed<T> = Result<Option<(T, usize)>, Reply>;

/// Frames one `\n`-terminated request line of at most
/// [`MAX_HEAD_BYTES`] (terminator excluded from the line).
pub fn frame_line(buf: &[u8]) -> Framed<&str> {
    let window = &buf[..buf.len().min(MAX_HEAD_BYTES + 1)];
    match window.iter().position(|&b| b == b'\n') {
        Some(end) => match std::str::from_utf8(&buf[..end]) {
            Ok(line) => Ok(Some((line, end + 1))),
            Err(_) => Err(Reply::Bad("request is not UTF-8".into())),
        },
        None if buf.len() > MAX_HEAD_BYTES => Err(Reply::TooLarge),
        None => Ok(None),
    }
}

/// Default and maximum row-id list lengths for `QUERY`.
pub const DEFAULT_LIMIT: usize = 20;
/// Hard cap on `LIMIT`, to bound response sizes.
pub const MAX_LIMIT: usize = 10_000;

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for empty input, unknown verbs,
/// or a malformed query body.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb.to_ascii_uppercase().as_str() {
        "" => Err("empty request".into()),
        "PING" => Ok(Request::Ping),
        "STATS" => Ok(Request::Stats),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "TRACES" => Ok(Request::Traces(parse_count(rest)?)),
        "SLOW" => Ok(Request::Slow(parse_count(rest)?)),
        "COUNT" => Ok(Request::Count(parse_dnf(rest)?)),
        "EXPLAIN" => Ok(Request::Explain(parse_dnf(rest)?)),
        "QUERY" => {
            let (body, limit) = split_limit(rest)?;
            Ok(Request::Query(parse_dnf(body)?, limit))
        }
        other => Err(format!(
            "unknown verb {other:?} (expected PING, STATS, SHUTDOWN, TRACES, SLOW, COUNT, QUERY or EXPLAIN)"
        )),
    }
}

/// Splits a leading `TRACEPARENT <value>` field off a request line,
/// returning the raw value (unvalidated — the server decides whether
/// to adopt or re-mint) and the remaining request text.
#[must_use]
pub fn split_traceparent(line: &str) -> (Option<&str>, &str) {
    let line = line.trim();
    let Some((head, rest)) = line.split_once(char::is_whitespace) else {
        return (None, line);
    };
    if !head.eq_ignore_ascii_case("TRACEPARENT") {
        return (None, line);
    }
    let rest = rest.trim();
    match rest.split_once(char::is_whitespace) {
        Some((value, request)) => (Some(value), request.trim()),
        None => (Some(rest), ""),
    }
}

/// Parses the optional count argument of `TRACES` / `SLOW`
/// (`usize::MAX` when absent = everything retained).
fn parse_count(rest: &str) -> Result<usize, String> {
    if rest.is_empty() {
        return Ok(usize::MAX);
    }
    rest.parse()
        .map_err(|_| format!("bad count {rest:?} (expected an unsigned integer)"))
}

/// Splits a trailing `LIMIT k` off a QUERY body.
fn split_limit(body: &str) -> Result<(&str, usize), String> {
    let tokens: Vec<&str> = body.split_whitespace().collect();
    if tokens.len() >= 2 && tokens[tokens.len() - 2].eq_ignore_ascii_case("LIMIT") {
        let k: usize = tokens[tokens.len() - 1]
            .parse()
            .map_err(|_| format!("bad LIMIT {:?}", tokens[tokens.len() - 1]))?;
        let cut = body
            .to_ascii_uppercase()
            .rfind(" LIMIT ")
            .ok_or("bad LIMIT placement")?;
        Ok((&body[..cut], k.min(MAX_LIMIT)))
    } else {
        Ok((body, DEFAULT_LIMIT))
    }
}

/// Parses the DNF body of a query.
///
/// # Errors
///
/// Returns a message naming the offending token, or the clause count
/// once it passes [`MAX_CLAUSES`].
pub fn parse_dnf(text: &str) -> Result<DnfRequest, String> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    if tokens.is_empty() {
        return Err("empty query".into());
    }
    let mut disjuncts: Vec<Vec<Clause>> = Vec::new();
    let mut current: Vec<Clause> = Vec::new();
    let mut clauses = 0usize;
    let mut i = 0usize;
    loop {
        let (clause, next) = parse_clause(&tokens, i)?;
        clauses += 1;
        if clauses > MAX_CLAUSES {
            return Err(format!("too many clauses: {clauses} > {MAX_CLAUSES}"));
        }
        current.push(clause);
        i = next;
        match tokens.get(i).map(|t| t.to_ascii_uppercase()) {
            None => break,
            Some(ref op) if op == "AND" => i += 1,
            Some(ref op) if op == "OR" => {
                disjuncts.push(std::mem::take(&mut current));
                i += 1;
            }
            Some(other) => return Err(format!("expected AND or OR, got {other:?}")),
        }
        if i >= tokens.len() {
            return Err("query ends after a connective".into());
        }
    }
    disjuncts.push(current);
    Ok(DnfRequest { disjuncts })
}

/// Parses one clause starting at token `i`; returns it and the index
/// of the first unconsumed token.
fn parse_clause(tokens: &[&str], i: usize) -> Result<(Clause, usize), String> {
    let head = tokens
        .get(i)
        .ok_or_else(|| "expected a clause".to_string())?;
    if let Some((col, val)) = head.split_once('=') {
        if col.is_empty() {
            return Err(format!("missing column in {head:?}"));
        }
        let v = parse_num(val)?;
        return Ok((
            Clause {
                column: col.to_string(),
                predicate: Predicate::Eq(v),
            },
            i + 1,
        ));
    }
    let op = tokens
        .get(i + 1)
        .ok_or_else(|| format!("expected IN or BETWEEN after {head:?}"))?;
    match op.to_ascii_uppercase().as_str() {
        "IN" => {
            let list = tokens
                .get(i + 2)
                .ok_or_else(|| format!("expected a value list after {head} IN"))?;
            let values = list
                .split(',')
                .map(parse_num)
                .collect::<Result<Vec<u64>, String>>()?;
            if values.is_empty() {
                return Err(format!("empty IN list for {head:?}"));
            }
            Ok((
                Clause {
                    column: (*head).to_string(),
                    predicate: Predicate::In(values),
                },
                i + 3,
            ))
        }
        "BETWEEN" => {
            let lo = parse_num(
                tokens
                    .get(i + 2)
                    .ok_or_else(|| format!("expected bounds after {head} BETWEEN"))?,
            )?;
            let hi =
                parse_num(tokens.get(i + 3).ok_or_else(|| {
                    format!("expected an upper bound after {head} BETWEEN {lo}")
                })?)?;
            if lo > hi {
                return Err(format!("BETWEEN bounds reversed: {lo} > {hi}"));
            }
            Ok((
                Clause {
                    column: (*head).to_string(),
                    predicate: Predicate::Between(lo, hi),
                },
                i + 4,
            ))
        }
        other => Err(format!(
            "expected `col=v`, `col IN a,b` or `col BETWEEN lo hi`, got {head} {other}"
        )),
    }
}

fn parse_num(tok: &str) -> Result<u64, String> {
    tok.parse::<u64>()
        .map_err(|_| format!("expected an unsigned integer, got {tok:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_verb() {
        assert_eq!(parse_request("ping").unwrap(), Request::Ping);
        assert_eq!(parse_request(" STATS ").unwrap(), Request::Stats);
        assert_eq!(parse_request("shutdown").unwrap(), Request::Shutdown);
        let q = parse_request("COUNT a=1").unwrap();
        match q {
            Request::Count(d) => assert_eq!(d.disjuncts.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_dnf_with_all_predicate_shapes() {
        let d = parse_dnf("a=1 AND b IN 2,3 OR c BETWEEN 4 9").unwrap();
        assert_eq!(d.disjuncts.len(), 2);
        assert_eq!(d.disjuncts[0].len(), 2);
        assert_eq!(d.disjuncts[0][0].predicate, Predicate::Eq(1));
        assert_eq!(d.disjuncts[0][1].predicate, Predicate::In(vec![2, 3]));
        assert_eq!(d.disjuncts[1][0].predicate, Predicate::Between(4, 9));
    }

    #[test]
    fn query_limit_parses_and_caps() {
        match parse_request("QUERY a=1 LIMIT 5").unwrap() {
            Request::Query(_, 5) => {}
            other => panic!("{other:?}"),
        }
        match parse_request("QUERY a=1").unwrap() {
            Request::Query(_, l) => assert_eq!(l, DEFAULT_LIMIT),
            other => panic!("{other:?}"),
        }
        match parse_request("QUERY a=1 LIMIT 999999999").unwrap() {
            Request::Query(_, l) => assert_eq!(l, MAX_LIMIT),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn traces_and_slow_take_an_optional_count() {
        assert_eq!(
            parse_request("TRACES").unwrap(),
            Request::Traces(usize::MAX)
        );
        assert_eq!(parse_request("traces 10").unwrap(), Request::Traces(10));
        assert_eq!(parse_request("SLOW 3").unwrap(), Request::Slow(3));
        assert_eq!(parse_request("SLOW").unwrap(), Request::Slow(usize::MAX));
        assert!(parse_request("TRACES many").is_err());
    }

    #[test]
    fn traceparent_field_strips_off_any_verb() {
        let tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
        let line = format!("TRACEPARENT {tp} COUNT a=1");
        let (got, rest) = split_traceparent(&line);
        assert_eq!(got, Some(tp));
        assert_eq!(rest, "COUNT a=1");
        let (got, rest) = split_traceparent("traceparent xyz PING");
        assert_eq!(got, Some("xyz"));
        assert_eq!(rest, "PING");
        let (got, rest) = split_traceparent("COUNT a=1");
        assert_eq!(got, None);
        assert_eq!(rest, "COUNT a=1");
        let (got, rest) = split_traceparent("TRACEPARENT onlyvalue");
        assert_eq!(got, Some("onlyvalue"));
        assert_eq!(rest, "");
    }

    #[test]
    fn line_framing_over_truncated_pipelined_oversized_and_binary_input() {
        assert_eq!(frame_line(b""), Ok(None));
        assert_eq!(frame_line(b"COUNT a"), Ok(None));
        assert_eq!(frame_line(b"COUNT a=1\n"), Ok(Some(("COUNT a=1", 10))));
        // Pipelined: only the first line is framed, the rest stays.
        assert_eq!(frame_line(b"PING\r\nSTATS\nCOU"), Ok(Some(("PING\r", 6))));
        assert_eq!(frame_line(b"\n"), Ok(Some(("", 1))));
        // A line of exactly the cap passes; one byte more never will,
        // with or without its newline in the buffer.
        let mut line = vec![b'x'; MAX_HEAD_BYTES];
        assert_eq!(frame_line(&line), Ok(None));
        line.push(b'\n');
        assert!(matches!(frame_line(&line), Ok(Some((_, n))) if n == MAX_HEAD_BYTES + 1));
        let mut long = vec![b'x'; MAX_HEAD_BYTES + 1];
        assert_eq!(frame_line(&long), Err(Reply::TooLarge));
        long.push(b'\n');
        assert_eq!(frame_line(&long), Err(Reply::TooLarge));
        assert_eq!(
            frame_line(b"COUNT \xff\xfe=1\nPING\n"),
            Err(Reply::Bad("request is not UTF-8".into()))
        );
    }

    #[test]
    fn replies_render_as_lines_and_carry_their_status() {
        assert_eq!(Reply::Pong.to_line(), "PONG\n");
        assert_eq!(Reply::Json("{}".into()).to_line(), "OK {}\n");
        let page = Reply::Page("{\"a\":1}\n{\"a\":2}\n".into());
        assert_eq!(page.to_line(), "OK 2\n{\"a\":1}\n{\"a\":2}\n.\n");
        assert_eq!(Reply::Busy.to_line(), "BUSY\n");
        assert_eq!(Reply::Draining.to_line(), "ERR draining\n");
        assert_eq!(Reply::TimedOut.to_line(), "ERR timeout\n");
        assert_eq!(Reply::Internal.to_line(), "ERR internal\n");
        assert_eq!(Reply::TooLarge.to_line(), "ERR request too large\n");
        assert_eq!(
            Reply::Bad("empty query".into()).to_line(),
            "ERR empty query\n"
        );
        assert_eq!(Reply::Pong.status(), "ok");
        assert_eq!(Reply::Busy.status(), "busy");
        assert_eq!(Reply::Incomplete.status(), "error");
        assert_eq!(Reply::Internal.status(), "error");
    }

    #[test]
    fn clause_count_is_capped_across_connectives() {
        // 64 clauses as 16 disjuncts of 4: at the cap, accepted.
        let conjunction = ["c BETWEEN 100 500"; 4].join(" AND ");
        let at_cap = vec![conjunction; 16].join(" OR ");
        let d = parse_dnf(&at_cap).unwrap();
        assert_eq!(d.disjuncts.iter().map(Vec::len).sum::<usize>(), MAX_CLAUSES);
        // One more, behind either connective: refused with the count.
        for connective in ["AND", "OR"] {
            assert_eq!(
                parse_dnf(&format!("{at_cap} {connective} a=1")),
                Err("too many clauses: 65 > 64".into())
            );
        }
        assert_eq!(
            parse_request(&format!("COUNT {at_cap} OR a=1")),
            Err("too many clauses: 65 > 64".into())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_request("").is_err());
        assert!(parse_request("FROB a=1").is_err());
        assert!(parse_dnf("a=1 AND").is_err());
        assert!(parse_dnf("a=x").is_err());
        assert!(parse_dnf("a BETWEEN 9 1").is_err());
        assert!(parse_dnf("a IN").is_err());
        assert!(parse_dnf("=3").is_err());
        assert!(parse_dnf("a=1 XOR b=2").is_err());
    }
}
