//! A served answer reads only the shard bitmaps. The heap pages it
//! spans are counted from a bitmap's words (`Shard::pages_spanned`):
//! on every shard of a table whose shard boundaries fall inside words,
//! at 1, 7 and 512 rows per page, the count is the number of distinct
//! pages of the walk that visits each matching row in turn. A shard
//! that sorts its rows stores them in that order, so an equality on its
//! lead column spans one run of pages. Over TCP and HTTP,
//! `COUNT`, `QUERY … LIMIT n` and `EXPLAIN` answer what the library
//! reference answers: `eval_local`'s popcount, its first n row ids and
//! Σ `pages_spanned`.

use ebi_bitvec::BitVec;
use ebi_core::RowOrder;
use ebi_service::{parse_dnf, ColumnSpec, ServiceConfig, ShardedTable, TableOptions};
use ebi_storage::Cell;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// 7 shards of 143 or 144 rows: no boundary after the first is a
/// multiple of 64.
const ROWS: u64 = 1_003;
const SHARDS: usize = 7;

const QUERIES: &[&str] = &[
    "a=1",
    "a IN 1,3,5 OR b IN 0,2",
    "a BETWEEN 2 8",
    "b=4 AND a=0",
    "a BETWEEN 0 10",
];

fn table(rows_per_page: usize) -> ShardedTable {
    let column = |m: u64, mul: u64| (0..ROWS).map(|i| Cell::Value(i * mul % m)).collect();
    let table = ShardedTable::build(
        vec![
            ColumnSpec::new("a", column(11, 7)),
            ColumnSpec::new("b", column(5, 13)),
        ],
        &TableOptions {
            shards: SHARDS,
            rows_per_page,
            ..TableOptions::default()
        },
    )
    .expect("table builds");
    assert!(table.shards()[1..].iter().all(|s| s.lo() % 64 != 0));
    table
}

/// The pages of every matching row in ascending order, each counted
/// once.
fn row_walk_pages(bitmap: &BitVec, rows_per_page: usize) -> u64 {
    let mut pages: Vec<usize> = bitmap.iter_ones().map(|row| row / rows_per_page).collect();
    pages.dedup();
    pages.len() as u64
}

#[test]
fn pages_spanned_counts_the_pages_of_the_row_walk() {
    for rows_per_page in [1usize, 7, 512] {
        let table = table(rows_per_page);
        for query in QUERIES {
            let compiled = table
                .compile(&parse_dnf(query).expect("parses"))
                .expect("compiles");
            for shard in table.shards() {
                let (bitmap, _) = shard.eval(&compiled);
                assert_eq!(
                    shard.pages_spanned(&bitmap),
                    row_walk_pages(&bitmap, rows_per_page),
                    "{query} on shard {} at {rows_per_page} rows per page",
                    shard.id()
                );
            }
        }
    }
}

#[test]
fn a_sorted_shard_spans_one_run_of_pages() {
    // `a` has the lowest effective cardinality, so it leads the sort.
    let rows = 2_000u64;
    let a: Vec<Cell> = (0..rows).map(|i| Cell::Value(i % 3)).collect();
    let b: Vec<Cell> = (0..rows).map(|i| Cell::Value(i * 7 % 50)).collect();
    let rows_per_page = 16;
    let table = ShardedTable::build(
        vec![ColumnSpec::new("a", a), ColumnSpec::new("b", b)],
        &TableOptions {
            shards: 2,
            row_orders: vec![RowOrder::Lexicographic, RowOrder::Original],
            rows_per_page,
        },
    )
    .expect("table builds");
    let compiled = table
        .compile(&parse_dnf("a=1").expect("parses"))
        .expect("compiles");
    let spans: Vec<(u64, u64)> = table
        .shards()
        .iter()
        .map(|shard| {
            let (bitmap, _) = shard.eval(&compiled);
            (bitmap.count_ones() as u64, shard.pages_spanned(&bitmap))
        })
        .collect();
    let bound = |matches: u64| matches.div_ceil(rows_per_page as u64) + 1;
    let [(sorted_matches, sorted_pages), (matches, pages)] = spans[..] else {
        panic!("two shards: {spans:?}");
    };
    assert!(
        sorted_matches > 0 && sorted_pages <= bound(sorted_matches),
        "{spans:?}"
    );
    assert!(pages > bound(matches), "{spans:?}");
}

/// Sends one line over a fresh connection and reads one reply line.
fn tcp_line(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("read");
    reply
}

/// GET over a fresh connection: the whole response.
fn http_get(addr: SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    raw
}

/// The number after `key` in `text`.
fn number_after(text: &str, key: &str) -> u64 {
    let at = text.find(key).unwrap_or_else(|| panic!("{key} in {text}")) + key.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a number")
}

/// The `"rows":[…]` list of a reply.
fn row_ids(reply: &str) -> Vec<usize> {
    let at = reply.find("\"rows\":[").expect("rows") + "\"rows\":[".len();
    let list = &reply[at..at + reply[at..].find(']').expect("closing bracket")];
    list.split(',')
        .filter(|id| !id.is_empty())
        .map(|id| id.parse().expect("row id"))
        .collect()
}

/// What one query answers, read off the library reference path.
struct Expected {
    matches: u64,
    ids: Vec<usize>,
    pages: u64,
}

fn expected(table: &ShardedTable, query: &str) -> Expected {
    let compiled = table
        .compile(&parse_dnf(query).expect("parses"))
        .expect("compiles");
    let (bitmap, _) = table.eval_local(&compiled);
    let pages = table
        .shards()
        .iter()
        .map(|s| s.pages_spanned(&s.eval(&compiled).0))
        .sum();
    Expected {
        matches: bitmap.count_ones() as u64,
        ids: bitmap.iter_ones().collect(),
        pages,
    }
}

#[derive(Debug, Clone, Copy)]
enum Ask {
    Count,
    Explain,
    Query(usize),
}

#[test]
fn count_query_and_explain_answer_what_the_library_answers() {
    let table = table(7);
    let wants: Vec<Expected> = QUERIES.iter().map(|q| expected(&table, q)).collect();
    // For each query, an n whose first n ids run past shard 0's last
    // match into shard 1.
    let boundary = table.shards()[1].lo();
    let crossing: Vec<usize> = wants
        .iter()
        .map(|want| want.ids.iter().filter(|&&id| id < boundary).count() + 2)
        .collect();
    for (want, &n) in wants.iter().zip(&crossing) {
        assert!(n >= 3 && want.ids[n - 1] >= boundary);
    }
    let cfg = ServiceConfig {
        workers: 2,
        timeout: Duration::from_secs(5),
        min_dispatch_words: 0,
        ..ServiceConfig::default()
    };
    // Replies are checked once the service has shut down: a check that
    // failed in the scope would leave the server thread running.
    let mut replies = Vec::new();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = s.spawn(|| ebi_service::run(&table, &cfg, |h| tx.send(h).expect("send")));
        let handle = rx.recv().expect("service came up");
        let (tcp, http) = (handle.tcp_addr(), handle.http_addr());
        for (q, query) in QUERIES.iter().enumerate() {
            let escaped = query.replace('=', "%3D").replace(' ', "+");
            let mut ask = |ask: Ask, line: String, target: String| {
                replies.push((q, ask, tcp_line(tcp, &line)));
                replies.push((q, ask, http_get(http, &target)));
            };
            ask(
                Ask::Count,
                format!("COUNT {query}"),
                format!("/count?q={escaped}"),
            );
            ask(
                Ask::Explain,
                format!("EXPLAIN {query}"),
                format!("/explain?q={escaped}"),
            );
            for n in [0, crossing[q], wants[q].ids.len() + 5] {
                ask(
                    Ask::Query(n),
                    format!("QUERY {query} LIMIT {n}"),
                    format!("/query?q={escaped}&limit={n}"),
                );
            }
        }
        handle.shutdown();
        server.join().expect("service thread").expect("service ran");
    });
    assert_eq!(replies.len(), QUERIES.len() * 10);
    for (q, ask, reply) in replies {
        let (want, what) = (&wants[q], format!("{ask:?} {}: {reply}", QUERIES[q]));
        assert!(
            reply.starts_with("OK {") || reply.starts_with("HTTP/1.1 200"),
            "{what}"
        );
        assert_eq!(number_after(&reply, "\"matches\":"), want.matches, "{what}");
        match ask {
            Ask::Count => assert!(row_ids(&reply).is_empty(), "{what}"),
            Ask::Explain => assert_eq!(number_after(&reply, "pages: "), want.pages, "{what}"),
            Ask::Query(n) => {
                assert_eq!(row_ids(&reply), want.ids[..n.min(want.ids.len())], "{what}");
            }
        }
    }
}
