//! A served answer reads only the morsel bitmaps. The heap pages it
//! spans are counted on global row ids from their words
//! (`ShardedTable::pages_spanned`): on a table of three kernel windows,
//! at 1, 7, 100 and 512 rows per page and for every split of its
//! windows into morsels, the count is the number of distinct pages of
//! the walk that visits each matching row in turn, so a page that
//! straddles a morsel edge counts once. A table sorted before its build
//! stores its rows in that order, so an equality on its lead column
//! spans one run of pages. Over TCP and HTTP, `COUNT`, `QUERY … LIMIT n`
//! and `EXPLAIN` answer what the library reference answers:
//! `eval_local`'s popcount, its first n row ids and its pages; split
//! across two workers or run inline alike.

mod common;

use common::{tcp_line, with_service};
use ebi_bitvec::{BitVec, SEGMENT_BITS, SEGMENT_WORDS};
use ebi_core::RowOrder;
use ebi_service::protocol::MAX_LIMIT;
use ebi_service::{parse_dnf, ColumnSpec, ServiceConfig, ShardedTable, TableOptions};
use ebi_storage::Cell;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Three kernel windows, the last ragged: two workers split a request
/// into morsels `0..1` and `1..3`, whose edge, row 32 768, falls inside
/// a page unless the page size divides it.
const ROWS: u64 = 2 * SEGMENT_BITS as u64 + 1_003;

/// Rows before this one hold values no query selects, so that the
/// first `LIMIT n` that reaches past the morsel edge stays under
/// `MAX_LIMIT`.
const QUIET: u64 = SEGMENT_BITS as u64 - 300;

const QUERIES: &[&str] = &[
    "a=1",
    "a IN 1,3,5 OR b IN 0,2",
    "a BETWEEN 2 8",
    "b=4 AND a=0",
    "a BETWEEN 0 10",
];

fn table(rows_per_page: usize) -> ShardedTable {
    let column = |m: u64, mul: u64| {
        let value = |i: u64| if i < QUIET { m + 9 } else { i * mul % m };
        (0..ROWS).map(|i| Cell::Value(value(i))).collect()
    };
    ShardedTable::build(
        vec![
            ColumnSpec::new("a", column(11, 7)),
            ColumnSpec::new("b", column(5, 13)),
        ],
        &TableOptions {
            rows_per_page,
            ..TableOptions::default()
        },
    )
    .expect("table builds")
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
    for rows_per_page in [1usize, 7, 100, 512] {
        let table = table(rows_per_page);
        assert_eq!(table.windows(), 3);
        for query in QUERIES {
            let compiled = table
                .compile(&parse_dnf(query).expect("parses"))
                .expect("compiles");
            let want = row_walk_pages(&table.eval_local(&compiled).0, rows_per_page);
            for n in 1..=table.windows() {
                let parts: Vec<(usize, BitVec)> = table
                    .morsels(n)
                    .map(|w| (w.start * SEGMENT_WORDS, table.eval_morsel(&compiled, w).0))
                    .collect();
                assert_eq!(
                    table.pages_spanned(parts.iter().map(|(word, b)| (*word, b))),
                    want,
                    "{query} in {n} morsels at {rows_per_page} rows per page"
                );
            }
        }
    }
}

#[test]
fn a_sorted_table_spans_one_run_of_pages() {
    // `a` has the lowest effective cardinality, so it leads the sort.
    let rows = 2_000u64;
    let a: Vec<Cell> = (0..rows).map(|i| Cell::Value(i % 3)).collect();
    let b: Vec<Cell> = (0..rows).map(|i| Cell::Value(i * 7 % 50)).collect();
    let rows_per_page = 16;
    let spans: Vec<(u64, u64)> = [vec![RowOrder::Lexicographic], vec![]]
        .into_iter()
        .map(|row_orders| {
            let table = ShardedTable::build(
                vec![
                    ColumnSpec::new("a", a.clone()),
                    ColumnSpec::new("b", b.clone()),
                ],
                &TableOptions {
                    row_orders,
                    rows_per_page,
                    ..TableOptions::default()
                },
            )
            .expect("table builds");
            let compiled = table
                .compile(&parse_dnf("a=1").expect("parses"))
                .expect("compiles");
            let (bitmap, _) = table.eval_local(&compiled);
            (
                bitmap.count_ones() as u64,
                table.pages_spanned([(0, &bitmap)]),
            )
        })
        .collect();
    let bound = |matches: u64| matches.div_ceil(rows_per_page as u64) + 1;
    let [(sorted_matches, sorted_pages), (matches, pages)] = spans[..] else {
        panic!("two tables: {spans:?}");
    };
    assert!(
        sorted_matches > 0 && sorted_pages <= bound(sorted_matches),
        "{spans:?}"
    );
    assert!(pages > bound(matches), "{spans:?}");
    // The table is sorted as a whole or not at all.
    let options = TableOptions {
        row_orders: vec![RowOrder::Lexicographic, RowOrder::Original],
        ..TableOptions::default()
    };
    assert!(ShardedTable::build(vec![ColumnSpec::new("a", a)], &options).is_err());
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

fn expected(table: &ShardedTable, query: &str, rows_per_page: usize) -> Expected {
    let compiled = table
        .compile(&parse_dnf(query).expect("parses"))
        .expect("compiles");
    let (bitmap, _) = table.eval_local(&compiled);
    Expected {
        matches: bitmap.count_ones() as u64,
        ids: bitmap.iter_ones().collect(),
        pages: row_walk_pages(&bitmap, rows_per_page),
    }
}

#[derive(Debug, Clone, Copy)]
enum Ask {
    Count,
    Explain,
    Query(usize),
}

/// For each query, an n whose first n ids run past the first morsel's
/// last match into the second's, when two workers split the table.
fn crossing(wants: &[Expected]) -> Vec<usize> {
    let edge = SEGMENT_BITS;
    let crossing: Vec<usize> = wants
        .iter()
        .map(|want| want.ids.iter().filter(|&&id| id < edge).count() + 2)
        .collect();
    for (want, &n) in wants.iter().zip(&crossing) {
        assert!(n >= 3 && want.ids[n - 1] >= edge);
    }
    crossing
}

/// Every query as `COUNT`, `EXPLAIN` and three `QUERY … LIMIT n`, over
/// TCP and HTTP, against `table` served by `workers` workers; checked
/// against `wants`. Every `EXPLAIN` must show `morsels` morsels.
fn serve_and_check(table: &ShardedTable, workers: usize, wants: &[Expected], morsels: u64) {
    let crossing = crossing(wants);
    let cfg = ServiceConfig {
        workers,
        timeout: Duration::from_secs(5),
        ..ServiceConfig::default()
    };
    let mut replies = Vec::new();
    with_service(table, &cfg, |handle| {
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
            Ask::Explain => {
                assert_eq!(number_after(&reply, "pages: "), want.pages, "{what}");
                assert_eq!(number_after(&reply, "morsels="), morsels, "{what}");
            }
            Ask::Query(n) => {
                let n = n.min(want.ids.len()).min(MAX_LIMIT);
                assert_eq!(row_ids(&reply), want.ids[..n], "{what}");
            }
        }
    }
}

#[test]
fn count_query_and_explain_answer_what_the_library_answers() {
    let table = table(7);
    let wants: Vec<Expected> = QUERIES.iter().map(|q| expected(&table, q, 7)).collect();
    serve_and_check(&table, 2, &wants, 2);
}

#[test]
fn explain_counts_a_page_across_the_morsel_edge_once() {
    // 100 rows per page: page 327 holds rows 32 700 ..= 32 799, on both
    // sides of the edge between the morsels `0..1` and `1..3`.
    let table = table(100);
    let wants: Vec<Expected> = QUERIES.iter().map(|q| expected(&table, q, 100)).collect();
    assert!(
        wants.iter().any(|w| {
            let near = |range: std::ops::Range<usize>| w.ids.iter().any(|id| range.contains(id));
            near(32_700..SEGMENT_BITS) && near(SEGMENT_BITS..32_800)
        }),
        "some query matches on both sides of the edge within one page"
    );
    serve_and_check(&table, 2, &wants, 2);
    serve_and_check(&table, 0, &wants, 1);
}
