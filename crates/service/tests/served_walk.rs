//! The served page walk reads what the row-by-row walk it replaced
//! read: on every shard of a table whose shard boundaries fall inside
//! words, at 1, 7 and 512 rows per page, `eval_shard`'s `PageWalk`
//! (pages, hits, misses, evictions) equals the walk that visits each
//! matching row in turn, run through the reference LRU pool. A shard
//! that sorts its rows also lays its heap out in that order, so an
//! equality on its lead column walks one run of pages. Every request
//! kind that evaluates a selection walks its pages today: `COUNT`,
//! `QUERY … LIMIT` and `EXPLAIN` of one range read the same pages.

#[path = "../../storage/tests/lru_model/mod.rs"]
mod lru_model;

use ebi_bitvec::BitVec;
use ebi_core::RowOrder;
use ebi_service::{eval_shard, parse_dnf, ColumnSpec, ServiceConfig, ShardedTable, TableOptions};
use ebi_storage::{BufferPool, Cell, PageId, PageWalk};
use lru_model::LruModel;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// 7 shards of 143 or 144 rows: no boundary after the first is a
/// multiple of 64.
const ROWS: u64 = 1_003;
const SHARDS: usize = 7;
const FRAMES: usize = 8;

const QUERIES: &[&str] = &[
    "a=1",
    "a IN 1,3,5 OR b IN 0,2",
    "a BETWEEN 2 8",
    "b=4 AND a=0",
    "a BETWEEN 0 10",
    "a=1",
];

/// Every matching row in ascending order, skipping a row whose page
/// the row before it already read.
fn row_walk(bitmap: &BitVec, rows_per_page: usize, model: &mut LruModel<'_>) -> PageWalk {
    let mut pages: Vec<PageId> = bitmap
        .iter_ones()
        .map(|row| PageId((row / rows_per_page) as u64))
        .collect();
    pages.dedup();
    model.walk(pages)
}

#[test]
fn the_served_walk_reads_what_the_row_walk_read() {
    let column =
        |m: u64, mul: u64| -> Vec<Cell> { (0..ROWS).map(|i| Cell::Value(i * mul % m)).collect() };
    let trace = ebi_obs::Trace::begin();
    let root = trace.root_span("query");
    for rows_per_page in [1usize, 7, 512] {
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
        for shard in table.shards() {
            let pool = BufferPool::new(shard.pager(), FRAMES);
            let mut model = LruModel::new(shard.pager(), FRAMES);
            for query in QUERIES {
                let compiled = table
                    .compile(&parse_dnf(query).expect("parses"))
                    .expect("compiles");
                let outcome = eval_shard(shard, &pool, &compiled, root.handle());
                let want = row_walk(&outcome.bitmap, rows_per_page, &mut model);
                assert_eq!(
                    outcome.walk,
                    want,
                    "{query} on shard {} at {rows_per_page} rows per page",
                    shard.id()
                );
            }
            assert_eq!(pool.stats(), model.stats, "shard {}", shard.id());
        }
    }
}

#[test]
fn a_sorted_shard_walks_one_run_of_pages() {
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
    let trace = ebi_obs::Trace::begin();
    let root = trace.root_span("query");
    let walks: Vec<(u64, u64)> = table
        .shards()
        .iter()
        .map(|shard| {
            let pool = BufferPool::new(shard.pager(), FRAMES);
            let outcome = eval_shard(shard, &pool, &compiled, root.handle());
            (outcome.bitmap.count_ones() as u64, outcome.walk.pages)
        })
        .collect();
    let bound = |matches: u64| matches.div_ceil(rows_per_page as u64) + 1;
    let [(sorted_matches, sorted_pages), (matches, pages)] = walks[..] else {
        panic!("two shards: {walks:?}");
    };
    assert!(
        sorted_matches > 0 && sorted_pages <= bound(sorted_matches),
        "{walks:?}"
    );
    assert!(pages > bound(matches), "{walks:?}");
}

/// GET over a fresh connection: (status, body).
fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let (_, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    (status, body.to_string())
}

/// The pages the service's pools have served so far: hits plus misses,
/// from `/metrics`.
fn pages_served(addr: SocketAddr) -> u64 {
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    ["ebi_buffer_hits_total", "ebi_buffer_misses_total"]
        .iter()
        .map(|family| {
            body.lines()
                .find_map(|l| {
                    l.strip_prefix(family)?
                        .strip_prefix(' ')?
                        .parse::<u64>()
                        .ok()
                })
                .unwrap_or_else(|| panic!("{family} missing: {body}"))
        })
        .sum()
}

#[test]
fn count_query_and_explain_of_one_range_walk_the_same_pages() {
    let column = |m: u64, mul: u64| (0..ROWS).map(|i| Cell::Value(i * mul % m)).collect();
    let table = ShardedTable::build(
        vec![
            ColumnSpec::new("a", column(11, 7)),
            ColumnSpec::new("b", column(5, 13)),
        ],
        &TableOptions {
            shards: 3,
            rows_per_page: 7,
            ..TableOptions::default()
        },
    )
    .expect("table builds");
    let cfg = ServiceConfig {
        workers: 2,
        buffer_frames: FRAMES,
        timeout: Duration::from_secs(5),
        min_dispatch_words: 0,
        ..ServiceConfig::default()
    };
    let (tx, rx) = mpsc::channel();
    let mut walked = Vec::new();
    std::thread::scope(|s| {
        let server = s.spawn(|| ebi_service::run(&table, &cfg, |h| tx.send(h).expect("send")));
        let handle = rx.recv().expect("service came up");
        let http = handle.http_addr();
        for target in [
            "/count?q=a+BETWEEN+2+8",
            "/query?q=a+BETWEEN+2+8&limit=5",
            "/explain?q=a+BETWEEN+2+8",
        ] {
            let before = pages_served(http);
            let (status, body) = http_get(http, target);
            assert_eq!(status, 200, "{target}: {body}");
            walked.push((target, pages_served(http) - before));
        }
        handle.shutdown();
        server.join().expect("service thread").expect("service ran");
    });
    let (_, count_pages) = walked[0];
    assert!(count_pages > 0, "{walked:?}");
    // A `COUNT` needs no page; when it stops walking, this changes.
    assert!(
        walked.iter().all(|&(_, pages)| pages == count_pages),
        "{walked:?}"
    );
}
