//! The served page walk reads what the row-by-row walk it replaced
//! read: on every shard of a table whose shard boundaries fall inside
//! words, at 1, 7 and 512 rows per page, `eval_shard`'s `PageWalk`
//! (pages, hits, misses, evictions) equals the walk that visits each
//! matching row in turn, run through the reference LRU pool. A shard
//! that sorts its rows also lays its heap out in that order, so an
//! equality on its lead column walks one run of pages.

#[path = "../../storage/tests/lru_model/mod.rs"]
mod lru_model;

use ebi_bitvec::BitVec;
use ebi_core::RowOrder;
use ebi_service::{eval_shard, parse_dnf, ColumnSpec, ShardedTable, TableOptions};
use ebi_storage::{BufferPool, Cell, PageId, PageWalk, Served};
use lru_model::LruModel;

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
    let mut walk = PageWalk::default();
    let mut last = None;
    for row in bitmap.iter_ones() {
        let page = PageId((row / rows_per_page) as u64);
        if last == Some(page) {
            continue;
        }
        last = Some(page);
        walk.pages += 1;
        match model.read(page) {
            Ok((_, Served::Hit)) => walk.hits += 1,
            Ok((_, Served::Miss { evicted })) => {
                walk.misses += 1;
                walk.evictions += u64::from(evicted);
            }
            Err(_) => walk.errors += 1,
        }
    }
    walk
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
