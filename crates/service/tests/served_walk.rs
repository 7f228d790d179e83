//! The served page walk reads what the row-by-row walk it replaced
//! read: on every shard of a table whose shard boundaries fall inside
//! words, at 1, 7 and 512 rows per page, `eval_shard`'s `PageWalk`
//! (pages, hits, misses, evictions) equals the walk that visits each
//! matching row in turn, run through the reference LRU pool.

#[path = "../../storage/tests/lru_model/mod.rs"]
mod lru_model;

use ebi_bitvec::BitVec;
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
