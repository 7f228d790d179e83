//! Property tests for the sharding contract: a row-range-sharded table
//! is *observationally identical* to a single-index build — same
//! selection bitmap in global row ids, same paper cost metric — across
//! shard counts, storage containers, kernel tiers, per-shard row
//! orders and the states maintenance leaves the segment summaries in,
//! with shard-edge rows checked explicitly.

use ebi_bitvec::simd::{available_paths, with_forced_path};
use ebi_bitvec::StoragePolicy;
use ebi_core::index::QueryOptions;
use ebi_core::RowOrder;
use ebi_service::{parse_dnf, ColumnSpec, ShardedTable, TableOptions};
use ebi_storage::Cell;
use proptest::prelude::*;

/// Two equal-length columns drawn jointly (the vendored proptest stub
/// has no `prop_flat_map`; domains are applied by modulus).
fn columns_strategy() -> impl Strategy<Value = Vec<ColumnSpec>> {
    (
        2u64..12,
        2u64..20,
        proptest::collection::vec((0u64..10_000, 0u64..10_000, 0u32..11), 1..500),
    )
        .prop_map(|(ma, mb, raw)| {
            let mut a = Vec::with_capacity(raw.len());
            let mut b = Vec::with_capacity(raw.len());
            for (va, vb, null_sel) in raw {
                a.push(Cell::Value(va % ma));
                b.push(if null_sel == 0 {
                    Cell::Null
                } else {
                    Cell::Value(vb % mb)
                });
            }
            vec![ColumnSpec::new("a", a), ColumnSpec::new("b", b)]
        })
}

/// NULL-free variant: exact `vectors_accessed` additivity only holds
/// when no shard carries a `B_NULL` companion vector — a shard whose
/// row range happens to contain no NULLs stores one vector fewer than
/// a shard that does, so with NULLs the sum is data-dependent.
fn dense_columns_strategy() -> impl Strategy<Value = Vec<ColumnSpec>> {
    (
        2u64..12,
        2u64..20,
        proptest::collection::vec((0u64..10_000, 0u64..10_000), 1..500),
    )
        .prop_map(|(ma, mb, raw)| {
            let a = raw.iter().map(|(va, _)| Cell::Value(va % ma)).collect();
            let b = raw.iter().map(|(_, vb)| Cell::Value(vb % mb)).collect();
            vec![ColumnSpec::new("a", a), ColumnSpec::new("b", b)]
        })
}

fn shards_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2usize), Just(7usize)]
}

fn policy_strategy() -> impl Strategy<Value = StoragePolicy> {
    prop_oneof![
        Just(StoragePolicy::Dense),
        Just(StoragePolicy::Roaring),
        Just(StoragePolicy::Adaptive),
    ]
}

/// Per-shard row orders, cycled by shard id — includes mixes, so some
/// shards of one table sort while others keep original order.
fn orders_strategy() -> impl Strategy<Value = Vec<RowOrder>> {
    prop_oneof![
        Just(vec![RowOrder::Original]),
        Just(vec![RowOrder::Lexicographic]),
        Just(vec![RowOrder::Gray]),
        Just(vec![
            RowOrder::Original,
            RowOrder::Lexicographic,
            RowOrder::Gray
        ]),
    ]
}

/// The state of every shard index's segment summaries.
#[derive(Debug, Clone, Copy)]
enum Summaries {
    /// Valid, as the build leaves them.
    Built,
    /// Dropped by a maintenance op: row 0 of every index is updated to
    /// the value it already holds, which changes no answer.
    Invalidated,
    /// Invalidated, then rebuilt by `refresh_summaries`.
    Refreshed,
}

fn summaries_strategy() -> impl Strategy<Value = Summaries> {
    prop_oneof![
        Just(Summaries::Built),
        Just(Summaries::Invalidated),
        Just(Summaries::Refreshed),
    ]
}

fn build(
    columns: &[ColumnSpec],
    shards: usize,
    orders: &[RowOrder],
    policy: StoragePolicy,
    summaries: Summaries,
) -> ShardedTable {
    let mut table = ShardedTable::build(
        columns.to_vec(),
        &TableOptions {
            shards,
            row_orders: orders.to_vec(),
            rows_per_page: 64,
        },
    )
    .expect("table builds");
    table.set_query_options(QueryOptions {
        storage_policy: policy,
        ..QueryOptions::default()
    });
    for index in table.indexes_mut() {
        if !matches!(summaries, Summaries::Built) {
            let held = index.decode_row(0).map_or(Cell::Null, Cell::Value);
            index.update(0, held).expect("row 0 exists");
            assert!(index.summaries().is_none());
        }
        if matches!(summaries, Summaries::Refreshed) {
            index.refresh_summaries();
        }
        assert_eq!(
            index.summaries().is_some(),
            !matches!(summaries, Summaries::Invalidated)
        );
    }
    table
}

const QUERIES: &[&str] = &[
    "a=1",
    "a=0 AND b=1",
    "a IN 1,3,5 OR b IN 0,2",
    "a BETWEEN 1 4 AND b BETWEEN 0 9",
    "b=0 OR a=2 AND b=3",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded evaluation ≡ single-index evaluation, bit for bit in
    /// global row ids, for every shard count × container × per-shard
    /// row-order mix × summaries state.
    #[test]
    fn sharded_bitmap_matches_single_index(
        columns in columns_strategy(),
        shards in shards_strategy(),
        orders in orders_strategy(),
        policy in policy_strategy(),
        summaries in summaries_strategy(),
    ) {
        let sharded = build(&columns, shards, &orders, policy, summaries);
        let single = build(&columns, 1, &[], StoragePolicy::Adaptive, Summaries::Built);
        for query in QUERIES {
            let dnf = parse_dnf(query).expect("parses");
            let cq_sharded = sharded.compile(&dnf).expect("compiles");
            let cq_single = single.compile(&dnf).expect("compiles");
            let (got, _) = sharded.eval_local(&cq_sharded);
            let (want, _) = single.eval_local(&cq_single);
            prop_assert_eq!(
                &got, &want,
                "bitmap diverged: {} over {} shards, orders {:?}, {:?}, summaries {:?}",
                query, shards, &orders, policy, summaries
            );
        }
    }

    /// The paper's cost metric is exact under sharding: with no NULL
    /// companion vectors, every shard reads the same vectors the single
    /// index reads (the compiled expression is shared), so the summed
    /// `vectors_accessed` is exactly `shards × single` — whatever state
    /// the summaries are in, since pruning skips words, not vectors.
    #[test]
    fn vectors_accessed_sums_exactly_across_shards(
        columns in dense_columns_strategy(),
        shards in shards_strategy(),
        orders in orders_strategy(),
        summaries in summaries_strategy(),
    ) {
        let sharded = build(&columns, shards, &orders, StoragePolicy::Adaptive, summaries);
        let single = build(&columns, 1, &[], StoragePolicy::Adaptive, Summaries::Built);
        let n = sharded.shards().len() as u64; // may be < shards on tiny tables
        for query in QUERIES {
            let dnf = parse_dnf(query).expect("parses");
            let (_, cost) = sharded.eval_local(&sharded.compile(&dnf).expect("compiles"));
            let (_, base) = single.eval_local(&single.compile(&dnf).expect("compiles"));
            prop_assert_eq!(
                cost.vectors_accessed,
                n * base.vectors_accessed,
                "vectors_accessed not additive: {} over {} shards, summaries {:?}",
                query, n, summaries
            );
        }
    }

    /// Kernel tier is invisible: every SIMD path produces the same
    /// merged bitmap and the same `vectors_accessed` on a sharded table.
    #[test]
    fn kernel_tiers_agree_on_sharded_tables(
        columns in columns_strategy(),
        shards in shards_strategy(),
        policy in policy_strategy(),
    ) {
        let sharded = build(&columns, shards, &[], policy, Summaries::Built);
        let dnf = parse_dnf("a IN 1,2,7 OR b BETWEEN 1 6").expect("parses");
        let compiled = sharded.compile(&dnf).expect("compiles");
        let (reference, ref_cost) = sharded.eval_local(&compiled);
        for path in available_paths() {
            with_forced_path(path, || {
                let (got, cost) = sharded.eval_local(&compiled);
                prop_assert_eq!(&got, &reference, "bitmap diverged under {:?}", path);
                prop_assert_eq!(
                    cost.vectors_accessed,
                    ref_cost.vectors_accessed,
                    "cost metric diverged under {:?}",
                    path
                );
                Ok(())
            })?;
        }
    }
}

/// Shard-edge rows, checked deterministically: matches planted exactly
/// at every shard's first and last row (word-unaligned boundaries by
/// construction) survive the offset merge, and no neighbours leak in.
#[test]
fn boundary_rows_survive_the_merge() {
    let rows = 1_003usize;
    for shards in [2usize, 7] {
        // Recompute the build's split to find the boundary rows.
        let base = rows / shards;
        let rem = rows % shards;
        let mut boundaries = Vec::new();
        let mut lo = 0usize;
        for id in 0..shards {
            let len = base + usize::from(id < rem);
            boundaries.push(lo);
            boundaries.push(lo + len - 1);
            lo += len;
        }
        let cells: Vec<Cell> = (0..rows)
            .map(|i| Cell::Value(u64::from(boundaries.contains(&i))))
            .collect();
        let table = ShardedTable::build(
            vec![ColumnSpec::new("a", cells)],
            &TableOptions {
                shards,
                ..TableOptions::default()
            },
        )
        .expect("table builds");
        let compiled = table
            .compile(&parse_dnf("a=1").expect("parses"))
            .expect("compiles");
        let (bitmap, _) = table.eval_local(&compiled);
        let got: Vec<usize> = bitmap.iter_ones().collect();
        let mut want = boundaries.clone();
        want.sort_unstable();
        want.dedup();
        assert_eq!(got, want, "boundary rows for {shards} shards");
    }
}
