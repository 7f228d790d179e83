//! Property tests for build-time row reordering.
//!
//! The RID-translation contract: a reordered index must be
//! *observationally identical* to one built in original order — every
//! query answers in original row ids, across all storage containers,
//! kernel tiers and both sort strategies — and the permutation must
//! survive persistence byte-exactly.

use ebi_bitvec::simd::{available_paths, with_forced_path};
use ebi_bitvec::StoragePolicy;
use ebi_core::index::{BuildOptions, EncodedBitmapIndex, QueryOptions};
use ebi_core::mapping::RowPermutation;
use ebi_core::persist::{load_index, save_index};
use ebi_core::RowOrder;
use ebi_storage::pager::Pager;
use ebi_storage::Cell;
use proptest::prelude::*;

fn cells_strategy() -> impl Strategy<Value = Vec<Cell>> {
    // Small domains and some NULLs: enough cardinality to need several
    // slices, enough repetition that sorting actually builds runs. The
    // domain size is drawn together with the raw draws and applied by
    // modulus (the vendored proptest stub has no `prop_flat_map`).
    (
        2u64..24,
        proptest::collection::vec((0u64..10_000, 0u32..9), 1..400),
    )
        .prop_map(|(m, raw)| {
            raw.into_iter()
                .map(|(v, null_sel)| {
                    if null_sel == 0 {
                        Cell::Null
                    } else {
                        Cell::Value(v % m)
                    }
                })
                .collect()
        })
}

fn policy_strategy() -> impl Strategy<Value = StoragePolicy> {
    prop_oneof![
        Just(StoragePolicy::Dense),
        Just(StoragePolicy::Roaring),
        Just(StoragePolicy::Adaptive),
    ]
}

fn order_strategy() -> impl Strategy<Value = RowOrder> {
    prop_oneof![Just(RowOrder::Lexicographic), Just(RowOrder::Gray)]
}

fn build_pair(
    cells: &[Cell],
    order: RowOrder,
    policy: StoragePolicy,
) -> (EncodedBitmapIndex, EncodedBitmapIndex) {
    let mut plain = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
    let mut sorted = EncodedBitmapIndex::build_with(
        cells.iter().copied(),
        BuildOptions {
            row_order: order,
            ..Default::default()
        },
    )
    .unwrap();
    let opts = QueryOptions {
        storage_policy: policy,
        ..Default::default()
    };
    plain.set_query_options(opts);
    sorted.set_query_options(opts);
    (plain, sorted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reordered evaluation ≡ original-order evaluation, in original
    /// row ids, for every container and kernel tier.
    #[test]
    fn reordered_queries_match_original_order(
        cells in cells_strategy(),
        order in order_strategy(),
        policy in policy_strategy(),
    ) {
        let (plain, sorted) = build_pair(&cells, order, policy);
        prop_assert_eq!(sorted.row_order(), order);
        for path in available_paths() {
            with_forced_path(path, || {
                for v in 0..24u64 {
                    let a = plain.eq(v).unwrap();
                    let b = sorted.eq(v).unwrap();
                    prop_assert_eq!(&a.bitmap, &b.bitmap, "eq({}) under {:?}", v, path);
                }
                let a = plain.in_list(&[1, 3, 5, 7, 11]).unwrap();
                let b = sorted.in_list(&[1, 3, 5, 7, 11]).unwrap();
                prop_assert_eq!(&a.bitmap, &b.bitmap, "in_list under {:?}", path);
                let a = plain.range(2, 9).unwrap();
                let b = sorted.range(2, 9).unwrap();
                prop_assert_eq!(&a.bitmap, &b.bitmap, "range under {:?}", path);
                prop_assert_eq!(
                    &plain.is_null().bitmap,
                    &sorted.is_null().bitmap,
                    "is_null under {:?}",
                    path
                );
                Ok(())
            })?;
        }
    }

    /// Row-level reads address original row ids.
    #[test]
    fn decode_row_uses_original_row_ids(
        cells in cells_strategy(),
        order in order_strategy(),
    ) {
        let (plain, sorted) = build_pair(&cells, order, StoragePolicy::Adaptive);
        for row in 0..cells.len() {
            prop_assert_eq!(plain.decode_row(row), sorted.decode_row(row), "row {}", row);
        }
    }

    /// Maintenance operations (append / delete) keep answering in
    /// original row ids after a reordered build.
    #[test]
    fn maintenance_respects_original_row_ids(
        cells in cells_strategy(),
        order in order_strategy(),
        delete_at in 0usize..400,
    ) {
        let (mut plain, mut sorted) = build_pair(&cells, order, StoragePolicy::Adaptive);
        let row = delete_at % cells.len();
        plain.delete(row).unwrap();
        sorted.delete(row).unwrap();
        plain.append(Cell::Value(2)).unwrap();
        sorted.append(Cell::Value(2)).unwrap();
        for v in 0..24u64 {
            prop_assert_eq!(
                plain.eq(v).unwrap().bitmap,
                sorted.eq(v).unwrap().bitmap,
                "eq({}) after delete({}) + append",
                v,
                row
            );
        }
    }

    /// The permutation serialises and revalidates byte-exactly.
    #[test]
    fn permutation_bytes_round_trip(
        ids in proptest::collection::vec(0u32..10_000, 1..300),
    ) {
        // Make a valid permutation out of arbitrary draws: rank them.
        let mut ranked: Vec<(u32, usize)> =
            ids.iter().copied().zip(0..).collect();
        ranked.sort();
        let mut original_of = vec![0u32; ids.len()];
        for (rank, &(_, pos)) in ranked.iter().enumerate() {
            original_of[rank] = pos as u32;
        }
        let p = RowPermutation::from_original_of(original_of).unwrap();
        let q = RowPermutation::from_bytes(&p.to_bytes()).unwrap();
        prop_assert_eq!(&p, &q);
    }

    /// A reordered index persists and reloads with its permutation,
    /// row order and answers intact.
    #[test]
    fn reordered_index_persists_and_reloads(
        cells in cells_strategy(),
        order in order_strategy(),
    ) {
        let sorted = EncodedBitmapIndex::build_with(
            cells.iter().copied(),
            BuildOptions { row_order: order, ..Default::default() },
        )
        .unwrap();
        let pager = Pager::with_page_size(256);
        let handle = save_index(&sorted, &pager).unwrap();
        let loaded = load_index(&pager, &handle).unwrap();
        prop_assert_eq!(loaded.row_order(), order);
        prop_assert_eq!(loaded.permutation(), sorted.permutation());
        for v in 0..24u64 {
            prop_assert_eq!(
                loaded.eq(v).unwrap().bitmap,
                sorted.eq(v).unwrap().bitmap,
                "eq({}) after reload",
                v
            );
        }
        prop_assert_eq!(loaded.is_null().bitmap, sorted.is_null().bitmap);
    }
}
