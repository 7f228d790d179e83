//! Property-based invariants across the whole stack (proptest).

use ebi::baselines::wah::WahBitmap;
use ebi::boolean::{eval_expr, qm, support, DnfExpr};
use ebi::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// BitVec: logical ops agree with a Vec<bool> model.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitvec_ops_match_bool_model(
        pattern in prop::collection::vec((any::<bool>(), any::<bool>()), 0..400)
    ) {
        let a: BitVec = pattern.iter().map(|&(x, _)| x).collect();
        let b: BitVec = pattern.iter().map(|&(_, y)| y).collect();
        let and = &a & &b;
        let or = &a | &b;
        let xor = &a ^ &b;
        let not_a = a.negated();
        for (i, &(x, y)) in pattern.iter().enumerate() {
            prop_assert_eq!(and.bit(i), x && y);
            prop_assert_eq!(or.bit(i), x || y);
            prop_assert_eq!(xor.bit(i), x != y);
            prop_assert_eq!(not_a.bit(i), !x);
        }
        prop_assert_eq!(and.count_ones() + xor.count_ones(), or.count_ones());
    }

    #[test]
    fn bitvec_serialisation_roundtrip(bools in prop::collection::vec(any::<bool>(), 0..500)) {
        let v: BitVec = bools.iter().copied().collect();
        let restored = BitVec::from_bytes(&v.to_bytes()).unwrap();
        prop_assert_eq!(restored, v);
    }

    #[test]
    fn wah_roundtrip_and_popcount(bools in prop::collection::vec(any::<bool>(), 0..700)) {
        let v: BitVec = bools.iter().copied().collect();
        let wah = WahBitmap::compress(&v);
        prop_assert_eq!(wah.decompress(), v);
        prop_assert_eq!(wah.count_ones(), v.count_ones());
    }
}

// ---------------------------------------------------------------------
// Quine–McCluskey: reduction is semantically exact and never worse in
// vectors than the exact minimum support allows.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn qm_reduction_is_exact(
        k in 2u32..6,
        picks in prop::collection::vec(0u8..3, 1..32)
    ) {
        let universe = 1u64 << k;
        let mut on = Vec::new();
        let mut dc = Vec::new();
        for (code, &p) in (0..universe).zip(picks.iter().cycle().take(universe as usize)) {
            match p {
                0 => on.push(code),
                1 => dc.push(code),
                _ => {}
            }
        }
        let reduced = qm::minimize(&on, &dc, k);
        let raw = DnfExpr::minterm_sum(&on, k);
        for code in 0..universe {
            if dc.contains(&code) {
                continue; // free choice on don't-cares
            }
            prop_assert_eq!(reduced.covers(code), raw.covers(code), "code {:b}", code);
        }
        // Reduction never increases cost versus the raw min-term sum.
        prop_assert!(reduced.vectors_accessed() <= raw.vectors_accessed());
        prop_assert!(reduced.literal_count() <= raw.literal_count());
        // And the exact optimum lower-bounds it.
        let optimum = support::min_vectors(&on, &dc, k);
        prop_assert!(reduced.vectors_accessed() >= optimum);
        // minimize_vectors achieves the optimum.
        let best = support::minimize_vectors(&on, &dc, k);
        prop_assert_eq!(best.vectors_accessed(), optimum);
    }

    #[test]
    fn expression_eval_matches_cover(
        k in 1u32..5,
        codes in prop::collection::vec(any::<u64>(), 1..80)
    ) {
        let universe = 1u64 << k;
        let column: Vec<u64> = codes.iter().map(|c| c % universe).collect();
        let mut fam = ebi_bitvec::builder::SliceFamilyBuilder::new(k as usize);
        for &c in &column {
            fam.push_code(c);
        }
        let slices = fam.finish();
        let selection: Vec<u64> = (0..universe).step_by(2).collect();
        let expr = qm::minimize(&selection, &[], k);
        let result = eval_expr(&expr, &slices, column.len());
        for (row, &c) in column.iter().enumerate() {
            prop_assert_eq!(result.bit(row), selection.contains(&c));
        }
    }
}

// ---------------------------------------------------------------------
// Encoded bitmap index: equivalence with a scan, under any mapping and
// both NULL policies, through arbitrary maintenance.
// ---------------------------------------------------------------------

fn cell_strategy(m: u64) -> impl Strategy<Value = Cell> {
    prop_oneof![
        9 => (0..m).prop_map(Cell::Value),
        1 => Just(Cell::Null),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ebi_matches_scan_with_nulls_and_deletes(
        cells in prop::collection::vec(cell_strategy(12), 1..150),
        deletes in prop::collection::vec(any::<prop::sample::Index>(), 0..10),
        selection in prop::collection::vec(0u64..12, 1..6),
        reserved in any::<bool>(),
    ) {
        let policy = if reserved { NullPolicy::EncodedReserved } else { NullPolicy::SeparateVectors };
        let mut idx = EncodedBitmapIndex::build_with(
            cells.iter().copied(),
            BuildOptions { policy, mapping: None },
        ).unwrap();
        let mut dead = vec![false; cells.len()];
        for d in &deletes {
            let row = d.index(cells.len());
            idx.delete(row).unwrap();
            dead[row] = true;
        }
        let r = idx.in_list(&selection).unwrap();
        for (row, cell) in cells.iter().enumerate() {
            let expect = !dead[row] && cell.value().is_some_and(|v| selection.contains(&v));
            prop_assert_eq!(r.bitmap.bit(row), expect, "row {} under {:?}", row, policy);
        }
    }

    #[test]
    fn ebi_append_then_query(
        initial in prop::collection::vec(cell_strategy(8), 0..40),
        appended in prop::collection::vec(cell_strategy(24), 0..60),
        probe in 0u64..24,
    ) {
        let mut idx = EncodedBitmapIndex::build(initial.iter().copied()).unwrap();
        for &c in &appended {
            idx.append(c).unwrap();
        }
        let all: Vec<Cell> = initial.iter().chain(appended.iter()).copied().collect();
        let r = idx.eq(probe).unwrap();
        for (row, cell) in all.iter().enumerate() {
            prop_assert_eq!(r.bitmap.bit(row), cell.value() == Some(probe));
        }
        // NULL query is exact too.
        let nulls = idx.is_null();
        for (row, cell) in all.iter().enumerate() {
            prop_assert_eq!(nulls.bitmap.bit(row), cell.is_null());
        }
    }

    #[test]
    fn mapping_bijectivity_survives_serialisation(
        pairs in prop::collection::btree_map(0u64..500, 0u64..64, 1..40)
    ) {
        // btree_map gives distinct values; codes may repeat, so insert
        // tolerantly and only keep the successful prefix semantics.
        let mut m = Mapping::new(6);
        let mut inserted: Vec<(u64, u64)> = Vec::new();
        for (&v, &c) in &pairs {
            if m.insert(v, c).is_ok() {
                inserted.push((v, c));
            }
        }
        let restored = Mapping::from_bytes(&m.to_bytes()).unwrap();
        prop_assert_eq!(&restored, &m);
        for (v, c) in inserted {
            prop_assert_eq!(m.code_of(v), Some(c));
            prop_assert_eq!(m.value_of(c), Some(v));
        }
    }
}

// ---------------------------------------------------------------------
// B+tree: behaves like BTreeMap<u64, Vec<u32>>.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn btree_matches_std_model(
        inserts in prop::collection::vec((0u64..200, 0u32..1000), 0..300),
        range in (0u64..200, 0u64..200),
    ) {
        use std::collections::BTreeMap;
        let mut tree = ebi::btree::BTreeIndex::new(6, 64);
        let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for &(k, rid) in &inserts {
            tree.insert(k, rid);
            model.entry(k).or_default().push(rid);
        }
        tree.check_invariants();
        let (lo, hi) = (range.0.min(range.1), range.0.max(range.1));
        let mut got = tree.range(lo, hi);
        got.sort_unstable();
        let mut expect: Vec<u32> = model
            .range(lo..=hi)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
        // Point lookups agree.
        for k in [lo, hi] {
            let mut a = tree.search(k);
            a.sort_unstable();
            let mut b = model.get(&k).cloned().unwrap_or_default();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }
}

// ---------------------------------------------------------------------
// Storage: segments round-trip through the pager.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn segments_roundtrip(
        blobs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..10),
        page_size in 8usize..128,
    ) {
        use ebi::storage::pager::Pager;
        use ebi::storage::segment::{read_segment, write_segment};
        let pager = Pager::with_page_size(page_size);
        let handles: Vec<_> = blobs
            .iter()
            .map(|b| write_segment(&pager, b).unwrap())
            .collect();
        for (blob, handle) in blobs.iter().zip(&handles) {
            prop_assert_eq!(&read_segment(&pager, handle).unwrap(), blob);
        }
    }
}
