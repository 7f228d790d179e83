//! The paper's theorems, verified as executable properties
//! (experiments E4 and the Theorem 2.2/2.3 optimality checks).

use ebi::core::well_defined::{achieved_cost, check, optimal_cost, workload_cost};
use ebi::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Theorem 2.1 — void tuples encoded as 0 make the existence mask
// redundant: f_{σ(A)} AND f'_void == f_{σ(A)}.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn theorem_2_1_void_zero_makes_mask_redundant(
        values in prop::collection::vec(0u64..30, 1..120),
        delete_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..20),
        selection in prop::collection::vec(0u64..30, 1..8),
    ) {
        let cells: Vec<Cell> = values.iter().map(|&v| Cell::Value(v)).collect();
        let mut idx = EncodedBitmapIndex::build_with(
            cells.clone(),
            BuildOptions { policy: NullPolicy::EncodedReserved, mapping: None },
        ).unwrap();
        let mut dead = vec![false; cells.len()];
        for d in &delete_picks {
            let row = d.index(cells.len());
            idx.delete(row).unwrap();
            dead[row] = true;
        }
        // The reserved-code index never materialises an existence
        // vector, and yet...
        prop_assert_eq!(idx.bitmap_vector_count(), idx.slices().len());
        // ...every selection on real values excludes the voided rows.
        let r = idx.in_list(&selection).unwrap();
        for (row, &v) in values.iter().enumerate() {
            let expect = !dead[row] && selection.contains(&v);
            prop_assert_eq!(r.bitmap.bit(row), expect, "row {}", row);
        }
        // And the retrieval expression never covers the void code 0.
        let expr = idx.explain_in_list(&selection);
        prop_assert!(!expr.covers(0), "f must not cover the void code: {}", expr);
    }
}

// ---------------------------------------------------------------------
// Theorem 2.2 — a well-defined encoding minimises the vectors accessed.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn theorem_2_2_well_defined_implies_minimal_cost(
        perm_seed in any::<u64>(),
        subset_size in 2usize..6,
    ) {
        // Random bijection of 8 values onto 3-bit codes.
        let mut codes: Vec<u64> = (0..8).collect();
        let mut state = perm_seed | 1;
        for i in (1..8usize).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            codes.swap(i, (state as usize) % (i + 1));
        }
        let pairs: Vec<(u64, u64)> = (0..8u64).zip(codes.iter().copied()).collect();
        let mapping = Mapping::from_pairs(&pairs).unwrap();
        let subdomain: Vec<u64> = (0..subset_size as u64).collect();
        if check(&mapping, &subdomain).holds() {
            prop_assert_eq!(
                achieved_cost(&mapping, &subdomain),
                optimal_cost(&mapping, &subdomain),
                "well-defined encoding must achieve the minimum ({:?})",
                mapping
            );
        }
        // Regardless of well-definedness, QM never beats the exact bound.
        prop_assert!(achieved_cost(&mapping, &subdomain) >= optimal_cost(&mapping, &subdomain));
    }
}

// ---------------------------------------------------------------------
// Theorem 2.2/2.3 for power-of-two subdomains: a prime chain (subcube)
// reduces the selection to exactly k − p vectors.
// ---------------------------------------------------------------------

#[test]
fn prime_chain_subdomains_cost_k_minus_p() {
    // 16 values on 4 bits; subdomain = a 2-subcube (4 codes with 2 free
    // bits) must cost exactly 4 − 2 = 2 vectors.
    let mapping = Mapping::sequential(16);
    for (subdomain, expected) in [
        (vec![0u64, 1, 2, 3], 2),          // low 2 bits free
        (vec![0, 1], 3),                   // 1-subcube: 3 vectors
        (vec![0, 4, 8, 12], 2),            // bits 2,3 free
        (vec![0, 1, 2, 3, 4, 5, 6, 7], 1), // 3-subcube
    ] {
        assert!(check(&mapping, &subdomain).holds(), "{subdomain:?}");
        assert_eq!(
            achieved_cost(&mapping, &subdomain),
            expected,
            "{subdomain:?}"
        );
    }
}

#[test]
fn theorem_2_3_workload_optimum_is_additive() {
    // Figure 3(a)'s mapping is well-defined wrt both predicates, so the
    // workload cost equals the sum of per-predicate optima.
    let mapping = Mapping::from_pairs(&[
        (0, 0b000),
        (2, 0b001),
        (6, 0b010),
        (4, 0b011),
        (1, 0b100),
        (3, 0b101),
        (7, 0b110),
        (5, 0b111),
    ])
    .unwrap();
    let preds = vec![vec![0u64, 1, 2, 3], vec![2, 3, 4, 5]];
    let per_pred_optimum: usize = preds.iter().map(|p| optimal_cost(&mapping, p)).sum();
    assert_eq!(workload_cost(&mapping, &preds), per_pred_optimum);
    assert_eq!(per_pred_optimum, 2);
}

// ---------------------------------------------------------------------
// §3.1 — the c_e < c_s crossover at δ > log2|A| + 1, on real indexes.
// ---------------------------------------------------------------------

#[test]
fn crossover_delta_exceeds_log_m_plus_one() {
    let m = 64u64; // k = 6
    let cells: Vec<Cell> = (0..6400u64).map(|i| Cell::Value(i % m)).collect();
    let encoded = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
    let simple = SimpleBitmapIndex::build(cells.iter().copied());
    // For every δ beyond log2(m)+1 = 7, the encoded index must not lose.
    for delta in 8..=m {
        let sel: Vec<u64> = (0..delta).collect();
        let e = encoded.in_list(&sel).unwrap().stats.vectors_accessed;
        let s = simple.in_list(&sel).stats.vectors_accessed;
        assert!(e <= s, "δ={delta}: encoded {e} vs simple {s}");
    }
    // And for single-value selections the simple index wins (§3.1).
    let e1 = encoded.eq(0).unwrap().stats.vectors_accessed;
    let s1 = SelectionIndex::eq(&simple, 0).stats.vectors_accessed;
    assert!(s1 < e1, "point query: simple {s1} must beat encoded {e1}");
}
