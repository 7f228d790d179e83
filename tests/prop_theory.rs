//! Property tests for the paper's theory layer: Definitions 2.2–2.5 and
//! Theorems 2.2/2.3 under random mappings and subdomains.

use ebi::core::distance::{as_subcube, binary_distance, find_chain, has_prime_chain, is_chain};
use ebi::core::well_defined::{achieved_cost, check, optimal_cost};
use ebi::prelude::*;
use proptest::prelude::*;

/// Random bijection of `m` values onto `k`-bit codes.
fn random_mapping(m: usize, k: u32, seed: u64) -> Mapping {
    let mut codes: Vec<u64> = (0..(1u64 << k)).collect();
    let mut state = seed | 1;
    for i in (1..codes.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        codes.swap(i, (state as usize) % (i + 1));
    }
    let mut map = Mapping::new(k);
    for (v, &c) in (0..m as u64).zip(codes.iter()) {
        map.insert(v, c).unwrap();
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_distance_is_a_metric(x in any::<u64>(), y in any::<u64>(), z in any::<u64>()) {
        prop_assert_eq!(binary_distance(x, x), 0);
        prop_assert_eq!(binary_distance(x, y), binary_distance(y, x));
        // Triangle inequality (Hamming distance is a metric).
        prop_assert!(
            binary_distance(x, z) <= binary_distance(x, y) + binary_distance(y, z)
        );
        // Identity of indiscernibles.
        if x != y {
            prop_assert!(binary_distance(x, y) >= 1);
        }
    }

    #[test]
    fn found_chains_always_verify(
        codes in prop::collection::btree_set(0u64..64, 2..10)
    ) {
        let codes: Vec<u64> = codes.into_iter().collect();
        if let Some(chain) = find_chain(&codes) {
            prop_assert!(is_chain(&chain), "find_chain output must satisfy Definition 2.3");
            let mut sorted_chain = chain;
            sorted_chain.sort_unstable();
            let mut sorted_codes = codes.clone();
            sorted_codes.sort_unstable();
            prop_assert_eq!(sorted_chain, sorted_codes, "chain is a permutation");
        }
    }

    #[test]
    fn subcubes_always_have_prime_chains(
        fixed_value in 0u64..16,
        free_bits in 1u32..3,
        k in 4u32..6,
    ) {
        // Build an actual subcube: fix the high bits, vary `free_bits`.
        let fixed = (fixed_value << free_bits) & ((1 << k) - 1);
        let codes: Vec<u64> = (0..(1u64 << free_bits)).map(|low| fixed | low).collect();
        prop_assert!(has_prime_chain(&codes), "{codes:?}");
        prop_assert!(as_subcube(&codes).is_some());
    }

    #[test]
    fn theorem_2_2_on_random_mappings(
        seed in any::<u64>(),
        k in 3u32..5,
        sub_start in 0u64..8,
        sub_len in 2u64..6,
    ) {
        let m = 1usize << k; // full domain: no don't-cares
        let mapping = random_mapping(m, k, seed);
        let hi = (sub_start + sub_len).min(m as u64);
        if hi - sub_start < 2 {
            return Ok(());
        }
        let subdomain: Vec<u64> = (sub_start..hi).collect();
        let achieved = achieved_cost(&mapping, &subdomain);
        let optimal = optimal_cost(&mapping, &subdomain);
        // QM never beats the exact bound, and meets it when well-defined.
        prop_assert!(achieved >= optimal);
        if check(&mapping, &subdomain).holds() {
            prop_assert_eq!(achieved, optimal, "Theorem 2.2: {:?}", mapping);
        }
    }

    #[test]
    fn queries_agree_under_any_mapping(
        seed in any::<u64>(),
        column in prop::collection::vec(0u64..8, 1..80),
        selection in prop::collection::vec(0u64..8, 1..5),
    ) {
        // The encoding never changes answers — only costs.
        let mapping = random_mapping(8, 3, seed);
        let cells: Vec<Cell> = column.iter().map(|&v| Cell::Value(v)).collect();
        let custom = EncodedBitmapIndex::build_with(
            cells.iter().copied(),
            BuildOptions {
                policy: NullPolicy::SeparateVectors,
                mapping: Some(mapping),
            },
        )
        .unwrap();
        let default = EncodedBitmapIndex::build(cells).unwrap();
        prop_assert_eq!(
            custom.in_list(&selection).unwrap().bitmap,
            default.in_list(&selection).unwrap().bitmap
        );
    }
}
