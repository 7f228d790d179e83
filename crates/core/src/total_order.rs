//! Total-order preserving encodings (§2.3, Figure 6).
//!
//! Numeric/ordinal attributes carry a total order, and selections of the
//! form `j < A < i` rely on it. An encoding *preserves the total order*
//! when `u < v ⇒ code(u) < code(v)`; the identity encoding (a bit-sliced
//! index) is the trivial example, but when `m < 2^k` there is freedom in
//! *which* codes to skip, and the paper's Figure 6 uses it to optimise a
//! hot IN-list while staying order-preserving.

use crate::error::CoreError;
use crate::mapping::Mapping;
use crate::well_defined::workload_cost;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The trivial total-order preserving encoding: each value is its own
/// code (`M(v) = v`'s internal representation). This turns the EBI into
/// a bit-sliced index (§2.3, §4).
///
/// # Errors
///
/// [`CoreError::Encoding`] if any value exceeds the width.
pub fn bit_sliced_mapping(values: &[u64], width: u32) -> Result<Mapping, CoreError> {
    let mut m = Mapping::new(width);
    for &v in values {
        if width < 64 && v >> width != 0 {
            return Err(CoreError::Encoding {
                detail: format!("value {v} does not fit width {width}"),
            });
        }
        m.insert(v, v).map_err(|e| CoreError::Encoding {
            detail: format!("bit-sliced mapping needs distinct values: {e}"),
        })?;
    }
    Ok(m)
}

/// Dense order-preserving encoding: the `i`-th smallest value gets code
/// `i`. This is the encoding every build assigns by default: a value
/// range then selects a code interval, whose reduced expression is
/// written down from its two ends (`ebi_boolean::interval`).
#[must_use]
pub fn dense_order_mapping(values: &[u64]) -> Mapping {
    dense_order_mapping_after(values, 0)
}

/// [`dense_order_mapping`] with the first `reserved` codes left out for
/// the void and NULL codes of [`crate::nulls::NullPolicy::EncodedReserved`]:
/// the `i`-th smallest value gets code `reserved + i`, at the least width
/// that holds both.
#[must_use]
pub fn dense_order_mapping_after(values: &[u64], reserved: u64) -> Mapping {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut map = Mapping::new(Mapping::width_for(sorted.len() + reserved as usize));
    for (i, &v) in sorted.iter().enumerate() {
        map.insert(v, reserved + i as u64)
            .expect("distinct values, ascending codes that fit");
    }
    map
}

/// Searches for a total-order preserving mapping of `values` (sorted
/// ascending internally) into `width`-bit codes that minimises the
/// workload cost, by local search over *which codes are skipped*.
///
/// With `m` values and `2^k` codes there are `C(2^k, m)` order-preserving
/// assignments; the search perturbs the skip set and keeps improvements.
/// Deterministic for a fixed `seed`.
///
/// # Errors
///
/// [`CoreError::Encoding`] if `2^width < m`.
pub fn optimize_order_preserving(
    values: &[u64],
    predicates: &[Vec<u64>],
    width: u32,
    iterations: u32,
    seed: u64,
) -> Result<Mapping, CoreError> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let m = sorted.len();
    let space = 1usize << width;
    if space < m {
        return Err(CoreError::Encoding {
            detail: format!("{m} values cannot be order-embedded in {space} codes"),
        });
    }
    let slack = space - m;
    let build = |skips: &[usize]| -> Mapping {
        // skips[i] = how many codes to skip *before* value i (prefix sums
        // must stay <= slack in total).
        let mut map = Mapping::new(width);
        let mut code = 0u64;
        for (i, &v) in sorted.iter().enumerate() {
            code += skips[i] as u64;
            map.insert(v, code).expect("strictly increasing codes");
            code += 1;
        }
        map
    };

    // Start dense (no skips).
    let mut skips = vec![0usize; m];
    let mut best = build(&skips);
    let mut best_cost = workload_cost(&best, predicates);
    if slack == 0 || predicates.is_empty() {
        return Ok(best);
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = skips.clone();
    let mut current_cost = best_cost;
    for _ in 0..iterations {
        let mut proposal = current.clone();
        // Move one unit of slack to a random position (or remove it).
        let used: usize = proposal.iter().sum();
        if used < slack && rng.random_ratio(1, 2) {
            let i = rng.random_range(0..m);
            proposal[i] += 1;
        } else {
            let donors: Vec<usize> = (0..m).filter(|&i| proposal[i] > 0).collect();
            if donors.is_empty() {
                let i = rng.random_range(0..m);
                proposal[i] += 1;
            } else {
                let d = donors[rng.random_range(0..donors.len())];
                proposal[d] -= 1;
                if rng.random_ratio(1, 2) {
                    let i = rng.random_range(0..m);
                    if proposal.iter().sum::<usize>() < slack {
                        proposal[i] += 1;
                    }
                }
            }
        }
        if proposal.iter().sum::<usize>() > slack {
            continue;
        }
        let cand = build(&proposal);
        let cost = workload_cost(&cand, predicates);
        if cost <= current_cost {
            current = proposal;
            current_cost = cost;
            if cost < best_cost {
                best_cost = cost;
                best = cand;
                skips = current.clone();
            }
        }
    }
    let _ = skips;
    Ok(best)
}

/// The paper's Figure 6 mapping: domain `{101..106}` encoded
/// order-preservingly while optimising `A IN {101,102,104,105}`.
#[must_use]
pub fn paper_figure6_mapping() -> Mapping {
    Mapping::from_pairs(&[
        (101, 0b000),
        (102, 0b001),
        (103, 0b010),
        (104, 0b100),
        (105, 0b101),
        (106, 0b110),
    ])
    .expect("the paper's mapping is a bijection")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::well_defined::achieved_cost;

    #[test]
    fn figure6_mapping_is_order_preserving_and_optimised() {
        let m = paper_figure6_mapping();
        assert!(m.is_total_order_preserving());
        // The hot IN-list {101,102,104,105} = codes {000,001,100,101}
        // = B1' — one vector.
        assert_eq!(achieved_cost(&m, &[101, 102, 104, 105]), 1);
        // The dense encoding needs more for the same selection.
        let dense = dense_order_mapping(&[101, 102, 103, 104, 105, 106]);
        assert!(achieved_cost(&dense, &[101, 102, 104, 105]) > 1);
    }

    #[test]
    fn bit_sliced_is_identity_on_codes() {
        let m = bit_sliced_mapping(&[3, 9, 17], 5).unwrap();
        assert_eq!(m.code_of(9), Some(9));
        assert!(m.is_total_order_preserving());
        assert!(bit_sliced_mapping(&[40], 5).is_err(), "40 needs 6 bits");
    }

    #[test]
    fn dense_mapping_compacts_sparse_domains() {
        let m = dense_order_mapping(&[1000, 5, 70, 70]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.code_of(5), Some(0));
        assert_eq!(m.code_of(70), Some(1));
        assert_eq!(m.code_of(1000), Some(2));
        assert_eq!(m.width(), 2);
    }

    #[test]
    fn optimizer_rediscovers_a_figure6_quality_mapping() {
        let values = [101u64, 102, 103, 104, 105, 106];
        let preds = vec![vec![101u64, 102, 104, 105]];
        let m = optimize_order_preserving(&values, &preds, 3, 300, 42).unwrap();
        assert!(m.is_total_order_preserving());
        assert_eq!(
            achieved_cost(&m, &preds[0]),
            1,
            "the optimum uses the 2 spare codes to align the subcube: {m:?}"
        );
    }

    #[test]
    fn optimizer_without_slack_returns_dense() {
        let values: Vec<u64> = (0..8).collect();
        let preds = vec![vec![0u64, 1]];
        let m = optimize_order_preserving(&values, &preds, 3, 100, 7).unwrap();
        for v in 0..8u64 {
            assert_eq!(m.code_of(v), Some(v));
        }
    }

    #[test]
    fn optimizer_rejects_overfull_domains() {
        let values: Vec<u64> = (0..9).collect();
        assert!(optimize_order_preserving(&values, &[], 3, 10, 0).is_err());
    }

    #[test]
    fn optimizer_is_deterministic() {
        let values: Vec<u64> = (0..12).collect();
        let preds = vec![vec![2u64, 3, 4, 5], vec![8, 9]];
        let a = optimize_order_preserving(&values, &preds, 4, 200, 99).unwrap();
        let b = optimize_order_preserving(&values, &preds, 4, 200, 99).unwrap();
        assert_eq!(a, b);
    }
}
