//! Affinity-driven recursive bipartition encoding.
//!
//! Idea: bit `k-1` of the code splits the domain in two. A predicate
//! whose values land on both sides of the split can never reduce that
//! bit away, so each split should keep co-accessed values together —
//! a minimum-cut bipartition of the *affinity graph* whose edge weight
//! `w(u, v)` counts the predicates containing both `u` and `v`. Recursing
//! into each half assigns the remaining bits.
//!
//! The bipartition itself uses a Kernighan–Lin-style swap refinement on
//! top of a greedy seed, which is plenty at warehouse dimension sizes
//! (the paper's largest example is 12000 products, and encodings are
//! computed once at build time).

use super::{EncodingProblem, EncodingStrategy};
use crate::error::CoreError;
use crate::mapping::Mapping;
use std::collections::HashMap;

/// Recursive min-cut bipartition over the predicate co-access graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct AffinityEncoding;

impl EncodingStrategy for AffinityEncoding {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn encode(&self, problem: &EncodingProblem<'_>) -> Result<Mapping, CoreError> {
        problem.validate()?;
        let mut values = problem.values.to_vec();
        values.sort_unstable();
        let index_of: HashMap<u64, usize> =
            values.iter().enumerate().map(|(i, &v)| (v, i)).collect();

        // Dense affinity matrix (m ≤ a few thousand in practice; the
        // matrix is m², built once).
        let m = values.len();
        let mut affinity = vec![0u32; m * m];
        for pred in problem.predicates {
            let members: Vec<usize> = pred
                .iter()
                .filter_map(|v| index_of.get(v).copied())
                .collect();
            for (a, &i) in members.iter().enumerate() {
                for &j in &members[a + 1..] {
                    affinity[i * m + j] += 1;
                    affinity[j * m + i] += 1;
                }
            }
        }

        // Recursively order value indices so that affine values stay in
        // the same half at every level.
        let mut order: Vec<usize> = (0..m).collect();
        let levels = problem.width;
        partition_rec(&mut order, &affinity, m, levels);

        // i-th value in the final order gets the i-th allowed code.
        let allowed = problem.allowed_codes();
        let pairs = order.iter().map(|&vi| values[vi]).zip(allowed).collect();
        Mapping::with_pairs(problem.width, pairs)
    }
}

/// Reorders `group` so its first half and second half form a low-cut
/// bipartition, then recurses `levels - 1` deep into each half.
fn partition_rec(group: &mut [usize], affinity: &[u32], m: usize, levels: u32) {
    if levels == 0 || group.len() <= 2 {
        return;
    }
    let half = group.len().div_ceil(2);
    bipartition(group, half, affinity, m);
    let (left, right) = group.split_at_mut(half);
    partition_rec(left, affinity, m, levels - 1);
    partition_rec(right, affinity, m, levels - 1);
}

/// Arranges `group` so `group[..half]` vs `group[half..]` has low
/// affinity cut: greedy seeding followed by best-swap refinement.
fn bipartition(group: &mut [usize], half: usize, affinity: &[u32], m: usize) {
    let n = group.len();
    if n <= 1 || half == 0 || half >= n {
        return;
    }
    // Greedy seed: start from the member with the highest total affinity,
    // grow the left side by strongest attachment to it.
    let total = |v: usize| -> u64 { group.iter().map(|&u| u64::from(affinity[v * m + u])).sum() };
    let seed_pos = (0..n)
        .max_by_key(|&i| total(group[i]))
        .expect("non-empty group");
    group.swap(0, seed_pos);
    for fill in 1..half {
        let best = (fill..n)
            .max_by_key(|&i| {
                group[..fill]
                    .iter()
                    .map(|&u| u64::from(affinity[group[i] * m + u]))
                    .sum::<u64>()
            })
            .expect("candidates remain");
        group.swap(fill, best);
    }
    // Swap refinement: move pairs across the cut while it improves.
    let gain = |group: &[usize], i: usize, j: usize| -> i64 {
        // i in left, j in right; gain of swapping them.
        let (vi, vj) = (group[i], group[j]);
        let mut g = 0i64;
        for (pos, &u) in group.iter().enumerate() {
            if pos == i || pos == j {
                continue;
            }
            let side_left = pos < half;
            let a_iu = i64::from(affinity[vi * m + u]);
            let a_ju = i64::from(affinity[vj * m + u]);
            if side_left {
                g += a_ju - a_iu; // vj joins left, vi leaves it
            } else {
                g += a_iu - a_ju;
            }
        }
        g
    };
    for _round in 0..4 {
        let mut improved = false;
        for i in 0..half {
            for j in half..n {
                if gain(group, i, j) > 0 {
                    group.swap(i, j);
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::basic::IdentityEncoding;
    use crate::encoding::workload_cost;

    #[test]
    fn figure3_workload_reaches_the_optimum() {
        // The Figure 3 scenario: 8 values a..h (ids 0..7), predicates
        // {a,b,c,d} and {c,d,e,f}. The paper's well-defined mapping gets
        // each selection down to ONE vector; affinity should find an
        // equally good encoding.
        let values: Vec<u64> = (0..8).collect();
        let preds = vec![vec![0u64, 1, 2, 3], vec![2, 3, 4, 5]];
        let p = EncodingProblem {
            values: &values,
            predicates: &preds,
            width: 3,
            forbidden_codes: &[],
        };
        let m = AffinityEncoding.encode(&p).unwrap();
        let cost = workload_cost(&m, &preds);
        assert!(cost <= 3, "affinity cost {cost}, paper's optimum is 2");
    }

    #[test]
    fn beats_identity_on_clustered_workload() {
        // Two disjoint clusters accessed together: {0..8} and {8..16}
        // shuffled so identity cannot see them.
        let values: Vec<u64> = (0..16).collect();
        let cluster_a: Vec<u64> = vec![0, 3, 5, 6, 9, 10, 12, 15];
        let cluster_b: Vec<u64> = (0..16).filter(|v| !cluster_a.contains(v)).collect();
        let preds = vec![cluster_a, cluster_b];
        let p = EncodingProblem {
            values: &values,
            predicates: &preds,
            width: 4,
            forbidden_codes: &[],
        };
        let aff = AffinityEncoding.encode(&p).unwrap();
        let id = IdentityEncoding.encode(&p).unwrap();
        let aff_cost = workload_cost(&aff, &preds);
        let id_cost = workload_cost(&id, &preds);
        assert!(
            aff_cost <= id_cost,
            "affinity {aff_cost} should not lose to identity {id_cost}"
        );
        assert_eq!(
            aff_cost, 2,
            "each cluster is half the domain: one vector each"
        );
    }

    #[test]
    fn produces_a_complete_bijection() {
        let values: Vec<u64> = (100..120).collect();
        let preds = vec![vec![101u64, 102, 103]];
        let p = EncodingProblem {
            values: &values,
            predicates: &preds,
            width: 5,
            forbidden_codes: &[0],
        };
        let m = AffinityEncoding.encode(&p).unwrap();
        assert_eq!(m.len(), 20);
        assert_eq!(m.value_of(0), None, "forbidden code untouched");
        for &v in &values {
            assert!(m.code_of(v).is_some());
        }
    }

    #[test]
    fn empty_workload_still_encodes() {
        let values: Vec<u64> = (0..5).collect();
        let preds: Vec<Vec<u64>> = vec![];
        let p = EncodingProblem {
            values: &values,
            predicates: &preds,
            width: 3,
            forbidden_codes: &[],
        };
        let m = AffinityEncoding.encode(&p).unwrap();
        assert_eq!(m.len(), 5);
    }
}
