//! Simulated-annealing refinement of an encoding.
//!
//! Scores candidate mappings by the *actual* objective — the summed
//! vector count of the reduced retrieval expressions over the workload
//! (Theorem 2.3) — and explores the space of code permutations by
//! swapping the codes of two values (or moving a value onto a free
//! code). Expensive per step, but encodings are computed once and the
//! paper explicitly prices this as a one-time cost (§3.2).

use super::{EncodingProblem, EncodingStrategy};
use crate::encoding::AffinityEncoding;
use crate::error::CoreError;
use crate::mapping::Mapping;
use crate::well_defined::workload_cost;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulated annealing over code assignments, seeded from
/// [`AffinityEncoding`].
#[derive(Debug, Clone, Copy)]
pub struct AnnealingEncoding {
    /// Annealing steps.
    pub iterations: u32,
    /// RNG seed (runs are deterministic).
    pub seed: u64,
}

impl Default for AnnealingEncoding {
    fn default() -> Self {
        Self {
            iterations: 400,
            seed: 0xEB1_D0C5,
        }
    }
}

impl EncodingStrategy for AnnealingEncoding {
    fn name(&self) -> &'static str {
        "annealing"
    }

    fn encode(&self, problem: &EncodingProblem<'_>) -> Result<Mapping, CoreError> {
        problem.validate()?;
        let start = AffinityEncoding.encode(problem)?;
        if problem.predicates.is_empty() || problem.values.len() < 2 {
            return Ok(start);
        }
        let values: Vec<u64> = start.iter().map(|(v, _)| v).collect();
        let mut codes: Vec<u64> = values
            .iter()
            .map(|&v| start.code_of(v).expect("start maps every value"))
            .collect();
        let free: Vec<u64> = problem
            .allowed_codes()
            .into_iter()
            .filter(|c| start.value_of(*c).is_none())
            .collect();

        let mut rng = StdRng::seed_from_u64(self.seed);
        let rebuild = |codes: &[u64]| -> Mapping {
            let pairs = values.iter().copied().zip(codes.iter().copied()).collect();
            Mapping::with_pairs(problem.width, pairs).expect("permutation stays bijective")
        };

        let mut current_cost = workload_cost(&start, problem.predicates) as f64;
        let mut best_codes = codes.clone();
        let mut best_cost = current_cost;
        let t0 = 2.0;

        for step in 0..self.iterations {
            let temp = t0 * (1.0 - f64::from(step) / f64::from(self.iterations)).max(0.01);
            // Propose: swap two values' codes, or relocate one value onto
            // a free code.
            let mut proposal = codes.clone();
            if !free.is_empty() && rng.random_ratio(1, 4) {
                let i = rng.random_range(0..proposal.len());
                let f = free[rng.random_range(0..free.len())];
                // The vacated code joins the free pool implicitly: we
                // only re-anneal from `codes`, so track it by swapping
                // into the proposal directly.
                proposal[i] = f;
                if codes.contains(&f) {
                    continue; // stale free slot (already taken by a move)
                }
            } else {
                let i = rng.random_range(0..proposal.len());
                let j = rng.random_range(0..proposal.len());
                if i == j {
                    continue;
                }
                proposal.swap(i, j);
            }
            let cand = rebuild(&proposal);
            let cost = workload_cost(&cand, problem.predicates) as f64;
            let accept =
                cost <= current_cost || rng.random::<f64>() < ((current_cost - cost) / temp).exp();
            if accept {
                codes = proposal;
                current_cost = cost;
                if cost < best_cost {
                    best_cost = cost;
                    best_codes = codes.clone();
                }
            }
        }
        Ok(rebuild(&best_codes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::workload_cost;

    #[test]
    fn never_worse_than_its_affinity_seed() {
        let values: Vec<u64> = (0..16).collect();
        let preds = vec![
            vec![0u64, 7, 9, 14],
            vec![1, 2, 3, 4, 5, 6],
            vec![8, 10, 12, 15],
        ];
        let p = EncodingProblem {
            values: &values,
            predicates: &preds,
            width: 4,
            forbidden_codes: &[],
        };
        let seed_cost = workload_cost(&AffinityEncoding.encode(&p).unwrap(), &preds);
        let annealed = AnnealingEncoding::default().encode(&p).unwrap();
        let annealed_cost = workload_cost(&annealed, &preds);
        assert!(
            annealed_cost <= seed_cost,
            "annealing {annealed_cost} must not regress from seed {seed_cost}"
        );
    }

    #[test]
    fn finds_the_figure3_optimum() {
        let values: Vec<u64> = (0..8).collect();
        let preds = vec![vec![0u64, 1, 2, 3], vec![2, 3, 4, 5]];
        let p = EncodingProblem {
            values: &values,
            predicates: &preds,
            width: 3,
            forbidden_codes: &[],
        };
        let m = AnnealingEncoding::default().encode(&p).unwrap();
        assert_eq!(
            workload_cost(&m, &preds),
            2,
            "the paper's Figure 3(a) optimum: one vector per selection"
        );
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let values: Vec<u64> = (0..12).collect();
        let preds = vec![vec![0u64, 1, 2], vec![5, 6, 7, 8]];
        let p = EncodingProblem {
            values: &values,
            predicates: &preds,
            width: 4,
            forbidden_codes: &[0b1111],
        };
        let a = AnnealingEncoding::default().encode(&p).unwrap();
        let b = AnnealingEncoding::default().encode(&p).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.value_of(0b1111), None);
    }

    #[test]
    fn trivial_problems_pass_through() {
        let values = [7u64];
        let preds: Vec<Vec<u64>> = vec![];
        let p = EncodingProblem {
            values: &values,
            predicates: &preds,
            width: 1,
            forbidden_codes: &[],
        };
        let m = AnnealingEncoding::default().encode(&p).unwrap();
        assert_eq!(m.len(), 1);
    }
}
