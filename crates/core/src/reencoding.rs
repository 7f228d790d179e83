//! Dynamic re-encoding (§5, item three): "for application domains where
//! the set of predefined selection predicates changes over time, a model
//! for evaluating the cost-effectiveness of a reconstruction of the
//! encoded bitmap indexes is desirable."
//!
//! The model: re-encoding rewrites all `k` bitmap vectors once
//! (`rows × k` bit-writes, expressed in vector units as `k · pages per
//! vector`), and each subsequent query saves
//! `cost(old mapping) − cost(new mapping)` vector reads. The advisor
//! reports the per-workload-execution saving and the break-even number
//! of workload executions.

use crate::error::CoreError;
use crate::index::{BuildOptions, EncodedBitmapIndex};
use crate::mapping::Mapping;
use crate::well_defined::achieved_cost;
use ebi_storage::Cell;

/// A predicate workload with frequencies: `(values, weight)`.
pub type WeightedWorkload = [(Vec<u64>, u64)];

/// Weighted total vector cost of a mapping over a workload.
#[must_use]
pub fn weighted_cost(mapping: &Mapping, workload: &WeightedWorkload) -> u64 {
    workload
        .iter()
        .map(|(pred, w)| achieved_cost(mapping, pred) as u64 * w)
        .sum()
}

/// The advisor's verdict on a candidate re-encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReencodeDecision {
    /// Weighted vector reads per workload execution under the current
    /// mapping.
    pub current_cost: u64,
    /// …and under the candidate mapping.
    pub candidate_cost: u64,
    /// One-time rebuild cost in vector units (`k` vectors rewritten).
    pub rebuild_cost: u64,
    /// Workload executions after which the rebuild has paid for itself
    /// (`None` when the candidate is not cheaper).
    pub break_even_executions: Option<u64>,
}

impl ReencodeDecision {
    /// `true` when re-encoding pays off within `horizon` executions.
    #[must_use]
    pub fn worthwhile_within(&self, horizon: u64) -> bool {
        self.break_even_executions.is_some_and(|b| b <= horizon)
    }
}

/// Evaluates replacing `current` by `candidate` for `workload`.
///
/// `rebuild_vector_units` is the one-time cost of writing the new
/// vectors, in the same unit as query reads (use
/// `k × pages_per_vector` for a disk-resident index, or simply `k` to
/// think in whole-vector units).
#[must_use]
pub fn evaluate(
    current: &Mapping,
    candidate: &Mapping,
    workload: &WeightedWorkload,
    rebuild_vector_units: u64,
) -> ReencodeDecision {
    let current_cost = weighted_cost(current, workload);
    let candidate_cost = weighted_cost(candidate, workload);
    let break_even = (candidate_cost < current_cost).then(|| {
        let saving = current_cost - candidate_cost;
        rebuild_vector_units.div_ceil(saving)
    });
    ReencodeDecision {
        current_cost,
        candidate_cost,
        rebuild_cost: rebuild_vector_units,
        break_even_executions: break_even,
    }
}

/// Rebuilds `index` under `new_mapping`, preserving rows, NULLs and
/// deletions. The old index is consumed; the new mapping must cover its
/// value domain.
///
/// # Errors
///
/// [`CoreError::Encoding`] if `new_mapping` misses values, or violates
/// the reserved-code constraints of the index's policy.
pub fn reencode(
    index: &EncodedBitmapIndex,
    new_mapping: Mapping,
) -> Result<EncodedBitmapIndex, CoreError> {
    // Decode every row back to logical cells, then rebuild. O(rows · k) —
    // exactly the O(|T|) reconstruction the paper prices.
    let mut cells: Vec<Cell> = Vec::with_capacity(index.rows());
    let mut deleted_rows: Vec<usize> = Vec::new();
    let nulls = index.is_null().bitmap;
    for row in 0..index.rows() {
        if let Some(v) = index.decode_row(row) {
            cells.push(Cell::Value(v));
        } else if nulls.get(row) == Some(true) {
            cells.push(Cell::Null);
        } else {
            // Deleted (or never-existing) row: keep the slot.
            cells.push(Cell::Null);
            deleted_rows.push(row);
        }
    }
    let mut rebuilt = EncodedBitmapIndex::build_with(
        cells,
        BuildOptions {
            policy: index.policy(),
            mapping: Some(new_mapping),
        },
    )?;
    for row in deleted_rows {
        rebuilt.delete(row)?;
    }
    Ok(rebuilt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{AffinityEncoding, EncodingProblem, EncodingStrategy};

    fn workload() -> Vec<(Vec<u64>, u64)> {
        vec![(vec![0, 1, 2, 3], 10), (vec![2, 3, 4, 5], 5)]
    }

    #[test]
    fn advisor_prefers_the_better_mapping() {
        // Figure 3: proper vs improper mapping over the same workload.
        let proper = Mapping::from_pairs(&[
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
        let improper = Mapping::from_pairs(&[
            (0, 0b000),
            (2, 0b001),
            (6, 0b010),
            (1, 0b011),
            (4, 0b100),
            (3, 0b101),
            (7, 0b110),
            (5, 0b111),
        ])
        .unwrap();
        let w = workload();
        let d = evaluate(&improper, &proper, &w, 30);
        assert_eq!(d.current_cost, 3 * 10 + 3 * 5);
        assert_eq!(d.candidate_cost, 10 + 5);
        // Saving 30 per execution; rebuild 30 → break even after 1.
        assert_eq!(d.break_even_executions, Some(1));
        assert!(d.worthwhile_within(1));
        // The reverse direction never pays.
        let back = evaluate(&proper, &improper, &w, 30);
        assert_eq!(back.break_even_executions, None);
        assert!(!back.worthwhile_within(u64::MAX));
    }

    #[test]
    fn break_even_rounds_up() {
        let a = Mapping::from_pairs(&[(0, 0b00), (1, 0b01), (2, 0b10), (3, 0b11)]).unwrap();
        let b = Mapping::from_pairs(&[(0, 0b00), (1, 0b10), (2, 0b01), (3, 0b11)]).unwrap();
        // Workload where b saves exactly 1 vector per execution.
        let w: Vec<(Vec<u64>, u64)> = vec![(vec![0, 2], 1)];
        let d = evaluate(&a, &b, &w, 5);
        if d.candidate_cost < d.current_cost {
            assert_eq!(
                d.break_even_executions,
                Some(5u64.div_ceil(d.current_cost - d.candidate_cost))
            );
        }
    }

    #[test]
    fn reencode_preserves_answers_and_improves_cost() {
        let cells: Vec<Cell> = (0..160u64).map(|i| Cell::Value(i % 8)).collect();
        let idx = EncodedBitmapIndex::build(cells).unwrap();
        let w = workload();
        // Search a better mapping for the observed workload.
        let values: Vec<u64> = (0..8).collect();
        let preds: Vec<Vec<u64>> = w.iter().map(|(p, _)| p.clone()).collect();
        let better = AffinityEncoding
            .encode(&EncodingProblem {
                values: &values,
                predicates: &preds,
                width: 3,
                forbidden_codes: &[],
            })
            .unwrap();
        let rebuilt = reencode(&idx, better).unwrap();
        for v in 0..8u64 {
            assert_eq!(
                rebuilt.eq(v).unwrap().bitmap,
                idx.eq(v).unwrap().bitmap,
                "value {v}"
            );
        }
        assert!(
            weighted_cost(rebuilt.mapping(), &w) <= weighted_cost(idx.mapping(), &w),
            "re-encoding must not regress the workload"
        );
    }

    #[test]
    fn reencode_preserves_deletions_and_nulls() {
        let cells = vec![Cell::Value(1), Cell::Null, Cell::Value(2), Cell::Value(3)];
        let mut idx = EncodedBitmapIndex::build(cells).unwrap();
        idx.delete(3).unwrap();
        let remapped = Mapping::from_pairs(&[(1, 0b10), (2, 0b00), (3, 0b01)]).unwrap();
        let rebuilt = reencode(&idx, remapped).unwrap();
        assert_eq!(rebuilt.eq(1).unwrap().bitmap.to_positions(), vec![0]);
        assert_eq!(rebuilt.eq(2).unwrap().bitmap.to_positions(), vec![2]);
        assert_eq!(rebuilt.eq(3).unwrap().bitmap.count_ones(), 0, "deleted");
        assert_eq!(rebuilt.is_null().bitmap.to_positions(), vec![1]);
    }

    #[test]
    fn reencode_rejects_incomplete_mappings() {
        let idx = EncodedBitmapIndex::build([0u64, 1, 2].map(Cell::Value)).unwrap();
        let missing = Mapping::from_pairs(&[(0, 0), (1, 1)]).unwrap();
        assert!(matches!(
            reencode(&idx, missing),
            Err(CoreError::Encoding { .. })
        ));
    }
}
