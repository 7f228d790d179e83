//! Joining selections: §2.1's cooperativity argument is that
//! single-attribute bitmap indexes answer any Boolean combination with
//! one word-level operation per join. The warehouse executor and the
//! service's morsels both join through these two folds, so a join costs
//! one `literal_op` everywhere.

use ebi_bitvec::BitVec;
use ebi_obs::CostCounters;

/// A selection bitmap and what producing it cost.
pub type Selected = (BitVec, CostCounters);

/// ANDs the selections of one conjunction's clauses, summing their costs
/// plus one `literal_op` per join. No clause: all `rows` rows match.
pub fn and_fold(clauses: impl IntoIterator<Item = Selected>, rows: usize) -> Selected {
    fold(clauses, BitVec::and_assign, || BitVec::ones(rows))
}

/// ORs the selections of a query's disjuncts, summing their costs plus
/// one `literal_op` per join. No disjunct: none of the `rows` rows match.
pub fn or_fold(disjuncts: impl IntoIterator<Item = Selected>, rows: usize) -> Selected {
    fold(disjuncts, BitVec::or_assign, || BitVec::zeros(rows))
}

fn fold(
    parts: impl IntoIterator<Item = Selected>,
    join: impl Fn(&mut BitVec, &BitVec),
    empty: impl FnOnce() -> BitVec,
) -> Selected {
    let mut parts = parts.into_iter();
    let Some((mut acc, mut cost)) = parts.next() else {
        return (empty(), CostCounters::default());
    };
    for (bitmap, part_cost) in parts {
        cost += part_cost;
        cost.literal_ops += 1;
        join(&mut acc, &bitmap);
    }
    (acc, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(len: usize, ones: &[usize], vectors: u64) -> Selected {
        let cost = CostCounters {
            vectors_accessed: vectors,
            ..CostCounters::default()
        };
        (BitVec::from_positions(len, ones), cost)
    }

    #[test]
    fn folds_join_bitmaps_and_charge_one_op_per_join() {
        let parts = || {
            [
                part(5, &[0, 1, 2], 2),
                part(5, &[1, 2, 3], 1),
                part(5, &[2, 4], 3),
            ]
        };
        let (all, cost) = and_fold(parts(), 5);
        assert_eq!(all.to_positions(), vec![2]);
        assert_eq!((cost.vectors_accessed, cost.literal_ops), (6, 2));
        let (any, cost) = or_fold(parts(), 5);
        assert_eq!(any.to_positions(), vec![0, 1, 2, 3, 4]);
        assert_eq!((cost.vectors_accessed, cost.literal_ops), (6, 2));
    }

    #[test]
    fn empty_folds_are_the_identities() {
        let (all, cost) = and_fold([], 3);
        assert_eq!(all.count_ones(), 3);
        assert_eq!(cost, CostCounters::default());
        let (none, cost) = or_fold([], 3);
        assert_eq!((none.len(), none.count_ones()), (3, 0));
        assert_eq!(cost, CostCounters::default());
    }
}
