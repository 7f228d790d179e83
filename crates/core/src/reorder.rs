//! Row order for run maximization: sort the rows, then build.
//!
//! The encoded index's compressed containers and uniform-window skips
//! win exactly in proportion to how long the runs of identical bits
//! inside each slice are — and run length is decided by the physical
//! row order of the fact table, which the paper takes as given.
//! Lemire/Kaser/Aouiche (*Sorting improves word-aligned bitmap
//! indexes*) show that sorting the table before building can shrink
//! word-aligned indexes by multiples, and their histogram-aware
//! follow-up shows the column priority order is what makes the sort pay
//! off: putting low-effective-cardinality (skewed) columns first keeps
//! their values in few long runs, spending the rapid alternation on the
//! columns that would not compress anyway.
//!
//! This module computes that order; the caller applies it to its cells
//! (and heap) before the build, so bit `j` of every index is still row
//! `j` of the table and nothing translates row ids:
//!
//! * [`ColumnHistogram`] — per-column value counts reduced to the
//!   *effective cardinality* `1 / Σ pᵢ²` (inverse Simpson index): the
//!   number of equally-likely values that would produce the same
//!   collision mass. A Zipf-skewed column with 1000 distinct values can
//!   have an effective cardinality near 3 — runs of its head values
//!   dominate, so it sorts first.
//! * [`column_priority`] — ascending effective cardinality, the
//!   Kaser–Lemire heuristic.
//! * [`sort_order`] — stable sort of row ids by the prioritised
//!   columns, [`RowOrder::Lexicographic`] or the reflected-Gray variant
//!   ([`RowOrder::Gray`]), NULLs after every value.
//!
//! The reflected-Gray comparator flips the comparison direction of each
//! successive column whenever the prefix rank above it is odd, so
//! adjacent sorted rows differ in as few column transitions as possible
//! — fewer run breaks in the low-priority columns than plain
//! lexicographic order at identical cost.

use crate::intern::intern_column;
use ebi_storage::Cell;
use std::cmp::Ordering;

/// The order [`sort_order`] puts rows in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowOrder {
    /// Rows stay in insertion order. Right when the table is already
    /// clustered (e.g. loads sorted by date), when rows arrive through
    /// streaming appends, or when sorting cost cannot be afforded.
    #[default]
    Original,
    /// Rows sorted lexicographically by the prioritised columns.
    Lexicographic,
    /// Reflected-Gray sort: like lexicographic, but each column's
    /// direction alternates with the parity of the ranks above it.
    Gray,
}

/// Histogram summary of one column, reduced to what the ordering
/// heuristic needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnHistogram {
    /// Distinct cells observed (NULL counts as one).
    pub distinct: usize,
    /// Inverse Simpson index `1 / Σ pᵢ²` — the equivalent number of
    /// uniform values. Equals `distinct` on uniform data, collapses
    /// toward 1 under skew. `0.0` for an empty column.
    pub effective_cardinality: f64,
}

/// Dense ascending rank of each cell; NULL ranks after every value.
/// The column is interned once and only its distinct values are sorted.
fn dense_ranks(column: &[Cell]) -> Vec<u32> {
    let (values, mut slots) = intern_column(column.iter().copied());
    let mut by_value: Vec<u32> = (0..values.len() as u32).collect();
    by_value.sort_unstable_by_key(|&s| values[s as usize]);
    let mut rank = vec![0; values.len()];
    for (r, &s) in by_value.iter().enumerate() {
        rank[s as usize] = r as u32;
    }
    let null_rank = values.len() as u32;
    for s in &mut slots {
        *s = rank.get(*s as usize).copied().unwrap_or(null_rank);
    }
    slots
}

fn histogram_of_ranks(ranks: &[u32]) -> ColumnHistogram {
    let mut counts = vec![0u64; ranks.iter().max().map_or(0, |&r| r as usize + 1)];
    for &r in ranks {
        counts[r as usize] += 1;
    }
    let n = ranks.len() as f64;
    let collision_mass: f64 = counts.iter().map(|&c| (c as f64 / n).powi(2)).sum();
    ColumnHistogram {
        distinct: counts.len(),
        effective_cardinality: if ranks.is_empty() {
            0.0
        } else {
            1.0 / collision_mass
        },
    }
}

/// Builds the [`ColumnHistogram`] of one column.
#[must_use]
pub fn column_histogram(column: &[Cell]) -> ColumnHistogram {
    histogram_of_ranks(&dense_ranks(column))
}

/// Column priority for the sort: ascending effective cardinality (the
/// Kaser–Lemire histogram-aware heuristic — most skewed first), ties
/// broken by distinct count then original position for determinism.
#[must_use]
pub fn column_priority(columns: &[&[Cell]]) -> Vec<usize> {
    let hists: Vec<ColumnHistogram> = columns.iter().map(|c| column_histogram(c)).collect();
    priority_of(&hists)
}

fn priority_of(hists: &[ColumnHistogram]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..hists.len()).collect();
    order.sort_by(|&a, &b| {
        hists[a]
            .effective_cardinality
            .partial_cmp(&hists[b].effective_cardinality)
            .unwrap_or(Ordering::Equal)
            .then(hists[a].distinct.cmp(&hists[b].distinct))
            .then(a.cmp(&b))
    });
    order
}

/// The row ids of `columns` in the order `order` puts them: entry `i` is
/// the row that belongs at position `i`. Columns are compared in
/// histogram-aware priority, and NULLs sort after every value so
/// `B_NULL` clusters too. [`RowOrder::Original`] returns `0..rows`.
///
/// The sort is stable: rows with identical keys keep their relative
/// insertion order, so the order is deterministic.
///
/// # Panics
///
/// Panics if the columns have differing lengths or the row count
/// exceeds `u32::MAX`.
#[must_use]
pub fn sort_order(columns: &[&[Cell]], order: RowOrder) -> Vec<u32> {
    let rows = columns.first().map_or(0, |c| c.len());
    assert!(
        columns.iter().all(|c| c.len() == rows),
        "all columns must have the same row count"
    );
    let rows = u32::try_from(rows).expect("row count fits u32");
    let mut ids: Vec<u32> = (0..rows).collect();
    if order == RowOrder::Original {
        return ids;
    }

    // Dense ranks per column, so the Gray comparator has the parity
    // information and comparisons are on small integers.
    let ranks: Vec<Vec<u32>> = columns.iter().map(|c| dense_ranks(c)).collect();
    let hists: Vec<ColumnHistogram> = ranks.iter().map(|r| histogram_of_ranks(r)).collect();
    let ranks: Vec<&[u32]> = priority_of(&hists).iter().map(|&c| &ranks[c][..]).collect();
    let gray = order == RowOrder::Gray;
    ids.sort_by(|&a, &b| {
        let mut flip = false;
        for col in &ranks {
            let (ra, rb) = (col[a as usize], col[b as usize]);
            if ra != rb {
                return if flip { rb.cmp(&ra) } else { ra.cmp(&rb) };
            }
            flip ^= gray && ra & 1 == 1;
        }
        Ordering::Equal
    });
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(values: &[u64]) -> Vec<Cell> {
        values.iter().copied().map(Cell::Value).collect()
    }

    /// The rows of `cols` in `order`, as tuples.
    fn sorted_tuples(cols: &[&[Cell]], order: &[u32]) -> Vec<Vec<Cell>> {
        order
            .iter()
            .map(|&r| cols.iter().map(|c| c[r as usize]).collect())
            .collect()
    }

    #[test]
    fn ranks_match_a_sort_of_the_whole_column() {
        // The reference sorts the cells themselves: NULL after every
        // value, values spread over high bits, one row in 17 NULL.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let column: Vec<Cell> = (0..2000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = state >> 33;
                if r.is_multiple_of(17) {
                    Cell::Null
                } else {
                    Cell::Value((r % 300) << 20)
                }
            })
            .collect();
        let mut distinct = column.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let want: Vec<u32> = column
            .iter()
            .map(|c| distinct.partition_point(|d| d < c) as u32)
            .collect();
        assert_eq!(dense_ranks(&column), want);
    }

    #[test]
    fn histogram_effective_cardinality() {
        let uniform = cells(&(0..1000).map(|i| i % 10).collect::<Vec<_>>());
        let h = column_histogram(&uniform);
        assert_eq!(h.distinct, 10);
        assert!((h.effective_cardinality - 10.0).abs() < 1e-9);

        // 99% mass on one value (i == 0 also maps to 0): effective
        // cardinality collapses.
        let skewed = cells(
            &(0..1000)
                .map(|i| if i % 100 == 0 { i } else { 0 })
                .collect::<Vec<_>>(),
        );
        let h = column_histogram(&skewed);
        assert_eq!(h.distinct, 10);
        assert!(h.effective_cardinality < 1.3, "{h:?}");

        assert_eq!(column_histogram(&[]).distinct, 0);
        assert_eq!(column_histogram(&[Cell::Null, Cell::Value(3)]).distinct, 2);
    }

    #[test]
    fn priority_puts_skewed_columns_first() {
        let uniform = cells(&(0..600).map(|i| i % 30).collect::<Vec<_>>());
        let skewed = cells(
            &(0..600)
                .map(|i| u64::from(i % 100 == 0))
                .collect::<Vec<_>>(),
        );
        let mid = cells(&(0..600).map(|i| i % 4).collect::<Vec<_>>());
        let order = column_priority(&[&uniform, &skewed, &mid]);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn original_is_identity() {
        let col = cells(&[3, 1, 2]);
        assert_eq!(sort_order(&[&col], RowOrder::Original), vec![0, 1, 2]);
        assert!(sort_order(&[], RowOrder::Gray).is_empty());
    }

    #[test]
    fn lexicographic_sorts_and_is_stable() {
        let a = cells(&[2, 1, 2, 1, 0]);
        let b = cells(&[9, 8, 7, 8, 6]);
        let order = sort_order(&[&a, &b], RowOrder::Lexicographic);
        // Both columns have similar histograms; the priority tie-break
        // keeps column 0 first. The two equal (1, 8) rows keep insertion
        // order (stable), and (2, 7) sorts before (2, 9).
        assert_eq!(
            sorted_tuples(&[&a, &b], &order),
            [[0, 6], [1, 8], [1, 8], [2, 7], [2, 9]].map(|t| cells(&t))
        );
        assert_eq!(
            order[1..3],
            [1, 3],
            "stability: equal rows keep their order"
        );
    }

    #[test]
    fn nulls_sort_after_every_value() {
        let a = vec![
            Cell::Null,
            Cell::Value(u64::MAX),
            Cell::Null,
            Cell::Value(0),
        ];
        for order in [RowOrder::Lexicographic, RowOrder::Gray] {
            assert_eq!(sort_order(&[&a], order), vec![3, 1, 0, 2], "{order:?}");
        }
    }

    #[test]
    fn gray_alternates_direction_on_odd_ranks() {
        // One prioritised column with ranks 0,1; second column 0..3.
        // Under rank-0 the second column ascends; under rank-1 (odd) it
        // descends — the reflected ordering.
        let a = cells(&(0..8).map(|i| u64::from(i >= 4)).collect::<Vec<_>>());
        let b = cells(&(0..8).map(|i| i % 4).collect::<Vec<_>>());
        let order = sort_order(&[&a, &b], RowOrder::Gray);
        assert_eq!(
            sorted_tuples(&[&a, &b], &order),
            [
                [0, 0],
                [0, 1],
                [0, 2],
                [0, 3],
                [1, 3],
                [1, 2],
                [1, 1],
                [1, 0]
            ]
            .map(|t| cells(&t)),
            "second column reflects when the first column's rank is odd"
        );
    }

    #[test]
    fn gray_never_breaks_more_runs_than_lex() {
        // Deterministic pseudo-random table; count adjacent transitions.
        let mut state = 0x9E37_79B9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let cols: Vec<Vec<Cell>> = (0..3)
            .map(|c| (0..500).map(|_| Cell::Value(next() % (4 << c))).collect())
            .collect();
        let refs: Vec<&[Cell]> = cols.iter().map(Vec::as_slice).collect();
        let transitions = |order: &[u32]| -> usize {
            order
                .windows(2)
                .map(|w| {
                    cols.iter()
                        .filter(|c| c[w[0] as usize] != c[w[1] as usize])
                        .count()
                })
                .sum()
        };
        let lex = transitions(&sort_order(&refs, RowOrder::Lexicographic));
        let gray = transitions(&sort_order(&refs, RowOrder::Gray));
        let orig = transitions(&sort_order(&refs, RowOrder::Original));
        assert!(lex < orig, "sorting reduces transitions: {lex} vs {orig}");
        assert!(
            gray <= lex,
            "gray should not break more runs: {gray} vs {lex}"
        );
    }

    #[test]
    fn orders_are_bijective() {
        let col = cells(&(0..100).map(|i| (i * 37) % 11).collect::<Vec<_>>());
        for order in [RowOrder::Lexicographic, RowOrder::Gray] {
            let mut ids = sort_order(&[&col], order);
            ids.sort_unstable();
            assert_eq!(ids, (0..100).collect::<Vec<u32>>(), "{order:?}");
        }
    }
}
