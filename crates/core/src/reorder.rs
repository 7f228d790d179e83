//! Build-time row reordering for run maximization.
//!
//! The encoded index's compressed containers (PR 3) and uniform-window
//! skips win exactly in proportion to how long the runs of identical
//! bits inside each slice are — and run length is decided by the
//! physical row order of the fact table, which the paper takes as
//! given. Lemire/Kaser/Aouiche (*Sorting improves word-aligned bitmap
//! indexes*) show that sorting rows before building can shrink
//! word-aligned indexes by multiples, and their histogram-aware
//! follow-up shows the column priority order is what makes the sort pay
//! off: putting low-effective-cardinality (skewed) columns first keeps
//! their values in few long runs, spending the rapid alternation on the
//! columns that would not compress anyway.
//!
//! This module computes that ordering:
//!
//! * [`ColumnHistogram`] — per-column value counts reduced to the
//!   *effective cardinality* `1 / Σ pᵢ²` (inverse Simpson index): the
//!   number of equally-likely values that would produce the same
//!   collision mass. A Zipf-skewed column with 1000 distinct values can
//!   have an effective cardinality near 3 — runs of its head values
//!   dominate, so it sorts first.
//! * [`column_priority`] — ascending effective cardinality, the
//!   Kaser–Lemire heuristic.
//! * [`compute_permutation`] — stable sort of row ids by the
//!   prioritised columns, [`RowOrder::Lexicographic`] or the
//!   reflected-Gray variant ([`RowOrder::Gray`]), returned as a
//!   validated [`RowPermutation`].
//!
//! The reflected-Gray comparator flips the comparison direction of each
//! successive column whenever the prefix rank above it is odd, so
//! adjacent sorted rows differ in as few column transitions as possible
//! — fewer run breaks in the low-priority columns than plain
//! lexicographic order at identical cost.

use crate::mapping::RowPermutation;
use std::cmp::Ordering;

/// Physical row order of an index build (see
/// [`BuildOptions::row_order`](crate::index::BuildOptions)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowOrder {
    /// Rows stay in insertion order; internal and original row ids
    /// coincide and no permutation is kept. Right when the table is
    /// already clustered (e.g. loads sorted by date), when rows arrive
    /// through streaming appends, or when build-time sorting cost
    /// cannot be afforded.
    #[default]
    Original,
    /// Rows sorted lexicographically by the prioritised columns.
    Lexicographic,
    /// Reflected-Gray sort: like lexicographic, but each column's
    /// direction alternates with the parity of the ranks above it.
    Gray,
}

impl RowOrder {
    /// Stable lower-case name, for reports and the `EBI_ROW_ORDER`
    /// environment variable.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Original => "original",
            Self::Lexicographic => "lexicographic",
            Self::Gray => "gray",
        }
    }

    /// Parses [`RowOrder::as_str`] names (plus the `lex` shorthand).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "original" => Some(Self::Original),
            "lexicographic" | "lex" => Some(Self::Lexicographic),
            "gray" => Some(Self::Gray),
            _ => None,
        }
    }

    /// Order forced by the `EBI_ROW_ORDER` environment variable, if set
    /// to a recognised name (unrecognised values are ignored, like
    /// `EBI_KERNEL`).
    #[must_use]
    pub fn from_env() -> Option<Self> {
        std::env::var("EBI_ROW_ORDER")
            .ok()
            .as_deref()
            .and_then(Self::parse)
    }

    /// Stable one-byte tag used by the persisted index meta.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            Self::Original => 0,
            Self::Lexicographic => 1,
            Self::Gray => 2,
        }
    }

    /// Inverse of [`RowOrder::tag`].
    #[must_use]
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Self::Original),
            1 => Some(Self::Lexicographic),
            2 => Some(Self::Gray),
            _ => None,
        }
    }
}

/// Histogram summary of one column, reduced to what the ordering
/// heuristic needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnHistogram {
    /// Distinct values observed.
    pub distinct: usize,
    /// Inverse Simpson index `1 / Σ pᵢ²` — the equivalent number of
    /// uniform values. Equals `distinct` on uniform data, collapses
    /// toward 1 under skew. `0.0` for an empty column.
    pub effective_cardinality: f64,
}

/// Builds the [`ColumnHistogram`] of one column of value ids.
#[must_use]
pub fn column_histogram(column: &[u64]) -> ColumnHistogram {
    if column.is_empty() {
        return ColumnHistogram {
            distinct: 0,
            effective_cardinality: 0.0,
        };
    }
    let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for &v in column {
        *counts.entry(v).or_insert(0) += 1;
    }
    let n = column.len() as f64;
    let collision_mass: f64 = counts.values().map(|&c| (c as f64 / n).powi(2)).sum();
    ColumnHistogram {
        distinct: counts.len(),
        effective_cardinality: 1.0 / collision_mass,
    }
}

/// Column priority for the sort: ascending effective cardinality (the
/// Kaser–Lemire histogram-aware heuristic — most skewed first), ties
/// broken by distinct count then original position for determinism.
#[must_use]
pub fn column_priority(columns: &[&[u64]]) -> Vec<usize> {
    let hists: Vec<ColumnHistogram> = columns.iter().map(|c| column_histogram(c)).collect();
    let mut order: Vec<usize> = (0..columns.len()).collect();
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

/// Computes the row permutation that sorts `columns` under `order`,
/// with histogram-aware column priority. All columns must have the same
/// length. [`RowOrder::Original`] returns the identity.
///
/// The sort is stable: rows with identical keys keep their relative
/// insertion order, so the permutation is deterministic.
///
/// # Panics
///
/// Panics if the columns have differing lengths or the row count
/// exceeds `u32::MAX`.
#[must_use]
pub fn compute_permutation(columns: &[&[u64]], order: RowOrder) -> RowPermutation {
    let rows = columns.first().map_or(0, |c| c.len());
    assert!(
        columns.iter().all(|c| c.len() == rows),
        "all columns must have the same row count"
    );
    if order == RowOrder::Original || rows == 0 || columns.is_empty() {
        return RowPermutation::identity(rows);
    }

    let priority = column_priority(columns);
    // Dense ranks per column (ascending value order), so the Gray
    // comparator has the parity information and comparisons are on
    // small integers regardless of the value-id spread.
    let ranks: Vec<Vec<u32>> = priority
        .iter()
        .map(|&c| {
            let col = columns[c];
            let mut distinct: Vec<u64> = col.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            col.iter()
                .map(|v| distinct.partition_point(|d| d < v) as u32)
                .collect()
        })
        .collect();

    let mut ids: Vec<u32> = (0..rows as u32).collect();
    match order {
        RowOrder::Original => unreachable!("handled above"),
        RowOrder::Lexicographic => {
            ids.sort_by(|&a, &b| {
                for col in &ranks {
                    match col[a as usize].cmp(&col[b as usize]) {
                        Ordering::Equal => {}
                        other => return other,
                    }
                }
                Ordering::Equal
            });
        }
        RowOrder::Gray => {
            ids.sort_by(|&a, &b| {
                let mut flip = false;
                for col in &ranks {
                    let (ra, rb) = (col[a as usize], col[b as usize]);
                    if ra != rb {
                        return if flip { rb.cmp(&ra) } else { ra.cmp(&rb) };
                    }
                    flip ^= ra & 1 == 1;
                }
                Ordering::Equal
            });
        }
    }
    RowPermutation::from_original_of(ids).expect("sorted row ids form a permutation")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_order_names_round_trip() {
        for order in [RowOrder::Original, RowOrder::Lexicographic, RowOrder::Gray] {
            assert_eq!(RowOrder::parse(order.as_str()), Some(order));
            assert_eq!(RowOrder::from_tag(order.tag()), Some(order));
        }
        assert_eq!(RowOrder::parse("LEX"), Some(RowOrder::Lexicographic));
        assert_eq!(RowOrder::parse("nope"), None);
        assert_eq!(RowOrder::from_tag(9), None);
    }

    #[test]
    fn histogram_effective_cardinality() {
        let uniform: Vec<u64> = (0..1000).map(|i| i % 10).collect();
        let h = column_histogram(&uniform);
        assert_eq!(h.distinct, 10);
        assert!((h.effective_cardinality - 10.0).abs() < 1e-9);

        // 99% mass on one value (i == 0 also maps to 0): effective
        // cardinality collapses.
        let skewed: Vec<u64> = (0..1000)
            .map(|i| if i % 100 == 0 { i } else { 0 })
            .collect();
        let h = column_histogram(&skewed);
        assert_eq!(h.distinct, 10);
        assert!(h.effective_cardinality < 1.3, "{h:?}");

        assert_eq!(column_histogram(&[]).distinct, 0);
    }

    #[test]
    fn priority_puts_skewed_columns_first() {
        let uniform: Vec<u64> = (0..600).map(|i| i % 30).collect();
        let skewed: Vec<u64> = (0..600).map(|i| u64::from(i % 100 == 0)).collect();
        let mid: Vec<u64> = (0..600).map(|i| i % 4).collect();
        let order = column_priority(&[&uniform, &skewed, &mid]);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn original_is_identity() {
        let col = [3u64, 1, 2];
        let p = compute_permutation(&[&col], RowOrder::Original);
        assert!(p.is_identity());
    }

    #[test]
    fn lexicographic_sorts_and_is_stable() {
        let a = [2u64, 1, 2, 1, 0];
        let b = [9u64, 8, 7, 8, 6];
        let p = compute_permutation(&[&a, &b], RowOrder::Lexicographic);
        // Column a is more skewed? Both have similar histograms; the
        // priority tie-break keeps column 0 first. Sorted (a, b) tuples:
        // (0,6) (1,8) (1,8) (2,9) (2,7) -> but lexicographic on b too:
        // (1,8)x2 keep insertion order (stable), (2,7) before (2,9).
        let sorted: Vec<(u64, u64)> = (0..5)
            .map(|i| {
                let o = p.to_original(i);
                (a[o], b[o])
            })
            .collect();
        assert_eq!(sorted, vec![(0, 6), (1, 8), (1, 8), (2, 7), (2, 9)]);
        // Stability: the two equal (1, 8) rows keep original order.
        assert!(p.to_original(1) < p.to_original(2));
    }

    #[test]
    fn gray_alternates_direction_on_odd_ranks() {
        // One prioritised column with ranks 0,1; second column 0..3.
        // Under rank-0 the second column ascends; under rank-1 (odd) it
        // descends — the reflected ordering.
        let a: Vec<u64> = (0..8).map(|i| u64::from(i >= 4)).collect();
        let b: Vec<u64> = (0..8).map(|i| i % 4).collect();
        let p = compute_permutation(&[&a, &b], RowOrder::Gray);
        let sorted: Vec<(u64, u64)> = (0..8)
            .map(|i| {
                let o = p.to_original(i);
                (a[o], b[o])
            })
            .collect();
        assert_eq!(
            sorted,
            vec![
                (0, 0),
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 3),
                (1, 2),
                (1, 1),
                (1, 0),
            ],
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
        let cols: Vec<Vec<u64>> = (0..3)
            .map(|c| (0..500).map(|_| next() % (4 << c)).collect())
            .collect();
        let refs: Vec<&[u64]> = cols.iter().map(Vec::as_slice).collect();
        let transitions = |p: &RowPermutation| -> usize {
            (1..500)
                .map(|i| {
                    cols.iter()
                        .filter(|c| c[p.to_original(i)] != c[p.to_original(i - 1)])
                        .count()
                })
                .sum()
        };
        let lex = transitions(&compute_permutation(&refs, RowOrder::Lexicographic));
        let gray = transitions(&compute_permutation(&refs, RowOrder::Gray));
        let orig = transitions(&RowPermutation::identity(500));
        assert!(lex < orig, "sorting reduces transitions: {lex} vs {orig}");
        assert!(
            gray <= lex,
            "gray should not break more runs: {gray} vs {lex}"
        );
    }

    #[test]
    fn permutations_are_bijective() {
        let col: Vec<u64> = (0..100).map(|i| (i * 37) % 11).collect();
        for order in [RowOrder::Lexicographic, RowOrder::Gray] {
            let p = compute_permutation(&[&col], order);
            for i in 0..100 {
                assert_eq!(p.to_internal(p.to_original(i)), i);
            }
        }
    }
}
