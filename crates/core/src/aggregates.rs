//! Aggregate functions evaluated directly on bitmaps (§5, item five).
//!
//! The paper's future work: "some aggregate functions … can also be
//! evaluated directly on the bitmaps, such as sum(·), average(·),
//! median, N-tile …". This module implements them over a
//! [`BitSlicedMeasure`] — the measure column stored as bit slices (the
//! O'Neil & Quass representation, which §2.3 identifies as an EBI with
//! the trivial total-order encoding):
//!
//! * `SUM` — `Σ_i 2^i · popcount(B_i ∧ filter)`: one AND + popcount per
//!   slice, no row decoding;
//! * `COUNT`/`AVG` — popcounts;
//! * `MIN`/`MAX` — slice-wise descent;
//! * `MEDIAN`/`N-tile` — binary descent on the slices, refining a
//!   candidate bitmap (the classic bit-sliced quantile algorithm).
//!
//! Each operation reports how many bitmap vectors it touched, in the
//! same cost units as the rest of the system.

use ebi_bitvec::builder::SliceFamilyBuilder;
use ebi_bitvec::BitVec;
use ebi_boolean::AccessTracker;
use ebi_storage::Cell;

/// A measure column stored as bit slices for direct bitmap aggregation.
///
/// ```
/// use ebi_core::aggregates::BitSlicedMeasure;
/// use ebi_storage::Cell;
/// use ebi_bitvec::BitVec;
///
/// let m = BitSlicedMeasure::build([10u64, 25, 3, 40].map(Cell::Value));
/// let filter = BitVec::from_positions(4, &[0, 1, 3]); // rows 0, 1, 3
/// assert_eq!(m.sum_where(&filter).value, 75);
/// assert_eq!(m.median_where(&filter).value, Some(25));
/// assert_eq!(m.max_where(&filter).value, Some(40));
/// ```
#[derive(Debug, Clone)]
pub struct BitSlicedMeasure {
    slices: Vec<BitVec>,
    rows: usize,
    /// Rows with a NULL measure (excluded from every aggregate).
    b_null: Option<BitVec>,
}

/// An aggregate result together with its vector-access cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateResult<T> {
    /// The aggregate value (`None` when no qualifying rows exist, for
    /// aggregates that need at least one).
    pub value: T,
    /// Distinct bitmap vectors read.
    pub vectors_accessed: u64,
}

impl BitSlicedMeasure {
    /// Builds from a measure column. The slice width is the bit length
    /// of the largest value (minimum 1).
    #[must_use]
    pub fn build<I: IntoIterator<Item = Cell>>(cells: I) -> Self {
        let cells: Vec<Cell> = cells.into_iter().collect();
        let rows = cells.len();
        let max = cells.iter().filter_map(Cell::value).max().unwrap_or(0);
        let width = if max <= 1 { 1 } else { max.ilog2() + 1 };
        let mut fam = SliceFamilyBuilder::with_capacity(width as usize, rows);
        let mut b_null: Option<BitVec> = None;
        for (row, cell) in cells.iter().enumerate() {
            match cell.value() {
                Some(v) => fam.push_code(v),
                None => {
                    fam.push_code(0);
                    b_null
                        .get_or_insert_with(|| BitVec::zeros(rows))
                        .set(row, true);
                }
            }
        }
        Self {
            slices: fam.finish(),
            rows,
            b_null,
        }
    }

    /// Number of rows covered.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Slice width `k`.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.slices.len() as u32
    }

    /// The filter restricted to rows with a non-NULL measure.
    fn effective_filter(&self, filter: &BitVec, tracker: &mut AccessTracker) -> BitVec {
        assert_eq!(filter.len(), self.rows, "filter length mismatch");
        match &self.b_null {
            Some(bn) => {
                tracker.touch(self.width());
                filter.and_not(bn)
            }
            None => filter.clone(),
        }
    }

    /// Rows with `lo <= measure <= hi` (non-NULL only) — the
    /// O'Neil–Quass slice-wise range evaluation, so measure predicates
    /// (TPC-D Q6's `quantity < 24`) run on the same bitmaps as the
    /// aggregates.
    #[must_use]
    pub fn range_bitmap(&self, lo: u64, hi: u64) -> AggregateResult<BitVec> {
        let mut tracker = AccessTracker::new();
        if lo > hi {
            return AggregateResult {
                value: BitVec::zeros(self.rows),
                vectors_accessed: 0,
            };
        }
        let k = self.slices.len();
        let le = |c: u64, tracker: &mut AccessTracker| -> BitVec {
            if k < 64 && c >> k != 0 {
                return BitVec::ones(self.rows);
            }
            let mut lt = BitVec::zeros(self.rows);
            let mut eq = BitVec::ones(self.rows);
            for i in (0..k).rev() {
                tracker.touch(i as u32);
                let slice = &self.slices[i];
                if c >> i & 1 == 1 {
                    lt.or_assign(&eq.and_not(slice));
                    eq.and_assign(slice);
                } else {
                    eq.and_not_assign(slice);
                }
            }
            lt.or_assign(&eq);
            lt
        };
        let ge = |c: u64, tracker: &mut AccessTracker| -> BitVec {
            if k < 64 && c >> k != 0 {
                return BitVec::zeros(self.rows);
            }
            let mut gt = BitVec::zeros(self.rows);
            let mut eq = BitVec::ones(self.rows);
            for i in (0..k).rev() {
                tracker.touch(i as u32);
                let slice = &self.slices[i];
                if c >> i & 1 == 0 {
                    gt.or_assign(&(&eq & slice));
                    eq.and_not_assign(slice);
                } else {
                    eq.and_assign(slice);
                }
            }
            gt.or_assign(&eq);
            gt
        };
        let mut bitmap = le(hi, &mut tracker);
        bitmap.and_assign(&ge(lo, &mut tracker));
        if let Some(bn) = &self.b_null {
            tracker.touch(self.width());
            bitmap.and_not_assign(bn);
        }
        AggregateResult {
            value: bitmap,
            vectors_accessed: tracker.finish().vectors_accessed,
        }
    }

    /// `SUM(measure) WHERE filter` — slice-parallel, no row decoding.
    #[must_use]
    pub fn sum_where(&self, filter: &BitVec) -> AggregateResult<u128> {
        let mut tracker = AccessTracker::new();
        let f = self.effective_filter(filter, &mut tracker);
        let mut total: u128 = 0;
        for (i, slice) in self.slices.iter().enumerate() {
            tracker.touch(i as u32);
            total += (slice.and_count(&f) as u128) << i;
        }
        AggregateResult {
            value: total,
            vectors_accessed: tracker.finish().vectors_accessed,
        }
    }

    /// `COUNT(measure) WHERE filter` (non-NULL rows only).
    #[must_use]
    pub fn count_where(&self, filter: &BitVec) -> AggregateResult<usize> {
        let mut tracker = AccessTracker::new();
        let f = self.effective_filter(filter, &mut tracker);
        AggregateResult {
            value: f.count_ones(),
            vectors_accessed: tracker.finish().vectors_accessed,
        }
    }

    /// `AVG(measure) WHERE filter`, `None` when no rows qualify.
    #[must_use]
    pub fn avg_where(&self, filter: &BitVec) -> AggregateResult<Option<f64>> {
        let sum = self.sum_where(filter);
        let count = self.count_where(filter);
        AggregateResult {
            value: (count.value > 0).then(|| sum.value as f64 / count.value as f64),
            vectors_accessed: sum.vectors_accessed.max(count.vectors_accessed),
        }
    }

    /// `MAX(measure) WHERE filter` by MSB-first descent: keep the
    /// candidate set, prefer rows with the current bit set.
    #[must_use]
    pub fn max_where(&self, filter: &BitVec) -> AggregateResult<Option<u64>> {
        let mut tracker = AccessTracker::new();
        let mut candidates = self.effective_filter(filter, &mut tracker);
        if !candidates.any() {
            return AggregateResult {
                value: None,
                vectors_accessed: tracker.finish().vectors_accessed,
            };
        }
        let mut value = 0u64;
        for i in (0..self.slices.len()).rev() {
            tracker.touch(i as u32);
            let with_bit = &candidates & &self.slices[i];
            if with_bit.any() {
                value |= 1 << i;
                candidates = with_bit;
            }
        }
        AggregateResult {
            value: Some(value),
            vectors_accessed: tracker.finish().vectors_accessed,
        }
    }

    /// `MIN(measure) WHERE filter` by MSB-first descent, preferring
    /// rows with the bit clear.
    #[must_use]
    pub fn min_where(&self, filter: &BitVec) -> AggregateResult<Option<u64>> {
        let mut tracker = AccessTracker::new();
        let mut candidates = self.effective_filter(filter, &mut tracker);
        if !candidates.any() {
            return AggregateResult {
                value: None,
                vectors_accessed: tracker.finish().vectors_accessed,
            };
        }
        let mut value = 0u64;
        for i in (0..self.slices.len()).rev() {
            tracker.touch(i as u32);
            let without_bit = candidates.and_not(&self.slices[i]);
            if without_bit.any() {
                candidates = without_bit;
            } else {
                value |= 1 << i;
            }
        }
        AggregateResult {
            value: Some(value),
            vectors_accessed: tracker.finish().vectors_accessed,
        }
    }

    /// The `q`-th smallest qualifying value (0-based) — the building
    /// block of median and N-tile. MSB-first descent: at each slice,
    /// count how many candidates have the bit clear; descend left or
    /// right like a binary search on the value space.
    #[must_use]
    pub fn kth_where(&self, filter: &BitVec, q: usize) -> AggregateResult<Option<u64>> {
        let mut tracker = AccessTracker::new();
        let mut candidates = self.effective_filter(filter, &mut tracker);
        if q >= candidates.count_ones() {
            return AggregateResult {
                value: None,
                vectors_accessed: tracker.finish().vectors_accessed,
            };
        }
        let mut rank = q;
        let mut value = 0u64;
        for i in (0..self.slices.len()).rev() {
            tracker.touch(i as u32);
            let clear = candidates.and_not(&self.slices[i]);
            let clear_count = clear.count_ones();
            if rank < clear_count {
                candidates = clear;
            } else {
                rank -= clear_count;
                value |= 1 << i;
                candidates.and_assign(&self.slices[i]);
            }
        }
        AggregateResult {
            value: Some(value),
            vectors_accessed: tracker.finish().vectors_accessed,
        }
    }

    /// `MEDIAN(measure) WHERE filter` — the lower median for even
    /// counts.
    #[must_use]
    pub fn median_where(&self, filter: &BitVec) -> AggregateResult<Option<u64>> {
        let count = self.count_where(filter).value;
        if count == 0 {
            return AggregateResult {
                value: None,
                vectors_accessed: 0,
            };
        }
        self.kth_where(filter, (count - 1) / 2)
    }

    /// N-tile boundaries: the values splitting the qualifying rows into
    /// `n` equal-population tiles (n − 1 boundaries, the paper's
    /// "N-tile").
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn ntile_where(&self, filter: &BitVec, n: usize) -> AggregateResult<Vec<u64>> {
        assert!(n > 0, "at least one tile");
        let count = self.count_where(filter).value;
        let mut boundaries = Vec::with_capacity(n.saturating_sub(1));
        let mut vectors = 0u64;
        for t in 1..n {
            let rank = (t * count) / n;
            if rank >= count {
                break;
            }
            let r = self.kth_where(filter, rank);
            vectors = vectors.max(r.vectors_accessed);
            if let Some(v) = r.value {
                boundaries.push(v);
            }
        }
        AggregateResult {
            value: boundaries,
            vectors_accessed: vectors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measure_and_values() -> (Vec<u64>, BitSlicedMeasure) {
        let values: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 1000).collect();
        let m = BitSlicedMeasure::build(values.iter().map(|&v| Cell::Value(v)));
        (values, m)
    }

    #[test]
    fn sum_matches_scan() {
        let (values, m) = measure_and_values();
        let filter: BitVec = (0..500).map(|i| i % 3 == 0).collect();
        let expect: u128 = values
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
            .map(|(_, &v)| u128::from(v))
            .sum();
        let got = m.sum_where(&filter);
        assert_eq!(got.value, expect);
        assert_eq!(got.vectors_accessed, 10, "one read per slice");
        // Unfiltered sum.
        let all = m.sum_where(&BitVec::ones(500));
        assert_eq!(all.value, values.iter().map(|&v| u128::from(v)).sum());
    }

    #[test]
    fn count_avg_match_scan() {
        let (values, m) = measure_and_values();
        let filter: BitVec = (0..500).map(|i| i % 2 == 0).collect();
        let expect_n = 250usize;
        let expect_sum: u64 = values.iter().step_by(2).sum();
        assert_eq!(m.count_where(&filter).value, expect_n);
        let avg = m.avg_where(&filter).value.unwrap();
        assert!((avg - expect_sum as f64 / expect_n as f64).abs() < 1e-9);
        assert_eq!(m.avg_where(&BitVec::zeros(500)).value, None);
    }

    #[test]
    fn min_max_match_scan() {
        let (values, m) = measure_and_values();
        let filter: BitVec = (0..500).map(|i| (100..200).contains(&i)).collect();
        let slice = &values[100..200];
        assert_eq!(m.max_where(&filter).value, slice.iter().max().copied());
        assert_eq!(m.min_where(&filter).value, slice.iter().min().copied());
        assert_eq!(m.max_where(&BitVec::zeros(500)).value, None);
        assert_eq!(m.min_where(&BitVec::zeros(500)).value, None);
    }

    #[test]
    fn kth_is_a_sorted_index() {
        let (values, m) = measure_and_values();
        let filter = BitVec::ones(500);
        let mut sorted = values;
        sorted.sort_unstable();
        for q in [0usize, 1, 100, 250, 499] {
            assert_eq!(m.kth_where(&filter, q).value, Some(sorted[q]), "q={q}");
        }
        assert_eq!(m.kth_where(&filter, 500).value, None);
    }

    #[test]
    fn median_and_quartiles() {
        let values: Vec<u64> = (1..=100).collect();
        let m = BitSlicedMeasure::build(values.iter().map(|&v| Cell::Value(v)));
        let all = BitVec::ones(100);
        assert_eq!(
            m.median_where(&all).value,
            Some(50),
            "lower median of 1..=100"
        );
        let quartiles = m.ntile_where(&all, 4).value;
        assert_eq!(
            quartiles,
            vec![26, 51, 76],
            "rank-based quartile boundaries"
        );
        assert_eq!(m.ntile_where(&all, 1).value, Vec::<u64>::new());
        assert_eq!(m.median_where(&BitVec::zeros(100)).value, None);
    }

    #[test]
    fn range_bitmap_matches_scan() {
        let (values, m) = measure_and_values();
        for (lo, hi) in [(0u64, 999u64), (100, 500), (250, 250), (900, 5000), (7, 3)] {
            let got = m.range_bitmap(lo, hi);
            let expect: Vec<usize> = values
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v >= lo && v <= hi)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got.value.to_positions(), expect, "[{lo},{hi}]");
        }
        // NULL measures never qualify.
        let with_null = BitSlicedMeasure::build(vec![Cell::Value(3), Cell::Null]);
        assert_eq!(with_null.range_bitmap(0, 10).value.to_positions(), vec![0]);
    }

    #[test]
    fn null_measures_are_excluded() {
        let cells = vec![
            Cell::Value(10),
            Cell::Null,
            Cell::Value(30),
            Cell::Null,
            Cell::Value(20),
        ];
        let m = BitSlicedMeasure::build(cells);
        let all = BitVec::ones(5);
        assert_eq!(m.sum_where(&all).value, 60);
        assert_eq!(m.count_where(&all).value, 3);
        assert_eq!(
            m.min_where(&all).value,
            Some(10),
            "NULL's placeholder 0 ignored"
        );
        assert_eq!(m.median_where(&all).value, Some(20));
    }

    #[test]
    fn duplicate_heavy_distributions() {
        let values = vec![5u64; 40];
        let m = BitSlicedMeasure::build(values.iter().map(|&v| Cell::Value(v)));
        let all = BitVec::ones(40);
        assert_eq!(m.median_where(&all).value, Some(5));
        assert_eq!(m.kth_where(&all, 39).value, Some(5));
        assert_eq!(m.ntile_where(&all, 4).value, vec![5, 5, 5]);
    }

    #[test]
    #[should_panic(expected = "filter length")]
    fn filter_length_mismatch_panics() {
        let m = BitSlicedMeasure::build([Cell::Value(1)]);
        let _ = m.sum_where(&BitVec::zeros(5));
    }
}
