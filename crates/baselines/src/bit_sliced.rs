//! The bit-sliced index of O'Neil & Quass (§4), with their direct
//! range-evaluation algorithm.
//!
//! A bit-sliced index stores slice `B_i` = the `i`-th bit of the raw
//! numeric attribute value — exactly an encoded bitmap index whose
//! mapping is the trivially total-order preserving internal
//! representation. Range predicates `lo <= A <= hi` are evaluated
//! slice-by-slice from the MSB down, costing `k` vector reads
//! *independent of the range width* — the property that makes bit
//! slicing "especially good for wide-range searches".

use crate::traits::SelectionIndex;
use ebi_bitvec::builder::SliceFamilyBuilder;
use ebi_bitvec::BitVec;
use ebi_boolean::{qm, AccessTracker};
use ebi_core::index::QueryResult;
use ebi_core::intern::Interner;
use ebi_obs::CostCounters;
use ebi_storage::Cell;

/// Don't-care enumeration is skipped above this code-space size.
const DC_ENUM_LIMIT: u32 = 12;

/// Bit slices of the raw numeric value.
#[derive(Debug, Clone)]
pub struct BitSlicedIndex {
    slices: Vec<BitVec>,
    rows: usize,
    values: Vec<u64>,
    b_null: Option<BitVec>,
    b_not_exist: Option<BitVec>,
}

impl BitSlicedIndex {
    /// Builds from a numeric column. The width is the bit length of the
    /// largest value (minimum 1). The column is read once: a slice is
    /// added when the first value that needs it arrives, and each
    /// distinct value is listed once.
    #[must_use]
    pub fn build<I: IntoIterator<Item = Cell>>(cells: I) -> Self {
        let cells = cells.into_iter();
        let mut fam = SliceFamilyBuilder::with_capacity(1, cells.size_hint().0);
        let mut b_null: Option<BitVec> = None;
        let mut distinct = Interner::default();
        for (row, cell) in cells.enumerate() {
            match cell {
                Cell::Value(v) => {
                    fam.widen((u64::BITS - v.leading_zeros()) as usize);
                    fam.push_code(v);
                    distinct.slot(v);
                }
                Cell::Null => {
                    fam.push_code(0);
                    let b = b_null.get_or_insert_with(BitVec::new);
                    b.grow(row + 1);
                    b.set(row, true);
                }
            }
        }
        let rows = fam.rows();
        if let Some(b) = &mut b_null {
            b.grow(rows);
        }
        let mut values = distinct.into_values();
        values.sort_unstable();
        Self {
            slices: fam.finish(),
            rows,
            values,
            b_null,
            b_not_exist: None,
        }
    }

    /// Deletes a row (tracked via the existence vector).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn delete(&mut self, row: usize) {
        assert!(row < self.rows, "row {row} out of range");
        let rows = self.rows;
        self.b_not_exist
            .get_or_insert_with(|| BitVec::zeros(rows))
            .set(row, true);
    }

    /// Slice width `k`.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.slices.len() as u32
    }

    /// O'Neil–Quass evaluation of `A <= c`, touching each slice once.
    fn le_bitmap(&self, c: u64, tracker: &mut AccessTracker) -> BitVec {
        let k = self.slices.len();
        if k < 64 && c >> k != 0 {
            return BitVec::ones(self.rows); // c above every representable value
        }
        let mut lt = BitVec::zeros(self.rows);
        let mut eq = BitVec::ones(self.rows);
        for i in (0..k).rev() {
            tracker.touch(i as u32);
            tracker.cost.literal_ops += 1;
            let slice = &self.slices[i];
            if c >> i & 1 == 1 {
                // values with bit i = 0 here are strictly less.
                lt.or_assign(&eq.and_not(slice));
                eq.and_assign(slice);
            } else {
                eq.and_not_assign(slice);
            }
        }
        lt.or_assign(&eq);
        lt
    }

    /// O'Neil–Quass evaluation of `A >= c`.
    fn ge_bitmap(&self, c: u64, tracker: &mut AccessTracker) -> BitVec {
        let k = self.slices.len();
        if k < 64 && c >> k != 0 {
            return BitVec::zeros(self.rows); // c above every representable value
        }
        let mut gt = BitVec::zeros(self.rows);
        let mut eq = BitVec::ones(self.rows);
        for i in (0..k).rev() {
            tracker.touch(i as u32);
            tracker.cost.literal_ops += 1;
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
    }

    fn mask(&self, bitmap: &mut BitVec, tracker: &mut AccessTracker, label: &mut String) {
        let k = self.slices.len() as u32;
        if let Some(bn) = &self.b_null {
            tracker.touch(k);
            tracker.cost.literal_ops += 1;
            bitmap.and_not_assign(bn);
            label.push_str(" · B_NULL'");
        }
        if let Some(ne) = &self.b_not_exist {
            tracker.touch(k + 1);
            tracker.cost.literal_ops += 1;
            bitmap.and_not_assign(ne);
            label.push_str(" · B_NotExist'");
        }
    }
}

impl SelectionIndex for BitSlicedIndex {
    fn name(&self) -> &'static str {
        "bit-sliced"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn eq(&self, value: u64) -> QueryResult {
        self.in_list(&[value])
    }

    fn in_list(&self, values: &[u64]) -> QueryResult {
        let k = self.width();
        let codes: Vec<u64> = values
            .iter()
            .copied()
            .filter(|v| self.values.binary_search(v).is_ok())
            .collect();
        // Bit-sliced = EBI with the identity mapping: reduce and evaluate.
        let dc: Vec<u64> = if k <= DC_ENUM_LIMIT {
            (0..(1u64 << k))
                .filter(|c| self.values.binary_search(c).is_err())
                .collect()
        } else {
            Vec::new()
        };
        let expr = qm::minimize(&codes, &dc, k);
        let mut tracker = AccessTracker::new();
        let mut bitmap =
            ebi_boolean::eval_expr_tracked(&expr, &self.slices, None, self.rows, &mut tracker);
        let mut label = expr.to_string();
        if !expr.is_false() {
            self.mask(&mut bitmap, &mut tracker, &mut label);
        }
        QueryResult {
            bitmap,
            stats: tracker.finish(),
            expression: label,
        }
    }

    fn range(&self, lo: u64, hi: u64) -> QueryResult {
        if lo > hi {
            return QueryResult {
                bitmap: BitVec::zeros(self.rows),
                stats: CostCounters::default(),
                expression: "0".into(),
            };
        }
        let mut tracker = AccessTracker::new();
        let mut bitmap = self.le_bitmap(hi, &mut tracker);
        let ge = self.ge_bitmap(lo, &mut tracker);
        bitmap.and_assign(&ge);
        let mut label = format!("LE({hi}) · GE({lo})");
        self.mask(&mut bitmap, &mut tracker, &mut label);
        QueryResult {
            bitmap,
            stats: tracker.finish(),
            expression: label,
        }
    }

    fn bitmap_vector_count(&self) -> usize {
        self.slices.len()
            + usize::from(self.b_null.is_some())
            + usize::from(self.b_not_exist.is_some())
    }

    fn storage_bytes(&self) -> usize {
        self.slices
            .iter()
            .chain(self.b_null.iter())
            .chain(self.b_not_exist.iter())
            .map(BitVec::storage_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<u64>, BitSlicedIndex) {
        let column: Vec<u64> = (0..200).map(|i| (i * 37) % 1000).collect();
        let idx = BitSlicedIndex::build(column.iter().map(|&v| Cell::Value(v)));
        (column, idx)
    }

    #[test]
    fn width_matches_value_magnitude() {
        let (_, idx) = sample();
        assert_eq!(idx.width(), 10, "values < 1000 need 10 slices");
        let small = BitSlicedIndex::build([0u64, 1].map(Cell::Value));
        assert_eq!(small.width(), 1);
    }

    #[test]
    fn range_matches_scan_semantics() {
        let (column, idx) = sample();
        for (lo, hi) in [(0u64, 999u64), (100, 500), (37, 37), (990, 5000), (5, 4)] {
            let r = idx.range(lo, hi);
            let expect: Vec<usize> = column
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v >= lo && v <= hi)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(r.bitmap.to_positions(), expect, "[{lo}, {hi}]");
        }
    }

    #[test]
    fn range_cost_is_k_regardless_of_width() {
        let (_, idx) = sample();
        let narrow = idx.range(100, 110);
        let wide = idx.range(0, 999);
        assert_eq!(narrow.stats.vectors_accessed, 10);
        assert_eq!(
            wide.stats.vectors_accessed, 10,
            "independent of δ — the bit-sliced signature"
        );
    }

    #[test]
    fn eq_reads_all_slices() {
        let (column, idx) = sample();
        let r = SelectionIndex::eq(&idx, column[5]);
        assert!(r.bitmap.bit(5));
        // A naive bit-sliced eq reads all k slices; our reduction path
        // exploits unassigned codes as don't-cares, so it may read fewer.
        assert!(r.stats.vectors_accessed >= 1 && r.stats.vectors_accessed <= 10);
    }

    #[test]
    fn in_list_uses_reduction() {
        // Values 0..8 fully populated: IN {0..3} reduces to one slice.
        let idx = BitSlicedIndex::build((0..64u64).map(|i| Cell::Value(i % 8)));
        let r = idx.in_list(&[0, 1, 2, 3]);
        assert_eq!(r.stats.vectors_accessed, 1, "B2' covers codes 0..4");
        assert_eq!(r.bitmap.count_ones(), 32);
    }

    #[test]
    fn nulls_and_deletes_are_masked() {
        let mut idx = BitSlicedIndex::build(vec![
            Cell::Value(0),
            Cell::Null,
            Cell::Value(5),
            Cell::Value(0),
        ]);
        // NULL row carries placeholder 0 but must not match A = 0.
        assert_eq!(
            SelectionIndex::eq(&idx, 0).bitmap.to_positions(),
            vec![0, 3]
        );
        idx.delete(0);
        assert_eq!(SelectionIndex::eq(&idx, 0).bitmap.to_positions(), vec![3]);
        let r = idx.range(0, 10);
        assert_eq!(r.bitmap.to_positions(), vec![2, 3]);
    }

    #[test]
    fn ge_above_domain_is_empty() {
        let idx = BitSlicedIndex::build([1u64, 2, 3].map(Cell::Value));
        assert_eq!(idx.range(100, 200).bitmap.count_ones(), 0);
    }
}
