//! The simple bitmap index (§2.1) — one vector per distinct value.

use crate::traits::SelectionIndex;
use ebi_bitvec::BitVec;
use ebi_core::index::QueryResult;
use ebi_obs::CostCounters;
use ebi_storage::Cell;
use std::collections::BTreeMap;

/// O'Neil's simple bitmap index: bitmap vector `B_v` has bit `j` set iff
/// tuple `j` carries value `v`.
///
/// ```
/// use ebi_baselines::{SelectionIndex, SimpleBitmapIndex};
/// use ebi_storage::Cell;
///
/// let idx = SimpleBitmapIndex::build([0u64, 1, 2, 1].map(Cell::Value));
/// assert_eq!(idx.bitmap_vector_count(), 3, "one vector per value");
/// let r = idx.in_list(&[0, 1]);
/// assert_eq!(r.bitmap.to_positions(), vec![0, 1, 3]);
/// assert_eq!(r.stats.vectors_accessed, 2, "c_s = δ");
/// ```
///
/// NULL rows set no value bit and are tracked in `B_NULL`; deletions
/// clear the row's value bit and set `B_NotExist` (the *existence* vector
/// whose complement the paper says must always be ANDed in — we charge
/// that read when deletions exist).
#[derive(Debug, Clone)]
pub struct SimpleBitmapIndex {
    vectors: BTreeMap<u64, BitVec>,
    rows: usize,
    b_null: Option<BitVec>,
    b_not_exist: Option<BitVec>,
}

impl SimpleBitmapIndex {
    /// Builds from a column of cells.
    #[must_use]
    pub fn build<I: IntoIterator<Item = Cell>>(cells: I) -> Self {
        let cells: Vec<Cell> = cells.into_iter().collect();
        let rows = cells.len();
        let mut vectors: BTreeMap<u64, BitVec> = BTreeMap::new();
        let mut b_null: Option<BitVec> = None;
        for (row, cell) in cells.iter().enumerate() {
            match cell {
                Cell::Value(v) => {
                    vectors
                        .entry(*v)
                        .or_insert_with(|| BitVec::zeros(rows))
                        .set(row, true);
                }
                Cell::Null => {
                    b_null
                        .get_or_insert_with(|| BitVec::zeros(rows))
                        .set(row, true);
                }
            }
        }
        Self {
            vectors,
            rows,
            b_null,
            b_not_exist: None,
        }
    }

    /// Appends one cell (`O(h)` amortised: every vector grows by a bit,
    /// realised lazily as zero-fill).
    pub fn append(&mut self, cell: Cell) {
        let row = self.rows;
        self.rows += 1;
        for v in self.vectors.values_mut() {
            v.grow(self.rows);
        }
        if let Some(b) = &mut self.b_null {
            b.grow(self.rows);
        }
        if let Some(b) = &mut self.b_not_exist {
            b.grow(self.rows);
        }
        match cell {
            Cell::Value(v) => {
                let rows = self.rows;
                self.vectors
                    .entry(v)
                    .or_insert_with(|| BitVec::zeros(rows))
                    .set(row, true);
            }
            Cell::Null => {
                let rows = self.rows;
                self.b_null
                    .get_or_insert_with(|| BitVec::zeros(rows))
                    .set(row, true);
            }
        }
    }

    /// Deletes a row: clears its value bit and marks `B_NotExist`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn delete(&mut self, row: usize) {
        assert!(row < self.rows, "row {row} out of range");
        for v in self.vectors.values_mut() {
            if v.bit(row) {
                v.set(row, false);
            }
        }
        if let Some(b) = &mut self.b_null {
            b.set(row, false);
        }
        let rows = self.rows;
        self.b_not_exist
            .get_or_insert_with(|| BitVec::zeros(rows))
            .set(row, true);
    }

    /// Distinct indexed values (the attribute's active domain).
    #[must_use]
    pub fn values(&self) -> Vec<u64> {
        self.vectors.keys().copied().collect()
    }

    /// Mean sparsity across value vectors — the paper's `(m-1)/m`.
    #[must_use]
    pub fn mean_sparsity(&self) -> f64 {
        if self.vectors.is_empty() {
            return 0.0;
        }
        self.vectors.values().map(BitVec::sparsity).sum::<f64>() / self.vectors.len() as f64
    }

    /// Rows with NULL in this attribute.
    #[must_use]
    pub fn is_null(&self) -> QueryResult {
        let (bitmap, vectors_accessed) = match &self.b_null {
            Some(b) => (b.clone(), 1),
            None => (BitVec::zeros(self.rows), 0),
        };
        QueryResult {
            bitmap,
            stats: CostCounters {
                vectors_accessed,
                ..CostCounters::default()
            },
            expression: "B_NULL".into(),
        }
    }

    fn or_of(&self, values: impl Iterator<Item = u64>) -> QueryResult {
        // Distinct vectors here are per-value vectors, not slices: count
        // them directly (c_s = δ).
        let mut stats = CostCounters::default();
        let mut result: Option<BitVec> = None;
        let mut parts: Vec<String> = Vec::new();
        for v in values {
            let Some(bv) = self.vectors.get(&v) else {
                continue;
            };
            stats.vectors_accessed += 1;
            stats.cube_evals += 1;
            parts.push(format!("B[{v}]"));
            match &mut result {
                None => result = Some(bv.clone()),
                Some(r) => {
                    stats.or_ops += 1;
                    r.or_assign(bv);
                }
            }
        }
        let mut bitmap = result.unwrap_or_else(|| BitVec::zeros(self.rows));
        // The existence vector must always be ANDed in once deletions
        // exist (§2.2) — value bits are already cleared on delete, but we
        // model the paper's cost faithfully by charging the read.
        if let Some(ne) = &self.b_not_exist {
            stats.literal_ops += 1;
            stats.vectors_accessed += 1;
            bitmap.and_not_assign(ne);
            parts.push("B_NotExist'".into());
        }
        QueryResult {
            bitmap,
            stats,
            expression: parts.join(" + "),
        }
    }
}

impl SelectionIndex for SimpleBitmapIndex {
    fn name(&self) -> &'static str {
        "simple-bitmap"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn eq(&self, value: u64) -> QueryResult {
        self.or_of(std::iter::once(value))
    }

    fn in_list(&self, values: &[u64]) -> QueryResult {
        self.or_of(values.iter().copied())
    }

    fn range(&self, lo: u64, hi: u64) -> QueryResult {
        self.or_of(self.vectors.range(lo..=hi).map(|(&v, _)| v))
    }

    fn bitmap_vector_count(&self) -> usize {
        self.vectors.len()
            + usize::from(self.b_null.is_some())
            + usize::from(self.b_not_exist.is_some())
    }

    fn storage_bytes(&self) -> usize {
        self.vectors
            .values()
            .chain(self.b_null.iter())
            .chain(self.b_not_exist.iter())
            .map(BitVec::storage_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1() -> SimpleBitmapIndex {
        SimpleBitmapIndex::build([0u64, 1, 2, 1, 0, 2].map(Cell::Value))
    }

    #[test]
    fn eq_reads_exactly_one_vector() {
        let idx = figure1();
        let r = SelectionIndex::eq(&idx, 0);
        assert_eq!(r.bitmap.to_positions(), vec![0, 4]);
        assert_eq!(r.stats.vectors_accessed, 1, "c_s = 1 for Q1");
    }

    #[test]
    fn in_list_reads_delta_vectors() {
        let idx = figure1();
        let r = idx.in_list(&[0, 1]);
        assert_eq!(r.bitmap.to_positions(), vec![0, 1, 3, 4]);
        assert_eq!(r.stats.vectors_accessed, 2, "c_s = δ = 2 for Q2");
    }

    #[test]
    fn range_covers_value_interval() {
        let idx = figure1();
        let r = idx.range(1, 2);
        assert_eq!(r.bitmap.to_positions(), vec![1, 2, 3, 5]);
        assert_eq!(r.stats.vectors_accessed, 2);
        assert_eq!(idx.range(9, 20).bitmap.count_ones(), 0);
    }

    #[test]
    fn vector_count_is_cardinality() {
        let idx = figure1();
        assert_eq!(idx.bitmap_vector_count(), 3, "m = 3 vectors");
        assert_eq!(idx.values(), vec![0, 1, 2]);
    }

    #[test]
    fn sparsity_approaches_m_minus_1_over_m() {
        let cells: Vec<Cell> = (0..10_000u64).map(|i| Cell::Value(i % 100)).collect();
        let idx = SimpleBitmapIndex::build(cells);
        let s = idx.mean_sparsity();
        assert!((s - 0.99).abs() < 0.001, "sparsity {s} vs (m-1)/m = 0.99");
    }

    #[test]
    fn nulls_never_match_values() {
        let idx = SimpleBitmapIndex::build(vec![Cell::Value(1), Cell::Null, Cell::Value(1)]);
        assert_eq!(
            SelectionIndex::eq(&idx, 1).bitmap.to_positions(),
            vec![0, 2]
        );
        assert_eq!(idx.is_null().bitmap.to_positions(), vec![1]);
    }

    #[test]
    fn delete_hides_rows_and_charges_the_existence_read() {
        let mut idx = figure1();
        idx.delete(0);
        let r = SelectionIndex::eq(&idx, 0);
        assert_eq!(r.bitmap.to_positions(), vec![4]);
        assert_eq!(
            r.stats.vectors_accessed, 2,
            "value vector + existence vector"
        );
        assert!(r.expression.contains("B_NotExist'"));
    }

    #[test]
    fn append_extends_all_vectors() {
        let mut idx = figure1();
        idx.append(Cell::Value(7));
        idx.append(Cell::Null);
        assert_eq!(idx.rows(), 8);
        assert_eq!(SelectionIndex::eq(&idx, 7).bitmap.to_positions(), vec![6]);
        assert_eq!(idx.is_null().bitmap.to_positions(), vec![7]);
        // Old vectors answer at the new length without panicking.
        assert_eq!(
            SelectionIndex::eq(&idx, 0).bitmap.to_positions(),
            vec![0, 4]
        );
    }

    #[test]
    fn unknown_value_is_empty_and_free() {
        let idx = figure1();
        let r = SelectionIndex::eq(&idx, 42);
        assert_eq!(r.bitmap.count_ones(), 0);
        assert_eq!(r.stats.vectors_accessed, 0);
    }
}
