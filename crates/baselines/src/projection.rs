//! The projection index of O'Neil & Quass (§4).
//!
//! A projection index materialises the attribute's values in tuple-id
//! order ("horizontal" storage, the paper notes, where the encoded
//! bitmap index stores the same bits "vertically"). Every query scans
//! the whole projection; its cost unit is therefore bytes scanned, not
//! bitmap vectors, and [`SelectionIndex::query_pages`] is overridden
//! accordingly.

use crate::traits::SelectionIndex;
use ebi_bitvec::BitVec;
use ebi_core::index::QueryResult;
use ebi_obs::CostCounters;
use ebi_storage::Cell;

/// The column in row order, with fixed-width entries.
#[derive(Debug, Clone)]
pub struct ProjectionIndex {
    cells: Vec<Cell>,
    entry_bytes: usize,
    deleted: Vec<bool>,
}

impl ProjectionIndex {
    /// Builds from a column; `entry_bytes` is the fixed entry width used
    /// for the storage model (8 matches our `u64` values).
    #[must_use]
    pub fn build<I: IntoIterator<Item = Cell>>(cells: I, entry_bytes: usize) -> Self {
        let cells: Vec<Cell> = cells.into_iter().collect();
        let deleted = vec![false; cells.len()];
        Self {
            cells,
            entry_bytes,
            deleted,
        }
    }

    /// Appends one cell.
    pub fn append(&mut self, cell: Cell) {
        self.cells.push(cell);
        self.deleted.push(false);
    }

    /// Tombstones a row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn delete(&mut self, row: usize) {
        self.deleted[row] = true;
    }

    /// The value at `row` (None for NULL / deleted / out of range).
    #[must_use]
    pub fn get(&self, row: usize) -> Option<u64> {
        if *self.deleted.get(row)? {
            return None;
        }
        self.cells.get(row)?.value()
    }

    fn scan(&self, pred: impl Fn(u64) -> bool, label: String) -> QueryResult {
        let mut bitmap = BitVec::zeros(self.cells.len());
        for (row, cell) in self.cells.iter().enumerate() {
            if self.deleted[row] {
                continue;
            }
            if let Some(v) = cell.value() {
                if pred(v) {
                    bitmap.set(row, true);
                }
            }
        }
        QueryResult {
            bitmap,
            stats: CostCounters {
                literal_ops: self.cells.len() as u64,
                cube_evals: 1,
                ..CostCounters::default()
            },
            expression: label,
        }
    }
}

impl SelectionIndex for ProjectionIndex {
    fn name(&self) -> &'static str {
        "projection"
    }

    fn rows(&self) -> usize {
        self.cells.len()
    }

    fn eq(&self, value: u64) -> QueryResult {
        self.scan(|v| v == value, format!("scan(= {value})"))
    }

    fn in_list(&self, values: &[u64]) -> QueryResult {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        self.scan(
            move |v| sorted.binary_search(&v).is_ok(),
            format!("scan(IN {} values)", values.len()),
        )
    }

    fn range(&self, lo: u64, hi: u64) -> QueryResult {
        self.scan(move |v| v >= lo && v <= hi, format!("scan([{lo},{hi}])"))
    }

    fn bitmap_vector_count(&self) -> usize {
        0
    }

    fn storage_bytes(&self) -> usize {
        self.cells.len() * self.entry_bytes
    }

    /// Every query scans the full projection.
    fn query_pages(&self, _stats: &CostCounters, page_size: usize) -> u64 {
        (self.storage_bytes().div_ceil(page_size)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProjectionIndex {
        ProjectionIndex::build(
            vec![
                Cell::Value(5),
                Cell::Value(2),
                Cell::Null,
                Cell::Value(5),
                Cell::Value(9),
            ],
            8,
        )
    }

    #[test]
    fn scans_answer_all_query_shapes() {
        let idx = sample();
        assert_eq!(
            SelectionIndex::eq(&idx, 5).bitmap.to_positions(),
            vec![0, 3]
        );
        assert_eq!(idx.in_list(&[2, 9]).bitmap.to_positions(), vec![1, 4]);
        assert_eq!(idx.range(2, 5).bitmap.to_positions(), vec![0, 1, 3]);
        assert_eq!(SelectionIndex::eq(&idx, 77).bitmap.count_ones(), 0);
    }

    #[test]
    fn nulls_and_deleted_rows_never_match() {
        let mut idx = sample();
        idx.delete(0);
        assert_eq!(SelectionIndex::eq(&idx, 5).bitmap.to_positions(), vec![3]);
        assert_eq!(idx.get(2), None, "NULL");
        assert_eq!(idx.get(0), None, "deleted");
        assert_eq!(idx.get(3), Some(5));
    }

    #[test]
    fn page_cost_is_a_full_scan() {
        let idx = ProjectionIndex::build((0..10_000u64).map(Cell::Value), 8);
        let r = SelectionIndex::eq(&idx, 1);
        // 80_000 bytes / 4096 = 20 pages, regardless of selectivity.
        assert_eq!(idx.query_pages(&r.stats, 4096), 20);
        assert_eq!(idx.bitmap_vector_count(), 0);
    }

    #[test]
    fn append_grows_the_projection() {
        let mut idx = sample();
        idx.append(Cell::Value(2));
        assert_eq!(idx.rows(), 6);
        assert_eq!(
            SelectionIndex::eq(&idx, 2).bitmap.to_positions(),
            vec![1, 5]
        );
    }
}
