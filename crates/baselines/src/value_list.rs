//! The value-list index (§4): a B+tree of RID lists.

use crate::traits::SelectionIndex;
use ebi_bitvec::BitVec;
use ebi_btree::BTreeIndex;
use ebi_core::index::QueryResult;
use ebi_obs::CostCounters;
use ebi_storage::Cell;

/// B+tree mapping attribute values to tuple-id lists.
///
/// `vectors_accessed` in this index's stats counts *node reads* — one
/// node is one page, so [`SelectionIndex::query_pages`] is the identity
/// on that number.
#[derive(Debug, Clone)]
pub struct ValueListIndex {
    tree: BTreeIndex,
    rows: usize,
}

impl ValueListIndex {
    /// Builds with the paper's reference parameters (`M = 512`,
    /// `p = 4K`). NULL cells are not indexed (as in real value-list
    /// indexes).
    #[must_use]
    pub fn build<I: IntoIterator<Item = Cell>>(cells: I) -> Self {
        Self::build_with(cells, 512, 4096)
    }

    /// Builds with explicit degree and page size.
    #[must_use]
    pub fn build_with<I: IntoIterator<Item = Cell>>(
        cells: I,
        degree: usize,
        page_size: usize,
    ) -> Self {
        let mut tree = BTreeIndex::new(degree, page_size);
        let mut rows = 0usize;
        for (row, cell) in cells.into_iter().enumerate() {
            if let Cell::Value(v) = cell {
                tree.insert(v, row as u32);
            }
            rows = row + 1;
        }
        tree.reset_stats();
        Self { tree, rows }
    }

    /// Appends one cell.
    pub fn append(&mut self, cell: Cell) {
        if let Cell::Value(v) = cell {
            self.tree.insert(v, self.rows as u32);
        }
        self.rows += 1;
    }

    /// Deletes a row's entry (requires knowing its value).
    pub fn delete(&mut self, row: usize, value: u64) -> bool {
        self.tree.remove(value, row as u32)
    }

    /// The underlying tree (for shape inspection).
    #[must_use]
    pub fn tree(&self) -> &BTreeIndex {
        &self.tree
    }

    fn rids_to_result(&self, rids: Vec<u32>, label: String) -> QueryResult {
        let reads = self.tree.stats().node_reads;
        self.tree.reset_stats();
        let mut bitmap = BitVec::zeros(self.rows);
        for rid in rids {
            bitmap.set(rid as usize, true);
        }
        QueryResult {
            bitmap,
            stats: CostCounters {
                vectors_accessed: reads,
                cube_evals: 1,
                ..CostCounters::default()
            },
            expression: label,
        }
    }
}

impl SelectionIndex for ValueListIndex {
    fn name(&self) -> &'static str {
        "value-list-btree"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn eq(&self, value: u64) -> QueryResult {
        self.tree.reset_stats();
        let rids = self.tree.search(value);
        self.rids_to_result(rids, format!("btree.search({value})"))
    }

    fn in_list(&self, values: &[u64]) -> QueryResult {
        self.tree.reset_stats();
        let mut rids = Vec::new();
        for &v in values {
            rids.extend(self.tree.search(v));
        }
        self.rids_to_result(rids, format!("btree.multi-search({})", values.len()))
    }

    fn range(&self, lo: u64, hi: u64) -> QueryResult {
        self.tree.reset_stats();
        let rids = self.tree.range(lo, hi);
        self.rids_to_result(rids, format!("btree.range({lo},{hi})"))
    }

    fn bitmap_vector_count(&self) -> usize {
        0
    }

    fn storage_bytes(&self) -> usize {
        self.tree.storage_bytes()
    }

    /// One node = one page: node reads are page reads.
    fn query_pages(&self, stats: &CostCounters, _page_size: usize) -> u64 {
        stats.vectors_accessed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ValueListIndex {
        ValueListIndex::build_with((0..1000u64).map(|i| Cell::Value(i % 50)), 8, 128)
    }

    #[test]
    fn eq_returns_matching_rows() {
        let idx = sample();
        let r = SelectionIndex::eq(&idx, 7);
        let expect: Vec<usize> = (0..1000).filter(|i| i % 50 == 7).collect();
        assert_eq!(r.bitmap.to_positions(), expect);
        assert!(r.stats.vectors_accessed > 0, "tree descent was counted");
    }

    #[test]
    fn range_and_inlist_agree() {
        let idx = sample();
        let a = idx.range(10, 14);
        let b = idx.in_list(&[10, 11, 12, 13, 14]);
        assert_eq!(a.bitmap, b.bitmap);
        // The leaf-chain range should touch fewer nodes than 5 root-to-
        // leaf descents.
        assert!(a.stats.vectors_accessed <= b.stats.vectors_accessed);
    }

    #[test]
    fn nulls_are_not_indexed() {
        let idx = ValueListIndex::build(vec![Cell::Value(1), Cell::Null, Cell::Value(1)]);
        assert_eq!(
            SelectionIndex::eq(&idx, 1).bitmap.to_positions(),
            vec![0, 2]
        );
        assert_eq!(idx.rows(), 3, "rows still count the NULL slot");
    }

    #[test]
    fn append_and_delete_round() {
        let mut idx = sample();
        idx.append(Cell::Value(7));
        assert!(SelectionIndex::eq(&idx, 7).bitmap.bit(1000));
        assert!(idx.delete(1000, 7));
        assert!(!SelectionIndex::eq(&idx, 7).bitmap.bit(1000));
        assert!(!idx.delete(1000, 7), "already removed");
    }

    #[test]
    fn page_cost_equals_node_reads() {
        let idx = sample();
        let r = SelectionIndex::eq(&idx, 3);
        assert_eq!(idx.query_pages(&r.stats, 4096), r.stats.vectors_accessed);
        assert_eq!(idx.bitmap_vector_count(), 0);
        // Nodes page by payload, so the footprint is at least one page
        // per node and grows with the stored RID lists.
        assert!(idx.storage_bytes() >= idx.tree().node_count() * 128);
    }
}
