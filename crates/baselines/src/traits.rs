//! The common selection-index interface.

use ebi_core::index::QueryResult;
use ebi_core::EncodedBitmapIndex;
use ebi_obs::CostCounters;

/// A secondary index answering value selections on one attribute with a
/// row bitmap.
///
/// `vectors_accessed` in the returned [`CostCounters`] counts the index's
/// *logical read units* — bitmap vectors for bitmap-family indexes,
/// nodes (= pages) for tree-family indexes — matching how the paper
/// charges each structure. [`SelectionIndex::query_pages`] converts a
/// query's stats to page reads under that index's own storage layout.
pub trait SelectionIndex {
    /// Index-family name for reports.
    fn name(&self) -> &'static str;

    /// Rows covered (including deleted slots).
    fn rows(&self) -> usize;

    /// `A = value`. Unknown values match nothing.
    fn eq(&self, value: u64) -> QueryResult;

    /// `A IN values`.
    fn in_list(&self, values: &[u64]) -> QueryResult;

    /// `lo <= A <= hi` over value ids.
    fn range(&self, lo: u64, hi: u64) -> QueryResult;

    /// Number of bitmap vectors held (0 for non-bitmap indexes).
    fn bitmap_vector_count(&self) -> usize;

    /// Total storage footprint in bytes.
    fn storage_bytes(&self) -> usize;

    /// Disk pages read by a query with `stats`, under this index's
    /// layout. Default: bitmap-vector model (each accessed vector spans
    /// `ceil(rows/8/page_size)` pages).
    fn query_pages(&self, stats: &CostCounters, page_size: usize) -> u64 {
        page_reads(stats.vectors_accessed, self.rows(), page_size)
    }

    /// Aggregate run statistics over this index's bitmap vectors, when
    /// the index family tracks them. Default: `None` (tree-family and
    /// other non-bitmap indexes have no slice runs to report).
    fn run_stats(&self) -> Option<ebi_bitvec::RunStats> {
        None
    }
}

/// Disk pages read under the paper's storage model: every accessed
/// bitmap vector spans `ceil(rows / 8 / page_size)` pages.
fn page_reads(vectors_accessed: u64, rows: usize, page_size: usize) -> u64 {
    vectors_accessed * rows.div_ceil(8).div_ceil(page_size) as u64
}

impl SelectionIndex for EncodedBitmapIndex {
    fn name(&self) -> &'static str {
        "encoded-bitmap"
    }

    fn rows(&self) -> usize {
        self.rows()
    }

    fn eq(&self, value: u64) -> QueryResult {
        EncodedBitmapIndex::eq(self, value).expect("eq is infallible")
    }

    fn in_list(&self, values: &[u64]) -> QueryResult {
        EncodedBitmapIndex::in_list(self, values).expect("in_list is infallible")
    }

    fn range(&self, lo: u64, hi: u64) -> QueryResult {
        EncodedBitmapIndex::range(self, lo, hi).expect("range is infallible")
    }

    fn bitmap_vector_count(&self) -> usize {
        self.bitmap_vector_count()
    }

    fn storage_bytes(&self) -> usize {
        self.storage_bytes()
    }

    fn run_stats(&self) -> Option<ebi_bitvec::RunStats> {
        Some(EncodedBitmapIndex::run_stats(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebi_storage::Cell;

    #[test]
    fn encoded_index_implements_the_trait() {
        let idx = EncodedBitmapIndex::build([0u64, 1, 2, 1].map(Cell::Value)).unwrap();
        let dyn_idx: &dyn SelectionIndex = &idx;
        assert_eq!(dyn_idx.name(), "encoded-bitmap");
        assert_eq!(dyn_idx.rows(), 4);
        assert_eq!(dyn_idx.eq(1).bitmap.to_positions(), vec![1, 3]);
        assert_eq!(dyn_idx.in_list(&[0, 2]).bitmap.to_positions(), vec![0, 2]);
        assert_eq!(dyn_idx.range(0, 1).bitmap.count_ones(), 3);
        assert!(dyn_idx.storage_bytes() > 0);
        assert_eq!(dyn_idx.bitmap_vector_count(), 2);
    }

    #[test]
    fn default_page_model_charges_per_vector() {
        let cells: Vec<Cell> = (0..100_000u64).map(|i| Cell::Value(i % 8)).collect();
        let idx = EncodedBitmapIndex::build(cells).unwrap();
        let r = SelectionIndex::eq(&idx, 3);
        // 3 slices read; each spans ceil(100000/8/4096) = 4 pages.
        assert_eq!(idx.query_pages(&r.stats, 4096), 3 * 4);
    }

    #[test]
    fn page_reads_scale_with_rows_and_vectors() {
        // 1M rows = 125_000 bytes per vector = 31 pages at 4K.
        assert_eq!(page_reads(3, 1_000_000, 4096), 3 * 31);
        // Tiny table: still one page per vector.
        assert_eq!(page_reads(3, 100, 4096), 3);
        // Zero rows: no pages.
        assert_eq!(page_reads(3, 0, 4096), 0);
    }
}
