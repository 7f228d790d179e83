//! An encoded bitmap index with every slice compressed.
//!
//! §2.1/§4 discuss compression as the classic answer to simple-bitmap
//! sparsity. Encoded vectors sit near density ½ on *uniform* data and
//! barely compress — but under **skew** (the common warehouse case) the
//! high-order slices are mostly zero and compress well. This variant
//! stores every slice as a Roaring container via the shared
//! [`ebi_bitvec::SliceStorage`] layer, whatever its density, and
//! evaluates retrieval expressions **compressed-domain**: the kernel
//! materialises 64-word windows on demand and resolves uniform windows
//! straight from container metadata, so no slice is ever fully
//! decompressed. Answers are identical to the uncompressed index.

use crate::traits::SelectionIndex;
use ebi_bitvec::{RunStats, StoragePolicy, WORD_BITS};
use ebi_core::index::{EncodedBitmapIndex, QueryOptions, QueryResult};
use ebi_storage::Cell;

/// Encoded bitmap index with Roaring-compressed slices: an
/// [`EncodedBitmapIndex`] repacked under [`StoragePolicy::Roaring`], so it
/// answers through the one selection path — reduction, compressed-domain
/// evaluation, `B_NULL` / `B_NotExist` masks, row-id translation — and
/// differs from its source in the slice containers alone.
#[derive(Debug, Clone)]
pub struct CompressedEncodedIndex {
    inner: EncodedBitmapIndex,
}

impl CompressedEncodedIndex {
    /// Builds by compressing a freshly built uncompressed index.
    ///
    /// # Panics
    ///
    /// Panics only on mapping-width overflow.
    #[must_use]
    pub fn build<I: IntoIterator<Item = Cell>>(cells: I) -> Self {
        Self::pack(EncodedBitmapIndex::build(cells).expect("serial build"))
    }

    /// Compresses an existing index's vectors.
    #[must_use]
    pub fn from_uncompressed(idx: &EncodedBitmapIndex) -> Self {
        Self::pack(idx.clone())
    }

    fn pack(mut inner: EncodedBitmapIndex) -> Self {
        inner.set_query_options(QueryOptions {
            storage_policy: StoragePolicy::Roaring,
            ..inner.query_options()
        });
        Self { inner }
    }

    /// Compression ratio of the whole slice family (`< 1` = smaller).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        let raw: usize = self
            .inner
            .slices()
            .iter()
            .map(|s| s.len().div_ceil(WORD_BITS) * 8)
            .sum();
        if raw == 0 {
            return 1.0;
        }
        self.storage_bytes() as f64 / raw as f64
    }
}

impl SelectionIndex for CompressedEncodedIndex {
    fn name(&self) -> &'static str {
        "compressed-encoded"
    }

    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn eq(&self, value: u64) -> QueryResult {
        SelectionIndex::eq(&self.inner, value)
    }

    fn in_list(&self, values: &[u64]) -> QueryResult {
        SelectionIndex::in_list(&self.inner, values)
    }

    fn range(&self, lo: u64, hi: u64) -> QueryResult {
        SelectionIndex::range(&self.inner, lo, hi)
    }

    fn bitmap_vector_count(&self) -> usize {
        self.inner.bitmap_vector_count()
    }

    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }

    fn run_stats(&self) -> Option<RunStats> {
        SelectionIndex::run_stats(&self.inner)
    }

    fn row_order(&self) -> &'static str {
        SelectionIndex::row_order(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebi_bitvec::StorageKind;

    fn skewed_cells(rows: usize, m: u64) -> Vec<Cell> {
        // Time-clustered skew (the realistic load pattern): the bulk of
        // the table carries a handful of hot values; the long tail of
        // the domain only appears in the most recent rows. High-order
        // slices are then zero over long runs — a compressed
        // container's sweet spot.
        let head = rows * 9 / 10;
        (0..rows as u64)
            .map(|i| {
                let v = if (i as usize) < head { i % 4 } else { i % m };
                Cell::Value(v)
            })
            .collect()
    }

    #[test]
    fn answers_match_the_uncompressed_index() {
        let cells = skewed_cells(8_000, 512);
        let plain = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        let packed = CompressedEncodedIndex::from_uncompressed(&plain);
        let mut kinds = packed.inner.slices().iter().map(|s| s.kind());
        assert!(
            kinds.all(|k| k == StorageKind::Roaring),
            "every slice stored as Roaring"
        );
        for sel in [vec![0u64], vec![1, 2, 3], (0..64).collect::<Vec<_>>()] {
            let a = plain.in_list(&sel).unwrap();
            let b = packed.in_list(&sel);
            assert_eq!(a.bitmap, b.bitmap, "{sel:?}");
            assert_eq!(a.stats.vectors_accessed, b.stats.vectors_accessed);
        }
        let ra = plain.range(3, 40).unwrap();
        let rb = packed.range(3, 40);
        assert_eq!(ra.bitmap, rb.bitmap);
    }

    #[test]
    fn compressed_domain_evaluation_reports_skipped_windows() {
        // Skewed data: the high-order slices are long zero fills, so
        // many evaluation windows resolve without decompression. While
        // the source's segment summaries are valid they prove those
        // windows uniform before a container is looked at.
        let mut plain = EncodedBitmapIndex::build(skewed_cells(50_000, 512)).unwrap();
        let r = CompressedEncodedIndex::from_uncompressed(&plain).in_list(&[300]);
        assert!(r.stats.segments_pruned > 0, "{:?}", r.stats);
        assert_eq!(r.stats.words_scanned, 0, "no dense slices were read");
        // Maintenance drops the summaries; the Roaring containers then
        // classify the same windows themselves.
        plain.append(Cell::Value(0)).unwrap();
        let r = CompressedEncodedIndex::from_uncompressed(&plain).in_list(&[300]);
        assert!(
            r.stats.compressed_chunks_skipped > 0,
            "uniform Roaring windows should skip: {:?}",
            r.stats
        );
        assert_eq!(r.stats.words_scanned, 0, "no dense slices were read");
    }

    #[test]
    fn skewed_slices_compress_under_roaring_uniform_do_not() {
        let skew = CompressedEncodedIndex::build(skewed_cells(50_000, 512));
        let uni = CompressedEncodedIndex::build((0..50_000u64).map(|i| Cell::Value(i % 512)));
        assert!(
            skew.compression_ratio() < 0.8,
            "skewed ratio {}",
            skew.compression_ratio()
        );
        assert!(
            uni.compression_ratio() > 0.9,
            "uniform ratio {}",
            uni.compression_ratio()
        );
    }

    #[test]
    fn nulls_stay_masked_through_compression() {
        let mut cells = skewed_cells(1_000, 64);
        cells[7] = Cell::Null;
        cells[13] = Cell::Null;
        let plain = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        let packed = CompressedEncodedIndex::from_uncompressed(&plain);
        for v in 0..8u64 {
            assert_eq!(
                SelectionIndex::eq(&packed, v).bitmap,
                plain.eq(v).unwrap().bitmap,
                "value {v}"
            );
        }
    }

    #[test]
    fn reordered_source_answers_in_original_row_ids() {
        use ebi_core::index::BuildOptions;
        use ebi_core::RowOrder;
        // Scattered values with NULLs, so the lexicographic sort moves
        // nearly every row, NULL rows included.
        let cells: Vec<Cell> = (0..3_000u64)
            .map(|i| {
                if i % 11 == 3 {
                    Cell::Null
                } else {
                    Cell::Value(i * 7 % 13)
                }
            })
            .collect();
        let plain = EncodedBitmapIndex::build_with(
            cells,
            BuildOptions {
                row_order: RowOrder::Lexicographic,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(plain.permutation().is_some_and(|p| !p.is_identity()));
        let packed = CompressedEncodedIndex::from_uncompressed(&plain);
        for sel in [vec![0u64], vec![1, 2, 3], (0..13).collect::<Vec<_>>()] {
            let r = packed.in_list(&sel);
            assert_eq!(r.bitmap, plain.in_list(&sel).unwrap().bitmap, "{sel:?}");
        }
        // Asked what it is, the index answers with the source's layout.
        assert_eq!(packed.row_order(), "lexicographic");
        assert!(packed.run_stats().is_some_and(|rs| rs.total_words > 0));
    }

    #[test]
    fn deleted_rows_stay_deleted_after_compression() {
        let mut plain = EncodedBitmapIndex::build((0..100u64).map(|i| Cell::Value(i % 4))).unwrap();
        plain.delete(4).unwrap();
        let packed = CompressedEncodedIndex::from_uncompressed(&plain);
        let r = SelectionIndex::eq(&packed, 0);
        assert!(!r.bitmap.bit(4), "B_NotExist must survive compression");
        assert_eq!(r.bitmap, plain.eq(0).unwrap().bitmap);
        assert_eq!(r.stats.vectors_accessed, 3, "two slices and the mask");
        assert_eq!(packed.bitmap_vector_count(), plain.bitmap_vector_count());
    }

    #[test]
    fn trait_metadata() {
        let idx = CompressedEncodedIndex::build(skewed_cells(500, 32));
        assert_eq!(idx.name(), "compressed-encoded");
        assert_eq!(idx.rows(), 500);
        assert!(idx.storage_bytes() > 0);
        assert_eq!(idx.bitmap_vector_count(), 5);
    }
}
