//! A WAH-compressed encoded bitmap index.
//!
//! §2.1/§4 discuss run-length compression as the classic answer to
//! simple-bitmap sparsity. Encoded vectors sit near density ½ on
//! *uniform* data and barely compress — but under **skew** (the common
//! warehouse case) the high-order slices are mostly zero and compress
//! well. This variant stores every slice as a WAH container via the
//! shared [`SliceStorage`] layer and evaluates retrieval expressions
//! **compressed-domain**: the stored kernels materialise 64-word
//! windows on demand and resolve uniform runs straight from fill words,
//! so no slice is ever fully decompressed. Answers are identical to the
//! uncompressed index.

use crate::traits::SelectionIndex;
use ebi_bitvec::wah::WahBitmap;
use ebi_bitvec::{BitVec, SliceStorage, StoragePolicy};
use ebi_boolean::{eval_expr_tracked, qm, AccessTracker};
use ebi_core::index::{EncodedBitmapIndex, QueryResult};
use ebi_core::{Mapping, QueryStats, RowPermutation};
use ebi_storage::Cell;

/// Encoded bitmap index with WAH-compressed slices.
#[derive(Debug, Clone)]
pub struct CompressedEncodedIndex {
    slices: Vec<SliceStorage>,
    mapping: Mapping,
    rows: usize,
    dont_cares: Vec<u64>,
    b_null: Option<WahBitmap>,
    /// Row permutation of a reordered source index. The slices and
    /// `b_null` are in its internal domain; answers are translated back
    /// to original row ids.
    permutation: Option<RowPermutation>,
}

impl CompressedEncodedIndex {
    /// Builds by compressing a freshly built uncompressed index.
    ///
    /// # Panics
    ///
    /// Panics only on mapping-width overflow.
    #[must_use]
    pub fn build<I: IntoIterator<Item = Cell>>(cells: I) -> Self {
        let idx = EncodedBitmapIndex::build(cells).expect("serial build");
        Self::from_uncompressed(&idx)
    }

    /// Compresses an existing index's vectors.
    #[must_use]
    pub fn from_uncompressed(idx: &EncodedBitmapIndex) -> Self {
        // `is_null` answers in original row ids; the mask is applied
        // beside the slices, in the internal domain.
        let nulls = idx.is_null().bitmap;
        let internal: Vec<usize> = nulls
            .iter_ones()
            .map(|row| idx.permutation().map_or(row, |p| p.to_internal(row)))
            .collect();
        Self {
            slices: idx
                .slices()
                .iter()
                .map(|s| s.repack(StoragePolicy::Wah))
                .collect(),
            mapping: idx.mapping().clone(),
            rows: idx.rows(),
            dont_cares: idx.dont_care_codes().to_vec(),
            b_null: (!internal.is_empty())
                .then(|| WahBitmap::compress(&BitVec::from_positions(nulls.len(), &internal))),
            permutation: idx.permutation().cloned(),
        }
    }

    /// Compression ratio of the whole slice family (`< 1` = smaller).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        let raw: usize = self
            .slices
            .iter()
            .map(|s| BitVec::zeros(s.len()).storage_bytes())
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
        self.rows
    }

    fn eq(&self, value: u64) -> QueryResult {
        self.in_list(&[value])
    }

    fn in_list(&self, values: &[u64]) -> QueryResult {
        let codes: Vec<u64> = values
            .iter()
            .filter_map(|&v| self.mapping.code_of(v))
            .collect();
        let k = self.mapping.width();
        let expr = qm::minimize(&codes, &self.dont_cares, k);
        // Compressed-domain evaluation: the stored kernels walk only the
        // supporting slices, window by window, without decompressing.
        let mut tracker = AccessTracker::new();
        let mut bitmap = eval_expr_tracked(&expr, &self.slices, None, self.rows, &mut tracker);
        let mut rendered = expr.to_string();
        if !expr.is_false() {
            if let Some(bn) = &self.b_null {
                tracker.touch(k);
                tracker.literal_ops += 1;
                bitmap.and_not_assign(&bn.decompress());
                rendered.push_str(" · B_NULL'");
            }
        }
        if let Some(p) = &self.permutation {
            bitmap = p.bitmap_to_original(&bitmap);
        }
        QueryResult {
            bitmap,
            stats: QueryStats::from_tracker(&tracker, rendered),
        }
    }

    fn range(&self, lo: u64, hi: u64) -> QueryResult {
        let values: Vec<u64> = self
            .mapping
            .iter()
            .map(|(v, _)| v)
            .filter(|&v| v >= lo && v <= hi)
            .collect();
        self.in_list(&values)
    }

    fn bitmap_vector_count(&self) -> usize {
        self.slices.len() + usize::from(self.b_null.is_some())
    }

    fn storage_bytes(&self) -> usize {
        self.slices
            .iter()
            .map(SliceStorage::storage_bytes)
            .sum::<usize>()
            + self.b_null.as_ref().map_or(0, WahBitmap::storage_bytes)
            + self.mapping.to_bytes().len()
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
        // slices are then zero over long runs — WAH's sweet spot.
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
        assert!(
            packed.slices.iter().all(|s| s.kind() == StorageKind::Wah),
            "every slice stored as WAH"
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
        // many evaluation windows resolve without decompression.
        let packed = CompressedEncodedIndex::build(skewed_cells(50_000, 512));
        let r = packed.in_list(&[300]);
        assert!(
            r.stats.compressed_chunks_skipped > 0,
            "uniform WAH windows should skip: {:?}",
            r.stats
        );
        assert_eq!(r.stats.words_scanned, 0, "no dense slices were read");
    }

    #[test]
    fn skewed_data_compresses_uniform_does_not() {
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
            assert_eq!(
                packed.in_list(&sel).bitmap,
                plain.in_list(&sel).unwrap().bitmap,
                "{sel:?}"
            );
        }
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
