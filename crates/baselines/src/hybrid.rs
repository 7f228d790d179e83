//! The hybrid B-tree/bitmap index (§3.2, §4).
//!
//! "Instead of storing tuple-ids (value-lists) at the leaf-nodes of
//! B-trees, bitmap vectors are stored. As the sparsity increases …
//! the bit vectors are expressed as value-lists." The paper's critique:
//! at very high cardinality every leaf degrades to a RID list and the
//! hybrid *is* a B-tree — losing bitmap cooperativity exactly where the
//! encoded bitmap index shines. This implementation makes that
//! degradation measurable: [`HybridBTreeBitmapIndex::bitmap_leaf_fraction`]
//! reports how much of the index still enjoys bitmap form.

use crate::traits::SelectionIndex;
use ebi_bitvec::BitVec;
use ebi_core::index::QueryResult;
use ebi_obs::CostCounters;
use ebi_storage::Cell;
use std::collections::BTreeMap;

/// Leaf payload: bitmap for dense values, RID list for sparse ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HybridLeaf {
    /// Dense value: a full bitmap vector.
    Bitmap(BitVec),
    /// Sparse value: an explicit tuple-id list.
    RidList(Vec<u32>),
}

impl HybridLeaf {
    /// Materialises this leaf as a bitmap of `rows` bits.
    #[must_use]
    pub fn to_bitmap(&self, rows: usize) -> BitVec {
        match self {
            Self::Bitmap(b) => b.clone(),
            Self::RidList(rids) => {
                let mut b = BitVec::zeros(rows);
                for &r in rids {
                    b.set(r as usize, true);
                }
                b
            }
        }
    }

    fn storage_bytes(&self) -> usize {
        match self {
            Self::Bitmap(b) => b.storage_bytes(),
            Self::RidList(r) => r.len() * 4,
        }
    }
}

/// Ordered map of values to hybrid leaves, with a density threshold.
#[derive(Debug, Clone)]
pub struct HybridBTreeBitmapIndex {
    leaves: BTreeMap<u64, HybridLeaf>,
    rows: usize,
    /// A value keeps bitmap form iff its row count × 32 ≥ rows (i.e. a
    /// RID list would be bigger than the bitmap).
    threshold_div: usize,
}

impl HybridBTreeBitmapIndex {
    /// Builds with the break-even threshold: bitmap when
    /// `count >= rows / 32` (a 4-byte RID costs 32 bits).
    #[must_use]
    pub fn build<I: IntoIterator<Item = Cell>>(cells: I) -> Self {
        Self::build_with_threshold(cells, 32)
    }

    /// Builds with a custom density divisor: bitmap form when
    /// `count >= rows / threshold_div`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold_div == 0`.
    #[must_use]
    pub fn build_with_threshold<I: IntoIterator<Item = Cell>>(
        cells: I,
        threshold_div: usize,
    ) -> Self {
        assert!(threshold_div > 0);
        let cells: Vec<Cell> = cells.into_iter().collect();
        let rows = cells.len();
        let mut rid_lists: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (row, cell) in cells.iter().enumerate() {
            if let Some(v) = cell.value() {
                rid_lists.entry(v).or_default().push(row as u32);
            }
        }
        let cutoff = rows / threshold_div;
        let leaves = rid_lists
            .into_iter()
            .map(|(v, rids)| {
                let leaf = if rids.len() >= cutoff.max(1) {
                    let mut b = BitVec::zeros(rows);
                    for &r in &rids {
                        b.set(r as usize, true);
                    }
                    HybridLeaf::Bitmap(b)
                } else {
                    HybridLeaf::RidList(rids)
                };
                (v, leaf)
            })
            .collect();
        Self {
            leaves,
            rows,
            threshold_div,
        }
    }

    /// Fraction of values stored in bitmap form — 0.0 means the hybrid
    /// has fully degraded to a B-tree (the paper's §3.2 critique).
    #[must_use]
    pub fn bitmap_leaf_fraction(&self) -> f64 {
        if self.leaves.is_empty() {
            return 0.0;
        }
        let bitmaps = self
            .leaves
            .values()
            .filter(|l| matches!(l, HybridLeaf::Bitmap(_)))
            .count();
        bitmaps as f64 / self.leaves.len() as f64
    }

    /// The density divisor in use.
    #[must_use]
    pub fn threshold_div(&self) -> usize {
        self.threshold_div
    }

    fn or_of(&self, values: impl Iterator<Item = u64>) -> QueryResult {
        let mut bitmap = BitVec::zeros(self.rows);
        let mut accessed = 0usize;
        let mut rid_decodes = 0usize;
        for v in values {
            let Some(leaf) = self.leaves.get(&v) else {
                continue;
            };
            accessed += 1;
            match leaf {
                HybridLeaf::Bitmap(b) => bitmap.or_assign(b),
                HybridLeaf::RidList(rids) => {
                    rid_decodes += rids.len();
                    for &r in rids {
                        bitmap.set(r as usize, true);
                    }
                }
            }
        }
        QueryResult {
            bitmap,
            stats: CostCounters {
                vectors_accessed: accessed as u64,
                literal_ops: rid_decodes as u64,
                cube_evals: accessed as u64,
                ..CostCounters::default()
            },
            expression: format!("hybrid({accessed} leaves, {rid_decodes} rids)"),
        }
    }
}

impl SelectionIndex for HybridBTreeBitmapIndex {
    fn name(&self) -> &'static str {
        "hybrid-btree-bitmap"
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
        self.or_of(self.leaves.range(lo..=hi).map(|(&v, _)| v))
    }

    fn bitmap_vector_count(&self) -> usize {
        self.leaves
            .values()
            .filter(|l| matches!(l, HybridLeaf::Bitmap(_)))
            .count()
    }

    fn storage_bytes(&self) -> usize {
        self.leaves
            .values()
            .map(HybridLeaf::storage_bytes)
            .sum::<usize>()
            + self.leaves.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_values_become_bitmaps_sparse_become_lists() {
        // 1000 rows: value 0 has 500 rows (dense), values 1..=500 one row
        // each (sparse at the /32 threshold).
        let mut col: Vec<u64> = vec![0; 500];
        col.extend(1..=500u64);
        let idx = HybridBTreeBitmapIndex::build(col.iter().map(|&v| Cell::Value(v)));
        assert_eq!(idx.bitmap_vector_count(), 1, "only value 0 is dense");
        assert!(idx.bitmap_leaf_fraction() < 0.01);
        assert_eq!(SelectionIndex::eq(&idx, 0).bitmap.count_ones(), 500);
        assert_eq!(SelectionIndex::eq(&idx, 250).bitmap.count_ones(), 1);
    }

    #[test]
    fn degradation_grows_with_cardinality() {
        let rows = 2048usize;
        let frac = |m: u64| {
            let col: Vec<Cell> = (0..rows as u64).map(|i| Cell::Value(i % m)).collect();
            HybridBTreeBitmapIndex::build(col).bitmap_leaf_fraction()
        };
        // Low cardinality: all bitmap. High cardinality: all RID lists —
        // the §3.2 degradation to a plain B-tree.
        assert_eq!(frac(8), 1.0);
        assert_eq!(frac(2048), 0.0);
        assert!(frac(8) > frac(256) || frac(256) == 1.0);
    }

    #[test]
    fn queries_are_exact_in_both_forms() {
        let col: Vec<u64> = (0..3000).map(|i| (i % 7) * 100 + (i % 11)).collect();
        let idx = HybridBTreeBitmapIndex::build(col.iter().map(|&v| Cell::Value(v)));
        for (lo, hi) in [(0u64, 1000u64), (105, 310), (600, 610)] {
            let expect: Vec<usize> = col
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v >= lo && v <= hi)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(
                idx.range(lo, hi).bitmap.to_positions(),
                expect,
                "[{lo},{hi}]"
            );
        }
        let r = idx.in_list(&[3, 103, 99999]);
        let expect: Vec<usize> = col
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v == 3 || v == 103)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(r.bitmap.to_positions(), expect);
    }

    #[test]
    fn stats_distinguish_bitmap_and_rid_work() {
        let mut col: Vec<u64> = vec![1; 640];
        col.extend([2u64, 3, 4]); // three singleton values
        let idx = HybridBTreeBitmapIndex::build(col.iter().map(|&v| Cell::Value(v)));
        let dense = SelectionIndex::eq(&idx, 1);
        assert_eq!(dense.stats.literal_ops, 0, "bitmap leaf: no rid decodes");
        let sparse = SelectionIndex::eq(&idx, 2);
        assert_eq!(sparse.stats.literal_ops, 1, "one rid decoded");
    }

    #[test]
    fn custom_threshold_moves_the_boundary() {
        let col: Vec<u64> = (0..100).map(|i| i % 10).collect(); // 10 rows each
        let aggressive = HybridBTreeBitmapIndex::build_with_threshold(
            col.iter().map(|&v| Cell::Value(v)),
            5, // need >= 20 rows for bitmap form
        );
        assert_eq!(aggressive.bitmap_vector_count(), 0);
        assert_eq!(aggressive.threshold_div(), 5);
        let lax =
            HybridBTreeBitmapIndex::build_with_threshold(col.iter().map(|&v| Cell::Value(v)), 100);
        assert_eq!(lax.bitmap_vector_count(), 10);
    }
}
