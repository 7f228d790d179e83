//! Wu & Yu's range-based bitmap index (§4).
//!
//! For high-cardinality attributes with skew, the domain is partitioned
//! into buckets of (approximately) equal *population* — computed from
//! the data distribution, not from predicates — and one simple bitmap
//! marks each bucket's rows. A range query ORs the fully covered
//! buckets and *verifies* the rows of partially covered edge buckets
//! against a kept projection of the raw values; the verification work is
//! the price of the coarse buckets, and is reported in the stats.

use crate::traits::SelectionIndex;
use ebi_bitvec::BitVec;
use ebi_core::index::QueryResult;
use ebi_obs::CostCounters;
use ebi_storage::Cell;

/// Equal-population bucketed bitmaps with candidate verification.
#[derive(Debug, Clone)]
pub struct RangeBasedBitmapIndex {
    /// Bucket upper bounds (inclusive), ascending; bucket `i` covers
    /// `(bounds[i-1], bounds[i]]`.
    bounds: Vec<u64>,
    bitmaps: Vec<BitVec>,
    /// Raw values for verifying edge buckets.
    raw: Vec<Option<u64>>,
    rows: usize,
}

impl RangeBasedBitmapIndex {
    /// Builds with `buckets` equal-population partitions.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`.
    #[must_use]
    pub fn build<I: IntoIterator<Item = Cell>>(cells: I, buckets: usize) -> Self {
        assert!(buckets > 0, "at least one bucket");
        let cells: Vec<Cell> = cells.into_iter().collect();
        let rows = cells.len();
        let raw: Vec<Option<u64>> = cells.iter().map(Cell::value).collect();
        let mut sorted: Vec<u64> = raw.iter().flatten().copied().collect();
        sorted.sort_unstable();

        // Equal-population bounds: the b-quantiles of the observed data
        // (Wu & Yu balance bucket population under skew).
        let mut bounds: Vec<u64> = Vec::with_capacity(buckets);
        if sorted.is_empty() {
            bounds.push(0);
        } else {
            for b in 1..=buckets {
                let pos = (b * sorted.len()).div_ceil(buckets) - 1;
                bounds.push(sorted[pos.min(sorted.len() - 1)]);
            }
            bounds.dedup();
        }

        let mut bitmaps = vec![BitVec::zeros(rows); bounds.len()];
        for (row, v) in raw.iter().enumerate() {
            if let Some(v) = v {
                let b = bounds.partition_point(|&ub| ub < *v);
                bitmaps[b].set(row, true);
            }
        }
        Self {
            bounds,
            bitmaps,
            raw,
            rows,
        }
    }

    /// Number of buckets actually formed (duplicates in skewed data can
    /// merge bounds).
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.bounds.len()
    }

    /// Bucket population counts — the balance Wu & Yu optimise for.
    #[must_use]
    pub fn bucket_populations(&self) -> Vec<usize> {
        self.bitmaps.iter().map(BitVec::count_ones).collect()
    }

    fn bucket_of(&self, v: u64) -> usize {
        self.bounds.partition_point(|&ub| ub < v)
    }

    fn bucket_range(&self, b: usize) -> (u64, u64) {
        let lo = if b == 0 {
            0
        } else {
            self.bounds[b - 1].saturating_add(1)
        };
        (lo, self.bounds[b])
    }
}

impl SelectionIndex for RangeBasedBitmapIndex {
    fn name(&self) -> &'static str {
        "range-based-bitmap"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn eq(&self, value: u64) -> QueryResult {
        self.range(value, value)
    }

    fn in_list(&self, values: &[u64]) -> QueryResult {
        // Verify every candidate in the touched buckets.
        let mut touched: Vec<usize> = values.iter().map(|&v| self.bucket_of(v)).collect();
        touched.sort_unstable();
        touched.dedup();
        let mut sorted_vals = values.to_vec();
        sorted_vals.sort_unstable();
        let mut bitmap = BitVec::zeros(self.rows);
        let mut verified = 0usize;
        for &b in &touched {
            if b >= self.bitmaps.len() {
                continue;
            }
            for row in self.bitmaps[b].iter_ones() {
                verified += 1;
                if let Some(v) = self.raw[row] {
                    if sorted_vals.binary_search(&v).is_ok() {
                        bitmap.set(row, true);
                    }
                }
            }
        }
        QueryResult {
            bitmap,
            stats: CostCounters {
                vectors_accessed: touched.len() as u64,
                literal_ops: verified as u64,
                cube_evals: touched.len() as u64,
                ..CostCounters::default()
            },
            expression: format!("buckets{touched:?} + verify({verified})"),
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
        let first = self.bucket_of(lo);
        let last = self.bucket_of(hi).min(self.bitmaps.len() - 1);
        let mut bitmap = BitVec::zeros(self.rows);
        let mut accessed = 0usize;
        let mut verified = 0usize;
        for b in first..=last {
            accessed += 1;
            let (b_lo, b_hi) = self.bucket_range(b);
            let fully_covered = lo <= b_lo && b_hi <= hi;
            if fully_covered {
                bitmap.or_assign(&self.bitmaps[b]);
            } else {
                // Edge bucket: verify candidates against the projection.
                for row in self.bitmaps[b].iter_ones() {
                    verified += 1;
                    if let Some(v) = self.raw[row] {
                        if v >= lo && v <= hi {
                            bitmap.set(row, true);
                        }
                    }
                }
            }
        }
        QueryResult {
            bitmap,
            stats: CostCounters {
                vectors_accessed: accessed as u64,
                literal_ops: verified as u64,
                cube_evals: accessed as u64,
                ..CostCounters::default()
            },
            expression: format!("buckets[{first}..={last}] + verify({verified})"),
        }
    }

    fn bitmap_vector_count(&self) -> usize {
        self.bitmaps.len()
    }

    fn storage_bytes(&self) -> usize {
        // Bitmaps plus the kept projection for verification.
        self.bitmaps
            .iter()
            .map(BitVec::storage_bytes)
            .sum::<usize>()
            + self.raw.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Zipf-ish skewed column: value v appears ~ 1/v times.
    fn skewed_column(n: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        let mut v = 1u64;
        while out.len() < n {
            let reps = (n / (v as usize * 2)).max(1);
            for _ in 0..reps.min(n - out.len()) {
                out.push(v);
            }
            v += 1;
        }
        out
    }

    #[test]
    fn buckets_balance_population_under_skew() {
        let col = skewed_column(10_000);
        let idx = RangeBasedBitmapIndex::build(col.iter().map(|&v| Cell::Value(v)), 8);
        let pops = idx.bucket_populations();
        let total: usize = pops.iter().sum();
        assert_eq!(total, 10_000);
        let max = *pops.iter().max().unwrap();
        let min = *pops.iter().min().unwrap();
        // Equal-population quantiles keep buckets within a small factor
        // even on heavy skew (value 1 is half the data, so the first
        // bucket is one huge-duplicate bucket; tolerate 4x spread).
        assert!(
            max <= min * 6 + total / 4,
            "bucket populations {pops:?} far from balanced"
        );
    }

    #[test]
    fn range_queries_are_exact() {
        let col: Vec<u64> = (0..5000).map(|i| (i * i) % 997).collect();
        let idx = RangeBasedBitmapIndex::build(col.iter().map(|&v| Cell::Value(v)), 10);
        for (lo, hi) in [(0u64, 996u64), (100, 300), (500, 500), (900, 2000)] {
            let r = idx.range(lo, hi);
            let expect: Vec<usize> = col
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v >= lo && v <= hi)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(r.bitmap.to_positions(), expect, "[{lo},{hi}]");
        }
    }

    #[test]
    fn fully_covered_buckets_skip_verification() {
        let col: Vec<u64> = (0..1000).collect();
        let idx = RangeBasedBitmapIndex::build(col.iter().map(|&v| Cell::Value(v)), 10);
        let full = idx.range(0, 999);
        assert_eq!(full.stats.literal_ops, 0, "no candidate checks needed");
        assert_eq!(full.bitmap.count_ones(), 1000);
        let partial = idx.range(50, 60);
        assert!(partial.stats.literal_ops > 0, "edge buckets verified");
    }

    #[test]
    fn eq_and_inlist_verify_candidates() {
        let col = [10u64, 20, 30, 20, 10];
        let idx = RangeBasedBitmapIndex::build(col.iter().map(|&v| Cell::Value(v)), 2);
        assert_eq!(
            SelectionIndex::eq(&idx, 20).bitmap.to_positions(),
            vec![1, 3]
        );
        assert_eq!(idx.in_list(&[10, 30]).bitmap.to_positions(), vec![0, 2, 4]);
        assert_eq!(SelectionIndex::eq(&idx, 99).bitmap.count_ones(), 0);
    }

    #[test]
    fn nulls_land_in_no_bucket() {
        let idx = RangeBasedBitmapIndex::build(vec![Cell::Value(5), Cell::Null, Cell::Value(7)], 2);
        assert_eq!(idx.range(0, 100).bitmap.to_positions(), vec![0, 2]);
    }

    #[test]
    fn inverted_range_is_empty() {
        let idx = RangeBasedBitmapIndex::build([1u64, 2].map(Cell::Value), 2);
        assert_eq!(idx.range(5, 2).bitmap.count_ones(), 0);
    }
}
