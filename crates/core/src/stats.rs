//! Per-query cost accounting.

use ebi_boolean::AccessTracker;
use ebi_obs::CostCounters;

/// Cost of one index query, in the units of the paper's analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryStats {
    /// Distinct bitmap vectors read — the paper's `c_e` (or `c_s` for the
    /// simple index). Includes any existence/NULL mask vectors.
    pub vectors_accessed: usize,
    /// Word-level literal operations (AND / AND-NOT per product term).
    pub literal_ops: usize,
    /// Product terms evaluated.
    pub cube_evals: usize,
    /// 64-bit words actually read by the fused evaluation kernels.
    /// Unlike [`vectors_accessed`](Self::vectors_accessed) this shrinks
    /// when segment pruning or short-circuiting skips work.
    pub words_scanned: u64,
    /// Storage bytes the kernels examined: 8 per dense word plus every
    /// compressed container byte inspected. Shrinks with compressed
    /// storage while `vectors_accessed` stays invariant.
    pub bytes_touched: u64,
    /// Compressed evaluation windows resolved as uniform (all-zero /
    /// all-one) straight from container metadata, without
    /// decompression.
    pub compressed_chunks_skipped: u64,
    /// Whole 4096-row segments skipped via segment summaries.
    pub segments_pruned: u64,
    /// Segments abandoned mid-term because the accumulator went all-zero.
    pub segments_short_circuited: u64,
    /// The reduced retrieval expression, in the paper's notation
    /// (diagnostic; empty for non-expression indexes).
    pub expression: String,
    /// Which word-pass tier the fused kernels ran (`"avx2"` or
    /// `"scalar"`), or `"none"` when the query never entered a fused
    /// kernel.
    pub kernel_path: &'static str,
    /// The physical row order the index was built with
    /// (`"original"`, `"lexicographic"`, `"gray"`). Results are always
    /// in original row ids regardless; this reports which build-time
    /// reordering produced the runs the kernels exploited.
    pub row_order: &'static str,
}

impl Default for QueryStats {
    fn default() -> Self {
        Self {
            vectors_accessed: 0,
            literal_ops: 0,
            cube_evals: 0,
            words_scanned: 0,
            bytes_touched: 0,
            compressed_chunks_skipped: 0,
            segments_pruned: 0,
            segments_short_circuited: 0,
            expression: String::new(),
            kernel_path: "none",
            row_order: "original",
        }
    }
}

impl QueryStats {
    /// Builds stats from an evaluation tracker plus the rendered
    /// expression. `row_order` starts `"original"`; a reordered index
    /// overwrites it when assembling the result.
    #[must_use]
    pub fn from_tracker(tracker: &AccessTracker, expression: String) -> Self {
        Self {
            row_order: "original",
            vectors_accessed: tracker.vectors_accessed(),
            literal_ops: tracker.literal_ops,
            cube_evals: tracker.cube_evals,
            words_scanned: tracker.words_scanned,
            bytes_touched: tracker.bytes_touched,
            compressed_chunks_skipped: tracker.compressed_chunks_skipped,
            segments_pruned: tracker.segments_pruned,
            segments_short_circuited: tracker.segments_short_circuited,
            expression,
            kernel_path: tracker.kernel_path(),
        }
    }

    /// The additive counters as report [`CostCounters`] — the one
    /// conversion every layer that sums per-clause stats goes through,
    /// so `vectors_accessed` stays the paper's number everywhere.
    #[must_use]
    pub fn cost(&self) -> CostCounters {
        CostCounters {
            vectors_accessed: self.vectors_accessed as u64,
            literal_ops: self.literal_ops as u64,
            cube_evals: self.cube_evals as u64,
            words_scanned: self.words_scanned,
            bytes_touched: self.bytes_touched,
            compressed_chunks_skipped: self.compressed_chunks_skipped,
            segments_pruned: self.segments_pruned,
            segments_short_circuited: self.segments_short_circuited,
        }
    }

    /// Disk pages read under the paper's storage model: every accessed
    /// bitmap vector spans `ceil(rows / 8 / page_size)` pages.
    #[must_use]
    pub fn page_reads(&self, rows: usize, page_size: usize) -> u64 {
        let pages_per_vector = rows.div_ceil(8).div_ceil(page_size) as u64;
        self.vectors_accessed as u64 * pages_per_vector
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_reads_scale_with_rows_and_vectors() {
        let s = QueryStats {
            vectors_accessed: 3,
            ..QueryStats::default()
        };
        // 1M rows = 125_000 bytes per vector = 31 pages at 4K.
        assert_eq!(s.page_reads(1_000_000, 4096), 3 * 31);
        // Tiny table: still one page per vector.
        assert_eq!(s.page_reads(100, 4096), 3);
        // Zero rows: no pages.
        assert_eq!(s.page_reads(0, 4096), 0);
    }

    #[test]
    fn from_tracker_copies_counters() {
        let mut t = AccessTracker::new();
        t.touch(0);
        t.touch(5);
        t.literal_ops = 7;
        t.cube_evals = 2;
        let s = QueryStats::from_tracker(&t, "B5B0".into());
        assert_eq!(s.vectors_accessed, 2);
        assert_eq!(s.literal_ops, 7);
        assert_eq!(s.cube_evals, 2);
        assert_eq!(s.expression, "B5B0");
    }
}
