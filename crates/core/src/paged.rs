//! Disk-resident query path: an encoded bitmap index queried through a
//! buffer pool.
//!
//! [`crate::persist`] lays the index out as page segments;
//! [`PagedIndex`] keeps only the mapping table and metadata in memory
//! and fetches bitmap vectors *per query* through an LRU
//! [`BufferPool`] — the paper's operating regime, where the dominant
//! cost is pages fetched from disk. Because the encoded index's whole
//! working set is `ceil(log2 m)` vectors, a small pool captures it
//! entirely; a simple bitmap index with `m` vectors thrashes the same
//! pool. The `buffer_sweep` bench bin quantifies exactly that.

use crate::error::CoreError;
use crate::index::{EncodedBitmapIndex, QueryResult, Vectors};
use crate::persist::{load_index, IndexHandle};
use ebi_bitvec::{BitVec, SliceStorage};
use ebi_storage::buffer::{BufferPool, BufferStats};
use ebi_storage::pager::Pager;
use ebi_storage::segment::{read_segment_buffered, SegmentHandle};

/// An encoded bitmap index resident in the page store, queried through
/// an LRU buffer pool.
pub struct PagedIndex<'a> {
    handle: IndexHandle,
    /// The loaded index minus its bitmap vectors: the mapping, policy
    /// and reserved codes that reduce a selection and finish it exactly
    /// as the in-memory index does.
    index: EncodedBitmapIndex,
    pool: BufferPool<'a>,
    page_size: usize,
}

impl<'a> PagedIndex<'a> {
    /// Opens a persisted index: reads the mapping and metadata segments
    /// once (directly, uncached), and installs a pool of
    /// `pool_capacity` pages for the bitmap vectors.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCode`] for corrupt segments,
    /// [`CoreError::Storage`] when the pager cannot read them.
    pub fn open(
        pager: &'a Pager,
        handle: IndexHandle,
        pool_capacity: usize,
    ) -> Result<Self, CoreError> {
        // Reuse persist's full loader for validation, then drop the
        // in-memory vectors — we only keep the small parts.
        let mut index = load_index(pager, &handle)?;
        index.slices = Vec::new();
        index.summaries = None;
        index.b_null = None;
        index.b_not_exist = None;
        Ok(Self {
            handle,
            index,
            pool: BufferPool::new(pager, pool_capacity),
            page_size: pager.page_size(),
        })
    }

    /// Rows covered.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.index.rows()
    }

    /// Code width `k`.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.index.width()
    }

    /// Buffer-pool counters (hits/misses/evictions).
    #[must_use]
    pub fn pool_stats(&self) -> BufferStats {
        self.pool.stats()
    }

    /// Resets the pool counters.
    pub fn reset_pool_stats(&self) {
        self.pool.reset_stats();
    }

    /// Reads one persisted vector's bytes through the pool.
    fn fetch(&self, h: &SegmentHandle) -> Result<Vec<u8>, CoreError> {
        Ok(read_segment_buffered(&self.pool, self.page_size, h)?)
    }

    /// `A IN values`, fetching only the bitmap vectors the reduced
    /// expression references. Reduction and everything after the fetch
    /// are the in-memory index's own ([`EncodedBitmapIndex::explain_in_list`]
    /// and the shared selection tail).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCode`] on a corrupt vector,
    /// [`CoreError::Storage`] when its pages cannot be read.
    pub fn in_list(&self, values: &[u64]) -> Result<QueryResult, CoreError> {
        let expr = self.index.explain_in_list(values);
        // Materialise exactly the slices in the expression's support, in
        // their stored container — compressed slices are evaluated
        // compressed-domain; placeholders elsewhere (never touched by
        // evaluation).
        let handles = self.handle.slices.iter().enumerate();
        let slices = handles
            .map(|(i, h)| {
                if expr.support() >> i & 1 == 1 {
                    Ok(SliceStorage::from_bytes(&self.fetch(h)?)?)
                } else {
                    Ok(BitVec::zeros(self.rows()).into())
                }
            })
            .collect::<Result<Vec<SliceStorage>, CoreError>>()?;
        // A selection that is constant false masks nothing, so it reads
        // no companion either.
        let companion = |h: &Option<SegmentHandle>| -> Result<Option<BitVec>, CoreError> {
            match h {
                Some(h) if !expr.is_false() => Ok(Some(BitVec::from_bytes(&self.fetch(h)?)?)),
                _ => Ok(None),
            }
        };
        let b_null = companion(&self.handle.b_null)?;
        let b_not_exist = companion(&self.handle.b_not_exist)?;
        let vectors = Vectors {
            slices: &slices,
            summaries: None,
            b_null: b_null.as_ref(),
            b_not_exist: b_not_exist.as_ref(),
        };
        let mut result = self
            .index
            .select(&expr, &expr.lower(), &vectors, 0..self.index.windows());
        result.expression = self.index.render(&expr, &vectors);
        Ok(result)
    }

    /// Point selection `A = value`.
    ///
    /// # Errors
    ///
    /// See [`PagedIndex::in_list`].
    pub fn eq(&self, value: u64) -> Result<QueryResult, CoreError> {
        self.in_list(&[value])
    }

    /// Range selection over value ids (`lo <= A <= hi`).
    ///
    /// # Errors
    ///
    /// See [`PagedIndex::in_list`].
    pub fn range(&self, lo: u64, hi: u64) -> Result<QueryResult, CoreError> {
        self.in_list(&self.index.mapping().values_between(lo, hi))
    }
}

impl std::fmt::Debug for PagedIndex<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedIndex")
            .field("rows", &self.rows())
            .field("width", &self.width())
            .field("pool", &self.pool)
            .finish()
    }
}

/// Convenience: persists `index` and opens it paged in one step.
///
/// # Errors
///
/// Propagates persistence and open errors.
pub fn persist_and_open<'a>(
    index: &EncodedBitmapIndex,
    pager: &'a Pager,
    pool_capacity: usize,
) -> Result<PagedIndex<'a>, CoreError> {
    let handle = save_index(index, pager)?;
    PagedIndex::open(pager, handle, pool_capacity)
}

// Re-exported for bench/example convenience.
pub use crate::persist::save_index;

#[cfg(test)]
mod tests {
    use super::*;
    use ebi_storage::Cell;

    fn sample_cells(rows: usize, m: u64) -> Vec<Cell> {
        (0..rows as u64).map(|i| Cell::Value(i % m)).collect()
    }

    #[test]
    fn paged_queries_match_in_memory() {
        let cells = sample_cells(5_000, 32);
        let idx = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        let pager = Pager::with_page_size(256);
        let paged = persist_and_open(&idx, &pager, 64).unwrap();
        for sel in [vec![0u64], vec![1, 2, 3], (0..16).collect::<Vec<_>>()] {
            let a = idx.in_list(&sel).unwrap();
            let b = paged.in_list(&sel).unwrap();
            assert_eq!(a.bitmap, b.bitmap, "{sel:?}");
            assert_eq!(a.stats.vectors_accessed, b.stats.vectors_accessed);
        }
        assert_eq!(paged.rows(), 5_000);
        assert_eq!(paged.width(), 5);
    }

    #[test]
    fn only_supporting_vectors_are_fetched() {
        // IN [0,16) over 32 values = B4' alone: exactly one vector's
        // pages should miss.
        let cells = sample_cells(4_096, 32);
        let idx = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        let pager = Pager::with_page_size(128);
        let paged = persist_and_open(&idx, &pager, 1024).unwrap();
        paged.reset_pool_stats();
        let r = paged.in_list(&(0..16).collect::<Vec<_>>()).unwrap();
        assert_eq!(r.stats.vectors_accessed, 1);
        // Serialised vector = 1-byte storage tag + 8-byte length header
        // + 4096/8 payload (small index: slices stay dense).
        let pages_per_vector = (1 + 8 + 4_096usize / 8).div_ceil(128) as u64;
        assert_eq!(paged.pool_stats().misses, pages_per_vector);
    }

    #[test]
    fn warm_pool_serves_repeat_queries_from_cache() {
        let cells = sample_cells(2_000, 16);
        let idx = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        let pager = Pager::with_page_size(128);
        let paged = persist_and_open(&idx, &pager, 256).unwrap();
        let _ = paged.eq(3).unwrap();
        pager.reset_stats();
        paged.reset_pool_stats();
        let _ = paged.eq(3).unwrap();
        assert_eq!(pager.stats().page_reads, 0, "second run never hits disk");
        assert!(paged.pool_stats().hit_ratio() > 0.99);
    }

    #[test]
    fn tiny_pool_thrashes() {
        let cells = sample_cells(8_000, 16);
        let idx = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        let pager = Pager::with_page_size(64);
        // 4 slices × ceil(1000/64)=16 pages each = 64 pages working set;
        // a 4-frame pool cannot hold even one vector.
        let paged = persist_and_open(&idx, &pager, 4).unwrap();
        let _ = paged.eq(7).unwrap();
        paged.reset_pool_stats();
        let _ = paged.eq(7).unwrap();
        let s = paged.pool_stats();
        assert!(s.misses > 0, "thrashing pool must miss: {s:?}");
    }

    #[test]
    fn unreadable_pages_are_typed_storage_errors() {
        use ebi_storage::{PageId, StorageError};
        let idx = EncodedBitmapIndex::build(sample_cells(1_000, 8)).unwrap();
        let pager = Pager::with_page_size(64);
        let handle = crate::persist::save_index(&idx, &pager).unwrap();
        // A handle whose vectors lie past the pager: the failure is the
        // page store's, not a corrupt payload.
        let mut lost = handle.clone();
        for h in &mut lost.slices {
            h.first = PageId(h.first.0 + 1_000_000);
        }
        let out_of_range = |e: CoreError| {
            matches!(
                e,
                CoreError::Storage(StorageError::PageOutOfRange { page, .. }) if page >= 1_000_000
            )
        };
        assert!(out_of_range(
            PagedIndex::open(&pager, lost.clone(), 8).unwrap_err()
        ));
        // Opened while the pages were there, queried after they went.
        let mut paged = PagedIndex::open(&pager, handle, 8).unwrap();
        paged.handle = lost;
        assert!(out_of_range(paged.in_list(&[3]).unwrap_err()));
        assert!(out_of_range(paged.range(2, 5).unwrap_err()));
    }

    #[test]
    fn nulls_and_deletes_survive_the_paged_path() {
        let mut cells = sample_cells(500, 8);
        cells[10] = Cell::Null;
        cells[20] = Cell::Null;
        let mut idx = EncodedBitmapIndex::build(cells).unwrap();
        idx.delete(30).unwrap();
        let pager = Pager::new();
        let paged = persist_and_open(&idx, &pager, 32).unwrap();
        for v in 0..8u64 {
            assert_eq!(
                paged.eq(v).unwrap().bitmap,
                idx.eq(v).unwrap().bitmap,
                "value {v}"
            );
        }
        let r = paged.range(2, 5).unwrap();
        assert_eq!(r.bitmap, idx.range(2, 5).unwrap().bitmap);
    }
}
