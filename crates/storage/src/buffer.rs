//! An LRU buffer pool over the pager.
//!
//! The paper's cost unit is *disk* accesses; a real system shields the
//! disk with a buffer manager. [`BufferPool`] caches a bounded number of
//! pages with LRU eviction and counts hits and misses, so experiments
//! can show how the encoded index's smaller working set (`log m`
//! vectors instead of `m`) turns into cache hits once the pool is
//! smaller than the simple index's footprint.

use crate::error::StorageError;
use crate::pager::{PageId, Pager};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Mirrors one buffer-pool event into the global metrics registry when
/// the observability subscriber is on. Off path: one relaxed load.
#[inline]
fn publish(name: &'static str) {
    if ebi_obs::enabled() {
        ebi_obs::metrics::global().counter(name, &[]).inc();
    }
}

/// Hit/miss counters for a buffer pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Reads served from the pool.
    pub hits: u64,
    /// Reads that went to the pager.
    pub misses: u64,
    /// Pages evicted.
    pub evictions: u64,
}

impl BufferStats {
    /// Hit ratio in `[0, 1]`; 0 when nothing was read.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

struct PoolInner {
    /// page → (contents, last-use tick).
    cached: HashMap<u64, (Vec<u8>, u64)>,
    tick: u64,
    stats: BufferStats,
}

/// A bounded LRU page cache in front of a [`Pager`].
///
/// ```
/// use ebi_storage::{BufferPool, PageId, Pager};
///
/// let pager = Pager::with_page_size(64);
/// pager.allocate(2);
/// let pool = BufferPool::new(&pager, 2);
/// pool.read_page(PageId(0)).unwrap(); // miss
/// pool.read_page(PageId(0)).unwrap(); // hit
/// assert_eq!(pool.stats().hits, 1);
/// assert_eq!(pager.stats().page_reads, 1, "disk touched once");
/// ```
pub struct BufferPool<'a> {
    pager: &'a Pager,
    capacity: usize,
    inner: Mutex<PoolInner>,
}

impl<'a> BufferPool<'a> {
    /// Creates a pool caching at most `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(pager: &'a Pager, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        Self {
            pager,
            capacity,
            inner: Mutex::new(PoolInner {
                cached: HashMap::with_capacity(capacity),
                tick: 0,
                stats: BufferStats::default(),
            }),
        }
    }

    /// Number of frames.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reads a page through the pool.
    ///
    /// # Errors
    ///
    /// Propagates pager errors on a miss.
    pub fn read_page(&self, id: PageId) -> Result<Vec<u8>, StorageError> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((data, last)) = inner.cached.get_mut(&id.0) {
            *last = tick;
            let out = data.clone();
            inner.stats.hits += 1;
            drop(inner);
            publish("ebi_buffer_hits_total");
            return Ok(out);
        }
        drop(inner); // do not hold the lock across the pager read
        let data = self.pager.read_page(id)?;
        publish("ebi_buffer_misses_total");
        let mut inner = self.inner.lock();
        inner.stats.misses += 1;
        if inner.cached.len() >= self.capacity {
            // Evict the least recently used frame.
            if let Some((&victim, _)) = inner.cached.iter().min_by_key(|(_, (_, last))| *last) {
                inner.cached.remove(&victim);
                inner.stats.evictions += 1;
                publish("ebi_buffer_evictions_total");
            }
        }
        let tick = inner.tick;
        inner.cached.insert(id.0, (data.clone(), tick));
        Ok(data)
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> BufferStats {
        self.inner.lock().stats
    }

    /// Resets counters (cached pages stay resident).
    pub fn reset_stats(&self) {
        self.inner.lock().stats = BufferStats::default();
    }

    /// Drops every cached page.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.cached.clear();
    }

    /// Pages currently resident.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.inner.lock().cached.len()
    }
}

/// What one [`read_row_pages`] walk touched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageWalk {
    /// Distinct pages read.
    pub pages: u64,
    /// Of those, reads the page store refused.
    pub errors: u64,
}

/// The fetch that follows a selection: reads each page holding one of
/// `rows` once, through `pool` when one is given, else straight from
/// `pager`. Row `r` lives on page `base + r / rows_per_page` (values
/// below 1 count as 1); `rows` must ascend, so comparing with the last
/// page id deduplicates. A failed read is counted, never dropped.
pub fn read_row_pages(
    rows: impl IntoIterator<Item = usize>,
    base: PageId,
    rows_per_page: usize,
    pager: &Pager,
    pool: Option<&BufferPool<'_>>,
) -> PageWalk {
    let per = rows_per_page.max(1) as u64;
    let mut walk = PageWalk::default();
    let mut last = None;
    for row in rows {
        let page = PageId(base.0 + row as u64 / per);
        if last == Some(page) {
            continue;
        }
        last = Some(page);
        walk.pages += 1;
        let read = match pool {
            Some(pool) => pool.read_page(page),
            None => pager.read_page(page),
        };
        walk.errors += u64::from(read.is_err());
    }
    walk
}

impl std::fmt::Debug for BufferPool<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("resident", &self.resident())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pager_with_pages(n: u64) -> Pager {
        let pager = Pager::with_page_size(16);
        pager.allocate(n);
        for i in 0..n {
            pager.write_page(PageId(i), &[i as u8; 16]).unwrap();
        }
        pager
    }

    #[test]
    fn hits_after_first_read() {
        let pager = pager_with_pages(4);
        let pool = BufferPool::new(&pager, 4);
        let a1 = pool.read_page(PageId(1)).unwrap();
        let a2 = pool.read_page(PageId(1)).unwrap();
        assert_eq!(a1, a2);
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_coldest_page() {
        let pager = pager_with_pages(3);
        let pool = BufferPool::new(&pager, 2);
        pool.read_page(PageId(0)).unwrap(); // miss
        pool.read_page(PageId(1)).unwrap(); // miss
        pool.read_page(PageId(0)).unwrap(); // hit → 0 is warm
        pool.read_page(PageId(2)).unwrap(); // miss, evicts 1
        pool.read_page(PageId(0)).unwrap(); // still cached → hit
        pool.read_page(PageId(1)).unwrap(); // evicted → miss
        let s = pool.stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 2);
        assert!(s.evictions >= 2);
        assert!(pool.resident() <= 2);
    }

    #[test]
    fn working_set_within_capacity_reaches_full_hits() {
        let pager = pager_with_pages(8);
        let pool = BufferPool::new(&pager, 4);
        // Touch pages 0..4 repeatedly: after the cold pass, all hits.
        for _ in 0..10 {
            for p in 0..4u64 {
                pool.read_page(PageId(p)).unwrap();
            }
        }
        let s = pool.stats();
        assert_eq!(s.misses, 4, "only the cold pass misses");
        assert_eq!(s.hits, 36);
    }

    #[test]
    fn pager_only_sees_misses() {
        let pager = pager_with_pages(2);
        pager.reset_stats();
        let pool = BufferPool::new(&pager, 2);
        for _ in 0..5 {
            pool.read_page(PageId(0)).unwrap();
        }
        assert_eq!(pager.stats().page_reads, 1, "disk touched once");
    }

    #[test]
    fn clear_and_reset() {
        let pager = pager_with_pages(2);
        let pool = BufferPool::new(&pager, 2);
        pool.read_page(PageId(0)).unwrap();
        pool.clear();
        assert_eq!(pool.resident(), 0);
        pool.reset_stats();
        assert_eq!(pool.stats(), BufferStats::default());
        assert_eq!(pool.capacity(), 2);
        // After clear, reading misses again.
        pool.read_page(PageId(0)).unwrap();
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn missing_page_error_propagates() {
        let pager = Pager::with_page_size(16);
        let pool = BufferPool::new(&pager, 1);
        assert!(pool.read_page(PageId(9)).is_err());
        assert_eq!(pool.stats().hits, 0);
    }

    #[test]
    fn global_metrics_mirror_traffic_when_enabled() {
        let reg = ebi_obs::metrics::global();
        let hits0 = reg.counter("ebi_buffer_hits_total", &[]).get();
        let miss0 = reg.counter("ebi_buffer_misses_total", &[]).get();
        let reads0 = reg.counter("ebi_pager_page_reads_total", &[]).get();

        let pager = pager_with_pages(2);
        let pool = BufferPool::new(&pager, 2);
        // Disabled: the registry must not move for these reads.
        ebi_obs::set_enabled(false);
        pool.read_page(PageId(0)).unwrap();
        assert_eq!(reg.counter("ebi_buffer_misses_total", &[]).get(), miss0);

        ebi_obs::set_enabled(true);
        pool.read_page(PageId(0)).unwrap(); // hit
        pool.read_page(PageId(1)).unwrap(); // miss → pager read
        ebi_obs::set_enabled(false);

        // Deltas are >= because parallel tests may also publish.
        assert!(reg.counter("ebi_buffer_hits_total", &[]).get() > hits0);
        assert!(reg.counter("ebi_buffer_misses_total", &[]).get() > miss0);
        assert!(reg.counter("ebi_pager_page_reads_total", &[]).get() > reads0);
    }

    #[test]
    fn row_walk_reads_each_page_once_and_counts_failures() {
        let pager = pager_with_pages(3);
        let pool = BufferPool::new(&pager, 2);
        // 4 rows per page from page 1 on: rows 0..4 → page 1, 4..8 →
        // page 2, 8.. → page 3, which is not allocated.
        let rows = [0usize, 1, 3, 4, 9, 10];
        let walk = read_row_pages(rows, PageId(1), 4, &pager, Some(&pool));
        assert_eq!(
            walk,
            PageWalk {
                pages: 3,
                errors: 1
            }
        );
        assert_eq!(pool.stats().misses, 2, "the failed read caches nothing");
        pager.reset_stats();
        assert_eq!(read_row_pages(rows, PageId(1), 4, &pager, None), walk);
        assert_eq!(
            pager.stats().page_reads,
            2,
            "no pool: straight to the pager"
        );
        // rows_per_page 0 is treated as 1; no rows, no reads.
        assert_eq!(read_row_pages([0, 1], PageId(0), 0, &pager, None).pages, 2);
        assert_eq!(
            read_row_pages([], PageId(0), 4, &pager, None),
            PageWalk::default()
        );
    }
}
