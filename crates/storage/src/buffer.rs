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

/// How the pool served one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    /// From a resident frame.
    Hit,
    /// From the pager; `evicted` says whether a frame made room.
    Miss { evicted: bool },
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
        self.fetch(id).map(|(data, _)| data)
    }

    /// [`Self::read_page`], also saying how the read was served, so a
    /// caller can count its own reads while others share the pool.
    fn fetch(&self, id: PageId) -> Result<(Vec<u8>, Served), StorageError> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((data, last)) = inner.cached.get_mut(&id.0) {
            *last = tick;
            let out = data.clone();
            inner.stats.hits += 1;
            return Ok((out, Served::Hit));
        }
        drop(inner); // do not hold the lock across the pager read
        let data = self.pager.read_page(id)?;
        let mut inner = self.inner.lock();
        inner.stats.misses += 1;
        let mut evicted = false;
        if inner.cached.len() >= self.capacity {
            // Evict the least recently used frame.
            if let Some((&victim, _)) = inner.cached.iter().min_by_key(|(_, (_, last))| *last) {
                inner.cached.remove(&victim);
                inner.stats.evictions += 1;
                evicted = true;
            }
        }
        let tick = inner.tick;
        inner.cached.insert(id.0, (data.clone(), tick));
        Ok((data, Served::Miss { evicted }))
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

/// What one [`read_row_pages`] walk touched, counted by the walk
/// itself: exact for this walk however many others share the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageWalk {
    /// Distinct pages read.
    pub pages: u64,
    /// Of those, reads the page store refused.
    pub errors: u64,
    /// Reads the pool served from a resident frame (0 with no pool).
    pub hits: u64,
    /// Reads the pool passed to the pager (0 with no pool).
    pub misses: u64,
    /// Frames this walk's misses evicted.
    pub evictions: u64,
}

impl PageWalk {
    /// Reads that reached the pager: the pool's misses, or every read
    /// that succeeded when the walk had no pool.
    #[must_use]
    pub fn pager_reads(&self) -> u64 {
        self.pages - self.errors - self.hits
    }
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
        match pool.map(|pool| pool.fetch(page)) {
            Some(Ok((_, Served::Hit))) => walk.hits += 1,
            Some(Ok((_, Served::Miss { evicted }))) => {
                walk.misses += 1;
                walk.evictions += u64::from(evicted);
            }
            Some(Err(_)) => walk.errors += 1,
            None => walk.errors += u64::from(pager.read_page(page).is_err()),
        }
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
    fn a_walk_counts_the_evictions_its_misses_cause() {
        let pager = pager_with_pages(3);
        let pool = BufferPool::new(&pager, 2);
        let walk = read_row_pages([0usize, 1, 2], PageId(0), 1, &pager, Some(&pool));
        assert_eq!((walk.misses, walk.evictions), (3, 1));
        assert_eq!(pool.stats().evictions, 1);
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
                errors: 1,
                misses: 2,
                ..PageWalk::default()
            }
        );
        assert_eq!(pool.stats().misses, 2, "the failed read caches nothing");
        assert_eq!(walk.pager_reads(), 2);
        // Again through the now warm pool: the walk counts its own hits.
        let warm = read_row_pages(rows, PageId(1), 4, &pager, Some(&pool));
        assert_eq!((warm.hits, warm.misses, warm.errors), (2, 0, 1));
        assert_eq!(warm.pager_reads(), 0);
        pager.reset_stats();
        let direct = read_row_pages(rows, PageId(1), 4, &pager, None);
        assert_eq!(
            direct,
            PageWalk {
                pages: 3,
                errors: 1,
                ..PageWalk::default()
            }
        );
        assert_eq!(
            pager.stats().page_reads,
            direct.pager_reads(),
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
