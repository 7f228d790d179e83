//! An LRU buffer pool over the pager.
//!
//! The paper's cost unit is *disk* accesses; a real system shields the
//! disk with a buffer manager. [`BufferPool`] caches a bounded number of
//! pages with LRU eviction and counts hits and misses, so experiments
//! can show how the encoded index's smaller working set (`log m`
//! vectors instead of `m`) turns into cache hits once the pool is
//! smaller than the simple index's footprint.
//!
//! The pool is an arena of at most `capacity` page-sized frames, a map
//! from page to frame hashed by one multiply, and a recency list
//! threaded through the frames, so a hit and an eviction each cost
//! O(1). A miss reads the page into a spare buffer with no pool lock
//! held, then swaps it with the victim's buffer under the lock: no lock
//! is held across a pager read, and a full pool allocates nothing.

use crate::error::StorageError;
use crate::pager::{PageId, Pager};
use parking_lot::Mutex;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

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
pub enum Served {
    /// From a resident frame.
    Hit,
    /// From the pager; `evicted` says whether a frame made room.
    Miss {
        /// A resident page was evicted to make room.
        evicted: bool,
    },
}

/// The end of the recency list.
const NIL: usize = usize::MAX;

/// Fx-style hashing: a page id is dense and picked by nothing
/// untrusted, so one multiply by 2^64 / φ spreads ids over the buckets
/// without SipHash's flood resistance or its cost.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One page-sized frame and its links in the recency list.
struct Frame {
    page: u64,
    data: Box<[u8]>,
    /// The next more recently used frame.
    newer: usize,
    /// The next less recently used frame.
    older: usize,
}

struct PoolInner {
    /// At most `capacity` frames; eviction reuses one in place.
    frames: Vec<Frame>,
    /// page → index into `frames`.
    resident: HashMap<u64, usize, BuildHasherDefault<PageHasher>>,
    /// Ends of the recency list (`NIL` when no frame is resident).
    newest: usize,
    oldest: usize,
    /// A page-sized buffer for the next miss to read into: the buffer
    /// the last eviction freed.
    spare: Option<Box<[u8]>>,
    stats: BufferStats,
}

impl PoolInner {
    fn unlink(&mut self, f: usize) {
        let (newer, older) = (self.frames[f].newer, self.frames[f].older);
        match newer {
            NIL => self.newest = older,
            n => self.frames[n].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.frames[o].newer = newer,
        }
    }

    fn push_newest(&mut self, f: usize) {
        self.frames[f].newer = NIL;
        self.frames[f].older = self.newest;
        match self.newest {
            NIL => self.oldest = f,
            n => self.frames[n].newer = f,
        }
        self.newest = f;
    }

    fn touch(&mut self, f: usize) {
        if self.newest != f {
            self.unlink(f);
            self.push_newest(f);
        }
    }

    /// Files `page`, just read from the pager into `data`, as the most
    /// recently used frame, evicting the least recently used one when
    /// all `capacity` are taken. Returns whether a frame was evicted.
    fn admit(&mut self, page: u64, mut data: Box<[u8]>, capacity: usize) -> bool {
        self.stats.misses += 1;
        let evicted = self.frames.len() >= capacity;
        let f = if evicted {
            self.oldest
        } else {
            self.frames.len()
        };
        match self.resident.entry(page) {
            Entry::Occupied(resident) => {
                // Another reader brought the page in while this one read it.
                let f = *resident.get();
                self.touch(f);
                self.spare = Some(data);
                return false;
            }
            Entry::Vacant(slot) => {
                slot.insert(f);
            }
        }
        if evicted {
            self.unlink(f);
            let frame = &mut self.frames[f];
            self.resident.remove(&frame.page);
            frame.page = page;
            std::mem::swap(&mut frame.data, &mut data);
            self.spare = Some(data);
            self.stats.evictions += 1;
        } else {
            self.frames.push(Frame {
                page,
                data,
                newer: NIL,
                older: NIL,
            });
        }
        self.push_newest(f);
        evicted
    }
}

/// A bounded LRU page cache in front of a [`Pager`].
///
/// ```
/// use ebi_storage::{BufferPool, PageId, Pager, Served};
///
/// let pager = Pager::with_page_size(64);
/// pager.allocate(2);
/// let pool = BufferPool::new(&pager, 2);
/// pool.read_page(PageId(0)).unwrap(); // miss
/// assert_eq!(pool.fetch(PageId(0)).unwrap(), Served::Hit);
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
                frames: Vec::with_capacity(capacity),
                resident: HashMap::with_capacity_and_hasher(
                    capacity,
                    BuildHasherDefault::default(),
                ),
                newest: NIL,
                oldest: NIL,
                spare: None,
                stats: BufferStats::default(),
            }),
        }
    }

    /// Number of frames.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reads a page through the pool and returns a copy of it.
    ///
    /// # Errors
    ///
    /// Propagates pager errors on a miss.
    pub fn read_page(&self, id: PageId) -> Result<Vec<u8>, StorageError> {
        self.serve(id, <[u8]>::to_vec).map(|(data, _)| data)
    }

    /// Reads a page through the pool, copying nothing out, and says how
    /// the read was served, so a caller can count its own reads while
    /// others share the pool.
    ///
    /// # Errors
    ///
    /// Propagates pager errors on a miss; the failed read caches and
    /// evicts nothing.
    pub fn fetch(&self, id: PageId) -> Result<Served, StorageError> {
        self.serve(id, |_| ()).map(|((), served)| served)
    }

    /// The one read path. `view` sees the page's bytes: in its frame,
    /// under the lock, on a hit; in the buffer just read, with no lock
    /// held, on a miss.
    fn serve<T>(
        &self,
        id: PageId,
        view: impl FnOnce(&[u8]) -> T,
    ) -> Result<(T, Served), StorageError> {
        let spare = {
            let mut inner = self.inner.lock();
            if let Some(&f) = inner.resident.get(&id.0) {
                inner.stats.hits += 1;
                inner.touch(f);
                return Ok((view(&inner.frames[f].data), Served::Hit));
            }
            inner.spare.take()
        };
        let mut data = spare.unwrap_or_else(|| vec![0; self.pager.page_size()].into_boxed_slice());
        self.pager.read_into(id, &mut data)?;
        let out = view(&data);
        let evicted = self.inner.lock().admit(id.0, data, self.capacity);
        Ok((out, Served::Miss { evicted }))
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
        inner.frames.clear();
        inner.resident.clear();
        inner.newest = NIL;
        inner.oldest = NIL;
    }

    /// Pages currently resident.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.inner.lock().resident.len()
    }
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

    /// Page `i`'s bytes, distinct in every position from every other
    /// page's.
    fn page_bytes(i: u64) -> [u8; 16] {
        std::array::from_fn(|j| (i as u8).wrapping_mul(17).wrapping_add(j as u8))
    }

    fn pager_with_pages(n: u64) -> Pager {
        let pager = Pager::with_page_size(16);
        pager.allocate(n);
        for i in 0..n {
            pager.write_page(PageId(i), &page_bytes(i)).unwrap();
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
        assert_eq!(a1, page_bytes(1));
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_coldest_page() {
        let pager = pager_with_pages(3);
        let pool = BufferPool::new(&pager, 2);
        let served: Vec<Served> = [0, 1, 0, 2, 0, 1]
            .map(|p| pool.fetch(PageId(p)).unwrap())
            .to_vec();
        let (hit, cold, evict) = (
            Served::Hit,
            Served::Miss { evicted: false },
            Served::Miss { evicted: true },
        );
        // 0 is warm when 2 arrives, so 1 goes; then 1 evicts 2.
        assert_eq!(served, [cold, cold, hit, evict, hit, evict]);
        let s = pool.stats();
        assert_eq!((s.misses, s.hits, s.evictions), (4, 2, 2));
        assert_eq!(pool.resident(), 2);
        // The evicted frames were reused in place and hold their new pages.
        assert_eq!(pool.read_page(PageId(1)).unwrap(), page_bytes(1));
        assert_eq!(pool.read_page(PageId(0)).unwrap(), page_bytes(0));
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
        let pager = pager_with_pages(1);
        let pool = BufferPool::new(&pager, 1);
        pool.read_page(PageId(0)).unwrap();
        assert!(pool.read_page(PageId(9)).is_err());
        assert!(pool.fetch(PageId(9)).is_err());
        // The failed reads evicted nothing and counted no miss.
        assert_eq!(
            pool.stats(),
            BufferStats {
                misses: 1,
                ..BufferStats::default()
            }
        );
        assert_eq!(pool.fetch(PageId(0)).unwrap(), Served::Hit);
    }

    #[test]
    fn concurrent_readers_get_their_own_pages() {
        const THREADS: usize = 4;
        const READS: usize = 10_000;
        const PAGES: u64 = 12;
        const FRAMES: usize = 5;
        let pager = pager_with_pages(PAGES);
        let pool = BufferPool::new(&pager, FRAMES);
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (pool, start) = (&pool, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..READS {
                        // Each thread strides through all twelve pages at
                        // its own pace, so every page is read by them all.
                        let page = ((i * (t + 1) + t) as u64) % PAGES;
                        let got = pool.read_page(PageId(page)).unwrap();
                        assert_eq!(got, page_bytes(page), "thread {t} read {i}");
                        assert!(pool.resident() <= FRAMES);
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, (THREADS * READS) as u64);
        assert_eq!(
            pager.stats().page_reads,
            s.misses,
            "one pager read per miss"
        );
        // Full, with every frame holding a page no other frame holds.
        assert_eq!(pool.resident(), FRAMES);
    }

    #[test]
    fn a_page_another_reader_admitted_first_keeps_its_one_frame() {
        // Two readers missed page 1 and both read it; the first filed
        // it, and now the second takes the lock.
        let pager = pager_with_pages(3);
        let pool = BufferPool::new(&pager, 2);
        pool.read_page(PageId(1)).unwrap();
        pool.read_page(PageId(2)).unwrap();
        let late = pager.read_page(PageId(1)).unwrap().into_boxed_slice();
        assert!(!pool.inner.lock().admit(1, late, pool.capacity()));
        assert_eq!(pool.resident(), 2);
        assert_eq!(
            pool.stats(),
            BufferStats {
                misses: 3,
                ..BufferStats::default()
            }
        );
        // The late read made 1 the most recent page, so 0 evicts 2.
        assert_eq!(
            pool.fetch(PageId(0)).unwrap(),
            Served::Miss { evicted: true }
        );
        assert_eq!(pool.fetch(PageId(1)).unwrap(), Served::Hit);
        assert_eq!(pool.read_page(PageId(1)).unwrap(), page_bytes(1));
    }
}
