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
//!
//! [`read_pages`] serves a walk a chunk of up to 32 ascending pages at
//! a time, with three lock round trips per chunk instead of up to three
//! per page: it looks the chunk up under the pool lock, reads the
//! absent pages under one pager lock, then files the chunk's hits and
//! misses in walk order under the pool lock again.

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

/// Pages a walk serves per round of locks: one bit each in a `u32`
/// mask. Also the most spare buffers a pool keeps.
const CHUNK: usize = u32::BITS as usize;

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
    /// Page-sized buffers for the next misses to read into: the buffers
    /// evictions freed, at most one chunk's worth.
    spares: Vec<Box<[u8]>>,
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

    /// Serves `page` from its frame if it is resident.
    fn hit(&mut self, page: u64) -> Option<usize> {
        let f = *self.resident.get(&page)?;
        self.stats.hits += 1;
        self.touch(f);
        Some(f)
    }

    fn keep_spare(&mut self, data: Box<[u8]>) {
        if self.spares.len() < CHUNK {
            self.spares.push(data);
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
                self.keep_spare(data);
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
            self.keep_spare(data);
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
                spares: Vec::new(),
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
            if let Some(f) = inner.hit(id.0) {
                return Ok((view(&inner.frames[f].data), Served::Hit));
            }
            inner.spares.pop()
        };
        let mut data = spare.unwrap_or_else(|| self.new_buffer());
        self.pager.read_into(id, &mut data)?;
        let out = view(&data);
        let evicted = self.inner.lock().admit(id.0, data, self.capacity);
        Ok((out, Served::Miss { evicted }))
    }

    fn new_buffer(&self) -> Box<[u8]> {
        vec![0; self.pager.page_size()].into_boxed_slice()
    }

    /// Serves one chunk of a walk, distinct pages in walk order, as
    /// [`BufferPool::fetch`] would serve each in turn, in three steps:
    ///
    /// 1. under the pool lock, mark the pages that are not resident and
    ///    take a spare buffer for each;
    /// 2. under one pager lock and no pool lock, read them;
    /// 3. under the pool lock, file each read page (`admit`) and touch
    ///    each resident one, in walk order, so every eviction falls as
    ///    it would page by page.
    ///
    /// A page absent at step 1 is still absent at its turn in step 3
    /// unless another reader filed it meanwhile, which `admit` already
    /// covers. A page resident at step 1 may have been evicted since,
    /// by an earlier miss of this chunk or by another reader; it is
    /// then read by [`BufferPool::fetch`] at its turn.
    fn walk_chunk(&self, chunk: &[PageId], bufs: &mut Vec<Box<[u8]>>, walk: &mut PageWalk) {
        // Bit i: `chunk[i]` is read in step 2, into `bufs[k]` for the
        // k-th set bit.
        let mut absent = 0u32;
        {
            let mut inner = self.inner.lock();
            for (i, id) in chunk.iter().enumerate() {
                if !inner.resident.contains_key(&id.0) {
                    absent |= 1 << i;
                    bufs.extend(inner.spares.pop());
                }
            }
        }
        bufs.resize_with(absent.count_ones() as usize, || self.new_buffer());
        let reads = (0..chunk.len()).filter(|i| absent >> i & 1 == 1);
        // Bit k: the pager refused the k-th read.
        let (mut refused, mut k) = (0u32, 0);
        self.pager.read_many(
            reads
                .map(|i| chunk[i])
                .zip(bufs.iter_mut().map(|b| &mut b[..])),
            |read| {
                refused |= u32::from(read.is_err()) << k;
                k += 1;
            },
        );
        let mut read = bufs.drain(..).enumerate();
        let mut inner = self.inner.lock();
        for (i, &id) in chunk.iter().enumerate() {
            if absent >> i & 1 == 1 {
                let (k, data) = read.next().expect("a buffer per absent page");
                if refused >> k & 1 == 1 {
                    inner.keep_spare(data);
                    walk.record(None);
                } else {
                    let evicted = inner.admit(id.0, data, self.capacity);
                    walk.record(Some(Served::Miss { evicted }));
                }
            } else if inner.hit(id.0).is_some() {
                walk.record(Some(Served::Hit));
            } else {
                drop(inner);
                walk.record(self.fetch(id).ok());
                inner = self.inner.lock();
            }
        }
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

/// What one [`read_pages`] walk touched, counted by the walk itself:
/// exact for this walk however many others share the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageWalk {
    /// Pages read.
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
    /// Counts one read through a pool: how it was served, or `None`
    /// when the page store refused it.
    fn record(&mut self, served: Option<Served>) {
        self.pages += 1;
        match served {
            Some(Served::Hit) => self.hits += 1,
            Some(Served::Miss { evicted }) => {
                self.misses += 1;
                self.evictions += u64::from(evicted);
            }
            None => self.errors += 1,
        }
    }

    /// Reads that reached the pager: the pool's misses, or every read
    /// that succeeded when the walk had no pool.
    #[must_use]
    pub fn pager_reads(&self) -> u64 {
        self.pages - self.errors - self.hits
    }
}

/// The fetch that follows a selection: reads each of `pages` once, in
/// the order given, through `pool` when one is given, else straight
/// from `pager`. A selection's pages are the blocks of its bitmap that
/// hold a match (`BitVec::occupied_blocks` over the rows per page),
/// so each comes once and in ascending order. A failed read is counted,
/// never dropped.
///
/// Through a pool, the walk takes its pages a strictly ascending run of
/// at most 32 at a time and serves each run with one pool look, one
/// pager read and one pool update ([`BufferPool::fetch`]'s outcomes,
/// counters and evictions, page for page). A page that does not
/// ascend starts the next run, so the pages of a run are distinct.
pub fn read_pages(
    pages: impl IntoIterator<Item = PageId>,
    pager: &Pager,
    pool: Option<&BufferPool<'_>>,
) -> PageWalk {
    let mut walk = PageWalk::default();
    let mut pages = pages.into_iter().peekable();
    let Some(pool) = pool else {
        let mut scratch = vec![0; pager.page_size()];
        for page in pages {
            walk.pages += 1;
            walk.errors += u64::from(pager.read_into(page, &mut scratch).is_err());
        }
        return walk;
    };
    let (mut chunk, mut bufs) = ([PageId(0); CHUNK], Vec::new());
    while let Some(first) = pages.next() {
        chunk[0] = first;
        let mut len = 1;
        while len < CHUNK {
            let Some(next) = pages.next_if(|&p| p > chunk[len - 1]) else {
                break;
            };
            chunk[len] = next;
            len += 1;
        }
        pool.walk_chunk(&chunk[..len], &mut bufs, &mut walk);
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

    fn pages(ids: &[u64]) -> impl Iterator<Item = PageId> + '_ {
        ids.iter().map(|&i| PageId(i))
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

    #[test]
    fn concurrent_walks_count_what_the_pool_counts() {
        const THREADS: u64 = 4;
        const WALKS: u64 = 500;
        // Page `PAGES` is never allocated; every walk ends on it.
        const PAGES: u64 = 40;
        const FRAMES: usize = 5;
        let pager = pager_with_pages(PAGES);
        let pool = BufferPool::new(&pager, FRAMES);
        let start = std::sync::Barrier::new(THREADS as usize);
        let walks: Vec<PageWalk> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (pool, pager, start) = (&pool, &pager, &start);
                    s.spawn(move || {
                        start.wait();
                        let mut sum = PageWalk::default();
                        for i in 0..WALKS {
                            // Overlapping strided runs, from a few pages
                            // to more than one chunk long.
                            let stride = 1 + (t + i) as usize % 3;
                            let from = i * (t + 1) % 8;
                            let to = PAGES.min(from + [3, 12, PAGES][i as usize % 3]);
                            let ids = (from..to).step_by(stride);
                            let ids = ids.chain([PAGES]).map(PageId);
                            let walk = read_pages(ids, pager, Some(pool));
                            assert!(pool.resident() <= FRAMES, "thread {t} walk {i}");
                            sum.pages += walk.pages;
                            sum.errors += walk.errors;
                            sum.hits += walk.hits;
                            sum.misses += walk.misses;
                            sum.evictions += walk.evictions;
                        }
                        sum
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let sum = |field: fn(&PageWalk) -> u64| walks.iter().map(field).sum::<u64>();
        assert_eq!(sum(|w| w.errors), THREADS * WALKS);
        assert_eq!(
            pool.stats(),
            BufferStats {
                hits: sum(|w| w.hits),
                misses: sum(|w| w.misses),
                evictions: sum(|w| w.evictions),
            }
        );
        assert_eq!(pager.stats().page_reads, pool.stats().misses);
        assert!(pool.stats().evictions > 0);
        for p in 0..PAGES {
            assert_eq!(
                pool.read_page(PageId(p)).unwrap(),
                page_bytes(p),
                "page {p}"
            );
        }
    }

    #[test]
    fn a_chunk_rereads_a_page_its_own_misses_evicted() {
        let pager = pager_with_pages(4);
        let pool = BufferPool::new(&pager, 2);
        pool.fetch(PageId(3)).unwrap();
        pager.reset_stats();
        // 3 is resident when the chunk is looked up, but 1 evicts it
        // before its turn; 3 then evicts 0.
        let walk = read_pages(pages(&[0, 1, 3]), &pager, Some(&pool));
        assert_eq!(
            walk,
            PageWalk {
                pages: 3,
                misses: 3,
                evictions: 2,
                ..PageWalk::default()
            }
        );
        assert_eq!(pager.stats().page_reads, 3);
        assert_eq!(pool.fetch(PageId(3)).unwrap(), Served::Hit);
        assert_eq!(pool.fetch(PageId(1)).unwrap(), Served::Hit);
    }

    #[test]
    fn a_walk_counts_the_evictions_its_misses_cause() {
        let pager = pager_with_pages(3);
        let pool = BufferPool::new(&pager, 2);
        let walk = read_pages(pages(&[0, 1, 2]), &pager, Some(&pool));
        assert_eq!((walk.misses, walk.evictions), (3, 1));
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn a_walk_reads_each_page_once_and_counts_failures() {
        let pager = pager_with_pages(3);
        let pool = BufferPool::new(&pager, 2);
        // Page 3 is not allocated.
        let ids = [1, 2, 3];
        let walk = read_pages(pages(&ids), &pager, Some(&pool));
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
        let warm = read_pages(pages(&ids), &pager, Some(&pool));
        assert_eq!((warm.hits, warm.misses, warm.errors), (2, 0, 1));
        assert_eq!(warm.pager_reads(), 0);
        pager.reset_stats();
        let direct = read_pages(pages(&ids), &pager, None);
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
        assert_eq!(read_pages(pages(&[]), &pager, None), PageWalk::default());
    }
}
