//! In-memory pager with I/O accounting.

use crate::error::StorageError;
use parking_lot::Mutex;

/// Default page size: 4 KiB, the `p = 4K` of the paper's §2.1 cost
/// analysis.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Identifier of one page inside a [`Pager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

/// Cumulative I/O counters.
///
/// These are the observable quantities of the paper's cost model: query
/// cost is dominated by pages read, build cost by pages written.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages fetched via [`Pager::read_page`].
    pub page_reads: u64,
    /// Pages stored via [`Pager::write_page`].
    pub page_writes: u64,
    /// Pages ever allocated.
    pub pages_allocated: u64,
}

/// The pages and their counters, behind the pager's one lock.
#[derive(Debug, Default)]
struct PagerInner {
    pages: Vec<Box<[u8]>>,
    stats: IoStats,
}

/// An in-memory page store with a fixed page size and read/write counters.
///
/// Counters use interior mutability so reads can be counted through
/// shared references, mirroring how a buffer manager observes traffic.
/// Pages and counters share one lock, so no method ever holds two.
#[derive(Debug)]
pub struct Pager {
    page_size: usize,
    inner: Mutex<PagerInner>,
}

impl Pager {
    /// Creates a pager with the default 4 KiB page size.
    #[must_use]
    pub fn new() -> Self {
        Self::with_page_size(DEFAULT_PAGE_SIZE)
    }

    /// Creates a pager with a custom page size (must be non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `page_size == 0`.
    #[must_use]
    pub fn with_page_size(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Self {
            page_size,
            inner: Mutex::new(PagerInner::default()),
        }
    }

    /// The page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of allocated pages.
    #[must_use]
    pub fn page_count(&self) -> u64 {
        self.inner.lock().pages.len() as u64
    }

    /// Total bytes of allocated storage.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.inner.lock().pages.len() * self.page_size
    }

    /// Allocates `n` zeroed pages, returning the id of the first.
    pub fn allocate(&self, n: u64) -> PageId {
        let mut inner = self.inner.lock();
        let first = inner.pages.len() as u64;
        for _ in 0..n {
            inner
                .pages
                .push(vec![0u8; self.page_size].into_boxed_slice());
        }
        inner.stats.pages_allocated += n;
        PageId(first)
    }

    /// Writes `data` into page `id` starting at offset 0. Shorter payloads
    /// leave the page's tail untouched.
    ///
    /// # Errors
    ///
    /// [`StorageError::PageOutOfRange`] for unallocated ids,
    /// [`StorageError::PayloadTooLarge`] if `data` exceeds the page size.
    pub fn write_page(&self, id: PageId, data: &[u8]) -> Result<(), StorageError> {
        if data.len() > self.page_size {
            return Err(StorageError::PayloadTooLarge {
                len: data.len(),
                page_size: self.page_size,
            });
        }
        let mut inner = self.inner.lock();
        let allocated = inner.pages.len() as u64;
        let page = inner
            .pages
            .get_mut(id.0 as usize)
            .ok_or(StorageError::PageOutOfRange {
                page: id.0,
                allocated,
            })?;
        page[..data.len()].copy_from_slice(data);
        inner.stats.page_writes += 1;
        Ok(())
    }

    /// Reads page `id`, counting one page read.
    ///
    /// # Errors
    ///
    /// [`StorageError::PageOutOfRange`] for unallocated ids.
    pub fn read_page(&self, id: PageId) -> Result<Vec<u8>, StorageError> {
        let mut page = vec![0u8; self.page_size];
        self.read_into(id, &mut page)?;
        Ok(page)
    }

    /// Reads page `id` into `buf`, counting one page read: the read a
    /// buffer pool makes into a frame it already owns.
    ///
    /// # Errors
    ///
    /// [`StorageError::PageOutOfRange`] for unallocated ids; `buf` is
    /// then left as it was.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not exactly one page long.
    pub fn read_into(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        assert_eq!(buf.len(), self.page_size, "a page read fills one page");
        let mut inner = self.inner.lock();
        let allocated = inner.pages.len() as u64;
        let page = inner
            .pages
            .get(id.0 as usize)
            .ok_or(StorageError::PageOutOfRange {
                page: id.0,
                allocated,
            })?;
        buf.copy_from_slice(page);
        inner.stats.page_reads += 1;
        Ok(())
    }

    /// Snapshot of the I/O counters.
    #[must_use]
    pub fn stats(&self) -> IoStats {
        self.inner.lock().stats
    }

    /// Resets the I/O counters (allocation count included).
    pub fn reset_stats(&self) {
        self.inner.lock().stats = IoStats::default();
    }

    /// Pages needed to store `bytes` bytes at this page size.
    #[must_use]
    pub fn pages_for(&self, bytes: usize) -> u64 {
        (bytes.div_ceil(self.page_size)) as u64
    }
}

impl Default for Pager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_write_read_roundtrip() {
        let pager = Pager::with_page_size(64);
        let first = pager.allocate(3);
        assert_eq!(first, PageId(0));
        assert_eq!(pager.page_count(), 3);
        pager.write_page(PageId(1), b"hello").unwrap();
        let back = pager.read_page(PageId(1)).unwrap();
        assert_eq!(&back[..5], b"hello");
        assert_eq!(back.len(), 64);
        // Unwritten page reads back zeroed.
        assert!(pager.read_page(PageId(2)).unwrap().iter().all(|&b| b == 0));
        // Reading into a caller's frame gives the same bytes.
        let mut frame = [0xFFu8; 64];
        pager.read_into(PageId(1), &mut frame).unwrap();
        assert_eq!(frame[..], back[..]);
        assert_eq!(pager.stats().page_reads, 3);
    }

    #[test]
    fn io_stats_count_operations() {
        let pager = Pager::with_page_size(32);
        pager.allocate(2);
        pager.write_page(PageId(0), b"x").unwrap();
        pager.write_page(PageId(1), b"y").unwrap();
        let _ = pager.read_page(PageId(0)).unwrap();
        let s = pager.stats();
        assert_eq!(s.pages_allocated, 2);
        assert_eq!(s.page_writes, 2);
        assert_eq!(s.page_reads, 1);
        pager.reset_stats();
        assert_eq!(pager.stats(), IoStats::default());
    }

    #[test]
    fn out_of_range_access_fails() {
        let pager = Pager::with_page_size(32);
        assert!(matches!(
            pager.read_page(PageId(0)),
            Err(StorageError::PageOutOfRange { .. })
        ));
        pager.allocate(1);
        assert!(pager.write_page(PageId(5), b"z").is_err());
        // A refused read leaves the frame as it was and counts nothing.
        let mut frame = [7u8; 32];
        assert!(pager.read_into(PageId(1), &mut frame).is_err());
        assert_eq!(frame, [7u8; 32]);
        assert_eq!(pager.stats().page_reads, 0);
    }

    #[test]
    fn oversized_payload_rejected() {
        let pager = Pager::with_page_size(4);
        pager.allocate(1);
        assert!(matches!(
            pager.write_page(PageId(0), b"12345"),
            Err(StorageError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn pages_for_rounds_up() {
        let pager = Pager::with_page_size(100);
        assert_eq!(pager.pages_for(0), 0);
        assert_eq!(pager.pages_for(1), 1);
        assert_eq!(pager.pages_for(100), 1);
        assert_eq!(pager.pages_for(101), 2);
    }

    #[test]
    fn allocation_is_contiguous() {
        let pager = Pager::with_page_size(16);
        let a = pager.allocate(2);
        let b = pager.allocate(1);
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(2));
        assert_eq!(pager.storage_bytes(), 48);
    }
}
