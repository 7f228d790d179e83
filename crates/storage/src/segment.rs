//! Multi-page byte segments.
//!
//! A *segment* is a contiguous run of pages holding one byte blob — the
//! unit in which bitmap vectors and mapping tables are persisted. Reading
//! a segment charges `ceil(len / page_size)` page reads against the
//! pager, which is exactly how the paper converts "bitmap vectors
//! accessed" into disk accesses.

use crate::error::StorageError;
use crate::pager::{PageId, Pager};

/// Handle to a stored segment: first page, page span and exact byte
/// length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHandle {
    /// First page of the segment.
    pub first: PageId,
    /// Number of pages spanned.
    pub pages: u64,
    /// Exact blob length in bytes.
    pub len: usize,
}

impl SegmentHandle {
    /// Pages this segment spans — the per-access read cost.
    #[must_use]
    pub fn page_span(&self) -> u64 {
        self.pages
    }
}

/// Writes `blob` as a new segment, allocating pages as needed.
///
/// # Errors
///
/// Propagates pager write failures (cannot occur for freshly allocated
/// pages, but the signature stays honest).
pub fn write_segment(pager: &Pager, blob: &[u8]) -> Result<SegmentHandle, StorageError> {
    let span = pager.pages_for(blob.len());
    let first = pager.allocate(span.max(1));
    for (i, chunk) in blob.chunks(pager.page_size()).enumerate() {
        pager.write_page(PageId(first.0 + i as u64), chunk)?;
    }
    Ok(SegmentHandle {
        first,
        pages: span.max(1),
        len: blob.len(),
    })
}

/// The one segment read: checks the handle against the page size, then
/// concatenates the spanned pages as `read_page` delivers them.
fn read_pages(
    page_size: usize,
    handle: &SegmentHandle,
    read_page: impl Fn(PageId) -> Result<Vec<u8>, StorageError>,
) -> Result<Vec<u8>, StorageError> {
    if handle.len > (handle.pages as usize) * page_size {
        return Err(StorageError::CorruptSegment {
            detail: format!(
                "{} bytes cannot fit in {} pages of {page_size}",
                handle.len, handle.pages
            ),
        });
    }
    let mut out = Vec::with_capacity(handle.len);
    for i in 0..handle.pages {
        let page = read_page(PageId(handle.first.0 + i))?;
        let remaining = handle.len - out.len();
        out.extend_from_slice(&page[..remaining.min(page.len())]);
    }
    out.truncate(handle.len);
    Ok(out)
}

/// Reads a segment back, charging one page read per spanned page.
///
/// # Errors
///
/// [`StorageError::PageOutOfRange`] if the handle points outside the
/// pager; [`StorageError::CorruptSegment`] if the handle's length exceeds
/// its page span.
pub fn read_segment(pager: &Pager, handle: &SegmentHandle) -> Result<Vec<u8>, StorageError> {
    read_pages(pager.page_size(), handle, |id| pager.read_page(id))
}

/// Reads a segment through a [`crate::buffer::BufferPool`], charging the
/// pager only on cache misses.
///
/// # Errors
///
/// Same failure modes as [`read_segment`].
pub fn read_segment_buffered(
    pool: &crate::buffer::BufferPool<'_>,
    page_size: usize,
    handle: &SegmentHandle,
) -> Result<Vec<u8>, StorageError> {
    read_pages(page_size, handle, |id| pool.read_page(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffered_read_matches_direct_and_caches() {
        use crate::buffer::BufferPool;
        let pager = Pager::with_page_size(16);
        let blob: Vec<u8> = (0..80u8).collect();
        let h = write_segment(&pager, &blob).unwrap();
        let pool = BufferPool::new(&pager, 8);
        assert_eq!(
            read_segment_buffered(&pool, pager.page_size(), &h).unwrap(),
            blob
        );
        pager.reset_stats();
        assert_eq!(
            read_segment_buffered(&pool, pager.page_size(), &h).unwrap(),
            blob
        );
        assert_eq!(pager.stats().page_reads, 0, "second read fully cached");
        // Corrupt handles are rejected without touching the pool.
        let bogus = SegmentHandle { len: 1000, ..h };
        assert!(read_segment_buffered(&pool, pager.page_size(), &bogus).is_err());
    }

    #[test]
    fn roundtrip_multi_page_blob() {
        let pager = Pager::with_page_size(16);
        let blob: Vec<u8> = (0..100u8).collect();
        let h = write_segment(&pager, &blob).unwrap();
        assert_eq!(h.pages, 7); // ceil(100/16)
        assert_eq!(read_segment(&pager, &h).unwrap(), blob);
    }

    #[test]
    fn read_charges_one_io_per_page() {
        let pager = Pager::with_page_size(16);
        let h = write_segment(&pager, &[1u8; 40]).unwrap();
        pager.reset_stats();
        let _ = read_segment(&pager, &h).unwrap();
        assert_eq!(pager.stats().page_reads, 3); // ceil(40/16)
    }

    #[test]
    fn empty_blob_still_occupies_one_page() {
        let pager = Pager::with_page_size(16);
        let h = write_segment(&pager, &[]).unwrap();
        assert_eq!(h.pages, 1);
        assert_eq!(h.len, 0);
        assert_eq!(read_segment(&pager, &h).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn exact_page_multiple() {
        let pager = Pager::with_page_size(8);
        let blob = vec![7u8; 24];
        let h = write_segment(&pager, &blob).unwrap();
        assert_eq!(h.pages, 3);
        assert_eq!(read_segment(&pager, &h).unwrap(), blob);
    }

    #[test]
    fn corrupt_handle_detected() {
        let pager = Pager::with_page_size(8);
        let h = write_segment(&pager, &[0u8; 8]).unwrap();
        let bogus = SegmentHandle { len: 100, ..h };
        assert!(matches!(
            read_segment(&pager, &bogus),
            Err(StorageError::CorruptSegment { .. })
        ));
    }

    #[test]
    fn segments_are_independent() {
        let pager = Pager::with_page_size(8);
        let a = write_segment(&pager, b"aaaaaaaaaa").unwrap();
        let b = write_segment(&pager, b"bbbb").unwrap();
        assert_eq!(read_segment(&pager, &a).unwrap(), b"aaaaaaaaaa");
        assert_eq!(read_segment(&pager, &b).unwrap(), b"bbbb");
    }
}
