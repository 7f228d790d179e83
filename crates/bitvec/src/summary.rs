//! Per-segment population summaries for pruning query evaluation.
//!
//! A [`SegmentSummary`] records, for one bitmap vector, the number of set
//! bits in each fixed-size *segment* ([`SEGMENT_BITS`] = 32 768 rows, the
//! kernel's evaluation window). The fused evaluation kernel (see
//! [`crate::kernels`]) consults these summaries to skip whole segments
//! without reading a single bitmap word:
//!
//! * a **positive** literal whose slice has *no* ones in a segment makes
//!   the whole product term zero there;
//! * a **negated** literal whose slice is *all ones* in a segment
//!   likewise zeroes the term there.
//!
//! Summaries are built once at index-construction time (`O(n)` popcounts
//! the builder has effectively already paid) and cost 2 bytes per
//! 32 768 rows per slice — 0.05% of a dense slice's 4 KiB per segment.

use crate::core::BitVec;
use crate::kernels::{SEGMENT_BITS, SEGMENT_WORDS};

/// Per-segment one-counts for a single bitmap vector.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentSummary {
    /// One count per segment; `SEGMENT_BITS` fits in `u16` (the kernel
    /// asserts it at compile time).
    ones: Vec<u16>,
    /// Bit length of the summarised vector.
    len: usize,
}

impl SegmentSummary {
    /// Builds the summary for `bits` by popcounting each segment.
    #[must_use]
    pub fn build(bits: &BitVec) -> Self {
        let ones = bits
            .words()
            .chunks(SEGMENT_WORDS)
            .map(|seg| {
                seg.iter()
                    .map(|w| w.count_ones())
                    .sum::<u32>()
                    .try_into()
                    .expect("segment popcount exceeds SEGMENT_BITS")
            })
            .collect();
        Self {
            ones,
            len: bits.len(),
        }
    }

    /// Number of segments covered (the last may be partial).
    #[must_use]
    pub fn segments(&self) -> usize {
        self.ones.len()
    }

    /// Bit length of the summarised vector.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the summarised vector was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits within segment `seg`.
    ///
    /// # Panics
    ///
    /// Panics if `seg >= self.segments()`.
    #[must_use]
    pub fn ones_in(&self, seg: usize) -> u32 {
        u32::from(self.ones[seg])
    }

    /// Number of valid bits in segment `seg` ([`SEGMENT_BITS`] except
    /// for a trailing partial segment).
    #[must_use]
    pub fn segment_bits(&self, seg: usize) -> usize {
        let start = seg * SEGMENT_BITS;
        debug_assert!(start < self.len || (self.len == 0 && seg == 0));
        (self.len - start).min(SEGMENT_BITS)
    }

    /// `true` if the vector has no set bits in segment `seg`: a positive
    /// literal over it annihilates any product term there.
    #[must_use]
    pub fn segment_is_zero(&self, seg: usize) -> bool {
        self.ones[seg] == 0
    }

    /// `true` if every valid bit of segment `seg` is set: a negated
    /// literal over it annihilates any product term there.
    #[must_use]
    pub fn segment_is_full(&self, seg: usize) -> bool {
        self.ones_in(seg) as usize == self.segment_bits(seg)
    }

    /// Recomputes the summary over `bits` in place, reusing the count
    /// buffer (for index maintenance after appends or deletes).
    pub fn rebuild(&mut self, bits: &BitVec) {
        self.ones.clear();
        self.ones
            .extend(bits.words().chunks(SEGMENT_WORDS).map(|seg| {
                let c: u32 = seg.iter().map(|w| w.count_ones()).sum();
                u16::try_from(c).expect("segment popcount exceeds SEGMENT_BITS")
            }));
        self.len = bits.len();
    }

    /// Heap bytes used by the summary.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.ones.len() * core::mem::size_of::<u16>()
    }
}

/// Builds summaries for a whole slice family.
#[must_use]
pub fn summarize_slices(slices: &[BitVec]) -> Vec<SegmentSummary> {
    slices.iter().map(SegmentSummary::build).collect()
}

/// Builds summaries for a family of adaptively stored slices.
#[must_use]
pub fn summarize_storage(slices: &[crate::store::SliceStorage]) -> Vec<SegmentSummary> {
    slices
        .iter()
        .map(crate::store::SliceStorage::summary)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_popcount_per_segment() {
        let mut v = BitVec::zeros(SEGMENT_BITS * 2 + 100);
        v.set(0, true);
        v.set(SEGMENT_BITS - 1, true);
        v.set(SEGMENT_BITS, true);
        v.set(SEGMENT_BITS * 2 + 99, true);
        let s = SegmentSummary::build(&v);
        assert_eq!(s.segments(), 3);
        assert_eq!(s.ones_in(0), 2);
        assert_eq!(s.ones_in(1), 1);
        assert_eq!(s.ones_in(2), 1);
    }

    #[test]
    fn zero_and_full_detection_honour_partial_tail() {
        let len = SEGMENT_BITS + 70;
        let v = BitVec::ones(len);
        let s = SegmentSummary::build(&v);
        assert!(s.segment_is_full(0));
        // Tail segment has only 70 valid bits, all set.
        assert_eq!(s.segment_bits(1), 70);
        assert!(s.segment_is_full(1));
        assert!(!s.segment_is_zero(1));

        let z = BitVec::zeros(len);
        let sz = SegmentSummary::build(&z);
        assert!(sz.segment_is_zero(0) && sz.segment_is_zero(1));
        assert!(!sz.segment_is_full(0));
    }

    #[test]
    fn rebuild_tracks_mutation() {
        let len = SEGMENT_BITS + 904;
        let mut v = BitVec::zeros(len);
        let mut s = SegmentSummary::build(&v);
        v.set(len - 1, true);
        s.rebuild(&v);
        assert_eq!(s.ones_in(1), 1);
        assert_eq!(s.len(), len);
    }

    #[test]
    fn empty_vector_has_no_segments() {
        let s = SegmentSummary::build(&BitVec::new());
        assert_eq!(s.segments(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn family_helper_summarizes_each_slice() {
        let slices = vec![BitVec::ones(100), BitVec::zeros(100)];
        let sums = summarize_slices(&slices);
        assert_eq!(sums.len(), 2);
        assert!(sums[0].segment_is_full(0));
        assert!(sums[1].segment_is_zero(0));
    }
}
