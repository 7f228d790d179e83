//! Adaptive per-slice storage: dense or Roaring.
//!
//! The encoded index keeps `k = ceil(log2 m)` bit-slices. On uniform
//! data each slice has density ≈ 1/2 and the word-packed [`BitVec`] is
//! optimal; on skewed domains individual slices become very sparse (or
//! very dense) and a compressed container wins both space and — via
//! window-on-demand evaluation — bytes touched per query.
//!
//! [`SliceStorage`] is the per-slice container choice and
//! [`StoragePolicy`] the build-time rule that makes it. The default
//! [`StoragePolicy::Adaptive`] policy measures the slice density and
//! keeps mid-density slices dense (compression would only add
//! overhead), switching to Roaring containers outside the
//! `[0.20, 0.80]` band on large vectors. Roaring is the one compressed
//! container (DESIGN.md §7).

use crate::core::BitVec;
use crate::error::BitVecError;
use crate::roaring::{RoaringBitmap, CHUNK_BITS};

/// Density band (inclusive) within which compression is not attempted
/// by [`StoragePolicy::Adaptive`].
const DENSE_BAND: (f64, f64) = (0.20, 0.80);

/// Vectors shorter than this always stay dense under
/// [`StoragePolicy::Adaptive`]: container bookkeeping would dominate.
const ADAPTIVE_MIN_BITS: usize = 2 * CHUNK_BITS;

/// Build-time rule choosing each slice's [`SliceStorage`] container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoragePolicy {
    /// Word-packed [`BitVec`] for every slice (the pre-container
    /// behaviour).
    Dense,
    /// Roaring chunked containers for every slice.
    Roaring,
    /// Per-slice choice from measured density: dense inside the
    /// `[0.20, 0.80]` band or below two chunks of rows, Roaring
    /// otherwise.
    #[default]
    Adaptive,
}

/// Which physical container a slice ended up in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// Word-packed [`BitVec`].
    Dense,
    /// [`RoaringBitmap`] chunked containers.
    Roaring,
    /// A name only: [`SliceStorage::kind`] never returns it and nothing
    /// in the workspace matches on it. WAH is not a slice container; the
    /// repository benchmark (`benchmark/src/{serve,maintain}.rs`, its own
    /// workspace, changed only together with its workloads) still
    /// matches on it to fill `bitvec.store.wah_slices`, which reads 0.
    Wah,
}

/// One encoded bit-slice in whichever container the build policy chose.
///
/// ```
/// use ebi_bitvec::{BitVec, SliceStorage, StorageKind, StoragePolicy};
///
/// let sparse = BitVec::from_positions(1_000_000, &[3, 999_999]);
/// let s = SliceStorage::from_dense(sparse.clone(), StoragePolicy::Adaptive);
/// assert_eq!(s.kind(), StorageKind::Roaring);
/// assert_eq!(s.count_ones(), 2);
/// assert_eq!(s.to_dense(), sparse);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum SliceStorage {
    /// Word-packed, uncompressed.
    Dense(BitVec),
    /// Roaring chunked containers.
    Roaring(RoaringBitmap),
}

impl SliceStorage {
    /// Applies `policy` to a freshly built dense slice.
    #[must_use]
    pub fn from_dense(bits: BitVec, policy: StoragePolicy) -> Self {
        match policy {
            StoragePolicy::Dense => Self::Dense(bits),
            StoragePolicy::Roaring => Self::Roaring(RoaringBitmap::from_bitvec(&bits)),
            StoragePolicy::Adaptive => {
                if bits.len() < ADAPTIVE_MIN_BITS {
                    return Self::Dense(bits);
                }
                let density = 1.0 - bits.sparsity();
                if (DENSE_BAND.0..=DENSE_BAND.1).contains(&density) {
                    Self::Dense(bits)
                } else {
                    Self::Roaring(RoaringBitmap::from_bitvec(&bits))
                }
            }
        }
    }

    /// Which container this slice lives in.
    #[must_use]
    pub fn kind(&self) -> StorageKind {
        match self {
            Self::Dense(_) => StorageKind::Dense,
            Self::Roaring(_) => StorageKind::Roaring,
        }
    }

    /// Number of bits represented.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Self::Dense(b) => b.len(),
            Self::Roaring(r) => r.len(),
        }
    }

    /// `true` if no bits are represented.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Population count, computed in the container's native domain.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        match self {
            Self::Dense(b) => b.count_ones(),
            Self::Roaring(r) => r.count_ones(),
        }
    }

    /// Fraction of zero bits (0.0 for an empty slice), mirroring
    /// [`BitVec::sparsity`].
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        let len = self.len();
        if len == 0 {
            return 0.0;
        }
        (len - self.count_ones()) as f64 / len as f64
    }

    /// Value of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        match self {
            Self::Dense(b) => b.bit(i),
            Self::Roaring(r) => r.bit(i),
        }
    }

    /// Heap bytes of the container payload.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        match self {
            Self::Dense(b) => b.storage_bytes(),
            Self::Roaring(r) => r.storage_bytes(),
        }
    }

    /// Run statistics over the slice's 64-bit words (see
    /// [`crate::runs::RunStats`]).
    #[must_use]
    pub fn run_stats(&self) -> crate::runs::RunStats {
        match self {
            Self::Dense(b) => b.run_stats(),
            Self::Roaring(r) => r.run_stats(),
        }
    }

    /// The dense word-packed form (cloned for [`SliceStorage::Dense`]).
    #[must_use]
    pub fn to_dense(&self) -> BitVec {
        match self {
            Self::Dense(b) => b.clone(),
            Self::Roaring(r) => r.to_bitvec(),
        }
    }

    /// Borrows the dense form when this slice is stored dense.
    #[must_use]
    pub fn as_dense(&self) -> Option<&BitVec> {
        match self {
            Self::Dense(b) => Some(b),
            Self::Roaring(_) => None,
        }
    }

    /// Converts in place to the dense container (a no-op when already
    /// dense). Index maintenance densifies before mutating because the
    /// compressed containers are immutable.
    pub fn densify(&mut self) -> &mut BitVec {
        if let Self::Roaring(r) = self {
            *self = Self::Dense(r.to_bitvec());
        }
        match self {
            Self::Dense(b) => b,
            Self::Roaring(_) => unreachable!("just densified"),
        }
    }

    /// Builds the slice's per-segment one-counts (decompressing
    /// transiently for compressed containers).
    #[must_use]
    pub fn summary(&self) -> crate::summary::SegmentSummary {
        match self.as_dense() {
            Some(b) => crate::summary::SegmentSummary::build(b),
            None => crate::summary::SegmentSummary::build(&self.to_dense()),
        }
    }

    /// Re-applies `policy` (used when [`StoragePolicy`] changes at query
    /// time or after maintenance densified a slice).
    #[must_use]
    pub fn repack(&self, policy: StoragePolicy) -> Self {
        Self::from_dense(self.to_dense(), policy)
    }

    /// Serialises as a one-byte container tag (0 dense, 1 Roaring)
    /// followed by the container's own byte layout.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let (tag, body) = match self {
            Self::Dense(b) => (0, b.to_bytes()),
            Self::Roaring(r) => (1, r.to_bytes()),
        };
        [vec![tag], body].concat()
    }

    /// Parses the layout from [`SliceStorage::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`BitVecError::Corrupt`] on a tag other than 0 (dense) or
    /// 1 (Roaring), or when the container payload fails its own
    /// validation.
    pub fn from_bytes(raw: &[u8]) -> Result<Self, BitVecError> {
        let (&tag, body) = raw.split_first().ok_or_else(|| BitVecError::Corrupt {
            detail: "empty slice-storage buffer".into(),
        })?;
        match tag {
            0 => Ok(Self::Dense(BitVec::from_bytes(body)?)),
            1 => Ok(Self::Roaring(RoaringBitmap::from_bytes(body)?)),
            other => Err(BitVecError::Corrupt {
                detail: format!("unknown slice-storage tag {other}"),
            }),
        }
    }
}

impl From<BitVec> for SliceStorage {
    fn from(bits: BitVec) -> Self {
        Self::Dense(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned(len: usize, f: impl Fn(usize) -> bool) -> BitVec {
        (0..len).map(f).collect()
    }

    #[test]
    fn adaptive_policy_follows_density() {
        // Small vectors stay dense regardless of density.
        let small =
            SliceStorage::from_dense(BitVec::from_positions(1000, &[5]), StoragePolicy::Adaptive);
        assert_eq!(small.kind(), StorageKind::Dense);

        // Mid-density large vectors stay dense (compression is a loss).
        let mid = SliceStorage::from_dense(
            patterned(ADAPTIVE_MIN_BITS, |i| i % 2 == 0),
            StoragePolicy::Adaptive,
        );
        assert_eq!(mid.kind(), StorageKind::Dense);

        // Sparse and near-full large vectors compress.
        let sparse = SliceStorage::from_dense(
            BitVec::from_positions(ADAPTIVE_MIN_BITS, &[7]),
            StoragePolicy::Adaptive,
        );
        assert_eq!(sparse.kind(), StorageKind::Roaring);
        assert!(sparse.storage_bytes() < 64);

        let full = SliceStorage::from_dense(
            patterned(ADAPTIVE_MIN_BITS, |i| i != 9),
            StoragePolicy::Adaptive,
        );
        assert_eq!(full.kind(), StorageKind::Roaring);
        assert!(full.storage_bytes() < ADAPTIVE_MIN_BITS / 8);
    }

    #[test]
    fn forced_policies_and_accessors_agree_across_kinds() {
        let bits = patterned(200_000, |i| i % 97 == 0 || (30_000..90_000).contains(&i));
        for policy in [StoragePolicy::Dense, StoragePolicy::Roaring] {
            let s = SliceStorage::from_dense(bits.clone(), policy);
            assert_eq!(s.len(), bits.len(), "{policy:?}");
            assert_eq!(s.count_ones(), bits.count_ones(), "{policy:?}");
            assert_eq!(s.to_dense(), bits, "{policy:?}");
            assert!((s.sparsity() - bits.sparsity()).abs() < 1e-12, "{policy:?}");
            for i in [0, 96, 97, 29_999, 30_000, 89_999, 90_000, 199_999] {
                assert_eq!(s.bit(i), bits.bit(i), "{policy:?} bit {i}");
            }
        }
    }

    #[test]
    fn densify_and_repack_roundtrip() {
        let bits = BitVec::from_positions(ADAPTIVE_MIN_BITS, &[1, 2, 3]);
        let mut s = SliceStorage::from_dense(bits, StoragePolicy::Adaptive);
        assert_eq!(s.kind(), StorageKind::Roaring);
        s.densify().set(10, true);
        assert_eq!(s.kind(), StorageKind::Dense);
        assert_eq!(s.count_ones(), 4);
        let repacked = s.repack(StoragePolicy::Adaptive);
        assert_eq!(repacked.kind(), StorageKind::Roaring);
        assert_eq!(repacked.count_ones(), 4);
    }

    #[test]
    fn byte_roundtrip_every_kind() {
        let bits = patterned(150_000, |i| i % 53 == 0);
        for policy in [StoragePolicy::Dense, StoragePolicy::Roaring] {
            let s = SliceStorage::from_dense(bits.clone(), policy);
            let restored = SliceStorage::from_bytes(&s.to_bytes()).unwrap();
            assert_eq!(restored, s, "{policy:?}");
        }
        assert!(SliceStorage::from_bytes(&[]).is_err());
        assert!(SliceStorage::from_bytes(&[9, 0, 0]).is_err());
    }
}
