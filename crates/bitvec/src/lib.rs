//! Bit-vector substrate for encoded bitmap indexing.
//!
//! This crate provides the low-level bitmap machinery that every index in
//! the workspace is built from:
//!
//! * [`BitVec`] — a growable, word-packed vector of bits with bulk logical
//!   operations (`AND`, `OR`, `XOR`, `NOT`, `AND NOT`), population count,
//!   and position iterators. This is the physical representation of one
//!   *bitmap vector* in the sense of Wu & Buchmann (ICDE 1998): bit `j`
//!   corresponds to tuple `j` of the indexed table.
//! * [`roaring::RoaringBitmap`] — a chunked hybrid array/bitmap/run
//!   compressed container in the style of Chambi et al.
//! * [`store::SliceStorage`] — the per-slice container choice (dense
//!   word-packed or Roaring) driven by measured density; these are the
//!   only two containers the density policy picks. (The WAH codec the
//!   sparsity experiments apply to simple bitmaps lives beside them, in
//!   `ebi-baselines`.)
//!   A compressed container is built from and expanded to a [`BitVec`],
//!   counted, probed, measured, read one evaluation window at a time
//!   and persisted; it has no set algebra of its own, because queries
//!   only ever combine slices inside the window kernel.
//! * [`builder::SliceFamilyBuilder`] — the streaming construction every
//!   index build uses: one code per tuple, spread over `k` slices.
//! * [`serial::ByteReader`] — the checked little-endian reader through
//!   which every persisted image (containers here; mapping and metadata
//!   in `ebi-core`) is decoded.
//! * [`kernels`] — fused, segment-streaming evaluation kernels that
//!   compute an entire product term (AND of up to 64 optionally negated
//!   vectors) in one pass with no intermediate allocation, OR-ing terms
//!   into a shared destination, with per-segment short-circuiting.
//! * [`summary::SegmentSummary`] — per-32 768-row one-counts built at
//!   index construction, letting the kernels skip whole segments before
//!   reading any bitmap word.
//!
//! # Invariant
//!
//! All operations maintain the invariant that bits at positions `>= len()`
//! inside the last storage word are zero, so `count_ones` and word-level
//! comparisons are always exact.
//!
//! # Example
//!
//! ```
//! use ebi_bitvec::BitVec;
//!
//! let mut b = BitVec::from_bools([true, false, true, true]);
//! let mask = BitVec::from_bools([true, true, false, true]);
//! b &= &mask;
//! assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 3]);
//! ```

pub mod builder;
mod core;
pub mod error;
mod iter;
pub mod kernels;
mod ops;
pub mod roaring;
pub mod runs;
pub mod serial;
pub mod simd;
pub mod store;
pub mod summary;

pub use crate::core::{BitVec, WORD_BITS};
pub use crate::error::BitVecError;
pub use crate::iter::{BitIter, OnesIter};
pub use crate::kernels::{BoundPlan, DnfPlan, SliceRef, SliceSource, SEGMENT_BITS, SEGMENT_WORDS};
pub use crate::runs::RunStats;
pub use crate::simd::KernelPath;
pub use crate::store::{SliceStorage, StorageKind, StoragePolicy};
pub use crate::summary::SegmentSummary;
