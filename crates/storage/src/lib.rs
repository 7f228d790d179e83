//! Simulated page-based storage substrate.
//!
//! Wu & Buchmann's performance analysis is carried out in units of disk
//! accesses: "comparing with the disk access costs, it is reasonable to
//! ignore the CPU time needed for performing logical operations"
//! (footnote 4). This crate supplies that substrate:
//!
//! * [`pager::Pager`] — an in-memory page store with a configurable page
//!   size and **read/write counters**, so every index can report its cost
//!   in the same unit the paper uses;
//! * [`segment`] — length-prefixed byte blobs spanning pages (bitmap
//!   vectors, B-tree nodes, mapping tables are all stored this way);
//! * [`table`] — row-id addressed column tables with NULL and deletion
//!   tracking, the physical home of fact/dimension data;
//! * [`buffer::BufferPool`] — a bounded LRU page cache with hit/miss
//!   accounting, for working-set experiments: O(1) per hit and per
//!   eviction, with misses read into a spare frame outside the pool's
//!   lock; and [`buffer::read_pages`], the fetch after a selection,
//!   which walks the selection's pages (picked from the bitmap's words
//!   by `BitVec::occupied_blocks`) and counts its own hits, misses and
//!   evictions in a [`PageWalk`].
//!
//! Every counter lives with the structure whose event it counts
//! ([`Pager::stats`], [`BufferPool::stats`], [`PageWalk`]), and the
//! crate depends on nothing but `parking_lot`. A service that exports
//! these counters reads them when scraped.
//!
//! The paper used an analytical model rather than a real disk; this pager
//! preserves the observable quantity (pages touched) while keeping
//! everything deterministic and laptop-scale. See `DESIGN.md` §2.

pub mod buffer;
pub mod error;
pub mod pager;
pub mod segment;
pub mod table;

pub use buffer::{read_pages, BufferPool, BufferStats, PageWalk, Served};
pub use error::StorageError;
pub use pager::{IoStats, PageId, Pager, DEFAULT_PAGE_SIZE};
pub use segment::SegmentHandle;
pub use table::{Cell, Column, Table};
