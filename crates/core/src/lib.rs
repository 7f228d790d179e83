//! Encoded bitmap indexing — the primary contribution of Wu & Buchmann,
//! *Encoded Bitmap Indexing for Data Warehouses*, ICDE 1998.
//!
//! An **encoded bitmap index** (EBI) on attribute `A` with cardinality
//! `m` replaces the `m` bitmap vectors of a simple bitmap index with
//! `k = ceil(log2 m)` vectors plus a *mapping table* (Definition 2.1).
//! Each value's retrieval function is the min-term of its code; selections
//! become Boolean expressions over the `k` vectors, and after logical
//! reduction large IN-lists and ranges often touch only a handful of
//! vectors — logarithmic where the simple index is linear.
//!
//! The crate implements, module by module:
//!
//! * [`mapping`] — the one-to-one value ↔ code mapping table;
//! * [`distance`] — binary distance, chains and prime chains
//!   (Definitions 2.2–2.4);
//! * [`well_defined`] — well-defined encodings (Definition 2.5) and the
//!   optimality checks of Theorems 2.2/2.3;
//! * [`index`] — [`EncodedBitmapIndex`]: build, point/IN/range queries
//!   with per-query [`ebi_obs::CostCounters`];
//! * [`fold`] — the AND / OR joins that combine clause selections;
//! * [`nulls`] — the two NULL/NotExist policies of §2.2 (separate
//!   vectors vs reserved codes) and Theorem 2.1;
//! * [`maintenance`] — appends without/with domain expansion
//!   (Equation 1, Figure 2) and deletions;
//! * [`encoding`] — encoding construction: identity, Gray,
//!   affinity-driven bipartition and simulated annealing over a predicate
//!   workload (the heuristics the paper mentions but leaves open);
//! * [`hierarchy`] — hierarchy encoding for dimensions (Figures 4–5);
//! * [`total_order`] — total-order preserving encodings (Figure 6),
//!   subsuming bit-sliced indexes;
//! * [`range_encoding`] — range-based encoded bitmap indexes
//!   (Figures 7–8);
//! * [`aggregates`] — sum/avg/min/max/median/N-tile evaluated directly
//!   on bitmaps (§5's invited extension);
//! * [`persist`] — page-store persistence with I/O accounting;
//! * [`reencoding`] — the §5 dynamic re-encoding cost model and
//!   rebuild;
//! * [`reorder`] — the row order a caller sorts its cells into before
//!   the build (lexicographic / reflected-Gray with histogram-aware
//!   column priority) for run maximization; bit `j` of every index is
//!   row `j` of the cells it was built from, so no row id is ever
//!   translated.
//!
//! # Quick start
//!
//! ```
//! use ebi_core::index::EncodedBitmapIndex;
//! use ebi_storage::Cell;
//!
//! // A column over values {0, 1, 2} (think {a, b, c} of Figure 1).
//! let column = [0u64, 1, 2, 1, 0, 2].map(Cell::Value);
//! let idx = EncodedBitmapIndex::build(column.iter().copied()).unwrap();
//!
//! // A = a OR A = b — reduces to one bitmap vector (B1').
//! let result = idx.in_list(&[0, 1]).unwrap();
//! assert_eq!(result.bitmap.to_positions(), vec![0, 1, 3, 4]);
//! assert_eq!(result.stats.vectors_accessed, 1);
//! ```

pub mod aggregates;
pub mod distance;
pub mod encoding;
pub mod error;
pub mod fold;
pub mod hierarchy;
pub mod index;
pub mod intern;
pub mod maintenance;
pub mod mapping;
pub mod nulls;
pub mod paged;
pub mod persist;
pub mod range_encoding;
pub mod reencoding;
pub mod reorder;
pub mod total_order;
pub mod well_defined;

pub use error::CoreError;
pub use fold::{and_fold, or_fold, Selected};
pub use index::{EncodedBitmapIndex, QueryResult};
pub use mapping::Mapping;
pub use reorder::RowOrder;
