//! # ebi — Encoded Bitmap Indexing for Data Warehouses
//!
//! A full reproduction of Wu & Buchmann, *Encoded Bitmap Indexing for
//! Data Warehouses* (ICDE 1998), as a workspace of focused crates.
//! This facade re-exports the public API of every crate so examples and
//! downstream users need a single dependency.
//!
//! ## Map of the workspace
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`bitvec`] | `ebi-bitvec` | bitmap vectors, logical ops, dense / Roaring slice containers, the window kernel |
//! | [`boolean`] | `ebi-boolean` | min-terms, Quine–McCluskey reduction, expression evaluation |
//! | [`storage`] | `ebi-storage` | pager with I/O accounting, segments, column tables |
//! | [`btree`] | `ebi-btree` | page-oriented B+tree baseline and the §2.1 cost model |
//! | [`core`] | `ebi-core` | **the encoded bitmap index**, encodings, maintenance, theorems |
//! | [`baselines`] | `ebi-baselines` | simple bitmap, bit-sliced, projection, value-list, dynamic, range-based, hybrid, compressed-encoded, multi-component; the WAH codec |
//! | [`warehouse`] | `ebi-warehouse` | star schemas, generators, workloads, executor, group-set |
//! | [`analysis`] | `ebi-analysis` | the paper's analytical figures as executable series |
//!
//! ## Quick start
//!
//! ```
//! use ebi::prelude::*;
//!
//! let column = [0u64, 1, 2, 1, 0, 2].map(Cell::Value);
//! let idx = EncodedBitmapIndex::build(column.iter().copied()).unwrap();
//! let result = idx.in_list(&[0, 1]).unwrap();
//! assert_eq!(result.stats.vectors_accessed, 1); // B1' alone
//! ```

pub use ebi_analysis as analysis;
pub use ebi_baselines as baselines;
pub use ebi_bitvec as bitvec;
pub use ebi_boolean as boolean;
pub use ebi_btree as btree;
pub use ebi_core as core;
pub use ebi_obs as obs;
pub use ebi_storage as storage;
pub use ebi_warehouse as warehouse;

/// The most common imports, for examples and quick experiments.
pub mod prelude {
    pub use ebi_baselines::{
        BitSlicedIndex, DynamicBitmapIndex, HybridBTreeBitmapIndex, ProjectionIndex,
        RangeBasedBitmapIndex, SelectionIndex, SimpleBitmapIndex, ValueListIndex,
    };
    pub use ebi_bitvec::BitVec;
    pub use ebi_boolean::{qm, DnfExpr};
    pub use ebi_core::encoding::{
        AffinityEncoding, AnnealingEncoding, EncodingProblem, EncodingStrategy, GrayEncoding,
        IdentityEncoding,
    };
    pub use ebi_core::index::{BuildOptions, EncodedBitmapIndex, QueryResult};
    pub use ebi_core::nulls::NullPolicy;
    pub use ebi_core::reorder::sort_order;
    pub use ebi_core::{Mapping, RowOrder};
    pub use ebi_obs::CostCounters;
    pub use ebi_storage::{Cell, Table};
    pub use ebi_warehouse::{
        ColumnSpec, ConjunctiveQuery, Dictionary, Distribution, Executor, Predicate, Query,
        StarSchema, WorkloadSpec,
    };
}
