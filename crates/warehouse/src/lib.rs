//! Data-warehouse substrate: star schemas, generators, workloads and a
//! selection executor.
//!
//! The paper evaluates encoded bitmap indexing in a DW setting — star
//! schemas with hierarchical dimensions (Figure 4), TPC-D-style query
//! mixes (12 of 17 query types involve range search, §3.2), and
//! multi-attribute conjunctions resolved by bitmap cooperativity
//! (§2.1). This crate builds that setting:
//!
//! * [`dictionary::Dictionary`] — string ↔ value-id coding for dimension
//!   attributes;
//! * [`star`] — fact + dimension tables with attached hierarchies;
//! * [`generator`] — deterministic column/star generators (uniform,
//!   Zipf-skewed, clustered; optional NULLs);
//! * [`workload`] — seeded query generators matching the paper's
//!   range-search mix;
//! * [`executor`] — runs single- and multi-attribute selections against
//!   any [`ebi_baselines::SelectionIndex`], ANDing bitmaps across
//!   attributes (index cooperativity) and aggregating cost;
//! * [`groupset`] — the group-set index of §4 built on an EBI over
//!   *observed* attribute combinations (footnote 5's density argument);
//! * [`history`] — query-log mining for encodings (§5, item four);
//! * [`join`] — bitmapped join indexes for one-hop star joins (§4);
//! * [`reorder`] — the table sorted before its indexes are built: one
//!   histogram-prioritised row order that every column's index shares;
//! * [`tpcd_lite`] — a runnable five-template TPC-D-flavoured suite
//!   exercising selections, roll-ups and direct-bitmap aggregates.

pub mod dictionary;
pub mod executor;
pub mod generator;
pub mod groupset;
pub mod history;
pub mod join;
pub mod reorder;
pub mod star;
pub mod tpcd_lite;
pub mod workload;

pub use dictionary::Dictionary;
pub use executor::{ConjunctiveQuery, DnfQuery, ExecutionReport, Executor};
pub use generator::{ColumnSpec, Distribution};
pub use star::{Dimension, StarSchema};
pub use workload::{Predicate, Query, WorkloadSpec};
