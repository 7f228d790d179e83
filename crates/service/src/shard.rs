//! Row-range sharding of a fact table.
//!
//! A [`ShardedTable`] splits a table's rows into contiguous, disjoint
//! ranges. Each [`Shard`] owns a full encoded bitmap index per column
//! over *its* rows — slice containers, segment summaries, run
//! statistics. Because every shard is built over the **same table-wide
//! [`Mapping`]** per column — codes in value order over the whole
//! column, what a default build assigns — a retrieval expression reduced
//! once (on any shard) is valid on all of them: codes and don't-care
//! sets are identical, only the slice contents differ. That is the
//! service's compile-once / evaluate-everywhere contract.
//!
//! A shard may sort its rows before the build
//! ([`TableOptions::row_orders`]): its indexes are then laid out in
//! that order, and a row id is the row's stored position, as in any
//! clustered table. Nothing translates ids.
//!
//! Shard results are shard-relative bitmaps, and a served answer reads
//! them where they are: a count is the sum of their popcounts, global
//! row id `lo + j` is bit `j` of its shard's bitmap, and the heap pages
//! an answer spans are counted from each bitmap's words
//! ([`Shard::pages_spanned`]); no page is read. [`ShardedTable::merge`]
//! writes them into one table-sized bitmap with [`BitVec::or_shifted`]
//! for the library reference path, [`ShardedTable::eval_local`]. Shard
//! boundaries are *not* rounded to word multiples, so the unaligned
//! merge path is exercised by construction.

use crate::error::ServiceError;
use ebi_bitvec::{BitVec, DnfPlan, StoragePolicy};
use ebi_boolean::DnfExpr;
use ebi_core::index::{BuildOptions, EncodedBitmapIndex};
use ebi_core::reorder::sort_order;
use ebi_core::total_order::dense_order_mapping;
use ebi_core::{and_fold, or_fold, CoreError, Mapping, RowOrder};
use ebi_obs::CostCounters;
use ebi_storage::{BufferPool, Cell, Pager};

/// One input column: a name plus its cell values for every row.
#[derive(Debug, Clone)]
pub struct ColumnSpec {
    /// Column name, used in queries (`name=3`, `name IN 1,2`).
    pub name: String,
    /// Cell per row; all columns of a table must have equal length.
    pub cells: Vec<Cell>,
}

impl ColumnSpec {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: &str, cells: Vec<Cell>) -> Self {
        Self {
            name: name.to_string(),
            cells,
        }
    }
}

/// Build-time knobs for [`ShardedTable::build`].
#[derive(Debug, Clone)]
pub struct TableOptions {
    /// Number of row-range shards (clamped to `1..=rows`).
    pub shards: usize,
    /// Row order per shard, cycled by shard id; empty means every shard
    /// keeps its input order. A shard sorts its own rows across all its
    /// columns before it builds. A list rather than one order, so a
    /// table can be partly sorted (settled shards sorted, the newest in
    /// load order), and because the `benchmark/` package constructs it.
    pub row_orders: Vec<RowOrder>,
    /// Heap rows per page, the unit [`Shard::pages_spanned`] counts in.
    pub rows_per_page: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        Self {
            shards: 1,
            row_orders: Vec::new(),
            rows_per_page: 512,
        }
    }
}

/// One compiled clause: a column and its minimized retrieval
/// expression, valid on every shard (shared mapping).
#[derive(Debug, Clone)]
pub struct CompiledClause {
    /// Column position in the table's column list.
    pub column: usize,
    /// Minimized DNF over the column's bit-slices.
    pub expr: DnfExpr,
    /// `expr` lowered for the evaluation kernel, once for all shards.
    pub plan: DnfPlan,
}

/// A query compiled once against the table-wide mappings: a
/// disjunction of conjunctions of [`CompiledClause`]s.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// Outer OR of inner ANDs.
    pub disjuncts: Vec<Vec<CompiledClause>>,
}

/// A predicate on one column, in value (not code) space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// `col = v`.
    Eq(u64),
    /// `col IN vs`.
    In(Vec<u64>),
    /// `lo <= col <= hi` over the mapped value domain.
    Between(u64, u64),
}

/// One clause of a parsed query: column name plus predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause {
    /// Column name.
    pub column: String,
    /// The predicate.
    pub predicate: Predicate,
}

/// A parsed (not yet compiled) DNF query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnfRequest {
    /// Outer OR of inner ANDs; never empty after parsing.
    pub disjuncts: Vec<Vec<Clause>>,
}

/// What one shard reports back from evaluating a compiled query.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Shard id.
    pub shard: usize,
    /// Shard-relative selection bitmap.
    pub bitmap: BitVec,
    /// Rows set in `bitmap`.
    pub matches: u64,
    /// Evaluation cost counters for this shard.
    pub cost: CostCounters,
    /// Wall time of the evaluation, nanoseconds.
    pub wall_ns: u64,
}

/// One row-range shard: per-column indexes over `rows` rows starting
/// at global row `lo`.
#[derive(Debug)]
pub struct Shard {
    id: usize,
    lo: usize,
    rows: usize,
    indexes: Vec<EncodedBitmapIndex>,
    pager: Pager,
    rows_per_page: usize,
}

impl Shard {
    /// Shard id (position in the table's shard list).
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// First global row id owned by this shard.
    #[must_use]
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// Rows owned by this shard.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// An empty pager; kept for `benchmark/`'s replay; goes with B2.
    #[must_use]
    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// This shard's index for column position `column`.
    #[must_use]
    pub fn column_index(&self, column: usize) -> &EncodedBitmapIndex {
        &self.indexes[column]
    }

    /// Evaluates a compiled query over this shard's rows. The returned
    /// bitmap is shard-relative (bit 0 = global row `lo`).
    #[must_use]
    pub fn eval(&self, query: &CompiledQuery) -> (BitVec, CostCounters) {
        let clause = |c: &CompiledClause| {
            let r = self.indexes[c.column].run_plan(&c.expr, &c.plan);
            (r.bitmap, r.stats)
        };
        let conjunction = |d: &Vec<CompiledClause>| and_fold(d.iter().map(clause), self.rows);
        or_fold(query.disjuncts.iter().map(conjunction), self.rows)
    }

    /// Post-pruning kernel-work estimate (words) for evaluating `query`
    /// here, summed over every clause's bound plan.
    #[must_use]
    pub fn estimated_work_words(&self, query: &CompiledQuery) -> u64 {
        query
            .disjuncts
            .iter()
            .flatten()
            .map(|c| self.indexes[c.column].estimated_work_words(&c.plan))
            .sum()
    }

    /// Heap pages holding a row of `bitmap`, counted from its words
    /// (`BitVec::occupied_blocks` over the rows per page); none is read.
    #[must_use]
    pub fn pages_spanned(&self, bitmap: &BitVec) -> u64 {
        bitmap.occupied_blocks(self.rows_per_page).count() as u64
    }

    /// [`Shard::pages_spanned`]; `pool` is unused and nothing is read.
    /// Kept for `benchmark/`'s replay; goes with B2.
    #[must_use]
    pub fn fetch_matches(&self, bitmap: &BitVec, _pool: Option<&BufferPool<'_>>) -> u64 {
        self.pages_spanned(bitmap)
    }
}

/// A fact table partitioned into row-range shards that share one
/// mapping per column.
#[derive(Debug)]
pub struct ShardedTable {
    columns: Vec<String>,
    mappings: Vec<Mapping>,
    rows: usize,
    shards: Vec<Shard>,
}

impl ShardedTable {
    /// Partitions `columns` into `opts.shards` contiguous row ranges,
    /// sorts each range as its [`TableOptions::row_orders`] entry asks,
    /// and builds one index per (shard, column) over a shared
    /// table-wide mapping per column.
    ///
    /// # Errors
    ///
    /// Fails when no columns are given, column lengths disagree, or an
    /// index build fails.
    pub fn build(columns: Vec<ColumnSpec>, opts: &TableOptions) -> Result<Self, ServiceError> {
        if columns.is_empty() {
            return Err(ServiceError::Build(
                "table needs at least one column".into(),
            ));
        }
        let rows = columns[0].cells.len();
        if columns.iter().any(|c| c.cells.len() != rows) {
            return Err(ServiceError::Build(format!(
                "column lengths disagree: {:?}",
                columns
                    .iter()
                    .map(|c| (c.name.as_str(), c.cells.len()))
                    .collect::<Vec<_>>()
            )));
        }
        // Table-wide mapping per column, the one a default build assigns
        // (codes in value order over the whole column), so that every
        // shard holds identical codes and a range is a code interval.
        let mappings: Vec<Mapping> = columns
            .iter()
            .map(|col| dense_order_mapping(&Mapping::first_seen_values(&col.cells)))
            .collect();
        let n = opts.shards.clamp(1, rows.max(1));
        let base = rows / n;
        let rem = rows % n;
        let mut shards = Vec::with_capacity(n);
        let mut lo = 0usize;
        for id in 0..n {
            // First `rem` shards take one extra row, so boundaries land
            // on arbitrary (word-unaligned) offsets.
            let len = base + usize::from(id < rem);
            let order = if opts.row_orders.is_empty() {
                RowOrder::Original
            } else {
                opts.row_orders[id % opts.row_orders.len()]
            };
            // One order for all of the shard's columns: each index holds
            // row `j` at the same place.
            let cells: Vec<&[Cell]> = columns.iter().map(|c| &c.cells[lo..lo + len]).collect();
            let sorted = sort_order(&cells, order);
            let mut indexes = Vec::with_capacity(columns.len());
            for (col, mapping) in cells.iter().zip(&mappings) {
                let idx = EncodedBitmapIndex::build_with(
                    sorted.iter().map(|&r| col[r as usize]),
                    BuildOptions {
                        mapping: Some(mapping.clone()),
                        ..BuildOptions::default()
                    },
                )
                .map_err(|e| core_err(&e))?;
                indexes.push(idx);
            }
            shards.push(Shard {
                id,
                lo,
                rows: len,
                indexes,
                pager: Pager::default(),
                rows_per_page: opts.rows_per_page.max(1),
            });
            lo += len;
        }
        Ok(Self {
            columns: columns.into_iter().map(|c| c.name).collect(),
            mappings,
            rows,
            shards,
        })
    }

    /// Total rows across all shards.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column names, in registration order.
    #[must_use]
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The shards, in row order.
    #[must_use]
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The shared mapping for column position `column`.
    #[must_use]
    pub fn mapping(&self, column: usize) -> &Mapping {
        &self.mappings[column]
    }

    /// Compiles a parsed query once against the shared mappings: each
    /// clause's IN-list is reduced on shard 0's index (a point or a
    /// range as the code interval it is, a scattered list by
    /// Quine–McCluskey with don't-cares) and lowered for the kernel;
    /// expression and plan are valid on every shard.
    ///
    /// # Errors
    ///
    /// Fails on an unknown column or an empty query.
    pub fn compile(&self, request: &DnfRequest) -> Result<CompiledQuery, ServiceError> {
        if request.disjuncts.is_empty() || request.disjuncts.iter().any(Vec::is_empty) {
            return Err(ServiceError::Parse("empty query".into()));
        }
        let mut disjuncts = Vec::with_capacity(request.disjuncts.len());
        for d in &request.disjuncts {
            let mut clauses = Vec::with_capacity(d.len());
            for clause in d {
                let column = self
                    .columns
                    .iter()
                    .position(|c| *c == clause.column)
                    .ok_or_else(|| {
                        ServiceError::Parse(format!("unknown column {:?}", clause.column))
                    })?;
                let values: Vec<u64> = match &clause.predicate {
                    Predicate::Eq(v) => vec![*v],
                    Predicate::In(vs) => vs.clone(),
                    Predicate::Between(lo, hi) => self.mappings[column].values_between(*lo, *hi),
                };
                let expr = self.shards[0].indexes[column].explain_in_list(&values);
                clauses.push(CompiledClause {
                    column,
                    plan: expr.lower(),
                    expr,
                });
            }
            disjuncts.push(clauses);
        }
        Ok(CompiledQuery { disjuncts })
    }

    /// Merges shard-relative bitmaps back into one global bitmap: each
    /// part is OR-written at its shard's row offset. Parts may arrive
    /// in any order; missing parts leave zeros. Called by
    /// [`ShardedTable::eval_local`] and kept for `benchmark/`'s replay;
    /// the service never builds a table-sized bitmap.
    #[must_use]
    pub fn merge<'a>(&self, parts: impl IntoIterator<Item = (usize, &'a BitVec)>) -> BitVec {
        let mut global = BitVec::zeros(self.rows);
        for (shard, bitmap) in parts {
            global.or_shifted(bitmap, self.shards[shard].lo);
        }
        global
    }

    /// Serial whole-table evaluation: every shard in row order on the
    /// calling thread, merged. This is the library reference path the
    /// served results must stay bit-identical to.
    #[must_use]
    pub fn eval_local(&self, query: &CompiledQuery) -> (BitVec, CostCounters) {
        let mut cost = CostCounters::default();
        let parts: Vec<(usize, BitVec)> = self
            .shards
            .iter()
            .map(|s| {
                let (bitmap, c) = s.eval(query);
                cost += c;
                (s.id, bitmap)
            })
            .collect();
        (self.merge(parts.iter().map(|(i, b)| (*i, b))), cost)
    }

    /// Every shard's column indexes, mutably, for in-place maintenance
    /// (`update`, `delete`, `refresh_summaries`). A shard's row range is
    /// fixed at build, so nothing may be appended through this.
    pub fn indexes_mut(&mut self) -> impl Iterator<Item = &mut EncodedBitmapIndex> {
        self.shards.iter_mut().flat_map(|s| s.indexes.iter_mut())
    }

    /// Sets every shard index's slice container policy. Results stay
    /// bit-identical under every policy — the core contract sharding
    /// must preserve.
    pub fn set_storage_policy(&mut self, policy: StoragePolicy) {
        for index in self.indexes_mut() {
            index.set_storage_policy(policy);
        }
    }

    /// Sum of every shard's post-pruning work estimate for `query`.
    #[must_use]
    pub fn estimated_work_words(&self, query: &CompiledQuery) -> u64 {
        self.shards
            .iter()
            .map(|s| s.estimated_work_words(query))
            .sum()
    }
}

fn core_err(e: &CoreError) -> ServiceError {
    ServiceError::Build(e.to_string())
}
