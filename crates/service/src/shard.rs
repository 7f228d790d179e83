//! The served table: one encoded bitmap index per column, evaluated in
//! morsels.
//!
//! [`ShardedTable::build`] builds one [`EncodedBitmapIndex`] per column
//! over the whole table with the mapping the column's default build
//! would assign (codes in value order), handed to the build so that it
//! encodes while it reads and keeps nothing per row. The table may sort
//! its rows first ([`TableOptions::row_orders`]: one order for the
//! whole table, as Lemire, Kaser & Aouiche sort a table and not its
//! parts); a row id is then the row's stored position. Nothing
//! translates ids.
//!
//! The unit of parallel work is a *morsel*: a run of the kernel's
//! windows, [`SEGMENT_BITS`] rows each (morsel-driven scheduling, Leis
//! et al., SIGMOD 2014). [`ShardedTable::eval_morsel`] evaluates a
//! compiled query on windows `w0..w1`; bit `j` of the result is row
//! `w0 · SEGMENT_BITS + j`, bit `j` from word `w0 · 512` on. The morsel
//! at window 0 counts the clauses' `vectors_accessed`, so any split
//! costs the one index's `c_e` per clause. An answer reads the morsel
//! bitmaps where they are: a count sums their popcounts, a row id is
//! the morsel's first row plus `j`, and the heap pages it spans are
//! counted on global row ids ([`ShardedTable::pages_spanned`]).
//!
//! The table is its own one [`Shard`]; what only `benchmark/`'s replay
//! calls lives in `crate::replay`.

use crate::error::ServiceError;
use ebi_bitvec::{BitVec, DnfPlan, SEGMENT_BITS, WORD_BITS};
use ebi_boolean::DnfExpr;
use ebi_core::index::{BuildOptions, EncodedBitmapIndex};
use ebi_core::reorder::sort_order;
use ebi_core::total_order::dense_order_mapping;
use ebi_core::{and_fold, or_fold, Mapping, RowOrder};
use ebi_obs::CostCounters;
use ebi_storage::{Cell, Pager};
use std::ops::Range;

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
    /// Replay-only and ignored: the table is one index per column, split
    /// into morsels per request. `benchmark/` sets it.
    pub shards: usize,
    /// The table's row order: empty keeps the input order, one order
    /// sorts the rows across all columns before the build. A list only
    /// because `benchmark/` constructs it; more than one order is a
    /// build error.
    pub row_orders: Vec<RowOrder>,
    /// Heap rows per page, the unit [`ShardedTable::pages_spanned`]
    /// counts in.
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
/// expression.
#[derive(Debug, Clone)]
pub struct CompiledClause {
    /// Column position in the table's column list.
    pub column: usize,
    /// Minimized DNF over the column's bit-slices.
    pub expr: DnfExpr,
    /// `expr` lowered for the evaluation kernel, once for all morsels.
    pub plan: DnfPlan,
}

/// A query compiled once against the column indexes: a disjunction of
/// conjunctions of [`CompiledClause`]s.
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

/// What one morsel reports back from evaluating a compiled query.
#[derive(Debug, Clone)]
pub struct MorselOutcome {
    /// The morsel's first word: bit `j` of `bitmap` is row
    /// `first_word · 64 + j`.
    pub first_word: usize,
    /// The morsel's selection bitmap.
    pub bitmap: BitVec,
    /// Rows set in `bitmap`.
    pub matches: u64,
    /// Evaluation cost counters for this morsel.
    pub cost: CostCounters,
    /// Wall time of the evaluation, nanoseconds.
    pub wall_ns: u64,
}

/// A fact table served as one encoded bitmap index per column.
#[derive(Debug)]
pub struct ShardedTable {
    columns: Vec<String>,
    indexes: Vec<EncodedBitmapIndex>,
    /// Replay-only: an empty pager `benchmark/` sizes buffer pools on.
    pub(crate) pager: Pager,
    rows_per_page: usize,
}

/// The table as the one shard of [`ShardedTable::shards`].
pub type Shard = ShardedTable;

impl ShardedTable {
    /// Sorts the rows as [`TableOptions::row_orders`] asks, then builds
    /// one index per column, each over the column's value-ordered
    /// mapping.
    ///
    /// # Errors
    ///
    /// Fails when no columns are given, column lengths disagree, more
    /// than one row order is asked for, or an index build fails.
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
        let order = match opts.row_orders[..] {
            [] => RowOrder::Original,
            [order] => order,
            _ => {
                return Err(ServiceError::Build(format!(
                    "one row order for the table, not {}",
                    opts.row_orders.len()
                )))
            }
        };
        // One order for all columns, so each index holds row `j` at the
        // same place; the input order needs no permutation.
        let cells: Vec<&[Cell]> = columns.iter().map(|c| &c.cells[..]).collect();
        let sorted = (order != RowOrder::Original).then(|| sort_order(&cells, order));
        let mut indexes = Vec::with_capacity(columns.len());
        for col in cells {
            // The mapping a default build assigns, given to the build so
            // that it streams instead of keeping a slot per row.
            let options = BuildOptions {
                mapping: Some(dense_order_mapping(&Mapping::first_seen_values(col))),
                ..BuildOptions::default()
            };
            let built = match &sorted {
                Some(ids) => {
                    EncodedBitmapIndex::build_with(ids.iter().map(|&r| col[r as usize]), options)
                }
                None => EncodedBitmapIndex::build_with(col.iter().copied(), options),
            };
            indexes.push(built.map_err(|e| ServiceError::Build(e.to_string()))?);
        }
        Ok(Self {
            columns: columns.into_iter().map(|c| c.name).collect(),
            indexes,
            pager: Pager::default(),
            rows_per_page: opts.rows_per_page.max(1),
        })
    }

    /// Rows in the table.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.column_index(0).rows()
    }

    /// Kernel windows the rows span, [`SEGMENT_BITS`] each: what a
    /// request splits into morsels.
    #[must_use]
    pub fn windows(&self) -> usize {
        self.column_index(0).windows()
    }

    /// Column names, in registration order.
    #[must_use]
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The index of column position `column`.
    #[must_use]
    pub fn column_index(&self, column: usize) -> &EncodedBitmapIndex {
        &self.indexes[column]
    }

    /// The mapping of column position `column`.
    #[must_use]
    pub fn mapping(&self, column: usize) -> &Mapping {
        self.column_index(column).mapping()
    }

    /// Compiles a parsed query once: each clause is reduced on its
    /// column's index (a point or a range as the code interval it is, a
    /// range read off the mapping without listing its values; a
    /// scattered list by Quine–McCluskey with don't-cares) and lowered
    /// for the kernel; expression and plan serve every morsel.
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
                let index = self.column_index(column);
                let expr = match &clause.predicate {
                    Predicate::Eq(v) => index.explain_in_list(&[*v]),
                    Predicate::In(vs) => index.explain_in_list(vs),
                    Predicate::Between(lo, hi) => index.explain_range(*lo, *hi),
                };
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

    /// The window ranges of a split into `n` morsels (at least one), in
    /// row order: as equal as whole windows allow, none empty while
    /// `n` is at most [`ShardedTable::windows`].
    pub fn morsels(&self, n: usize) -> impl Iterator<Item = Range<usize>> {
        let (windows, n) = (self.windows(), n.max(1));
        (0..n).map(move |i| i * windows / n..(i + 1) * windows / n)
    }

    /// Evaluates a compiled query on kernel windows `windows`: a
    /// morsel. Bit `j` of the bitmap is row `windows.start ·
    /// SEGMENT_BITS + j`. The morsel that starts at window 0 carries the
    /// clauses' `vectors_accessed`, so the morsels of any split sum to
    /// one index's `c_e` per clause; a join of two clause bitmaps is one
    /// `literal_op` in every morsel that performs it.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is not a range within
    /// `0..`[`ShardedTable::windows`].
    #[must_use]
    pub fn eval_morsel(
        &self,
        query: &CompiledQuery,
        windows: Range<usize>,
    ) -> (BitVec, CostCounters) {
        let first = windows.start * SEGMENT_BITS;
        let rows = (windows.end * SEGMENT_BITS).min(self.rows()).max(first) - first;
        let clause = |c: &CompiledClause| {
            let r = self.indexes[c.column].run_plan_windows(&c.expr, &c.plan, windows.clone());
            (r.bitmap, r.stats)
        };
        let conjunction = |d: &Vec<CompiledClause>| and_fold(d.iter().map(clause), rows);
        or_fold(query.disjuncts.iter().map(conjunction), rows)
    }

    /// Serial whole-table evaluation: one morsel over every window on the
    /// calling thread. This is the library reference path the served
    /// results must stay bit-identical to.
    #[must_use]
    pub fn eval_local(&self, query: &CompiledQuery) -> (BitVec, CostCounters) {
        self.eval_morsel(query, 0..self.windows())
    }

    /// Heap pages holding a row of the word-aligned parts
    /// `(first_word, bitmap)`, given in row order, counted on global row
    /// ids from their words (`BitVec::occupied_blocks`): a page that
    /// straddles two parts counts once. None is read.
    #[must_use]
    pub fn pages_spanned<'a>(&self, parts: impl IntoIterator<Item = (usize, &'a BitVec)>) -> u64 {
        let (mut last, mut pages) = (None, 0);
        for (word, bitmap) in parts {
            for page in bitmap.occupied_blocks(self.rows_per_page, word * WORD_BITS) {
                pages += u64::from(last != Some(page));
                last = Some(page);
            }
        }
        pages
    }

    /// The column indexes, mutably, for in-place maintenance (`update`,
    /// `delete`, `refresh_summaries`). The table's rows are fixed at
    /// build, so nothing may be appended through this.
    pub fn indexes_mut(&mut self) -> impl Iterator<Item = &mut EncodedBitmapIndex> {
        self.indexes.iter_mut()
    }
}
