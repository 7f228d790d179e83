//! Selection executor: runs queries against pluggable indexes.
//!
//! The paper's cooperativity argument (§2.1): `n` single-attribute
//! bitmap indexes answer *any* conjunction over those attributes with
//! one AND per clause, where B-trees would need `2^n − 1` compound
//! indexes. The executor realises that: it holds one
//! [`SelectionIndex`] per column, evaluates each clause, ANDs the
//! bitmaps, and aggregates the cost.

use crate::workload::{Predicate, Query};
use ebi_baselines::SelectionIndex;
use ebi_bitvec::BitVec;
use ebi_core::index::QueryResult;
use ebi_core::{and_fold, or_fold, Selected};
use ebi_obs::{CostCounters, QueryReport, StorageCounters};
use ebi_storage::{read_pages, BufferPool, PageId, PageWalk, Pager};
use std::collections::BTreeMap;
use std::time::Instant;

/// A conjunction of single-attribute clauses (`AND` of [`Query`]s).
#[derive(Debug, Clone)]
pub struct ConjunctiveQuery {
    /// The clauses; all must hold.
    pub clauses: Vec<Query>,
}

/// A disjunction of conjunctions — the general selection shape.
#[derive(Debug, Clone)]
pub struct DnfQuery {
    /// The disjuncts; any may hold.
    pub disjuncts: Vec<ConjunctiveQuery>,
}

/// Maps matching row ids onto fact-table pages for the profiled fetch
/// phase: row `r` lives on page `base_page + r / rows_per_page`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchModel {
    /// First page of the fact table's row storage.
    pub base_page: PageId,
    /// Rows stored per page; values below 1 are treated as 1.
    pub rows_per_page: usize,
}

/// Storage layer a profiled executor charges its fetch phase against.
struct StorageAttachment<'a> {
    pager: &'a Pager,
    pool: Option<&'a BufferPool<'a>>,
    fetch: FetchModel,
}

/// Cost summary of one executed query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionReport {
    /// The clauses' costs summed, plus one `literal_op` per join:
    /// `vectors_accessed` is the sum of per-clause logical read units
    /// (bitmap vectors / nodes).
    pub cost: CostCounters,
    /// Rows matching the whole conjunction.
    pub matches: usize,
    /// Reduced per-clause expressions, for explain output.
    pub expressions: Vec<String>,
}

/// Runs selections against one registered index per column.
///
/// ```
/// use ebi_warehouse::{ConjunctiveQuery, Executor, Predicate, Query};
/// use ebi_core::EncodedBitmapIndex;
/// use ebi_storage::Cell;
///
/// let idx = EncodedBitmapIndex::build((0..12u64).map(|i| Cell::Value(i % 4))).unwrap();
/// let mut exec = Executor::new(12);
/// exec.register("a", &idx);
/// let count = exec.count(&ConjunctiveQuery {
///     clauses: vec![Query { column: "a".into(), predicate: Predicate::Eq(2) }],
/// });
/// assert_eq!(count, 3);
/// ```
pub struct Executor<'a> {
    indexes: BTreeMap<String, &'a dyn SelectionIndex>,
    rows: usize,
    storage: Option<StorageAttachment<'a>>,
}

impl<'a> Executor<'a> {
    /// Creates an executor over tables of `rows` rows.
    #[must_use]
    pub fn new(rows: usize) -> Self {
        Self {
            indexes: BTreeMap::new(),
            rows,
            storage: None,
        }
    }

    /// Attaches the storage layer: profiled runs read the matching
    /// rows' pages (`fetch` places them) through the pool, when one is
    /// given, as a traced `fetch` phase, and report what that walk read.
    pub fn attach_storage(
        &mut self,
        pager: &'a Pager,
        pool: Option<&'a BufferPool<'a>>,
        fetch: FetchModel,
    ) {
        self.storage = Some(StorageAttachment { pager, pool, fetch });
    }

    /// Registers `index` for `column`.
    ///
    /// # Panics
    ///
    /// Panics if the index covers a different row count.
    pub fn register(&mut self, column: &str, index: &'a dyn SelectionIndex) {
        assert_eq!(
            index.rows(),
            self.rows,
            "index for {column:?} covers {} rows, executor expects {}",
            index.rows(),
            self.rows
        );
        self.indexes.insert(column.to_string(), index);
    }

    /// Registered column names.
    #[must_use]
    pub fn columns(&self) -> Vec<&str> {
        self.indexes.keys().map(String::as_str).collect()
    }

    /// Evaluates one clause through its column's index.
    ///
    /// # Panics
    ///
    /// Panics if no index is registered for the clause's column.
    #[must_use]
    pub fn run_clause(&self, query: &Query) -> QueryResult {
        let idx = self
            .indexes
            .get(&query.column)
            .unwrap_or_else(|| panic!("no index registered for column {:?}", query.column));
        match &query.predicate {
            Predicate::Eq(v) => idx.eq(*v),
            Predicate::InList(vs) => idx.in_list(vs),
            Predicate::Range(lo, hi) => idx.range(*lo, *hi),
        }
    }

    /// Evaluates a conjunction: per-clause bitmaps ANDed together.
    /// An empty conjunction matches every row.
    #[must_use]
    pub fn run(&self, query: &ConjunctiveQuery) -> (BitVec, ExecutionReport) {
        let mut expressions = Vec::new();
        let (bitmap, cost) = self.conjunction(query, &mut expressions);
        execution_report(bitmap, cost, expressions)
    }

    /// Evaluates a disjunction of conjunctions (`(… AND …) OR (… AND …)`)
    /// — the general selection shape: per-disjunct bitmaps ORed. An
    /// empty disjunction matches nothing.
    #[must_use]
    pub fn run_dnf(&self, query: &DnfQuery) -> (BitVec, ExecutionReport) {
        let mut expressions = Vec::new();
        let (bitmap, cost) = self.disjunction(query, &mut expressions);
        execution_report(bitmap, cost, expressions)
    }

    /// Evaluates a conjunction under the query-lifecycle profiler and
    /// returns the bitmap plus a full [`QueryReport`].
    ///
    /// Cost parity is structural: this is the evaluation
    /// [`Executor::run`] performs, inside the report wrapper, so
    /// `report.cost.vectors_accessed` is the *same number* the
    /// untraced [`ExecutionReport`] carries — profiling never perturbs
    /// the paper's cost metric. Phase spans only appear when the
    /// global subscriber is on ([`ebi_obs::set_enabled`]); sub-phases
    /// (`reduce` / `plan` / `eval`) additionally require the registered
    /// index to run with `QueryOptions { profile: true, .. }`.
    #[must_use]
    pub fn run_profiled(&self, query: &ConjunctiveQuery, label: &str) -> (BitVec, QueryReport) {
        self.profiled(label, |exprs| self.conjunction(query, exprs))
    }

    /// Evaluates a disjunction of conjunctions under the profiler;
    /// see [`Executor::run_profiled`] for the tracing contract.
    #[must_use]
    pub fn run_dnf_profiled(&self, query: &DnfQuery, label: &str) -> (BitVec, QueryReport) {
        self.profiled(label, |exprs| self.disjunction(query, exprs))
    }

    /// The one conjunction loop, joined by [`and_fold`]: each clause under
    /// a `clause` span, a dead guard when no trace is open on this thread.
    fn conjunction(&self, query: &ConjunctiveQuery, expressions: &mut Vec<String>) -> Selected {
        let clauses = query.clauses.iter().enumerate().map(|(i, clause)| {
            let mut span = ebi_obs::active_child("clause");
            let r = self.run_clause(clause);
            if span.is_live() {
                span.attr("clause", i as u64);
                span.attr("vectors_accessed", r.stats.vectors_accessed);
                span.attr("matches", r.bitmap.count_ones() as u64);
            }
            expressions.push(r.expression);
            (r.bitmap, r.stats)
        });
        and_fold(clauses, self.rows)
    }

    /// The one disjunction loop, joined by [`or_fold`]; clause spans nest
    /// under their `disjunct` span through the thread's open-span stack.
    fn disjunction(&self, query: &DnfQuery, expressions: &mut Vec<String>) -> Selected {
        let disjuncts = query.disjuncts.iter().enumerate().map(|(i, disjunct)| {
            let mut span = ebi_obs::active_child("disjunct");
            let (bitmap, cost) = self.conjunction(disjunct, expressions);
            if span.is_live() {
                span.attr("disjunct", i as u64);
                span.attr("matches", bitmap.count_ones() as u64);
            }
            (bitmap, cost)
        });
        or_fold(disjuncts, self.rows)
    }

    /// Runs `query` profiled and renders the `EXPLAIN ANALYZE` tree.
    #[must_use]
    pub fn explain_analyze(&self, query: &DnfQuery, label: &str) -> String {
        self.run_dnf_profiled(query, label).1.explain_analyze()
    }

    /// The shared profiled wrapper: opens the root `query` span, runs
    /// `body`, charges the fetch phase, and assembles the
    /// [`QueryReport`].
    fn profiled<F>(&self, label: &str, body: F) -> (BitVec, QueryReport)
    where
        F: FnOnce(&mut Vec<String>) -> Selected,
    {
        let query_id = ebi_obs::next_query_id();
        let start = Instant::now();
        let trace = ebi_obs::Trace::begin();
        let mut expressions = Vec::new();
        let (bitmap, cost, walk) = {
            let mut root = trace.root_span("query");
            root.attr("query_id", query_id);
            let (bitmap, cost) = body(&mut expressions);
            let walk = self.fetch_matches(&bitmap);
            (bitmap, cost, walk)
        };
        let wall_ns = start.elapsed().as_nanos() as u64;
        let report = QueryReport {
            query_id,
            label: label.to_string(),
            rows: self.rows as u64,
            matches: bitmap.count_ones() as u64,
            wall_ns,
            expressions,
            spans: trace.finish(),
            cost,
            storage: StorageCounters {
                pager_reads: walk.pager_reads(),
                buffer_hits: walk.hits,
                buffer_misses: walk.misses,
                buffer_evictions: walk.evictions,
                ..StorageCounters::default()
            },
        };
        (bitmap, report)
    }

    /// Reads every page holding a matching row ([`read_pages`] over the
    /// bitmap's occupied blocks), through the buffer pool when one is
    /// attached, as a `fetch` phase; an empty walk when no storage is
    /// attached.
    fn fetch_matches(&self, bitmap: &BitVec) -> PageWalk {
        let Some(att) = &self.storage else {
            return PageWalk::default();
        };
        let mut span = ebi_obs::active_child("fetch");
        let base = att.fetch.base_page.0;
        let pages = bitmap.occupied_blocks(att.fetch.rows_per_page.max(1));
        let walk = read_pages(pages.map(|p| PageId(base + p as u64)), att.pager, att.pool);
        span.attr("pages", walk.pages);
        if walk.errors > 0 {
            span.attr("errors", walk.errors);
        }
        walk
    }

    /// COUNT(*) of a conjunction.
    #[must_use]
    pub fn count(&self, query: &ConjunctiveQuery) -> usize {
        self.run(query).0.count_ones()
    }

    /// SUM(measure) over the matching rows, reading the measure column.
    #[must_use]
    pub fn sum(&self, query: &ConjunctiveQuery, measure: &[Option<u64>]) -> u64 {
        let (bitmap, _) = self.run(query);
        bitmap
            .iter_ones()
            .filter_map(|row| measure.get(row).copied().flatten())
            .sum()
    }
}

/// The untraced summary of one evaluation.
fn execution_report(
    bitmap: BitVec,
    cost: CostCounters,
    expressions: Vec<String>,
) -> (BitVec, ExecutionReport) {
    let report = ExecutionReport {
        cost,
        matches: bitmap.count_ones(),
        expressions,
    };
    (bitmap, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebi_baselines::SimpleBitmapIndex;
    use ebi_core::EncodedBitmapIndex;
    use ebi_storage::Cell;

    fn query(column: &str, predicate: Predicate) -> Query {
        Query {
            column: column.into(),
            predicate,
        }
    }

    #[test]
    fn conjunction_ands_clause_bitmaps() {
        // a = row % 4, b = row % 3 over 60 rows.
        let a_cells: Vec<Cell> = (0..60u64).map(|i| Cell::Value(i % 4)).collect();
        let b_cells: Vec<Cell> = (0..60u64).map(|i| Cell::Value(i % 3)).collect();
        let a_idx = EncodedBitmapIndex::build(a_cells).unwrap();
        let b_idx = SimpleBitmapIndex::build(b_cells);
        let mut exec = Executor::new(60);
        exec.register("a", &a_idx);
        exec.register("b", &b_idx);
        let (bitmap, report) = exec.run(&ConjunctiveQuery {
            clauses: vec![query("a", Predicate::Eq(1)), query("b", Predicate::Eq(2))],
        });
        let expect: Vec<usize> = (0..60).filter(|i| i % 4 == 1 && i % 3 == 2).collect();
        assert_eq!(bitmap.to_positions(), expect);
        assert_eq!(report.matches, expect.len());
        assert_eq!(report.expressions.len(), 2);
        // Cooperativity: total cost = clause costs + one AND, no
        // compound index needed.
        assert!(report.cost.vectors_accessed >= 2);
    }

    #[test]
    fn mixed_predicate_shapes() {
        let cells: Vec<Cell> = (0..100u64).map(|i| Cell::Value(i % 10)).collect();
        let idx = EncodedBitmapIndex::build(cells).unwrap();
        let mut exec = Executor::new(100);
        exec.register("c", &idx);
        let count_in = exec.count(&ConjunctiveQuery {
            clauses: vec![query("c", Predicate::InList(vec![1, 3, 5]))],
        });
        assert_eq!(count_in, 30);
        let count_range = exec.count(&ConjunctiveQuery {
            clauses: vec![query("c", Predicate::Range(7, 9))],
        });
        assert_eq!(count_range, 30);
    }

    #[test]
    fn dnf_query_ors_disjuncts() {
        let a_cells: Vec<Cell> = (0..60u64).map(|i| Cell::Value(i % 4)).collect();
        let b_cells: Vec<Cell> = (0..60u64).map(|i| Cell::Value(i % 3)).collect();
        let a_idx = EncodedBitmapIndex::build(a_cells).unwrap();
        let b_idx = EncodedBitmapIndex::build(b_cells).unwrap();
        let mut exec = Executor::new(60);
        exec.register("a", &a_idx);
        exec.register("b", &b_idx);
        // (a = 1 AND b = 2) OR (a = 3)
        let (bitmap, report) = exec.run_dnf(&DnfQuery {
            disjuncts: vec![
                ConjunctiveQuery {
                    clauses: vec![query("a", Predicate::Eq(1)), query("b", Predicate::Eq(2))],
                },
                ConjunctiveQuery {
                    clauses: vec![query("a", Predicate::Eq(3))],
                },
            ],
        });
        let expect: Vec<usize> = (0..60)
            .filter(|i| (i % 4 == 1 && i % 3 == 2) || i % 4 == 3)
            .collect();
        assert_eq!(bitmap.to_positions(), expect);
        assert_eq!(report.matches, expect.len());
        assert_eq!(report.expressions.len(), 3);
        // Empty disjunction matches nothing.
        let (none, r0) = exec.run_dnf(&DnfQuery { disjuncts: vec![] });
        assert_eq!(none.count_ones(), 0);
        assert_eq!(r0.matches, 0);
    }

    #[test]
    fn query_options_do_not_change_executor_results() {
        // The executor runs the registered index however it is
        // configured; results and per-clause costs must be identical
        // across query options end to end.
        let rows = 30_000usize;
        let cells: Vec<Cell> = (0..rows as u64).map(|i| Cell::Value(i % 23)).collect();
        let plain = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        let mut tuned = EncodedBitmapIndex::build(cells).unwrap();
        tuned.set_query_options(ebi_core::index::QueryOptions {
            storage_policy: ebi_bitvec::StoragePolicy::Roaring,
            ..Default::default()
        });

        let q = DnfQuery {
            disjuncts: vec![
                ConjunctiveQuery {
                    clauses: vec![query("c", Predicate::InList(vec![1, 4, 9, 16]))],
                },
                ConjunctiveQuery {
                    clauses: vec![query("c", Predicate::Range(18, 22))],
                },
            ],
        };
        let mut exec_plain = Executor::new(rows);
        exec_plain.register("c", &plain);
        let mut exec_tuned = Executor::new(rows);
        exec_tuned.register("c", &tuned);

        let (b1, r1) = exec_plain.run_dnf(&q);
        let (b2, r2) = exec_tuned.run_dnf(&q);
        assert_eq!(b1, b2, "query options changed query results");
        assert_eq!(
            r1.cost.vectors_accessed, r2.cost.vectors_accessed,
            "query options changed the paper's cost metric"
        );
        assert_eq!(r1.matches, r2.matches);
    }

    #[test]
    fn empty_conjunction_matches_everything() {
        let exec = Executor::new(5);
        let (bitmap, report) = exec.run(&ConjunctiveQuery { clauses: vec![] });
        assert_eq!(bitmap.count_ones(), 5);
        assert_eq!(report.matches, 5);
        assert_eq!(report.cost.vectors_accessed, 0);
    }

    #[test]
    fn sum_aggregates_measures_over_matches() {
        let cells: Vec<Cell> = [0u64, 1, 0, 1].map(Cell::Value).to_vec();
        let idx = EncodedBitmapIndex::build(cells).unwrap();
        let mut exec = Executor::new(4);
        exec.register("k", &idx);
        let measure = vec![Some(10u64), Some(20), None, Some(40)];
        let total = exec.sum(
            &ConjunctiveQuery {
                clauses: vec![query("k", Predicate::Eq(1))],
            },
            &measure,
        );
        assert_eq!(total, 60, "rows 1 and 3 match; NULL measure skipped");
    }

    #[test]
    fn profiled_run_matches_unprofiled_costs_and_bitmap() {
        // The profiled path must report the exact same paper cost
        // metric and result as the untraced path, whatever the global
        // subscriber happens to be doing in parallel tests.
        let a_cells: Vec<Cell> = (0..200u64).map(|i| Cell::Value(i % 7)).collect();
        let b_cells: Vec<Cell> = (0..200u64).map(|i| Cell::Value(i % 5)).collect();
        let a_idx = EncodedBitmapIndex::build(a_cells).unwrap();
        let b_idx = EncodedBitmapIndex::build(b_cells).unwrap();
        let mut exec = Executor::new(200);
        exec.register("a", &a_idx);
        exec.register("b", &b_idx);
        let q = DnfQuery {
            disjuncts: vec![
                ConjunctiveQuery {
                    clauses: vec![
                        query("a", Predicate::InList(vec![1, 3])),
                        query("b", Predicate::Eq(2)),
                    ],
                },
                ConjunctiveQuery {
                    clauses: vec![query("a", Predicate::Range(5, 6))],
                },
            ],
        };
        let (plain_bitmap, plain) = exec.run_dnf(&q);
        let (bitmap, report) = exec.run_dnf_profiled(&q, "parity check");
        assert_eq!(bitmap, plain_bitmap, "profiling changed the result");
        assert_eq!(report.cost, plain.cost, "profiling changed the cost");
        assert_eq!(report.matches, plain.matches as u64);
        assert_eq!(report.expressions, plain.expressions);
        assert_eq!(report.rows, 200);
        assert_eq!(report.label, "parity check");
        assert!(report.query_id > 0);
        // No storage attached: I/O counters stay zeroed.
        assert_eq!(report.storage, StorageCounters::default());
    }

    #[test]
    fn profiled_run_records_phases_and_storage_traffic() {
        let rows = 160usize;
        let cells: Vec<Cell> = (0..rows as u64).map(|i| Cell::Value(i % 8)).collect();
        let mut idx = EncodedBitmapIndex::build(cells).unwrap();
        idx.set_query_options(ebi_core::index::QueryOptions {
            profile: true,
            ..Default::default()
        });

        // Fact table: 16 rows per page, pages pre-allocated.
        let pager = Pager::with_page_size(256);
        let base = pager.allocate((rows / 16) as u64);
        let pool = BufferPool::new(&pager, 4);
        let mut exec = Executor::new(rows);
        exec.register("c", &idx);
        exec.attach_storage(
            &pager,
            Some(&pool),
            FetchModel {
                base_page: base,
                rows_per_page: 16,
            },
        );

        ebi_obs::set_enabled(true);
        let q = DnfQuery {
            disjuncts: vec![ConjunctiveQuery {
                clauses: vec![query("c", Predicate::InList(vec![1, 4]))],
            }],
        };
        let (bitmap, report) = exec.run_dnf_profiled(&q, "c IN {1,4}");
        ebi_obs::set_enabled(false);

        assert_eq!(bitmap.count_ones(), rows / 4);
        assert_eq!(report.matches, (rows / 4) as u64);
        // Phase tree: query → disjunct → clause, plus the fetch phase.
        let roots: Vec<&str> = report.roots().map(|s| s.name).collect();
        assert_eq!(roots, ["query"], "one root span");
        assert!(report.phase_wall_ns("disjunct").is_some());
        assert!(report.phase_wall_ns("clause").is_some());
        assert!(report.phase_wall_ns("fetch").is_some());
        // profile:true on the index nests its reduce/plan/eval spans
        // under the clause span.
        assert!(report.phase_wall_ns("reduce").is_some());
        assert!(report.phase_wall_ns("eval").is_some());
        // Every row matches somewhere in each 16-row page, so the
        // fetch phase touches all 10 pages through the 4-frame pool.
        let touched = report.storage.buffer_hits + report.storage.buffer_misses;
        assert_eq!(touched, 10, "one pool read per matching page");
        assert!(report.storage.buffer_misses >= 4, "pool smaller than scan");
        assert_eq!(
            report.storage.pager_reads, report.storage.buffer_misses,
            "only pool misses reach the pager"
        );
        // Render paths stay coherent end to end.
        let explain = report.explain_analyze();
        assert!(explain.contains("└─ query"));
        assert!(explain.contains("fetch"));
        assert!(report
            .to_json_line()
            .starts_with("{\"schema\":\"ebi.query_report.v1\""));
    }

    #[test]
    fn explain_analyze_works_with_subscriber_disabled() {
        let cells: Vec<Cell> = (0..20u64).map(|i| Cell::Value(i % 2)).collect();
        let idx = EncodedBitmapIndex::build(cells).unwrap();
        let mut exec = Executor::new(20);
        exec.register("p", &idx);
        let q = DnfQuery {
            disjuncts: vec![ConjunctiveQuery {
                clauses: vec![query("p", Predicate::Eq(1))],
            }],
        };
        let text = exec.explain_analyze(&q, "p = 1");
        assert!(text.contains("EXPLAIN ANALYZE"));
        assert!(text.contains("matches=10"));
        assert!(text.contains("vectors_accessed="));
    }

    #[test]
    #[should_panic(expected = "no index registered")]
    fn missing_index_panics() {
        let exec = Executor::new(1);
        let _ = exec.run_clause(&query("ghost", Predicate::Eq(0)));
    }

    #[test]
    #[should_panic(expected = "covers")]
    fn row_count_mismatch_panics() {
        let idx = EncodedBitmapIndex::build([0u64].map(Cell::Value)).unwrap();
        let mut exec = Executor::new(5);
        exec.register("a", &idx);
    }
}
