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
use ebi_obs::CostCounters;
use std::collections::BTreeMap;

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
}

impl<'a> Executor<'a> {
    /// Creates an executor over tables of `rows` rows.
    #[must_use]
    pub fn new(rows: usize) -> Self {
        Self {
            indexes: BTreeMap::new(),
            rows,
        }
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

    /// The one conjunction loop, joined by [`and_fold`].
    fn conjunction(&self, query: &ConjunctiveQuery, expressions: &mut Vec<String>) -> Selected {
        let clauses = query.clauses.iter().map(|clause| {
            let r = self.run_clause(clause);
            expressions.push(r.expression);
            (r.bitmap, r.stats)
        });
        and_fold(clauses, self.rows)
    }

    /// The one disjunction loop, joined by [`or_fold`].
    fn disjunction(&self, query: &DnfQuery, expressions: &mut Vec<String>) -> Selected {
        let disjuncts = query
            .disjuncts
            .iter()
            .map(|disjunct| self.conjunction(disjunct, expressions));
        or_fold(disjuncts, self.rows)
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
    fn storage_policy_does_not_change_executor_results() {
        // The executor runs the registered index whatever its slice
        // containers; results and per-clause costs must be identical
        // across storage policies end to end.
        let rows = 30_000usize;
        let cells: Vec<Cell> = (0..rows as u64).map(|i| Cell::Value(i % 23)).collect();
        let plain = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        let mut tuned = EncodedBitmapIndex::build(cells).unwrap();
        tuned.set_storage_policy(ebi_bitvec::StoragePolicy::Roaring);

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
        assert_eq!(b1, b2, "the storage policy changed query results");
        assert_eq!(
            r1.cost.vectors_accessed, r2.cost.vectors_accessed,
            "the storage policy changed the paper's cost metric"
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
