//! The oracle's grid: a [`Case`] per point of the configuration axes,
//! [`run`] to build one, ask every form and shrink a failure, and the
//! covering arrays that pick the points. `tests/oracle.rs` runs the grid;
//! `tests/index_equivalence.rs` runs slices of it with axes held fixed.

// Each test binary that includes the grid uses part of it.
#![allow(dead_code)]

use ebi::baselines::{CompressedEncodedIndex, MultiComponentIndex};
use ebi::bitvec::simd::{available_paths, with_forced_path};
use ebi::bitvec::KernelPath::{self, Avx2};
use ebi::bitvec::StoragePolicy::{self, Adaptive, Dense, Roaring};
use ebi::bitvec::{SEGMENT_BITS, SEGMENT_WORDS};
use ebi::core::nulls::NullPolicy::{EncodedReserved, SeparateVectors};
use ebi::core::paged::persist_and_open;
use ebi::prelude::*;
use ebi::storage::pager::Pager;
use ebi::warehouse::generator::{generate_column, ColumnSpec as Spec, Distribution};
use ebi::warehouse::Predicate as Warehouse;
use ebi_service::shard::{Clause, DnfRequest, Predicate as Served};
use ebi_service::{ColumnSpec as Column, ShardedTable, TableOptions};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt::Debug;
use Order::{Gray, Lexicographic, Original};
use Shape::{Binary, Runs, Uniform, Zipf};
use Split::{Halves, Whole, Windows};
use Upkeep::{Edited, Fresh, Refreshed};

/// Column `c`: uniform over 2 or 64 values, Zipf over 200, or clustered
/// runs over 32.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Binary,
    Uniform,
    Zipf,
    Runs,
}

/// The table's row order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Order {
    Original,
    Lexicographic,
    Gray,
}

/// How the table's evaluation splits its kernel windows into morsels:
/// one morsel, two (one when there is one window), or one per window.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Split {
    Whole,
    Halves,
    Windows,
}

/// No maintenance; or deletes, updates and appends, after which the
/// segment summaries are left invalidated or refreshed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Upkeep {
    Fresh,
    Edited,
    Refreshed,
}

/// A grid point (`shuffled`: codes in a seeded order, not value order)
/// and a seed; then what shrinking kept: `rows` from `head` on, the ops
/// and the clauses (numbered across a probe's disjuncts) whose bits are
/// set, one probe or all, and column `d`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Case {
    shape: Shape,
    nulls: bool,
    rows: usize,
    policy: NullPolicy,
    shuffled: bool,
    order: Order,
    storage: StoragePolicy,
    tier: KernelPath,
    split: Split,
    upkeep: Upkeep,
    seed: u64,
    head: usize,
    ops: u64,
    probe: Option<usize>,
    clauses: u64,
    second_column: bool,
}

/// Row edits per maintained case; five appends follow them.
const EDITS: usize = 16;

/// Probes per case: twelve on `c`, then three table DNFs.
const PROBES: usize = 15;

/// Shrunk failures, as printed: deletes Roaring slices bring back; a NULL
/// mask Roaring slices apply twice under `EncodedReserved`; and a merge
/// that dropped the carry of a shard starting past the first window,
/// now a table of two windows whose morsels meet at word 512.
#[rustfmt::skip]
pub const REGRESSIONS: &[Case] = &[
    Case { shape: Binary, nulls: true, rows: 3094, policy: EncodedReserved, shuffled: true, order: Lexicographic, storage: Roaring, tier: Avx2, split: Halves, upkeep: Edited, seed: 44063, head: 3093, ops: 4096, probe: Some(0), clauses: 1, second_column: false },
    Case { shape: Binary, nulls: true, rows: 3095, policy: EncodedReserved, shuffled: true, order: Lexicographic, storage: Roaring, tier: Avx2, split: Halves, upkeep: Edited, seed: 44063, head: 3094, ops: 1048576, probe: Some(0), clauses: 1, second_column: false },
    Case { shape: Binary, nulls: false, rows: 65733, policy: EncodedReserved, shuffled: false, order: Gray, storage: Adaptive, tier: Avx2, split: Halves, upkeep: Refreshed, seed: 44064, head: 27503, ops: 0, probe: Some(0), clauses: 1, second_column: false },
];

#[derive(Debug, Clone, Copy)]
enum Op {
    Delete(usize),
    Update(usize, Cell),
    Append(Cell),
}

/// A predicate on one column, in value space.
#[derive(Debug, Clone)]
enum Pred {
    Eq(u64),
    In(Vec<u64>),
    Between(u64, u64),
    NotIn(Vec<u64>),
    IsNull,
}

/// Clauses `(column, predicate)`, ANDed in a disjunct, disjuncts ORed. A
/// single clause on `c` goes to every form; any other only to the table.
type Dnf = Vec<Vec<(usize, Pred)>>;

impl Pred {
    fn matches(&self, cell: Option<Cell>) -> bool {
        match (self, cell) {
            (Self::IsNull, Some(Cell::Null)) => true,
            (Self::Eq(x), Some(Cell::Value(v))) => v == *x,
            (Self::In(xs), Some(Cell::Value(v))) => xs.contains(&v),
            (Self::Between(lo, hi), Some(Cell::Value(v))) => (*lo..=*hi).contains(&v),
            (Self::NotIn(xs), Some(Cell::Value(v))) => !xs.contains(&v),
            _ => false,
        }
    }

    /// The predicate as the warehouse's and the service's types, where
    /// they have one.
    fn as_query(&self) -> Option<(Warehouse, Served)> {
        Some(match self.clone() {
            Self::Eq(v) => (Warehouse::Eq(v), Served::Eq(v)),
            Self::In(vs) => (Warehouse::InList(vs.clone()), Served::In(vs)),
            Self::Between(lo, hi) => (Warehouse::Range(lo, hi), Served::Between(lo, hi)),
            _ => return None,
        })
    }
}

impl Case {
    /// The case at `point`, one value index per axis in field order. Its
    /// rows: at most 64, about 3 000, or two kernel windows and a tail.
    pub fn at(point: &[usize], seed: u64) -> Self {
        let jitter = (seed % 997) as usize;
        let rows = [
            33 + jitter % 32,
            2_900 + jitter % 200,
            2 * SEGMENT_BITS + 1 + jitter,
        ];
        Self {
            shape: [Binary, Uniform, Zipf, Runs][point[0]],
            nulls: point[1] == 1,
            rows: rows[point[2]],
            policy: [SeparateVectors, EncodedReserved][point[3]],
            shuffled: point[4] == 1,
            order: [Original, Lexicographic, Gray][point[5]],
            storage: [Dense, Roaring, Adaptive][point[6]],
            tier: available_paths()[point[7]],
            split: [Whole, Halves, Windows][point[8]],
            upkeep: [Fresh, Edited, Refreshed][point[9]],
            seed,
            head: 0,
            ops: (1 << (EDITS + 5)) - 1,
            probe: None,
            clauses: (1 << 6) - 1,
            second_column: true,
        }
    }

    fn spec(&self) -> Spec {
        let spec = match self.shape {
            Binary => Spec::uniform(2),
            Uniform => Spec::uniform(64),
            Zipf => Spec::zipf(200, 1.0),
            Runs => Spec {
                distribution: Distribution::Clustered { run_len: 24 },
                ..Spec::uniform(32)
            },
        };
        spec.with_nulls_ppm(if self.nulls { 50_000 } else { 0 })
    }

    /// `(m, hole, top)`: the domain size, a value held out of the data
    /// for maintenance to admit inside the domain, and one far above it.
    fn domain(&self) -> (u64, u64, u64) {
        let m = self.spec().cardinality;
        (m, m / 2, m + 40)
    }

    /// Columns `c` and (unless cut) `d`, uniform over 5. A generated
    /// column's prefix does not depend on its length.
    fn columns(&self) -> Vec<Vec<Cell>> {
        let (m, hole, _) = self.domain();
        let held = |cell| match cell {
            Cell::Value(v) if v == hole && m >= 4 => Cell::Value(v + 1),
            other => other,
        };
        let c = generate_column(&self.spec(), self.rows, self.seed);
        let d = Spec::uniform(5).with_nulls_ppm(self.spec().nulls_ppm);
        let d = generate_column(&d, self.rows, self.seed ^ 1);
        let mut columns = vec![
            c[self.head..].iter().map(|&x| held(x)).collect(),
            d[self.head..].to_vec(),
        ];
        columns.truncate(1 + usize::from(self.second_column));
        columns
    }

    /// Row edits (deletes; updates to a known value, to NULL, to the
    /// held-out value), then appends that admit values above the domain
    /// in no order around the held-out one, and a NULL.
    fn ops(&self, rows: usize) -> Vec<Op> {
        let (m, hole, top) = self.domain();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x0b5);
        let mut ops: Vec<Op> = (0..EDITS)
            .map(|_| {
                let row = rng.random_range(0..rows);
                match rng.random_range(0..5) {
                    0 | 1 => Op::Delete(row),
                    2 => Op::Update(row, Cell::Value(rng.random_range(0..m))),
                    3 => Op::Update(row, Cell::Null),
                    _ => Op::Update(row, Cell::Value(hole)),
                }
            })
            .collect();
        ops.extend([m + 7, hole, top, m + 1].map(|v| Op::Append(Cell::Value(v))));
        ops.push(Op::Append(Cell::Null));
        let kept = (0..ops.len()).filter(|i| self.upkeep != Fresh && self.ops >> i & 1 == 1);
        kept.map(|i| ops[i]).collect()
    }

    /// The probes the cut keeps, of: points, lists and ranges that reach
    /// the admitted values, NOT IN and IS NULL on `c`, and three DNFs.
    fn probes(&self) -> Vec<Dnf> {
        use Pred::{Between, Eq, In, IsNull, NotIn};
        let (m, hole, top) = self.domain();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9e);
        let lo = rng.random_range(0..m);
        let hi = rng.random_range(lo..m);
        let list: Vec<u64> = (0..rng.random_range(1..8))
            .map(|_| rng.random_range(0..m))
            .collect();
        let points = [rng.random_range(0..m), hole, top, m + 1_000].map(Eq);
        let (low, high) = (hole.max(2) - 2, m.max(3) - 3);
        let ranges = [(lo, hi), (low, hole + 2), (high, top), (0, top)].map(|(a, b)| Between(a, b));
        let lists = [In(list.clone()), In(vec![top, hole, 0])];
        let preds = points.into_iter().chain(lists).chain(ranges);
        let preds = preds.chain([NotIn(list), IsNull]);
        let mut probes: Vec<Dnf> = preds.map(|pred| vec![vec![(0, pred)]]).collect();
        for _ in probes.len()..PROBES {
            let disjuncts = rng.random_range(1..4);
            let dnf = (0..disjuncts).map(|_| {
                let clauses = rng.random_range(1..3);
                (0..clauses).map(|_| clause(&mut rng, m)).collect()
            });
            probes.push(dnf.collect());
        }
        let mut probes: Vec<Dnf> = match self.probe {
            Some(i) => probes.into_iter().skip(i).take(1).collect(),
            None => probes,
        };
        for dnf in &mut probes {
            let mut n = 0;
            for conjunction in dnf.iter_mut() {
                conjunction.retain(|&(column, _)| {
                    n += 1;
                    self.clauses >> (n - 1) & 1 == 1 && (column == 0 || self.second_column)
                });
            }
            dnf.retain(|conjunction| !conjunction.is_empty());
        }
        probes.retain(|dnf| !dnf.is_empty());
        probes
    }

    /// One step smaller each, in the order the shrinker tries them: one
    /// probe; half the rows from either end, then a quarter, down to
    /// one; no ops, then one op fewer; one clause fewer; no column `d`.
    fn smaller(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let mut with = |edit: &dyn Fn(&mut Self)| {
            let mut next = *self;
            edit(&mut next);
            out.push(next);
        };
        if self.probe.is_none() {
            (0..PROBES).for_each(|i| with(&|c| c.probe = Some(i)));
        }
        let mut step = (self.rows - self.head) / 2;
        while step > 0 {
            with(&|c| c.head += step);
            with(&|c| c.rows -= step);
            step /= 2;
        }
        with(&|c| c.ops = 0);
        (0..EDITS + 5).for_each(|b| with(&|c| c.ops &= !(1 << b)));
        if self.probe.is_some() {
            (0..6).for_each(|b| with(&|c| c.clauses &= !(1 << b)));
        }
        with(&|c| c.second_column = false);
        out.retain(|c| c != self);
        out
    }
}

/// A random clause of a table DNF: on `c` (domain `m`) or on `d`.
fn clause(rng: &mut StdRng, m: u64) -> (usize, Pred) {
    let column = rng.random_range(0..2);
    let m = [m, 5][column];
    let (a, b) = (rng.random_range(0..m), rng.random_range(0..m));
    let pred = match rng.random_range(0..3) {
        0 => Pred::Eq(a),
        1 => Pred::In(vec![a, b]),
        _ => Pred::Between(a.min(b), a.max(b)),
    };
    (column, pred)
}

/// The column's values on the codes `reserved..`, in a seeded order: an
/// explicit mapping with no regard to value order.
fn shuffled_mapping(cells: &[Cell], reserved: u64, seed: u64) -> Mapping {
    let mut values = Mapping::first_seen_values(cells);
    values.sort_unstable();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..values.len()).rev() {
        values.swap(i, rng.random_range(0..=i));
    }
    let mut mapping = Mapping::new(Mapping::width_for(values.len() + reserved as usize));
    for (i, &v) in values.iter().enumerate() {
        mapping.insert(v, reserved + i as u64).unwrap();
    }
    mapping
}

/// `columns` as the table stores them: its rows in `order`.
fn stored(columns: &[Vec<Cell>], order: Option<RowOrder>) -> Vec<Vec<Cell>> {
    let cells: Vec<&[Cell]> = columns.iter().map(|c| &c[..]).collect();
    let ids = sort_order(&cells, order.unwrap_or_default());
    let column = |c: &[Cell]| ids.iter().map(|&r| c[r as usize]).collect();
    cells.iter().map(|c| column(c)).collect()
}

/// Footnote 4's `c_e` of `expr` on `idx`, plus the companion vectors
/// Method 1 masks a non-empty selection with: `B_NULL` and `B_NotExist`
/// where they exist, none under `EncodedReserved` (Theorem 2.1).
fn c_e(idx: &EncodedBitmapIndex, expr: &DnfExpr) -> u64 {
    let masked = idx.policy() == SeparateVectors && !expr.is_false();
    expr.vectors_accessed() as u64 + u64::from(masked) * companions(idx)
}

fn companions(idx: &EncodedBitmapIndex) -> u64 {
    (idx.bitmap_vector_count() - idx.slices().len()) as u64
}

/// What the source must report for `pred`: the `c_e` of the values it
/// selects from the mapping; for IS NULL the companions it reads, which
/// `EncodedReserved` leaves to its reduction (not pinned).
fn model(source: &EncodedBitmapIndex, pred: &Pred) -> Option<u64> {
    let selects = |&v: &u64| pred.matches(Some(Cell::Value(v)));
    let values: Vec<u64> = match pred {
        Pred::IsNull if source.policy() == EncodedReserved => return None,
        Pred::IsNull => return Some(companions(source)),
        Pred::Eq(v) => vec![*v],
        Pred::In(vs) => vs.clone(),
        _ => source
            .mapping()
            .iter()
            .map(|(v, _)| v)
            .filter(selects)
            .collect(),
    };
    Some(c_e(source, &source.explain_in_list(&values)))
}

type Outcome = Result<(), Box<dyn std::error::Error>>;

/// `Err` naming `form` unless it selects the rows in `want` and, where
/// a `c_e` is given, reports that many vectors.
fn agree(form: &str, probe: &dyn Debug, got: &Got, want: &[usize], c_e: Option<u64>) -> Outcome {
    let (rows, vectors) = (got.0.to_positions(), got.1);
    let at = rows.iter().zip(want).take_while(|(a, b)| a == b).count();
    let (n, m, a, b) = (rows.len(), want.len(), rows.get(at), want.get(at));
    if rows != want {
        Err(format!(
            "{form} selects {n} rows for {probe:?}, the scan {m}: {a:?} vs {b:?}"
        ))?;
    }
    if let Some(c_e) = c_e.filter(|&c_e| c_e != vectors) {
        Err(format!(
            "{form} reads {vectors} vectors for {probe:?}, not {c_e}"
        ))?;
    }
    Ok(())
}

/// A form's answer: the rows it selects and the vectors it read.
type Got = (BitVec, u64);

fn seen(r: QueryResult) -> Got {
    (r.bitmap, r.stats.vectors_accessed)
}

fn ask(idx: &dyn SelectionIndex, pred: &Pred) -> Option<Got> {
    Some(seen(match pred {
        Pred::Eq(v) => idx.eq(*v),
        Pred::In(vs) => idx.in_list(vs),
        Pred::Between(lo, hi) => idx.range(*lo, *hi),
        _ => return None,
    }))
}

/// How a form answers a predicate on `c`, where it has a method for it.
type Answer<'a> = Box<dyn Fn(&Pred) -> Option<Got> + 'a>;

/// Builds `case`, asks every form every probe, and names the first
/// answer that differs from the scan or from `c_e`.
fn verdict(case: &Case) -> Outcome {
    let columns = case.columns();
    let order = match case.order {
        Original => None,
        Lexicographic => Some(RowOrder::Lexicographic),
        Gray => Some(RowOrder::Gray),
    };
    let named = (0..columns.len()).map(|i| Column::new(["c", "d"][i], columns[i].clone()));
    let options = TableOptions {
        row_orders: order.into_iter().collect(),
        ..TableOptions::default()
    };
    let mut table = ShardedTable::build(named.collect(), &options)?;
    // The single-column forms hold the rows where the table stores them.
    let stored = stored(&columns, order);
    let reserved = 2 * u64::from(case.policy == EncodedReserved);
    let shuffled = case.shuffled.then_some(reserved);
    let mapping = shuffled.map(|r| shuffled_mapping(&stored[0], r, case.seed));
    let options = BuildOptions {
        policy: case.policy,
        mapping,
    };
    let mut source = EncodedBitmapIndex::build_with(stored[0].iter().copied(), options)?;

    // The truth, row by row (`None`: deleted), per column: the source
    // takes every op; the table no append and no value new to it.
    let live = |column: &Vec<Cell>| column.iter().copied().map(Some).collect();
    let mut truth: Vec<Vec<Option<Cell>>> = stored.iter().map(live).collect();
    let (mut kept, mut last) = (truth[0].clone(), stored[0].clone());
    let ops = case.ops(kept.len());
    for &op in &ops {
        let (row, cell) = match op {
            Op::Delete(row) => (row, None),
            Op::Update(row, cell) => (row, Some(cell)),
            Op::Append(cell) => (kept.len(), Some(cell)),
        };
        match op {
            Op::Delete(row) => source.delete(row)?,
            Op::Update(row, cell) => source.update(row, cell)?,
            Op::Append(cell) => drop(source.append(cell)?),
        }
        kept.resize(kept.len().max(row + 1), None);
        last.resize(kept.len(), Cell::Null);
        kept[row] = cell;
        last[row] = cell.unwrap_or(last[row]);
        let known = |v| table.mapping(0).code_of(v).is_some();
        if matches!(op, Op::Append(_)) || matches!(cell, Some(Cell::Value(v)) if !known(v)) {
            continue;
        }
        for (column, idx) in table.indexes_mut().enumerate() {
            match cell {
                None => idx.delete(row)?,
                Some(cell) if column == 0 => idx.update(row, cell)?,
                Some(_) => continue,
            }
            truth[column][row] = cell;
        }
    }
    source.set_storage_policy(case.storage);
    table.set_storage_policy(case.storage);
    if case.upkeep == Refreshed {
        source.refresh_summaries();
        table
            .indexes_mut()
            .for_each(EncodedBitmapIndex::refresh_summaries);
    }
    if source.summaries().is_some() != (case.upkeep != Edited || ops.is_empty()) {
        return Err(format!("the summaries are not as {:?} leaves them", case.upkeep).into());
    }

    let pager = Pager::with_page_size([64, 128, 256, 4096][case.seed as usize % 4]);
    let paged = persist_and_open(&source, &pager, 1 + (case.seed as usize / 4) % 64)?;
    let paged = |pred: &Pred| {
        let r = match pred {
            Pred::Eq(v) => paged.eq(*v),
            Pred::In(vs) => paged.in_list(vs),
            Pred::Between(lo, hi) => paged.range(*lo, *hi),
            _ => return None,
        };
        Some(seen(r.expect("the pager holds every page")))
    };
    let packed = CompressedEncodedIndex::from_uncompressed(&source);
    let mut executor = Executor::new(source.rows());
    executor.register("c", &source);
    let executed = |pred: &Pred| {
        let (predicate, _) = pred.as_query()?;
        let clauses = vec![Query {
            column: "c".into(),
            predicate,
        }];
        let (bitmap, report) = executor.run(&ConjunctiveQuery { clauses });
        Some((bitmap, report.cost.vectors_accessed))
    };
    let in_memory = |pred: &Pred| match pred {
        Pred::IsNull => Some(seen(source.is_null())),
        Pred::NotIn(vs) => Some(seen(source.not_in_list(vs).expect("infallible"))),
        _ => ask(&source, pred),
    };
    let finals: Vec<Cell> = kept.iter().map(|c| c.unwrap_or(Cell::Null)).collect();
    let cells = || finals.iter().copied();
    // Two families take the deletes themselves, over the cells as the
    // other ops left them; the rest are built with deleted rows NULL.
    let mut simple = SimpleBitmapIndex::build(last.iter().copied());
    let mut sliced = BitSlicedIndex::build(last.iter().copied());
    for row in (0..kept.len()).filter(|&r| kept[r].is_none()) {
        simple.delete(row);
        sliced.delete(row);
    }
    let families: [Box<dyn SelectionIndex>; 8] = [
        Box::new(simple),
        Box::new(sliced),
        Box::new(DynamicBitmapIndex::build(cells())),
        Box::new(RangeBasedBitmapIndex::build(cells(), 8)),
        Box::new(HybridBTreeBitmapIndex::build(cells())),
        Box::new(ValueListIndex::build_with(cells(), 16, 256)),
        Box::new(ProjectionIndex::build(cells(), 8)),
        Box::new(MultiComponentIndex::build(cells(), 8)),
    ];
    // The forms of the index, their cost pinned; then the families.
    let mut forms: Vec<(&str, Answer<'_>)> = vec![
        ("source", Box::new(in_memory)),
        ("paged", Box::new(paged)),
        ("paged, asked again", Box::new(paged)),
        ("compressed", Box::new(|pred: &Pred| ask(&packed, pred))),
        ("executor", Box::new(executed)),
    ];
    let pinned = forms.len();
    for family in &families {
        forms.push((
            family.name(),
            Box::new(|pred: &Pred| ask(family.as_ref(), pred)),
        ));
    }

    with_forced_path(case.tier, || {
        for dnf in case.probes() {
            let clauses = dnf.concat();
            if let (1, [(0, pred)]) = (dnf.len(), &clauses[..]) {
                let want: Vec<usize> = (0..kept.len()).filter(|&r| pred.matches(kept[r])).collect();
                let c_e = model(&source, pred);
                for (i, (form, answer)) in forms.iter().enumerate() {
                    if let Some(got) = answer(pred) {
                        agree(form, pred, &got, &want, c_e.filter(|_| i < pinned))?;
                    }
                }
            }
            check_table(&table, case.split, &dnf, &truth)?;
        }
        Ok(())
    })
}

/// The table's answer to `dnf`, evaluated in the morsels of `split` and
/// merged, against the scan; and its cost, summed over the morsels,
/// against each clause's `c_e` on its column's index.
fn check_table(
    table: &ShardedTable,
    split: Split,
    dnf: &Dnf,
    truth: &[Vec<Option<Cell>>],
) -> Outcome {
    let clause = |(column, pred): &(usize, Pred)| {
        let (_, predicate) = pred.as_query()?;
        Some(Clause {
            column: ["c", "d"][*column].into(),
            predicate,
        })
    };
    let disjuncts: Option<Vec<Vec<Clause>>> =
        dnf.iter().map(|d| d.iter().map(clause).collect()).collect();
    let Some(disjuncts) = disjuncts else {
        return Ok(());
    };
    let compiled = table.compile(&DnfRequest { disjuncts })?;
    let n = match split {
        Whole => 1,
        Halves => 2.min(table.windows()),
        Windows => table.windows(),
    };
    let morsels: Vec<_> = table
        .morsels(n)
        .map(|w| (w.start * SEGMENT_WORDS, table.eval_morsel(&compiled, w)))
        .collect();
    let bitmap = table.merge(morsels.iter().map(|(word, (b, _))| (*word, b)));
    let vectors = morsels
        .iter()
        .map(|(_, (_, cost))| cost.vectors_accessed)
        .sum();
    let hit = |r: &usize| {
        let clause = |(column, pred): &(usize, Pred)| pred.matches(truth[*column][*r]);
        dnf.iter().any(|conjunction| conjunction.iter().all(clause))
    };
    let want: Vec<usize> = (0..table.rows()).filter(hit).collect();
    let clauses = compiled.disjuncts.iter().flatten();
    let model = clauses
        .map(|c| c_e(table.column_index(c.column), &c.expr))
        .sum();
    let form = format!("the table in {n} morsels");
    agree(&form, dnf, &(bitmap, vectors), &want, Some(model))
}

/// `verdict`, with a panic as a failure.
fn failure(case: &Case) -> Option<String> {
    match std::panic::catch_unwind(|| verdict(case)) {
        Ok(outcome) => outcome.err().map(|e| e.to_string()),
        Err(_) => Some("a panic (its message is above)".into()),
    }
}

/// Checks `case`; on failure shrinks it, re-checking after every step,
/// and panics with both: the shrunk one as a line for `REGRESSIONS`.
pub fn run(case: Case) {
    let Some(why) = failure(&case) else { return };
    let mut small = case;
    while let Some(next) = small.smaller().into_iter().find(|c| failure(c).is_some()) {
        small = next;
    }
    let small_why = failure(&small).unwrap_or_default();
    panic!("{why}\n  in {case:?}\nshrinks to\n    {small:?},\nwhich fails with: {small_why}");
}

/// Axes by number, in `Case::at`'s order, for [`pinned`].
pub const SHAPE: usize = 0;
pub const NULLS: usize = 1;
pub const ROWS: usize = 2;
pub const UPKEEP: usize = 9;

/// Values per axis, in `Case::at`'s order.
pub fn radices() -> Vec<usize> {
    vec![4, 2, 3, 2, 2, 3, 3, available_paths().len(), 3, 3]
}

/// A strength-2 covering array over `radices`: every pair of values of
/// every two axes is in some row. Greedy and deterministic: a row starts
/// from the first uncovered pair and gives each other axis in turn the
/// value that covers the most pairs still uncovered with the axes set.
pub fn pairwise(radices: &[usize]) -> Vec<Vec<usize>> {
    let n = radices.len();
    let axes = || (0..n).flat_map(move |i| (i + 1..n).map(move |j| (i, j)));
    let mut uncovered = BTreeSet::new();
    for (i, j) in axes() {
        let values = (0..radices[i]).flat_map(|a| (0..radices[j]).map(move |b| (a, b)));
        uncovered.extend(values.map(|(a, b)| (i, a, j, b)));
    }
    let mut rows = Vec::new();
    while let Some(&(i, a, j, b)) = uncovered.first() {
        let mut row = vec![None; n];
        (row[i], row[j]) = (Some(a), Some(b));
        for k in (0..n).filter(|&k| k != i && k != j) {
            let gain = |v: usize| {
                let pair =
                    |l: usize| row[l].map(|w| if l < k { (l, w, k, v) } else { (k, v, l, w) });
                (0..n)
                    .filter_map(pair)
                    .filter(|p| uncovered.contains(p))
                    .count()
            };
            row[k] = (0..radices[k]).rev().max_by_key(|&v| gain(v));
        }
        let row: Vec<usize> = row.into_iter().map(Option::unwrap).collect();
        uncovered.retain(|&(i, a, j, b)| (row[i], row[j]) != (a, b));
        rows.push(row);
    }
    rows
}

/// The points of a pairwise covering array over the axes not in `pins`,
/// each `(axis, value)` pin holding its axis at that value.
pub fn pinned(pins: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut radices = radices();
    pins.iter().for_each(|&(axis, _)| radices[axis] = 1);
    let mut points = pairwise(&radices);
    for point in &mut points {
        pins.iter().for_each(|&(axis, value)| point[axis] = value);
    }
    points
}
