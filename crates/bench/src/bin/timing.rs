//! The one timing harness: every timed case in the repository, run
//! interleaved, into `bench_results/timing.csv`.
//!
//! The paper prices a query in bitmap vectors and disk accesses and
//! leaves CPU time aside (footnote 4), so every wall-clock figure the
//! repository quotes outside `benchmark/` is a row of this table. A row
//! is one case: the median, first and third quartile of its timed
//! calls, and the exact work of one call read off that call's result —
//! `vectors_accessed`, `words_scanned`, `bytes_touched`, the cubes and
//! literals of a reduced expression, the `storage_bytes` of what it
//! built, segments pruned and compressed chunks skipped; a column that
//! does not apply to a case is left blank. A selection's counts are its
//! own cost record's, so an index that does not evaluate through the
//! kernel (simple, range-based, the B-tree families) shows 0 words and
//! bytes beside its vectors. The counts repeat exactly
//! from run to run and from call to call (the run asserts it); the
//! times do not.
//!
//! Each of `SAMPLES` rounds calls every case once, in one fixed order,
//! so host drift falls on all cases alike. A case's timed call follows
//! one untimed call of the same routine, which warms its code and
//! fixtures. Only the routine is timed: its input is made before the
//! clock starts and its output is read and dropped after it stops.
//!
//! `--one-pass` runs one round (`samples` = 1): the check that every
//! case still runs and still does the committed work.
//!
//! `scripts/regen_all.sh` runs it pinned to one CPU.

use ebi_baselines::{
    BitSlicedIndex, HybridBTreeBitmapIndex, RangeBasedBitmapIndex, SelectionIndex,
    SimpleBitmapIndex, ValueListIndex,
};
use ebi_bench::{uniform_cells, write_result, zipf_cells, DEFAULT_ROWS};
use ebi_bitvec::simd::{self, KernelPath};
use ebi_bitvec::{BitVec, DnfPlan, SliceStorage, StoragePolicy};
use ebi_boolean::{eval_expr_naive, qm, support, DnfExpr};
use ebi_core::aggregates::BitSlicedMeasure;
use ebi_core::encoding::{
    workload_cost, AffinityEncoding, AnnealingEncoding, EncodingProblem, EncodingStrategy,
    GrayEncoding, IdentityEncoding,
};
use ebi_core::index::BuildOptions;
use ebi_core::total_order::dense_order_mapping;
use ebi_core::{EncodedBitmapIndex, Mapping};
use ebi_obs::CostCounters;
use ebi_storage::Cell;
use ebi_warehouse::{ColumnSpec, ConjunctiveQuery, Executor, Predicate, Query, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Timed calls per case in the full mode.
const SAMPLES: usize = 31;

const USAGE: &str = "timing — every timed case, interleaved, into bench_results/timing.csv

USAGE:
    timing [--one-pass]

FLAGS:
    --one-pass      one round (samples = 1): every case runs and its
                    count columns can be checked
    -h, --help      print this help

Unknown flags are an error.";

/// The exact work of one call; `None` where a column does not apply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Work {
    vectors_accessed: Option<u64>,
    words_scanned: Option<u64>,
    bytes_touched: Option<u64>,
    cubes: Option<u64>,
    literals: Option<u64>,
    storage_bytes: Option<u64>,
    segments_pruned: Option<u64>,
    compressed_chunks_skipped: Option<u64>,
}

const COUNT_COLUMNS: &str = "vectors_accessed,words_scanned,bytes_touched,cubes,literals,\
                             storage_bytes,segments_pruned,compressed_chunks_skipped";

impl Work {
    /// A selection's cost record: its vectors and the kernel's work.
    fn of(cost: &CostCounters) -> Self {
        Self {
            vectors_accessed: Some(cost.vectors_accessed),
            ..Self::kernel(cost)
        }
    }

    /// What the kernel counted; `vectors_accessed` is the caller's.
    fn kernel(cost: &CostCounters) -> Self {
        Self {
            words_scanned: Some(cost.words_scanned),
            bytes_touched: Some(cost.bytes_touched),
            segments_pruned: Some(cost.segments_pruned),
            compressed_chunks_skipped: Some(cost.compressed_chunks_skipped),
            ..Self::default()
        }
    }

    /// Reduced expressions, summed: vectors, cubes and literals.
    fn reduced<'e>(exprs: impl IntoIterator<Item = &'e DnfExpr>) -> Self {
        let (mut vectors, mut cubes, mut literals) = (0, 0, 0);
        for e in exprs {
            vectors += e.vectors_accessed() as u64;
            cubes += e.cubes().len() as u64;
            literals += e.literal_count() as u64;
        }
        Self {
            vectors_accessed: Some(vectors),
            cubes: Some(cubes),
            literals: Some(literals),
            ..Self::default()
        }
    }

    fn vectors(n: usize) -> Self {
        Self {
            vectors_accessed: Some(n as u64),
            ..Self::default()
        }
    }

    fn storage(bytes: usize) -> Self {
        Self {
            storage_bytes: Some(bytes as u64),
            ..Self::default()
        }
    }

    /// `self` with every column `other` sets taken from `other`.
    fn and(self, other: Self) -> Self {
        Self {
            vectors_accessed: other.vectors_accessed.or(self.vectors_accessed),
            words_scanned: other.words_scanned.or(self.words_scanned),
            bytes_touched: other.bytes_touched.or(self.bytes_touched),
            cubes: other.cubes.or(self.cubes),
            literals: other.literals.or(self.literals),
            storage_bytes: other.storage_bytes.or(self.storage_bytes),
            segments_pruned: other.segments_pruned.or(self.segments_pruned),
            compressed_chunks_skipped: other
                .compressed_chunks_skipped
                .or(self.compressed_chunks_skipped),
        }
    }

    fn csv(&self) -> String {
        [
            self.vectors_accessed,
            self.words_scanned,
            self.bytes_touched,
            self.cubes,
            self.literals,
            self.storage_bytes,
            self.segments_pruned,
            self.compressed_chunks_skipped,
        ]
        .map(|c| c.map_or_else(String::new, |v| v.to_string()))
        .join(",")
    }
}

/// One call of a case: its nanoseconds and its work.
type Call = Box<dyn FnMut() -> (u64, Work)>;

/// The cases, in the order every round calls them.
#[derive(Default)]
struct Cases(Vec<(String, Call)>);

impl Cases {
    /// A case whose routine consumes an input: `setup` makes it before
    /// the clock starts, and `work` reads the output after the clock
    /// stops, before the output is dropped.
    fn add_with<I: 'static, O: 'static>(
        &mut self,
        name: impl Into<String>,
        mut setup: impl FnMut() -> I + 'static,
        mut routine: impl FnMut(I) -> O + 'static,
        work: impl Fn(&O) -> Work + 'static,
    ) {
        let call = move || {
            // An untimed call first, so that the timed one finds its code
            // and fixtures in cache, as a repeated request would.
            drop(black_box(routine(setup())));
            let input = black_box(setup());
            let start = Instant::now();
            let out = black_box(routine(input));
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            (ns, work(&out))
        };
        self.0.push((name.into(), Box::new(call)));
    }

    /// A case whose routine reads its fixtures only.
    fn add<O: 'static>(
        &mut self,
        name: impl Into<String>,
        mut routine: impl FnMut() -> O + 'static,
        work: impl Fn(&O) -> Work + 'static,
    ) {
        self.add_with(name, || (), move |()| routine(), work);
    }

    /// A case and its twin on the scalar tier, `{name}/scalar`: the same
    /// routine with its thread forced onto [`KernelPath::Scalar`], so the
    /// two rows price the AVX2 compilation of the word passes.
    fn add_with_scalar_twin<O: 'static>(
        &mut self,
        name: impl Into<String>,
        routine: impl FnMut() -> O + Clone + 'static,
        work: impl Fn(&O) -> Work + Clone + 'static,
    ) {
        let name = name.into();
        let mut scalar = routine.clone();
        self.add(name.clone(), routine, work.clone());
        self.add(
            format!("{name}/scalar"),
            move || simd::with_forced_path(KernelPath::Scalar, &mut scalar),
            work,
        );
    }
}

/// A fixture every call of the run borrows.
fn keep<T>(fixture: T) -> &'static T {
    Box::leak(Box::new(fixture))
}

/// E8/E9 — Figure 9's selections in wall-clock: IN-lists of width δ
/// over m = 1000 on 100 000 rows.
fn fig9(c: &mut Cases) {
    let cells = uniform_cells(1000, DEFAULT_ROWS, 0xB9);
    let encoded = keep(EncodedBitmapIndex::build(cells.iter().copied()).expect("build"));
    let simple = keep(SimpleBitmapIndex::build(cells.iter().copied()));
    let sliced = keep(BitSlicedIndex::build(cells));
    for delta in [1u64, 8, 64, 512] {
        let sel = keep((0..delta).collect::<Vec<u64>>());
        let name = |index: &str| format!("fig9_range_selectivity/{index}/{delta}");
        let cost = |r: &ebi_core::QueryResult| Work::of(&r.stats);
        c.add(
            name("encoded"),
            move || SelectionIndex::in_list(encoded, sel),
            cost,
        );
        c.add(name("simple"), move || simple.in_list(sel), cost);
        c.add(name("bit_sliced"), move || sliced.range(0, delta - 1), cost);
    }
}

/// E13 — build cost against cardinality (§2.1) on 50 000 rows, and the
/// encoded build at `lib_maintain`'s shape, with the default mapping and
/// with an explicit one.
fn build_cost(c: &mut Cases, lib_maintain: &'static [Cell]) {
    for m in [16u64, 128, 1024, 8192] {
        let cells = keep(uniform_cells(m, 50_000, 0xBC + m));
        let cells = move || cells.iter().copied();
        c.add(
            format!("build_cost/encoded/{m}"),
            move || EncodedBitmapIndex::build(cells()).expect("build"),
            |i| Work::storage(i.storage_bytes()),
        );
        c.add(
            format!("build_cost/simple/{m}"),
            move || SimpleBitmapIndex::build(cells()),
            |i| Work::storage(i.storage_bytes()),
        );
        c.add(
            format!("build_cost/btree/{m}"),
            move || ValueListIndex::build(cells()),
            |i| Work::storage(i.storage_bytes()),
        );
    }
    c.add(
        "build_cost/encoded/lib_maintain",
        move || EncodedBitmapIndex::build(lib_maintain.iter().copied()).expect("build"),
        |i| Work::storage(i.storage_bytes()),
    );
    // The served table's call per column: its value-ordered mapping,
    // made before the clock, handed to the build, which then streams.
    let mapping = keep(dense_order_mapping(&Mapping::first_seen_values(
        lib_maintain,
    )));
    c.add_with(
        "build_cost/encoded/lib_maintain_mapped",
        move || BuildOptions {
            mapping: Some(mapping.clone()),
            ..BuildOptions::default()
        },
        move |options| {
            EncodedBitmapIndex::build_with(lib_maintain.iter().copied(), options).expect("build")
        },
        |i| Work::storage(i.storage_bytes()),
    );
}

/// `lib_maintain`'s table: Zipf(1.0) over 8 160 values, then every value
/// once, so k = 13 with 32 free codes, on 1M rows.
fn lib_maintain_cells() -> Vec<Cell> {
    let mut cells = zipf_cells(8160, 1.0, 1_000_000 - 8160, 0x1AB);
    cells.extend((0..8160).map(Cell::Value));
    cells
}

/// E15 — maintenance (§3.1): appends cost `h` vector writes, `log m`
/// against `m`; brand-new values cost the simple index a vector each.
/// The maintenance item's case: 16 000 updates at `lib_maintain`'s shape.
fn maintenance(c: &mut Cases, lib_maintain: &'static [Cell]) {
    for m in [64u64, 1024] {
        let cells = keep(uniform_cells(m, 20_000, 0xA9 + m));
        c.add_with(
            format!("maintenance_append/encoded/{m}"),
            move || EncodedBitmapIndex::build(cells.iter().copied()).expect("build"),
            move |mut idx| {
                for i in 0..2000 {
                    idx.append(Cell::Value(i % m)).expect("append");
                }
                idx
            },
            |i| Work::storage(i.storage_bytes()),
        );
        c.add_with(
            format!("maintenance_append/simple/{m}"),
            move || SimpleBitmapIndex::build(cells.iter().copied()),
            move |mut idx| {
                for i in 0..2000 {
                    idx.append(Cell::Value(i % m));
                }
                idx
            },
            |i| Work::storage(i.storage_bytes()),
        );
    }
    let cells = keep(uniform_cells(256, 20_000, 0xAE));
    c.add_with(
        "maintenance_expansion/encoded_new_values",
        move || EncodedBitmapIndex::build(cells.iter().copied()).expect("build"),
        |mut idx| {
            for v in 256..456 {
                idx.append(Cell::Value(v)).expect("append");
            }
            idx
        },
        |i| Work::storage(i.storage_bytes()),
    );
    c.add_with(
        "maintenance_expansion/simple_new_values",
        move || SimpleBitmapIndex::build(cells.iter().copied()),
        |mut idx| {
            for v in 256..456 {
                idx.append(Cell::Value(v));
            }
            idx
        },
        |i| Work::storage(i.storage_bytes()),
    );

    // One row deleted, so that `B_NotExist` is among the vectors every
    // update writes, as in `lib_maintain` after its first batch.
    let mut base = EncodedBitmapIndex::build(lib_maintain.iter().copied()).expect("build");
    base.delete(0).expect("delete");
    let base = keep(base);
    let mut rng = StdRng::seed_from_u64(0x1AC);
    let updates: &'static Vec<(usize, Cell)> = keep(
        zipf_cells(8160, 1.0, 16_000, 0x1AD)
            .into_iter()
            .map(|cell| (rng.random_range(0..lib_maintain.len()), cell))
            .collect(),
    );
    c.add_with(
        "maintenance_update/lib_maintain_shape",
        move || base.clone(),
        move |mut idx| {
            for &(row, cell) in updates {
                idx.update(row, cell).expect("update");
            }
            idx
        },
        |i| Work::storage(i.storage_bytes()),
    );
}

/// E16 — cooperativity (§2.1): 1-, 2- and 3-clause conjunctions
/// through the executor, one single-attribute index per column.
fn multiattr(c: &mut Cases) {
    let rows = DEFAULT_ROWS;
    let build = |cells: Vec<Cell>| keep(EncodedBitmapIndex::build(cells).expect("build"));
    let mut exec = Executor::new(rows);
    exec.register("a", build(uniform_cells(100, rows, 0x3A)));
    exec.register("b", build(zipf_cells(1000, 0.7, rows, 0x3B)));
    exec.register("d", build(uniform_cells(12, rows, 0x3C)));
    let exec = keep(exec);
    let clauses = [
        ("a", Predicate::Range(10, 40)),
        ("b", Predicate::Range(0, 255)),
        ("d", Predicate::InList(vec![1, 2, 3, 4])),
    ];
    for n in 1..=clauses.len() {
        let query = keep(ConjunctiveQuery {
            clauses: clauses[..n]
                .iter()
                .map(|(column, predicate)| Query {
                    column: (*column).into(),
                    predicate: predicate.clone(),
                })
                .collect(),
        });
        c.add(
            format!("multiattr_conjunction/{n}"),
            move || exec.run(query),
            |(_, report)| Work::of(&report.cost),
        );
    }
}

/// E18 — the TPC-D-style mix (12/17 range searches), 50 queries over
/// m = 1000 on 50 000 rows, through every index family.
fn tpcd_workload(c: &mut Cases) {
    let cells = zipf_cells(1000, 0.5, 50_000, 0x4D);
    let workload = keep(WorkloadSpec::tpcd_like("a", 1000, 50, 0x4E).generate());
    let cells = || cells.iter().copied();
    let indexes: [(&str, &'static dyn SelectionIndex); 6] = [
        (
            "encoded",
            keep(EncodedBitmapIndex::build(cells()).expect("build")),
        ),
        ("simple", keep(SimpleBitmapIndex::build(cells()))),
        ("bit_sliced", keep(BitSlicedIndex::build(cells()))),
        (
            "range_based",
            keep(RangeBasedBitmapIndex::build(cells(), 16)),
        ),
        ("hybrid", keep(HybridBTreeBitmapIndex::build(cells()))),
        ("value_list", keep(ValueListIndex::build(cells()))),
    ];
    for (name, idx) in indexes {
        let run = move || {
            let mut cost = CostCounters::default();
            for q in workload {
                cost += match &q.predicate {
                    Predicate::Eq(v) => idx.eq(*v),
                    Predicate::InList(vs) => idx.in_list(vs),
                    Predicate::Range(lo, hi) => idx.range(*lo, *hi),
                }
                .stats;
            }
            cost
        };
        c.add(format!("tpcd_workload/{name}"), run, Work::of);
    }
}

/// E20 — the price of finding an encoding (§3.2 calls it one-time):
/// each strategy over eight random predicates. The count is the
/// workload's total vectors under the mapping found.
fn encoding_search(c: &mut Cases) {
    for m in [64u64, 256] {
        let values = keep((0..m).collect::<Vec<u64>>());
        let mut rng = StdRng::seed_from_u64(0xE5 + m);
        let predicates = keep(
            (0..8)
                .map(|_| {
                    let size = rng.random_range(2..=(m / 4).max(3));
                    let mut vs: Vec<u64> = (0..size).map(|_| rng.random_range(0..m)).collect();
                    vs.sort_unstable();
                    vs.dedup();
                    vs
                })
                .collect::<Vec<_>>(),
        );
        let mut strategies: Vec<(&str, &'static dyn EncodingStrategy)> = vec![
            ("identity", &IdentityEncoding),
            ("gray", &GrayEncoding),
            ("affinity", &AffinityEncoding),
        ];
        if m <= 64 {
            let annealer = keep(AnnealingEncoding {
                iterations: 200,
                seed: 0xE6,
            });
            strategies.push(("annealing200", annealer));
        }
        for (name, strategy) in strategies {
            let problem = move || EncodingProblem {
                values,
                predicates,
                width: (m - 1).ilog2() + 1,
                forbidden_codes: &[],
            };
            c.add(
                format!("encoding_search/{name}/{m}"),
                move || strategy.encode(&problem()).expect("encode"),
                |mapping| Work::vectors(workload_cost(mapping, predicates)),
            );
        }
    }
}

/// E21 — direct-bitmap aggregates (§5) against a row scan: SUM and
/// MEDIAN over a filtered 200 000-row measure.
fn aggregates(c: &mut Cases) {
    let rows = 200_000usize;
    let mut rng = StdRng::seed_from_u64(0xA66);
    let values = keep(
        (0..rows)
            .map(|_| rng.random_range(0..10_000u64))
            .collect::<Vec<_>>(),
    );
    let measure = keep(BitSlicedMeasure::build(
        values.iter().map(|&v| Cell::Value(v)),
    ));
    let filter: &'static BitVec = keep((0..rows).map(|i| i % 3 != 0).collect());
    // A row scan reads every value and every filter word.
    let scanned = Work {
        bytes_touched: Some((values.len() * 8 + filter.storage_bytes()) as u64),
        ..Work::default()
    };
    let qualifying = move || {
        values
            .iter()
            .enumerate()
            .filter(move |(i, _)| filter.bit(*i))
    };
    c.add(
        "aggregates/sum/bit_sliced",
        move || measure.sum_where(filter),
        |r| Work::vectors(r.vectors_accessed as usize),
    );
    c.add(
        "aggregates/sum/row_scan",
        move || qualifying().map(|(_, &v)| u128::from(v)).sum::<u128>(),
        move |_| scanned,
    );
    c.add(
        "aggregates/median/bit_sliced",
        move || measure.median_where(filter),
        |r| Work::vectors(r.vectors_accessed as usize),
    );
    c.add(
        "aggregates/median/row_sort",
        move || {
            let mut q: Vec<u64> = qualifying().map(|(_, &v)| v).collect();
            q.sort_unstable();
            q[(q.len() - 1) / 2]
        },
        move |_| scanned,
    );
}

/// E26 — §3.2's one-time reduction: per-query reduction against
/// precomputed retrieval functions, on first-seen codes (on value-ordered
/// codes these selections are intervals and skip reduction).
fn reduction_cache(c: &mut Cases) {
    let cells = uniform_cells(1000, DEFAULT_ROWS, 0xCA);
    let build = || {
        let options = BuildOptions {
            mapping: Mapping::from_values(&Mapping::first_seen_values(&cells)).ok(),
            ..BuildOptions::default()
        };
        EncodedBitmapIndex::build_with(cells.iter().copied(), options).expect("build")
    };
    let (cold, mut warm) = (keep(build()), build());
    let selections = [8u64, 64, 512].map(|delta| (0..delta).collect::<Vec<u64>>());
    warm.precompute_predicates(&selections);
    let warm = keep(warm);
    for sel in selections {
        let (delta, sel) = (sel.len(), keep(sel));
        let cost = |r: &ebi_core::QueryResult| Work::of(&r.stats);
        c.add(
            format!("reduction_cache/uncached/{delta}"),
            move || cold.in_list(sel).expect("query"),
            cost,
        );
        c.add(
            format!("reduction_cache/precomputed/{delta}"),
            move || warm.in_list(sel).expect("query"),
            cost,
        );
    }
}

/// The reduction item: Quine–McCluskey by itself, the shapes the service
/// reduces (a range on value-ordered codes is an interval cover; on
/// first-seen codes a scattered code set), and Figure 9's best case.
fn logical_reduction(c: &mut Cases) {
    let reduced = |e: &DnfExpr| Work::reduced([e]);
    for k in [6u32, 8, 10] {
        let contiguous = keep((0..1u64 << (k - 1)).collect::<Vec<_>>());
        let scattered = keep((0..1u64 << k).step_by(3).collect::<Vec<_>>());
        c.add(
            format!("quine_mccluskey/contiguous_half/{k}"),
            move || qm::minimize(contiguous, &[], k),
            reduced,
        );
        c.add(
            format!("quine_mccluskey/scattered_third/{k}"),
            move || qm::minimize(scattered, &[], k),
            reduced,
        );
    }

    // Column `c` of the repository benchmark: Zipf(1.0) over 1 000
    // values, k = 10, 24 unassigned codes. `first_seen` reduces a value
    // set through Quine–McCluskey on first-seen codes, the unassigned
    // codes don't-care.
    let first_seen = |cells: &[Cell]| {
        let mapping = Mapping::from_values(&Mapping::first_seen_values(cells)).expect("mapping");
        let dont_cares = mapping.unassigned_codes();
        keep((mapping, dont_cares))
    };
    let reduce = |(mapping, dc): &(Mapping, Vec<u64>), values: &[u64]| {
        qm::minimize(
            &mapping.codes_of(values).expect("mapped"),
            dc,
            mapping.width(),
        )
    };
    let mut rng = StdRng::seed_from_u64(0x1998);
    let cells = zipf_cells(1000, 1.0, 100_000, rng.random());
    let served = first_seen(&cells);
    let ordered = keep(EncodedBitmapIndex::build(cells).expect("build"));
    assert_eq!(served.1.len(), 24);
    for width in [50u64, 200, 400] {
        let lo = rng.random_range(0..1000 - width);
        let values = keep(served.0.values_between(lo, lo + width));
        c.add(
            format!("first_seen_range/{width}"),
            move || reduce(served, values),
            reduced,
        );
        c.add(
            format!("interval_cover/{width}"),
            move || ordered.explain_in_list(values),
            reduced,
        );
        // The same range as a served `BETWEEN` compiles it: from its two
        // ends, with no value list.
        c.add(
            format!("range_compile/{width}"),
            move || ordered.explain_range(lo, lo + width),
            reduced,
        );
    }
    for len in [8usize, 64] {
        let mut values = std::collections::BTreeSet::new();
        while values.len() < len {
            values.insert(rng.random_range(0..1000u64));
        }
        let values = keep(values.into_iter().collect::<Vec<_>>());
        c.add(
            format!("scattered_inlist/{len}"),
            move || reduce(served, values),
            reduced,
        );
    }

    // Column `d` of `lib_maintain` (k = 13, 32 free codes) at 50 000 rows.
    let mut cells = zipf_cells(8160, 1.0, 50_000, rng.random());
    cells.extend((0..8160).map(Cell::Value));
    let wide = first_seen(&cells);
    let ordered = keep(EncodedBitmapIndex::build(cells).expect("build"));
    assert_eq!((wide.0.width(), wide.1.len()), (13, 32));
    let lo = rng.random_range(0..8160 - 50u64);
    for (name, hi) in [("eq", lo), ("range50", lo + 50)] {
        let values = keep(wide.0.values_between(lo, hi));
        c.add(
            format!("k13_free32/{name}"),
            move || reduce(wide, values),
            reduced,
        );
    }
    c.add(
        "interval_cover/eq_k13",
        move || ordered.explain_in_list(&[lo]),
        reduced,
    );

    for (m, delta) in [(50u64, 31u64), (1000, 500)] {
        let k = (m - 1).ilog2() + 1;
        let on = keep((0..delta).collect::<Vec<_>>());
        let dc = keep((m..1u64 << k).collect::<Vec<_>>());
        c.add(
            format!("min_support/prefix/m{m}_d{delta}"),
            move || support::min_vectors(on, dc, k),
            |&n| Work::vectors(n),
        );
    }
}

/// Lowered clauses over dense slices, timed both ways: the
/// operator-at-a-time `eval_expr_naive` and the fused kernel
/// (`DnfPlan::bind(..).eval`, lowered before the clock starts), the
/// latter also on the scalar tier.
fn naive_and_fused(
    c: &mut Cases,
    name: &str,
    slices: &'static [Vec<BitVec>],
    clauses: Vec<(usize, DnfExpr)>,
) {
    let rows = slices[0][0].len();
    let clauses = keep(clauses);
    let plans = keep(
        clauses
            .iter()
            .map(|(_, e)| e.lower())
            .collect::<Vec<DnfPlan>>(),
    );
    let reduced = Work::reduced(clauses.iter().map(|(_, e)| e));
    c.add(
        format!("eval_fused/naive/{name}"),
        move || {
            let eval = |(s, e): &(usize, DnfExpr)| eval_expr_naive(e, &slices[*s], rows);
            clauses.iter().map(eval).collect::<Vec<BitVec>>()
        },
        move |_| reduced,
    );
    c.add_with_scalar_twin(
        format!("eval_fused/fused/{name}"),
        move || {
            let mut cost = CostCounters::default();
            let out: Vec<BitVec> = (clauses.iter().zip(plans))
                .map(|((s, _), p)| p.bind(&slices[*s], None, rows).eval(&mut cost))
                .collect();
            (out, cost)
        },
        move |(_, cost)| reduced.and(Work::kernel(cost)),
    );
}

fn dense(index: &EncodedBitmapIndex) -> Vec<BitVec> {
    index.slices().iter().map(SliceStorage::to_dense).collect()
}

/// The evaluation engines: Figure 9 ranges of width δ over m = 1000 on
/// 1M rows (one clause each), and `serve_point`'s shard — three
/// 25 000-row indexes (m = 7; 13 with 1 % NULLs; 61) and 256
/// conjunctions `a=x AND b=y AND e=z`, 768 clauses a pass.
fn eval_fused(c: &mut Cases) {
    let index = EncodedBitmapIndex::build(uniform_cells(1000, 1_000_000, 0xE7A1)).expect("build");
    let slices = keep(vec![dense(&index)]);
    for delta in [8u64, 64, 512] {
        let codes: Vec<u64> = (0..delta)
            .map(|v| index.mapping().code_of(v).expect("mapped"))
            .collect();
        let expr = qm::minimize(&codes, &[], index.width());
        naive_and_fused(c, &delta.to_string(), slices, vec![(0, expr)]);
    }

    let rows = 25_000;
    let columns = [
        ColumnSpec::uniform(7),
        ColumnSpec::uniform(13).with_nulls_ppm(10_000),
        ColumnSpec::uniform(61),
    ];
    let indexes: Vec<EncodedBitmapIndex> = (columns.iter().zip(0x5Au64..))
        .map(|(spec, seed)| {
            let cells = ebi_warehouse::generator::generate_column(spec, rows, seed);
            EncodedBitmapIndex::build(cells).expect("build")
        })
        .collect();
    let slices = keep(indexes.iter().map(dense).collect::<Vec<_>>());
    let clauses = (0..256u64)
        .flat_map(|i| [(0, i % 7), (1, i % 13), (2, i % 61)])
        .map(|(s, v)| (s, indexes[s].explain_in_list(&[v])))
        .collect();
    naive_and_fused(c, "point_shard", slices, clauses);
}

/// The skip item: `serve_range`'s column sorted by value into one
/// 1M-row index, in each slice container policy, over 256 ranges of
/// width 50–400 (one pass each, plans lowered before the clock).
fn sorted(c: &mut Cases) {
    let mut cells = zipf_cells(1000, 1.0, 1_000_000, 0x5027);
    cells.sort_unstable_by_key(|cell| cell.value());
    let index = EncodedBitmapIndex::build(cells).expect("build");
    let mut rng = StdRng::seed_from_u64(0x5028);
    let ranges: Vec<(DnfExpr, DnfPlan)> = (0..256u64)
        .map(|step| {
            let delta = 50 + step * 350 / 255;
            let lo = rng.random_range(0..1000 - delta);
            let expr = index.explain_in_list(&index.mapping().values_between(lo, lo + delta));
            let plan = expr.lower();
            (expr, plan)
        })
        .collect();
    let ranges = keep(ranges);
    for (name, policy) in [
        ("dense", StoragePolicy::Dense),
        ("adaptive", StoragePolicy::Adaptive),
        ("roaring", StoragePolicy::Roaring),
    ] {
        let mut idx = index.clone();
        idx.set_storage_policy(policy);
        let idx = keep(idx);
        c.add(
            format!("sorted/{name}"),
            move || {
                let mut cost = CostCounters::default();
                for (expr, plan) in ranges {
                    cost += idx.run_plan(expr, plan).stats;
                }
                cost
            },
            move |cost| Work::of(cost).and(Work::storage(idx.storage_bytes())),
        );
    }
}

/// `benchmark/`'s sub-seed for one purpose of a run's seed.
fn sub_seed(seed: u64, purpose: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(purpose.wrapping_mul(0xbf58_476d_1ce4_e5b9))
}

/// The roofline item's case: `serve_range`'s column as the served table
/// builds it (Zipf(1.0) over 1 000 values, 1M rows, seed 1998, value-
/// ordered codes) and its 256 ranges of width 50–400, compiled before
/// the clock and evaluated through `run_plan`; and the population count
/// a served `COUNT` takes of a 1M-row bitmap. Both also on the scalar
/// tier.
fn eval_range(c: &mut Cases) {
    const SEED: u64 = 1998;
    let cells = zipf_cells(1000, 1.0, 1_000_000, sub_seed(SEED, 3));
    let options = BuildOptions {
        mapping: Some(dense_order_mapping(&Mapping::first_seen_values(&cells))),
        ..BuildOptions::default()
    };
    let index = keep(EncodedBitmapIndex::build_with(cells, options).expect("build"));
    // `benchmark/`'s range script: the widths in a seeded order, each at
    // a drawn place.
    let mut rng = StdRng::seed_from_u64(sub_seed(SEED, 12));
    let mut steps: Vec<u64> = (0..256).collect();
    for i in (1..steps.len()).rev() {
        steps.swap(i, rng.random_range(0..=i));
    }
    let ranges: Vec<(DnfExpr, DnfPlan)> = steps
        .into_iter()
        .map(|step| {
            let delta = 50 + step * 350 / 255;
            let lo = rng.random_range(0..1000 - delta);
            let expr = index.explain_range(lo, lo + delta);
            let plan = expr.lower();
            (expr, plan)
        })
        .collect();
    let ranges = keep(ranges);
    c.add_with_scalar_twin(
        "eval_range/1m",
        move || {
            let mut cost = CostCounters::default();
            for (expr, plan) in ranges {
                cost += index.run_plan(expr, plan).stats;
            }
            cost
        },
        Work::of,
    );
    let bitmap = keep(index.run_plan(&ranges[0].0, &ranges[0].1).bitmap);
    c.add_with_scalar_twin(
        "count_ones/1m",
        move || bitmap.count_ones(),
        move |_| Work {
            bytes_touched: Some(bitmap.storage_bytes() as u64),
            ..Work::default()
        },
    );
}

/// `(median, q1, q3)` of unsorted samples.
fn quartiles(mut ns: Vec<u64>) -> (u64, u64, u64) {
    ns.sort_unstable();
    let at = |q: usize| ns[(ns.len() - 1) * q / 4];
    (at(2), at(1), at(3))
}

fn main() {
    let mut one_pass = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--one-pass" => one_pass = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("error: unknown flag {other:?}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    eprintln!("building the fixtures…");
    let lib_maintain = keep(lib_maintain_cells());
    let mut cases = Cases::default();
    fig9(&mut cases);
    build_cost(&mut cases, lib_maintain);
    maintenance(&mut cases, lib_maintain);
    multiattr(&mut cases);
    tpcd_workload(&mut cases);
    encoding_search(&mut cases);
    aggregates(&mut cases);
    reduction_cache(&mut cases);
    logical_reduction(&mut cases);
    eval_fused(&mut cases);
    sorted(&mut cases);
    eval_range(&mut cases);

    let rounds = if one_pass { 1 } else { SAMPLES };
    let mut samples = vec![Vec::with_capacity(rounds); cases.0.len()];
    let mut work: Vec<Option<Work>> = vec![None; cases.0.len()];
    for round in 1..=rounds {
        eprintln!("round {round}/{rounds} of {} cases", cases.0.len());
        for (i, (name, call)) in cases.0.iter_mut().enumerate() {
            let (ns, w) = call();
            assert_eq!(
                *work[i].get_or_insert(w),
                w,
                "{name}: work differs between calls"
            );
            samples[i].push(ns);
        }
    }

    let mut csv = format!("case,median_ns,q1_ns,q3_ns,samples,{COUNT_COLUMNS}\n");
    for (((name, _), ns), w) in cases.0.iter().zip(samples).zip(work) {
        let n = ns.len();
        let (median, q1, q3) = quartiles(ns);
        let w = w.expect("every case ran").csv();
        let _ = writeln!(csv, "{name},{median},{q1},{q3},{n},{w}");
    }
    print!("{csv}");
    write_result("timing.csv", &csv);
}
