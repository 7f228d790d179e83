//! Cross-family equivalence: every index implementation must return the
//! same answers to the same workload over the same data — the measured
//! backbone of every comparison in the paper.

use ebi::baselines::{CompressedEncodedIndex, MultiComponentIndex};
use ebi::core::paged::{persist_and_open, PagedIndex};
use ebi::prelude::*;
use ebi::storage::pager::Pager;
use ebi::warehouse::generator::{generate_column, ColumnSpec};
use ebi::warehouse::workload::WorkloadSpec;
use ebi_service::shard::{Clause, DnfRequest, Predicate as Served};
use ebi_service::{ColumnSpec as ServedColumn, ShardedTable, TableOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How one form under test answers a predicate: matching rows and the
/// `vectors_accessed` it reports.
type Answer<'a> = Box<dyn Fn(&Predicate) -> (BitVec, u64) + 'a>;

/// A form under test: its name, how it answers, and the source index
/// whose every form must report that source's `vectors_accessed`.
type Form<'a> = (&'a str, Answer<'a>, Option<&'a EncodedBitmapIndex>);

fn ask(idx: &dyn SelectionIndex, p: &Predicate) -> QueryResult {
    match p {
        Predicate::Eq(v) => idx.eq(*v),
        Predicate::InList(vs) => idx.in_list(vs),
        Predicate::Range(lo, hi) => idx.range(*lo, *hi),
    }
}

fn family(idx: &dyn SelectionIndex) -> Answer<'_> {
    Box::new(move |p| {
        let r = ask(idx, p);
        (r.bitmap, r.stats.vectors_accessed)
    })
}

fn paged<'a>(idx: &'a PagedIndex<'a>) -> Answer<'a> {
    Box::new(move |p| {
        let r = match p {
            Predicate::Eq(v) => idx.eq(*v),
            Predicate::InList(vs) => idx.in_list(vs),
            Predicate::Range(lo, hi) => idx.range(*lo, *hi),
        };
        let r = r.expect("the pager holds every page");
        (r.bitmap, r.stats.vectors_accessed)
    })
}

/// Compiled once against the table-wide mapping, evaluated shard by
/// shard and merged: the service's path without its sockets.
fn sharded(table: &ShardedTable) -> Answer<'_> {
    Box::new(move |p| {
        let predicate = match p {
            Predicate::Eq(v) => Served::Eq(*v),
            Predicate::InList(vs) => Served::In(vs.clone()),
            Predicate::Range(lo, hi) => Served::Between(*lo, *hi),
        };
        let column = "c".to_string();
        let request = DnfRequest {
            disjuncts: vec![vec![Clause { column, predicate }]],
        };
        let (bitmap, cost) = table.eval_local(&table.compile(&request).unwrap());
        (bitmap, cost.vectors_accessed)
    })
}

fn executed<'a>(exec: &'a Executor<'a>) -> Answer<'a> {
    Box::new(move |p| {
        let column = "c".to_string();
        let predicate = p.clone();
        let (bitmap, report) = exec.run(&ConjunctiveQuery {
            clauses: vec![Query { column, predicate }],
        });
        (bitmap, report.cost.vectors_accessed)
    })
}

fn table_of(cells: &[Cell], shards: usize) -> ShardedTable {
    let options = TableOptions {
        shards,
        ..TableOptions::default()
    };
    ShardedTable::build(vec![ServedColumn::new("c", cells.to_vec())], &options).unwrap()
}

fn executor_over(idx: &EncodedBitmapIndex) -> Executor<'_> {
    let mut exec = Executor::new(idx.rows());
    exec.register("c", idx);
    exec
}

/// Every form and family against the scan of `cells`. `encoded` and
/// `reserved` are the EBI sources under the two NULL policies, holding
/// `cells` (a deleted row is a `Cell::Null` there: it matches nothing);
/// families and forms that cannot be maintained are built from `cells`.
fn compare(
    cells: &[Cell],
    encoded: &EncodedBitmapIndex,
    reserved: &EncodedBitmapIndex,
    workload: &[Query],
) {
    let simple = SimpleBitmapIndex::build(cells.iter().copied());
    let sliced = BitSlicedIndex::build(cells.iter().copied());
    let dynamic = DynamicBitmapIndex::build(cells.iter().copied());
    let ranged = RangeBasedBitmapIndex::build(cells.iter().copied(), 8);
    let hybrid = HybridBTreeBitmapIndex::build(cells.iter().copied());
    let vlist = ValueListIndex::build_with(cells.iter().copied(), 16, 256);
    let projection = ProjectionIndex::build(cells.iter().copied(), 8);
    let multi = MultiComponentIndex::build(cells.iter().copied(), 8);
    // The forms of the two sources: paged, compressed, behind an executor.
    let (pager, pager_reserved) = (Pager::with_page_size(256), Pager::with_page_size(256));
    let encoded_paged = persist_and_open(encoded, &pager, 16).unwrap();
    let reserved_paged = persist_and_open(reserved, &pager_reserved, 16).unwrap();
    let encoded_packed = CompressedEncodedIndex::from_uncompressed(encoded);
    let reserved_packed = CompressedEncodedIndex::from_uncompressed(reserved);
    let (encoded_exec, reserved_exec) = (executor_over(encoded), executor_over(reserved));
    // A sharded table cannot append, so it is built from the cells: one
    // shard is then an index rebuilt from them, and must cost the same.
    let rebuilt = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
    let (one_shard, three_shards) = (table_of(cells, 1), table_of(cells, 3));

    let forms: Vec<Form<'_>> = vec![
        ("encoded", family(encoded), Some(encoded)),
        ("encoded-reserved", family(reserved), Some(reserved)),
        ("simple", family(&simple), None),
        ("bit-sliced", family(&sliced), None),
        ("dynamic", family(&dynamic), None),
        ("range-based", family(&ranged), None),
        ("hybrid", family(&hybrid), None),
        ("value-list", family(&vlist), None),
        ("projection", family(&projection), None),
        ("multi-component-b8", family(&multi), None),
        ("paged", paged(&encoded_paged), Some(encoded)),
        ("paged-reserved", paged(&reserved_paged), Some(reserved)),
        ("compressed", family(&encoded_packed), Some(encoded)),
        (
            "compressed-reserved",
            family(&reserved_packed),
            Some(reserved),
        ),
        ("executor", executed(&encoded_exec), Some(encoded)),
        (
            "executor-reserved",
            executed(&reserved_exec),
            Some(reserved),
        ),
        ("sharded-1", sharded(&one_shard), Some(&rebuilt)),
        ("sharded-3", sharded(&three_shards), None),
    ];

    for (qi, q) in workload.iter().enumerate() {
        let scanned: Vec<usize> = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.value().is_some_and(|v| q.predicate.matches(v)))
            .map(|(i, _)| i)
            .collect();
        for (name, answer, source) in &forms {
            let (bitmap, vectors) = answer(&q.predicate);
            assert_eq!(
                bitmap.to_positions(),
                scanned,
                "query {qi} ({:?}): {name} disagrees with the scan",
                q.predicate
            );
            if let Some(source) = source {
                assert_eq!(
                    vectors,
                    ask(*source, &q.predicate).stats.vectors_accessed,
                    "query {qi} ({:?}): {name} reads other vectors than its source",
                    q.predicate
                );
            }
        }
    }
}

/// The column's values on the codes `reserved..`, in a seeded order:
/// an explicit mapping with no regard to value order, under which a
/// range is a scattered code set.
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

/// Both sources over `cells`: on the default mapping (codes in value
/// order) or on an explicit shuffled one.
fn sources(cells: &[Cell], shuffled: Option<u64>) -> (EncodedBitmapIndex, EncodedBitmapIndex) {
    let build = |policy, reserved| {
        EncodedBitmapIndex::build_with(
            cells.iter().copied(),
            BuildOptions {
                policy,
                // Codes 0 and 1 stay out of a reserved source's mapping:
                // void, and room for the NULL code.
                mapping: shuffled.map(|seed| shuffled_mapping(cells, reserved, seed)),
            },
        )
        .unwrap()
    };
    (
        build(NullPolicy::SeparateVectors, 0),
        build(NullPolicy::EncodedReserved, 2),
    )
}

fn run_all(cells: &[Cell], m: u64, queries: usize, seed: u64) {
    // One value inside the domain is held back for the maintenance pass
    // to admit.
    let hole = m / 2;
    let cells: Vec<Cell> = cells
        .iter()
        .map(|c| match c {
            Cell::Value(v) if *v == hole && m >= 4 => Cell::Value(hole + 1),
            other => *other,
        })
        .collect();
    let workload = WorkloadSpec::tpcd_like("c", m, queries, seed).generate();
    // The same cells clustered, as a caller sorts them before the build:
    // every form then answers in the sorted positions, with long runs.
    for order in [RowOrder::Original, RowOrder::Lexicographic, RowOrder::Gray] {
        let sorted = sort_order(&[&cells], order);
        let cells: Vec<Cell> = sorted.iter().map(|&r| cells[r as usize]).collect();
        for shuffled in [None, Some(seed)] {
            let (encoded, reserved) = sources(&cells, shuffled);
            assert_eq!(
                encoded.mapping().is_total_order_preserving(),
                shuffled.is_none() || m <= 2
            );
            compare(&cells, &encoded, &reserved, &workload);
            maintained_pass(cells.clone(), encoded, reserved, &workload, m);
        }
    }
}

/// Second pass, over maintained sources: rows deleted, updated (to known
/// values, to values new to the domain, to NULL) and appended. The
/// appends admit values past `m` in no order (they widen the code
/// space), then the held-back value inside the domain — it takes the
/// smallest free code, so on the value-ordered mapping the ranges that
/// span it stop being code intervals — then one above every other. Under
/// `EncodedReserved` a source built without NULLs reserves its NULL code
/// on the first update to NULL, after the values' codes and before the
/// admitted ones: a range that ends at an admitted value then holds the
/// NULL code inside its code interval, and must not select NULL rows.
fn maintained_pass(
    mut cells: Vec<Cell>,
    mut encoded: EncodedBitmapIndex,
    mut reserved: EncodedBitmapIndex,
    workload: &[Query],
    m: u64,
) {
    for (row, held) in cells.iter_mut().enumerate() {
        let change = match row % 11 {
            3 => None,
            5 => Some(Cell::Value(row as u64 * 13 % m)),
            7 if row % 3 == 0 => Some(Cell::Null),
            _ => continue,
        };
        for source in [&mut encoded, &mut reserved] {
            match change {
                None => source.delete(row).unwrap(),
                Some(cell) => source.update(row, cell).unwrap(),
            }
        }
        *held = change.unwrap_or(Cell::Null);
    }
    let (hole, top) = (m / 2, m + 40);
    let appended = (0..40u64).map(|i| match i % 9 {
        4 => Cell::Null,
        _ => Cell::Value(i * 7 % (m + 5)),
    });
    for cell in appended.chain([hole, top, hole, top].map(Cell::Value)) {
        encoded.append(cell).unwrap();
        reserved.append(cell).unwrap();
        cells.push(cell);
    }
    // The admitted values, alone and at either end of a range.
    let admitted = [
        Predicate::Eq(hole),
        Predicate::Eq(top),
        Predicate::Range(hole.saturating_sub(2), hole + 2),
        Predicate::Range(m.saturating_sub(3), top),
        Predicate::Range(m, top),
        Predicate::Range(0, top),
    ];
    let mut workload = workload.to_vec();
    workload.extend(admitted.map(|predicate| Query {
        column: "c".to_string(),
        predicate,
    }));
    compare(&cells, &encoded, &reserved, &workload);
}

#[test]
fn all_families_agree_on_uniform_data() {
    let cells = generate_column(&ColumnSpec::uniform(64), 3_000, 0xE0);
    run_all(&cells, 64, 40, 0xE1);
}

#[test]
fn all_families_agree_on_skewed_data() {
    let cells = generate_column(&ColumnSpec::zipf(200, 1.0), 3_000, 0xE2);
    run_all(&cells, 200, 40, 0xE3);
}

#[test]
fn all_families_agree_with_nulls_present() {
    let cells = generate_column(&ColumnSpec::uniform(32).with_nulls_ppm(50_000), 2_000, 0xE4);
    run_all(&cells, 32, 30, 0xE5);
}

#[test]
fn all_families_agree_on_tiny_domains() {
    let cells = generate_column(&ColumnSpec::uniform(2), 500, 0xE6);
    run_all(&cells, 2, 20, 0xE7);
}

#[test]
fn deletion_consistency_across_policies_and_families() {
    let cells = generate_column(&ColumnSpec::uniform(20), 1_000, 0xE8);
    let mut encoded = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
    let mut reserved = EncodedBitmapIndex::build_with(
        cells.iter().copied(),
        BuildOptions {
            policy: NullPolicy::EncodedReserved,
            mapping: None,
        },
    )
    .unwrap();
    let mut simple = SimpleBitmapIndex::build(cells.iter().copied());
    let mut sliced = BitSlicedIndex::build(cells.iter().copied());
    let mut dead = vec![false; cells.len()];
    for row in (0..cells.len()).step_by(7) {
        encoded.delete(row).unwrap();
        reserved.delete(row).unwrap();
        simple.delete(row);
        sliced.delete(row);
        dead[row] = true;
    }
    for v in 0..20u64 {
        let expect: Vec<usize> = cells
            .iter()
            .enumerate()
            .filter(|&(i, c)| !dead[i] && c.value() == Some(v))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            encoded.eq(v).unwrap().bitmap.to_positions(),
            expect,
            "encoded v={v}"
        );
        assert_eq!(
            reserved.eq(v).unwrap().bitmap.to_positions(),
            expect,
            "reserved v={v}"
        );
        assert_eq!(
            SelectionIndex::eq(&simple, v).bitmap.to_positions(),
            expect,
            "simple v={v}"
        );
        assert_eq!(
            SelectionIndex::eq(&sliced, v).bitmap.to_positions(),
            expect,
            "sliced v={v}"
        );
    }
}

#[test]
fn query_cost_shape_matches_the_paper() {
    // The headline shape on real data: for wide ranges the encoded index
    // touches ~log(m) vectors while the simple index touches δ.
    let m = 256u64;
    let cells = generate_column(&ColumnSpec::uniform(m), 20_000, 0xE9);
    let encoded = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
    let simple = SimpleBitmapIndex::build(cells.iter().copied());
    for delta in [16u64, 64, 128] {
        let sel: Vec<u64> = (0..delta).collect();
        let e = encoded.in_list(&sel).unwrap();
        let s = simple.in_list(&sel);
        assert_eq!(e.bitmap, s.bitmap);
        assert_eq!(s.stats.vectors_accessed, delta, "c_s = δ");
        assert!(
            e.stats.vectors_accessed <= 8,
            "c_e ≤ k = 8, got {} at δ = {delta}",
            e.stats.vectors_accessed
        );
        assert!(
            e.stats.vectors_accessed < s.stats.vectors_accessed,
            "encoded must win at δ = {delta}"
        );
    }
}
