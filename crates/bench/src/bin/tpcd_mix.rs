//! Experiment E18 — the TPC-D claim: with 12 of 17 query types doing
//! range search, the encoded index's logarithmic range cost dominates
//! the mix even though single-value selections favour the simple index
//! (§3.1's closing argument).
//!
//! Runs the same seeded workload through every index family and totals
//! the paper's cost metric.

use ebi_analysis::report::TextTable;
use ebi_baselines::{
    BitSlicedIndex, DynamicBitmapIndex, HybridBTreeBitmapIndex, RangeBasedBitmapIndex,
    SelectionIndex, SimpleBitmapIndex, ValueListIndex,
};
use ebi_bench::{write_result, zipf_cells, DEFAULT_ROWS};
use ebi_core::EncodedBitmapIndex;
use ebi_warehouse::workload::{Predicate, WorkloadSpec};

fn main() {
    let m = 1000u64;
    let cells = zipf_cells(m, 0.5, DEFAULT_ROWS, 0x7D);
    let workload = WorkloadSpec::tpcd_like("a", m, 200, 0x7E).generate();

    let encoded = EncodedBitmapIndex::build(cells.iter().copied()).expect("build");
    let simple = SimpleBitmapIndex::build(cells.iter().copied());
    let sliced = BitSlicedIndex::build(cells.iter().copied());
    let dynamic = DynamicBitmapIndex::build(cells.iter().copied());
    let ranged = RangeBasedBitmapIndex::build(cells.iter().copied(), 16);
    let hybrid = HybridBTreeBitmapIndex::build(cells.iter().copied());
    let vlist = ValueListIndex::build(cells.iter().copied());

    let indexes: Vec<(&str, &dyn SelectionIndex)> = vec![
        ("encoded-bitmap", &encoded),
        ("simple-bitmap", &simple),
        ("bit-sliced", &sliced),
        ("dynamic-bitmap", &dynamic),
        ("range-based", &ranged),
        ("hybrid", &hybrid),
        ("value-list-btree", &vlist),
    ];

    let mut table = TextTable::new([
        "index",
        "total_units",
        "units_point",
        "units_range",
        "mean_units/query",
        "storage_bytes",
    ]);
    let mut reference: Option<Vec<usize>> = None;
    for (name, idx) in &indexes {
        let mut total = 0u64;
        let mut point = 0u64;
        let mut range = 0u64;
        let mut match_counts: Vec<usize> = Vec::with_capacity(workload.len());
        for q in &workload {
            let r = match &q.predicate {
                Predicate::Eq(v) => idx.eq(*v),
                Predicate::InList(vs) => idx.in_list(vs),
                Predicate::Range(lo, hi) => idx.range(*lo, *hi),
            };
            total += r.stats.vectors_accessed;
            if q.predicate.is_range_search() {
                range += r.stats.vectors_accessed;
            } else {
                point += r.stats.vectors_accessed;
            }
            match_counts.push(r.bitmap.count_ones());
        }
        // Every index family must return identical answers.
        match &reference {
            None => reference = Some(match_counts),
            Some(expect) => assert_eq!(expect, &match_counts, "{name} disagrees"),
        }
        table.row([
            (*name).to_string(),
            total.to_string(),
            point.to_string(),
            range.to_string(),
            format!("{:.1}", total as f64 / workload.len() as f64),
            idx.storage_bytes().to_string(),
        ]);
    }
    println!(
        "== TPC-D-style mix: {} queries, {:.0}% range searches, m = {m}, {} rows ==",
        workload.len(),
        100.0
            * workload
                .iter()
                .filter(|q| q.predicate.is_range_search())
                .count() as f64
            / workload.len() as f64,
        DEFAULT_ROWS,
    );
    println!(
        "(units: bitmap vectors for bitmap families, nodes for trees, buckets for range-based)"
    );
    println!("{}", table.render());
    write_result("tpcd_mix.csv", &table.to_csv());
}
