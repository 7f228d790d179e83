//! A TPC-D-flavoured comparison: the paper's §3 argument end to end.
//! Builds every index family over the same skewed fact column, runs the
//! 12/17 range-search mix, and reports the paper's cost metric plus the
//! multi-attribute cooperativity case of §2.1.
//!
//! ```sh
//! cargo run --release --example tpcd_workload
//! ```

use ebi::prelude::*;
use ebi::warehouse::generator::{generate_column, ColumnSpec};
use std::time::Instant;

fn main() {
    let rows = 100_000usize;
    let m = 1000u64;
    let cells = generate_column(&ColumnSpec::zipf(m, 0.5), rows, 0x7C0);
    let workload = WorkloadSpec::tpcd_like("product", m, 100, 0x7C1).generate();
    let ranges = workload
        .iter()
        .filter(|q| q.predicate.is_range_search())
        .count();
    println!(
        "workload: {} queries, {ranges} range searches ({}%), cardinality {m}, {rows} rows",
        workload.len(),
        100 * ranges / workload.len()
    );

    let encoded = EncodedBitmapIndex::build(cells.iter().copied()).expect("build");
    let simple = SimpleBitmapIndex::build(cells.iter().copied());
    let sliced = BitSlicedIndex::build(cells.iter().copied());
    let vlist = ValueListIndex::build(cells.iter().copied());
    let projection = ProjectionIndex::build(cells.iter().copied(), 8);
    let indexes: Vec<(&str, &dyn SelectionIndex)> = vec![
        ("encoded-bitmap", &encoded),
        ("simple-bitmap", &simple),
        ("bit-sliced", &sliced),
        ("value-list-btree", &vlist),
        ("projection-scan", &projection),
    ];

    println!(
        "\n{:<18} {:>12} {:>12} {:>14} {:>12}",
        "index", "read units", "pages(4K)", "storage bytes", "elapsed"
    );
    let mut reference: Option<Vec<usize>> = None;
    for (name, idx) in &indexes {
        let start = Instant::now();
        let mut units = 0u64;
        let mut pages = 0u64;
        let mut counts = Vec::new();
        for q in &workload {
            let r = match &q.predicate {
                Predicate::Eq(v) => idx.eq(*v),
                Predicate::InList(vs) => idx.in_list(vs),
                Predicate::Range(lo, hi) => idx.range(*lo, *hi),
            };
            units += r.stats.vectors_accessed;
            pages += idx.query_pages(&r.stats, 4096);
            counts.push(r.bitmap.count_ones());
        }
        match &reference {
            None => reference = Some(counts),
            Some(expect) => assert_eq!(expect, &counts, "{name} returned different answers"),
        }
        println!(
            "{:<18} {:>12} {:>12} {:>14} {:>10.1?}",
            name,
            units,
            pages,
            idx.storage_bytes(),
            start.elapsed()
        );
    }

    // Cooperativity (§2.1): a 3-attribute conjunction from 3 single-
    // attribute indexes — where compound B-trees would need 2^3 - 1 = 7.
    println!("\nmulti-attribute conjunction (cooperativity):");
    let region = generate_column(&ColumnSpec::uniform(25), rows, 0x7C2);
    let month = generate_column(&ColumnSpec::uniform(12), rows, 0x7C3);
    let region_idx = EncodedBitmapIndex::build(region.iter().copied()).expect("build");
    let month_idx = EncodedBitmapIndex::build(month.iter().copied()).expect("build");
    let mut exec = Executor::new(rows);
    exec.register("product", &encoded);
    exec.register("region", &region_idx);
    exec.register("month", &month_idx);
    let q = ConjunctiveQuery {
        clauses: vec![
            Query {
                column: "product".into(),
                predicate: Predicate::Range(0, 127),
            },
            Query {
                column: "region".into(),
                predicate: Predicate::InList(vec![3, 7, 11]),
            },
            Query {
                column: "month".into(),
                predicate: Predicate::Range(6, 8),
            },
        ],
    };
    let (bitmap, report) = exec.run(&q);
    println!("  product IN [0,128) AND region IN {{3,7,11}} AND month IN [6,8]");
    println!(
        "  -> {} rows, {} total vector reads across 3 single-attribute indexes",
        bitmap.count_ones(),
        report.cost.vectors_accessed
    );
    for (i, e) in report.expressions.iter().enumerate() {
        println!("     clause {i}: {e}");
    }
    println!(
        "  (covering every conjunction over 3 attributes with compound B-trees needs {} trees)",
        ebi::btree::model::compound_btrees_needed(3)
    );
}
