//! Range selections (§2.3): range-based encoding for pre-declared ranges
//! (Figures 7–8), total-order preserving encoding for ad-hoc ranges
//! (Figure 6), the bit-sliced special case, and what the default build
//! makes of an ad-hoc range: its codes follow value order, so the range
//! is a code interval, covered without Quine–McCluskey.
//!
//! ```sh
//! cargo run --example range_queries
//! ```

use ebi::core::range_encoding::{
    paper_figure7_ranges, paper_figure8_mapping, Interval, RangeBasedIndex,
};
use ebi::core::total_order::{optimize_order_preserving, paper_figure6_mapping};
use ebi::core::well_defined::achieved_cost;
use ebi::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // ------------------------------------------------------------------
    // 1. Range-based encoding: the paper's Figure 7/8 scenario.
    // ------------------------------------------------------------------
    let mut rng = StdRng::seed_from_u64(0xE7);
    let column: Vec<u64> = (0..20_000).map(|_| rng.random_range(6..20u64)).collect();
    let idx = RangeBasedIndex::build(
        &column,
        Interval::new(6, 20),
        &paper_figure7_ranges(),
        Some(paper_figure8_mapping()),
    )
    .expect("build range-based index");

    println!(
        "range-based encoded bitmap index over {} rows, domain 6 <= A < 20",
        column.len()
    );
    println!("induced partition: {:?}", idx.partitions());
    println!("\npredefined range selections:");
    for (lo, hi) in [(6u64, 10u64), (8, 12), (10, 13), (16, 20)] {
        let r = idx.query_range(lo, hi).expect("predefined range");
        println!(
            "  {lo:>2} <= A < {hi:<2}  f = {:<10}  {} vectors, {} rows",
            idx.explain_range(lo, hi).expect("explain"),
            r.stats.vectors_accessed,
            r.bitmap.count_ones()
        );
    }
    let misaligned = idx.query_range(7, 11);
    println!(
        "  7 <= A < 11  -> {:?}",
        misaligned.err().map(|e| e.to_string())
    );

    // ------------------------------------------------------------------
    // 2. Total-order preserving encoding: Figure 6.
    // ------------------------------------------------------------------
    println!("\ntotal-order preserving encoding (Figure 6):");
    let values = [101u64, 102, 103, 104, 105, 106];
    let hot = vec![vec![101u64, 102, 104, 105]];
    let paper = paper_figure6_mapping();
    let dense = Mapping::from_values(&values).expect("dense mapping");
    let found = optimize_order_preserving(&values, &hot, 3, 500, 0xF6).expect("optimise");
    for (name, m) in [("paper", &paper), ("dense", &dense), ("optimised", &found)] {
        println!(
            "  {name:<10} order-preserving: {:<5}  cost(A IN {{101,102,104,105}}): {} vectors",
            m.is_total_order_preserving(),
            achieved_cost(m, &hot[0])
        );
    }

    // ------------------------------------------------------------------
    // 3. Bit-sliced: ad-hoc ranges at constant k cost.
    // ------------------------------------------------------------------
    println!("\nbit-sliced index (EBI with the identity encoding):");
    let numeric: Vec<Cell> = (0..20_000u64).map(|i| Cell::Value(i * 13 % 1000)).collect();
    let sliced = BitSlicedIndex::build(numeric.iter().copied());
    for (lo, hi) in [(0u64, 9u64), (0, 499), (250, 750)] {
        let r = sliced.range(lo, hi);
        println!(
            "  {lo:>3} <= A <= {hi:<3}: {} vectors (always k = {}), {} rows",
            r.stats.vectors_accessed,
            sliced.width(),
            r.bitmap.count_ones()
        );
    }
    println!("\nthe simple index would read one vector per VALUE in each range — up to 501 here.");

    // ------------------------------------------------------------------
    // 4. The default build: codes in value order, ranges as intervals.
    // ------------------------------------------------------------------
    println!("\nencoded bitmap index, default (value-ordered) codes vs first-seen codes:");
    let ordered = EncodedBitmapIndex::build(numeric.iter().copied()).expect("build");
    let first_seen = Mapping::from_values(&Mapping::first_seen_values(&numeric)).expect("mapping");
    let scattered = EncodedBitmapIndex::build_with(
        numeric.iter().copied(),
        BuildOptions {
            mapping: Some(first_seen),
            ..Default::default()
        },
    )
    .expect("build");
    for (lo, hi) in [(0u64, 9u64), (0, 499), (250, 750), (512, 767), (600, 999)] {
        let values = ordered.mapping().values_between(lo, hi);
        let (o, s) = (
            ordered.explain_in_list(&values),
            scattered.explain_in_list(&values),
        );
        assert_eq!(
            ordered.range(lo, hi).expect("range").bitmap,
            scattered.range(lo, hi).expect("range").bitmap
        );
        println!(
            "  {lo:>3} <= A <= {hi:<3}: {} vectors in {:>2} cubes   (first-seen: {:>2} vectors in {:>3} cubes)",
            o.vectors_accessed(),
            o.cubes().len(),
            s.vectors_accessed(),
            s.cubes().len()
        );
    }
    println!(
        "  512 <= A <= 767 is {}; 600 <= A <= 999 runs on into the 24 free codes: {}",
        ordered.explain_in_list(&ordered.mapping().values_between(512, 767)),
        ordered.explain_in_list(&ordered.mapping().values_between(600, 999)),
    );
}
