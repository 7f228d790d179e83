//! Experiment E8/E9 — **Figure 9(a)/(b)**: bitmap vectors accessed vs
//! range width δ, for |A| = 50 and |A| = 1000.
//!
//! Prints, per δ:
//!
//! * the analytical series (`c_s = δ`, `c_e` best case, `c_e` worst
//!   case), and
//! * *measured* vector counts from real indexes over generated data —
//!   a simple bitmap index, an encoded index with the **identity**
//!   (well-aligned) mapping, and an encoded index with a first-seen
//!   (improper) mapping. The two encoded columns bracket the paper's
//!   best-case curve and `c_e_w` worst-case line (§3.2).

use ebi_analysis::fig9::{ce_best, ce_worst};
use ebi_analysis::report::TextTable;
use ebi_baselines::{SelectionIndex, SimpleBitmapIndex};
use ebi_bench::{uniform_cells, write_result, DEFAULT_ROWS};
use ebi_core::index::BuildOptions;
use ebi_core::nulls::NullPolicy;
use ebi_core::{EncodedBitmapIndex, Mapping};

fn run_for_cardinality(m: u64, deltas: &[u64]) -> TextTable {
    println!("== Figure 9, |A| = {m} (k = {}) ==", ce_worst(m));
    let cells = uniform_cells(m, DEFAULT_ROWS, 0xF19 + m);
    // Identity mapping: value v ↦ code v — contiguous selections align
    // with subcubes, realising the best case.
    let aligned = EncodedBitmapIndex::build_with(
        cells.iter().copied(),
        BuildOptions {
            policy: NullPolicy::SeparateVectors,
            mapping: Some(Mapping::sequential(m as usize)),
        },
    )
    .expect("build aligned EBI");
    // First-seen mapping: codes scattered relative to value order — the
    // "improper encoding" worst-case regime. (Explicit: a default build
    // assigns codes in value order, which is the aligned index again.)
    let first_seen = Mapping::from_values(&Mapping::first_seen_values(&cells));
    let scattered = EncodedBitmapIndex::build_with(
        cells.iter().copied(),
        BuildOptions {
            mapping: Some(first_seen.expect("distinct values")),
            ..Default::default()
        },
    )
    .expect("build EBI");
    let simple = SimpleBitmapIndex::build(cells.iter().copied());

    let mut table = TextTable::new([
        "delta",
        "c_s(analytic)",
        "c_s(measured)",
        "c_e_best(analytic)",
        "c_e(aligned)",
        "c_e(scattered)",
        "c_e_worst",
    ]);
    for &delta in deltas {
        let selection: Vec<u64> = (0..delta).collect();
        let al = SelectionIndex::in_list(&aligned, &selection);
        let sc = SelectionIndex::in_list(&scattered, &selection);
        let sim = simple.in_list(&selection);
        assert_eq!(al.bitmap, sim.bitmap, "aligned disagrees at δ={delta}");
        assert_eq!(sc.bitmap, sim.bitmap, "scattered disagrees at δ={delta}");
        table.row([
            delta.to_string(),
            delta.to_string(),
            sim.stats.vectors_accessed.to_string(),
            ce_best(m, delta).to_string(),
            al.stats.vectors_accessed.to_string(),
            sc.stats.vectors_accessed.to_string(),
            ce_worst(m).to_string(),
        ]);
    }
    println!("{}", table.render());
    table
}

fn main() {
    // Figure 9(a): |A| = 50, full δ sweep.
    let deltas_a: Vec<u64> = (1..=50).collect();
    let t_a = run_for_cardinality(50, &deltas_a);
    write_result("fig09a_A50.csv", &t_a.to_csv());

    // Figure 9(b): |A| = 1000, sampled δ (powers of two, paper's
    // hallmark 512, and a dense low range).
    let mut deltas_b: Vec<u64> = (1..=32).collect();
    deltas_b.extend([48, 64, 96, 128, 192, 256, 384, 512, 640, 768, 896, 1000]);
    let t_b = run_for_cardinality(1000, &deltas_b);
    write_result("fig09b_A1000.csv", &t_b.to_csv());

    println!(
        "hallmarks: ce_best(50,32) = {} (paper: 1, saving 83%)",
        ce_best(50, 32)
    );
    println!(
        "           ce_best(1000,512) = {} (paper: 1, saving 90%)",
        ce_best(1000, 512)
    );
}
