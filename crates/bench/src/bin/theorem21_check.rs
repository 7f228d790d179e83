//! Experiment E4 — Theorem 2.1 in practice: with void tuples on the
//! reserved all-zero code, value selections skip the existence mask
//! that the separate-vector representation must read.
//!
//! Measures vectors accessed per query under both NULL policies on the
//! same data with the same deletions.

use ebi_analysis::report::TextTable;
use ebi_bench::{uniform_cells, write_result};
use ebi_core::index::{BuildOptions, EncodedBitmapIndex};
use ebi_core::nulls::NullPolicy;

fn main() {
    let m = 256u64;
    let rows = 50_000usize;
    let cells = uniform_cells(m, rows, 0x21);

    let build = |policy: NullPolicy| -> EncodedBitmapIndex {
        let mut idx = EncodedBitmapIndex::build_with(
            cells.iter().copied(),
            BuildOptions {
                policy,
                mapping: None,
            },
        )
        .expect("build");
        // Delete every 97th row.
        for row in (0..rows).step_by(97) {
            idx.delete(row).expect("delete");
        }
        idx
    };
    let separate = build(NullPolicy::SeparateVectors);
    let reserved = build(NullPolicy::EncodedReserved);

    let mut table = TextTable::new(["query", "separate_vectors", "encoded_reserved(Thm 2.1)"]);
    let deltas = [1u64, 4, 16, 64, 128];
    for &delta in &deltas {
        let selection: Vec<u64> = (0..delta).collect();
        let a = separate.in_list(&selection).expect("query");
        let b = reserved.in_list(&selection).expect("query");
        assert_eq!(a.bitmap, b.bitmap, "policies must agree on answers");
        table.row([
            format!("IN [0,{delta})"),
            a.stats.vectors_accessed.to_string(),
            b.stats.vectors_accessed.to_string(),
        ]);
    }
    println!(
        "== Theorem 2.1: existence-mask cost by NULL policy (m = {m}, {rows} rows, ~1% deleted) =="
    );
    println!("{}", table.render());
    println!("note: the reserved-code index also answers without ever storing B_NotExist.");
    write_result("theorem21.csv", &table.to_csv());
}
