//! Experiment E25 (extension) — the non-binary-base knob of §4: sweep
//! the component base `b` from 2 (bit-sliced) toward `m` (simple
//! bitmap) and print the space/time trade both poles of Figure 10
//! bracket, next to the encoded bitmap index.

use ebi_analysis::report::TextTable;
use ebi_baselines::{MultiComponentIndex, SelectionIndex};
use ebi_bench::{uniform_cells, write_result, DEFAULT_ROWS};
use ebi_core::EncodedBitmapIndex;
use ebi_warehouse::workload::{Predicate, WorkloadSpec};

fn main() {
    let m = 1000u64;
    let cells = uniform_cells(m, DEFAULT_ROWS, 0xBA5E);
    let workload = WorkloadSpec::tpcd_like("a", m, 100, 0xBA5F).generate();

    let mut table = TextTable::new([
        "index",
        "vectors_held",
        "eq_cost",
        "workload_units",
        "storage_bytes",
    ]);

    let run = |idx: &dyn SelectionIndex| -> (u64, u64) {
        let eq_cost = idx.eq(123).stats.vectors_accessed;
        let mut units = 0u64;
        for q in &workload {
            let r = match &q.predicate {
                Predicate::Eq(v) => idx.eq(*v),
                Predicate::InList(vs) => idx.in_list(vs),
                Predicate::Range(lo, hi) => idx.range(*lo, *hi),
            };
            units += r.stats.vectors_accessed;
        }
        (eq_cost, units)
    };

    for base in [2u64, 4, 8, 10, 32, 100, 1000] {
        let idx = MultiComponentIndex::build(cells.iter().copied(), base);
        let (eq_cost, units) = run(&idx);
        table.row([
            format!("base-{base} ({} comps)", idx.components()),
            idx.bitmap_vector_count().to_string(),
            eq_cost.to_string(),
            units.to_string(),
            idx.storage_bytes().to_string(),
        ]);
    }
    let encoded = EncodedBitmapIndex::build(cells.iter().copied()).expect("build");
    let (eq_cost, units) = run(&encoded);
    table.row([
        "encoded-bitmap".to_string(),
        encoded.bitmap_vector_count().to_string(),
        eq_cost.to_string(),
        units.to_string(),
        encoded.storage_bytes().to_string(),
    ]);

    println!(
        "== base sweep: multi-component vs encoded (m = {m}, {} rows, TPC-D mix) ==",
        DEFAULT_ROWS
    );
    println!("{}", table.render());
    write_result("base_sweep.csv", &table.to_csv());
}
