//! Morsel edges, checked deterministically: a split of the kernel
//! windows and the word-aligned merge. The contract itself — every split
//! answers like the one index over the stored rows, at its `c_e` — is
//! checked across the configuration grid by the oracle
//! (`tests/oracle.rs`).

use ebi_bitvec::{SEGMENT_BITS, SEGMENT_WORDS};
use ebi_service::{parse_dnf, ColumnSpec, ShardedTable, TableOptions};
use ebi_storage::Cell;

/// Matches planted exactly at every window's first and last row survive
/// every split of the windows into morsels, one morsel up to one per
/// window, and no neighbours leak in — on tables of one ragged window,
/// of whole windows, and of whole windows and a ragged one.
#[test]
fn window_edge_rows_survive_every_split() {
    for rows in [1_003, 2 * SEGMENT_BITS, 3 * SEGMENT_BITS + 1_003] {
        let edges: Vec<usize> = (0..rows.div_ceil(SEGMENT_BITS))
            .flat_map(|w| [w * SEGMENT_BITS, ((w + 1) * SEGMENT_BITS).min(rows) - 1])
            .collect();
        let cells: Vec<Cell> = (0..rows)
            .map(|i| Cell::Value(u64::from(edges.contains(&i))))
            .collect();
        let table =
            ShardedTable::build(vec![ColumnSpec::new("a", cells)], &TableOptions::default())
                .expect("table builds");
        let compiled = table
            .compile(&parse_dnf("a=1").expect("parses"))
            .expect("compiles");
        let (whole, cost) = table.eval_local(&compiled);
        assert_eq!(whole.to_positions(), edges, "{rows} rows in one morsel");
        for n in 1..=table.windows() {
            let parts: Vec<_> = table
                .morsels(n)
                .map(|w| (w.start * SEGMENT_WORDS, table.eval_morsel(&compiled, w)))
                .collect();
            let merged = table.merge(parts.iter().map(|(word, (bitmap, _))| (*word, bitmap)));
            assert_eq!(merged, whole, "{rows} rows in {n} morsels");
            let vectors: u64 = parts.iter().map(|(_, (_, c))| c.vectors_accessed).sum();
            assert_eq!(vectors, cost.vectors_accessed, "{rows} rows in {n} morsels");
        }
    }
}
