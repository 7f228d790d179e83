//! Shard edges, checked deterministically: the row-range split and the
//! offset merge. The sharding contract itself — a sharded table answers
//! like one index over its stored rows, at the summed cost — is checked
//! across the configuration grid by the oracle (`tests/oracle.rs`).

use ebi_bitvec::SEGMENT_BITS;
use ebi_service::{parse_dnf, ColumnSpec, ShardedTable, TableOptions};
use ebi_storage::Cell;

/// Matches planted exactly at every shard's first and last row
/// (word-unaligned boundaries by construction) survive the offset merge,
/// and no neighbours leak in — on a small table, and on one whose shard
/// edges fall inside kernel windows after the first.
#[test]
fn boundary_rows_survive_the_merge() {
    for (rows, shards) in [1_003, 2 * SEGMENT_BITS + 1_003]
        .into_iter()
        .flat_map(|rows| [(rows, 2usize), (rows, 7)])
    {
        // Recompute the build's split to find the boundary rows.
        let base = rows / shards;
        let rem = rows % shards;
        let mut boundaries = Vec::new();
        let mut lo = 0usize;
        for id in 0..shards {
            let len = base + usize::from(id < rem);
            boundaries.push(lo);
            boundaries.push(lo + len - 1);
            lo += len;
        }
        let cells: Vec<Cell> = (0..rows)
            .map(|i| Cell::Value(u64::from(boundaries.contains(&i))))
            .collect();
        let table = ShardedTable::build(
            vec![ColumnSpec::new("a", cells)],
            &TableOptions {
                shards,
                ..TableOptions::default()
            },
        )
        .expect("table builds");
        let compiled = table
            .compile(&parse_dnf("a=1").expect("parses"))
            .expect("compiles");
        let (bitmap, _) = table.eval_local(&compiled);
        let got: Vec<usize> = bitmap.iter_ones().collect();
        let mut want = boundaries.clone();
        want.sort_unstable();
        want.dedup();
        assert_eq!(got, want, "boundary rows for {shards} shards over {rows}");
    }
}
