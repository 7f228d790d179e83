//! Every form and family answering alike, on the data the paper's
//! comparisons run on: slices of the oracle's grid (`tests/oracle.rs`)
//! with the data axes held, the other axes crossed pairwise. Then
//! deletes through the families that take them, and the paper's
//! headline cost shape.

#[path = "oracle/grid.rs"]
mod grid;

use ebi::prelude::*;
use ebi::warehouse::generator::{generate_column, ColumnSpec};
use grid::{pinned, run, Case, NULLS, ROWS, SHAPE};

/// Runs the oracle on every point of `pinned(pins)`, seeded from `seed`.
fn slice(pins: &[(usize, usize)], seed: u64) {
    for (i, point) in pinned(pins).iter().enumerate() {
        run(Case::at(point, seed + i as u64));
    }
}

// Shapes: 0 uniform over 2, 1 uniform over 64, 2 Zipf over 200, 3 runs.
// Rows: 0 at most 64, 1 about 3 000, 2 two kernel windows and a tail.

#[test]
fn all_families_agree_on_uniform_data() {
    slice(&[(SHAPE, 1), (ROWS, 1)], 0xE0_000);
}

#[test]
fn all_families_agree_on_skewed_data() {
    slice(&[(SHAPE, 2), (ROWS, 1)], 0xE2_000);
}

#[test]
fn all_families_agree_with_nulls_present() {
    slice(&[(NULLS, 1), (ROWS, 1)], 0xE4_000);
}

#[test]
fn all_families_agree_on_tiny_domains() {
    slice(&[(SHAPE, 0)], 0xE6_000);
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
