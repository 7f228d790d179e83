//! Every worked example in the paper, verified bit-for-bit across
//! crates (experiments E1–E3, E5–E7, E19 of DESIGN.md).

use ebi::core::hierarchy::{paper_figure5_mapping, paper_salespoint_hierarchy};
use ebi::core::range_encoding::{
    paper_figure7_ranges, paper_figure8_mapping, partition_domain, Interval, RangeBasedIndex,
};
use ebi::core::total_order::paper_figure6_mapping;
use ebi::core::well_defined::{achieved_cost, check};
use ebi::prelude::*;

// ---------------------------------------------------------------------
// Figure 1 — the running example: domain {a, b, c}, column [a,b,c,b,a,c].
// ---------------------------------------------------------------------

fn figure1_index() -> EncodedBitmapIndex {
    EncodedBitmapIndex::build([0u64, 1, 2, 1, 0, 2].map(Cell::Value)).unwrap()
}

#[test]
fn fig1_two_vectors_instead_of_three() {
    let idx = figure1_index();
    assert_eq!(idx.width(), 2);
    assert_eq!(idx.bitmap_vector_count(), 2);
    // Simple bitmap indexing needs one vector per value.
    let simple = SimpleBitmapIndex::build([0u64, 1, 2, 1, 0, 2].map(Cell::Value));
    assert_eq!(simple.bitmap_vector_count(), 3);
}

#[test]
fn fig1_retrieval_functions_match_the_paper() {
    let idx = figure1_index();
    // f_a = B1'B0', f_b = B1'B0, f_c = B1B0' (a=00, b=01, c=10). Our
    // reducer may additionally exploit the don't-care code 11
    // (footnote 3), shrinking f_b to B0 and f_c to B1; accept either as
    // long as it is semantically the paper's function on assigned codes.
    assert_eq!(idx.explain_in_list(&[0]).to_string(), "B1'B0'");
    for (value, code, paper) in [(1u64, 0b01u64, "B1'B0"), (2, 0b10, "B1B0'")] {
        let f = idx.explain_in_list(&[value]);
        let paper_expr = DnfExpr::parse(paper, 2).unwrap();
        for c in [0b00u64, 0b01, 0b10] {
            assert_eq!(f.covers(c), c == code, "f_{value} on assigned code {c:02b}");
        }
        assert!(f.vectors_accessed() <= paper_expr.vectors_accessed());
    }
    // f_a + f_b reduces to B1' exactly as in §2.2.
    assert_eq!(idx.explain_in_list(&[0, 1]).to_string(), "B1'");
}

#[test]
fn fig1_q1_q2_cost_comparison() {
    // §3.1: Q1 (point) favours simple (1 vs 2 vectors); Q2 (range of 2)
    // favours encoded (1 vs 2).
    let idx = figure1_index();
    let simple = SimpleBitmapIndex::build([0u64, 1, 2, 1, 0, 2].map(Cell::Value));
    let q1_enc = idx.eq(0).unwrap();
    let q1_sim = SelectionIndex::eq(&simple, 0);
    assert_eq!(q1_enc.stats.vectors_accessed, 2);
    assert_eq!(q1_sim.stats.vectors_accessed, 1);
    assert_eq!(q1_enc.bitmap, q1_sim.bitmap);
    let q2_enc = idx.in_list(&[0, 1]).unwrap();
    let q2_sim = simple.in_list(&[0, 1]);
    assert_eq!(q2_enc.stats.vectors_accessed, 1);
    assert_eq!(q2_sim.stats.vectors_accessed, 2);
    assert_eq!(q2_enc.bitmap, q2_sim.bitmap);
}

// ---------------------------------------------------------------------
// Figure 2 — updates with domain expansion.
// ---------------------------------------------------------------------

#[test]
fn fig2_full_expansion_sequence() {
    let mut idx = EncodedBitmapIndex::build([0u64, 1, 2].map(Cell::Value)).unwrap();
    // (a) append d: Equation (1) holds, code 11 assigned, no new vector.
    let out = idx.append(Cell::Value(3)).unwrap();
    assert!(!out.added_slice);
    assert_eq!(idx.mapping().code_of(3), Some(0b11));
    // (b) append e: width grows to 3, B2 added and zero on old rows.
    let out = idx.append(Cell::Value(4)).unwrap();
    assert!(out.added_slice);
    assert_eq!(idx.slices().len(), 3);
    assert_eq!(idx.slices()[2].to_dense().to_positions(), vec![4]);
    // Revised retrieval functions: f_a..f_d gain B2' (our reducer may
    // absorb it into the don't-cares 101/110/111 where that is sound).
    assert_eq!(idx.explain_in_list(&[0]).to_string(), "B2'B1'B0'");
    let fd = idx.explain_in_list(&[3]);
    for code in 0..5u64 {
        assert_eq!(
            fd.covers(code),
            code == 3,
            "f_d on assigned code {code:03b}"
        );
    }
    // All five values retrieve their exact rows.
    for v in 0..5u64 {
        let rows = idx.eq(v).unwrap().bitmap.to_positions();
        assert_eq!(rows, vec![v as usize], "value {v}");
    }
}

// ---------------------------------------------------------------------
// Figure 3 — proper vs improper mappings.
// ---------------------------------------------------------------------

#[test]
fn fig3_proper_mapping_one_vector_improper_three() {
    // ids a..h = 0..8; the two §2.2 selections.
    let s1: Vec<u64> = vec![0, 1, 2, 3];
    let s2: Vec<u64> = vec![2, 3, 4, 5];
    let proper = Mapping::from_pairs(&[
        (0, 0b000),
        (2, 0b001),
        (6, 0b010),
        (4, 0b011),
        (1, 0b100),
        (3, 0b101),
        (7, 0b110),
        (5, 0b111),
    ])
    .unwrap();
    let improper = Mapping::from_pairs(&[
        (0, 0b000),
        (2, 0b001),
        (6, 0b010),
        (1, 0b011),
        (4, 0b100),
        (3, 0b101),
        (7, 0b110),
        (5, 0b111),
    ])
    .unwrap();
    assert_eq!(achieved_cost(&proper, &s1), 1, "B1'");
    assert_eq!(achieved_cost(&proper, &s2), 1, "B0");
    assert_eq!(achieved_cost(&improper, &s1), 3);
    assert_eq!(achieved_cost(&improper, &s2), 3);
    // Definition 2.5 agrees.
    assert!(check(&proper, &s1).holds());
    assert!(check(&proper, &s2).holds());
    assert!(!check(&improper, &s1).holds());
}

#[test]
fn fig3_a_prime_is_an_alternative_optimum() {
    // §2.2: "both the mappings in Figure 3(a) and (a') are optimal to
    // both selections" — the optimum is not unique (Theorem 2.3 remark).
    let a_prime = Mapping::from_pairs(&[
        (0, 0b000), // a
        (1, 0b001), // b
        (2, 0b010), // c
        (3, 0b011), // d
        (6, 0b100), // g
        (7, 0b101), // h
        (4, 0b110), // e
        (5, 0b111), // f
    ])
    .unwrap();
    assert_eq!(achieved_cost(&a_prime, &[0, 1, 2, 3]), 1, "B2'");
    assert_eq!(achieved_cost(&a_prime, &[2, 3, 4, 5]), 1, "B1");
    assert!(check(&a_prime, &[0, 1, 2, 3]).holds());
    assert!(check(&a_prime, &[2, 3, 4, 5]).holds());
}

#[test]
fn fig3_queries_through_real_indexes() {
    // Build actual indexes with both mappings over a column hitting all
    // eight values; identical answers, different costs.
    let cells: Vec<Cell> = (0..64u64).map(|i| Cell::Value(i % 8)).collect();
    let proper = Mapping::from_pairs(&[
        (0, 0b000),
        (2, 0b001),
        (6, 0b010),
        (4, 0b011),
        (1, 0b100),
        (3, 0b101),
        (7, 0b110),
        (5, 0b111),
    ])
    .unwrap();
    let idx = EncodedBitmapIndex::build_with(
        cells.iter().copied(),
        BuildOptions {
            policy: NullPolicy::SeparateVectors,
            mapping: Some(proper),
        },
    )
    .unwrap();
    let r = idx.in_list(&[0, 1, 2, 3]).unwrap();
    assert_eq!(r.stats.vectors_accessed, 1);
    assert_eq!(r.expression, "B1'");
    let expect: Vec<usize> = (0..64).filter(|i| i % 8 < 4).collect();
    assert_eq!(r.bitmap.to_positions(), expect);
}

// ---------------------------------------------------------------------
// Figure 5 — hierarchy encoding.
// ---------------------------------------------------------------------

#[test]
fn fig5_alliance_x_needs_one_vector() {
    let h = paper_salespoint_hierarchy();
    let m = paper_figure5_mapping();
    let x = h.level("alliance").unwrap().members("X").unwrap();
    assert_eq!(x, &[1, 2, 3, 4, 5, 6, 7, 8]);
    assert_eq!(achieved_cost(&m, x), 1);
}

#[test]
fn fig5_index_answers_rollups_exactly() {
    let h = paper_salespoint_hierarchy();
    let branches: Vec<Cell> = (0..240u64).map(|i| Cell::Value(1 + i % 12)).collect();
    let idx = EncodedBitmapIndex::build_with(
        branches.iter().copied(),
        BuildOptions {
            policy: NullPolicy::SeparateVectors,
            mapping: Some(paper_figure5_mapping()),
        },
    )
    .unwrap();
    for level in h.levels() {
        for g in level.group_names() {
            let members = level.members(g).unwrap();
            let r = idx.in_list(members).unwrap();
            let expect: Vec<usize> = (0..240)
                .filter(|&i| members.contains(&(1 + i as u64 % 12)))
                .collect();
            assert_eq!(r.bitmap.to_positions(), expect, "{}={g}", level.name());
        }
    }
}

// ---------------------------------------------------------------------
// Figure 6 — total-order preserving encoding.
// ---------------------------------------------------------------------

#[test]
fn fig6_mapping_properties() {
    let m = paper_figure6_mapping();
    assert!(m.is_total_order_preserving());
    assert_eq!(achieved_cost(&m, &[101, 102, 104, 105]), 1);
    // Ad-hoc ranges still work: 102 <= A <= 104 via a real index.
    let cells: Vec<Cell> = (0..60u64).map(|i| Cell::Value(101 + i % 6)).collect();
    let idx = EncodedBitmapIndex::build_with(
        cells.iter().copied(),
        BuildOptions {
            policy: NullPolicy::SeparateVectors,
            mapping: Some(m),
        },
    )
    .unwrap();
    let r = idx.range(102, 104).unwrap();
    let expect: Vec<usize> = (0..60).filter(|&i| (1..=3).contains(&(i % 6))).collect();
    assert_eq!(r.bitmap.to_positions(), expect);
}

// ---------------------------------------------------------------------
// Figures 7/8 — range-based encoding.
// ---------------------------------------------------------------------

#[test]
fn fig7_partition_and_fig8_functions() {
    let parts = partition_domain(6, 20, &paper_figure7_ranges()).unwrap();
    assert_eq!(parts.len(), 6);
    let column: Vec<u64> = (6..20).collect();
    let idx = RangeBasedIndex::build(
        &column,
        Interval::new(6, 20),
        &paper_figure7_ranges(),
        Some(paper_figure8_mapping()),
    )
    .unwrap();
    // Figure 8(b) functions (with the one don't-care improvement on
    // [8,12), see the core crate's range_encoding tests).
    assert_eq!(idx.explain_range(6, 10).unwrap(), "B2'B1'");
    assert_eq!(idx.explain_range(10, 13).unwrap(), "B2B1'");
    assert_eq!(idx.explain_range(16, 20).unwrap(), "B2B1");
    // Results are exact.
    let r = idx.query_range(10, 13).unwrap();
    assert_eq!(r.bitmap.to_positions(), vec![4, 5, 6], "values 10, 11, 12");
}

// ---------------------------------------------------------------------
// Footnote 3 — don't-care optimisation.
// ---------------------------------------------------------------------

#[test]
fn footnote3_xor_becomes_or() {
    use ebi::boolean::dontcare;
    let cmp = dontcare::compare(&[0b01, 0b10], &[0b11], 2);
    assert!(cmp
        .without
        .equivalent(&DnfExpr::parse("B1'B0 + B1B0'", 2).unwrap()));
    assert_eq!(cmp.with, DnfExpr::parse("B1 + B0", 2).unwrap());
    assert!(cmp.dontcares_helped());
    // And through the index: selecting {b, c} in Figure 1's column.
    let idx = figure1_index();
    let r = idx.in_list(&[1, 2]).unwrap();
    assert_eq!(r.expression, "B0 + B1");
    assert_eq!(r.bitmap.to_positions(), vec![1, 2, 3, 5]);
}

// ---------------------------------------------------------------------
// §2.1 cooperativity — n indexes answer any conjunction.
// ---------------------------------------------------------------------

#[test]
fn cooperativity_conjunction_over_three_attributes() {
    let rows = 600usize;
    let a: Vec<Cell> = (0..rows as u64).map(|i| Cell::Value(i % 5)).collect();
    let b: Vec<Cell> = (0..rows as u64).map(|i| Cell::Value(i % 7)).collect();
    let c: Vec<Cell> = (0..rows as u64).map(|i| Cell::Value(i % 11)).collect();
    let ia = EncodedBitmapIndex::build(a).unwrap();
    let ib = EncodedBitmapIndex::build(b).unwrap();
    let ic = EncodedBitmapIndex::build(c).unwrap();
    let mut exec = Executor::new(rows);
    exec.register("a", &ia);
    exec.register("b", &ib);
    exec.register("c", &ic);
    let (bitmap, _) = exec.run(&ConjunctiveQuery {
        clauses: vec![
            Query {
                column: "a".into(),
                predicate: Predicate::Eq(2),
            },
            Query {
                column: "b".into(),
                predicate: Predicate::InList(vec![1, 3]),
            },
            Query {
                column: "c".into(),
                predicate: Predicate::Range(0, 5),
            },
        ],
    });
    let expect: Vec<usize> = (0..rows)
        .filter(|&i| i % 5 == 2 && (i % 7 == 1 || i % 7 == 3) && i % 11 <= 5)
        .collect();
    assert_eq!(bitmap.to_positions(), expect);
    assert_eq!(ebi::btree::model::compound_btrees_needed(3), 7);
}
