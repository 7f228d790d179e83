//! The differential oracle: every form of the index against a scan of
//! the cells, over the configuration grid.
//!
//! A [`Case`] is one point of the grid — data shape, NULL share, row
//! count, NULL policy, code order, row order, slice storage, kernel tier,
//! morsel split, maintenance — plus a seed. `verdict` (in
//! `oracle/grid.rs`, beside the covering arrays and the shrinker) builds
//! it and asks every probe of the encoded index in memory, paged,
//! compressed and behind an executor, of the eight baseline families
//! over the final cells (two of them taking the deletes), and of the
//! served table (`compile`, then `eval_morsel` over one morsel, two, or
//! one per kernel window, merged), comparing each answer with the scan.
//! `vectors_accessed` is pinned to footnote 4's `c_e` of the reduced
//! expression plus the companion vectors Method 1 masks with: per form
//! of the index, and for the table summed over its morsels, which must
//! come to one index's `c_e` per clause however the windows split.
//!
//! Tier 1 runs a pairwise covering array over the axes; the full product
//! is `#[ignore]`d (`cargo test --release --test oracle -- --ignored`). A
//! failing case shrinks to a small one, printed as a `Case` literal that
//! [`REGRESSIONS`] replays.

#[path = "oracle/grid.rs"]
mod grid;

use grid::{pairwise, radices, run, Case, REGRESSIONS};

#[test]
fn pairwise_cases_match_the_scan() {
    for (i, point) in pairwise(&radices()).iter().enumerate() {
        run(Case::at(point, 0x0AC1E + i as u64));
    }
}

#[test]
fn regressions_replay() {
    REGRESSIONS.iter().for_each(|&case| run(case));
}

#[test]
#[ignore = "the full product: minutes in release"]
fn full_product_matches_the_scan() {
    let radices = radices();
    for index in 0..radices.iter().product::<usize>() {
        let digit = |(i, &r): (usize, &usize)| index / radices[..i].iter().product::<usize>() % r;
        run(Case::at(
            &radices.iter().enumerate().map(digit).collect::<Vec<_>>(),
            index as u64,
        ));
    }
}
