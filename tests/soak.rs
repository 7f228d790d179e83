//! Long randomized soak: a full session of mixed maintenance and
//! queries, shadow-checked against a plain model, across both NULL
//! policies — the "does the system hold together over time" test.

use ebi::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug)]
enum Op {
    Append(Cell),
    Delete(usize),
    Update(usize, Cell),
    QueryEq(u64),
    QueryIn(Vec<u64>),
    QueryRange(u64, u64),
    QueryNotIn(Vec<u64>),
    QueryNull,
}

fn random_op(rng: &mut StdRng, rows: usize, m: u64) -> Op {
    match rng.random_range(0..100u32) {
        0..=29 => Op::Append(if rng.random_ratio(1, 12) {
            Cell::Null
        } else {
            Cell::Value(rng.random_range(0..m))
        }),
        30..=37 if rows > 0 => Op::Delete(rng.random_range(0..rows)),
        38..=47 if rows > 0 => Op::Update(
            rng.random_range(0..rows),
            if rng.random_ratio(1, 10) {
                Cell::Null
            } else {
                Cell::Value(rng.random_range(0..m))
            },
        ),
        48..=62 => Op::QueryEq(rng.random_range(0..m)),
        63..=77 => {
            let n = rng.random_range(1..8usize);
            Op::QueryIn((0..n).map(|_| rng.random_range(0..m)).collect())
        }
        78..=89 => {
            let lo = rng.random_range(0..m);
            let hi = rng.random_range(lo..m);
            Op::QueryRange(lo, hi)
        }
        90..=95 => {
            let n = rng.random_range(0..4usize);
            Op::QueryNotIn((0..n).map(|_| rng.random_range(0..m)).collect())
        }
        _ => Op::QueryNull,
    }
}

fn soak(policy: NullPolicy, seed: u64, ops: usize) {
    let m = 60u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx = EncodedBitmapIndex::build_with(
        Vec::<Cell>::new(),
        BuildOptions {
            policy,
            mapping: None,
        },
    )
    .unwrap();
    // Shadow: Some(cell) live, None deleted.
    let mut shadow: Vec<Option<Cell>> = Vec::new();
    let mut queries_checked = 0usize;

    for step in 0..ops {
        let op = random_op(&mut rng, shadow.len(), m);
        match op {
            Op::Append(cell) => {
                idx.append(cell).unwrap();
                shadow.push(Some(cell));
            }
            Op::Delete(row) => {
                idx.delete(row).unwrap();
                shadow[row] = None;
            }
            Op::Update(row, cell) => {
                idx.update(row, cell).unwrap();
                shadow[row] = Some(cell); // updates resurrect tombstones
            }
            Op::QueryEq(v) => {
                let got = idx.eq(v).unwrap().bitmap.to_positions();
                let expect = match_rows(&shadow, |c| c.value() == Some(v));
                assert_eq!(got, expect, "step {step}: eq({v}) under {policy:?}");
                queries_checked += 1;
            }
            Op::QueryIn(vs) => {
                let got = idx.in_list(&vs).unwrap().bitmap.to_positions();
                let expect = match_rows(&shadow, |c| c.value().is_some_and(|v| vs.contains(&v)));
                assert_eq!(got, expect, "step {step}: in({vs:?}) under {policy:?}");
                queries_checked += 1;
            }
            Op::QueryRange(lo, hi) => {
                let got = idx.range(lo, hi).unwrap().bitmap.to_positions();
                let expect = match_rows(&shadow, |c| c.value().is_some_and(|v| v >= lo && v <= hi));
                assert_eq!(
                    got, expect,
                    "step {step}: range({lo},{hi}) under {policy:?}"
                );
                queries_checked += 1;
            }
            Op::QueryNotIn(vs) => {
                let got = idx.not_in_list(&vs).unwrap().bitmap.to_positions();
                let expect = match_rows(&shadow, |c| c.value().is_some_and(|v| !vs.contains(&v)));
                assert_eq!(got, expect, "step {step}: not_in({vs:?}) under {policy:?}");
                queries_checked += 1;
            }
            Op::QueryNull => {
                let got = idx.is_null().bitmap.to_positions();
                let expect = match_rows(&shadow, Cell::is_null);
                assert_eq!(got, expect, "step {step}: is_null under {policy:?}");
                queries_checked += 1;
            }
        }
    }
    assert!(queries_checked > ops / 4, "workload mix drifted");
    assert_eq!(idx.rows(), shadow.len());
}

fn match_rows(shadow: &[Option<Cell>], pred: impl Fn(&Cell) -> bool) -> Vec<usize> {
    shadow
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.as_ref().filter(|c| pred(c)).map(|_| i))
        .collect()
}

#[test]
fn soak_separate_vectors_policy() {
    soak(NullPolicy::SeparateVectors, 0x50AC1, 2_500);
}

#[test]
fn soak_encoded_reserved_policy() {
    soak(NullPolicy::EncodedReserved, 0x50AC2, 2_500);
}

#[test]
fn soak_multiple_seeds_short() {
    for seed in 0..6u64 {
        soak(NullPolicy::SeparateVectors, 0xAB00 + seed, 600);
        soak(NullPolicy::EncodedReserved, 0xCD00 + seed, 600);
    }
}
