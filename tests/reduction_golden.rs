//! Reduction stability: the cover Quine–McCluskey picks, pinned.
//!
//! `prop_invariants::qm_reduction_is_exact` accepts any valid cover; a
//! change to `qm`'s data structures must return the *same* one, because
//! the cover decides which vectors a query reads and how many words the
//! kernel scans. Each digest below was printed by the code at commit
//! 9b6a770 (the `HashSet` implementation, before cubes and cover rows
//! moved onto sorted arrays and bitsets) over a seeded corpus; today's
//! `minimize_with_stats` must reproduce them.
//!
//! Per family there is one digest over every case's `ReduceStats` and
//! one over the rendered expression of every case that Petrick's method
//! did not finish: among Petrick products of equal score the pick rests
//! on the order an unstable sort leaves, which a toolchain may change,
//! while its score — and so every counter — may not.
//!
//! Independent of any parent, every case is also checked from first
//! principles: the expression covers the on-set and nothing of the
//! off-set, every cube in it is prime, and for `k <= 6` the prime
//! implicants equal a brute-force enumeration.

use ebi::boolean::qm::{self, CoverMethod, ReduceStats};
use ebi::boolean::{Cube, DnfExpr};
use ebi::core::Mapping;
use ebi::storage::Cell;
use ebi::warehouse::generator::{generate_column, ColumnSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// One reduction: codes as the caller hands them over (unsorted,
/// possibly repeated, possibly in both sets).
struct Case {
    on: Vec<u64>,
    dc: Vec<u64>,
    k: u32,
}

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `allowed[code]`: the code is in the on-set or a don't-care.
fn is_implicant(cube: Cube, k: u32, allowed: &[bool]) -> bool {
    cube.expand(k).iter().all(|&code| allowed[code as usize])
}

/// Implicant, and dropping any one literal reaches the off-set.
fn is_prime(cube: Cube, k: u32, allowed: &[bool]) -> bool {
    is_implicant(cube, k, allowed)
        && (0..k).filter(|&i| cube.mask() >> i & 1 == 1).all(|i| {
            let wider = Cube::new(cube.value(), cube.mask() & !(1 << i));
            !is_implicant(wider, k, allowed)
        })
}

/// Every prime implicant of `allowed`, by trying all `3^k` cubes.
fn brute_force_primes(k: u32, allowed: &[bool]) -> Vec<Cube> {
    let mut primes = Vec::new();
    for mask in 0..1u64 << k {
        // Every subset of `mask` as the polarity bits.
        let mut value = mask;
        loop {
            let cube = Cube::new(value, mask);
            if is_prime(cube, k, allowed) {
                primes.push(cube);
            }
            if value == 0 {
                break;
            }
            value = (value - 1) & mask;
        }
    }
    primes.sort_unstable();
    primes
}

fn check_from_first_principles(case: &Case, expr: &DnfExpr) {
    let Case { on, dc, k } = case;
    let mut is_on = vec![false; 1 << k];
    let mut allowed = vec![false; 1 << k];
    for &code in on {
        is_on[code as usize] = true;
        allowed[code as usize] = true;
    }
    for &code in dc {
        allowed[code as usize] = true;
    }
    for code in 0..1u64 << k {
        if is_on[code as usize] {
            assert!(expr.covers(code), "k={k}: {expr} misses on-code {code}");
        } else if !allowed[code as usize] {
            assert!(!expr.covers(code), "k={k}: {expr} covers off-code {code}");
        }
    }
    for &cube in expr.cubes() {
        assert!(is_prime(cube, *k, &allowed), "k={k}: {cube} is not prime");
    }
    if *k <= 6 {
        assert_eq!(
            qm::prime_implicants(on, dc, *k),
            brute_force_primes(*k, &allowed),
            "k={k} on={on:?} dc={dc:?}"
        );
    }
}

/// Reduces and checks every case; returns the digest over the
/// `ReduceStats` and the one over the non-Petrick expressions.
fn digests(cases: &[Case]) -> (u64, u64) {
    let mut stats_digest = Fnv::new();
    let mut expr_digest = Fnv::new();
    for case in cases {
        let mut stats = ReduceStats::default();
        let expr = qm::minimize_with_stats(&case.on, &case.dc, case.k, &mut stats);
        check_from_first_principles(case, &expr);
        for field in [
            stats.minterms,
            stats.dont_cares,
            stats.prime_implicants,
            stats.essential_primes,
            stats.cover_candidates,
            stats.petrick_products_peak,
            stats.cover_method as u64,
            stats.cubes_out,
            stats.literals_out,
            stats.vectors_out,
        ] {
            stats_digest.bytes(&field.to_le_bytes());
        }
        if stats.cover_method != CoverMethod::Petrick {
            expr_digest.bytes(expr.to_string().as_bytes());
            expr_digest.bytes(b"\n");
        }
    }
    (stats_digest.0, expr_digest.0)
}

/// Fails with both digests in hex, so that a deliberate change of cover
/// can read the new literals off the message.
fn assert_digests(family: &str, cases: &[Case], stats: u64, exprs: u64) {
    let got = digests(cases);
    assert_eq!(
        format!("stats {:#018x} exprs {:#018x}", got.0, got.1),
        format!("stats {stats:#018x} exprs {exprs:#018x}"),
        "{family}: {} cases",
        cases.len()
    );
}

fn shuffle(codes: &mut [u64], rng: &mut StdRng) {
    for i in (1..codes.len()).rev() {
        codes.swap(i, rng.random_range(0..=i));
    }
}

/// (a) Random functions: k = 1..=11, 1–70 % of the codes on, 0–40 % of
/// the others don't-care, in a shuffled order. Every seventh case lists
/// some on-codes as don't-cares too and repeats codes in both lists.
fn random_cases() -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(0x0019_980a);
    (0..308)
        .map(|i| {
            let k = 1 + i % 11;
            let p_on = rng.random_range(0.01..0.70);
            let p_dc = rng.random_range(0.0..0.40);
            let (mut on, mut dc) = (Vec::new(), Vec::new());
            for code in 0..1u64 << k {
                if rng.random_bool(p_on) {
                    on.push(code);
                } else if rng.random_bool(p_dc) {
                    dc.push(code);
                }
            }
            if i % 7 == 6 {
                for j in 0..on.len() {
                    match rng.random_range(0..4u32) {
                        0 => dc.push(on[j]),
                        1 => on.push(on[j]),
                        _ => {}
                    }
                }
                for j in 0..dc.len() {
                    if rng.random_ratio(1, 4) {
                        dc.push(dc[j]);
                    }
                }
            }
            shuffle(&mut on, &mut rng);
            shuffle(&mut dc, &mut rng);
            Case { on, dc, k }
        })
        .collect()
}

/// The code space of a generated Zipf(1.0) column under the default
/// build: codes in first-seen order, the unassigned ones don't-care.
/// `tail` values are appended in a seeded order (the benchmark's
/// `lib_maintain` column ends with every value once, so that its width
/// does not depend on the draws).
fn zipf_mapping(m: u64, rows: usize, tail: bool, rng: &mut StdRng) -> (Mapping, Vec<u64>) {
    let mut cells = generate_column(&ColumnSpec::zipf(m, 1.0), rows, rng.random());
    if tail {
        let mut values: Vec<u64> = (0..m).collect();
        shuffle(&mut values, rng);
        cells.extend(values.into_iter().map(Cell::Value));
    }
    let mapping = Mapping::from_values(&Mapping::first_seen_values(&cells)).unwrap();
    assert_eq!(mapping.len() as u64, m, "every value was drawn");
    let dont_cares = mapping.unassigned_codes();
    (mapping, dont_cares)
}

/// The codes of `lo <= A <= hi`, in the order the index hands them to
/// reduction: ascending by value, so scattered as codes.
fn codes_between(mapping: &Mapping, lo: u64, hi: u64) -> Vec<u64> {
    mapping.codes_of(&mapping.values_between(lo, hi)).unwrap()
}

/// (b) What the service is asked: column `c` of the benchmark's table
/// (Zipf(1.0), m = 1000, k = 10, 24 don't-cares); ranges of width
/// 50..=400 in steps of 10, each at a drawn place, and scattered
/// IN-lists of 8..=64 values.
fn served_cases() -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(0x0019_980b);
    let (mapping, dc) = zipf_mapping(1000, 100_000, false, &mut rng);
    assert_eq!((mapping.width(), dc.len()), (10, 24));
    let mut cases = Vec::new();
    for width in (50..=400u64).step_by(10) {
        let lo = rng.random_range(0..1000 - width);
        cases.push(Case {
            on: codes_between(&mapping, lo, lo + width),
            dc: dc.clone(),
            k: 10,
        });
    }
    for len in 8..=64usize {
        let mut values = BTreeSet::new();
        while values.len() < len {
            values.insert(rng.random_range(0..1000u64));
        }
        let values: Vec<u64> = values.into_iter().collect();
        cases.push(Case {
            on: mapping.codes_of(&values).unwrap(),
            dc: dc.clone(),
            k: 10,
        });
    }
    cases
}

/// (c) The benchmark's `lib_maintain` column: 8 160 values, so k = 13
/// with 32 free codes; single values and ranges of 50.
fn wide_cases() -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(0x0019_980c);
    let (mapping, dc) = zipf_mapping(8160, 50_000, true, &mut rng);
    assert_eq!((mapping.width(), dc.len()), (13, 32));
    let mut cases = Vec::new();
    for i in 0..60 {
        let lo = rng.random_range(0..8160 - 50u64);
        let hi = if i % 2 == 0 { lo } else { lo + 50 };
        cases.push(Case {
            on: codes_between(&mapping, lo, hi),
            dc: dc.clone(),
            k: 13,
        });
    }
    cases
}

/// (d) The corners: every function of one variable, the empty on-set,
/// the full cube, a cube completed by its don't-cares, on = dc.
fn corner_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let subsets: [&[u64]; 4] = [&[], &[0], &[1], &[0, 1]];
    for on in subsets {
        for dc in subsets {
            cases.push(Case {
                on: on.to_vec(),
                dc: dc.to_vec(),
                k: 1,
            });
        }
    }
    for k in [2u32, 5, 10] {
        let all: Vec<u64> = (0..1 << k).collect();
        let (low, high) = all.split_at(all.len() / 2);
        for (on, dc) in [
            (&[][..], &[][..]),
            (&[][..], low),
            (&all[..], &[][..]),
            (&all[..], high),
            (low, high),
            (low, low),
            (&all[..], &all[..]),
            (&all[1..], &all[..1]),
            (&all[1..], &[][..]),
        ] {
            cases.push(Case {
                on: on.to_vec(),
                dc: dc.to_vec(),
                k,
            });
        }
    }
    cases
}

#[test]
fn random_functions_reduce_to_the_pinned_covers() {
    assert_digests(
        "random",
        &random_cases(),
        0x0941_d800_280c_38b8,
        0x7020_c224_410d_6a6a,
    );
}

#[test]
fn served_ranges_and_in_lists_reduce_to_the_pinned_covers() {
    assert_digests(
        "served",
        &served_cases(),
        0x9d4d_eb2f_dd6a_683f,
        0x0fe9_a4bb_4e7f_b6ec,
    );
}

#[test]
fn wide_code_spaces_reduce_to_the_pinned_covers() {
    assert_digests(
        "wide",
        &wide_cases(),
        0x3259_e523_1464_e99d,
        0x7f74_98ac_616d_e895,
    );
}

#[test]
fn corner_cases_reduce_to_the_pinned_covers() {
    assert_digests(
        "corners",
        &corner_cases(),
        0x6e29_26da_1189_8cd7,
        0xe372_e0ac_fc8b_249f,
    );
}
