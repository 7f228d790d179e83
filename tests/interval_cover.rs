//! The interval cover against Quine–McCluskey and against brute force.
//!
//! `ebi::boolean::interval::cover` writes the cover of a code interval
//! from its two ends; `qm::minimize` derives one from min-terms. On
//! every interval of every dense code space (`m` codes assigned from 0,
//! `2^(k-1) < m <= 2^k`, `lo == hi` included) the first must be exact,
//! made of prime cubes that each select something, read no more vectors
//! than the second and spend about as many literals; beyond the sweep,
//! seeded samples at the served widths and mappings with gaps.
//!
//! Every cover also carries the widest interval of selected or free
//! codes around it, and lowers to an interval plan (two bit-sliced
//! comparisons) exactly when it has two cubes or more and the
//! comparisons read the slices its cubes do; both are checked on every
//! cover here, against a derivation of their own.
//!
//! The sweep is as wide as the build affords. Quine–McCluskey on a
//! contiguous on-set is its own worst case, so a debug build (tier-1
//! `cargo test`) compares every interval up to `k = 6` (45 759 of them,
//! 20 s); `cargo test --release --test interval_cover` (CI) compares up
//! to `k = 7` (357 759 in all) and at `k = 8` every interval of eight of
//! the 128 code spaces, and checks the others from first principles.

use ebi::bitvec::DnfPlan;
use ebi::boolean::interval;
use ebi::boolean::qm::{self, CoverMethod, ReduceStats};
use ebi::boolean::{Cube, DnfExpr};
use ebi::core::total_order::{optimize_order_preserving, paper_figure6_mapping};
use ebi::core::Mapping;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The code space of one check: which codes are free, and which of the
/// others the interval selects.
struct Space {
    k: u32,
    free: Vec<(u64, u64)>,
}

impl Space {
    /// `m` codes assigned from 0: one free run above them.
    fn dense(k: u32, m: u64) -> Self {
        let free = if m < 1 << k {
            vec![(m, (1 << k) - 1)]
        } else {
            Vec::new()
        };
        Self { k, free }
    }

    fn is_free(&self, code: u64) -> bool {
        self.free.iter().any(|&(a, b)| (a..=b).contains(&code))
    }

    fn dont_cares(&self) -> Vec<u64> {
        self.free.iter().flat_map(|&(a, b)| a..=b).collect()
    }

    /// `true` if every member of `cube` is selected or free.
    fn admits(&self, cube: Cube, lo: u64, hi: u64) -> bool {
        cube.expand(self.k)
            .into_iter()
            .all(|c| (lo..=hi).contains(&c) || self.is_free(c))
    }

    /// The cover of `lo..=hi`, checked from first principles: true on
    /// every selected code, false on every other assigned one, every
    /// cube prime and selecting something.
    fn checked_cover(&self, lo: u64, hi: u64) -> DnfExpr {
        let mut stats = ReduceStats::default();
        let expr = interval::cover(lo, hi, &self.free, self.k, &mut stats);
        for code in 0..1u64 << self.k {
            if !self.is_free(code) {
                assert_eq!(
                    expr.covers(code),
                    (lo..=hi).contains(&code),
                    "k={} [{lo},{hi}] free {:?}: {expr} at code {code:#b}",
                    self.k,
                    self.free
                );
            }
        }
        for &cube in expr.cubes() {
            assert!(
                self.admits(cube, lo, hi),
                "{cube} of {expr} is no implicant"
            );
            for i in (0..self.k).filter(|&i| cube.mask() >> i & 1 == 1) {
                let wider = Cube::new(cube.value(), cube.mask() & !(1 << i));
                assert!(
                    !self.admits(wider, lo, hi),
                    "k={} [{lo},{hi}] free {:?}: {cube} of {expr} is not prime (B{i})",
                    self.k,
                    self.free
                );
            }
            assert!(
                (lo..=hi).any(|c| cube.covers(c) && !self.is_free(c)),
                "{cube} of {expr} selects nothing"
            );
        }
        self.check_interval(&expr, lo, hi);
        assert_eq!(stats.cover_method, CoverMethod::Interval);
        assert_eq!((stats.minterms, stats.prime_implicants), (0, 0));
        assert_eq!(stats.cubes_out, expr.cubes().len() as u64);
        assert_eq!(stats.literals_out, expr.literal_count() as u64);
        assert_eq!(stats.vectors_out, expr.vectors_accessed() as u64);
        expr
    }

    /// The interval `expr` carries is `[lo, hi]` grown through the free
    /// codes beside it, agrees with the cubes on every code that is not
    /// free, and lowers to an interval plan exactly when the cover has
    /// two cubes or more and the comparisons' slices are its support.
    fn check_interval(&self, expr: &DnfExpr, lo: u64, hi: u64) {
        let (mut wide_lo, mut wide_hi) = (lo, hi);
        while wide_lo > 0 && self.is_free(wide_lo - 1) {
            wide_lo -= 1;
        }
        while wide_hi + 1 < 1 << self.k && self.is_free(wide_hi + 1) {
            wide_hi += 1;
        }
        assert_eq!(expr.interval(), Some((wide_lo, wide_hi)), "{expr}");
        for code in (0..1u64 << self.k).filter(|&c| !self.is_free(c)) {
            assert_eq!(
                (wide_lo..=wide_hi).contains(&code),
                expr.covers(code),
                "k={} [{lo},{hi}]: {expr} at {code:#b}",
                self.k
            );
        }
        // `x >= b` runs up from `b`'s lowest one-bit; 0 and 2^k read
        // nothing.
        let chain = |b: u64| {
            let reads = b != 0 && b < 1 << self.k;
            (b.trailing_zeros()..self.k).fold(0u64, |m, i| m | u64::from(reads) << i)
        };
        let slices = chain(wide_lo) | chain(wide_hi + 1);
        // The whole code space reads no slice either way: both plans are
        // the tautology.
        let interval_plan = (expr.cubes().len() >= 2 && slices == expr.support()) || slices == 0;
        assert_eq!(
            expr.lower() == DnfPlan::interval(wide_lo, wide_hi, self.k),
            interval_plan,
            "k={} [{lo},{hi}]: {expr}",
            self.k
        );
    }

    /// What Quine–McCluskey makes of the same selection.
    fn minimized(&self, lo: u64, hi: u64, dont_cares: &[u64]) -> DnfExpr {
        let on: Vec<u64> = (lo..=hi).filter(|&c| !self.is_free(c)).collect();
        qm::minimize(&on, dont_cares, self.k)
    }
}

/// Literal totals of both covers over a set of cases.
#[derive(Default)]
struct Literals {
    interval: usize,
    qm: usize,
}

impl Literals {
    fn compare(&mut self, space: &Space, lo: u64, hi: u64, dont_cares: &[u64]) {
        let ours = space.checked_cover(lo, hi);
        let theirs = space.minimized(lo, hi, dont_cares);
        assert!(
            ours.vectors_accessed() <= theirs.vectors_accessed(),
            "k={} [{lo},{hi}] free {:?}: {ours} reads more vectors than {theirs}",
            space.k,
            space.free
        );
        self.interval += ours.literal_count();
        self.qm += theirs.literal_count();
    }

    fn assert_within_five_percent(&self, what: &str) {
        println!(
            "{what}: {} literals, Quine-McCluskey {}",
            self.interval, self.qm
        );
        assert!(
            self.interval * 100 <= self.qm * 105,
            "{what}: {} literals against Quine–McCluskey's {}",
            self.interval,
            self.qm
        );
    }
}

/// Up to which `k` the sweep checks every interval from first
/// principles, and up to which it also runs Quine–McCluskey on each.
const SWEEP: (u32, u32) = if cfg!(debug_assertions) {
    (6, 6)
} else {
    (8, 7)
};

#[test]
fn every_interval_of_every_dense_space() {
    let (checked, compared) = SWEEP;
    for k in 1..=checked {
        let mut literals = Literals::default();
        for m in (1u64 << (k - 1)) + 1..=1 << k {
            let space = Space::dense(k, m);
            // Past `compared`, one code space in sixteen still is.
            let dont_cares = (k <= compared || m % 16 == 0).then(|| space.dont_cares());
            for lo in 0..m {
                for hi in lo..m {
                    match &dont_cares {
                        Some(dc) => literals.compare(&space, lo, hi, dc),
                        None => drop(space.checked_cover(lo, hi)),
                    }
                }
            }
        }
        literals.assert_within_five_percent(&format!("k = {k}"));
    }
}

#[test]
fn seeded_intervals_of_the_served_code_spaces() {
    let mut rng = StdRng::seed_from_u64(0x1998);
    // Column `c` of the repository benchmark, then column `d`.
    for (k, m, cases) in [(10u32, 1_000u64, 60), (13, 8_160, 12)] {
        let space = Space::dense(k, m);
        let dont_cares = space.dont_cares();
        let mut literals = Literals::default();
        for case in 0..cases {
            let lo = rng.random_range(0..m);
            // Every third case a point, the others up to 400 wide.
            let width = if case % 3 == 0 {
                0
            } else {
                rng.random_range(1..=400)
            };
            literals.compare(&space, lo, (lo + width).min(m - 1), &dont_cares);
        }
        literals.assert_within_five_percent(&format!("k = {k}, m = {m}"));
    }
}

#[test]
fn mappings_with_gaps_against_brute_force() {
    let values: Vec<u64> = (0..23).map(|v| v * 3).collect();
    let hot = vec![
        vec![6u64, 9, 12, 15],
        vec![30, 33],
        vec![45, 48, 51, 54, 57, 60],
    ];
    let optimised = optimize_order_preserving(&values, &hot, 6, 300, 7).unwrap();
    assert!(optimised.free_runs().len() > 1, "the search left gaps");
    // Code 5 held back, as a NULL code reserved after the build is: it
    // is no free code, and the index hands over no interval across it.
    let mut around_reserved = Mapping::new(4);
    for (v, code) in [0u64, 1, 2, 3, 4, 6, 7, 8, 9].into_iter().enumerate() {
        around_reserved.insert(v as u64, code).unwrap();
    }
    let figure6 = paper_figure6_mapping();
    for (mapping, free) in [
        (&figure6, figure6.free_runs()),
        (&optimised, optimised.free_runs()),
        (&around_reserved, vec![(10, 15)]),
    ] {
        let space = Space {
            k: mapping.width(),
            free,
        };
        let dont_cares = space.dont_cares();
        let codes: Vec<u64> = mapping.iter().map(|(_, c)| c).collect();
        assert!(codes.windows(2).all(|w| w[0] < w[1]), "order preserving");
        let mut literals = Literals::default();
        for (i, &lo) in codes.iter().enumerate() {
            for &hi in &codes[i..] {
                let held_back = |c: u64| mapping.value_of(c).is_none() && !space.is_free(c);
                if !(lo..=hi).any(held_back) {
                    literals.compare(&space, lo, hi, &dont_cares);
                }
            }
        }
        literals.assert_within_five_percent("gap mapping");
    }
}
