//! The cover of a code interval, without min-terms.
//!
//! Under a total-order preserving encoding (§2.3, Figure 6) a value
//! range is a code interval `[lo, hi]`, and an interval has a cover that
//! can be written down from the bits of its two ends: nothing of what
//! makes Quine–McCluskey expensive on exactly this shape (a contiguous
//! on-set holds `3^d` implicants per subcube of dimension `d`, and the
//! free block is re-derived along with every query) is needed.
//!
//! # Construction
//!
//! Split at the highest bit `d` where `lo` and `hi` differ; above it the
//! two share a prefix `P`. Under `P·B_d'` the selection is `x ≥ lo`,
//! under `P·B_d` it is `x ≤ hi`, each over the `d` low bits:
//!
//! * `x ≥ L` holds iff `x` has a 1 wherever `L` has one, or — for some
//!   0-bit `i` of `L` — `x` has a 1 at `i` and wherever `L` has one above
//!   `i`. That is one cube of positive literals per 0-bit, plus the cube
//!   of all of `L`'s 1-bits; a 0-bit below `L`'s lowest 1-bit adds
//!   nothing to the latter and is skipped. `L = 0` is the whole subtree.
//! * `x ≤ H` is the mirror image: one cube of negative literals per
//!   1-bit of `H` above its lowest 0-bit, plus the cube of all of `H`'s
//!   0-bits. `H = 1…1` is the whole subtree.
//! * Both whole: the two halves join and `B_d` is dropped.
//!
//! At most `2d` cubes of at most `k` literals. Then every cube is
//! widened: each literal, most significant first, is dropped when the
//! cube stays inside `[lo, hi] ∪ free codes` — footnote 3's don't-care
//! optimisation, with the free codes held as sorted runs (a dense
//! mapping has one, `[m, 2^k)`), so the test walks runs, not codes.
//! Since widening only grows a cube, a literal that could not be dropped
//! once can never be: one pass leaves every cube prime. Last, a cube
//! another subsumes, or that selects nothing (every member in `[lo, hi]`
//! is a free code of a gap mapping), is discarded.
//!
//! The caller guarantees that no off-set code lies inside `[lo, hi]`:
//! every code there is selected or free.
//!
//! The expression also records the widest interval `[L, H] ⊇ [lo, hi]`
//! of selected or free codes ([`DnfExpr::interval`]): `[lo, hi]`
//! extended through the free runs beside it. On the codes a row can
//! hold, the cover and `L ≤ x ≤ H` agree, which is what lets the kernel
//! evaluate a range as two bit-sliced comparisons
//! ([`DnfExpr::lower`]).

use crate::cube::Cube;
use crate::expr::DnfExpr;
use crate::qm::{CoverMethod, ReduceStats};

/// Covers the code interval `lo..=hi` over `k` variables, free to cover
/// any code of `free` (sorted, disjoint, inclusive runs of don't-care
/// codes) and no other code outside the interval. Fills `stats` as
/// [`crate::qm::minimize_with_stats`] does; no min-term is expanded and
/// no prime implicant generated, so those two read 0.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi` does not fit `k` bits.
#[must_use]
pub fn cover(lo: u64, hi: u64, free: &[(u64, u64)], k: u32, stats: &mut ReduceStats) -> DnfExpr {
    assert!(lo <= hi, "empty interval {lo}..={hi}");
    let space = Space {
        lo,
        hi,
        free,
        // All `k` variables; checks on the way that `hi` fits them.
        universe: Cube::minterm(hi, k).mask(),
    };
    // Largest first: once widened, a large cube often holds the smaller
    // ones whole, and those are then not widened into cubes of their own.
    let mut narrow = prefix_cubes(lo, hi, space.universe);
    narrow.sort_by_key(Cube::literal_count);
    let mut wide: Vec<Cube> = Vec::with_capacity(narrow.len());
    for cube in narrow {
        if !wide.iter().any(|w| w.subsumes(&cube)) {
            wide.push(space.widen(cube));
        }
    }
    let kept: Vec<Cube> = wide
        .iter()
        .filter(|c| !wide.iter().any(|w| w != *c && w.subsumes(c)))
        .filter(|c| space.selects(**c))
        .copied()
        .collect();

    let (wide_lo, wide_hi) = space.widest();
    let expr = DnfExpr::from_cubes(kept, k).with_interval(wide_lo, wide_hi);
    *stats = ReduceStats {
        dont_cares: free.iter().map(|&(a, b)| b - a + 1).sum(),
        cover_method: CoverMethod::Interval,
        cubes_out: expr.cubes().len() as u64,
        literals_out: expr.literal_count() as u64,
        vectors_out: expr.vectors_accessed() as u64,
        ..ReduceStats::default()
    };
    expr
}

/// The cubes of `lo..=hi` before widening (module doc, "Construction").
fn prefix_cubes(lo: u64, hi: u64, universe: u64) -> Vec<Cube> {
    if lo == hi {
        return vec![Cube::new(lo, universe)];
    }
    let d = (lo ^ hi).ilog2();
    let split = 1u64 << d;
    let below = split - 1;
    let prefix_mask = universe & !(split | below);
    let prefix = lo & prefix_mask;
    let (low, high) = (lo & below, hi & below);
    if low == 0 && high == below {
        return vec![Cube::new(prefix, prefix_mask)];
    }
    let half_mask = prefix_mask | split;
    let mut cubes = Vec::with_capacity(2 * d as usize + 2);
    // `x >= low` under the 0-half: positive literals only.
    cubes.push(Cube::new(prefix | low, half_mask | low));
    for i in low.trailing_zeros().min(d)..d {
        if low >> i & 1 == 0 {
            let ones_above = low & !((2 << i) - 1);
            let fixed = ones_above | 1 << i;
            cubes.push(Cube::new(prefix | fixed, half_mask | fixed));
        }
    }
    // `x <= high` under the 1-half: negative literals only.
    let zeros = !high & below;
    cubes.push(Cube::new(prefix | split, half_mask | zeros));
    for i in zeros.trailing_zeros().min(d)..d {
        if high >> i & 1 == 1 {
            let zeros_above = zeros & !((2 << i) - 1);
            cubes.push(Cube::new(prefix | split, half_mask | zeros_above | 1 << i));
        }
    }
    cubes
}

/// What a cube may cover: the interval and the free runs.
struct Space<'a> {
    lo: u64,
    hi: u64,
    free: &'a [(u64, u64)],
    universe: u64,
}

impl Space<'_> {
    /// `[lo, hi]` extended through the free runs beside it: the widest
    /// interval of selected or free codes around the selection.
    fn widest(&self) -> (u64, u64) {
        let (mut lo, mut hi) = (self.lo, self.hi);
        while let Some((start, _)) = lo.checked_sub(1).and_then(|c| self.free_run(c)) {
            lo = start;
        }
        while let Some((_, end)) = self.free_run(hi + 1) {
            hi = end;
        }
        (lo, hi)
    }

    /// The free run holding `code`, if one does.
    fn free_run(&self, code: u64) -> Option<(u64, u64)> {
        let at = self.free.partition_point(|&(_, end)| end < code);
        self.free
            .get(at)
            .copied()
            .filter(|&(start, _)| start <= code)
    }

    /// The smallest member of `cube` that is `>= from`.
    fn next_member(&self, cube: Cube, from: u64) -> Option<u64> {
        let wrong = (from ^ cube.value()) & cube.mask();
        if wrong == 0 {
            return Some(from);
        }
        // Above the highest bit where `from` leaves the cube it is kept;
        // from there down the member is the cube's smallest.
        let top = wrong.ilog2();
        let through = |bit: u32| (2u64 << bit) - 1;
        if cube.value() >> top & 1 == 1 {
            return Some(from & !through(top) | cube.value() & through(top));
        }
        // `from` has a 1 where the cube wants 0: carry into the lowest
        // free variable above that is still 0.
        let room = !from & !cube.mask() & self.universe & !through(top);
        if room == 0 {
            return None;
        }
        let carry = room.trailing_zeros();
        Some(from & !through(carry) | 1 << carry | cube.value() & through(carry))
    }

    /// `true` if every member of `cube` is in the interval or free.
    fn inside(&self, cube: Cube) -> bool {
        let last = cube.value() | self.universe & !cube.mask();
        let mut member = cube.value();
        loop {
            let end = if (self.lo..=self.hi).contains(&member) {
                self.hi
            } else if let Some((_, end)) = self.free_run(member) {
                end
            } else {
                return false;
            };
            if end >= last {
                return true;
            }
            member = self
                .next_member(cube, end + 1)
                .expect("a member above `end` exists: `last` is one");
        }
    }

    /// `true` if some member of `cube` in the interval is not free.
    fn selects(&self, cube: Cube) -> bool {
        let mut from = self.lo;
        while let Some(member) = self.next_member(cube, from).filter(|&m| m <= self.hi) {
            match self.free_run(member) {
                Some((_, end)) if end >= self.hi => return false,
                Some((_, end)) => from = end + 1,
                None => return true,
            }
        }
        false
    }

    /// Drops every literal of `cube` that can go, most significant first.
    fn widen(&self, mut cube: Cube) -> Cube {
        let mut rest = cube.mask();
        while rest != 0 {
            let bit = 1u64 << rest.ilog2();
            rest &= !bit;
            let wider = Cube::new(cube.value(), cube.mask() & !bit);
            if self.inside(wider) {
                cube = wider;
            }
        }
        cube
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covered(lo: u64, hi: u64, free: &[(u64, u64)], k: u32) -> String {
        cover(lo, hi, free, k, &mut ReduceStats::default()).to_string()
    }

    #[test]
    fn aligned_blocks_are_one_prefix_cube() {
        // Figure 9's best case: 2^j codes from a multiple of 2^j read
        // k - j vectors.
        assert_eq!(covered(8, 15, &[], 4), "B3");
        assert_eq!(covered(4, 7, &[], 4), "B3'B2");
        assert_eq!(covered(0, 15, &[], 4), "1");
        assert_eq!(covered(5, 5, &[], 4), "B3'B2B1'B0");
    }

    #[test]
    fn an_unaligned_interval_is_one_cube_per_bit_of_either_end() {
        // 3..=12 of k = 4: x >= 0011 under B3', x <= 100 under B3.
        assert_eq!(covered(3, 12, &[], 4), "B3'B1B0 + B3'B2 + B3B1'B0' + B3B2'");
    }

    #[test]
    fn free_codes_widen_the_cubes() {
        // Ten codes assigned: 6..=9 runs on into the free 10..=15.
        assert_eq!(covered(6, 9, &[(10, 15)], 4), "B2B1 + B3");
        // A point beside the free run loses the literal that tells them
        // apart.
        assert_eq!(covered(9, 9, &[(10, 15)], 4), "B3B0");
        // Free codes inside the interval (Figure 6 skips 011 and 111).
        assert_eq!(covered(2, 4, &[(3, 3), (7, 7)], 3), "B2'B1 + B2B1'B0'");
    }

    #[test]
    fn a_cube_of_free_codes_alone_is_discarded() {
        // 001 and 100 assigned, 010 and 011 free between them: `x >= 01`
        // has the cube B1, which selects nothing.
        let free = [(2, 3), (5, 7)];
        assert_eq!(covered(1, 4, &free, 3), "B0 + B2");
    }

    #[test]
    fn stats_name_the_path() {
        let mut stats = ReduceStats::default();
        let expr = cover(6, 9, &[(10, 15)], 4, &mut stats);
        assert_eq!(stats.cover_method, CoverMethod::Interval);
        assert_eq!((stats.minterms, stats.prime_implicants), (0, 0));
        assert_eq!(stats.dont_cares, 6);
        assert_eq!(stats.cubes_out, 2);
        assert_eq!(stats.literals_out, 3);
        assert_eq!(stats.vectors_out, expr.vectors_accessed() as u64);
    }

    #[test]
    fn next_member_steps_through_a_cube_in_order() {
        let space = Space {
            lo: 0,
            hi: 0,
            free: &[],
            universe: 0b1_1111,
        };
        // B3'B1: members 2, 3, 6, 7, 18, 19, 22, 23.
        let cube = Cube::new(0b0_0010, 0b0_1010);
        let mut members = Vec::new();
        let mut from = 0;
        while let Some(member) = space.next_member(cube, from) {
            members.push(member);
            from = member + 1;
        }
        assert_eq!(members, cube.expand(5));
    }
}
