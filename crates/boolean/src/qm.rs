//! Quine–McCluskey logical reduction.
//!
//! The paper leans on "logical reduction" of retrieval expressions
//! (§2.2, §3.2) but notes the brute-force approach is exponential and
//! leaves an efficient algorithm as future work. We implement the
//! textbook exact method — prime-implicant generation with don't-cares,
//! essential-implicant extraction, then Petrick's method — with a bounded
//! fallback to a greedy cover when Petrick's product would blow up, so
//! reduction stays usable at the cardinalities of the paper's experiments
//! (`k = 10` for `|A| = 1000`) and beyond.
//!
//! Cover selection minimises, in order:
//! 1. the number of *distinct bitmap vectors* read (the paper's `c_e`),
//! 2. the number of product terms,
//! 3. the number of literals.
//!
//! # Data structures
//!
//! The service reduces on every request, so the sets involved are the
//! two that Chambi et al. use for small integer sets: sorted arrays and
//! bitsets with popcount. Nothing is hashed.
//!
//! * **Prime generation.** A level is one `Vec<Cube>` sorted mask-major
//!   and deduplicated. Cubes that can merge share a mask, so a cube looks
//!   for its partner inside its own run, only upwards (`value | bit` for
//!   each fixed variable that is 0), by binary search; both are marked in
//!   a parallel `Vec<bool>` and the merge goes to the next level. What
//!   stays unmarked is prime.
//! * **Cover.** The on-terms are sorted and deduplicated; each prime gets
//!   one bitset row over their slots (`CoverTable`, `⌈n/64⌉` words a row,
//!   one allocation). The pass that fills the rows also counts each
//!   term's coverers and remembers the last, which yields the essentials.
//!   The uncovered terms are a bitset over the same slots, so a
//!   candidate's gain is `popcount(row & uncovered)`.
//!
//! # Which order each tie-break reads
//!
//! The cover is pinned (`tests/reduction_golden.rs`), so the orders
//! below are part of the contract, not an accident of the containers:
//!
//! * primes are indexed in ascending [`Cube`] order (value, then mask) —
//!   every rule below that says "index" means this one;
//! * essentials are taken in ascending order of the first term that has
//!   no other coverer;
//! * dominance between candidates of equal coverage goes to fewer
//!   literals, then to the lower index;
//! * Petrick multiplies clauses in ascending term order, each clause in
//!   ascending candidate order, absorbs after a
//!   `sort_unstable_by_key(count_ones)` and takes the *first* product of
//!   minimal score. Among products of equal score that is whatever order
//!   the unstable sort left — stable for one toolchain, not across them;
//!   the score itself, and so every [`ReduceStats`] field, is not
//!   affected;
//! * greedy scores (gain, fewest new vectors, fewest literals) and takes
//!   the *last* of equally good candidates in ascending index order, as
//!   `Iterator::max_by` does.
//!
//! Dominance pruning packs each candidate's remaining coverage into one
//! `u128`, so it runs only when at most 128 terms remain after the
//! essentials; above that every candidate goes to the cover search as it
//! is.
//!
//! # What it costs, and what is still exponential
//!
//! A selection whose codes fill a code interval — a point, or a range
//! under the default value-ordered encoding — does not come here at all:
//! [`crate::interval`] writes its cover from the interval's two ends. What
//! does is a scattered code set. On a column of 1 000 codes with 24
//! don't-cares (release build) an IN-list of 8–64 scattered values reduces
//! in 6–25 µs, a list of 760 values in about 3.5 ms; a range of 50 values
//! over codes with no regard to value order (first-seen) in about 20 µs,
//! one of 400 in about 0.7 ms. Two things still grow without mercy:
//!
//! * every implicant of `on ∪ dc` is generated, a subcube of dimension
//!   `d` holding `3^d` of them: a contiguous half of `k = 10` is 3 ms;
//! * the don't-care block is reduced along with each query although it
//!   is the same for all of them. At `k = 13` one value against 32 free
//!   codes takes 9 µs, against 1 192 free codes 9 ms and against 3 192
//!   free codes 55 ms, all of it spent on implicants of the free block
//!   alone.

use crate::cube::Cube;
use crate::expr::DnfExpr;
use std::cmp::Reverse;

/// Petrick's method is attempted only when at most this many
/// non-essential prime implicants remain; beyond it the greedy cover
/// takes over.
const PETRICK_MAX_PIS: usize = 24;
/// ... and at most this many min-terms remain uncovered.
const PETRICK_MAX_TERMS: usize = 96;
/// Cap on the intermediate product size during Petrick expansion.
const PETRICK_MAX_PRODUCTS: usize = 100_000;

/// How the non-essential part of the cover was selected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CoverMethod {
    /// Essential prime implicants alone covered the on-set.
    #[default]
    EssentialOnly,
    /// Petrick's method ran to completion (exact cover).
    Petrick,
    /// The bounded greedy cover took over (candidate or product blow-up).
    Greedy,
    /// Quine–McCluskey never ran: the selected codes fill a code interval
    /// and [`crate::interval::cover`] wrote the cover from its two ends.
    Interval,
}

impl CoverMethod {
    /// Stable lowercase name for exports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::EssentialOnly => "essential_only",
            Self::Petrick => "petrick",
            Self::Greedy => "greedy",
            Self::Interval => "interval",
        }
    }
}

/// Counters describing one logical-reduction run, for the query-lifecycle
/// profiler: how large the min-term expansion was, how many prime
/// implicants Quine–McCluskey produced, how hard cover selection worked,
/// and what came out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Distinct on-set min-terms.
    pub minterms: u64,
    /// Don't-care codes supplied (footnote 3).
    pub dont_cares: u64,
    /// Prime implicants generated.
    pub prime_implicants: u64,
    /// Essential prime implicants extracted before cover search.
    pub essential_primes: u64,
    /// Non-essential candidates surviving dominance pruning.
    pub cover_candidates: u64,
    /// Peak intermediate product count during Petrick expansion
    /// (0 unless Petrick ran).
    pub petrick_products_peak: u64,
    /// How the cover was completed.
    pub cover_method: CoverMethod,
    /// Product terms in the reduced expression.
    pub cubes_out: u64,
    /// Literals in the reduced expression.
    pub literals_out: u64,
    /// Distinct bitmap vectors the reduced expression reads — the
    /// paper's `c_e`.
    pub vectors_out: u64,
}

/// Generates all prime implicants of the function with on-set `on` and
/// don't-care set `dc` over `k` variables, ascending.
///
/// Duplicate codes are tolerated; a code present in both sets is treated
/// as on.
#[must_use]
pub fn prime_implicants(on: &[u64], dc: &[u64], k: u32) -> Vec<Cube> {
    // A code listed as both on and dc collapses to one min-term here,
    // which matches the on-wins semantics.
    let mut level: Vec<Cube> = on.iter().chain(dc).map(|&c| Cube::minterm(c, k)).collect();
    let mut primes: Vec<Cube> = Vec::new();
    while !level.is_empty() {
        // Mask-major: cubes that can merge share a mask, so they sit in
        // one run, ascending by value.
        level.sort_unstable_by_key(|c| (c.mask(), c.value()));
        level.dedup();
        let mut combined = vec![false; level.len()];
        let mut next: Vec<Cube> = Vec::new();
        let mut start = 0;
        while start < level.len() {
            let mask = level[start].mask();
            let end = start + level[start..].partition_point(|c| c.mask() == mask);
            for i in start..end {
                let value = level[i].value();
                // A partner differs in one fixed variable. The one with
                // that variable at 1 is the larger value, later in the
                // run, so each pair is found once, from below.
                let mut zeros = mask & !value;
                while zeros != 0 {
                    let bit = zeros & zeros.wrapping_neg();
                    zeros &= zeros - 1;
                    let above = &level[i + 1..end];
                    if let Ok(j) = above.binary_search_by_key(&(value | bit), Cube::value) {
                        combined[i] = true;
                        combined[i + 1 + j] = true;
                        next.push(Cube::new(value, mask & !bit));
                    }
                }
            }
            start = end;
        }
        primes.extend(
            level
                .iter()
                .zip(&combined)
                .filter(|&(_, &merged)| !merged)
                .map(|(&cube, _)| cube),
        );
        level = next;
    }
    primes.sort_unstable();
    primes.dedup();
    primes
}

/// Reduces the selection with on-set `on` and don't-care set `dc` over
/// `k` variables to a minimal DNF — the paper's *logical reduction*.
///
/// The result covers every on-set min-term, covers no off-set min-term,
/// and may cover don't-cares freely. With an empty `on` the result is the
/// constant-false expression.
#[must_use]
pub fn minimize(on: &[u64], dc: &[u64], k: u32) -> DnfExpr {
    let mut stats = ReduceStats::default();
    minimize_with_stats(on, dc, k, &mut stats)
}

/// Like [`minimize`], additionally filling `stats` with the run's
/// reduction counters (min-term expansion size, prime-implicant count,
/// Petrick effort, cover method, output shape).
#[must_use]
pub fn minimize_with_stats(on: &[u64], dc: &[u64], k: u32, stats: &mut ReduceStats) -> DnfExpr {
    *stats = ReduceStats::default();
    if on.is_empty() {
        return DnfExpr::empty(k);
    }
    let on_terms = sorted_distinct(on);
    stats.minterms = on_terms.len() as u64;
    stats.dont_cares = sorted_distinct(dc).len() as u64;
    let primes = prime_implicants(on, dc, k);
    stats.prime_implicants = primes.len() as u64;

    // Which on-terms each prime implicant covers, and for each term how
    // many implicants cover it and the last one that does.
    let words = on_terms.len().div_ceil(64);
    let mut table = CoverTable {
        primes: &primes,
        words,
        bits: vec![0; primes.len() * words],
    };
    let mut coverers = vec![0u32; on_terms.len()];
    let mut last_coverer = vec![0usize; on_terms.len()];
    for (p, prime) in primes.iter().enumerate() {
        for (slot, &term) in on_terms.iter().enumerate() {
            if prime.covers(term) {
                table.bits[p * words + slot / 64] |= 1 << (slot % 64);
                coverers[slot] += 1;
                last_coverer[slot] = p;
            }
        }
    }

    // Essential prime implicants, in order of the first term that has
    // no other coverer.
    let mut chosen: Vec<usize> = Vec::new();
    let mut is_chosen = vec![false; primes.len()];
    let mut uncovered = vec![u64::MAX; words];
    if !on_terms.len().is_multiple_of(64) {
        uncovered[words - 1] = (1 << (on_terms.len() % 64)) - 1;
    }
    for (slot, &count) in coverers.iter().enumerate() {
        debug_assert!(count > 0, "min-term with no covering implicant");
        let p = last_coverer[slot];
        if count == 1 && !is_chosen[p] {
            is_chosen[p] = true;
            chosen.push(p);
            for (u, row) in uncovered.iter_mut().zip(table.row(p)) {
                *u &= !row;
            }
        }
    }
    stats.essential_primes = chosen.len() as u64;

    let remaining: Vec<usize> = ones(&uncovered).collect();
    if !remaining.is_empty() {
        // Candidate implicants that cover something still uncovered,
        // less those another candidate dominates.
        let candidates: Vec<usize> = (0..primes.len())
            .filter(|&p| !is_chosen[p] && table.gain(p, &uncovered) > 0)
            .collect();
        let candidates = table.prune_dominated(candidates, &remaining);
        stats.cover_candidates = candidates.len() as u64;

        let support = chosen.iter().fold(0, |acc, &p| acc | primes[p].mask());
        let picked = if candidates.len() <= PETRICK_MAX_PIS && remaining.len() <= PETRICK_MAX_TERMS
        {
            stats.cover_method = CoverMethod::Petrick;
            table.petrick_cover(&candidates, &uncovered, support, stats)
        } else {
            stats.cover_method = CoverMethod::Greedy;
            table.greedy_cover(&candidates, &uncovered, support)
        };
        chosen.extend(picked);
    }

    let expr = DnfExpr::from_cubes(chosen.into_iter().map(|p| primes[p]).collect(), k);
    stats.cubes_out = expr.cubes().len() as u64;
    stats.literals_out = expr
        .cubes()
        .iter()
        .map(|c| u64::from(c.literal_count()))
        .sum();
    stats.vectors_out = expr.vectors_accessed() as u64;
    expr
}

fn sorted_distinct(codes: &[u64]) -> Vec<u64> {
    let mut v = codes.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// The set positions of a bitset, ascending.
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |&rest| Some(rest & rest.wrapping_sub(1)))
            .take_while(|&rest| rest != 0)
            .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
    })
}

/// The covering table: one bitset row per prime implicant over the
/// slots of the sorted on-terms, `words` words a row, in one allocation.
/// A set of terms (`uncovered`) is a bitset over the same slots, so what
/// a prime would newly cover is a popcount of `row & uncovered`.
struct CoverTable<'a> {
    primes: &'a [Cube],
    words: usize,
    bits: Vec<u64>,
}

impl CoverTable<'_> {
    fn row(&self, prime: usize) -> &[u64] {
        &self.bits[prime * self.words..(prime + 1) * self.words]
    }

    fn covers(&self, prime: usize, slot: usize) -> bool {
        self.bits[prime * self.words + slot / 64] >> (slot % 64) & 1 == 1
    }

    /// How many of `terms` the prime covers.
    fn gain(&self, prime: usize, terms: &[u64]) -> u32 {
        let row = self.row(prime).iter();
        row.zip(terms).map(|(r, t)| (r & t).count_ones()).sum()
    }

    /// Removes candidates whose remaining-coverage is a subset of
    /// another candidate's (ties broken toward fewer literals, then the
    /// lower index). Coverage is packed into one `u128` per candidate,
    /// so with more than 128 terms remaining nothing is pruned.
    fn prune_dominated(&self, candidates: Vec<usize>, remaining: &[usize]) -> Vec<usize> {
        if remaining.len() > 128 {
            return candidates;
        }
        let literals = |p: usize| self.primes[p].literal_count();
        let sets: Vec<u128> = candidates
            .iter()
            .map(|&c| {
                let slots = remaining.iter().enumerate();
                slots.fold(0, |set, (i, &slot)| {
                    set | u128::from(self.covers(c, slot)) << i
                })
            })
            .collect();
        let dominated = |i: usize| {
            let (c, cs) = (candidates[i], sets[i]);
            candidates.iter().zip(&sets).any(|(&d, &ds)| {
                d != c
                    && cs & !ds == 0
                    && (ds != cs
                        || literals(d) < literals(c)
                        || (literals(d) == literals(c) && d < c))
            })
        };
        (0..candidates.len())
            .filter(|&i| !dominated(i))
            .map(|i| candidates[i])
            .collect()
    }

    /// Exact minimum cover of `uncovered` via Petrick's method, scoring
    /// by (vectors with `support` already read, cube count, literals).
    fn petrick_cover(
        &self,
        candidates: &[usize],
        uncovered: &[u64],
        support: u64,
        stats: &mut ReduceStats,
    ) -> Vec<usize> {
        // Each product is a set of candidate indices, packed into a u32 mask
        // over `candidates` (|candidates| <= PETRICK_MAX_PIS <= 24).
        let mut products: Vec<u32> = vec![0]; // start with the empty product
        for slot in ones(uncovered) {
            let clause: Vec<u32> = (0..candidates.len())
                .filter(|&i| self.covers(candidates[i], slot))
                .map(|i| 1u32 << i)
                .collect();
            let mut next: Vec<u32> = Vec::with_capacity(products.len() * clause.len());
            for &p in &products {
                for &lit in &clause {
                    next.push(p | lit);
                }
            }
            // Absorption: drop supersets of another product.
            next.sort_unstable_by_key(|p| p.count_ones());
            let mut kept: Vec<u32> = Vec::with_capacity(next.len());
            for &p in &next {
                // Not a `contains`: q ranges over kept (clippy false positive).
                #[allow(clippy::manual_contains)]
                if !kept.iter().any(|&q| q & p == q) {
                    kept.push(p);
                }
            }
            products = kept;
            stats.petrick_products_peak = stats.petrick_products_peak.max(products.len() as u64);
            if products.len() > PETRICK_MAX_PRODUCTS {
                // Fall back rather than risk runaway memory.
                stats.cover_method = CoverMethod::Greedy;
                return self.greedy_cover(candidates, uncovered, support);
            }
        }

        let score = |p: u32| -> (u32, u32, u32) {
            let mut support = support;
            let mut literals = 0u32;
            for (i, &c) in candidates.iter().enumerate() {
                if p >> i & 1 == 1 {
                    support |= self.primes[c].mask();
                    literals += self.primes[c].literal_count();
                }
            }
            (support.count_ones(), p.count_ones(), literals)
        };
        // The first of equally good products, in the order the last
        // absorption pass left them.
        let best = products
            .into_iter()
            .min_by_key(|&p| score(p))
            .expect("at least one product");
        candidates
            .iter()
            .enumerate()
            .filter(|&(i, _)| best >> i & 1 == 1)
            .map(|(_, &c)| c)
            .collect()
    }

    /// Greedy cover of `uncovered`: repeatedly pick the implicant
    /// covering the most still-uncovered terms, preferring ones that add
    /// no new bitmap vectors to `support`, then ones with fewer literals.
    fn greedy_cover(
        &self,
        candidates: &[usize],
        uncovered: &[u64],
        mut support: u64,
    ) -> Vec<usize> {
        let mut uncovered = uncovered.to_vec();
        let mut live = candidates.to_vec();
        let mut picked: Vec<usize> = Vec::new();
        while uncovered.iter().any(|&word| word != 0) {
            let mut best = None;
            live.retain(|&c| {
                let gain = self.gain(c, &uncovered);
                // Gains only shrink: a candidate with nothing left to
                // cover (a picked one included) is out for good.
                if gain == 0 {
                    return false;
                }
                let cube = self.primes[c];
                let new_vectors = (cube.mask() & !support).count_ones();
                let key = (gain, Reverse(new_vectors), Reverse(cube.literal_count()));
                // `>=`: of equally good candidates the last wins, as
                // `Iterator::max_by` has it.
                if best.is_none_or(|(best_key, _)| key >= best_key) {
                    best = Some((key, c));
                }
                true
            });
            let (_, c) = best.expect("uncovered term with no candidate implicant");
            support |= self.primes[c].mask();
            for (u, row) in uncovered.iter_mut().zip(self.row(c)) {
                *u &= !row;
            }
            picked.push(c);
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Checks `expr` is a correct reduction of (`on`, `dc`): covers all of
    /// `on`, none of the off-set.
    fn assert_valid_reduction(expr: &DnfExpr, on: &[u64], dc: &[u64], k: u32) {
        let dc_set: HashSet<u64> = dc.iter().copied().collect();
        let on_set: HashSet<u64> = on.iter().copied().collect();
        for code in 0..(1u64 << k) {
            if on_set.contains(&code) {
                assert!(expr.covers(code), "{expr} must cover on-code {code:#b}");
            } else if !dc_set.contains(&code) {
                assert!(
                    !expr.covers(code),
                    "{expr} must not cover off-code {code:#b}"
                );
            }
        }
    }

    #[test]
    fn figure1_or_of_a_and_b_reduces_to_one_vector() {
        // a=00, b=01: f_a + f_b = B1'B0' + B1'B0 = B1'.
        let e = minimize(&[0b00, 0b01], &[], 2);
        assert_eq!(e, DnfExpr::parse("B1'", 2).unwrap());
        assert_eq!(e.vectors_accessed(), 1);
    }

    #[test]
    fn figure3a_well_defined_mapping_needs_one_vector() {
        // Mapping (a): a=000, b=100, c=001, d=101, e=011, f=111, g=010, h=110.
        // "A IN {a,b,c,d}" -> codes {000,100,001,101} -> B1'.
        let e = minimize(&[0b000, 0b100, 0b001, 0b101], &[], 3);
        assert_eq!(e, DnfExpr::parse("B1'", 3).unwrap());
        // "A IN {c,d,e,f}" -> codes {001,101,011,111} -> B0.
        let e2 = minimize(&[0b001, 0b101, 0b011, 0b111], &[], 3);
        assert_eq!(e2, DnfExpr::parse("B0", 3).unwrap());
    }

    #[test]
    fn figure3b_improper_mapping_needs_three_vectors() {
        // Mapping (b): a=000,b=001,c=010,d=011,e=110,f=111,g=100,h=101.
        // "A IN {a,b,c,d}" -> {000,001,010,011} -> B2'. That one is fine,
        // but "A IN {c,d,e,f}" -> {010,011,110,111} -> B1: also 1! The
        // improper pair in the paper is the mapping where *both* cannot be
        // reduced; reproduce the paper's stated expression instead:
        // with the paper's (b) mapping a=000,c=001,g=010,b=011,e=100,
        // d=101,h=110,f=111: "A IN {a,b,c,d}" -> {000,011,001,101}.
        let e = minimize(&[0b000, 0b011, 0b001, 0b101], &[], 3);
        assert_eq!(e.vectors_accessed(), 3);
        assert!(e.equivalent(&DnfExpr::parse("B2'B1' + B2'B0 + B1'B0", 3).unwrap()));
        // "A IN {c,d,e,f}" -> {001,101,100,111}.
        let e2 = minimize(&[0b001, 0b101, 0b100, 0b111], &[], 3);
        assert_eq!(e2.vectors_accessed(), 3);
    }

    #[test]
    fn dont_cares_shrink_the_cover() {
        // On {01}, dc {11}: B0 suffices (covers the dc).
        let e = minimize(&[0b01], &[0b11], 2);
        assert_eq!(e, DnfExpr::parse("B0", 2).unwrap());
        assert_valid_reduction(&e, &[0b01], &[0b11], 2);
    }

    #[test]
    fn full_cube_reduces_to_tautology() {
        let on: Vec<u64> = (0..8).collect();
        let e = minimize(&on, &[], 3);
        assert!(e.is_true());
        assert_eq!(e.vectors_accessed(), 0);
    }

    #[test]
    fn empty_on_set_is_false() {
        let e = minimize(&[], &[0b1], 2);
        assert!(e.is_false());
    }

    #[test]
    fn single_value_selection_is_a_minterm() {
        // Single-value selection reads all k vectors — the case where the
        // paper concedes simple bitmap indexing wins (§3.1 Q1).
        let e = minimize(&[0b101], &[], 3);
        assert_eq!(e, DnfExpr::parse("B2B1'B0", 3).unwrap());
        assert_eq!(e.vectors_accessed(), 3);
    }

    #[test]
    fn prime_implicants_of_classic_example() {
        // f(x3..x0) with on {4,8,10,11,12,15}, dc {9,14}: classic QM demo.
        let on = [4u64, 8, 10, 11, 12, 15];
        let dc = [9u64, 14];
        let pis = prime_implicants(&on, &dc, 4);
        // Known prime implicants: B1B0'? let's assert count and validity.
        assert!(!pis.is_empty());
        for pi in &pis {
            for t in pi.expand(4) {
                assert!(
                    on.contains(&t) || dc.contains(&t),
                    "PI {pi} covers off-code {t}"
                );
            }
        }
        let e = minimize(&on, &dc, 4);
        assert_valid_reduction(&e, &on, &dc, 4);
        // The textbook minimum uses 3 product terms.
        assert!(e.cubes().len() <= 3, "got {e}");
    }

    #[test]
    fn reduction_is_semantically_correct_on_random_functions() {
        // Deterministic pseudo-random on/dc sets over k=4 and k=5.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for k in [3u32, 4, 5] {
            for _ in 0..40 {
                let mut on = Vec::new();
                let mut dc = Vec::new();
                for code in 0..(1u64 << k) {
                    match next() % 4 {
                        0 => on.push(code),
                        1 => dc.push(code),
                        _ => {}
                    }
                }
                let e = minimize(&on, &dc, k);
                assert_valid_reduction(&e, &on, &dc, k);
            }
        }
    }

    #[test]
    fn aligned_power_of_two_block_needs_k_minus_j_vectors() {
        // Selecting an aligned 2^j block out of 2^k: the reduction drops j
        // variables. This is the mechanism behind Figure 9's best case.
        let k = 6u32;
        for j in 0..=k {
            let on: Vec<u64> = (0..(1u64 << j)).collect();
            let e = minimize(&on, &[], k);
            assert_eq!(e.vectors_accessed(), (k - j) as usize, "j={j}: {e}");
        }
    }

    #[test]
    fn minimize_with_stats_describes_the_run() {
        // Figure 1: two min-terms reduce to the single-literal B1'.
        let mut stats = ReduceStats::default();
        let e = minimize_with_stats(&[0b00, 0b01], &[], 2, &mut stats);
        assert_eq!(e, DnfExpr::parse("B1'", 2).unwrap());
        assert_eq!(stats.minterms, 2);
        assert_eq!(stats.dont_cares, 0);
        assert_eq!(stats.prime_implicants, 1);
        assert_eq!(stats.essential_primes, 1);
        assert_eq!(stats.cover_method, CoverMethod::EssentialOnly);
        assert_eq!(stats.cubes_out, 1);
        assert_eq!(stats.literals_out, 1);
        assert_eq!(stats.vectors_out, 1);

        // The classic QM demo exercises the cover search.
        let on = [4u64, 8, 10, 11, 12, 15];
        let dc = [9u64, 14];
        let e = minimize_with_stats(&on, &dc, 4, &mut stats);
        assert_valid_reduction(&e, &on, &dc, 4);
        assert_eq!(stats.minterms, 6);
        assert_eq!(stats.dont_cares, 2);
        assert!(stats.prime_implicants >= stats.essential_primes);
        assert_eq!(stats.cubes_out, e.cubes().len() as u64);
        assert_eq!(stats.vectors_out, e.vectors_accessed() as u64);
        if stats.cover_method == CoverMethod::Petrick {
            assert!(stats.petrick_products_peak > 0);
        }

        // Stats reset between runs: the empty selection reports zeros.
        let e = minimize_with_stats(&[], &[], 3, &mut stats);
        assert!(e.is_false());
        assert_eq!(stats, ReduceStats::default());
    }

    #[test]
    fn cover_method_names_are_stable() {
        assert_eq!(CoverMethod::EssentialOnly.as_str(), "essential_only");
        assert_eq!(CoverMethod::Petrick.as_str(), "petrick");
        assert_eq!(CoverMethod::Greedy.as_str(), "greedy");
        assert_eq!(CoverMethod::Interval.as_str(), "interval");
    }

    #[test]
    fn large_range_on_k10_stays_tractable() {
        // δ = 700 consecutive codes out of 1024 (Figure 9(b) regime).
        let on: Vec<u64> = (0..700).collect();
        let dc: Vec<u64> = (1000..1024).collect(); // |A| = 1000
        let e = minimize(&on, &dc, 10);
        // Correct on a sample of codes.
        for code in [0u64, 350, 699, 700, 999] {
            assert_eq!(e.covers(code), code < 700, "code {code}");
        }
        assert!(e.vectors_accessed() <= 10);
    }
}
