//! The differential suite for the evaluation kernel.
//!
//! There is one kernel ([`ebi_bitvec::kernels`]) and one oracle
//! ([`eval_expr_naive`]); everything the kernel does must be
//! **bit-identical** to the oracle, over the cross-product of:
//!
//! * arbitrary DNF expressions — negated literals (whose complement
//!   sets garbage past `row_count` that tail masking must clear),
//!   tautology cubes, the empty expression, duplicate cubes, and cubes
//!   of differing supports so that literal prefixes diverge at every
//!   depth;
//! * every mixture of Dense / Roaring slices, and plain `BitVec`s;
//! * segment summaries on and off;
//! * row counts that are not multiples of the word or the
//!   [`SEGMENT_BITS`]-row segment, and zero rows;
//! * every kernel tier the host can run;
//! * the whole evaluation, or its windows one morsel at a time.
//!
//! The paper's cost metrics (`vectors_accessed`, `cube_evals`,
//! `literal_ops`) are properties of the *expression*: none of the above
//! may move them.
//!
//! A cover of a code interval (`interval::cover`) lowers to an interval
//! plan, two bit-sliced comparisons, which equals the cover's cubes on
//! every code but the free ones. Its columns therefore hold assigned
//! codes only, as an index's rows do.

use ebi_bitvec::kernels::{SliceSource, SEGMENT_BITS, SEGMENT_WORDS};
use ebi_bitvec::summary::summarize_slices;
use ebi_bitvec::{simd, BitVec, DnfPlan, SegmentSummary, SliceStorage, StorageKind, StoragePolicy};
use ebi_boolean::interval;
use ebi_boolean::qm::ReduceStats;
use ebi_boolean::{eval_expr_naive, eval_expr_tracked, AccessTracker, Cube, DnfExpr};
use ebi_obs::CostCounters;
use proptest::prelude::*;
use proptest::TestCaseError;

/// Deterministic xorshift so slice contents derive from one seed.
fn next(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// How the codes of a column are laid out.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Every row an independent uniform draw.
    Uniform,
    /// 3 in 4 rows draw from the two low codes, so high-order slices
    /// carry the long zero runs that compress.
    Skewed,
    /// Runs of one code up to three segments long: whole windows are
    /// all-zero or all-one, which is what summaries prune, compressed
    /// containers classify without materialising, and zero products and
    /// identity literals come from.
    Clustered,
}

fn layout() -> impl Strategy<Value = Layout> {
    prop::sample::select(vec![Layout::Uniform, Layout::Skewed, Layout::Clustered])
}

/// Slices of the codes `code(row)` for `rows` rows over `k` variables.
fn slices_of(k: u32, rows: usize, mut code: impl FnMut(u64) -> u64) -> Vec<BitVec> {
    let mut slices = vec![BitVec::zeros(rows); k as usize];
    for row in 0..rows {
        let c = code(row as u64);
        for (i, slice) in slices.iter_mut().enumerate() {
            if c >> i & 1 == 1 {
                slice.set(row, true);
            }
        }
    }
    slices
}

/// Builds `k` bitmap slices for `rows` pseudo-random codes.
fn random_slices(k: u32, rows: usize, seed: u64, layout: Layout) -> Vec<BitVec> {
    let mut state = seed;
    let (mut run, mut code) = (0, 0);
    slices_of(k, rows, |_| {
        let r = next(&mut state);
        let wide = r >> 2 & ((1u64 << k) - 1);
        code = match layout {
            Layout::Uniform => wide,
            Layout::Skewed if r.is_multiple_of(4) => wide,
            Layout::Skewed => r % 2,
            Layout::Clustered if run == 0 => {
                run = 1 + (r >> 20) as usize % (3 * SEGMENT_BITS);
                wide
            }
            Layout::Clustered => code,
        };
        run = run.saturating_sub(1);
        code
    })
}

/// A code space of `k` bits: its assigned codes, ascending, and the
/// free runs of the others. Without `gaps`, `m > 2^(k-1)` codes from 0
/// and one free run above them (a dense mapping); with them, about three
/// codes in four assigned anywhere.
fn code_space(k: u32, seed: u64, gaps: bool) -> (Vec<u64>, Vec<(u64, u64)>) {
    let size = 1u64 << k;
    let mut state = seed;
    let mut assigned: Vec<u64> = if gaps {
        (0..size)
            .filter(|_| !next(&mut state).is_multiple_of(4))
            .collect()
    } else {
        (0..size / 2 + 1 + next(&mut state) % (size / 2)).collect()
    };
    if assigned.is_empty() {
        assigned.push(next(&mut state) % size);
    }
    let mut free = Vec::new();
    let mut from = 0;
    for &code in assigned.iter().chain([&size]) {
        if code > from {
            free.push((from, code - 1));
        }
        from = code + 1;
    }
    (assigned, free)
}

/// `k` slices of `rows` codes drawn from `assigned` in `layout`.
fn assigned_slices(
    k: u32,
    rows: usize,
    assigned: &[u64],
    seed: u64,
    layout: Layout,
) -> Vec<BitVec> {
    let mut state = seed;
    let (mut run, mut code) = (0, assigned[0]);
    slices_of(k, rows, |_| {
        let r = next(&mut state);
        let any = assigned[(r >> 3) as usize % assigned.len()];
        code = match layout {
            Layout::Uniform => any,
            Layout::Skewed if r.is_multiple_of(4) => any,
            Layout::Skewed => assigned[(r % 2) as usize % assigned.len()],
            Layout::Clustered if run == 0 => {
                run = 1 + (r >> 20) as usize % (3 * SEGMENT_BITS);
                any
            }
            Layout::Clustered => code,
        };
        run = run.saturating_sub(1);
        code
    })
}

/// Lowers raw `(value, mask, tag)` triples into cubes over `k`
/// variables. `tag == 0` forces a tautology cube so the empty product
/// stays covered.
fn build_cubes(specs: &[(u64, u64, u32)], k: u32) -> Vec<Cube> {
    let universe = (1u64 << k) - 1;
    specs
        .iter()
        .map(|&(value, mask, tag)| {
            if tag == 0 {
                Cube::tautology()
            } else {
                Cube::new(value & universe, mask & universe)
            }
        })
        .collect()
}

/// Packs each slice under a pseudo-random per-slice policy.
fn mixed_storage(dense: &[BitVec], seed: u64) -> Vec<SliceStorage> {
    let mut state = seed;
    dense
        .iter()
        .map(|b| {
            let policy = match next(&mut state) % 3 {
                0 => StoragePolicy::Dense,
                1 => StoragePolicy::Roaring,
                _ => StoragePolicy::Adaptive,
            };
            SliceStorage::from_dense(b.clone(), policy)
        })
        .collect()
}

/// One configuration (slice family × summaries) against the oracle:
/// every tier, and the paper's metrics.
fn check<S: SliceSource>(
    expr: &DnfExpr,
    naive: &BitVec,
    slices: &[S],
    summaries: Option<&[SegmentSummary]>,
    rows: usize,
) -> Result<(), TestCaseError> {
    for path in simd::available_paths() {
        let mut tracker = AccessTracker::new();
        let (selected, whole) = simd::with_forced_path(path, || {
            (
                simd::selected_path(),
                eval_expr_tracked(expr, slices, summaries, rows, &mut tracker),
            )
        });
        let what = format!(
            "tier {}, summaries {}, rows {rows}, expr {expr}",
            path.name(),
            summaries.is_some()
        );
        prop_assert_eq!(selected, path, "forced tier not selected: {}", what);
        prop_assert_eq!(&whole, naive, "kernel != naive: {}", what);
        let cost = tracker.finish();
        // Structural: no evaluation strategy may move them.
        prop_assert_eq!(cost.vectors_accessed, expr.vectors_accessed() as u64);
        prop_assert_eq!(cost.cube_evals, expr.cubes().len() as u64);
        prop_assert_eq!(cost.literal_ops, expr.literal_count() as u64);
        prop_assert_eq!(cost.or_ops, expr.cubes().len().saturating_sub(1) as u64);

        // One morsel per window: the parts, side by side, are the whole,
        // and their kernel counters sum to the whole evaluation's.
        let plan = expr.lower();
        let bound = plan.bind(slices, summaries, rows);
        let (whole, parts, merged) = simd::with_forced_path(path, || {
            let (mut whole, mut parts) = (CostCounters::default(), CostCounters::default());
            let _ = bound.eval(&mut whole);
            let mut merged = BitVec::zeros(rows);
            for w in 0..bound.windows() {
                merged.or_at_word(&bound.eval_windows(w..w + 1, &mut parts), w * SEGMENT_WORDS);
            }
            (whole, parts, merged)
        });
        prop_assert_eq!(&merged, naive, "morsels != naive: {}", what);
        prop_assert_eq!(parts, whole, "morsel counters: {}", what);
    }
    Ok(())
}

/// `check` over plain vectors and a random container mix, with and
/// without summaries.
fn check_everywhere(
    expr: &DnfExpr,
    dense: &[BitVec],
    rows: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let naive = eval_expr_naive(expr, dense, rows);
    let summaries = summarize_slices(dense);
    let stored = mixed_storage(dense, seed ^ 0xA5A5);
    for sums in [None, Some(&summaries[..])] {
        check(expr, &naive, dense, sums, rows)?;
        check(expr, &naive, &stored, sums, rows)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kernel_matches_naive_on_random_dnf(
        seed in any::<u64>(),
        k in 1u32..=6,
        rows in 0usize..7 * SEGMENT_BITS,
        layout in layout(),
        specs in prop::collection::vec((any::<u64>(), any::<u64>(), 0u32..8), 0..8),
    ) {
        let dense = random_slices(k, rows, seed, layout);
        let expr = DnfExpr::from_cubes(build_cubes(&specs, k), k);
        check_everywhere(&expr, &dense, rows, seed)?;
    }

    #[test]
    fn interval_plans_match_the_cover_on_every_assigned_code(
        seed in any::<u64>(),
        k in 1u32..=13,
        rows in 1usize..4 * SEGMENT_BITS,
        layout in layout(),
        gaps in any::<bool>(),
        ends in (any::<u64>(), any::<u64>()),
    ) {
        let (assigned, free) = code_space(k, seed, gaps);
        let (a, b) = (ends.0 as usize % assigned.len(), ends.1 as usize % assigned.len());
        let (lo, hi) = (assigned[a.min(b)], assigned[a.max(b)]);
        let expr = interval::cover(lo, hi, &free, k, &mut ReduceStats::default());
        let dense = assigned_slices(k, rows, &assigned, seed ^ 0x1234, layout);
        check_everywhere(&expr, &dense, rows, seed)?;
    }

    #[test]
    fn prefixes_that_diverge_at_every_depth(
        seed in any::<u64>(),
        k in 2u32..=7,
        rows in 1usize..5 * SEGMENT_BITS,
        code in any::<u64>(),
        drops in any::<u64>(),
        layout in layout(),
    ) {
        // For every depth d: the top d literals of `code`, and the same
        // with the d-th one flipped — each cube is a prefix of every
        // longer one or parts from it at one chosen depth. `drops`
        // removes a literal here and there so that supports differ.
        let universe = (1u64 << k) - 1;
        let mut cubes = Vec::new();
        for d in 1..=k {
            let top = universe & !((1u64 << (k - d)) - 1);
            let last = 1u64 << (k - d);
            let mask = top & !(drops & !last);
            cubes.push(Cube::new(code & top, top));
            cubes.push(Cube::new((code ^ last) & mask, mask));
        }
        let dense = random_slices(k, rows, seed, layout);
        let expr = DnfExpr::from_cubes(cubes, k);
        check_everywhere(&expr, &dense, rows, seed)?;
    }

    #[test]
    fn duplicate_cubes_are_evaluated_once_and_change_nothing(
        seed in any::<u64>(),
        k in 1u32..=5,
        rows in 1usize..3 * SEGMENT_BITS,
        specs in prop::collection::vec((any::<u64>(), any::<u64>(), 1u32..8), 1..5),
    ) {
        // `DnfExpr` normalises duplicates away, so hand the kernel a raw
        // term list with every cube repeated.
        let cubes = build_cubes(&specs, k);
        let expr = DnfExpr::from_cubes(cubes.clone(), k);
        let raw = cubes.iter().chain(&cubes).map(|c| (c.mask(), c.value()));
        let plan = DnfPlan::lower(raw);
        prop_assert_eq!(&plan, &expr.lower());
        let dense = random_slices(k, rows, seed, Layout::Clustered);
        let stored = mixed_storage(&dense, seed);
        let got = plan.bind(&stored, None, rows).eval(&mut CostCounters::default());
        prop_assert_eq!(got, eval_expr_naive(&expr, &dense, rows));
    }

    #[test]
    fn minterm_sums_are_storage_independent(
        seed in any::<u64>(),
        k in 1u32..=5,
        rows in 1usize..5 * SEGMENT_BITS,
        picks in prop::collection::btree_set(0u64..32, 0..8),
    ) {
        // Min-term sums are what selections actually lower to. The same
        // sum under four uniform storage regimes: identical bitmaps,
        // identical vectors_accessed.
        let codes: Vec<u64> = picks.into_iter().filter(|&c| c < (1 << k)).collect();
        let expr = DnfExpr::minterm_sum(&codes, k);
        let dense = random_slices(k, rows, seed, Layout::Uniform);
        let naive = eval_expr_naive(&expr, &dense, rows);
        for policy in [
            StoragePolicy::Dense,
            StoragePolicy::Roaring,
            StoragePolicy::Adaptive,
        ] {
            let stored: Vec<SliceStorage> = dense
                .iter()
                .map(|b| SliceStorage::from_dense(b.clone(), policy))
                .collect();
            let mut tracker = AccessTracker::new();
            let got = eval_expr_tracked(&expr, &stored, None, rows, &mut tracker);
            prop_assert_eq!(&got, &naive, "{:?} diverged", policy);
            prop_assert_eq!(tracker.finish().vectors_accessed, expr.vectors_accessed() as u64);
        }
        // Row-population sanity: each selected code contributes its rows.
        let expected: usize = expr
            .truth_set()
            .iter()
            .map(|&c| {
                let mut state = seed;
                (0..rows)
                    .filter(|_| next(&mut state) >> 2 & ((1 << k) - 1) == c)
                    .count()
            })
            .sum();
        prop_assert_eq!(naive.count_ones(), expected);
    }
}

// Fixed inputs larger than the random sweep reaches.

#[test]
fn many_segments_ending_in_a_ragged_word() {
    // Rows deliberately not segment- or word-aligned.
    let rows = 100_001;
    let dense = slices_of(5, rows, |i| (i * 31) % 32);
    let expr = DnfExpr::parse("B4'B2B0 + B3B1' + B4B3B2'", 5).unwrap();
    check_everywhere(&expr, &dense, rows, 0x5EED).unwrap();
}

#[test]
fn adaptive_containers_of_a_skewed_column() {
    // Skewed over enough rows that the adaptive policy compresses some
    // slices and keeps others dense.
    let rows = 200_000;
    let dense = slices_of(5, rows, |i| if i % 16 == 0 { (i / 16) % 32 } else { 0 });
    let stored: Vec<SliceStorage> = dense
        .iter()
        .map(|b| SliceStorage::from_dense(b.clone(), StoragePolicy::Adaptive))
        .collect();
    assert!(
        stored.iter().any(|s| s.kind() != StorageKind::Dense),
        "adaptive policy should compress skewed slices"
    );
    let expr = DnfExpr::parse("B4'B2B0 + B3B1'", 5).unwrap();
    let naive = eval_expr_naive(&expr, &dense, rows);
    let summaries = summarize_slices(&dense);
    for sums in [None, Some(&summaries[..])] {
        check(&expr, &naive, &stored, sums, rows).unwrap();
    }
}

#[test]
fn live_work_behind_a_long_pruned_prefix() {
    // Every set bit sits in the last quarter of the row range: the
    // summaries prune the first three quarters of the segments.
    let rows = 1_200_000;
    let live = |i: usize| i >= 3 * rows / 4;
    let a: BitVec = (0..rows).map(|i| live(i) && i % 3 == 0).collect();
    let b: BitVec = (0..rows).map(|i| live(i) && i % 5 != 0).collect();
    let dense = [a, b];
    let expr = DnfExpr::parse("B1B0", 2).unwrap();
    check_everywhere(&expr, &dense, rows, 0x5EED).unwrap();

    let summaries = summarize_slices(&dense);
    let mut tracker = AccessTracker::new();
    let _ = eval_expr_tracked(&expr, &dense, Some(&summaries), rows, &mut tracker);
    assert!(tracker.cost.segments_pruned >= (3 * rows / 4 / SEGMENT_BITS) as u64);
}

#[test]
fn served_ranges_take_interval_plans_and_match_their_covers() {
    // Column `c` of the repository benchmark's shape: k = 10, 1 000
    // codes, a free run above them; ranges of width 50..=400.
    let assigned: Vec<u64> = (0..1000).collect();
    let free = [(1000, 1023)];
    let rows = 3 * SEGMENT_BITS + 999;
    let dense = assigned_slices(10, rows, &assigned, 0xC0, Layout::Uniform);
    let mut state = 0x5EED;
    let mut interval_plans = 0;
    for _ in 0..24 {
        let width = 50 + next(&mut state) % 351;
        let lo = next(&mut state) % (1000 - width);
        let expr = interval::cover(lo, lo + width, &free, 10, &mut ReduceStats::default());
        let (wide_lo, wide_hi) = expr.interval().expect("a cover carries its interval");
        assert_eq!(wide_lo, lo);
        assert_eq!(wide_hi, if lo + width == 999 { 1023 } else { lo + width });
        interval_plans += usize::from(expr.lower() == DnfPlan::interval(wide_lo, wide_hi, 10));
        check_everywhere(&expr, &dense, rows, state).unwrap();
    }
    assert!(interval_plans >= 20, "{interval_plans} of 24 ranges");
}

#[test]
fn empty_expression_is_all_zero_and_reads_nothing() {
    let slices = random_slices(3, 5000, 0xDEAD_BEEF, Layout::Uniform);
    let expr = DnfExpr::empty(3);
    let mut tracker = AccessTracker::new();
    let got = eval_expr_tracked(&expr, &slices, None, 5000, &mut tracker);
    assert_eq!(got, eval_expr_naive(&expr, &slices, 5000));
    assert_eq!(got.count_ones(), 0);
    assert_eq!(tracker.finish().vectors_accessed, 0);
    assert_eq!(tracker.cost.words_scanned, 0);
}

#[test]
fn the_scratch_carries_nothing_between_evaluations() {
    // The kernel's working rows are a per-thread scratch that is reused
    // and never zeroed. A wide plan, a one-literal plan, the wide plan
    // again and the wide plan on the scalar tier, one after another on
    // this thread, must each equal the oracle. The wide plan's low parts
    // (on B2, B1, B0) are B2B0, B1'B0', B2'B1 and B2B1B0; B4 is stored
    // Roaring, so it is materialised into a slot window.
    let rows = 2 * SEGMENT_BITS + 4321;
    let dense = random_slices(5, rows, 0x5C7A, Layout::Uniform);
    let stored: Vec<SliceStorage> = dense
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let policy = if i == 4 {
                StoragePolicy::Roaring
            } else {
                StoragePolicy::Dense
            };
            SliceStorage::from_dense(b.clone(), policy)
        })
        .collect();
    assert_eq!(stored[4].kind(), StorageKind::Roaring);
    let wide = DnfExpr::parse("B4B3'B2B0 + B4B3B1'B0' + B4'B2'B1 + B3B2B1B0", 5).unwrap();
    let one = DnfExpr::parse("B1'", 5).unwrap();
    let eval = |expr: &DnfExpr| {
        let got = expr
            .lower()
            .bind(&stored, None, rows)
            .eval(&mut CostCounters::default());
        assert_eq!(got, eval_expr_naive(expr, &dense, rows), "{expr}");
    };
    eval(&wide);
    eval(&one);
    eval(&wide);
    simd::with_forced_path(simd::KernelPath::Scalar, || eval(&wide));
}
