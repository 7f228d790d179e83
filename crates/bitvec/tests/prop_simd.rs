//! Differential property tests proving the AVX2 compilation of the
//! kernel passes is a drop-in replacement for the scalar one.
//!
//! Every tier the host can run ([`simd::available_paths`]) must
//! produce **bit-identical** output and **identical cost counters**
//! for every kernel, over random operand mixes (1–6 literals per
//! term, arbitrary negation patterns), odd tail lengths that leave
//! the vectorised blocks ragged, and all-zero / all-one operands
//! that drive the saturation short-circuits; the comparison pass over
//! random chains, and the two counting passes. The DNF kernel is checked
//! end-to-end over plain vectors and both containers (Dense /
//! Roaring) under a forced dispatch override, which must select the
//! forced tier.

use ebi_bitvec::simd::{self, KernelPath};
use ebi_bitvec::summary::summarize_slices;
use ebi_bitvec::{BitVec, DnfPlan, SliceStorage, StoragePolicy};
use ebi_obs::CostCounters;
use proptest::prelude::*;

/// Deterministic xorshift so operand contents derive from one seed.
fn next(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Random words with a sprinkling of all-zero and all-one words so the
/// vectorised any/all accumulators see saturated lanes.
fn random_words(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| match next(&mut state) % 8 {
            0 => 0,
            1 => u64::MAX,
            _ => next(&mut state),
        })
        .collect()
}

/// Random bits at `density_ppt` parts-per-thousand ones; 0 and 1000
/// produce genuinely constant vectors.
fn random_bits(len: usize, density_ppt: u64, seed: u64) -> BitVec {
    let mut state = seed;
    BitVec::from_bools((0..len).map(|_| next(&mut state) % 1000 < density_ppt))
}

/// Densities including both constant extremes.
fn density_ppt() -> impl Strategy<Value = u64> {
    prop::sample::select(vec![0u64, 1, 200, 500, 999, 1000])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every public word-level pass: each tier bit-identical to the
    /// scalar tier, including the any/saturation boolean returns, at
    /// lengths that leave ragged vector tails.
    #[test]
    fn word_passes_match_scalar_on_every_tier(
        seed in any::<u64>(),
        n in 0usize..300,
        neg1 in any::<bool>(),
        neg2 in any::<bool>(),
    ) {
        let s1 = random_words(n, seed ^ 0x9E37_79B9);
        let s2 = random_words(n, seed ^ 0x6C62_272E);
        let base = random_words(n, seed ^ 0x2545_F491);

        for path in simd::available_paths() {
            // fused_pass2: acc = (±s1) & (±s2)
            let mut want = base.clone();
            let want_any = simd::fused_pass2(KernelPath::Scalar, &mut want, &s1, &s2, neg1, neg2);
            let mut got = base.clone();
            let got_any = simd::fused_pass2(path, &mut got, &s1, &s2, neg1, neg2);
            prop_assert_eq!(&got, &want, "fused_pass2 words on {}", path.name());
            prop_assert_eq!(got_any, want_any, "fused_pass2 any on {}", path.name());

            // or_and_into: dst |= (±s1) & (±s2), returns saturation
            let mut want = base.clone();
            let want_sat =
                simd::or_and_into(KernelPath::Scalar, &mut want, &s1, &s2, neg1, neg2);
            let mut got = base.clone();
            let got_sat = simd::or_and_into(path, &mut got, &s1, &s2, neg1, neg2);
            prop_assert_eq!(&got, &want, "or_and_into words on {}", path.name());
            prop_assert_eq!(got_sat, want_sat, "or_and_into saturation on {}", path.name());

            // and_pass: acc &= ±s1
            let mut want = base.clone();
            let want_any = simd::and_pass(KernelPath::Scalar, &mut want, &s1, neg1);
            let mut got = base.clone();
            let got_any = simd::and_pass(path, &mut got, &s1, neg1);
            prop_assert_eq!(&got, &want, "and_pass words on {}", path.name());
            prop_assert_eq!(got_any, want_any, "and_pass any on {}", path.name());

            // or_into: dst |= src, returns saturation
            let mut want = base.clone();
            let want_sat = simd::or_into(KernelPath::Scalar, &mut want, &s1);
            let mut got = base.clone();
            let got_sat = simd::or_into(path, &mut got, &s1);
            prop_assert_eq!(&got, &want, "or_into words on {}", path.name());
            prop_assert_eq!(got_sat, want_sat, "or_into saturation on {}", path.name());
        }
    }

    /// The comparison pass: two chains of random length, start and
    /// AND/OR pattern (either may be absent), every tier bit-identical to
    /// the scalar tier at lengths that leave the 16- and 64-word blocks
    /// ragged.
    #[test]
    fn compare_pass_matches_scalar_on_every_tier(
        seed in any::<u64>(),
        n in 0usize..300,
        chains in (0usize..8, 0usize..8),
        ands in (any::<u64>(), any::<u64>()),
        present in (any::<bool>(), any::<bool>()),
    ) {
        let operands: Vec<Vec<u64>> = (0..chains.0 + chains.1 + 2)
            .map(|i| random_words(n, seed ^ (i as u64).wrapping_mul(0x9E37_79B9)))
            .collect();
        let refs: Vec<&[u64]> = operands.iter().map(Vec::as_slice).collect();
        let (ge_ops, gt_ops) = refs[2..].split_at(chains.0);
        let ge = present.0.then_some(simd::Chain { start: refs[0], ops: ge_ops, ands: ands.0 });
        let gt = present.1.then_some(simd::Chain { start: refs[1], ops: gt_ops, ands: ands.1 });
        let mut want = random_words(n, seed ^ 0x2545_F491);
        simd::compare_pass(KernelPath::Scalar, &mut want, ge, gt);
        for path in simd::available_paths() {
            let mut got = random_words(n, seed ^ 0x6C62_272E);
            simd::compare_pass(path, &mut got, ge, gt);
            prop_assert_eq!(&got, &want, "compare_pass on {}", path.name());
        }
    }

    /// The counting passes: ones and runs of ones, every tier equal to
    /// the scalar tier, across words that end runs, start them and carry
    /// them over word edges.
    #[test]
    fn counting_passes_match_scalar_on_every_tier(seed in any::<u64>(), n in 0usize..600) {
        let words = random_words(n, seed);
        let ones = simd::count_ones(KernelPath::Scalar, &words);
        let runs = simd::count_runs(KernelPath::Scalar, &words);
        prop_assert_eq!(ones, words.iter().map(|w| u64::from(w.count_ones())).sum::<u64>());
        for path in simd::available_paths() {
            prop_assert_eq!(simd::count_ones(path, &words), ones, "count_ones on {}", path.name());
            prop_assert_eq!(simd::count_runs(path, &words), runs, "count_runs on {}", path.name());
        }
    }

    /// Constant all-zero / all-one operands in every combination: the
    /// vector tier must report the exact same any/saturation verdicts
    /// the scalar loops do.
    #[test]
    fn saturated_operands_agree_on_every_tier(
        n in 1usize..200,
        a_kind in 0u8..3,
        b_kind in 0u8..3,
        neg1 in any::<bool>(),
        neg2 in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let make = |kind: u8, salt: u64| -> Vec<u64> {
            match kind {
                0 => vec![0u64; n],
                1 => vec![u64::MAX; n],
                _ => random_words(n, seed ^ salt),
            }
        };
        let s1 = make(a_kind, 0xA5A5);
        let s2 = make(b_kind, 0x5A5A);

        for path in simd::available_paths() {
            let mut want = vec![0u64; n];
            let want_any = simd::fused_pass2(KernelPath::Scalar, &mut want, &s1, &s2, neg1, neg2);
            let mut got = vec![0u64; n];
            let got_any = simd::fused_pass2(path, &mut got, &s1, &s2, neg1, neg2);
            prop_assert_eq!(&got, &want, "fused_pass2 on {}", path.name());
            prop_assert_eq!(got_any, want_any, "fused_pass2 any on {}", path.name());

            let mut want = s1.clone();
            let want_sat = simd::or_into(KernelPath::Scalar, &mut want, &s2);
            let mut got = s1.clone();
            let got_sat = simd::or_into(path, &mut got, &s2);
            prop_assert_eq!(got_sat, want_sat, "or_into saturation on {}", path.name());

            let mut want = s1.clone();
            let want_sat =
                simd::or_and_into(KernelPath::Scalar, &mut want, &s1, &s2, neg1, neg2);
            let mut got = s1.clone();
            let got_sat = simd::or_and_into(path, &mut got, &s1, &s2, neg1, neg2);
            prop_assert_eq!(&got, &want, "or_and_into on {}", path.name());
            prop_assert_eq!(got_sat, want_sat, "or_and_into saturation on {}", path.name());
        }
    }

    /// End-to-end DNF evaluation under a forced dispatch override:
    /// every tier × every container family (plain vectors, Dense,
    /// Roaring) matches the scalar result over plain vectors, with
    /// tier-invariant cost counters per family, and the override selects
    /// the forced tier.
    #[test]
    fn dnf_eval_is_tier_invariant_across_containers(
        seed in any::<u64>(),
        rows in 1usize..40_000,
        densities in prop::collection::vec(density_ppt(), 2..5),
        shape in prop::collection::vec(
            prop::collection::vec((any::<prop::sample::Index>(), any::<bool>()), 1..6),
            1..4,
        ),
        with_summaries in any::<bool>(),
    ) {
        let dense: Vec<BitVec> = densities
            .iter()
            .enumerate()
            .map(|(i, &d)| random_bits(rows, d, seed ^ (i as u64).wrapping_mul(0x9E37_79B9)))
            .collect();
        let summaries = summarize_slices(&dense);
        let summaries = with_summaries.then_some(&summaries[..]);
        // A term names each slice at most once; a repeat overrides.
        let plan = DnfPlan::lower(shape.iter().map(|term| {
            term.iter().fold((0u64, 0u64), |(mask, value), (idx, neg)| {
                let bit = 1u64 << idx.index(dense.len());
                (mask | bit, if *neg { value & !bit } else { value | bit })
            })
        }));

        let mut ref_stats = CostCounters::default();
        let reference = simd::with_forced_path(KernelPath::Scalar, || {
            plan.bind(&dense, summaries, rows).eval(&mut ref_stats)
        });
        for path in simd::available_paths() {
            let mut stats = CostCounters::default();
            let (selected, got) = simd::with_forced_path(path, || {
                (simd::selected_path(), plan.bind(&dense, summaries, rows).eval(&mut stats))
            });
            prop_assert_eq!(selected, path, "forced tier not selected");
            prop_assert_eq!(&got, &reference, "plain-vector result on {}", path.name());
            prop_assert_eq!(stats, ref_stats, "cost counters on {}", path.name());
        }

        for policy in [StoragePolicy::Dense, StoragePolicy::Roaring] {
            let family: Vec<SliceStorage> = dense
                .iter()
                .map(|b| SliceStorage::from_dense(b.clone(), policy))
                .collect();
            let bound = plan.bind(&family, summaries, rows);
            let mut ref_stats = CostCounters::default();
            let scalar = simd::with_forced_path(KernelPath::Scalar, || bound.eval(&mut ref_stats));
            prop_assert_eq!(&scalar, &reference, "{:?} != plain vectors", policy);
            for path in simd::available_paths() {
                let mut stats = CostCounters::default();
                let got = simd::with_forced_path(path, || bound.eval(&mut stats));
                prop_assert_eq!(&got, &scalar, "result for {:?} on {}", policy, path.name());
                prop_assert_eq!(
                    stats,
                    ref_stats,
                    "cost counters for {:?} on {}",
                    policy,
                    path.name()
                );
            }
        }
    }
}
