//! Evaluating retrieval expressions over bitmap slices.
//!
//! Given the `k` bitmap vectors `B_{k-1} … B_0` of an encoded bitmap index
//! and a reduced retrieval expression, evaluation produces the selection
//! bitmap: each product term ANDs together its slices (negated where the
//! literal is `B_i'`), and the terms are ORed.
//!
//! There is one evaluator. [`DnfExpr::lower`] turns the expression into a
//! [`DnfPlan`] — product terms sorted so that shared literal prefixes are
//! adjacent — and the [`ebi_bitvec::kernels`] kernel runs it in 32 768-row
//! segments over slices in any container (plain [`BitVec`]s or
//! [`ebi_bitvec::SliceStorage`]), fetching each slice's window once per
//! segment and computing each shared prefix once. With per-slice
//! [`SegmentSummary`] data it additionally skips whole segments without
//! reading a word. A cover of a code interval lowers instead to two
//! bit-sliced comparisons ([`DnfExpr::lower`]). The original
//! operator-at-a-time evaluator is kept as [`eval_expr_naive`], the
//! differential-testing oracle; both produce bit-identical results on
//! every row that holds a code the expression is defined on (for an
//! interval cover, every code but the free ones).
//!
//! [`AccessTracker`] records the paper's cost metric while doing so: the
//! set of *distinct bitmap vectors touched* (footnote 4 — "the number of
//! bitmaps which need to be accessed is considered as one" per vector,
//! however many literals reference it), plus secondary counters. These
//! come from the *expression* ([`record_access`]), never from the plan:
//! every slice a cube references is counted, whether or not prefix
//! sharing or segment pruning ends up reading it — the metric models
//! which vectors must be *fetched*.

use crate::expr::DnfExpr;
use ebi_bitvec::kernels::{interval_support, DnfPlan, SliceSource};
use ebi_bitvec::{BitVec, SegmentSummary};
use ebi_obs::CostCounters;

/// Errors from expression-evaluation bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EvalError {
    /// A slice index beyond the tracker's 64-vector mask was touched.
    SliceIndexOutOfRange {
        /// The offending slice index.
        index: u32,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SliceIndexOutOfRange { index } => {
                write!(f, "slice index {index} exceeds the 64-vector tracker limit")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// The paper's cost metric for one or more expression evaluations: the
/// set of distinct bitmap vectors touched, as a mask that holds the
/// `k ≤ 64` slices an index can have, next to the [`CostCounters`] the
/// evaluation writes. [`AccessTracker::finish`] reads the mask into
/// `vectors_accessed`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessTracker {
    /// Bitmask of slice indices touched.
    touched: u64,
    /// Every counter but `vectors_accessed`, which comes from the mask.
    pub cost: CostCounters,
}

impl AccessTracker {
    /// Fresh tracker with all counters zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The cost so far, `vectors_accessed` counted from the mask — the
    /// paper's `c_e` / `c_s`.
    #[must_use]
    pub fn finish(&self) -> CostCounters {
        CostCounters {
            vectors_accessed: u64::from(self.touched.count_ones()),
            ..self.cost
        }
    }

    /// Records a touch of slice `i` (used by index implementations for
    /// vectors read outside expression evaluation, e.g. existence
    /// bitmaps).
    ///
    /// The tracker stores touches in a 64-bit mask, so only slice
    /// indices `0..64` are representable — matching the evaluator's own
    /// `k ≤ 64` limit (an encoded bitmap index needs `k = ⌈log₂ m⌉`
    /// slices, and `k > 64` would require more than `2^64` attribute
    /// values).
    ///
    /// # Panics
    ///
    /// Panics on `i >= 64` in **all** build profiles. Out-of-range
    /// indices used to be a debug-only assertion that release builds
    /// silently ignored, which let a miscounting caller ship; callers
    /// that want to handle the limit gracefully use [`Self::try_touch`].
    pub fn touch(&mut self, i: u32) {
        if let Err(e) = self.try_touch(i) {
            panic!("{e}");
        }
    }

    /// Fallible variant of [`Self::touch`]: records a touch of slice
    /// `i`, or reports [`EvalError::SliceIndexOutOfRange`] when `i` does
    /// not fit the 64-vector mask.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::SliceIndexOutOfRange`] when `i >= 64`.
    pub fn try_touch(&mut self, i: u32) -> Result<(), EvalError> {
        if i >= 64 {
            return Err(EvalError::SliceIndexOutOfRange { index: i });
        }
        self.touched |= 1 << i;
        Ok(())
    }
}

impl DnfExpr {
    /// Lowers the expression for the evaluation kernel. The plan
    /// depends only on the expression, so it is built once per query
    /// and bound to every slice family the query runs against.
    ///
    /// A cover of a code interval ([`DnfExpr::interval`]) of at least
    /// two cubes whose two comparison chains read exactly the cubes'
    /// slices lowers to an interval plan ([`DnfPlan::interval`]): each
    /// slice read once per window instead of once per product pass, and
    /// the same `c_e`. It equals the cubes on every code but the free
    /// ones, which no row holds. Every other expression — a point, a
    /// scattered list, a Quine–McCluskey cover — lowers to its product
    /// terms.
    #[must_use]
    pub fn lower(&self) -> DnfPlan {
        match self.interval() {
            Some((lo, hi))
                if self.cubes().len() >= 2
                    && interval_support(lo, hi, self.k()) == self.support() =>
            {
                DnfPlan::interval(lo, hi, self.k())
            }
            _ => DnfPlan::lower(self.cubes().iter().map(|c| (c.mask(), c.value()))),
        }
    }
}

/// Records the paper's access metrics for evaluating `expr`: one
/// `cube_eval` and its literal touches per product term, one `or_op`
/// per term beyond the first. Identical to what the naive evaluator
/// does — the kernel changes how words are read, not which vectors are
/// accessed.
pub fn record_access(expr: &DnfExpr, tracker: &mut AccessTracker) {
    for cube in expr.cubes() {
        tracker.cost.cube_evals += 1;
        for i in 0..64u32 {
            if cube.mask() >> i & 1 == 1 {
                tracker.touch(i);
                tracker.cost.literal_ops += 1;
            }
        }
    }
    tracker.cost.or_ops += expr.cubes().len().saturating_sub(1) as u64;
}

/// Evaluates `expr` over `slices` (slice `i` = bitmap vector `B_i`, in
/// any container), returning the selection bitmap of length `row_count`.
///
/// # Panics
///
/// Panics if the expression references a slice index `>= slices.len()`,
/// or a slice length differs from `row_count`.
#[must_use]
pub fn eval_expr<S: SliceSource>(expr: &DnfExpr, slices: &[S], row_count: usize) -> BitVec {
    eval_expr_tracked(expr, slices, None, row_count, &mut AccessTracker::new())
}

/// Like [`eval_expr`] but records cost in `tracker`, and with
/// `Some(summaries)` (`summaries[i]` must describe `slices[i]`, see
/// [`ebi_bitvec::summary::summarize_slices`]) skips whole segments
/// before any bitmap word is read. `vectors_accessed` is identical
/// whatever the per-slice container choice.
///
/// # Panics
///
/// As [`eval_expr`], plus if the summary count or lengths disagree with
/// the slices.
#[must_use]
pub fn eval_expr_tracked<S: SliceSource>(
    expr: &DnfExpr,
    slices: &[S],
    summaries: Option<&[SegmentSummary]>,
    row_count: usize,
    tracker: &mut AccessTracker,
) -> BitVec {
    let plan = expr.lower();
    record_access(expr, tracker);
    plan.bind(slices, summaries, row_count)
        .eval(&mut tracker.cost)
}

/// The original operator-at-a-time evaluator: clones / negates the first
/// literal of each term, ANDs the rest in whole-vector passes, ORs terms.
///
/// Kept as the differential-testing oracle for the kernel (and as the
/// baseline in the evaluation benchmarks); results are bit-identical to
/// [`eval_expr`], for an interval cover on the rows whose code is not
/// free.
///
/// # Panics
///
/// As [`eval_expr`].
#[must_use]
pub fn eval_expr_naive(expr: &DnfExpr, slices: &[BitVec], row_count: usize) -> BitVec {
    for s in slices {
        assert_eq!(s.len(), row_count, "slice length != row count");
    }
    assert!(
        expr.support() >> slices.len().min(63) == 0 || slices.len() >= 64,
        "expression references slice beyond the {} provided",
        slices.len()
    );

    let mut result: Option<BitVec> = None;
    for cube in expr.cubes() {
        let mut acc: Option<BitVec> = None;
        for i in 0..64u32 {
            if cube.mask() >> i & 1 == 0 {
                continue;
            }
            let positive = cube.value() >> i & 1 == 1;
            let slice = &slices[i as usize];
            match &mut acc {
                None => {
                    acc = Some(if positive {
                        slice.clone()
                    } else {
                        slice.negated()
                    });
                }
                Some(a) => {
                    if positive {
                        a.and_assign(slice);
                    } else {
                        a.and_not_assign(slice);
                    }
                }
            }
        }
        // The empty product is the tautology.
        let cube_bits = acc.unwrap_or_else(|| BitVec::ones(row_count));
        match &mut result {
            None => result = Some(cube_bits),
            Some(r) => r.or_assign(&cube_bits),
        }
    }
    result.unwrap_or_else(|| BitVec::zeros(row_count))
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::qm;
    use ebi_bitvec::builder::SliceFamilyBuilder;
    use ebi_bitvec::summary::summarize_slices;

    /// Builds slices for a column of codes (LSB-first slices).
    fn slices_for(codes: &[u64], k: u32) -> Vec<BitVec> {
        let mut fam = SliceFamilyBuilder::new(k as usize);
        for &c in codes {
            fam.push_code(c);
        }
        fam.finish()
    }

    #[test]
    fn figure1_evaluation() {
        // Column [a, b, c, b, a, c] with a=00, b=01, c=10 (Figure 1).
        let codes = [0b00u64, 0b01, 0b10, 0b01, 0b00, 0b10];
        let slices = slices_for(&codes, 2);
        // Q1: A = a  → f_a = B1'B0' → rows 0 and 4.
        let fa = DnfExpr::minterm_sum(&[0b00], 2);
        let r = eval_expr(&fa, &slices, 6);
        assert_eq!(r.to_positions(), vec![0, 4]);
        // Q2: A IN {a, b} → reduces to B1' → rows 0,1,3,4.
        let fab = qm::minimize(&[0b00, 0b01], &[], 2);
        let mut t = AccessTracker::new();
        let r2 = eval_expr_tracked(&fab, &slices, None, 6, &mut t);
        assert_eq!(r2.to_positions(), vec![0, 1, 3, 4]);
        assert_eq!(t.finish().vectors_accessed, 1, "Q2 reads only B1");
    }

    #[test]
    fn tracker_counts_distinct_vectors_once() {
        // B1B0 + B1'B0 touches vectors {0, 1} — three cube literals over
        // two distinct vectors.
        let e = DnfExpr::parse("B1B0 + B1'B0", 2).unwrap();
        let slices = slices_for(&[0b00, 0b01, 0b10, 0b11], 2);
        let mut t = AccessTracker::new();
        let _ = eval_expr_tracked(&e, &slices, None, 4, &mut t);
        let cost = t.finish();
        assert_eq!(cost.vectors_accessed, 2);
        assert_eq!(cost.literal_ops, 4);
        assert_eq!(cost.cube_evals, 2);
        assert_eq!(cost.or_ops, 1);
    }

    #[test]
    fn reduced_and_unreduced_expressions_agree() {
        let codes: Vec<u64> = (0..64u64).map(|i| i * 7 % 16).collect();
        let slices = slices_for(&codes, 4);
        let selection: Vec<u64> = vec![1, 2, 3, 5, 8, 13];
        let raw = DnfExpr::minterm_sum(&selection, 4);
        let reduced = qm::minimize(&selection, &[], 4);
        let r1 = eval_expr(&raw, &slices, 64);
        let r2 = eval_expr(&reduced, &slices, 64);
        assert_eq!(r1, r2);
        // Ground truth by scanning codes.
        for (row, &c) in codes.iter().enumerate() {
            assert_eq!(r1.bit(row), selection.contains(&c), "row {row}");
        }
    }

    #[test]
    fn constant_expressions() {
        let slices = slices_for(&[0, 1, 2], 2);
        let f = eval_expr(&DnfExpr::empty(2), &slices, 3);
        assert_eq!(f.count_ones(), 0);
        let t = eval_expr(&DnfExpr::parse("1", 2).unwrap(), &slices, 3);
        assert_eq!(t.count_ones(), 3);
    }

    #[test]
    fn tautology_reads_no_vectors() {
        let slices = slices_for(&[0, 1], 1);
        let mut t = AccessTracker::new();
        let _ = eval_expr_tracked(&DnfExpr::parse("1", 1).unwrap(), &slices, None, 2, &mut t);
        assert_eq!(t.finish().vectors_accessed, 0);
        assert_eq!(t.cost.words_scanned, 0, "tautology reads no slice words");
    }

    #[test]
    #[should_panic(expected = "slice length")]
    fn mismatched_slice_lengths_panic() {
        let slices = vec![BitVec::zeros(3), BitVec::zeros(4)];
        let _ = eval_expr(&DnfExpr::parse("B1B0", 2).unwrap(), &slices, 3);
    }

    #[test]
    #[should_panic(expected = "64-vector tracker limit")]
    fn tracker_touch_rejects_out_of_range_index() {
        // Panics in every build profile — release included — since the
        // silent-ignore release path was promoted to a typed error.
        AccessTracker::new().touch(64);
    }

    #[test]
    fn tracker_try_touch_reports_typed_error() {
        let mut t = AccessTracker::new();
        assert_eq!(t.try_touch(63), Ok(()));
        assert_eq!(t.touched, 1 << 63);
        let err = t.try_touch(64).unwrap_err();
        assert_eq!(err, EvalError::SliceIndexOutOfRange { index: 64 });
        assert_eq!(
            err.to_string(),
            "slice index 64 exceeds the 64-vector tracker limit"
        );
        // The failed touch left the mask unchanged.
        assert_eq!(t.touched, 1 << 63);
        assert_eq!(t.finish().vectors_accessed, 1);
    }

    #[test]
    fn kernel_matches_naive_on_mixed_expression() {
        let codes: Vec<u64> = (0..10_000u64).map(|i| (i * 2_654_435_761) % 32).collect();
        let slices = slices_for(&codes, 5);
        let e = DnfExpr::parse("B4'B2B0 + B3B1' + B4B3'B2'B1B0'", 5).unwrap();
        assert_eq!(
            eval_expr(&e, &slices, codes.len()),
            eval_expr_naive(&e, &slices, codes.len())
        );
    }

    #[test]
    fn summarized_evaluation_is_identical_and_prunes() {
        // Codes concentrated so some slices have long zero runs.
        let codes: Vec<u64> = (0..50_000u64)
            .map(|i| if i < 25_000 { i % 4 } else { 4 + i % 4 })
            .collect();
        let slices = slices_for(&codes, 3);
        let summaries = summarize_slices(&slices);
        let e = DnfExpr::parse("B2'B1B0 + B2B1'", 3).unwrap();
        let mut t_plain = AccessTracker::new();
        let mut t_sum = AccessTracker::new();
        let plain = eval_expr_tracked(&e, &slices, None, codes.len(), &mut t_plain);
        let summed = eval_expr_tracked(&e, &slices, Some(&summaries), codes.len(), &mut t_sum);
        assert_eq!(plain, summed);
        let (plain, summed) = (t_plain.finish(), t_sum.finish());
        assert_eq!(plain.vectors_accessed, summed.vectors_accessed);
        assert!(
            summed.words_scanned <= plain.words_scanned,
            "summaries can only reduce scanning: {} > {}",
            summed.words_scanned,
            plain.words_scanned
        );
        assert!(
            summed.segments_pruned > 0,
            "B2 is constant per half: prunes"
        );
    }

    #[test]
    fn every_container_agrees_with_naive_and_keeps_vectors_accessed() {
        use ebi_bitvec::{SliceStorage, StoragePolicy};
        let codes: Vec<u64> = (0..30_000u64)
            .map(|i| if i % 97 == 0 { i % 8 } else { 0 })
            .collect();
        let dense = slices_for(&codes, 3);
        let summaries = summarize_slices(&dense);
        let e = DnfExpr::parse("B2'B1B0 + B2B1' + B0'", 3).unwrap();
        let expect = eval_expr_naive(&e, &dense, codes.len());
        let mut t_dense = AccessTracker::new();
        assert_eq!(
            eval_expr_tracked(&e, &dense, None, codes.len(), &mut t_dense),
            expect
        );
        assert_eq!(t_dense.cost.compressed_chunks_skipped, 0);

        // Both container kinds mixed, then all compressed.
        let mixes = [
            [
                StoragePolicy::Dense,
                StoragePolicy::Roaring,
                StoragePolicy::Dense,
            ],
            [StoragePolicy::Roaring; 3],
        ];
        for policies in mixes {
            let stored: Vec<SliceStorage> = dense
                .iter()
                .zip(policies)
                .map(|(b, p)| SliceStorage::from_dense(b.clone(), p))
                .collect();
            let mut t = AccessTracker::new();
            let got = eval_expr_tracked(&e, &stored, Some(&summaries), codes.len(), &mut t);
            assert_eq!(got, expect, "{policies:?}");
            assert!(t.cost.bytes_touched > 0);
            assert_eq!(
                t.touched, t_dense.touched,
                "the paper's c_e metric must not depend on the container choice"
            );
        }
    }

    #[test]
    fn bound_plan_over_mixed_containers_matches_naive() {
        use ebi_bitvec::{SliceStorage, StoragePolicy};
        let codes: Vec<u64> = (0..20_000u64)
            .map(|i| {
                if i < 10_000 {
                    0
                } else {
                    i.wrapping_mul(37) % 16
                }
            })
            .collect();
        let dense = slices_for(&codes, 4);
        let policies = [
            StoragePolicy::Roaring,
            StoragePolicy::Dense,
            StoragePolicy::Roaring,
            StoragePolicy::Dense,
        ];
        let stored: Vec<SliceStorage> = dense
            .iter()
            .zip(policies)
            .map(|(b, p)| SliceStorage::from_dense(b.clone(), p))
            .collect();
        let e = DnfExpr::parse("B3B1 + B2'B0", 4).unwrap();
        let plan = e.lower();
        let bound = plan.bind(&stored, None, codes.len());
        let whole = bound.eval(&mut CostCounters::default());
        assert_eq!(whole, eval_expr_naive(&e, &dense, codes.len()));
    }
}
