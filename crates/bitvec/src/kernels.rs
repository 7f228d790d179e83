//! The DNF evaluation kernel for retrieval expressions.
//!
//! The naive way to evaluate `B_3 · B_1' · B_0 + B_3 · B_1' · B_2` is a
//! chain of whole-vector operations per product term: clone `B_3`,
//! `and_assign(B_1')`, `and_assign(B_0)`, OR the result into the
//! selection bitmap, then start over for the second term. Every step
//! streams `n/64` words through memory and the shared prefix
//! `B_3 · B_1'` is computed twice.
//!
//! This module has **one** kernel, over every container kind, that works
//! segment by segment ([`SEGMENT_WORDS`] = 512 words = [`SEGMENT_BITS`] =
//! 32 768 rows at a time):
//!
//! * **window-once fetch** — per segment, each slice the expression
//!   references is fetched exactly once, however many terms and literals
//!   name it: a dense slice lends its words, a Roaring slice fills one
//!   scratch window. A window that a [`SegmentSummary`] or the
//!   container's own metadata proves all-zero or all-one is classified
//!   without reading a word.
//! * **prefix-shared product tree** — a [`DnfPlan`] sorts the product
//!   terms by literal sequence (highest slice first) and lowers each to
//!   `(shared_depth, suffix)`: how many leading literals it shares with
//!   the term before it, and the literals it adds. The kernel keeps the
//!   partial products of the current term on a small stack of 512-word
//!   rows, so a term costs only its unshared suffix.
//! * **low parts once** — the tail of a term hardly ever continues a
//!   shared prefix, but tails repeat: the literals on the three lowest
//!   referenced slices take at most 27 distinct forms across the whole
//!   expression. Each distinct *low part* is computed once per segment,
//!   and a term ends with a single pass that ANDs its high-part product
//!   with its low part straight into the destination.
//! * **zero propagation** — a partial product that goes all-zero, or a
//!   literal whose window is known to annihilate it, skips every term
//!   below that prefix; a segment whose destination saturates to
//!   all-ones skips its remaining terms.
//!
//! Everything the kernel classifies, tabulates or walks, it does once
//! per segment, so a wide segment spreads that fixed cost over many
//! words. No intermediate `BitVec` is ever allocated; the product
//! stack, the accumulator, the low parts and the scratch windows are
//! `(depth + 1 + low parts + slices) × 4 KiB`, taken from a per-thread
//! scratch that outlives the call (see [`BoundPlan::eval_windows`]). One
//! evaluation runs on one thread, from its first segment to its last:
//! every segment, or the morsel a scheduler hands that thread.

use crate::core::{BitVec, WORD_BITS};
use crate::roaring::{RoaringBitmap, WindowFill, WindowKind};
use crate::simd;
use crate::store::SliceStorage;
use crate::summary::SegmentSummary;
use ebi_obs::CostCounters;
use std::cell::Cell;
use std::cmp::{Ordering, Reverse};
use std::ops::Range;

/// Words per evaluation segment: the one granularity of the kernel's
/// windows and of [`SegmentSummary`].
pub const SEGMENT_WORDS: usize = 512;

/// Rows (bits) per evaluation segment.
pub const SEGMENT_BITS: usize = SEGMENT_WORDS * WORD_BITS;

// A Roaring window is filled from one chunk (`fill_window` panics on a
// window that crosses one), and a summary counts a segment's ones in a
// `u16`.
const _: () = assert!(crate::roaring::CHUNK_WORDS.is_multiple_of(SEGMENT_WORDS));
const _: () = assert!(SEGMENT_BITS <= u16::MAX as usize);

/// A borrowed view of one bitmap vector in whichever container holds it.
#[derive(Debug, Clone, Copy)]
pub enum SliceRef<'a> {
    /// Word-packed, uncompressed.
    Dense(&'a BitVec),
    /// Roaring chunked containers.
    Roaring(&'a RoaringBitmap),
}

impl SliceRef<'_> {
    fn len(&self) -> usize {
        match self {
            Self::Dense(b) => b.len(),
            Self::Roaring(r) => r.len(),
        }
    }
}

/// A bitmap vector the kernel can fetch evaluation windows from: a
/// plain [`BitVec`] or an adaptively stored [`SliceStorage`].
pub trait SliceSource {
    /// The vector in its current container.
    fn slice_ref(&self) -> SliceRef<'_>;
}

impl SliceSource for BitVec {
    fn slice_ref(&self) -> SliceRef<'_> {
        SliceRef::Dense(self)
    }
}

impl SliceSource for SliceStorage {
    fn slice_ref(&self) -> SliceRef<'_> {
        match self {
            Self::Dense(b) => SliceRef::Dense(b),
            Self::Roaring(r) => SliceRef::Roaring(r),
        }
    }
}

/// Slices, counted from the lowest referenced one, whose literals are
/// the *low part* of a term. `3^3 = 27` distinct low parts at most, so
/// their products fit in 108 KiB beside the product stack.
const LOW_SLOTS: usize = 3;

/// [`Step::low`] of a term with no low-part literals.
const NO_LOW: u8 = u8::MAX;

/// One literal of a lowered product: its slice, that slice's slot
/// (position in [`DnfPlan::slots`]), and its polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanLit {
    slice: u8,
    slot: u8,
    negated: bool,
}

/// One lowered product: the literals `mask`/`value` name, highest slice
/// first, at `lits[first .. first + mask.count_ones()]`.
///
/// In [`DnfPlan::steps`] this is the high part of one term; the leading
/// `shared` literals equal those of the step before, the leading `keep`
/// those of the step after, and `low` is the term's low part as an
/// index into [`DnfPlan::lows`]. The low parts themselves leave the
/// three unset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    mask: u64,
    value: u64,
    shared: u8,
    keep: u8,
    low: u8,
    first: u32,
}

impl Step {
    fn len(&self) -> usize {
        self.mask.count_ones() as usize
    }
}

/// A retrieval expression lowered for the kernel.
///
/// Every product term is split into a *high part* and a *low part* (its
/// literals on the `LOW_SLOTS` lowest referenced slices). The terms
/// are sorted by high-part literal sequence (highest slice first) so
/// that terms with a common prefix are adjacent, and each is recorded as
/// the depth it shares with its predecessor plus its own literals. The
/// distinct low parts are listed once; a term names its own by index.
///
/// The plan depends only on the expression, never on slice contents, so
/// it is lowered once per query and [bound](DnfPlan::bind) to each
/// slice family it runs against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DnfPlan {
    /// Distinct slice indices referenced, highest first.
    slots: Vec<u8>,
    lits: Vec<PlanLit>,
    steps: Vec<Step>,
    lows: Vec<Step>,
    /// Some term is the empty product: the expression is constant true.
    tautology: bool,
    /// Literals in the longest high part: the product-stack height.
    depth: usize,
    /// Slice windows a fully live segment feeds to the word passes: the
    /// high-part literals beyond the shared prefixes, plus the literals
    /// of each distinct low part.
    unshared_lits: u64,
}

/// The highest slice at which two (normalised) cubes differ, if any.
fn divergence((ma, va): (u64, u64), (mb, vb): (u64, u64)) -> Option<u32> {
    let diff = (ma ^ mb) | (va ^ vb);
    (diff != 0).then(|| 63 - diff.leading_zeros())
}

/// Lexicographic order on literal sequences, highest slice first. A
/// cube that is a prefix of another sorts before it.
fn literal_order(a: (u64, u64), b: (u64, u64)) -> Ordering {
    let Some(h) = divergence(a, b) else {
        return Ordering::Equal;
    };
    // The sequences agree above `h`; each cube's next literal is its
    // highest one at or below `h`.
    let next = |(m, v): (u64, u64)| {
        let rest = m & (u64::MAX >> (63 - h));
        (rest != 0).then(|| {
            let slice = 63 - rest.leading_zeros();
            (Reverse(slice), v >> slice & 1)
        })
    };
    next(a).cmp(&next(b))
}

/// Slice indices of `mask`, highest first.
fn slices_desc(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let slice = 63 - mask.leading_zeros();
            mask &= !(1 << slice);
            slice
        })
    })
}

impl DnfPlan {
    /// Lowers a sum of product terms given as `(mask, value)` pairs: bit
    /// `i` of `mask` set means the term has a literal on slice `i`,
    /// positive if bit `i` of `value` is set and negated otherwise. A
    /// term with an empty mask is the tautology. Duplicate terms are
    /// evaluated once.
    #[must_use]
    pub fn lower(cubes: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let cubes: Vec<(u64, u64)> = cubes.into_iter().map(|(m, v)| (m, v & m)).collect();
        let support = cubes.iter().fold(0, |s, c| s | c.0);
        let slots: Vec<u8> = slices_desc(support).map(|s| s as u8).collect();
        if cubes.iter().any(|c| c.0 == 0) {
            return Self {
                slots,
                tautology: true,
                ..Self::default()
            };
        }
        let low_mask = slots
            .iter()
            .rev()
            .take(LOW_SLOTS)
            .fold(0u64, |m, &slice| m | 1 << slice);
        // (high part, low part) of every term, by high-part sequence.
        let mut cubes: Vec<[(u64, u64); 2]> = cubes
            .iter()
            .map(|&(m, v)| [(m & !low_mask, v & !low_mask), (m & low_mask, v & low_mask)])
            .collect();
        cubes.sort_unstable_by(|a, b| literal_order(a[0], b[0]).then(a[1].cmp(&b[1])));
        cubes.dedup();
        let mut lows: Vec<(u64, u64)> = cubes.iter().map(|c| c[1]).filter(|l| l.0 != 0).collect();
        lows.sort_unstable();
        lows.dedup();

        let mut slot_of = [0u8; 64];
        for (slot, &slice) in slots.iter().enumerate() {
            slot_of[slice as usize] = slot as u8;
        }
        let mut plan = Self {
            slots,
            ..Self::default()
        };
        let push = |plan: &mut Self, (mask, value): (u64, u64), shared: u32, low: u8| {
            let step = Step {
                mask,
                value,
                shared: shared as u8,
                keep: 0,
                low,
                first: plan.lits.len() as u32,
            };
            plan.lits.extend(slices_desc(mask).map(|slice| PlanLit {
                slice: slice as u8,
                slot: slot_of[slice as usize],
                negated: value >> slice & 1 == 0,
            }));
            plan.unshared_lits += u64::from(mask.count_ones() - shared);
            step
        };
        for &low in &lows {
            let step = push(&mut plan, low, 0, NO_LOW);
            plan.lows.push(step);
        }
        let mut prev = None;
        for &[high, low] in &cubes {
            let shared = match prev.map(|p| divergence(p, high)) {
                None => 0,
                Some(None) => high.0.count_ones(),
                Some(Some(h)) => (high.0 >> h >> 1).count_ones(),
            };
            let low = lows.binary_search(&low).map_or(NO_LOW, |i| i as u8);
            let step = push(&mut plan, high, shared, low);
            if let Some(before) = plan.steps.last_mut() {
                before.keep = step.shared;
            }
            plan.steps.push(step);
            plan.depth = plan.depth.max(step.len());
            prev = Some(high);
        }
        plan
    }

    /// Literals left after sharing — high-part prefixes computed once
    /// per run of terms, low parts once per expression: the slice
    /// windows a fully live segment feeds to the word passes.
    #[must_use]
    pub fn unshared_literals(&self) -> u64 {
        self.unshared_lits
    }

    /// Binds the plan to a slice family (`slices[i]` = bitmap vector
    /// `B_i`) of `rows` rows. With `summaries` (`summaries[i]` must
    /// describe `slices[i]`) segments a summary proves uniform are
    /// classified without reading a word.
    ///
    /// # Panics
    ///
    /// Panics if a slice length differs from `rows` (message contains
    /// "slice length"), if the expression references a slice index
    /// `>= slices.len()`, or if the summaries do not match the slices.
    #[must_use]
    pub fn bind<'a, S: SliceSource>(
        &'a self,
        slices: &'a [S],
        summaries: Option<&'a [SegmentSummary]>,
        rows: usize,
    ) -> BoundPlan<'a> {
        for s in slices {
            let len = s.slice_ref().len();
            assert_eq!(len, rows, "slice length {len} != row count {rows}");
        }
        if let Some(sums) = summaries {
            assert_eq!(sums.len(), slices.len(), "one summary per slice required");
        }
        let slots = self
            .slots
            .iter()
            .map(|&slice| {
                let i = slice as usize;
                assert!(
                    i < slices.len(),
                    "expression references slice beyond the {} provided",
                    slices.len()
                );
                let summary = summaries.map(|sums| &sums[i]);
                if let Some(s) = summary {
                    assert_eq!(
                        s.len(),
                        rows,
                        "summary length {} != row count {rows}",
                        s.len()
                    );
                }
                BoundSlot {
                    slice,
                    src: slices[i].slice_ref(),
                    summary,
                }
            })
            .collect();
        BoundPlan {
            plan: self,
            slots,
            rows,
        }
    }
}

/// One referenced slice of a bound plan.
#[derive(Debug, Clone, Copy)]
struct BoundSlot<'a> {
    slice: u8,
    src: SliceRef<'a>,
    summary: Option<&'a SegmentSummary>,
}

impl BoundSlot<'_> {
    /// Classifies global segment `seg` from the summary alone.
    fn summarized(&self, seg: usize) -> Option<WindowKind> {
        let s = self.summary?;
        if s.segment_is_zero(seg) {
            Some(WindowKind::Zeros)
        } else if s.segment_is_full(seg) {
            Some(WindowKind::Ones)
        } else {
            None
        }
    }
}

/// A [`DnfPlan`] bound to the slices (and optional summaries) of one
/// index: the thing the kernel evaluates.
///
/// It borrows everything immutably; [`BoundPlan::eval`] is bit-identical
/// to naive whole-vector evaluation over dense slices.
#[derive(Debug, Clone)]
pub struct BoundPlan<'a> {
    plan: &'a DnfPlan,
    slots: Vec<BoundSlot<'a>>,
    rows: usize,
}

/// A product of literals on one segment.
#[derive(Clone, Copy)]
enum Product {
    /// The empty product (or one of identity literals only).
    Ones,
    /// A single literal's window: no pass has run yet.
    Window(PlanLit),
    /// Materialised in row `r` of the evaluation's row buffer.
    Row(usize),
}

/// What a term's low part came to on one segment.
#[derive(Clone, Copy)]
enum Low {
    /// A uniform window annihilates it.
    Pruned,
    /// It was computed, and is all-zero.
    Zero,
    Live(Product),
}

/// The working rows and low-part table of the evaluations on one
/// thread, kept between calls so that a call neither allocates nor
/// zeroes them.
#[derive(Default)]
struct Scratch {
    rows: Vec<u64>,
    lows: Vec<Low>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// Uniform windows of one segment as slice-indexed bit masks, from
/// which a product's fate is decided in O(1).
#[derive(Clone, Copy, Default)]
struct Uniform {
    zeros: u64,
    ones: u64,
}

impl Uniform {
    fn note(&mut self, slice: u8, kind: WindowKind) {
        match kind {
            WindowKind::Zeros => self.zeros |= 1 << slice,
            WindowKind::Ones => self.ones |= 1 << slice,
            WindowKind::Mixed => {}
        }
    }

    /// If some literal of `step` is all-zero here, the length of the
    /// shortest prefix that includes one (literals run highest slice
    /// first).
    fn dead_depth(self, step: &Step) -> Option<usize> {
        let killers = step.mask & ((step.value & self.zeros) | (!step.value & self.ones));
        (killers != 0).then(|| {
            let top = 63 - killers.leading_zeros();
            (step.mask >> top >> 1).count_ones() as usize + 1
        })
    }

    /// Slices whose literal in `step` is all-one here and drops out of
    /// the product.
    fn identities(self, step: &Step) -> u64 {
        step.mask & ((step.value & self.ones) | (!step.value & self.zeros))
    }
}

/// Row `r` (`1 ..`) of an evaluation's row buffer, `nw` words of it.
fn row(rows: &[u64], r: usize, nw: usize) -> &[u64] {
    &rows[(r - 1) * SEGMENT_WORDS..][..nw]
}

/// Credits a compressed window fetch to `stats` and returns its kind.
fn compressed(fill: WindowFill, stats: &mut CostCounters) -> WindowKind {
    stats.bytes_touched += fill.bytes_touched;
    if fill.kind != WindowKind::Mixed {
        stats.compressed_chunks_skipped += 1;
    }
    fill.kind
}

/// One segment's fetched windows, and the count of dense ones the
/// passes have consumed.
struct Windows<'a> {
    slots: &'a [BoundSlot<'a>],
    scratch: &'a [u64],
    w0: usize,
    nw: usize,
    scanned: u64,
}

impl<'a> Windows<'a> {
    /// The window of `lit`'s slice, as an operand about to be read.
    fn read(&mut self, lit: PlanLit) -> &'a [u64] {
        let slot = lit.slot as usize;
        match self.slots[slot].src {
            SliceRef::Dense(b) => {
                self.scanned += 1;
                &b.words()[self.w0..self.w0 + self.nw]
            }
            SliceRef::Roaring(_) => &self.scratch[slot * SEGMENT_WORDS..][..self.nw],
        }
    }
}

impl BoundPlan<'_> {
    /// Estimated kernel word traffic of evaluating this plan: a
    /// segment's words per literal left after sharing, per segment,
    /// minus the products a summary proves zero on a segment. The last
    /// segment is charged the words it has. Zero products and
    /// saturation are not predictable from summaries, so real work can
    /// only be lower — which is what a parallel splitter needs to decide
    /// whether fanning out pays.
    #[must_use]
    pub fn estimated_work_words(&self) -> u64 {
        let plan = self.plan;
        let total_words = self.rows.div_ceil(WORD_BITS);
        if self.slots.iter().all(|s| s.summary.is_none()) {
            return plan.unshared_lits * total_words as u64;
        }
        let mut words = 0u64;
        for seg in 0..total_words.div_ceil(SEGMENT_WORDS) {
            let nw = (total_words - seg * SEGMENT_WORDS).min(SEGMENT_WORDS) as u64;
            let mut uniform = Uniform::default();
            for slot in &self.slots {
                if let Some(kind) = slot.summarized(seg) {
                    uniform.note(slot.slice, kind);
                }
            }
            if uniform.zeros | uniform.ones == 0 {
                words += plan.unshared_lits * nw;
                continue;
            }
            // The same walk as `eval`, counting instead of
            // computing.
            let (mut lits, mut dead_lows) = (0, 0u32);
            for (i, low) in plan.lows.iter().enumerate() {
                if uniform.dead_depth(low).is_some() {
                    dead_lows |= 1 << i;
                } else {
                    lits += low.len();
                }
            }
            let (mut dead, mut valid) = (usize::MAX, 0usize);
            for step in &plan.steps {
                let shared = step.shared as usize;
                if shared >= dead {
                    continue;
                }
                dead = usize::MAX;
                valid = valid.min(shared);
                if step.low != NO_LOW && dead_lows >> step.low & 1 == 1 {
                    continue;
                }
                if let Some(d) = uniform.dead_depth(step) {
                    dead = d;
                    continue;
                }
                lits += step.len() - valid;
                valid = step.len();
            }
            words += lits as u64 * nw;
        }
        words
    }

    /// Kernel windows the plan's rows span, [`SEGMENT_BITS`] rows each.
    #[must_use]
    pub fn windows(&self) -> usize {
        self.rows.div_ceil(SEGMENT_BITS)
    }

    /// Evaluates the whole plan into a fresh selection bitmap:
    /// [`BoundPlan::eval_windows`] over every window.
    #[must_use]
    pub fn eval(&self, stats: &mut CostCounters) -> BitVec {
        self.eval_windows(0..self.windows(), stats)
    }

    /// Evaluates windows `windows` of the plan into a fresh bitmap of
    /// their rows: bit `j` is row `windows.start * SEGMENT_BITS + j`. The
    /// parts of any split of `0..windows()` are the whole evaluation's
    /// words side by side, and their counters sum to its counters.
    ///
    /// The working rows come from this thread's scratch: taken out for
    /// the call and put back after it, so an evaluation nested in this
    /// one, or one after a panic, starts from an empty scratch rather
    /// than share rows. The scratch grows to the largest plan the thread
    /// has evaluated, at most `(64 + 1 + 27 + 64) × 4 KiB` ≈ 624 KiB
    /// (product stack, accumulator, low parts, slice windows), and is
    /// never zeroed: every row is written before it is read.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is not a range within `0..windows()`.
    #[must_use]
    pub fn eval_windows(&self, windows: Range<usize>, stats: &mut CostCounters) -> BitVec {
        assert!(
            windows.start <= windows.end && windows.end <= self.windows(),
            "windows {windows:?} outside the plan's 0..{}",
            self.windows()
        );
        let first = windows.start * SEGMENT_BITS;
        let rows = (windows.end * SEGMENT_BITS).min(self.rows).max(first) - first;
        let mut out = BitVec::zeros(rows);
        let plan = self.plan;
        if plan.tautology {
            out.words.fill(u64::MAX);
            out.mask_tail();
            return out;
        }
        if plan.steps.is_empty() {
            return out;
        }
        let mut scratch = SCRATCH.take();
        self.eval_into(&mut out.words, windows.start, &mut scratch, stats);
        SCRATCH.set(scratch);
        // Negated literals set garbage bits beyond the last row in the
        // final word; restore the tail invariant.
        out.mask_tail();
        out
    }

    /// ORs the plan's terms into `dst`, the words of the segments from
    /// `first` on, segment by segment, working in `scratch`.
    fn eval_into(
        &self,
        dst: &mut [u64],
        first: usize,
        scratch: &mut Scratch,
        stats: &mut CostCounters,
    ) {
        let path = simd::selected_path();
        let plan = self.plan;

        // Rows `1 ..= depth` are the product stack (row `r` holds a
        // high-part product of `r` literals that a later term resumes
        // from), the next is the accumulator for the rest of a term, the
        // next `lows.len()` hold the low-part products, and after them
        // comes one scratch window per slot for the compressed
        // containers to materialise into.
        let acc_row = plan.depth + 1;
        let low_row = plan.depth + 2;
        let product_rows = plan.depth + 1 + plan.lows.len();
        let need = (product_rows + self.slots.len()) * SEGMENT_WORDS;
        if scratch.rows.len() < need {
            scratch.rows.resize(need, 0);
        }
        let (rows, slot_windows) = scratch.rows[..need].split_at_mut(product_rows * SEGMENT_WORDS);
        let lows = &mut scratch.lows;
        lows.resize(plan.lows.len(), Low::Zero);
        // `levels[d]` is the product of the current term's first `d`
        // high-part literals, kept for as deep as a later term shares.
        let mut levels = [Product::Ones; 65];

        for (i, seg_dst) in dst.chunks_mut(SEGMENT_WORDS).enumerate() {
            let seg = first + i;
            let nw = seg_dst.len();

            // Window-once fetch: classify or materialise every
            // referenced slice's window for this segment.
            let mut uniform = Uniform::default();
            for (slot, window) in self
                .slots
                .iter()
                .zip(slot_windows.chunks_mut(SEGMENT_WORDS))
            {
                let w0 = seg * SEGMENT_WORDS;
                let kind = slot.summarized(seg).unwrap_or_else(|| match slot.src {
                    SliceRef::Dense(_) => WindowKind::Mixed,
                    SliceRef::Roaring(r) => compressed(r.fill_window(w0, &mut window[..nw]), stats),
                });
                uniform.note(slot.slice, kind);
            }
            let mut windows = Windows {
                slots: &self.slots,
                scratch: slot_windows,
                w0: seg * SEGMENT_WORDS,
                nw,
                scanned: 0,
            };

            // Each distinct low part, once for all the terms that end
            // in it.
            for (i, (low, slot)) in plan.lows.iter().zip(lows.iter_mut()).enumerate() {
                if uniform.dead_depth(low).is_some() {
                    *slot = Low::Pruned;
                    continue;
                }
                let identities = uniform.identities(low);
                let mut live = plan.lits[low.first as usize..][..low.len()]
                    .iter()
                    .filter(|l| identities >> l.slice & 1 == 0);
                *slot = Low::Live(match (live.next(), live.next()) {
                    (None, _) => Product::Ones,
                    (Some(&only), None) => Product::Window(only),
                    (Some(&a), Some(&b)) => {
                        let acc = &mut rows[(low_row + i - 1) * SEGMENT_WORDS..][..nw];
                        let (wa, wb) = (windows.read(a), windows.read(b));
                        let mut any = simd::fused_pass2(path, acc, wa, wb, a.negated, b.negated);
                        for &c in live {
                            any = any && simd::and_pass(path, acc, windows.read(c), c.negated);
                        }
                        if !any {
                            *slot = Low::Zero;
                            continue;
                        }
                        Product::Row(low_row + i)
                    }
                });
            }

            // Shortest high-part prefix known to be all-zero, and whether
            // a uniform window (rather than a computed product) said so.
            let (mut dead, mut dead_pruned) = (usize::MAX, false);
            // `levels[..= valid]` hold the current term's prefix products.
            let mut valid = 0usize;
            for step in &plan.steps {
                let shared = step.shared as usize;
                if shared >= dead {
                    if dead_pruned {
                        stats.segments_pruned += 1;
                    } else {
                        stats.segments_short_circuited += 1;
                    }
                    continue;
                }
                dead = usize::MAX;
                valid = valid.min(shared);
                let low = match step.low {
                    NO_LOW => Product::Ones,
                    i => match lows[i as usize] {
                        Low::Pruned => {
                            stats.segments_pruned += 1;
                            continue;
                        }
                        Low::Zero => {
                            stats.segments_short_circuited += 1;
                            continue;
                        }
                        Low::Live(product) => product,
                    },
                };
                if let Some(d) = uniform.dead_depth(step) {
                    (dead, dead_pruned) = (d, true);
                    stats.segments_pruned += 1;
                    continue;
                }
                let identities = uniform.identities(step);
                let (len, keep) = (step.len(), step.keep as usize);
                let lits = &plan.lits[step.first as usize..][..len];
                let mut product = levels[valid];
                for (d, &lit) in lits.iter().enumerate().skip(valid) {
                    if identities >> lit.slice & 1 == 0 {
                        // A level the next term resumes from gets its own
                        // row; the rest of the term folds into the
                        // accumulator in place.
                        let target = if d < keep { d + 1 } else { acc_row };
                        let (below, above) = rows.split_at_mut((target - 1) * SEGMENT_WORDS);
                        let acc = &mut above[..nw];
                        let any = match product {
                            // The product of one literal is its window.
                            Product::Ones => None,
                            Product::Window(first) => {
                                let (a, b) = (windows.read(first), windows.read(lit));
                                Some(simd::fused_pass2(
                                    path,
                                    acc,
                                    a,
                                    b,
                                    first.negated,
                                    lit.negated,
                                ))
                            }
                            Product::Row(r) if r == target => {
                                Some(simd::and_pass(path, acc, windows.read(lit), lit.negated))
                            }
                            Product::Row(r) => {
                                let (prev, src) = (row(below, r, nw), windows.read(lit));
                                Some(simd::fused_pass2(path, acc, prev, src, false, lit.negated))
                            }
                        };
                        product = match any {
                            None => Product::Window(lit),
                            Some(true) => Product::Row(target),
                            Some(false) => {
                                // Every term below this prefix is zero here.
                                (dead, dead_pruned, valid) = (d + 1, false, d.min(keep));
                                break;
                            }
                        };
                    }
                    if d < keep {
                        levels[d + 1] = product;
                    }
                }
                if dead != usize::MAX {
                    stats.segments_short_circuited += 1;
                    continue;
                }
                valid = len.min(keep);

                // dst |= high · low, in one pass.
                let mut operand = |p: Product| match p {
                    Product::Ones => None,
                    Product::Window(lit) => Some((windows.read(lit), lit.negated)),
                    Product::Row(r) => Some((row(rows, r, nw), false)),
                };
                let saturated = match (operand(product), operand(low)) {
                    (None, None) => {
                        seg_dst.fill(u64::MAX);
                        true
                    }
                    (Some((a, false)), None) | (None, Some((a, false))) => {
                        simd::or_into(path, seg_dst, a)
                    }
                    (Some((a, na)), None) | (None, Some((a, na))) => {
                        simd::or_and_into(path, seg_dst, a, a, na, na)
                    }
                    (Some((a, na)), Some((b, nb))) => {
                        simd::or_and_into(path, seg_dst, a, b, na, nb)
                    }
                };
                if saturated {
                    // No later term can add a bit to this segment.
                    break;
                }
            }
            stats.words_scanned += windows.scanned * nw as u64;
            stats.bytes_touched += windows.scanned * 8 * nw as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoragePolicy;
    use crate::summary::summarize_slices;

    /// Lowers terms written as `(slice, negated)` lists.
    fn plan(terms: &[&[(usize, bool)]]) -> DnfPlan {
        DnfPlan::lower(terms.iter().map(|term| {
            term.iter().fold((0u64, 0u64), |(m, v), &(i, neg)| {
                (m | 1 << i, v | u64::from(!neg) << i)
            })
        }))
    }

    fn naive(terms: &[&[(usize, bool)]], slices: &[BitVec], len: usize) -> BitVec {
        let mut out = BitVec::zeros(len);
        for term in terms {
            let mut acc = BitVec::ones(len);
            for &(i, neg) in *term {
                if neg {
                    acc.and_not_assign(&slices[i]);
                } else {
                    acc.and_assign(&slices[i]);
                }
            }
            out.or_assign(&acc);
        }
        out
    }

    fn stripes(len: usize, period: usize, phase: usize) -> BitVec {
        (0..len).map(|i| i % period == phase).collect()
    }

    fn eval(terms: &[&[(usize, bool)]], slices: &[BitVec], stats: &mut CostCounters) -> BitVec {
        plan(terms).bind(slices, None, slices[0].len()).eval(stats)
    }

    #[test]
    fn lowering_splits_sorts_and_records_shared_prefixes() {
        // Seven slices referenced: the low parts live on B2, B1, B0.
        let p = plan(&[
            &[(6, false), (4, true), (3, false), (1, false)],
            &[(6, false), (5, false), (4, true), (1, false)],
            &[(0, false)],
            &[(1, false), (4, true), (5, false), (6, false)],
            &[(6, false), (5, true), (2, true), (0, false)],
        ]);
        assert_eq!(p.slots, vec![6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(p.steps.len(), 4, "the duplicate term is evaluated once");
        // High parts, sorted: (none) < B6B5' < B6B5B4' < B6B4'B3.
        let shared: Vec<u8> = p.steps.iter().map(|s| s.shared).collect();
        assert_eq!(shared, vec![0, 0, 1, 1]);
        let keep: Vec<u8> = p.steps.iter().map(|s| s.keep).collect();
        assert_eq!(keep, vec![0, 1, 1, 0], "what the step after shares");
        assert_eq!(p.depth, 3);
        // Distinct low parts: B0, B1, B2'B0 — B1 serves two terms.
        let lows: Vec<(u64, u64)> = p.lows.iter().map(|l| (l.mask, l.value)).collect();
        assert_eq!(lows, vec![(0b001, 0b001), (0b010, 0b010), (0b101, 0b001)]);
        let low_of: Vec<u8> = p.steps.iter().map(|s| s.low).collect();
        assert_eq!(low_of, vec![0, 2, 1, 1]);
        assert_eq!(p.unshared_literals(), (1 + 1 + 2) + (2 + 2 + 2));
        assert!(!p.tautology);
        assert!(plan(&[&[(1, false)], &[]]).tautology);
        // A term without low-part literals names none.
        let p = plan(&[
            &[(4, false)],
            &[(3, false), (2, false), (1, false), (0, true)],
        ]);
        assert_eq!((p.steps[0].low, p.steps[1].low), (NO_LOW, 0));
    }

    #[test]
    fn single_term_matches_naive_chain() {
        let len = SEGMENT_BITS * 2 + 777;
        let slices = [stripes(len, 3, 0), stripes(len, 5, 1), stripes(len, 7, 2)];
        let terms: &[&[(usize, bool)]] = &[&[(0, false), (1, true), (2, false)]];
        let mut stats = CostCounters::default();
        assert_eq!(eval(terms, &slices, &mut stats), naive(terms, &slices, len));
        assert!(stats.words_scanned > 0);
    }

    #[test]
    fn multi_term_or_accumulation_saturates() {
        let len = SEGMENT_BITS + 100;
        let slices = [stripes(len, 2, 0), stripes(len, 2, 1)];
        let mut stats = CostCounters::default();
        let r = eval(&[&[(0, false)], &[(1, false)]], &slices, &mut stats);
        assert_eq!(r, BitVec::ones(len));
    }

    #[test]
    fn tautology_term_fills_ones_and_masks_tail() {
        let slices = [BitVec::zeros(100)];
        let mut stats = CostCounters::default();
        let r = eval(&[&[(0, false)], &[]], &slices, &mut stats);
        assert_eq!(r, BitVec::ones(100));
        assert_eq!(stats.words_scanned, 0);
    }

    #[test]
    fn negated_tail_garbage_is_masked() {
        let len = 70;
        let slices = [BitVec::zeros(len)];
        let mut stats = CostCounters::default();
        let r = eval(&[&[(0, true)]], &slices, &mut stats);
        assert_eq!(r, BitVec::ones(len));
        assert_eq!(r.count_ones(), len);
    }

    /// B6B5B4·B2 + B6B5B3·B1B0 over seven striped slices.
    const TWO_TERMS: &[&[(usize, bool)]] = &[
        &[(6, false), (5, false), (4, false), (2, false)],
        &[(6, false), (5, false), (3, false), (1, false), (0, false)],
    ];

    #[test]
    fn shared_prefixes_and_low_parts_are_read_once() {
        let len = SEGMENT_BITS;
        let slices: Vec<BitVec> = [2, 3, 5, 7, 11, 13, 17]
            .iter()
            .map(|&p| stripes(len, p, 0))
            .collect();
        let mut stats = CostCounters::default();
        assert_eq!(
            eval(TWO_TERMS, &slices, &mut stats),
            naive(TWO_TERMS, &slices, len)
        );
        // Low parts: B2 is a window, B1B0 one pass over two. High
        // parts: one pass over B6 and B5 for both terms, then B4 and B3
        // once each. The first term's low window is read as it is ANDed
        // into the destination; the second's is a product row.
        assert_eq!(
            stats.words_scanned,
            (2 + 2 + 1 + 1 + 1) * SEGMENT_WORDS as u64
        );
        assert_eq!(stats.bytes_touched, 8 * stats.words_scanned);
    }

    #[test]
    fn zero_product_skips_every_term_below_the_prefix() {
        let len = SEGMENT_BITS;
        let mut slices: Vec<BitVec> = [2, 3, 5, 7, 11, 13, 17]
            .iter()
            .map(|&p| stripes(len, p, 0))
            .collect();
        // B6·B5 is empty (even rows AND odd rows): both terms die with
        // it, and neither B4 nor B3 nor the low window B2 is read.
        slices[6] = stripes(len, 2, 0);
        slices[5] = stripes(len, 2, 1);
        let mut stats = CostCounters::default();
        let r = eval(TWO_TERMS, &slices, &mut stats);
        assert_eq!(r.count_ones(), 0);
        assert_eq!(stats.segments_short_circuited, 2);
        assert_eq!(stats.words_scanned, (2 + 2) * SEGMENT_WORDS as u64);
    }

    #[test]
    fn summary_pruning_skips_zero_segments_without_reads() {
        // Slice 0 has ones only in segment 1 of 3.
        let len = SEGMENT_BITS * 3;
        let mut a = BitVec::zeros(len);
        for i in SEGMENT_BITS..SEGMENT_BITS + 50 {
            a.set(i, true);
        }
        let slices = [a.clone(), stripes(len, 2, 0)];
        let summaries = summarize_slices(&slices);
        let p = plan(&[&[(0, false), (1, false)]]);
        let mut stats = CostCounters::default();
        let r = p.bind(&slices, Some(&summaries), len).eval(&mut stats);
        let mut expect = a;
        expect.and_assign(&slices[1]);
        assert_eq!(r, expect);
        assert_eq!(stats.segments_pruned, 2, "segments 0 and 2 pruned");
        // Only segment 1's words were read: one window × 2 literals.
        assert_eq!(stats.words_scanned, 2 * SEGMENT_WORDS as u64);
    }

    #[test]
    fn negated_full_segment_prunes_and_full_positive_is_an_identity() {
        let len = SEGMENT_BITS * 2;
        let slices = [BitVec::ones(len), stripes(len, 2, 0)];
        let summaries = summarize_slices(&slices);
        let mut stats = CostCounters::default();
        let r = plan(&[&[(0, true), (1, false)]])
            .bind(&slices, Some(&summaries), len)
            .eval(&mut stats);
        assert_eq!(r.count_ones(), 0);
        assert_eq!(stats.segments_pruned, 2);
        assert_eq!(stats.words_scanned, 0);

        // Positive over an all-ones segment drops out of the product:
        // only the other literal is read.
        let mut stats = CostCounters::default();
        let r = plan(&[&[(0, false), (1, false)]])
            .bind(&slices, Some(&summaries), len)
            .eval(&mut stats);
        assert_eq!(r, slices[1]);
        assert_eq!(stats.words_scanned, 2 * SEGMENT_WORDS as u64);
    }

    #[test]
    fn a_pruned_term_does_not_strand_its_siblings() {
        // B2B1B0' sorts first and is pruned by B0's summary before
        // B2B1 is ever computed: the terms after it that share B2B1 or
        // B2 must compute those products themselves.
        let len = SEGMENT_BITS;
        let slices = [BitVec::ones(len), stripes(len, 3, 1), stripes(len, 2, 0)];
        let summaries = summarize_slices(&slices);
        let terms: &[&[(usize, bool)]] = &[
            &[(2, false), (1, false), (0, true)],
            &[(2, false), (1, false), (0, false)],
            &[(2, false), (1, true)],
        ];
        let mut stats = CostCounters::default();
        let r = plan(terms)
            .bind(&slices, Some(&summaries), len)
            .eval(&mut stats);
        assert_eq!(r, naive(terms, &slices, len));
        assert_eq!(stats.segments_pruned, 1);
    }

    #[test]
    #[should_panic(expected = "slice length")]
    fn short_slice_panics() {
        let slices = [BitVec::zeros(64)];
        let _ = plan(&[&[(0, false)]]).bind(&slices, None, SEGMENT_BITS);
    }

    #[test]
    #[should_panic(expected = "beyond the 1 provided")]
    fn missing_slice_panics() {
        let slices = [BitVec::zeros(64)];
        let _ = plan(&[&[(1, false)]]).bind(&slices, None, 64);
    }

    #[test]
    fn a_forced_scalar_tier_runs_and_matches_the_detected_one() {
        use crate::simd::KernelPath;
        let slices = [stripes(SEGMENT_BITS, 2, 0), stripes(SEGMENT_BITS, 3, 1)];
        let terms: &[&[(usize, bool)]] = &[&[(0, false), (1, true)]];
        let mut stats = CostCounters::default();
        let scalar = simd::with_forced_path(KernelPath::Scalar, || {
            assert_eq!(simd::selected_path(), KernelPath::Scalar);
            eval(terms, &slices, &mut stats)
        });
        assert_eq!(scalar, eval(terms, &slices, &mut stats));
    }

    #[test]
    fn work_estimate_counts_unshared_literals_net_of_pruning() {
        let len = SEGMENT_BITS * 4;
        let mut a = BitVec::zeros(len);
        a.set(SEGMENT_BITS + 1, true);
        let slices = [a, BitVec::ones(len), stripes(len, 2, 0), stripes(len, 3, 0)];
        let summaries = summarize_slices(&slices[..2]);

        // No summaries: 2 literals × 4 segments' words.
        let p = plan(&[&[(0, false), (1, false)]]);
        assert_eq!(
            p.bind(&slices[..2], None, len).estimated_work_words(),
            2 * 4 * SEGMENT_WORDS as u64
        );
        // Summary on slice 0: only segment 1 is live.
        assert_eq!(
            p.bind(&slices[..2], Some(&summaries), len)
                .estimated_work_words(),
            2 * SEGMENT_WORDS as u64
        );
        // A shared prefix is counted once: B3·B2B1 + B3·B0 is 4 literals.
        let shared = plan(&[
            &[(3, false), (2, false), (1, false)],
            &[(3, false), (0, false)],
        ]);
        assert_eq!(
            shared.bind(&slices, None, len).estimated_work_words(),
            4 * 4 * SEGMENT_WORDS as u64
        );
        // Tautologies cost nothing.
        assert_eq!(
            plan(&[&[]]).bind(&slices, None, len).estimated_work_words(),
            0
        );
    }

    #[test]
    fn work_estimate_charges_the_last_window_its_words() {
        // 25 000 rows are 391 words: less than one window.
        let len = 25_000;
        let slices: Vec<BitVec> = (0..4).map(|i| stripes(len, i + 2, 0)).collect();
        let shared = plan(&[
            &[(3, false), (2, false), (1, false)],
            &[(3, false), (0, false)],
        ]);
        assert_eq!(
            shared.bind(&slices, None, len).estimated_work_words(),
            shared.unshared_literals() * 391
        );
        // With summaries, the same words per live literal.
        let summaries = summarize_slices(&slices);
        assert_eq!(
            shared
                .bind(&slices, Some(&summaries), len)
                .estimated_work_words(),
            shared.unshared_literals() * 391
        );
        // Over a window and a part: each is charged the words it has.
        let len = SEGMENT_BITS + 25_000;
        let slices: Vec<BitVec> = (0..4).map(|i| stripes(len, i + 2, 0)).collect();
        assert_eq!(
            shared.bind(&slices, None, len).estimated_work_words(),
            shared.unshared_literals() * (SEGMENT_WORDS as u64 + 391)
        );
    }

    fn storages_for(bits: &BitVec) -> Vec<SliceStorage> {
        vec![
            SliceStorage::from_dense(bits.clone(), StoragePolicy::Dense),
            SliceStorage::from_dense(bits.clone(), StoragePolicy::Roaring),
        ]
    }

    #[test]
    fn every_container_mix_matches_dense() {
        // Three windows, the last ragged and in the second Roaring chunk.
        let len = SEGMENT_BITS * 2 + 300;
        let dense = [
            stripes(len, 3, 0),
            (0..len)
                .map(|i| (SEGMENT_BITS * 5 / 8..SEGMENT_BITS * 3 / 2).contains(&i))
                .collect(),
            BitVec::from_positions(len, &[5, SEGMENT_BITS + 808, len - 1]),
        ];
        let terms: &[&[(usize, bool)]] = &[
            &[(0, false), (1, true)],
            &[(2, false)],
            &[(1, false), (0, true)],
        ];
        let p = plan(terms);
        let expected = naive(terms, &dense, len);
        for sa in storages_for(&dense[0]) {
            for sb in storages_for(&dense[1]) {
                for sc in storages_for(&dense[2]) {
                    let kinds = (sa.kind(), sb.kind(), sc.kind());
                    let family = [sa.clone(), sb.clone(), sc];
                    let mut stats = CostCounters::default();
                    let got = p.bind(&family, None, len).eval(&mut stats);
                    assert_eq!(got, expected, "mix {kinds:?}");
                }
            }
        }
    }

    #[test]
    fn uniform_compressed_windows_are_classified_once_and_never_read() {
        // A very sparse slice: almost every window classifies as Zeros
        // and kills the term without materialisation.
        let len = SEGMENT_BITS * 8;
        let family = [
            SliceStorage::from_dense(stripes(len, 2, 0), StoragePolicy::Dense),
            SliceStorage::from_dense(BitVec::from_positions(len, &[17]), StoragePolicy::Roaring),
        ];
        let mut stats = CostCounters::default();
        // Slice 1 appears in both terms; its windows are still fetched
        // once per segment.
        let got = plan(&[&[(1, false), (0, false)], &[(1, false), (0, true)]])
            .bind(&family, None, len)
            .eval(&mut stats);
        assert_eq!(got.to_positions(), vec![17]);
        assert_eq!(stats.compressed_chunks_skipped, 7, "all but one window");
        assert_eq!(stats.segments_pruned, 2 * 7);
        // Only the one mixed window's dense partner was ever scanned.
        assert_eq!(stats.words_scanned, 2 * SEGMENT_WORDS as u64);
    }

    #[test]
    fn all_identity_term_is_all_ones() {
        let len = SEGMENT_BITS * 2;
        let family = [SliceStorage::from_dense(
            BitVec::ones(len),
            StoragePolicy::Roaring,
        )];
        let mut stats = CostCounters::default();
        let got = plan(&[&[(0, false)]])
            .bind(&family, None, len)
            .eval(&mut stats);
        assert_eq!(got, BitVec::ones(len));
        assert_eq!(stats.words_scanned, 0, "no dense words read");
        assert_eq!(stats.compressed_chunks_skipped, 2);
    }

    #[test]
    fn summaries_spare_compressed_slices_the_window_fetch() {
        let len = SEGMENT_BITS * 3;
        let mut a = BitVec::zeros(len);
        for i in SEGMENT_BITS..SEGMENT_BITS + 50 {
            a.set(i, true);
        }
        let summaries = summarize_slices(std::slice::from_ref(&a));
        let family = [SliceStorage::from_dense(a.clone(), StoragePolicy::Roaring)];
        let mut stats = CostCounters::default();
        let got = plan(&[&[(0, false)]])
            .bind(&family, Some(&summaries), len)
            .eval(&mut stats);
        assert_eq!(got, a);
        assert_eq!(stats.segments_pruned, 2);
        assert_eq!(stats.compressed_chunks_skipped, 0, "summary answered first");
    }
}
