//! Parallel index construction and segment-parallel query evaluation.
//!
//! **Construction**: building an encoded bitmap index is a single column
//! scan writing `k` bit streams — embarrassingly parallel across row
//! ranges. The builder splits the column into word-aligned chunks,
//! encodes each chunk's slice family on its own thread (crossbeam scoped
//! threads), and stitches the chunks with
//! [`ebi_bitvec::BitVec::extend_bits`]'s aligned fast path. The mapping
//! is fixed up front (one cheap serial distinct-scan), so the result is
//! **bit-identical** to the serial build.
//!
//! **Evaluation** ([`eval_plan`]): a [`BoundPlan`] reads its slices
//! immutably and writes each destination word exactly once, so the
//! selection bitmap can be split into segment-aligned word ranges and
//! filled concurrently — same bit-identical guarantee as construction.
//! Ranges are **work stolen**, not fixed: the destination is pre-split
//! into many small segment-aligned units, each worker is dealt a
//! contiguous run of them, and a worker that drains its run (because
//! summary pruning or short-circuiting made its units trivial) steals
//! the back half of the largest remaining run instead of idling. This
//! is what fixes the clustered-delta cliff where a fixed splitter left
//! one thread with all the live segments.
//!
//! [`eval_plan`] falls back to the serial path when one thread is
//! asked for, when the input is too small to amortise thread spawns,
//! when the host exposes a single core, or when the plan's
//! *post-pruning work estimate* ([`BoundPlan::estimated_work_words`])
//! says the surviving kernel traffic is too small to split profitably,
//! however many rows the bitmap spans. The checks run cheapest first,
//! so a serial evaluation pays for none of the others.
//! [`eval_plan_forced`] bypasses the heuristic for tests and
//! benchmarks.

use crate::error::CoreError;
use crate::index::{BuildOptions, EncodedBitmapIndex};
use crate::mapping::Mapping;
use crate::nulls::NullPolicy;
use ebi_bitvec::builder::SliceFamilyBuilder;
use ebi_bitvec::summary::summarize_slices;
use ebi_bitvec::{BitVec, BoundPlan, KernelStats, SEGMENT_WORDS, WORD_BITS};
use ebi_storage::Cell;

/// Minimum rows per chunk; chunks are rounded to multiples of 64 so the
/// stitch uses the aligned word-copy path.
const MIN_CHUNK: usize = 4_096;

/// Minimum words per evaluation chunk (4 segments): below this,
/// spawn overhead exceeds the scan cost and the serial path wins.
const MIN_EVAL_WORDS: usize = 4 * SEGMENT_WORDS;

/// Rows below which multi-threaded evaluation is not worth the spawn
/// and cache-line handoff cost even with idle cores: the eval_kernels
/// benchmark shows the parallel engine at 0.86× serial for 1M rows.
const AUTO_PARALLEL_MIN_ROWS: usize = 2_000_000;

/// Minimum *post-pruning* kernel traffic (in words) worth splitting at
/// all: the word-count equivalent of [`AUTO_PARALLEL_MIN_ROWS`] for a
/// single-literal plan. A heavily pruned plan over many rows can fall
/// below this even though its row count clears the row threshold — the
/// clustered delta=512 workload is exactly that shape, and splitting it
/// used to cost 2× (1.44× vs 2.75× speedup in BENCH_eval.json).
pub const MIN_PARALLEL_WORK_WORDS: u64 = (AUTO_PARALLEL_MIN_ROWS / WORD_BITS) as u64;

/// Minimum estimated work per worker; requested threads beyond
/// `estimate / this` are dropped so every spawned worker has enough
/// kernel traffic to amortise its own spawn.
const MIN_WORK_WORDS_PER_THREAD: u64 = MIN_PARALLEL_WORK_WORDS / 2;

/// Work-stealing granularity: units dealt per worker. More units mean
/// finer rebalancing when pruning makes work uneven, at the cost of
/// slightly more claim traffic (one mutex lock per unit).
const UNITS_PER_THREAD: usize = 8;

/// A claimable evaluation unit: a destination sub-slice plus its word
/// offset. Claiming takes the payload out of the slot, so each unit is
/// executed exactly once.
type EvalUnit<'a> = std::sync::Mutex<Option<(&'a mut [u64], usize)>>;

/// Cores the host exposes, read once per process: the query is a
/// `sched_getaffinity` call plus cgroup file reads, far too slow for a
/// per-evaluation path.
#[must_use]
pub fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// Caps requested evaluation threads by the auto-serial heuristic: a
/// single requested thread, inputs under [`AUTO_PARALLEL_MIN_ROWS`]
/// rows, a host exposing a single core, or a post-pruning work estimate
/// too small to split evaluate serially regardless of the request.
/// `est_work_words` is only called once the cheaper checks pass.
fn effective_threads(requested: usize, rows: usize, est_work_words: impl FnOnce() -> u64) -> usize {
    if requested <= 1 || rows < AUTO_PARALLEL_MIN_ROWS || host_cores() <= 1 {
        return 1;
    }
    split_threads(requested, est_work_words())
}

/// Threads worth spawning for `est_work_words` of kernel traffic: none
/// beyond the first below [`MIN_PARALLEL_WORK_WORDS`], and never so
/// many that a worker gets less than [`MIN_WORK_WORDS_PER_THREAD`].
fn split_threads(requested: usize, est_work_words: u64) -> usize {
    if est_work_words < MIN_PARALLEL_WORK_WORDS {
        return 1;
    }
    requested.min(usize::try_from(est_work_words / MIN_WORK_WORDS_PER_THREAD).unwrap_or(1))
}

/// Steals the back half of the largest remaining unit range, shrinking
/// the victim's queue. Returns `None` when no queue has at least two
/// units left (a single remaining unit is cheaper to let its owner run
/// than to migrate).
fn steal_half(queues: &[std::sync::Mutex<(usize, usize)>], thief: usize) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None; // (victim, remaining)
    for (v, q) in queues.iter().enumerate() {
        if v == thief {
            continue;
        }
        let (lo, hi) = *q.lock().expect("queue lock");
        let rem = hi.saturating_sub(lo);
        if rem >= 2 && best.is_none_or(|(_, r)| rem > r) {
            best = Some((v, rem));
        }
    }
    let (victim, _) = best?;
    let mut q = queues[victim].lock().expect("queue lock");
    let (lo, hi) = *q;
    let rem = hi.saturating_sub(lo);
    // The victim may have drained (or been robbed) since the scan.
    if rem < 2 {
        return None;
    }
    let mid = lo + rem / 2;
    q.1 = mid;
    Some((mid, hi))
}

/// Evaluates `plan` into a fresh selection bitmap with exactly
/// `threads` work-stealing workers (no auto-serial heuristic) — the
/// engine under [`eval_plan`], public for tests and benchmarks that must
/// exercise the split path regardless of host core count.
///
/// The destination is split into small segment-aligned units. Each
/// worker is dealt a contiguous run of units (preserving the cache
/// friendliness of a fixed splitter when work is uniform); a worker
/// whose run drains steals the back half of the largest remaining run,
/// so pruned or short-circuited regions cannot strand the live segments
/// on one thread.
///
/// # Panics
///
/// Panics if `threads == 0`.
#[must_use]
pub fn eval_plan_forced(plan: &BoundPlan<'_>, threads: usize, stats: &mut KernelStats) -> BitVec {
    use std::sync::Mutex;
    assert!(threads > 0, "at least one evaluation thread");
    let rows = plan.row_count();
    let total_words = rows.div_ceil(WORD_BITS);
    let mut dst = BitVec::zeros(rows);
    if threads == 1 || total_words < 2 * MIN_EVAL_WORDS {
        plan.eval_range(dst.words_mut(), 0, stats);
        return dst;
    }

    let unit_words = total_words
        .div_ceil(threads * UNITS_PER_THREAD)
        .max(MIN_EVAL_WORDS)
        .next_multiple_of(SEGMENT_WORDS);
    // Pre-split the destination into claimable units. Each unit is
    // executed exactly once: claiming takes it out of its slot.
    let units: Vec<EvalUnit<'_>> = dst
        .words_mut()
        .chunks_mut(unit_words)
        .enumerate()
        .map(|(i, chunk)| Mutex::new(Some((chunk, i * unit_words))))
        .collect();
    let workers = threads.min(units.len());
    // Deal each worker a contiguous range of unit indices.
    let queues: Vec<Mutex<(usize, usize)>> = (0..workers)
        .map(|w| Mutex::new((w * units.len() / workers, (w + 1) * units.len() / workers)))
        .collect();

    let mut worker_stats: Vec<KernelStats> = vec![KernelStats::new(); workers];
    // Workers run on their own threads, so the thread-local span stack
    // does not reach them: capture the calling phase's handle explicitly
    // and attach each worker's span to it (None when not profiling).
    let parent = ebi_obs::current_handle();
    crossbeam::thread::scope(|scope| {
        for (w, slot) in worker_stats.iter_mut().enumerate() {
            let (units, queues, parent) = (&units, &queues, &parent);
            scope.spawn(move |_| {
                let mut span = match parent {
                    Some(h) => h.child("eval.worker"),
                    None => ebi_obs::Span::none(),
                };
                let (mut executed, mut stolen) = (0u64, 0u64);
                loop {
                    let next = {
                        let mut q = queues[w].lock().expect("queue lock");
                        if q.0 < q.1 {
                            let i = q.0;
                            q.0 += 1;
                            Some(i)
                        } else {
                            None
                        }
                    };
                    let idx = match next {
                        Some(i) => i,
                        None => match steal_half(queues, w) {
                            Some(range) => {
                                stolen += (range.1 - range.0) as u64;
                                *queues[w].lock().expect("queue lock") = range;
                                continue;
                            }
                            None => break,
                        },
                    };
                    // Bind the popped unit first: an `if let` scrutinee
                    // temporary would hold the unit lock for the whole
                    // body (ebi-lint: guard-scrutinee).
                    let unit = units[idx].lock().expect("unit lock").take();
                    if let Some((chunk, off)) = unit {
                        plan.eval_range(chunk, off, slot);
                        executed += 1;
                    }
                }
                if span.is_live() {
                    if let Some(h) = parent {
                        span.attr("trace", h.trace());
                    }
                    span.attr("worker", w as u64);
                    span.attr("units_executed", executed);
                    span.attr("units_stolen", stolen);
                    span.attr("words_scanned", slot.words_scanned);
                }
            });
        }
    })
    .expect("evaluation worker panicked");
    for s in &worker_stats {
        stats.merge(s);
    }
    dst
}

/// Evaluates `plan` into a fresh selection bitmap using up to `threads`
/// workers over disjoint segment-aligned word ranges, with the
/// auto-serial heuristic applied (small inputs and single-core hosts
/// evaluate serially whatever `threads` says).
///
/// The result is bit-identical either way, and `stats` accumulates the
/// work counters of every worker.
///
/// # Panics
///
/// Panics if `threads == 0`.
#[must_use]
pub fn eval_plan(plan: &BoundPlan<'_>, threads: usize, stats: &mut KernelStats) -> BitVec {
    assert!(threads > 0, "at least one evaluation thread");
    let threads = effective_threads(threads, plan.row_count(), || plan.estimated_work_words());
    eval_plan_forced(plan, threads, stats)
}

/// Builds an encoded bitmap index in parallel over `threads` workers.
///
/// Produces exactly the same index as
/// [`EncodedBitmapIndex::build_with`]: codes are assigned in first-seen
/// order by a serial pre-scan, then the slice families are built
/// chunk-wise in parallel.
///
/// # Errors
///
/// Same failure modes as the serial build.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn build_parallel(
    cells: &[Cell],
    options: BuildOptions,
    threads: usize,
) -> Result<EncodedBitmapIndex, CoreError> {
    assert!(threads > 0, "at least one thread");
    // Small inputs: the serial path is faster than spawning. Reordered
    // builds also go serial — the permutation decides every row's
    // destination, so chunk-local encoding would shuffle across chunk
    // boundaries anyway.
    if threads == 1
        || cells.len() < MIN_CHUNK * 2
        || options.row_order != crate::reorder::RowOrder::Original
        || options.permutation.is_some()
        || crate::reorder::RowOrder::from_env().is_some()
    {
        return EncodedBitmapIndex::build_with(cells.iter().copied(), options);
    }

    // Serial pre-scan fixes the mapping (and NULL policy bookkeeping) so
    // chunks can encode independently. Reuse the serial builder on an
    // empty column to resolve mapping/reserved/null-code exactly as the
    // serial build would, then extend it with the real distinct values.
    let has_nulls = cells.iter().any(Cell::is_null);
    let first_seen: Vec<u64> = {
        let mut seen = std::collections::HashSet::new();
        cells
            .iter()
            .filter_map(Cell::value)
            .filter(|v| seen.insert(*v))
            .collect()
    };
    let (mapping, reserved, null_code) = resolve_layout(&options, &first_seen, has_nulls)?;

    // Encode chunk-local slice families in parallel.
    let chunk_rows = cells
        .len()
        .div_ceil(threads)
        .max(MIN_CHUNK)
        .next_multiple_of(64);
    let chunks: Vec<&[Cell]> = cells.chunks(chunk_rows).collect();
    let width = mapping.width() as usize;

    let encode_chunk = |chunk: &[Cell]| -> (Vec<BitVec>, Option<BitVec>) {
        let mut fam = SliceFamilyBuilder::new(width);
        let mut b_null: Option<BitVec> = None;
        for (row, cell) in chunk.iter().enumerate() {
            match cell {
                Cell::Value(v) => {
                    fam.push_code(mapping.code_of(*v).expect("pre-scan covered all values"));
                }
                Cell::Null => match options.policy {
                    NullPolicy::SeparateVectors => {
                        fam.push_code(0);
                        let bn = b_null.get_or_insert_with(|| BitVec::zeros(chunk.len()));
                        bn.set(row, true);
                    }
                    NullPolicy::EncodedReserved => {
                        fam.push_code(null_code.expect("null code reserved in pre-scan"));
                    }
                },
            }
        }
        (fam.finish(), b_null)
    };

    let mut results: Vec<Option<(Vec<BitVec>, Option<BitVec>)>> = Vec::new();
    results.resize_with(chunks.len(), || None);
    crossbeam::thread::scope(|scope| {
        for (slot, chunk) in results.iter_mut().zip(&chunks) {
            scope.spawn(move |_| {
                *slot = Some(encode_chunk(chunk));
            });
        }
    })
    .expect("worker thread panicked");

    // Stitch chunks in order (all but the last are 64-aligned).
    let mut slices: Vec<BitVec> = vec![BitVec::with_capacity(cells.len()); width];
    let mut b_null: Option<BitVec> = None;
    let mut stitched_rows = 0usize;
    for (chunk, result) in chunks.iter().zip(results) {
        let (chunk_slices, chunk_null) = result.expect("every chunk encoded");
        for (dst, src) in slices.iter_mut().zip(&chunk_slices) {
            dst.extend_bits(src);
        }
        match chunk_null {
            Some(cn) => {
                let bn = b_null.get_or_insert_with(|| BitVec::zeros(stitched_rows));
                bn.grow(stitched_rows);
                bn.extend_bits(&cn);
            }
            None => {
                if let Some(bn) = &mut b_null {
                    bn.grow(stitched_rows + chunk.len());
                }
            }
        }
        stitched_rows += chunk.len();
    }
    if let Some(bn) = &mut b_null {
        bn.grow(cells.len());
    }

    let summaries = Some(summarize_slices(&slices));
    let policy = crate::index::QueryOptions::default().storage_policy;
    let slices: Vec<ebi_bitvec::SliceStorage> = slices
        .into_iter()
        .map(|b| ebi_bitvec::SliceStorage::from_dense(b, policy))
        .collect();
    let run_stats = crate::index::aggregate_run_stats(&slices);
    Ok(EncodedBitmapIndex {
        mapping,
        slices,
        rows: cells.len(),
        policy: options.policy,
        reserved,
        null_code,
        b_not_exist: None,
        b_null,
        expr_cache: std::collections::HashMap::new(),
        dont_cares: std::sync::OnceLock::new(),
        summaries,
        query_options: crate::index::QueryOptions::default(),
        permutation: None,
        row_order: crate::reorder::RowOrder::Original,
        run_stats,
    })
}

/// Resolves the mapping / reserved codes / NULL code exactly as the
/// serial `build_with` would.
fn resolve_layout(
    options: &BuildOptions,
    first_seen: &[u64],
    has_nulls: bool,
) -> Result<(Mapping, Vec<u64>, Option<u64>), CoreError> {
    // Delegate to the serial builder on a synthetic column that exhibits
    // the same distinct values (in the same order) and NULL presence.
    let synthetic: Vec<Cell> = first_seen
        .iter()
        .map(|&v| Cell::Value(v))
        .chain(has_nulls.then_some(Cell::Null))
        .collect();
    let probe = EncodedBitmapIndex::build_with(
        synthetic,
        BuildOptions {
            policy: options.policy,
            mapping: options.mapping.clone(),
            ..Default::default()
        },
    )?;
    Ok((
        probe.mapping().clone(),
        probe.reserved.clone(),
        probe.null_code,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(rows: usize, m: u64, with_nulls: bool) -> Vec<Cell> {
        (0..rows as u64)
            .map(|i| {
                if with_nulls && i % 97 == 0 {
                    Cell::Null
                } else {
                    Cell::Value((i * 31) % m)
                }
            })
            .collect()
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        for (rows, with_nulls) in [(20_000usize, false), (20_000, true), (100, false)] {
            let cells = column(rows, 50, with_nulls);
            let serial = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
            let parallel = build_parallel(&cells, BuildOptions::default(), 4).unwrap();
            assert_eq!(parallel.mapping(), serial.mapping());
            assert_eq!(parallel.slices(), serial.slices(), "rows={rows}");
            assert_eq!(parallel.rows(), serial.rows());
            for v in 0..50u64 {
                assert_eq!(parallel.eq(v).unwrap().bitmap, serial.eq(v).unwrap().bitmap);
            }
            assert_eq!(parallel.is_null().bitmap, serial.is_null().bitmap);
        }
    }

    #[test]
    fn parallel_reserved_policy_matches_serial() {
        let cells = column(15_000, 20, true);
        let options = BuildOptions {
            policy: NullPolicy::EncodedReserved,
            mapping: None,
            ..Default::default()
        };
        let serial =
            EncodedBitmapIndex::build_with(cells.iter().copied(), options.clone()).unwrap();
        let parallel = build_parallel(&cells, options, 3).unwrap();
        assert_eq!(parallel.slices(), serial.slices());
        assert_eq!(parallel.is_null().bitmap, serial.is_null().bitmap);
        assert_eq!(parallel.null_code, serial.null_code);
    }

    #[test]
    fn custom_mappings_flow_through() {
        let cells = column(12_000, 8, false);
        let custom = Mapping::from_pairs(&[
            (0, 7),
            (1, 6),
            (2, 5),
            (3, 4),
            (4, 3),
            (5, 2),
            (6, 1),
            (7, 0),
        ])
        .unwrap();
        let options = BuildOptions {
            policy: NullPolicy::SeparateVectors,
            mapping: Some(custom),
            ..Default::default()
        };
        let parallel = build_parallel(&cells, options, 4).unwrap();
        assert_eq!(parallel.mapping().code_of(0), Some(7));
        let serial = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        for v in 0..8u64 {
            assert_eq!(parallel.eq(v).unwrap().bitmap, serial.eq(v).unwrap().bitmap);
        }
    }

    #[test]
    fn small_inputs_take_the_serial_path() {
        let cells = column(100, 5, true);
        let idx = build_parallel(&cells, BuildOptions::default(), 8).unwrap();
        assert_eq!(idx.rows(), 100);
    }

    #[test]
    fn uneven_chunk_boundaries() {
        // Rows not a multiple of chunk size or 64.
        let cells = column(20_001, 13, true);
        let serial = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        let parallel = build_parallel(&cells, BuildOptions::default(), 5).unwrap();
        assert_eq!(parallel.slices(), serial.slices());
        assert_eq!(parallel.is_null().bitmap, serial.is_null().bitmap);
    }

    #[test]
    fn parallel_eval_is_bit_identical_to_serial() {
        use ebi_boolean::DnfExpr;
        // Rows deliberately not segment- or word-aligned.
        let cells = column(100_001, 32, false);
        let idx = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        let expr = DnfExpr::parse("B4'B2B0 + B3B1' + B4B3B2'", 5).unwrap();
        let dense: Vec<BitVec> = idx.slices().iter().map(|s| s.to_dense()).collect();
        let summaries = summarize_slices(&dense);
        let lowered = expr.lower();
        let plan = lowered.bind(&dense, Some(&summaries), idx.rows());
        let mut serial_stats = KernelStats::new();
        let serial = eval_plan_forced(&plan, 1, &mut serial_stats);
        for threads in [2, 3, 8] {
            let mut stats = KernelStats::new();
            let parallel = eval_plan_forced(&plan, threads, &mut stats);
            assert_eq!(parallel, serial, "threads={threads}");
            assert_eq!(
                stats.words_scanned, serial_stats.words_scanned,
                "splitting must not change work, threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_eval_matches_serial_across_containers() {
        use ebi_boolean::DnfExpr;
        // Skewed column over enough rows that the adaptive policy
        // compresses some slices.
        let cells: Vec<Cell> = (0..200_000u64)
            .map(|i| Cell::Value(if i % 16 == 0 { (i / 16) % 32 } else { 0 }))
            .collect();
        let idx = EncodedBitmapIndex::build(cells).unwrap();
        assert!(
            idx.slices()
                .iter()
                .any(|s| s.kind() != ebi_bitvec::StorageKind::Dense),
            "adaptive policy should compress skewed slices"
        );
        let lowered = DnfExpr::parse("B4'B2B0 + B3B1'", 5).unwrap().lower();
        let plan = lowered.bind(idx.slices(), idx.summaries(), idx.rows());
        let mut s1 = KernelStats::new();
        let serial = eval_plan_forced(&plan, 1, &mut s1);
        for threads in [2, 4] {
            let mut s = KernelStats::new();
            let parallel = eval_plan_forced(&plan, threads, &mut s);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn effective_threads_checks_the_cheap_conditions_first() {
        let never = || -> u64 { panic!("estimate computed for a serial evaluation") };
        // One requested thread or a small input never split, and never
        // pay for the estimate (or the core count).
        assert_eq!(effective_threads(1, 10_000_000, never), 1);
        assert_eq!(effective_threads(8, 100_000, never), 1);
        // Large inputs split only when the host has more than one core.
        let big = effective_threads(8, 10_000_000, || u64::MAX);
        assert_eq!(big, if host_cores() > 1 { 8 } else { 1 });
    }

    #[test]
    fn work_estimate_pins_the_split_decision() {
        // Full-traffic estimate (2 literals over 4M rows): fan out.
        assert_eq!(split_threads(8, 2 * 62_500), 8);
        // Post-pruning estimate below the parallel-work floor: serial.
        // This pins the delta=512 cliff fix — many rows, little work.
        const { assert!(10_000 < MIN_PARALLEL_WORK_WORDS) };
        assert_eq!(split_threads(8, 10_000), 1);
        // Middling estimate: split, but onto fewer workers so each
        // still has MIN_WORK_WORDS_PER_THREAD of traffic.
        assert_eq!(split_threads(8, 40_000), 2);
    }

    #[test]
    fn heavily_pruned_plan_auto_serializes_via_its_estimate() {
        use ebi_boolean::DnfExpr;
        // 2.5M rows of near-empty slices: the row count clears the
        // parallel threshold but summaries prune almost every segment,
        // so the estimate must force the serial path.
        let rows = 2_500_000;
        let mut a = BitVec::zeros(rows);
        for i in 0..512 {
            a.set(i, true);
        }
        let b = a.clone();
        let slices = [a, b];
        let summaries = summarize_slices(&slices);
        let lowered = DnfExpr::parse("B1B0", 2).unwrap().lower();
        let plan = lowered.bind(&slices, Some(&summaries), rows);
        let est = plan.estimated_work_words();
        assert!(
            est < MIN_PARALLEL_WORK_WORDS,
            "pruned estimate {est} should fall below the parallel floor"
        );
        assert_eq!(split_threads(8, est), 1);
        // Unpruned, the same shape would have split.
        let unpruned = lowered.bind(&slices, None, rows);
        assert!(unpruned.estimated_work_words() >= MIN_PARALLEL_WORK_WORDS);
        // And the auto path still computes the right answer.
        let mut stats = KernelStats::new();
        let got = eval_plan(&plan, 8, &mut stats);
        assert_eq!(got.count_ones(), 512);
    }

    #[test]
    fn work_stealing_rebalances_pruned_prefixes() {
        use ebi_boolean::DnfExpr;
        // All the live work sits in the last quarter of the row range:
        // a fixed splitter would leave workers 1..n idle while worker n
        // does everything. The result must still be bit-identical and
        // the total work invariant.
        let rows = 1_200_000;
        let a: BitVec = (0..rows).map(|i| i >= 3 * rows / 4 && i % 3 == 0).collect();
        let b: BitVec = (0..rows).map(|i| i >= 3 * rows / 4 && i % 5 != 0).collect();
        let slices = [a, b];
        let summaries = summarize_slices(&slices);
        let lowered = DnfExpr::parse("B1B0", 2).unwrap().lower();
        let plan = lowered.bind(&slices, Some(&summaries), rows);
        let mut serial_stats = KernelStats::new();
        let serial = eval_plan_forced(&plan, 1, &mut serial_stats);
        for threads in [2, 4, 7] {
            let mut stats = KernelStats::new();
            let parallel = eval_plan_forced(&plan, threads, &mut stats);
            assert_eq!(parallel, serial, "threads={threads}");
            assert_eq!(stats.words_scanned, serial_stats.words_scanned);
            assert_eq!(stats.segments_pruned, serial_stats.segments_pruned);
        }
    }

    #[test]
    fn threaded_queries_match_serial_queries() {
        let cells = column(120_000, 40, true);
        let serial_idx = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        let mut par_idx = serial_idx.clone();
        par_idx.set_query_options(crate::index::QueryOptions {
            eval_threads: 4,
            use_summaries: true,
            ..Default::default()
        });
        for v in [0u64, 7, 13, 39] {
            let s = serial_idx.eq(v).unwrap();
            let p = par_idx.eq(v).unwrap();
            assert_eq!(p.bitmap, s.bitmap, "v={v}");
            assert_eq!(
                p.stats.vectors_accessed, s.stats.vectors_accessed,
                "threading must not change the paper's cost metric"
            );
        }
        let values: Vec<u64> = (0..20).collect();
        assert_eq!(
            par_idx.in_list(&values).unwrap().bitmap,
            serial_idx.in_list(&values).unwrap().bitmap
        );
    }

    #[test]
    fn small_inputs_evaluate_serially() {
        let cells = column(500, 6, false);
        let mut idx = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        idx.set_query_options(crate::index::QueryOptions {
            eval_threads: 8,
            use_summaries: true,
            ..Default::default()
        });
        // 500 rows < 2 * MIN_EVAL_WORDS segments: serial path, still correct.
        let r = idx.eq(3).unwrap();
        let expect: Vec<usize> = (0..500).filter(|i| (*i as u64 * 31) % 6 == 3).collect();
        assert_eq!(r.bitmap.to_positions(), expect);
    }
}
