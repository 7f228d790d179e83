//! `lib_maintain`: `ebi-core` used the other way round — one encoded
//! bitmap index that is written beside being read. No sockets.
//!
//! One op is one batch of identical composition: `APPENDS` appends,
//! `UPDATES` updates and `DELETES` deletes of live rows, one `eq` and
//! one `range`. A shadow vector (one `Option<u16>` per row, so that the
//! process's peak RSS stays the index's, not the harness's) takes the
//! same writes and both reads of every batch are checked against it.
//!
//! No value is admitted inside the window. Each admitted value takes a
//! don't-care code away, and on this index the cost of one reduction
//! goes from 0.5 ms at 12 don't-care codes to 24 ms at 1 192 and 164 ms
//! at 3 192, so batches that admit a value cannot be both alike and
//! short. The domain is sized to leave `FREE_CODES` codes, and
//! `admit_value` is timed after the window until the width crosses.

use crate::inputs::{permutation, sub_seed};
use crate::stats::{self, Fnv, MemoryMark, SEGMENTS};
use crate::trace::{self, Recorder, CLIENT};
use crate::{add_cost, Outcome, Run, OUT_DIR, TRACED_SHARE};
use ebi_bitvec::store::StorageKind;
use ebi_core::persist::{load_index, save_index};
use ebi_core::{EncodedBitmapIndex, QueryResult};
use ebi_obs::CostCounters;
use ebi_storage::{Cell, Pager};
use ebi_warehouse::generator::{generate_column, ColumnSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::{Duration, Instant};

/// Codes at k = 13, and how many of them column `d` leaves unassigned.
const CODES: u64 = 1 << 13;
const FREE_CODES: u64 = 32;
/// Column `d`: Zipf(1.0) over 8 160 values, so k = 13.
const M_D: u64 = CODES - FREE_CODES;
const RANGE_DELTA: u64 = 50;

/// Batch composition, frozen after calibration (README, "Sizing").
const APPENDS: usize = 100;
const UPDATES: usize = 16_000;
const DELETES: usize = 50;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The writes and reads of one batch.
struct Batch {
    appends: Vec<u16>,
    updates: Vec<(usize, u16)>,
    deletes: Vec<usize>,
    eq: u64,
    range: (u64, u64),
}

/// The rows as a plain vector (None = deleted) with a live count per
/// value, which the reads are checked against. Every value fits 16
/// bits: the domain stays below `CODES`.
struct Shadow {
    rows: Vec<Option<u16>>,
    live_per_value: Vec<u64>,
}

impl Shadow {
    /// The shadow of `values`, with room for `appends` more rows that
    /// is written once now: the shadow's growth is then resident before
    /// memory is marked, and `peak_rss_mb` does not count it.
    fn new(values: &[u16], appends: usize) -> Self {
        let mut s = Self {
            rows: vec![Some(u16::MAX); values.len() + appends],
            live_per_value: vec![0; CODES as usize],
        };
        s.rows.clear();
        for v in values {
            s.push(*v);
        }
        s
    }

    fn push(&mut self, v: u16) {
        self.live_per_value[v as usize] += 1;
        self.rows.push(Some(v));
    }

    fn set(&mut self, row: usize, v: Option<u16>) {
        if let Some(old) = self.rows[row] {
            self.live_per_value[old as usize] -= 1;
        }
        if let Some(v) = v {
            self.live_per_value[v as usize] += 1;
        }
        self.rows[row] = v;
    }

    /// A uniformly drawn live row.
    fn live_row(&self, rng: &mut StdRng) -> usize {
        loop {
            let row = rng.random_range(0..self.rows.len());
            if self.rows[row].is_some() {
                return row;
            }
        }
    }

    /// Whether both reads of batch `b` agree with the rows after it.
    fn agrees_on(&self, b: &Batch, eq: &QueryResult, range: &QueryResult) -> bool {
        self.agrees(eq, b.eq, b.eq) && self.agrees(range, b.range.0, b.range.1)
    }

    /// Whether `result` selects exactly the live rows with a value in
    /// `lo..=hi`: the right number of bits, each on a matching row.
    fn agrees(&self, result: &QueryResult, lo: u64, hi: u64) -> bool {
        let want: u64 = self.live_per_value[lo as usize..=hi as usize].iter().sum();
        result.bitmap.count_ones() as u64 == want
            && result
                .bitmap
                .iter_ones()
                .all(|row| self.rows[row].is_some_and(|v| (lo..=hi).contains(&u64::from(v))))
    }
}

/// Draws batch `op` and applies its writes to the shadow, in the order
/// the index will see them.
struct Generator {
    seed: u64,
    rng: StdRng,
    hash: Fnv,
}

/// `n` Zipf(1.0) draws over the domain of `d`, 16 bits each. Drawn in
/// pieces so that the generator's 16-byte cells never pile up.
fn zipf_values(n: usize, seed: u64) -> Vec<u16> {
    const PIECE: usize = 1 << 20;
    let spec = ColumnSpec::zipf(M_D, 1.0);
    let mut out = Vec::with_capacity(n);
    for (i, start) in (0..n).step_by(PIECE).enumerate() {
        let cells = generate_column(&spec, PIECE.min(n - start), sub_seed(seed, i as u64));
        out.extend(
            cells
                .iter()
                .map(|c| c.value().expect("no NULLs in d") as u16),
        );
    }
    out
}

impl Generator {
    fn new(seed: u64, base: &[u16]) -> Self {
        let mut hash = Fnv::new();
        for v in base {
            hash.u64(u64::from(*v));
        }
        Self {
            seed,
            rng: StdRng::seed_from_u64(sub_seed(seed, 24)),
            hash,
        }
    }

    /// The values a batch writes are drawn when the batch is, so that
    /// no stream of them is resident beside the index.
    fn batch(&mut self, op: usize, shadow: &mut Shadow) -> Batch {
        let drawn = zipf_values(APPENDS + UPDATES, sub_seed(self.seed, 100 + op as u64));
        let appends = drawn[..APPENDS].to_vec();
        for v in &appends {
            shadow.push(*v);
        }
        let updates: Vec<(usize, u16)> = drawn[APPENDS..]
            .iter()
            .map(|v| {
                let row = shadow.live_row(&mut self.rng);
                shadow.set(row, Some(*v));
                (row, *v)
            })
            .collect();
        let deletes: Vec<usize> = (0..DELETES)
            .map(|_| {
                let row = shadow.live_row(&mut self.rng);
                shadow.set(row, None);
                row
            })
            .collect();
        let lo = self.rng.random_range(0..M_D - RANGE_DELTA);
        let b = Batch {
            appends,
            updates,
            deletes,
            eq: self.rng.random_range(0..M_D),
            range: (lo, lo + RANGE_DELTA),
        };
        for v in &b.appends {
            self.hash.u64(u64::from(*v));
        }
        for (row, v) in &b.updates {
            self.hash.u64(*row as u64);
            self.hash.u64(u64::from(*v));
        }
        for row in &b.deletes {
            self.hash.u64(*row as u64);
        }
        for v in [b.eq, b.range.0, b.range.1] {
            self.hash.u64(v);
        }
        b
    }
}

/// Times `f`, as a span under `parent` when the run is traced.
fn step<T>(
    rec: &mut Option<Recorder>,
    name: &'static str,
    op: u32,
    parent: u32,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some(r) => r.time(name, op, parent, f),
        None => f(),
    }
}

/// What the reads of a window cost, summed.
#[derive(Default)]
struct Reads {
    cost: CostCounters,
    failed: u64,
}

impl Reads {
    fn add(&mut self, r: &QueryResult) {
        let s = &r.stats;
        add_cost(
            &mut self.cost,
            &CostCounters {
                vectors_accessed: s.vectors_accessed as u64,
                words_scanned: s.words_scanned,
                bytes_touched: s.bytes_touched,
                compressed_chunks_skipped: s.compressed_chunks_skipped,
                segments_pruned: s.segments_pruned,
                segments_short_circuited: s.segments_short_circuited,
                ..CostCounters::default()
            },
        );
    }
}

/// Runs one batch against the index and returns its latency, ns.
fn run_batch(
    index: &mut EncodedBitmapIndex,
    b: &Batch,
    op: u32,
    rec: &mut Option<Recorder>,
) -> (u64, QueryResult, QueryResult) {
    let root = rec.as_mut().map_or(0, |r| r.open(CLIENT, op, 0));
    let t0 = Instant::now();
    step(rec, "core.maintenance.append", op, root, || {
        for v in &b.appends {
            index.append(Cell::Value(u64::from(*v))).expect("append");
        }
    });
    step(rec, "core.maintenance.update", op, root, || {
        for (row, v) in &b.updates {
            index
                .update(*row, Cell::Value(u64::from(*v)))
                .expect("update");
        }
    });
    step(rec, "core.maintenance.delete", op, root, || {
        for row in &b.deletes {
            index.delete(*row).expect("delete");
        }
    });
    let eq = step(rec, "core.index.eq", op, root, || {
        index.eq(b.eq).expect("eq")
    });
    let range = step(rec, "core.index.range", op, root, || {
        index.range(b.range.0, b.range.1).expect("range")
    });
    let ns = t0.elapsed().as_nanos() as u64;
    if let Some(r) = rec.as_mut() {
        r.close(root);
    }
    (ns, eq, range)
}

/// `rows` cells of column `d`: Zipf(1.0) draws, then every value of
/// the domain once in a seeded order, so that the index is k = 13 with
/// exactly `FREE_CODES` free codes for any seed and table size.
fn base_column(rows: usize, seed: u64) -> Vec<u16> {
    let mut values = zipf_values(rows - M_D as usize, sub_seed(seed, 21));
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 25));
    values.extend(permutation(M_D, &mut rng).into_iter().map(|v| v as u16));
    values
}

fn bytes_per_row(index: &EncodedBitmapIndex) -> f64 {
    index.storage_bytes() as f64 / index.rows() as f64
}

/// One set-up: the index built over `base` and read once. Returns the
/// index, its two cold reads, and the build and the whole set-up time, s.
fn set_up(base: &[u16]) -> (EncodedBitmapIndex, [QueryResult; 2], [f64; 2]) {
    let t0 = Instant::now();
    let cells = base.iter().map(|v| Cell::Value(u64::from(*v)));
    let index = EncodedBitmapIndex::build(cells).expect("index builds");
    let build_s = t0.elapsed().as_secs_f64();
    let eq = index.eq(0).expect("eq");
    let range = index.range(0, RANGE_DELTA).expect("range");
    let setup_s = t0.elapsed().as_secs_f64();
    (index, [eq, range], [build_s, setup_s])
}

pub fn run(rows: usize, run: &Run) -> Outcome {
    let ops = if run.trace {
        (run.ops / TRACED_SHARE).max(SEGMENTS)
    } else {
        run.ops
    };
    let per = ops / SEGMENTS;
    let base = base_column(rows, run.seed);
    let mut generator = Generator::new(run.seed, &base);
    let mut shadow = Shadow::new(&base, (ops + per) * APPENDS);
    let mut out = Outcome::new(0);

    // The first index built is the one the window uses, so that the
    // process's peak is one index's; an untraced run then sets up more,
    // only to time them.
    let memory = MemoryMark::before_setup();
    let (mut index, cold, first) = set_up(&base);
    assert!(
        shadow.agrees(&cold[0], 0, 0) && shadow.agrees(&cold[1], 0, RANGE_DELTA),
        "cold reads agree with the shadow"
    );
    let before = bytes_per_row(&index);

    let mut rec = run.trace.then(Recorder::new);
    let mut latency_ns = Vec::with_capacity(ops);
    let mut segment_wall = Vec::with_capacity(SEGMENTS);
    let mut reads = Reads::default();
    let mut last_range = (0, RANGE_DELTA);
    // One unmeasured segment first (see `stats::SEGMENTS`): the batches
    // after the script's last.
    for op in ops..ops + per {
        let b = generator.batch(op, &mut shadow);
        let (_, eq, range) = run_batch(&mut index, &b, op as u32, &mut None);
        if !shadow.agrees_on(&b, &eq, &range) {
            reads.failed += 1;
        }
    }
    for s in 0..SEGMENTS {
        // The window's clock runs only inside the batches: drawing a
        // batch and checking its reads is the benchmark's own work.
        let mut busy_ns = 0u64;
        for op in s * per..(s + 1) * per {
            let b = generator.batch(op, &mut shadow);
            let (ns, eq, range) = run_batch(&mut index, &b, op as u32, &mut rec);
            latency_ns.push(ns);
            busy_ns += ns;
            reads.add(&eq);
            reads.add(&range);
            if !shadow.agrees_on(&b, &eq, &range) {
                reads.failed += 1;
            }
            last_range = b.range;
        }
        segment_wall.push(Duration::from_nanos(busy_ns));
    }
    let done = per * SEGMENTS;
    out.script_hash = generator.hash.0;
    out.attempted = done as u64;
    out.failed = reads.failed;
    out.samples = done;

    let Some(rec) = rec else {
        out.set("peak_rss_mb", memory.rise_mb());
        let mut setup_s = vec![first[1]];
        for _ in 1..SETUPS {
            setup_s.push(set_up(&base).2[1]);
        }
        let t = stats::timing(&latency_ns, &segment_wall);
        // Batches are alike but the index grows under them, so each
        // half of the window is a group: the fastest batch of either
        // half, not of the whole window. (More groups do not hold: a
        // tenth of the window can pass without one quiet batch.)
        let halves: Vec<u32> = (0..done).map(|op| (op * 2 / done) as u32).collect();
        let quiet = stats::quiet(&latency_ns, &halves);
        out.set("setup_s", stats::median(setup_s));
        out.set("quiet_us", quiet.mean_us);
        out.set("quiet_p95_us", quiet.p95_us);
        out.set("p50_us", t.p50_us);
        out.set("p95_us", t.p95_us);
        out.set("throughput_ops", t.throughput_ops);
        out.set_exact(
            "vectors_per_op",
            reads.cost.vectors_accessed as f64 / done as f64,
        );
        out.set_exact("index_bytes_per_row", bytes_per_row(&index));
        return out;
    };

    // Traced run: the window's spans, then the one-off calls.
    let n = done as f64;
    let checked = trace::check(&rec.spans);
    rec.write_jsonl(&Path::new(OUT_DIR).join(format!("{}.trace.jsonl", run.workload)))
        .expect("write the trace file");
    out.set("client.p50_us", stats::percentile_us(&latency_ns, 50.0));
    out.set("client.p95_us", stats::percentile_us(&latency_ns, 95.0));
    out.set(
        "client.throughput_ops",
        done as f64 * 1e9 / latency_ns.iter().sum::<u64>() as f64,
    );
    let us = |name: &str| checked.mean_us(name, done);
    let (append, update, delete) = (
        us("core.maintenance.append"),
        us("core.maintenance.update"),
        us("core.maintenance.delete"),
    );
    let (eq_us, range_us) = (us("core.index.eq"), us("core.index.range"));
    out.set("core.maintenance.append_ns", append * 1e3 / APPENDS as f64);
    out.set("core.maintenance.update_ns", update * 1e3 / UPDATES as f64);
    out.set("core.maintenance.delete_ns", delete * 1e3 / DELETES as f64);
    out.set(
        "core.maintenance.share",
        (append + update + delete) / (checked.client_total_ns as f64 / 1e3 / n),
    );
    out.set("core.index.eq_us", eq_us);
    out.set("core.index.range_us", range_us);
    out.set(
        "core.index.build_us_per_krow",
        first[0] * 1e6 / (rows as f64 / 1e3),
    );
    out.set_exact("core.index.bytes_per_row_before", before);
    out.set_exact("core.index.bytes_per_row_after", bytes_per_row(&index));
    out.set_kernel_counts(&reads.cost, n, eq_us + range_us);
    let kinds = |k: StorageKind| index.slices().iter().filter(|s| s.kind() == k).count() as f64;
    out.set_exact("bitvec.store.dense_slices", kinds(StorageKind::Dense));
    out.set_exact("bitvec.store.roaring_slices", kinds(StorageKind::Roaring));
    out.set_exact("bitvec.store.wah_slices", kinds(StorageKind::Wah));

    let t0 = Instant::now();
    index.refresh_summaries();
    out.set(
        "core.index.refresh_summaries_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );
    let t0 = Instant::now();
    let after = index.range(last_range.0, last_range.1).expect("range");
    out.set(
        "core.index.range_after_refresh_us",
        t0.elapsed().as_secs_f64() * 1e6,
    );
    if !shadow.agrees(&after, last_range.0, last_range.1) {
        out.failed += 1;
    }

    let pager = Pager::new();
    let t0 = Instant::now();
    let handle = save_index(&index, &pager).expect("save_index");
    out.set("core.persist.save_ms", t0.elapsed().as_secs_f64() * 1e3);
    let written = pager.stats().page_writes;
    let t0 = Instant::now();
    let loaded = load_index(&pager, &handle).expect("load_index");
    out.set("core.persist.load_ms", t0.elapsed().as_secs_f64() * 1e3);
    out.set_exact("storage.pager.pages_written", written as f64);
    out.set_exact("storage.pager.pages_read", pager.stats().page_reads as f64);
    let reread = loaded.range(last_range.0, last_range.1).expect("range");
    if !shadow.agrees(&reread, last_range.0, last_range.1) {
        out.failed += 1;
    }

    // New values until Equation (1) fails: `FREE_CODES` admissions
    // that take a free code, then the one that adds a vector.
    let mut admit_s = Vec::new();
    for value in M_D.. {
        let t0 = Instant::now();
        let grew = index.admit_value(value).expect("admit_value");
        let took = t0.elapsed().as_secs_f64();
        if grew {
            out.set("core.maintenance.expand_width_ms", took * 1e3);
            break;
        }
        admit_s.push(took);
    }
    out.set(
        "core.maintenance.admit_value_us",
        admit_s.iter().sum::<f64>() * 1e6 / admit_s.len() as f64,
    );
    out.checked = Some(checked);
    out
}
