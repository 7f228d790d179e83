//! The three `serve_*` workloads: a table behind `ebi_service::run`,
//! one closed-loop client on one TCP connection, a fixed script.

use crate::inputs::{self, Columns, Script};
use crate::oracle::Oracle;
use crate::stats::{self, Fnv, MemoryMark, SEGMENTS};
use crate::trace::{self, Recorder, CLIENT, REPLAY};
use crate::{add_cost, Outcome, Run, OUT_DIR, TRACED_SHARE};
use ebi_bitvec::store::StorageKind;
use ebi_obs::CostCounters;
use ebi_service::{
    ColumnSpec, DnfRequest, FanOut, Predicate, Request, ServiceConfig, ShardedTable, TableOptions,
    WorkerPool,
};
use ebi_storage::BufferPool;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Pinned service shape, independent of `nproc` (see README).
const SHARDS: usize = 4;
const WORKERS: usize = 1;
const MAX_INFLIGHT: usize = 8;
const BUFFER_FRAMES: usize = 64;
const ROWS_PER_PAGE: usize = 512;

/// The traced run's passes alternate in this many rounds, so drift on
/// the host lands on every pass alike.
const ROUNDS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    Range,
    InList,
}

impl Kind {
    /// Set-ups per untraced run; `setup_s` is their median. The small
    /// table is set up in a tenth of a second, which the host's jitter
    /// moves by half, so it is set up often enough to spend over a
    /// second on it; the large one takes three seconds a time.
    fn setups(self) -> usize {
        match self {
            Self::Point | Self::InList => 15,
            Self::Range => 3,
        }
    }

    fn script(self, ops: usize, seed: u64) -> Script {
        match self {
            Self::Point => inputs::point_script(ops, seed),
            Self::Range => inputs::range_script(ops, seed),
            Self::InList => inputs::inlist_script(ops, seed),
        }
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        max_inflight: MAX_INFLIGHT,
        buffer_frames: BUFFER_FRAMES,
        ..ServiceConfig::default()
    }
}

/// The table's input. Copying the generated cells is input
/// preparation, so callers do it before they start the set-up clock.
fn column_specs(cols: &Columns) -> Vec<ColumnSpec> {
    vec![
        ColumnSpec::new("a", cols.a.clone()),
        ColumnSpec::new("b", cols.b.clone()),
        ColumnSpec::new("c", cols.c.clone()),
        ColumnSpec::new("e", cols.e.clone()),
    ]
}

fn build_table(specs: Vec<ColumnSpec>) -> ShardedTable {
    let opts = TableOptions {
        shards: SHARDS,
        row_orders: Vec::new(),
        rows_per_page: ROWS_PER_PAGE,
    };
    ShardedTable::build(specs, &opts).expect("table builds")
}

/// Runs `f` against the table served in this process, then shuts the
/// service down and joins it.
fn with_service<T>(table: &ShardedTable, f: impl FnOnce(SocketAddr) -> T) -> T {
    let cfg = service_config();
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        let server = s.spawn(|| {
            ebi_service::run(table, &cfg, move |h| {
                tx.send(h).expect("benchmark waits for the handle");
            })
        });
        let handle = rx.recv().expect("service binds and reports ready");
        let out = f(handle.tcp_addr());
        handle.shutdown();
        server
            .join()
            .expect("service thread joins")
            .expect("service shuts down cleanly");
        out
    })
}

/// What one `OK {...}` line carried.
#[derive(Clone, Copy)]
struct Reply {
    matches: u64,
    wall_ns: u64,
    vectors: u64,
    dispatched: bool,
}

/// Stands for a reply that was `BUSY`, `ERR` or unreadable: it matches
/// no expected count.
const NO_REPLY: Reply = Reply {
    matches: u64::MAX,
    wall_ns: 0,
    vectors: 0,
    dispatched: false,
};

fn field(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

fn parse_reply(line: &str) -> Option<Reply> {
    if !line.starts_with("OK {") {
        return None;
    }
    Some(Reply {
        matches: field(line, "\"matches\":")?,
        wall_ns: field(line, "\"wall_ns\":")?,
        vectors: field(line, "\"vectors_accessed\":")?,
        dispatched: line.contains("\"dispatched\":true"),
    })
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect to the service");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone the stream"));
        Self {
            reader,
            writer,
            line: String::new(),
        }
    }

    /// Sends one line (newline included) and waits for the reply line.
    fn round_trip(&mut self, request: &str) -> &str {
        self.writer
            .write_all(request.as_bytes())
            .expect("write request");
        self.line.clear();
        self.reader.read_line(&mut self.line).expect("read reply");
        self.line.trim_end()
    }
}

/// Everything fixed before the service starts.
struct Prepared {
    cols: Columns,
    script: Script,
    /// Request line per query, newline included.
    requests: Vec<String>,
    /// Oracle count per query.
    expected: Vec<u64>,
    hash: u64,
}

fn prepare(kind: Kind, run: &Run, rows: usize) -> Prepared {
    let cols = inputs::columns(rows, run.seed);
    // One more segment than the window has: the unmeasured warm-up
    // sends ops of its own, so that no list of the window has been
    // seen before it.
    let script = kind.script(run.ops + run.ops / SEGMENTS, run.seed);
    let oracle = Oracle::scan(&cols);
    let expected = script.queries.iter().map(|q| oracle.count(q)).collect();
    let requests = script.queries.iter().map(|q| q.request() + "\n").collect();
    let mut h = Fnv::new();
    cols.hash_into(&mut h);
    script.hash_into(&mut h);
    Prepared {
        cols,
        script,
        requests,
        expected,
        hash: h.0,
    }
}

/// Latencies and replies of a run of ops over TCP.
#[derive(Default)]
struct Pass {
    latency_ns: Vec<u64>,
    replies: Vec<Reply>,
    failed: u64,
}

impl Pass {
    /// Room for the results of `ops` ops, written once now: the
    /// window's own bookkeeping is then resident before memory is
    /// marked, and `peak_rss_mb` does not count it.
    fn with_room(ops: usize) -> Self {
        let mut pass = Self {
            latency_ns: vec![u64::MAX; ops],
            replies: vec![NO_REPLY; ops],
            failed: 0,
        };
        pass.latency_ns.clear();
        pass.replies.clear();
        pass
    }

    fn mean(&self, f: impl Fn(&Reply) -> u64) -> f64 {
        self.replies.iter().map(f).sum::<u64>() as f64 / self.replies.len() as f64
    }
}

/// Sends ops `range` of the script one after another; an answer that
/// differs from the oracle, `BUSY` or `ERR` is a failed op.
fn tcp_pass(
    client: &mut Client,
    p: &Prepared,
    range: Range<usize>,
    mut rec: Option<&mut Recorder>,
    pass: &mut Pass,
) {
    for op in range {
        let q = p.script.ops[op] as usize;
        let span = rec.as_mut().map(|r| r.open(CLIENT, op as u32, 0));
        let t0 = Instant::now();
        let line = client.round_trip(&p.requests[q]);
        pass.latency_ns.push(t0.elapsed().as_nanos() as u64);
        if let (Some(r), Some(id)) = (rec.as_mut(), span) {
            r.close(id);
        }
        let reply = parse_reply(line).unwrap_or(NO_REPLY);
        if reply.matches != p.expected[q] {
            pass.failed += 1;
        }
        pass.replies.push(reply);
    }
}

fn start_client(addr: SocketAddr, p: &Prepared) -> Client {
    let mut client = Client::connect(addr);
    assert_eq!(client.round_trip("PING\n"), "PONG", "service answers PING");
    // One cold pass over the distinct-query pool.
    for q in 0..p.script.warm {
        let reply = parse_reply(client.round_trip(&p.requests[q]));
        assert_eq!(
            reply.map(|r| r.matches),
            Some(p.expected[q]),
            "cold pass: {}",
            p.requests[q]
        );
    }
    client
}

/// A script line, parsed as the server parses it.
fn parse_count(line: &str) -> DnfRequest {
    match ebi_service::parse_request(line) {
        Ok(Request::Count(dnf)) => dnf,
        other => panic!("script line is not a COUNT: {line}: {other:?}"),
    }
}

/// The library's `vectors_accessed` for a query: compiled once, every
/// shard evaluated on this thread.
fn library_vectors(table: &ShardedTable, request: &str) -> u64 {
    let compiled = table
        .compile(&parse_count(request))
        .expect("script query compiles");
    table.eval_local(&compiled).1.vectors_accessed
}

fn index_bytes(table: &ShardedTable) -> usize {
    let columns = table.columns().len();
    table
        .shards()
        .iter()
        .flat_map(|s| (0..columns).map(move |c| s.column_index(c).storage_bytes()))
        .sum()
}

pub fn run(kind: Kind, rows: usize, run: &Run) -> Outcome {
    let p = prepare(kind, run, rows);
    if run.trace {
        traced(kind, &p, run)
    } else {
        untraced(kind, &p, run)
    }
}

fn untraced(kind: Kind, p: &Prepared, run: &Run) -> Outcome {
    let mut out = Outcome::new(p.hash);
    let setups = kind.setups();
    let mut setup_s = Vec::with_capacity(setups);
    let per = run.ops / SEGMENTS;
    let mut pass = Pass::with_room(run.ops);
    let mut warm_up = Pass::with_room(per);
    // The cells handed to the program are resident when memory is
    // marked: `peak_rss_mb` is what the program allocates beside its
    // input, not the input.
    let mut first = Some(column_specs(&p.cols));
    let memory = MemoryMark::before_setup();
    for round in 0..setups {
        let specs = first.take().unwrap_or_else(|| column_specs(&p.cols));
        let t0 = Instant::now();
        let table = build_table(specs);
        with_service(&table, |addr| {
            let mut client = start_client(addr, p);
            setup_s.push(t0.elapsed().as_secs_f64());
            // The first set-up is the one that is served, so that the
            // process's peak is this table's and not a sum over tables
            // built before it; the others are only timed.
            if round > 0 {
                return;
            }
            let mut segment_wall = Vec::with_capacity(SEGMENTS);
            tcp_pass(&mut client, p, run.ops..run.ops + per, None, &mut warm_up);
            for s in 0..SEGMENTS {
                let t = Instant::now();
                tcp_pass(&mut client, p, s * per..(s + 1) * per, None, &mut pass);
                segment_wall.push(t.elapsed());
            }
            drop(client);
            out.set("peak_rss_mb", memory.rise_mb());

            // Outside the window: the library's c_e for every distinct
            // query the window sent, against what each reply carried.
            let mut library: Vec<Option<u64>> = vec![None; p.script.queries.len()];
            for (op, reply) in pass.replies.iter().enumerate() {
                let q = p.script.ops[op] as usize;
                let want = *library[q]
                    .get_or_insert_with(|| library_vectors(&table, p.requests[q].trim_end()));
                // An op already failed on its count is not counted twice.
                if reply.vectors != want && reply.matches == p.expected[q] {
                    pass.failed += 1;
                }
            }

            let t = stats::timing(&pass.latency_ns, &segment_wall);
            let quiet = stats::quiet(&pass.latency_ns, &p.script.groups[..run.ops]);
            out.attempted = pass.replies.len() as u64;
            out.failed = pass.failed;
            out.samples = pass.latency_ns.len();
            out.set("quiet_us", quiet.mean_us);
            out.set("quiet_p95_us", quiet.p95_us);
            out.set("p50_us", t.p50_us);
            out.set("p95_us", t.p95_us);
            out.set("throughput_ops", t.throughput_ops);
            out.set_exact("vectors_per_op", pass.mean(|r| r.vectors));
            out.set_exact(
                "index_bytes_per_row",
                index_bytes(&table) as f64 / table.rows() as f64,
            );
        });
    }
    out.set("setup_s", stats::median(setup_s));
    out
}

/// The in-process replay's totals over its ops.
#[derive(Default)]
struct LayerTotals {
    cost: CostCounters,
    pages: u64,
    cubes: u64,
    literals: u64,
    /// Σ over ops of the slowest shard's `eval`, ns.
    eval_max_ns: u64,
    /// Σ over ops of clause × shard `run_dnf` calls.
    run_dnf_calls: u64,
    failed: u64,
}

/// Replays ops `range` through the public calls the server makes, one
/// span per call, and checks each answer against the oracle and each
/// `vectors_accessed` against what the service replied for that op.
fn layer_pass(
    table: &ShardedTable,
    pools: &[BufferPool<'_>],
    p: &Prepared,
    range: Range<usize>,
    served: &[Reply],
    rec: &mut Recorder,
    t: &mut LayerTotals,
) {
    for op in range {
        let q = p.script.ops[op] as usize;
        let line = p.requests[q].trim_end();
        let o = op as u32;
        let root = rec.open(REPLAY, o, 0);
        let dnf = rec.time("service.protocol.parse", o, root, || parse_count(line));
        let compiled = rec
            .time("service.shard.compile", o, root, || table.compile(&dnf))
            .expect("script query compiles");
        std::hint::black_box(rec.time("service.shard.estimate", o, root, || {
            table.estimated_work_words(&compiled)
        }));
        let mut parts = Vec::with_capacity(table.shards().len());
        let mut cost = CostCounters::default();
        let mut slowest = 0u64;
        for (shard, pool) in table.shards().iter().zip(pools) {
            let id = rec.open("service.shard.eval", o, root);
            let (bitmap, c) = shard.eval(&compiled);
            rec.close(id);
            slowest = slowest.max(rec.duration_ns(id));
            t.pages += rec.time("storage.buffer.fetch", o, root, || {
                shard.fetch_matches(&bitmap, Some(pool))
            });
            add_cost(&mut cost, &c);
            parts.push((shard.id(), bitmap));
        }
        let merged = rec.time("service.shard.merge", o, root, || {
            table.merge(parts.iter().map(|(i, b)| (*i, b)))
        });
        // QM reduction alone: the same `explain_in_list` calls that
        // `compile` made, repeated outside it.
        let clauses: Vec<(usize, Vec<u64>)> = dnf
            .disjuncts
            .iter()
            .flatten()
            .map(|clause| {
                let col = table
                    .columns()
                    .iter()
                    .position(|c| *c == clause.column)
                    .expect("script names a column of the table");
                let values = match &clause.predicate {
                    Predicate::Eq(v) => vec![*v],
                    Predicate::In(vs) => vs.clone(),
                    Predicate::Between(lo, hi) => table
                        .mapping(col)
                        .iter()
                        .map(|(v, _)| v)
                        .filter(|v| v >= lo && v <= hi)
                        .collect(),
                };
                (col, values)
            })
            .collect();
        rec.time("probe.boolean.qm.reduce", o, root, || {
            for (col, values) in &clauses {
                std::hint::black_box(table.shards()[0].column_index(*col).explain_in_list(values));
            }
        });
        rec.close(root);

        for clause in compiled.disjuncts.iter().flatten() {
            t.cubes += clause.expr.cubes().len() as u64;
            t.literals += clause.expr.literal_count() as u64;
        }
        t.run_dnf_calls += (clauses.len() * table.shards().len()) as u64;
        t.eval_max_ns += slowest;
        if merged.count_ones() as u64 != p.expected[q]
            || cost.vectors_accessed != served[op].vectors
        {
            t.failed += 1;
        }
        add_cost(&mut t.cost, &cost);
    }
}

/// An empty job through `WorkerPool::submit` → `FanOut::wait` on a
/// one-worker pool: the fixed price of handing a shard to the pool.
fn handoff_us() -> f64 {
    const WARM: usize = 200;
    const ITERS: usize = 2000;
    let pool = WorkerPool::new(1);
    std::thread::scope(|s| {
        s.spawn(|| pool.run_worker(0));
        let mut t0 = Instant::now();
        for i in 0..WARM + ITERS {
            if i == WARM {
                t0 = Instant::now();
            }
            let fan = Arc::new(FanOut::<()>::new(1));
            let done = Arc::clone(&fan);
            pool.submit(Box::new(move || done.complete(0, Some(()))));
            fan.wait(Duration::from_secs(10))
                .expect("empty job completes");
        }
        let us = t0.elapsed().as_secs_f64() * 1e6 / ITERS as f64;
        pool.close();
        us
    })
}

fn traced(kind: Kind, p: &Prepared, run: &Run) -> Outcome {
    let mut out = Outcome::new(p.hash);
    let chunk = (run.ops / TRACED_SHARE / ROUNDS).max(1);
    let ops = chunk * ROUNDS;
    let specs = column_specs(&p.cols);
    let t0 = Instant::now();
    let table = build_table(specs);
    let build = t0.elapsed();
    let mut rec = Recorder::new();
    let (mut plain, mut spanned, mut observed) =
        (Pass::default(), Pass::default(), Pass::default());

    let (layers, buffer) = with_service(&table, |addr| {
        let mut client = start_client(addr, p);
        // The replay owns a buffer pool per shard like the server's,
        // and starts it the way the server's started: one cold pass.
        let pools: Vec<BufferPool<'_>> = table
            .shards()
            .iter()
            .map(|s| BufferPool::new(s.pager(), BUFFER_FRAMES))
            .collect();
        for q in 0..p.script.warm {
            let compiled = table
                .compile(&parse_count(p.requests[q].trim_end()))
                .expect("script query compiles");
            for (shard, pool) in table.shards().iter().zip(&pools) {
                let _ = shard.fetch_matches(&shard.eval(&compiled).0, Some(pool));
            }
        }
        for pool in &pools {
            pool.reset_stats();
        }
        let mut layers = LayerTotals::default();
        // `serve_inlist` must not send a list twice that its script
        // sends once, so its span-free pass takes the ops after the
        // spanned passes'. The other scripts cycle one pool, and their
        // passes send the same ops, so that they compare like with like.
        let plain_from = if kind == Kind::InList { ops } else { 0 };
        for r in 0..ROUNDS {
            let range = r * chunk..(r + 1) * chunk;
            tcp_pass(
                &mut client,
                p,
                plain_from + range.start..plain_from + range.end,
                None,
                &mut plain,
            );
            tcp_pass(&mut client, p, range.clone(), Some(&mut rec), &mut spanned);
            if kind == Kind::Point {
                ebi_obs::set_enabled(true);
                tcp_pass(&mut client, p, range.clone(), None, &mut observed);
                ebi_obs::set_enabled(false);
            }
            layer_pass(
                &table,
                &pools,
                p,
                range,
                &spanned.replies,
                &mut rec,
                &mut layers,
            );
        }
        drop(client);
        let mut buffer = ebi_storage::BufferStats::default();
        for pool in &pools {
            let s = pool.stats();
            buffer.hits += s.hits;
            buffer.misses += s.misses;
            buffer.evictions += s.evictions;
        }
        (layers, buffer)
    });

    let n = ops as f64;
    let checked = trace::check(&rec.spans);
    rec.write_jsonl(&Path::new(OUT_DIR).join(format!("{}.trace.jsonl", run.workload)))
        .expect("write the trace file");
    out.attempted =
        (plain.replies.len() + spanned.replies.len() + observed.replies.len()) as u64 + ops as u64;
    out.failed = plain.failed + spanned.failed + observed.failed + layers.failed;
    out.samples = spanned.latency_ns.len();

    let p50_plain = stats::percentile_us(&plain.latency_ns, 50.0);
    let p50_spanned = stats::percentile_us(&spanned.latency_ns, 50.0);
    out.set("client.p50_us", p50_plain);
    out.set(
        "client.p95_us",
        stats::percentile_us(&plain.latency_ns, 95.0),
    );
    out.set(
        "client.throughput_ops",
        plain.latency_ns.len() as f64 * 1e9 / plain.latency_ns.iter().sum::<u64>() as f64,
    );
    let exec_us = spanned.mean(|r| r.wall_ns) / 1e3;
    let client_us = checked.mean_us(CLIENT, ops);
    let parse_us = checked.mean_us("service.protocol.parse", ops);
    let compile_us = checked.mean_us("service.shard.compile", ops);
    let estimate_us = checked.mean_us("service.shard.estimate", ops);
    let eval_us = checked.mean_us("service.shard.eval", ops);
    let fetch_us = checked.mean_us("storage.buffer.fetch", ops);
    let merge_us = checked.mean_us("service.shard.merge", ops);
    let inside = compile_us + estimate_us + eval_us + fetch_us + merge_us;
    out.set("service.server.exec_us", exec_us);
    out.set("service.server.transport_us", client_us - exec_us);
    out.set("service.server.residual_us", exec_us - inside);
    out.set(
        "service.server.accounted_share",
        (parse_us + inside) / p50_plain,
    );
    out.set(
        "service.server.trace_overhead_pct",
        (p50_spanned / p50_plain - 1.0) * 100.0,
    );
    out.set("service.protocol.parse_us", parse_us);
    out.set("service.shard.compile_us", compile_us);
    out.set("service.shard.estimate_us", estimate_us);
    out.set("service.shard.eval_us", eval_us);
    out.set(
        "service.shard.eval_max_us",
        layers.eval_max_ns as f64 / 1e3 / n,
    );
    out.set("service.shard.merge_us", merge_us);
    out.set("service.shard.build_s", build.as_secs_f64());
    out.set("service.pool.handoff_us", handoff_us());
    out.set_exact(
        "service.pool.dispatched_share",
        spanned.mean(|r| u64::from(r.dispatched)),
    );
    out.set(
        "boolean.qm.reduce_us",
        checked.mean_us("probe.boolean.qm.reduce", ops),
    );
    out.set_exact("boolean.qm.cubes_per_op", layers.cubes as f64 / n);
    out.set_exact("boolean.qm.literals_per_op", layers.literals as f64 / n);
    out.set(
        "core.index.run_dnf_us_per_call",
        eval_us * n / layers.run_dnf_calls as f64,
    );
    out.set(
        "core.index.build_us_per_krow",
        build.as_secs_f64() * 1e6 / (table.rows() as f64 / 1e3),
    );
    out.set_kernel_counts(&layers.cost, n, eval_us);
    let (mut dense, mut roaring, mut wah) = (0u64, 0u64, 0u64);
    for shard in table.shards() {
        for c in 0..table.columns().len() {
            for slice in shard.column_index(c).slices() {
                match slice.kind() {
                    StorageKind::Dense => dense += 1,
                    StorageKind::Roaring => roaring += 1,
                    StorageKind::Wah => wah += 1,
                }
            }
        }
    }
    out.set_exact("bitvec.store.dense_slices", dense as f64);
    out.set_exact("bitvec.store.roaring_slices", roaring as f64);
    out.set_exact("bitvec.store.wah_slices", wah as f64);
    out.set("storage.buffer.fetch_us", fetch_us);
    out.set_exact("storage.buffer.pages_per_op", layers.pages as f64 / n);
    out.set_exact("storage.buffer.hit_ratio", buffer.hit_ratio());
    out.set_exact(
        "storage.buffer.evictions_per_op",
        buffer.evictions as f64 / n,
    );
    if kind == Kind::Point {
        out.set(
            "obs.enabled_overhead_pct",
            (stats::percentile_us(&observed.latency_ns, 50.0) / p50_plain - 1.0) * 100.0,
        );
    }
    out.checked = Some(checked);
    out
}
