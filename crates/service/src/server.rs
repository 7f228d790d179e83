//! The long-running query service: one connection loop, one request
//! path (admission, shard fan-out, merge, report), two frontends that
//! only frame, parse and render.
//!
//! ## Request lifecycle
//!
//! ```text
//! accept → buffer → frame → parse → admit (Permit) → compile once →
//!   fan out to shards on the worker pool → merge at RID offsets →
//!   report → render → one write → release Permit
//! ```
//!
//! Admission is a counting gate ([`AdmissionGate`]): at most
//! `max_inflight` queries hold permits, the rest get `BUSY`/429
//! immediately (closed-loop clients back off, so the bound is also the
//! concurrency ceiling the bench measures against). Fan-out is gated
//! on the plan's work estimate: when the whole query's post-pruning
//! estimate is below [`MIN_PARALLEL_WORK_WORDS`], shard slices are
//! evaluated serially on the connection thread — dispatching tiny
//! bitmaps to workers costs more than scanning them.
//!
//! ## Shutdown protocol
//!
//! `SHUTDOWN` (or `POST /shutdown`) flips the handle; the run loop
//! then (1) drains the gate — no new admissions, every in-flight query
//! writes its response and releases its permit; (2) closes the worker
//! pool — queued shard jobs still run; (3) wakes the accept loops with
//! a loopback connect; (4) joins every scoped thread. No request
//! holding a permit is ever dropped. Connections poll the handle every
//! `IDLE_POLL` (150 ms); the poll never discards buffered bytes, so a request
//! that arrives in pieces across polls is answered like any other.

use crate::error::ServiceError;
use crate::http::{self, HttpRequest};
use crate::pool::{AdmissionGate, FanOut, Refusal, WorkerPool, MIN_PARALLEL_WORK_WORDS};
use crate::protocol::{self, Reply, Request};
use crate::shard::{
    Clause, CompiledQuery, DnfRequest, Predicate, Shard, ShardOutcome, ShardedTable,
};
use ebi_obs::export::{json_array, json_str_array, JsonObject};
use ebi_obs::log as obslog;
use ebi_obs::{
    CostCounters, PhaseNode, QueryReport, RetainedTrace, StorageCounters, TraceContext, TraceRing,
    TraceRingConfig,
};
use ebi_storage::BufferPool;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll interval at which idle connections notice a shutdown.
const IDLE_POLL: Duration = Duration::from_millis(150);

/// Capacity of the recent-trace ring ([`ebi_obs::trace_ring`]).
const TRACE_RING: usize = 64;
/// Slow-query log capacity.
const SLOW_RING: usize = 256;

/// Service configuration; every knob has an `EBI_SERVICE_*` env
/// override (see [`ServiceConfig::from_env`] and the README env table).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// TCP line-protocol bind address (`127.0.0.1:0` = ephemeral).
    pub tcp_addr: String,
    /// HTTP/1.1 bind address.
    pub http_addr: String,
    /// Worker threads for shard fan-out (0 = evaluate on connection
    /// threads).
    pub workers: usize,
    /// Maximum queries in flight at once; excess gets `BUSY`/429.
    pub max_inflight: usize,
    /// Per-request deadline; an expired query answers `ERR timeout`
    /// / 504 and its remaining shard jobs are cancelled, and a request
    /// still incomplete this long after its first byte gets `ERR` / 408.
    pub timeout: Duration,
    /// Buffer-pool frames per shard.
    pub buffer_frames: usize,
    /// Work-estimate floor (words) below which a query is evaluated
    /// serially on the connection thread instead of fanned out.
    /// Defaults to [`MIN_PARALLEL_WORK_WORDS`].
    pub min_dispatch_words: u64,
    /// Fixed slow-query threshold in milliseconds; `None` uses the
    /// rolling p99 estimate.
    pub slow_query_ms: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let cores = ebi_core::parallel::host_cores();
        Self {
            tcp_addr: "127.0.0.1:0".into(),
            http_addr: "127.0.0.1:0".into(),
            workers: cores.saturating_sub(1).clamp(1, 8),
            max_inflight: 8,
            timeout: Duration::from_secs(10),
            buffer_frames: 64,
            min_dispatch_words: MIN_PARALLEL_WORK_WORDS,
            slow_query_ms: None,
        }
    }
}

impl ServiceConfig {
    /// Defaults overridden by `EBI_SERVICE_ADDR`,
    /// `EBI_SERVICE_HTTP_ADDR`, `EBI_SERVICE_WORKERS`,
    /// `EBI_SERVICE_MAX_INFLIGHT`, `EBI_SERVICE_TIMEOUT_MS`,
    /// `EBI_SERVICE_MIN_DISPATCH_WORDS` and `EBI_SLOW_QUERY_MS`.
    #[must_use]
    pub fn from_env() -> Self {
        let text = |name: &str| std::env::var(name).ok();
        let number = |name: &str| text(name)?.trim().parse::<u64>().ok();
        let d = Self::default();
        Self {
            tcp_addr: text("EBI_SERVICE_ADDR").unwrap_or(d.tcp_addr),
            http_addr: text("EBI_SERVICE_HTTP_ADDR").unwrap_or(d.http_addr),
            workers: number("EBI_SERVICE_WORKERS").map_or(d.workers, |v| v as usize),
            max_inflight: number("EBI_SERVICE_MAX_INFLIGHT")
                .map_or(d.max_inflight, |v| v.max(1) as usize),
            timeout: number("EBI_SERVICE_TIMEOUT_MS").map_or(d.timeout, Duration::from_millis),
            buffer_frames: d.buffer_frames,
            min_dispatch_words: number("EBI_SERVICE_MIN_DISPATCH_WORDS")
                .unwrap_or(d.min_dispatch_words),
            slow_query_ms: number("EBI_SLOW_QUERY_MS").or(d.slow_query_ms),
        }
    }
}

#[derive(Debug)]
struct HandleInner {
    stopping: AtomicBool,
    /// The thread inside [`run`], parked until shutdown begins.
    runner: std::thread::Thread,
    tcp: SocketAddr,
    http: SocketAddr,
}

/// A cloneable handle to a running service: its bound addresses and
/// the shutdown trigger.
#[derive(Debug, Clone)]
pub struct ServiceHandle {
    inner: Arc<HandleInner>,
}

impl ServiceHandle {
    /// Address the TCP line protocol is listening on.
    #[must_use]
    pub fn tcp_addr(&self) -> SocketAddr {
        self.inner.tcp
    }

    /// Address the HTTP frontend is listening on.
    #[must_use]
    pub fn http_addr(&self) -> SocketAddr {
        self.inner.http
    }

    /// Begins graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.inner.stopping.store(true, Ordering::Release);
        self.inner.runner.unpark();
    }

    fn is_stopping(&self) -> bool {
        self.inner.stopping.load(Ordering::Acquire)
    }

    fn wait(&self) {
        while !self.is_stopping() {
            std::thread::park();
        }
    }
}

/// Lifetime totals returned by [`run`] after shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceSummary {
    /// Queries answered (COUNT/QUERY/EXPLAIN with a result).
    pub served: u64,
    /// Admissions refused at the in-flight bound.
    pub rejected_busy: u64,
    /// Admissions refused during drain.
    pub rejected_draining: u64,
    /// Queries that hit the per-request deadline.
    pub timeouts: u64,
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    rejected_busy: AtomicU64,
    rejected_draining: AtomicU64,
    timeouts: AtomicU64,
}

/// Everything a connection thread needs, borrowed for the serve scope.
///
/// Two lifetimes by necessity: `'env` is the data region the worker
/// pool's queued jobs may borrow (table, buffer pools, gate — all
/// declared before the pool so they outlive its drop), while `'p` is
/// the strictly shorter region in which the pool itself is borrowed
/// (dropck forbids `&'env WorkerPool<'env>`: the pool's destructor may
/// run queued `'env` jobs, so `'env` must outlive the pool).
struct ServeCtx<'p, 'env: 'p> {
    table: &'env ShardedTable,
    pools: &'env [BufferPool<'env>],
    workers: &'p WorkerPool<'env>,
    gate: &'env AdmissionGate,
    counters: &'env Counters,
    ring: &'env TraceRing,
    cfg: &'env ServiceConfig,
    handle: ServiceHandle,
    started: Instant,
}

/// The result of one executed query.
struct Answer {
    /// The retained trace, which owns the full query report (phases,
    /// cost, per-shard layouts).
    retained: Arc<RetainedTrace>,
    /// The answer object, the same on both protocols.
    body: String,
}

/// Runs the service until a graceful shutdown completes.
///
/// Binds both listeners, spawns the worker pool and accept loops on
/// scoped threads (so shards and buffer pools are *borrowed*, never
/// leaked), then hands a [`ServiceHandle`] to `on_ready` — typically
/// sent over a channel to the controlling thread or used to print the
/// bound addresses.
///
/// # Errors
///
/// Fails only on listener bind errors; per-connection errors are
/// contained.
pub fn run(
    table: &ShardedTable,
    cfg: &ServiceConfig,
    on_ready: impl FnOnce(ServiceHandle) + Send,
) -> Result<ServiceSummary, ServiceError> {
    let tcp = TcpListener::bind(&cfg.tcp_addr)?;
    let http = TcpListener::bind(&cfg.http_addr)?;
    let handle = ServiceHandle {
        inner: Arc::new(HandleInner {
            stopping: AtomicBool::new(false),
            runner: std::thread::current(),
            tcp: tcp.local_addr()?,
            http: http.local_addr()?,
        }),
    };
    let pools: Vec<BufferPool<'_>> = table
        .shards()
        .iter()
        .map(|s| BufferPool::new(s.pager(), cfg.buffer_frames.max(1)))
        .collect();
    // Declaration order fixes drop order: the worker pool (whose queued
    // jobs borrow everything above) must drop before the gate, counters
    // and buffer pools those jobs reference.
    let gate = AdmissionGate::new(cfg.max_inflight);
    let counters = Counters::default();
    let ring = TraceRing::new(TraceRingConfig {
        capacity: TRACE_RING,
        slow_capacity: SLOW_RING,
        slow_threshold_ns: cfg.slow_query_ms.map(|ms| ms.saturating_mul(1_000_000)),
    });
    let workers = WorkerPool::new(cfg.workers);
    let ctx = ServeCtx {
        table,
        pools: &pools,
        workers: &workers,
        gate: &gate,
        counters: &counters,
        ring: &ring,
        cfg,
        handle: handle.clone(),
        started: Instant::now(),
    };
    obslog::info("service.server", "service listening")
        .str("tcp", &handle.tcp_addr().to_string())
        .str("http", &handle.http_addr().to_string())
        .u64("workers", cfg.workers as u64)
        .u64("max_inflight", cfg.max_inflight as u64);
    crossbeam::thread::scope(|scope| {
        for i in 0..cfg.workers {
            let w = &workers;
            scope.spawn(move |_| w.run_worker(i));
        }
        let ctx_ref = &ctx;
        scope.spawn(move |s| accept_loop(s, &tcp, ctx_ref, Proto::Tcp));
        scope.spawn(move |s| accept_loop(s, &http, ctx_ref, Proto::Http));
        on_ready(handle.clone());
        handle.wait();
        // Drain: refuse new work, let every query in flight answer.
        obslog::info("service.server", "draining").u64("inflight", gate.inflight() as u64);
        gate.begin_drain();
        gate.await_drain();
        workers.close();
        // Unblock the listeners stuck in `accept` so they see the flag.
        for addr in [handle.tcp_addr(), handle.http_addr()] {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        }
    })
    .expect("service threads joined");
    Ok(ServiceSummary {
        served: counters.served.load(Ordering::Relaxed),
        rejected_busy: counters.rejected_busy.load(Ordering::Relaxed),
        rejected_draining: counters.rejected_draining.load(Ordering::Relaxed),
        timeouts: counters.timeouts.load(Ordering::Relaxed),
    })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Proto {
    Tcp,
    Http,
}

impl Proto {
    fn label(self) -> &'static str {
        match self {
            Self::Tcp => "tcp",
            Self::Http => "http",
        }
    }
}

// The scope's data lifetime `'env` and the worker pool's job lifetime
// inside `ServeCtx` are deliberately distinct parameters: unifying them
// would drag every scoped-thread capture into the pool's dropck region.
fn accept_loop<'scope, 'env, 'p, 'data>(
    scope: &crossbeam::thread::Scope<'scope, 'env>,
    listener: &TcpListener,
    ctx: &'scope ServeCtx<'p, 'data>,
    proto: Proto,
) {
    for stream in listener.incoming() {
        if ctx.handle.is_stopping() {
            break;
        }
        let Ok(stream) = stream else { continue };
        scope.spawn(move |_| serve_conn(ctx, stream, proto));
    }
}

fn record_request(proto: Proto, status: &'static str, ns: u64) {
    if !ebi_obs::enabled() {
        return;
    }
    let reg = ebi_obs::metrics::global();
    reg.counter(
        "ebi_service_requests_total",
        &[("proto", proto.label()), ("status", status)],
    )
    .inc();
    reg.histogram("ebi_service_request_ns", &[("proto", proto.label())])
        .record(ns);
}

/// One request framed off the connection buffer and answered, not yet
/// rendered.
struct Answered {
    reply: Reply,
    /// The trace the reply belongs to, if any.
    tctx: Option<TraceContext>,
    /// Buffered bytes the request occupied.
    consumed: usize,
    keep_alive: bool,
}

impl Answered {
    /// The answer to bytes that will not become a request: no trace,
    /// nothing consumed, close after the reply.
    fn rejected(reply: Reply) -> Self {
        Self {
            reply,
            tctx: None,
            consumed: 0,
            keep_alive: false,
        }
    }
}

/// Serves one connection. Bytes accumulate in `buf` until the
/// protocol's framing function finds a complete request at its front;
/// a read timeout only polls for shutdown and the request deadline, it
/// never discards what has arrived. What one client can make the
/// server hold is bounded by the framing caps (`MAX_HEAD_BYTES`, plus
/// `MAX_BODY_BYTES` on HTTP) and one read chunk.
fn serve_conn(ctx: &ServeCtx<'_, '_>, mut stream: TcpStream, proto: Proto) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    // When the first byte of the request now in `buf` arrived.
    let mut first_byte = Instant::now();
    loop {
        let started = Instant::now();
        let answered = match next_answer(ctx, proto, &buf) {
            Some(a) => a,
            None => match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => {
                    if buf.is_empty() {
                        first_byte = Instant::now();
                    }
                    buf.extend_from_slice(&chunk[..n]);
                    continue;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if ctx.handle.is_stopping() {
                        return;
                    }
                    if buf.is_empty() || first_byte.elapsed() < ctx.cfg.timeout {
                        continue;
                    }
                    Answered::rejected(Reply::Incomplete)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            },
        };
        // Decided after the request ran: a shutdown it began closes too.
        let keep = answered.keep_alive && !ctx.handle.is_stopping();
        let out = match proto {
            Proto::Tcp => answered.reply.to_line().into_bytes(),
            Proto::Http => http::render(&answered.reply, answered.tctx.as_ref(), keep),
        };
        let sent = stream.write_all(&out).is_ok();
        let ns = started.elapsed().as_nanos() as u64;
        record_request(proto, answered.reply.status(), ns);
        if !keep || !sent {
            return;
        }
        // Whatever follows was pipelined behind this request.
        buf.drain(..answered.consumed);
        first_byte = Instant::now();
    }
}

/// Frames the request at the front of `buf`, if it is all there, and
/// answers it. A frontend contributes framing and parsing here and
/// rendering in [`serve_conn`]; what a request *does* is [`respond`]'s.
fn next_answer(ctx: &ServeCtx<'_, '_>, proto: Proto, buf: &[u8]) -> Option<Answered> {
    let answered = match proto {
        Proto::Tcp => protocol::frame_line(buf).map(|framed| {
            let (line, consumed) = framed?;
            // A leading `TRACEPARENT <value>` field is the line
            // protocol's `traceparent` header.
            let (tp, line) = protocol::split_traceparent(line);
            let tctx = trace_context(tp);
            Some(Answered {
                reply: respond(ctx, proto, protocol::parse_request(line), &tctx),
                tctx: Some(tctx),
                consumed,
                keep_alive: true,
            })
        }),
        Proto::Http => http::parse_request(buf).map(|framed| {
            let (req, consumed) = framed?;
            let (reply, tctx) = match http::to_request(&req) {
                Some(request) => {
                    let tctx = trace_context(req.traceparent.as_deref());
                    (respond(ctx, proto, request, &tctx), Some(tctx))
                }
                None => (dump(ctx, &req), None),
            };
            Some(Answered {
                reply,
                tctx,
                consumed,
                keep_alive: req.keep_alive,
            })
        }),
    };
    answered.unwrap_or_else(|reply| Some(Answered::rejected(reply)))
}

/// Adopts the client's W3C `traceparent`, or mints a fresh identity
/// when it is absent or malformed.
fn trace_context(traceparent: Option<&str>) -> TraceContext {
    traceparent
        .and_then(TraceContext::parse)
        .unwrap_or_else(TraceContext::mint)
}

/// The HTTP-only pages — registry and trace dumps with no line-protocol
/// counterpart — and the 404 for everything else.
fn dump(ctx: &ServeCtx<'_, '_>, req: &HttpRequest) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => Reply::Text(ebi_obs::metrics::global().render_prometheus()),
        ("GET", "/debug/vars") => Reply::Json(vars_json(ctx)),
        ("GET", path) if path.starts_with("/debug/trace/") => {
            match ctx.ring.find(&path["/debug/trace/".len()..]) {
                Some(t) => Reply::Answer {
                    body: ebi_obs::chrome::retained_to_chrome(&t),
                    traceparent: t.traceparent(),
                },
                None => Reply::NotFound("no such trace"),
            }
        }
        _ => Reply::NotFound("not found"),
    }
}

/// Acts on one parsed request: the only place admission, execution,
/// counters and request logging happen. `tctx` is the request's trace
/// identity; every query outcome, refusals included, is logged under
/// it so the client can correlate with the server's logs.
fn respond(
    ctx: &ServeCtx<'_, '_>,
    proto: Proto,
    request: Result<Request, String>,
    tctx: &TraceContext,
) -> Reply {
    let (dnf, limit, explain) = match request {
        Err(msg) => return Reply::Bad(msg),
        Ok(Request::Ping) => return Reply::Pong,
        Ok(Request::Stats) => return Reply::Json(stats_json(ctx)),
        Ok(Request::Shutdown) => {
            ctx.handle.shutdown();
            return Reply::ShuttingDown;
        }
        Ok(Request::Traces(n)) => return trace_page(&ctx.ring.recent(), n),
        Ok(Request::Slow(n)) => return trace_page(&ctx.ring.slow(), n),
        Ok(Request::Count(d)) => (d, 0, false),
        Ok(Request::Query(d, limit)) => (d, limit, false),
        Ok(Request::Explain(d)) => (d, 0, true),
    };
    let permit = match ctx.gate.try_admit() {
        Ok(p) => p,
        Err(refusal) => {
            let (counter, reply) = match refusal {
                Refusal::Busy => (&ctx.counters.rejected_busy, Reply::Busy),
                Refusal::Draining => (&ctx.counters.rejected_draining, Reply::Draining),
            };
            counter.fetch_add(1, Ordering::Relaxed);
            obslog::debug("service.server", "admission rejected")
                .ctx(tctx)
                .str("proto", proto.label())
                .str("reason", reply.error().unwrap_or_default());
            return reply;
        }
    };
    let reply = match execute(ctx, &dnf, limit, *tctx) {
        Ok(Answer { retained, mut body }) => {
            ctx.counters.served.fetch_add(1, Ordering::Relaxed);
            if explain {
                body = JsonObject::new()
                    .raw("result", &body)
                    .str("explain", &retained.report.explain_analyze())
                    .finish();
            }
            Reply::Answer {
                body,
                traceparent: retained.traceparent(),
            }
        }
        Err(Reply::TimedOut) => {
            ctx.counters.timeouts.fetch_add(1, Ordering::Relaxed);
            obslog::warn("service.server", "query timeout")
                .ctx(tctx)
                .str("proto", proto.label())
                .u64("timeout_ms", ctx.cfg.timeout.as_millis() as u64);
            Reply::TimedOut
        }
        Err(reply) => reply,
    };
    // The permit outlives rendering the body: a drain that begins
    // mid-query waits for this answer to be fully built.
    drop(permit);
    reply
}

/// The newest `n` of `traces` as a page of JSON lines.
fn trace_page(traces: &[Arc<RetainedTrace>], n: usize) -> Reply {
    let tail = &traces[traces.len().saturating_sub(n)..];
    Reply::Page(TraceRing::render_json_lines(tail))
}

/// Compiles, fans out, merges and reports one query in flight; the
/// error is the reply of a query that produced no answer. `tctx` is
/// the request's trace identity: it correlates the retained trace, the
/// structured log lines, and the `traceparent` echoed in the answer.
///
/// The answer body is `{query_id, trace, matches, rows[], wall_ns,
/// dispatched, vectors_accessed}`.
fn execute(
    ctx: &ServeCtx<'_, '_>,
    dnf: &DnfRequest,
    limit: usize,
    tctx: TraceContext,
) -> Result<Answer, Reply> {
    let started = Instant::now();
    let query_id = ebi_obs::next_query_id();
    let trace = ebi_obs::Trace::begin();
    let table = ctx.table;
    let n = table.shards().len();

    let mut root = trace.root_span("query");
    root.attr("query_id", query_id);

    let compiled = {
        let _span = root.child("compile");
        match table.compile(dnf) {
            Ok(c) => Arc::new(c),
            Err(e) => return Err(Reply::Bad(e.to_string())),
        }
    };

    // When the whole query's post-pruning kernel traffic is below the
    // dispatch floor, handing slices to workers costs more than
    // scanning them on this thread.
    let estimate = table.estimated_work_words(&compiled);
    let dispatched = ctx.workers.workers() > 0 && n > 1 && estimate >= ctx.cfg.min_dispatch_words;

    let outcomes: Vec<Option<ShardOutcome>> = {
        let mut fan_span = root.child("fanout");
        fan_span.attr("shards", n as u64);
        fan_span.attr("estimated_work_words", estimate);
        fan_span.attr("dispatched", u64::from(dispatched));
        let parent = fan_span.handle();
        if dispatched {
            let fan = Arc::new(FanOut::<ShardOutcome>::new(n));
            for shard in table.shards() {
                let fan = Arc::clone(&fan);
                let compiled = Arc::clone(&compiled);
                let i = shard.id();
                let pool = &ctx.pools[i];
                ctx.workers.submit(Box::new(move || {
                    // A job that starts after the waiter gave up skips
                    // its work but still counts as complete.
                    let live = !fan.is_cancelled();
                    fan.complete(i, live.then(|| eval_shard(shard, pool, &compiled, parent)));
                }));
            }
            match fan.wait(ctx.cfg.timeout) {
                Some(results) => results,
                None => return Err(Reply::TimedOut),
            }
        } else {
            table
                .shards()
                .iter()
                .map(|s| Some(eval_shard(s, &ctx.pools[s.id()], &compiled, parent)))
                .collect()
        }
    };

    let (bitmap, matches, cost, storage) = {
        let mut span = root.child("merge");
        let mut cost = CostCounters::default();
        let mut storage = StorageCounters::default();
        // Cancelled shards left no outcome and contribute nothing.
        let answered = || outcomes.iter().flatten();
        for o in answered() {
            cost += o.cost;
            storage.pager_reads += o.buffer.1; // misses reach the pager
            storage.buffer_hits += o.buffer.0;
            storage.buffer_misses += o.buffer.1;
            storage.buffer_evictions += o.buffer.2;
        }
        let bitmap = table.merge(answered().map(|o| (o.shard, &o.bitmap)));
        let matches = bitmap.count_ones() as u64;
        span.attr("matches", matches);
        (bitmap, matches, cost, storage)
    };

    drop(root);
    let records = trace.finish();
    let rows: Vec<String> = bitmap
        .iter_ones()
        .take(limit)
        .map(|r| r.to_string())
        .collect();
    let report = QueryReport {
        query_id,
        label: render_label(dnf),
        rows: table.rows() as u64,
        matches,
        wall_ns: started.elapsed().as_nanos() as u64,
        expressions: compiled.rendered(),
        phases: PhaseNode::forest(&records),
        cost,
        storage,
    };
    if ebi_obs::enabled() {
        report.publish(ebi_obs::metrics::global());
    }
    // Tail sampling is always on: the ring keeps the N most recent
    // traces plus everything over the slow threshold, independent of
    // the span subscriber (with it disabled the retained report simply
    // has no phase tree). The ring owns the report from here on.
    let retained = ctx.ring.record(tctx, query_id, report);
    if retained.slow {
        if ebi_obs::enabled() {
            ebi_obs::metrics::global()
                .counter("ebi_service_slow_queries_total", &[])
                .inc();
        }
        obslog::warn("service.server", "slow query")
            .ctx(&tctx)
            .query(query_id)
            .u64("wall_ns", retained.wall_ns)
            .u64("threshold_ns", retained.threshold_ns)
            .str("label", &retained.report.label);
    }
    let report = &retained.report;
    let body = JsonObject::new()
        .u64("query_id", query_id)
        .str("trace", &retained.traceparent())
        .u64("matches", matches)
        .raw("rows", &json_array(&rows))
        .u64("wall_ns", report.wall_ns)
        .bool("dispatched", dispatched)
        .u64("vectors_accessed", report.cost.vectors_accessed)
        .finish();
    Ok(Answer { retained, body })
}

/// Evaluates one shard and fetches its matching heap pages — the unit
/// of work a pool worker runs, wrapped in an `eval.worker` span hung
/// off the query's `fanout` span (cross-thread parentage via the
/// captured handle). The span carries the owning trace id (`trace`
/// attribute) so pool hand-off is checkable end to end, and per-shard
/// latency lands in `shard`-labelled service metrics so fan-out skew
/// shows in a scrape.
///
/// Public for the telemetry proptests and benches, which drive real
/// shard evaluations through a [`WorkerPool`] without a socket.
pub fn eval_shard(
    shard: &Shard,
    pool: &BufferPool<'_>,
    compiled: &CompiledQuery,
    parent: ebi_obs::SpanHandle,
) -> ShardOutcome {
    let started = Instant::now();
    let mut span = parent.child("eval.worker");
    let (bitmap, cost) = shard.eval(compiled);
    let before = pool.stats();
    let fetched = shard.fetch_pages(&bitmap, Some(pool));
    let after = pool.stats();
    let buffer = (
        after.hits.saturating_sub(before.hits),
        after.misses.saturating_sub(before.misses),
        after.evictions.saturating_sub(before.evictions),
    );
    let wall_ns = started.elapsed().as_nanos() as u64;
    if span.is_live() {
        span.attr("trace", parent.trace());
        span.attr("shard", shard.id() as u64);
        span.attr("rows", shard.rows() as u64);
        span.attr("matches", bitmap.count_ones() as u64);
        span.attr("vectors_accessed", cost.vectors_accessed);
        span.attr("pages", fetched.pages);
        if fetched.errors > 0 {
            span.attr("errors", fetched.errors);
        }
    }
    if ebi_obs::enabled() {
        let reg = ebi_obs::metrics::global();
        let sid = shard.id().to_string();
        reg.counter("ebi_service_shard_evals_total", &[("shard", &sid)])
            .inc();
        reg.histogram("ebi_service_shard_eval_ns", &[("shard", &sid)])
            .record(wall_ns);
    }
    ShardOutcome {
        shard: shard.id(),
        bitmap,
        cost,
        buffer,
    }
}

/// The query as the grammar would spell it, for reports and logs.
fn render_label(dnf: &DnfRequest) -> String {
    let clause = |c: &Clause| match &c.predicate {
        Predicate::Eq(v) => format!("{}={v}", c.column),
        Predicate::In(vs) => {
            let list: Vec<String> = vs.iter().map(u64::to_string).collect();
            format!("{} IN {}", c.column, list.join(","))
        }
        Predicate::Between(lo, hi) => format!("{} BETWEEN {lo} {hi}", c.column),
    };
    let conjunction = |d: &Vec<Clause>| d.iter().map(clause).collect::<Vec<_>>().join(" AND ");
    let disjuncts: Vec<String> = dnf.disjuncts.iter().map(conjunction).collect();
    disjuncts.join(" OR ")
}

/// Admission state and lifetime totals, in the order `STATS` and
/// `/debug/vars` both print them.
fn admission_json<'o>(ctx: &ServeCtx<'_, '_>, obj: &'o mut JsonObject) -> &'o mut JsonObject {
    let total = |c: &AtomicU64| c.load(Ordering::Relaxed);
    obj.u64("inflight", ctx.gate.inflight() as u64)
        .u64("max_inflight", ctx.gate.max_inflight() as u64)
        .u64("workers", ctx.workers.workers() as u64)
        .u64("served", total(&ctx.counters.served))
        .u64("rejected_busy", total(&ctx.counters.rejected_busy))
        .u64("rejected_draining", total(&ctx.counters.rejected_draining))
        .u64("timeouts", total(&ctx.counters.timeouts))
}

fn stats_json(ctx: &ServeCtx<'_, '_>) -> String {
    let mut obj = JsonObject::new();
    obj.u64("rows", ctx.table.rows() as u64)
        .u64("shards", ctx.table.shards().len() as u64)
        .raw("columns", &json_str_array(ctx.table.columns()));
    admission_json(ctx, &mut obj)
        .u64("uptime_ms", ctx.started.elapsed().as_millis() as u64)
        .u64("slow_queries", ctx.ring.slow_total())
        .u64("traces_recorded", ctx.ring.total())
        .u64("slow_threshold_ns", ctx.ring.threshold_ns())
        .bool("draining", ctx.handle.is_stopping())
        .finish()
}

/// `/debug/vars`: build identity, uptime, admission/ring state, and a
/// full JSON dump of the metrics registry (one object per instrument,
/// histograms with their complete cumulative bucket series).
fn vars_json(ctx: &ServeCtx<'_, '_>) -> String {
    let metrics: Vec<String> = ebi_obs::metrics::global()
        .render_json_lines()
        .lines()
        .map(str::to_string)
        .collect();
    let mut obj = JsonObject::new();
    obj.str("build", concat!("ebi-service/", env!("CARGO_PKG_VERSION")))
        .u64("uptime_ms", ctx.started.elapsed().as_millis() as u64);
    admission_json(ctx, &mut obj)
        .u64("traces_recorded", ctx.ring.total())
        .u64("traces_retained", ctx.ring.recent().len() as u64)
        .u64("slow_queries", ctx.ring.slow_total())
        .u64("slow_retained", ctx.ring.slow().len() as u64)
        .u64("slow_threshold_ns", ctx.ring.threshold_ns())
        .u64("trace_ring_capacity", TRACE_RING as u64)
        .u64("slow_ring_capacity", SLOW_RING as u64)
        .bool("draining", ctx.handle.is_stopping())
        .raw("metrics", &json_array(&metrics))
        .finish()
}
