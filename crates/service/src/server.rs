//! The long-running query service: one connection loop, one request
//! path (admission, morsel evaluation, gather, report), two frontends
//! that only frame, parse and render.
//!
//! ## Request lifecycle
//!
//! ```text
//! accept → buffer → frame → parse → admit (Permit) → compile once →
//!   evaluate in morsels (inline, or split across the worker pool) →
//!   gather (sum the morsels' counts) → report → render (ids
//!   `w0·64 + j`, morsel by morsel) → one write → release Permit
//! ```
//!
//! An answer reads only the morsel bitmaps: no table-sized bitmap is
//! built and no heap page is read. `EXPLAIN` alone counts the pages its
//! answer spans, from the same bitmaps, on global row ids.
//!
//! Admission is a counting gate ([`AdmissionGate`]): at most
//! `max_inflight` queries hold permits, the rest get `BUSY`/429
//! immediately (closed-loop clients back off, so the bound is also the
//! concurrency ceiling the bench measures against). Connections are
//! capped the same way: past [`MAX_CONNECTIONS`] live ones, the accept
//! loop answers `BUSY`/429 itself and closes, spawning nothing.
//!
//! A request splits into `min(workers, windows)` morsels of the table's
//! kernel windows, and goes to the pool only when that is at least two
//! and the whole query's post-pruning work estimate reaches the
//! dispatch floor ([`MIN_PARALLEL_WORK_WORDS`] by default). Otherwise it
//! runs on the connection thread as one morsel, with no hand-off:
//! dispatching a small evaluation costs more than running it.
//!
//! ## Shutdown protocol
//!
//! `SHUTDOWN` (or `POST /shutdown`) flips the handle; the run loop
//! then (1) drains the gate — no new admissions, every in-flight query
//! writes its response and releases its permit; (2) closes the worker
//! pool — queued morsel jobs still run; (3) wakes the accept loops with
//! a loopback connect; (4) joins every scoped thread. No request
//! holding a permit is ever dropped. Connections poll the handle every
//! `IDLE_POLL` (150 ms); the poll never discards buffered bytes, so a request
//! that arrives in pieces across polls is answered like any other.

use crate::error::ServiceError;
use crate::http::{self, HttpRequest};
use crate::pool::{AdmissionGate, FanOut, Refusal, WorkerPool, MIN_PARALLEL_WORK_WORDS};
use crate::protocol::{self, Reply, Request, STATUSES};
use crate::shard::{CompiledQuery, DnfRequest, MorselOutcome, ShardedTable};
use crate::trace_ring::{self, RetainedTrace, TraceRing};
use ebi_bitvec::{SEGMENT_WORDS, WORD_BITS};
use ebi_obs::export::{json_str_array, JsonObject};
use ebi_obs::log as obslog;
use ebi_obs::metrics::{write_counter, write_histogram};
use ebi_obs::{CostCounters, Counter, Histogram, QueryReport, TraceContext};
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll interval at which idle connections notice a shutdown.
const IDLE_POLL: Duration = Duration::from_millis(150);

/// Connections served at once, both protocols together; each holds one
/// thread. Far above any admission bound a host can use, so a refused
/// connection means a connection storm, not load.
pub const MAX_CONNECTIONS: usize = 128;

/// Service configuration. [`ServiceConfig::from_env`] reads the env
/// overrides it names (the README env table); `buffer_frames` has none.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// TCP line-protocol bind address (`127.0.0.1:0` = ephemeral).
    pub tcp_addr: String,
    /// HTTP/1.1 bind address.
    pub http_addr: String,
    /// Worker threads that evaluate morsels (0 = evaluate on connection
    /// threads).
    pub workers: usize,
    /// Maximum queries in flight at once; excess gets `BUSY`/429.
    pub max_inflight: usize,
    /// Per-request deadline; an expired query answers `ERR timeout`
    /// / 504 and its remaining morsel jobs are cancelled, and a request
    /// still incomplete this long after its first byte gets `ERR` / 408.
    pub timeout: Duration,
    /// Unused: the service reads no page. Kept for `benchmark/`'s
    /// replay; goes with B2.
    pub buffer_frames: usize,
    /// Work-estimate floor (words) below which a query is evaluated as
    /// one morsel on the connection thread instead of split across the
    /// pool. Defaults to [`MIN_PARALLEL_WORK_WORDS`].
    pub min_dispatch_words: u64,
    /// Fixed slow-query threshold in milliseconds; `None` uses the
    /// rolling p99 estimate.
    pub slow_query_ms: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let cores = host_cores();
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

/// Cores the host exposes, read once per process: the query is a
/// `sched_getaffinity` call plus cgroup file reads, far too slow for a
/// per-request path. The one sanctioned caller (clippy.toml disallows
/// the std call everywhere else).
#[allow(clippy::disallowed_methods)]
fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

impl ServiceConfig {
    /// Defaults overridden by `EBI_SERVICE_ADDR`,
    /// `EBI_SERVICE_HTTP_ADDR`, `EBI_SERVICE_WORKERS`,
    /// `EBI_SERVICE_MAX_INFLIGHT`, `EBI_SERVICE_TIMEOUT_MS`,
    /// `EBI_SERVICE_MIN_DISPATCH_WORDS` and `EBI_SLOW_QUERY_MS`. A
    /// timeout of 0 keeps the default, as an unparsable one does: a zero
    /// deadline would fail every query the pool is handed.
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
            timeout: number("EBI_SERVICE_TIMEOUT_MS")
                .filter(|&ms| ms > 0)
                .map_or(d.timeout, Duration::from_millis),
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

/// What the service counts, each event once, where it happens.
/// `/metrics` ([`metrics_text`]) reads these with the trace ring's
/// latency and slow count.
#[derive(Default)]
struct Counters {
    served: Counter,
    rejected_busy: Counter,
    rejected_draining: Counter,
    timeouts: Counter,
    /// Morsel evaluations and connections that panicked.
    panics: Counter,
    /// Connections being served now, against [`MAX_CONNECTIONS`].
    live_connections: AtomicUsize,
    /// Requests by [`Proto`] and by reply status ([`STATUSES`]).
    requests: [[Counter; STATUSES.len()]; 2],
    /// Request latency by [`Proto`], from framing to the written reply.
    request_ns: [Histogram; 2],
    /// Morsel evaluation latency, one sample per morsel.
    eval_ns: Histogram,
    /// The cost of every answered query, summed.
    cost: Mutex<CostCounters>,
    vectors_accessed: Histogram,
    words_scanned: Histogram,
    bytes_touched: Histogram,
}

impl Counters {
    fn record_request(&self, proto: Proto, status: &str, ns: u64) {
        let s = STATUSES.iter().position(|&known| known == status);
        self.requests[proto as usize][s.unwrap_or(STATUSES.len() - 1)].inc();
        self.request_ns[proto as usize].record(ns);
    }

    fn record_query(&self, cost: CostCounters) {
        self.vectors_accessed.record(cost.vectors_accessed);
        self.words_scanned.record(cost.words_scanned);
        self.bytes_touched.record(cost.bytes_touched);
        *self.cost.lock() += cost;
    }
}

/// Everything a connection thread needs, borrowed for the serve scope.
///
/// Two lifetimes by necessity: `'env` is the data region the worker
/// pool's queued jobs may borrow (table, gate, counters — all
/// declared before the pool so they outlive its drop), while `'p` is
/// the strictly shorter region in which the pool itself is borrowed
/// (dropck forbids `&'env WorkerPool<'env>`: the pool's destructor may
/// run queued `'env` jobs, so `'env` must outlive the pool).
struct ServeCtx<'p, 'env: 'p> {
    table: &'env ShardedTable,
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
    /// The retained trace: the request and how it ran.
    retained: Arc<RetainedTrace>,
    /// The answer object, the same on both protocols.
    body: String,
}

/// Runs the service until a graceful shutdown completes.
///
/// Binds both listeners, spawns the worker pool and accept loops on
/// scoped threads (so the table is *borrowed*, never leaked), then
/// hands a [`ServiceHandle`] to `on_ready` — typically sent over a
/// channel to the controlling thread or used to print the bound
/// addresses.
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
    // Declaration order fixes drop order: the worker pool (whose queued
    // jobs borrow everything above) must drop before the gate and
    // counters those jobs reference.
    let gate = AdmissionGate::new(cfg.max_inflight);
    let counters = Counters::default();
    let ring = TraceRing::new(cfg.slow_query_ms.map(|ms| ms.saturating_mul(1_000_000)));
    let workers = WorkerPool::new(cfg.workers);
    let ctx = ServeCtx {
        table,
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
    std::thread::scope(|scope| {
        for i in 0..cfg.workers {
            let w = &workers;
            scope.spawn(move || w.run_worker(i));
        }
        let ctx_ref = &ctx;
        scope.spawn(move || accept_loop(scope, &tcp, ctx_ref, Proto::Tcp));
        scope.spawn(move || accept_loop(scope, &http, ctx_ref, Proto::Http));
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
    });
    Ok(ServiceSummary {
        served: counters.served.get(),
        rejected_busy: counters.rejected_busy.get(),
        rejected_draining: counters.rejected_draining.get(),
        timeouts: counters.timeouts.get(),
    })
}

/// A frontend; its discriminant indexes the per-protocol counters.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Proto {
    Tcp,
    Http,
}

const PROTOS: [Proto; 2] = [Proto::Tcp, Proto::Http];

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
    scope: &'scope std::thread::Scope<'scope, 'env>,
    listener: &TcpListener,
    ctx: &'scope ServeCtx<'p, 'data>,
    proto: Proto,
) {
    for stream in listener.incoming() {
        if ctx.handle.is_stopping() {
            break;
        }
        let Ok(stream) = stream else { continue };
        // A count that publishes no other data: `Relaxed` suffices.
        let live = &ctx.counters.live_connections;
        if live.fetch_add(1, Ordering::Relaxed) >= MAX_CONNECTIONS {
            live.fetch_sub(1, Ordering::Relaxed);
            ctx.counters.rejected_busy.inc();
            refuse_connection(stream, proto);
            continue;
        }
        scope.spawn(move || {
            // `contain_conn` returns even when the connection panics, so
            // the place is always given back.
            contain_conn(ctx.counters, proto, || serve_conn(ctx, stream, proto));
            live.fetch_sub(1, Ordering::Relaxed);
        });
    }
}

/// Answers a connection over [`MAX_CONNECTIONS`] with its protocol's
/// busy reply and closes it, on the accept thread without blocking it.
/// Bytes the client already sent are read first, so the close does not
/// reset the connection before the reply arrives.
fn refuse_connection(mut stream: TcpStream, proto: Proto) {
    let reply = match proto {
        Proto::Tcp => Reply::Busy.to_line().into_bytes(),
        Proto::Http => http::render(&Reply::Busy, None, false),
    };
    let _ = stream.set_nonblocking(true);
    let _ = stream.read(&mut [0u8; 4096]);
    let _ = stream.write_all(&reply);
    let _ = stream.shutdown(Shutdown::Write);
}

/// Runs one connection's loop with a panic contained: it counts in
/// `ebi_service_panics_total` and logs at error level, the connection
/// (owned by `conn`) closes as it unwinds, and every other connection
/// is served on.
fn contain_conn(counters: &Counters, proto: Proto, conn: impl FnOnce()) {
    if std::panic::catch_unwind(AssertUnwindSafe(conn)).is_err() {
        counters.panics.inc();
        obslog::error("service.server", "connection panicked").str("proto", proto.label());
    }
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
        ctx.counters
            .record_request(proto, answered.reply.status(), ns);
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

/// The HTTP-only pages — metrics and trace dumps with no line-protocol
/// counterpart — and the 404 for everything else.
fn dump(ctx: &ServeCtx<'_, '_>, req: &HttpRequest) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => Reply::Text(metrics_text(ctx)),
        ("GET", path) if path.starts_with("/debug/trace/") => {
            match ctx.ring.find(&path["/debug/trace/".len()..]) {
                Some(t) => Reply::Answer {
                    body: ebi_obs::chrome::chrome_trace_json(
                        &t.context.trace_hex(),
                        &t.report(ctx.table),
                    ),
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
        Ok(Request::Traces(n)) => return trace_page(ctx.table, &ctx.ring.recent(), n),
        Ok(Request::Slow(n)) => return trace_page(ctx.table, &ctx.ring.slow(), n),
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
            counter.inc();
            obslog::debug("service.server", "admission rejected")
                .ctx(tctx)
                .str("proto", proto.label())
                .str("reason", reply.error().unwrap_or_default());
            return reply;
        }
    };
    let reply = match execute(ctx, dnf, limit, explain, *tctx) {
        Ok(Answer { retained, mut body }) => {
            ctx.counters.served.inc();
            if explain {
                body = JsonObject::new()
                    .raw("result", &body)
                    .str("explain", &retained.report(ctx.table).explain_analyze())
                    .finish();
            }
            Reply::Answer {
                body,
                traceparent: retained.traceparent(),
            }
        }
        Err(Reply::TimedOut) => {
            ctx.counters.timeouts.inc();
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
fn trace_page(table: &ShardedTable, traces: &[Arc<RetainedTrace>], n: usize) -> Reply {
    let mut page = String::new();
    for t in &traces[traces.len().saturating_sub(n)..] {
        page.push_str(&t.to_json_line(table));
        page.push('\n');
    }
    Reply::Page(page)
}

/// Compiles, evaluates in morsels, gathers and retains one query in
/// flight; the error is the reply of a query that produced no answer.
/// `tctx` is the request's trace identity: it correlates the retained
/// trace, the structured log lines, and the `traceparent` echoed in the
/// answer.
///
/// The request splits into `min(workers, windows)` morsels and goes to
/// the pool when that is at least two and its work estimate reaches
/// `min_dispatch_words`; otherwise it runs here as one morsel.
/// `matches` is the sum of the morsels' counts, and the first `limit`
/// row ids are read off the morsel bitmaps in morsel order, bit `j` of
/// a morsel from word `w0` being row `w0·64 + j`. Only `explain` counts
/// the heap pages the answer spans, into the report.
///
/// The answer body is `{query_id, trace, matches, rows[], wall_ns,
/// dispatched, vectors_accessed}`. Nothing else is rendered here: the
/// ring keeps `dnf` itself, and the trace's label and expressions are
/// built when something reads them.
fn execute(
    ctx: &ServeCtx<'_, '_>,
    dnf: DnfRequest,
    limit: usize,
    explain: bool,
    tctx: TraceContext,
) -> Result<Answer, Reply> {
    let started = Instant::now();
    let query_id = ebi_obs::next_query_id();
    let trace = ebi_obs::Trace::begin();
    let table = ctx.table;

    let mut root = trace.root_span("query");
    root.attr("query_id", query_id);

    let compiled = {
        let _span = root.child("compile");
        match table.compile(&dnf) {
            Ok(c) => Arc::new(c),
            Err(e) => return Err(Reply::Bad(e.to_string())),
        }
    };

    let estimate = table.estimated_work_words(&compiled);
    let split = ctx.workers.workers().min(table.windows());
    let dispatched = split >= 2 && estimate >= ctx.cfg.min_dispatch_words;
    let morsels = if dispatched { split } else { 1 };

    // A slot with no outcome is a morsel whose evaluation panicked: a
    // cancelled slot only follows a timeout, which returns no slots.
    let outcomes: Vec<Option<MorselOutcome>> = {
        let mut fan_span = root.child("fanout");
        fan_span.attr("morsels", morsels as u64);
        fan_span.attr("estimated_work_words", estimate);
        fan_span.attr("dispatched", u64::from(dispatched));
        let parent = fan_span.handle();
        if dispatched {
            let fan = Arc::new(FanOut::<MorselOutcome>::new(morsels));
            for (i, windows) in table.morsels(morsels).enumerate() {
                let fan = Arc::clone(&fan);
                let compiled = Arc::clone(&compiled);
                ctx.workers.submit(Box::new(move || {
                    // A job that starts after the waiter gave up skips
                    // its work but still counts as complete.
                    let outcome = if fan.is_cancelled() {
                        None
                    } else {
                        eval_contained(table, &compiled, windows, parent)
                    };
                    fan.complete(i, outcome);
                }));
            }
            match fan.wait(ctx.cfg.timeout) {
                Some(results) => results,
                None => return Err(Reply::TimedOut),
            }
        } else {
            vec![eval_contained(table, &compiled, 0..table.windows(), parent)]
        }
    };
    let panicked = outcomes.iter().filter(|o| o.is_none()).count() as u64;
    if panicked > 0 {
        ctx.counters.panics.add(panicked);
        obslog::error("service.server", "morsel evaluation panicked")
            .ctx(&tctx)
            .query(query_id)
            .u64("morsels", panicked);
        return Err(Reply::Internal);
    }

    // Morsel order, so row ids come out ascending.
    let answered = || outcomes.iter().flatten();
    let (matches, cost) = {
        let mut span = root.child("gather");
        let mut matches = 0;
        let mut cost = CostCounters::default();
        for o in answered() {
            ctx.counters.eval_ns.record(o.wall_ns);
            matches += o.matches;
            cost += o.cost;
        }
        span.attr("matches", matches);
        (matches, cost)
    };
    let pages = if explain {
        table.pages_spanned(answered().map(|o| (o.first_word, &o.bitmap)))
    } else {
        0
    };

    drop(root);
    let mut rows = String::from("[");
    let ids = answered().flat_map(|o| {
        let first = o.first_word * WORD_BITS;
        o.bitmap.iter_ones().map(move |j| first + j)
    });
    for (i, r) in ids.take(limit).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(rows, "{sep}{r}");
    }
    rows.push(']');
    let wall_ns = started.elapsed().as_nanos() as u64;
    let run = QueryReport {
        query_id,
        rows: table.rows() as u64,
        matches,
        wall_ns,
        spans: trace.finish(),
        cost,
        pages,
        ..QueryReport::default()
    };
    ctx.counters.record_query(cost);
    // Tail sampling is always on: the ring keeps the N most recent
    // traces plus everything over the slow threshold, independent of
    // the span subscriber (with it disabled a trace simply has no
    // spans). The ring owns the request and the run from here on.
    let retained = ctx.ring.record(tctx, dnf, run);
    if retained.slow {
        let log = obslog::warn("service.server", "slow query");
        if log.is_live() {
            log.ctx(&tctx)
                .query(query_id)
                .u64("wall_ns", wall_ns)
                .u64("threshold_ns", retained.threshold_ns)
                .str("label", &trace_ring::render_label(&retained.request));
        }
    }
    let body = JsonObject::new()
        .u64("query_id", query_id)
        .str("trace", &retained.traceparent())
        .u64("matches", matches)
        .raw("rows", &rows)
        .u64("wall_ns", wall_ns)
        .bool("dispatched", dispatched)
        .u64("vectors_accessed", cost.vectors_accessed)
        .finish();
    Ok(Answer { retained, body })
}

/// Evaluates one morsel, kernel windows `windows` of the table: a pool
/// worker's job, or the whole request run inline. It runs in an
/// `eval.worker` span hung off the query's `fanout` span (cross-thread
/// parentage via the captured handle) that carries the owning trace id
/// (`trace` attribute), so pool hand-off is checkable end to end. The
/// wall time is filed in `ebi_service_eval_ns`.
///
/// Public for the telemetry proptests, which drive real morsel
/// evaluations through a [`WorkerPool`] without a socket.
pub fn eval_morsel(
    table: &ShardedTable,
    compiled: &CompiledQuery,
    windows: Range<usize>,
    parent: ebi_obs::SpanHandle,
) -> MorselOutcome {
    let started = Instant::now();
    let mut span = parent.child("eval.worker");
    let first_word = windows.start * SEGMENT_WORDS;
    let (bitmap, cost) = table.eval_morsel(compiled, windows);
    let matches = bitmap.count_ones() as u64;
    let wall_ns = started.elapsed().as_nanos() as u64;
    if span.is_live() {
        span.attr("trace", parent.trace());
        span.attr("first_word", first_word as u64);
        span.attr("rows", bitmap.len() as u64);
        span.attr("matches", matches);
        span.attr("vectors_accessed", cost.vectors_accessed);
    }
    MorselOutcome {
        first_word,
        bitmap,
        matches,
        cost,
        wall_ns,
    }
}

/// [`eval_morsel`] with a panic contained: `None` when it panicked, so
/// the request answers `ERR internal` and the worker lives on.
fn eval_contained(
    table: &ShardedTable,
    compiled: &CompiledQuery,
    windows: Range<usize>,
    parent: ebi_obs::SpanHandle,
) -> Option<MorselOutcome> {
    let eval = || eval_morsel(table, compiled, windows, parent);
    std::panic::catch_unwind(AssertUnwindSafe(eval)).ok()
}

/// `STATS` and `/stats`: build identity, the table, admission state,
/// lifetime totals and the trace rings' occupancy. Metric families are
/// `/metrics`' alone.
fn stats_json(ctx: &ServeCtx<'_, '_>) -> String {
    let c = ctx.counters;
    let mut obj = JsonObject::new();
    obj.str("build", concat!("ebi-service/", env!("CARGO_PKG_VERSION")))
        .u64("rows", ctx.table.rows() as u64)
        .raw("columns", &json_str_array(ctx.table.columns()))
        .u64("inflight", ctx.gate.inflight() as u64)
        .u64("max_inflight", ctx.gate.max_inflight() as u64)
        .u64("workers", ctx.workers.workers() as u64)
        .u64("served", c.served.get())
        .u64("rejected_busy", c.rejected_busy.get())
        .u64("rejected_draining", c.rejected_draining.get())
        .u64("timeouts", c.timeouts.get())
        .u64("uptime_ms", ctx.started.elapsed().as_millis() as u64)
        .u64("slow_queries", ctx.ring.slow_total())
        .u64("slow_retained", ctx.ring.slow().len() as u64)
        .u64("traces_recorded", ctx.ring.total())
        .u64("traces_retained", ctx.ring.recent().len() as u64)
        .u64("slow_threshold_ns", ctx.ring.threshold_ns())
        .u64("trace_ring_capacity", trace_ring::RECENT_CAPACITY as u64)
        .u64("slow_ring_capacity", trace_ring::SLOW_CAPACITY as u64)
        .bool("draining", ctx.handle.is_stopping())
        .finish()
}

/// `/metrics`: every family in the Prometheus text format, read from
/// its owner now — the service's [`Counters`] and the trace ring's
/// latency histogram and slow count.
fn metrics_text(ctx: &ServeCtx<'_, '_>) -> String {
    let c = ctx.counters;
    let mut out = String::new();
    let requests = PROTOS.iter().flat_map(|&p| {
        let counts = STATUSES.iter().zip(&c.requests[p as usize]);
        counts.map(move |(status, n)| {
            (
                format!("proto=\"{}\",status=\"{status}\"", p.label()),
                n.get(),
            )
        })
    });
    write_counter(&mut out, "ebi_service_requests_total", requests);
    let by_proto = PROTOS.iter().map(|&p| {
        let h = &c.request_ns[p as usize];
        (format!("proto=\"{}\"", p.label()), h.snapshot())
    });
    write_histogram(&mut out, "ebi_service_request_ns", by_proto);
    for (name, h) in [
        ("ebi_service_eval_ns", c.eval_ns.snapshot()),
        ("ebi_query_latency_ns", ctx.ring.latency()),
        ("ebi_query_vectors_accessed", c.vectors_accessed.snapshot()),
        ("ebi_query_words_scanned", c.words_scanned.snapshot()),
        ("ebi_query_bytes_touched", c.bytes_touched.snapshot()),
    ] {
        write_histogram(&mut out, name, [("", h)]);
    }
    let cost = *c.cost.lock();
    for (name, n) in [
        ("ebi_service_slow_queries_total", ctx.ring.slow_total()),
        ("ebi_service_panics_total", c.panics.get()),
        (
            "ebi_kernel_compressed_chunks_skipped_total",
            cost.compressed_chunks_skipped,
        ),
        ("ebi_kernel_segments_pruned_total", cost.segments_pruned),
        (
            "ebi_kernel_segments_short_circuited_total",
            cost.segments_short_circuited,
        ),
    ] {
        write_counter(&mut out, name, [("", n)]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_zero_timeout_in_the_environment_keeps_the_default() {
        std::env::set_var("EBI_SERVICE_TIMEOUT_MS", "0");
        let zero = ServiceConfig::from_env().timeout;
        std::env::set_var("EBI_SERVICE_TIMEOUT_MS", "250");
        let set = ServiceConfig::from_env().timeout;
        std::env::remove_var("EBI_SERVICE_TIMEOUT_MS");
        assert_eq!(zero, ServiceConfig::default().timeout);
        assert_eq!(set, Duration::from_millis(250));
    }

    #[test]
    fn a_panicking_morsel_evaluation_is_contained() {
        let cells = (0..100u64)
            .map(|i| ebi_storage::Cell::Value(i % 3))
            .collect();
        let table = ShardedTable::build(
            vec![crate::ColumnSpec::new("a", cells)],
            &crate::TableOptions::default(),
        )
        .expect("table builds");
        let request = crate::parse_dnf("a=1").expect("parses");
        let mut compiled = table.compile(&request).expect("compiles");
        let trace = ebi_obs::Trace::begin();
        let root = trace.root_span("query");
        let answered = eval_contained(&table, &compiled, 0..1, root.handle());
        assert_eq!(answered.map(|o| o.bitmap.count_ones()), Some(33));
        // A column the table does not have: evaluation indexes past its
        // indexes and panics.
        compiled.disjuncts[0][0].column = 9;
        assert!(eval_contained(&table, &compiled, 0..1, root.handle()).is_none());
    }

    #[test]
    fn a_panicking_connection_is_counted_and_contained() {
        let counters = Counters::default();
        let mut served = 0;
        contain_conn(&counters, Proto::Tcp, || served += 1);
        assert_eq!((served, counters.panics.get()), (1, 0));
        contain_conn(&counters, Proto::Http, || panic!("connection loop bug"));
        assert_eq!(counters.panics.get(), 1, "the panic is counted, not raised");
        // The next connection is served as before.
        contain_conn(&counters, Proto::Tcp, || served += 1);
        assert_eq!((served, counters.panics.get()), (2, 1));
    }
}
