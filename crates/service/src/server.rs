//! The long-running query service: admission, shard fan-out, merge,
//! and the two socket frontends.
//!
//! ## Request lifecycle
//!
//! ```text
//! accept → parse → admit (Permit) → compile once → fan out to shards
//!   on the worker pool → merge at RID offsets → report → respond →
//!   release Permit
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
//! a loopback connect; (4) joins every scoped thread. No admitted
//! request is ever dropped.

use crate::error::ServiceError;
use crate::http::{self, HttpRequest};
use crate::pool::{AdmissionGate, FanOut, Refusal, WorkerPool, MIN_PARALLEL_WORK_WORDS};
use crate::protocol::{self, Request};
use crate::shard::{merge_cost, CompiledQuery, DnfRequest, ShardOutcome, ShardedTable};
use ebi_obs::export::JsonObject;
use ebi_obs::log as obslog;
use ebi_obs::{
    CostCounters, PhaseNode, QueryReport, StorageCounters, TraceContext, TraceRing, TraceRingConfig,
};
use ebi_storage::BufferPool;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Poll interval at which idle connections notice a shutdown.
const IDLE_POLL: Duration = Duration::from_millis(150);

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
    /// Maximum concurrently admitted queries; excess gets `BUSY`/429.
    pub max_inflight: usize,
    /// Per-request deadline; an expired query answers `ERR timeout`
    /// / 504 and its remaining shard jobs are cancelled.
    pub timeout: Duration,
    /// Buffer-pool frames per shard.
    pub buffer_frames: usize,
    /// Work-estimate floor (words) below which a query is evaluated
    /// serially on the connection thread instead of fanned out.
    /// Defaults to [`MIN_PARALLEL_WORK_WORDS`].
    pub min_dispatch_words: u64,
    /// Recent-trace ring capacity (tail sampling; see
    /// [`ebi_obs::trace_ring`]).
    pub trace_ring: usize,
    /// Slow-query log capacity.
    pub slow_ring: usize,
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
            trace_ring: 64,
            slow_ring: 256,
            slow_query_ms: None,
        }
    }
}

impl ServiceConfig {
    /// Defaults overridden by `EBI_SERVICE_ADDR`,
    /// `EBI_SERVICE_HTTP_ADDR`, `EBI_SERVICE_WORKERS`,
    /// `EBI_SERVICE_MAX_INFLIGHT`, `EBI_SERVICE_TIMEOUT_MS`,
    /// `EBI_SERVICE_MIN_DISPATCH_WORDS`, `EBI_SERVICE_TRACE_RING`,
    /// `EBI_SERVICE_SLOW_RING` and `EBI_SLOW_QUERY_MS`.
    #[must_use]
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Ok(v) = std::env::var("EBI_SERVICE_ADDR") {
            cfg.tcp_addr = v;
        }
        if let Ok(v) = std::env::var("EBI_SERVICE_HTTP_ADDR") {
            cfg.http_addr = v;
        }
        if let Some(v) = env_usize("EBI_SERVICE_WORKERS") {
            cfg.workers = v;
        }
        if let Some(v) = env_usize("EBI_SERVICE_MAX_INFLIGHT") {
            cfg.max_inflight = v.max(1);
        }
        if let Some(v) = env_usize("EBI_SERVICE_TIMEOUT_MS") {
            cfg.timeout = Duration::from_millis(v as u64);
        }
        if let Some(v) = env_usize("EBI_SERVICE_MIN_DISPATCH_WORDS") {
            cfg.min_dispatch_words = v as u64;
        }
        if let Some(v) = env_usize("EBI_SERVICE_TRACE_RING") {
            cfg.trace_ring = v.max(1);
        }
        if let Some(v) = env_usize("EBI_SERVICE_SLOW_RING") {
            cfg.slow_ring = v.max(1);
        }
        if let Some(v) = env_usize("EBI_SLOW_QUERY_MS") {
            cfg.slow_query_ms = Some(v as u64);
        }
        cfg
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

struct HandleInner {
    stopping: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
    tcp: SocketAddr,
    http: SocketAddr,
}

/// A cloneable handle to a running service: its bound addresses and
/// the shutdown trigger.
#[derive(Clone)]
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
        let _guard = self.inner.lock.lock().expect("handle poisoned");
        self.inner.cv.notify_all();
    }

    fn is_stopping(&self) -> bool {
        self.inner.stopping.load(Ordering::Acquire)
    }

    fn wait(&self) {
        let mut guard = self.inner.lock.lock().expect("handle poisoned");
        while !self.is_stopping() {
            guard = self.inner.cv.wait(guard).expect("handle poisoned");
        }
    }
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("tcp", &self.inner.tcp)
            .field("http", &self.inner.http)
            .field("stopping", &self.is_stopping())
            .finish()
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

/// The result of one admitted query.
#[derive(Debug)]
pub struct Answer {
    /// Process-unique query id.
    pub query_id: u64,
    /// Outbound `traceparent` (the request's trace id with this
    /// query's id as the parent span field), echoed to the client.
    pub traceparent: String,
    /// Matching rows (global row-id space).
    pub matches: u64,
    /// Up to `limit` matching global row ids.
    pub rows: Vec<u64>,
    /// End-to-end wall time, nanoseconds.
    pub wall_ns: u64,
    /// Whether shard jobs went to the worker pool (`false` = the
    /// work-estimate heuristic evaluated serially).
    pub dispatched: bool,
    /// The full query report (phases, cost, per-shard layouts).
    pub report: QueryReport,
}

enum Outcome {
    Answer(Box<Answer>),
    TimedOut,
    Bad(String),
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
            lock: Mutex::new(()),
            cv: Condvar::new(),
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
        capacity: cfg.trace_ring,
        slow_capacity: cfg.slow_ring,
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
        // Drain: refuse new work, let every admitted query answer.
        obslog::info("service.server", "draining").u64("inflight", gate.inflight() as u64);
        gate.begin_drain();
        gate.await_drain();
        workers.close();
        wake(handle.tcp_addr());
        wake(handle.http_addr());
    })
    .expect("service threads joined");
    Ok(ServiceSummary {
        served: counters.served.load(Ordering::Relaxed),
        rejected_busy: counters.rejected_busy.load(Ordering::Relaxed),
        rejected_draining: counters.rejected_draining.load(Ordering::Relaxed),
        timeouts: counters.timeouts.load(Ordering::Relaxed),
    })
}

/// Unblocks a listener stuck in `accept` after the stop flag is set.
fn wake(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
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
        scope.spawn(move |_| match proto {
            Proto::Tcp => serve_tcp_conn(ctx, stream),
            Proto::Http => serve_http_conn(ctx, stream),
        });
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

// ---------------------------------------------------------------------------
// TCP line protocol
// ---------------------------------------------------------------------------

fn serve_tcp_conn(ctx: &ServeCtx<'_, '_>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let started = Instant::now();
                let (response, close) = handle_tcp_line(ctx, line.trim());
                let ok = writer
                    .write_all(response.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush())
                    .is_ok();
                record_request(
                    Proto::Tcp,
                    status_of(&response),
                    started.elapsed().as_nanos() as u64,
                );
                if close || !ok {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if ctx.handle.is_stopping() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

fn status_of(response: &str) -> &'static str {
    if response.starts_with("OK") || response.starts_with("PONG") {
        "ok"
    } else if response.starts_with("BUSY") {
        "busy"
    } else {
        "error"
    }
}

/// Answers one protocol line; the bool asks the caller to close the
/// connection afterwards. A leading `TRACEPARENT <value>` field is
/// adopted as the request's trace identity (a fresh one is minted when
/// absent or malformed) and echoed in query answers.
fn handle_tcp_line(ctx: &ServeCtx<'_, '_>, line: &str) -> (String, bool) {
    let (tp, line) = protocol::split_traceparent(line);
    let tctx = tp
        .and_then(TraceContext::parse)
        .unwrap_or_else(TraceContext::mint);
    let request = match protocol::parse_request(line) {
        Ok(r) => r,
        Err(msg) => return (format!("ERR {msg}"), false),
    };
    match request {
        Request::Ping => ("PONG".into(), false),
        Request::Stats => (format!("OK {}", stats_json(ctx)), false),
        Request::Shutdown => {
            ctx.handle.shutdown();
            ("OK draining".into(), true)
        }
        Request::Traces(n) => (trace_page(&ctx.ring.recent(), n), false),
        Request::Slow(n) => (trace_page(&ctx.ring.slow(), n), false),
        Request::Count(d) => (admitted(ctx, &d, 0, false, tctx), false),
        Request::Query(d, limit) => (admitted(ctx, &d, limit, false, tctx), false),
        Request::Explain(d) => (admitted(ctx, &d, 0, true, tctx), false),
    }
}

/// Renders a retained-trace page for `TRACES` / `SLOW`: an `OK <n>`
/// line, the newest `n` traces as JSON lines, and a lone `.`
/// terminator (the caller appends the final newline).
fn trace_page(traces: &[Arc<ebi_obs::RetainedTrace>], n: usize) -> String {
    let tail = &traces[traces.len().saturating_sub(n)..];
    format!("OK {}\n{}.", tail.len(), TraceRing::render_json_lines(tail))
}

/// Admission + execution + rendering for the TCP protocol.
fn admitted(
    ctx: &ServeCtx<'_, '_>,
    dnf: &DnfRequest,
    limit: usize,
    explain: bool,
    tctx: TraceContext,
) -> String {
    let permit = match ctx.gate.try_admit() {
        Ok(p) => p,
        Err(Refusal::Busy) => {
            ctx.counters.rejected_busy.fetch_add(1, Ordering::Relaxed);
            obslog::debug("service.server", "admission rejected")
                .ctx(&tctx)
                .str("proto", "tcp")
                .str("reason", "busy");
            return "BUSY".into();
        }
        Err(Refusal::Draining) => {
            ctx.counters
                .rejected_draining
                .fetch_add(1, Ordering::Relaxed);
            obslog::debug("service.server", "admission rejected")
                .ctx(&tctx)
                .str("proto", "tcp")
                .str("reason", "draining");
            return "ERR draining".into();
        }
    };
    let out = match execute(ctx, dnf, limit, tctx) {
        Outcome::Answer(a) => {
            ctx.counters.served.fetch_add(1, Ordering::Relaxed);
            let mut body = answer_json(&a);
            if explain {
                body = JsonObject::new()
                    .raw("result", &body)
                    .str("explain", &a.report.explain_analyze())
                    .finish();
            }
            format!("OK {body}")
        }
        Outcome::TimedOut => {
            ctx.counters.timeouts.fetch_add(1, Ordering::Relaxed);
            obslog::warn("service.server", "query timeout")
                .ctx(&tctx)
                .str("proto", "tcp")
                .u64("timeout_ms", ctx.cfg.timeout.as_millis() as u64);
            "ERR timeout".into()
        }
        Outcome::Bad(msg) => format!("ERR {msg}"),
    };
    // The permit outlives rendering: a drain that begins mid-query
    // waits for this response to be fully built.
    drop(permit);
    out
}

// ---------------------------------------------------------------------------
// HTTP frontend
// ---------------------------------------------------------------------------

fn serve_http_conn(ctx: &ServeCtx<'_, '_>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(reader_stream);
    loop {
        match http::read_request(&mut reader) {
            Ok(None) => break,
            Ok(Some(req)) => {
                let started = Instant::now();
                let keep = req.keep_alive && !ctx.handle.is_stopping();
                let (status, reason, ctype, body, traceparent) = route_http(ctx, &req);
                let extra: Vec<(&str, &str)> = traceparent
                    .as_deref()
                    .map(|tp| ("traceparent", tp))
                    .into_iter()
                    .collect();
                let ok =
                    http::write_response(&mut writer, status, reason, ctype, &body, keep, &extra)
                        .is_ok();
                record_request(
                    Proto::Http,
                    if status < 400 {
                        "ok"
                    } else if status == 429 {
                        "busy"
                    } else {
                        "error"
                    },
                    started.elapsed().as_nanos() as u64,
                );
                if !keep || !ok {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if ctx.handle.is_stopping() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// `(status, reason, content-type, body, echoed traceparent)`.
type HttpAnswer = (u16, &'static str, &'static str, String, Option<String>);

const JSON: &str = "application/json";
const TEXT: &str = "text/plain; charset=utf-8";
const NDJSON: &str = "application/x-ndjson";

fn plain(status: u16, reason: &'static str, ctype: &'static str, body: String) -> HttpAnswer {
    (status, reason, ctype, body, None)
}

fn route_http(ctx: &ServeCtx<'_, '_>, req: &HttpRequest) -> HttpAnswer {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => plain(200, "OK", TEXT, "ok\n".into()),
        ("GET", "/metrics") => plain(
            200,
            "OK",
            TEXT,
            ebi_obs::metrics::global().render_prometheus(),
        ),
        ("GET", "/stats") => plain(200, "OK", JSON, stats_json(ctx)),
        ("GET", "/debug/traces") => plain(
            200,
            "OK",
            NDJSON,
            TraceRing::render_json_lines(&ctx.ring.recent()),
        ),
        ("GET", "/debug/slow") => plain(
            200,
            "OK",
            NDJSON,
            TraceRing::render_json_lines(&ctx.ring.slow()),
        ),
        ("GET", "/debug/vars") => plain(200, "OK", JSON, vars_json(ctx)),
        ("GET", path) if path.starts_with("/debug/trace/") => {
            let key = &path["/debug/trace/".len()..];
            match ctx.ring.find(key) {
                Some(t) => {
                    let tp = t.traceparent();
                    (
                        200,
                        "OK",
                        JSON,
                        ebi_obs::chrome::retained_to_chrome(&t),
                        Some(tp),
                    )
                }
                None => plain(404, "Not Found", JSON, err_json("no such trace")),
            }
        }
        ("POST", "/shutdown") => {
            ctx.handle.shutdown();
            plain(200, "OK", JSON, r#"{"status":"draining"}"#.into())
        }
        ("GET" | "POST", "/count") => http_query(ctx, req, 0, false),
        ("GET" | "POST", "/query") => {
            let limit = http::query_param(&req.query, "limit")
                .and_then(|l| l.parse().ok())
                .unwrap_or(protocol::DEFAULT_LIMIT)
                .min(protocol::MAX_LIMIT);
            http_query(ctx, req, limit, false)
        }
        ("GET" | "POST", "/explain") => http_query(ctx, req, 0, true),
        _ => plain(404, "Not Found", JSON, r#"{"error":"not found"}"#.into()),
    }
}

/// Pulls the query text from `?q=`, a raw text body, or a tiny JSON
/// body of the form `{"q": "..."}`.
fn http_query_text(req: &HttpRequest) -> Option<String> {
    if let Some(q) = http::query_param(&req.query, "q") {
        return Some(q);
    }
    let body = req.body.trim();
    if body.is_empty() {
        return None;
    }
    if body.starts_with('{') {
        // Hand-rolled extraction of a flat {"q":"..."} — the vendored
        // serde has no derive, and the grammar needs nothing more.
        let key = body.find("\"q\"")?;
        let colon = body[key + 3..].find(':')? + key + 4;
        let rest = body[colon..].trim_start();
        let rest = rest.strip_prefix('"')?;
        let end = rest.find('"')?;
        return Some(rest[..end].to_string());
    }
    Some(body.to_string())
}

fn http_query(
    ctx: &ServeCtx<'_, '_>,
    req: &HttpRequest,
    limit: usize,
    explain: bool,
) -> HttpAnswer {
    // Adopt the client's traceparent (W3C header) or mint a fresh
    // identity; every outcome, including refusals, echoes the trace so
    // the client can correlate with the server's logs.
    let tctx = req
        .traceparent
        .as_deref()
        .and_then(TraceContext::parse)
        .unwrap_or_else(TraceContext::mint);
    let echo = Some(tctx.to_traceparent(tctx.parent_id()));
    let Some(text) = http_query_text(req) else {
        return (
            400,
            "Bad Request",
            JSON,
            err_json("missing query (q=)"),
            echo,
        );
    };
    let dnf = match protocol::parse_dnf(&text) {
        Ok(d) => d,
        Err(msg) => return (400, "Bad Request", JSON, err_json(&msg), echo),
    };
    let permit = match ctx.gate.try_admit() {
        Ok(p) => p,
        Err(Refusal::Busy) => {
            ctx.counters.rejected_busy.fetch_add(1, Ordering::Relaxed);
            obslog::debug("service.server", "admission rejected")
                .ctx(&tctx)
                .str("proto", "http")
                .str("reason", "busy");
            return (429, "Too Many Requests", JSON, err_json("busy"), echo);
        }
        Err(Refusal::Draining) => {
            ctx.counters
                .rejected_draining
                .fetch_add(1, Ordering::Relaxed);
            obslog::debug("service.server", "admission rejected")
                .ctx(&tctx)
                .str("proto", "http")
                .str("reason", "draining");
            return (503, "Service Unavailable", JSON, err_json("draining"), echo);
        }
    };
    let out = match execute(ctx, &dnf, limit, tctx) {
        Outcome::Answer(a) => {
            ctx.counters.served.fetch_add(1, Ordering::Relaxed);
            let mut body = answer_json(&a);
            if explain {
                body = JsonObject::new()
                    .raw("result", &body)
                    .str("explain", &a.report.explain_analyze())
                    .finish();
            }
            let echo = Some(a.traceparent.clone());
            (200, "OK", JSON, body, echo)
        }
        Outcome::TimedOut => {
            ctx.counters.timeouts.fetch_add(1, Ordering::Relaxed);
            obslog::warn("service.server", "query timeout")
                .ctx(&tctx)
                .str("proto", "http")
                .u64("timeout_ms", ctx.cfg.timeout.as_millis() as u64);
            (504, "Gateway Timeout", JSON, err_json("timeout"), echo)
        }
        Outcome::Bad(msg) => (400, "Bad Request", JSON, err_json(&msg), echo),
    };
    drop(permit);
    out
}

fn err_json(msg: &str) -> String {
    JsonObject::new().str("error", msg).finish()
}

// ---------------------------------------------------------------------------
// Query execution (shared by both protocols)
// ---------------------------------------------------------------------------

/// Compiles, fans out, merges and reports one admitted query. `tctx`
/// is the request's trace identity: it correlates the retained trace,
/// the structured log lines, and the `traceparent` echoed in the
/// answer.
fn execute(ctx: &ServeCtx<'_, '_>, dnf: &DnfRequest, limit: usize, tctx: TraceContext) -> Outcome {
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
            Err(e) => {
                drop(root);
                drop(trace);
                return Outcome::Bad(e.to_string());
            }
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
                    if fan.is_cancelled() {
                        fan.complete(i, None);
                        return;
                    }
                    fan.complete(i, Some(eval_shard(shard, pool, &compiled, parent)));
                }));
            }
            match fan.wait(ctx.cfg.timeout) {
                Some(results) => results,
                None => {
                    drop(fan_span);
                    drop(root);
                    drop(trace);
                    return Outcome::TimedOut;
                }
            }
        } else {
            table
                .shards()
                .iter()
                .map(|s| Some(eval_shard(s, &ctx.pools[s.id()], &compiled, parent)))
                .collect()
        }
    };

    let (bitmap, cost, storage) = {
        let mut span = root.child("merge");
        let mut cost = CostCounters::default();
        let mut storage = StorageCounters::default();
        let mut order: Option<&'static str> = None;
        for (shard, outcome) in table.shards().iter().zip(&outcomes) {
            let Some(o) = outcome else { continue };
            merge_cost(&mut cost, &o.cost);
            storage.pager_reads += o.buffer.1; // misses reach the pager
            storage.buffer_hits += o.buffer.0;
            storage.buffer_misses += o.buffer.1;
            storage.buffer_evictions += o.buffer.2;
            for il in shard.layouts(table.columns()) {
                storage.slice_runs += il.slice_runs;
                storage.slice_longest_run = storage.slice_longest_run.max(il.slice_longest_run);
                storage.slice_fill_words += il.slice_fill_words;
                storage.slice_total_words += il.slice_total_words;
                order = Some(match order {
                    None => il.row_order,
                    Some(prev) if prev == il.row_order => il.row_order,
                    Some(_) => "mixed",
                });
                storage.index_layouts.push(il);
            }
        }
        storage.row_order = order.unwrap_or("original");
        let bitmap = table.merge(
            outcomes
                .iter()
                .enumerate()
                .filter_map(|(i, o)| o.as_ref().map(|o| (i, &o.bitmap))),
        );
        span.attr("matches", bitmap.count_ones() as u64);
        (bitmap, cost, storage)
    };

    drop(root);
    let records = trace.finish();
    let matches = bitmap.count_ones() as u64;
    let rows: Vec<u64> = bitmap.iter_ones().take(limit).map(|r| r as u64).collect();
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
    // has no phase tree).
    let retained = ctx.ring.record(tctx, query_id, report.clone());
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
            .str("label", &report.label);
    }
    Outcome::Answer(Box::new(Answer {
        query_id,
        traceparent: tctx.to_traceparent(query_id),
        matches,
        rows,
        wall_ns: report.wall_ns,
        dispatched,
        report,
    }))
}

/// Evaluates one shard and fetches its matching heap pages — the unit
/// of work a pool worker runs, wrapped in an `eval.worker` span hung
/// off the query's `fanout` span (cross-thread parentage via the
/// captured handle, same idiom as the core parallel engine). The span
/// carries the owning trace id (`trace` attribute) so pool hand-off is
/// checkable end to end, and per-shard latency lands in
/// `shard`-labelled service metrics so fan-out skew shows in a scrape.
///
/// Public for the telemetry proptests and benches, which drive real
/// shard evaluations through a [`WorkerPool`] without a socket.
pub fn eval_shard(
    shard: &crate::shard::Shard,
    pool: &BufferPool<'_>,
    compiled: &CompiledQuery,
    parent: ebi_obs::SpanHandle,
) -> ShardOutcome {
    let started = Instant::now();
    let mut span = parent.child("eval.worker");
    let (bitmap, cost) = shard.eval(compiled);
    let before = pool.stats();
    let pages = shard.fetch_matches(&bitmap, Some(pool));
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
        span.attr("pages", pages);
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
        pages_read: pages,
        buffer,
        wall_ns,
    }
}

fn render_label(dnf: &DnfRequest) -> String {
    let mut out = String::new();
    for (i, d) in dnf.disjuncts.iter().enumerate() {
        if i > 0 {
            out.push_str(" OR ");
        }
        for (j, c) in d.iter().enumerate() {
            if j > 0 {
                out.push_str(" AND ");
            }
            match &c.predicate {
                crate::shard::Predicate::Eq(v) => {
                    out.push_str(&format!("{}={v}", c.column));
                }
                crate::shard::Predicate::In(vs) => {
                    let list: Vec<String> = vs.iter().map(u64::to_string).collect();
                    out.push_str(&format!("{} IN {}", c.column, list.join(",")));
                }
                crate::shard::Predicate::Between(lo, hi) => {
                    out.push_str(&format!("{} BETWEEN {lo} {hi}", c.column));
                }
            }
        }
    }
    out
}

fn answer_json(a: &Answer) -> String {
    let rows: Vec<String> = a.rows.iter().map(u64::to_string).collect();
    JsonObject::new()
        .u64("query_id", a.query_id)
        .str("trace", &a.traceparent)
        .u64("matches", a.matches)
        .raw("rows", &format!("[{}]", rows.join(",")))
        .u64("wall_ns", a.wall_ns)
        .bool("dispatched", a.dispatched)
        .u64("vectors_accessed", a.report.cost.vectors_accessed)
        .str("row_order", a.report.storage.row_order)
        .finish()
}

fn stats_json(ctx: &ServeCtx<'_, '_>) -> String {
    JsonObject::new()
        .u64("rows", ctx.table.rows() as u64)
        .u64("shards", ctx.table.shards().len() as u64)
        .raw(
            "columns",
            &ebi_obs::export::json_str_array(ctx.table.columns()),
        )
        .u64("inflight", ctx.gate.inflight() as u64)
        .u64("max_inflight", ctx.gate.max_inflight() as u64)
        .u64("workers", ctx.workers.workers() as u64)
        .u64("served", ctx.counters.served.load(Ordering::Relaxed))
        .u64(
            "rejected_busy",
            ctx.counters.rejected_busy.load(Ordering::Relaxed),
        )
        .u64(
            "rejected_draining",
            ctx.counters.rejected_draining.load(Ordering::Relaxed),
        )
        .u64("timeouts", ctx.counters.timeouts.load(Ordering::Relaxed))
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
    JsonObject::new()
        .str("build", concat!("ebi-service/", env!("CARGO_PKG_VERSION")))
        .u64("uptime_ms", ctx.started.elapsed().as_millis() as u64)
        .u64("inflight", ctx.gate.inflight() as u64)
        .u64("max_inflight", ctx.gate.max_inflight() as u64)
        .u64("workers", ctx.workers.workers() as u64)
        .u64("served", ctx.counters.served.load(Ordering::Relaxed))
        .u64(
            "rejected_busy",
            ctx.counters.rejected_busy.load(Ordering::Relaxed),
        )
        .u64(
            "rejected_draining",
            ctx.counters.rejected_draining.load(Ordering::Relaxed),
        )
        .u64("timeouts", ctx.counters.timeouts.load(Ordering::Relaxed))
        .u64("traces_recorded", ctx.ring.total())
        .u64("traces_retained", ctx.ring.recent().len() as u64)
        .u64("slow_queries", ctx.ring.slow_total())
        .u64("slow_retained", ctx.ring.slow().len() as u64)
        .u64("slow_threshold_ns", ctx.ring.threshold_ns())
        .u64("trace_ring_capacity", ctx.cfg.trace_ring as u64)
        .u64("slow_ring_capacity", ctx.cfg.slow_ring as u64)
        .bool("draining", ctx.handle.is_stopping())
        .raw("metrics", &ebi_obs::export::json_array(&metrics))
        .finish()
}
