//! Structured JSONL logging (schema `ebi.log.v1`).
//!
//! The service's operational output — startup, drain summaries,
//! admission rejections, slow-query notices, connection errors — goes
//! through this module instead of ad-hoc `eprintln!`, so every line is
//! machine-parseable and carries request correlation (trace hex +
//! query id) when available:
//!
//! ```text
//! {"schema":"ebi.log.v1","ts_ns":…,"level":"warn","target":"service.server",
//!  "msg":"slow query","trace":"4bf9…","query_id":17,"fields":{"wall_ns":…}}
//! ```
//!
//! Records are built with a borrowing builder and emitted on drop:
//!
//! ```
//! ebi_obs::log::info("doc.example", "served").u64("rows", 10);
//! ```
//!
//! The global sink is configured lazily from the environment:
//! `EBI_LOG` (unset or `stderr` → stderr; a path → appending file sink
//! with size-based rotation to `<path>.1`, cap `EBI_LOG_MAX_BYTES`,
//! default 8 MiB) and `EBI_LOG_LEVEL` (`debug|info|warn|error`,
//! default `info`). Logging is independent of the span subscriber
//! ([`crate::enabled`]): it is level-gated, always available, and only
//! sits on per-request-lifecycle paths, never in kernels.

use crate::export::JsonObject;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Schema tag stamped on every log line.
pub const LOG_SCHEMA: &str = "ebi.log.v1";

/// Default rotation cap for file sinks, bytes.
pub const DEFAULT_MAX_BYTES: u64 = 8 * 1024 * 1024;

/// Log severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Development detail (admission refusals, per-connection events).
    Debug = 0,
    /// Normal lifecycle (startup, drain summary).
    Info = 1,
    /// Anomalies worth retaining (slow queries, timeouts).
    Warn = 2,
    /// Failures (accept/build errors).
    Error = 3,
}

impl Level {
    /// Lowercase name, as it appears on the wire.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Debug => "debug",
            Self::Info => "info",
            Self::Warn => "warn",
            Self::Error => "error",
        }
    }

    /// Parses a level name (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "debug" => Some(Self::Debug),
            "info" => Some(Self::Info),
            "warn" | "warning" => Some(Self::Warn),
            "error" => Some(Self::Error),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => Self::Debug,
            1 => Self::Info,
            2 => Self::Warn,
            _ => Self::Error,
        }
    }
}

enum Sink {
    Stderr,
    File {
        path: PathBuf,
        file: Option<File>,
        written: u64,
        max_bytes: u64,
    },
    Buffer(Arc<Mutex<String>>),
}

impl Sink {
    fn write_line(&mut self, line: &str) {
        match self {
            Self::Stderr => {
                let mut err = std::io::stderr().lock();
                let _ = err.write_all(line.as_bytes());
                let _ = err.write_all(b"\n");
            }
            Self::File {
                path,
                file,
                written,
                max_bytes,
            } => {
                if file.is_none() {
                    if let Ok(f) = OpenOptions::new().create(true).append(true).open(&*path) {
                        *written = f.metadata().map(|m| m.len()).unwrap_or(0);
                        *file = Some(f);
                    }
                }
                if let Some(f) = file {
                    if f.write_all(line.as_bytes()).is_ok() && f.write_all(b"\n").is_ok() {
                        *written += line.len() as u64 + 1;
                    }
                    if *written >= *max_bytes {
                        // Size-based rotation: keep exactly one
                        // previous generation at `<path>.1`.
                        *file = None;
                        let mut rotated = path.clone().into_os_string();
                        rotated.push(".1");
                        let _ = std::fs::rename(&*path, rotated);
                        *written = 0;
                    }
                }
            }
            Self::Buffer(buf) => {
                let mut buf = buf.lock();
                buf.push_str(line);
                buf.push('\n');
            }
        }
    }
}

/// A leveled JSONL logger bound to one sink.
pub struct Logger {
    min: AtomicU8,
    sink: Mutex<Sink>,
}

impl std::fmt::Debug for Logger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Logger")
            .field("min", &self.min_level())
            .finish_non_exhaustive()
    }
}

impl Logger {
    /// A logger writing to stderr.
    #[must_use]
    pub fn stderr(min: Level) -> Self {
        Self {
            min: AtomicU8::new(min as u8),
            sink: Mutex::new(Sink::Stderr),
        }
    }

    /// A logger appending to `path`, rotating to `<path>.1` once the
    /// file reaches `max_bytes`. The file is opened lazily on first
    /// write; open failures drop records silently (logging must never
    /// take the service down).
    #[must_use]
    pub fn file(path: impl Into<PathBuf>, min: Level, max_bytes: u64) -> Self {
        Self {
            min: AtomicU8::new(min as u8),
            sink: Mutex::new(Sink::File {
                path: path.into(),
                file: None,
                written: 0,
                max_bytes: max_bytes.max(1),
            }),
        }
    }

    /// A logger capturing lines into a shared string buffer (tests).
    #[must_use]
    pub fn buffer(min: Level) -> (Self, Arc<Mutex<String>>) {
        let buf = Arc::new(Mutex::new(String::new()));
        let logger = Self {
            min: AtomicU8::new(min as u8),
            sink: Mutex::new(Sink::Buffer(Arc::clone(&buf))),
        };
        (logger, buf)
    }

    /// The minimum level this logger emits.
    #[must_use]
    pub fn min_level(&self) -> Level {
        Level::from_u8(self.min.load(Ordering::Relaxed))
    }

    /// Changes the minimum level.
    pub fn set_min_level(&self, min: Level) {
        self.min.store(min as u8, Ordering::Relaxed);
    }

    /// Whether `level` would be emitted.
    #[must_use]
    pub fn enabled(&self, level: Level) -> bool {
        level >= self.min_level()
    }

    /// Starts a record; it is rendered and written when dropped.
    #[must_use]
    pub fn record<'a>(&'a self, level: Level, target: &str, msg: &str) -> LogRecord<'a> {
        if !self.enabled(level) {
            return LogRecord {
                logger: None,
                head: JsonObject::new(),
                fields: JsonObject::new(),
            };
        }
        let ts_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let mut head = JsonObject::new();
        head.str("schema", LOG_SCHEMA)
            .u64("ts_ns", ts_ns)
            .str("level", level.as_str())
            .str("target", target)
            .str("msg", msg);
        LogRecord {
            logger: Some(self),
            head,
            fields: JsonObject::new(),
        }
    }
}

/// A log record under construction; emits on drop — a bare statement
/// like `info("t", "m").u64("k", 1);` is the normal emission idiom, so
/// the type is deliberately not `#[must_use]`. Dead records (level
/// below the logger's minimum) skip all work.
pub struct LogRecord<'a> {
    logger: Option<&'a Logger>,
    head: JsonObject,
    fields: JsonObject,
}

impl LogRecord<'_> {
    /// Whether this record will be emitted.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.logger.is_some()
    }

    /// Attaches the request's trace identity (trace hex + parent-less
    /// correlation).
    pub fn ctx(mut self, ctx: &crate::context::TraceContext) -> Self {
        if self.logger.is_some() {
            self.head.str("trace", &ctx.trace_hex());
        }
        self
    }

    /// Attaches a raw trace-hex correlation id.
    pub fn trace_hex(mut self, hex: &str) -> Self {
        if self.logger.is_some() {
            self.head.str("trace", hex);
        }
        self
    }

    /// Attaches the query id.
    pub fn query(mut self, query_id: u64) -> Self {
        if self.logger.is_some() {
            self.head.u64("query_id", query_id);
        }
        self
    }

    /// Adds an unsigned field under `fields`.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        if self.logger.is_some() {
            self.fields.u64(key, value);
        }
        self
    }

    /// Adds a float field under `fields`.
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        if self.logger.is_some() {
            self.fields.f64(key, value);
        }
        self
    }

    /// Adds a string field under `fields`.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        if self.logger.is_some() {
            self.fields.str(key, value);
        }
        self
    }
}

impl Drop for LogRecord<'_> {
    fn drop(&mut self) {
        let Some(logger) = self.logger else { return };
        let mut head = std::mem::take(&mut self.head);
        head.raw("fields", &std::mem::take(&mut self.fields).finish());
        logger.sink.lock().write_line(&head.finish());
    }
}

/// The process-global logger, configured from `EBI_LOG`,
/// `EBI_LOG_LEVEL` and `EBI_LOG_MAX_BYTES` on first use.
pub fn global() -> &'static Logger {
    static GLOBAL: OnceLock<Logger> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let min = std::env::var("EBI_LOG_LEVEL")
            .ok()
            .and_then(|v| Level::parse(&v))
            .unwrap_or(Level::Info);
        let max_bytes = std::env::var("EBI_LOG_MAX_BYTES")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_MAX_BYTES);
        match std::env::var("EBI_LOG") {
            Ok(path) if !path.is_empty() && path != "stderr" && path != "-" => {
                Logger::file(path, min, max_bytes)
            }
            _ => Logger::stderr(min),
        }
    })
}

/// Starts a `debug` record on the global logger.
pub fn debug(target: &str, msg: &str) -> LogRecord<'static> {
    global().record(Level::Debug, target, msg)
}

/// Starts an `info` record on the global logger.
pub fn info(target: &str, msg: &str) -> LogRecord<'static> {
    global().record(Level::Info, target, msg)
}

/// Starts a `warn` record on the global logger.
pub fn warn(target: &str, msg: &str) -> LogRecord<'static> {
    global().record(Level::Warn, target, msg)
}

/// Starts an `error` record on the global logger.
pub fn error(target: &str, msg: &str) -> LogRecord<'static> {
    global().record(Level::Error, target, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TraceContext;

    #[test]
    fn records_render_schema_correlation_and_fields() {
        let (logger, buf) = Logger::buffer(Level::Debug);
        let ctx = TraceContext::mint();
        logger
            .record(Level::Warn, "service.server", "slow query")
            .ctx(&ctx)
            .query(17)
            .u64("wall_ns", 1_234)
            .str("proto", "tcp");
        let out = buf.lock().clone();
        let line = out.lines().next().expect("one line");
        assert!(line.starts_with("{\"schema\":\"ebi.log.v1\",\"ts_ns\":"));
        assert!(line.contains("\"level\":\"warn\""));
        assert!(line.contains("\"target\":\"service.server\""));
        assert!(line.contains("\"msg\":\"slow query\""));
        assert!(line.contains(&format!("\"trace\":\"{}\"", ctx.trace_hex())));
        assert!(line.contains("\"query_id\":17"));
        assert!(line.contains("\"fields\":{\"wall_ns\":1234,\"proto\":\"tcp\"}"));
        assert_eq!(out.lines().count(), 1);
    }

    #[test]
    fn levels_gate_emission() {
        let (logger, buf) = Logger::buffer(Level::Warn);
        assert!(!logger.record(Level::Debug, "t", "nope").is_live());
        assert!(!logger.record(Level::Info, "t", "nope").is_live());
        logger.record(Level::Error, "t", "yes").u64("k", 1);
        assert_eq!(buf.lock().lines().count(), 1);
        logger.set_min_level(Level::Debug);
        logger.record(Level::Debug, "t", "now visible");
        assert_eq!(buf.lock().lines().count(), 2);
        assert!(logger.enabled(Level::Debug));
    }

    #[test]
    fn level_parse_accepts_names_case_insensitively() {
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse(" info "), Some(Level::Info));
        assert_eq!(Level::parse("fatal"), None);
        assert_eq!(Level::Error.as_str(), "error");
    }

    #[test]
    fn file_sink_appends_and_rotates() {
        let dir = std::env::temp_dir().join(format!(
            "ebi-log-test-{}-{:x}",
            std::process::id(),
            TraceContext::mint().trace_id() as u64
        ));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("service.log");
        // One record is ~105 bytes: the first stays under the cap, the
        // second write crosses it and triggers rotation.
        let logger = Logger::file(&path, Level::Info, 150);
        logger.record(Level::Info, "t", "first");
        let first = std::fs::read_to_string(&path).expect("written");
        assert!(first.contains("\"msg\":\"first\""));
        logger.record(Level::Info, "t", "second");
        let rotated = std::fs::read_to_string(path.with_extension("log.1"));
        assert!(rotated.is_ok(), "previous generation kept at .1");
        logger.record(Level::Info, "t", "third");
        let current = std::fs::read_to_string(&path).expect("reopened");
        assert!(current.contains("\"msg\":\"third\""));
        assert!(!current.contains("\"msg\":\"first\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_buffer_writes_keep_lines_whole() {
        let (logger, buf) = Logger::buffer(Level::Info);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let logger = &logger;
                s.spawn(move || {
                    for i in 0..50u64 {
                        logger
                            .record(Level::Info, "t", "line")
                            .u64("n", t * 100 + i);
                    }
                });
            }
        });
        let out = buf.lock().clone();
        assert_eq!(out.lines().count(), 200);
        assert!(out.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
