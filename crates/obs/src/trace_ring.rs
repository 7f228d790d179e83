//! Tail sampling: retained traces for "why was *that* query slow?".
//!
//! A [`TraceRing`] keeps two bounded collections of completed requests,
//! each carrying its full [`QueryReport`] (kernel tier, vectors
//! accessed, bytes touched, per-shard timings):
//!
//! * the **recent ring** — the N most recent completed traces,
//!   lock-sharded so concurrent request threads rarely contend on the
//!   same mutex;
//! * the **slow log** — every trace whose wall time exceeded the slow
//!   threshold, bounded separately (oldest evicted first).
//!
//! The threshold is either a fixed override (`EBI_SLOW_QUERY_MS`,
//! plumbed in by the service) or a rolling p99 estimate from the
//! ring's own latency histogram. The estimate needs a warm-up: below
//! [`MIN_P99_SAMPLES`] samples nothing is classified slow, so a cold
//! server does not flood the slow log with its first requests.
//!
//! Retained traces render as JSON lines under the stable schema
//! `ebi.trace.v1` (DESIGN.md §13), embedding the query report under
//! its own `ebi.query_report.v1` schema.

use crate::context::TraceContext;
use crate::export::JsonObject;
use crate::metrics::Histogram;
use crate::report::QueryReport;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Schema tag stamped on every retained-trace JSON line.
pub const TRACE_SCHEMA: &str = "ebi.trace.v1";

/// Samples required before the rolling-p99 threshold activates.
pub const MIN_P99_SAMPLES: u64 = 32;

/// Mutex shards in the recent ring.
const RING_SHARDS: usize = 8;

/// One completed, retained request trace.
#[derive(Debug, Clone)]
pub struct RetainedTrace {
    /// Global completion order (1-based, increasing).
    pub seq: u64,
    /// The request's trace identity.
    pub context: TraceContext,
    /// Span id echoed as the outbound `traceparent` parent (the
    /// service uses the query id).
    pub root_span: u64,
    /// Process-unique query id.
    pub query_id: u64,
    /// End-to-end wall time, nanoseconds.
    pub wall_ns: u64,
    /// Whether this trace exceeded the slow threshold at completion.
    pub slow: bool,
    /// The threshold that was in force when this trace completed
    /// (`u64::MAX` while the rolling estimate is warming up).
    pub threshold_ns: u64,
    /// The full per-query report.
    pub report: QueryReport,
}

impl RetainedTrace {
    /// The outbound `traceparent` for this trace.
    #[must_use]
    pub fn traceparent(&self) -> String {
        self.context.to_traceparent(self.root_span)
    }

    /// Renders this trace as one `ebi.trace.v1` JSON line.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        JsonObject::new()
            .str("schema", TRACE_SCHEMA)
            .str("trace", &self.context.trace_hex())
            .str("traceparent", &self.traceparent())
            .u64("seq", self.seq)
            .u64("query_id", self.query_id)
            .u64("wall_ns", self.wall_ns)
            .bool("slow", self.slow)
            .u64("threshold_ns", self.threshold_ns)
            .raw("report", &self.report.to_json_line())
            .finish()
    }
}

/// Sizing and policy knobs for a [`TraceRing`].
#[derive(Debug, Clone, Copy)]
pub struct TraceRingConfig {
    /// Recent-ring capacity (total across shards).
    pub capacity: usize,
    /// Slow-log capacity.
    pub slow_capacity: usize,
    /// Fixed slow threshold in nanoseconds; `None` enables the rolling
    /// p99 estimate.
    pub slow_threshold_ns: Option<u64>,
}

impl Default for TraceRingConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            slow_capacity: 128,
            slow_threshold_ns: None,
        }
    }
}

/// The tail-sampling store. All methods are `&self` and thread-safe;
/// request threads call [`TraceRing::record`], debug endpoints read.
#[derive(Debug)]
pub struct TraceRing {
    shards: Vec<Mutex<VecDeque<Arc<RetainedTrace>>>>,
    slow: Mutex<VecDeque<Arc<RetainedTrace>>>,
    seq: AtomicU64,
    slow_total: AtomicU64,
    latency: Histogram,
    cfg: TraceRingConfig,
    shard_capacity: usize,
}

impl Default for TraceRing {
    fn default() -> Self {
        Self::new(TraceRingConfig::default())
    }
}

impl TraceRing {
    /// Creates a ring; capacities are clamped to at least 1.
    #[must_use]
    pub fn new(cfg: TraceRingConfig) -> Self {
        let cfg = TraceRingConfig {
            capacity: cfg.capacity.max(1),
            slow_capacity: cfg.slow_capacity.max(1),
            slow_threshold_ns: cfg.slow_threshold_ns,
        };
        Self {
            shards: (0..RING_SHARDS)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            slow: Mutex::new(VecDeque::new()),
            seq: AtomicU64::new(0),
            slow_total: AtomicU64::new(0),
            latency: Histogram::default(),
            shard_capacity: cfg.capacity.div_ceil(RING_SHARDS),
            cfg,
        }
    }

    /// The slow threshold currently in force, nanoseconds. `u64::MAX`
    /// while the rolling estimate has too few samples.
    #[must_use]
    pub fn threshold_ns(&self) -> u64 {
        if let Some(fixed) = self.cfg.slow_threshold_ns {
            return fixed;
        }
        let snap = self.latency.snapshot();
        if snap.count < MIN_P99_SAMPLES {
            u64::MAX
        } else {
            snap.p99()
        }
    }

    /// Records one completed request. Returns the retained trace,
    /// whose `slow` flag says whether it also entered the slow log.
    pub fn record(
        &self,
        context: TraceContext,
        root_span: u64,
        report: QueryReport,
    ) -> Arc<RetainedTrace> {
        let wall_ns = report.wall_ns;
        // Threshold first, then record: a request is judged against
        // the distribution of the requests that preceded it, so a
        // single outlier cannot lift p99 past itself.
        let threshold_ns = self.threshold_ns();
        self.latency.record(wall_ns);
        let slow = wall_ns >= threshold_ns;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let retained = Arc::new(RetainedTrace {
            seq,
            context,
            root_span,
            query_id: report.query_id,
            wall_ns,
            slow,
            threshold_ns,
            report,
        });
        let shard = &self.shards[(seq as usize) % RING_SHARDS];
        {
            let mut ring = shard.lock();
            if ring.len() >= self.shard_capacity {
                ring.pop_front();
            }
            ring.push_back(Arc::clone(&retained));
        }
        if slow {
            self.slow_total.fetch_add(1, Ordering::Relaxed);
            let mut log = self.slow.lock();
            if log.len() >= self.cfg.slow_capacity {
                log.pop_front();
            }
            log.push_back(Arc::clone(&retained));
        }
        retained
    }

    /// The retained recent traces, oldest first, at most the
    /// configured capacity.
    #[must_use]
    pub fn recent(&self) -> Vec<Arc<RetainedTrace>> {
        let mut all: Vec<Arc<RetainedTrace>> = Vec::new();
        for shard in &self.shards {
            all.extend(shard.lock().iter().cloned());
        }
        all.sort_by_key(|t| t.seq);
        if all.len() > self.cfg.capacity {
            let drop = all.len() - self.cfg.capacity;
            all.drain(..drop);
        }
        all
    }

    /// The retained slow traces, oldest first.
    #[must_use]
    pub fn slow(&self) -> Vec<Arc<RetainedTrace>> {
        self.slow.lock().iter().cloned().collect()
    }

    /// Finds a retained trace by key: a decimal query id, or a prefix
    /// (≥ 8 hex digits) of the 32-digit trace hex. Slow log wins over
    /// the recent ring so outliers stay addressable after falling off
    /// the ring.
    #[must_use]
    pub fn find(&self, key: &str) -> Option<Arc<RetainedTrace>> {
        let key = key.trim().to_ascii_lowercase();
        let by_query: Option<u64> = key.parse().ok();
        let hex_prefix = key.len() >= 8 && key.bytes().all(|b| b.is_ascii_hexdigit());
        let matches = |t: &Arc<RetainedTrace>| {
            by_query == Some(t.query_id) || (hex_prefix && t.context.trace_hex().starts_with(&key))
        };
        let slow = self.slow.lock().iter().rev().find(|t| matches(t)).cloned();
        slow.or_else(|| {
            let mut best: Option<Arc<RetainedTrace>> = None;
            for shard in &self.shards {
                for t in shard.lock().iter() {
                    if matches(t) && best.as_ref().is_none_or(|b| t.seq > b.seq) {
                        best = Some(Arc::clone(t));
                    }
                }
            }
            best
        })
    }

    /// Total traces ever recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Total traces ever classified slow (not just those still in the
    /// bounded slow log).
    #[must_use]
    pub fn slow_total(&self) -> u64 {
        self.slow_total.load(Ordering::Relaxed)
    }

    /// Renders `traces` as JSON lines (one `ebi.trace.v1` object per
    /// line, trailing newline when non-empty).
    #[must_use]
    pub fn render_json_lines(traces: &[Arc<RetainedTrace>]) -> String {
        let mut out = String::new();
        for t in traces {
            out.push_str(&t.to_json_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(query_id: u64, wall_ns: u64) -> QueryReport {
        QueryReport {
            query_id,
            label: format!("q{query_id}"),
            rows: 100,
            wall_ns,
            ..Default::default()
        }
    }

    #[test]
    fn recent_ring_keeps_the_newest_n() {
        let ring = TraceRing::new(TraceRingConfig {
            capacity: 8,
            slow_capacity: 4,
            slow_threshold_ns: Some(u64::MAX),
        });
        for i in 1..=50u64 {
            let _ = ring.record(TraceContext::mint(), i, report(i, 10));
        }
        let recent = ring.recent();
        assert!(recent.len() <= 8 + RING_SHARDS, "bounded near capacity");
        assert_eq!(ring.total(), 50);
        let seqs: Vec<u64> = recent.iter().map(|t| t.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "oldest first");
        assert_eq!(*seqs.last().unwrap(), 50, "newest retained");
        assert!(seqs[0] > 40, "oldest evicted");
        assert_eq!(ring.slow_total(), 0);
    }

    #[test]
    fn fixed_threshold_routes_slow_traces() {
        let ring = TraceRing::new(TraceRingConfig {
            capacity: 4,
            slow_capacity: 3,
            slow_threshold_ns: Some(1_000),
        });
        for (q, ns) in [(1u64, 10), (2, 2_000), (3, 999), (4, 1_000), (5, 5_000)] {
            let retained = ring.record(TraceContext::mint(), q, report(q, ns));
            assert_eq!(retained.slow, ns >= 1_000, "query {q}");
        }
        let slow: Vec<u64> = ring.slow().iter().map(|t| t.query_id).collect();
        assert_eq!(slow, vec![2, 4, 5]);
        assert_eq!(ring.slow_total(), 3);
        // Capacity bound: one more slow trace evicts the oldest.
        let _ = ring.record(TraceContext::mint(), 6, report(6, 9_000));
        let slow: Vec<u64> = ring.slow().iter().map(|t| t.query_id).collect();
        assert_eq!(slow, vec![4, 5, 6]);
        assert_eq!(ring.slow_total(), 4);
    }

    #[test]
    fn rolling_p99_needs_warmup_then_catches_outliers() {
        let ring = TraceRing::new(TraceRingConfig {
            capacity: 256,
            slow_capacity: 16,
            slow_threshold_ns: None,
        });
        assert_eq!(ring.threshold_ns(), u64::MAX, "cold ring never slow");
        for i in 0..MIN_P99_SAMPLES * 2 {
            let retained = ring.record(TraceContext::mint(), i, report(i, 1_000));
            if i < MIN_P99_SAMPLES - 1 {
                assert!(!retained.slow, "warm-up sample {i} must not be slow");
            }
        }
        assert!(ring.threshold_ns() < u64::MAX, "estimate active");
        let outlier = ring.record(TraceContext::mint(), 999, report(999, 1_000_000));
        assert!(outlier.slow, "100x outlier exceeds rolling p99");
        assert!(ring.slow().iter().any(|t| t.query_id == 999));
    }

    #[test]
    fn find_matches_query_id_and_trace_prefix() {
        let ring = TraceRing::default();
        let ctx = TraceContext::mint();
        let _ = ring.record(ctx, 7, report(7, 10));
        let _ = ring.record(TraceContext::mint(), 8, report(8, 10));
        assert_eq!(ring.find("7").unwrap().query_id, 7);
        let hex = ctx.trace_hex();
        assert_eq!(ring.find(&hex).unwrap().query_id, 7);
        assert_eq!(ring.find(&hex[..12]).unwrap().query_id, 7);
        assert_eq!(
            ring.find(&hex[..12].to_ascii_uppercase()).unwrap().query_id,
            7,
            "case-insensitive"
        );
        assert!(ring.find("abc").is_none(), "short prefixes don't match");
        assert!(ring.find("424242").is_none());
    }

    #[test]
    fn json_line_carries_schema_trace_and_embedded_report() {
        let ring = TraceRing::new(TraceRingConfig {
            capacity: 4,
            slow_capacity: 4,
            slow_threshold_ns: Some(5),
        });
        let retained = ring.record(TraceContext::mint(), 3, report(3, 10));
        let line = retained.to_json_line();
        assert!(line.starts_with("{\"schema\":\"ebi.trace.v1\""));
        assert!(line.contains(&format!("\"trace\":\"{}\"", retained.context.trace_hex())));
        assert!(line.contains("\"slow\":true"));
        assert!(line.contains("\"report\":{\"schema\":\"ebi.query_report.v1\""));
        assert!(!line.contains('\n'));
        let rendered = TraceRing::render_json_lines(&ring.recent());
        assert_eq!(rendered.lines().count(), 1);
    }

    #[test]
    fn concurrent_recording_is_safe_and_complete() {
        let ring = std::sync::Arc::new(TraceRing::new(TraceRingConfig {
            capacity: 1024,
            slow_capacity: 8,
            slow_threshold_ns: Some(u64::MAX),
        }));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = std::sync::Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..64u64 {
                        let q = t * 1_000 + i;
                        let _ = ring.record(TraceContext::mint(), q, report(q, q + 1));
                    }
                });
            }
        });
        assert_eq!(ring.total(), 256);
        assert_eq!(ring.recent().len(), 256);
    }
}
