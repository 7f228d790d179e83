//! Tail sampling: retained traces for "why was *that* query slow?".
//!
//! A [`TraceRing`] keeps two bounded collections of answered requests:
//!
//! * the **recent ring** — the [`RECENT_CAPACITY`] most recent traces;
//! * the **slow log** — the [`SLOW_CAPACITY`] most recent traces whose
//!   wall time reached the slow threshold.
//!
//! Each is one `Mutex<VecDeque>`: a push is one `Arc` under the lock,
//! and at most `max_inflight` requests push at once.
//!
//! A retained trace owns what the request *was* — the parsed
//! [`DnfRequest`] — and how it ran: the flat span
//! records, the cost and storage counters, the match count and the wall
//! time. It holds no text. The label and the clause expressions are
//! built only when something reads the trace ([`RetainedTrace::report`]):
//! the label from the request, the expressions by compiling the request
//! again against the table, which the service borrows immutably for
//! its whole run, so they are the ones that were evaluated.
//!
//! The threshold is either a fixed override (`EBI_SLOW_QUERY_MS`) or a
//! rolling p99 estimate from the ring's own latency histogram. The
//! estimate needs a warm-up: below [`MIN_P99_SAMPLES`] samples nothing
//! is classified slow, so a cold server does not flood the slow log
//! with its first requests.
//!
//! Retained traces render as JSON lines under the stable schema
//! `ebi.trace.v1` (DESIGN.md §13), embedding the query report under its
//! own `ebi.query_report.v1` schema.

use crate::shard::{Clause, DnfRequest, Predicate, ShardedTable};
use ebi_obs::export::JsonObject;
use ebi_obs::metrics::HistogramSnapshot;
use ebi_obs::{Counter, Histogram, QueryReport, TraceContext};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Schema tag stamped on every retained-trace JSON line.
const TRACE_SCHEMA: &str = "ebi.trace.v1";

/// Samples required before the rolling-p99 threshold activates.
const MIN_P99_SAMPLES: u64 = 32;

/// Traces the recent ring keeps.
pub(crate) const RECENT_CAPACITY: usize = 64;

/// Traces the slow log keeps.
pub(crate) const SLOW_CAPACITY: usize = 256;

/// One answered, retained request.
#[derive(Debug)]
pub(crate) struct RetainedTrace {
    /// Global completion order (1-based, increasing).
    pub(crate) seq: u64,
    /// The request's trace identity.
    pub(crate) context: TraceContext,
    /// Whether this trace reached the slow threshold at completion.
    pub(crate) slow: bool,
    /// The threshold that was in force when this trace completed
    /// (`u64::MAX` while the rolling estimate is warming up).
    pub(crate) threshold_ns: u64,
    /// The request as parsed.
    pub(crate) request: DnfRequest,
    /// How the request ran — ids, counts, spans and counters — with
    /// `label` and `expressions` left empty for [`Self::report`].
    pub(crate) run: QueryReport,
}

impl RetainedTrace {
    /// The outbound `traceparent`: the query id is the parent span.
    pub(crate) fn traceparent(&self) -> String {
        self.context.to_traceparent(self.run.query_id)
    }

    /// The full query report, with the label and the clause
    /// expressions rendered now.
    pub(crate) fn report(&self, table: &ShardedTable) -> QueryReport {
        QueryReport {
            label: render_label(&self.request),
            expressions: expressions(table, &self.request),
            ..self.run.clone()
        }
    }

    /// This trace as one `ebi.trace.v1` JSON line.
    pub(crate) fn to_json_line(&self, table: &ShardedTable) -> String {
        JsonObject::new()
            .str("schema", TRACE_SCHEMA)
            .str("trace", &self.context.trace_hex())
            .str("traceparent", &self.traceparent())
            .u64("seq", self.seq)
            .u64("query_id", self.run.query_id)
            .u64("wall_ns", self.run.wall_ns)
            .bool("slow", self.slow)
            .u64("threshold_ns", self.threshold_ns)
            .raw("report", &self.report(table).to_json_line())
            .finish()
    }
}

/// The query as the grammar would spell it, for reports and logs.
pub(crate) fn render_label(dnf: &DnfRequest) -> String {
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

/// Every clause's reduced expression in the paper's notation, in
/// evaluation order. A retained request compiled when it was served and
/// the table has not changed since, so compiling it again cannot fail.
fn expressions(table: &ShardedTable, request: &DnfRequest) -> Vec<String> {
    let Ok(compiled) = table.compile(request) else {
        return Vec::new();
    };
    compiled
        .disjuncts
        .iter()
        .flatten()
        .map(|c| format!("{}: {}", table.columns()[c.column], c.expr))
        .collect()
}

/// The tail-sampling store. All methods are `&self` and thread-safe;
/// request threads call [`TraceRing::record`], debug readers the rest.
#[derive(Debug)]
pub(crate) struct TraceRing {
    recent: Mutex<VecDeque<Arc<RetainedTrace>>>,
    slow: Mutex<VecDeque<Arc<RetainedTrace>>>,
    seq: AtomicU64,
    slow_total: Counter,
    latency: Histogram,
    /// Fixed slow threshold; `None` uses the rolling p99 estimate.
    slow_threshold_ns: Option<u64>,
}

impl TraceRing {
    /// An empty ring with a fixed slow threshold, or with the rolling
    /// p99 estimate when `slow_threshold_ns` is `None`.
    pub(crate) fn new(slow_threshold_ns: Option<u64>) -> Self {
        Self {
            recent: Mutex::new(VecDeque::with_capacity(RECENT_CAPACITY)),
            slow: Mutex::new(VecDeque::new()),
            seq: AtomicU64::new(0),
            slow_total: Counter::new(),
            latency: Histogram::default(),
            slow_threshold_ns,
        }
    }

    /// The slow threshold currently in force, nanoseconds. `u64::MAX`
    /// while the rolling estimate has too few samples.
    pub(crate) fn threshold_ns(&self) -> u64 {
        if let Some(fixed) = self.slow_threshold_ns {
            return fixed;
        }
        let snap = self.latency.snapshot();
        if snap.count < MIN_P99_SAMPLES {
            u64::MAX
        } else {
            snap.p99()
        }
    }

    /// Retains one answered request: `run` is its report with the text
    /// left empty. Returns the retained trace, whose `slow` flag says
    /// whether it also entered the slow log.
    pub(crate) fn record(
        &self,
        context: TraceContext,
        request: DnfRequest,
        run: QueryReport,
    ) -> Arc<RetainedTrace> {
        // Threshold first, then record: a request is judged against
        // the distribution of the requests that preceded it, so a
        // single outlier cannot lift p99 past itself.
        let threshold_ns = self.threshold_ns();
        self.latency.record(run.wall_ns);
        let slow = run.wall_ns >= threshold_ns;
        let retained = {
            let mut recent = self.recent.lock();
            // Numbered under the lock, so the ring is in `seq` order.
            let retained = Arc::new(RetainedTrace {
                seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
                context,
                slow,
                threshold_ns,
                request,
                run,
            });
            if recent.len() == RECENT_CAPACITY {
                recent.pop_front();
            }
            recent.push_back(Arc::clone(&retained));
            retained
        };
        if slow {
            self.slow_total.inc();
            let mut log = self.slow.lock();
            if log.len() == SLOW_CAPACITY {
                log.pop_front();
            }
            log.push_back(Arc::clone(&retained));
        }
        retained
    }

    /// The retained recent traces, oldest first.
    pub(crate) fn recent(&self) -> Vec<Arc<RetainedTrace>> {
        let recent = self.recent.lock();
        recent.iter().cloned().collect()
    }

    /// The retained slow traces, oldest first.
    pub(crate) fn slow(&self) -> Vec<Arc<RetainedTrace>> {
        let slow = self.slow.lock();
        slow.iter().cloned().collect()
    }

    /// Finds a retained trace by key: a decimal query id, or a prefix
    /// (≥ 8 hex digits) of the 32-digit trace hex. The slow log is
    /// searched first, so outliers stay addressable after falling off
    /// the ring; within each, the newest match wins.
    pub(crate) fn find(&self, key: &str) -> Option<Arc<RetainedTrace>> {
        let key = key.trim().to_ascii_lowercase();
        let by_query: Option<u64> = key.parse().ok();
        let hex_prefix = key.len() >= 8 && key.bytes().all(|b| b.is_ascii_hexdigit());
        let newest = |traces: &VecDeque<Arc<RetainedTrace>>| {
            traces
                .iter()
                .rev()
                .find(|t| {
                    by_query == Some(t.run.query_id)
                        || (hex_prefix && t.context.trace_hex().starts_with(&key))
                })
                .cloned()
        };
        // One lock at a time: the slow log's guard drops with this
        // statement.
        let slow = newest(&self.slow.lock());
        slow.or_else(|| newest(&self.recent.lock()))
    }

    /// Total traces ever recorded.
    pub(crate) fn total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Total traces ever classified slow (not just those still in the
    /// bounded slow log).
    pub(crate) fn slow_total(&self) -> u64 {
        self.slow_total.get()
    }

    /// The wall time of every recorded trace, as the rolling slow
    /// threshold sees it.
    pub(crate) fn latency(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> DnfRequest {
        crate::parse_dnf("a=1").expect("parses")
    }

    fn run(query_id: u64, wall_ns: u64) -> QueryReport {
        QueryReport {
            query_id,
            rows: 100,
            wall_ns,
            ..Default::default()
        }
    }

    fn record(ring: &TraceRing, query_id: u64, wall_ns: u64) -> Arc<RetainedTrace> {
        ring.record(TraceContext::mint(), request(), run(query_id, wall_ns))
    }

    #[test]
    fn recent_ring_keeps_exactly_the_newest_traces_in_order() {
        let ring = TraceRing::new(Some(u64::MAX));
        for total in 1..=3 * RECENT_CAPACITY as u64 {
            let _ = record(&ring, total, 10);
            let seqs: Vec<u64> = ring.recent().iter().map(|t| t.seq).collect();
            let kept = total.min(RECENT_CAPACITY as u64);
            let want: Vec<u64> = (total - kept + 1..=total).collect();
            assert_eq!(seqs, want, "after {total} traces");
        }
        assert_eq!(ring.total(), 3 * RECENT_CAPACITY as u64);
        assert_eq!(ring.slow_total(), 0);
        assert!(ring.slow().is_empty());
    }

    #[test]
    fn fixed_threshold_routes_slow_traces() {
        let ring = TraceRing::new(Some(1_000));
        for (q, ns) in [(1u64, 10), (2, 2_000), (3, 999), (4, 1_000), (5, 5_000)] {
            let retained = record(&ring, q, ns);
            assert_eq!(retained.slow, ns >= 1_000, "query {q}");
        }
        let slow: Vec<u64> = ring.slow().iter().map(|t| t.run.query_id).collect();
        assert_eq!(slow, vec![2, 4, 5]);
        assert_eq!(ring.slow_total(), 3);
        // Capacity bound: one more slow trace than the log holds evicts
        // the oldest.
        let more = SLOW_CAPACITY as u64 - 2;
        for q in 6..6 + more {
            let _ = record(&ring, q, 9_000);
        }
        let slow: Vec<u64> = ring.slow().iter().map(|t| t.run.query_id).collect();
        assert_eq!(slow.len(), SLOW_CAPACITY);
        assert_eq!(slow[..3], [4, 5, 6]);
        assert_eq!(ring.slow_total(), 3 + more);
    }

    #[test]
    fn rolling_p99_needs_warmup_then_catches_outliers() {
        let ring = TraceRing::new(None);
        assert_eq!(ring.threshold_ns(), u64::MAX, "cold ring never slow");
        for i in 0..MIN_P99_SAMPLES * 2 {
            let retained = record(&ring, i, 1_000);
            if i < MIN_P99_SAMPLES - 1 {
                assert!(!retained.slow, "warm-up sample {i} must not be slow");
            }
        }
        assert!(ring.threshold_ns() < u64::MAX, "estimate active");
        let outlier = record(&ring, 999, 1_000_000);
        assert!(outlier.slow, "100x outlier exceeds rolling p99");
        assert!(ring.slow().iter().any(|t| t.run.query_id == 999));
    }

    #[test]
    fn find_matches_query_id_and_trace_prefix() {
        let ring = TraceRing::new(None);
        let ctx = TraceContext::mint();
        let _ = ring.record(ctx, request(), run(7, 10));
        let _ = record(&ring, 8, 10);
        assert_eq!(ring.find("7").unwrap().run.query_id, 7);
        let hex = ctx.trace_hex();
        assert_eq!(ring.find(&hex).unwrap().run.query_id, 7);
        assert_eq!(ring.find(&hex[..12]).unwrap().run.query_id, 7);
        assert_eq!(
            ring.find(&hex[..12].to_ascii_uppercase())
                .unwrap()
                .run
                .query_id,
            7,
            "case-insensitive"
        );
        assert!(ring.find("abc").is_none(), "short prefixes don't match");
        assert!(ring.find("424242").is_none());
    }

    #[test]
    fn a_panic_under_the_ring_lock_does_not_poison_it() {
        let ring = TraceRing::new(Some(u64::MAX));
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = ring.recent.lock();
                panic!("a thread panics holding the ring");
            })
            .join()
        });
        assert!(holder.is_err());
        let _ = record(&ring, 9, 10);
        assert_eq!(ring.find("9").expect("retained").run.query_id, 9);
    }

    #[test]
    fn concurrent_recording_is_safe_and_complete() {
        let ring = TraceRing::new(Some(u64::MAX));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..64u64 {
                        let q = t * 1_000 + i;
                        let _ = record(ring, q, q + 1);
                    }
                });
            }
        });
        assert_eq!(ring.total(), 256);
        let seqs: Vec<u64> = ring.recent().iter().map(|t| t.seq).collect();
        assert_eq!(
            seqs,
            (256 - RECENT_CAPACITY as u64 + 1..=256).collect::<Vec<_>>()
        );
    }
}
