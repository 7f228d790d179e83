//! Workspace-wide observability for encoded bitmap indexing.
//!
//! The paper's entire argument rests on a cost model — bitmap *vectors
//! accessed* (footnote 4) plus page I/O — but counting alone does not
//! make a perf trajectory credible: the compression literature the
//! benches compare against reports per-query wall time *and*
//! bytes-touched side by side. This crate is the substrate that ties
//! the logical metric to real time, pages spanned and per-phase
//! breakdowns, for every query, in every crate of the workspace:
//!
//! * [`metrics`] — monotonic [`metrics::Counter`]s and log2-bucketed
//!   [`metrics::Histogram`]s (quantile estimates), plain atomics that
//!   live with whoever owns the event they count, and the Prometheus
//!   text writers a scrape renders them with;
//! * [`span`] — an RAII span API ([`span::Trace`], [`span::Span`])
//!   recording flat [`span::SpanRecord`]s per query, each naming its
//!   parent. Spans carry explicit parent ids so worker threads can
//!   attach to the spawning phase, and cost **one relaxed atomic load**
//!   when the global subscriber is disabled ([`enabled`]);
//! * [`report`] — [`report::CostCounters`], the one cost record the
//!   kernel, the evaluator, every index and every report write and sum,
//!   and [`report::QueryReport`], the query-lifecycle record (span
//!   records, cost counters and, for an `EXPLAIN`, the heap pages its
//!   answer spans) that `ebi-service`'s `execute` assembles, with its
//!   JSON-line and `EXPLAIN ANALYZE` renderings;
//! * [`export`] — the shared JSON writer;
//! * [`context`] — [`context::TraceContext`], the per-request trace
//!   identity propagated in `traceparent` form across frontends and
//!   worker threads;
//! * [`log`] — leveled structured JSONL logging (schema `ebi.log.v1`)
//!   with request correlation and a stderr / rotating-file sink;
//! * [`chrome`] — Chrome trace-event rendering of a report's spans,
//!   loadable in Perfetto.
//!
//! The crate depends on nothing but `parking_lot`, so every other
//! workspace crate can link it without cycles.
//!
//! # Enabling the subscriber
//!
//! The subscriber gates spans and nothing else: metrics count whether
//! it is on or off.
//!
//! ```
//! ebi_obs::set_enabled(true);
//! let trace = ebi_obs::span::Trace::begin();
//! {
//!     let root = trace.root_span("query");
//!     let mut child = root.child("reduce");
//!     child.attr("cubes", 3);
//! } // guards record on drop
//! let records = trace.finish();
//! assert_eq!(records.len(), 2);
//! ebi_obs::set_enabled(false);
//! ```

pub mod chrome;
pub mod context;
pub mod export;
pub mod log;
pub mod metrics;
pub mod report;
pub mod span;

pub use context::TraceContext;
pub use metrics::{Counter, Histogram};
pub use report::{CostCounters, QueryReport};
pub use span::{Span, SpanHandle, SpanRecord, Trace};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Global subscriber switch. All spans no-op while this is `false`
/// (the default).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotonic query-id source for [`report::QueryReport`]s.
static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1);

/// Whether the global subscriber is on. One relaxed atomic load — this
/// is the *entire* cost instrumented hot paths pay when observability
/// is off.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the global subscriber on or off. Spans opened while disabled
/// stay no-ops even if the subscriber is enabled before they drop.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Allocates a fresh process-unique query id.
#[must_use]
pub fn next_query_id() -> u64 {
    NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_ids_are_unique_and_increasing() {
        let a = next_query_id();
        let b = next_query_id();
        assert!(b > a);
    }
}
