//! Chrome trace-event rendering of a query report's spans.
//!
//! `/debug/trace/<id>` serves one retained request as a Chrome
//! trace-event JSON document (the `traceEvents` array format), which
//! loads directly in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`. Each phase span becomes a complete (`"X"`)
//! event; concurrent `eval.worker` spans get their own thread lane so
//! fan-out parallelism is visible instead of self-overlapping, and
//! span attributes ride along as `args`.
//!
//! Timestamps are microseconds (the format's unit) relative to the
//! query's begin, kept as fractional values so nanosecond spans
//! survive.

use crate::export::{json_array, JsonObject};
use crate::report::{children, QueryReport};
use crate::span::SpanRecord;

/// Thread id of the request's main lane.
const MAIN_TID: u64 = 1;

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn metadata(name: &str, tid: u64, value: &str) -> String {
    let mut args = JsonObject::new();
    args.str("name", value);
    JsonObject::new()
        .str("name", name)
        .str("ph", "M")
        .u64("pid", 1)
        .u64("tid", tid)
        .raw("args", &args.finish())
        .finish()
}

fn event(span: &SpanRecord, tid: u64) -> String {
    let mut args = JsonObject::new();
    for (k, v) in &span.attrs {
        args.u64(k, *v);
    }
    JsonObject::new()
        .str("name", span.name)
        .str("ph", "X")
        .u64("pid", 1)
        .u64("tid", tid)
        .f64("ts", us(span.start_ns))
        // Zero-length events vanish in viewers; floor at 1ns.
        .f64("dur", us(span.wall_ns.max(1)))
        .raw("args", &args.finish())
        .finish()
}

fn walk(
    spans: &[SpanRecord],
    span: &SpanRecord,
    tid: u64,
    next_worker_tid: &mut u64,
    events: &mut Vec<String>,
) {
    let own_tid = if span.name == "eval.worker" {
        let t = *next_worker_tid;
        *next_worker_tid += 1;
        events.push(metadata(
            "thread_name",
            t,
            &format!("eval.worker-{}", t - MAIN_TID - 1),
        ));
        t
    } else {
        tid
    };
    events.push(event(span, own_tid));
    for child in children(spans, Some(span)) {
        walk(spans, child, own_tid, next_worker_tid, events);
    }
}

/// Renders a query report's spans as a Chrome trace-event JSON
/// document. `trace_hex` labels the process lane and is echoed in
/// `otherData`.
#[must_use]
pub fn chrome_trace_json(trace_hex: &str, report: &QueryReport) -> String {
    let mut events = vec![
        metadata("process_name", MAIN_TID, "ebi-service query"),
        metadata("thread_name", MAIN_TID, "request"),
    ];
    let mut next_worker_tid = MAIN_TID + 1;
    for root in children(&report.spans, None) {
        walk(
            &report.spans,
            root,
            MAIN_TID,
            &mut next_worker_tid,
            &mut events,
        );
    }
    let other = JsonObject::new()
        .str("trace", trace_hex)
        .u64("query_id", report.query_id)
        .str("label", &report.label)
        .u64("wall_ns", report.wall_ns)
        .u64("matches", report.matches)
        .u64("vectors_accessed", report.cost.vectors_accessed)
        .u64("bytes_touched", report.cost.bytes_touched)
        .finish();
    JsonObject::new()
        .raw("traceEvents", &json_array(&events))
        .str("displayTimeUnit", "ns")
        .raw("otherData", &other)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, parent: u64, name: &'static str, start_ns: u64, wall_ns: u64) -> SpanRecord {
        SpanRecord {
            trace: 1,
            id,
            parent,
            name,
            start_ns,
            wall_ns,
            attrs: if name == "eval.worker" {
                vec![("shard", id)]
            } else {
                Vec::new()
            },
        }
    }

    fn report() -> QueryReport {
        let records = vec![
            record(1, 0, "query", 0, 2_000),
            record(2, 1, "compile", 10, 100),
            record(3, 1, "fanout", 150, 1_500),
            record(4, 3, "eval.worker", 160, 700),
            record(5, 3, "eval.worker", 165, 900),
            record(6, 1, "merge", 1_700, 200),
        ];
        QueryReport {
            query_id: 9,
            label: "a=1".into(),
            wall_ns: 2_000,
            spans: records,
            ..Default::default()
        }
    }

    #[test]
    fn emits_complete_events_with_micros_and_args() {
        let doc = chrome_trace_json("cafe", &report());
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"name\":\"query\""));
        assert!(doc.contains("\"ts\":0.16,\"dur\":0.7")); // worker 4: 160ns → 0.16µs
        assert!(doc.contains("\"args\":{\"shard\":4}"));
        assert!(doc.contains("\"otherData\":{\"trace\":\"cafe\",\"query_id\":9"));
    }

    #[test]
    fn workers_land_on_their_own_lanes() {
        let doc = chrome_trace_json("cafe", &report());
        assert!(doc.contains("\"name\":\"eval.worker-0\""));
        assert!(doc.contains("\"name\":\"eval.worker-1\""));
        // The two worker events use distinct tids above the main lane.
        assert!(doc.contains("\"tid\":2"));
        assert!(doc.contains("\"tid\":3"));
        // Non-worker phases stay on the request lane.
        let merge = doc
            .split("{\"name\":\"merge\"")
            .nth(1)
            .expect("merge event present");
        assert!(merge.starts_with(",\"ph\":\"X\",\"pid\":1,\"tid\":1,"));
    }

    #[test]
    fn empty_forest_still_renders_a_valid_document() {
        let doc = chrome_trace_json("beef", &QueryReport::default());
        assert!(doc.contains("\"traceEvents\":["));
        assert!(doc.contains("\"displayTimeUnit\":\"ns\""));
    }
}
