//! The three renderings of a query report, pinned byte for byte.
//!
//! `render_golden.txt` holds the JSON line, the `EXPLAIN ANALYZE` text
//! and the Chrome trace document of four fixtures. These bytes are
//! schemas `ebi.query_report.v1` and `ebi.trace.v1` and what the trace
//! viewers read: a deliberate change here is a schema change.

use ebi_obs::chrome::chrome_trace_json;
use ebi_obs::{CostCounters, QueryReport, SpanRecord};

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

/// One root, attributes on a phase, a worker nested two deep, and every
/// counter section populated.
fn sample() -> QueryReport {
    let mut spans = vec![
        record(1, 0, "query", 0, 1000),
        record(2, 1, "reduce", 10, 100),
        record(3, 1, "eval", 120, 700),
        record(4, 3, "eval.worker", 130, 650),
        record(5, 1, "fetch", 830, 150),
    ];
    spans[1].attrs = vec![("cubes", 3), ("literals", 5)];
    QueryReport {
        query_id: 42,
        label: "c IN {1,2}".into(),
        rows: 1000,
        matches: 52,
        wall_ns: 1000,
        expressions: vec!["B1'".into(), "c: B2B0' + B1".into()],
        spans,
        cost: CostCounters {
            vectors_accessed: 1,
            literal_ops: 2,
            cube_evals: 1,
            words_scanned: 16,
            bytes_touched: 128,
            ..Default::default()
        },
        pages: 12,
    }
}

/// Two overlapping workers under one fan-out, one with a child of its
/// own: each gets its own Chrome lane, and the child rides on it.
fn lanes() -> QueryReport {
    QueryReport {
        query_id: 9,
        label: "a=1".into(),
        wall_ns: 2_000,
        spans: vec![
            record(1, 0, "query", 0, 2_000),
            record(2, 1, "compile", 10, 100),
            record(3, 1, "fanout", 150, 1_500),
            record(4, 3, "eval.worker", 160, 700),
            record(5, 3, "eval.worker", 165, 900),
            record(7, 4, "kernel", 170, 300),
            record(6, 1, "merge", 1_700, 200),
        ],
        ..Default::default()
    }
}

/// A span whose parent was never recorded becomes a root beside the
/// real one, keeping its own children.
fn orphans() -> QueryReport {
    QueryReport {
        query_id: 3,
        label: "b BETWEEN 1 4".into(),
        rows: 7,
        wall_ns: 41,
        spans: vec![
            record(7, 99, "lost", 0, 10),
            record(8, 7, "eval.worker", 2, 5),
            record(9, 0, "query", 3, 40),
            record(10, 9, "merge", 4, 1_500_000),
        ],
        ..Default::default()
    }
}

/// What a report looks like with the subscriber off: no spans at all.
fn empty() -> QueryReport {
    QueryReport {
        query_id: 1,
        label: "q".into(),
        ..Default::default()
    }
}

#[test]
fn renderings_match_the_phase_tree_renderings_byte_for_byte() {
    let mut out = String::new();
    for (name, r) in [
        ("sample", sample()),
        ("lanes", lanes()),
        ("orphans", orphans()),
        ("empty", empty()),
    ] {
        out += &format!("=== {name} json\n{}\n", r.to_json_line());
        out += &format!("=== {name} explain\n{}", r.explain_analyze());
        out += &format!("=== {name} chrome\n{}\n", chrome_trace_json("cafe", &r));
    }
    let golden = include_str!("render_golden.txt");
    for (got, want) in out.lines().zip(golden.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(out, golden);
}
