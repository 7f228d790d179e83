//! The unified query-lifecycle record.
//!
//! [`QueryReport`] is what a served query yields: the span records of
//! its phases (compile → fanout → eval.worker, gather) as
//! [`crate::Trace::finish`] returns them, its [`CostCounters`] and, for
//! an `EXPLAIN`, the heap pages its answer spans —
//! one struct, two renderings (JSON line, `EXPLAIN ANALYZE` tree), each
//! read straight off the flat records by following their parent ids.
//! [`CostCounters`] is the one record the kernel writes and every layer
//! above sums unchanged, so by construction `cost.vectors_accessed` is
//! the *same number* the untraced path reports. What an index *is* (run
//! statistics) is asked of the index, not carried per query.
//!
//! The JSON schema is stable and documented (DESIGN.md §8): every line
//! carries `"schema":"ebi.query_report.v1"`.

use crate::export::{fmt_ns, json_array, json_str_array, JsonObject};
use crate::span::SpanRecord;
use std::fmt::Write as _;

/// Schema tag stamped on every [`QueryReport`] JSON line.
pub const QUERY_REPORT_SCHEMA: &str = "ebi.query_report.v1";

/// The spans directly under `parent` in the phase tree, in start order;
/// `None` selects the roots, which are the spans whose parent is not
/// among `spans`, so a partial trace still renders. `spans` is sorted
/// by start as [`crate::Trace::finish`] returns it, so every parent
/// precedes its children.
pub(crate) fn children<'a>(
    spans: &'a [SpanRecord],
    parent: Option<&'a SpanRecord>,
) -> impl Iterator<Item = &'a SpanRecord> {
    spans.iter().filter(move |s| match parent {
        Some(p) => s.parent == p.id && s.id != p.id,
        None => s.parent == 0 || s.parent == s.id || spans.iter().all(|p| p.id != s.parent),
    })
}

/// What a selection cost — the one record every layer from the kernel
/// to the report writes and sums: the paper's logical metric
/// (`vectors_accessed`, footnote 4's `c_e`), the expression's shape,
/// and the kernel's work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostCounters {
    /// Distinct bitmap vectors read — the paper's `c_e` / `c_s`.
    /// Includes any existence/NULL mask vectors.
    pub vectors_accessed: u64,
    /// Word-level literal operations (AND / AND-NOT per literal, one per
    /// companion mask, one per join of two selections).
    pub literal_ops: u64,
    /// Product terms evaluated.
    pub cube_evals: u64,
    /// OR operations joining product terms.
    pub or_ops: u64,
    /// Dense slice words the kernel's word passes consumed. Unlike
    /// `vectors_accessed` this shrinks when prefix sharing, pruning or
    /// zero propagation skips work.
    pub words_scanned: u64,
    /// Storage bytes examined: 8 per dense word plus every compressed
    /// container byte a window fetch inspected.
    pub bytes_touched: u64,
    /// Compressed (slice, segment) windows classified all-zero or
    /// all-one from container metadata, with no materialisation.
    pub compressed_chunks_skipped: u64,
    /// (term, segment) pairs resolved zero by a window known uniform
    /// (from a summary or container metadata) before any pass ran,
    /// including terms skipped below such a prefix.
    pub segments_pruned: u64,
    /// (term, segment) pairs cut short by an all-zero partial product,
    /// including terms skipped below such a prefix.
    pub segments_short_circuited: u64,
}

impl std::ops::AddAssign for CostCounters {
    /// Field-wise sum: every counter is additive across clauses,
    /// morsels and queries. Both sides are destructured without `..`: a
    /// field added to the struct does not compile until it is named
    /// here, and a name left unsummed is an unused variable, which CI's
    /// `-D warnings` refuses.
    fn add_assign(&mut self, rhs: Self) {
        let Self {
            vectors_accessed,
            literal_ops,
            cube_evals,
            or_ops,
            words_scanned,
            bytes_touched,
            compressed_chunks_skipped,
            segments_pruned,
            segments_short_circuited,
        } = self;
        let Self {
            vectors_accessed: r_vectors_accessed,
            literal_ops: r_literal_ops,
            cube_evals: r_cube_evals,
            or_ops: r_or_ops,
            words_scanned: r_words_scanned,
            bytes_touched: r_bytes_touched,
            compressed_chunks_skipped: r_compressed_chunks_skipped,
            segments_pruned: r_segments_pruned,
            segments_short_circuited: r_segments_short_circuited,
        } = rhs;
        *vectors_accessed += r_vectors_accessed;
        *literal_ops += r_literal_ops;
        *cube_evals += r_cube_evals;
        *or_ops += r_or_ops;
        *words_scanned += r_words_scanned;
        *bytes_touched += r_bytes_touched;
        *compressed_chunks_skipped += r_compressed_chunks_skipped;
        *segments_pruned += r_segments_pruned;
        *segments_short_circuited += r_segments_short_circuited;
    }
}

impl CostCounters {
    fn to_json(self) -> String {
        JsonObject::new()
            .u64("vectors_accessed", self.vectors_accessed)
            .u64("literal_ops", self.literal_ops)
            .u64("cube_evals", self.cube_evals)
            .u64("or_ops", self.or_ops)
            .u64("words_scanned", self.words_scanned)
            .u64("bytes_touched", self.bytes_touched)
            .u64("compressed_chunks_skipped", self.compressed_chunks_skipped)
            .u64("segments_pruned", self.segments_pruned)
            .u64("segments_short_circuited", self.segments_short_circuited)
            .finish()
    }
}

/// One served query, end to end.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryReport {
    /// Process-unique id ([`crate::next_query_id`]).
    pub query_id: u64,
    /// Human-readable query label.
    pub label: String,
    /// Rows the query ran over.
    pub rows: u64,
    /// Rows matched.
    pub matches: u64,
    /// End-to-end wall time, nanoseconds.
    pub wall_ns: u64,
    /// Reduced retrieval expressions, one per clause.
    pub expressions: Vec<String>,
    /// The phase spans as [`crate::Trace::finish`] returned them:
    /// sorted by start, each naming its parent (empty when the
    /// subscriber was disabled).
    pub spans: Vec<SpanRecord>,
    /// Evaluation cost counters.
    pub cost: CostCounters,
    /// Heap pages holding a matching row, counted from the result
    /// bitmaps (no page is read); only `EXPLAIN` counts them, so every
    /// other request's report reads 0.
    pub pages: u64,
}

impl QueryReport {
    /// The top-level spans, as every renderer sees them: a span whose
    /// parent is missing from [`Self::spans`] counts as a root.
    pub fn roots(&self) -> impl Iterator<Item = &SpanRecord> {
        children(&self.spans, None)
    }

    /// Renders the report as one compact JSON line (schema
    /// `ebi.query_report.v1`, documented in DESIGN.md §8).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let phases: Vec<String> = self.roots().map(|s| phase_json(&self.spans, s)).collect();
        JsonObject::new()
            .str("schema", QUERY_REPORT_SCHEMA)
            .u64("query_id", self.query_id)
            .str("label", &self.label)
            .u64("rows", self.rows)
            .u64("matches", self.matches)
            .u64("wall_ns", self.wall_ns)
            .raw("expressions", &json_str_array(&self.expressions))
            .raw("cost", &self.cost.to_json())
            .u64("pages", self.pages)
            .raw("phases", &json_array(&phases))
            .finish()
    }

    /// Renders the human-readable `EXPLAIN ANALYZE` tree.
    #[must_use]
    pub fn explain_analyze(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "EXPLAIN ANALYZE  query #{}  {}  rows={} matches={} wall={}",
            self.query_id,
            self.label,
            self.rows,
            self.matches,
            fmt_ns(self.wall_ns)
        );
        if self.spans.is_empty() {
            let _ = writeln!(out, "  (no spans recorded — subscriber disabled)");
        }
        render_level(&mut out, &self.spans, None, "");
        let c = &self.cost;
        let _ = writeln!(
            out,
            "cost: vectors_accessed={} literal_ops={} cube_evals={} or_ops={} words_scanned={} \
             bytes_touched={} chunks_skipped={} segments_pruned={} short_circuited={}",
            c.vectors_accessed,
            c.literal_ops,
            c.cube_evals,
            c.or_ops,
            c.words_scanned,
            c.bytes_touched,
            c.compressed_chunks_skipped,
            c.segments_pruned,
            c.segments_short_circuited,
        );
        let _ = writeln!(out, "pages: {}", self.pages);
        if !self.expressions.is_empty() {
            let _ = writeln!(out, "expressions: {}", self.expressions.join("  |  "));
        }
        out
    }
}

/// One phase and, nested under `children`, the phases below it.
fn phase_json(spans: &[SpanRecord], span: &SpanRecord) -> String {
    let mut attrs = JsonObject::new();
    for (k, v) in &span.attrs {
        attrs.u64(k, *v);
    }
    let children: Vec<String> = children(spans, Some(span))
        .map(|c| phase_json(spans, c))
        .collect();
    JsonObject::new()
        .str("name", span.name)
        .u64("start_ns", span.start_ns)
        .u64("wall_ns", span.wall_ns)
        .raw("attrs", &attrs.finish())
        .raw("children", &json_array(&children))
        .finish()
}

/// Writes the tree lines of the spans under `parent` (the roots when
/// `None`), each followed by its own subtree.
fn render_level(out: &mut String, spans: &[SpanRecord], parent: Option<&SpanRecord>, prefix: &str) {
    let level: Vec<&SpanRecord> = children(spans, parent).collect();
    for (i, span) in level.iter().enumerate() {
        let last = i + 1 == level.len();
        let branch = if last { "└─ " } else { "├─ " };
        let attrs = if span.attrs.is_empty() {
            String::new()
        } else {
            let body: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("  [{}]", body.join(" "))
        };
        let _ = writeln!(
            out,
            "{prefix}{branch}{}  {}{attrs}",
            span.name,
            fmt_ns(span.wall_ns)
        );
        let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
        render_level(out, spans, Some(span), &child_prefix);
    }
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
            attrs: Vec::new(),
        }
    }

    fn sample_report() -> QueryReport {
        let records = vec![
            record(1, 0, "query", 0, 1000),
            record(2, 1, "reduce", 10, 100),
            record(3, 1, "eval", 120, 700),
            record(4, 3, "eval.worker", 130, 650),
            record(5, 1, "fetch", 830, 150),
        ];
        QueryReport {
            query_id: 42,
            label: "c IN {1,2}".into(),
            rows: 1000,
            matches: 52,
            wall_ns: 1000,
            expressions: vec!["B1'".into()],
            spans: records,
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

    #[test]
    fn json_line_has_schema_and_all_sections() {
        let line = sample_report().to_json_line();
        assert!(line.starts_with("{\"schema\":\"ebi.query_report.v1\""));
        for key in [
            "\"query_id\":42",
            "\"cost\":{\"vectors_accessed\":1",
            "\"pages\":12",
            "\"phases\":[{\"name\":\"query\"",
            "\"expressions\":[\"B1'\"]",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        assert!(!line.contains('\n'));
    }

    #[test]
    fn explain_tree_renders_phases_and_counters() {
        let text = sample_report().explain_analyze();
        assert!(text.contains("EXPLAIN ANALYZE  query #42"));
        assert!(text.contains("└─ query"));
        assert!(text.contains("├─ reduce"));
        assert!(text.contains("│  └─ eval.worker") || text.contains("   └─ eval.worker"));
        assert!(text.contains("vectors_accessed=1"));
        assert!(text.contains("pages: 12"));
    }

    #[test]
    fn disabled_subscriber_report_still_renders() {
        let r = QueryReport {
            query_id: 1,
            label: "q".into(),
            ..Default::default()
        };
        assert!(r.explain_analyze().contains("subscriber disabled"));
        assert!(r.to_json_line().contains("\"phases\":[]"));
    }

    #[test]
    fn every_cost_counter_adds_up() {
        // Distinct powers of two per field: a field dropped or summed
        // into the wrong place changes the total.
        let a = CostCounters {
            vectors_accessed: 1,
            literal_ops: 2,
            cube_evals: 4,
            or_ops: 8,
            words_scanned: 16,
            bytes_touched: 32,
            compressed_chunks_skipped: 64,
            segments_pruned: 128,
            segments_short_circuited: 256,
        };
        let mut sum = a;
        sum += a;
        assert_eq!(
            sum,
            CostCounters {
                vectors_accessed: 2,
                literal_ops: 4,
                cube_evals: 8,
                or_ops: 16,
                words_scanned: 32,
                bytes_touched: 64,
                compressed_chunks_skipped: 128,
                segments_pruned: 256,
                segments_short_circuited: 512,
            }
        );
    }
}
