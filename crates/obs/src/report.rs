//! The unified query-lifecycle record.
//!
//! [`QueryReport`] is what a profiled query yields: the span tree of
//! its phases (reduce → plan → eval → fetch), its [`CostCounters`] and
//! the storage-layer traffic — one struct, three renderings (JSON line,
//! Prometheus text, `EXPLAIN ANALYZE` tree). [`CostCounters`] is the
//! one record the kernel writes and every layer above sums unchanged,
//! so by construction `cost.vectors_accessed` is the *same number* the
//! untraced path reports. What an index *is* (row order, run
//! statistics) is asked of the index, not carried per query.
//!
//! The JSON schema is stable and documented (DESIGN.md §8): every line
//! carries `"schema":"ebi.query_report.v1"`.

use crate::export::{fmt_ns, json_array, json_str_array, JsonObject};
use crate::metrics::MetricsRegistry;
use crate::span::SpanRecord;
use std::fmt::Write as _;

/// Schema tag stamped on every [`QueryReport`] JSON line.
pub const QUERY_REPORT_SCHEMA: &str = "ebi.query_report.v1";

/// One node of the per-query phase tree, built from finished spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseNode {
    /// Phase name (span name).
    pub name: String,
    /// Start offset from the query's begin, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock nanoseconds spent in the phase.
    pub wall_ns: u64,
    /// Numeric attributes recorded by the span.
    pub attrs: Vec<(String, u64)>,
    /// Child phases, ordered by start time.
    pub children: Vec<PhaseNode>,
}

impl PhaseNode {
    /// Builds the forest of phase trees from finished span records
    /// (roots first, children ordered by start time). Records whose
    /// parent is missing become roots, so partial traces still render.
    #[must_use]
    pub fn forest(records: &[SpanRecord]) -> Vec<PhaseNode> {
        let known: std::collections::HashSet<u64> = records.iter().map(|r| r.id).collect();
        let mut nodes: std::collections::HashMap<u64, PhaseNode> = records
            .iter()
            .map(|r| {
                (
                    r.id,
                    PhaseNode {
                        name: r.name.clone(),
                        start_ns: r.start_ns,
                        wall_ns: r.wall_ns,
                        attrs: r.attrs.clone(),
                        children: Vec::new(),
                    },
                )
            })
            .collect();
        // Attach children to parents deepest-first: records are sorted
        // by start time, so reverse order guarantees a child is folded
        // into its parent before the parent moves.
        let mut roots: Vec<(u64, u64)> = Vec::new(); // (start_ns, id)
        for r in records.iter().rev() {
            if r.parent != 0 && known.contains(&r.parent) && r.parent != r.id {
                if let Some(node) = nodes.remove(&r.id) {
                    if let Some(parent) = nodes.get_mut(&r.parent) {
                        parent.children.insert(0, node);
                    }
                }
            } else {
                roots.push((r.start_ns, r.id));
            }
        }
        roots.sort_unstable();
        roots
            .into_iter()
            .filter_map(|(_, id)| nodes.remove(&id))
            .collect()
    }

    /// Sum of `wall_ns` over this subtree's nodes named `name`.
    #[must_use]
    pub fn wall_ns_of(&self, name: &str) -> u64 {
        let own = if self.name == name { self.wall_ns } else { 0 };
        own + self
            .children
            .iter()
            .map(|c| c.wall_ns_of(name))
            .sum::<u64>()
    }

    fn to_json(&self) -> String {
        let mut attrs = JsonObject::new();
        for (k, v) in &self.attrs {
            attrs.u64(k, *v);
        }
        let children: Vec<String> = self.children.iter().map(PhaseNode::to_json).collect();
        JsonObject::new()
            .str("name", &self.name)
            .u64("start_ns", self.start_ns)
            .u64("wall_ns", self.wall_ns)
            .raw("attrs", &attrs.finish())
            .raw("children", &json_array(&children))
            .finish()
    }
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
    /// shards and queries. Both sides are destructured without `..`: a
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
    /// Adds the kernel counters to the process-wide
    /// `ebi_kernel_*_total` families in `registry`, skipping zeros so a
    /// counter no query moved is never registered.
    fn publish_kernel(&self, registry: &MetricsRegistry) {
        let counters = [
            ("ebi_kernel_words_scanned_total", self.words_scanned),
            ("ebi_kernel_bytes_touched_total", self.bytes_touched),
            (
                "ebi_kernel_compressed_chunks_skipped_total",
                self.compressed_chunks_skipped,
            ),
            ("ebi_kernel_segments_pruned_total", self.segments_pruned),
            (
                "ebi_kernel_segments_short_circuited_total",
                self.segments_short_circuited,
            ),
        ];
        for (name, v) in counters {
            if v != 0 {
                registry.counter(name, &[]).add(v);
            }
        }
    }

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

/// Storage-layer traffic attributable to the query: pager I/O deltas
/// and buffer-pool hit/miss accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageCounters {
    /// Pages read from the pager (buffer misses reach here).
    pub pager_reads: u64,
    /// Pages written to the pager.
    pub pager_writes: u64,
    /// Buffer-pool reads served from memory.
    pub buffer_hits: u64,
    /// Buffer-pool reads that went to the pager.
    pub buffer_misses: u64,
    /// Buffer-pool frames evicted.
    pub buffer_evictions: u64,
}

impl StorageCounters {
    /// Buffer hit ratio in `[0, 1]`; `0` when the pool saw no reads.
    #[must_use]
    pub fn buffer_hit_ratio(&self) -> f64 {
        let total = self.buffer_hits + self.buffer_misses;
        if total == 0 {
            0.0
        } else {
            self.buffer_hits as f64 / total as f64
        }
    }

    fn to_json(&self) -> String {
        JsonObject::new()
            .u64("pager_reads", self.pager_reads)
            .u64("pager_writes", self.pager_writes)
            .u64("buffer_hits", self.buffer_hits)
            .u64("buffer_misses", self.buffer_misses)
            .u64("buffer_evictions", self.buffer_evictions)
            .f64("buffer_hit_ratio", self.buffer_hit_ratio())
            .finish()
    }
}

/// One profiled query, end to end.
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
    /// The phase tree (empty when the subscriber was disabled).
    pub phases: Vec<PhaseNode>,
    /// Evaluation cost counters.
    pub cost: CostCounters,
    /// Storage traffic counters.
    pub storage: StorageCounters,
}

impl QueryReport {
    /// Sum of wall time over every phase named `name` anywhere in the
    /// tree; `None` when no such phase was recorded.
    #[must_use]
    pub fn phase_wall_ns(&self, name: &str) -> Option<u64> {
        let has = self.has_phase(name);
        has.then(|| self.phases.iter().map(|p| p.wall_ns_of(name)).sum())
    }

    fn has_phase(&self, name: &str) -> bool {
        fn walk(n: &PhaseNode, name: &str) -> bool {
            n.name == name || n.children.iter().any(|c| walk(c, name))
        }
        self.phases.iter().any(|p| walk(p, name))
    }

    /// Renders the report as one compact JSON line (schema
    /// `ebi.query_report.v1`, documented in DESIGN.md §8).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let phases: Vec<String> = self.phases.iter().map(PhaseNode::to_json).collect();
        JsonObject::new()
            .str("schema", QUERY_REPORT_SCHEMA)
            .u64("query_id", self.query_id)
            .str("label", &self.label)
            .u64("rows", self.rows)
            .u64("matches", self.matches)
            .u64("wall_ns", self.wall_ns)
            .raw("expressions", &json_str_array(&self.expressions))
            .raw("cost", &self.cost.to_json())
            .raw("storage", &self.storage.to_json())
            .raw("phases", &json_array(&phases))
            .finish()
    }

    /// Distinct phase names in tree order (first occurrence wins).
    fn phase_names(&self) -> Vec<String> {
        fn walk(n: &PhaseNode, out: &mut Vec<String>) {
            if !out.contains(&n.name) {
                out.push(n.name.clone());
            }
            for c in &n.children {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        for p in &self.phases {
            walk(p, &mut out);
        }
        out
    }

    /// Records this query into a metrics registry: one count, the
    /// total and per-phase latency histograms (`phase` label), the cost
    /// distributions, and the kernel counters (`ebi_kernel_*_total`).
    /// Label cardinality stays bounded by phase names; per-query detail
    /// belongs in the JSON-lines export.
    pub fn publish(&self, registry: &MetricsRegistry) {
        self.cost.publish_kernel(registry);
        registry.counter("ebi_queries_total", &[]).inc();
        registry
            .histogram("ebi_query_latency_ns", &[("phase", "total")])
            .record(self.wall_ns);
        for phase in self.phase_names() {
            let ns: u64 = self.phases.iter().map(|p| p.wall_ns_of(&phase)).sum();
            registry
                .histogram("ebi_query_latency_ns", &[("phase", &phase)])
                .record(ns);
        }
        registry
            .histogram("ebi_query_vectors_accessed", &[])
            .record(self.cost.vectors_accessed);
        registry
            .histogram("ebi_query_words_scanned", &[])
            .record(self.cost.words_scanned);
        registry
            .histogram("ebi_query_bytes_touched", &[])
            .record(self.cost.bytes_touched);
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
        if self.phases.is_empty() {
            let _ = writeln!(out, "  (no spans recorded — subscriber disabled)");
        }
        for (i, p) in self.phases.iter().enumerate() {
            render_node(&mut out, p, "", i + 1 == self.phases.len());
        }
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
        let s = &self.storage;
        let _ = writeln!(
            out,
            "storage: pager_reads={} pager_writes={} buffer_hits={} buffer_misses={} \
             evictions={} hit_ratio={:.1}%",
            s.pager_reads,
            s.pager_writes,
            s.buffer_hits,
            s.buffer_misses,
            s.buffer_evictions,
            s.buffer_hit_ratio() * 100.0
        );
        if !self.expressions.is_empty() {
            let _ = writeln!(out, "expressions: {}", self.expressions.join("  |  "));
        }
        out
    }
}

fn render_node(out: &mut String, node: &PhaseNode, prefix: &str, last: bool) {
    let branch = if last { "└─ " } else { "├─ " };
    let attrs = if node.attrs.is_empty() {
        String::new()
    } else {
        let body: Vec<String> = node.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("  [{}]", body.join(" "))
    };
    let _ = writeln!(
        out,
        "{prefix}{branch}{}  {}{attrs}",
        node.name,
        fmt_ns(node.wall_ns)
    );
    let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
    for (i, c) in node.children.iter().enumerate() {
        render_node(out, c, &child_prefix, i + 1 == node.children.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, parent: u64, name: &str, start_ns: u64, wall_ns: u64) -> SpanRecord {
        SpanRecord {
            trace: 1,
            id,
            parent,
            name: name.to_string(),
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
            phases: PhaseNode::forest(&records),
            cost: CostCounters {
                vectors_accessed: 1,
                literal_ops: 2,
                cube_evals: 1,
                words_scanned: 16,
                bytes_touched: 128,
                ..Default::default()
            },
            storage: StorageCounters {
                pager_reads: 3,
                buffer_hits: 9,
                buffer_misses: 3,
                ..Default::default()
            },
        }
    }

    #[test]
    fn forest_builds_the_parent_tree() {
        let r = sample_report();
        assert_eq!(r.phases.len(), 1);
        let root = &r.phases[0];
        assert_eq!(root.name, "query");
        let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["reduce", "eval", "fetch"]);
        assert_eq!(root.children[1].children[0].name, "eval.worker");
    }

    #[test]
    fn orphan_spans_become_roots() {
        let records = vec![record(7, 99, "lost", 0, 10)];
        let forest = PhaseNode::forest(&records);
        assert_eq!(forest.len(), 1);
        assert_eq!(forest[0].name, "lost");
    }

    #[test]
    fn phase_wall_ns_sums_matching_nodes() {
        let r = sample_report();
        assert_eq!(r.phase_wall_ns("eval"), Some(700));
        assert_eq!(r.phase_wall_ns("eval.worker"), Some(650));
        assert_eq!(r.phase_wall_ns("reduce"), Some(100));
        assert_eq!(r.phase_wall_ns("missing"), None);
    }

    #[test]
    fn json_line_has_schema_and_all_sections() {
        let line = sample_report().to_json_line();
        assert!(line.starts_with("{\"schema\":\"ebi.query_report.v1\""));
        for key in [
            "\"query_id\":42",
            "\"cost\":{\"vectors_accessed\":1",
            "\"storage\":{\"pager_reads\":3",
            "\"buffer_hit_ratio\":0.75",
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
        assert!(text.contains("hit_ratio=75.0%"));
    }

    #[test]
    fn publish_records_into_a_registry() {
        let reg = MetricsRegistry::new();
        let r = sample_report();
        r.publish(&reg);
        r.publish(&reg);
        assert_eq!(reg.counter("ebi_queries_total", &[]).get(), 2);
        let snap = reg
            .histogram("ebi_query_latency_ns", &[("phase", "total")])
            .snapshot();
        assert_eq!(snap.count, 2);
        let eval = reg
            .histogram("ebi_query_latency_ns", &[("phase", "eval")])
            .snapshot();
        assert_eq!(eval.count, 2);
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

    #[test]
    fn publish_adds_nonzero_kernel_counters() {
        let reg = MetricsRegistry::new();
        let r = sample_report();
        r.publish(&reg);
        r.publish(&reg);
        assert_eq!(reg.counter("ebi_kernel_words_scanned_total", &[]).get(), 32);
        assert_eq!(
            reg.counter("ebi_kernel_bytes_touched_total", &[]).get(),
            256
        );
        // Zero-valued counters are skipped, not registered as zeros.
        let names: Vec<String> = reg.snapshot().into_iter().map(|s| s.name).collect();
        assert!(!names.contains(&"ebi_kernel_compressed_chunks_skipped_total".to_string()));
    }
}
