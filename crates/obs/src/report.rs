//! The unified query-lifecycle record.
//!
//! [`QueryReport`] is what a profiled query yields: the span tree of
//! its phases (reduce → plan → eval → fetch), the paper's logical cost
//! counters, the kernel work counters, and the storage-layer traffic —
//! one struct, three renderings (JSON line, Prometheus text,
//! `EXPLAIN ANALYZE` tree). The executor in `ebi-warehouse` assembles
//! it from the legacy `QueryStats` / `AccessTracker` / `KernelStats`
//! values plus pager and buffer-pool snapshots; by construction
//! `cost.vectors_accessed` is the *same number* the untraced path
//! reports.
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

/// The paper's logical cost metric plus the kernel work counters —
/// the union of what `AccessTracker`, `KernelStats` and `QueryStats`
/// track, flattened to plain numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostCounters {
    /// Distinct bitmap vectors read — the paper's `c_e` / `c_s`.
    pub vectors_accessed: u64,
    /// Word-level literal operations.
    pub literal_ops: u64,
    /// Product terms evaluated.
    pub cube_evals: u64,
    /// Bitmap words the fused kernels actually read.
    pub words_scanned: u64,
    /// Storage bytes examined (8 per dense word + compressed bytes).
    pub bytes_touched: u64,
    /// Compressed windows resolved from container metadata alone.
    pub compressed_chunks_skipped: u64,
    /// Whole segments skipped via summaries.
    pub segments_pruned: u64,
    /// Segments abandoned on an all-zero accumulator.
    pub segments_short_circuited: u64,
}

impl std::ops::AddAssign for CostCounters {
    /// Field-wise sum: every counter is additive across clauses,
    /// shards and queries.
    fn add_assign(&mut self, rhs: Self) {
        self.vectors_accessed += rhs.vectors_accessed;
        self.literal_ops += rhs.literal_ops;
        self.cube_evals += rhs.cube_evals;
        self.words_scanned += rhs.words_scanned;
        self.bytes_touched += rhs.bytes_touched;
        self.compressed_chunks_skipped += rhs.compressed_chunks_skipped;
        self.segments_pruned += rhs.segments_pruned;
        self.segments_short_circuited += rhs.segments_short_circuited;
    }
}

impl CostCounters {
    fn to_json(self) -> String {
        JsonObject::new()
            .u64("vectors_accessed", self.vectors_accessed)
            .u64("literal_ops", self.literal_ops)
            .u64("cube_evals", self.cube_evals)
            .u64("words_scanned", self.words_scanned)
            .u64("bytes_touched", self.bytes_touched)
            .u64("compressed_chunks_skipped", self.compressed_chunks_skipped)
            .u64("segments_pruned", self.segments_pruned)
            .u64("segments_short_circuited", self.segments_short_circuited)
            .finish()
    }
}

/// Physical layout of one index (or one shard of one index) touched by
/// a query — the honest per-index counterpart of the table-wide fold in
/// [`StorageCounters`]. A partially reordered table (one column rebuilt
/// lexicographic, the rest original) reports one entry per index here
/// instead of collapsing the disagreement to `"mixed"`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexLayout {
    /// Index label: the column name, or `column#shard` for a shard.
    pub index: String,
    /// Row order this index was built with (`"original"`,
    /// `"lexicographic"`, `"gray"`).
    pub row_order: &'static str,
    /// Runs of set bits across this index's slices (0 when the index
    /// reports no run statistics).
    pub slice_runs: u64,
    /// Longest single run of set bits across this index's slices.
    pub slice_longest_run: u64,
    /// Uniform granules across this index's slices.
    pub slice_fill_words: u64,
    /// Total storage granules across this index's slices.
    pub slice_total_words: u64,
}

impl IndexLayout {
    fn to_json(&self) -> String {
        JsonObject::new()
            .str("index", &self.index)
            .str("row_order", self.row_order)
            .u64("slice_runs", self.slice_runs)
            .u64("slice_longest_run", self.slice_longest_run)
            .u64("slice_fill_words", self.slice_fill_words)
            .u64("slice_total_words", self.slice_total_words)
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
    /// Runs of set bits across the touched indexes' slices (0 when the
    /// executor did not report run statistics).
    pub slice_runs: u64,
    /// Longest single run of set bits across the slices.
    pub slice_longest_run: u64,
    /// Uniform granules (all-zero / all-one words or fill groups)
    /// across the slices.
    pub slice_fill_words: u64,
    /// Total storage granules across the slices.
    pub slice_total_words: u64,
    /// Physical row order the indexes were built with (`"original"`,
    /// `"lexicographic"`, `"gray"`; `"mixed"` when the touched indexes
    /// disagree — see `index_layouts` for the per-index truth; empty
    /// when not reported).
    pub row_order: &'static str,
    /// Per-index (or per-shard) layout breakdown. Empty when the
    /// executor did not report per-index statistics; otherwise one
    /// entry per touched index, in registration order.
    pub index_layouts: Vec<IndexLayout>,
}

impl StorageCounters {
    /// Folds the touched indexes' layouts into the table-wide
    /// counters: run and word counts sum, the longest run is the
    /// maximum, and `row_order` is the order every index agrees on,
    /// `"mixed"` when they disagree and `"original"` when there are
    /// none. The layouts themselves are kept in `index_layouts`.
    pub fn fold_layouts(&mut self, layouts: impl IntoIterator<Item = IndexLayout>) {
        let mut order: Option<&'static str> = None;
        for il in layouts {
            self.slice_runs += il.slice_runs;
            self.slice_longest_run = self.slice_longest_run.max(il.slice_longest_run);
            self.slice_fill_words += il.slice_fill_words;
            self.slice_total_words += il.slice_total_words;
            order = Some(match order {
                Some(prev) if prev != il.row_order => "mixed",
                _ => il.row_order,
            });
            self.index_layouts.push(il);
        }
        self.row_order = order.unwrap_or("original");
    }

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

    /// Fraction of storage granules that are uniform fills, in `[0, 1]`
    /// — the direct beneficiary of row reordering. `0` when no run
    /// statistics were reported.
    #[must_use]
    pub fn fill_word_fraction(&self) -> f64 {
        if self.slice_total_words == 0 {
            0.0
        } else {
            self.slice_fill_words as f64 / self.slice_total_words as f64
        }
    }

    fn to_json(&self) -> String {
        let layouts: Vec<String> = self
            .index_layouts
            .iter()
            .map(IndexLayout::to_json)
            .collect();
        JsonObject::new()
            .u64("pager_reads", self.pager_reads)
            .u64("pager_writes", self.pager_writes)
            .u64("buffer_hits", self.buffer_hits)
            .u64("buffer_misses", self.buffer_misses)
            .u64("buffer_evictions", self.buffer_evictions)
            .f64("buffer_hit_ratio", self.buffer_hit_ratio())
            .u64("slice_runs", self.slice_runs)
            .u64("slice_longest_run", self.slice_longest_run)
            .u64("slice_fill_words", self.slice_fill_words)
            .u64("slice_total_words", self.slice_total_words)
            .f64("fill_word_fraction", self.fill_word_fraction())
            .str(
                "row_order",
                if self.row_order.is_empty() {
                    "original"
                } else {
                    self.row_order
                },
            )
            .raw("index_layouts", &json_array(&layouts))
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
    /// total and per-phase latency histograms (`phase` label), and the
    /// cost distributions. Label cardinality stays bounded by phase
    /// names; per-query detail belongs in the JSON-lines export.
    pub fn publish(&self, registry: &MetricsRegistry) {
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
            "cost: vectors_accessed={} literal_ops={} cube_evals={} words_scanned={} \
             bytes_touched={} chunks_skipped={} segments_pruned={} short_circuited={}",
            c.vectors_accessed,
            c.literal_ops,
            c.cube_evals,
            c.words_scanned,
            c.bytes_touched,
            c.compressed_chunks_skipped,
            c.segments_pruned,
            c.segments_short_circuited
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
        if s.slice_total_words > 0 || !s.row_order.is_empty() {
            let _ = writeln!(
                out,
                "layout: row_order={} slice_runs={} longest_run={} fill_words={}/{} ({:.1}%)",
                if s.row_order.is_empty() {
                    "original"
                } else {
                    s.row_order
                },
                s.slice_runs,
                s.slice_longest_run,
                s.slice_fill_words,
                s.slice_total_words,
                s.fill_word_fraction() * 100.0
            );
        }
        for il in &s.index_layouts {
            let fill_pct = if il.slice_total_words == 0 {
                0.0
            } else {
                il.slice_fill_words as f64 / il.slice_total_words as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "  index {}: row_order={} slice_runs={} longest_run={} fill_words={}/{} ({fill_pct:.1}%)",
                il.index,
                il.row_order,
                il.slice_runs,
                il.slice_longest_run,
                il.slice_fill_words,
                il.slice_total_words,
            );
        }
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
    fn layout_fold_sums_runs_and_names_the_common_row_order() {
        let layout = |row_order, runs, longest| IndexLayout {
            index: "c".into(),
            row_order,
            slice_runs: runs,
            slice_longest_run: longest,
            slice_fill_words: 1,
            slice_total_words: 4,
        };
        let fold = |layouts: Vec<IndexLayout>| {
            let mut s = StorageCounters::default();
            s.fold_layouts(layouts);
            s
        };
        let same = fold(vec![layout("gray", 3, 9), layout("gray", 5, 2)]);
        assert_eq!(same.row_order, "gray");
        assert_eq!((same.slice_runs, same.slice_longest_run), (8, 9));
        assert_eq!((same.slice_fill_words, same.slice_total_words), (2, 8));
        assert_eq!(same.index_layouts.len(), 2);
        let differing = fold(vec![
            layout("original", 1, 1),
            layout("gray", 1, 1),
            layout("gray", 1, 1),
        ]);
        assert_eq!(differing.row_order, "mixed");
        assert_eq!(fold(Vec::new()).row_order, "original");
    }
}
