//! Spans recorded by the benchmark around calls into public functions:
//! kept in memory, written out as JSON lines when the run ends, and
//! checked before any per-layer number is reported.
//!
//! One op has up to two trees. `client` is the root the load generator
//! saw (the TCP round trip, or the whole batch on `lib_maintain`);
//! `replay` is the root of the in-process layer pass that repeats the
//! same op stage by stage. A span named `probe.*` times a step that is
//! already inside a sibling (QM reduction inside `compile`), so it is
//! left out of every sum.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

pub const CLIENT: &str = "client";
pub const REPLAY: &str = "replay";
const BUDGET_SLACK: f64 = 1.25;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    /// 1-based position in the recorder; 0 is "no span".
    pub id: u32,
    /// Id of the enclosing span, 0 for an op's root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    base: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span that will enclose others; `close` ends it.
    pub fn open(&mut self, name: &'static str, op: u32, parent: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.now();
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn duration_ns(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize - 1];
        s.end_ns - s.start_ns
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                r#"{{"name":"{}","op":{},"id":{},"parent":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.op, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// What the checker found.
pub struct Checked {
    pub spans: usize,
    pub ops: usize,
    /// Broken structure rules (first few, with a total count).
    pub errors: Vec<String>,
    pub error_count: usize,
    /// Ops whose layer self times add up to more than their client span.
    pub over_budget_ops: usize,
    /// Σ over ops of the layer self times, and of the client spans.
    pub layer_total_ns: u64,
    pub client_total_ns: u64,
    /// Median over ops of layer self times ÷ client span.
    pub budget_ratio: f64,
    /// Σ self time by span name (roots and probes included).
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Checked {
    /// The structure rules hold for every span, and the layers of the
    /// median op do not add up to more than its client saw. One op's
    /// two trees are timed in different passes and the host's speed
    /// drifts between them, so a single op that exceeds its client span
    /// is counted in `over_budget_ops`, not failed, and the median may
    /// exceed 1 by `BUDGET_SLACK`: the rule is there to catch time that
    /// is counted twice, which would double it.
    pub fn passed(&self) -> bool {
        self.error_count == 0 && self.budget_ratio <= BUDGET_SLACK
    }

    /// Mean self time per op of the spans called `name`, µs.
    pub fn mean_us(&self, name: &str, ops: usize) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3 / ops as f64
    }
}

/// Checks: every span has an op id and a parent (0 only for a `client`
/// or `replay` root) that is a span of the same op; a child's interval
/// lies inside its parent's; children leave their parent a self time
/// that is not negative; per op, Σ layer self times ≤ the client span.
pub fn check(spans: &[Span]) -> Checked {
    let mut errors = Vec::new();
    let mut error_count = 0usize;
    let mut fail = |msg: String| {
        error_count += 1;
        if errors.len() < 5 {
            errors.push(msg);
        }
    };
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.end_ns < s.start_ns {
            fail(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        if s.parent == 0 {
            if s.name != CLIENT && s.name != REPLAY {
                fail(format!("span {} ({}) has no parent", s.id, s.name));
            }
            continue;
        }
        let Some(p) = spans.get(s.parent as usize - 1).filter(|p| p.id < s.id) else {
            fail(format!(
                "span {} ({}) names a parent that is not recorded",
                s.id, s.name
            ));
            continue;
        };
        if p.op != s.op {
            fail(format!(
                "span {} ({}) and its parent are of different ops",
                s.id, s.name
            ));
        }
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            fail(format!(
                "span {} ({}) leaves its parent's interval",
                s.id, s.name
            ));
        }
        child_ns[p.id as usize - 1] += s.end_ns.saturating_sub(s.start_ns);
    }

    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    // Per op: (client span, Σ layer self times).
    let mut per_op: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let children = child_ns[s.id as usize - 1];
        if children > dur {
            fail(format!("children of span {} ({}) overlap", s.id, s.name));
        }
        let own = dur.saturating_sub(children);
        *self_ns.entry(s.name).or_default() += own;
        let slot = per_op.entry(s.op).or_default();
        if s.name == CLIENT {
            slot.0 += dur;
        } else if s.parent != 0 && !s.name.starts_with("probe.") {
            slot.1 += own;
        }
    }
    let over_budget_ops = per_op.values().filter(|(c, l)| *c > 0 && l > c).count();
    let mut ratios: Vec<f64> = per_op
        .values()
        .filter(|(c, _)| *c > 0)
        .map(|(c, l)| *l as f64 / *c as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    Checked {
        spans: spans.len(),
        ops: per_op.len(),
        errors,
        error_count,
        over_budget_ops,
        layer_total_ns: per_op.values().map(|v| v.1).sum(),
        client_total_ns: per_op.values().map(|v| v.0).sum(),
        budget_ratio: ratios.get(ratios.len() / 2).copied().unwrap_or(0.0),
        self_ns,
    }
}
