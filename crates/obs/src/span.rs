//! Structured, thread-safe RAII spans.
//!
//! A [`Trace`] owns one query's event buffer; [`Span`] guards record
//! into it on drop. Spans form a tree through **explicit parent ids**:
//! a child is opened from its parent guard ([`Span::child`]), or from
//! the [`SpanHandle`] a guard hands to worker threads. No span state
//! lives in a thread-local.
//!
//! Cost model: when the global subscriber is disabled
//! ([`crate::enabled`]), every entry point returns a no-op guard after
//! **one relaxed atomic load** — no allocation, no lock, no clock
//! read. When enabled, opening a span reads the clock and closing it
//! takes the collector mutex once to push the finished record.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Span / trace id source. Id `0` is reserved for "none".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// A finished span, as returned by [`Trace::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Owning trace.
    pub trace: u64,
    /// This span's id.
    pub id: u64,
    /// Parent span id; `0` for a root span.
    pub parent: u64,
    /// Span name (phase label).
    pub name: &'static str,
    /// Start offset from the trace's begin, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub wall_ns: u64,
    /// Numeric attributes attached via [`Span::attr`].
    pub attrs: Vec<(&'static str, u64)>,
}

struct TraceBuf {
    start: Instant,
    records: Vec<PendingRecord>,
}

struct PendingRecord {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    wall_ns: u64,
    attrs: Vec<(&'static str, u64)>,
}

fn collector() -> &'static Mutex<HashMap<u64, TraceBuf>> {
    static COLLECTOR: OnceLock<Mutex<HashMap<u64, TraceBuf>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(HashMap::new()))
}

/// One query's span buffer. Begin before the work, finish after to
/// collect the event tree. Dropping an unfinished trace discards its
/// records.
#[derive(Debug)]
pub struct Trace {
    id: u64,
}

impl Trace {
    /// Starts a trace. Returns an inert trace (every span a no-op)
    /// when the global subscriber is disabled.
    #[must_use]
    pub fn begin() -> Self {
        if !crate::enabled() {
            return Self { id: 0 };
        }
        let id = next_id();
        collector().lock().insert(
            id,
            TraceBuf {
                start: Instant::now(),
                records: Vec::new(),
            },
        );
        Self { id }
    }

    /// Whether this trace records anything.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.id != 0
    }

    /// The trace id (`0` when inert).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Opens a root span (no parent) in this trace.
    #[must_use]
    pub fn root_span(&self, name: &'static str) -> Span {
        Span::open(self.id, 0, name)
    }

    /// Ends the trace and returns its finished spans sorted by start
    /// time. Spans still open at this point are lost — keep guards
    /// inside the trace's lifetime.
    #[must_use]
    pub fn finish(self) -> Vec<SpanRecord> {
        let records = take_trace(self.id);
        std::mem::forget(self);
        records
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        let _ = take_trace(self.id);
    }
}

fn take_trace(id: u64) -> Vec<SpanRecord> {
    if id == 0 {
        return Vec::new();
    }
    let Some(buf) = collector().lock().remove(&id) else {
        return Vec::new();
    };
    let mut out: Vec<SpanRecord> = buf
        .records
        .into_iter()
        .map(|r| SpanRecord {
            trace: id,
            id: r.id,
            parent: r.parent,
            name: r.name,
            start_ns: r
                .start
                .checked_duration_since(buf.start)
                .unwrap_or_default()
                .as_nanos() as u64,
            wall_ns: r.wall_ns,
            attrs: r.attrs,
        })
        .collect();
    out.sort_by_key(|r| (r.start_ns, r.id));
    out
}

/// A copyable reference to an open span, for handing to worker
/// threads so they can open children with an explicit parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandle {
    trace: u64,
    id: u64,
}

impl SpanHandle {
    /// Opens a child span of the referenced span. Workers on any
    /// thread may call this concurrently.
    #[must_use]
    pub fn child(&self, name: &'static str) -> Span {
        Span::open(self.trace, self.id, name)
    }

    /// The owning trace id (`0` for a handle of a dead span). Workers
    /// stamp this on their records' attributes so cross-thread
    /// parentage is checkable end to end.
    #[must_use]
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// The referenced span's id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// An RAII span guard: records `name`, wall time and attributes into
/// its trace when dropped.
#[derive(Debug)]
pub struct Span {
    trace: u64,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    attrs: Vec<(&'static str, u64)>,
}

impl Span {
    /// A guard that records nothing.
    #[must_use]
    pub fn none() -> Self {
        // Dead guards must not read the clock: instrumented hot paths
        // construct one per would-be span even while the subscriber is
        // off. A process-lifetime anchor keeps the struct Option-free.
        static DEAD_START: OnceLock<Instant> = OnceLock::new();
        Self {
            trace: 0,
            id: 0,
            parent: 0,
            name: "",
            start: *DEAD_START.get_or_init(Instant::now),
            attrs: Vec::new(),
        }
    }

    fn open(trace: u64, parent: u64, name: &'static str) -> Self {
        if trace == 0 {
            return Self::none();
        }
        Self {
            trace,
            id: next_id(),
            parent,
            name,
            start: Instant::now(),
            attrs: Vec::new(),
        }
    }

    /// Whether this guard records on drop.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.trace != 0
    }

    /// This span's handle, for explicit-parent children on other
    /// threads.
    #[must_use]
    pub fn handle(&self) -> SpanHandle {
        SpanHandle {
            trace: self.trace,
            id: self.id,
        }
    }

    /// Opens a child span of this one (same thread or not).
    #[must_use]
    pub fn child(&self, name: &'static str) -> Span {
        Span::open(self.trace, self.id, name)
    }

    /// Attaches a numeric attribute, kept in record order. No-op on a
    /// dead guard.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if self.trace != 0 {
            self.attrs.push((key, value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.trace == 0 {
            return;
        }
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        let mut collector = collector().lock();
        if let Some(buf) = collector.get_mut(&self.trace) {
            buf.records.push(PendingRecord {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start: self.start,
                wall_ns,
                attrs: std::mem::take(&mut self.attrs),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-subscriber tests share process state: serialize them.
    fn lock_enabled() -> parking_lot::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = GATE.get_or_init(|| Mutex::new(())).lock();
        crate::set_enabled(true);
        guard
    }

    #[test]
    fn spans_record_a_tree_with_timing_and_attrs() {
        let _gate = lock_enabled();
        let trace = Trace::begin();
        assert!(trace.is_live());
        {
            let root = trace.root_span("query");
            {
                let mut child = root.child("reduce");
                child.attr("cubes", 3);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let _second = root.child("eval");
        }
        crate::set_enabled(false);
        let records = trace.finish();
        assert_eq!(records.len(), 3);
        let root = records.iter().find(|r| r.name == "query").unwrap();
        let reduce = records.iter().find(|r| r.name == "reduce").unwrap();
        let eval = records.iter().find(|r| r.name == "eval").unwrap();
        assert_eq!(root.parent, 0);
        assert_eq!(reduce.parent, root.id);
        assert_eq!(eval.parent, root.id);
        assert!(reduce.wall_ns >= 1_000_000, "slept a millisecond");
        assert!(root.wall_ns >= reduce.wall_ns);
        assert_eq!(reduce.attrs, vec![("cubes", 3)]);
        assert!(eval.start_ns >= reduce.start_ns);
    }

    #[test]
    fn disabled_subscriber_yields_inert_guards() {
        let _gate = lock_enabled();
        crate::set_enabled(false);
        let trace = Trace::begin();
        assert!(!trace.is_live());
        let root = trace.root_span("query");
        assert!(!root.is_live());
        assert!(!root.child("x").is_live());
        drop(root);
        assert!(trace.finish().is_empty());
    }

    #[test]
    fn explicit_parent_ids_work_across_threads() {
        let _gate = lock_enabled();
        let trace = Trace::begin();
        {
            let root = trace.root_span("eval");
            let h = root.handle();
            std::thread::scope(|s| {
                for w in 0..3u64 {
                    s.spawn(move || {
                        let mut span = h.child("worker");
                        span.attr("worker", w);
                    });
                }
            });
        }
        crate::set_enabled(false);
        let records = trace.finish();
        let root_id = records.iter().find(|r| r.name == "eval").unwrap().id;
        let workers: Vec<_> = records.iter().filter(|r| r.name == "worker").collect();
        assert_eq!(workers.len(), 3);
        assert!(workers.iter().all(|w| w.parent == root_id));
    }

    #[test]
    fn dropping_a_trace_discards_its_buffer() {
        let _gate = lock_enabled();
        let trace = Trace::begin();
        let id = trace.id();
        {
            let _s = trace.root_span("query");
        }
        drop(trace);
        crate::set_enabled(false);
        assert!(take_trace(id).is_empty(), "buffer removed on drop");
    }

    #[test]
    fn concurrent_traces_do_not_mix_records() {
        let _gate = lock_enabled();
        let t1 = Trace::begin();
        let t2 = Trace::begin();
        {
            let _a = t1.root_span("one");
            let _b = t2.root_span("two");
        }
        crate::set_enabled(false);
        let r1 = t1.finish();
        let r2 = t2.finish();
        assert_eq!(r1.len(), 1);
        assert_eq!(r1[0].name, "one");
        assert_eq!(r2.len(), 1);
        assert_eq!(r2[0].name, "two");
    }
}
