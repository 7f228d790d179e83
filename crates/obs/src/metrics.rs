//! A process-global, sharded, lock-cheap metrics registry.
//!
//! Two instrument kinds, both safe to clone and update from any
//! thread without touching the registry again:
//!
//! * [`Counter`] — monotonic `u64` (one relaxed `fetch_add` per
//!   update);
//! * [`Histogram`] — log2-bucketed distribution of latencies or byte
//!   counts, with quantile estimates read from a lock-free snapshot.
//!
//! Instruments are keyed by *name plus labels* (e.g.
//! `ebi_query_latency_ns{phase="eval"}`). Lookup takes one shard
//! mutex chosen by key hash; the returned handle is an `Arc` of the
//! atomics, so hot paths resolve their instruments once and update
//! them registry-free afterwards.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::OnceLock;

/// Shards in a [`MetricsRegistry`]; keys spread by hash so concurrent
/// registrations rarely contend on one mutex.
const SHARDS: usize = 16;

/// The process-global registry — shorthand for
/// [`MetricsRegistry::global`].
#[must_use]
pub fn global() -> &'static MetricsRegistry {
    MetricsRegistry::global()
}

/// Histogram buckets: bucket `0` holds value `0`, bucket `b >= 1`
/// holds values with `floor(log2(v)) == b - 1`, i.e. upper bound
/// `2^b - 1`. 64 value buckets cover the full `u64` range.
const BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log2-bucketed histogram of `u64` samples (nanoseconds, bytes,
/// word counts…). Recording is three relaxed atomic adds; quantiles
/// are estimated from bucket upper bounds, which for log2 buckets
/// means at most 2× overestimation — adequate for latency summaries.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

/// Bucket index for a sample: `0` for value `0`, else
/// `64 - leading_zeros` (i.e. `floor(log2) + 1`).
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `b`.
fn bucket_bound(b: usize) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed)),
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`Histogram`] for the bucketing).
    pub buckets: [u64; BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Upper-bound estimate of quantile `q` in `[0, 1]`; `0` when the
    /// histogram is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bound(b);
            }
        }
        u64::MAX
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Sorted `(key, value)` label pairs identifying one instrument of a
/// metric family.
pub type Labels = Vec<(String, String)>;

fn normalise_labels(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect();
    out.sort();
    out
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Self::Counter(_) => "counter",
            Self::Histogram(_) => "histogram",
        }
    }
}

/// One instrument's state in a [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Histogram distribution (boxed: 65 buckets dwarf the scalars).
    Histogram(Box<HistogramSnapshot>),
}

/// One `(name, labels)` instrument plus its current value.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Metric family name (`ebi_query_latency_ns` style).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
    /// The value at snapshot time.
    pub value: MetricValue,
}

type Shard = Mutex<HashMap<(String, Labels), Instrument>>;

/// A sharded name+labels → instrument registry.
///
/// ```
/// let reg = ebi_obs::MetricsRegistry::new();
/// let c = reg.counter("ebi_pager_page_reads_total", &[]);
/// c.inc();
/// let h = reg.histogram("ebi_query_latency_ns", &[("phase", "eval")]);
/// h.record(1500);
/// assert!(reg.render_prometheus().contains("ebi_pager_page_reads_total 1"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    shards: [Shard; SHARDS],
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-global registry.
    #[must_use]
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    fn shard(&self, name: &str, labels: &Labels) -> &Shard {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut h);
        labels.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn get_or_insert(&self, name: &str, labels: &[(&str, &str)], make: &Instrument) -> Instrument {
        let labels = normalise_labels(labels);
        let mut shard = self.shard(name, &labels).lock();
        let entry = shard
            .entry((name.to_string(), labels))
            .or_insert_with(|| make.clone());
        assert_eq!(
            entry.kind(),
            make.kind(),
            "metric {name:?} already registered as a {}",
            entry.kind()
        );
        entry.clone()
    }

    /// Returns (registering on first use) the counter `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different kind.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, labels, &Instrument::Counter(Counter::default())) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Returns (registering on first use) the histogram `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different kind.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_insert(name, labels, &Instrument::Histogram(Histogram::default())) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Point-in-time copy of every instrument, sorted by name then
    /// labels for deterministic export.
    #[must_use]
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for ((name, labels), inst) in shard.lock().iter() {
                out.push(MetricSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: match inst {
                        Instrument::Counter(c) => MetricValue::Counter(c.get()),
                        Instrument::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                    },
                });
            }
        }
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        out
    }

    /// Drops every instrument (handles already held keep working but
    /// are no longer exported).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Renders the registry in the Prometheus text exposition format.
    /// Histograms emit cumulative `_bucket{le=…}` series plus `_sum`
    /// and `_count`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        crate::export::prometheus_render(&self.snapshot())
    }
}

/// Export-friendly bucket bounds: `(le, cumulative_count)` pairs for
/// non-empty prefixes plus the `+Inf` bucket.
#[must_use]
pub fn cumulative_buckets(snap: &HistogramSnapshot) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut cum = 0u64;
    for (b, &n) in snap.buckets.iter().enumerate() {
        cum += n;
        if n > 0 {
            out.push((bucket_bound(b), cum));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hits", &[("phase", "eval")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same key returns the same underlying atomic.
        assert_eq!(reg.counter("hits", &[("phase", "eval")]).get(), 5);
    }

    #[test]
    fn label_order_does_not_split_instruments() {
        let reg = MetricsRegistry::new();
        reg.counter("c", &[("a", "1"), ("b", "2")]).inc();
        reg.counter("c", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(reg.counter("c", &[("a", "1"), ("b", "2")]).get(), 2);
        assert_eq!(reg.snapshot().len(), 1);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 3, 100, 1000, 1000, 1000, 1000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.sum, 104_105);
        // Ceil-rank 5 of 10 falls in the bucket holding 100 (upper
        // bound 127); p99 lands in the 100_000s bucket.
        assert_eq!(s.quantile(0.5), 127);
        assert_eq!(s.quantile(0.9), 1023);
        assert!(s.p99() >= 100_000);
        assert!(s.quantile(0.0) <= s.quantile(1.0));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.p99(), 0);
        assert!(cumulative_buckets(&s).is_empty());
    }

    #[test]
    fn bucket_of_is_monotonic_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bound(64), u64::MAX);
        for v in [5u64, 17, 300, 40_000, u64::MAX / 2] {
            assert!(v <= bucket_bound(bucket_of(v)));
            assert!(bucket_of(v) == 0 || v > bucket_bound(bucket_of(v) - 1));
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x", &[]);
        let _ = reg.histogram("x", &[]);
    }

    #[test]
    fn snapshot_is_sorted_and_clear_empties() {
        let reg = MetricsRegistry::new();
        reg.counter("zeta", &[]).inc();
        reg.counter("alpha", &[]).inc();
        reg.histogram("mid", &[("q", "1")]).record(9);
        let names: Vec<String> = reg.snapshot().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        reg.clear();
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n", &[]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }
}
