//! Metric instruments and their Prometheus text rendering.
//!
//! Two instrument kinds, each a handful of atomics that can live in a
//! `static` or a plain struct field:
//!
//! * [`Counter`] — monotonic `u64` (one relaxed `fetch_add` per
//!   update);
//! * [`Histogram`] — log2-bucketed distribution of latencies or byte
//!   counts, with quantile estimates read from a lock-free snapshot.
//!
//! Whoever owns an event counts it in an instrument of its own, and
//! whoever serves a scrape reads those instruments and writes them with
//! [`write_counter`] and [`write_histogram`].

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram buckets: bucket `0` holds value `0`, bucket `b >= 1`
/// holds values with `floor(log2(v)) == b - 1`, i.e. upper bound
/// `2^b - 1`. 64 value buckets cover the full `u64` range.
const BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

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

/// A log2-bucketed histogram of `u64` samples (nanoseconds, bytes,
/// word counts…). Recording is three relaxed atomic adds; quantiles
/// are estimated from bucket upper bounds, which for log2 buckets
/// means at most 2× overestimation — adequate for latency summaries.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
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
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
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

    /// `(le, cumulative count)` for each non-empty bucket, in bucket
    /// order; the `+Inf` bucket is [`Self::count`].
    fn cumulative_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut cum = 0u64;
        self.buckets.iter().enumerate().filter_map(move |(b, &n)| {
            cum += n;
            (n > 0).then(|| (bucket_bound(b), cum))
        })
    }
}

/// `{labels}`, or nothing for an unlabelled series.
fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

/// Appends one counter family in the Prometheus text format: its
/// `# TYPE` line, then one sample per `(labels, value)`. `labels` is
/// what goes between the braces (`proto="tcp",status="ok"`), empty for
/// none; label values are identifiers or numbers, so nothing is escaped.
pub fn write_counter<L: AsRef<str>>(
    out: &mut String,
    name: &str,
    series: impl IntoIterator<Item = (L, u64)>,
) {
    let _ = writeln!(out, "# TYPE {name} counter");
    for (labels, v) in series {
        let _ = writeln!(out, "{name}{} {v}", braced(labels.as_ref()));
    }
}

/// Appends one histogram family in the Prometheus text format: per
/// `(labels, snapshot)`, cumulative `_bucket{…,le=…}` series for the
/// non-empty buckets and `+Inf`, then `_sum` and `_count`. `labels` is
/// as for [`write_counter`].
pub fn write_histogram<L: AsRef<str>>(
    out: &mut String,
    name: &str,
    series: impl IntoIterator<Item = (L, HistogramSnapshot)>,
) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (labels, h) in series {
        let labels = labels.as_ref();
        let sep = if labels.is_empty() { "" } else { "," };
        for (le, cum) in h.cumulative_buckets() {
            let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum{} {}", braced(labels), h.sum);
        let _ = writeln!(out, "{name}_count{} {}", braced(labels), h.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
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
        assert_eq!(s.cumulative_buckets().count(), 0);
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
    fn concurrent_updates_do_not_lose_counts() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn prometheus_writers_cover_both_kinds() {
        let h = Histogram::new();
        h.record(1);
        h.record(900);
        let mut text = String::new();
        write_counter(&mut text, "reads_total", [("dev=\"pager\"", 3)]);
        write_histogram(&mut text, "lat_ns", [("", h.snapshot())]);
        write_histogram(&mut text, "eval_ns", [("shard=\"0\"", h.snapshot())]);
        assert!(text.contains("# TYPE reads_total counter"));
        assert!(text.contains("reads_total{dev=\"pager\"} 3"));
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_ns_sum 901"));
        assert!(text.contains("lat_ns_count 2"));
        assert!(text.contains("eval_ns_bucket{shard=\"0\",le=\"1023\"} 2"));
        assert!(text.contains("eval_ns_count{shard=\"0\"} 2"));
    }
}
