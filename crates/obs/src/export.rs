//! Shared renderers: a minimal JSON writer (the vendored `serde` shim
//! has no derive, so observability exports are hand-rolled against a
//! stable, documented schema) and the Prometheus text exposition
//! format.

use crate::metrics::{cumulative_buckets, MetricSample, MetricValue};
use std::fmt::Write as _;

/// Escapes `s` as the *contents* of a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// An incremental `{…}` object writer producing compact JSON.
#[derive(Debug, Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{}\":", json_escape(key));
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        let _ = write!(self.body, "\"{}\"", json_escape(value));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    /// Adds a float field (`null` when not finite, as JSON has no
    /// NaN/Inf).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.body, "{value}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.body.push_str(json);
        self
    }

    /// Renders the object.
    #[must_use]
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Renders a JSON array from already-rendered element strings.
#[must_use]
pub fn json_array(elems: &[String]) -> String {
    format!("[{}]", elems.join(","))
}

/// Renders a JSON array of strings.
#[must_use]
pub fn json_str_array(elems: &[String]) -> String {
    let rendered: Vec<String> = elems
        .iter()
        .map(|e| format!("\"{}\"", json_escape(e)))
        .collect();
    json_array(&rendered)
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders a `{k="v",…}` label block; empty string for no labels.
#[must_use]
pub fn prom_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn prom_labels_with(labels: &[(String, String)], extra_key: &str, extra_val: &str) -> String {
    let mut all = labels.to_vec();
    all.push((extra_key.to_string(), extra_val.to_string()));
    prom_labels(&all)
}

/// Renders metric samples in the Prometheus text exposition format.
/// Histograms become cumulative `_bucket{le=…}` series plus `_sum`
/// and `_count`.
#[must_use]
pub fn prometheus_render(samples: &[MetricSample]) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for s in samples {
        if last_name != Some(s.name.as_str()) {
            let kind = match &s.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# TYPE {} {kind}", s.name);
            last_name = Some(s.name.as_str());
        }
        match &s.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {v}", s.name, prom_labels(&s.labels));
            }
            MetricValue::Histogram(h) => {
                for (le, cum) in cumulative_buckets(h) {
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {cum}",
                        s.name,
                        prom_labels_with(&s.labels, "le", &le.to_string())
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    s.name,
                    prom_labels_with(&s.labels, "le", "+Inf"),
                    h.count
                );
                let _ = writeln!(out, "{}_sum{} {}", s.name, prom_labels(&s.labels), h.sum);
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    s.name,
                    prom_labels(&s.labels),
                    h.count
                );
            }
        }
    }
    out
}

/// Formats nanoseconds human-readably (`412ns`, `3.1µs`, `2.45ms`,
/// `1.20s`) for the `EXPLAIN ANALYZE` tree.
#[must_use]
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn json_object_renders_compact_and_escaped() {
        let mut o = JsonObject::new();
        o.str("name", "a\"b\\c\nd")
            .u64("n", 7)
            .f64("ratio", 0.5)
            .f64("nan", f64::NAN)
            .bool("ok", true)
            .raw("arr", &json_array(&["1".into(), "2".into()]));
        let s = o.finish();
        assert_eq!(
            s,
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"n\":7,\"ratio\":0.5,\"nan\":null,\"ok\":true,\"arr\":[1,2]}"
        );
    }

    #[test]
    fn json_str_array_escapes_elements() {
        assert_eq!(
            json_str_array(&["a".into(), "b\"c".into()]),
            "[\"a\",\"b\\\"c\"]"
        );
    }

    #[test]
    fn prometheus_render_covers_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("reads_total", &[("dev", "pager")]).add(3);
        let h = reg.histogram("lat_ns", &[]);
        h.record(1);
        h.record(900);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE reads_total counter"));
        assert!(text.contains("reads_total{dev=\"pager\"} 3"));
        assert!(text.contains("lat_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_ns_sum 901"));
        assert!(text.contains("lat_ns_count 2"));
    }

    #[test]
    fn fmt_ns_picks_sensible_units() {
        assert_eq!(fmt_ns(412), "412ns");
        assert_eq!(fmt_ns(3_100), "3.1µs");
        assert_eq!(fmt_ns(2_450_000), "2.45ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }
}
