//! Shared renderers: a minimal JSON writer (the vendored `serde` shim
//! has no derive, so observability exports are hand-rolled against a
//! stable, documented schema) and the duration format of the
//! `EXPLAIN ANALYZE` tree. The Prometheus writers are in
//! [`crate::metrics`].

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
    fn fmt_ns_picks_sensible_units() {
        assert_eq!(fmt_ns(412), "412ns");
        assert_eq!(fmt_ns(3_100), "3.1µs");
        assert_eq!(fmt_ns(2_450_000), "2.45ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }
}
