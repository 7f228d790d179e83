//! `lint.toml` — the machine-readable registry of project invariants.
//!
//! The manifest lives at the workspace root and is parsed with a
//! deliberately small TOML subset (tables, arrays-of-tables, string and
//! string-array values): enough for a registry file the linter owns,
//! with no dependency cost. Unknown keys are ignored so the format can
//! grow without breaking older checkouts.
//!
//! ```toml
//! [metrics]
//! prefixes = ["ebi_query_", "ebi_service_"]
//! wrappers = ["publish"]
//!
//! [logging]
//! structured = ["crates/service/src"]
//!
//! [host]
//! cached_core_count = ["crates/core/src", "crates/service/src"]
//!
//! [[lock_domain]]
//! name = "storage.pager"
//! path = "crates/storage/src/pager.rs"
//! order = ["pages", "stats"]
//! ```
//!
//! Lock domains can equivalently be declared in-source with a
//! `// LINT_LOCK_ORDER: pages < stats` annotation; the lock pass
//! merges both sources.

/// A declared lock-order domain: within `path`, the locks in `order`
/// must only ever nest left-to-right.
#[derive(Debug, Clone, Default)]
pub struct LockDomain {
    /// Human-readable domain name for findings.
    pub name: String,
    /// Workspace-relative file the order applies to.
    pub path: String,
    /// Lock field names, outermost first.
    pub order: Vec<String>,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Allowed metric-name prefixes (`ebi_query_`, …).
    pub metric_prefixes: Vec<String>,
    /// Local wrapper functions whose first string-literal argument is a
    /// metric name (e.g. the storage crate's `publish`).
    pub metric_wrappers: Vec<String>,
    /// Exact `ebi_*` literals exempt from the namespace rule.
    pub metric_allow: Vec<String>,
    /// Workspace-relative path prefixes where logging must go through
    /// `ebi-obs`: bare `println!` / `eprintln!` outside `src/bin/` and
    /// `#[cfg(test)]` is a finding.
    pub structured_logging: Vec<String>,
    /// Workspace-relative path prefixes where the host's core count may
    /// only be queried inside a `OnceLock` initialiser.
    pub cached_core_count: Vec<String>,
    /// Declared lock-order domains.
    pub lock_domains: Vec<LockDomain>,
}

impl Config {
    /// Parses the subset TOML in `src`. Returns `Err` with a
    /// line-numbered message on lines that are not part of the subset.
    ///
    /// # Errors
    ///
    /// Malformed section headers or values outside the supported
    /// subset.
    pub fn parse(src: &str) -> Result<Self, String> {
        let mut cfg = Self::default();
        let mut section = String::new();
        for (idx, raw) in src.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("[[") {
                let name = rest
                    .strip_suffix("]]")
                    .ok_or_else(|| format!("lint.toml:{lineno}: malformed table array header"))?;
                section = name.trim().to_string();
                if section == "lock_domain" {
                    cfg.lock_domains.push(LockDomain::default());
                }
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("lint.toml:{lineno}: malformed table header"))?;
                section = name.trim().to_string();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("lint.toml:{lineno}: expected `key = value`"))?;
            let key = key.trim();
            let value = value.trim();
            match (section.as_str(), key) {
                ("metrics", "prefixes") => cfg.metric_prefixes = parse_string_array(value, lineno)?,
                ("metrics", "wrappers") => cfg.metric_wrappers = parse_string_array(value, lineno)?,
                ("metrics", "allow") => cfg.metric_allow = parse_string_array(value, lineno)?,
                ("logging", "structured") => {
                    cfg.structured_logging = parse_string_array(value, lineno)?;
                }
                ("host", "cached_core_count") => {
                    cfg.cached_core_count = parse_string_array(value, lineno)?;
                }
                ("lock_domain", k) => {
                    let dom = cfg.lock_domains.last_mut().ok_or_else(|| {
                        format!("lint.toml:{lineno}: key outside [[lock_domain]]")
                    })?;
                    match k {
                        "name" => dom.name = parse_string(value, lineno)?,
                        "path" => dom.path = parse_string(value, lineno)?,
                        "order" => dom.order = parse_string_array(value, lineno)?,
                        _ => {} // forward compatibility
                    }
                }
                _ => {} // unknown section/key: ignored
            }
        }
        for dom in &cfg.lock_domains {
            if dom.path.is_empty() || dom.order.len() < 2 {
                return Err(format!(
                    "lint.toml: lock_domain {:?} needs a path and at least two locks in `order`",
                    dom.name
                ));
            }
        }
        Ok(cfg)
    }
}

/// Drops a trailing `# comment`, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("lint.toml:{lineno}: expected a quoted string, got {value:?}"))
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("lint.toml:{lineno}: expected a [\"…\"] array"))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_string(item, lineno)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_real_shape() {
        let cfg = Config::parse(
            r#"
# project invariants
[metrics]
prefixes = ["ebi_query_", "ebi_service_"] # namespace
wrappers = ["publish"]

[logging]
structured = ["crates/service/src"]

[[lock_domain]]
name = "service.pool"
path = "crates/service/src/pool.rs"
order = ["state", "queues"]

[[lock_domain]]
name = "storage.pager"
path = "crates/storage/src/pager.rs"
order = ["pages", "stats"]
"#,
        )
        .expect("parse");
        assert_eq!(cfg.metric_prefixes.len(), 2);
        assert_eq!(cfg.metric_wrappers, vec!["publish"]);
        assert_eq!(cfg.structured_logging, vec!["crates/service/src"]);
        assert_eq!(cfg.lock_domains.len(), 2);
        assert_eq!(cfg.lock_domains[0].order, vec!["state", "queues"]);
        assert_eq!(cfg.lock_domains[1].path, "crates/storage/src/pager.rs");
    }

    #[test]
    fn rejects_underspecified_domain() {
        let err = Config::parse("[[lock_domain]]\nname = \"x\"\n").unwrap_err();
        assert!(err.contains("needs a path"));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(Config::parse("[metrics]\nprefixes = nope\n").is_err());
        assert!(Config::parse("[metrics\nprefixes = [\"a\"]\n").is_err());
    }

    #[test]
    fn empty_config_is_fine() {
        let cfg = Config::parse("").expect("empty");
        assert!(cfg.lock_domains.is_empty());
    }
}
