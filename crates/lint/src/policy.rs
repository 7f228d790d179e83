//! Project-policy lints: vendored-dependency manifests, the Prometheus
//! metric namespace, and the bench-binary usage convention.
//!
//! - `vendored-deps` — every dependency in every `Cargo.toml` must
//!   resolve from the repo itself: a `path` entry (the `vendor/` shims
//!   or a sibling crate) or `workspace = true` inheriting one. A bare
//!   version string would make the offline container reach for
//!   crates.io and fail; the lint fails first with a better message.
//! - `metric-namespace` — metric-name string literals must start with
//!   one of the declared `ebi_*` prefixes from `lint.toml`. Checked at
//!   registry call sites (`.counter("…")`, `.histogram("…")`), at
//!   declared wrapper fns (`publish("…")`), and
//!   for any *full-match* `ebi_[a-z0-9_]+` literal anywhere outside
//!   `#[cfg(test)]` modules — so a typo'd prefix cannot hide behind an
//!   unknown call shape.
//! - `cached-core-count` — under the declared path prefixes,
//!   `available_parallelism` (a `sched_getaffinity` call plus cgroup
//!   file reads, ~14 µs) may only appear inside a `get_or_init`
//!   initialiser, so no per-query path can pay for it.
//! - `bin-usage` — binaries that read `env::args` must define a `USAGE`
//!   string and exit with status 2 on bad arguments, the convention the
//!   bench harness and CI scripts rely on.

use crate::config::Config;
use crate::report::{Finding, Severity};
use crate::scanner::{Token, TokenKind};

// ---------------------------------------------------------------------------
// vendored-deps: Cargo.toml manifests.
// ---------------------------------------------------------------------------

/// Checks one `Cargo.toml` for non-vendored dependencies.
pub fn check_manifest(file: &str, src: &str, findings: &mut Vec<Finding>) {
    let mut in_dep_section = false;
    for (idx, raw) in src.lines().enumerate() {
        let lineno = u32::try_from(idx + 1).unwrap_or(u32::MAX);
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            let section = line.trim_matches(|c| c == '[' || c == ']');
            in_dep_section = section == "dependencies"
                || section == "dev-dependencies"
                || section == "build-dependencies"
                || section == "workspace.dependencies"
                || section.ends_with(".dependencies")
                || section.ends_with(".dev-dependencies");
            continue;
        }
        if !in_dep_section {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        // `foo.workspace = true` / `foo.path = "…"` dotted form.
        if key.ends_with(".workspace") || key.ends_with(".path") {
            continue;
        }
        let dep = key;
        if value.starts_with('"') {
            findings.push(Finding {
                lint: "vendored-deps",
                severity: Severity::Error,
                file: file.to_string(),
                line: lineno,
                message: format!(
                    "dependency `{dep}` uses a bare crates.io version; declare it with a \
                     `path` into vendor/ or `workspace = true`"
                ),
            });
            continue;
        }
        if value.starts_with('{') && !value.contains("path") && !value.contains("workspace") {
            findings.push(Finding {
                lint: "vendored-deps",
                severity: Severity::Error,
                file: file.to_string(),
                line: lineno,
                message: format!(
                    "dependency `{dep}` has neither `path` nor `workspace = true`; the \
                     offline build cannot resolve it"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// metric-namespace: Rust sources.
// ---------------------------------------------------------------------------

/// Checks metric-name literals in one lexed Rust file.
pub fn check_metrics(file: &str, tokens: &[Token], config: &Config, findings: &mut Vec<Finding>) {
    if config.metric_prefixes.is_empty() {
        return; // no registry: the lint is unconfigured, not violated
    }
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let test_ranges = cfg_test_ranges(&code);
    let in_test = |i: usize| test_ranges.iter().any(|(a, b)| i > *a && i < *b);

    let registry_methods = ["counter", "histogram"];
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Str {
            continue;
        }
        if in_test(i) {
            continue;
        }
        let name = tok.text.as_str();
        // Is this literal the first argument of a metric call?
        let is_metric_arg = i >= 2
            && code[i - 1].is("(")
            && code[i - 2].kind == TokenKind::Ident
            && (registry_methods.contains(&code[i - 2].text.as_str())
                || config
                    .metric_wrappers
                    .iter()
                    .any(|w| w == &code[i - 2].text));
        // Or a free-floating full-match ebi_* literal?
        let looks_like_metric = name.starts_with("ebi_")
            && name.len() > 4
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        if !is_metric_arg && !looks_like_metric {
            continue;
        }
        if is_metric_arg && !name.starts_with("ebi_") {
            // Registry call with a non-ebi literal (label values, help
            // text passed positionally, …): only flag when it plausibly
            // is a metric name — all lowercase identifier characters.
            let ident_like = !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            if !ident_like {
                continue;
            }
        }
        if config.metric_allow.iter().any(|a| a == name) {
            continue;
        }
        if !config.metric_prefixes.iter().any(|p| name.starts_with(p)) {
            findings.push(Finding {
                lint: "metric-namespace",
                severity: Severity::Error,
                file: file.to_string(),
                line: tok.line,
                message: format!(
                    "metric name \"{name}\" is outside the declared namespace (allowed \
                     prefixes: {})",
                    config.metric_prefixes.join(", ")
                ),
            });
        }
    }
}

/// Finds `(open, close)` code-index ranges of `#[cfg(test)] mod … { }`.
fn cfg_test_ranges(code: &[&Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 6 < code.len() {
        if code[i].is("#")
            && code[i + 1].is("[")
            && code[i + 2].is("cfg")
            && code[i + 3].is("(")
            && code[i + 4].is("test")
            && code[i + 5].is(")")
            && code[i + 6].is("]")
        {
            // Find the `mod … {` that follows.
            let mut j = i + 7;
            while j < code.len() && !code[j].is("{") && !code[j].is(";") {
                j += 1;
            }
            if j < code.len() && code[j].is("{") {
                let mut depth = 0i32;
                let mut k = j;
                while k < code.len() {
                    match code[k].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                out.push((j, k));
                i = k;
            }
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// structured-logging: service code must log through ebi-obs.
// ---------------------------------------------------------------------------

/// Flags bare `println!` / `eprintln!` in files under a declared
/// `[logging] structured` path prefix. Binaries (`src/bin/`) and
/// `#[cfg(test)]` modules are exempt: the rule targets library code on
/// the request path, whose output must be the `ebi.log.v1` JSONL that
/// request-id correlation and the log sinks rely on.
pub fn check_logging(file: &str, tokens: &[Token], config: &Config, findings: &mut Vec<Finding>) {
    if config.structured_logging.is_empty() {
        return; // no registry: the lint is unconfigured, not violated
    }
    if !config
        .structured_logging
        .iter()
        .any(|p| file.starts_with(p.as_str()))
    {
        return;
    }
    if file.contains("src/bin/") {
        return;
    }
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let test_ranges = cfg_test_ranges(&code);
    let in_test = |i: usize| test_ranges.iter().any(|(a, b)| i > *a && i < *b);
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident || (tok.text != "eprintln" && tok.text != "println") {
            continue;
        }
        if !code.get(i + 1).is_some_and(|t| t.is("!")) || in_test(i) {
            continue;
        }
        findings.push(Finding {
            lint: "structured-logging",
            severity: Severity::Error,
            file: file.to_string(),
            line: tok.line,
            message: format!(
                "bare `{}!` in structured-logging code; emit `ebi.log.v1` records via \
                 ebi_obs::log instead",
                tok.text
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// cached-core-count: the host's core count is read once per process.
// ---------------------------------------------------------------------------

/// Flags `available_parallelism` outside a `get_or_init(…)` initialiser
/// in files under a declared `[host] cached_core_count` path prefix.
/// The query costs microseconds (an affinity syscall plus cgroup file
/// reads), which dwarfs a small query when it sits on the evaluation
/// path; library code reads it through a `OnceLock`. `#[cfg(test)]`
/// modules are exempt.
pub fn check_core_count(
    file: &str,
    tokens: &[Token],
    config: &Config,
    findings: &mut Vec<Finding>,
) {
    if !config
        .cached_core_count
        .iter()
        .any(|p| file.starts_with(p.as_str()))
    {
        return;
    }
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let test_ranges = cfg_test_ranges(&code);
    let in_test = |i: usize| test_ranges.iter().any(|(a, b)| i > *a && i < *b);
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident || tok.text != "available_parallelism" || in_test(i) {
            continue;
        }
        if !inside_get_or_init(&code[..i]) {
            findings.push(Finding {
                lint: "cached-core-count",
                severity: Severity::Error,
                file: file.to_string(),
                line: tok.line,
                message: "`available_parallelism` outside a `OnceLock::get_or_init` \
                          initialiser; read the core count once per process \
                          (ebi_core::parallel::host_cores)"
                    .to_string(),
            });
        }
    }
}

/// `true` if the position after `before` lies within the argument list
/// of a `get_or_init(` call: walking outwards through the enclosing
/// brackets meets one before leaving the function.
fn inside_get_or_init(before: &[&Token]) -> bool {
    let mut closed = 0usize;
    for (i, tok) in before.iter().enumerate().rev() {
        match tok.text.as_str() {
            ")" | "]" | "}" => closed += 1,
            "(" | "[" | "{" if closed > 0 => closed -= 1,
            "(" if i > 0 && before[i - 1].is("get_or_init") => return true,
            "fn" if tok.kind == TokenKind::Ident => return false,
            _ => {}
        }
    }
    false
}

// ---------------------------------------------------------------------------
// bin-usage: src/bin/*.rs convention.
// ---------------------------------------------------------------------------

/// Checks that a binary reading CLI arguments follows the shared
/// `USAGE` / `exit(2)` convention. Only called for files under
/// `src/bin/`.
pub fn check_bin_usage(file: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    // Does it read CLI args at all? `env::args(…)` or `std::env::args`.
    // (`::` lexes as two single-character puncts.)
    let reads_args = code.windows(4).any(|w| {
        w[0].is("env") && w[1].is(":") && w[2].is(":") && (w[3].is("args") || w[3].is("args_os"))
    });
    if !reads_args {
        return;
    }
    let has_usage = code
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text == "USAGE");
    let has_exit_2 = code.windows(4).any(|w| {
        w[0].is("exit")
            && w[1].is("(")
            && w[2].kind == TokenKind::Number
            && w[2].text == "2"
            && w[3].is(")")
    });
    if !has_usage {
        findings.push(Finding {
            lint: "bin-usage",
            severity: Severity::Warn,
            file: file.to_string(),
            line: 1,
            message: "binary reads env::args but defines no `USAGE` string; bench/CI bins \
                      share a usage convention"
                .to_string(),
        });
    }
    if !has_exit_2 {
        findings.push(Finding {
            lint: "bin-usage",
            severity: Severity::Warn,
            file: file.to_string(),
            line: 1,
            message: "binary reads env::args but never exits with status 2 on bad \
                      arguments; bench/CI bins share an exit-2 convention"
                .to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::lex;

    fn metric_config() -> Config {
        Config {
            metric_prefixes: vec!["ebi_query_".into(), "ebi_service_".into()],
            metric_wrappers: vec!["publish".into()],
            metric_allow: vec!["ebi_build_info".into()],
            structured_logging: Vec::new(),
            cached_core_count: vec!["crates/core/src".into()],
            lock_domains: Vec::new(),
        }
    }

    #[test]
    fn core_count_must_sit_in_a_once_lock_initialiser() {
        let bare =
            "fn threads() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }";
        let cached = "fn cores() -> usize {\n    static C: OnceLock<usize> = OnceLock::new();\n    *C.get_or_init(|| {\n        let n = std::thread::available_parallelism();\n        n.map_or(1, |n| n.get())\n    })\n}\nfn after() { let _ = (1, 2); }";
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::thread::available_parallelism(); }\n}";
        for (rel, src, expect) in [
            ("crates/core/src/parallel.rs", bare, 1),
            ("crates/core/src/parallel.rs", cached, 0),
            ("crates/core/src/parallel.rs", in_test, 0),
            ("crates/bench/src/bin/tool.rs", bare, 0),
        ] {
            let mut findings = Vec::new();
            check_core_count(rel, &lex(src), &metric_config(), &mut findings);
            assert_eq!(findings.len(), expect, "{rel}: {findings:?}");
            assert!(findings.iter().all(|f| f.lint == "cached-core-count"));
        }
    }

    #[test]
    fn bare_version_is_flagged() {
        let mut findings = Vec::new();
        check_manifest(
            "Cargo.toml",
            "[dependencies]\nserde = \"1.0\"\n",
            &mut findings,
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "vendored-deps");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn path_and_workspace_deps_pass() {
        let mut findings = Vec::new();
        check_manifest(
            "Cargo.toml",
            "[dependencies]\nebi-core = { path = \"../core\" }\nrand_shim = { workspace = true }\nebi-bitvec.workspace = true\n\n[workspace.dependencies]\nrand_shim = { path = \"vendor/rand_shim\" }\n",
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn non_dep_sections_ignored() {
        let mut findings = Vec::new();
        check_manifest(
            "Cargo.toml",
            "[package]\nname = \"x\"\nversion = \"0.1.0\"\n\n[features]\ndefault = [\"a\"]\n",
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn bad_metric_name_at_registry_call() {
        let mut findings = Vec::new();
        check_metrics(
            "m.rs",
            &lex("fn f(reg: &Registry) { reg.counter(\"queries_total\", 1); }"),
            &metric_config(),
            &mut findings,
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "metric-namespace");
    }

    #[test]
    fn good_metric_and_wrapper_pass() {
        let mut findings = Vec::new();
        check_metrics(
            "m.rs",
            &lex(
                "fn f(reg: &Registry) { reg.counter(\"ebi_query_total\", 1); publish(\"ebi_service_up\", 1); }",
            ),
            &metric_config(),
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn stray_full_match_ebi_literal_flagged() {
        let mut findings = Vec::new();
        check_metrics(
            "m.rs",
            &lex("const NAME: &str = \"ebi_bogus_total\";"),
            &metric_config(),
            &mut findings,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn allowlist_and_test_mod_exempt() {
        let mut findings = Vec::new();
        check_metrics(
            "m.rs",
            &lex(
                "const B: &str = \"ebi_build_info\";\n#[cfg(test)]\nmod tests {\n    const T: &str = \"ebi_test_only\";\n}\n",
            ),
            &metric_config(),
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn help_text_in_registry_call_not_flagged() {
        let mut findings = Vec::new();
        check_metrics(
            "m.rs",
            &lex("fn f(reg: &Registry) { reg.counter(\"ebi_query_total\", \"Total queries served.\"); }"),
            &metric_config(),
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn bin_without_usage_flagged() {
        let mut findings = Vec::new();
        check_bin_usage(
            "src/bin/t.rs",
            &lex("fn main() { let a: Vec<String> = std::env::args().collect(); }"),
            &mut findings,
        );
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.lint == "bin-usage"));
    }

    #[test]
    fn conforming_bin_passes() {
        let mut findings = Vec::new();
        check_bin_usage(
            "src/bin/t.rs",
            &lex(
                "const USAGE: &str = \"usage: t\";\nfn main() { let a: Vec<String> = std::env::args().collect(); if a.len() > 9 { eprintln!(\"{USAGE}\"); std::process::exit(2); } }",
            ),
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn bin_without_args_is_exempt() {
        let mut findings = Vec::new();
        check_bin_usage("src/bin/t.rs", &lex("fn main() { run(); }"), &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
