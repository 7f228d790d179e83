//! `ebi-lint` — workspace static analysis for the encoded-bitmap repo.
//!
//! A dependency-free, token-level lint driver. It does not parse Rust
//! into an AST; a hand-rolled lexer ([`scanner`]) plus structural token
//! walks are enough for the project-specific invariants the generic
//! toolchain cannot see:
//!
//! - [`locks`] — lock-order analysis: guard-scope tracking (including
//!   the scrutinee-temporary bug class that deadlocked
//!   `WorkerPool::claim` in PR 8), a per-file lock-order graph with
//!   cross-function propagation, cycle detection, and declared-order
//!   checks against the `lint.toml` registry / `LINT_LOCK_ORDER`
//!   annotations.
//! - [`unsafe_audit`] — every `unsafe` site must carry a `// SAFETY:`
//!   or `/// # Safety` justification; all sites are inventoried.
//! - [`policy`] — vendored-only dependencies, the `ebi_*` metric
//!   namespace, the bench-binary usage convention, and structured
//!   logging (service code must emit `ebi.log.v1` via ebi-obs, not
//!   bare `eprintln!`).
//!
//! Results land in a [`report::Report`] rendered as `ebi.lint.v1`
//! JSONL, validated in CI by `scripts/validate_lint_schema.py`.

pub mod config;
pub mod locks;
pub mod policy;
pub mod report;
pub mod scanner;
pub mod unsafe_audit;

use config::Config;
use report::Report;
use std::fs;
use std::path::{Path, PathBuf};

/// Directories never scanned, wherever they appear.
const SKIP_DIRS: &[&str] = &[".git", "target", "vendor", "fixtures", "bench_results"];

/// Loads `lint.toml` from the workspace root. A missing file yields the
/// default (empty) config; a malformed one is an error.
///
/// # Errors
///
/// Propagates [`Config::parse`] errors and I/O errors other than
/// not-found.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    match fs::read_to_string(&path) {
        Ok(src) => Config::parse(&src),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Recursively collects the workspace files to lint: `.rs` sources and
/// `Cargo.toml` manifests, skipping [`SKIP_DIRS`] (vendored code and
/// the lint fixture corpus are scanned only by their dedicated tests).
///
/// # Errors
///
/// I/O errors while walking the tree.
pub fn collect_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    walk(root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name == "Cargo.toml" || name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints one file (Rust source or manifest) into `report`. `rel` is the
/// workspace-relative path used in findings.
fn lint_file(rel: &str, src: &str, config: &Config, report: &mut Report) {
    if rel.ends_with("Cargo.toml") {
        policy::check_manifest(rel, src, &mut report.findings);
        return;
    }
    let tokens = scanner::lex(src);
    locks::check(rel, &tokens, config, &mut report.findings);
    unsafe_audit::check(rel, &tokens, &mut report.findings, &mut report.unsafe_sites);
    policy::check_metrics(rel, &tokens, config, &mut report.findings);
    policy::check_logging(rel, &tokens, config, &mut report.findings);
    policy::check_core_count(rel, &tokens, config, &mut report.findings);
    if rel.contains("src/bin/") {
        policy::check_bin_usage(rel, &tokens, &mut report.findings);
    }
}

/// Runs every lint pass over the workspace rooted at `root`.
///
/// # Errors
///
/// Config or I/O failures; individual findings are *not* errors.
pub fn run(root: &Path) -> Result<Report, String> {
    let config = load_config(root)?;
    let files = collect_files(root)?;
    let mut report = Report {
        lints_run: vec![
            "lock-order",
            "guard-scrutinee",
            "unsafe-audit",
            "vendored-deps",
            "metric-namespace",
            "structured-logging",
            "cached-core-count",
            "bin-usage",
        ],
        ..Report::default()
    };
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        lint_file(&rel, &src, &config, &mut report);
        report.files_scanned += 1;
    }
    report.sort();
    Ok(report)
}

/// Lints a single source string as if it were a workspace file — the
/// entry point the fixture tests use.
#[must_use]
pub fn run_on_source(rel: &str, src: &str, config: &Config) -> Report {
    let mut report = Report {
        files_scanned: 1,
        lints_run: vec![
            "lock-order",
            "guard-scrutinee",
            "unsafe-audit",
            "vendored-deps",
            "metric-namespace",
            "structured-logging",
            "cached-core-count",
            "bin-usage",
        ],
        ..Report::default()
    };
    lint_file(rel, src, config, &mut report);
    report.sort();
    report
}
