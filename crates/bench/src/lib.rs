//! Shared harness code for the figure generators (`src/bin`) and the
//! Criterion benches (`benches/`).
//!
//! Each paper artefact (figure, table, quantitative claim) has one
//! binary that prints the regenerated series next to the analytical
//! model and writes a CSV under `bench_results/`. See DESIGN.md §3 for
//! the experiment index and EXPERIMENTS.md for paper-vs-measured notes.

use ebi_storage::Cell;
use ebi_warehouse::generator::{generate_column, ColumnSpec};
use std::path::{Path, PathBuf};

/// Default row count used by the measured sides of the figures.
pub const DEFAULT_ROWS: usize = 100_000;

/// A uniform column of cardinality `m`.
#[must_use]
pub fn uniform_cells(m: u64, rows: usize, seed: u64) -> Vec<Cell> {
    generate_column(&ColumnSpec::uniform(m), rows, seed)
}

/// A Zipf-skewed column.
#[must_use]
pub fn zipf_cells(m: u64, theta: f64, rows: usize, seed: u64) -> Vec<Cell> {
    generate_column(&ColumnSpec::zipf(m, theta), rows, seed)
}

/// The `bench_results/` directory at the workspace root (created on
/// demand).
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("bench_results");
    std::fs::create_dir_all(&dir).expect("create bench_results/");
    dir
}

/// Writes `content` to `bench_results/<name>` and reports the path.
///
/// # Panics
///
/// Panics on I/O failure.
pub fn write_result(name: &str, content: &str) {
    let path = out_dir().join(name);
    std::fs::write(&path, content).expect("write bench result");
    println!("[written] {}", path.display());
}

/// Writes a `BENCH_*.json` artefact into `out_dir`, or the workspace
/// root when `None` (`--out-dir` regenerates committed baselines).
///
/// # Panics
///
/// Panics on I/O failure.
pub fn write_json(out_dir: Option<&Path>, name: &str, json: &str) {
    let root;
    let dir = match out_dir {
        Some(d) => d,
        None => {
            root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
            &root
        }
    };
    std::fs::create_dir_all(dir).expect("create output directory");
    let path = dir.join(name);
    std::fs::write(&path, json).expect("write benchmark json");
    eprintln!("wrote {}", path.display());
}

/// The fixed query mix every service-bench client cycles through.
/// Mid-selectivity DNF shapes so evaluation reads real data on every
/// shard.
pub const SERVICE_QUERIES: &[&str] = &["a=1", "a IN 1,3,5 AND b BETWEEN 2 9", "a=0 OR b=1"];

/// The service benches' deterministic two-column fact table
/// (xorshift, no NULLs): `a` of cardinality 7, `b` of cardinality 13.
#[must_use]
pub fn service_columns(rows: usize) -> Vec<ebi_service::ColumnSpec> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut a = Vec::with_capacity(rows);
    let mut b = Vec::with_capacity(rows);
    for _ in 0..rows {
        a.push(Cell::Value(next() % 7));
        b.push(Cell::Value(next() % 13));
    }
    vec![
        ebi_service::ColumnSpec::new("a", a),
        ebi_service::ColumnSpec::new("b", b),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_here_too() {
        assert_eq!(uniform_cells(10, 100, 1), uniform_cells(10, 100, 1));
        assert_eq!(zipf_cells(10, 1.0, 100, 1), zipf_cells(10, 1.0, 100, 1));
    }

    #[test]
    fn out_dir_exists_after_call() {
        assert!(out_dir().is_dir());
    }
}
