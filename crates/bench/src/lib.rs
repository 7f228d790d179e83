//! Shared harness code for the figure generators (`src/bin`) and the
//! Criterion benches (`benches/`).
//!
//! Each paper artefact (figure, table, quantitative claim) has one
//! binary that prints the regenerated series next to the analytical
//! model and writes a CSV under `bench_results/`. See DESIGN.md §3 for
//! the experiment index and EXPERIMENTS.md for paper-vs-measured notes.

use ebi_storage::Cell;
use ebi_warehouse::generator::{generate_column, ColumnSpec};
use std::path::PathBuf;

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
