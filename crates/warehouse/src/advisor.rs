//! Index selection advisor.
//!
//! Given sample columns and a query workload, the advisor builds every
//! candidate index family per column, *measures* workload cost (in the
//! paper's vector/node units) and storage, and picks a configuration:
//! cheapest units per column, greedily downgraded to cheaper-storage
//! families when a space budget binds. Measurement-based rather than
//! model-based: the cost model of §3 is exactly what the candidates
//! already report per query.

use crate::workload::{Predicate, Query};
use ebi_baselines::{
    BitSlicedIndex, CompressedEncodedIndex, RangeBasedBitmapIndex, SelectionIndex,
    SimpleBitmapIndex, ValueListIndex,
};
use ebi_core::{CoreError, EncodedBitmapIndex};
use ebi_storage::Cell;
use std::collections::BTreeMap;

/// One candidate's measured profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Index family name.
    pub family: String,
    /// Storage footprint in bytes.
    pub storage_bytes: usize,
    /// Total read units over the column's workload share.
    pub workload_units: usize,
}

/// The advisor's pick for one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Choice {
    /// Column name.
    pub column: String,
    /// Chosen family.
    pub family: String,
    /// Its storage.
    pub storage_bytes: usize,
    /// Its workload units.
    pub workload_units: usize,
    /// Every candidate measured, sorted by units then storage.
    pub candidates: Vec<Candidate>,
}

/// Full advisory report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvisorReport {
    /// Per-column picks.
    pub choices: Vec<Choice>,
    /// Total storage of the picks.
    pub total_bytes: usize,
    /// Total workload units of the picks.
    pub total_units: usize,
}

/// Measures every family on `cells` against the column's queries.
fn measure_candidates(cells: &[Cell], queries: &[&Query]) -> Result<Vec<Candidate>, CoreError> {
    let encoded = EncodedBitmapIndex::build(cells.iter().copied())?;
    let compressed = CompressedEncodedIndex::from_uncompressed(&encoded);
    let simple = SimpleBitmapIndex::build(cells.iter().copied());
    let sliced = BitSlicedIndex::build(cells.iter().copied());
    let ranged = RangeBasedBitmapIndex::build(cells.iter().copied(), 16);
    let vlist = ValueListIndex::build(cells.iter().copied());
    let families: Vec<(&str, &dyn SelectionIndex)> = vec![
        ("encoded-bitmap", &encoded),
        ("compressed-encoded", &compressed),
        ("simple-bitmap", &simple),
        ("bit-sliced", &sliced),
        ("range-based", &ranged),
        ("value-list-btree", &vlist),
    ];
    let mut out = Vec::with_capacity(families.len());
    for (name, idx) in families {
        let mut units = 0usize;
        for q in queries {
            let r = match &q.predicate {
                Predicate::Eq(v) => idx.eq(*v),
                Predicate::InList(vs) => idx.in_list(vs),
                Predicate::Range(lo, hi) => idx.range(*lo, *hi),
            };
            units += r.stats.vectors_accessed as usize;
        }
        out.push(Candidate {
            family: name.to_string(),
            storage_bytes: idx.storage_bytes(),
            workload_units: units,
        });
    }
    out.sort_by(|a, b| {
        a.workload_units
            .cmp(&b.workload_units)
            .then(a.storage_bytes.cmp(&b.storage_bytes))
    });
    Ok(out)
}

/// Advises an index per column for `workload`, optionally under a total
/// storage budget.
///
/// With a budget, the advisor starts from each column's unit-optimal
/// pick and repeatedly downgrades the column where switching to a
/// smaller candidate costs the fewest extra units per byte saved, until
/// the total fits (or no smaller candidates remain — the report then
/// exceeds the budget and says so by its `total_bytes`).
///
/// # Errors
///
/// Propagates index-build errors.
pub fn advise(
    columns: &BTreeMap<String, Vec<Cell>>,
    workload: &[Query],
    budget_bytes: Option<usize>,
) -> Result<AdvisorReport, CoreError> {
    let mut choices: Vec<Choice> = Vec::new();
    for (name, cells) in columns {
        let queries: Vec<&Query> = workload.iter().filter(|q| &q.column == name).collect();
        let candidates = measure_candidates(cells, &queries)?;
        let best = candidates.first().expect("families measured").clone();
        choices.push(Choice {
            column: name.clone(),
            family: best.family,
            storage_bytes: best.storage_bytes,
            workload_units: best.workload_units,
            candidates,
        });
    }

    if let Some(budget) = budget_bytes {
        loop {
            let total: usize = choices.iter().map(|c| c.storage_bytes).sum();
            if total <= budget {
                break;
            }
            // Best downgrade: minimal extra units per byte saved.
            let mut best: Option<(usize, usize, f64)> = None; // (choice idx, candidate idx, score)
            for (ci, choice) in choices.iter().enumerate() {
                for (ki, cand) in choice.candidates.iter().enumerate() {
                    if cand.storage_bytes >= choice.storage_bytes {
                        continue;
                    }
                    let saved = (choice.storage_bytes - cand.storage_bytes) as f64;
                    let extra = cand.workload_units.saturating_sub(choice.workload_units) as f64;
                    let score = extra / saved;
                    if best.is_none_or(|(_, _, s)| score < s) {
                        best = Some((ci, ki, score));
                    }
                }
            }
            let Some((ci, ki, _)) = best else {
                break; // nothing smaller exists anywhere
            };
            let cand = choices[ci].candidates[ki].clone();
            choices[ci].family = cand.family;
            choices[ci].storage_bytes = cand.storage_bytes;
            choices[ci].workload_units = cand.workload_units;
        }
    }

    let total_bytes = choices.iter().map(|c| c.storage_bytes).sum();
    let total_units = choices.iter().map(|c| c.workload_units).sum();
    Ok(AdvisorReport {
        choices,
        total_bytes,
        total_units,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_column, ColumnSpec};
    use crate::workload::WorkloadSpec;

    fn setup() -> (BTreeMap<String, Vec<Cell>>, Vec<Query>) {
        let mut columns = BTreeMap::new();
        columns.insert(
            "hi_card".to_string(),
            generate_column(&ColumnSpec::uniform(500), 5_000, 0xAD1),
        );
        columns.insert(
            "lo_card".to_string(),
            generate_column(&ColumnSpec::uniform(4), 5_000, 0xAD2),
        );
        let mut workload = WorkloadSpec::tpcd_like("hi_card", 500, 30, 0xAD3).generate();
        workload.extend(WorkloadSpec::tpcd_like("lo_card", 4, 30, 0xAD4).generate());
        (columns, workload)
    }

    #[test]
    fn unbudgeted_advice_minimises_units() {
        let (columns, workload) = setup();
        let report = advise(&columns, &workload, None).unwrap();
        assert_eq!(report.choices.len(), 2);
        for c in &report.choices {
            // The pick is the unit-minimal candidate.
            let min_units = c.candidates.iter().map(|k| k.workload_units).min().unwrap();
            assert_eq!(c.workload_units, min_units, "{}", c.column);
            assert_eq!(c.candidates.len(), 6);
        }
        // High-cardinality range workloads should not pick the simple
        // bitmap index.
        let hi = report
            .choices
            .iter()
            .find(|c| c.column == "hi_card")
            .unwrap();
        assert_ne!(hi.family, "simple-bitmap");
    }

    #[test]
    fn budget_forces_downgrades_but_stays_functional() {
        let (columns, workload) = setup();
        let free = advise(&columns, &workload, None).unwrap();
        // Budget: two-thirds of the unconstrained footprint.
        let budget = free.total_bytes * 2 / 3;
        let tight = advise(&columns, &workload, Some(budget)).unwrap();
        assert!(
            tight.total_bytes <= budget || tight.total_bytes < free.total_bytes,
            "advisor must shrink under a budget"
        );
        assert!(
            tight.total_units >= free.total_units,
            "units cannot improve"
        );
    }

    #[test]
    fn columns_with_no_queries_still_get_an_index() {
        let mut columns = BTreeMap::new();
        columns.insert(
            "idle".to_string(),
            generate_column(&ColumnSpec::uniform(10), 500, 0xAD5),
        );
        let report = advise(&columns, &[], None).unwrap();
        assert_eq!(report.choices.len(), 1);
        assert_eq!(report.choices[0].workload_units, 0);
    }

    #[test]
    fn impossible_budget_degrades_gracefully() {
        let (columns, workload) = setup();
        let report = advise(&columns, &workload, Some(1)).unwrap();
        // Every column sits at its smallest candidate; the report's
        // totals expose the violation rather than panicking.
        for c in &report.choices {
            let min_bytes = c.candidates.iter().map(|k| k.storage_bytes).min().unwrap();
            assert_eq!(c.storage_bytes, min_bytes, "{}", c.column);
        }
        assert!(report.total_bytes > 1);
    }
}
