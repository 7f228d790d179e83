//! Table-wide row order: sort the fact table, then build its indexes.
//!
//! [`ebi_core::reorder::sort_order`] picks one physical order for a
//! table, chosen so the most compressible (lowest effective cardinality)
//! columns come first in the sort key — the Kaser–Lemire
//! column-priority heuristic, applied across the table. This module
//! applies it to the table itself, as Lemire, Kaser & Aouiche do: every
//! index built over the sorted table then shares its row ids, so
//! conjunctive queries combine bit for bit and nothing is translated. A
//! caller that needs the old positions keeps them as a column.

use ebi_core::reorder::sort_order;
use ebi_core::RowOrder;
use ebi_storage::{Cell, Table};

/// `table` with its rows in the order `order` gives `columns` (the sort
/// key; every column of the table moves with it). Tombstoned rows move
/// with their cells and stay tombstoned.
///
/// # Panics
///
/// Panics if a named column does not exist — sorting by a missing
/// column is a programming error, matching the executor.
#[must_use]
pub fn sorted_table(table: &Table, columns: &[&str], order: RowOrder) -> Table {
    let column = |name: &str| {
        table
            .column(name)
            .unwrap_or_else(|| panic!("no column named {name:?}"))
            .cells()
    };
    let keys: Vec<&[Cell]> = columns.iter().map(|name| column(name)).collect();
    let names: Vec<&str> = table.column_names().iter().map(String::as_str).collect();
    let all: Vec<&[Cell]> = names.iter().map(|name| column(name)).collect();
    let mut out = Table::new(table.name(), &names);
    for old in sort_order(&keys, order) {
        let old = old as usize;
        let cells: Vec<Cell> = all.iter().map(|c| c[old]).collect();
        let row = out.append_row(&cells).expect("same schema");
        if table.is_deleted(old) {
            out.delete_row(row).expect("row just appended");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{ConjunctiveQuery, Executor};
    use crate::generator::{generate_profiled_table, SkewProfile};
    use crate::workload::{Predicate, Query};
    use ebi_core::EncodedBitmapIndex;

    fn indexes(table: &Table, cols: &[&str]) -> Vec<(String, EncodedBitmapIndex)> {
        cols.iter()
            .map(|&c| {
                let cells = table.column(c).unwrap().cells().iter().copied();
                (c.to_string(), EncodedBitmapIndex::build(cells).unwrap())
            })
            .collect()
    }

    #[test]
    fn sorted_table_answers_like_the_original() {
        let mut table = generate_profiled_table("t", &SkewProfile::reorder_friendly(), 4_000, 11);
        table.delete_row(17).unwrap();
        let cols = ["c0", "c1", "c2"];
        let sorted = sorted_table(&table, &cols, RowOrder::Lexicographic);
        assert_eq!(sorted.row_count(), table.row_count());
        assert_eq!(sorted.live_row_count(), table.live_row_count());

        let q = ConjunctiveQuery {
            clauses: vec![
                Query {
                    column: "c0".into(),
                    predicate: Predicate::Eq(0),
                },
                Query {
                    column: "c1".into(),
                    predicate: Predicate::Range(0, 7),
                },
            ],
        };
        let count = |t: &Table| {
            let built = indexes(t, &cols);
            let mut exec = Executor::new(t.row_count());
            for (name, idx) in &built {
                exec.register(name, idx);
            }
            exec.run(&q).0.count_ones()
        };
        assert_eq!(count(&table), count(&sorted));
    }

    #[test]
    fn table_wide_sort_lengthens_runs_on_friendly_data() {
        let table = generate_profiled_table("t", &SkewProfile::reorder_friendly(), 8_000, 13);
        let cols = ["c0", "c1", "c2"];
        let runs = |t: &Table| -> u64 {
            indexes(t, &cols)
                .iter()
                .map(|(_, i)| i.run_stats().runs)
                .sum()
        };
        for order in [RowOrder::Lexicographic, RowOrder::Gray] {
            let sorted = sorted_table(&table, &cols, order);
            assert!(runs(&sorted) < runs(&table), "{order:?}");
        }
        let same = sorted_table(&table, &cols, RowOrder::Original);
        assert_eq!(
            same.column("c0").unwrap().cells(),
            table.column("c0").unwrap().cells()
        );
    }
}
