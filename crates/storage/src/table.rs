//! Row-id addressed column tables.
//!
//! Bitmap indexes address tuples by their *position* in the table, so the
//! table keeps rows in append order and never compacts: deleted rows stay
//! as tombstones (the paper's "non-existing (or deleted), void tuples"),
//! and NULL attribute values are first-class. Both conditions feed the
//! index layer's `NotExist` / `NULL` encoding (Theorem 2.1).

use crate::error::StorageError;
use std::collections::BTreeMap;

/// One attribute value: either a dictionary-encoded value id or NULL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cell {
    /// A concrete value (dictionary id, category ordinal, …).
    Value(u64),
    /// SQL NULL / missing information.
    Null,
}

impl Cell {
    /// The contained value, or `None` for NULL.
    #[must_use]
    pub fn value(&self) -> Option<u64> {
        match self {
            Self::Value(v) => Some(*v),
            Self::Null => None,
        }
    }

    /// `true` for [`Cell::Null`].
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Self::Null)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Self::Value(v)
    }
}

/// One column of a table, in row order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Column {
    cells: Vec<Cell>,
}

impl Column {
    /// Empty column.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a column of non-NULL values.
    #[must_use]
    pub fn from_values<I: IntoIterator<Item = u64>>(values: I) -> Self {
        Self {
            cells: values.into_iter().map(Cell::Value).collect(),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the column has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cell at `row`, if in range.
    #[must_use]
    pub fn get(&self, row: usize) -> Option<Cell> {
        self.cells.get(row).copied()
    }

    /// All cells in row order.
    #[must_use]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Appends a cell.
    pub fn push(&mut self, cell: Cell) {
        self.cells.push(cell);
    }

    /// Overwrites the cell at `row`.
    ///
    /// # Errors
    ///
    /// [`StorageError::RowOutOfRange`] when `row` is out of range.
    pub fn set(&mut self, row: usize, cell: Cell) -> Result<(), StorageError> {
        let rows = self.cells.len();
        let slot = self
            .cells
            .get_mut(row)
            .ok_or(StorageError::RowOutOfRange { row, rows })?;
        *slot = cell;
        Ok(())
    }

    /// Distinct non-NULL values, sorted — the *active domain* whose size
    /// is the paper's attribute cardinality `|A| = m`.
    #[must_use]
    pub fn distinct_values(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.cells.iter().filter_map(Cell::value).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// An append-only table of named columns with tombstone deletion.
#[derive(Debug, Clone, Default)]
pub struct Table {
    name: String,
    columns: BTreeMap<String, Column>,
    column_order: Vec<String>,
    deleted: Vec<bool>,
    rows: usize,
}

impl Table {
    /// Creates an empty table with the given column names.
    ///
    /// # Panics
    ///
    /// Panics on duplicate column names.
    #[must_use]
    pub fn new(name: &str, columns: &[&str]) -> Self {
        let mut map = BTreeMap::new();
        for &c in columns {
            let prev = map.insert(c.to_string(), Column::new());
            assert!(prev.is_none(), "duplicate column {c:?}");
        }
        Self {
            name: name.to_string(),
            columns: map,
            column_order: columns.iter().map(|s| (*s).to_string()).collect(),
            deleted: Vec::new(),
            rows: 0,
        }
    }

    /// Table name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column names in declaration order.
    #[must_use]
    pub fn column_names(&self) -> &[String] {
        &self.column_order
    }

    /// Total rows, including tombstoned ones (bitmap indexes address by
    /// physical position).
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Rows that are not tombstoned.
    #[must_use]
    pub fn live_row_count(&self) -> usize {
        self.deleted.iter().filter(|&&d| !d).count()
    }

    /// A column by name.
    #[must_use]
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.get(name)
    }

    /// Appends one row; cells are matched to columns by declaration order.
    ///
    /// # Errors
    ///
    /// [`StorageError::Schema`] on arity mismatch.
    pub fn append_row(&mut self, cells: &[Cell]) -> Result<usize, StorageError> {
        if cells.len() != self.column_order.len() {
            return Err(StorageError::Schema {
                detail: format!(
                    "row with {} cells for table {:?} with {} columns",
                    cells.len(),
                    self.name,
                    self.column_order.len()
                ),
            });
        }
        for (name, &cell) in self.column_order.iter().zip(cells) {
            self.columns
                .get_mut(name)
                .expect("column registered")
                .push(cell);
        }
        self.deleted.push(false);
        self.rows += 1;
        Ok(self.rows - 1)
    }

    /// Tombstones row `row`; its slot remains addressable.
    ///
    /// # Errors
    ///
    /// [`StorageError::RowOutOfRange`] when `row` is out of range.
    pub fn delete_row(&mut self, row: usize) -> Result<(), StorageError> {
        let rows = self.rows;
        let slot = self
            .deleted
            .get_mut(row)
            .ok_or(StorageError::RowOutOfRange { row, rows })?;
        *slot = true;
        Ok(())
    }

    /// `true` if the row exists and is tombstoned.
    #[must_use]
    pub fn is_deleted(&self, row: usize) -> bool {
        self.deleted.get(row).copied().unwrap_or(false)
    }

    /// The cell at (`row`, `column`).
    ///
    /// # Errors
    ///
    /// [`StorageError::Schema`] for unknown columns,
    /// [`StorageError::RowOutOfRange`] for bad rows.
    pub fn cell(&self, row: usize, column: &str) -> Result<Cell, StorageError> {
        let col = self
            .columns
            .get(column)
            .ok_or_else(|| StorageError::Schema {
                detail: format!("no column {column:?} in table {:?}", self.name),
            })?;
        col.get(row).ok_or(StorageError::RowOutOfRange {
            row,
            rows: self.rows,
        })
    }

    /// Full scan of one column: yields `(row_id, cell, deleted)`.
    ///
    /// # Panics
    ///
    /// Panics if `column` is unknown.
    pub fn scan<'a>(&'a self, column: &str) -> impl Iterator<Item = (usize, Cell, bool)> + 'a {
        let col = self
            .columns
            .get(column)
            .unwrap_or_else(|| panic!("no column {column:?} in table {:?}", self.name));
        col.cells()
            .iter()
            .enumerate()
            .map(move |(row, &cell)| (row, cell, self.deleted[row]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_col_table() -> Table {
        let mut t = Table::new("sales", &["product", "region"]);
        t.append_row(&[Cell::Value(1), Cell::Value(10)]).unwrap();
        t.append_row(&[Cell::Value(2), Cell::Null]).unwrap();
        t.append_row(&[Cell::Value(1), Cell::Value(11)]).unwrap();
        t
    }

    #[test]
    fn append_and_read_back() {
        let t = two_col_table();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.cell(0, "product").unwrap(), Cell::Value(1));
        assert_eq!(t.cell(1, "region").unwrap(), Cell::Null);
        assert_eq!(t.column_names(), &["product", "region"]);
        assert_eq!(t.name(), "sales");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = Table::new("t", &["a", "b"]);
        assert!(matches!(
            t.append_row(&[Cell::Value(1)]),
            Err(StorageError::Schema { .. })
        ));
    }

    #[test]
    fn deletion_is_a_tombstone_not_compaction() {
        let mut t = two_col_table();
        t.delete_row(1).unwrap();
        assert_eq!(t.row_count(), 3, "physical row ids stay stable");
        assert_eq!(t.live_row_count(), 2);
        assert!(t.is_deleted(1));
        assert!(!t.is_deleted(0));
        // The cell is still addressable (void tuples keep their slot).
        assert_eq!(t.cell(1, "product").unwrap(), Cell::Value(2));
        assert!(t.delete_row(9).is_err());
    }

    #[test]
    fn scan_reports_deletion_flags() {
        let mut t = two_col_table();
        t.delete_row(2).unwrap();
        let scanned: Vec<(usize, Cell, bool)> = t.scan("product").collect();
        assert_eq!(
            scanned,
            vec![
                (0, Cell::Value(1), false),
                (1, Cell::Value(2), false),
                (2, Cell::Value(1), true),
            ]
        );
    }

    #[test]
    fn distinct_values_skip_nulls() {
        let t = two_col_table();
        assert_eq!(t.column("product").unwrap().distinct_values(), vec![1, 2]);
        assert_eq!(t.column("region").unwrap().distinct_values(), vec![10, 11]);
    }

    #[test]
    fn unknown_column_is_a_schema_error() {
        let t = two_col_table();
        assert!(matches!(
            t.cell(0, "nope"),
            Err(StorageError::Schema { .. })
        ));
    }

    #[test]
    fn column_set_and_bounds() {
        let mut c = Column::from_values([5, 6]);
        c.set(0, Cell::Null).unwrap();
        assert!(c.get(0).unwrap().is_null());
        assert!(c.set(2, Cell::Value(1)).is_err());
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(Cell::from(9u64), Cell::Value(9));
        assert_eq!(Cell::Value(9).value(), Some(9));
        assert_eq!(Cell::Null.value(), None);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_rejected() {
        let _ = Table::new("t", &["a", "a"]);
    }
}
