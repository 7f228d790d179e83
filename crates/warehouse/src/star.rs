//! Star schemas: fact tables, dimensions, attached hierarchies.

use ebi_core::hierarchy::Hierarchy;
use ebi_storage::{StorageError, Table};

/// A dimension: its table plus an optional hierarchy over its key domain.
#[derive(Debug, Clone)]
pub struct Dimension {
    name: String,
    table: Table,
    hierarchy: Option<Hierarchy>,
}

impl Dimension {
    /// A dimension with no hierarchy.
    #[must_use]
    pub fn new(name: &str, table: Table) -> Self {
        Self {
            name: name.to_string(),
            table,
            hierarchy: None,
        }
    }

    /// Attaches a hierarchy over this dimension's key domain.
    #[must_use]
    pub fn with_hierarchy(mut self, h: Hierarchy) -> Self {
        self.hierarchy = Some(h);
        self
    }

    /// Dimension name (matches the fact table's foreign-key column).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dimension table.
    #[must_use]
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The hierarchy, if any.
    #[must_use]
    pub fn hierarchy(&self) -> Option<&Hierarchy> {
        self.hierarchy.as_ref()
    }
}

/// A star schema: one fact table plus its dimensions.
#[derive(Debug, Clone)]
pub struct StarSchema {
    fact: Table,
    dimensions: Vec<Dimension>,
}

impl StarSchema {
    /// Creates a star around `fact`.
    #[must_use]
    pub fn new(fact: Table) -> Self {
        Self {
            fact,
            dimensions: Vec::new(),
        }
    }

    /// Adds a dimension; its name must match a fact column.
    ///
    /// # Errors
    ///
    /// [`StorageError::Schema`] if the fact table has no column with the
    /// dimension's name.
    pub fn add_dimension(&mut self, dim: Dimension) -> Result<(), StorageError> {
        if !self.fact.column_names().iter().any(|c| c == dim.name()) {
            return Err(StorageError::Schema {
                detail: format!(
                    "fact table {:?} has no foreign-key column {:?}",
                    self.fact.name(),
                    dim.name()
                ),
            });
        }
        self.dimensions.push(dim);
        Ok(())
    }

    /// The fact table.
    #[must_use]
    pub fn fact(&self) -> &Table {
        &self.fact
    }

    /// All dimensions.
    #[must_use]
    pub fn dimensions(&self) -> &[Dimension] {
        &self.dimensions
    }

    /// Looks up a dimension by name.
    #[must_use]
    pub fn dimension(&self, name: &str) -> Option<&Dimension> {
        self.dimensions.iter().find(|d| d.name == name)
    }

    /// The member set (fact-key values) of a hierarchy group, e.g. the
    /// branches of alliance "X" — the selection OLAP roll-ups issue.
    #[must_use]
    pub fn hierarchy_members(&self, dimension: &str, level: &str, group: &str) -> Option<Vec<u64>> {
        let h = self.dimension(dimension)?.hierarchy()?;
        h.level(level)?.members(group).map(<[u64]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebi_core::hierarchy::paper_salespoint_hierarchy;
    use ebi_storage::Cell;

    fn sales_star() -> StarSchema {
        let mut fact = Table::new("sales", &["product", "salespoint"]);
        for i in 0..10u64 {
            fact.append_row(&[Cell::Value(i % 3), Cell::Value(1 + i % 12)])
                .unwrap();
        }
        let mut star = StarSchema::new(fact);
        let sp_table = Table::new("salespoint", &["id", "city"]);
        star.add_dimension(
            Dimension::new("salespoint", sp_table).with_hierarchy(paper_salespoint_hierarchy()),
        )
        .unwrap();
        star
    }

    #[test]
    fn dimensions_bind_to_fact_columns() {
        let star = sales_star();
        assert!(star.dimension("salespoint").is_some());
        assert!(star.dimension("region").is_none());
        assert_eq!(star.fact().row_count(), 10);
    }

    #[test]
    fn unknown_foreign_key_rejected() {
        let mut star = sales_star();
        let err = star
            .add_dimension(Dimension::new("region", Table::new("region", &["id"])))
            .unwrap_err();
        assert!(matches!(err, StorageError::Schema { .. }));
    }

    #[test]
    fn hierarchy_members_resolve_rollup_selections() {
        let star = sales_star();
        let x = star
            .hierarchy_members("salespoint", "alliance", "X")
            .unwrap();
        assert_eq!(x, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(star
            .hierarchy_members("salespoint", "alliance", "Q")
            .is_none());
        assert!(star.hierarchy_members("product", "alliance", "X").is_none());
    }
}
