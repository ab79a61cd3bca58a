//! Table catalog with per-table statistics.

use rpt_common::{Error, Result};
use rpt_storage::{StoredTable, Table, TableStats};
use std::collections::HashMap;
use std::sync::Arc;

/// A registered table, block-encoded, plus its statistics (both computed
/// once at registration, like `ANALYZE`).
#[derive(Clone)]
pub struct CatalogEntry {
    pub table: Arc<StoredTable>,
    pub stats: Arc<TableStats>,
}

/// Name → table mapping.
#[derive(Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, CatalogEntry>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register (or replace) a table: compute its statistics and its block
    /// encoding from the raw columns, then drop them.
    pub fn register(&mut self, table: Table) {
        let stats = Arc::new(TableStats::compute(&table));
        let table = Arc::new(StoredTable::new(table));
        self.tables
            .insert(table.name.clone(), CatalogEntry { table, stats });
    }

    pub fn get(&self, name: &str) -> Result<&CatalogEntry> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::Bind(format!("table `{name}` not found in catalog")))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_common::{DataType, Field, Schema, Vector, VECTOR_SIZE};
    use rpt_storage::BlockTable;

    fn t(name: &str) -> Table {
        Table::new(
            name,
            Schema::new(vec![Field::new("id", DataType::Int64)]),
            vec![Vector::from_i64(vec![1, 2, 3])],
        )
        .unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        c.register(t("orders"));
        assert!(c.contains("orders"));
        assert!(!c.contains("nope"));
        let e = c.get("orders").unwrap();
        assert_eq!(e.table.num_rows(), 3);
        assert_eq!(e.stats.num_rows, 3);
        // Registration is where the encoding happens.
        assert_eq!(
            *e.table.encoded(),
            BlockTable::build(&t("orders"), VECTOR_SIZE)
        );
        assert!(c.get("nope").is_err());
    }

    #[test]
    fn replace_updates_stats() {
        let mut c = Catalog::new();
        c.register(t("x"));
        let bigger = Table::new(
            "x",
            Schema::new(vec![Field::new("id", DataType::Int64)]),
            vec![Vector::from_i64(vec![1, 2, 3, 4, 5])],
        )
        .unwrap();
        let blocks = BlockTable::build(&bigger, VECTOR_SIZE);
        c.register(bigger);
        let e = c.get("x").unwrap();
        assert_eq!(e.stats.num_rows, 5);
        // The blocks follow the stats to the replacement.
        assert_eq!(*e.table.encoded(), blocks);
        assert_eq!(e.table.num_rows() as u64, e.stats.num_rows);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn names_sorted() {
        let mut c = Catalog::new();
        c.register(t("zeta"));
        c.register(t("alpha"));
        assert_eq!(c.table_names(), vec!["alpha", "zeta"]);
    }
}
