//! In-memory columnar tables.

use rpt_common::chunk::{chunk_ranges, DataChunk, VECTOR_SIZE};
use rpt_common::{Error, Result, ScalarValue, Schema, Vector};

/// An immutable, fully materialized columnar table in raw vectors: what
/// the generators produce, and what statistics and the block encoding are
/// computed from. Registration encodes it into a
/// [`StoredTable`](crate::StoredTable) and drops it.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub schema: Schema,
    pub columns: Vec<Vector>,
    num_rows: usize,
}

impl Table {
    /// Build a table from pre-constructed columns.
    pub fn new(name: impl Into<String>, schema: Schema, columns: Vec<Vector>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(Error::Plan(format!(
                "schema has {} fields but {} columns supplied",
                schema.len(),
                columns.len()
            )));
        }
        let num_rows = columns.first().map_or(0, |c| c.len());
        for (f, c) in schema.fields.iter().zip(columns.iter()) {
            if c.len() != num_rows {
                return Err(Error::Plan(format!(
                    "column `{}` has {} rows, expected {num_rows}",
                    f.name,
                    c.len()
                )));
            }
            if c.data_type() != f.data_type {
                return Err(Error::Plan(format!(
                    "column `{}` has type {:?}, schema says {:?}",
                    f.name,
                    c.data_type(),
                    f.data_type
                )));
            }
        }
        Ok(Table {
            name: name.into(),
            schema,
            columns,
            num_rows,
        })
    }

    /// Build a table row-by-row (slow path: tests, tiny fixtures).
    pub fn from_rows(
        name: impl Into<String>,
        schema: Schema,
        rows: &[Vec<ScalarValue>],
    ) -> Result<Self> {
        let mut columns: Vec<Vector> = schema
            .fields
            .iter()
            .map(|f| Vector::new_empty(f.data_type))
            .collect();
        for row in rows {
            if row.len() != schema.len() {
                return Err(Error::Plan(format!(
                    "row has {} values, schema has {} fields",
                    row.len(),
                    schema.len()
                )));
            }
            for (col, v) in columns.iter_mut().zip(row.iter()) {
                col.push(v)?;
            }
        }
        Table::new(name, schema, columns)
    }

    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, idx: usize) -> &Vector {
        &self.columns[idx]
    }

    pub fn column_by_name(&self, name: &str) -> Result<&Vector> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Split into scan chunks of `chunk_size` rows (default
    /// [`VECTOR_SIZE`]). Zero-row tables yield no chunks.
    pub fn chunks(&self, chunk_size: usize) -> Vec<DataChunk> {
        chunk_ranges(self.num_rows, chunk_size)
            .map(|(start, len)| {
                DataChunk::new(self.columns.iter().map(|c| c.slice(start, len)).collect())
            })
            .collect()
    }

    /// Default-sized chunks.
    pub fn default_chunks(&self) -> Vec<DataChunk> {
        self.chunks(VECTOR_SIZE)
    }

    /// Approximate in-memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(vector_size_bytes).sum()
    }
}

/// Approximate heap size of a vector: payload element storage plus, for
/// `Utf8`, the string byte length *and* the per-element `String` header
/// (pointer/length/capacity words) held inside the `Vec<String>`.
pub fn vector_size_bytes(v: &Vector) -> usize {
    use rpt_common::ColumnData::*;
    let payload = match &v.data {
        Int64(x) => x.len() * std::mem::size_of::<i64>(),
        Float64(x) => x.len() * std::mem::size_of::<f64>(),
        Utf8(x) => {
            x.iter().map(String::len).sum::<usize>() + x.len() * std::mem::size_of::<String>()
        }
        Bool(x) => x.len(),
    };
    payload + v.validity.as_ref().map_or(0, |m| m.len())
}

/// Approximate heap size of a chunk (physical rows).
pub fn chunk_size_bytes(c: &DataChunk) -> usize {
    c.columns.iter().map(vector_size_bytes).sum()
}

/// What [`chunk_size_bytes`] reports for `c.take_rows(rows)`, without
/// gathering the rows.
pub fn taken_size_bytes(c: &DataChunk, rows: &[u32]) -> usize {
    use rpt_common::ColumnData::*;
    let n = rows.len();
    let column = |v: &Vector| {
        let payload = match &v.data {
            Int64(_) => n * std::mem::size_of::<i64>(),
            Float64(_) => n * std::mem::size_of::<f64>(),
            Utf8(x) => {
                rows.iter().map(|&i| x[i as usize].len()).sum::<usize>()
                    + n * std::mem::size_of::<String>()
            }
            Bool(_) => n,
        };
        payload + v.validity.as_ref().map_or(0, |_| n)
    };
    c.columns.iter().map(column).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_common::{DataType, Field};

    fn small() -> Table {
        Table::new(
            "t",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ]),
            vec![
                Vector::from_i64((0..10).collect()),
                Vector::from_utf8((0..10).map(|i| format!("r{i}")).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks() {
        let t = small();
        assert_eq!(t.num_rows(), 10);
        assert_eq!(t.num_columns(), 2);
        // mismatched column count
        assert!(Table::new(
            "bad",
            Schema::new(vec![Field::new("a", DataType::Int64)]),
            vec![]
        )
        .is_err());
        // mismatched type
        assert!(Table::new(
            "bad",
            Schema::new(vec![Field::new("a", DataType::Int64)]),
            vec![Vector::from_bool(vec![true])]
        )
        .is_err());
        // ragged columns
        assert!(Table::new(
            "bad",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int64)
            ]),
            vec![Vector::from_i64(vec![1]), Vector::from_i64(vec![1, 2])]
        )
        .is_err());
    }

    #[test]
    fn from_rows_roundtrip() {
        let t = Table::from_rows(
            "r",
            Schema::new(vec![Field::new("x", DataType::Int64)]),
            &[vec![ScalarValue::Int64(7)], vec![ScalarValue::Int64(8)]],
        )
        .unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column(0).get(1), ScalarValue::Int64(8));
    }

    #[test]
    fn chunking() {
        let t = small();
        let chunks = t.chunks(4);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].num_rows(), 4);
        assert_eq!(chunks[2].num_rows(), 2);
        assert_eq!(chunks[2].value(0, 0), ScalarValue::Int64(8));
        let total: usize = chunks.iter().map(|c| c.num_rows()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn column_by_name() {
        let t = small();
        assert_eq!(
            t.column_by_name("id").unwrap().get(3),
            ScalarValue::Int64(3)
        );
        assert!(t.column_by_name("nope").is_err());
    }

    #[test]
    fn size_accounting() {
        let t = small();
        assert!(t.size_bytes() >= 80); // 10 i64s alone
    }

    /// Pins the `Utf8` accounting rule: string byte length plus one
    /// `String` header (24 bytes on 64-bit) per element, plus the validity
    /// mask when present.
    #[test]
    fn utf8_size_accounting_rule() {
        let v = Vector::from_utf8(vec!["ab".into(), "".into(), "cdef".into()]);
        let header = std::mem::size_of::<String>();
        let lens = 2 + 4; // "ab" + "" + "cdef"
        assert_eq!(vector_size_bytes(&v), lens + 3 * header);
        // A validity mask adds one byte per row.
        let mut with_null = Vector::new_empty(DataType::Utf8);
        with_null.push(&ScalarValue::Utf8("xyz".into())).unwrap();
        with_null.push(&ScalarValue::Null).unwrap();
        assert_eq!(vector_size_bytes(&with_null), 3 + 2 * header + 2);
    }

    #[test]
    fn empty_table_has_no_chunks() {
        let t = Table::new(
            "e",
            Schema::new(vec![Field::new("a", DataType::Int64)]),
            vec![Vector::from_i64(vec![])],
        )
        .unwrap();
        assert_eq!(t.num_rows(), 0);
        assert!(t.chunks(4).is_empty());
        assert!(t.default_chunks().is_empty());
    }
}
