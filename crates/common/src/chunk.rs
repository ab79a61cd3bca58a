//! Data chunks: the unit of vectorized execution.
//!
//! A [`DataChunk`] carries up to [`VECTOR_SIZE`] rows across a set of column
//! [`Vector`]s, plus an optional [`SelectionVector`] marking the subset of
//! positions that are logically present. Filters and `ProbeBF` refine the
//! selection without copying column payloads; pipeline breakers call
//! [`DataChunk::flatten`] to materialize the survivors.

use crate::schema::Schema;
use crate::types::ScalarValue;
use crate::vector::Vector;
use crate::{Error, Result};

/// Default batch size, matching DuckDB's 2048-row chunks described in §4.1.
pub const VECTOR_SIZE: usize = 2048;

/// Indices (into the chunk's physical rows) of logically-present rows.
pub type SelectionVector = Vec<u32>;

/// A batch of rows in columnar layout.
#[derive(Debug, Clone, Default)]
pub struct DataChunk {
    pub columns: Vec<Vector>,
    /// Physical row count (every column has this many entries).
    len: usize,
    /// When present, only the listed positions are logically in the chunk.
    pub selection: Option<SelectionVector>,
}

impl DataChunk {
    pub fn new(columns: Vec<Vector>) -> Self {
        let len = columns.first().map_or(0, |c| c.len());
        debug_assert!(columns.iter().all(|c| c.len() == len));
        DataChunk {
            columns,
            len,
            selection: None,
        }
    }

    pub fn empty_like(schema: &Schema) -> Self {
        DataChunk {
            columns: schema
                .fields
                .iter()
                .map(|f| Vector::new_empty(f.data_type))
                .collect(),
            len: 0,
            selection: None,
        }
    }

    /// Physical row count (ignores selection).
    pub fn capacity_rows(&self) -> usize {
        self.len
    }

    /// Logical row count (respects selection).
    pub fn num_rows(&self) -> usize {
        match &self.selection {
            Some(sel) => sel.len(),
            None => self.len,
        }
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn is_logically_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// Physical index of the `i`-th logical row.
    #[inline]
    pub fn physical_index(&self, logical: usize) -> usize {
        match &self.selection {
            Some(sel) => sel[logical] as usize,
            None => logical,
        }
    }

    /// Read logical row `row`, column `col` as a scalar.
    pub fn value(&self, col: usize, row: usize) -> ScalarValue {
        self.columns[col].get(self.physical_index(row))
    }

    /// Replace the selection with `sel` (positions are *physical* indices).
    pub fn set_selection(&mut self, sel: SelectionVector) {
        debug_assert!(sel.iter().all(|&i| (i as usize) < self.len));
        self.selection = Some(sel);
    }

    /// Refine the current selection: keep the logical rows whose positions in
    /// the *logical* order appear in `keep` (ascending logical indices).
    pub fn refine_selection(&mut self, keep: &[u32]) {
        let new_sel: SelectionVector = match &self.selection {
            Some(sel) => keep.iter().map(|&k| sel[k as usize]).collect(),
            None => keep.to_vec(),
        };
        self.selection = Some(new_sel);
    }

    /// Materialize the selection: after this, selection is `None` and all
    /// physical rows are logical rows.
    pub fn flatten(&mut self) {
        if let Some(sel) = self.selection.take() {
            *self = self.take_rows(&sel);
        }
    }

    /// A flattened copy (self untouched).
    pub fn flattened(&self) -> DataChunk {
        let mut c = self.clone();
        c.flatten();
        c
    }

    /// Keep only the given columns (logical projection).
    pub fn project(&self, indices: &[usize]) -> DataChunk {
        DataChunk {
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
            len: self.len,
            selection: self.selection.clone(),
        }
    }

    /// A new flat chunk holding physical rows `rows` of this one.
    pub fn take_rows(&self, rows: &[u32]) -> DataChunk {
        DataChunk::new(self.columns.iter().map(|c| c.take(rows)).collect())
    }

    /// Would `additional` more rows still leave this (flattened) chunk
    /// within one vector? Write-combining sinks append into their tail
    /// chunk while this holds, so stored chunks stay vector-sized.
    pub fn has_room_for(&self, additional: usize) -> bool {
        self.selection.is_none() && self.len + additional <= VECTOR_SIZE
    }

    fn check_append(&self, other: &DataChunk) -> Result<()> {
        if self.selection.is_some() {
            return Err(Error::Exec(
                "append target must be flattened (no selection vector)".into(),
            ));
        }
        if self.columns.len() != other.columns.len() {
            return Err(Error::Exec(format!(
                "column count mismatch in append: {} vs {}",
                self.columns.len(),
                other.columns.len()
            )));
        }
        Ok(())
    }

    /// Append the logical rows of `other` to this (flattened) chunk.
    pub fn append(&mut self, other: &DataChunk) -> Result<()> {
        match &other.selection {
            Some(sel) => self.append_rows(other, sel),
            None => {
                self.check_append(other)?;
                for (dst, src) in self.columns.iter_mut().zip(&other.columns) {
                    dst.append(src)?;
                }
                self.len += other.len;
                Ok(())
            }
        }
    }

    /// Append physical rows `rows` of `src` (its selection is not
    /// consulted) to this (flattened) chunk, each copied once.
    pub fn append_rows(&mut self, src: &DataChunk, rows: &[u32]) -> Result<()> {
        self.check_append(src)?;
        for (dst, col) in self.columns.iter_mut().zip(&src.columns) {
            dst.extend_taken(col, rows)?;
        }
        self.len += rows.len();
        Ok(())
    }

    /// Reserve room for `additional` more rows in every column of this
    /// (flattened) chunk, ahead of a run of [`DataChunk::append`]s.
    pub fn reserve(&mut self, additional: usize) {
        for col in &mut self.columns {
            col.reserve(additional);
        }
    }

    /// Extract logical row `row` as a vector of scalars (slow path: tests,
    /// result display).
    pub fn row(&self, row: usize) -> Vec<ScalarValue> {
        (0..self.num_columns())
            .map(|c| self.value(c, row))
            .collect()
    }

    /// All logical rows as scalar tuples (test/driver convenience).
    pub fn rows(&self) -> Vec<Vec<ScalarValue>> {
        (0..self.num_rows()).map(|r| self.row(r)).collect()
    }
}

/// Split `total` rows into chunk-sized `(start, len)` ranges.
pub fn chunk_ranges(total: usize, chunk_size: usize) -> impl Iterator<Item = (usize, usize)> {
    let chunk_size = chunk_size.max(1);
    (0..total.div_ceil(chunk_size)).map(move |i| {
        let start = i * chunk_size;
        (start, chunk_size.min(total - start))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;
    use crate::Field;

    fn chunk() -> DataChunk {
        DataChunk::new(vec![
            Vector::from_i64(vec![10, 20, 30, 40]),
            Vector::from_utf8(vec!["a".into(), "b".into(), "c".into(), "d".into()]),
        ])
    }

    #[test]
    fn counts() {
        let c = chunk();
        assert_eq!(c.num_rows(), 4);
        assert_eq!(c.num_columns(), 2);
        assert!(!c.is_logically_empty());
    }

    #[test]
    fn selection_changes_logical_view() {
        let mut c = chunk();
        c.set_selection(vec![1, 3]);
        assert_eq!(c.num_rows(), 2);
        assert_eq!(c.value(0, 0), ScalarValue::Int64(20));
        assert_eq!(c.value(1, 1), ScalarValue::Utf8("d".into()));
    }

    #[test]
    fn refine_composes_selections() {
        let mut c = chunk();
        c.set_selection(vec![0, 2, 3]); // logical: 10, 30, 40
        c.refine_selection(&[1, 2]); // keep logical rows 1,2 -> 30, 40
        assert_eq!(c.num_rows(), 2);
        assert_eq!(c.value(0, 0), ScalarValue::Int64(30));
        assert_eq!(c.value(0, 1), ScalarValue::Int64(40));
    }

    #[test]
    fn flatten_materializes() {
        let mut c = chunk();
        c.set_selection(vec![3, 0]);
        c.flatten();
        assert!(c.selection.is_none());
        assert_eq!(c.capacity_rows(), 2);
        assert_eq!(c.value(0, 0), ScalarValue::Int64(40));
        assert_eq!(c.value(0, 1), ScalarValue::Int64(10));
    }

    #[test]
    fn append_respects_selection_of_source() {
        let mut dst = DataChunk::empty_like(&Schema::new(vec![
            Field::new("x", DataType::Int64),
            Field::new("y", DataType::Utf8),
        ]));
        let mut src = chunk();
        src.set_selection(vec![1]);
        dst.append(&src).unwrap();
        assert_eq!(dst.num_rows(), 1);
        assert_eq!(dst.value(0, 0), ScalarValue::Int64(20));
    }

    #[test]
    fn append_rows_ignores_selection_of_source() {
        let mut dst = chunk();
        let mut src = chunk();
        src.set_selection(vec![0]);
        dst.append_rows(&src, &[3, 1]).unwrap();
        assert_eq!(dst.num_rows(), 6);
        assert_eq!(dst.value(0, 4), ScalarValue::Int64(40));
        assert_eq!(dst.value(1, 5), ScalarValue::Utf8("b".into()));
        assert_eq!(dst.take_rows(&[5, 0]).rows(), vec![dst.row(5), dst.row(0)]);
    }

    #[test]
    fn room_is_one_vector() {
        let c = chunk();
        assert!(c.has_room_for(VECTOR_SIZE - 4));
        assert!(!c.has_room_for(VECTOR_SIZE - 3));
        let mut selected = chunk();
        selected.set_selection(vec![0]);
        assert!(!selected.has_room_for(1), "only flat chunks take appends");
    }

    #[test]
    fn append_requires_flat_target() {
        let mut dst = chunk();
        dst.set_selection(vec![0]);
        let src = chunk();
        assert!(dst.append(&src).is_err());
    }

    #[test]
    fn ranges() {
        let r: Vec<_> = chunk_ranges(5, 2).collect();
        assert_eq!(r, vec![(0, 2), (2, 2), (4, 1)]);
        assert_eq!(chunk_ranges(0, 2).count(), 0);
        assert_eq!(chunk_ranges(4, 2).count(), 2);
    }

    #[test]
    fn rows_roundtrip() {
        let c = chunk();
        let rows = c.rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[2][0], ScalarValue::Int64(30));
    }
}
