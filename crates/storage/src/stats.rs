//! Per-column statistics feeding the baseline optimizer's cardinality
//! estimates (uniformity + independence + inclusion assumptions, §2.1).
//!
//! They are a reading of the stored form, taken once when
//! [`StoredTable::new`](crate::block::StoredTable::new) encodes a table:
//! min, max and NULL counts fold the block zone maps, and the exact
//! distinct count comes from a sort — the one the `Utf8` dictionary
//! encoding already does, one sorted copy of the valid values for
//! `Int64` / `Float64`, none for `Bool`, whose folded bounds tell it.

use crate::block::BlockColumn;
use rpt_common::{ColumnData, ScalarValue, Vector};
use std::cmp::Ordering;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub min: ScalarValue,
    pub max: ScalarValue,
    /// Exact distinct count (laptop scale permits exactness; a real system
    /// would use HyperLogLog).
    pub distinct: u64,
    pub null_count: u64,
}

impl ColumnStats {
    /// The statistics of column `v`, encoded as `column`: the zone maps
    /// fold into min, max and NULL count; `utf8_distinct` is what the
    /// dictionary sort of a `Utf8` column counted (unread for other types).
    pub(crate) fn read(v: &Vector, column: &BlockColumn, utf8_distinct: u64) -> ColumnStats {
        let zones = column.blocks.iter().map(|b| &b.zone);
        let bounded = zones.clone().filter(|z| !z.all_null());
        let order =
            |a: &&ScalarValue, b: &&ScalarValue| a.partial_cmp_sql(b).unwrap_or(Ordering::Equal);
        let min = bounded.clone().map(|z| &z.min).min_by(order);
        let max = bounded.map(|z| &z.max).max_by(order);
        let valid = |i: &usize| v.is_valid(*i);
        let distinct = match &v.data {
            ColumnData::Utf8(_) => utf8_distinct,
            ColumnData::Int64(vals) => {
                sorted_distinct((0..vals.len()).filter(valid).map(|i| vals[i]).collect())
            }
            ColumnData::Float64(vals) => sorted_distinct(
                (0..vals.len())
                    .filter(valid)
                    .map(|i| vals[i].to_bits())
                    .collect(),
            ),
            // No valid value, one, or both: the bounds tell which.
            ColumnData::Bool(_) => u64::from(min.is_some()) + u64::from(min != max),
        };
        ColumnStats {
            min: min.cloned().unwrap_or(ScalarValue::Null),
            max: max.cloned().unwrap_or(ScalarValue::Null),
            distinct,
            null_count: zones.map(|z| z.null_count).sum(),
        }
    }
}

/// How many distinct values `vals` holds, by sorting it.
fn sorted_distinct<T: Ord>(mut vals: Vec<T>) -> u64 {
    vals.sort_unstable();
    vals.dedup();
    vals.len() as u64
}

/// Statistics for a whole table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    pub num_rows: u64,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    pub fn column(&self, idx: usize) -> &ColumnStats {
        &self.columns[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StoredTable, Table};
    use rpt_common::{DataType, Field, Schema};

    /// The statistics registration keeps for a one-column table of `v`.
    fn stats(v: Vector) -> ColumnStats {
        let schema = Schema::new(vec![Field::new("c", v.data_type())]);
        let t = Table::new("t", schema, vec![v]).unwrap();
        StoredTable::new(t).stats().column(0).clone()
    }

    #[test]
    fn int_stats() {
        let s = stats(Vector::from_i64(vec![5, 1, 5, 9]));
        assert_eq!(s.min, ScalarValue::Int64(1));
        assert_eq!(s.max, ScalarValue::Int64(9));
        assert_eq!(s.distinct, 3);
        assert_eq!(s.null_count, 0);
    }

    #[test]
    fn null_handling() {
        let mut v = Vector::new_empty(DataType::Int64);
        v.push(&ScalarValue::Int64(2)).unwrap();
        v.push(&ScalarValue::Null).unwrap();
        let s = stats(v);
        assert_eq!(s.null_count, 1);
        assert_eq!(s.distinct, 1);
        assert_eq!(s.min, ScalarValue::Int64(2));
    }

    #[test]
    fn utf8_stats() {
        let s = stats(Vector::from_utf8(vec![
            "banana".into(),
            "apple".into(),
            "apple".into(),
        ]));
        assert_eq!(s.min, ScalarValue::Utf8("apple".into()));
        assert_eq!(s.max, ScalarValue::Utf8("banana".into()));
        assert_eq!(s.distinct, 2);
    }

    #[test]
    fn empty_column() {
        let s = stats(Vector::from_f64(vec![]));
        assert_eq!(s.distinct, 0);
        assert!(s.min.is_null());
    }

    #[test]
    fn table_stats() {
        let t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Bool),
            ]),
            vec![
                Vector::from_i64(vec![1, 2, 2]),
                Vector::from_bool(vec![true, true, false]),
            ],
        )
        .unwrap();
        let t = StoredTable::new(t);
        let ts = t.stats();
        assert_eq!(ts.num_rows, 3);
        assert_eq!(ts.column(0).distinct, 2);
        assert_eq!(ts.column(1).distinct, 2);
    }
}
