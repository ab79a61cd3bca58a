//! Per-block zone-map statistics.

use rpt_common::{ColumnData, ScalarValue, Vector};

/// Min/max/null-count over one block of one column. `min`/`max` range
/// over the block's *valid* rows only; a block with no valid rows stores
/// `ScalarValue::Null` bounds. A column's zone maps fold into the min, max
/// and NULL count of its table-level [`ColumnStats`](crate::ColumnStats).
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    pub min: ScalarValue,
    pub max: ScalarValue,
    pub null_count: u64,
}

impl ZoneMap {
    /// Compute the zone map for rows `[offset, offset + len)` of a flat
    /// column vector (single pass, NULLs counted alongside the fold).
    pub fn compute(v: &Vector, offset: usize, len: usize) -> ZoneMap {
        let mut null_count = 0u64;
        let valid = |i: usize| v.is_valid(i);
        let range = offset..offset + len;
        let (min, max) = match &v.data {
            ColumnData::Int64(vals) => {
                let mut bounds: Option<(i64, i64)> = None;
                for i in range {
                    if valid(i) {
                        let x = vals[i];
                        bounds = Some(bounds.map_or((x, x), |(a, b)| (a.min(x), b.max(x))));
                    } else {
                        null_count += 1;
                    }
                }
                match bounds {
                    Some((a, b)) => (ScalarValue::Int64(a), ScalarValue::Int64(b)),
                    None => (ScalarValue::Null, ScalarValue::Null),
                }
            }
            ColumnData::Float64(vals) => {
                let mut bounds: Option<(f64, f64)> = None;
                for i in range {
                    if valid(i) {
                        let x = vals[i];
                        bounds = Some(bounds.map_or((x, x), |(a, b)| (a.min(x), b.max(x))));
                    } else {
                        null_count += 1;
                    }
                }
                match bounds {
                    Some((a, b)) => (ScalarValue::Float64(a), ScalarValue::Float64(b)),
                    None => (ScalarValue::Null, ScalarValue::Null),
                }
            }
            ColumnData::Utf8(vals) => {
                let mut bounds: Option<(&str, &str)> = None;
                for i in range {
                    if valid(i) {
                        let x = vals[i].as_str();
                        bounds = Some(bounds.map_or((x, x), |(a, b)| (a.min(x), b.max(x))));
                    } else {
                        null_count += 1;
                    }
                }
                match bounds {
                    Some((a, b)) => (
                        ScalarValue::Utf8(a.to_string()),
                        ScalarValue::Utf8(b.to_string()),
                    ),
                    None => (ScalarValue::Null, ScalarValue::Null),
                }
            }
            ColumnData::Bool(vals) => {
                let mut bounds: Option<(bool, bool)> = None;
                for i in range {
                    if valid(i) {
                        let x = vals[i];
                        bounds = Some(bounds.map_or((x, x), |(a, b)| (a & x, b | x)));
                    } else {
                        null_count += 1;
                    }
                }
                match bounds {
                    Some((a, b)) => (ScalarValue::Bool(a), ScalarValue::Bool(b)),
                    None => (ScalarValue::Null, ScalarValue::Null),
                }
            }
        };
        ZoneMap {
            min,
            max,
            null_count,
        }
    }

    /// `Some((min, max))` when the block has at least one valid `Int64` row.
    pub fn i64_bounds(&self) -> Option<(i64, i64)> {
        match (&self.min, &self.max) {
            (ScalarValue::Int64(a), ScalarValue::Int64(b)) => Some((*a, *b)),
            _ => None,
        }
    }

    /// `Some((min, max))` when the block has at least one valid `Utf8` row.
    /// Dictionary codes are assigned in lexicographic order, so these
    /// string bounds order identically to the column's dict-code bounds.
    pub fn utf8_bounds(&self) -> Option<(&str, &str)> {
        match (&self.min, &self.max) {
            (ScalarValue::Utf8(a), ScalarValue::Utf8(b)) => Some((a, b)),
            _ => None,
        }
    }

    /// True when the block contains no valid rows at all.
    pub fn all_null(&self) -> bool {
        self.min.is_null()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_common::DataType;

    #[test]
    fn int_zone_over_range() {
        let v = Vector::from_i64(vec![9, 1, 5, 100, -2]);
        let z = ZoneMap::compute(&v, 1, 3);
        assert_eq!(z.i64_bounds(), Some((1, 100)));
        assert_eq!(z.null_count, 0);
    }

    #[test]
    fn nulls_excluded_from_bounds() {
        let mut v = Vector::new_empty(DataType::Int64);
        for s in [
            ScalarValue::Int64(5),
            ScalarValue::Null,
            ScalarValue::Int64(3),
        ] {
            v.push(&s).unwrap();
        }
        let z = ZoneMap::compute(&v, 0, 3);
        assert_eq!(z.i64_bounds(), Some((3, 5)));
        assert_eq!(z.null_count, 1);
        assert!(!z.all_null());
    }

    #[test]
    fn all_null_zone() {
        let mut v = Vector::new_empty(DataType::Utf8);
        v.push(&ScalarValue::Null).unwrap();
        let z = ZoneMap::compute(&v, 0, 1);
        assert!(z.all_null());
        assert_eq!(z.i64_bounds(), None);
        assert_eq!(z.null_count, 1);
    }

    #[test]
    fn utf8_zone() {
        let v = Vector::from_utf8(vec!["m".into(), "a".into(), "z".into()]);
        let z = ZoneMap::compute(&v, 0, 3);
        assert_eq!(z.min, ScalarValue::Utf8("a".into()));
        assert_eq!(z.max, ScalarValue::Utf8("z".into()));
    }
}
