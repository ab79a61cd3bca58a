//! Logical data types and scalar (single) values.

use std::cmp::Ordering;
use std::fmt;

/// The logical column types supported by the engine.
///
/// Dates are encoded as `Int64` day numbers by the workload generators; the
/// paper's evaluation only exercises equality joins on integer keys plus
/// range/equality filters, so this small lattice is sufficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int64,
    Float64,
    Utf8,
    Bool,
}

impl DataType {
    /// Width in bits of this type's fixed-width group-key encoding, or
    /// `None` when the type has no fixed-width encoding (`Utf8`) or packing
    /// it would be lossy (`Float64` keys keep the encoded-byte path so
    /// `-0.0`/`NaN` semantics stay byte-defined). A packed key spends one
    /// extra bit per column on the NULL flag; see
    /// `Vector::pack_fixed_key`.
    pub fn fixed_key_bits(self) -> Option<u32> {
        match self {
            DataType::Int64 => Some(64),
            DataType::Bool => Some(1),
            DataType::Float64 | DataType::Utf8 => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int64 => "INT64",
            DataType::Float64 => "FLOAT64",
            DataType::Utf8 => "UTF8",
            DataType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A single (possibly NULL) value.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarValue {
    Null,
    Int64(i64),
    Float64(f64),
    Utf8(String),
    Bool(bool),
}

impl ScalarValue {
    /// Data type of this scalar, or `None` for NULL (untyped).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            ScalarValue::Null => None,
            ScalarValue::Int64(_) => Some(DataType::Int64),
            ScalarValue::Float64(_) => Some(DataType::Float64),
            ScalarValue::Utf8(_) => Some(DataType::Utf8),
            ScalarValue::Bool(_) => Some(DataType::Bool),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, ScalarValue::Null)
    }

    /// SQL-style three-valued comparison. Returns `None` when either side is
    /// NULL or the types are incomparable.
    pub fn partial_cmp_sql(&self, other: &ScalarValue) -> Option<Ordering> {
        use ScalarValue::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int64(a), Int64(b)) => Some(a.cmp(b)),
            (Float64(a), Float64(b)) => a.partial_cmp(b),
            (Int64(a), Float64(b)) => (*a as f64).partial_cmp(b),
            (Float64(a), Int64(b)) => a.partial_cmp(&(*b as f64)),
            (Utf8(a), Utf8(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Extract an `i64`, coercing from float/bool where lossless-ish.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ScalarValue::Int64(v) => Some(*v),
            ScalarValue::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ScalarValue::Float64(v) => Some(*v),
            ScalarValue::Int64(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            ScalarValue::Utf8(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for ScalarValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarValue::Null => f.write_str("NULL"),
            ScalarValue::Int64(v) => write!(f, "{v}"),
            ScalarValue::Float64(v) => write!(f, "{v}"),
            ScalarValue::Utf8(v) => write!(f, "{v}"),
            ScalarValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_types() {
        assert_eq!(ScalarValue::Int64(3).data_type(), Some(DataType::Int64));
        assert_eq!(ScalarValue::Null.data_type(), None);
        assert!(ScalarValue::Null.is_null());
    }

    #[test]
    fn sql_comparison() {
        use ScalarValue::*;
        assert_eq!(Int64(1).partial_cmp_sql(&Int64(2)), Some(Ordering::Less));
        assert_eq!(
            Int64(2).partial_cmp_sql(&Float64(1.5)),
            Some(Ordering::Greater)
        );
        assert_eq!(Null.partial_cmp_sql(&Int64(1)), None);
        assert_eq!(
            Utf8("a".into()).partial_cmp_sql(&Utf8("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(Utf8("a".into()).partial_cmp_sql(&Int64(1)), None);
    }

    #[test]
    fn coercions() {
        assert_eq!(ScalarValue::Int64(7).as_f64(), Some(7.0));
        assert_eq!(ScalarValue::Float64(1.5).as_i64(), None);
        assert_eq!(ScalarValue::Bool(true).as_i64(), Some(1));
        assert_eq!(ScalarValue::Utf8("x".into()).as_str(), Some("x"));
    }

    #[test]
    fn display() {
        assert_eq!(ScalarValue::Int64(42).to_string(), "42");
        assert_eq!(ScalarValue::Null.to_string(), "NULL");
        assert_eq!(DataType::Utf8.to_string(), "UTF8");
    }
}
