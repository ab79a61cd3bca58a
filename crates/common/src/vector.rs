//! Typed column vectors with optional validity (NULL) masks.
//!
//! A [`Vector`] is one column of a [`crate::DataChunk`]: a contiguous typed
//! buffer plus an optional validity mask. Selection is carried at the chunk
//! level so operators can eliminate rows without copying column data.
//!
//! Vectors are flat except for one encoding: a **dictionary-backed `Utf8`
//! view**. When [`Vector::dict`] is set, the payload is `ColumnData::Int64`
//! of dictionary codes while the *logical* type stays `Utf8` — `data_type`,
//! `get`, and the hashing routines all speak strings, but fixed-width
//! consumers (packed group keys) can read the codes directly. Gathers
//! (`take`/`slice`) preserve the encoding; mutating paths decode to flat
//! strings first.

use crate::dict::{Utf8Dict, DICT_KEY_BITS};
use crate::types::{DataType, ScalarValue};
use crate::{Error, Result};
use std::sync::Arc;

/// The typed payload of a column vector.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Utf8(Vec<String>),
    Bool(Vec<bool>),
}

impl ColumnData {
    pub fn new_empty(dt: DataType) -> Self {
        match dt {
            DataType::Int64 => ColumnData::Int64(vec![]),
            DataType::Float64 => ColumnData::Float64(vec![]),
            DataType::Utf8 => ColumnData::Utf8(vec![]),
            DataType::Bool => ColumnData::Bool(vec![]),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Utf8(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Utf8(_) => DataType::Utf8,
            ColumnData::Bool(_) => DataType::Bool,
        }
    }
}

/// One column of a chunk: typed values plus an optional validity mask
/// (`true` = valid, `false` = NULL). `validity == None` means all-valid,
/// which is the overwhelmingly common case in the paper's workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    pub data: ColumnData,
    pub validity: Option<Vec<bool>>,
    /// When set, `data` holds `Int64` dictionary codes and the vector's
    /// logical type is `Utf8` (see the module docs).
    pub dict: Option<Arc<Utf8Dict>>,
}

impl Vector {
    pub fn new(data: ColumnData) -> Self {
        Vector {
            data,
            validity: None,
            dict: None,
        }
    }

    pub fn new_empty(dt: DataType) -> Self {
        Vector::new(ColumnData::new_empty(dt))
    }

    pub fn from_i64(values: Vec<i64>) -> Self {
        Vector::new(ColumnData::Int64(values))
    }

    pub fn from_f64(values: Vec<f64>) -> Self {
        Vector::new(ColumnData::Float64(values))
    }

    pub fn from_utf8(values: Vec<String>) -> Self {
        Vector::new(ColumnData::Utf8(values))
    }

    pub fn from_bool(values: Vec<bool>) -> Self {
        Vector::new(ColumnData::Bool(values))
    }

    /// Build a dictionary-backed `Utf8` vector from codes into `dict`.
    /// Code payloads at NULL positions are placeholders and must still be
    /// in-range for the dictionary (use 0).
    pub fn from_dict_codes(
        codes: Vec<i64>,
        validity: Option<Vec<bool>>,
        dict: Arc<Utf8Dict>,
    ) -> Self {
        Vector {
            data: ColumnData::Int64(codes),
            validity,
            dict: Some(dict),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The *logical* type: `Utf8` for dictionary-backed vectors even though
    /// the payload is `Int64` codes.
    pub fn data_type(&self) -> DataType {
        if self.dict.is_some() {
            DataType::Utf8
        } else {
            self.data.data_type()
        }
    }

    pub fn is_dict(&self) -> bool {
        self.dict.is_some()
    }

    /// Bit width of this vector when packed into a fixed-width group key:
    /// [`DataType::fixed_key_bits`] for flat vectors, [`DICT_KEY_BITS`] for
    /// dictionary-backed `Utf8`.
    pub fn fixed_width(&self) -> Option<u32> {
        if self.dict.is_some() {
            Some(DICT_KEY_BITS)
        } else {
            self.data_type().fixed_key_bits()
        }
    }

    /// Read the string at physical row `idx` from a `Utf8` vector, resolving
    /// dictionary codes. Panics on non-`Utf8` vectors; callers check
    /// validity separately.
    pub fn utf8_at(&self, idx: usize) -> &str {
        match (&self.dict, &self.data) {
            (Some(d), ColumnData::Int64(codes)) => d.value(codes[idx] as usize),
            (None, ColumnData::Utf8(v)) => &v[idx],
            _ => panic!("expected Utf8 column, got {:?}", self.data.data_type()),
        }
    }

    /// A flat (dictionary-free) copy; clones cheaply when already flat.
    pub fn decode_dict(&self) -> Vector {
        match (&self.dict, &self.data) {
            (Some(d), ColumnData::Int64(codes)) => Vector {
                data: ColumnData::Utf8(
                    codes
                        .iter()
                        .map(|&c| d.value(c as usize).to_string())
                        .collect(),
                ),
                validity: self.validity.clone(),
                dict: None,
            },
            _ => self.clone(),
        }
    }

    /// Decode dictionary codes to flat strings in place (no-op when flat).
    pub fn decode_dict_in_place(&mut self) {
        if self.dict.is_some() {
            *self = self.decode_dict();
        }
    }

    pub fn is_valid(&self, idx: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v[idx])
    }

    /// Read row `idx` as a scalar (positional, ignores chunk selection).
    pub fn get(&self, idx: usize) -> ScalarValue {
        if !self.is_valid(idx) {
            return ScalarValue::Null;
        }
        if let (Some(d), ColumnData::Int64(codes)) = (&self.dict, &self.data) {
            return ScalarValue::Utf8(d.value(codes[idx] as usize).to_string());
        }
        match &self.data {
            ColumnData::Int64(v) => ScalarValue::Int64(v[idx]),
            ColumnData::Float64(v) => ScalarValue::Float64(v[idx]),
            ColumnData::Utf8(v) => ScalarValue::Utf8(v[idx].clone()),
            ColumnData::Bool(v) => ScalarValue::Bool(v[idx]),
        }
    }

    /// Append a scalar (NULL extends the validity mask). Dictionary-backed
    /// vectors decode to flat strings first — `push` is a slow build path.
    pub fn push(&mut self, value: &ScalarValue) -> Result<()> {
        self.decode_dict_in_place();
        if value.is_null() {
            let len = self.len();
            let validity = self.validity.get_or_insert_with(|| vec![true; len]);
            validity.push(false);
            // Push a placeholder payload value.
            match &mut self.data {
                ColumnData::Int64(v) => v.push(0),
                ColumnData::Float64(v) => v.push(0.0),
                ColumnData::Utf8(v) => v.push(String::new()),
                ColumnData::Bool(v) => v.push(false),
            }
            return Ok(());
        }
        match (&mut self.data, value) {
            (ColumnData::Int64(v), ScalarValue::Int64(x)) => v.push(*x),
            (ColumnData::Float64(v), ScalarValue::Float64(x)) => v.push(*x),
            (ColumnData::Float64(v), ScalarValue::Int64(x)) => v.push(*x as f64),
            (ColumnData::Utf8(v), ScalarValue::Utf8(x)) => v.push(x.clone()),
            (ColumnData::Bool(v), ScalarValue::Bool(x)) => v.push(*x),
            (d, v) => {
                return Err(Error::Exec(format!(
                    "type mismatch pushing {v:?} into {:?} column",
                    d.data_type()
                )))
            }
        }
        if let Some(validity) = &mut self.validity {
            validity.push(true);
        }
        Ok(())
    }

    /// Gather rows by index into a new flat vector (used to apply selection
    /// vectors and to materialize hash-join matches).
    pub fn take(&self, indices: &[u32]) -> Vector {
        let data = match &self.data {
            ColumnData::Int64(v) => {
                ColumnData::Int64(indices.iter().map(|i| v[*i as usize]).collect())
            }
            ColumnData::Float64(v) => {
                ColumnData::Float64(indices.iter().map(|i| v[*i as usize]).collect())
            }
            ColumnData::Utf8(v) => {
                ColumnData::Utf8(indices.iter().map(|i| v[*i as usize].clone()).collect())
            }
            ColumnData::Bool(v) => {
                ColumnData::Bool(indices.iter().map(|i| v[*i as usize]).collect())
            }
        };
        let validity = self
            .validity
            .as_ref()
            .map(|m| indices.iter().map(|i| m[*i as usize]).collect());
        Vector {
            data,
            validity,
            dict: self.dict.clone(),
        }
    }

    /// Reserve room for `additional` more rows (payload and validity mask),
    /// so a run of [`Vector::append`]s of known total length never regrows.
    pub fn reserve(&mut self, additional: usize) {
        match &mut self.data {
            ColumnData::Int64(v) => v.reserve(additional),
            ColumnData::Float64(v) => v.reserve(additional),
            ColumnData::Utf8(v) => v.reserve(additional),
            ColumnData::Bool(v) => v.reserve(additional),
        }
        if let Some(validity) = &mut self.validity {
            validity.reserve(additional);
        }
    }

    /// Type-check appending rows of `other` to `self`, and say whether the
    /// two share one encoding (both flat, or codes into the same
    /// dictionary) so the payloads can be appended as they are.
    fn same_encoding(&self, other: &Vector) -> Result<bool> {
        if self.data_type() != other.data_type() {
            return Err(Error::Exec(format!(
                "appending {:?} column to {:?} column",
                other.data_type(),
                self.data_type()
            )));
        }
        Ok(match (&self.dict, &other.dict) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        })
    }

    /// Give `self` a validity mask when rows of `other` are about to bring
    /// one; returns the mask the appended rows must extend, if any.
    fn reconciled_validity(&mut self, other: &Vector) -> Option<&mut Vec<bool>> {
        if other.validity.is_some() && self.validity.is_none() {
            self.validity = Some(vec![true; self.len()]);
        }
        self.validity.as_mut()
    }

    /// Append all rows of `other` (same type) to `self`. Appending across
    /// different encodings (dictionary vs flat, or two distinct
    /// dictionaries) decodes both sides to flat strings.
    pub fn append(&mut self, other: &Vector) -> Result<()> {
        if !self.same_encoding(other)? {
            self.decode_dict_in_place();
            return self.append(&other.decode_dict());
        }
        if let Some(validity) = self.reconciled_validity(other) {
            match &other.validity {
                Some(m) => validity.extend_from_slice(m),
                None => validity.extend(std::iter::repeat_n(true, other.len())),
            }
        }
        match (&mut self.data, &other.data) {
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a.extend_from_slice(b),
            (ColumnData::Float64(a), ColumnData::Float64(b)) => a.extend_from_slice(b),
            (ColumnData::Utf8(a), ColumnData::Utf8(b)) => a.extend(b.iter().cloned()),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend_from_slice(b),
            _ => unreachable!("type checked above"),
        }
        Ok(())
    }

    /// Append rows `indices` of `src` to `self`: [`Vector::append`] of
    /// `src.take(indices)` without the gathered copy in between, so a
    /// partitioned sink scatters each row straight to where it is stored.
    /// Encodings and validity masks reconcile as in `append`.
    pub fn extend_taken(&mut self, src: &Vector, indices: &[u32]) -> Result<()> {
        if !self.same_encoding(src)? {
            self.decode_dict_in_place();
            return self.append(&src.take(indices).decode_dict());
        }
        let rows = indices.iter().map(|&i| i as usize);
        if let Some(validity) = self.reconciled_validity(src) {
            match &src.validity {
                Some(m) => validity.extend(rows.clone().map(|i| m[i])),
                None => validity.extend(std::iter::repeat_n(true, indices.len())),
            }
        }
        match (&mut self.data, &src.data) {
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a.extend(rows.map(|i| b[i])),
            (ColumnData::Float64(a), ColumnData::Float64(b)) => a.extend(rows.map(|i| b[i])),
            (ColumnData::Utf8(a), ColumnData::Utf8(b)) => a.extend(rows.map(|i| b[i].clone())),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend(rows.map(|i| b[i])),
            _ => unreachable!("type checked above"),
        }
        Ok(())
    }

    /// Contiguous sub-range copy (used to split tables into chunks).
    pub fn slice(&self, offset: usize, len: usize) -> Vector {
        let end = offset + len;
        let data = match &self.data {
            ColumnData::Int64(v) => ColumnData::Int64(v[offset..end].to_vec()),
            ColumnData::Float64(v) => ColumnData::Float64(v[offset..end].to_vec()),
            ColumnData::Utf8(v) => ColumnData::Utf8(v[offset..end].to_vec()),
            ColumnData::Bool(v) => ColumnData::Bool(v[offset..end].to_vec()),
        };
        let validity = self.validity.as_ref().map(|m| m[offset..end].to_vec());
        Vector {
            data,
            validity,
            dict: self.dict.clone(),
        }
    }

    /// Fold this column into per-row packed fixed-width group keys.
    ///
    /// For every output row `i` (reading physical row `sel[i]` when a
    /// selection is given), shifts `acc[i]` left by `width + 1` bits and ORs
    /// in a NULL flag bit followed by the row's value bits — so packing the
    /// key columns in order builds one integer per row that is equal iff
    /// the rows' key tuples are equal (NULL rows contribute canonical zero
    /// value bits). `width` must be [`Vector::fixed_width`] for this column
    /// ([`DataType::fixed_key_bits`] for flat vectors, [`DICT_KEY_BITS`]
    /// for dictionary codes) and the caller guarantees the accumulated key
    /// fits in 128 bits; panics on non-fixed-width columns (internal fast
    /// path, like [`Vector::i64_slice`]).
    pub fn pack_fixed_key(&self, sel: Option<&[u32]>, width: u32, acc: &mut [u128]) {
        debug_assert_eq!(Some(width), self.fixed_width());
        let value = |row: usize| -> u128 {
            match &self.data {
                ColumnData::Int64(v) => v[row] as u64 as u128,
                ColumnData::Bool(v) => v[row] as u128,
                other => panic!(
                    "expected fixed-width key column, got {:?}",
                    other.data_type()
                ),
            }
        };
        let shift = width + 1;
        match (sel, &self.validity) {
            (None, None) => {
                for (i, a) in acc.iter_mut().enumerate() {
                    *a = (*a << shift) | value(i);
                }
            }
            (None, Some(validity)) => {
                for (i, a) in acc.iter_mut().enumerate() {
                    *a = (*a << shift)
                        | if validity[i] {
                            value(i)
                        } else {
                            1u128 << width
                        };
                }
            }
            (Some(sel), _) => {
                for (i, a) in acc.iter_mut().enumerate() {
                    let row = sel[i] as usize;
                    *a = (*a << shift)
                        | if self.is_valid(row) {
                            value(row)
                        } else {
                            1u128 << width
                        };
                }
            }
        }
    }

    /// Typed accessors (panic on type mismatch — internal fast paths only).
    pub fn i64_slice(&self) -> &[i64] {
        match &self.data {
            ColumnData::Int64(v) => v,
            other => panic!("expected Int64 column, got {:?}", other.data_type()),
        }
    }

    pub fn f64_slice(&self) -> &[f64] {
        match &self.data {
            ColumnData::Float64(v) => v,
            other => panic!("expected Float64 column, got {:?}", other.data_type()),
        }
    }

    pub fn utf8_slice(&self) -> &[String] {
        match &self.data {
            ColumnData::Utf8(v) => v,
            other => panic!("expected Utf8 column, got {:?}", other.data_type()),
        }
    }

    pub fn bool_slice(&self) -> &[bool] {
        match &self.data {
            ColumnData::Bool(v) => v,
            other => panic!("expected Bool column, got {:?}", other.data_type()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_get() {
        let v = Vector::from_i64(vec![1, 2, 3]);
        assert_eq!(v.len(), 3);
        assert_eq!(v.get(1), ScalarValue::Int64(2));
        assert_eq!(v.data_type(), DataType::Int64);
    }

    #[test]
    fn push_with_nulls() {
        let mut v = Vector::new_empty(DataType::Int64);
        v.push(&ScalarValue::Int64(5)).unwrap();
        v.push(&ScalarValue::Null).unwrap();
        v.push(&ScalarValue::Int64(7)).unwrap();
        assert_eq!(v.len(), 3);
        assert!(v.is_valid(0));
        assert!(!v.is_valid(1));
        assert_eq!(v.get(1), ScalarValue::Null);
        assert_eq!(v.get(2), ScalarValue::Int64(7));
    }

    #[test]
    fn push_type_mismatch() {
        let mut v = Vector::new_empty(DataType::Int64);
        assert!(v.push(&ScalarValue::Utf8("x".into())).is_err());
    }

    #[test]
    fn int_into_float_coercion() {
        let mut v = Vector::new_empty(DataType::Float64);
        v.push(&ScalarValue::Int64(2)).unwrap();
        assert_eq!(v.get(0), ScalarValue::Float64(2.0));
    }

    #[test]
    fn take_gathers_rows() {
        let v = Vector::from_utf8(vec!["a".into(), "b".into(), "c".into()]);
        let t = v.take(&[2, 0]);
        assert_eq!(t.get(0), ScalarValue::Utf8("c".into()));
        assert_eq!(t.get(1), ScalarValue::Utf8("a".into()));
    }

    #[test]
    fn take_preserves_validity() {
        let mut v = Vector::new_empty(DataType::Int64);
        v.push(&ScalarValue::Int64(1)).unwrap();
        v.push(&ScalarValue::Null).unwrap();
        let t = v.take(&[1, 0]);
        assert!(!t.is_valid(0));
        assert!(t.is_valid(1));
    }

    #[test]
    fn append_merges_validity() {
        let mut a = Vector::from_i64(vec![1, 2]);
        let mut b = Vector::new_empty(DataType::Int64);
        b.push(&ScalarValue::Null).unwrap();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 3);
        assert!(a.is_valid(0));
        assert!(!a.is_valid(2));
    }

    #[test]
    fn append_type_mismatch() {
        let mut a = Vector::from_i64(vec![1]);
        let b = Vector::from_bool(vec![true]);
        assert!(a.append(&b).is_err());
    }

    fn dict_vec() -> Vector {
        let d = Utf8Dict::from_values(vec!["east", "north", "west"]);
        Vector::from_dict_codes(vec![2, 0, 0, 1], Some(vec![true, true, false, true]), d)
    }

    #[test]
    fn dict_vector_is_logically_utf8() {
        let v = dict_vec();
        assert_eq!(v.data_type(), DataType::Utf8);
        assert!(v.is_dict());
        assert_eq!(v.fixed_width(), Some(DICT_KEY_BITS));
        assert_eq!(v.get(0), ScalarValue::Utf8("west".into()));
        assert_eq!(v.get(2), ScalarValue::Null);
        assert_eq!(v.utf8_at(3), "north");
    }

    #[test]
    fn dict_take_and_slice_preserve_encoding() {
        let v = dict_vec();
        let t = v.take(&[3, 0]);
        assert!(t.is_dict());
        assert_eq!(t.get(0), ScalarValue::Utf8("north".into()));
        let s = v.slice(1, 2);
        assert!(s.is_dict());
        assert_eq!(s.get(0), ScalarValue::Utf8("east".into()));
        assert_eq!(s.get(1), ScalarValue::Null);
    }

    #[test]
    fn dict_decode_matches_gets() {
        let v = dict_vec();
        let flat = v.decode_dict();
        assert!(!flat.is_dict());
        for i in 0..v.len() {
            assert_eq!(v.get(i), flat.get(i));
        }
    }

    #[test]
    fn dict_append_mixed_encodings_decodes() {
        // dict + flat
        let mut a = dict_vec();
        let b = Vector::from_utf8(vec!["zz".into()]);
        a.append(&b).unwrap();
        assert!(!a.is_dict());
        assert_eq!(a.len(), 5);
        assert_eq!(a.get(4), ScalarValue::Utf8("zz".into()));
        // same-dict append stays encoded
        let mut c = dict_vec();
        let d = c.clone();
        c.append(&d).unwrap();
        assert!(c.is_dict());
        assert_eq!(c.len(), 8);
        assert_eq!(c.get(4), ScalarValue::Utf8("west".into()));
        // push decodes
        let mut e = dict_vec();
        e.push(&ScalarValue::Utf8("q".into())).unwrap();
        assert!(!e.is_dict());
        assert_eq!(e.get(1), ScalarValue::Utf8("east".into()));
    }

    /// `extend_taken` is `append` of the gathered rows, for every pairing
    /// of encodings and validity masks.
    #[test]
    fn extend_taken_matches_append_of_take() {
        let other_dict = Utf8Dict::from_values(vec!["x", "y", "z"]);
        let mut nullable = Vector::new_empty(DataType::Utf8);
        for v in [ScalarValue::Utf8("p".into()), ScalarValue::Null] {
            nullable.push(&v).unwrap();
        }
        let strings = [
            dict_vec(),
            Vector::from_dict_codes(vec![1, 1, 0, 2], None, dict_vec().dict.unwrap()),
            Vector::from_dict_codes(vec![2, 0, 1, 1], None, other_dict),
            Vector::from_utf8(vec!["a".into(), "b".into(), "c".into(), "d".into()]),
            nullable,
        ];
        let idx = [1u32, 0, 1];
        for dst in &strings {
            for src in &strings {
                let mut want = dst.clone();
                want.append(&src.take(&idx)).unwrap();
                let mut got = dst.clone();
                got.extend_taken(src, &idx).unwrap();
                assert_eq!(got, want);
                assert_eq!(got.len(), dst.len() + idx.len());
            }
        }
        // Same dictionary on both sides stays encoded.
        let mut coded = dict_vec();
        coded.extend_taken(&coded.clone(), &[3]).unwrap();
        assert!(coded.is_dict());
        assert_eq!(coded.get(4), ScalarValue::Utf8("north".into()));

        let mut ints = Vector::from_i64(vec![7]);
        ints.extend_taken(&Vector::from_i64(vec![1, 2, 3]), &[2, 2, 0])
            .unwrap();
        assert_eq!(ints, Vector::from_i64(vec![7, 3, 3, 1]));
        assert!(ints
            .extend_taken(&Vector::from_bool(vec![true]), &[0])
            .is_err());
    }

    #[test]
    fn dict_pack_fixed_key_uses_codes() {
        let v = dict_vec();
        let mut acc = vec![0u128; 4];
        v.pack_fixed_key(None, DICT_KEY_BITS, &mut acc);
        assert_eq!(acc[0], 2);
        assert_eq!(acc[1], 0);
        assert_eq!(acc[2], 1u128 << DICT_KEY_BITS); // NULL flag bit
        assert_eq!(acc[3], 1);
    }
}
