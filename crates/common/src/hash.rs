//! Vectorized hashing for join keys, aggregation groups, and Bloom filters.
//!
//! A hand-rolled FxHash-style multiplicative hash (we deliberately avoid an
//! extra dependency; the constant is the same golden-ratio multiplier used by
//! rustc's FxHasher) plus a finalizer borrowed from MurmurHash3's fmix64 so
//! that low-entropy integer keys still spread across Bloom filter blocks.

use crate::vector::{ColumnData, Vector};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// fmix64 finalizer from MurmurHash3: full-avalanche bit mixing.
#[inline(always)]
pub fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Hash a single `i64` key.
#[inline(always)]
pub fn hash_i64(v: i64) -> u64 {
    mix64((v as u64).wrapping_mul(SEED))
}

/// Hash a single `f64` key by its bit pattern.
#[inline(always)]
pub fn hash_f64(v: f64) -> u64 {
    hash_i64(v.to_bits() as i64)
}

/// Hash a single `bool` key.
#[inline(always)]
pub fn hash_bool(v: bool) -> u64 {
    hash_i64(v as i64)
}

/// Hash a single byte string.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    // FNV-1a over the bytes, then avalanche.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    mix64(h)
}

/// Combine a new column hash into an accumulated row hash (for composite
/// keys). Order-sensitive, like `Hash::hash` field-by-field.
#[inline(always)]
pub fn combine(acc: u64, next: u64) -> u64 {
    mix64(acc.rotate_left(31) ^ next.wrapping_mul(SEED))
}

/// The row hash a NULL key column leaves behind (see [`fold_key_column`]).
/// It is only a value: whether a key is NULL is read from the key columns'
/// validity, never from the hash, since a valid key can hash to it too.
pub const NULL_HASH: u64 = u64::MAX;

/// Fold one key column into the row hashes `out`: the one rule every
/// composite key hash follows, whatever form the column is stored in.
/// `hashes` yields the column's hash of each output row in order; output
/// row `i` is physical row `sel[i]` (`i` when `sel` is `None`), and
/// `validity` is read over physical rows. The first key column overwrites
/// `out`, a later one [`combine`]s into it. A NULL then overwrites the
/// row's hash with [`NULL_HASH`], discarding earlier columns, and later
/// valid columns combine on top of the sentinel — so only a NULL in the
/// last key column leaves the row hash at the sentinel itself.
#[inline]
pub fn fold_key_column(
    out: &mut [u64],
    first: bool,
    hashes: impl Iterator<Item = u64>,
    validity: Option<&[bool]>,
    sel: Option<&[u32]>,
) {
    if first {
        for (slot, h) in out.iter_mut().zip(hashes) {
            *slot = h;
        }
    } else {
        for (slot, h) in out.iter_mut().zip(hashes) {
            *slot = combine(*slot, h);
        }
    }
    if let Some(mask) = validity {
        for (i, slot) in out.iter_mut().enumerate() {
            if !mask[sel.map_or(i, |s| s[i] as usize)] {
                *slot = NULL_HASH;
            }
        }
    }
}

/// Fold key column `col` into `out` through the selection `sel` (see
/// [`fold_key_column`]), reading the typed payload in place.
pub fn hash_column_into(col: &Vector, sel: Option<&[u32]>, out: &mut [u64], first: bool) {
    match sel {
        None => hash_rows_into(col, 0..out.len(), None, out, first),
        Some(s) => hash_rows_into(col, s.iter().map(|&r| r as usize), sel, out, first),
    }
}

/// [`hash_column_into`] over the physical rows `rows`, which `sel` names.
#[inline]
fn hash_rows_into(
    col: &Vector,
    rows: impl Iterator<Item = usize>,
    sel: Option<&[u32]>,
    out: &mut [u64],
    first: bool,
) {
    let validity = col.validity.as_deref();
    match (&col.dict, &col.data) {
        // Dictionary-backed Utf8 takes the hash of the *decoded* string
        // from the dictionary's per-code table, so routing and Bloom probes
        // agree with flat string vectors bit-for-bit.
        (Some(d), ColumnData::Int64(codes)) => {
            let table = d.hashes();
            let hashes = rows.map(|r| table[codes[r] as usize]);
            fold_key_column(out, first, hashes, validity, sel)
        }
        (_, ColumnData::Int64(v)) => {
            fold_key_column(out, first, rows.map(|r| hash_i64(v[r])), validity, sel)
        }
        (_, ColumnData::Float64(v)) => {
            fold_key_column(out, first, rows.map(|r| hash_f64(v[r])), validity, sel)
        }
        (_, ColumnData::Utf8(v)) => {
            let hashes = rows.map(|r| hash_bytes(v[r].as_bytes()));
            fold_key_column(out, first, hashes, validity, sel)
        }
        (_, ColumnData::Bool(v)) => {
            fold_key_column(out, first, rows.map(|r| hash_bool(v[r])), validity, sel)
        }
    }
}

/// Compute row hashes for the given key columns of physical rows.
pub fn hash_columns(columns: &[&Vector], num_rows: usize) -> Vec<u64> {
    hash_columns_sel(columns, None, num_rows)
}

/// Row hashes over the *selected* rows of the key columns, without
/// materializing a gathered copy first: `out[i]` hashes physical row
/// `sel[i]` (or `i` when `sel` is `None`). Produces exactly the values
/// [`hash_columns`] yields on a [`Vector::take`]-gathered copy, the NULL
/// sentinel included (see [`fold_key_column`]).
pub fn hash_columns_sel(columns: &[&Vector], sel: Option<&[u32]>, num_rows: usize) -> Vec<u64> {
    let mut out = vec![0u64; num_rows];
    for (k, col) in columns.iter().enumerate() {
        hash_column_into(col, sel, &mut out, k == 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn i64_hash_spreads() {
        // Sequential keys must not collide and must differ in the high bits
        // (Bloom filters use the high bits to pick a block).
        let hashes: Vec<u64> = (0..10_000).map(hash_i64).collect();
        let distinct: HashSet<_> = hashes.iter().collect();
        assert_eq!(distinct.len(), hashes.len());
        let high_bits: HashSet<_> = hashes.iter().map(|h| h >> 48).collect();
        assert!(high_bits.len() > 5_000, "high bits poorly distributed");
    }

    #[test]
    fn bytes_hash_differs() {
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abd"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"a"));
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = combine(hash_i64(1), hash_i64(2));
        let b = combine(hash_i64(2), hash_i64(1));
        assert_ne!(a, b);
    }

    #[test]
    fn vector_hash_matches_scalar() {
        let v = Vector::from_i64(vec![5, 6, 7]);
        let out = hash_columns(&[&v], 3);
        assert_eq!(out[0], hash_i64(5));
        assert_eq!(out[2], hash_i64(7));
    }

    #[test]
    fn composite_key_hash() {
        let a = Vector::from_i64(vec![1, 1]);
        let b = Vector::from_i64(vec![2, 3]);
        let h = hash_columns(&[&a, &b], 2);
        assert_ne!(h[0], h[1]);
        // Must equal the scalar composition.
        assert_eq!(h[0], combine(hash_i64(1), hash_i64(2)));
    }

    #[test]
    fn null_keys_get_sentinel() {
        use crate::types::{DataType, ScalarValue};
        let mut v = Vector::new_empty(DataType::Int64);
        v.push(&ScalarValue::Int64(5)).unwrap();
        v.push(&ScalarValue::Null).unwrap();
        let out = hash_columns(&[&v], 2);
        assert_eq!(out[1], NULL_HASH);
        assert_ne!(out[0], NULL_HASH);
        // A NULL discards the columns before it; a valid column after it
        // combines on top of the sentinel, so the row hash is no longer
        // the sentinel and a NULL must be read from validity.
        let b = Vector::from_i64(vec![7, 7]);
        let out = hash_columns(&[&b, &v, &b], 2);
        assert_eq!(out[1], combine(NULL_HASH, hash_i64(7)));
        assert_ne!(out[1], NULL_HASH);
    }

    /// The gather-free selection-aware hash must equal hashing a
    /// `take`-gathered copy — including composite keys and the NULL
    /// sentinel in either column position.
    #[test]
    fn hash_columns_sel_matches_gathered() {
        use crate::types::{DataType, ScalarValue};
        let mut a = Vector::new_empty(DataType::Int64);
        for v in [
            ScalarValue::Int64(5),
            ScalarValue::Null,
            ScalarValue::Int64(-7),
            ScalarValue::Int64(0),
        ] {
            a.push(&v).unwrap();
        }
        let mut b = Vector::new_empty(DataType::Utf8);
        for v in [
            ScalarValue::Utf8("x".into()),
            ScalarValue::Utf8("y".into()),
            ScalarValue::Null,
            ScalarValue::Utf8("".into()),
        ] {
            b.push(&v).unwrap();
        }
        for sel in [None, Some(vec![3u32, 1, 1, 0, 2])] {
            let n = sel.as_ref().map_or(a.len(), Vec::len);
            let direct = hash_columns_sel(&[&a, &b], sel.as_deref(), n);
            let (ga, gb) = match &sel {
                Some(s) => (a.take(s), b.take(s)),
                None => (a.clone(), b.clone()),
            };
            let gathered = hash_columns(&[&ga, &gb], n);
            assert_eq!(direct, gathered, "sel {sel:?}");
        }
    }

    /// Dictionary-backed Utf8 vectors must hash identically to their
    /// decoded flat form — partition routing and Bloom probes depend on it.
    #[test]
    fn dict_vector_hashes_like_flat_strings() {
        use crate::dict::Utf8Dict;
        let d = Utf8Dict::from_values(vec!["a", "bb", "ccc"]);
        let dv = Vector::from_dict_codes(vec![2, 0, 0, 1], Some(vec![true, true, false, true]), d);
        let flat = dv.decode_dict();
        for sel in [None, Some(vec![3u32, 0, 0])] {
            let n = sel.as_ref().map_or(4, Vec::len);
            assert_eq!(
                hash_columns_sel(&[&dv], sel.as_deref(), n),
                hash_columns_sel(&[&flat], sel.as_deref(), n),
                "sel {sel:?}"
            );
        }
    }

    #[test]
    fn float_hash_uses_bits() {
        let v = Vector::from_f64(vec![1.0, -1.0]);
        let out = hash_columns(&[&v], 2);
        assert_ne!(out[0], out[1]);
    }
}
