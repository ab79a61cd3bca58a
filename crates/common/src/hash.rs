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

/// Hash every *physical* row of a vector into `out` (overwrite mode) or
/// combine with existing hashes (combine mode).
pub fn hash_vector(vector: &Vector, out: &mut [u64], combine_mode: bool) {
    debug_assert_eq!(vector.len(), out.len());
    macro_rules! go {
        ($vals:expr, $hash:expr) => {
            if combine_mode {
                for (i, v) in $vals.iter().enumerate() {
                    out[i] = combine(out[i], $hash(v));
                }
            } else {
                for (i, v) in $vals.iter().enumerate() {
                    out[i] = $hash(v);
                }
            }
        };
    }
    // Dictionary-backed Utf8 takes the hash of the *decoded* string from
    // the dictionary's per-code table, so routing and Bloom probes agree
    // with flat string vectors bit-for-bit.
    if let (Some(d), ColumnData::Int64(codes)) = (&vector.dict, &vector.data) {
        let table = d.hashes();
        go!(codes, |v: &i64| table[*v as usize]);
    } else {
        match &vector.data {
            ColumnData::Int64(vals) => go!(vals, |v: &i64| hash_i64(*v)),
            ColumnData::Float64(vals) => go!(vals, |v: &f64| hash_i64(v.to_bits() as i64)),
            ColumnData::Utf8(vals) => go!(vals, |v: &String| hash_bytes(v.as_bytes())),
            ColumnData::Bool(vals) => go!(vals, |v: &bool| hash_i64(*v as i64)),
        }
    }
    // NULL keys hash to a fixed sentinel so they never match anything in
    // joins (the join operators additionally filter NULL keys out).
    if let Some(validity) = &vector.validity {
        for (i, valid) in validity.iter().enumerate() {
            if !valid {
                out[i] = u64::MAX;
            }
        }
    }
}

/// Compute row hashes for the given key columns of physical rows.
pub fn hash_columns(columns: &[&Vector], num_rows: usize) -> Vec<u64> {
    let mut hashes = vec![0u64; num_rows];
    for (k, col) in columns.iter().enumerate() {
        hash_vector(col, &mut hashes, k > 0);
    }
    hashes
}

/// Row hashes over the *selected* rows of the key columns, without
/// materializing a gathered copy first: `out[i]` hashes physical row
/// `sel[i]` (or `i` when `sel` is `None`). Produces exactly the values
/// [`hash_columns`] yields on a [`Vector::take`]-gathered copy — including
/// the NULL sentinel semantics: an invalid key column overwrites the
/// accumulated hash with `u64::MAX` at that column's position (discarding
/// earlier columns), and later *valid* columns combine on top of the
/// sentinel, so only a NULL in the final key column leaves the row hash at
/// `u64::MAX` itself.
pub fn hash_columns_sel(columns: &[&Vector], sel: Option<&[u32]>, num_rows: usize) -> Vec<u64> {
    let mut out = vec![0u64; num_rows];
    let row_at = |i: usize| sel.map_or(i, |s| s[i] as usize);
    for (k, col) in columns.iter().enumerate() {
        macro_rules! go {
            ($vals:expr, $hash:expr) => {
                for (i, slot) in out.iter_mut().enumerate() {
                    let row = row_at(i);
                    if col.is_valid(row) {
                        let h = $hash(&$vals[row]);
                        *slot = if k == 0 { h } else { combine(*slot, h) };
                    } else {
                        *slot = u64::MAX;
                    }
                }
            };
        }
        if let (Some(d), ColumnData::Int64(codes)) = (&col.dict, &col.data) {
            let table = d.hashes();
            go!(codes, |v: &i64| table[*v as usize]);
        } else {
            match &col.data {
                ColumnData::Int64(vals) => go!(vals, |v: &i64| hash_i64(*v)),
                ColumnData::Float64(vals) => go!(vals, |v: &f64| hash_i64(v.to_bits() as i64)),
                ColumnData::Utf8(vals) => go!(vals, |v: &String| hash_bytes(v.as_bytes())),
                ColumnData::Bool(vals) => go!(vals, |v: &bool| hash_i64(*v as i64)),
            }
        }
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
        let mut out = vec![0u64; 3];
        hash_vector(&v, &mut out, false);
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
        let mut out = vec![0u64; 2];
        hash_vector(&v, &mut out, false);
        assert_eq!(out[1], u64::MAX);
        assert_ne!(out[0], u64::MAX);
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
        let mut h_dict = vec![0u64; 4];
        let mut h_flat = vec![0u64; 4];
        hash_vector(&dv, &mut h_dict, false);
        hash_vector(&flat, &mut h_flat, false);
        assert_eq!(h_dict, h_flat);
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
        let mut out = vec![0u64; 2];
        hash_vector(&v, &mut out, false);
        assert_ne!(out[0], out[1]);
    }
}
