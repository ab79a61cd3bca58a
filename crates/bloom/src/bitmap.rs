//! The exact transfer filter for dense `Int64` keys.
//!
//! A [`KeyBitmap`] over `[min, max]` holds one bit per value of the range:
//! insert sets bit `key − min`, probe tests it. No hash is computed and
//! nothing collides, so a transfer edge that carries one is an exact
//! semi-join. It is the min/max trick behind DuckDB's perfect hash join,
//! applied to the transfer phase; the planner picks it by size
//! ([`crate::FilterShape::choose`]).
//!
//! Offsets are taken with wrapping arithmetic: `key.wrapping_sub(min)` read
//! as `u64` is the true offset for every `key ≥ min` and at least `2^63`
//! for every `key < min`, so one unsigned comparison against the range
//! length decides membership of the range even at `i64::MIN` / `i64::MAX`.
//! Inserts reject keys outside the range, so the padding bits of the last
//! word stay clear and a probe needs only the word lookup.

use rpt_common::{Error, Result};

/// An exact membership bitmap over the inclusive key range `[min, max]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyBitmap {
    min: i64,
    /// Bits in the range, `max − min + 1`.
    len: u64,
    words: Vec<u64>,
    inserted: u64,
}

impl KeyBitmap {
    /// Bits of a bitmap over `[min, max]`, `max − min + 1` computed in
    /// `i128` so no range overflows; `None` when `max < min` or the count
    /// does not fit a `u64` (the whole `i64` domain).
    fn span(min: i64, max: i64) -> Option<u64> {
        u64::try_from(i128::from(max) - i128::from(min) + 1)
            .ok()
            .filter(|&bits| bits > 0)
    }

    /// Bytes of a bitmap over `[min, max]`: `ceil((max − min + 1) / 64) · 8`,
    /// or `None` when no bitmap over that range can exist.
    pub fn bytes_for(min: i64, max: i64) -> Option<usize> {
        usize::try_from(Self::span(min, max)?.div_ceil(64) * 8).ok()
    }

    /// An empty bitmap over `[min, max]`. Fails, without allocating, when
    /// no bitmap over the range can exist or it cannot be allocated.
    pub fn new(min: i64, max: i64) -> Result<KeyBitmap> {
        let bad = || Error::Exec(format!("no key bitmap fits the range [{min}, {max}]"));
        let len = Self::span(min, max).ok_or_else(bad)?;
        let words = usize::try_from(len.div_ceil(64)).map_err(|_| bad())?;
        let mut bits = Vec::new();
        bits.try_reserve_exact(words).map_err(|_| bad())?;
        bits.resize(words, 0);
        Ok(KeyBitmap {
            min,
            len,
            words: bits,
            inserted: 0,
        })
    }

    /// The range's lower bound.
    pub fn min(&self) -> i64 {
        self.min
    }

    /// The range's upper bound.
    pub fn max(&self) -> i64 {
        self.min.wrapping_add((self.len - 1) as i64)
    }

    /// Offset of `key` from `min`: exact for keys of the range, `≥ len`
    /// for every other key (module docs).
    #[inline(always)]
    fn offset(&self, key: i64) -> u64 {
        key.wrapping_sub(self.min) as u64
    }

    /// Insert one key; a key outside `[min, max]` is an error.
    #[inline]
    pub fn insert(&mut self, key: i64) -> Result<()> {
        let off = self.offset(key);
        if off >= self.len {
            return Err(Error::Exec(format!(
                "key {key} lies outside the bitmap's range [{}, {}]",
                self.min,
                self.max()
            )));
        }
        self.words[(off / 64) as usize] |= 1 << (off % 64);
        self.inserted += 1;
        Ok(())
    }

    /// Insert every key of `keys`, stopping at the first one outside the
    /// range.
    pub fn insert_all(&mut self, keys: impl IntoIterator<Item = i64>) -> Result<()> {
        keys.into_iter().try_for_each(|k| self.insert(k))
    }

    /// Is `key` in the set? Exact: no false positives, no false negatives.
    #[inline(always)]
    pub fn contains(&self, key: i64) -> bool {
        let off = self.offset(key);
        // An offset past the range lands past the last word or on one of
        // its padding bits, which inserts never set.
        usize::try_from(off / 64)
            .ok()
            .and_then(|w| self.words.get(w))
            .is_some_and(|&word| word >> (off % 64) & 1 == 1)
    }

    /// Bulk probe through a selection, with the contract of
    /// [`crate::BloomFilter::probe_hashes_sel`]: `keys[i]` is the key of
    /// the row at position `sel[i]` (position `i` when `sel` is `None`),
    /// and the positions of the rows in the set are appended to `out`, in
    /// input order.
    pub fn probe_sel(&self, keys: &[i64], sel: Option<&[u32]>, out: &mut Vec<u32>) {
        debug_assert!(sel.is_none_or(|s| s.len() == keys.len()));
        let base = out.len();
        out.resize(base + keys.len(), 0);
        let dst = &mut out[base..];
        let mut kept = 0;
        match sel {
            None => {
                for (i, &k) in keys.iter().enumerate() {
                    dst[kept] = i as u32;
                    kept += self.contains(k) as usize;
                }
            }
            Some(sel) => {
                for (&pos, &k) in sel.iter().zip(keys) {
                    dst[kept] = pos;
                    kept += self.contains(k) as usize;
                }
            }
        }
        out.truncate(base + kept);
    }

    /// OR a bitmap over the same range into this one.
    pub fn merge(&mut self, other: &KeyBitmap) -> Result<()> {
        if (self.min, self.len) != (other.min, other.len) {
            return Err(Error::Exec(format!(
                "cannot merge key bitmaps over different ranges ([{}, {}] vs [{}, {}])",
                self.min,
                self.max(),
                other.min,
                other.max()
            )));
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
        self.inserted += other.inserted;
        Ok(())
    }

    /// Number of keys inserted so far (repeats included).
    pub fn num_inserted(&self) -> u64 {
        self.inserted
    }

    /// Size of the bit array in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::collections::HashSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(60))]

        /// Probing equals `HashSet` membership — with and without an input
        /// selection, for ranges anywhere in `i64` including ones that end
        /// at `i64::MIN` or `i64::MAX`, and for probe keys on, next to and
        /// far outside the range's ends.
        #[test]
        fn probe_equals_hash_set_membership(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::from_name(&format!("key-bitmap-{seed}"));
            let span = [1u64, 63, 64, 65, 1_000, 70_000][rng.below(6) as usize];
            let min = match rng.below(4) {
                0 => i64::MIN,
                1 => i64::MAX - (span as i64 - 1),
                2 => -(rng.below(1 << 40) as i64),
                _ => rng.next_u64() as i64 / 2,
            };
            let max = min + (span as i64 - 1);
            let mut bitmap = KeyBitmap::new(min, max).unwrap();
            prop_assert_eq!((bitmap.min(), bitmap.max()), (min, max));
            prop_assert_eq!(bitmap.size_bytes(), KeyBitmap::bytes_for(min, max).unwrap());
            let in_range = |rng: &mut TestRng| min + rng.below(span) as i64;
            let inserted: Vec<i64> = (0..rng.below(span.min(500)) + 1).map(|_| in_range(&mut rng)).collect();
            bitmap.insert_all(inserted.iter().copied()).unwrap();
            prop_assert_eq!(bitmap.num_inserted(), inserted.len() as u64);
            let set: HashSet<i64> = inserted.iter().copied().collect();

            let n = [0usize, 1, 7, 64, 129, 1000][rng.below(6) as usize];
            let keys: Vec<i64> = (0..n)
                .map(|_| match rng.below(6) {
                    0 => inserted[rng.below(inserted.len() as u64) as usize],
                    1 => in_range(&mut rng),
                    2 => min.wrapping_sub(1 + rng.below(3) as i64),
                    3 => max.wrapping_add(1 + rng.below(3) as i64),
                    4 => [i64::MIN, i64::MAX, 0, -1][rng.below(4) as usize],
                    _ => rng.next_u64() as i64,
                })
                .collect();
            for &k in &keys {
                prop_assert_eq!(bitmap.contains(k), set.contains(&k), "key {}", k);
            }
            let sel: Option<Vec<u32>> = rng
                .gen_bool()
                .then(|| (0..n as u32).map(|i| i * 3 + rng.below(3) as u32).collect());
            let expected: Vec<u32> = (0..n)
                .filter(|&i| set.contains(&keys[i]))
                .map(|i| sel.as_ref().map_or(i as u32, |s| s[i]))
                .collect();
            let mut out = vec![99];
            bitmap.probe_sel(&keys, sel.as_deref(), &mut out);
            prop_assert_eq!(&out[1..], &expected[..]);
        }
    }

    #[test]
    fn out_of_range_insert_is_an_error() {
        let mut b = KeyBitmap::new(10, 20).unwrap();
        for bad in [9, 21, i64::MIN, i64::MAX] {
            assert!(matches!(b.insert(bad), Err(Error::Exec(_))), "{bad}");
        }
        assert_eq!(b.num_inserted(), 0);
        assert!(b.insert_all([10, 20, 25]).is_err());
        assert!(b.contains(10) && b.contains(20) && !b.contains(15));
        let mut top = KeyBitmap::new(i64::MAX, i64::MAX).unwrap();
        top.insert(i64::MAX).unwrap();
        assert!(top.insert(i64::MIN).is_err());
        assert!(top.contains(i64::MAX) && !top.contains(i64::MIN));
    }

    #[test]
    fn sizes_and_impossible_ranges() {
        assert_eq!(KeyBitmap::bytes_for(0, 0), Some(8));
        assert_eq!(KeyBitmap::bytes_for(0, 63), Some(8));
        assert_eq!(KeyBitmap::bytes_for(0, 64), Some(16));
        assert_eq!(KeyBitmap::bytes_for(-64, 63), Some(16));
        assert_eq!(KeyBitmap::bytes_for(i64::MIN, i64::MAX - 1), Some(1 << 61));
        // 2^64 bits: the length no longer fits a `u64`, so no bitmap exists.
        assert_eq!(KeyBitmap::bytes_for(i64::MIN, i64::MAX), None);
        assert_eq!(KeyBitmap::bytes_for(5, 4), None);
        assert!(KeyBitmap::new(5, 4).is_err());
        assert!(KeyBitmap::new(i64::MIN, i64::MAX).is_err());
    }

    #[test]
    fn merge_ors_bitmaps_of_one_range() {
        let mut a = KeyBitmap::new(-5, 200).unwrap();
        let mut b = KeyBitmap::new(-5, 200).unwrap();
        a.insert(-5).unwrap();
        b.insert(200).unwrap();
        b.insert(64).unwrap();
        a.merge(&b).unwrap();
        assert!(a.contains(-5) && a.contains(64) && a.contains(200) && !a.contains(0));
        assert_eq!(a.num_inserted(), 3);
        let other = KeyBitmap::new(-5, 199).unwrap();
        assert!(a.merge(&other).is_err());
    }
}
