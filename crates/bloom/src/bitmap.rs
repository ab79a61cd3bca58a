//! The exact transfer filter for dense `Int64` keys.
//!
//! A [`KeyBitmap`] over a [`DenseRange`] holds one bit per value of the
//! range: insert sets bit `key − min`, probe tests it. No hash is computed
//! and nothing collides, so a transfer edge that carries one is an exact
//! semi-join. It is the min/max trick behind DuckDB's perfect hash join,
//! applied to the transfer phase; the planner picks it by the range's size
//! rule ([`crate::FilterShape::choose`]).
//!
//! The range's wrapping offset is `≥ len` for every key outside it, so one
//! comparison decides membership even at `i64::MIN` / `i64::MAX`. Inserts
//! reject keys outside the range, so the padding bits of the last word
//! stay clear and a probe needs only the word lookup.

use rpt_common::{DenseRange, Error, Result};

/// An exact membership bitmap over a dense key range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyBitmap {
    range: DenseRange,
    words: Vec<u64>,
    inserted: u64,
}

impl KeyBitmap {
    /// An empty bitmap over `range`: `ceil(len / 64)` words. Fails, without
    /// allocating, when the words cannot be allocated.
    pub fn new(range: DenseRange) -> Result<KeyBitmap> {
        let bad = || {
            Error::Exec(format!(
                "no key bitmap over [{}, {}] can be allocated",
                range.min(),
                range.max()
            ))
        };
        let words = usize::try_from(range.size().div_ceil(64)).map_err(|_| bad())?;
        let mut bits = Vec::new();
        bits.try_reserve_exact(words).map_err(|_| bad())?;
        bits.resize(words, 0);
        Ok(KeyBitmap {
            range,
            words: bits,
            inserted: 0,
        })
    }

    /// Insert one key; a key outside the range is an error.
    #[inline]
    pub fn insert(&mut self, key: i64) -> Result<()> {
        let off = self.range.offset(key);
        if off >= self.range.size() {
            return Err(Error::Exec(format!(
                "key {key} lies outside the bitmap's range [{}, {}]",
                self.range.min(),
                self.range.max()
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
        let off = self.range.offset(key);
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
        if self.range != other.range {
            return Err(Error::Exec(format!(
                "cannot merge key bitmaps over different ranges ({:?} vs {:?})",
                self.range, other.range
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

    /// A bitmap over `[min, max]`, a range of any size.
    fn bitmap(min: i64, max: i64) -> KeyBitmap {
        KeyBitmap::new(DenseRange::new(min, max, u64::MAX).unwrap()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(60))]

        /// Probing equals `HashSet` membership — with and without an input
        /// selection, for ranges anywhere in `i64` including ones that end
        /// at `i64::MIN` or `i64::MAX`, and for probe keys on, next to and
        /// far outside the range's ends. (`DenseRange`'s own property test
        /// covers its offsets over the whole domain.)
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
            let mut bitmap = bitmap(min, max);
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
        let mut b = bitmap(10, 20);
        for bad in [9, 21, i64::MIN, i64::MAX] {
            assert!(matches!(b.insert(bad), Err(Error::Exec(_))), "{bad}");
        }
        assert_eq!(b.num_inserted(), 0);
        assert!(b.insert_all([10, 20, 25]).is_err());
        assert!(b.contains(10) && b.contains(20) && !b.contains(15));
        let mut top = bitmap(i64::MAX, i64::MAX);
        top.insert(i64::MAX).unwrap();
        assert!(top.insert(i64::MIN).is_err());
        assert!(top.contains(i64::MAX) && !top.contains(i64::MIN));
    }

    /// A bitmap takes `ceil(len / 64)` words, 8 KiB at the size rule's
    /// floor; an empty range or the whole domain has no `DenseRange`, so
    /// no bitmap.
    #[test]
    fn sizes_and_impossible_ranges() {
        let bytes = |min, max| bitmap(min, max).size_bytes();
        assert_eq!(bytes(0, 0), 8);
        assert_eq!(bytes(0, 63), 8);
        assert_eq!(bytes(0, 64), 16);
        assert_eq!(bytes(-64, 63), 16);
        assert_eq!(bytes(i64::MAX - 65_535, i64::MAX), 8192);
        assert!(DenseRange::new(5, 4, u64::MAX).is_none());
        assert!(DenseRange::new(i64::MIN, i64::MAX, u64::MAX).is_none());
    }

    #[test]
    fn merge_ors_bitmaps_of_one_range() {
        let mut a = bitmap(-5, 200);
        let mut b = bitmap(-5, 200);
        a.insert(-5).unwrap();
        b.insert(200).unwrap();
        b.insert(64).unwrap();
        a.merge(&b).unwrap();
        assert!(a.contains(-5) && a.contains(64) && a.contains(200) && !a.contains(0));
        assert_eq!(a.num_inserted(), 3);
        let other = bitmap(-5, 199);
        assert!(a.merge(&other).is_err());
    }
}
