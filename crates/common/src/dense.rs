//! Dense `Int64` key ranges: the min/max trick of DuckDB's perfect hash
//! join, shared by the transfer phase's exact key bitmaps and the join
//! phase's direct directories.
//!
//! A [`DenseRange`] is an inclusive `[min, max]` that is small enough to
//! index by `key − min`. One size rule decides, with one floor: a range is
//! dense iff `max − min + 1 ≤ max(budget, DENSE_MIN_SLOTS)`, where the
//! caller's `budget` is what the alternative structure would take, counted
//! in the same unit as the range's values (bits of a Bloom filter, slots
//! of a hashed directory). The floor lets a small build take a range of up
//! to 64 Ki values whatever its alternative would cost: 8 KiB of bitmap,
//! 256 KiB of directory.
//!
//! Offsets are taken with wrapping arithmetic: `key − min` read as `u64` is
//! the true offset of every key of the range, at least `len` for a key
//! above `max` and at least `2^63` for a key below `min`. So one unsigned
//! comparison against `len` (or a clamp onto it) decides membership, with
//! no branch and no overflow, at both ends of the `i64` domain.

/// Values a dense range may hold whatever the caller's budget.
pub const DENSE_MIN_SLOTS: u64 = 1 << 16;

/// An inclusive key range `[min, max]` that passed the size rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseRange {
    min: i64,
    /// Values in the range, `max − min + 1`; at least 1.
    len: u64,
}

impl DenseRange {
    /// `[min, max]` when it is dense under `budget` (module docs); `None`
    /// when `max < min` or the range holds more values than the rule
    /// allows. `max − min` as `u64` is exact for every `min ≤ max`, even
    /// for the whole `i64` domain, and one is added only to a span under
    /// the limit, so nothing overflows.
    pub fn new(min: i64, max: i64, budget: u64) -> Option<DenseRange> {
        let span = (max as u64).wrapping_sub(min as u64);
        (min <= max && span < budget.max(DENSE_MIN_SLOTS))
            .then(|| DenseRange { min, len: span + 1 })
    }

    /// The range of the non-NULL `keys` (`valid`, when given, marks them),
    /// when it is dense under `budget`; `None` also when no key is
    /// non-NULL.
    pub fn of(keys: &[i64], valid: Option<&[bool]>, budget: u64) -> Option<DenseRange> {
        let (min, max) = match valid {
            None => (*keys.iter().min()?, *keys.iter().max()?),
            Some(valid) => {
                let mut present = keys.iter().zip(valid).filter(|(_, &v)| v).map(|(&k, _)| k);
                let first = present.next()?;
                present.fold((first, first), |(lo, hi), k| (lo.min(k), hi.max(k)))
            }
        };
        DenseRange::new(min, max, budget)
    }

    pub fn min(self) -> i64 {
        self.min
    }

    pub fn max(self) -> i64 {
        self.min.wrapping_add((self.len - 1) as i64)
    }

    /// Values in the range, `max − min + 1`.
    #[inline(always)]
    pub fn size(self) -> u64 {
        self.len
    }

    /// Offset of `key` from `min`: exact for keys of the range, `≥ len`
    /// for every other key (module docs).
    #[inline(always)]
    pub fn offset(self, key: i64) -> u64 {
        (key as u64).wrapping_sub(self.min as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// For ranges anywhere in `i64`, including ones that end at
        /// `i64::MIN` or `i64::MAX` and ones just past the size rule: the
        /// range is kept iff it holds at most `max(budget, floor)` values,
        /// its bounds round-trip, and `offset` is `key − min` for every key
        /// of the range and `≥ len` for keys on, next to and far outside
        /// its ends.
        #[test]
        fn offsets_and_size_rule_over_the_whole_domain(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::from_name(&format!("dense-range-{seed}"));
            let budget = [0u64, 64, 100_000, 1 << 40, u64::MAX][rng.below(5) as usize];
            let limit = budget.max(DENSE_MIN_SLOTS);
            let span = match rng.below(4) {
                0 => rng.below(64),
                1 => limit.saturating_sub(1 + rng.below(2)),
                2 => limit.saturating_add(rng.below(2)).min(u64::MAX - 1),
                _ => rng.next_u64(),
            };
            let min = match rng.below(4) {
                0 => i64::MIN,
                1 => (i64::MAX as u64).wrapping_sub(span) as i64,
                2 => -(rng.below(1 << 40) as i64),
                _ => rng.next_u64() as i64,
            };
            let max = (min as u64).wrapping_add(span) as i64;
            let fits = i128::from(max) - i128::from(min) + 1;
            let range = DenseRange::new(min, max, budget);
            prop_assert_eq!(range.is_some(), (1..=i128::from(limit)).contains(&fits), "[{}, {}]", min, max);
            let Some(range) = range else { return Ok(()) };
            prop_assert_eq!((range.min(), range.max()), (min, max));
            prop_assert_eq!(i128::from(range.size()), fits);
            for _ in 0..64 {
                let key = match rng.below(6) {
                    0 => min.wrapping_add(rng.below(range.size()) as i64),
                    1 => min.wrapping_sub(1 + rng.below(3) as i64),
                    2 => max.wrapping_add(1 + rng.below(3) as i64),
                    3 => [min, max][rng.below(2) as usize],
                    4 => [i64::MIN, i64::MAX, 0, -1][rng.below(4) as usize],
                    _ => rng.next_u64() as i64,
                };
                let inside = (min..=max).contains(&key);
                let off = range.offset(key);
                prop_assert_eq!(off < range.size(), inside, "key {} in [{}, {}]", key, min, max);
                if inside {
                    prop_assert_eq!(i128::from(off), i128::from(key) - i128::from(min));
                }
            }
        }
    }

    /// The rule at its edges: the floor, a budget above it, empty ranges,
    /// and the whole domain, whose `2^64` values fit no budget.
    #[test]
    fn size_rule_edges() {
        assert_eq!(
            DenseRange::new(0, 65_535, 0).map(DenseRange::size),
            Some(65_536)
        );
        assert_eq!(DenseRange::new(0, 65_536, 0), None);
        assert_eq!(
            DenseRange::new(0, 65_536, 65_537).map(DenseRange::size),
            Some(65_537)
        );
        assert_eq!(DenseRange::new(-5, -5, 0).map(DenseRange::size), Some(1));
        assert_eq!(DenseRange::new(5, 4, u64::MAX), None);
        assert_eq!(DenseRange::new(i64::MAX, i64::MIN, u64::MAX), None);
        assert_eq!(DenseRange::new(i64::MIN, i64::MAX, u64::MAX), None);
        let most = DenseRange::new(i64::MIN, i64::MAX - 1, u64::MAX).unwrap();
        assert_eq!(most.size(), u64::MAX);
    }
}
