//! The filter a CreateBF builds and a ProbeBF tests: a Bloom filter, or an
//! exact [`KeyBitmap`] where the key is one dense `Int64` column.
//!
//! Which kind a filter gets is decided at plan time by the dense-range size
//! rule ([`FilterShape::choose`], [`DenseRange`]), never by a knob: a
//! bitmap whenever the source column's value range is known and holds no
//! more values than the Bloom filter it replaces has bits, or than the
//! rule's floor of 64 Ki values (an 8 KiB bitmap) when the Bloom filter is
//! smaller still. Both kinds carry the same per-position key ranges, so
//! either one feeds zone-map pruning.

use crate::{BloomFilter, KeyBitmap};
use rpt_common::{DenseRange, Error, Result};

/// What a CreateBF allocates, fixed by the planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterShape {
    Bloom {
        /// Sizing hint: the planner's estimate of the source's rows (not
        /// an upper bound). Undersizing raises the false-positive rate,
        /// never drops a match.
        expected_keys: usize,
        fpr: f64,
    },
    /// An exact bitmap over the source key column's `[min, max]`, an exact
    /// bound on every key the build can see.
    Bitmap(DenseRange),
}

impl FilterShape {
    /// The size rule: a bitmap over `range` — the inclusive value range of
    /// a single `Int64` key, when the planner knows one — if the range is
    /// dense with the bits of the Bloom filter for `expected_keys` at `fpr`
    /// as its budget; that Bloom filter otherwise. Bloom filters are whole
    /// 32-byte blocks, so a bitmap within that budget is never larger than
    /// the filter it replaces, except under the rule's floor.
    pub fn choose(expected_keys: usize, fpr: f64, range: Option<(i64, i64)>) -> FilterShape {
        let bloom_bits = (BloomFilter::bytes_for(expected_keys, fpr) as u64).saturating_mul(8);
        match range.and_then(|(min, max)| DenseRange::new(min, max, bloom_bits)) {
            Some(range) => FilterShape::Bitmap(range),
            None => FilterShape::Bloom { expected_keys, fpr },
        }
    }
}

/// The two filter kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterKind {
    /// Probed by key hash; false positives at about the configured rate.
    Bloom(BloomFilter),
    /// Probed by raw `Int64` key; exact.
    Bitmap(KeyBitmap),
}

/// A transfer filter: its kind plus the key ranges the builder tracked.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferFilter {
    kind: FilterKind,
    /// Per key-attribute position: inclusive `[min, max]` over the *raw*
    /// `Int64` values inserted at that position of the (possibly
    /// composite) key, tracked only when the builder observes them. Scans
    /// compare these against block zone maps: a storage block whose column
    /// range is disjoint from *any* key position's range cannot contain a
    /// true semi-join match, so it can be skipped before decode.
    key_ranges: Vec<Option<(i64, i64)>>,
}

impl From<BloomFilter> for TransferFilter {
    fn from(bloom: BloomFilter) -> TransferFilter {
        TransferFilter::of(FilterKind::Bloom(bloom))
    }
}

impl From<KeyBitmap> for TransferFilter {
    fn from(bitmap: KeyBitmap) -> TransferFilter {
        TransferFilter::of(FilterKind::Bitmap(bitmap))
    }
}

impl TransferFilter {
    fn of(kind: FilterKind) -> TransferFilter {
        TransferFilter {
            kind,
            key_ranges: Vec::new(),
        }
    }

    /// An empty filter of `shape`.
    pub fn new(shape: &FilterShape) -> Result<TransferFilter> {
        Ok(match *shape {
            FilterShape::Bloom { expected_keys, fpr } => {
                BloomFilter::with_capacity(expected_keys, fpr).into()
            }
            FilterShape::Bitmap(range) => KeyBitmap::new(range)?.into(),
        })
    }

    pub fn kind(&self) -> &FilterKind {
        &self.kind
    }

    pub fn kind_mut(&mut self) -> &mut FilterKind {
        &mut self.kind
    }

    /// OR another filter of the same kind and geometry into this one, and
    /// widen the key ranges by its ranges. OR is commutative and
    /// associative, so folding a set of partial filters in any order
    /// yields the same bits.
    pub fn merge(&mut self, other: &TransferFilter) -> Result<()> {
        match (&mut self.kind, &other.kind) {
            (FilterKind::Bloom(a), FilterKind::Bloom(b)) => a.merge(b).map_err(Error::Exec)?,
            (FilterKind::Bitmap(a), FilterKind::Bitmap(b)) => a.merge(b)?,
            _ => {
                return Err(Error::Exec(
                    "cannot merge a Bloom filter with a key bitmap".into(),
                ))
            }
        }
        for (pos, r) in other.key_ranges.iter().enumerate() {
            if let Some((lo, hi)) = r {
                self.observe_key_range_at(pos, *lo, *hi);
            }
        }
        Ok(())
    }

    /// Number of keys inserted so far.
    pub fn num_inserted(&self) -> u64 {
        match &self.kind {
            FilterKind::Bloom(b) => b.num_inserted(),
            FilterKind::Bitmap(b) => b.num_inserted(),
        }
    }

    /// May the single-column key `key` be in the set? (Diagnostics and
    /// tests; the engine probes in bulk.)
    pub fn probe_i64(&self, key: i64) -> bool {
        match &self.kind {
            FilterKind::Bloom(b) => b.probe_i64(key),
            FilterKind::Bitmap(b) => b.contains(key),
        }
    }

    /// Widen the tracked range of key-attribute position `pos` to cover
    /// `[min, max]`.
    pub fn observe_key_range_at(&mut self, pos: usize, min: i64, max: i64) {
        if self.key_ranges.len() <= pos {
            self.key_ranges.resize(pos + 1, None);
        }
        self.key_ranges[pos] = Some(match self.key_ranges[pos] {
            Some((lo, hi)) => (lo.min(min), hi.max(max)),
            None => (min, max),
        });
    }

    /// The tracked key range of key-attribute position `pos`.
    pub fn key_range_at(&self, pos: usize) -> Option<(i64, i64)> {
        self.key_ranges.get(pos).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The size rule: a bitmap iff the key range holds at most
    /// `max(Bloom bits, 65 536)` values.
    #[test]
    fn size_rule_picks_the_smaller_filter() {
        let bloom = |n| FilterShape::Bloom {
            expected_keys: n,
            fpr: 0.02,
        };
        let bitmap = |min, max| FilterShape::Bitmap(DenseRange::new(min, max, 0).unwrap());
        // 10 000 keys at 2% take a 16 KiB Bloom filter, the tighter bound:
        // a bitmap over 131 072 values takes 16 KiB too, one more value
        // does not fit.
        assert_eq!(BloomFilter::bytes_for(10_000, 0.02), 16_384);
        let fits = FilterShape::choose(10_000, 0.02, Some((1, 131_072)));
        let FilterShape::Bitmap(range) = fits else {
            panic!("{fits:?}")
        };
        assert_eq!((range.min(), range.max()), (1, 131_072));
        assert_eq!(
            FilterShape::choose(10_000, 0.02, Some((1, 131_073))),
            bloom(10_000)
        );
        // 1000 keys take a 2 KiB Bloom filter, but the floor admits up to
        // 65 536 values (an 8 KiB bitmap); so does a one-key source, whose
        // Bloom filter is one 32-byte block.
        assert_eq!(BloomFilter::bytes_for(1000, 0.02), 2048);
        assert_eq!(
            FilterShape::choose(1000, 0.02, Some((1, 65_536))),
            bitmap(1, 65_536)
        );
        assert_eq!(
            FilterShape::choose(1000, 0.02, Some((1, 65_537))),
            bloom(1000)
        );
        assert_eq!(FilterShape::choose(1, 0.02, Some((7, 7))), bitmap(7, 7));
        assert_eq!(FilterShape::choose(1000, 0.02, None), bloom(1000));
        // Extreme and empty ranges never overflow into a bitmap.
        for range in [(i64::MIN, i64::MAX), (i64::MIN, 0), (3, 2)] {
            assert_eq!(
                FilterShape::choose(usize::MAX / 64, 0.02, Some(range)),
                bloom(usize::MAX / 64)
            );
        }
    }

    fn both_kinds() -> [TransferFilter; 2] {
        [
            BloomFilter::with_capacity(100, 0.02).into(),
            KeyBitmap::new(DenseRange::new(-10, 300, 0).unwrap())
                .unwrap()
                .into(),
        ]
    }

    #[test]
    fn key_range_tracks_and_merges() {
        for mut a in both_kinds() {
            let mut b = a.clone();
            assert_eq!(a.key_range_at(0), None);
            a.observe_key_range_at(0, 5, 9);
            a.observe_key_range_at(0, -3, 4);
            assert_eq!(a.key_range_at(0), Some((-3, 9)));
            b.observe_key_range_at(0, 100, 200);
            a.merge(&b).unwrap();
            assert_eq!(a.key_range_at(0), Some((-3, 200)));
        }
    }

    /// Composite keys track one range per key-attribute position and merge
    /// them elementwise.
    #[test]
    fn multi_position_key_ranges_track_and_merge() {
        for mut a in both_kinds() {
            let mut b = a.clone();
            a.observe_key_range_at(0, 10, 20);
            a.observe_key_range_at(1, -5, 5);
            assert_eq!(a.key_range_at(1), Some((-5, 5)));
            assert_eq!(a.key_range_at(2), None, "untracked position");
            b.observe_key_range_at(1, 100, 110);
            b.observe_key_range_at(2, 7, 7);
            a.merge(&b).unwrap();
            assert_eq!(a.key_range_at(0), Some((10, 20)));
            assert_eq!(a.key_range_at(1), Some((-5, 110)), "elementwise widen");
            assert_eq!(a.key_range_at(2), Some((7, 7)), "longer vec extends");
        }
    }

    #[test]
    fn merge_rejects_mixed_kinds() {
        let [mut bloom, bitmap] = both_kinds();
        assert!(bloom.merge(&bitmap).is_err());
    }
}
