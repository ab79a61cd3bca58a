//! The blocked Bloom filter itself.
//!
//! Which hash bits do what: the *high* `log2(num_blocks)` bits of the
//! 64-bit key hash pick the block, the *low* 32 bits (multiplied by eight
//! odd salts, top five bits kept) pick one bit in each of the block's eight
//! words. The join hash table's directory (low bits) and the partitioner
//! (bits 48..56) read other bits or other structures, so none of them is
//! correlated with a block's fill.
//!
//! The bulk entry points ([`BloomFilter::probe_hashes_sel`],
//! [`BloomFilter::probe_hashes_bitmask`], [`BloomFilter::insert_hashes`])
//! run a *branch-free* block test: all eight lanes are computed and OR-ed
//! into one miss word, so there is no early exit for the branch predictor
//! to miss on half-full lanes, and the out-of-order core overlaps the cache
//! misses of neighbouring keys on filters larger than the cache. The eight
//! lanes only become one multiply / shift / and-not / test over a 256-bit
//! register when the loop is compiled with AVX2 on, so `dispatch`
//! compiles every bulk loop twice from the same safe source — once with
//! the crate's baseline features, once under
//! `#[target_feature(enable = "avx2")]` — and picks the copy by
//! `is_x86_feature_detected!`. No `std::arch` intrinsics are involved:
//! both copies compute the same bits, and non-x86 builds get the plain one.

/// Eight odd salt constants (from Arrow / the original split-block design):
/// each 32-bit lane of a block derives its bit position from
/// `(hash_low * salt[i]) >> 27`.
const SALT: [u32; 8] = [
    0x47b6_137b,
    0x4459_74a4,
    0x8824_ad5b,
    0xa2b7_289d,
    0x7054_95ab,
    0x2df1_424b,
    0x9efc_4947,
    0x5c6b_fb31,
];

const WORDS_PER_BLOCK: usize = 8;
/// Eight `u32` words.
const BLOCK_BYTES: u64 = 32;

/// Default false-positive target (Arrow's default, used by the paper).
pub const DEFAULT_FPR: f64 = 0.02;

/// A split-block Bloom filter: one cache line per key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    /// `num_blocks * 8` u32 words; `num_blocks` is a power of two.
    words: Vec<u32>,
    /// `64 - log2(num_blocks)`: the block index is the hash's high bits,
    /// taken with a shift instead of a modulo. A one-block filter stores 63
    /// (a shift by 64 is undefined) and relies on the `num_blocks - 1` mask
    /// in [`BloomFilter::block_index`] to land on block 0.
    block_shift: u32,
    num_blocks: u64,
    inserted: u64,
}

impl BloomFilter {
    /// Bytes of the filter [`BloomFilter::with_capacity`] builds for
    /// `expected_keys` at false-positive rate `fpr`. Blocked filters need a
    /// bit more space than the textbook bound; we follow Arrow's rule of
    /// thumb and size at `bits_per_key = -log2(fpr) * 1.5 + 4`, clamped to
    /// [8, 40], rounding block count up to the next power of two.
    pub fn bytes_for(expected_keys: usize, fpr: f64) -> usize {
        let fpr = fpr.clamp(1e-6, 0.5);
        let bits_per_key = (-fpr.log2() * 1.5 + 4.0).clamp(8.0, 40.0);
        let total_bits = (expected_keys.max(1) as f64 * bits_per_key).ceil() as u64;
        let num_blocks = total_bits.div_ceil(BLOCK_BYTES * 8).next_power_of_two();
        (num_blocks * BLOCK_BYTES) as usize
    }

    /// Create a filter sized for `expected_keys` at false-positive rate
    /// `fpr` ([`BloomFilter::bytes_for`]).
    pub fn with_capacity(expected_keys: usize, fpr: f64) -> Self {
        let num_blocks = (Self::bytes_for(expected_keys, fpr) as u64) / BLOCK_BYTES;
        BloomFilter {
            words: vec![0u32; (num_blocks as usize) * WORDS_PER_BLOCK],
            block_shift: (64 - num_blocks.trailing_zeros()).min(63),
            num_blocks,
            inserted: 0,
        }
    }

    /// Filter sized with the default 2% FPR.
    pub fn with_default_fpr(expected_keys: usize) -> Self {
        Self::with_capacity(expected_keys, DEFAULT_FPR)
    }

    /// High bits pick the block (low bits pick the bits within it). The
    /// mask is a no-op except for the one-block filter.
    #[inline(always)]
    fn block_index(&self, hash: u64) -> usize {
        ((hash >> self.block_shift) & (self.num_blocks - 1)) as usize
    }

    /// Branch-free membership test of one pre-hashed key: the same eight
    /// bits [`BloomFilter::probe_hash`] tests one at a time, all computed
    /// and folded into one miss word.
    #[inline(always)]
    fn block_hit(&self, hash: u64) -> bool {
        let start = self.block_index(hash) * WORDS_PER_BLOCK;
        let block = &self.words[start..start + WORDS_PER_BLOCK];
        let key = hash as u32;
        let mut miss = 0u32;
        for i in 0..WORDS_PER_BLOCK {
            miss |= !block[i] & (1u32 << (key.wrapping_mul(SALT[i]) >> 27));
        }
        miss == 0
    }

    /// Insert a pre-hashed key. (`inline(always)`: [`dispatch`] needs the
    /// body inside its AVX2 copy of [`BloomFilter::insert_hashes`].)
    #[inline(always)]
    pub fn insert_hash(&mut self, hash: u64) {
        let start = self.block_index(hash) * WORDS_PER_BLOCK;
        // One bounds check for the whole cache-line block.
        let block: &mut [u32] = &mut self.words[start..start + WORDS_PER_BLOCK];
        let key = hash as u32;
        for i in 0..WORDS_PER_BLOCK {
            let bit = key.wrapping_mul(SALT[i]) >> 27;
            block[i] |= 1u32 << bit;
        }
        self.inserted += 1;
    }

    /// Probe a pre-hashed key. No false negatives; false positives at ≈ the
    /// configured rate. Misses exit at the first failing lane — the
    /// single-key form, and the reference the bulk kernels are tested
    /// against (they use the branch-free [`BloomFilter::block_hit`]).
    #[inline]
    pub fn probe_hash(&self, hash: u64) -> bool {
        let start = self.block_index(hash) * WORDS_PER_BLOCK;
        let block: &[u32] = &self.words[start..start + WORDS_PER_BLOCK];
        let key = hash as u32;
        for i in 0..WORDS_PER_BLOCK {
            let bit = key.wrapping_mul(SALT[i]) >> 27;
            if block[i] & (1u32 << bit) == 0 {
                return false;
            }
        }
        true
    }

    /// Bulk insert.
    pub fn insert_hashes(&mut self, hashes: &[u64]) {
        dispatch(
            #[inline(always)]
            || {
                for &h in hashes {
                    self.insert_hash(h);
                }
            },
        )
    }

    /// Bulk probe through a selection: `hashes[i]` is the key hash of the
    /// row at position `sel[i]` (position `i` when `sel` is `None`), and
    /// the positions of the rows the filter may contain are appended to
    /// `out`, in input order — so `out` is the narrowed selection, with no
    /// bitmask in between. `out` is caller-owned scratch: nothing is
    /// allocated once it has grown to the batch size.
    pub fn probe_hashes_sel(&self, hashes: &[u64], sel: Option<&[u32]>, out: &mut Vec<u32>) {
        dispatch(
            #[inline(always)]
            || self.probe_sel_body(hashes, sel, out),
        )
    }

    /// The one source of [`BloomFilter::probe_hashes_sel`]; [`dispatch`]
    /// compiles it twice. The survivor write is unconditional and the
    /// cursor advances by the test's outcome, so the loop has no
    /// data-dependent branch.
    #[inline(always)]
    fn probe_sel_body(&self, hashes: &[u64], sel: Option<&[u32]>, out: &mut Vec<u32>) {
        debug_assert!(sel.is_none_or(|s| s.len() == hashes.len()));
        let base = out.len();
        out.resize(base + hashes.len(), 0);
        let dst = &mut out[base..];
        let mut kept = 0;
        match sel {
            None => {
                for (i, &h) in hashes.iter().enumerate() {
                    dst[kept] = i as u32;
                    kept += self.block_hit(h) as usize;
                }
            }
            Some(sel) => {
                for (&pos, &h) in sel.iter().zip(hashes) {
                    dst[kept] = pos;
                    kept += self.block_hit(h) as usize;
                }
            }
        }
        out.truncate(base + kept);
    }

    /// Bulk probe: returns one bit per input in a `u64`-packed bitmask
    /// (LSB-first), the format converted to a selection vector by
    /// [`crate::bitmask_to_selection`], mirroring the bit-to-selection
    /// conversion the paper implements after vectorized probes.
    pub fn probe_hashes_bitmask(&self, hashes: &[u64]) -> Vec<u64> {
        let mut mask = vec![0u64; hashes.len().div_ceil(64)];
        dispatch(
            #[inline(always)]
            || {
                for (word, chunk) in mask.iter_mut().zip(hashes.chunks(64)) {
                    for (i, &h) in chunk.iter().enumerate() {
                        *word |= (self.block_hit(h) as u64) << i;
                    }
                }
            },
        );
        mask
    }

    /// Convenience: insert raw i64 keys (hashing internally, same hash as the
    /// execution engine uses so filters built here match engine probes).
    pub fn insert_i64(&mut self, key: i64) {
        self.insert_hash(rpt_common::hash::hash_i64(key));
    }

    pub fn probe_i64(&self, key: i64) -> bool {
        self.probe_hash(rpt_common::hash::hash_i64(key))
    }

    /// OR another filter built with identical geometry into this one.
    /// OR is commutative and associative, so folding a set of partial
    /// filters in any order yields the same bit pattern.
    pub fn merge(&mut self, other: &BloomFilter) -> Result<(), String> {
        if self.num_blocks != other.num_blocks {
            return Err(format!(
                "cannot merge Bloom filters with different block counts ({} vs {})",
                self.num_blocks, other.num_blocks
            ));
        }
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
        }
        self.inserted += other.inserted;
        Ok(())
    }

    /// Number of keys inserted so far.
    pub fn num_inserted(&self) -> u64 {
        self.inserted
    }

    /// Raw filter words (bit-pattern comparisons in tests and diagnostics).
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Size of the bit array in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4
    }

    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// Measured fill factor (fraction of set bits) — diagnostic.
    pub fn fill_factor(&self) -> f64 {
        let set: u64 = self.words.iter().map(|w| w.count_ones() as u64).sum();
        set as f64 / (self.words.len() as f64 * 32.0)
    }

    /// Re-derive a second filter with the same geometry (for parallel
    /// builders).
    pub fn empty_clone(&self) -> BloomFilter {
        BloomFilter {
            words: vec![0u32; self.words.len()],
            block_shift: self.block_shift,
            num_blocks: self.num_blocks,
            inserted: 0,
        }
    }
}

/// Run a bulk loop in the copy of it compiled for this CPU: under AVX2
/// when the processor has it (checked once; the macro caches the answer),
/// with the crate's baseline features otherwise. `kernel` is ordinary safe
/// code, so the copies differ in instruction selection only — provided it
/// is inlined into both: pass a closure marked `#[inline(always)]` that
/// calls only `#[inline(always)]` functions, or the AVX2 copy ends up
/// calling a baseline-compiled body.
#[inline(always)]
fn dispatch<R>(kernel: impl FnOnce() -> R) -> R {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        #[target_feature(enable = "avx2")]
        fn with_avx2<R>(kernel: impl FnOnce() -> R) -> R {
            kernel()
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `with_avx2` requires only that the CPU supports AVX2,
            // which the check on the line above has just established.
            return unsafe { with_avx2(kernel) };
        }
    }
    kernel()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use rpt_common::hash::hash_i64;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The bulk kernels — the plain body called directly, the
        /// dispatched entry (the AVX2 copy where the CPU has it) and the
        /// bitmask form — agree with the early-exit `probe_hash` key by
        /// key, and `insert_hashes` sets the bits `insert_hash` sets: from
        /// one block to 8 MiB, batch lengths off every multiple of 8 and
        /// 64, with and without an input selection.
        #[test]
        fn bulk_kernels_match_the_scalar_reference(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::from_name(&format!("bloom-kernels-{seed}"));
            let capacity = [1usize, 50, 5_000, 3_000_000][rng.below(4) as usize];
            let inserted: Vec<u64> = (0..1 + rng.below(capacity.min(3_000) as u64))
                .map(|_| rng.next_u64())
                .collect();
            let mut filter = BloomFilter::with_default_fpr(capacity);
            filter.insert_hashes(&inserted);
            let mut one_by_one = filter.empty_clone();
            for &h in &inserted {
                one_by_one.insert_hash(h);
            }
            prop_assert!(filter.words() == one_by_one.words());
            prop_assert_eq!(filter.num_inserted(), one_by_one.num_inserted());
            if capacity == 1 {
                prop_assert_eq!(filter.num_blocks(), 1);
            }
            if capacity == 3_000_000 {
                prop_assert!(filter.size_bytes() >= 4 << 20);
            }

            prop_assert!(inserted.iter().all(|&h| filter.probe_hash(h)), "false negative");

            // Keys that miss in exactly one lane (a test that skipped a
            // lane would pass them): set all eight bits, clear one.
            let near_misses: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
            for &h in &near_misses {
                filter.insert_hash(h);
                let lane = rng.below(WORDS_PER_BLOCK as u64) as usize;
                let bit = (h as u32).wrapping_mul(SALT[lane]) >> 27;
                let word = filter.block_index(h) * WORDS_PER_BLOCK + lane;
                filter.words[word] &= !(1u32 << bit);
            }

            let n = [0usize, 1, 7, 63, 65, 129, 2047][rng.below(7) as usize] + rng.below(3) as usize;
            let hashes: Vec<u64> = (0..n)
                .map(|_| match rng.below(4) {
                    0 => inserted[rng.below(inserted.len() as u64) as usize],
                    1 => near_misses[rng.below(near_misses.len() as u64) as usize],
                    2 => u64::MAX, // the NULL-key sentinel is probed like any hash
                    _ => rng.next_u64(),
                })
                .collect();
            let sel: Option<Vec<u32>> = rng
                .gen_bool()
                .then(|| (0..n as u32).map(|i| i * 3 + rng.below(3) as u32).collect());
            let expected: Vec<u32> = (0..n)
                .filter(|&i| filter.probe_hash(hashes[i]))
                .map(|i| sel.as_ref().map_or(i as u32, |s| s[i]))
                .collect();
            // Both append after whatever `out` already holds.
            let mut plain = vec![99];
            filter.probe_sel_body(&hashes, sel.as_deref(), &mut plain);
            prop_assert_eq!(&plain[1..], &expected[..], "plain body");
            let mut dispatched = vec![99];
            filter.probe_hashes_sel(&hashes, sel.as_deref(), &mut dispatched);
            prop_assert_eq!(&dispatched, &plain, "dispatched entry");

            let mask = filter.probe_hashes_bitmask(&hashes);
            prop_assert_eq!(mask.len(), n.div_ceil(64));
            for (i, &h) in hashes.iter().enumerate() {
                prop_assert_eq!((mask[i / 64] >> (i % 64)) & 1 == 1, filter.probe_hash(h), "bit {}", i);
            }
            if !n.is_multiple_of(64) {
                prop_assert_eq!(mask[n / 64] >> (n % 64), 0, "bits past the batch");
            }
        }
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_default_fpr(10_000);
        for k in 0..10_000i64 {
            f.insert_i64(k * 3);
        }
        for k in 0..10_000i64 {
            assert!(f.probe_i64(k * 3), "false negative for {k}");
        }
    }

    #[test]
    fn fpr_within_budget() {
        let n = 50_000;
        let mut f = BloomFilter::with_capacity(n, 0.02);
        for k in 0..n as i64 {
            f.insert_i64(k);
        }
        let mut fp = 0usize;
        let probes = 100_000;
        for k in 0..probes as i64 {
            if f.probe_i64(k + 10_000_000) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.05, "FPR too high: {rate}");
    }

    #[test]
    fn tiny_filter_one_block() {
        let mut f = BloomFilter::with_capacity(1, 0.02);
        assert_eq!(f.num_blocks(), 1);
        f.insert_i64(42);
        assert!(f.probe_i64(42));
    }

    #[test]
    fn bitmask_probe_matches_scalar() {
        let mut f = BloomFilter::with_default_fpr(100);
        let keys: Vec<i64> = (0..100).map(|k| k * 7).collect();
        for &k in &keys {
            f.insert_i64(k);
        }
        let hashes: Vec<u64> = (0..130i64).map(|k| hash_i64(k * 7 + (k % 2))).collect();
        let mask = f.probe_hashes_bitmask(&hashes);
        for (i, &h) in hashes.iter().enumerate() {
            let bit = (mask[i / 64] >> (i % 64)) & 1 == 1;
            assert_eq!(bit, f.probe_hash(h), "row {i}");
        }
    }

    #[test]
    fn merge_unions_keys() {
        let mut a = BloomFilter::with_capacity(1000, 0.02);
        let mut b = a.empty_clone();
        a.insert_i64(1);
        b.insert_i64(2);
        a.merge(&b).unwrap();
        assert!(a.probe_i64(1));
        assert!(a.probe_i64(2));
        assert_eq!(a.num_inserted(), 2);
    }

    /// Regression test for the per-partition CreateBF merge: OR-merging the
    /// same partial filters in forward or reverse order must yield
    /// bit-identical filters.
    #[test]
    fn merge_order_independent_bit_patterns() {
        for capacity in [4_000usize, 1 << 20] {
            let template = BloomFilter::with_capacity(capacity, 0.02);
            let partials: Vec<BloomFilter> = (0..4)
                .map(|w| {
                    let mut f = template.empty_clone();
                    for k in 0..1_000i64 {
                        f.insert_i64(k * 4 + w);
                    }
                    f
                })
                .collect();

            let mut forward = template.empty_clone();
            for p in &partials {
                forward.merge(p).unwrap();
            }
            let mut reverse = template.empty_clone();
            for p in partials.iter().rev() {
                reverse.merge(p).unwrap();
            }

            assert!(forward.words() == reverse.words());
            assert_eq!(forward.num_inserted(), reverse.num_inserted());
            for k in 0..4_000i64 {
                assert!(forward.probe_i64(k), "false negative for {k}");
            }
        }
    }

    #[test]
    fn merge_rejects_mismatched_geometry() {
        let mut a = BloomFilter::with_capacity(10, 0.02);
        let b = BloomFilter::with_capacity(1_000_000, 0.02);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn sizing_scales_with_keys() {
        let small = BloomFilter::with_capacity(100, 0.02);
        let big = BloomFilter::with_capacity(1_000_000, 0.02);
        assert!(big.size_bytes() > small.size_bytes());
        // Power-of-two block count.
        assert!(big.num_blocks().is_power_of_two());
        for filter in [small, big] {
            assert_eq!(filter.size_bytes(), filter.num_blocks() as usize * 32);
        }
        assert_eq!(
            BloomFilter::bytes_for(100, 0.02),
            BloomFilter::with_capacity(100, 0.02).size_bytes()
        );
    }

    #[test]
    fn fill_factor_reasonable() {
        let n = 10_000;
        let mut f = BloomFilter::with_capacity(n, 0.02);
        for k in 0..n as i64 {
            f.insert_i64(k);
        }
        let ff = f.fill_factor();
        assert!(ff > 0.05 && ff < 0.8, "fill factor {ff}");
    }
}
