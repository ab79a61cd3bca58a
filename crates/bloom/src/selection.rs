//! Bitmask → selection-vector conversion.
//!
//! A vectorized Bloom probe produces a packed bitmask
//! ([`crate::BloomFilter::probe_hashes_bitmask`]), but the execution engine
//! marks surviving rows with a selection vector (§4.2 of the paper, which
//! cites Lemire's "really fast bitset decoding"). This module converts
//! between the two, processing one 64-bit word at a time and extracting set
//! bits with `trailing_zeros` + clear-lowest-set-bit, which is the scalar
//! core of Lemire's technique. The engine's own ProbeBF skips the bitmask:
//! [`crate::BloomFilter::probe_hashes_sel`] writes the selection directly.

/// Append the positions of set bits in `mask` (interpreted over
/// `num_rows` rows, LSB-first within each word) to `out`.
///
/// Returns the number of positions appended.
pub fn bitmask_to_selection(mask: &[u64], num_rows: usize, out: &mut Vec<u32>) -> usize {
    let before = out.len();
    for (w, &word_raw) in mask.iter().enumerate() {
        let base = (w * 64) as u32;
        // Mask off bits beyond num_rows in the final word.
        let mut word = word_raw;
        let remaining = num_rows.saturating_sub(w * 64);
        if remaining == 0 {
            break;
        }
        if remaining < 64 {
            word &= (1u64 << remaining) - 1;
        }
        while word != 0 {
            let bit = word.trailing_zeros();
            out.push(base + bit);
            word &= word - 1; // clear lowest set bit
        }
    }
    out.len() - before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_sparse_mask() {
        let mask = vec![0b1010u64, 0b1u64];
        let mut out = Vec::new();
        let n = bitmask_to_selection(&mask, 128, &mut out);
        assert_eq!(n, 3);
        assert_eq!(out, vec![1, 3, 64]);
    }

    #[test]
    fn truncates_past_num_rows() {
        let mask = vec![u64::MAX];
        let mut out = Vec::new();
        let n = bitmask_to_selection(&mask, 10, &mut out);
        assert_eq!(n, 10);
        assert_eq!(out, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_mask() {
        let mut out = Vec::new();
        assert_eq!(bitmask_to_selection(&[], 0, &mut out), 0);
        assert_eq!(bitmask_to_selection(&[0, 0], 128, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn appends_to_existing() {
        let mut out = vec![99];
        bitmask_to_selection(&[0b1], 64, &mut out);
        assert_eq!(out, vec![99, 0]);
    }

    /// The count returned is the popcount of the mask's first `num_rows`
    /// bits, one per position appended.
    #[test]
    fn count_matches_decode() {
        let mask = vec![0xDEAD_BEEFu64, 0x1234u64];
        let mut out = Vec::new();
        let n = bitmask_to_selection(&mask, 128, &mut out);
        assert_eq!(
            n,
            (0xDEAD_BEEFu64.count_ones() + 0x1234u64.count_ones()) as usize
        );
        assert_eq!(n, out.len());
        out.clear();
        let n = bitmask_to_selection(&mask, 64, &mut out);
        assert_eq!(n, 0xDEAD_BEEFu64.count_ones() as usize);
        assert_eq!(n, out.len());
    }

    #[test]
    fn dense_mask_exact_boundary() {
        let mask = vec![u64::MAX, u64::MAX];
        let mut out = Vec::new();
        assert_eq!(bitmask_to_selection(&mask, 128, &mut out), 128);
        assert_eq!(out.last(), Some(&127));
    }
}
