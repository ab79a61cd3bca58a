//! Block codecs for the block-based columnar store.
//!
//! Each block of [`crate::block::BlockColumn`] stores its payload in one of
//! these encodings:
//!
//! * `Int64` — run-length ([`EncodedBlock::RleI64`]) when the block is
//!   run-heavy, otherwise frame-of-reference delta bit-packing
//!   ([`EncodedBlock::ForI64`]): `value = base + delta` with deltas packed
//!   `width` bits each. NULL slots encode delta 0 so they never widen the
//!   packed width; the validity mask restores them on decode.
//! * `Utf8` — `u32` codes into the column's shared sorted dictionary when
//!   the column has at most [`DICT_MAX_DISTINCT`] distinct values, raw
//!   strings otherwise.
//! * `Float64` / `Bool` — raw (verbatim) payloads.
//!
//! The `Raw*` variants double as the parity layout: every codec decodes back
//! to the exact logical values of the source column.

use rpt_common::{ColumnData, Utf8Dict, Vector};
use std::sync::Arc;

/// Dictionary-encode a `Utf8` column only when it has at most this many
/// distinct values (codes must fit the 32-bit fixed-key width with room to
/// spare, and wide dictionaries stop paying for themselves).
pub const DICT_MAX_DISTINCT: usize = 65_536;

/// Prefer run-length encoding when the block has at most `len / RLE_RUN_DIV`
/// runs (i.e. average run length ≥ 4).
const RLE_RUN_DIV: usize = 4;

/// One block's encoded payload.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedBlock {
    RawI64(Vec<i64>),
    RawF64(Vec<f64>),
    RawUtf8(Vec<String>),
    RawBool(Vec<bool>),
    /// Run-length encoded `Int64`: `values[i]` repeats `lengths[i]` times.
    RleI64 {
        values: Vec<i64>,
        lengths: Vec<u32>,
    },
    /// Frame-of-reference delta bit-packing over `len` rows.
    ForI64 {
        len: u32,
        base: i64,
        width: u8,
        words: Vec<u64>,
    },
    /// `u32` codes into the owning column's shared dictionary (code 0
    /// under NULL).
    DictUtf8 {
        codes: Vec<u32>,
        dict: Arc<Utf8Dict>,
    },
}

impl EncodedBlock {
    /// Approximate encoded payload size in bytes (bench/trace reporting).
    pub fn size_bytes(&self) -> usize {
        match self {
            EncodedBlock::RawI64(v) => v.len() * 8,
            EncodedBlock::RawF64(v) => v.len() * 8,
            EncodedBlock::RawUtf8(v) => {
                v.iter().map(String::len).sum::<usize>() + v.len() * std::mem::size_of::<String>()
            }
            EncodedBlock::RawBool(v) => v.len(),
            EncodedBlock::RleI64 { values, .. } => values.len() * 12,
            EncodedBlock::ForI64 { words, .. } => 16 + words.len() * 8,
            EncodedBlock::DictUtf8 { codes, .. } => codes.len() * 4,
        }
    }

    /// Decode rows `sel` (ascending block-local indices; every row when
    /// `None`) to a column payload: `Int64` codecs to their values, raw
    /// payloads as stored, and dictionary blocks to their codes as `Int64`
    /// (the caller attaches the dictionary). FOR unpacks a whole block 64
    /// rows at a time through [`for_unpack`] and a selection one row at a
    /// time through [`for_values`]; RLE walks its runs once alongside the
    /// selection.
    pub fn decode(&self, sel: Option<&[u32]>) -> ColumnData {
        debug_assert!(
            sel.is_none_or(|s| s.windows(2).all(|w| w[0] < w[1])),
            "selection not ascending"
        );
        fn gather<T: Clone>(v: &[T], sel: Option<&[u32]>) -> Vec<T> {
            match sel {
                None => v.to_vec(),
                Some(s) => s.iter().map(|&i| v[i as usize].clone()).collect(),
            }
        }
        fn rows(s: &[u32]) -> impl Iterator<Item = usize> + '_ {
            s.iter().map(|&i| i as usize)
        }
        match self {
            EncodedBlock::RawI64(v) => ColumnData::Int64(gather(v, sel)),
            EncodedBlock::RawF64(v) => ColumnData::Float64(gather(v, sel)),
            EncodedBlock::RawUtf8(v) => ColumnData::Utf8(gather(v, sel)),
            EncodedBlock::RawBool(v) => ColumnData::Bool(gather(v, sel)),
            EncodedBlock::DictUtf8 { codes, .. } => ColumnData::Int64(match sel {
                None => codes.iter().map(|&c| c as i64).collect(),
                Some(s) => s.iter().map(|&i| codes[i as usize] as i64).collect(),
            }),
            EncodedBlock::RleI64 { values, lengths } => ColumnData::Int64(match sel {
                None => {
                    let total: usize = lengths.iter().map(|&l| l as usize).sum();
                    let mut out = Vec::with_capacity(total);
                    for (&v, &l) in values.iter().zip(lengths.iter()) {
                        out.extend(std::iter::repeat_n(v, l as usize));
                    }
                    out
                }
                Some(s) => rle_runs(lengths, rows(s)).map(|r| values[r]).collect(),
            }),
            EncodedBlock::ForI64 {
                len,
                base,
                width,
                words,
            } => ColumnData::Int64(match sel {
                None => {
                    let mut out = Vec::with_capacity(*len as usize);
                    for_unpack(*base, *width, words, *len as usize, &mut |_, v| {
                        out.extend_from_slice(v)
                    });
                    out
                }
                Some(s) => for_values(*base, *width, words, rows(s)).collect(),
            }),
        }
    }
}

/// Encode one `Int64` block. `values[i]` at invalid positions is treated as
/// an arbitrary placeholder: it is replaced by the block minimum so it costs
/// zero delta bits and never perturbs run detection.
pub fn encode_i64(values: &[i64], validity: Option<&[bool]>) -> EncodedBlock {
    let valid = |i: usize| validity.is_none_or(|m| m[i]);
    let mut mn = i64::MAX;
    let mut any_valid = false;
    for (i, &x) in values.iter().enumerate() {
        if valid(i) {
            mn = mn.min(x);
            any_valid = true;
        }
    }
    if !any_valid {
        // All-NULL block: zero-width FOR, nothing stored.
        return EncodedBlock::ForI64 {
            len: values.len() as u32,
            base: 0,
            width: 0,
            words: vec![],
        };
    }
    // Effective sequence with NULL placeholders pinned to the minimum.
    let eff = |i: usize| if valid(i) { values[i] } else { mn };

    let mut runs = 1usize;
    let mut max_delta = 0u64;
    let mut prev = eff(0);
    max_delta = max_delta.max((prev as i128 - mn as i128) as u64);
    for i in 1..values.len() {
        let x = eff(i);
        if x != prev {
            runs += 1;
            prev = x;
        }
        let d = (x as i128 - mn as i128) as u128;
        if d > u64::MAX as u128 {
            // Span overflows 64 bits of delta — store verbatim.
            return EncodedBlock::RawI64(values.to_vec());
        }
        max_delta = max_delta.max(d as u64);
    }
    if runs <= values.len() / RLE_RUN_DIV {
        let mut rvals = Vec::with_capacity(runs);
        let mut lens = Vec::with_capacity(runs);
        let mut cur = eff(0);
        let mut n = 1u32;
        for i in 1..values.len() {
            let x = eff(i);
            if x == cur {
                n += 1;
            } else {
                rvals.push(cur);
                lens.push(n);
                cur = x;
                n = 1;
            }
        }
        rvals.push(cur);
        lens.push(n);
        return EncodedBlock::RleI64 {
            values: rvals,
            lengths: lens,
        };
    }
    let width = 64 - max_delta.leading_zeros() as u8;
    if width >= 64 {
        return EncodedBlock::RawI64(values.to_vec());
    }
    let deltas: Vec<u64> = (0..values.len())
        .map(|i| (eff(i) as i128 - mn as i128) as u64)
        .collect();
    EncodedBlock::ForI64 {
        len: values.len() as u32,
        base: mn,
        width,
        words: pack_bits(&deltas, width),
    }
}

/// Pack `width`-bit values little-endian across `u64` words.
fn pack_bits(deltas: &[u64], width: u8) -> Vec<u64> {
    if width == 0 {
        return vec![];
    }
    let w = width as usize;
    let mut words = vec![0u64; (deltas.len() * w).div_ceil(64)];
    let mut bit = 0usize;
    for &d in deltas {
        let word = bit / 64;
        let off = bit % 64;
        words[word] |= d << off;
        if off + w > 64 {
            words[word + 1] |= d >> (64 - off);
        }
        bit += w;
    }
    words
}

/// The values at `rows` (ascending block-local indices) of a
/// frame-of-reference block, unpacked one row at a time: the reader of
/// selected rows, and of whatever [`for_unpack`] leaves outside its whole
/// 64-row groups. A width-0 block stores no words; it reads one zero word
/// instead, so the loop carries no per-row width test.
#[inline]
pub(crate) fn for_values<'a>(
    base: i64,
    width: u8,
    words: &'a [u64],
    rows: impl Iterator<Item = usize> + 'a,
) -> impl Iterator<Item = i64> + 'a {
    let words: &[u64] = if width == 0 { &[0] } else { words };
    let last = words.len() - 1;
    let w = width as usize;
    let mask = (1u64 << w) - 1; // width < 64 guaranteed by encode_i64
    rows.map(move |i| {
        let bit = i * w;
        let (word, off) = (bit / 64, bit % 64);
        // Branch-free straddle: the next word's low bits land above the
        // `64 - off` bits of this one (two shifts, so `off = 0` shifts the
        // next word out entirely). A value that does not straddle masks
        // them off again, so the last word may stand in for its successor.
        let next = (words[(word + 1).min(last)] << 1) << (63 - off);
        base.wrapping_add((((words[word] >> off) | next) & mask) as i64)
    })
}

/// Every value of a `len`-row frame-of-reference block, in row order,
/// handed to `emit` as `(first row, values)` at most 64 values at a time.
/// 64 values of `width` bits fill exactly `width` words, so each whole
/// 64-row group unpacks through a kernel compiled for its width, where
/// every shift and word index is a constant. The rows no whole group
/// covers (the tail of fewer than 64, and any past the stored words) and
/// every row of a width-0 block go through [`for_values`]. No allocation:
/// the values pass through one 64-value stack buffer.
#[inline]
pub(crate) fn for_unpack(
    base: i64,
    width: u8,
    words: &[u64],
    len: usize,
    emit: &mut dyn FnMut(usize, &[i64]),
) {
    let mut buf = [0i64; 64];
    macro_rules! kernels {
        ($($w:literal)*) => {
            match width {
                $($w => unpack_groups::<$w>(base, words, len / 64, &mut buf, emit),)*
                _ => 0,
            }
        };
    }
    let mut row = kernels!(
        1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
        33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61
        62 63
    );
    while row < len {
        let n = (len - row).min(64);
        for (slot, v) in buf
            .iter_mut()
            .zip(for_values(base, width, words, row..row + n))
        {
            *slot = v;
        }
        emit(row, &buf[..n]);
        row += n;
    }
}

/// Unpack the first `groups` whole 64-row groups of a width-`W` block
/// through [`unpack64`], as far as `words` holds them; the rows covered.
fn unpack_groups<const W: usize>(
    base: i64,
    words: &[u64],
    groups: usize,
    buf: &mut [i64; 64],
    emit: &mut dyn FnMut(usize, &[i64]),
) -> usize {
    let mut row = 0;
    for src in words.as_chunks::<W>().0.iter().take(groups) {
        unpack64(base, src, buf);
        emit(row, buf);
        row += 64;
    }
    row
}

/// The 64 values packed `W` bits each into the `W` words `src`, one
/// statement per row: with `W` and the row constant, every word index,
/// shift and straddle folds away.
#[inline(always)]
fn unpack64<const W: usize>(base: i64, src: &[u64; W], out: &mut [i64; 64]) {
    macro_rules! rows {
        ($($i:literal)*) => { $(out[$i] = unpack_row::<W>(base, src, $i);)* };
    }
    rows!(
        0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
        32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60
        61 62 63
    );
}

/// Row `i` of [`unpack64`], with [`for_values`]'s branch-free straddle;
/// the group's last word stands in for its (absent) successor.
#[inline(always)]
fn unpack_row<const W: usize>(base: i64, src: &[u64; W], i: usize) -> i64 {
    let (word, off) = (i * W / 64, i * W % 64);
    let next = (src[(word + 1).min(W - 1)] << 1) << (63 - off);
    base.wrapping_add((((src[word] >> off) | next) & ((1u64 << W) - 1)) as i64)
}

/// The run of each of `rows` (ascending block-local indices) of a
/// run-length block with run `lengths`: one walk over the runs.
#[inline]
pub(crate) fn rle_runs<'a>(
    lengths: &'a [u32],
    rows: impl Iterator<Item = usize> + 'a,
) -> impl Iterator<Item = usize> + 'a {
    let mut run = 0usize;
    let mut run_end = lengths.first().map_or(0, |&l| l as usize);
    rows.map(move |i| {
        while i >= run_end {
            run += 1;
            run_end += lengths[run] as usize;
        }
        run
    })
}

/// Dictionary-encode a `Utf8` column: its shared sorted dictionary and the
/// code of every row (0 under NULL), or `None` when the column holds no
/// valid value or more than [`DICT_MAX_DISTINCT`] distinct ones. One sort
/// of the valid rows assigns the codes, so every value finds its code.
pub fn dict_encode_utf8(v: &Vector) -> Option<(Arc<Utf8Dict>, Vec<u32>)> {
    let ColumnData::Utf8(vals) = &v.data else {
        return None;
    };
    let mut order: Vec<usize> = (0..vals.len()).filter(|&i| v.is_valid(i)).collect();
    order.sort_unstable_by(|&a, &b| vals[a].cmp(&vals[b]));
    let mut distinct: Vec<&str> = Vec::new();
    let mut codes = vec![0u32; vals.len()];
    for i in order {
        if distinct.last() != Some(&vals[i].as_str()) {
            distinct.push(&vals[i]);
        }
        codes[i] = (distinct.len() - 1) as u32;
    }
    if distinct.is_empty() || distinct.len() > DICT_MAX_DISTINCT {
        return None;
    }
    let dict = Utf8Dict::from_sorted(distinct.into_iter().map(String::from).collect());
    Some((dict, codes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_i64(enc: &EncodedBlock) -> Vec<i64> {
        match enc.decode(None) {
            ColumnData::Int64(v) => v,
            other => panic!("not an Int64 payload: {other:?}"),
        }
    }

    #[test]
    fn for_roundtrip_small_span() {
        let vals: Vec<i64> = (0..100).map(|i| 1_000_000 + (i * 7) % 13).collect();
        let enc = encode_i64(&vals, None);
        assert!(matches!(enc, EncodedBlock::ForI64 { width, .. } if width <= 4));
        assert_eq!(decode_i64(&enc), vals);
    }

    #[test]
    fn rle_picked_for_runs() {
        let vals: Vec<i64> = (0..96).map(|i| (i / 24) as i64).collect();
        let enc = encode_i64(&vals, None);
        assert!(matches!(enc, EncodedBlock::RleI64 { .. }), "{enc:?}");
        assert_eq!(decode_i64(&enc), vals);
    }

    #[test]
    fn nulls_cost_no_width() {
        // Placeholder payloads at NULL slots are pinned to the minimum, so a
        // wild placeholder must not widen the packing.
        let vals = vec![10, i64::MAX, 12, 11, 13, 12, 11, 10];
        let validity = vec![true, false, true, true, true, true, true, true];
        let enc = encode_i64(&vals, Some(&validity));
        match &enc {
            EncodedBlock::ForI64 { base, width, .. } => {
                assert_eq!(*base, 10);
                assert!(*width <= 2, "width {width}");
            }
            other => panic!("expected FOR, got {other:?}"),
        }
        let dec = decode_i64(&enc);
        for (i, (&orig, &d)) in vals.iter().zip(dec.iter()).enumerate() {
            if validity[i] {
                assert_eq!(orig, d, "row {i}");
            }
        }
    }

    #[test]
    fn all_null_block_is_empty() {
        let vals = vec![7, 8, 9];
        let validity = vec![false, false, false];
        let enc = encode_i64(&vals, Some(&validity));
        assert!(matches!(
            enc,
            EncodedBlock::ForI64 {
                width: 0,
                ref words,
                ..
            } if words.is_empty()
        ));
        assert_eq!(decode_i64(&enc), vec![0, 0, 0]);
    }

    #[test]
    fn extreme_span_falls_back_to_raw() {
        let vals = vec![i64::MIN, i64::MAX, 0, 1, 2, 3, 4, 5];
        let enc = encode_i64(&vals, None);
        assert!(matches!(enc, EncodedBlock::RawI64(_)));
        assert_eq!(decode_i64(&enc), vals);
    }

    #[test]
    fn negative_values_roundtrip() {
        let vals: Vec<i64> = (0..64).map(|i| -500 + i * 3).collect();
        let enc = encode_i64(&vals, None);
        assert_eq!(decode_i64(&enc), vals);
    }

    #[test]
    fn wide_bitpack_crosses_word_boundaries() {
        // width that does not divide 64 exercises the straddling path.
        let vals: Vec<i64> = (0..200).map(|i| (i * 997) % 8191).collect();
        let enc = encode_i64(&vals, None);
        assert!(
            matches!(enc, EncodedBlock::ForI64 { width: 13, .. }),
            "{enc:?}"
        );
        assert_eq!(decode_i64(&enc), vals);
    }

    #[test]
    fn dict_respects_distinct_cap() {
        let v = Vector::from_utf8((0..10).map(|i| format!("v{}", i % 3)).collect());
        let (d, codes) = dict_encode_utf8(&v).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.value(0), "v0");
        assert_eq!(codes, vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
        let wide = Vector::from_utf8((0..=DICT_MAX_DISTINCT).map(|i| i.to_string()).collect());
        assert!(dict_encode_utf8(&wide).is_none());
    }

    /// An all-NULL column has no value to code: it stays raw, so no
    /// dictionary block ever holds a placeholder code into an empty
    /// dictionary.
    #[test]
    fn all_null_utf8_column_gets_no_dict() {
        let mut v = Vector::from_utf8(vec![String::new(); 4]);
        v.validity = Some(vec![false; 4]);
        assert!(dict_encode_utf8(&v).is_none());
    }
}
