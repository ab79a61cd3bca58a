//! Property test for the encoded-block key-hash kernel: for every codec,
//! `Block::hash_sel_into` must fold exactly the hashes `hash_columns_sel`
//! computes over the decoded block (dictionary blocks over their decoded
//! strings), NULL sentinel included — with or without a validity mask,
//! through no selection, an ascending one or an empty one, and as the first
//! key column or a later one.

use proptest::prelude::*;
use proptest::TestRng;
use rpt_common::hash::hash_columns_sel;
use rpt_common::{DataType, Utf8Dict, Vector};
use rpt_storage::encode::encode_i64;
use rpt_storage::{Block, BlockColumn, EncodedBlock, ZoneMap};

/// `values` frame-of-reference encoded at `width`.
fn for_block(values: &[i64], width: u8) -> EncodedBlock {
    let enc = encode_i64(values, None);
    assert!(
        matches!(enc, EncodedBlock::ForI64 { width: w, .. } if w == width),
        "expected FOR width {width}, got {enc:?}"
    );
    enc
}

/// One block of every codec, `n` rows each, with the case's name.
fn codec_blocks(rng: &mut TestRng, n: usize) -> Vec<(&'static str, DataType, EncodedBlock)> {
    let base = rng.next_u64() as i64 >> 2;
    // Two pinned extremes fix each FOR width; the rest is random, so no
    // block is run-heavy enough for RLE. Widths 13 and 63 straddle words.
    let pinned = |lo: i64, hi: i64, rest: &mut dyn FnMut() -> i64| -> Vec<i64> {
        [lo, hi].into_iter().chain((2..n).map(|_| rest())).collect()
    };
    let w1 = for_block(
        &pinned(base, base + 1, &mut || base + rng.below(2) as i64),
        1,
    );
    let w13 = for_block(&pinned(0, 8191, &mut || rng.below(8192) as i64), 13);
    let w63 = for_block(
        &pinned(0, i64::MAX, &mut || (rng.next_u64() >> 1) as i64),
        63,
    );
    // encode_i64 stores width 0 only for an all-NULL block; the kernel
    // must not rely on validity to read it.
    let w0 = EncodedBlock::ForI64 {
        len: n as u32,
        base,
        width: 0,
        words: vec![],
    };
    let mut run_values = Vec::new();
    while run_values.len() < n {
        let (v, len) = (rng.below(50) as i64 - 25, 4 + rng.below(9) as usize);
        run_values.extend(std::iter::repeat_n(v, len));
    }
    run_values.truncate(n);
    let rle = encode_i64(&run_values, None);
    assert!(matches!(rle, EncodedBlock::RleI64 { .. }), "{rle:?}");
    let mut span: Vec<i64> = (0..n).map(|_| rng.next_u64() as i64).collect();
    span[..2].copy_from_slice(&[i64::MIN, i64::MAX]);
    let raw = encode_i64(&span, None);
    assert!(matches!(raw, EncodedBlock::RawI64(_)), "{raw:?}");
    let words = ["", "a", "ring", "ringer", "zebra"];
    let dict = EncodedBlock::DictUtf8 {
        codes: (0..n)
            .map(|_| rng.below(words.len() as u64) as u32)
            .collect(),
        dict: Utf8Dict::from_values(words),
    };
    let strings = (0..n).map(|_| format!("s{}", rng.below(40))).collect();
    let floats = (0..n)
        .map(|_| match rng.below(8) {
            0 => -0.0,
            1 => f64::NAN,
            _ => rng.below(100) as f64 / 4.0,
        })
        .collect();
    let bools = (0..n).map(|_| rng.gen_bool()).collect();
    vec![
        ("for-w0", DataType::Int64, w0),
        ("for-w1", DataType::Int64, w1),
        ("for-w13", DataType::Int64, w13),
        ("for-w63", DataType::Int64, w63),
        ("rle", DataType::Int64, rle),
        ("raw-i64", DataType::Int64, raw),
        ("dict-utf8", DataType::Utf8, dict),
        ("raw-utf8", DataType::Utf8, EncodedBlock::RawUtf8(strings)),
        ("raw-f64", DataType::Float64, EncodedBlock::RawF64(floats)),
        ("raw-bool", DataType::Bool, EncodedBlock::RawBool(bools)),
    ]
}

/// A one-block column holding `data` under `validity`.
fn column(data_type: DataType, data: EncodedBlock, validity: Option<Vec<bool>>) -> BlockColumn {
    let decoded = Vector {
        data: data.decode(None),
        validity: validity.clone(),
        dict: None,
    };
    let len = decoded.len();
    let block = Block {
        len,
        zone: ZoneMap::compute(&decoded, 0, len),
        validity,
        data,
    };
    BlockColumn {
        data_type,
        dict: None,
        blocks: vec![block],
    }
}

/// A mask with at least one NULL.
fn mask(rng: &mut TestRng, n: usize) -> Vec<bool> {
    let mut m: Vec<bool> = (0..n).map(|_| rng.below(4) > 0).collect();
    m[rng.below(n as u64) as usize] = false;
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn block_hash_equals_hash_of_the_decoded_block(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_name(&format!("hash-kernel-{seed}"));
        // At least 64 rows, so widths 13 and 63 cross word boundaries.
        let n = 64 + rng.below(200) as usize;
        // The key column before the one under test, NULLs included.
        let mut earlier = Vector::from_i64((0..n).map(|_| rng.below(1000) as i64).collect());
        earlier.validity = Some(mask(&mut rng, n));
        let ascending: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool()).collect();
        for (name, data_type, data) in codec_blocks(&mut rng, n) {
            for validity in [None, Some(mask(&mut rng, n))] {
                let col = column(data_type, data.clone(), validity.clone());
                let decoded = col.decode_block(0);
                let flat = if decoded.is_dict() { decoded.decode_dict() } else { decoded };
                for sel in [None, Some(ascending.clone()), Some(vec![])] {
                    let sel = sel.as_deref();
                    let rows = sel.map_or(n, <[u32]>::len);
                    for first in [true, false] {
                        let (want, mut got) = if first {
                            let noise = (0..rows).map(|_| rng.next_u64()).collect();
                            (hash_columns_sel(&[&flat], sel, rows), noise)
                        } else {
                            (
                                hash_columns_sel(&[&earlier, &flat], sel, rows),
                                hash_columns_sel(&[&earlier], sel, rows),
                            )
                        };
                        col.blocks[0].hash_sel_into(sel, &mut got, first);
                        prop_assert!(
                            got == want,
                            "{name} validity={} sel={sel:?} first={first}",
                            validity.is_some()
                        );
                    }
                }
            }
        }
    }
}
