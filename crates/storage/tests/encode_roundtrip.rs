//! Property tests for the block codecs: every `Table` → `BlockTable` →
//! decode cycle must reproduce the original rows exactly (values, NULLs,
//! and block boundaries), every block's zone map must tightly bound its
//! valid rows, and decoding a row selection must equal gathering the full
//! decode. Whole frame-of-reference blocks, which unpack 64 rows at a
//! time, must read exactly what their rows read one at a time, at every
//! bit width.

use proptest::prelude::*;
use proptest::TestRng;
use rpt_common::{ColumnData, DataChunk, DataType, Field, ScalarValue, Schema, Vector};
use rpt_storage::encode::encode_i64;
use rpt_storage::{Block, BlockColumn, BlockTable, EncodedBlock, SpillBuffer, Table, ZoneMap};

/// Build a nullable vector of the given type from `(valid, seed)` pairs.
/// The seed is mapped into a domain that exercises the type's codecs:
/// small Int64 domains produce runs (RLE) and narrow ranges (FOR), and
/// small Utf8 domains stay under the dictionary cardinality cap.
fn column(dt: DataType, cells: &[(bool, i64)]) -> Vector {
    let mut v = Vector::new_empty(dt);
    for &(valid, seed) in cells {
        let value = if !valid {
            ScalarValue::Null
        } else {
            match dt {
                DataType::Int64 => ScalarValue::Int64(seed),
                DataType::Float64 => ScalarValue::Float64(seed as f64 / 4.0),
                DataType::Utf8 => ScalarValue::Utf8(format!("s{}", seed.rem_euclid(17))),
                DataType::Bool => ScalarValue::Bool(seed % 2 == 0),
            }
        };
        v.push(&value).unwrap();
    }
    v
}

/// Decode every block of every column and compare against the source
/// rows; check the zone maps against a recomputed reference.
fn check_roundtrip(table: &Table, block_rows: usize) {
    let enc = BlockTable::build(table, block_rows);
    assert_eq!(enc.num_rows(), table.num_rows());
    assert_eq!(enc.num_blocks(), table.num_rows().div_ceil(block_rows));

    for b in 0..enc.num_blocks() {
        let chunk = enc.decode_block(b);
        let base = b * block_rows;
        check_selected_decodes(&enc, b, &chunk);
        for (col, vec) in chunk.columns.iter().enumerate() {
            let src = &table.columns[col];
            // Row-for-row equality, NULLs included (dict vectors decode
            // through `get`).
            for i in 0..chunk.num_rows() {
                assert_eq!(vec.get(i), src.get(base + i), "col {col} block {b} row {i}");
            }
            // Zone map matches a recomputation over the raw rows.
            let zone = enc.zone(col, b);
            let reference = rpt_storage::ZoneMap::compute(src, base, chunk.num_rows());
            assert_eq!(zone, &reference, "col {col} block {b}");
            // And bounds are attained: min/max are actual column values.
            if let Some((lo, hi)) = zone.i64_bounds() {
                let vals: Vec<i64> = (0..chunk.num_rows())
                    .filter(|&i| src.is_valid(base + i))
                    .map(|i| match src.get(base + i) {
                        ScalarValue::Int64(x) => x,
                        other => panic!("non-Int64 value {other:?} under Int64 bounds"),
                    })
                    .collect();
                assert_eq!(lo, *vals.iter().min().unwrap());
                assert_eq!(hi, *vals.iter().max().unwrap());
            }
        }
    }
}

/// Selected-row decode equals gathering the full decode — for the empty,
/// full, single-row and strided selections of every column's codec.
fn check_selected_decodes(enc: &BlockTable, b: usize, full: &rpt_common::DataChunk) {
    let n = full.num_rows() as u32;
    let selections: [Vec<u32>; 5] = [
        vec![],
        (0..n).collect(),
        vec![n - 1],
        (0..n).step_by(3).collect(),
        (0..n).filter(|i| i % 7 > 3).collect(),
    ];
    for sel in &selections {
        for (col, vec) in full.columns.iter().enumerate() {
            assert_eq!(
                enc.columns[col].decode_block_sel(b, sel),
                vec.take(sel),
                "col {col} block {b} sel {sel:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random multi-column tables (every data type, random NULLs) survive
    /// the encode → decode roundtrip at random block sizes, including
    /// non-dividing block boundaries and all-NULL blocks.
    #[test]
    fn block_roundtrip_preserves_rows(
        cells in proptest::collection::vec((proptest::bool::ANY, -100i64..100), 0..300),
        block_rows in 1usize..70,
    ) {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
            Field::new("b", DataType::Bool),
        ]);
        let columns = vec![
            column(DataType::Int64, &cells),
            column(DataType::Float64, &cells),
            column(DataType::Utf8, &cells),
            column(DataType::Bool, &cells),
        ];
        let table = Table::new("t", schema, columns).unwrap();
        check_roundtrip(&table, block_rows);
    }

    /// Wide-domain Int64 columns (no runs, wide frame-of-reference) and
    /// constant columns (pure RLE) both roundtrip.
    #[test]
    fn int64_codec_extremes_roundtrip(
        wide in proptest::collection::vec(i64::MIN / 2..i64::MAX / 2, 1..200),
        constant in -5i64..5,
        len in 1usize..200,
        block_rows in 1usize..70,
    ) {
        let schema = Schema::new(vec![
            Field::new("wide", DataType::Int64),
            Field::new("run", DataType::Int64),
        ]);
        let n = wide.len().max(len);
        let mut w = wide;
        w.resize(n, constant);
        let table = Table::new(
            "t",
            schema,
            vec![Vector::from_i64(w), Vector::from_i64(vec![constant; n])],
        )
        .unwrap();
        check_roundtrip(&table, block_rows);
    }
}

/// A `Utf8` column whose distinct-value count exceeds the dictionary cap
/// falls back to raw string blocks — and still roundtrips.
#[test]
fn high_cardinality_utf8_skips_dictionary() {
    let n = 70_000; // > DICT_MAX_DISTINCT (65536)
    let vals: Vec<String> = (0..n).map(|i| format!("unique-{i:06}")).collect();
    let schema = Schema::new(vec![Field::new("s", DataType::Utf8)]);
    let table = Table::new("t", schema, vec![Vector::from_utf8(vals)]).unwrap();
    let enc = BlockTable::build(&table, 2048);
    assert!(
        enc.columns[0].dict.is_none(),
        "dictionary built past the cardinality cap"
    );
    check_roundtrip(&table, 2048);
}

/// `deltas` packed `width` bits each, little-endian across words, one bit
/// at a time: a reference independent of the codec's packer.
fn pack(deltas: &[u64], width: usize) -> Vec<u64> {
    let mut words = vec![0u64; (deltas.len() * width).div_ceil(64)];
    for (i, &d) in deltas.iter().enumerate() {
        for b in 0..width {
            let bit = i * width + b;
            words[bit / 64] |= (d >> b & 1) << (bit % 64);
        }
    }
    words
}

/// A one-block column of a frame-of-reference block built directly.
fn for_column(base: i64, width: usize, deltas: &[u64], validity: Option<Vec<bool>>) -> BlockColumn {
    let data = EncodedBlock::ForI64 {
        len: deltas.len() as u32,
        base,
        width: width as u8,
        words: pack(deltas, width),
    };
    let decoded = Vector {
        data: data.decode(None),
        validity: validity.clone(),
        dict: None,
    };
    let block = Block {
        len: deltas.len(),
        zone: ZoneMap::compute(&decoded, 0, deltas.len()),
        validity,
        data,
    };
    BlockColumn {
        data_type: DataType::Int64,
        dict: None,
        blocks: vec![block],
    }
}

/// Every whole-block read of a frame-of-reference block (decode, `Int64`
/// key read, key hash as the first column or a later one) equals the same
/// read through a selection of every row, which unpacks row by row, and
/// the values are `base + delta`. Covers every width, lengths around the
/// 64-row groups, the extreme bases and blocks with and without NULLs.
#[test]
fn whole_for_blocks_read_as_their_rows_do() {
    let mut rng = TestRng::from_name("whole-for-blocks");
    for width in 0..=63usize {
        let top = (1u64 << width) - 1;
        for len in [1usize, 63, 64, 65, 127, 128, 2047, 2048] {
            for base in [i64::MIN, 0, i64::MAX - top as i64] {
                // The largest delta pinned at a random row, the rest random.
                let mut deltas: Vec<u64> = (0..len).map(|_| rng.next_u64() & top).collect();
                deltas[rng.below(len as u64) as usize] = top;
                let nulls: Vec<bool> = (0..len).map(|_| rng.below(4) > 0).collect();
                for validity in [None, Some(nulls)] {
                    let case = format!(
                        "width {width} len {len} base {base} nulls {}",
                        validity.is_some()
                    );
                    let col = for_column(base, width, &deltas, validity);
                    let block = &col.blocks[0];
                    let all: Vec<u32> = (0..len as u32).collect();

                    let whole = col.decode_block(0);
                    assert_eq!(whole, col.decode_block_sel(0, &all), "{case}");
                    let want: Vec<i64> = deltas
                        .iter()
                        .map(|&d| base.wrapping_add(d as i64))
                        .collect();
                    assert!(
                        matches!(&whole.data, ColumnData::Int64(v) if *v == want),
                        "{case}"
                    );

                    let (mut none, mut some) = (vec![7], vec![7]);
                    block.i64_sel_into(None, &mut none).unwrap();
                    block.i64_sel_into(Some(&all), &mut some).unwrap();
                    assert_eq!(none, some, "{case}");
                    assert_eq!(none[1..], want[..], "{case}");

                    for first in [true, false] {
                        let earlier: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
                        let (mut none, mut some) = (earlier.clone(), earlier);
                        block.hash_sel_into(None, &mut none, first);
                        block.hash_sel_into(Some(&all), &mut some, first);
                        assert_eq!(none, some, "{case} first={first}");
                    }
                }
            }
        }
    }
}

/// A frame-of-reference spill frame of 65 or 2047 rows (a whole 64-row
/// group plus a tail) restores row for row, with and without NULLs.
#[test]
fn for_spill_frames_roundtrip() {
    let mut rng = TestRng::from_name("for-spill-frames");
    let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
    for len in [65usize, 2047] {
        let vals: Vec<i64> = (0..len).map(|_| rng.below(1 << 20) as i64 - 7).collect();
        let nulls: Vec<bool> = (0..len).map(|_| rng.below(4) > 0).collect();
        for validity in [None, Some(nulls)] {
            let mut col = Vector::from_i64(vals.clone());
            col.validity = validity;
            assert!(
                matches!(
                    encode_i64(&vals, col.validity.as_deref()),
                    EncodedBlock::ForI64 { .. }
                ),
                "the frame must take the FOR codec"
            );
            let dir =
                std::env::temp_dir().join(format!("rpt_for_spill_{}_{len}", std::process::id()));
            let mut buf = SpillBuffer::new(schema.clone(), 0, &dir);
            buf.push(DataChunk::new(vec![col.clone()])).unwrap();
            assert_eq!(buf.stats().chunks_spilled, 1, "len {len}");
            let restored = buf.into_chunks().unwrap();
            assert_eq!(restored.len(), 1);
            for i in 0..len {
                assert_eq!(
                    restored[0].columns[0].get(i),
                    col.get(i),
                    "len {len} row {i}"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
