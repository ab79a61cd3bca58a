//! Property tests for the block codecs: every `Table` → `BlockTable` →
//! decode cycle must reproduce the original rows exactly (values, NULLs,
//! and block boundaries), every block's zone map must tightly bound its
//! valid rows, and decoding a row selection must equal gathering the full
//! decode.

use proptest::prelude::*;
use rpt_common::{DataType, Field, ScalarValue, Schema, Vector};
use rpt_storage::{BlockTable, Table};

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
