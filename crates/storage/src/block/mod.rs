//! Block-based columnar layout: per-column sequences of fixed-target-size
//! encoded blocks, each carrying a [`ZoneMap`].
//!
//! Block boundaries are shared across all columns of a table and sized to
//! the executor's `VECTOR_SIZE`, so *one block row-range = one scan chunk*:
//! pruning a block via its zone maps skips an entire chunk before any
//! decode work happens. Codecs live in [`crate::encode`]; `Utf8` columns
//! with few distinct values share one sorted [`Utf8Dict`] across all their
//! blocks and decode to dictionary-backed vectors (fixed-width group keys).

pub mod zone;

pub use zone::ZoneMap;

use crate::encode::{dict_encode_utf8, encode_i64, for_unpack, for_values, rle_runs, EncodedBlock};
use crate::table::Table;
use rpt_common::chunk::{chunk_ranges, VECTOR_SIZE};
use rpt_common::hash::{fold_key_column, hash_bool, hash_bytes, hash_f64, hash_i64};
use rpt_common::{ColumnData, DataChunk, DataType, Error, Result, Schema, Utf8Dict, Vector};
use std::sync::Arc;

/// One encoded block of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub len: usize,
    pub zone: ZoneMap,
    /// Validity over the block's rows (`None` = all valid).
    pub validity: Option<Vec<bool>>,
    pub data: EncodedBlock,
}

impl Block {
    /// Fold this block's key hashes through `sel` (ascending block-local
    /// rows; every row when `None`) into `out`, as the first key column
    /// (`first`) or a later one — exactly what [`rpt_common::hash::hash_column_into`]
    /// folds from the decoded block, NULL sentinel included, but hashed
    /// from the stored form: FOR unpacks a whole block 64 rows at a time
    /// into a stack buffer and hashes each group (selected rows unpack one
    /// at a time), RLE hashes once per run, dictionary codes index
    /// [`Utf8Dict::hashes`], and raw payloads hash in place. Nothing is
    /// materialized, so a row the caller's filter then drops never has its
    /// key decoded.
    pub fn hash_sel_into(&self, sel: Option<&[u32]>, out: &mut [u64], first: bool) {
        match (sel, &self.data) {
            (
                None,
                EncodedBlock::ForI64 {
                    base, width, words, ..
                },
            ) => {
                let validity = self.validity.as_deref();
                for_unpack(*base, *width, words, self.len, &mut |row, vals| {
                    let rows = row..row + vals.len();
                    let hashes = vals.iter().map(|&v| hash_i64(v));
                    let mask = validity.map(|m| &m[rows.clone()]);
                    fold_key_column(&mut out[rows], first, hashes, mask, None)
                })
            }
            (None, _) => self.hash_rows_into(0..self.len, None, out, first),
            (Some(s), _) => self.hash_rows_into(s.iter().map(|&r| r as usize), sel, out, first),
        }
    }

    /// [`Block::hash_sel_into`] over the block-local rows `rows`, which
    /// `sel` names.
    #[inline]
    fn hash_rows_into(
        &self,
        rows: impl Iterator<Item = usize>,
        sel: Option<&[u32]>,
        out: &mut [u64],
        first: bool,
    ) {
        let validity = self.validity.as_deref();
        match &self.data {
            EncodedBlock::RawI64(v) => {
                fold_key_column(out, first, rows.map(|r| hash_i64(v[r])), validity, sel)
            }
            EncodedBlock::RawF64(v) => {
                fold_key_column(out, first, rows.map(|r| hash_f64(v[r])), validity, sel)
            }
            EncodedBlock::RawUtf8(v) => {
                let hashes = rows.map(|r| hash_bytes(v[r].as_bytes()));
                fold_key_column(out, first, hashes, validity, sel)
            }
            EncodedBlock::RawBool(v) => {
                fold_key_column(out, first, rows.map(|r| hash_bool(v[r])), validity, sel)
            }
            EncodedBlock::DictUtf8 { codes, dict } => {
                let table = dict.hashes();
                let hashes = rows.map(|r| table[codes[r] as usize]);
                fold_key_column(out, first, hashes, validity, sel)
            }
            EncodedBlock::RleI64 { values, lengths } => {
                let mut last: Option<(usize, u64)> = None;
                let hashes = rle_runs(lengths, rows).map(|run| match last {
                    Some((at, h)) if at == run => h,
                    _ => {
                        let h = hash_i64(values[run]);
                        last = Some((run, h));
                        h
                    }
                });
                fold_key_column(out, first, hashes, validity, sel)
            }
            EncodedBlock::ForI64 {
                base, width, words, ..
            } => {
                let hashes = for_values(*base, *width, words, rows).map(hash_i64);
                fold_key_column(out, first, hashes, validity, sel)
            }
        }
    }

    /// Append the `Int64` values of rows `sel` (ascending block-local rows;
    /// every row when `None`) to `out`, read from the stored form the way
    /// [`Block::hash_sel_into`] hashes them: FOR unpacks a whole block 64
    /// rows at a time (selected rows one at a time) and adds the base, RLE
    /// reads once per run, raw payloads are copied. A NULL row yields
    /// whatever its payload holds; callers drop it by validity. A block of
    /// another type is an `Error::Exec`.
    pub fn i64_sel_into(&self, sel: Option<&[u32]>, out: &mut Vec<i64>) -> Result<()> {
        match (sel, &self.data) {
            (
                None,
                EncodedBlock::ForI64 {
                    base, width, words, ..
                },
            ) => {
                out.reserve(self.len);
                for_unpack(*base, *width, words, self.len, &mut |_, vals| {
                    out.extend_from_slice(vals)
                });
                Ok(())
            }
            (None, _) => self.i64_rows_into(0..self.len, out),
            (Some(s), _) => self.i64_rows_into(s.iter().map(|&r| r as usize), out),
        }
    }

    /// [`Block::i64_sel_into`] over the block-local rows `rows`.
    #[inline]
    fn i64_rows_into(&self, rows: impl Iterator<Item = usize>, out: &mut Vec<i64>) -> Result<()> {
        match &self.data {
            EncodedBlock::RawI64(v) => out.extend(rows.map(|r| v[r])),
            EncodedBlock::RleI64 { values, lengths } => {
                out.extend(rle_runs(lengths, rows).map(|run| values[run]))
            }
            EncodedBlock::ForI64 {
                base, width, words, ..
            } => out.extend(for_values(*base, *width, words, rows)),
            EncodedBlock::RawF64(_)
            | EncodedBlock::RawUtf8(_)
            | EncodedBlock::RawBool(_)
            | EncodedBlock::DictUtf8 { .. } => {
                return Err(Error::Exec(
                    "an Int64 key read met a block of another type".into(),
                ))
            }
        }
        Ok(())
    }

    /// Decode rows `sel` (every row when `None`) to a column vector.
    /// Dictionary blocks come back as dictionary-backed vectors (codes
    /// stay fixed-width); all other codecs decode to flat payloads.
    fn decode(&self, sel: Option<&[u32]>) -> Vector {
        let validity = match sel {
            None => self.validity.clone(),
            Some(s) => self
                .validity
                .as_ref()
                .map(|m| s.iter().map(|&i| m[i as usize]).collect()),
        };
        let dict = match &self.data {
            EncodedBlock::DictUtf8 { dict, .. } => Some(dict.clone()),
            _ => None,
        };
        Vector {
            data: self.data.decode(sel),
            validity,
            dict,
        }
    }
}

/// All blocks of one column, plus its shared dictionary when the column is
/// dictionary-encoded.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockColumn {
    pub data_type: DataType,
    pub dict: Option<Arc<Utf8Dict>>,
    pub blocks: Vec<Block>,
}

impl BlockColumn {
    fn build(v: &Vector, block_rows: usize) -> BlockColumn {
        let dict = dict_encode_utf8(v);
        let blocks = chunk_ranges(v.len(), block_rows)
            .map(|(start, len)| {
                let zone = ZoneMap::compute(v, start, len);
                let validity = v.validity.as_ref().and_then(|m| {
                    let slice = &m[start..start + len];
                    slice.iter().any(|&b| !b).then(|| slice.to_vec())
                });
                let data = match (&v.data, &dict) {
                    (ColumnData::Int64(vals), _) => {
                        encode_i64(&vals[start..start + len], validity.as_deref())
                    }
                    (ColumnData::Utf8(_), Some((dict, codes))) => EncodedBlock::DictUtf8 {
                        codes: codes[start..start + len].to_vec(),
                        dict: dict.clone(),
                    },
                    (ColumnData::Utf8(vals), None) => {
                        EncodedBlock::RawUtf8(vals[start..start + len].to_vec())
                    }
                    (ColumnData::Float64(vals), _) => {
                        EncodedBlock::RawF64(vals[start..start + len].to_vec())
                    }
                    (ColumnData::Bool(vals), _) => {
                        EncodedBlock::RawBool(vals[start..start + len].to_vec())
                    }
                };
                Block {
                    len,
                    zone,
                    validity,
                    data,
                }
            })
            .collect();
        BlockColumn {
            data_type: v.data_type(),
            dict: dict.map(|(d, _)| d),
            blocks,
        }
    }

    /// Decode block `b` back to a column vector. Dictionary blocks come
    /// back as dictionary-backed vectors (codes stay fixed-width); all
    /// other codecs decode to flat payloads.
    pub fn decode_block(&self, b: usize) -> Vector {
        self.blocks[b].decode(None)
    }

    /// Decode only rows `sel` (ascending block-local indices) of block `b`:
    /// the late-materialization half of a filter-first scan. Equal to
    /// `decode_block(b).take(sel)` without touching the unselected rows.
    pub fn decode_block_sel(&self, b: usize, sel: &[u32]) -> Vector {
        self.blocks[b].decode(Some(sel))
    }
}

/// The block-encoded form of a [`Table`]: same logical rows, per-column
/// encoded blocks with shared boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTable {
    pub block_rows: usize,
    num_rows: usize,
    pub columns: Vec<BlockColumn>,
}

impl BlockTable {
    pub fn build(table: &Table, block_rows: usize) -> BlockTable {
        BlockTable {
            block_rows,
            num_rows: table.num_rows(),
            columns: table
                .columns
                .iter()
                .map(|v| BlockColumn::build(v, block_rows))
                .collect(),
        }
    }

    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    pub fn num_blocks(&self) -> usize {
        self.num_rows.div_ceil(self.block_rows.max(1))
    }

    /// The zone map of column `col` in block `b`.
    pub fn zone(&self, col: usize, b: usize) -> &ZoneMap {
        &self.columns[col].blocks[b].zone
    }

    /// Decode row-block `b` of every column into one scan chunk.
    pub fn decode_block(&self, b: usize) -> DataChunk {
        DataChunk::new(self.columns.iter().map(|c| c.decode_block(b)).collect())
    }

    /// Total encoded payload size in bytes (bench/trace reporting).
    pub fn encoded_size_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|c| c.blocks.iter().map(|b| b.data.size_bytes()).sum::<usize>())
            .sum()
    }
}

/// A table as the engine holds it once registered: its name, its schema
/// and its block-encoded columns, which every scan reads. The raw
/// [`Table`] it is built from is not kept.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTable {
    pub name: String,
    pub schema: Schema,
    blocks: BlockTable,
}

impl StoredTable {
    /// Encode `table` in [`VECTOR_SIZE`]-row blocks, so one block is one
    /// scan chunk, and drop its raw columns.
    pub fn new(table: Table) -> StoredTable {
        let blocks = BlockTable::build(&table, VECTOR_SIZE);
        StoredTable {
            name: table.name,
            schema: table.schema,
            blocks,
        }
    }

    /// The block-encoded columns.
    pub fn encoded(&self) -> &BlockTable {
        &self.blocks
    }

    pub fn num_rows(&self) -> usize {
        self.blocks.num_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_common::{Field, ScalarValue, Schema};

    fn fixture() -> Table {
        let n = 100usize;
        let mut nullable = Vector::new_empty(DataType::Int64);
        for i in 0..n {
            if i % 7 == 0 {
                nullable.push(&ScalarValue::Null).unwrap();
            } else {
                nullable.push(&ScalarValue::Int64(i as i64 * 3)).unwrap();
            }
        }
        Table::new(
            "t",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("grp", DataType::Utf8),
                Field::new("f", DataType::Float64),
                Field::new("flag", DataType::Bool),
                Field::new("n", DataType::Int64),
            ]),
            vec![
                Vector::from_i64((0..n as i64).collect()),
                Vector::from_utf8((0..n).map(|i| format!("g{}", i % 5)).collect()),
                Vector::from_f64((0..n).map(|i| i as f64 / 2.0).collect()),
                Vector::from_bool((0..n).map(|i| i % 2 == 0).collect()),
                nullable,
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_shapes_and_zones() {
        let t = fixture();
        let bt = BlockTable::build(&t, 32);
        assert_eq!(bt.num_blocks(), 4);
        assert_eq!(bt.num_rows(), 100);
        // id column: block 1 covers rows 32..64
        assert_eq!(bt.zone(0, 1).i64_bounds(), Some((32, 63)));
        // last (short) block
        assert_eq!(bt.zone(0, 3).i64_bounds(), Some((96, 99)));
        // the Utf8 column got a dictionary
        let d = bt.columns[1].dict.as_ref().unwrap();
        assert_eq!(d.len(), 5);
        // the nullable column counts its NULLs per block
        assert!(bt.zone(4, 0).null_count > 0);
    }

    #[test]
    fn decode_matches_source_rows() {
        let t = fixture();
        let bt = BlockTable::build(&t, 32);
        let mut row = 0usize;
        for b in 0..bt.num_blocks() {
            let chunk = bt.decode_block(b);
            assert!(chunk.columns[1].is_dict());
            for i in 0..chunk.num_rows() {
                for c in 0..t.num_columns() {
                    assert_eq!(
                        chunk.columns[c].get(i),
                        t.column(c).get(row),
                        "col {c} row {row}"
                    );
                }
                row += 1;
            }
        }
        assert_eq!(row, 100);
    }

    /// `i64_sel_into` reads what decoding yields, row for row — on raw,
    /// run-length and FOR blocks (width 0 included, with and without
    /// NULLs), through every row and through a selection — and refuses a
    /// block of another type.
    #[test]
    fn i64_sel_into_equals_decoded_values() {
        let nullable = |vals: Vec<i64>, valid: fn(usize) -> bool| {
            let mut v = Vector::from_i64(vals);
            v.validity = Some((0..v.len()).map(valid).collect());
            v
        };
        let cases = [
            (
                "raw",
                Vector::from_i64(vec![i64::MIN, 5, i64::MAX, -7, 0, 3, 1]),
            ),
            (
                "rle",
                Vector::from_i64((0..96).map(|i| i / 32 * 10 - 3).collect()),
            ),
            (
                "for",
                Vector::from_i64((0..100).map(|i| 1000 + (i * 37) % 91).collect()),
            ),
            (
                "for",
                nullable((0..100).map(|i| -(i * 13) % 57).collect(), |i| i % 3 != 0),
            ),
            ("for-width-0", Vector::from_i64(vec![42, 42, 42])),
            ("for-width-0", nullable(vec![9; 5], |_| false)),
        ];
        for (codec, v) in cases {
            let block = &BlockColumn::build(&v, 128).blocks[0];
            let got = match &block.data {
                EncodedBlock::RawI64(_) => "raw",
                EncodedBlock::RleI64 { .. } => "rle",
                EncodedBlock::ForI64 { width: 0, .. } => "for-width-0",
                EncodedBlock::ForI64 { .. } => "for",
                other => panic!("not an Int64 codec: {other:?}"),
            };
            assert_eq!(got, codec);
            let ColumnData::Int64(decoded) = block.decode(None).data else {
                panic!("{codec}: decoded to another type");
            };
            let mut all = vec![-1];
            block.i64_sel_into(None, &mut all).unwrap();
            assert_eq!(all[1..], decoded[..], "{codec}");
            let sel: Vec<u32> = (0..v.len() as u32).filter(|r| r % 3 != 1).collect();
            let mut some = Vec::new();
            block.i64_sel_into(Some(&sel), &mut some).unwrap();
            let want: Vec<i64> = sel.iter().map(|&r| decoded[r as usize]).collect();
            assert_eq!(some, want, "{codec} through a selection");
        }
        let utf8 = BlockColumn::build(&Vector::from_utf8(vec!["a".into()]), 128);
        assert!(utf8.blocks[0].i64_sel_into(None, &mut Vec::new()).is_err());
    }

    #[test]
    fn empty_table_has_no_blocks() {
        let t = Table::new(
            "e",
            Schema::new(vec![Field::new("a", DataType::Int64)]),
            vec![Vector::from_i64(vec![])],
        )
        .unwrap();
        let bt = BlockTable::build(&t, 16);
        assert_eq!(bt.num_blocks(), 0);
    }
}
