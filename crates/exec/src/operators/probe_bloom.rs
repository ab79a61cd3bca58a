//! ProbeBF (§4.2): drop rows whose key misses a transfer filter built by
//! an earlier CreateBF pipeline — by key hash for a Bloom filter, by raw
//! `Int64` key for a key bitmap.
//!
//! A ProbeBF whose input is still a base-table scan runs *inside* the scan
//! (see [`super::TableScan`]), before the output columns are decoded; the
//! [`ProbeBloom`] operator serves the streams that start from a buffer (the
//! backward pass, join-phase probes). Both narrow a selection with
//! [`probe_selection`]; the scan hands it encoded key blocks to read in
//! place, the operator decoded key columns.

use super::{Operator, Resources};
use crate::context::{ExecContext, Metrics};
use rpt_bloom::{FilterKind, TransferFilter};
use rpt_common::hash::hash_column_into;
use rpt_common::{ColumnData, DataChunk, Error, Result, Vector};
use rpt_storage::Block;
use std::time::Instant;

/// One key column of a ProbeBF, hashed or read where it lies.
pub(crate) enum ProbeKey<'a> {
    /// A decoded column, addressed by physical row.
    Vector(&'a Vector),
    /// An encoded block, addressed by block-local row and hashed or read
    /// without decoding ([`Block::hash_sel_into`], [`Block::i64_sel_into`]).
    Block(&'a Block),
}

impl ProbeKey<'_> {
    fn hash_into(&self, sel: Option<&[u32]>, out: &mut [u64], first: bool) {
        match self {
            ProbeKey::Vector(v) => hash_column_into(v, sel, out, first),
            ProbeKey::Block(b) => b.hash_sel_into(sel, out, first),
        }
    }

    /// Append the `Int64` keys of rows `sel` (the first `n` rows when
    /// `None`) to `out`: a decoded key from its flat payload, an encoded
    /// one through [`Block::i64_sel_into`]. Any other column is an error.
    fn i64_into(&self, sel: Option<&[u32]>, n: usize, out: &mut Vec<i64>) -> Result<()> {
        match self {
            ProbeKey::Vector(v) => match &v.data {
                ColumnData::Int64(vals) if !v.is_dict() => {
                    match sel {
                        None => out.extend_from_slice(&vals[..n]),
                        Some(s) => out.extend(s.iter().map(|&r| vals[r as usize])),
                    }
                    Ok(())
                }
                _ => Err(Error::Exec(
                    "a key bitmap met a key column that is not flat Int64".into(),
                )),
            },
            ProbeKey::Block(b) => b.i64_sel_into(sel, out),
        }
    }

    fn validity(&self) -> Option<&[bool]> {
        match self {
            ProbeKey::Vector(v) => v.validity.as_deref(),
            ProbeKey::Block(b) => b.validity.as_deref(),
        }
    }
}

/// The rows of `sel` (positions in the keys; `None` = the first `n` rows)
/// whose key over `keys` may be in `filter`, in order. A row with a NULL
/// in any key column matches nothing, so it is dropped before the filter
/// is tested, by validity — never by its hash or payload, which a valid
/// key can share. Everything here counts toward `bloom_nanos`: producing
/// the key hashes or values (unpacking them from encoded blocks included),
/// the NULL drop, the probe and the selection write.
pub(crate) fn probe_selection(
    filter: &TransferFilter,
    keys: &[ProbeKey],
    sel: Option<&[u32]>,
    n: usize,
    m: &Metrics,
) -> Result<Vec<u32>> {
    let t0 = Instant::now();
    let nulls: Vec<&[bool]> = keys.iter().filter_map(ProbeKey::validity).collect();
    let mut keep = Vec::new();
    match filter.kind() {
        FilterKind::Bloom(bloom) => {
            let mut hashes = vec![0u64; n];
            for (k, key) in keys.iter().enumerate() {
                key.hash_into(sel, &mut hashes, k == 0);
            }
            match drop_null_keyed(&hashes, sel, &nulls) {
                None => bloom.probe_hashes_sel(&hashes, sel, &mut keep),
                Some((rows, hashes)) => bloom.probe_hashes_sel(&hashes, Some(&rows), &mut keep),
            }
        }
        FilterKind::Bitmap(bitmap) => {
            let [key] = keys else {
                return Err(Error::Exec(format!(
                    "a key bitmap is probed by one key column, not {}",
                    keys.len()
                )));
            };
            let mut values = Vec::with_capacity(n);
            key.i64_into(sel, n, &mut values)?;
            match drop_null_keyed(&values, sel, &nulls) {
                None => bitmap.probe_sel(&values, sel, &mut keep),
                Some((rows, values)) => bitmap.probe_sel(&values, Some(&rows), &mut keep),
            }
        }
    }
    m.add(&m.bloom_nanos, t0.elapsed().as_nanos() as u64);
    m.add(&m.bloom_probe_in, n as u64);
    m.add(&m.bloom_probe_out, keep.len() as u64);
    Ok(keep)
}

/// With NULL-able key columns (`nulls`, their validities), the rows of
/// `sel` whose key is all valid, and their entries of `keys`; `None` when
/// no key column has a validity, so every row stays.
fn drop_null_keyed<T: Copy>(
    keys: &[T],
    sel: Option<&[u32]>,
    nulls: &[&[bool]],
) -> Option<(Vec<u32>, Vec<T>)> {
    if nulls.is_empty() {
        return None;
    }
    Some(
        keys.iter()
            .enumerate()
            .map(|(i, &k)| (sel.map_or(i as u32, |s| s[i]), k))
            .filter(|&(row, _)| nulls.iter().all(|valid| valid[row as usize]))
            .unzip(),
    )
}

pub struct ProbeBloom {
    filter_id: usize,
    key_cols: Vec<usize>,
}

impl ProbeBloom {
    pub fn new(filter_id: usize, key_cols: Vec<usize>) -> ProbeBloom {
        ProbeBloom {
            filter_id,
            key_cols,
        }
    }
}

impl Operator for ProbeBloom {
    fn execute(
        &self,
        mut chunk: DataChunk,
        ctx: &ExecContext,
        res: &Resources,
    ) -> Result<Option<DataChunk>> {
        let filter = res.filter(self.filter_id)?;
        let keys: Vec<ProbeKey> = self
            .key_cols
            .iter()
            .map(|&k| ProbeKey::Vector(&chunk.columns[k]))
            .collect();
        let keep = probe_selection(
            &filter,
            &keys,
            chunk.selection.as_deref(),
            chunk.num_rows(),
            &ctx.metrics,
        )?;
        chunk.set_selection(keep);
        Ok(Some(chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_bloom::{BloomFilter, KeyBitmap};
    use rpt_common::hash::hash_columns_sel;
    use rpt_common::{DataType, DenseRange, Field, Schema, VECTOR_SIZE};
    use rpt_storage::{BlockTable, Table};

    /// A row with a NULL key column is dropped before the filter is tested
    /// even when the filter holds what the row's key reads as — the hash
    /// a composite key folds to, for a Bloom filter, or the payload under
    /// the NULL, for a key bitmap — from a decoded vector and from an
    /// encoded block, with and without a selection.
    #[test]
    fn null_keyed_rows_are_dropped_before_the_block_test() {
        let mut a = Vector::from_i64(vec![1, 2, 3, 4]);
        a.validity = Some(vec![true, false, true, false]);
        let b = Vector::from_i64(vec![7, 7, 7, 7]);
        let mut bloom = BloomFilter::with_capacity(16, 0.01);
        bloom.insert_hashes(&hash_columns_sel(&[&a, &b], None, 4));
        // Every payload a NULL row of `a` can carry, decoded or encoded
        // (the encoder pins NULLs to the block minimum), is in the bitmap.
        let mut bitmap = KeyBitmap::new(DenseRange::new(1, 4, 0).unwrap()).unwrap();
        bitmap.insert_all(1..=4).unwrap();
        let table = Table::new(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int64),
            ]),
            vec![a.clone(), b.clone()],
        )
        .expect("valid table");
        let enc = BlockTable::build(&table, VECTOR_SIZE);
        let m = Metrics::default();
        let block = |c: usize| ProbeKey::Block(&enc.columns[c].blocks[0]);
        let cases = [
            (
                TransferFilter::from(bloom.clone()),
                vec![ProbeKey::Vector(&a), ProbeKey::Vector(&b)],
            ),
            (TransferFilter::from(bloom), vec![block(0), block(1)]),
            (
                TransferFilter::from(bitmap.clone()),
                vec![ProbeKey::Vector(&a)],
            ),
            (TransferFilter::from(bitmap), vec![block(0)]),
        ];
        for (filter, keys) in &cases {
            assert_eq!(
                probe_selection(filter, keys, None, 4, &m).unwrap(),
                vec![0, 2]
            );
            let sel = [1, 2, 3];
            assert_eq!(
                probe_selection(filter, keys, Some(&sel), 3, &m).unwrap(),
                vec![2]
            );
        }
        assert_eq!(m.summary().bloom_probe_in, 4 * (4 + 3));
    }

    /// A key bitmap probed by two key columns, or by a key that is not
    /// `Int64`, is an execution error, not a panic or a wrong answer.
    #[test]
    fn key_bitmap_rejects_keys_it_cannot_read() {
        let range = DenseRange::new(0, 10, 0).unwrap();
        let filter = TransferFilter::from(KeyBitmap::new(range).unwrap());
        let ints = Vector::from_i64(vec![1, 2]);
        let floats = Vector::from_f64(vec![1.0, 2.0]);
        let m = Metrics::default();
        let two = [ProbeKey::Vector(&ints), ProbeKey::Vector(&ints)];
        assert!(matches!(
            probe_selection(&filter, &two, None, 2, &m),
            Err(Error::Exec(_))
        ));
        let float = [ProbeKey::Vector(&floats)];
        assert!(matches!(
            probe_selection(&filter, &float, None, 2, &m),
            Err(Error::Exec(_))
        ));
    }
}
