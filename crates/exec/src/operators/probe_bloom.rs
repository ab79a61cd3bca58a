//! ProbeBF (§4.2): drop rows whose key hash misses a Bloom filter built by
//! an earlier CreateBF pipeline.
//!
//! A ProbeBF whose input is still a base-table scan runs *inside* the scan
//! (see [`super::TableScan`]), before the output columns are decoded; the
//! [`ProbeBloom`] operator serves the streams that start from a buffer (the
//! backward pass, join-phase probes). Both narrow a selection with
//! [`probe_selection`]; the scan hands it encoded key blocks to hash in
//! place, the operator decoded key columns.

use super::{Operator, Resources};
use crate::context::{ExecContext, Metrics};
use rpt_bloom::BloomFilter;
use rpt_common::hash::hash_column_into;
use rpt_common::{DataChunk, Result, Vector};
use rpt_storage::Block;
use std::time::Instant;

/// One key column of a ProbeBF, hashed where it lies.
pub(crate) enum ProbeKey<'a> {
    /// A decoded column, addressed by physical row.
    Vector(&'a Vector),
    /// An encoded block, addressed by block-local row and hashed without
    /// decoding ([`Block::hash_sel_into`]).
    Block(&'a Block),
}

impl ProbeKey<'_> {
    fn hash_into(&self, sel: Option<&[u32]>, out: &mut [u64], first: bool) {
        match self {
            ProbeKey::Vector(v) => hash_column_into(v, sel, out, first),
            ProbeKey::Block(b) => b.hash_sel_into(sel, out, first),
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
/// is tested, by validity — never by its hash, which a valid key can share.
/// Everything here counts toward `bloom_nanos`: producing the key hashes
/// (unpacking them from encoded blocks included), the NULL drop, the probe
/// and the selection write.
pub(crate) fn probe_selection(
    filter: &BloomFilter,
    keys: &[ProbeKey],
    sel: Option<&[u32]>,
    n: usize,
    m: &Metrics,
) -> Vec<u32> {
    let t0 = Instant::now();
    let mut hashes = vec![0u64; n];
    for (k, key) in keys.iter().enumerate() {
        key.hash_into(sel, &mut hashes, k == 0);
    }
    let nulls: Vec<&[bool]> = keys.iter().filter_map(ProbeKey::validity).collect();
    let mut keep = Vec::new();
    if nulls.is_empty() {
        filter.probe_hashes_sel(&hashes, sel, &mut keep);
    } else {
        let (rows, hashes): (Vec<u32>, Vec<u64>) = hashes
            .iter()
            .enumerate()
            .map(|(i, &h)| (sel.map_or(i as u32, |s| s[i]), h))
            .filter(|&(row, _)| nulls.iter().all(|valid| valid[row as usize]))
            .unzip();
        filter.probe_hashes_sel(&hashes, Some(&rows), &mut keep);
    }
    m.add(&m.bloom_nanos, t0.elapsed().as_nanos() as u64);
    m.add(&m.bloom_probe_in, n as u64);
    m.add(&m.bloom_probe_out, keep.len() as u64);
    keep
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
        );
        chunk.set_selection(keep);
        Ok(Some(chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_common::hash::hash_columns_sel;
    use rpt_common::{DataType, Field, Schema};
    use rpt_storage::Table;

    /// A row with a NULL key column is dropped before the block test even
    /// when the filter holds the exact hash the row folds to — from a
    /// decoded vector and from an encoded block, with and without a
    /// selection.
    #[test]
    fn null_keyed_rows_are_dropped_before_the_block_test() {
        let mut a = Vector::from_i64(vec![1, 2, 3, 4]);
        a.validity = Some(vec![true, false, true, false]);
        let b = Vector::from_i64(vec![7, 7, 7, 7]);
        let mut filter = BloomFilter::with_capacity(16, 0.01);
        filter.insert_hashes(&hash_columns_sel(&[&a, &b], None, 4));
        let table = Table::new(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int64),
            ]),
            vec![a.clone(), b.clone()],
        )
        .expect("valid table");
        let enc = table.encoded();
        let m = Metrics::default();
        let decoded = [ProbeKey::Vector(&a), ProbeKey::Vector(&b)];
        let blocks = [
            ProbeKey::Block(&enc.columns[0].blocks[0]),
            ProbeKey::Block(&enc.columns[1].blocks[0]),
        ];
        for keys in [&decoded, &blocks] {
            assert_eq!(probe_selection(&filter, keys, None, 4, &m), vec![0, 2]);
            let sel = [1, 2, 3];
            assert_eq!(probe_selection(&filter, keys, Some(&sel), 3, &m), vec![2]);
        }
        assert_eq!(m.summary().bloom_probe_in, 2 * (4 + 3));
    }
}
