//! ProbeBF (§4.2): drop rows whose key hash misses a Bloom filter built by
//! an earlier CreateBF pipeline.
//!
//! A ProbeBF whose input is still a base-table scan runs *inside* the scan
//! (see [`super::TableScan`]), before the output columns are decoded; the
//! [`ProbeBloom`] operator serves the streams that start from a buffer (the
//! backward pass, join-phase probes). Both narrow a selection with
//! [`probe_selection`].

use super::{Operator, ResourceId, Resources};
use crate::context::{ExecContext, Metrics};
use rpt_bloom::BloomFilter;
use rpt_common::hash::hash_columns_sel;
use rpt_common::{DataChunk, Result, Vector};
use std::time::Instant;

/// The rows of `sel` (physical positions; `None` = the first `n` rows)
/// whose key over `keys` may be in `filter`, in order. Key hashing, the
/// probe and the selection write count toward `bloom_nanos`; decoding the
/// key columns is the caller's.
pub(crate) fn probe_selection(
    filter: &BloomFilter,
    keys: &[&Vector],
    sel: Option<&[u32]>,
    n: usize,
    m: &Metrics,
) -> Vec<u32> {
    let t0 = Instant::now();
    let hashes = hash_columns_sel(keys, sel, n);
    let mut keep = Vec::new();
    filter.probe_hashes_sel(&hashes, sel, &mut keep);
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
        let keys: Vec<&Vector> = self.key_cols.iter().map(|&k| &chunk.columns[k]).collect();
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

    fn reads(&self) -> Vec<ResourceId> {
        vec![ResourceId::Filter(self.filter_id)]
    }
}
