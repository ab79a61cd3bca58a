//! Hash-join probe: one output row per match, appending build-side columns.

use super::{Operator, Resources};
use crate::context::ExecContext;
use rpt_common::{DataChunk, Result, Vector};

pub struct JoinProbe {
    ht_id: usize,
    key_cols: Vec<usize>,
    build_output_cols: Vec<usize>,
}

impl JoinProbe {
    pub fn new(ht_id: usize, key_cols: Vec<usize>, build_output_cols: Vec<usize>) -> JoinProbe {
        JoinProbe {
            ht_id,
            key_cols,
            build_output_cols,
        }
    }
}

impl Operator for JoinProbe {
    fn execute(
        &self,
        chunk: DataChunk,
        ctx: &ExecContext,
        res: &Resources,
    ) -> Result<Option<DataChunk>> {
        let ht = res.hash_table(self.ht_id)?;
        let m = &ctx.metrics;
        m.add(&m.join_probe_in, chunk.num_rows() as u64);
        let mut probe_rows = Vec::new();
        let mut build_rows = Vec::new();
        ht.probe(&chunk, &self.key_cols, &mut probe_rows, &mut build_rows);
        let out_n = probe_rows.len();
        ctx.charge(out_n as u64)?;
        m.add(&m.join_output_rows, out_n as u64);
        // logical → physical probe indices
        let phys: Vec<u32> = probe_rows
            .iter()
            .map(|&l| chunk.physical_index(l as usize) as u32)
            .collect();
        let mut cols: Vec<Vector> = chunk.columns.iter().map(|c| c.take(&phys)).collect();
        let build = &ht.data.columns;
        cols.extend(
            self.build_output_cols
                .iter()
                .map(|&c| build[c].take(&build_rows)),
        );
        Ok(Some(DataChunk::new(cols)))
    }
}
