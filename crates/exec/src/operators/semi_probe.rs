//! Exact semi-join probe (Yannakakis reducer): keep rows with ≥1 match,
//! without duplication.

use super::{Operator, Resources};
use crate::context::ExecContext;
use rpt_common::{DataChunk, Result};

pub struct SemiProbe {
    ht_id: usize,
    key_cols: Vec<usize>,
}

impl SemiProbe {
    pub fn new(ht_id: usize, key_cols: Vec<usize>) -> SemiProbe {
        SemiProbe { ht_id, key_cols }
    }
}

impl Operator for SemiProbe {
    fn execute(
        &self,
        mut chunk: DataChunk,
        _ctx: &ExecContext,
        res: &Resources,
    ) -> Result<Option<DataChunk>> {
        let ht = res.hash_table(self.ht_id)?;
        let keep = ht.semi_probe(&chunk, &self.key_cols);
        chunk.refine_selection(&keep);
        Ok(Some(chunk))
    }
}
