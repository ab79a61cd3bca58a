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

/// The probe side's columns of the output, one row per match. When every
/// row of a chunk without a selection matched exactly once — `probe_rows`
/// is `0..n`, as a primary-key probe after a full transfer gives — they are
/// the chunk's columns, moved; otherwise they are gathered, through the
/// selection when there is one.
fn probe_columns(chunk: DataChunk, probe_rows: &[u32]) -> Vec<Vector> {
    match &chunk.selection {
        None if probe_rows.iter().copied().eq(0..chunk.num_rows() as u32) => chunk.columns,
        None => chunk.columns.iter().map(|c| c.take(probe_rows)).collect(),
        Some(sel) => {
            let phys: Vec<u32> = probe_rows.iter().map(|&l| sel[l as usize]).collect();
            chunk.columns.iter().map(|c| c.take(&phys)).collect()
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
        let mut cols = probe_columns(chunk, &probe_rows);
        let build = &ht.data.columns;
        cols.extend(
            self.build_output_cols
                .iter()
                .map(|&c| build[c].take(&build_rows)),
        );
        Ok(Some(DataChunk::new(cols)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_table::JoinHashTable;
    use rpt_common::{ColumnData, Utf8Dict};
    use std::sync::Arc;

    /// A probe chunk of `n` rows: an `Int64` column with a NULL, a
    /// dictionary-coded string column and a flat string column.
    fn chunk(n: usize) -> DataChunk {
        let mut ints = Vector::from_i64((0..n as i64).collect());
        ints.validity = Some((0..n).map(|i| i != 1).collect());
        let dict = Utf8Dict::from_values(["x", "y"].map(String::from));
        let codes = Vector::from_dict_codes((0..n as i64).map(|i| i % 2).collect(), None, dict);
        let flat = Vector::from_utf8((0..n).map(|i| format!("s{i}")).collect());
        DataChunk::new(vec![ints, codes, flat])
    }

    /// What the gathering path gives: every column taken at the physical
    /// rows behind `probe_rows`.
    fn gathered(chunk: &DataChunk, probe_rows: &[u32]) -> Vec<Vector> {
        let phys: Vec<u32> = probe_rows
            .iter()
            .map(|&l| chunk.physical_index(l as usize) as u32)
            .collect();
        chunk.columns.iter().map(|c| c.take(&phys)).collect()
    }

    fn assert_same(got: &[Vector], want: &[Vector]) {
        assert_eq!(got, want);
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.validity, w.validity);
            match (&g.dict, &w.dict) {
                (Some(g), Some(w)) => assert!(Arc::ptr_eq(g, w), "same dictionary"),
                (g, w) => assert_eq!(g.is_none(), w.is_none()),
            }
        }
    }

    /// Matches `0..n` over a chunk without a selection move the columns
    /// as they are; the result equals the gathering path's, validity and
    /// dictionaries included.
    #[test]
    fn one_match_per_row_passes_the_columns_through() {
        let input = chunk(4);
        let want = gathered(&input, &[0, 1, 2, 3]);
        let payload = match &input.columns[0].data {
            ColumnData::Int64(v) => v.as_ptr(),
            _ => unreachable!(),
        };
        let got = probe_columns(input, &[0, 1, 2, 3]);
        assert_same(&got, &want);
        match &got[0].data {
            ColumnData::Int64(v) => assert_eq!(v.as_ptr(), payload, "moved, not copied"),
            _ => unreachable!(),
        }
    }

    /// Row counts that match `n` without the rows being `0..n` gather:
    /// a row matched twice and one not at all, two rows of one row's
    /// matches, and `0..n` over the logical rows of a selection.
    #[test]
    fn other_matches_gather() {
        let mut selected = chunk(5);
        selected.set_selection(vec![1, 3, 4]);
        for (input, rows) in [
            (chunk(3), vec![0, 0, 2]),
            (chunk(2), vec![0, 0]),
            (chunk(3), vec![1, 2]),
            (selected, vec![0, 1, 2]),
        ] {
            let want = gathered(&input, &rows);
            assert_same(&probe_columns(input, &rows), &want);
        }
    }

    /// Through the operator: a probe that matches every row once returns
    /// the probe columns unchanged, then the build columns.
    #[test]
    fn execute_passes_one_to_one_matches_through() {
        let build = DataChunk::new(vec![
            Vector::from_i64(vec![3, 0, 2, 1]),
            Vector::from_utf8(["d", "a", "c", "b"].map(String::from).to_vec()),
        ]);
        let res = Resources::new(0, 0, 1);
        let table = JoinHashTable::build(&[build], vec![0]).unwrap();
        assert!(table.is_direct());
        res.publish_table(0, table).unwrap();
        let mut input = chunk(4);
        input.columns[0].validity = None;
        let probe = JoinProbe::new(0, vec![0], vec![1]);
        let out = probe
            .execute(input.clone(), &ExecContext::new(), &res)
            .unwrap()
            .unwrap();
        assert_same(&out.columns[..3], &input.columns);
        assert_eq!(
            out.columns[3],
            Vector::from_utf8(["a", "b", "c", "d"].map(String::from).to_vec())
        );
    }
}
