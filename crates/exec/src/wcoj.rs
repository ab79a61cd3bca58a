//! Worst-case optimal join (Generic Join / leapfrog-style), the execution
//! strategy §5.1.3 proposes for the *cyclic* part of queries that RPT
//! cannot protect: "a robust execution engine in the future should adopt a
//! hybrid approach: executing the cyclic part of the query using worst-case
//! optimal joins while processing the rest with Robust Predicate Transfer."
//!
//! This is the Generic Join of Ngo/Ré/Rudra: attributes are eliminated one
//! at a time in a fixed global order; at each level the candidate values
//! are the *intersection* of the participating relations' value runs, found
//! by iterating the smallest run and binary-searching the others. Its
//! running time meets the AGM bound — e.g. `O(N^{3/2})` for the triangle
//! query where any binary-join plan needs `Ω(N²)`.
//!
//! Restriction: join attributes must be `Int64` (true for every workload
//! key in this repo); payload columns can be any type.
//!
//! In a Hybrid plan the join is a pipeline source, [`GenericJoinScan`]
//! (lowered from `SourceSpec::GenericJoin`): it reads every relation's
//! transfer-reduced buffer, joins them all when it opens, and streams the
//! joined rows into the plan's residual filters and output sink.

use crate::context::ExecContext;
use crate::operators::{Morsels, Resources, Source};
use rpt_common::chunk::VECTOR_SIZE;
use rpt_common::{DataChunk, Error, Result, Schema, Vector};

/// One input of a [`GenericJoinScan`]: a materialized relation.
#[derive(Clone)]
pub struct WcojInput {
    /// The buffer holding the relation's rows.
    pub buf_id: usize,
    /// The buffer's schema; every column is carried into the output.
    pub schema: Schema,
    /// `(global_attr_id, column_index)` pairs, as in [`WcojRelation`].
    pub attr_cols: Vec<(usize, usize)>,
}

/// The Generic Join as a pipeline source. It does its work in `open`: no
/// output row exists before every input has been joined. The joined rows,
/// every input's columns concatenated in input order, then go out as
/// `VECTOR_SIZE`-row morsels.
pub struct GenericJoinScan {
    pub(crate) inputs: Vec<WcojInput>,
    pub(crate) attr_order: Vec<usize>,
}

impl Source for GenericJoinScan {
    fn open<'a>(&'a self, ctx: &ExecContext, res: &Resources) -> Result<Box<dyn Morsels + 'a>> {
        let relations = self
            .inputs
            .iter()
            .map(|input| {
                let mut data = DataChunk::empty_like(&input.schema);
                for c in res.buffer(input.buf_id)?.iter() {
                    data.append(c)?;
                }
                Ok(WcojRelation {
                    data,
                    attr_cols: input.attr_cols.clone(),
                    payload_cols: (0..input.schema.len()).collect(),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let joined = generic_join(&relations, &self.attr_order, ctx)?;
        ctx.metrics
            .add(&ctx.metrics.join_output_rows, joined.num_rows() as u64);
        Ok(Box::new(JoinedMorsels(joined)))
    }
}

/// The joined rows, one morsel per `VECTOR_SIZE` range.
struct JoinedMorsels(DataChunk);

impl Morsels for JoinedMorsels {
    fn count(&self) -> usize {
        self.0.num_rows().div_ceil(VECTOR_SIZE)
    }

    fn morsel(&self, i: usize, ctx: &ExecContext) -> Result<Option<DataChunk>> {
        let start = i * VECTOR_SIZE;
        let len = VECTOR_SIZE.min(self.0.num_rows() - start);
        ctx.charge(len as u64)?;
        let columns = self.0.columns.iter().map(|c| c.slice(start, len)).collect();
        Ok(Some(DataChunk::new(columns)))
    }
}

/// One input relation for the generic join.
pub struct WcojRelation {
    /// Flattened input rows.
    pub data: DataChunk,
    /// `(global_attr_id, column_index)` pairs — which chunk columns carry
    /// which join attributes.
    pub attr_cols: Vec<(usize, usize)>,
    /// Columns to carry into the output (in order).
    pub payload_cols: Vec<usize>,
}

struct PreparedRelation {
    /// Key columns in global-attribute order (i64).
    keys: Vec<Vec<i64>>,
    /// Global attr id per key column.
    attrs: Vec<usize>,
    /// Row permutation: sorted lexicographic order over `keys`.
    order: Vec<u32>,
}

impl PreparedRelation {
    fn prepare(rel: &WcojRelation, attr_order: &[usize]) -> Result<PreparedRelation> {
        let flat = rel.data.flattened();
        // Key columns in the global order (only attrs this relation has).
        let mut pairs: Vec<(usize, usize)> = rel.attr_cols.clone();
        pairs.sort_by_key(|&(attr, _)| {
            attr_order
                .iter()
                .position(|&a| a == attr)
                .unwrap_or(usize::MAX)
        });
        let mut keys = Vec::with_capacity(pairs.len());
        let mut attrs = Vec::with_capacity(pairs.len());
        for &(attr, col) in &pairs {
            let column = flat
                .columns
                .get(col)
                .ok_or_else(|| Error::Exec(format!("wcoj key column {col} out of bounds")))?;
            let vals = match &column.data {
                rpt_common::ColumnData::Int64(v) => v.clone(),
                other => {
                    return Err(Error::Exec(format!(
                        "wcoj join keys must be Int64, got {:?}",
                        other.data_type()
                    )))
                }
            };
            keys.push(vals);
            attrs.push(attr);
        }
        let n = flat.num_rows();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            for k in &keys {
                match k[a as usize].cmp(&k[b as usize]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(PreparedRelation { keys, attrs, order })
    }

    /// Key value at sorted position `pos`, key level `depth`.
    #[inline]
    fn key_at(&self, depth: usize, pos: usize) -> i64 {
        self.keys[depth][self.order[pos] as usize]
    }

    /// Within `[lo, hi)` at key level `depth` (values sorted), the range of
    /// positions equal to `v`, found by binary search.
    fn equal_range(&self, depth: usize, lo: usize, hi: usize, v: i64) -> (usize, usize) {
        let start = self.lower_bound(depth, lo, hi, v);
        let end = self.lower_bound(depth, start, hi, v + 1);
        (start, end)
    }

    fn lower_bound(&self, depth: usize, mut lo: usize, mut hi: usize, v: i64) -> usize {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key_at(depth, mid) < v {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Execute the generic join. `attr_order` is the global elimination order
/// (every join attribute exactly once). Returns the joined rows: all
/// relations' payload columns concatenated in relation order.
///
/// Every emitted row is charged to `ctx`'s work budget before it is built,
/// so work earlier pipelines charged counts against the join too.
pub fn generic_join(
    relations: &[WcojRelation],
    attr_order: &[usize],
    ctx: &ExecContext,
) -> Result<DataChunk> {
    if relations.is_empty() {
        return Err(Error::Exec("generic_join needs ≥1 relation".into()));
    }
    let prepared: Vec<PreparedRelation> = relations
        .iter()
        .map(|r| PreparedRelation::prepare(r, attr_order))
        .collect::<Result<_>>()?;

    // Output builders: payload columns of every relation, in order.
    let flats: Vec<DataChunk> = relations.iter().map(|r| r.data.flattened()).collect();
    let mut out_cols: Vec<Vector> = Vec::new();
    for (rel, flat) in relations.iter().zip(flats.iter()) {
        for &c in &rel.payload_cols {
            out_cols.push(Vector::new_empty(flat.columns[c].data_type()));
        }
    }

    // Quick empty check.
    if prepared.iter().any(|p| p.order.is_empty()) {
        return Ok(DataChunk::new(out_cols));
    }

    // Per-relation current range (over sorted order) and key depth.
    let mut ranges: Vec<(usize, usize)> = prepared.iter().map(|p| (0, p.order.len())).collect();
    let mut depths: Vec<usize> = vec![0; prepared.len()];
    let join = GenericJoin {
        prepared: &prepared,
        flats: &flats,
        relations,
        attr_order,
        ctx,
    };
    join.level(0, &mut ranges, &mut depths, &mut out_cols)?;
    Ok(DataChunk::new(out_cols))
}

/// The inputs every level of the recursion shares.
struct GenericJoin<'a> {
    prepared: &'a [PreparedRelation],
    flats: &'a [DataChunk],
    relations: &'a [WcojRelation],
    attr_order: &'a [usize],
    ctx: &'a ExecContext,
}

impl GenericJoin<'_> {
    fn level(
        &self,
        level: usize,
        ranges: &mut Vec<(usize, usize)>,
        depths: &mut Vec<usize>,
        out_cols: &mut [Vector],
    ) -> Result<()> {
        let Some(&attr) = self.attr_order.get(level) else {
            // All attributes bound: emit the Cartesian product of the
            // relations' residual ranges (these rows agree on all join keys).
            return self.emit_ranges(ranges, out_cols);
        };
        // Relations whose next unbound key column carries this attribute.
        let active: Vec<usize> = self
            .prepared
            .iter()
            .enumerate()
            .filter(|(i, p)| depths[*i] < p.attrs.len() && p.attrs[depths[*i]] == attr)
            .map(|(i, _)| i)
            .collect();
        if active.is_empty() {
            // No relation carries this attribute (shouldn't happen for
            // derived orders) — skip the level.
            return self.level(level + 1, ranges, depths, out_cols);
        }

        // Leapfrog over the smallest active run.
        let driver = *active
            .iter()
            .min_by_key(|&&i| ranges[i].1 - ranges[i].0)
            .ok_or_else(|| Error::Exec("generic join level has no active relation".into()))?;
        let (dlo, dhi) = ranges[driver];
        let ddepth = depths[driver];
        let mut pos = dlo;
        while pos < dhi {
            let v = self.prepared[driver].key_at(ddepth, pos);
            let (vlo, vhi) = self.prepared[driver].equal_range(ddepth, pos, dhi, v);
            pos = vhi;
            // Intersect: every active relation must contain v in its run.
            let saved_ranges = ranges.clone();
            let saved_depths = depths.clone();
            let mut ok = true;
            for &i in &active {
                let (lo, hi) = ranges[i];
                let (elo, ehi) = self.prepared[i].equal_range(depths[i], lo, hi, v);
                if elo == ehi {
                    ok = false;
                    break;
                }
                ranges[i] = (elo, ehi);
                depths[i] += 1;
            }
            if ok {
                ranges[driver] = (vlo, vhi);
                self.level(level + 1, ranges, depths, out_cols)?;
            }
            *ranges = saved_ranges;
            *depths = saved_depths;
        }
        Ok(())
    }

    fn emit_ranges(&self, ranges: &[(usize, usize)], out_cols: &mut [Vector]) -> Result<()> {
        // Cartesian product over the per-relation surviving rows.
        let sizes: Vec<usize> = ranges.iter().map(|&(lo, hi)| hi - lo).collect();
        let total: usize = sizes.iter().product();
        if total == 0 {
            return Ok(());
        }
        self.ctx.charge(total as u64)?;
        let mut idx = vec![0usize; self.prepared.len()];
        loop {
            // Emit one combination.
            let mut col_off = 0;
            for (r, rel) in self.relations.iter().enumerate() {
                let row = self.prepared[r].order[ranges[r].0 + idx[r]] as usize;
                for &c in &rel.payload_cols {
                    let v = self.flats[r].columns[c].get(row);
                    out_cols[col_off].push(&v)?;
                    col_off += 1;
                }
            }
            // Odometer increment.
            let mut k = 0;
            loop {
                if k == self.prepared.len() {
                    return Ok(());
                }
                idx[k] += 1;
                if idx[k] < sizes[k] {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_common::ScalarValue;

    fn rel(
        cols: Vec<Vec<i64>>,
        attr_cols: Vec<(usize, usize)>,
        payload: Vec<usize>,
    ) -> WcojRelation {
        WcojRelation {
            data: DataChunk::new(cols.into_iter().map(Vector::from_i64).collect()),
            attr_cols,
            payload_cols: payload,
        }
    }

    /// Triangle query R(a,b) ⋈ S(b,c) ⋈ T(a,c) on a small instance with a
    /// known answer.
    #[test]
    fn triangle_counts_correctly() {
        // Edges of a 4-clique on {0,1,2,3}: every ordered pair (i<j).
        let edges: Vec<(i64, i64)> = (0..4)
            .flat_map(|i| ((i + 1)..4).map(move |j| (i, j)))
            .collect();
        let col0: Vec<i64> = edges.iter().map(|e| e.0).collect();
        let col1: Vec<i64> = edges.iter().map(|e| e.1).collect();
        // attrs: a=0, b=1, c=2
        let r = rel(
            vec![col0.clone(), col1.clone()],
            vec![(0, 0), (1, 1)],
            vec![0, 1],
        );
        let s = rel(
            vec![col0.clone(), col1.clone()],
            vec![(1, 0), (2, 1)],
            vec![],
        );
        let t = rel(vec![col0, col1], vec![(0, 0), (2, 1)], vec![]);
        let out = generic_join(&[r, s, t], &[0, 1, 2], &ExecContext::new()).unwrap();
        // Triangles i<j<k in K4: C(4,3) = 4.
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn two_way_join_matches_hash_join() {
        let r = rel(
            vec![vec![1, 2, 2, 3], vec![10, 20, 21, 30]],
            vec![(0, 0)],
            vec![1],
        );
        let s = rel(vec![vec![2, 2, 3, 9]], vec![(0, 0)], vec![0]);
        let out = generic_join(&[r, s], &[0], &ExecContext::new()).unwrap();
        // key 2: 2 R-rows × 2 S-rows = 4; key 3: 1×1 = 1 → 5 rows.
        assert_eq!(out.num_rows(), 5);
        // Payload columns present: R.v then S.k.
        assert_eq!(out.num_columns(), 2);
        let mut pairs: Vec<(i64, i64)> = out
            .rows()
            .into_iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(20, 2), (20, 2), (21, 2), (21, 2), (30, 3)]);
    }

    #[test]
    fn empty_relation_short_circuits() {
        let r = rel(vec![vec![]], vec![(0, 0)], vec![0]);
        let s = rel(vec![vec![1, 2]], vec![(0, 0)], vec![0]);
        let out = generic_join(&[r, s], &[0], &ExecContext::new()).unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn budget_enforced_on_blowup() {
        let r = rel(vec![vec![7; 100]], vec![(0, 0)], vec![0]);
        let s = rel(vec![vec![7; 100]], vec![(0, 0)], vec![0]);
        let ctx = ExecContext::new().with_budget(100);
        let err = generic_join(&[r, s], &[0], &ctx).unwrap_err();
        assert!(err.is_budget());
    }

    /// The join charges the query's one work budget: a successful join
    /// leaves exactly its output rows charged.
    #[test]
    fn join_charges_its_output_rows() {
        let r = rel(vec![vec![1, 2, 2, 3]], vec![(0, 0)], vec![0]);
        let s = rel(vec![vec![2, 2, 3, 9]], vec![(0, 0)], vec![0]);
        let ctx = ExecContext::new();
        let out = generic_join(&[r, s], &[0], &ctx).unwrap();
        assert_eq!(out.num_rows(), 5);
        assert_eq!(ctx.work_done(), 5);
    }

    /// Work earlier pipelines charged counts against the join: 100 rows
    /// fit a budget of 150 on their own, but not after 100 charged before.
    #[test]
    fn budget_spent_before_the_join_stops_it() {
        let r = rel(vec![vec![7; 10]], vec![(0, 0)], vec![0]);
        let s = rel(vec![vec![7; 10]], vec![(0, 0)], vec![0]);
        let ctx = ExecContext::new().with_budget(150);
        ctx.charge(100).unwrap();
        let err = generic_join(&[r, s], &[0], &ctx).unwrap_err();
        assert!(err.is_budget());
    }

    #[test]
    fn non_int_keys_rejected() {
        let r = WcojRelation {
            data: DataChunk::new(vec![Vector::from_utf8(vec!["a".into()])]),
            attr_cols: vec![(0, 0)],
            payload_cols: vec![],
        };
        let s = rel(vec![vec![1]], vec![(0, 0)], vec![]);
        assert!(generic_join(&[r, s], &[0], &ExecContext::new()).is_err());
    }

    #[test]
    fn triangle_output_payload_correct() {
        // One triangle: edges (1,2),(2,3),(1,3).
        let r = rel(vec![vec![1], vec![2]], vec![(0, 0), (1, 1)], vec![0, 1]);
        let s = rel(vec![vec![2], vec![3]], vec![(1, 0), (2, 1)], vec![1]);
        let t = rel(vec![vec![1], vec![3]], vec![(0, 0), (2, 1)], vec![]);
        let out = generic_join(&[r, s, t], &[0, 1, 2], &ExecContext::new()).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(
            out.row(0),
            vec![
                ScalarValue::Int64(1),
                ScalarValue::Int64(2),
                ScalarValue::Int64(3),
            ]
        );
    }
}
