//! Partitioned sort / TopK sink: the `ORDER BY [LIMIT]` pipeline breaker.
//!
//! Workers accumulate **unsorted runs**, routed chunk-granular round-robin
//! across `ctx.partition_count` partitions (order across partitions is
//! irrelevant — every row is re-ordered anyway, so routing stays copy-free).
//! With a TopK bound (`LIMIT n [OFFSET k]` ⇒ bound = `n + k`) a run is
//! pruned back to its best `bound` rows whenever it grows past `2 × bound`,
//! so no worker ever holds more than `2 × bound` rows per partition and the
//! discarded rows are counted in `sort_rows_pruned`. Unbounded sorts
//! accumulate through a [`SpillBuffer`] instead, so runs larger than the
//! memory cap spill to disk like any other materializing sink.
//!
//! The merge is the standard two-phase partitioned plan: one parallel task
//! per partition concatenates every worker's runs for that partition and
//! sorts (or TopK-prunes) them into a single sorted run
//! (`sort_merge_tasks`, `sort_max_run_rows`), then `finish` streams a
//! k-way **loser-tree** merge over the per-partition sorted runs, applies
//! `OFFSET`/`LIMIT`, and publishes the globally ordered result.
//!
//! Ordering contract: keys compare with explicit NULL placement
//! (`nulls_first`), descending keys reverse the value order only. After the
//! declared keys, rows tie-break on **every output column** left-to-right
//! (ascending, NULLs first) — a total order, so the published result is
//! identical regardless of thread count or partitioning, which is what lets
//! the differential corpus assert exact ordered-row equality. Dictionary
//! -backed `Utf8` key columns compare by their `Int64` codes when both
//! sides share the same sorted dictionary (code order == lexicographic
//! order), decoding nothing.

use super::{
    downcast_sink, record_spill_stats, PartitionMerger, PartitionSlots, ResourceId, Resources,
    Sink, SinkFactory,
};
use crate::context::{ExecContext, Metrics};
use rpt_common::chunk::chunk_ranges;
use rpt_common::{ColumnData, DataChunk, Error, Result, ScalarValue, Schema, Vector, VECTOR_SIZE};
use rpt_storage::SpillBuffer;
use std::any::Any;
use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// One ORDER BY key, bound to a sink-input column position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    pub col: usize,
    pub desc: bool,
    pub nulls_first: bool,
}

/// Compare one value of `a` against one of `b` ascending, NULLs aside
/// (callers handle validity). Dictionary fast path: when both vectors are
/// backed by the *same* sorted dictionary, codes compare without decoding.
fn cmp_value(a: &Vector, ai: usize, b: &Vector, bi: usize) -> CmpOrdering {
    if let (Some(da), Some(db)) = (&a.dict, &b.dict) {
        if Arc::ptr_eq(da, db) {
            if let (ColumnData::Int64(ca), ColumnData::Int64(cb)) = (&a.data, &b.data) {
                return ca[ai].cmp(&cb[bi]);
            }
        }
    }
    match (&a.data, &b.data) {
        _ if a.dict.is_some() || b.dict.is_some() => a.utf8_at(ai).cmp(b.utf8_at(bi)),
        (ColumnData::Int64(va), ColumnData::Int64(vb)) => va[ai].cmp(&vb[bi]),
        (ColumnData::Float64(va), ColumnData::Float64(vb)) => va[ai].total_cmp(&vb[bi]),
        (ColumnData::Utf8(va), ColumnData::Utf8(vb)) => va[ai].cmp(&vb[bi]),
        (ColumnData::Bool(va), ColumnData::Bool(vb)) => va[ai].cmp(&vb[bi]),
        _ => CmpOrdering::Equal,
    }
}

/// Compare one column position of two chunks under a key's direction and
/// NULL placement.
fn cmp_key(
    a: &Vector,
    ai: usize,
    b: &Vector,
    bi: usize,
    desc: bool,
    nulls_first: bool,
) -> CmpOrdering {
    match (a.is_valid(ai), b.is_valid(bi)) {
        (false, false) => CmpOrdering::Equal,
        (false, true) => {
            if nulls_first {
                CmpOrdering::Less
            } else {
                CmpOrdering::Greater
            }
        }
        (true, false) => {
            if nulls_first {
                CmpOrdering::Greater
            } else {
                CmpOrdering::Less
            }
        }
        (true, true) => {
            let ord = cmp_value(a, ai, b, bi);
            if desc {
                ord.reverse()
            } else {
                ord
            }
        }
    }
}

/// Total-order row comparison: the declared keys first, then every column
/// left-to-right (ascending, NULLs first) as the tie-break. Both chunks
/// must be flattened (`ai`/`bi` are physical rows).
pub fn cmp_rows(
    keys: &[SortKey],
    a: &DataChunk,
    ai: usize,
    b: &DataChunk,
    bi: usize,
) -> CmpOrdering {
    for k in keys {
        let ord = cmp_key(
            &a.columns[k.col],
            ai,
            &b.columns[k.col],
            bi,
            k.desc,
            k.nulls_first,
        );
        if ord != CmpOrdering::Equal {
            return ord;
        }
    }
    for c in 0..a.num_columns() {
        let ord = cmp_key(&a.columns[c], ai, &b.columns[c], bi, false, true);
        if ord != CmpOrdering::Equal {
            return ord;
        }
    }
    CmpOrdering::Equal
}

/// The same total order over materialized [`ScalarValue`] rows — the
/// reference comparator differential tests sort their expected rows with.
pub fn cmp_scalar_rows(keys: &[SortKey], a: &[ScalarValue], b: &[ScalarValue]) -> CmpOrdering {
    fn cmp_cell(a: &ScalarValue, b: &ScalarValue, desc: bool, nulls_first: bool) -> CmpOrdering {
        match (a, b) {
            (ScalarValue::Null, ScalarValue::Null) => CmpOrdering::Equal,
            (ScalarValue::Null, _) => {
                if nulls_first {
                    CmpOrdering::Less
                } else {
                    CmpOrdering::Greater
                }
            }
            (_, ScalarValue::Null) => {
                if nulls_first {
                    CmpOrdering::Greater
                } else {
                    CmpOrdering::Less
                }
            }
            (ScalarValue::Float64(x), ScalarValue::Float64(y)) => {
                let ord = x.total_cmp(y);
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            }
            _ => {
                let ord = a.partial_cmp_sql(b).unwrap_or(CmpOrdering::Equal);
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            }
        }
    }
    for k in keys {
        let ord = cmp_cell(&a[k.col], &b[k.col], k.desc, k.nulls_first);
        if ord != CmpOrdering::Equal {
            return ord;
        }
    }
    for c in 0..a.len() {
        let ord = cmp_cell(&a[c], &b[c], false, true);
        if ord != CmpOrdering::Equal {
            return ord;
        }
    }
    CmpOrdering::Equal
}

/// Sort a flattened chunk's row indices under the total order.
fn sorted_indices(keys: &[SortKey], chunk: &DataChunk) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..chunk.num_rows() as u32).collect();
    idx.sort_unstable_by(|&x, &y| cmp_rows(keys, chunk, x as usize, chunk, y as usize));
    idx
}

/// Gather `indices` out of a flattened chunk (dictionary encodings
/// preserved via [`Vector::take`]).
fn gather(chunk: &DataChunk, indices: &[u32]) -> DataChunk {
    DataChunk::new(chunk.columns.iter().map(|c| c.take(indices)).collect())
}

/// Concatenate chunks into one flattened chunk (same-dictionary appends
/// keep their codes).
fn concat(schema: &Schema, chunks: Vec<DataChunk>) -> Result<DataChunk> {
    let mut iter = chunks.into_iter();
    let mut out = match iter.next() {
        Some(first) => first.flattened(),
        None => DataChunk::empty_like(schema),
    };
    for c in iter {
        out.append(&c)?;
    }
    Ok(out)
}

/// Sort a gathered run, keeping only the best `bound` rows when a TopK
/// bound applies. Returns the sorted chunk and the number of pruned rows.
fn sort_run(keys: &[SortKey], chunk: &DataChunk, bound: Option<usize>) -> (DataChunk, u64) {
    let mut idx = sorted_indices(keys, chunk);
    let mut pruned = 0u64;
    if let Some(b) = bound {
        if idx.len() > b {
            pruned = (idx.len() - b) as u64;
            idx.truncate(b);
        }
    }
    (gather(chunk, &idx), pruned)
}

/// One worker's per-partition accumulation state.
enum Run {
    /// TopK mode: resident rows, pruned back to `bound` whenever the run
    /// passes `2 × bound`.
    TopK(Option<DataChunk>),
    /// Full-sort mode: raw chunks behind the spill cap (boxed — the
    /// buffer dwarfs the TopK variant).
    Full(Box<SpillBuffer>),
}

impl Run {
    fn into_chunks(self, metrics: &Metrics) -> Result<Vec<DataChunk>> {
        match self {
            Run::TopK(data) => Ok(data.into_iter().collect()),
            Run::Full(mut buf) => {
                let chunks = buf.take_chunks()?;
                record_spill_stats(metrics, buf.stats());
                Ok(chunks)
            }
        }
    }
}

pub struct SortSink {
    buf_id: usize,
    keys: Arc<Vec<SortKey>>,
    /// `limit + offset`: the most rows any run ever needs to keep.
    bound: Option<usize>,
    limit: Option<usize>,
    offset: usize,
    schema: Schema,
    parts: Vec<Run>,
    next_round_robin: usize,
    rows: u64,
    /// Owned handle so pruning in `combine`/`finalize` (no ctx there)
    /// still lands in the query metrics.
    metrics: Arc<Metrics>,
}

impl SortSink {
    /// Append a chunk into a TopK run, pruning past `2 × bound`.
    fn push_topk(
        keys: &[SortKey],
        bound: usize,
        run: &mut Option<DataChunk>,
        chunk: &DataChunk,
        metrics: &Metrics,
    ) -> Result<()> {
        let data = match run.as_mut() {
            Some(data) => {
                data.append(chunk)?;
                data
            }
            None => run.insert(chunk.flattened()),
        };
        if data.num_rows() > bound.saturating_mul(2) {
            let (kept, pruned) = sort_run(keys, data, Some(bound));
            *data = kept;
            metrics.add(&metrics.sort_rows_pruned, pruned);
        }
        Ok(())
    }
}

impl Sink for SortSink {
    fn sink(&mut self, chunk: DataChunk, _ctx: &ExecContext) -> Result<()> {
        self.rows = self.rows.saturating_add(chunk.num_rows() as u64);
        if chunk.is_logically_empty() {
            return Ok(());
        }
        let p = self.next_round_robin;
        self.next_round_robin = (p + 1) % self.parts.len();
        let bound = self.bound;
        match &mut self.parts[p] {
            Run::TopK(run) => Self::push_topk(
                &self.keys,
                bound.ok_or_else(|| Error::Exec("TopK run without bound".into()))?,
                run,
                &chunk,
                &self.metrics,
            ),
            Run::Full(buf) => buf.push(chunk),
        }
    }

    fn combine(&mut self, other: Box<dyn Sink>) -> Result<()> {
        let other = downcast_sink::<SortSink>(other)?;
        self.rows = self.rows.saturating_add(other.rows);
        let bound = self.bound;
        for (mine, theirs) in self.parts.iter_mut().zip(other.parts) {
            match (mine, theirs) {
                (Run::TopK(run), theirs @ Run::TopK(_)) => {
                    for c in theirs.into_chunks(&self.metrics)? {
                        Self::push_topk(
                            &self.keys,
                            bound.ok_or_else(|| Error::Exec("TopK run without bound".into()))?,
                            run,
                            &c,
                            &self.metrics,
                        )?;
                    }
                }
                (Run::Full(buf), theirs) => {
                    for c in theirs.into_chunks(&self.metrics)? {
                        buf.push(c)?;
                    }
                }
                _ => return Err(Error::Exec("combining mismatched sort run modes".into())),
            }
        }
        Ok(())
    }

    fn rows(&self) -> u64 {
        self.rows
    }

    /// Serial path (no partitioned merge): sort every partition's run and
    /// loser-tree merge them into the globally ordered result.
    fn finalize(self: Box<Self>, res: &Resources) -> Result<()> {
        let mut sorted = Vec::with_capacity(self.parts.len());
        let mut total_pruned = 0u64;
        for run in self.parts {
            let gathered = concat(&self.schema, run.into_chunks(&self.metrics)?)?;
            let (chunk, pruned) = sort_run(&self.keys, &gathered, self.bound);
            total_pruned = total_pruned.saturating_add(pruned);
            self.metrics
                .max_update(&self.metrics.sort_max_run_rows, chunk.num_rows() as u64);
            sorted.push(chunk);
        }
        self.metrics
            .add(&self.metrics.sort_rows_pruned, total_pruned);
        let out = merge_sorted_runs(&self.keys, &self.schema, &sorted, self.offset, self.limit)?;
        res.publish_buffer(self.buf_id, out)
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Builds one [`SortSink`] per worker; lowered from `SinkSpec::Sort`.
pub struct SortSinkFactory {
    buf_id: usize,
    keys: Arc<Vec<SortKey>>,
    limit: Option<usize>,
    offset: usize,
    schema: Schema,
}

impl SortSinkFactory {
    pub fn new(
        buf_id: usize,
        keys: Vec<SortKey>,
        limit: Option<usize>,
        offset: usize,
        schema: Schema,
    ) -> SortSinkFactory {
        SortSinkFactory {
            buf_id,
            keys: Arc::new(keys),
            limit,
            offset,
            schema,
        }
    }

    fn bound(&self) -> Option<usize> {
        self.limit.map(|l| l.saturating_add(self.offset))
    }
}

impl SinkFactory for SortSinkFactory {
    fn make(&self, ctx: &ExecContext) -> Result<Box<dyn Sink>> {
        let parts = rpt_common::normalize_partition_count(ctx.partition_count);
        let bound = self.bound();
        let per_buffer_limit = ctx
            .spill_limit_bytes
            .map(|l| (l / ctx.threads.max(1) / parts).max(1))
            .unwrap_or(usize::MAX);
        let runs = (0..parts)
            .map(|_| match bound {
                Some(_) => Run::TopK(None),
                None => {
                    let mut buf = SpillBuffer::new(
                        self.schema.clone(),
                        per_buffer_limit,
                        ctx.spill_dir.clone(),
                    )
                    .with_encoding(ctx.spill_encoding)
                    .with_file_tag(ctx.query_id);
                    if let Some(gov) = &ctx.governor {
                        buf = buf.with_governor(gov.register(true));
                    }
                    Run::Full(Box::new(buf))
                }
            })
            .collect();
        Ok(Box::new(SortSink {
            buf_id: self.buf_id,
            keys: self.keys.clone(),
            bound,
            limit: self.limit,
            offset: self.offset,
            schema: self.schema.clone(),
            parts: runs,
            next_round_robin: 0,
            rows: 0,
            metrics: ctx.metrics.clone(),
        }))
    }

    fn writes(&self) -> Vec<ResourceId> {
        vec![ResourceId::Buffer(self.buf_id)]
    }

    fn partitioned_merge(&self, ctx: &ExecContext) -> bool {
        ctx.partition_count > 1
    }

    fn make_merger(
        &self,
        states: Vec<Box<dyn Sink>>,
        _ctx: &ExecContext,
    ) -> Result<Box<dyn PartitionMerger>> {
        let mut workers = Vec::with_capacity(states.len());
        for s in states {
            workers.push(*downcast_sink::<SortSink>(s)?);
        }
        let partitions = workers
            .first()
            .map(|w| w.parts.len())
            .ok_or_else(|| Error::Exec("partitioned sort merge without sink states".into()))?;
        let slots =
            PartitionSlots::transpose(workers.into_iter().map(|w| w.parts).collect(), partitions);
        Ok(Box::new(SortMerger {
            buf_id: self.buf_id,
            keys: self.keys.clone(),
            bound: self.bound(),
            limit: self.limit,
            offset: self.offset,
            schema: self.schema.clone(),
            partitions,
            slots,
            sorted: (0..partitions).map(|_| OnceLock::new()).collect(),
            max_task_rows: AtomicU64::new(0),
        }))
    }
}

/// Merge plan of a partitioned [`SortSink`]: task `p` gathers every
/// worker's partition-`p` run and sorts (TopK-prunes) it into one sorted
/// run; `finish` loser-tree merges the runs, applies `OFFSET`/`LIMIT`, and
/// publishes the globally ordered buffer. Nothing is published per
/// partition — the sort breaks the global order across partitions, so the
/// whole result seals at once (sort sinks are terminal; no consumer reads
/// their partitions early).
struct SortMerger {
    buf_id: usize,
    keys: Arc<Vec<SortKey>>,
    bound: Option<usize>,
    limit: Option<usize>,
    offset: usize,
    schema: Schema,
    partitions: usize,
    slots: PartitionSlots<Run>,
    /// Sorted run per partition, sealed by its merge task.
    sorted: Vec<OnceLock<DataChunk>>,
    max_task_rows: AtomicU64,
}

impl PartitionMerger for SortMerger {
    fn partitions(&self) -> usize {
        self.partitions
    }

    fn merge_partition(&self, part: usize, ctx: &ExecContext, _res: &Resources) -> Result<()> {
        let mut chunks = Vec::new();
        for run in self.slots.take(part)? {
            chunks.extend(run.into_chunks(&ctx.metrics)?);
        }
        let gathered = concat(&self.schema, chunks)?;
        self.max_task_rows
            .fetch_max(gathered.num_rows() as u64, Ordering::Relaxed);
        let (sorted, pruned) = sort_run(&self.keys, &gathered, self.bound);
        let m = &ctx.metrics;
        m.add(&m.sort_rows_pruned, pruned);
        m.add(&m.sort_merge_tasks, 1);
        m.max_update(&m.sort_max_run_rows, sorted.num_rows() as u64);
        self.sorted[part]
            .set(sorted)
            .map_err(|_| Error::Exec(format!("sort partition {part} merged twice")))
    }

    fn finish(&self, ctx: &ExecContext, res: &Resources) -> Result<()> {
        let mut runs = Vec::with_capacity(self.partitions);
        for (p, slot) in self.sorted.iter().enumerate() {
            runs.push(
                slot.get()
                    .cloned()
                    .ok_or_else(|| Error::Exec(format!("sort partition {p} never merged")))?,
            );
        }
        let out = merge_sorted_runs(&self.keys, &self.schema, &runs, self.offset, self.limit)?;
        ctx.metrics
            .trace_entry("[sort] partitions", self.partitions as u64);
        res.publish_buffer(self.buf_id, out)
    }

    fn max_task_rows(&self) -> u64 {
        self.max_task_rows.load(Ordering::Relaxed)
    }

    fn prefetch_parts(&self) -> Vec<usize> {
        (0..self.partitions)
            .filter(|&p| {
                let mut any = false;
                let _ = self.slots.with_slot(p, |runs| {
                    any = runs
                        .iter()
                        .any(|r| matches!(r, Run::Full(b) if b.has_spilled()));
                    Ok(())
                });
                any
            })
            .collect()
    }

    fn prefetch_partition(&self, part: usize, _ctx: &ExecContext) -> Result<()> {
        self.slots.with_slot(part, |runs| {
            for r in runs.iter_mut() {
                if let Run::Full(b) = r {
                    b.prefetch()?;
                }
            }
            Ok(())
        })
    }
}

/// A classic array loser tree over `k` sorted runs: `tree[0]` is the
/// current winner, internal nodes hold the loser of their subtree's match.
/// Pop is `O(log k)` comparisons — the streaming k-way merge of the sort
/// sink's `finish` phase.
struct LoserTree<'a> {
    keys: &'a [SortKey],
    runs: &'a [DataChunk],
    cursors: Vec<usize>,
    tree: Vec<usize>,
    k: usize,
}

impl<'a> LoserTree<'a> {
    fn new(keys: &'a [SortKey], runs: &'a [DataChunk]) -> LoserTree<'a> {
        let k = runs.len();
        let mut lt = LoserTree {
            keys,
            runs,
            cursors: vec![0; k],
            tree: vec![0; k.max(1)],
            k,
        };
        if k <= 1 {
            return lt;
        }
        // Build bottom-up over the implicit 2k-node tournament: leaves
        // `k..2k` are the runs, node `n`'s match is between its children's
        // winners; losers stay in `tree[n]`, the winner moves up.
        let mut winner = vec![0usize; 2 * k];
        for (i, w) in winner.iter_mut().enumerate().skip(k) {
            *w = i - k;
        }
        for n in (1..k).rev() {
            let (a, b) = (winner[2 * n], winner[2 * n + 1]);
            if lt.beats(a, b) {
                winner[n] = a;
                lt.tree[n] = b;
            } else {
                winner[n] = b;
                lt.tree[n] = a;
            }
        }
        lt.tree[0] = winner[1];
        lt
    }

    /// Does run `a`'s front row order before run `b`'s? Exhausted runs
    /// always lose; equal fronts break on the lower run index (equal rows
    /// are bytewise identical under the total order, so this only pins
    /// determinism).
    fn beats(&self, a: usize, b: usize) -> bool {
        let (ca, cb) = (self.cursors[a], self.cursors[b]);
        match (ca < self.runs[a].num_rows(), cb < self.runs[b].num_rows()) {
            (true, false) => true,
            (false, _) => false,
            (true, true) => match cmp_rows(self.keys, &self.runs[a], ca, &self.runs[b], cb) {
                CmpOrdering::Less => true,
                CmpOrdering::Greater => false,
                CmpOrdering::Equal => a < b,
            },
        }
    }

    /// Next `(run, row)` in global order, or `None` when all runs drain.
    fn pop(&mut self) -> Option<(usize, usize)> {
        let w = self.tree[0];
        if self.cursors[w] >= self.runs[w].num_rows() {
            return None;
        }
        let row = self.cursors[w];
        self.cursors[w] = self.cursors[w].saturating_add(1);
        // Replay the path from w's leaf to the root.
        let mut cur = w;
        let mut node = (self.k + w) / 2;
        while node >= 1 {
            if self.beats(self.tree[node], cur) {
                std::mem::swap(&mut self.tree[node], &mut cur);
            }
            node /= 2;
        }
        self.tree[0] = cur;
        Some((w, row))
    }
}

/// Stream the k-way merge of sorted runs, skip `offset` rows, emit at most
/// `limit`, and re-chunk the output at [`VECTOR_SIZE`].
fn merge_sorted_runs(
    keys: &[SortKey],
    schema: &Schema,
    runs: &[DataChunk],
    offset: usize,
    limit: Option<usize>,
) -> Result<Vec<DataChunk>> {
    let take = match limit {
        Some(0) => return Ok(Vec::new()),
        Some(n) => n,
        None => usize::MAX,
    };
    let mut tree = LoserTree::new(keys, runs);
    for _ in 0..offset {
        if tree.pop().is_none() {
            return Ok(Vec::new());
        }
    }
    // (run, row) pairs in global order, then columnar gather per output
    // chunk — runs keep their typed (possibly dictionary) payloads until
    // the final `get`/`push` materialization.
    let mut picked: Vec<(usize, usize)> = Vec::new();
    while picked.len() < take {
        match tree.pop() {
            Some(pair) => picked.push(pair),
            None => break,
        }
    }
    let mut out = Vec::new();
    for (start, len) in chunk_ranges(picked.len(), VECTOR_SIZE) {
        let mut columns = Vec::with_capacity(schema.fields.len());
        for (c, field) in schema.fields.iter().enumerate() {
            let mut v = Vector::new_empty(field.data_type);
            for &(run, row) in &picked[start..start + len] {
                v.push(&runs[run].columns[c].get(row))?;
            }
            columns.push(v);
        }
        out.push(DataChunk::new(columns));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_common::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", rpt_common::DataType::Int64),
            Field::new("s", rpt_common::DataType::Utf8),
        ])
    }

    fn chunk(vals: &[(i64, &str)]) -> DataChunk {
        DataChunk::new(vec![
            Vector::from_i64(vals.iter().map(|(a, _)| *a).collect()),
            Vector::from_utf8(vals.iter().map(|(_, s)| s.to_string()).collect()),
        ])
    }

    fn run_sort(
        factory: &SortSinkFactory,
        ctx: &ExecContext,
        chunks: Vec<DataChunk>,
    ) -> Vec<Vec<ScalarValue>> {
        let res = Resources::new(1, 0, 0);
        let mut sink = factory.make(ctx).expect("make");
        for c in chunks {
            sink.sink(c, ctx).expect("sink");
        }
        if factory.partitioned_merge(ctx) {
            factory
                .merge_partitioned("sort", vec![sink], ctx, &res)
                .expect("merge");
        } else {
            sink.finalize(&res).expect("finalize");
        }
        let out = res.buffer(0).expect("buffer");
        out.iter().flat_map(|c| c.rows()).collect()
    }

    #[test]
    fn sorts_and_limits_across_partitions() {
        let keys = vec![SortKey {
            col: 0,
            desc: true,
            nulls_first: true,
        }];
        let data = vec![
            chunk(&[(3, "c"), (1, "a")]),
            chunk(&[(7, "g"), (5, "e")]),
            chunk(&[(2, "b"), (6, "f")]),
        ];
        for parts in [1usize, 4] {
            let ctx = ExecContext::new().with_partitions(parts);
            let factory = SortSinkFactory::new(0, keys.clone(), Some(3), 1, schema());
            let rows = run_sort(&factory, &ctx, data.clone());
            assert_eq!(
                rows,
                vec![
                    vec![ScalarValue::Int64(6), ScalarValue::Utf8("f".into())],
                    vec![ScalarValue::Int64(5), ScalarValue::Utf8("e".into())],
                    vec![ScalarValue::Int64(3), ScalarValue::Utf8("c".into())],
                ],
                "parts={parts}"
            );
        }
    }

    #[test]
    fn topk_prunes_runs_and_counts_rows() {
        let keys = vec![SortKey {
            col: 0,
            desc: false,
            nulls_first: false,
        }];
        let ctx = ExecContext::new().with_partitions(1);
        let factory = SortSinkFactory::new(0, keys, Some(2), 0, schema());
        let chunks: Vec<DataChunk> = (0..8)
            .map(|i| chunk(&[(i * 2, "x"), (i * 2 + 1, "y")]))
            .collect();
        let rows = run_sort(&factory, &ctx, chunks);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], ScalarValue::Int64(0));
        assert_eq!(rows[1][0], ScalarValue::Int64(1));
        let m = ctx.metrics.summary();
        assert!(m.sort_rows_pruned > 0, "TopK never pruned: {m:?}");
        assert!(
            m.sort_max_run_rows <= 2,
            "run kept more than the bound: {m:?}"
        );
    }

    #[test]
    fn null_ordering_is_explicit() {
        let keys = vec![SortKey {
            col: 0,
            desc: false,
            nulls_first: true,
        }];
        let mut v = Vector::from_i64(vec![5, 0, 3]);
        v.validity = Some(vec![true, false, true]);
        let c = DataChunk::new(vec![
            v,
            Vector::from_utf8(vec!["a".into(), "b".into(), "c".into()]),
        ]);
        let ctx = ExecContext::new().with_partitions(1);
        let factory = SortSinkFactory::new(0, keys, None, 0, schema());
        let rows = run_sort(&factory, &ctx, vec![c]);
        assert_eq!(rows[0][0], ScalarValue::Null);
        assert_eq!(rows[1][0], ScalarValue::Int64(3));
        assert_eq!(rows[2][0], ScalarValue::Int64(5));
    }

    #[test]
    fn loser_tree_matches_flat_sort() {
        let keys = vec![SortKey {
            col: 0,
            desc: false,
            nulls_first: false,
        }];
        // Three pre-sorted runs of uneven length (one empty).
        let runs = vec![
            chunk(&[(1, "a"), (4, "d"), (9, "i")]),
            chunk(&[]),
            chunk(&[(2, "b"), (3, "c"), (5, "e"), (8, "h")]),
        ];
        let merged = merge_sorted_runs(&keys, &schema(), &runs, 0, None).expect("merge");
        let got: Vec<i64> = merged
            .iter()
            .flat_map(|c| c.rows())
            .map(|r| match r[0] {
                ScalarValue::Int64(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 8, 9]);
    }
}
