//! Partitioned sort / TopK sink: the `ORDER BY [LIMIT]` pipeline breaker.
//!
//! Workers accumulate **unsorted runs**, routed chunk-granular round-robin
//! across `ctx.partition_count` partitions (order across partitions is
//! irrelevant — every row is re-ordered anyway, so routing stays copy-free).
//! With a TopK bound (`LIMIT n [OFFSET k]` ⇒ bound = `n + k`) a run is cut
//! back to its best `bound` rows whenever it grows past `2 × bound`. After
//! the first cut the run's `bound`-th row is its **boundary**: an incoming
//! row that does not order before it can never be output, so it is dropped
//! before it is copied. Every discarded row, cut or filtered, is counted in
//! `sort_rows_pruned`. Unbounded sorts accumulate through a [`SpillBuffer`]
//! instead, so runs larger than the memory cap spill to disk like any other
//! materializing sink.
//!
//! The merge is the standard two-phase partitioned plan: one parallel task
//! per partition concatenates every worker's runs for that partition and
//! sorts (or TopK-prunes) them into a single sorted run
//! (`sort_merge_tasks`, `sort_max_run_rows`), then `finish` streams a
//! k-way **loser-tree** merge over the per-partition sorted runs, applies
//! `OFFSET`/`LIMIT`, gathers the typed payloads of the picked rows, and
//! publishes the globally ordered result.
//!
//! Ordering contract: keys compare with explicit NULL placement
//! (`nulls_first`), descending keys reverse the value order only. After the
//! declared keys, rows tie-break on **every other column** left-to-right
//! (ascending, NULLs first) — a total order, so the published result is
//! identical regardless of thread count or partitioning, which is what lets
//! the differential corpus assert exact ordered-row equality.
//!
//! **Normalized keys.** Each run encodes that column sequence once into a
//! fixed number of `u64` words per row whose lexicographic order is the
//! total order ([`Layout`]): `Int64` with the sign bit flipped, `Float64`
//! through the `total_cmp` bit transform, `Bool` as is, dictionary `Utf8`
//! by its code (dictionaries are sorted), `DESC` as the bitwise NOT, and a
//! NULL-rank word before the value of every column that carries a validity
//! mask. A flat `Utf8` column, or a dictionary that differs between the
//! runs being compared, ends the encodable prefix; rows tied on the prefix
//! compare the remaining columns value by value. The run sort, the TopK
//! boundary test and the loser tree all compare these words.

use super::{
    downcast_states, governed_run, lock_or_err, restore_runs, PartitionMerger, PartitionSlots,
    Resources, Sink, SinkFactory,
};
use crate::context::{ExecContext, Metrics};
use rpt_common::chunk::chunk_ranges;
use rpt_common::{
    ColumnData, DataChunk, DataType, Error, Result, ScalarValue, Schema, Vector, VECTOR_SIZE,
};
use rpt_storage::SpillBuffer;
use std::any::Any;
use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
        // Unreachable: `Layout::new` checked every compared chunk against
        // the sink schema.
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

const SIGN: u64 = 1 << 63;

/// `f64` bits mapped so that unsigned order is [`f64::total_cmp`] order
/// (negative NaN < -inf < … < -0.0 < +0.0 < … < +inf < NaN).
fn float_word(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits & SIGN == 0 {
        bits | SIGN
    } else {
        !bits
    }
}

/// One column of the encodable prefix: its place in the order and the
/// first of its key words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    key: SortKey,
    /// Some compared chunk carries a validity mask for the column: a NULL
    /// rank word precedes the value word.
    ranked: bool,
    word: usize,
}

/// The normalized-key layout of a set of chunks compared with each other:
/// the total order's column sequence (declared keys, then every other
/// column ascending with NULLs first) split into an encodable prefix of
/// `width` words per row and a `tail` compared value by value.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Layout {
    segments: Vec<Segment>,
    tail: Vec<SortKey>,
    width: usize,
}

/// Do two vectors hold the same encoding: both flat, or codes into one
/// dictionary?
fn same_dict(a: &Vector, b: &Vector) -> bool {
    match (&a.dict, &b.dict) {
        (Some(x), Some(y)) => Arc::ptr_eq(x, y),
        (None, None) => true,
        _ => false,
    }
}

impl Layout {
    /// Check `chunks` against the sink schema and lay out the key they
    /// share. A column ends the prefix when it is flat `Utf8` in some
    /// chunk or its encoding differs between chunks.
    fn new(keys: &[SortKey], schema: &Schema, chunks: &[&DataChunk]) -> Result<Layout> {
        let expected = || schema.fields.iter().map(|f| f.data_type);
        for chunk in chunks {
            if !chunk.columns.iter().map(Vector::data_type).eq(expected()) {
                let got: Vec<DataType> = chunk.columns.iter().map(Vector::data_type).collect();
                return Err(Error::Exec(format!(
                    "sort input columns {got:?} do not match the schema {:?}",
                    expected().collect::<Vec<_>>()
                )));
            }
        }
        let rest = (0..schema.fields.len())
            .filter(|c| keys.iter().all(|k| k.col != *c))
            .map(|col| SortKey {
                col,
                desc: false,
                nulls_first: true,
            });
        let mut layout = Layout {
            segments: Vec::new(),
            tail: Vec::new(),
            width: 0,
        };
        for key in keys.iter().copied().chain(rest) {
            let cols = || chunks.iter().map(|ch| &ch.columns[key.col]);
            let flat_utf8 = cols().any(|v| !v.is_dict() && v.data_type() == DataType::Utf8);
            let shared = chunks
                .windows(2)
                .all(|w| same_dict(&w[0].columns[key.col], &w[1].columns[key.col]));
            if !layout.tail.is_empty() || flat_utf8 || !shared {
                layout.tail.push(key);
                continue;
            }
            let ranked = cols().any(|v| v.validity.is_some());
            layout.segments.push(Segment {
                key,
                ranked,
                word: layout.width,
            });
            layout.width = layout.width.saturating_add(1 + usize::from(ranked));
        }
        Ok(layout)
    }

    /// The key words of `rows` (physical indices; all rows when `None`) of
    /// `chunk`, `width` words per row.
    fn encode(&self, chunk: &DataChunk, rows: Option<&[u32]>) -> Result<Vec<u64>> {
        let n = rows.map_or(chunk.capacity_rows(), <[u32]>::len);
        let mut out = vec![0u64; n.saturating_mul(self.width)];
        for seg in &self.segments {
            let v = &chunk.columns[seg.key.col];
            match rows {
                None => self.encode_column(&mut out, seg, v, |i| i)?,
                Some(rows) => self.encode_column(&mut out, seg, v, |i| rows[i] as usize)?,
            }
        }
        Ok(out)
    }

    fn encode_column(
        &self,
        out: &mut [u64],
        seg: &Segment,
        v: &Vector,
        row: impl Fn(usize) -> usize,
    ) -> Result<()> {
        let flip = if seg.key.desc { u64::MAX } else { 0 };
        match &v.data {
            ColumnData::Int64(d) => self.fill(out, seg, v, row, |r| (d[r] as u64 ^ SIGN) ^ flip),
            ColumnData::Float64(d) => self.fill(out, seg, v, row, |r| float_word(d[r]) ^ flip),
            ColumnData::Bool(d) => self.fill(out, seg, v, row, |r| u64::from(d[r]) ^ flip),
            ColumnData::Utf8(_) => {
                return Err(Error::Exec(
                    "flat Utf8 column inside a normalized sort key".into(),
                ))
            }
        }
        Ok(())
    }

    /// Write one segment's words for every row: the value word, preceded
    /// by the NULL rank when the segment is ranked. NULL rows get value
    /// word 0, so two NULLs tie and the next column decides.
    fn fill(
        &self,
        out: &mut [u64],
        seg: &Segment,
        v: &Vector,
        row: impl Fn(usize) -> usize,
        word: impl Fn(usize) -> u64,
    ) {
        let (null_rank, valid_rank) = if seg.key.nulls_first { (0, 1) } else { (1, 0) };
        let value_at = seg.word + usize::from(seg.ranked);
        for (i, k) in out.chunks_exact_mut(self.width).enumerate() {
            let r = row(i);
            let valid = v.is_valid(r);
            if seg.ranked {
                k[seg.word] = if valid { valid_rank } else { null_rank };
            }
            k[value_at] = if valid { word(r) } else { 0 };
        }
    }

    /// Compare two rows on the columns past the encodable prefix (rows
    /// whose key words tie). `Equal` at once when the prefix is the whole
    /// row.
    fn cmp_tail(&self, a: &DataChunk, ai: usize, b: &DataChunk, bi: usize) -> CmpOrdering {
        for k in &self.tail {
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
        CmpOrdering::Equal
    }

    /// Row indices of a flattened `chunk` sorted by (key words, tail,
    /// row index).
    fn sorted_order(&self, chunk: &DataChunk, words: &[u64]) -> Vec<u32> {
        let w = self.width;
        let key = |i: u32| &words[i as usize * w..][..w];
        let mut idx: Vec<u32> = (0..chunk.capacity_rows() as u32).collect();
        idx.sort_unstable_by(|&a, &b| {
            key(a)
                .cmp(key(b))
                .then_with(|| self.cmp_tail(chunk, a as usize, chunk, b as usize))
                .then(a.cmp(&b))
        });
        idx
    }
}

/// A sorted run and its key words under `layout`.
struct SortedRun {
    chunk: DataChunk,
    layout: Layout,
    words: Vec<u64>,
}

impl SortedRun {
    fn key(&self, row: usize) -> &[u64] {
        let w = self.layout.width;
        &self.words[row * w..][..w]
    }
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

/// Sort a flattened run on its normalized keys, keeping only the best
/// `bound` rows when a TopK bound applies; payloads and key words are
/// gathered once, in order. Returns the run and the number of pruned rows.
fn sort_run(
    keys: &[SortKey],
    schema: &Schema,
    chunk: &DataChunk,
    bound: Option<usize>,
) -> Result<(SortedRun, u64)> {
    let layout = Layout::new(keys, schema, &[chunk])?;
    let words = layout.encode(chunk, None)?;
    let mut order = layout.sorted_order(chunk, &words);
    let mut pruned = 0u64;
    if let Some(b) = bound {
        if order.len() > b {
            pruned = (order.len() - b) as u64;
            order.truncate(b);
        }
    }
    let w = layout.width;
    let words = order
        .iter()
        .flat_map(|&i| &words[i as usize * w..][..w])
        .copied()
        .collect();
    let chunk = chunk.take_rows(&order);
    Ok((
        SortedRun {
            chunk,
            layout,
            words,
        },
        pruned,
    ))
}

/// One worker's per-partition TopK run: resident rows, cut back to the
/// best `bound` rows, sorted, whenever it passes `2 × bound`. Once cut,
/// row `bound - 1` is the run's boundary.
struct TopKRun {
    bound: usize,
    data: Option<DataChunk>,
    cut: bool,
}

impl TopKRun {
    /// Add a chunk's rows, dropping those the boundary rejects.
    fn push(
        &mut self,
        chunk: &DataChunk,
        keys: &[SortKey],
        schema: &Schema,
        metrics: &Metrics,
    ) -> Result<()> {
        let bound = self.bound;
        if bound == 0 {
            metrics.add(&metrics.sort_rows_pruned, chunk.num_rows() as u64);
            return Ok(());
        }
        let data = match self.data.as_mut() {
            Some(data) if self.cut => {
                let keep = rows_before(keys, schema, data, bound - 1, chunk)?;
                metrics.add(
                    &metrics.sort_rows_pruned,
                    (chunk.num_rows() - keep.len()) as u64,
                );
                data.append_rows(chunk, &keep)?;
                data
            }
            Some(data) => {
                data.append(chunk)?;
                data
            }
            None => self.data.insert(chunk.flattened()),
        };
        if data.num_rows() > bound.saturating_mul(2) {
            let (kept, pruned) = sort_run(keys, schema, data, Some(bound))?;
            *data = kept.chunk;
            self.cut = true;
            metrics.add(&metrics.sort_rows_pruned, pruned);
        }
        Ok(())
    }
}

/// The physical rows of `chunk` (logical rows, in order) that order
/// strictly before row `edge` of `data`.
fn rows_before(
    keys: &[SortKey],
    schema: &Schema,
    data: &DataChunk,
    edge: usize,
    chunk: &DataChunk,
) -> Result<Vec<u32>> {
    let layout = Layout::new(keys, schema, &[data, chunk])?;
    let edge_key = layout.encode(data, Some(&[edge as u32]))?;
    let rows: Vec<u32> = (0..chunk.num_rows())
        .map(|i| chunk.physical_index(i) as u32)
        .collect();
    let words = layout.encode(chunk, Some(&rows))?;
    let w = layout.width;
    Ok(rows
        .iter()
        .enumerate()
        .filter(|&(i, &r)| {
            words[i * w..][..w]
                .cmp(&edge_key)
                .then_with(|| layout.cmp_tail(chunk, r as usize, data, edge))
                == CmpOrdering::Less
        })
        .map(|(_, &r)| r)
        .collect())
}

/// One worker's per-partition accumulation state.
enum Run {
    /// TopK mode: a bounded resident run.
    TopK(TopKRun),
    /// Full-sort mode: raw chunks in a governed spill buffer, evicted when
    /// the memory governor flags it (boxed — the buffer dwarfs the TopK
    /// variant).
    Full(Box<SpillBuffer>),
}

impl Run {
    fn into_chunks(self, metrics: &Metrics) -> Result<Vec<DataChunk>> {
        match self {
            Run::TopK(run) => Ok(run.data.into_iter().collect()),
            Run::Full(buf) => restore_runs([*buf], metrics),
        }
    }
}

pub struct SortSink {
    keys: Arc<Vec<SortKey>>,
    schema: Schema,
    parts: Vec<Run>,
    next_round_robin: usize,
    rows: u64,
}

impl Sink for SortSink {
    fn sink(&mut self, chunk: DataChunk, ctx: &ExecContext) -> Result<()> {
        self.rows = self.rows.saturating_add(chunk.num_rows() as u64);
        if chunk.is_logically_empty() {
            return Ok(());
        }
        let p = self.next_round_robin;
        self.next_round_robin = (p + 1) % self.parts.len();
        match &mut self.parts[p] {
            Run::TopK(run) => run.push(&chunk, &self.keys, &self.schema, &ctx.metrics),
            Run::Full(buf) => buf.push(chunk),
        }
    }

    fn rows(&self) -> u64 {
        self.rows
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
        let runs = (0..parts)
            .map(|_| match bound {
                Some(bound) => Run::TopK(TopKRun {
                    bound,
                    data: None,
                    cut: false,
                }),
                None => Run::Full(Box::new(governed_run(&self.schema, true, ctx))),
            })
            .collect();
        Ok(Box::new(SortSink {
            keys: self.keys.clone(),
            schema: self.schema.clone(),
            parts: runs,
            next_round_robin: 0,
            rows: 0,
        }))
    }

    fn make_merger(
        &self,
        states: Vec<Box<dyn Sink>>,
        _ctx: &ExecContext,
    ) -> Result<Box<dyn PartitionMerger>> {
        let workers = downcast_states::<SortSink>(states)?;
        let partitions = workers[0].parts.len();
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
            sorted: (0..partitions).map(|_| Mutex::new(None)).collect(),
            max_task_rows: AtomicU64::new(0),
        }))
    }
}

/// Merge plan of a [`SortSink`]: task `p` gathers every
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
    /// Sorted run per partition, set by its merge task and taken by
    /// `finish`.
    sorted: Vec<Mutex<Option<SortedRun>>>,
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
        let (sorted, pruned) = sort_run(&self.keys, &self.schema, &gathered, self.bound)?;
        let m = &ctx.metrics;
        m.add(&m.sort_rows_pruned, pruned);
        m.add(&m.sort_merge_tasks, 1);
        m.max_update(&m.sort_max_run_rows, sorted.chunk.num_rows() as u64);
        if lock_or_err(&self.sorted[part], "sorted run")?
            .replace(sorted)
            .is_some()
        {
            return Err(Error::Exec(format!("sort partition {part} merged twice")));
        }
        Ok(())
    }

    fn finish(&self, _ctx: &ExecContext, res: &Resources) -> Result<()> {
        let mut runs = Vec::with_capacity(self.partitions);
        for (p, slot) in self.sorted.iter().enumerate() {
            runs.push(
                lock_or_err(slot, "sorted run")?
                    .take()
                    .ok_or_else(|| Error::Exec(format!("sort partition {p} never merged")))?,
            );
        }
        let out = merge_sorted_runs(&self.keys, &self.schema, runs, self.offset, self.limit)?;
        res.publish_buffer(self.buf_id, out)
    }

    fn max_task_rows(&self) -> u64 {
        self.max_task_rows.load(Ordering::Relaxed)
    }
}

/// A classic array loser tree over `k` sorted runs: `tree[0]` is the
/// current winner, internal nodes hold the loser of their subtree's match.
/// Every entry carries its run's front key word: fronts that differ decide
/// a match in one integer compare, and only equal fronts read the rest of
/// the key (a nullable leading column's front word is its NULL rank, which
/// mostly ties, so those merges compare full keys). Pop is `O(log k)`
/// matches — the streaming k-way merge of the sort sink's `finish` phase.
struct LoserTree<'a> {
    layout: &'a Layout,
    runs: &'a [SortedRun],
    cursors: Vec<usize>,
    /// `(front word, run)`; the front word is `u64::MAX` once the run
    /// drains (or when the key has no words), which only ties, never wins.
    tree: Vec<(u64, usize)>,
    k: usize,
}

impl<'a> LoserTree<'a> {
    /// `runs` must all carry their key words under `layout`.
    fn new(layout: &'a Layout, runs: &'a [SortedRun]) -> LoserTree<'a> {
        let k = runs.len();
        let mut lt = LoserTree {
            layout,
            runs,
            cursors: vec![0; k],
            tree: vec![(u64::MAX, 0); k.max(1)],
            k,
        };
        if k == 0 {
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
            let (win, lose) = if lt.beats(a, b) { (a, b) } else { (b, a) };
            winner[n] = win;
            lt.tree[n] = lt.entry(lose);
        }
        lt.tree[0] = lt.entry(winner[1]);
        lt
    }

    fn entry(&self, run: usize) -> (u64, usize) {
        let at = self.cursors[run].saturating_mul(self.layout.width);
        let front = self.runs[run].words.get(at).copied();
        (front.unwrap_or(u64::MAX), run)
    }

    /// Does run `a`'s front row order before run `b`'s? Exhausted runs
    /// always lose; equal fronts break on the lower run index (equal rows
    /// are identical under the total order, so this only pins
    /// determinism).
    fn beats(&self, a: usize, b: usize) -> bool {
        let (ra, rb) = (&self.runs[a], &self.runs[b]);
        let (ca, cb) = (self.cursors[a], self.cursors[b]);
        match (ca < ra.chunk.num_rows(), cb < rb.chunk.num_rows()) {
            (true, false) => true,
            (false, _) => false,
            (true, true) => match ra
                .key(ca)
                .cmp(rb.key(cb))
                .then_with(|| self.layout.cmp_tail(&ra.chunk, ca, &rb.chunk, cb))
            {
                CmpOrdering::Less => true,
                CmpOrdering::Greater => false,
                CmpOrdering::Equal => a < b,
            },
        }
    }

    /// Next `(run, row)` in global order, or `None` when all runs drain.
    fn pop(&mut self) -> Option<(usize, usize)> {
        let (_, w) = self.tree[0];
        let row = *self.cursors.get(w)?;
        if row >= self.runs[w].chunk.num_rows() {
            return None;
        }
        self.cursors[w] = row.saturating_add(1);
        // Replay the path from w's leaf to the root. A smaller front word
        // decides a match; equal words compare the full keys.
        let mut cur = self.entry(w);
        let mut node = (self.k + w) / 2;
        while node >= 1 {
            let other = self.tree[node];
            if other.0 < cur.0 || (other.0 == cur.0 && self.beats(other.1, cur.1)) {
                self.tree[node] = cur;
                cur = other;
            }
            node /= 2;
        }
        self.tree[0] = cur;
        Some((w, row))
    }
}

/// Stream the k-way merge of sorted runs, skip `offset` rows, emit at most
/// `limit`, and gather the output in [`VECTOR_SIZE`] chunks. The runs'
/// key words are compared where every run shares the layout the merge
/// needs; a run encoded under another layout is encoded again first.
fn merge_sorted_runs(
    keys: &[SortKey],
    schema: &Schema,
    runs: Vec<SortedRun>,
    offset: usize,
    limit: Option<usize>,
) -> Result<Vec<DataChunk>> {
    let take = match limit {
        Some(0) => return Ok(Vec::new()),
        Some(n) => n,
        None => usize::MAX,
    };
    let mut runs: Vec<SortedRun> = runs
        .into_iter()
        .filter(|r| r.chunk.num_rows() > 0)
        .collect();
    let layout = {
        let chunks: Vec<&DataChunk> = runs.iter().map(|r| &r.chunk).collect();
        Layout::new(keys, schema, &chunks)?
    };
    for run in &mut runs {
        if run.layout != layout {
            run.words = layout.encode(&run.chunk, None)?;
            run.layout = layout.clone();
        }
    }
    let mut tree = LoserTree::new(&layout, &runs);
    for _ in 0..offset {
        if tree.pop().is_none() {
            return Ok(Vec::new());
        }
    }
    let mut picked: Vec<(u32, u32)> = Vec::new();
    while picked.len() < take {
        match tree.pop() {
            Some((run, row)) => picked.push((run as u32, row as u32)),
            None => break,
        }
    }
    Ok(chunk_ranges(picked.len(), VECTOR_SIZE)
        .map(|(start, len)| {
            let picked = &picked[start..start + len];
            DataChunk::new(
                (0..schema.fields.len())
                    .map(|c| gather_column(&runs, c, picked))
                    .collect(),
            )
        })
        .collect())
}

/// Column `c` of the picked `(run, row)` pairs (non-empty, so `runs` is
/// too) as one typed vector. A dictionary shared by every run stays
/// encoded; strings under differing dictionaries are decoded.
fn gather_column(runs: &[SortedRun], c: usize, picked: &[(u32, u32)]) -> Vector {
    let cols: Vec<&Vector> = runs.iter().map(|r| &r.chunk.columns[c]).collect();
    let validity = cols.iter().any(|v| v.validity.is_some()).then(|| {
        picked
            .iter()
            .map(|&(run, row)| cols[run as usize].is_valid(row as usize))
            .collect()
    });
    let dict = cols
        .windows(2)
        .all(|w| same_dict(w[0], w[1]))
        .then(|| cols[0].dict.clone())
        .flatten();
    let data = match (&dict, cols[0].data_type()) {
        (Some(_), _) | (None, DataType::Int64) => {
            ColumnData::Int64(pick(&cols, picked, Vector::i64_slice))
        }
        (None, DataType::Float64) => ColumnData::Float64(pick(&cols, picked, Vector::f64_slice)),
        (None, DataType::Bool) => ColumnData::Bool(pick(&cols, picked, Vector::bool_slice)),
        (None, DataType::Utf8) => ColumnData::Utf8(
            picked
                .iter()
                .map(|&(run, row)| cols[run as usize].utf8_at(row as usize).to_string())
                .collect(),
        ),
    };
    Vector {
        data,
        validity,
        dict,
    }
}

/// Gather fixed-width payloads of the picked `(run, row)` pairs.
fn pick<T: Copy>(cols: &[&Vector], picked: &[(u32, u32)], slice: fn(&Vector) -> &[T]) -> Vec<T> {
    let src: Vec<&[T]> = cols.iter().map(|v| slice(v)).collect();
    picked
        .iter()
        .map(|&(run, row)| src[run as usize][row as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_common::{Field, Utf8Dict};

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
        factory
            .merge_partitioned(vec![sink], ctx, &res)
            .expect("merge");
        let out = res.buffer(0).expect("buffer");
        out.iter().flat_map(|c| c.rows()).collect()
    }

    fn asc(col: usize) -> SortKey {
        SortKey {
            col,
            desc: false,
            nulls_first: false,
        }
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
        let ctx = ExecContext::new().with_partitions(1);
        let factory = SortSinkFactory::new(0, vec![asc(0)], Some(2), 0, schema());
        let chunks: Vec<DataChunk> = (0..8)
            .map(|i| chunk(&[(i * 2, "x"), (i * 2 + 1, "y")]))
            .collect();
        let rows = run_sort(&factory, &ctx, chunks);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], ScalarValue::Int64(0));
        assert_eq!(rows[1][0], ScalarValue::Int64(1));
        let m = ctx.metrics.summary();
        assert_eq!(m.sort_rows_pruned, 14, "{m:?}");
        assert!(
            m.sort_max_run_rows <= 2,
            "run kept more than the bound: {m:?}"
        );
    }

    /// After the first cut, rows that do not beat the boundary are counted
    /// and never copied into the run.
    #[test]
    fn topk_boundary_drops_rows_before_copying() {
        let metrics = Metrics::default();
        let mut run = TopKRun {
            bound: 2,
            data: None,
            cut: false,
        };
        let push = |run: &mut TopKRun, vals: &[(i64, &str)]| {
            run.push(&chunk(vals), &[asc(0)], &schema(), &metrics)
                .expect("push");
        };
        push(
            &mut run,
            &[(10, "a"), (9, "b"), (8, "c"), (7, "d"), (6, "e")],
        );
        assert!(run.cut);
        assert_eq!(metrics.summary().sort_rows_pruned, 3);
        // Only 5 orders before the boundary (7); 7 itself ties and is
        // dropped too.
        push(&mut run, &[(100, "z"), (5, "f"), (7, "d"), (50, "y")]);
        let kept = run.data.as_ref().expect("resident run");
        assert_eq!(kept.num_rows(), 3);
        assert_eq!(kept.value(0, 2), ScalarValue::Int64(5));
        assert_eq!(metrics.summary().sort_rows_pruned, 6);
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

    fn sorted(keys: &[SortKey], schema: &Schema, c: &DataChunk) -> SortedRun {
        sort_run(keys, schema, c, None).expect("sort run").0
    }

    #[test]
    fn loser_tree_matches_flat_sort() {
        let keys = vec![asc(0)];
        // Three pre-sorted runs of uneven length (one empty).
        let runs = [
            chunk(&[(1, "a"), (4, "d"), (9, "i")]),
            chunk(&[]),
            chunk(&[(2, "b"), (3, "c"), (5, "e"), (8, "h")]),
        ]
        .iter()
        .map(|c| sorted(&keys, &schema(), c))
        .collect();
        let merged = merge_sorted_runs(&keys, &schema(), runs, 0, None).expect("merge");
        let got: Vec<i64> = merged
            .iter()
            .flat_map(|c| c.rows())
            .map(|r| match r[0] {
                ScalarValue::Int64(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 8, 9]);
        // Nothing but empty runs: nothing to merge.
        let empty = vec![sorted(&keys, &schema(), &chunk(&[]))];
        let merged = merge_sorted_runs(&keys, &schema(), empty, 0, None).expect("merge");
        assert!(merged.is_empty());
    }

    #[test]
    fn float_words_follow_total_cmp() {
        let vals = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in vals {
            for b in vals {
                assert_eq!(
                    float_word(a).cmp(&float_word(b)),
                    a.total_cmp(&b),
                    "{a} {b}"
                );
            }
        }
    }

    /// The key covers columns up to the first flat string or dictionary
    /// that differs between the compared chunks; NULL rank words only
    /// where a validity mask exists.
    #[test]
    fn layout_prefix_ends_at_flat_strings_and_foreign_dicts() {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("d", DataType::Utf8),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ]);
        let dict = Utf8Dict::from_values(["x", "y"]);
        let make = |dict: &Arc<Utf8Dict>, nulls: bool| {
            let mut f = Vector::from_f64(vec![1.0, 2.0]);
            if nulls {
                f.validity = Some(vec![true, false]);
            }
            DataChunk::new(vec![
                Vector::from_i64(vec![1, 2]),
                Vector::from_dict_codes(vec![0, 1], None, dict.clone()),
                f,
                Vector::from_utf8(vec!["p".into(), "q".into()]),
            ])
        };
        let (a, b) = (make(&dict, false), make(&dict, true));
        let keys = [SortKey {
            col: 2,
            desc: true,
            nulls_first: false,
        }];
        let l = Layout::new(&keys, &schema, &[&a, &b]).expect("layout");
        let cols: Vec<usize> = l.segments.iter().map(|s| s.key.col).collect();
        assert_eq!(cols, vec![2, 0, 1]);
        assert!(l.segments[0].ranked && !l.segments[1].ranked);
        assert_eq!(l.width, 4);
        assert_eq!(l.tail.iter().map(|k| k.col).collect::<Vec<_>>(), vec![3]);

        let other = make(&Utf8Dict::from_values(["x", "y"]), false);
        let l = Layout::new(&keys, &schema, &[&a, &other]).expect("layout");
        assert_eq!(l.segments.len(), 2);
        assert_eq!(l.tail.iter().map(|k| k.col).collect::<Vec<_>>(), vec![1, 3]);
    }

    /// Runs whose payload types disagree with each other or with the
    /// schema fail the query instead of comparing `Equal` or panicking.
    #[test]
    fn mismatched_run_types_are_an_error() {
        let floats = Schema::new(vec![
            Field::new("a", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ]);
        let f = DataChunk::new(vec![
            Vector::from_f64(vec![1.0]),
            Vector::from_utf8(vec!["a".into()]),
        ]);
        let keys = [asc(0)];
        assert!(matches!(
            sort_run(&keys, &schema(), &f, None),
            Err(Error::Exec(_))
        ));
        let runs = vec![
            sorted(&keys, &schema(), &chunk(&[(1, "a")])),
            sorted(&keys, &floats, &f),
        ];
        assert!(matches!(
            merge_sorted_runs(&keys, &schema(), runs, 0, None),
            Err(Error::Exec(_))
        ));
    }
}
