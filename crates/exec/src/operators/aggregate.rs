//! Hash-aggregation sink; the merged result is published as a buffer.
//!
//! With `partition_count > 1` and at least one group column, every worker
//! keeps one [`AggregateState`] *per hash partition* and radix-routes each
//! input row by its group-key hash (computed once per chunk, vectorized,
//! and reused as the group table's hash — see
//! [`crate::aggregate::AggregateState`]). The driver's merge then runs
//! one task per partition ([`AggregateMerger`]): task `p` merges every
//! worker's partition-`p` state, finalizes it, and seals that buffer
//! partition — GROUP BY merges never re-serialize over the full group set,
//! and a downstream consumer of the aggregate buffer becomes runnable the
//! moment its partition seals.
//!
//! Global (no-group) aggregates stay single-partition: their "merge" is a
//! constant-size fold, and the zero-row → one-row output contract needs a
//! single finalize point. Their merger runs one task, which publishes the
//! whole buffer whatever the `Resources`' partition count.

use super::{downcast_states, PartitionMerger, PartitionSlots, Resources, Sink, SinkFactory};
use crate::aggregate::{AggregateState, ChunkKeys};
use crate::context::ExecContext;
use crate::expr::AggExpr;
use rpt_common::{DataChunk, DataType, Error, Partitioner, Result, Schema, Utf8Dict};
use rpt_storage::GovernedHandle;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub struct AggregateSink {
    /// One group table per hash partition (a single entry when
    /// unpartitioned or group-less).
    parts: Vec<AggregateState>,
    partitioner: Partitioner,
    output_schema: Schema,
    rows: u64,
    /// Per-chunk scratch, reused from chunk to chunk: the key material,
    /// the identity row list of the single-partition path, and each
    /// partition's rows on the partitioned path.
    keys: ChunkKeys,
    ident: Vec<u32>,
    rows_by_part: Vec<Vec<u32>>,
    /// Unevictable governor registration (group tables must stay
    /// addressable); residency is a documented estimate, see
    /// [`AggregateSink::report_residency`].
    governed: Option<GovernedHandle>,
}

impl AggregateSink {
    /// Number of distinct groups across this worker's partitions.
    pub fn num_groups(&self) -> usize {
        self.parts.iter().map(AggregateState::num_groups).sum()
    }

    /// Report an *estimate* of the group tables' footprint to the
    /// governor: distinct groups × 16 bytes per output column (key codes +
    /// accumulators). Group tables cannot spill, so precision only affects
    /// how early the evictable buffers get pushed out.
    fn report_residency(&self) {
        if let Some(h) = &self.governed {
            let per_group = self.output_schema.len().max(1).saturating_mul(16);
            h.update(self.num_groups().saturating_mul(per_group));
        }
    }
}

impl Sink for AggregateSink {
    fn sink(&mut self, chunk: DataChunk, ctx: &ExecContext) -> Result<()> {
        let n = chunk.num_rows();
        if n == 0 {
            return Ok(());
        }
        self.rows = self.rows.saturating_add(n as u64);
        // Aggregate inputs and group-key material are evaluated once per
        // chunk: the vectorized hash doubles as the radix routing key and
        // the group table's probe hash, and the packed (fast path) or
        // encoded (generic) keys ride along in the same pass.
        let inputs = self.parts[0].eval_inputs(&chunk)?;
        self.parts[0].prepare_keys(&chunk, &mut self.keys)?;
        let m = &ctx.metrics;
        if self.parts[0].is_fast() {
            m.add(&m.agg_fast_path_chunks, 1);
        } else {
            m.add(&m.agg_generic_chunks, 1);
        }
        if self.partitioner.is_single() {
            self.ident.clear();
            self.ident.extend(0..n as u32);
            self.parts[0].update_rows(&inputs, &self.ident, &self.keys)?;
        } else {
            self.rows_by_part.iter_mut().for_each(Vec::clear);
            for (row, &h) in self.keys.hashes.iter().enumerate() {
                self.rows_by_part[self.partitioner.of_hash(h)].push(row as u32);
            }
            for (part, rows) in self.parts.iter_mut().zip(&self.rows_by_part) {
                if !rows.is_empty() {
                    part.update_rows(&inputs, rows, &self.keys)?;
                }
            }
        }
        self.report_residency();
        Ok(())
    }

    fn rows(&self) -> u64 {
        self.rows
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

pub struct AggregateFactory {
    buf_id: usize,
    group_cols: Vec<usize>,
    aggs: Vec<AggExpr>,
    input_types: Vec<DataType>,
    output_schema: Schema,
    /// Per input column: the table dictionary of a dictionary-coded `Utf8`
    /// column (extends fast-path eligibility to string group keys).
    key_dicts: Vec<Option<Arc<Utf8Dict>>>,
}

impl AggregateFactory {
    pub fn new(
        buf_id: usize,
        group_cols: Vec<usize>,
        aggs: Vec<AggExpr>,
        input_types: Vec<DataType>,
        output_schema: Schema,
        key_dicts: Vec<Option<Arc<Utf8Dict>>>,
    ) -> AggregateFactory {
        AggregateFactory {
            buf_id,
            group_cols,
            aggs,
            input_types,
            output_schema,
            key_dicts,
        }
    }

    /// One per-partition group table. The table implementation is chosen
    /// here, at sink construction: the fixed-key fast path when every group
    /// column is fixed-width — `Int64`, `Bool`, or a `Utf8` column with a
    /// planner-attached dictionary packing its codes — else the generic
    /// encoded-key table.
    fn state(&self) -> Result<AggregateState> {
        AggregateState::with_fast_path_dicts(
            self.group_cols.clone(),
            self.aggs.clone(),
            &self.input_types,
            true,
            &self.key_dicts,
        )
    }
}

impl SinkFactory for AggregateFactory {
    fn make(&self, ctx: &ExecContext) -> Result<Box<dyn Sink>> {
        let partitioner = if self.group_cols.is_empty() {
            Partitioner::new(1)
        } else {
            Partitioner::new(ctx.partition_count)
        };
        let parts = (0..partitioner.count())
            .map(|_| self.state())
            .collect::<Result<Vec<_>>>()?;
        Ok(Box::new(AggregateSink {
            partitioner,
            output_schema: self.output_schema.clone(),
            rows: 0,
            keys: ChunkKeys::default(),
            ident: Vec::new(),
            rows_by_part: vec![Vec::new(); parts.len()],
            parts,
            governed: ctx.governor.as_ref().map(|g| g.register(false)),
        }))
    }

    fn make_merger(
        &self,
        states: Vec<Box<dyn Sink>>,
        _ctx: &ExecContext,
    ) -> Result<Box<dyn PartitionMerger>> {
        let workers = downcast_states::<AggregateSink>(states)?;
        // The states' own layout is authoritative (the factory normalized
        // `ctx.partition_count`, and kept global aggregates at one, when it
        // built them).
        let partitions = workers[0].parts.len();
        let slots =
            PartitionSlots::transpose(workers.into_iter().map(|w| w.parts).collect(), partitions);
        Ok(Box::new(AggregateMerger {
            buf_id: self.buf_id,
            output_schema: self.output_schema.clone(),
            partitions,
            slots,
            max_task_rows: AtomicU64::new(0),
        }))
    }
}

/// Merge plan of an [`AggregateSink`]: task `p` merges every worker's
/// partition-`p` group table, finalizes it (groups sorted by encoded key
/// within the partition), and seals buffer partition `p` — making any
/// consumer of that partition runnable immediately. A one-partition state
/// (a global aggregate, or partition count 1) publishes the whole buffer
/// instead. `finish` has nothing left to publish.
struct AggregateMerger {
    buf_id: usize,
    output_schema: Schema,
    partitions: usize,
    slots: PartitionSlots<AggregateState>,
    max_task_rows: AtomicU64,
}

impl PartitionMerger for AggregateMerger {
    fn partitions(&self) -> usize {
        self.partitions
    }

    fn merge_partition(&self, part: usize, _ctx: &ExecContext, res: &Resources) -> Result<()> {
        let mut states = self.slots.take(part)?.into_iter();
        let mut merged = states
            .next()
            .ok_or_else(|| Error::Exec("aggregate merge without worker states".into()))?;
        for s in states {
            merged.merge(s)?;
        }
        // Report the *merged* (distinct) group count this task sealed:
        // directly comparable with the result's total group count, so the
        // no-full-result merge assertion holds regardless of how many
        // worker states repeated the same groups.
        self.max_task_rows
            .fetch_max(merged.num_groups() as u64, Ordering::Relaxed);
        let out = merged.finalize(&self.output_schema)?;
        if self.partitions == 1 {
            return res.publish_buffer(self.buf_id, vec![out]);
        }
        let chunks = if out.num_rows() == 0 {
            vec![]
        } else {
            vec![out]
        };
        res.publish_buffer_partition(self.buf_id, part, chunks)
    }

    fn finish(&self, _ctx: &ExecContext, _res: &Resources) -> Result<()> {
        Ok(())
    }

    fn max_task_rows(&self) -> u64 {
        self.max_task_rows.load(Ordering::Relaxed)
    }
}
