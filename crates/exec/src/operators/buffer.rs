//! Buffer sink: collect a pipeline's rows per partition, building transfer
//! filters along the way. Two factories make it: the CreateBF operator and
//! plain collect sinks ([`BufferSinkFactory`], which publishes the
//! partitions as a buffer), and the hash-join build
//! ([`super::hash_build::HashBuildFactory`], which assembles them into a
//! table). The sink is the same; only the merge differs.
//!
//! Every worker keeps one governed [`SpillBuffer`] run per partition (one
//! in all when unpartitioned), and the run write-combines: rows join its
//! resident tail chunk while they fit one vector, so the next consumer
//! reads vector-sized chunks however small the chunks that arrived here
//! were. With `partition_count > 1` the rows of a chunk are radix-routed on
//! the partition keys (the hash build's keys, else the first filter
//! request's) — hashed once, for the filters and the route — each straight
//! into its partition's tail, with no sub-chunk in between (keyless collect
//! sinks split their first chunk across partitions, then route whole
//! chunks round-robin). The driver merges the partitions in parallel: each
//! merge task restores one partition's runs from every worker, so no merge
//! task ever scans the full result.

use super::create_bf::{insert_into_blooms, merge_publish_blooms, BloomBuild, BloomSink};
use super::{
    downcast_states, governed_run, lock_or_err, restore_runs, KeyHashes, PartitionMerger,
    PartitionSlots, Resources, Sink, SinkFactory,
};
use crate::context::ExecContext;
use rpt_common::{DataChunk, Error, Partitioner, Result, Schema};
use rpt_storage::{SpillBuffer, SpillStats};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub struct BufferSink {
    /// One run per partition (a single entry when unpartitioned).
    pub(super) parts: Vec<SpillBuffer>,
    partitioner: Partitioner,
    /// Key columns the rows are radix-routed on; `None` (no key available)
    /// falls back to chunk-granular round-robin routing.
    partition_keys: Option<Vec<usize>>,
    next_round_robin: usize,
    /// Has the keyless path already split its first chunk across
    /// partitions?
    keyless_seeded: bool,
    /// Scratch of the radix route: per partition, the rows of the chunk
    /// being sunk.
    routed: Vec<Vec<u32>>,
    blooms: Vec<BloomBuild>,
    rows: u64,
}

impl BufferSink {
    /// One worker's state: a [`governed_run`] per partition (`evictable`
    /// is false for a hash build, whose rows never spill), rows routed on
    /// `partition_keys`, and `blooms` built as the rows arrive.
    pub(super) fn new(
        schema: &Schema,
        partition_keys: Option<Vec<usize>>,
        blooms: &[BloomSink],
        evictable: bool,
        ctx: &ExecContext,
    ) -> Result<BufferSink> {
        let partitioner = Partitioner::new(ctx.partition_count);
        Ok(BufferSink {
            parts: (0..partitioner.count())
                .map(|_| governed_run(schema, evictable, ctx))
                .collect(),
            partitioner,
            partition_keys,
            next_round_robin: 0,
            keyless_seeded: false,
            routed: Vec::new(),
            blooms: BloomBuild::from_specs(blooms)?,
            rows: 0,
        })
    }

    /// Take the workers' states apart for a merger: the partition count
    /// (the states' own layout is authoritative — `new` normalized
    /// `ctx.partition_count`), the runs in partition-major slots and each
    /// worker's filter builds.
    pub(super) fn into_slots(
        workers: Vec<BufferSink>,
    ) -> (usize, PartitionSlots<SpillBuffer>, Vec<Vec<BloomBuild>>) {
        let partitions = workers[0].parts.len();
        let (runs, blooms) = workers.into_iter().map(|w| (w.parts, w.blooms)).unzip();
        (
            partitions,
            PartitionSlots::transpose(runs, partitions),
            blooms,
        )
    }

    /// Per-partition spill statistics (partition order).
    pub fn spill_stats(&self) -> Vec<SpillStats> {
        self.parts.iter().map(SpillBuffer::stats).collect()
    }
}

impl Sink for BufferSink {
    fn sink(&mut self, chunk: DataChunk, ctx: &ExecContext) -> Result<()> {
        self.rows = self.rows.saturating_add(chunk.num_rows() as u64);
        let mut hashes = KeyHashes::of(&chunk);
        insert_into_blooms(&mut hashes, &mut self.blooms, ctx)?;
        if self.partitioner.is_single() {
            return self.parts[0].push(chunk);
        }
        let count = self.parts.len();
        match &self.partition_keys {
            // Radix route: every row goes straight into its partition's
            // tail chunk, on the hashes the Bloom request already computed.
            Some(keys) => self
                .partitioner
                .bucket_rows(&chunk, hashes.get(keys), &mut self.routed),
            // Keyless collect sink: no hash to route on. Every chunk is
            // routed whole, copy-free, to a rotating partition …
            None if self.keyless_seeded => {
                let p = self.next_round_robin;
                self.next_round_robin = (p + 1) % count;
                return self.parts[p].push(chunk);
            }
            // … except the first, split into contiguous row ranges (bounded
            // copy: it guarantees ≥2 partitions are non-empty, so no merge
            // task can cover the full result even for single-chunk outputs).
            None => {
                self.keyless_seeded = true;
                let n = chunk.num_rows();
                let per = n.div_ceil(count).max(1);
                self.routed.resize_with(count, Vec::new);
                for (p, rows) in self.routed.iter_mut().enumerate() {
                    let range = (p * per).min(n)..(p * per + per).min(n);
                    rows.clear();
                    rows.extend(range.map(|l| chunk.physical_index(l) as u32));
                }
                self.next_round_robin = n.div_ceil(per) % count;
            }
        }
        for (part, rows) in self.parts.iter_mut().zip(&self.routed) {
            part.push_rows(&chunk, rows)?;
        }
        Ok(())
    }

    fn rows(&self) -> u64 {
        self.rows
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Builds one [`BufferSink`] per worker for CreateBF and collect sinks:
/// its runs are evictable, so they spill when the query's memory governor
/// flags them.
pub struct BufferSinkFactory {
    buf_id: usize,
    schema: Schema,
    blooms: Vec<BloomSink>,
}

impl BufferSinkFactory {
    pub fn new(buf_id: usize, schema: Schema, blooms: Vec<BloomSink>) -> BufferSinkFactory {
        BufferSinkFactory {
            buf_id,
            schema,
            blooms,
        }
    }
}

impl SinkFactory for BufferSinkFactory {
    fn make(&self, ctx: &ExecContext) -> Result<Box<dyn Sink>> {
        let keys = self.blooms.first().map(|b| b.key_cols.clone());
        let sink = BufferSink::new(&self.schema, keys, &self.blooms, true, ctx)?;
        Ok(Box::new(sink))
    }

    fn make_merger(
        &self,
        states: Vec<Box<dyn Sink>>,
        _ctx: &ExecContext,
    ) -> Result<Box<dyn PartitionMerger>> {
        let (partitions, slots, blooms) =
            BufferSink::into_slots(downcast_states::<BufferSink>(states)?);
        Ok(Box::new(BufferMerger {
            buf_id: self.buf_id,
            partitions,
            slots,
            blooms: Mutex::new(Some(blooms)),
            max_task_rows: AtomicU64::new(0),
        }))
    }
}

/// Merge plan of a collecting [`BufferSink`]: task `p` restores every
/// worker's partition-`p` run and seals that buffer partition; `finish`
/// OR-merges and publishes the Bloom filters.
struct BufferMerger {
    buf_id: usize,
    partitions: usize,
    slots: PartitionSlots<SpillBuffer>,
    blooms: Mutex<Option<Vec<Vec<BloomBuild>>>>,
    max_task_rows: AtomicU64,
}

impl PartitionMerger for BufferMerger {
    fn partitions(&self) -> usize {
        self.partitions
    }

    fn merge_partition(&self, part: usize, ctx: &ExecContext, res: &Resources) -> Result<()> {
        let chunks = restore_runs(self.slots.take(part)?, &ctx.metrics)?;
        let rows = chunks.iter().map(|c| c.num_rows() as u64).sum();
        self.max_task_rows.fetch_max(rows, Ordering::Relaxed);
        res.publish_buffer_partition(self.buf_id, part, chunks)
    }

    fn finish(&self, _ctx: &ExecContext, res: &Resources) -> Result<()> {
        let blooms = lock_or_err(&self.blooms, "bloom slot")?
            .take()
            .ok_or_else(|| Error::Exec("buffer merge finished twice".into()))?;
        merge_publish_blooms(blooms, res)
    }

    fn max_task_rows(&self) -> u64 {
        self.max_task_rows.load(Ordering::Relaxed)
    }
}
