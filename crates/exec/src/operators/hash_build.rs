//! Hash-join build sink, optionally building Bloom filters over the same
//! stream — how the BloomJoin baseline (§6.1) attaches a filter to each
//! hash-join build side.
//!
//! With `partition_count > 1` every worker radix-partitions its build rows
//! by key hash, and the driver's merge builds one [`JoinHashTable`] per
//! partition in parallel, publishing them as a [`PartitionedHashTable`]
//! that probes route into by the same hash — the build is never
//! re-serialized over the full build side.

use super::create_bf::{
    combine_blooms, insert_into_blooms, merge_publish_blooms, BloomBuild, BloomSink,
};
use super::{
    check_partition_route, downcast_sink, lock_or_err, PartitionMerger, PartitionSlots, ResourceId,
    Resources, Sink, SinkFactory,
};
use crate::context::ExecContext;
use crate::hash_table::{JoinHashTable, PartitionedHashTable};
use rpt_common::{DataChunk, Error, Partitioner, Result, Schema};
use rpt_storage::{chunk_size_bytes, GovernedHandle};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub struct HashBuildSink {
    ht_id: usize,
    key_cols: Vec<usize>,
    blooms: Vec<BloomBuild>,
    /// Per-partition runs (a single entry when unpartitioned).
    parts: Vec<Vec<DataChunk>>,
    partitioner: Partitioner,
    schema: Schema,
    rows: u64,
    /// Unevictable governor registration: build rows must stay addressable
    /// in memory, so this only contributes pressure that pushes evictable
    /// buffers to spill earlier. It moves into the published table, which
    /// keeps that pressure up for as long as probes can read it.
    governed: Option<GovernedHandle>,
    resident_bytes: usize,
}

impl HashBuildSink {
    fn report_residency(&mut self, added_bytes: usize) {
        if let Some(h) = &self.governed {
            self.resident_bytes = self.resident_bytes.saturating_add(added_bytes);
            h.update(self.resident_bytes);
        }
    }
}

/// Build one partition's table; an empty partition still carries the
/// column arity so probe-side output chunks have the right shape.
fn build_partition(
    chunks: &[DataChunk],
    key_cols: Vec<usize>,
    schema: &Schema,
) -> Result<JoinHashTable> {
    if chunks.is_empty() {
        JoinHashTable::build(&[DataChunk::empty_like(schema)], key_cols)
    } else {
        JoinHashTable::build(chunks, key_cols)
    }
}

impl Sink for HashBuildSink {
    fn sink(&mut self, mut chunk: DataChunk, ctx: &ExecContext) -> Result<()> {
        let n = chunk.num_rows() as u64;
        insert_into_blooms(&chunk, &mut self.blooms, ctx);
        ctx.metrics.add(&ctx.metrics.hash_build_rows, n);
        self.report_residency(chunk_size_bytes(&chunk));
        if self.partitioner.is_single() {
            chunk.flatten();
            self.parts[0].push(chunk);
        } else {
            let hashes = super::key_hashes(&chunk, &self.key_cols);
            for (p, sub) in self
                .partitioner
                .split_chunk(&chunk, &hashes)
                .into_iter()
                .enumerate()
            {
                if let Some(sub) = sub {
                    self.parts[p].push(sub);
                }
            }
        }
        self.rows = self.rows.saturating_add(n);
        Ok(())
    }

    fn sink_part(&mut self, mut chunk: DataChunk, part: usize, ctx: &ExecContext) -> Result<()> {
        if self.partitioner.is_single() {
            return self.sink(chunk, ctx);
        }
        check_partition_route(&chunk, &self.key_cols, &self.partitioner, part, ctx)?;
        let n = chunk.num_rows() as u64;
        insert_into_blooms(&chunk, &mut self.blooms, ctx);
        ctx.metrics.add(&ctx.metrics.hash_build_rows, n);
        self.report_residency(chunk_size_bytes(&chunk));
        ctx.metrics.add(&ctx.metrics.repartition_elided_chunks, 1);
        chunk.flatten();
        self.parts[part].push(chunk);
        self.rows = self.rows.saturating_add(n);
        Ok(())
    }

    fn combine(&mut self, other: Box<dyn Sink>) -> Result<()> {
        let other = downcast_sink::<HashBuildSink>(other)?;
        let taken = other.resident_bytes;
        for (mine, theirs) in self.parts.iter_mut().zip(other.parts) {
            mine.extend(theirs);
        }
        combine_blooms(&mut self.blooms, &other.blooms)?;
        self.rows = self.rows.saturating_add(other.rows);
        // The other sink's registration released on drop; adopt its bytes.
        self.report_residency(taken);
        Ok(())
    }

    fn rows(&self) -> u64 {
        self.rows
    }

    fn finalize(mut self: Box<Self>, res: &Resources) -> Result<()> {
        let table = if self.parts.len() == 1 {
            PartitionedHashTable::single(build_partition(
                &self.parts[0],
                self.key_cols.clone(),
                &self.schema,
            )?)
        } else {
            let parts = self
                .parts
                .iter()
                .map(|chunks| build_partition(chunks, self.key_cols.clone(), &self.schema))
                .collect::<Result<Vec<_>>>()?;
            PartitionedHashTable::from_parts(parts)
        };
        res.publish_table(self.ht_id, table.governed_by(self.governed.take()))?;
        for b in self.blooms {
            b.publish(res)?;
        }
        Ok(())
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

pub struct HashBuildFactory {
    ht_id: usize,
    key_cols: Vec<usize>,
    schema: Schema,
    blooms: Vec<BloomSink>,
}

impl HashBuildFactory {
    pub fn new(
        ht_id: usize,
        key_cols: Vec<usize>,
        schema: Schema,
        blooms: Vec<BloomSink>,
    ) -> HashBuildFactory {
        HashBuildFactory {
            ht_id,
            key_cols,
            schema,
            blooms,
        }
    }
}

impl SinkFactory for HashBuildFactory {
    fn make(&self, ctx: &ExecContext) -> Result<Box<dyn Sink>> {
        let partitioner = Partitioner::new(ctx.partition_count);
        Ok(Box::new(HashBuildSink {
            ht_id: self.ht_id,
            key_cols: self.key_cols.clone(),
            blooms: BloomBuild::from_specs(&self.blooms),
            parts: (0..partitioner.count()).map(|_| Vec::new()).collect(),
            partitioner,
            schema: self.schema.clone(),
            rows: 0,
            governed: ctx.governor.as_ref().map(|g| g.register(false)),
            resident_bytes: 0,
        }))
    }

    fn writes(&self) -> Vec<ResourceId> {
        let mut w = vec![ResourceId::HashTable(self.ht_id)];
        w.extend(self.blooms.iter().map(|b| ResourceId::Filter(b.filter_id)));
        w
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
            workers.push(*downcast_sink::<HashBuildSink>(s)?);
        }
        // The states' own layout is authoritative (the factory normalized
        // `ctx.partition_count` when it built them).
        let partitions = workers
            .first()
            .map(|w| w.parts.len())
            .ok_or_else(|| Error::Exec("partitioned merge without sink states".into()))?;
        let blooms: Vec<Vec<BloomBuild>> = workers
            .iter_mut()
            .map(|w| std::mem::take(&mut w.blooms))
            .collect();
        // One registration carries every worker's bytes through the merge
        // and into the published table; the others release here.
        let resident = workers
            .iter()
            .fold(0usize, |sum, w| sum.saturating_add(w.resident_bytes));
        let mut governed = None;
        for w in &mut workers {
            governed = governed.or(w.governed.take());
        }
        if let Some(h) = &governed {
            h.update(resident);
        }
        let slots =
            PartitionSlots::transpose(workers.into_iter().map(|w| w.parts).collect(), partitions);
        Ok(Box::new(HashBuildMerger {
            ht_id: self.ht_id,
            key_cols: self.key_cols.clone(),
            schema: self.schema.clone(),
            partitions,
            slots,
            tables: (0..partitions).map(|_| Mutex::new(None)).collect(),
            blooms: Mutex::new(Some(blooms)),
            governed: Mutex::new(governed),
            max_task_rows: AtomicU64::new(0),
        }))
    }
}

/// Merge plan of a partitioned [`HashBuildSink`]: task `p` builds one
/// partition's [`JoinHashTable`]; `finish` assembles the
/// [`PartitionedHashTable`], publishes it, and merges the Bloom filters.
/// (The table is only probe-able once complete, so — unlike buffer
/// partitions — nothing is consumable until `finish`.)
struct HashBuildMerger {
    ht_id: usize,
    key_cols: Vec<usize>,
    schema: Schema,
    partitions: usize,
    slots: PartitionSlots<Vec<DataChunk>>,
    tables: Vec<Mutex<Option<JoinHashTable>>>,
    blooms: Mutex<Option<Vec<Vec<BloomBuild>>>>,
    governed: Mutex<Option<GovernedHandle>>,
    max_task_rows: AtomicU64,
}

impl PartitionMerger for HashBuildMerger {
    fn partitions(&self) -> usize {
        self.partitions
    }

    fn merge_partition(&self, part: usize, _ctx: &ExecContext, _res: &Resources) -> Result<()> {
        let chunks: Vec<DataChunk> = self.slots.take(part)?.into_iter().flatten().collect();
        let rows: u64 = chunks.iter().map(|c| c.num_rows() as u64).sum();
        self.max_task_rows.fetch_max(rows, Ordering::Relaxed);
        let table = build_partition(&chunks, self.key_cols.clone(), &self.schema)?;
        *lock_or_err(&self.tables[part], "table slot")? = Some(table);
        Ok(())
    }

    fn finish(&self, ctx: &ExecContext, res: &Resources) -> Result<()> {
        let parts: Vec<JoinHashTable> = self
            .tables
            .iter()
            .map(|t| {
                lock_or_err(t, "table slot")?
                    .take()
                    .ok_or_else(|| Error::Exec("partition table missing at finish".into()))
            })
            .collect::<Result<_>>()?;
        let governed = lock_or_err(&self.governed, "governor slot")?.take();
        let table = PartitionedHashTable::from_parts(parts).governed_by(governed);
        res.publish_table(self.ht_id, table)?;
        let blooms = lock_or_err(&self.blooms, "bloom slot")?
            .take()
            .ok_or_else(|| Error::Exec("hash-build merge finished twice".into()))?;
        merge_publish_blooms(blooms, ctx.threads, res)
    }

    fn max_task_rows(&self) -> u64 {
        self.max_task_rows.load(Ordering::Relaxed)
    }
}
