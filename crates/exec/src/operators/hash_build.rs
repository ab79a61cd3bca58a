//! Hash-join build, optionally building transfer filters over the same
//! stream — how the BloomJoin baseline (§6.1) attaches a filter to each
//! hash-join build side.
//!
//! The sink is the [`BufferSink`] CreateBF uses, routed on the build keys:
//! every worker write-combines its rows into one governed run per
//! partition. The runs register with the memory governor as unevictable,
//! because a table's rows must stay in memory. The merge prepares the
//! partitions in parallel — task `p` restores every worker's partition-`p`
//! run and hashes its keys into a [`BuildPart`] — and `finish` lays the
//! parts end to end into the **one** [`JoinHashTable`] probes read, so the
//! expensive part of the build is never serialized over the full build side
//! and a probe never knows the build was partitioned.

use super::buffer::BufferSink;
use super::create_bf::{merge_publish_blooms, BloomBuild, BloomSink};
use super::{
    downcast_states, lock_or_err, restore_runs, PartitionMerger, PartitionSlots, Resources, Sink,
    SinkFactory,
};
use crate::context::ExecContext;
use crate::hash_table::{BuildPart, JoinHashTable};
use rpt_common::{DataChunk, Error, Result, Schema};
use rpt_storage::{GovernedHandle, SpillBuffer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Concatenate one partition's runs and hash its keys; an empty partition
/// still carries the column arity so probe-side output chunks have the
/// right shape.
fn build_part(chunks: &[DataChunk], key_cols: &[usize], schema: &Schema) -> Result<BuildPart> {
    if chunks.is_empty() {
        BuildPart::new(&[DataChunk::empty_like(schema)], key_cols)
    } else {
        BuildPart::new(chunks, key_cols)
    }
}

/// Take every run's governor registration and keep one, carrying the sum
/// of the runs' resident bytes through the merge into the published table;
/// the others release. (Each is dropped before the kept one grows, so the
/// bytes are never counted twice.)
fn hand_over<'a>(runs: impl Iterator<Item = &'a mut SpillBuffer>) -> Option<GovernedHandle> {
    let mut resident = 0usize;
    let mut kept = None;
    for run in runs {
        resident = resident.saturating_add(run.stats().bytes_in_memory);
        kept = kept.or(run.take_governor());
    }
    if let Some(h) = &kept {
        h.update(resident);
    }
    kept
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
        let keys = Some(self.key_cols.clone());
        let sink = BufferSink::new(&self.schema, keys, &self.blooms, false, ctx)?;
        Ok(Box::new(sink))
    }

    fn make_merger(
        &self,
        states: Vec<Box<dyn Sink>>,
        _ctx: &ExecContext,
    ) -> Result<Box<dyn PartitionMerger>> {
        let mut workers = downcast_states::<BufferSink>(states)?;
        let governed = hand_over(workers.iter_mut().flat_map(|w| w.parts.iter_mut()));
        let (partitions, slots, blooms) = BufferSink::into_slots(workers);
        Ok(Box::new(HashBuildMerger {
            ht_id: self.ht_id,
            key_cols: self.key_cols.clone(),
            schema: self.schema.clone(),
            partitions,
            slots,
            built: (0..partitions).map(|_| Mutex::new(None)).collect(),
            blooms: Mutex::new(Some(blooms)),
            governed: Mutex::new(governed),
            max_task_rows: AtomicU64::new(0),
        }))
    }
}

/// Merge plan of a hash build: task `p` prepares one partition's
/// [`BuildPart`] (restore, concatenate, hash — the per-row work);
/// `finish` assembles the parts into the one [`JoinHashTable`] (block
/// appends and the chain links), publishes it, and merges the Bloom
/// filters. (The table is only probe-able once complete, so — unlike buffer
/// partitions — nothing is consumable until `finish`.)
struct HashBuildMerger {
    ht_id: usize,
    key_cols: Vec<usize>,
    schema: Schema,
    partitions: usize,
    slots: PartitionSlots<SpillBuffer>,
    built: Vec<Mutex<Option<BuildPart>>>,
    blooms: Mutex<Option<Vec<Vec<BloomBuild>>>>,
    governed: Mutex<Option<GovernedHandle>>,
    max_task_rows: AtomicU64,
}

impl PartitionMerger for HashBuildMerger {
    fn partitions(&self) -> usize {
        self.partitions
    }

    fn merge_partition(&self, part: usize, ctx: &ExecContext, _res: &Resources) -> Result<()> {
        let chunks = restore_runs(self.slots.take(part)?, &ctx.metrics)?;
        let built = build_part(&chunks, &self.key_cols, &self.schema)?;
        let rows = built.num_rows() as u64;
        ctx.metrics.add(&ctx.metrics.hash_build_rows, rows);
        self.max_task_rows.fetch_max(rows, Ordering::Relaxed);
        *lock_or_err(&self.built[part], "build part slot")? = Some(built);
        Ok(())
    }

    fn finish(&self, _ctx: &ExecContext, res: &Resources) -> Result<()> {
        let parts: Vec<BuildPart> = self
            .built
            .iter()
            .map(|t| {
                lock_or_err(t, "build part slot")?
                    .take()
                    .ok_or_else(|| Error::Exec("partition build missing at finish".into()))
            })
            .collect::<Result<_>>()?;
        let governed = lock_or_err(&self.governed, "governor slot")?.take();
        let table = JoinHashTable::assemble(parts, self.key_cols.clone())?.governed_by(governed);
        res.publish_table(self.ht_id, table)?;
        let blooms = lock_or_err(&self.blooms, "bloom slot")?
            .take()
            .ok_or_else(|| Error::Exec("hash-build merge finished twice".into()))?;
        merge_publish_blooms(blooms, res)
    }

    fn max_task_rows(&self) -> u64 {
        self.max_task_rows.load(Ordering::Relaxed)
    }
}
