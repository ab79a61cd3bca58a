//! Hash-join build sink, optionally building Bloom filters over the same
//! stream — how the BloomJoin baseline (§6.1) attaches a filter to each
//! hash-join build side.
//!
//! Every worker keeps one run of chunks per partition (one run in all when
//! unpartitioned) and write-combines into it: rows are appended to the
//! run's tail chunk while they fit one vector, so a run is as many chunks
//! as its rows need, not as many as arrived. With `partition_count > 1`
//! the rows of a chunk are radix-routed by key hash, each straight into its
//! partition's tail. The driver's merge then prepares the partitions in
//! parallel — task `p` concatenates every worker's partition-`p` run and
//! hashes its keys into a [`BuildPart`] — and `finish` lays the parts end
//! to end into the **one** [`JoinHashTable`] probes read, so the expensive
//! part of the build is never serialized over the full build side and a
//! probe never knows the build was partitioned.

use super::create_bf::{insert_into_blooms, merge_publish_blooms, BloomBuild, BloomSink};
use super::{
    downcast_states, lock_or_err, KeyHashes, PartitionMerger, PartitionSlots, Resources, Sink,
    SinkFactory,
};
use crate::context::ExecContext;
use crate::hash_table::{BuildPart, JoinHashTable};
use rpt_common::{DataChunk, Error, Partitioner, Result, Schema};
use rpt_storage::{chunk_size_bytes, GovernedHandle};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub struct HashBuildSink {
    key_cols: Vec<usize>,
    blooms: Vec<BloomBuild>,
    /// Per-partition runs (a single entry when unpartitioned).
    parts: Vec<Vec<DataChunk>>,
    partitioner: Partitioner,
    /// Scratch of the radix route: per partition, the rows of the chunk
    /// being sunk.
    routed: Vec<Vec<u32>>,
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

/// Append the logical rows of `chunk` to a run, into its tail chunk while
/// they fit one vector with it; a chunk that does not fit is flattened and
/// becomes the next tail.
fn push_chunk(run: &mut Vec<DataChunk>, mut chunk: DataChunk) -> Result<()> {
    match run.last_mut() {
        Some(tail) if tail.has_room_for(chunk.num_rows()) => tail.append(&chunk),
        _ => {
            chunk.flatten();
            run.push(chunk);
            Ok(())
        }
    }
}

/// [`push_chunk`] for physical rows `rows` of `src`, each copied once.
fn push_rows(run: &mut Vec<DataChunk>, src: &DataChunk, rows: &[u32]) -> Result<()> {
    if rows.is_empty() {
        return Ok(());
    }
    match run.last_mut() {
        Some(tail) if tail.has_room_for(rows.len()) => tail.append_rows(src, rows),
        _ => {
            run.push(src.take_rows(rows));
            Ok(())
        }
    }
}

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

impl Sink for HashBuildSink {
    fn sink(&mut self, chunk: DataChunk, ctx: &ExecContext) -> Result<()> {
        let n = chunk.num_rows() as u64;
        // Bloom inserts hash the key columns the radix route reuses below.
        let mut hashes = KeyHashes::of(&chunk);
        insert_into_blooms(&mut hashes, &mut self.blooms, ctx)?;
        ctx.metrics.add(&ctx.metrics.hash_build_rows, n);
        self.report_residency(chunk_size_bytes(&chunk));
        self.rows = self.rows.saturating_add(n);
        if self.partitioner.is_single() {
            return push_chunk(&mut self.parts[0], chunk);
        }
        self.partitioner
            .bucket_rows(&chunk, hashes.get(&self.key_cols), &mut self.routed);
        for (run, rows) in self.parts.iter_mut().zip(&self.routed) {
            push_rows(run, &chunk, rows)?;
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
            key_cols: self.key_cols.clone(),
            blooms: BloomBuild::from_specs(&self.blooms)?,
            parts: (0..partitioner.count()).map(|_| Vec::new()).collect(),
            partitioner,
            routed: Vec::new(),
            rows: 0,
            governed: ctx.governor.as_ref().map(|g| g.register(false)),
            resident_bytes: 0,
        }))
    }

    fn make_merger(
        &self,
        states: Vec<Box<dyn Sink>>,
        _ctx: &ExecContext,
    ) -> Result<Box<dyn PartitionMerger>> {
        let mut workers = downcast_states::<HashBuildSink>(states)?;
        // The states' own layout is authoritative (the factory normalized
        // `ctx.partition_count` when it built them).
        let partitions = workers[0].parts.len();
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
            built: (0..partitions).map(|_| Mutex::new(None)).collect(),
            blooms: Mutex::new(Some(blooms)),
            governed: Mutex::new(governed),
            max_task_rows: AtomicU64::new(0),
        }))
    }
}

/// Merge plan of a [`HashBuildSink`]: task `p` prepares one
/// partition's [`BuildPart`] (concatenate, hash — the per-row work);
/// `finish` assembles the parts into the one [`JoinHashTable`] (block
/// appends and the chain links), publishes it, and merges the Bloom
/// filters. (The table is only probe-able once complete, so — unlike buffer
/// partitions — nothing is consumable until `finish`.)
struct HashBuildMerger {
    ht_id: usize,
    key_cols: Vec<usize>,
    schema: Schema,
    partitions: usize,
    slots: PartitionSlots<Vec<DataChunk>>,
    built: Vec<Mutex<Option<BuildPart>>>,
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
        let built = build_part(&chunks, &self.key_cols, &self.schema)?;
        self.max_task_rows
            .fetch_max(built.num_rows() as u64, Ordering::Relaxed);
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

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_common::{Vector, VECTOR_SIZE};

    /// Both ways into a run keep it combined: no two adjacent chunks that
    /// one vector could hold, rows in arrival order.
    #[test]
    fn runs_are_write_combined() {
        let mut run = Vec::new();
        let mut want = Vec::new();
        let mut next = 0i64;
        for (i, n) in [700usize, 700, 700, 1, VECTOR_SIZE, 30, 30, 2000]
            .into_iter()
            .enumerate()
        {
            let mut chunk =
                DataChunk::new(vec![Vector::from_i64((next..next + n as i64).collect())]);
            next += n as i64;
            let kept: Vec<u32> = (0..n as u32).filter(|r| r % 3 != 1).collect();
            want.extend(
                kept.iter()
                    .map(|&r| chunk.columns[0].i64_slice()[r as usize]),
            );
            if i % 2 == 0 {
                push_rows(&mut run, &chunk, &kept).unwrap();
            } else {
                chunk.set_selection(kept);
                push_chunk(&mut run, chunk).unwrap();
            }
        }
        let got: Vec<i64> = run
            .iter()
            .flat_map(|c| c.columns[0].i64_slice().to_vec())
            .collect();
        assert_eq!(got, want);
        assert!(run
            .iter()
            .all(|c| c.selection.is_none() && c.num_rows() <= VECTOR_SIZE));
        assert!(run
            .windows(2)
            .all(|w| w[0].num_rows() + w[1].num_rows() > VECTOR_SIZE));
    }
}
