//! The physical operator layer: `Source` / `Operator` / `Sink` traits and
//! one implementation per physical operator.
//!
//! The plan is the enum specs in [`crate::pipeline`]
//! (`SourceSpec`/`OpSpec`/`SinkSpec`): what a pipeline reads and writes is
//! read off them. Only the executor lowers a spec onto these traits, once
//! per pipeline, to run it; the traits carry behaviour, not dependencies.
//!
//! Execution model (unchanged from §4.1 of the paper's DuckDB substrate):
//! a pipeline pulls morsels from its [`Source`], pushes them through a
//! chain of streaming [`Operator`]s, and terminates at a [`Sink`] — one
//! sink instance per worker thread, merged and published by the factory's
//! [`PartitionMerger`] at every partition count. Cross-pipeline state
//! (materialized buffers, transfer filters, join hash tables) lives in
//! [`Resources`]: write-once slots that double as the *dependency*
//! vocabulary ([`ResourceId`]) the DAG scheduler uses to decide which
//! pipelines may run concurrently.

pub mod aggregate;
pub mod buffer;
pub mod create_bf;
pub mod filter;
pub mod hash_build;
pub mod join_probe;
pub mod probe_bloom;
pub mod project;
pub mod scan;
pub mod semi_probe;
pub mod sort;

pub use aggregate::{AggregateFactory, AggregateSink};
pub use buffer::BufferSink;
pub use create_bf::{BloomBuild, BloomSink};
pub use filter::Filter;
pub use join_probe::JoinProbe;
pub use probe_bloom::ProbeBloom;
pub use project::Project;
pub use scan::{BufferScan, ScanProbe, TableScan};
pub use semi_probe::SemiProbe;
pub use sort::{cmp_scalar_rows, SortKey, SortSink, SortSinkFactory};

use crate::context::ExecContext;
use crate::hash_table::JoinHashTable;
use rpt_bloom::TransferFilter;
use rpt_common::{DataChunk, Error, Result, Schema, Vector};
use rpt_storage::SpillBuffer;
use std::any::Any;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, OnceLock};

/// Identifier of a cross-pipeline resource grain: what a pipeline reads
/// or writes ([`crate::pipeline::PipelinePlan::deps`]); the scheduler
/// derives the execution DAG from these.
///
/// A buffer is only ever named by its hash partitions: `BufferPart(id, p)`
/// is the grain the scheduler tracks, so a consumer's tasks for partition
/// `p` become runnable the moment the producer's merge task seals `p`,
/// while the producer is still merging its other partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceId {
    /// One sealed hash partition of a materialized chunk buffer (`CreateBF`
    /// output, collect, aggregate and sort sinks).
    BufferPart(usize, usize),
    /// A transfer filter (Bloom filter or key bitmap) built by a CreateBF /
    /// BloomJoin build sink.
    Filter(usize),
    /// A join hash table.
    HashTable(usize),
}

/// Chunks are stored and handed to consumers behind per-chunk `Arc`s so
/// assembling a partitioned buffer's whole view (and morsel claiming in
/// general) clones pointers, never column payloads.
pub type ChunkList = Vec<Arc<DataChunk>>;

/// One buffer resource, stored as per-partition write-once slots so the
/// parallel merge tasks of a partitioned sink can seal their partition as
/// soon as it is merged, without waiting on the other partitions.
struct BufferSlot {
    parts: Vec<OnceLock<Arc<ChunkList>>>,
    /// Lazily concatenated whole-buffer view (partition order), built the
    /// first time a consumer asks for the full buffer.
    assembled: OnceLock<Arc<ChunkList>>,
}

impl BufferSlot {
    fn new(partitions: usize) -> BufferSlot {
        BufferSlot {
            parts: (0..partitions).map(|_| OnceLock::new()).collect(),
            assembled: OnceLock::new(),
        }
    }
}

/// Shadow log of resource accesses actually performed during execution,
/// kept at partition grain (whole-buffer reads expand to every partition
/// grain). Enabled only in verify mode; after the run the observed sets
/// are reconciled against the deps derived from the plan's specs — any
/// observed access missing from them means the scheduler could have raced
/// it.
#[derive(Debug, Default)]
pub struct AccessLog {
    reads: Mutex<BTreeSet<ResourceId>>,
    writes: Mutex<BTreeSet<ResourceId>>,
}

impl AccessLog {
    fn record(set: &Mutex<BTreeSet<ResourceId>>, id: ResourceId) {
        if let Ok(mut s) = set.lock() {
            s.insert(id);
        }
    }

    /// Snapshot of the observed (reads, writes), sorted.
    pub fn observed(&self) -> (Vec<ResourceId>, Vec<ResourceId>) {
        let reads = self
            .reads
            .lock()
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let writes = self
            .writes
            .lock()
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        (reads, writes)
    }
}

/// Write-once shared state produced and consumed by pipelines.
///
/// Every slot is an [`OnceLock`]: producers publish exactly once from
/// their sink's [`PartitionMerger`] (each buffer partition from the merge
/// task that merges it, whole resources from `finish`), consumers resolve
/// at probe time. The scheduler guarantees producers complete before
/// consumers start, so a failed lookup is a planning bug and surfaces as
/// `Error::Exec`.
pub struct Resources {
    partitions: usize,
    buffers: Vec<BufferSlot>,
    filters: Vec<OnceLock<Arc<TransferFilter>>>,
    tables: Vec<OnceLock<Arc<JoinHashTable>>>,
    access_log: Option<AccessLog>,
}

impl Resources {
    /// Unpartitioned resource slots (partition count 1).
    pub fn new(num_buffers: usize, num_filters: usize, num_tables: usize) -> Resources {
        Resources::with_partitions(num_buffers, num_filters, num_tables, 1)
    }

    /// Resource slots with `partitions` per-partition buffer slots each
    /// (normalized to a power of two).
    pub fn with_partitions(
        num_buffers: usize,
        num_filters: usize,
        num_tables: usize,
        partitions: usize,
    ) -> Resources {
        let partitions = rpt_common::normalize_partition_count(partitions);
        Resources {
            partitions,
            buffers: (0..num_buffers)
                .map(|_| BufferSlot::new(partitions))
                .collect(),
            filters: (0..num_filters).map(|_| OnceLock::new()).collect(),
            tables: (0..num_tables).map(|_| OnceLock::new()).collect(),
            access_log: None,
        }
    }

    /// Start recording every resource access into a shadow [`AccessLog`]
    /// (verify mode). Must be called before the resources are shared.
    pub fn with_access_log(mut self) -> Resources {
        self.access_log = Some(AccessLog::default());
        self
    }

    /// The shadow access log, when verify mode enabled it.
    pub fn access_log(&self) -> Option<&AccessLog> {
        self.access_log.as_ref()
    }

    fn log_read(&self, id: ResourceId) {
        if let Some(log) = &self.access_log {
            AccessLog::record(&log.reads, id);
        }
    }

    fn log_write(&self, id: ResourceId) {
        if let Some(log) = &self.access_log {
            AccessLog::record(&log.writes, id);
        }
    }

    /// Log a whole-buffer access as every partition grain of `id`.
    fn log_buffer(&self, set_writes: bool, id: usize) {
        if self.access_log.is_some() {
            for p in 0..self.partitions {
                let grain = ResourceId::BufferPart(id, p);
                if set_writes {
                    self.log_write(grain);
                } else {
                    self.log_read(grain);
                }
            }
        }
    }

    /// The per-buffer partition count.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The whole buffer: its partitions concatenated in partition order
    /// (chunk `Arc`s cloned, payloads shared with the partition slots).
    pub fn buffer(&self, id: usize) -> Result<Arc<ChunkList>> {
        self.log_buffer(false, id);
        let slot = self
            .buffers
            .get(id)
            .ok_or_else(|| Error::Exec(format!("buffer slot {id} out of range")))?;
        if slot.parts.len() == 1 {
            return slot.parts[0]
                .get()
                .cloned()
                .ok_or_else(|| Error::Exec(format!("buffer {id} not materialized")));
        }
        if let Some(all) = slot.assembled.get() {
            return Ok(all.clone());
        }
        let mut all = Vec::new();
        for (p, part) in slot.parts.iter().enumerate() {
            let chunks = part.get().ok_or_else(|| {
                Error::Exec(format!("buffer {id} partition {p} not materialized"))
            })?;
            all.extend(chunks.iter().cloned());
        }
        // A racing consumer may have assembled concurrently; both built the
        // same value, so whichever `set` wins serves everyone.
        Ok(slot.assembled.get_or_init(|| Arc::new(all)).clone())
    }

    /// One sealed partition of a buffer.
    pub fn buffer_partition(&self, id: usize, part: usize) -> Result<Arc<ChunkList>> {
        self.log_read(ResourceId::BufferPart(id, part));
        self.buffers
            .get(id)
            .and_then(|b| b.parts.get(part))
            .and_then(|p| p.get().cloned())
            .ok_or_else(|| Error::Exec(format!("buffer {id} partition {part} not materialized")))
    }

    pub fn buffer_rows(&self, id: usize) -> u64 {
        self.buffers.get(id).map_or(0, |slot| {
            slot.parts
                .iter()
                .filter_map(|p| p.get())
                .flat_map(|chunks| chunks.iter())
                .map(|c| c.num_rows() as u64)
                .sum()
        })
    }

    pub fn filter(&self, id: usize) -> Result<Arc<TransferFilter>> {
        self.log_read(ResourceId::Filter(id));
        self.filters
            .get(id)
            .and_then(|f| f.get().cloned())
            .ok_or_else(|| Error::Exec(format!("bloom filter {id} not built")))
    }

    pub fn hash_table(&self, id: usize) -> Result<Arc<JoinHashTable>> {
        self.log_read(ResourceId::HashTable(id));
        self.tables
            .get(id)
            .and_then(|t| t.get().cloned())
            .ok_or_else(|| Error::Exec(format!("hash table {id} not built")))
    }

    /// Publish a whole buffer at once (a global aggregate's one group table,
    /// a sort's merged output; with more than one partition slot the chunks
    /// land in partition 0 and the remaining partitions are sealed empty).
    pub fn publish_buffer(&self, id: usize, chunks: Vec<DataChunk>) -> Result<()> {
        self.log_buffer(true, id);
        let slot = self
            .buffers
            .get(id)
            .ok_or_else(|| Error::Exec(format!("buffer slot {id} out of range")))?;
        slot.parts[0]
            .set(Arc::new(chunks.into_iter().map(Arc::new).collect()))
            .map_err(|_| Error::Exec(format!("buffer {id} published twice")))?;
        for part in &slot.parts[1..] {
            part.set(Arc::new(Vec::new()))
                .map_err(|_| Error::Exec(format!("buffer {id} published twice")))?;
        }
        Ok(())
    }

    /// Seal one partition of a buffer (called by parallel merge tasks).
    pub fn publish_buffer_partition(
        &self,
        id: usize,
        part: usize,
        chunks: Vec<DataChunk>,
    ) -> Result<()> {
        self.log_write(ResourceId::BufferPart(id, part));
        self.buffers
            .get(id)
            .ok_or_else(|| Error::Exec(format!("buffer slot {id} out of range")))?
            .parts
            .get(part)
            .ok_or_else(|| Error::Exec(format!("buffer {id} partition {part} out of range")))?
            .set(Arc::new(chunks.into_iter().map(Arc::new).collect()))
            .map_err(|_| Error::Exec(format!("buffer {id} partition {part} published twice")))
    }

    pub fn publish_filter(&self, id: usize, filter: TransferFilter) -> Result<()> {
        self.log_write(ResourceId::Filter(id));
        self.filters
            .get(id)
            .ok_or_else(|| Error::Exec(format!("filter slot {id} out of range")))?
            .set(Arc::new(filter))
            .map_err(|_| Error::Exec(format!("bloom filter {id} published twice")))
    }

    pub fn publish_table(&self, id: usize, table: JoinHashTable) -> Result<()> {
        self.log_write(ResourceId::HashTable(id));
        self.tables
            .get(id)
            .ok_or_else(|| Error::Exec(format!("hash table slot {id} out of range")))?
            .set(Arc::new(table))
            .map_err(|_| Error::Exec(format!("hash table {id} published twice")))
    }
}

/// Where a pipeline's morsels come from (`GetData`).
///
/// Opening a scan is cheap — it resolves what the stream will cover (which
/// blocks survive zone-map pruning, which sealed buffer partition) and
/// decodes or copies nothing. The work happens per morsel, on whichever
/// worker claims it, so no whole-input chunk list is ever resident. The
/// one exception is [`crate::wcoj::GenericJoinScan`], which does its work
/// in `open`: no output row exists before every input has been joined.
pub trait Source: Send + Sync {
    /// Open the whole input. `ctx` carries the metrics sink for scan-side
    /// counters.
    fn open<'a>(&'a self, ctx: &ExecContext, res: &Resources) -> Result<Box<dyn Morsels + 'a>>;

    /// The buffer this source can read partition-by-partition, if any.
    /// Sources reporting `Some(buf)` let the global scheduler start the
    /// pipeline's morsels for partition `p` as soon as the producer seals
    /// `p` (a partition-scoped morsel stream via
    /// [`Source::open_partition`]), instead of waiting for the whole buffer.
    fn partitioned_input(&self) -> Option<usize> {
        None
    }

    /// Open one input partition; only called for sources reporting
    /// [`Source::partitioned_input`], with `part` already sealed.
    fn open_partition<'a>(
        &'a self,
        ctx: &ExecContext,
        res: &Resources,
        part: usize,
    ) -> Result<Box<dyn Morsels + 'a>> {
        let _ = part;
        self.open(ctx, res)
    }
}

/// An opened [`Source`]: a fixed number of morsels, each produced on
/// demand by the worker that claims it.
pub trait Morsels: Send + Sync {
    /// Number of morsels in the stream.
    fn count(&self) -> usize;

    /// Produce morsel `i` as an owned chunk, charging the work budget the
    /// morsel's input row count. `None` = nothing of it survives the
    /// source's own predicate.
    fn morsel(&self, i: usize, ctx: &ExecContext) -> Result<Option<DataChunk>>;
}

/// A streaming (non-breaking) operator (`Execute`).
pub trait Operator: Send + Sync {
    /// Push one chunk through; `None` means it was filtered to nothing.
    fn execute(
        &self,
        chunk: DataChunk,
        ctx: &ExecContext,
        res: &Resources,
    ) -> Result<Option<DataChunk>>;
}

/// Per-thread sink state (`Sink`); the workers' states are merged and
/// published by their factory's [`PartitionMerger`].
pub trait Sink: Send + Any {
    /// Consume one chunk on a worker thread.
    fn sink(&mut self, chunk: DataChunk, ctx: &ExecContext) -> Result<()>;

    /// Rows that have entered this sink (for the intermediate-tuple metric).
    fn rows(&self) -> u64;

    /// Downcast support for [`SinkFactory::make_merger`].
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// Builds one [`Sink`] per worker thread, and merges the workers' states
/// through a [`PartitionMerger`] — one protocol for all four materializing
/// sinks (buffer/CreateBF, hash build, aggregate, sort) at any partition
/// count, one partition included.
pub trait SinkFactory: Send + Sync {
    fn make(&self, ctx: &ExecContext) -> Result<Box<dyn Sink>>;

    /// Turn the workers' sink states into a merge plan whose per-partition
    /// tasks the *caller* schedules (the executor runs them on the worker
    /// pool that ran the morsels).
    fn make_merger(
        &self,
        states: Vec<Box<dyn Sink>>,
        ctx: &ExecContext,
    ) -> Result<Box<dyn PartitionMerger>>;

    /// Standalone merge: build the merger, run every partition task on the
    /// calling thread, finish, and record merge stats. The executor
    /// schedules the merger's tasks on its worker pool instead; this entry
    /// point serves sink-level test harnesses.
    fn merge_partitioned(
        &self,
        states: Vec<Box<dyn Sink>>,
        ctx: &ExecContext,
        res: &Resources,
    ) -> Result<()> {
        let merger = self.make_merger(states, ctx)?;
        for p in 0..merger.partitions() {
            merger.merge_partition(p, ctx, res)?;
        }
        merger.finish(ctx, res)?;
        ctx.metrics
            .record_merge(merger.partitions() as u64, merger.max_task_rows());
        Ok(())
    }
}

/// A sink's merge plan: one independent task per partition of the sink
/// state plus a final publication step, created once every worker's
/// [`Sink`] state has been collected.
///
/// Contract: `merge_partition(p)` is called exactly once per partition, in
/// any order, from any thread — each call seals partition `p`'s resources
/// (e.g. via [`Resources::publish_buffer_partition`]) without touching any
/// other partition, which is what lets consumers start on `p` immediately.
/// `finish` runs after *all* partition tasks and publishes the
/// whole-resource results (transfer filters, the assembled hash table).
///
/// The executor fires each buffer grain `BufferPart(b, p)` exactly once:
/// when merge task `p` returns, for `p < partitions()`, and when `finish`
/// returns for the partitions the state does not have. A state may have
/// fewer partitions than the [`Resources`]: a global aggregate keeps one
/// group table at any partition count, so its one merge task publishes
/// the whole buffer ([`Resources::publish_buffer`]) and grains `1..` fire
/// at `finish`. `SortMerger`'s merge tasks publish nothing — the order
/// spans partitions, so `finish` publishes the whole buffer — and its
/// early grains wake nobody, because no pipeline reads a sort sink's
/// buffer.
pub trait PartitionMerger: Send + Sync {
    /// Number of partition merge tasks.
    fn partitions(&self) -> usize;

    /// Merge and seal one partition.
    fn merge_partition(&self, part: usize, ctx: &ExecContext, res: &Resources) -> Result<()>;

    /// Publish everything that needs all partitions merged first.
    fn finish(&self, ctx: &ExecContext, res: &Resources) -> Result<()>;

    /// Rows handled by the largest partition task so far.
    fn max_task_rows(&self) -> u64;
}

/// Per-partition payloads handed to the parallel merge tasks: slot `p`
/// holds every worker's partition-`p` state, taken exactly once by the
/// task that merges partition `p`.
pub(crate) struct PartitionSlots<T>(Vec<Mutex<Option<Vec<T>>>>);

impl<T> PartitionSlots<T> {
    /// Transpose worker-major state (`per_worker[w][p]`) into
    /// partition-major slots.
    pub(crate) fn transpose(per_worker: Vec<Vec<T>>, partitions: usize) -> PartitionSlots<T> {
        let mut per_part: Vec<Vec<T>> = (0..partitions)
            .map(|_| Vec::with_capacity(per_worker.len()))
            .collect();
        for worker in per_worker {
            debug_assert_eq!(worker.len(), partitions);
            for (p, state) in worker.into_iter().enumerate() {
                per_part[p].push(state);
            }
        }
        PartitionSlots(per_part.into_iter().map(|v| Mutex::new(Some(v))).collect())
    }

    /// Take partition `p`'s payloads (errors if taken twice — the merge
    /// contract calls each partition exactly once).
    pub(crate) fn take(&self, p: usize) -> Result<Vec<T>> {
        lock_or_err(&self.0[p], "partition slot")?
            .take()
            .ok_or_else(|| Error::Exec(format!("partition {p} payload taken twice")))
    }
}

/// A sink's run: a [`SpillBuffer`] with no cap of its own, its spill file
/// tagged with the query id and, under a memory governor, registered as
/// `evictable` (a spill candidate) or not (a hash build, whose rows must
/// stay in memory and only add pressure).
pub(crate) fn governed_run(schema: &Schema, evictable: bool, ctx: &ExecContext) -> SpillBuffer {
    let run = SpillBuffer::new(schema.clone(), usize::MAX, ctx.spill_dir.clone())
        .with_file_tag(ctx.query_id);
    match &ctx.governor {
        Some(gov) => run.with_governor(gov.register(evictable)),
        None => run,
    }
}

/// Restore `runs` in order and concatenate their chunks, folding each
/// run's spill statistics into the query's metrics. Every merge consumes
/// its runs through here, so the `spill_*` counters cover every spill path.
pub(crate) fn restore_runs(
    runs: impl IntoIterator<Item = SpillBuffer>,
    metrics: &crate::context::Metrics,
) -> Result<Vec<DataChunk>> {
    let mut chunks = Vec::new();
    for mut run in runs {
        chunks.extend(run.take_chunks()?);
        record_spill_stats(metrics, run.stats());
    }
    Ok(chunks)
}

/// Fold one buffer's [`rpt_storage::SpillStats`] into the query's
/// `spill_*` metrics family.
fn record_spill_stats(metrics: &crate::context::Metrics, st: rpt_storage::SpillStats) {
    if st.encoded_bytes_spilled > 0 {
        metrics.add(
            &metrics.spill_bytes_written,
            st.encoded_bytes_spilled as u64,
        );
        // Gauge: decoded bytes per 100 encoded bytes (200 = halved).
        metrics.max_update(
            &metrics.spill_compression_ratio_pct,
            (st.bytes_spilled as u64).saturating_mul(100) / (st.encoded_bytes_spilled as u64),
        );
    }
    metrics.add(&metrics.spill_bytes_read, st.bytes_read as u64);
    metrics.add(&metrics.spill_victim_evictions, st.victim_evictions as u64);
}

/// Lock a mutex, surfacing poisoning as an execution error instead of a
/// panic — operator code must stay panic-free (`cargo xtask lint` rule A).
pub(crate) fn lock_or_err<'a, T>(
    m: &'a Mutex<T>,
    what: &str,
) -> Result<std::sync::MutexGuard<'a, T>> {
    m.lock()
        .map_err(|_| Error::Exec(format!("{what} lock poisoned")))
}

/// Downcast every worker's state to `S` for a merger, with a uniform
/// error. A merge needs at least one state (the executor always makes one).
pub(crate) fn downcast_states<S: Sink>(states: Vec<Box<dyn Sink>>) -> Result<Vec<S>> {
    if states.is_empty() {
        return Err(Error::Exec("sink merge without worker states".into()));
    }
    states
        .into_iter()
        .map(|s| match s.into_any().downcast::<S>() {
            Ok(s) => Ok(*s),
            Err(_) => Err(Error::Exec("merging mismatched sink states".into())),
        })
        .collect()
}

/// Vectorized key hashes over the logical rows of a chunk, computed
/// straight from the typed payloads (no gathered copy of the key columns).
pub(crate) fn key_hashes(chunk: &DataChunk, key_cols: &[usize]) -> Vec<u64> {
    let refs: Vec<&Vector> = key_cols.iter().map(|&k| &chunk.columns[k]).collect();
    rpt_common::hash::hash_columns_sel(&refs, chunk.selection.as_deref(), chunk.num_rows())
}

/// The [`key_hashes`] of one sunk chunk, computed once per distinct set of
/// key columns: a sink's Bloom requests and its partition routing mostly
/// hash the same columns.
pub(crate) struct KeyHashes<'a> {
    chunk: &'a DataChunk,
    sets: Vec<(Vec<usize>, Vec<u64>)>,
}

impl<'a> KeyHashes<'a> {
    pub(crate) fn of(chunk: &'a DataChunk) -> KeyHashes<'a> {
        KeyHashes {
            chunk,
            sets: Vec::new(),
        }
    }

    pub(crate) fn chunk(&self) -> &'a DataChunk {
        self.chunk
    }

    /// One hash per logical row of the chunk over `key_cols`.
    pub(crate) fn get(&mut self, key_cols: &[usize]) -> &[u64] {
        let at = match self.sets.iter().position(|(k, _)| k == key_cols) {
            Some(at) => at,
            None => {
                let hashes = key_hashes(self.chunk, key_cols);
                self.sets.push((key_cols.to_vec(), hashes));
                self.sets.len() - 1
            }
        };
        &self.sets[at].1
    }
}
