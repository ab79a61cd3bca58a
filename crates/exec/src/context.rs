//! Execution context: work budget (timeout analogue), thread count, memory
//! governor, spill directory, and metrics.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rpt_common::{Error, Result};

// Only the benchmark's `Spec::options` names this (it assigns
// `QueryOptions::scheduler`); the next `benchmark` change can drop both.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    Global,
}

/// Process default for the query-wide memory budget: `RPT_MEMORY_BUDGET`
/// in bytes (`None` when unset/unparsable — no governor, so nothing
/// spills). The forced-spill CI leg sets a tiny value so every
/// materializing sink spills.
pub fn memory_budget_from_env() -> Option<usize> {
    std::env::var("RPT_MEMORY_BUDGET").ok()?.parse().ok()
}

/// Whether plans are verified.
///
/// `Strict` runs the static plan verifier before execution and the
/// observed-access reconciliation after execution, failing the query on
/// any violation. `Off` skips both. Debug builds default to `Strict` (the
/// checks subsume the old `debug_assert!`s); release builds default to
/// `Off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyMode {
    Off,
    Strict,
}

impl VerifyMode {
    /// Process default: `RPT_PLAN_VERIFY` (`off` / `strict`), else `Strict`
    /// in debug builds and `Off` in release. An explicit `off` is honored
    /// even in debug builds; any other value (`warn` included) falls back
    /// to the build default.
    pub fn from_env() -> VerifyMode {
        VerifyMode::from_setting(std::env::var("RPT_PLAN_VERIFY").ok().as_deref())
    }

    /// The mode a `RPT_PLAN_VERIFY` value selects (`None` = unset).
    fn from_setting(setting: Option<&str>) -> VerifyMode {
        match setting {
            Some(v)
                if v.eq_ignore_ascii_case("off") || v == "0" || v.eq_ignore_ascii_case("false") =>
            {
                VerifyMode::Off
            }
            Some(v)
                if v.eq_ignore_ascii_case("strict") || v == "1" || v.eq_ignore_ascii_case("on") =>
            {
                VerifyMode::Strict
            }
            _ => {
                if cfg!(debug_assertions) {
                    VerifyMode::Strict
                } else {
                    VerifyMode::Off
                }
            }
        }
    }

    /// Should the verifier / checks run (and fail the query on a
    /// violation)?
    pub fn enabled(self) -> bool {
        matches!(self, VerifyMode::Strict)
    }
}

/// Number of hardware threads, the default worker-pool size.
pub fn default_worker_count() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Counters collected during execution. All counters are cumulative across
/// the pipelines of one query execution.
///
/// `intermediate_tuples` is the quantity the paper's theory bounds: the sum
/// of rows flowing into every pipeline sink except the final output — i.e.
/// the materialized state between pipeline stages (hash-join builds,
/// transfer-phase buffers, join-phase intermediates). The case study of
/// Figure 11 and the adversarial instance of Figure 12 are reported in this
/// metric.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Rows produced by table scans (after pushed-down filters).
    pub scan_rows: AtomicU64,
    /// Rows entering Bloom probes.
    pub bloom_probe_in: AtomicU64,
    /// Rows surviving Bloom probes.
    pub bloom_probe_out: AtomicU64,
    /// Keys inserted into Bloom filters (CreateBF work).
    pub bloom_build_rows: AtomicU64,
    /// Rows inserted into join hash tables.
    pub hash_build_rows: AtomicU64,
    /// Rows entering hash-join probes (each pays a hash-table lookup).
    pub join_probe_in: AtomicU64,
    /// Rows emitted by hash-join probes.
    pub join_output_rows: AtomicU64,
    /// Σ rows into non-final sinks (see struct docs).
    pub intermediate_tuples: AtomicU64,
    /// Rows in the final result.
    pub output_rows: AtomicU64,
    /// Non-empty chunks the sources handed to their pipelines (one per
    /// `Morsels::morsel` call that produced rows). Not work — the same rows
    /// in fewer, fuller chunks are the same work — but every chunk pays
    /// the per-chunk costs of every operator after it, so this pins how
    /// well the sinks upstream kept their stored chunks vector-sized.
    pub source_chunks: AtomicU64,
    /// Nanoseconds spent in Bloom filter build + probe (the §5.5 breakdown).
    pub bloom_nanos: AtomicU64,
    /// Per-partition sink-merge tasks executed (one per partition of every
    /// merged sink state).
    pub merge_tasks: AtomicU64,
    /// Rows handled by the largest single merge task — with
    /// `partition_count > 1` this must stay below the row count of every
    /// non-trivial sink (no merge task covers a full result).
    pub merge_max_task_rows: AtomicU64,
    /// Tasks executed by the scheduler (morsels + merges + setup).
    pub sched_tasks: AtomicU64,
    /// Downstream partition tasks that started while their producer
    /// pipeline had not yet sealed all partitions — the partition-overlap
    /// win partition-granular readiness exists for.
    pub sched_overlap_tasks: AtomicU64,
    /// Deepest the task queue ever got.
    pub sched_max_queue_depth: AtomicU64,
    /// Nanoseconds workers spent executing tasks (Σ over workers).
    pub sched_busy_nanos: AtomicU64,
    /// Thread-lifetime wall nanoseconds, summed per worker (each worker
    /// contributes its own spawn-to-exit span); utilization is
    /// `busy / wall` — meaningful even when some workers idle.
    pub sched_wall_nanos: AtomicU64,
    /// Worker-pool size of the last run.
    pub sched_workers: AtomicU64,
    /// Chunks consumed by aggregate sinks on the fixed-width packed-key
    /// fast path (type-specialized group tables).
    pub agg_fast_path_chunks: AtomicU64,
    /// Chunks consumed by aggregate sinks on the generic encoded-key path.
    pub agg_generic_chunks: AtomicU64,
    /// Storage blocks skipped by zone-map pruning before decode.
    pub blocks_pruned: AtomicU64,
    /// Storage blocks decoded and scanned.
    pub blocks_scanned: AtomicU64,
    /// Rows discarded by sort sinks' TopK bound (never fully sorted).
    pub sort_rows_pruned: AtomicU64,
    /// Per-partition sort-run merge tasks executed.
    pub sort_merge_tasks: AtomicU64,
    /// Rows in the largest per-partition sorted run a sort sink kept —
    /// with a TopK bound this must stay at `limit + offset` or below.
    pub sort_max_run_rows: AtomicU64,
    /// Verifier-mode checks executed this query: static plan-verifier
    /// rules and access-log reconciliations (only counted when
    /// `VerifyMode` is on).
    pub verify_checks_run: AtomicU64,
    /// Bytes written to spill files (encoded, on-disk form).
    pub spill_bytes_written: AtomicU64,
    /// Bytes read back from spill files on restore.
    pub spill_bytes_read: AtomicU64,
    /// Running-maximum gauge: decoded (logical) spill bytes × 100 over
    /// encoded spill bytes — 200 means the block codecs halved the spill.
    pub spill_compression_ratio_pct: AtomicU64,
    /// Whole-buffer evictions requested by the memory governor.
    pub spill_victim_evictions: AtomicU64,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    pub fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise `counter` to at least `n` (running-maximum counters).
    pub fn max_update(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_max(n, Ordering::Relaxed);
    }

    pub fn get(&self, counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Record one partitioned sink merge into the cumulative
    /// `merge_tasks` / `merge_max_task_rows` counters: how many
    /// per-partition tasks ran and the largest task's row count.
    pub fn record_merge(&self, tasks: u64, max_task_rows: u64) {
        self.add(&self.merge_tasks, tasks);
        self.max_update(&self.merge_max_task_rows, max_task_rows);
    }

    /// Snapshot of the headline numbers.
    pub fn summary(&self) -> MetricsSummary {
        MetricsSummary {
            scan_rows: self.scan_rows.load(Ordering::Relaxed),
            bloom_probe_in: self.bloom_probe_in.load(Ordering::Relaxed),
            bloom_probe_out: self.bloom_probe_out.load(Ordering::Relaxed),
            bloom_build_rows: self.bloom_build_rows.load(Ordering::Relaxed),
            hash_build_rows: self.hash_build_rows.load(Ordering::Relaxed),
            join_probe_in: self.join_probe_in.load(Ordering::Relaxed),
            join_output_rows: self.join_output_rows.load(Ordering::Relaxed),
            intermediate_tuples: self.intermediate_tuples.load(Ordering::Relaxed),
            output_rows: self.output_rows.load(Ordering::Relaxed),
            source_chunks: self.source_chunks.load(Ordering::Relaxed),
            bloom_nanos: self.bloom_nanos.load(Ordering::Relaxed),
            merge_tasks: self.merge_tasks.load(Ordering::Relaxed),
            merge_max_task_rows: self.merge_max_task_rows.load(Ordering::Relaxed),
            sched_tasks: self.sched_tasks.load(Ordering::Relaxed),
            sched_overlap_tasks: self.sched_overlap_tasks.load(Ordering::Relaxed),
            sched_max_queue_depth: self.sched_max_queue_depth.load(Ordering::Relaxed),
            sched_busy_nanos: self.sched_busy_nanos.load(Ordering::Relaxed),
            sched_wall_nanos: self.sched_wall_nanos.load(Ordering::Relaxed),
            sched_workers: self.sched_workers.load(Ordering::Relaxed),
            agg_fast_path_chunks: self.agg_fast_path_chunks.load(Ordering::Relaxed),
            agg_generic_chunks: self.agg_generic_chunks.load(Ordering::Relaxed),
            blocks_pruned: self.blocks_pruned.load(Ordering::Relaxed),
            blocks_scanned: self.blocks_scanned.load(Ordering::Relaxed),
            sort_rows_pruned: self.sort_rows_pruned.load(Ordering::Relaxed),
            sort_merge_tasks: self.sort_merge_tasks.load(Ordering::Relaxed),
            sort_max_run_rows: self.sort_max_run_rows.load(Ordering::Relaxed),
            verify_checks_run: self.verify_checks_run.load(Ordering::Relaxed),
            spill_bytes_written: self.spill_bytes_written.load(Ordering::Relaxed),
            spill_bytes_read: self.spill_bytes_read.load(Ordering::Relaxed),
            spill_compression_ratio_pct: self.spill_compression_ratio_pct.load(Ordering::Relaxed),
            spill_prefetch_hits: 0,
            spill_prefetch_misses: 0,
            spill_victim_evictions: self.spill_victim_evictions.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of [`Metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSummary {
    pub scan_rows: u64,
    pub bloom_probe_in: u64,
    pub bloom_probe_out: u64,
    pub bloom_build_rows: u64,
    pub hash_build_rows: u64,
    pub join_probe_in: u64,
    pub join_output_rows: u64,
    pub intermediate_tuples: u64,
    pub output_rows: u64,
    pub source_chunks: u64,
    pub bloom_nanos: u64,
    pub merge_tasks: u64,
    pub merge_max_task_rows: u64,
    pub sched_tasks: u64,
    pub sched_overlap_tasks: u64,
    pub sched_max_queue_depth: u64,
    pub sched_busy_nanos: u64,
    pub sched_wall_nanos: u64,
    pub sched_workers: u64,
    pub agg_fast_path_chunks: u64,
    pub agg_generic_chunks: u64,
    pub blocks_pruned: u64,
    pub blocks_scanned: u64,
    pub sort_rows_pruned: u64,
    pub sort_merge_tasks: u64,
    pub sort_max_run_rows: u64,
    pub verify_checks_run: u64,
    pub spill_bytes_written: u64,
    pub spill_bytes_read: u64,
    pub spill_compression_ratio_pct: u64,
    pub spill_victim_evictions: u64,
    // Always 0: a spilled run is restored only by its merge task, never
    // prefetched. Only the benchmark reads them, and the next `benchmark`
    // change can drop both.
    #[doc(hidden)]
    pub spill_prefetch_hits: u64,
    #[doc(hidden)]
    pub spill_prefetch_misses: u64,
}

impl MetricsSummary {
    /// The robustness work metric: tuples processed through stateful
    /// operators. Deterministic, hardware-independent. `scan_rows` is
    /// deliberately excluded: scans are stateless and join-order-invariant,
    /// so counting them would only compress the relative work ratios the
    /// robustness experiments measure.
    pub fn total_work(&self) -> u64 {
        self.bloom_probe_in
            + self.bloom_build_rows
            + self.hash_build_rows
            + self.join_probe_in
            + self.join_output_rows
    }

    /// Cost-weighted work: Bloom operations are ≈5× cheaper per tuple than
    /// hash-table operations (the Figure 16 microbenchmark measures 2–7×),
    /// so speedup comparisons weight them at 0.2. This is the deterministic
    /// analogue of the paper's wall-time speedups.
    pub fn weighted_work(&self) -> f64 {
        0.2 * self.bloom_probe_in as f64
            + 0.2 * self.bloom_build_rows as f64
            + self.hash_build_rows as f64
            + self.join_probe_in as f64
            + self.join_output_rows as f64
    }
}

/// Shared execution context.
#[derive(Clone)]
pub struct ExecContext {
    pub metrics: Arc<Metrics>,
    /// Abort once `work_done` exceeds this many tuples (`None` = unlimited).
    pub work_budget: Option<u64>,
    work_done: Arc<AtomicU64>,
    /// Number of execution threads (1 = the paper's default single-threaded
    /// setting; 32 reproduces §5.3).
    pub threads: usize,
    /// Directory for spill files.
    pub spill_dir: PathBuf,
    /// Hash partitions per materializing sink (power of two; 1 = one
    /// partition, merged by a single merge task). Defaults to
    /// `RPT_PARTITION_COUNT` when set.
    pub partition_count: usize,
    /// Worker-pool size (defaults to `available_parallelism()`).
    pub workers: usize,
    /// Plan-verification mode (defaults from `RPT_PLAN_VERIFY`; debug
    /// builds default to `Strict`). Gates the observed-access shadow log.
    pub verify: VerifyMode,
    /// Query-wide memory governor all materializing sinks register with;
    /// it alone decides which buffer spills, and when (`None` = no budget,
    /// nothing spills). Reproduces the "+spill" configuration. Built from
    /// `QueryOptions::memory_budget_bytes` / `RPT_MEMORY_BUDGET`.
    pub governor: Option<Arc<rpt_storage::MemoryGovernor>>,
    /// Process-unique query id baked into spill file names (orphan-sweep
    /// forensics and lifecycle tests).
    pub query_id: u64,
}

/// Process-wide query-id allocator for [`ExecContext::query_id`].
static QUERY_ID: AtomicU64 = AtomicU64::new(0);

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::new()
    }
}

impl ExecContext {
    pub fn new() -> Self {
        ExecContext {
            metrics: Arc::new(Metrics::new()),
            work_budget: None,
            work_done: Arc::new(AtomicU64::new(0)),
            threads: 1,
            spill_dir: std::env::temp_dir(),
            partition_count: rpt_common::partition_count_from_env(),
            workers: default_worker_count(),
            verify: VerifyMode::from_env(),
            governor: memory_budget_from_env()
                .map(|b| Arc::new(rpt_storage::MemoryGovernor::new(b))),
            query_id: QUERY_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Set the plan-verification mode.
    pub fn with_verify(mut self, verify: VerifyMode) -> Self {
        self.verify = verify;
        self
    }

    /// Size the worker pool.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    pub fn with_budget(mut self, budget: u64) -> Self {
        self.work_budget = Some(budget);
        self
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the directory every spill run goes to; the memory governor
    /// (see [`Self::with_memory_budget`]) decides what spills.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = dir.into();
        self
    }

    /// Set the sink partition count (normalized to a power of two).
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partition_count = rpt_common::normalize_partition_count(partitions);
        self
    }

    /// Install a query-wide memory governor with the given byte budget
    /// (`None` removes it).
    pub fn with_memory_budget(mut self, budget_bytes: Option<usize>) -> Self {
        self.governor = budget_bytes.map(|b| Arc::new(rpt_storage::MemoryGovernor::new(b)));
        self
    }

    /// Charge `n` tuples of work; error once over budget.
    #[inline]
    pub fn charge(&self, n: u64) -> Result<()> {
        let done = self.work_done.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(budget) = self.work_budget {
            if done > budget {
                return Err(Error::BudgetExceeded {
                    processed: done,
                    budget,
                });
            }
        }
        Ok(())
    }

    pub fn work_done(&self) -> u64 {
        self.work_done.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A debug build verifies every plan strictly unless `RPT_PLAN_VERIFY`
    /// says `off`, so a plain debug `cargo test` is a strict-verifier run
    /// of every suite and needs no second run under `strict`. A value that
    /// names no mode (`warn` among them) falls back to that default.
    #[cfg(debug_assertions)]
    #[test]
    fn debug_builds_verify_strictly_by_default() {
        assert_eq!(VerifyMode::from_setting(None), VerifyMode::Strict);
        assert_eq!(VerifyMode::from_setting(Some("off")), VerifyMode::Off);
        assert_eq!(VerifyMode::from_setting(Some("warn")), VerifyMode::Strict);
        if std::env::var_os("RPT_PLAN_VERIFY").is_none() {
            assert_eq!(ExecContext::new().verify, VerifyMode::Strict);
        }
    }

    #[test]
    fn budget_enforced() {
        let ctx = ExecContext::new().with_budget(100);
        assert!(ctx.charge(60).is_ok());
        assert!(ctx.charge(40).is_ok());
        let err = ctx.charge(1).unwrap_err();
        assert!(err.is_budget());
        assert_eq!(ctx.work_done(), 101);
    }

    #[test]
    fn unlimited_by_default() {
        let ctx = ExecContext::new();
        assert!(ctx.charge(u64::MAX / 2).is_ok());
    }

    #[test]
    fn metrics_roundtrip() {
        let m = Metrics::new();
        m.add(&m.join_output_rows, 7);
        m.add(&m.join_output_rows, 3);
        m.record_merge(8, 40);
        m.record_merge(1, 12);
        let s = m.summary();
        assert_eq!(s.join_output_rows, 10);
        assert_eq!((s.merge_tasks, s.merge_max_task_rows), (9, 40));
        assert_eq!(s.total_work(), 10);
    }

    #[test]
    fn verify_mode_gates() {
        assert!(VerifyMode::Strict.enabled());
        assert!(!VerifyMode::Off.enabled());
    }

    #[test]
    fn verify_checks_metric_roundtrip() {
        let m = Metrics::new();
        m.add(&m.verify_checks_run, 3);
        assert_eq!(m.summary().verify_checks_run, 3);
    }

    #[test]
    fn context_clone_shares_counters() {
        let ctx = ExecContext::new().with_budget(10);
        let ctx2 = ctx.clone();
        ctx.charge(6).unwrap();
        assert!(ctx2.charge(6).is_err());
    }
}
