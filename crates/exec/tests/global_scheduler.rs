//! The global morsel-driven scheduler: readiness/topology units, the
//! partition-overlap rendezvous proof, and parity with an independent
//! reference across the partition × worker matrix at the executor level.
//!
//! The rendezvous test is the acceptance check for partition-wise
//! downstream scheduling: a producer whose partition-1 merge *blocks until
//! the consumer has started processing partition 0* can only complete if
//! the consumer's partition tasks become runnable the moment their
//! partition seals — a scheduler that barriers on the whole buffer
//! deadlocks (and fails via timeout) instead.

use rpt_common::{DataChunk, DataType, Error, Field, Result, ScalarValue, Schema, Vector};
use rpt_exec::operators::buffer::BufferSinkFactory;
use rpt_exec::operators::{AggregateFactory, BufferScan, TableScan};
use rpt_exec::{
    run_physical_global, CmpOp, ExecContext, Executor, Expr, Morsels, NodeDeps, OpSpec, Operator,
    PartitionMerger, PhysicalPipeline, PipelinePlan, ResourceId, Resources, Sink, SinkFactory,
    SinkSpec, Source, SourceSpec,
};
use rpt_storage::{StoredTable, Table};
use std::any::Any;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn table(name: &str, ids: Vec<i64>, vals: Vec<i64>) -> Arc<StoredTable> {
    Arc::new(StoredTable::new(
        Table::new(
            name,
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("v", DataType::Int64),
            ]),
            vec![Vector::from_i64(ids), Vector::from_i64(vals)],
        )
        .unwrap(),
    ))
}

fn two_col_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("v", DataType::Int64),
    ])
}

/// Every partition grain of buffer `buf` at `partitions` partitions.
fn parts(buf: usize, partitions: usize) -> Vec<ResourceId> {
    (0..partitions)
        .map(|p| ResourceId::BufferPart(buf, p))
        .collect()
}

fn collect_pipeline(src: SourceSpec, ops: Vec<OpSpec>, buf_id: usize) -> PipelinePlan {
    PipelinePlan {
        label: format!("collect{buf_id}"),
        source: src,
        ops,
        sink: SinkSpec::Buffer {
            buf_id,
            blooms: vec![],
        },
        intermediate: false,
        sink_schema: two_col_schema(),
    }
}

/// A chained plan (scan → buffer 0 → buffer 1 → buffer 2) executes in
/// topological order on the global pool and produces the sealed buffers.
#[test]
fn chained_buffers_execute_in_dependency_order() {
    for (workers, partitions) in [(1, 1), (2, 2), (4, 8)] {
        let t = table("t", (0..100).collect(), (0..100).collect());
        let ctx = ExecContext::new()
            .with_workers(workers)
            .with_partitions(partitions);
        let mut exec = Executor::new(ctx, 3, 0, 0);
        let p0 = collect_pipeline(SourceSpec::full_scan(t), vec![], 0);
        let p1 = collect_pipeline(SourceSpec::Buffer(0), vec![], 1);
        let p2 = collect_pipeline(SourceSpec::Buffer(1), vec![], 2);
        exec.run_dag(&[p0, p1, p2]).unwrap();
        assert_eq!(
            exec.buffer_rows(2),
            100,
            "workers={workers} pc={partitions}"
        );
        if partitions == 1 {
            // A single partition seals all at once — by definition no
            // consumer task can start before the producer sealed
            // everything, so the overlap counter must stay at zero.
            assert_eq!(exec.ctx.metrics.summary().sched_overlap_tasks, 0);
        }
    }
}

/// Pipelines blocked on an unbuilt hash table stay blocked until the build
/// finalizes; the probe then sees every build row (readiness gating).
#[test]
fn probe_waits_for_hash_table_readiness() {
    let build = table("b", (0..50).collect(), (0..50).map(|x| x * 2).collect());
    let probe = table("p", (0..200).map(|i| i % 60).collect(), (0..200).collect());
    let ctx = ExecContext::new().with_workers(4).with_partitions(4);
    let mut exec = Executor::new(ctx, 1, 0, 1);
    let p_build = PipelinePlan {
        label: "build".into(),
        source: SourceSpec::full_scan(build),
        ops: vec![],
        sink: SinkSpec::HashBuild {
            ht_id: 0,
            key_cols: vec![0],
            blooms: vec![],
        },
        intermediate: true,
        sink_schema: two_col_schema(),
    };
    // List the probe pipeline FIRST: only dependency readiness (not plan
    // order) can sequence it after the build.
    let p_probe = collect_pipeline(
        SourceSpec::full_scan(probe),
        vec![OpSpec::JoinProbe {
            ht_id: 0,
            key_cols: vec![0],
            build_output_cols: vec![1],
        }],
        0,
    );
    exec.run_dag(&[p_probe, p_build]).unwrap();
    // keys 0..50 match; probe ids are i % 60 → 200 * 50/60
    let expected: u64 = (0..200).filter(|i| i % 60 < 50).count() as u64;
    assert_eq!(exec.buffer_rows(0), expected);
}

/// Cyclic dependency records are rejected up front with `Error::Plan`.
#[test]
fn global_scheduler_rejects_cycles() {
    let t = table("t", vec![1, 2], vec![3, 4]);
    let ctx = ExecContext::new().with_workers(2).with_partitions(2);
    let res = Resources::with_partitions(2, 0, 0, 2);
    let phys: Vec<PhysicalPipeline> = vec![
        collect_pipeline(SourceSpec::full_scan(t.clone()), vec![], 0).lower(),
        collect_pipeline(SourceSpec::full_scan(t), vec![], 1).lower(),
    ];
    let deps = vec![
        NodeDeps {
            reads: parts(1, 2),
            writes: parts(0, 2),
        },
        NodeDeps {
            reads: parts(0, 2),
            writes: parts(1, 2),
        },
    ];
    let err = run_physical_global(&phys, &deps, &ctx, &res).unwrap_err();
    assert!(matches!(err, Error::Plan(_)), "got {err}");
}

/// A `deps` slice that is not one record per pipeline is rejected with
/// `Error::Plan`, in every build profile: a short one must not index past
/// its end, and a long one must not be silently ignored.
#[test]
fn global_scheduler_rejects_deps_length_mismatch() {
    let t = table("t", vec![1, 2], vec![3, 4]);
    let ctx = ExecContext::new().with_workers(2).with_partitions(2);
    let res = Resources::with_partitions(2, 0, 0, 2);
    let phys: Vec<PhysicalPipeline> = vec![
        collect_pipeline(SourceSpec::full_scan(t.clone()), vec![], 0).lower(),
        collect_pipeline(SourceSpec::full_scan(t), vec![], 1).lower(),
    ];
    let dep = |buf| NodeDeps {
        reads: vec![],
        writes: parts(buf, 2),
    };
    for deps in [vec![dep(0)], vec![dep(0), dep(1), dep(2)]] {
        let err = run_physical_global(&phys, &deps, &ctx, &res).unwrap_err();
        assert!(
            matches!(err, Error::Plan(_)),
            "{} deps: got {err}",
            deps.len()
        );
    }
}

/// A failing task aborts the run and propagates the first error; dependent
/// pipelines never execute.
#[test]
fn task_error_propagates_and_halts() {
    let t = table("t", (0..100).collect(), (0..100).collect());
    let ctx = ExecContext::new().with_workers(2).with_budget(10); // first morsel blows the budget
    let mut exec = Executor::new(ctx, 2, 0, 0);
    let p0 = collect_pipeline(SourceSpec::full_scan(t), vec![], 0);
    let p1 = collect_pipeline(SourceSpec::Buffer(0), vec![], 1);
    let err = exec.run_dag(&[p0, p1]).unwrap_err();
    assert!(err.is_budget(), "expected budget abort, got {err}");
}

// ---------------------------------------------------------- rendezvous

/// Producer sink state: passthrough row counter (the merger publishes
/// synthetic partitions, so the sunk chunks themselves are discarded).
struct NullSink {
    rows: u64,
}

impl Sink for NullSink {
    fn sink(&mut self, chunk: DataChunk, _ctx: &ExecContext) -> Result<()> {
        self.rows += chunk.num_rows() as u64;
        Ok(())
    }

    fn rows(&self) -> u64 {
        self.rows
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

type Gate = Arc<(Mutex<bool>, Condvar)>;

/// Merger whose partition-1 task BLOCKS until the consumer pipeline has
/// started processing partition 0 (rendezvous with a timeout so a
/// barriering scheduler fails loudly instead of hanging).
struct RendezvousMerger {
    buf_id: usize,
    gate: Gate,
}

impl PartitionMerger for RendezvousMerger {
    fn partitions(&self) -> usize {
        2
    }

    fn merge_partition(&self, part: usize, _ctx: &ExecContext, res: &Resources) -> Result<()> {
        if part == 1 {
            let (lock, cv) = &*self.gate;
            let mut started = lock.lock().unwrap();
            let deadline = Duration::from_secs(10);
            while !*started {
                let (guard, timeout) = cv.wait_timeout(started, deadline).unwrap();
                started = guard;
                if timeout.timed_out() {
                    return Err(Error::Exec(
                        "rendezvous timed out: consumer never started on the sealed \
                         partition while the producer was still merging"
                            .into(),
                    ));
                }
            }
        }
        let base = part as i64 * 100;
        let chunk = DataChunk::new(vec![
            Vector::from_i64((base..base + 10).collect()),
            Vector::from_i64((base..base + 10).collect()),
        ]);
        res.publish_buffer_partition(self.buf_id, part, vec![chunk])
    }

    fn finish(&self, _ctx: &ExecContext, _res: &Resources) -> Result<()> {
        Ok(())
    }

    fn max_task_rows(&self) -> u64 {
        10
    }
}

struct RendezvousFactory {
    buf_id: usize,
    gate: Gate,
}

impl SinkFactory for RendezvousFactory {
    fn make(&self, _ctx: &ExecContext) -> Result<Box<dyn Sink>> {
        Ok(Box::new(NullSink { rows: 0 }))
    }

    fn make_merger(
        &self,
        _states: Vec<Box<dyn Sink>>,
        _ctx: &ExecContext,
    ) -> Result<Box<dyn PartitionMerger>> {
        Ok(Box::new(RendezvousMerger {
            buf_id: self.buf_id,
            gate: self.gate.clone(),
        }))
    }
}

/// Streaming operator that trips the gate: proof the consumer is running.
struct SignalStarted {
    gate: Gate,
}

impl Operator for SignalStarted {
    fn execute(
        &self,
        chunk: DataChunk,
        _ctx: &ExecContext,
        _res: &Resources,
    ) -> Result<Option<DataChunk>> {
        let (lock, cv) = &*self.gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        Ok(Some(chunk))
    }
}

/// THE overlap proof: a consumer partition task runs while the producer is
/// still merging its other partition, and the scheduler counts it.
#[test]
fn consumer_partition_task_overlaps_producer_merge() {
    let gate: Gate = Arc::new((Mutex::new(false), Condvar::new()));
    let ctx = ExecContext::new().with_workers(2).with_partitions(2);
    let res = Resources::with_partitions(2, 0, 0, 2);

    let producer = PhysicalPipeline {
        label: "producer".into(),
        source: SourceSpec::full_scan(table("src", vec![1, 2, 3], vec![0, 0, 0])).lower(),
        ops: vec![],
        sink: Box::new(RendezvousFactory {
            buf_id: 0,
            gate: gate.clone(),
        }),
        intermediate: true,
    };
    let consumer = PhysicalPipeline {
        label: "consumer".into(),
        source: Box::new(BufferScan::new(0)),
        ops: vec![Box::new(SignalStarted { gate: gate.clone() })],
        sink: Box::new(BufferSinkFactory::new(1, two_col_schema(), vec![])),
        intermediate: false,
    };
    let deps = vec![
        NodeDeps {
            reads: vec![],
            writes: parts(0, 2),
        },
        NodeDeps {
            reads: parts(0, 2),
            writes: parts(1, 2),
        },
    ];

    let stats = run_physical_global(&[producer, consumer], &deps, &ctx, &res).unwrap();

    // The rendezvous succeeded (no timeout): partition-0 consumption ran
    // strictly inside the producer's merge window — and the scheduler
    // observed it.
    assert!(stats.overlap_tasks >= 1, "no overlap counted: {stats:?}");
    assert_eq!(stats.pipelines.len(), 2);
    // Both synthetic partitions flowed through the consumer.
    let rows: usize = res.buffer(1).unwrap().iter().map(|c| c.num_rows()).sum();
    assert_eq!(rows, 20);
}

// ------------------------------------- aggregate rendezvous (real merger)

/// Delegates to the *real* [`AggregateFactory`] but wraps its merger so
/// the partition-1 merge blocks until the consumer signals — the
/// aggregate-path twin of [`RendezvousMerger`], proving a consumer of an
/// aggregate buffer runs while the producer is still merging groups.
struct GatedAggFactory {
    inner: AggregateFactory,
    gate: Gate,
}

struct GatedMerger {
    inner: Box<dyn PartitionMerger>,
    gate: Gate,
}

impl SinkFactory for GatedAggFactory {
    fn make(&self, ctx: &ExecContext) -> Result<Box<dyn Sink>> {
        self.inner.make(ctx)
    }

    fn make_merger(
        &self,
        states: Vec<Box<dyn Sink>>,
        ctx: &ExecContext,
    ) -> Result<Box<dyn PartitionMerger>> {
        Ok(Box::new(GatedMerger {
            inner: self.inner.make_merger(states, ctx)?,
            gate: self.gate.clone(),
        }))
    }
}

impl PartitionMerger for GatedMerger {
    fn partitions(&self) -> usize {
        self.inner.partitions()
    }

    fn merge_partition(&self, part: usize, ctx: &ExecContext, res: &Resources) -> Result<()> {
        if part == 1 {
            let (lock, cv) = &*self.gate;
            let mut started = lock.lock().unwrap();
            let deadline = Duration::from_secs(10);
            while !*started {
                let (guard, timeout) = cv.wait_timeout(started, deadline).unwrap();
                started = guard;
                if timeout.timed_out() {
                    return Err(Error::Exec(
                        "aggregate rendezvous timed out: consumer never started on the \
                         sealed partition while the aggregate merge was still running"
                            .into(),
                    ));
                }
            }
        }
        self.inner.merge_partition(part, ctx, res)
    }

    fn finish(&self, ctx: &ExecContext, res: &Resources) -> Result<()> {
        self.inner.finish(ctx, res)
    }

    fn max_task_rows(&self) -> u64 {
        self.inner.max_task_rows()
    }
}

/// A downstream consumer of an *aggregate* buffer becomes runnable the
/// moment its partition seals: with the partition-1 group merge gated on
/// the consumer having started, the run can only complete via overlap —
/// and `overlap_tasks` records it.
#[test]
fn aggregate_consumer_overlaps_group_merge() {
    use rpt_common::hash::hash_i64;
    use rpt_common::Partitioner;
    use rpt_exec::AggExpr;

    // Keys for both of the two hash partitions, so each partition seals a
    // non-empty group chunk.
    let partitioner = Partitioner::new(2);
    let mut keys: Vec<i64> = Vec::new();
    for part in 0..2 {
        keys.extend(
            (0..1000)
                .filter(|&k| partitioner.of_hash(hash_i64(k)) == part)
                .take(5),
        );
    }
    let n = keys.len();
    assert!(n >= 10, "need keys in both partitions");

    let gate: Gate = Arc::new((Mutex::new(false), Condvar::new()));
    let ctx = ExecContext::new().with_workers(2).with_partitions(2);
    let res = Resources::with_partitions(2, 0, 0, 2);
    let out_schema = Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("c", DataType::Int64),
    ]);

    let producer = PhysicalPipeline {
        label: "aggregate".into(),
        source: SourceSpec::full_scan(table("src", keys.clone(), vec![0; n])).lower(),
        ops: vec![],
        sink: Box::new(GatedAggFactory {
            inner: AggregateFactory::new(
                0,
                vec![0],
                vec![AggExpr::count_star("c")],
                vec![DataType::Int64, DataType::Int64],
                out_schema.clone(),
                vec![],
            ),
            gate: gate.clone(),
        }),
        intermediate: true,
    };
    let consumer = PhysicalPipeline {
        label: "consume-groups".into(),
        source: Box::new(BufferScan::new(0)),
        ops: vec![Box::new(SignalStarted { gate: gate.clone() })],
        sink: Box::new(BufferSinkFactory::new(1, out_schema, vec![])),
        intermediate: false,
    };
    let deps = vec![
        NodeDeps {
            reads: vec![],
            writes: parts(0, 2),
        },
        NodeDeps {
            reads: parts(0, 2),
            writes: parts(1, 2),
        },
    ];
    let stats = run_physical_global(&[producer, consumer], &deps, &ctx, &res).unwrap();

    // No timeout: the consumer ran on partition 0's groups strictly inside
    // the producer's merge window, and the scheduler counted the overlap.
    assert!(stats.overlap_tasks >= 1, "no overlap counted: {stats:?}");
    // Every group flowed through: one output row per distinct key.
    let rows: usize = res.buffer(1).unwrap().iter().map(|c| c.num_rows()).sum();
    assert_eq!(rows, n, "expected one group per distinct key");
    // AggExpr goes through the real merger: no merge task saw all groups.
    let agg = &stats.pipelines[0];
    assert!(agg.merge_tasks >= 2, "{agg:?}");
}

// ------------------------------------------------------------- parity

/// Build the two-pipeline join workload used for parity runs.
fn join_pipelines() -> Vec<PipelinePlan> {
    let build = table("b", (0..100).collect(), (0..100).map(|x| x * 10).collect());
    let probe = table("p", (0..300).map(|i| i % 120).collect(), (0..300).collect());
    let p1 = PipelinePlan {
        label: "build".into(),
        source: SourceSpec::full_scan(build),
        ops: vec![],
        sink: SinkSpec::HashBuild {
            ht_id: 0,
            key_cols: vec![0],
            blooms: vec![],
        },
        intermediate: true,
        sink_schema: two_col_schema(),
    };
    let p2 = PipelinePlan {
        label: "probe".into(),
        source: SourceSpec::full_scan(probe),
        ops: vec![OpSpec::JoinProbe {
            ht_id: 0,
            key_cols: vec![0],
            build_output_cols: vec![1],
        }],
        sink: SinkSpec::Buffer {
            buf_id: 0,
            blooms: vec![],
        },
        intermediate: false,
        sink_schema: Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("v", DataType::Int64),
            Field::new("bv", DataType::Int64),
        ]),
    };
    vec![p1, p2]
}

/// Every `partition_count × worker-count` point produces the multiset a
/// nested-loop join over the same two tables does — a reference that
/// shares no operator, sink or scheduler code with the engine.
#[test]
fn global_matches_nested_loop_across_partition_matrix() {
    let run = |partitions: usize, workers: usize| {
        let ctx = ExecContext::new()
            .with_workers(workers)
            .with_partitions(partitions);
        let mut exec = Executor::new(ctx, 1, 0, 1);
        exec.run_dag(&join_pipelines()).unwrap();
        let mut rows: Vec<(i64, i64, i64)> = exec
            .buffer(0)
            .unwrap()
            .iter()
            .flat_map(|c| c.rows())
            .map(|r| {
                (
                    r[0].as_i64().unwrap(),
                    r[1].as_i64().unwrap(),
                    r[2].as_i64().unwrap(),
                )
            })
            .collect();
        rows.sort_unstable();
        (rows, exec.ctx.metrics.summary())
    };
    // The tables of `join_pipelines`, joined row by row.
    let build: Vec<(i64, i64)> = (0..100).map(|x| (x, x * 10)).collect();
    let probe: Vec<(i64, i64)> = (0..300).map(|i| (i % 120, i)).collect();
    let mut expected: Vec<(i64, i64, i64)> = Vec::new();
    for &(pid, pv) in &probe {
        for &(bid, bv) in &build {
            if pid == bid {
                expected.push((pid, pv, bv));
            }
        }
    }
    expected.sort_unstable();
    for partitions in [1usize, 2, 8] {
        for workers in [1usize, 2, 8] {
            let (rows, m) = run(partitions, workers);
            assert_eq!(rows, expected, "pc={partitions} workers={workers} differs");
            // Deterministic totals: same tuples flowed through the same
            // operators under any scheduling.
            assert_eq!(m.hash_build_rows, build.len() as u64);
            assert_eq!(m.join_output_rows, expected.len() as u64);
            assert_eq!(m.output_rows, expected.len() as u64);
        }
    }
}

/// With `threads == 1` every pipeline is an ordered chain, so a buffer's
/// *chunk order* — not just its multiset — is the same for any pool size,
/// and with one partition it is the source order itself.
#[test]
fn ordered_chains_are_bit_deterministic() {
    let run = |workers: usize, partitions: usize| {
        let ctx = ExecContext::new()
            .with_workers(workers)
            .with_partitions(partitions);
        let mut exec = Executor::new(ctx, 2, 0, 0);
        let t = table("t", (0..5000).collect(), (0..5000).collect());
        let p0 = collect_pipeline(SourceSpec::full_scan(t), vec![], 0);
        let p1 = collect_pipeline(SourceSpec::Buffer(0), vec![], 1);
        exec.run_dag(&[p0, p1]).unwrap();
        let chunks = exec.buffer(1).unwrap();
        chunks
            .iter()
            .flat_map(|c| c.rows())
            .map(|r| r[0].as_i64().unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(1, 1), (0..5000).collect::<Vec<_>>());
    let base = run(1, 4);
    for workers in [2usize, 8] {
        assert_eq!(run(workers, 4), base, "workers={workers}");
    }
}

// ------------------------------------------- scan-morsel rendezvous

/// A fused table scan instrumented at the `Source` contract's two seams:
/// `open` fails if anything was decoded by the time it returns, and the
/// first two morsel productions wait for each other before decoding (with
/// a timeout, so a driver that produces scan morsels on one worker — or
/// inside `Open` — fails loudly instead of hanging).
struct RendezvousScan {
    scan: TableScan,
    inside: (Mutex<usize>, Condvar),
}

struct RendezvousMorsels<'a> {
    morsels: Box<dyn Morsels + 'a>,
    inside: &'a (Mutex<usize>, Condvar),
}

impl Source for RendezvousScan {
    fn open<'a>(&'a self, ctx: &ExecContext, res: &Resources) -> Result<Box<dyn Morsels + 'a>> {
        let morsels = self.scan.open(ctx, res)?;
        let m = ctx.metrics.summary();
        if m.blocks_scanned != 0 || m.scan_rows != 0 {
            return Err(Error::Exec(format!(
                "open decoded {} blocks / {} rows",
                m.blocks_scanned, m.scan_rows
            )));
        }
        Ok(Box::new(RendezvousMorsels {
            morsels,
            inside: &self.inside,
        }))
    }
}

impl Morsels for RendezvousMorsels<'_> {
    fn count(&self) -> usize {
        self.morsels.count()
    }

    fn morsel(&self, i: usize, ctx: &ExecContext) -> Result<Option<DataChunk>> {
        let (lock, cv) = self.inside;
        let mut inside = lock.lock().unwrap();
        *inside += 1;
        cv.notify_all();
        while *inside < 2 {
            let (guard, timeout) = cv.wait_timeout(inside, Duration::from_secs(10)).unwrap();
            inside = guard;
            if timeout.timed_out() {
                return Err(Error::Exec(
                    "rendezvous timed out: no second worker entered a scan morsel \
                     while the first was still inside one"
                        .into(),
                ));
            }
        }
        drop(inside);
        self.morsels.morsel(i, ctx)
    }
}

/// Decode + filter run inside the morsel, on every worker: two workers are
/// inside table-scan morsels at once, `Open` has decoded nothing, and every
/// block is decoded exactly once.
#[test]
fn scan_morsels_decode_concurrently_and_open_decodes_nothing() {
    const BLOCKS: usize = 4;
    let n = (BLOCKS * rpt_common::VECTOR_SIZE) as i64;
    let ctx = ExecContext::new()
        .with_threads(2)
        .with_workers(2)
        .with_partitions(1);
    let res = Resources::with_partitions(1, 0, 0, 1);
    let t = table("t", (0..n).collect(), (0..n).map(|v| v % 10).collect());
    let keep_high = Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::lit(ScalarValue::Int64(4)));
    let pipeline = PhysicalPipeline {
        label: "scan".into(),
        source: Box::new(RendezvousScan {
            scan: TableScan::fused(t, Some(&keep_high), vec![0, 1], vec![]),
            inside: (Mutex::new(0), Condvar::new()),
        }),
        ops: vec![],
        sink: Box::new(BufferSinkFactory::new(0, two_col_schema(), vec![])),
        intermediate: false,
    };
    let deps = vec![NodeDeps {
        reads: vec![],
        writes: parts(0, 1),
    }];
    run_physical_global(&[pipeline], &deps, &ctx, &res).unwrap();
    let rows: usize = res.buffer(0).unwrap().iter().map(|c| c.num_rows()).sum();
    assert_eq!(rows, (0..n).filter(|v| v % 10 > 4).count());
    let m = ctx.metrics.summary();
    assert_eq!(m.blocks_scanned, BLOCKS as u64);
    assert_eq!(m.scan_rows, n as u64);
}
