//! Pipeline specs, their lowering, and the `Executor` facade.
//!
//! A query compiles into [`PipelinePlan`]s, mirroring DuckDB's execution
//! model (§4.1, Figure 3): each pipeline pulls chunks from its *source*,
//! pushes them through streaming *operators*, and terminates at a *sink*
//! (a pipeline breaker). The RPT integration (§4.2, §4.3, Figure 5) adds
//! the CreateBF sink and the ProbeBF streaming operator.
//!
//! The enums here ([`SourceSpec`], [`OpSpec`], [`SinkSpec`]) are the plan
//! IR: the planner emits them, `rpt-analyze` verifies them, and
//! [`PipelinePlan::deps`] reads each pipeline's read/write grains straight
//! off them — the only order the scheduler ([`crate::scheduler`]) has to
//! respect. Only [`Executor::run_dag`] lowers them, once per pipeline, into
//! a [`PhysicalPipeline`] of trait objects from [`crate::operators`] for
//! [`crate::global`] to execute. Execution is morsel-driven: workers claim
//! source chunks from an atomic counter, maintain thread-local sink state
//! (`Sink`), and merge and publish it through the sink's `PartitionMerger`
//! as tasks of the same pool.

use crate::context::ExecContext;
use crate::expr::{AggExpr, Expr};
use crate::hash_table::JoinHashTable;
use crate::operators::{
    aggregate::AggregateFactory, buffer::BufferSinkFactory, hash_build::HashBuildFactory,
    BufferScan, Filter, JoinProbe, Operator, ProbeBloom, Project, ResourceId, Resources, SemiProbe,
    SinkFactory, Source, TableScan,
};
use crate::scheduler::NodeDeps;
use crate::wcoj::{GenericJoinScan, WcojInput};
use rpt_bloom::TransferFilter;
use rpt_common::{DataChunk, DataType, Result, Schema};
use rpt_storage::StoredTable;
use std::sync::Arc;

pub use crate::operators::create_bf::BloomSink;
pub use crate::operators::scan::ScanProbe;

/// Where a pipeline reads its chunks from.
#[derive(Clone)]
pub enum SourceSpec {
    /// The fused base-relation scan: the relation's pushed-down predicate,
    /// its transferred filters and its projection run inside the scan
    /// morsel, selection first (see [`TableScan`]).
    Scan {
        table: Arc<StoredTable>,
        /// Pushed-down predicate over base-table column indices.
        filter: Option<Expr>,
        /// Base-table columns emitted, in output order.
        columns: Vec<usize>,
        /// Scan-resident ProbeBFs, applied in order after `filter`; their
        /// key ranges also rule out whole blocks.
        probes: Vec<ScanProbe>,
    },
    /// Read the materialized output of an earlier pipeline (e.g. a
    /// `CreateBF` buffer acting as a source).
    Buffer(usize),
    /// Hybrid's join phase: the Generic Join of every input buffer,
    /// eliminating attributes in `attr_order` (see [`GenericJoinScan`]).
    GenericJoin {
        inputs: Vec<WcojInput>,
        attr_order: Vec<usize>,
    },
}

impl SourceSpec {
    /// Every column of every row of `table`: a scan with no predicate and
    /// no probes.
    pub fn full_scan(table: Arc<StoredTable>) -> SourceSpec {
        SourceSpec::Scan {
            columns: (0..table.schema.len()).collect(),
            table,
            filter: None,
            probes: Vec::new(),
        }
    }

    /// Lower onto the operator trait layer.
    pub fn lower(&self) -> Box<dyn Source> {
        match self {
            SourceSpec::Scan {
                table,
                filter,
                columns,
                probes,
            } => Box::new(TableScan::fused(
                table.clone(),
                filter.as_ref(),
                columns.clone(),
                probes.clone(),
            )),
            SourceSpec::Buffer(id) => Box::new(BufferScan::new(*id)),
            SourceSpec::GenericJoin { inputs, attr_order } => Box::new(GenericJoinScan {
                inputs: inputs.clone(),
                attr_order: attr_order.clone(),
            }),
        }
    }
}

/// A streaming (non-breaking) operator.
#[derive(Clone)]
pub enum OpSpec {
    /// Refine the selection with a predicate.
    Filter(Expr),
    /// Replace the chunk with evaluated expressions (flattens).
    Project(Vec<Expr>),
    /// ProbeBF on a stream that no longer starts at a bare scan: drop rows
    /// whose key misses the transfer filter.
    ProbeBloom {
        filter_id: usize,
        key_cols: Vec<usize>,
    },
    /// Hash-join probe against a built table; appends the listed build-side
    /// columns to the chunk. One output row per match (duplicating).
    JoinProbe {
        ht_id: usize,
        key_cols: Vec<usize>,
        build_output_cols: Vec<usize>,
    },
    /// Exact semi-join probe (Yannakakis reducer): keep rows with ≥1 match.
    SemiProbe { ht_id: usize, key_cols: Vec<usize> },
}

impl OpSpec {
    /// Lower onto the operator trait layer.
    pub fn lower(&self) -> Box<dyn Operator> {
        match self {
            OpSpec::Filter(e) => Box::new(Filter::new(e)),
            OpSpec::Project(exprs) => Box::new(Project::new(exprs.clone())),
            OpSpec::ProbeBloom {
                filter_id,
                key_cols,
            } => Box::new(ProbeBloom::new(*filter_id, key_cols.clone())),
            OpSpec::JoinProbe {
                ht_id,
                key_cols,
                build_output_cols,
            } => Box::new(JoinProbe::new(
                *ht_id,
                key_cols.clone(),
                build_output_cols.clone(),
            )),
            OpSpec::SemiProbe { ht_id, key_cols } => {
                Box::new(SemiProbe::new(*ht_id, key_cols.clone()))
            }
        }
    }
}

/// Pipeline-terminating operator.
#[derive(Clone)]
pub enum SinkSpec {
    /// Materialize chunks into buffer `buf_id`, building the requested
    /// transfer filters along the way (CreateBF). With an empty `blooms` list
    /// this is a plain collect sink.
    Buffer {
        buf_id: usize,
        blooms: Vec<BloomSink>,
    },
    /// Build a join hash table keyed on `key_cols`. `blooms` optionally
    /// builds transfer filters over the same stream — this is how the BloomJoin
    /// baseline (§6.1) attaches a filter to each hash-join build side.
    HashBuild {
        ht_id: usize,
        key_cols: Vec<usize>,
        blooms: Vec<BloomSink>,
    },
    /// Hash aggregation; result goes to buffer `buf_id`.
    Aggregate {
        buf_id: usize,
        group_cols: Vec<usize>,
        aggs: Vec<AggExpr>,
        input_types: Vec<DataType>,
        output_schema: Schema,
        /// Per *input column*: the table dictionary of a dictionary-coded
        /// `Utf8` column (planner-attached), which lets a string group key
        /// pack its codes into the fixed-width fast path. Empty = none.
        key_dicts: Vec<Option<Arc<rpt_common::Utf8Dict>>>,
    },
    /// Partitioned sort / TopK over the incoming stream (`ORDER BY`
    /// [`LIMIT n [OFFSET k]`]); the globally ordered result goes to buffer
    /// `buf_id`. `keys` index the sink-input columns; a present `limit`
    /// bounds every partition run at `limit + offset` rows (TopK).
    Sort {
        buf_id: usize,
        keys: Vec<crate::operators::SortKey>,
        limit: Option<usize>,
        offset: usize,
    },
}

impl SinkSpec {
    /// Lower onto the operator trait layer; `sink_schema` is the schema of
    /// chunks entering the sink (needed for spill files and empty builds).
    pub fn lower(&self, sink_schema: &Schema) -> Box<dyn SinkFactory> {
        match self {
            SinkSpec::Buffer { buf_id, blooms } => Box::new(BufferSinkFactory::new(
                *buf_id,
                sink_schema.clone(),
                blooms.clone(),
            )),
            SinkSpec::HashBuild {
                ht_id,
                key_cols,
                blooms,
            } => Box::new(HashBuildFactory::new(
                *ht_id,
                key_cols.clone(),
                sink_schema.clone(),
                blooms.clone(),
            )),
            SinkSpec::Aggregate {
                buf_id,
                group_cols,
                aggs,
                input_types,
                output_schema,
                key_dicts,
            } => Box::new(AggregateFactory::new(
                *buf_id,
                group_cols.clone(),
                aggs.clone(),
                input_types.clone(),
                output_schema.clone(),
                key_dicts.clone(),
            )),
            SinkSpec::Sort {
                buf_id,
                keys,
                limit,
                offset,
            } => Box::new(crate::operators::SortSinkFactory::new(
                *buf_id,
                keys.clone(),
                *limit,
                *offset,
                sink_schema.clone(),
            )),
        }
    }
}

/// One pipeline: source → ops → sink.
#[derive(Clone)]
pub struct PipelinePlan {
    /// Human-readable label (shows up in `PipelineStats::label` / case studies).
    pub label: String,
    pub source: SourceSpec,
    pub ops: Vec<OpSpec>,
    pub sink: SinkSpec,
    /// Whether rows into this sink count toward `intermediate_tuples`.
    /// (True for everything except the final output collect.)
    pub intermediate: bool,
    /// Schema of chunks entering the sink (needed for buffer spill files).
    pub sink_schema: Schema,
}

impl PipelinePlan {
    /// Lower the spec onto the operator trait layer.
    pub fn lower(&self) -> PhysicalPipeline {
        PhysicalPipeline {
            label: self.label.clone(),
            source: self.source.lower(),
            ops: self.ops.iter().map(OpSpec::lower).collect(),
            sink: self.sink.lower(&self.sink_schema),
            intermediate: self.intermediate,
        }
    }

    /// The grains this pipeline reads and writes, straight from its specs:
    /// a buffer is named by its `partitions` partition grains, so a
    /// consumer's partition-`p` tasks wait for the producer to seal `p`
    /// alone. Both sets are sorted and deduped.
    pub fn deps(&self, partitions: usize) -> NodeDeps {
        let parts = |b: usize| (0..partitions.max(1)).map(move |p| ResourceId::BufferPart(b, p));
        let mut reads = Vec::new();
        match &self.source {
            SourceSpec::Scan { probes, .. } => {
                reads.extend(probes.iter().map(|p| ResourceId::Filter(p.filter_id)))
            }
            SourceSpec::Buffer(b) => reads.extend(parts(*b)),
            SourceSpec::GenericJoin { inputs, .. } => {
                reads.extend(inputs.iter().flat_map(|i| parts(i.buf_id)))
            }
        }
        for op in &self.ops {
            match op {
                OpSpec::Filter(_) | OpSpec::Project(_) => {}
                OpSpec::ProbeBloom { filter_id, .. } => reads.push(ResourceId::Filter(*filter_id)),
                OpSpec::JoinProbe { ht_id, .. } | OpSpec::SemiProbe { ht_id, .. } => {
                    reads.push(ResourceId::HashTable(*ht_id))
                }
            }
        }
        let (mut writes, blooms): (Vec<ResourceId>, &[BloomSink]) = match &self.sink {
            SinkSpec::Buffer { buf_id, blooms } => (parts(*buf_id).collect(), blooms),
            SinkSpec::HashBuild { ht_id, blooms, .. } => {
                (vec![ResourceId::HashTable(*ht_id)], blooms)
            }
            SinkSpec::Aggregate { buf_id, .. } | SinkSpec::Sort { buf_id, .. } => {
                (parts(*buf_id).collect(), &[])
            }
        };
        writes.extend(blooms.iter().map(|b| ResourceId::Filter(b.filter_id)));
        for set in [&mut reads, &mut writes] {
            set.sort_unstable();
            set.dedup();
        }
        NodeDeps { reads, writes }
    }
}

/// A lowered pipeline: trait objects ready for the driver.
pub struct PhysicalPipeline {
    pub label: String,
    pub source: Box<dyn Source>,
    pub ops: Vec<Box<dyn Operator>>,
    pub sink: Box<dyn SinkFactory>,
    pub intermediate: bool,
}

/// Count a chunk a source just produced towards `Metrics::source_chunks`.
pub(crate) fn count_source_chunk(chunk: &DataChunk, ctx: &ExecContext) {
    if !chunk.is_logically_empty() {
        ctx.metrics.add(&ctx.metrics.source_chunks, 1);
    }
}

/// Push one chunk through a pipeline's operator chain. `None` = the chunk
/// was filtered to nothing (short-circuits the remaining operators).
pub(crate) fn push_through(
    ops: &[Box<dyn Operator>],
    mut chunk: DataChunk,
    ctx: &ExecContext,
    res: &Resources,
) -> Result<Option<DataChunk>> {
    for op in ops {
        if chunk.is_logically_empty() {
            return Ok(None);
        }
        match op.execute(chunk, ctx, res)? {
            Some(out) => chunk = out,
            None => return Ok(None),
        }
    }
    if chunk.is_logically_empty() {
        Ok(None)
    } else {
        Ok(Some(chunk))
    }
}

/// Record the pipeline's row metrics once every worker state is collected.
pub(crate) fn record_pipeline_rows(
    p: &PhysicalPipeline,
    states: &[Box<dyn crate::operators::Sink>],
    ctx: &ExecContext,
) -> u64 {
    let rows: u64 = states.iter().map(|s| s.rows()).sum();
    let m = &ctx.metrics;
    if p.intermediate {
        m.add(&m.intermediate_tuples, rows);
    } else {
        m.add(&m.output_rows, rows);
    }
    rows
}

/// Executor state shared across a query's pipelines: the execution context
/// plus the write-once resource slots.
pub struct Executor {
    pub ctx: ExecContext,
    res: Arc<Resources>,
}

impl Executor {
    pub fn new(
        ctx: ExecContext,
        num_buffers: usize,
        num_filters: usize,
        num_tables: usize,
    ) -> Self {
        let mut res =
            Resources::with_partitions(num_buffers, num_filters, num_tables, ctx.partition_count);
        if ctx.verify.enabled() {
            // Verify mode: shadow-log every resource access so the driver
            // can reconcile observed accesses against the declared deps.
            res = res.with_access_log();
        }
        Executor {
            ctx,
            res: Arc::new(res),
        }
    }

    /// The shared resource slots.
    pub fn resources(&self) -> &Resources {
        &self.res
    }

    /// Execute pipelines as a dependency DAG on the `ctx.workers` pool:
    /// pipelines whose read sets don't overlap other pipelines' write sets
    /// run concurrently. Each pipeline's deps come from its specs at the
    /// resources' partition count; each pipeline is lowered once, here.
    pub fn run_dag(&mut self, pipelines: &[PipelinePlan]) -> Result<crate::global::GlobalStats> {
        let partitions = self.res.partitions();
        let deps: Vec<NodeDeps> = pipelines.iter().map(|p| p.deps(partitions)).collect();
        let phys: Vec<PhysicalPipeline> = pipelines.iter().map(PipelinePlan::lower).collect();
        let stats = crate::global::run_physical_global(&phys, &deps, &self.ctx, &self.res)?;
        let m = &self.ctx.metrics;
        m.add(&m.sched_tasks, stats.tasks);
        m.add(&m.sched_overlap_tasks, stats.overlap_tasks);
        m.max_update(&m.sched_max_queue_depth, stats.max_queue_depth as u64);
        // Per-worker-summed wall: each worker's own thread-lifetime span, so
        // utilization (`busy / wall`) counts idle workers against the pool.
        m.add(&m.sched_wall_nanos, stats.worker_wall_nanos);
        m.max_update(&m.sched_workers, stats.workers as u64);
        Ok(stats)
    }

    /// Materialized chunks of a buffer (all partitions, partition order).
    pub fn buffer(&self, id: usize) -> Result<Arc<crate::operators::ChunkList>> {
        self.res.buffer(id)
    }

    /// Chunks of one sealed buffer partition.
    pub fn buffer_partition(
        &self,
        id: usize,
        part: usize,
    ) -> Result<Arc<crate::operators::ChunkList>> {
        self.res.buffer_partition(id, part)
    }

    pub fn buffer_rows(&self, id: usize) -> u64 {
        self.res.buffer_rows(id)
    }

    pub fn filter(&self, id: usize) -> Result<Arc<TransferFilter>> {
        self.res.filter(id)
    }

    pub fn hash_table(&self, id: usize) -> Result<Arc<JoinHashTable>> {
        self.res.hash_table(id)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use rpt_bloom::FilterShape;
    use rpt_common::{Field, ScalarValue, Vector};

    fn table(name: &str, ids: Vec<i64>, vals: Vec<i64>) -> Arc<StoredTable> {
        Arc::new(StoredTable::new(
            rpt_storage::Table::new(
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

    fn collect_pipeline(
        src: SourceSpec,
        ops: Vec<OpSpec>,
        buf_id: usize,
        schema: Schema,
    ) -> PipelinePlan {
        PipelinePlan {
            label: "collect".into(),
            source: src,
            ops,
            sink: SinkSpec::Buffer {
                buf_id,
                blooms: vec![],
            },
            intermediate: false,
            sink_schema: schema,
        }
    }

    fn two_col_schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("v", DataType::Int64),
        ])
    }

    /// `PipelinePlan::deps` over every source, operator and sink variant:
    /// exact, sorted grains, with buffers named by their partitions only.
    #[test]
    fn deps_are_read_off_every_spec_variant() {
        use ResourceId::{BufferPart, Filter, HashTable};
        let t = table("t", vec![1, 2], vec![3, 4]);
        let bloom = |filter_id| BloomSink {
            filter_id,
            key_cols: vec![0],
            shape: FilterShape::Bloom {
                expected_keys: 2,
                fpr: 0.02,
            },
        };
        let pipeline = |source, ops, sink| PipelinePlan {
            label: "p".into(),
            source,
            ops,
            sink,
            intermediate: true,
            sink_schema: two_col_schema(),
        };
        let cases = [
            // A fused scan whose two probes share filter 3 reads it once;
            // a CreateBF sink writes its buffer and both filters.
            pipeline(
                SourceSpec::Scan {
                    table: t.clone(),
                    filter: Some(Expr::cmp(
                        CmpOp::Gt,
                        Expr::col(1),
                        Expr::lit(ScalarValue::Int64(0)),
                    )),
                    columns: vec![0, 1],
                    probes: vec![
                        ScanProbe {
                            filter_id: 3,
                            key_cols: vec![0],
                        },
                        ScanProbe {
                            filter_id: 3,
                            key_cols: vec![1],
                        },
                    ],
                },
                vec![OpSpec::Filter(Expr::col(0)), OpSpec::Project(vec![])],
                SinkSpec::Buffer {
                    buf_id: 2,
                    blooms: vec![bloom(1), bloom(0)],
                },
            ),
            // A buffer source under every probing operator, into a hash
            // build that also builds a filter (BloomJoin).
            pipeline(
                SourceSpec::Buffer(0),
                vec![
                    OpSpec::ProbeBloom {
                        filter_id: 2,
                        key_cols: vec![0],
                    },
                    OpSpec::JoinProbe {
                        ht_id: 1,
                        key_cols: vec![0],
                        build_output_cols: vec![1],
                    },
                    OpSpec::SemiProbe {
                        ht_id: 0,
                        key_cols: vec![0],
                    },
                ],
                SinkSpec::HashBuild {
                    ht_id: 2,
                    key_cols: vec![0],
                    blooms: vec![bloom(4)],
                },
            ),
            pipeline(
                SourceSpec::full_scan(t),
                vec![],
                SinkSpec::Aggregate {
                    buf_id: 5,
                    group_cols: vec![0],
                    aggs: vec![AggExpr::count_star("c")],
                    input_types: vec![DataType::Int64, DataType::Int64],
                    output_schema: two_col_schema(),
                    key_dicts: vec![],
                },
            ),
            pipeline(
                SourceSpec::Buffer(5),
                vec![],
                SinkSpec::Sort {
                    buf_id: 6,
                    keys: vec![],
                    limit: Some(1),
                    offset: 0,
                },
            ),
            // A Generic Join reads every partition of every input buffer.
            pipeline(
                SourceSpec::GenericJoin {
                    inputs: [7, 2]
                        .map(|buf_id| WcojInput {
                            buf_id,
                            schema: two_col_schema(),
                            attr_cols: vec![(0, 0)],
                        })
                        .to_vec(),
                    attr_order: vec![0],
                },
                vec![],
                SinkSpec::Buffer {
                    buf_id: 8,
                    blooms: vec![],
                },
            ),
        ];
        for pc in [1, 4] {
            let parts = |b| (0..pc).map(move |p| BufferPart(b, p));
            let want = [
                (
                    vec![Filter(3)],
                    [parts(2).collect(), vec![Filter(0), Filter(1)]].concat(),
                ),
                (
                    [
                        parts(0).collect(),
                        vec![Filter(2), HashTable(0), HashTable(1)],
                    ]
                    .concat(),
                    vec![Filter(4), HashTable(2)],
                ),
                (vec![], parts(5).collect()),
                (parts(5).collect(), parts(6).collect()),
                (parts(2).chain(parts(7)).collect(), parts(8).collect()),
            ];
            for (p, (reads, writes)) in cases.iter().zip(want) {
                assert_eq!(p.deps(pc), NodeDeps { reads, writes }, "pc={pc}");
            }
        }
    }

    #[test]
    fn scan_filter_collect() {
        let t = table("t", (0..10).collect(), (0..10).map(|x| x * 2).collect());
        let mut exec = Executor::new(ExecContext::new(), 1, 0, 0);
        let p = collect_pipeline(
            SourceSpec::full_scan(t),
            vec![OpSpec::Filter(Expr::cmp(
                CmpOp::Gt,
                Expr::col(0),
                Expr::lit(ScalarValue::Int64(6)),
            ))],
            0,
            two_col_schema(),
        );
        exec.run_dag(&[p]).unwrap();
        assert_eq!(exec.buffer_rows(0), 3);
        let chunks = exec.buffer(0).unwrap();
        assert_eq!(chunks[0].value(0, 0), ScalarValue::Int64(7));
    }

    #[test]
    fn hash_join_two_pipelines() {
        let build = table("b", vec![1, 2, 3], vec![100, 200, 300]);
        let probe = table("p", vec![2, 2, 3, 9], vec![-1, -2, -3, -4]);
        let mut exec = Executor::new(ExecContext::new(), 1, 0, 1);
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
        let p2 = collect_pipeline(
            SourceSpec::full_scan(probe),
            vec![OpSpec::JoinProbe {
                ht_id: 0,
                key_cols: vec![0],
                build_output_cols: vec![1],
            }],
            0,
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("v", DataType::Int64),
                Field::new("bv", DataType::Int64),
            ]),
        );
        exec.run_dag(&[p1, p2]).unwrap();
        assert_eq!(exec.buffer_rows(0), 3); // 2,2,3 match
        let s = exec.ctx.metrics.summary();
        assert_eq!(s.join_output_rows, 3);
        assert_eq!(s.hash_build_rows, 3);
        assert_eq!(s.intermediate_tuples, 3);
        assert_eq!(s.output_rows, 3);
        // joined values present
        let chunks = exec.buffer(0).unwrap();
        let mut joined: Vec<(i64, i64)> = chunks
            .iter()
            .flat_map(|c| {
                c.rows()
                    .into_iter()
                    .map(|r| (r[0].as_i64().unwrap(), r[2].as_i64().unwrap()))
            })
            .collect();
        joined.sort_unstable();
        assert_eq!(joined, vec![(2, 200), (2, 200), (3, 300)]);
    }

    #[test]
    fn create_and_probe_bloom() {
        let small = table("s", vec![5, 6], vec![0, 0]);
        let big = table("b", (0..100).collect(), (0..100).collect());
        let mut exec = Executor::new(ExecContext::new(), 2, 1, 0);
        // Pipeline 1: CreateBF over `small` on id.
        let p1 = PipelinePlan {
            label: "createbf s".into(),
            source: SourceSpec::full_scan(small),
            ops: vec![],
            sink: SinkSpec::Buffer {
                buf_id: 0,
                blooms: vec![BloomSink {
                    filter_id: 0,
                    key_cols: vec![0],
                    shape: FilterShape::Bloom {
                        expected_keys: 2,
                        fpr: 0.02,
                    },
                }],
            },
            intermediate: true,
            sink_schema: two_col_schema(),
        };
        // Pipeline 2: scan big, ProbeBF, collect.
        let p2 = collect_pipeline(
            SourceSpec::full_scan(big),
            vec![OpSpec::ProbeBloom {
                filter_id: 0,
                key_cols: vec![0],
            }],
            1,
            two_col_schema(),
        );
        exec.run_dag(&[p1, p2]).unwrap();
        let survivors = exec.buffer_rows(1);
        // No false negatives: both 5 and 6 survive; FPR 2% on 98 others →
        // allow a little slack.
        assert!((2..=8).contains(&survivors), "survivors = {survivors}");
        let s = exec.ctx.metrics.summary();
        assert_eq!(s.bloom_probe_in, 100);
        assert_eq!(s.bloom_build_rows, 2);
        assert!(s.bloom_nanos > 0);
    }

    #[test]
    fn aggregate_pipeline() {
        let t = table("t", vec![1, 1, 2, 2, 2], vec![10, 20, 30, 40, 50]);
        let mut exec = Executor::new(ExecContext::new(), 1, 0, 0);
        let p = PipelinePlan {
            label: "agg".into(),
            source: SourceSpec::full_scan(t),
            ops: vec![],
            sink: SinkSpec::Aggregate {
                buf_id: 0,
                group_cols: vec![0],
                aggs: vec![AggExpr {
                    func: crate::expr::AggFunc::Sum,
                    input: Some(Expr::col(1)),
                    alias: "s".into(),
                }],
                input_types: vec![DataType::Int64, DataType::Int64],
                output_schema: Schema::new(vec![
                    Field::new("id", DataType::Int64),
                    Field::new("s", DataType::Int64),
                ]),
                key_dicts: vec![],
            },
            intermediate: false,
            sink_schema: two_col_schema(),
        };
        exec.run_dag(&[p]).unwrap();
        // Chunk layout depends on the partition count; compare row sets.
        let mut rows: Vec<(i64, i64)> = exec
            .buffer(0)
            .unwrap()
            .iter()
            .flat_map(|c| {
                c.rows()
                    .into_iter()
                    .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            })
            .collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![(1, 30), (2, 120)]);
    }

    /// The partitioned aggregate sink produces the same groups as the
    /// unpartitioned path, each group sealed in the partition its key
    /// hashes to, and no merge task covers the full group set.
    #[test]
    fn partitioned_aggregate_matches_unpartitioned() {
        let run = |partitions: usize, threads: usize| {
            let t = table(
                "t",
                (0..5000).map(|i| i % 97).collect(),
                (0..5000).collect(),
            );
            let ctx = ExecContext::new()
                .with_threads(threads)
                .with_partitions(partitions);
            let mut exec = Executor::new(ctx, 1, 0, 0);
            let p = PipelinePlan {
                label: "agg".into(),
                source: SourceSpec::full_scan(t),
                ops: vec![],
                sink: SinkSpec::Aggregate {
                    buf_id: 0,
                    group_cols: vec![0],
                    aggs: vec![
                        AggExpr {
                            func: crate::expr::AggFunc::Sum,
                            input: Some(Expr::col(1)),
                            alias: "s".into(),
                        },
                        AggExpr::count_star("c"),
                    ],
                    input_types: vec![DataType::Int64, DataType::Int64],
                    output_schema: Schema::new(vec![
                        Field::new("id", DataType::Int64),
                        Field::new("s", DataType::Int64),
                        Field::new("c", DataType::Int64),
                    ]),
                    key_dicts: vec![],
                },
                intermediate: false,
                sink_schema: two_col_schema(),
            };
            exec.run_dag(&[p]).unwrap();
            let mut rows: Vec<(i64, i64, i64)> = exec
                .buffer(0)
                .unwrap()
                .iter()
                .flat_map(|c| {
                    c.rows().into_iter().map(|r| {
                        (
                            r[0].as_i64().unwrap(),
                            r[1].as_i64().unwrap(),
                            r[2].as_i64().unwrap(),
                        )
                    })
                })
                .collect();
            rows.sort_unstable();
            (rows, exec)
        };
        let (base, _) = run(1, 1);
        assert_eq!(base.len(), 97);
        for (partitions, threads) in [(2, 1), (8, 1), (8, 4)] {
            let (rows, exec) = run(partitions, threads);
            assert_eq!(rows, base, "partitions={partitions} threads={threads}");
            // Groups sit in the partition their key hashes to.
            let partitioner = rpt_common::Partitioner::new(partitions);
            for p in 0..partitions {
                for chunk in exec.buffer_partition(0, p).unwrap().iter() {
                    for row in chunk.rows() {
                        let key = row[0].as_i64().unwrap();
                        assert_eq!(
                            partitioner.of_hash(rpt_common::hash::hash_i64(key)),
                            p,
                            "group {key} in wrong partition"
                        );
                    }
                }
            }
            // One merge task per partition; none saw all 97 groups.
            let s = exec.ctx.metrics.summary();
            assert_eq!(s.merge_tasks, partitions as u64);
            assert!(
                s.merge_max_task_rows < 97,
                "a merge task covered the full group set: {s:?}"
            );
        }
    }

    #[test]
    fn multithreaded_matches_single_threaded() {
        let ids: Vec<i64> = (0..20_000).map(|i| i % 97).collect();
        let vals: Vec<i64> = (0..20_000).collect();
        let t1 = table("t", ids.clone(), vals.clone());
        let t4 = table("t", ids, vals);
        let run = |t: Arc<StoredTable>, threads: usize| -> i64 {
            let mut exec = Executor::new(ExecContext::new().with_threads(threads), 1, 0, 0);
            let p = PipelinePlan {
                label: "agg".into(),
                source: SourceSpec::full_scan(t),
                ops: vec![OpSpec::Filter(Expr::cmp(
                    CmpOp::Lt,
                    Expr::col(0),
                    Expr::lit(ScalarValue::Int64(50)),
                ))],
                sink: SinkSpec::Aggregate {
                    buf_id: 0,
                    group_cols: vec![],
                    aggs: vec![AggExpr {
                        func: crate::expr::AggFunc::Sum,
                        input: Some(Expr::col(1)),
                        alias: "s".into(),
                    }],
                    input_types: vec![DataType::Int64, DataType::Int64],
                    output_schema: Schema::new(vec![Field::new("s", DataType::Int64)]),
                    key_dicts: vec![],
                },
                intermediate: false,
                sink_schema: two_col_schema(),
            };
            exec.run_dag(&[p]).unwrap();
            let chunks = exec.buffer(0).unwrap();
            chunks[0].value(0, 0).as_i64().unwrap()
        };
        assert_eq!(run(t1, 1), run(t4, 4));
    }

    /// The partitioned sinks (hash build + collect buffer) produce the same
    /// join result as the unpartitioned path — from one join table whose
    /// partitions were prepared by separate merge tasks — and no merge task
    /// covers a full result.
    #[test]
    fn partitioned_pipelines_match_unpartitioned() {
        let run = |partitions: usize, threads: usize| {
            let build = table("b", (0..100).collect(), (0..100).map(|x| x * 10).collect());
            let probe = table("p", (0..300).map(|i| i % 120).collect(), (0..300).collect());
            let ctx = ExecContext::new()
                .with_threads(threads)
                .with_partitions(partitions);
            let mut exec = Executor::new(ctx, 1, 0, 1);
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
            let p2 = collect_pipeline(
                SourceSpec::full_scan(probe),
                vec![OpSpec::JoinProbe {
                    ht_id: 0,
                    key_cols: vec![0],
                    build_output_cols: vec![1],
                }],
                0,
                Schema::new(vec![
                    Field::new("id", DataType::Int64),
                    Field::new("v", DataType::Int64),
                    Field::new("bv", DataType::Int64),
                ]),
            );
            let stats = exec.run_dag(&[p1, p2]).unwrap();
            let mut rows: Vec<Vec<ScalarValue>> = exec
                .buffer(0)
                .unwrap()
                .iter()
                .flat_map(|c| c.rows())
                .collect();
            rows.sort_by_key(|r| (r[0].as_i64(), r[1].as_i64(), r[2].as_i64()));
            (rows, exec, stats)
        };
        let (base, _, _) = run(1, 1);
        for (partitions, threads) in [(2, 1), (8, 1), (8, 4)] {
            let (rows, exec, stats) = run(partitions, threads);
            assert_eq!(rows, base, "partitions={partitions} threads={threads}");
            // One table holds every build row, a key's rows still in build
            // order (here: one row per key, so the payload names the key).
            let ht = exec.hash_table(0).unwrap();
            assert_eq!(ht.num_rows(), 100);
            let mut stored = ht.data.rows();
            assert!(stored
                .iter()
                .all(|r| r[1] == ScalarValue::Int64(10 * r[0].as_i64().unwrap())));
            stored.sort_by_key(|r| r[0].as_i64());
            assert_eq!(stored.len(), 100);
            assert_eq!(stored[99][0], ScalarValue::Int64(99));
            // The build and the collect each merged per partition; no task
            // saw all 100 build rows or all 250 joined rows.
            let s = exec.ctx.metrics.summary();
            assert_eq!(s.merge_tasks, 2 * partitions as u64, "{s:?}");
            assert!(s.merge_max_task_rows < 250, "{s:?}");
            let build = &stats.pipelines[0];
            assert_eq!((build.label.as_str(), build.sink_rows), ("build", 100));
            assert!(build.merge_max_task_rows < 100, "{build:?}");
        }
    }

    #[test]
    fn budget_aborts_blowup() {
        // Cross-product-like blowup: every probe row matches every build row.
        let build = table("b", vec![7; 1000], (0..1000).collect());
        let probe = table("p", vec![7; 1000], (0..1000).collect());
        let ctx = ExecContext::new().with_budget(10_000);
        let mut exec = Executor::new(ctx, 1, 0, 1);
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
        let p2 = collect_pipeline(
            SourceSpec::full_scan(probe),
            vec![OpSpec::JoinProbe {
                ht_id: 0,
                key_cols: vec![0],
                build_output_cols: vec![1],
            }],
            0,
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("v", DataType::Int64),
                Field::new("bv", DataType::Int64),
            ]),
        );
        let err = exec.run_dag(&[p1, p2]).unwrap_err();
        assert!(err.is_budget(), "expected budget abort, got {err}");
    }

    #[test]
    fn semi_probe_reduces_without_duplication() {
        let source = table("s", vec![1, 1, 2], vec![0, 0, 0]);
        let target = table("t", vec![1, 2, 3, 1], vec![9, 9, 9, 9]);
        let mut exec = Executor::new(ExecContext::new(), 1, 0, 1);
        let p1 = PipelinePlan {
            label: "build".into(),
            source: SourceSpec::full_scan(source),
            ops: vec![],
            sink: SinkSpec::HashBuild {
                ht_id: 0,
                key_cols: vec![0],
                blooms: vec![],
            },
            intermediate: true,
            sink_schema: two_col_schema(),
        };
        let p2 = collect_pipeline(
            SourceSpec::full_scan(target),
            vec![OpSpec::SemiProbe {
                ht_id: 0,
                key_cols: vec![0],
            }],
            0,
            two_col_schema(),
        );
        exec.run_dag(&[p1, p2]).unwrap();
        assert_eq!(exec.buffer_rows(0), 3); // rows with keys 1,2,1 (3 excluded)
    }

    #[test]
    fn buffer_as_source_chains_pipelines() {
        let t = table("t", (0..10).collect(), (0..10).collect());
        let mut exec = Executor::new(ExecContext::new(), 2, 0, 0);
        let p1 = collect_pipeline(SourceSpec::full_scan(t), vec![], 0, two_col_schema());
        let p2 = collect_pipeline(
            SourceSpec::Buffer(0),
            vec![OpSpec::Filter(Expr::cmp(
                CmpOp::Lt,
                Expr::col(0),
                Expr::lit(ScalarValue::Int64(3)),
            ))],
            1,
            two_col_schema(),
        );
        exec.run_dag(&[p1, p2]).unwrap();
        assert_eq!(exec.buffer_rows(1), 3);
    }

    #[test]
    fn spill_enabled_buffer_roundtrips() {
        let dir = std::env::temp_dir().join("rpt_exec_spill_test");
        let t = table("t", (0..5000).collect(), (0..5000).collect());
        let ctx = ExecContext::new()
            .with_memory_budget(Some(1024)) // tiny budget
            .with_spill_dir(&dir);
        let mut exec = Executor::new(ctx, 1, 0, 0);
        let p = collect_pipeline(SourceSpec::full_scan(t), vec![], 0, two_col_schema());
        exec.run_dag(&[p]).unwrap();
        assert_eq!(exec.buffer_rows(0), 5000);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn projection_computes_expressions() {
        let t = table("t", vec![1, 2], vec![10, 20]);
        let mut exec = Executor::new(ExecContext::new(), 1, 0, 0);
        let p = collect_pipeline(
            SourceSpec::full_scan(t),
            vec![OpSpec::Project(vec![Expr::Arith {
                op: crate::expr::ArithOp::Add,
                left: Box::new(Expr::col(0)),
                right: Box::new(Expr::col(1)),
            }])],
            0,
            Schema::new(vec![Field::new("sum", DataType::Int64)]),
        );
        exec.run_dag(&[p]).unwrap();
        // Chunk layout depends on the partition count; compare row sets.
        let mut sums: Vec<i64> = exec
            .buffer(0)
            .unwrap()
            .iter()
            .flat_map(|c| c.rows().into_iter().map(|r| r[0].as_i64().unwrap()))
            .collect();
        sums.sort_unstable();
        assert_eq!(sums, vec![11, 22]);
    }
}
