//! # rpt-exec
//!
//! A push-based vectorized execution engine reproducing the DuckDB execution
//! model the paper integrates with (§4.1, Figure 3):
//!
//! * queries run as a sequence of **pipelines**; each pipeline has a
//!   *source* (`GetData`), a chain of streaming *operators* (`Execute`), and
//!   a *sink* that is a pipeline breaker, its per-worker states merged
//!   once, in Combine/Finalize, by the sink's `PartitionMerger`;
//! * tuples flow in 2048-row data chunks with selection vectors;
//! * the two new RPT operators are implemented here: **CreateBF** (a sink
//!   that buffers chunks and builds Bloom filters, then acts as the source
//!   of the next pipeline) and **ProbeBF** (a streaming operator that probes
//!   a Bloom filter and refines the chunk's selection vector);
//! * morsel-style multi-threaded execution (§5.3) with thread-local sink
//!   state, merged by one task per sink partition plus a finish task;
//! * a work-budget cancellation mechanism standing in for the paper's
//!   `1000 × t_opt` timeout.
//!
//! The planner in `rpt-core` compiles logical RPT plans into
//! [`pipeline::PipelinePlan`]s, which are the plan: each one's
//! buffer/filter/hash-table grains come straight from its specs
//! ([`pipeline::PipelinePlan::deps`]). [`pipeline::Executor::run_dag`]
//! lowers the specs onto the physical operator traits in [`operators`]
//! (`Source`/`Operator`/`Sink`) and runs them on the morsel-driven worker
//! pool in [`global`], concurrently wherever the [`scheduler`]'s DAG over
//! those grains allows.

pub mod aggregate;
pub mod context;
pub mod expr;
pub mod global;
pub mod hash_table;
pub mod operators;
pub mod pipeline;
pub mod scheduler;
pub mod wcoj;

pub use aggregate::{AggregateState, ChunkKeys, KeyLayout};
pub use context::{
    default_worker_count, memory_budget_from_env, ExecContext, Metrics, MetricsSummary,
    SchedulerKind, VerifyMode,
};
pub use expr::{AggExpr, AggFunc, ArithOp, CmpOp, Expr, Predicate};
pub use global::{run_physical_global, GlobalStats, PipelineStats};
pub use hash_table::{BuildPart, JoinHashTable};
pub use operators::{
    cmp_scalar_rows, AccessLog, ChunkList, Morsels, Operator, PartitionMerger, ResourceId,
    Resources, Sink, SinkFactory, SortKey, SortSink, SortSinkFactory, Source,
};
pub use pipeline::{
    BloomSink, Executor, OpSpec, PhysicalPipeline, PipelinePlan, ScanProbe, SinkSpec, SourceSpec,
};
pub use rpt_bloom::FilterShape;
pub use scheduler::NodeDeps;
pub use wcoj::WcojInput;
