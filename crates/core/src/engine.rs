//! The `Database` facade: register tables, run SQL under a chosen execution
//! mode and join order.

use crate::binder::bind;
use crate::catalog::Catalog;
use crate::estimator::Estimator;
use crate::optimizer::{optimize_bushy, optimize_left_deep, with_build_sides, JoinOrder, PlanNode};
use crate::planner::Planner;
use crate::query::JoinQuery;
use rpt_common::{Error, Result, ScalarValue, Schema};
use rpt_exec::{ExecContext, Executor, GlobalStats, SchedulerKind};
use rpt_sql::parse_select;
use rpt_storage::Table;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Join execution strategy (§6.1 baselines + the paper's contribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Plain hash joins in the chosen order — the vanilla-DuckDB stand-in.
    Baseline,
    /// Baseline + per-join Bloom filter from build to probe side (local
    /// sideways information passing, Bratbergsengen-style).
    BloomJoin,
    /// Original Predicate Transfer (CIDR 2024): Small2Large schedule.
    PredicateTransfer,
    /// Robust Predicate Transfer: LargestRoot schedule (Algorithm 1) with
    /// the §4.3 pruning optimizations.
    RobustPredicateTransfer,
    /// Classic Yannakakis: exact hash semi-join reduction on the
    /// LargestRoot join tree (ablation; what PT speeds up with Blooms).
    Yannakakis,
    /// The §5.1.3 proposal, implemented: RPT's transfer phase followed by a
    /// **worst-case optimal** (Generic Join) join phase — the strategy for
    /// cyclic queries where binary join plans have no robustness guarantee.
    /// Generic Join eliminates attributes, not relations, so the join order
    /// is checked but not used.
    Hybrid,
}

impl Mode {
    pub const ALL: [Mode; 6] = [
        Mode::Baseline,
        Mode::BloomJoin,
        Mode::PredicateTransfer,
        Mode::RobustPredicateTransfer,
        Mode::Yannakakis,
        Mode::Hybrid,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            Mode::Baseline => "DuckDB",
            Mode::BloomJoin => "BloomJoin",
            Mode::PredicateTransfer => "PT",
            Mode::RobustPredicateTransfer => "RPT",
            Mode::Yannakakis => "Yannakakis",
            Mode::Hybrid => "RPT+WCOJ",
        }
    }
}

/// Per-query execution options.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    pub mode: Mode,
    /// Explicit join order; `None` lets the optimizer choose.
    pub join_order: Option<JoinOrder>,
    /// When the optimizer chooses: bushy (greedy) instead of left-deep DP.
    pub bushy_optimizer: bool,
    // Ignored by the engine; only the benchmark's `Spec::options` assigns
    // it, and the next `benchmark` change can drop it.
    #[doc(hidden)]
    pub scheduler: SchedulerKind,
    /// Worker-pool size; `None` (default) sizes the pool to
    /// `available_parallelism()`. Every morsel and merge task of the query
    /// runs on this one pool.
    pub workers: Option<usize>,
    /// Morsel threads *within* one pipeline (1 = the paper's default
    /// single-threaded setting; 32 for §5.3): caps the morsel fan-out per
    /// source partition, and `1` additionally pins each pipeline to a
    /// deterministic ordered chunk order; the pool size itself comes from
    /// `workers`.
    pub threads: usize,
    /// Hash partitions per materializing sink (normalized to a power of
    /// two). Every sink merges through its partition merger, one merge
    /// task per partition, so with more than one partition the merge runs
    /// in parallel and no task covers the whole result. Defaults to
    /// `RPT_PARTITION_COUNT` when set, else 1.
    pub partition_count: usize,
    /// Work budget in tuples — the timeout analogue (§5.1's 1000×t_opt).
    pub work_budget: Option<u64>,
    // Ignored by the engine (the memory governor decides every spill);
    // only the benchmark's `Spec::options` assigns it, and the next
    // `benchmark` change can drop it.
    #[doc(hidden)]
    pub spill_limit_bytes: Option<usize>,
    /// Directory of every spill run the memory governor evicts.
    pub spill_dir: PathBuf,
    /// Global memory budget shared by *all* materializing sinks of a query
    /// through one `MemoryGovernor` — the "+spill" setup of §5.4 and the
    /// only thing that makes a sink spill: when the summed resident bytes
    /// cross it, the largest evictable sink is told to push its chunks to
    /// disk. Defaults to `RPT_MEMORY_BUDGET` when set, else unlimited.
    pub memory_budget_bytes: Option<usize>,
    // Ignored by the engine (spill runs are always block-encoded and
    // never prefetched); only the benchmark's `Spec::options` assigns
    // them, and the next `benchmark` change can drop both.
    #[doc(hidden)]
    pub spill_encoding: bool,
    #[doc(hidden)]
    pub spill_prefetch: bool,
    /// §4.3: skip trivial PK-side semi-joins.
    pub prune_trivial: bool,
    /// §4.3: skip the backward pass when the join order is aligned with the
    /// join tree.
    pub prune_backward: bool,
    /// Bloom filter false-positive target (Arrow default 2%).
    pub bloom_fpr: f64,
    /// §5.2: replace LargestRoot's tie-breaking with a seeded random
    /// spanning tree (largest relation stays root).
    pub random_tree_seed: Option<u64>,
    /// Cardinality-estimation noise `(seed, sigma)` for the baseline
    /// optimizer (ablation).
    pub ce_noise: Option<(u64, f64)>,
    /// §3.2 supervision: for α-acyclic-but-not-γ-acyclic queries, verify the
    /// chosen left-deep order with SafeSubjoin and repair unsafe orders by
    /// falling back to the (always safe) Yannakakis bottom-up tree order.
    pub enforce_safe_orders: bool,
    // Ignored by the engine (an eligible group key always takes the
    // fixed-width tables, and scans always read the block-encoded form);
    // only the benchmark's `Spec::options` assigns them, and the next
    // `benchmark` change can drop both.
    #[doc(hidden)]
    pub agg_fast: bool,
    #[doc(hidden)]
    pub storage_encoding: bool,
    // Ignored by the engine; only the benchmark's `Spec::options` assigns
    // it, and the next `benchmark` change can drop it.
    #[doc(hidden)]
    pub repartition_elide: bool,
    /// Static plan verification mode (see `rpt_analyze`): every compiled
    /// plan is re-checked between planning and execution, and in verify
    /// mode the executor keeps an observed-access shadow log reconciled
    /// against the declared dependencies after the run. Defaults to
    /// `RPT_PLAN_VERIFY` (`strict` in debug builds, `off` in release).
    pub plan_verify: rpt_exec::VerifyMode,
}

impl QueryOptions {
    pub fn new(mode: Mode) -> Self {
        QueryOptions {
            mode,
            join_order: None,
            bushy_optimizer: false,
            scheduler: SchedulerKind::Global,
            workers: None,
            threads: 1,
            partition_count: rpt_common::partition_count_from_env(),
            work_budget: None,
            spill_limit_bytes: None,
            spill_dir: std::env::temp_dir(),
            memory_budget_bytes: rpt_exec::memory_budget_from_env(),
            spill_encoding: true,
            spill_prefetch: true,
            prune_trivial: true,
            prune_backward: true,
            bloom_fpr: 0.02,
            random_tree_seed: None,
            ce_noise: None,
            enforce_safe_orders: false,
            agg_fast: true,
            storage_encoding: true,
            repartition_elide: false,
            plan_verify: rpt_exec::VerifyMode::from_env(),
        }
    }

    /// Set the static plan-verification mode (`Strict` fails the query on
    /// any violated invariant; `Off` skips the checks).
    pub fn with_plan_verify(mut self, mode: rpt_exec::VerifyMode) -> Self {
        self.plan_verify = mode;
        self
    }

    pub fn with_order(mut self, order: JoinOrder) -> Self {
        self.join_order = Some(order);
        self
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Size the worker pool explicitly (default:
    /// `available_parallelism()`).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Set the sink partition count (normalized to a power of two; `1`
    /// keeps each sink in one partition, merged by one task).
    pub fn with_partition_count(mut self, partitions: usize) -> Self {
        self.partition_count = rpt_common::normalize_partition_count(partitions);
        self
    }

    pub fn with_budget(mut self, budget: u64) -> Self {
        self.work_budget = Some(budget);
        self
    }

    pub fn with_bushy_optimizer(mut self) -> Self {
        self.bushy_optimizer = true;
        self
    }

    /// Set the directory spill runs go to; [`Self::with_memory_budget`]
    /// sets what makes them spill.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = dir.into();
        self
    }

    /// Set (or clear) the query-wide memory budget enforced by the shared
    /// [`rpt_storage::MemoryGovernor`].
    pub fn with_memory_budget(mut self, budget: Option<usize>) -> Self {
        self.memory_budget_bytes = budget;
        self
    }

    pub fn with_random_tree(mut self, seed: u64) -> Self {
        self.random_tree_seed = Some(seed);
        self
    }

    pub fn with_safe_orders(mut self) -> Self {
        self.enforce_safe_orders = true;
        self
    }

    /// The optimizer's estimator for `q`, with `ce_noise` applied.
    pub(crate) fn estimator<'q>(&self, q: &'q JoinQuery) -> Estimator<'q> {
        let est = Estimator::new(q);
        match self.ce_noise {
            Some((seed, sigma)) => est.with_noise(seed, sigma),
            None => est,
        }
    }
}

/// Result of one query execution.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: Schema,
    pub rows: Vec<Vec<ScalarValue>>,
    pub metrics: rpt_exec::context::MetricsSummary,
    /// What the scheduler observed: task counts, and one record per
    /// pipeline of the compiled plan (sink rows, merge split).
    pub sched: GlobalStats,
    pub wall_time: Duration,
    /// The join order actually executed.
    pub join_order: JoinOrder,
    pub mode: Mode,
}

impl QueryResult {
    /// Deterministic robustness work metric.
    pub fn work(&self) -> u64 {
        self.metrics.total_work()
    }

    /// First row, first column as i64 — convenient for COUNT(*) checks.
    pub fn scalar_i64(&self) -> Option<i64> {
        self.rows
            .first()
            .and_then(|r| r.first())
            .and_then(|v| v.as_i64())
    }

    /// Rows sorted lexicographically by display form (order-insensitive
    /// comparisons across join orders).
    pub fn sorted_rows(&self) -> Vec<Vec<ScalarValue>> {
        let mut rows = self.rows.clone();
        rows.sort_by_key(|r| {
            r.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\u{1}")
        });
        rows
    }
}

/// Is every subtree of a bushy plan a safe subjoin?
fn bushy_is_safe(graph: &rpt_graph::QueryGraph, plan: &PlanNode) -> bool {
    fn walk(graph: &rpt_graph::QueryGraph, node: &PlanNode) -> bool {
        match node {
            PlanNode::Leaf(_) => true,
            PlanNode::Join { left, right, .. } => {
                walk(graph, left)
                    && walk(graph, right)
                    && rpt_graph::safe_subjoin(graph, &node.relations())
            }
        }
    }
    walk(graph, plan)
}

/// Enforce a static-verification report: fail the query with every
/// violated rule id. Checks executed are charged to the
/// `verify_checks_run` metric either way.
fn enforce_verify(ctx: &ExecContext, report: rpt_analyze::VerifyReport) -> Result<()> {
    ctx.metrics
        .add(&ctx.metrics.verify_checks_run, report.checks_run);
    if report.is_clean() {
        return Ok(());
    }
    let details: Vec<String> = report.errors.iter().map(|e| e.to_string()).collect();
    Err(Error::Plan(format!(
        "physical plan failed static verification: {}",
        details.join("; ")
    )))
}

/// Reconcile the executor's observed-access shadow log (present only in
/// verify mode) against the deps the pipelines' specs declare, *before*
/// the engine fetches the output buffer — an undeclared access means the
/// scheduler ran on a wrong partial order and the result can't be trusted.
fn reconcile_run(exec: &Executor, pipelines: &[rpt_exec::PipelinePlan]) -> Result<()> {
    let Some(log) = exec.resources().access_log() else {
        return Ok(());
    };
    let partitions = exec.resources().partitions();
    let deps: Vec<_> = pipelines.iter().map(|p| p.deps(partitions)).collect();
    let (observed_reads, observed_writes) = log.observed();
    let (errors, checks) =
        rpt_analyze::reconcile_accesses(&deps, &observed_reads, &observed_writes);
    let ctx = &exec.ctx;
    ctx.metrics.add(&ctx.metrics.verify_checks_run, checks);
    if errors.is_empty() {
        return Ok(());
    }
    let details: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
    Err(Error::Exec(format!(
        "execution diverged from declared deps: {}",
        details.join("; ")
    )))
}

/// An in-process analytical database with pluggable join execution modes.
#[derive(Default, Clone)]
pub struct Database {
    catalog: Catalog,
}

impl Database {
    pub fn new() -> Self {
        // Spill files are tagged with the writing process id; sweep runs
        // left behind by dead processes (crashes, kills) from the default
        // spill directory once per database startup.
        rpt_storage::sweep_orphan_spill_files(&std::env::temp_dir());
        Database {
            catalog: Catalog::new(),
        }
    }

    pub fn register_table(&mut self, table: Table) {
        self.catalog.register(table);
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Parse + bind a SQL query (reusable across many executions).
    pub fn bind_sql(&self, sql: &str) -> Result<JoinQuery> {
        let stmt = parse_select(sql).map_err(Error::Parse)?;
        bind(&stmt, &self.catalog)
    }

    /// Parse, bind, optimize, plan, execute.
    pub fn query(&self, sql: &str, opts: &QueryOptions) -> Result<QueryResult> {
        let q = self.bind_sql(sql)?;
        self.execute(&q, opts)
    }

    /// Choose the join order per `opts` (explicit or optimizer), applying
    /// §3.2 SafeSubjoin supervision when requested. An explicit order keeps
    /// the build sides it was given. An optimizer's left-deep order under
    /// Baseline or BloomJoin then builds each join on its smaller input by
    /// estimate, and comes back as the tree (`JoinOrder::Bushy`) when any
    /// side flips. Transfer modes keep right = build: pre-transfer
    /// estimates do not describe their join inputs.
    pub fn choose_order(&self, q: &JoinQuery, opts: &QueryOptions) -> Result<JoinOrder> {
        let est = opts.estimator(q);
        let order = if let Some(order) = &opts.join_order {
            let mut rels = order.relations();
            rels.sort_unstable();
            let expected: Vec<usize> = (0..q.num_relations()).collect();
            if rels != expected {
                return Err(Error::Plan(format!(
                    "join order must be a permutation of 0..{}, got {:?}",
                    q.num_relations(),
                    order.relations()
                )));
            }
            order.clone()
        } else if opts.bushy_optimizer {
            JoinOrder::Bushy(optimize_bushy(q, &est)?)
        } else {
            JoinOrder::LeftDeep(optimize_left_deep(q, &est)?)
        };
        let order = if opts.enforce_safe_orders {
            self.supervise_order(q, order)
        } else {
            order
        };
        let estimated_sides =
            opts.join_order.is_none() && matches!(opts.mode, Mode::Baseline | Mode::BloomJoin);
        match order {
            JoinOrder::LeftDeep(seq) if estimated_sides => {
                let chain = PlanNode::left_deep(&seq);
                let plan = with_build_sides(chain.clone(), &est);
                Ok(if plan == chain {
                    JoinOrder::LeftDeep(seq)
                } else {
                    JoinOrder::Bushy(plan)
                })
            }
            order => Ok(order),
        }
    }

    /// §3.2: γ-acyclic queries cannot pick an unsafe order, so the check is
    /// a no-op for them. For α-acyclic-but-not-γ-acyclic queries, run
    /// SafeSubjoin on every prefix of a left-deep order; if any prefix is
    /// unsafe, fall back to the LargestRoot insertion order, which joins
    /// along tree edges and is always safe (Lemma 3.7).
    fn supervise_order(&self, q: &JoinQuery, order: JoinOrder) -> JoinOrder {
        let graph = q.graph();
        if !rpt_graph::is_alpha_acyclic(&graph) || rpt_graph::is_gamma_acyclic(&graph) {
            return order; // no guarantee possible, or nothing to check
        }
        match &order {
            JoinOrder::LeftDeep(seq) => {
                if rpt_graph::safe_join_order(&graph, seq) {
                    order
                } else {
                    match rpt_graph::safe_subjoin::yannakakis_order(&graph) {
                        Some(safe) => JoinOrder::LeftDeep(safe),
                        None => order,
                    }
                }
            }
            // Bushy safety requires checking every subtree; conservatively
            // fall back to the safe left-deep order when any subtree's
            // relation set is unsafe.
            JoinOrder::Bushy(plan) => {
                if bushy_is_safe(&graph, plan) {
                    order
                } else {
                    match rpt_graph::safe_subjoin::yannakakis_order(&graph) {
                        Some(safe) => JoinOrder::LeftDeep(safe),
                        None => order,
                    }
                }
            }
        }
    }

    /// Build the per-query execution context from the options
    /// (workers / threads / work budget / spill configuration).
    ///
    /// The worker pool defaults to `available_parallelism()`, but an
    /// explicit `threads` override above 1 raises the floor so §5.3-style
    /// thread sweeps behave the same on small machines.
    pub fn make_context(&self, opts: &QueryOptions) -> ExecContext {
        let workers = opts
            .workers
            .unwrap_or_else(|| rpt_exec::default_worker_count().max(opts.threads));
        let mut ctx = ExecContext::new()
            .with_threads(opts.threads)
            .with_partitions(opts.partition_count)
            .with_workers(workers)
            .with_memory_budget(opts.memory_budget_bytes)
            .with_spill_dir(opts.spill_dir.clone())
            .with_verify(opts.plan_verify);
        if let Some(b) = opts.work_budget {
            ctx = ctx.with_budget(b);
        }
        ctx
    }

    /// Run a compiled [`PhysicalPlan`] on a fresh executor; returns the
    /// executor holding the published resources and the scheduler's stats.
    /// The plan's recorded `partition_count` is authoritative for the
    /// executor's per-partition resource slots.
    fn run_plan(
        &self,
        plan: &crate::planner::PhysicalPlan,
        ctx: ExecContext,
    ) -> Result<(Executor, GlobalStats)> {
        let (nb, nf, nt) = plan.resource_counts();
        let ctx = ctx.with_partitions(plan.partition_count);
        if ctx.verify.enabled() {
            enforce_verify(&ctx, plan.verify())?;
        }
        let mut exec = Executor::new(ctx, nb, nf, nt);
        let sched = exec.run_dag(&plan.pipelines)?;
        reconcile_run(&exec, &plan.pipelines)?;
        Ok((exec, sched))
    }

    /// Execute a bound query.
    pub fn execute(&self, q: &JoinQuery, opts: &QueryOptions) -> Result<QueryResult> {
        let order = self.choose_order(q, opts)?;
        let plan: PlanNode = order.plan();

        let compiled = Planner::new(q, opts).compile(&plan)?;

        let ctx = self.make_context(opts);
        let metrics = ctx.metrics.clone();
        let t0 = Instant::now();
        let (exec, sched) = self.run_plan(&compiled, ctx)?;
        let wall_time = t0.elapsed();

        let chunks = exec.buffer(compiled.output_buffer)?;
        let mut rows = Vec::new();
        for c in chunks.iter() {
            rows.extend(c.rows());
        }
        Ok(QueryResult {
            schema: compiled.output_schema,
            rows,
            metrics: metrics.summary(),
            sched,
            wall_time,
            join_order: order,
            mode: opts.mode,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_common::{DataType, Field, Vector};

    /// Tiny star schema: sales(fact) → customer, product.
    fn db() -> Database {
        let mut db = Database::new();
        db.register_table(
            Table::new(
                "sales",
                Schema::new(vec![
                    Field::new("cust_id", DataType::Int64),
                    Field::new("prod_id", DataType::Int64),
                    Field::new("amount", DataType::Int64),
                ]),
                vec![
                    Vector::from_i64((0..300).map(|i| i % 10).collect()),
                    Vector::from_i64((0..300).map(|i| i % 7).collect()),
                    Vector::from_i64((0..300).collect()),
                ],
            )
            .unwrap(),
        );
        db.register_table(
            Table::new(
                "customer",
                Schema::new(vec![
                    Field::new("id", DataType::Int64),
                    Field::new("region", DataType::Utf8),
                ]),
                vec![
                    Vector::from_i64((0..10).collect()),
                    Vector::from_utf8(
                        (0..10)
                            .map(|i| if i < 3 { "east".into() } else { "west".into() })
                            .collect(),
                    ),
                ],
            )
            .unwrap(),
        );
        db.register_table(
            Table::new(
                "product",
                Schema::new(vec![
                    Field::new("id", DataType::Int64),
                    Field::new("cat", DataType::Int64),
                ]),
                vec![
                    Vector::from_i64((0..7).collect()),
                    Vector::from_i64((0..7).map(|i| i % 2).collect()),
                ],
            )
            .unwrap(),
        );
        db
    }

    const SQL: &str = "SELECT COUNT(*) FROM sales s, customer c, product p \
                       WHERE s.cust_id = c.id AND s.prod_id = p.id \
                       AND c.region = 'east' AND p.cat = 0";

    fn expected_count() -> i64 {
        // cust_id in {0,1,2} (east), prod_id even (cat 0).
        (0..300).filter(|i| i % 10 < 3 && (i % 7) % 2 == 0).count() as i64
    }

    #[test]
    fn all_modes_agree() {
        let db = db();
        let want = expected_count();
        for mode in Mode::ALL {
            let r = db.query(SQL, &QueryOptions::new(mode)).unwrap();
            assert_eq!(r.scalar_i64(), Some(want), "mode {mode:?}");
            assert_eq!(r.rows.len(), 1);
        }
    }

    #[test]
    fn explicit_orders_agree() {
        let db = db();
        let want = expected_count();
        let orders: Vec<Vec<usize>> =
            vec![vec![0, 1, 2], vec![0, 2, 1], vec![1, 0, 2], vec![2, 0, 1]];
        for order in orders {
            for mode in [Mode::Baseline, Mode::RobustPredicateTransfer] {
                let r = db
                    .query(
                        SQL,
                        &QueryOptions::new(mode).with_order(JoinOrder::LeftDeep(order.clone())),
                    )
                    .unwrap();
                assert_eq!(r.scalar_i64(), Some(want), "order {order:?} mode {mode:?}");
            }
        }
    }

    #[test]
    fn bushy_plan_executes() {
        let db = db();
        let plan = PlanNode::join(
            PlanNode::join(PlanNode::Leaf(0), PlanNode::Leaf(1)),
            PlanNode::Leaf(2),
        );
        let r = db
            .query(
                SQL,
                &QueryOptions::new(Mode::RobustPredicateTransfer)
                    .with_order(JoinOrder::Bushy(plan)),
            )
            .unwrap();
        assert_eq!(r.scalar_i64(), Some(expected_count()));
    }

    #[test]
    fn rpt_reduces_intermediates_vs_baseline() {
        let db = db();
        // Deliberately bad order: join the two dimensions' fact rows late.
        let bad = JoinOrder::LeftDeep(vec![0, 1, 2]);
        let base = db
            .query(
                SQL,
                &QueryOptions::new(Mode::Baseline).with_order(bad.clone()),
            )
            .unwrap();
        let rpt = db
            .query(
                SQL,
                &QueryOptions::new(Mode::RobustPredicateTransfer).with_order(bad),
            )
            .unwrap();
        assert!(
            rpt.metrics.join_output_rows <= base.metrics.join_output_rows,
            "RPT {} vs baseline {}",
            rpt.metrics.join_output_rows,
            base.metrics.join_output_rows
        );
    }

    #[test]
    fn invalid_order_rejected() {
        let db = db();
        for mode in Mode::ALL {
            let err = db
                .query(
                    SQL,
                    &QueryOptions::new(mode).with_order(JoinOrder::LeftDeep(vec![0, 1])),
                )
                .unwrap_err();
            assert!(matches!(err, Error::Plan(_)), "mode {mode:?}");
        }
    }

    #[test]
    fn group_by_query() {
        let db = db();
        let r = db
            .query(
                "SELECT c.region, COUNT(*) AS cnt, SUM(s.amount) AS amt \
                 FROM sales s, customer c WHERE s.cust_id = c.id GROUP BY c.region",
                &QueryOptions::new(Mode::RobustPredicateTransfer),
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.schema.fields[0].name, "c.region");
        let total: i64 = r.rows.iter().map(|row| row[1].as_i64().unwrap()).sum();
        assert_eq!(total, 300);
    }

    /// GROUP BY through the partitioned aggregate sink: identical groups
    /// at every partition count, with per-partition merge tasks none of
    /// which covers the full group set.
    #[test]
    fn group_by_partitioned_matches_serial() {
        let db = db();
        let sql = "SELECT COUNT(*) AS cnt, SUM(s.amount) AS amt, s.cust_id \
                   FROM sales s, customer c WHERE s.cust_id = c.id GROUP BY s.cust_id";
        let base = db
            .query(
                sql,
                &QueryOptions::new(Mode::RobustPredicateTransfer).with_partition_count(1),
            )
            .unwrap();
        assert_eq!(base.rows.len(), 10); // one group per cust_id
        for partition_count in [2usize, 8] {
            let r = db
                .query(
                    sql,
                    &QueryOptions::new(Mode::RobustPredicateTransfer)
                        .with_partition_count(partition_count),
                )
                .unwrap();
            assert_eq!(r.sorted_rows(), base.sorted_rows(), "pc={partition_count}");
            let agg = r
                .sched
                .pipelines
                .iter()
                .find(|p| p.label.starts_with("aggregate"))
                .expect("an aggregate pipeline");
            assert_eq!(agg.merge_tasks, partition_count as u64);
            let agg_max = agg.merge_max_task_rows;
            assert!(agg_max < 10, "merge task covered {agg_max} of 10 groups");
        }
    }

    #[test]
    fn select_without_aggregate() {
        let db = db();
        let r = db
            .query(
                "SELECT c.region, s.amount FROM sales s, customer c \
                 WHERE s.cust_id = c.id AND s.amount < 5",
                &QueryOptions::new(Mode::Baseline),
            )
            .unwrap();
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.schema.len(), 2);
    }

    #[test]
    fn single_table_query() {
        let db = db();
        let r = db
            .query(
                "SELECT COUNT(*) FROM customer WHERE customer.region = 'east'",
                &QueryOptions::new(Mode::RobustPredicateTransfer),
            )
            .unwrap();
        assert_eq!(r.scalar_i64(), Some(3));
    }

    #[test]
    fn work_budget_caps_execution() {
        let db = db();
        let err = db
            .query(SQL, &QueryOptions::new(Mode::Baseline).with_budget(10))
            .unwrap_err();
        assert!(err.is_budget());
    }

    #[test]
    fn multithreaded_matches() {
        let db = db();
        let a = db
            .query(SQL, &QueryOptions::new(Mode::RobustPredicateTransfer))
            .unwrap();
        let b = db
            .query(
                SQL,
                &QueryOptions::new(Mode::RobustPredicateTransfer).with_threads(4),
            )
            .unwrap();
        assert_eq!(a.scalar_i64(), b.scalar_i64());
    }

    #[test]
    fn random_tree_seed_still_correct() {
        let db = db();
        for seed in 0..5 {
            let r = db
                .query(
                    SQL,
                    &QueryOptions::new(Mode::RobustPredicateTransfer).with_random_tree(seed),
                )
                .unwrap();
            assert_eq!(r.scalar_i64(), Some(expected_count()), "seed {seed}");
        }
    }

    #[test]
    fn residual_or_predicate() {
        let db = db();
        let r = db
            .query(
                "SELECT COUNT(*) FROM sales s, customer c WHERE s.cust_id = c.id \
                 AND (s.amount < 10 OR c.region = 'east')",
                &QueryOptions::new(Mode::RobustPredicateTransfer),
            )
            .unwrap();
        let want = (0..300).filter(|i| i < &10 || i % 10 < 3).count() as i64;
        assert_eq!(r.scalar_i64(), Some(want));
    }
}
