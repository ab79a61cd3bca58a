//! Static plan verifier: positive corpus coverage and negative mutation
//! coverage.
//!
//! Positive: every corpus query's compiled plan verifies clean in every
//! mode across `partition_count {1,8}` (statically) and end-to-end under
//! `RPT_PLAN_VERIFY=strict`.
//!
//! Negative: single spec mutations of a healthy plan — a dropped filter
//! builder, a second writer of a buffer, a pipeline sourced from its own
//! output, an orphaned output buffer, two pipelines reading each other's
//! outputs — must each be rejected with the expected stable rule id (`D2`,
//! `D3`, `D4`, `D5`, `D1`) at the site they broke, proving the rule
//! families fire independently. A Bloom filter probed *inside* a scan is a
//! dependency like any other: losing its builder is caught at the scan.
//!
//! Runtime: the executor's access log, kept on every verify-mode run,
//! reconciles with the spec-derived deps (`R1`/`R2`).

use proptest::prelude::*;
use rpt_analyze::reconcile_accesses;
use rpt_core::{Database, Mode, PhysicalPlan, Planner, QueryOptions};
use rpt_exec::{ExecContext, Executor, NodeDeps, ResourceId, SinkSpec, SourceSpec, VerifyMode};
use rpt_workloads::{tpch, Workload};

fn database_for(w: &Workload) -> Database {
    let mut db = Database::new();
    for t in &w.tables {
        db.register_table(t.clone());
    }
    db
}

/// A small cross-section of plan shapes: scan+filter+topk, join+group-by,
/// a deeper multi-way join, and a wide aggregation.
const CORPUS: &[&str] = &[
    "SELECT o.o_orderkey, o.o_totalprice FROM orders o \
     WHERE o.o_totalprice > 200000 ORDER BY 2 DESC LIMIT 15",
    "SELECT c.c_mktsegment, COUNT(*) AS cnt, SUM(l.l_extendedprice) AS revenue \
     FROM customer c, orders o, lineitem l \
     WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
       AND o.o_orderdate < 1200 GROUP BY c.c_mktsegment ORDER BY revenue DESC",
    "SELECT n.n_name, SUM(l.l_extendedprice) AS revenue \
     FROM customer c, orders o, lineitem l, nation n \
     WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
       AND c.c_nationkey = n.n_nationkey AND l.l_returnflag = 'R' \
     GROUP BY n.n_name ORDER BY 2 DESC, 1 LIMIT 5",
    "SELECT p.p_brand, COUNT(*) AS cnt FROM partsupp ps, part p, supplier s \
     WHERE p.p_partkey = ps.ps_partkey AND s.s_suppkey = ps.ps_suppkey \
     GROUP BY p.p_brand ORDER BY 2 DESC, 1 LIMIT 10",
];

fn opts(pc: usize) -> QueryOptions {
    QueryOptions::new(Mode::RobustPredicateTransfer)
        .with_partition_count(pc)
        .with_plan_verify(VerifyMode::Strict)
}

fn compile(db: &Database, sql: &str, o: &QueryOptions) -> PhysicalPlan {
    let q = db.bind_sql(sql).expect("corpus query binds");
    let order = db.choose_order(&q, o).expect("order chosen");
    Planner::new(&q, o)
        .compile(&order.plan())
        .expect("corpus query compiles")
}

/// Every mode compiles each corpus query to one plan that verifies clean.
#[test]
fn corpus_plans_verify_clean_static() {
    let db = database_for(&tpch(0.05, 42));
    for sql in CORPUS {
        for mode in Mode::ALL {
            for pc in [1usize, 8] {
                let plan = compile(&db, sql, &QueryOptions { mode, ..opts(pc) });
                let rep = plan.verify();
                assert!(
                    rep.is_clean(),
                    "{mode:?} pc={pc} sql={sql}: {:?}",
                    rep.errors
                );
                assert!(rep.checks_run > 0);
            }
        }
    }
}

#[test]
fn corpus_runs_clean_under_strict_all_legs() {
    let db = database_for(&tpch(0.05, 42));
    for sql in CORPUS.iter().take(3) {
        for pc in [1usize, 8] {
            let o = opts(pc).with_workers(4);
            let r = db
                .query(sql, &o)
                .unwrap_or_else(|e| panic!("strict verify failed (pc={pc}): {e}"));
            assert!(
                r.metrics.verify_checks_run > 0,
                "no verify checks recorded (pc={pc})"
            );
        }
    }
}

/// The scheduler/scan observability counters stay live: a multi-pipeline
/// query populates them all with mutually consistent values. (The
/// `cargo xtask lint` dead-metric rule requires every counter to be
/// asserted somewhere — this is that somewhere for the scheduler family.)
#[test]
fn scheduler_metrics_are_live() {
    let db = database_for(&tpch(0.05, 42));
    let sql = CORPUS[2];
    let o = opts(8).with_workers(4).with_threads(2);
    let s = db.query(sql, &o).expect("query runs").metrics;
    assert!(s.scan_rows > 0, "scan_rows dead");
    assert!(
        s.bloom_probe_out <= s.bloom_probe_in,
        "probe out {} > in {}",
        s.bloom_probe_out,
        s.bloom_probe_in
    );
    assert!(s.sched_tasks > 0, "sched_tasks dead");
    assert!(s.sched_workers >= 1, "sched_workers dead");
    assert!(s.sched_wall_nanos > 0, "sched_wall_nanos dead");
    assert!(s.sched_busy_nanos > 0, "sched_busy_nanos dead");
    assert!(
        s.sched_max_queue_depth <= s.sched_tasks,
        "queue depth {} exceeds task count {}",
        s.sched_max_queue_depth,
        s.sched_tasks
    );
}

// ---- Mutations: each class must be rejected with its stable rule id ----

fn healthy_plan(pc: usize) -> PhysicalPlan {
    let db = database_for(&tpch(0.05, 42));
    let plan = compile(&db, CORPUS[2], &opts(pc));
    assert!(plan.verify().is_clean(), "fixture plan must start clean");
    plan
}

/// `(rule id, pipeline, grain)` of every finding.
fn findings(plan: &PhysicalPlan) -> Vec<(&'static str, Option<usize>, Option<ResourceId>)> {
    let errors = plan.verify().errors;
    errors
        .iter()
        .map(|e| (e.rule.id(), e.pipeline, e.grain))
        .collect()
}

/// A filter probed inside exactly one base scan: `(scan pipeline, filter
/// id)`.
fn scan_probed_filter(plan: &PhysicalPlan) -> (usize, usize) {
    let pc = plan.partition_count;
    plan.pipelines
        .iter()
        .enumerate()
        .flat_map(|(i, p)| match &p.source {
            SourceSpec::Scan { probes, .. } => probes.iter().map(|pr| (i, pr.filter_id)).collect(),
            SourceSpec::Buffer(_) | SourceSpec::GenericJoin { .. } => vec![],
        })
        .find(|&(_, f)| {
            let readers = plan
                .pipelines
                .iter()
                .filter(|p| p.deps(pc).reads.contains(&ResourceId::Filter(f)));
            readers.count() == 1
        })
        .expect("an RPT plan probes some base scan")
}

/// The buffer a sink writes, if it writes one.
fn sink_buffer(sink: &mut SinkSpec) -> Option<&mut usize> {
    match sink {
        SinkSpec::Buffer { buf_id, .. }
        | SinkSpec::Aggregate { buf_id, .. }
        | SinkSpec::Sort { buf_id, .. } => Some(buf_id),
        SinkSpec::HashBuild { .. } => None,
    }
}

/// Base-scan pipelines that materialize into a buffer, with that buffer.
fn scans_into_buffers(plan: &mut PhysicalPlan) -> Vec<(usize, usize)> {
    plan.pipelines
        .iter_mut()
        .enumerate()
        .filter(|(_, p)| matches!(p.source, SourceSpec::Scan { .. }))
        .filter_map(|(i, p)| Some((i, *sink_buffer(&mut p.sink)?)))
        .collect()
}

/// Drop the `BloomSink` that builds `filter`.
fn drop_bloom_sink(plan: &mut PhysicalPlan, filter: usize) {
    let mut dropped = 0;
    for p in &mut plan.pipelines {
        if let SinkSpec::Buffer { blooms, .. } | SinkSpec::HashBuild { blooms, .. } = &mut p.sink {
            let before = blooms.len();
            blooms.retain(|b| b.filter_id != filter);
            dropped += before - blooms.len();
        }
    }
    assert_eq!(dropped, 1, "filter {filter} has one builder");
}

/// A scan-probed filter whose builder is gone: the scan could open before
/// the filter exists. Exactly one finding — `D2` at that scan, on that
/// filter grain.
#[test]
fn mutation_dropped_scan_probe_filter_dependency_is_rejected() {
    for pc in [1usize, 8] {
        let mut plan = healthy_plan(pc);
        let (scan, filter) = scan_probed_filter(&plan);
        drop_bloom_sink(&mut plan, filter);
        assert_eq!(
            findings(&plan),
            vec![("D2", Some(scan), Some(ResourceId::Filter(filter)))],
            "pc={pc}"
        );
    }
}

#[test]
fn mutation_orphaned_output_buffer_is_rejected() {
    let mut plan = healthy_plan(8);
    // Claim the result lives in a brand-new buffer that no pipeline writes.
    plan.num_buffers += 1;
    plan.output_buffer = plan.num_buffers - 1;
    let ids: Vec<_> = findings(&plan).into_iter().map(|f| f.0).collect();
    assert!(ids.contains(&"D5"), "expected D5, got {ids:?}");
}

/// The rule ids a mutated plan reports at the site it broke (a pipeline
/// or a grain), sorted and deduped.
fn ids_at(
    plan: &PhysicalPlan,
    at: impl Fn(&rpt_analyze::VerifyError) -> bool,
) -> Vec<&'static str> {
    let mut ids: Vec<_> = plan
        .verify()
        .errors
        .iter()
        .filter(|e| at(e))
        .map(|e| e.rule.id())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Each mutation edits a spec, never a dependency set: the verifier sees
/// only what `PipelinePlan::deps` reads off the specs.
#[test]
fn mutation_rule_ids_are_distinct_per_class() {
    // Dropped filter builder: the probed filter's read dangles.
    let mut plan = healthy_plan(8);
    let (_, filter) = scan_probed_filter(&plan);
    drop_bloom_sink(&mut plan, filter);
    let dropped_filter_writer = ids_at(&plan, |e| e.grain == Some(ResourceId::Filter(filter)));

    // A second sink pointed at an existing buffer: two writers per grain.
    let mut plan = healthy_plan(8);
    let scans = scans_into_buffers(&mut plan);
    let ((_, taken), (second, _)) = (scans[0], scans[1]);
    *sink_buffer(&mut plan.pipelines[second].sink).expect("buffer sink") = taken;
    let second_writer = ids_at(
        &plan,
        |e| matches!(e.grain, Some(ResourceId::BufferPart(b, _)) if b == taken),
    );

    // A pipeline sourced from its own sink's buffer.
    let mut plan = healthy_plan(8);
    let (own, own_buf) = scans_into_buffers(&mut plan)[0];
    plan.pipelines[own].source = SourceSpec::Buffer(own_buf);
    let self_sourced = ids_at(&plan, |e| e.pipeline == Some(own));

    // Orphaned output buffer: the claimed result is never written.
    let mut plan = healthy_plan(8);
    plan.num_buffers += 1;
    plan.output_buffer = plan.num_buffers - 1;
    let out = plan.output_buffer;
    let orphaned = ids_at(
        &plan,
        |e| matches!(e.grain, Some(ResourceId::BufferPart(b, _)) if b == out),
    );

    // Two pipelines whose buffer sources read each other's outputs.
    let mut plan = healthy_plan(8);
    let scans = scans_into_buffers(&mut plan);
    let ((a, a_buf), (b, b_buf)) = (scans[0], scans[1]);
    plan.pipelines[a].source = SourceSpec::Buffer(b_buf);
    plan.pipelines[b].source = SourceSpec::Buffer(a_buf);
    let mutual = ids_at(&plan, |e| e.pipeline == Some(a) || e.pipeline == Some(b));

    // Each class reports exactly its own rule at the site it broke, and
    // the five rules differ — a diagnostic that always says "plan
    // invalid" would be useless.
    let classes = [
        dropped_filter_writer,
        second_writer,
        self_sourced,
        orphaned,
        mutual,
    ];
    assert_eq!(
        classes,
        [["D2"], ["D3"], ["D4"], ["D5"], ["D1"]].map(|c| c.to_vec())
    );
    let unique: std::collections::BTreeSet<_> = classes.iter().collect();
    assert_eq!(unique.len(), classes.len());
}

/// R1/R2 on a real run: the access log the executor keeps shares no code
/// with `PipelinePlan::deps`, so it is the independent check of the derived
/// sets. A healthy plan's observed accesses are all declared; drop the
/// probed filter grain from its scan's derived reads and exactly one `R1`
/// names it.
#[test]
fn access_log_reconciles_with_derived_deps_on_a_real_run() {
    for pc in [1usize, 8] {
        let plan = healthy_plan(pc);
        let (nb, nf, nt) = plan.resource_counts();
        let ctx = ExecContext::new()
            .with_partitions(plan.partition_count)
            .with_verify(VerifyMode::Strict);
        let mut exec = Executor::new(ctx, nb, nf, nt);
        exec.run_dag(&plan.pipelines).expect("healthy plan runs");
        let (reads, writes) = exec
            .resources()
            .access_log()
            .expect("verify mode keeps the access log")
            .observed();
        let mut deps: Vec<NodeDeps> = plan
            .pipelines
            .iter()
            .map(|p| p.deps(plan.partition_count))
            .collect();
        let (errors, checks) = reconcile_accesses(&deps, &reads, &writes);
        assert!(errors.is_empty(), "pc={pc}: {errors:?}");
        assert_eq!(checks, (reads.len() + writes.len()) as u64);

        let (scan, filter) = scan_probed_filter(&plan);
        let grain = ResourceId::Filter(filter);
        assert!(reads.contains(&grain), "pc={pc}: the scan opened {grain:?}");
        deps[scan].reads.retain(|g| *g != grain);
        let (errors, _) = reconcile_accesses(&deps, &reads, &writes);
        let found: Vec<_> = errors.iter().map(|e| (e.rule.id(), e.grain)).collect();
        assert_eq!(found, vec![("R1", Some(grain))], "pc={pc}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any corpus query × any leg combination compiles to a plan the
    /// verifier accepts — planner claims and verifier derivations never
    /// diverge on healthy input.
    #[test]
    fn random_legs_verify_clean(
        qi in 0usize..4,
        pc_pow in 0u32..4,
    ) {
        let db = database_for(&tpch(0.05, 42));
        let plan = compile(&db, CORPUS[qi], &opts(1usize << pc_pow));
        let rep = plan.verify();
        prop_assert!(rep.is_clean(), "{:?}", rep.errors);
    }
}
