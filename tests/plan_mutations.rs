//! Static plan verifier: positive corpus coverage and negative mutation
//! coverage.
//!
//! Positive: every corpus query's compiled plan verifies clean across
//! `partition_count {1,8}` (statically) and end-to-end under
//! `RPT_PLAN_VERIFY=strict`.
//!
//! Negative: single mutations of a healthy plan — a dropped dependency
//! edge, a dropped writer claim, an orphaned output buffer — must each be
//! rejected with the expected stable rule id (`D6`, `S1`, `D5`), proving
//! the rule families fire independently. A Bloom filter
//! probed *inside* a scan is a dependency like any other: dropping it from
//! the scan pipeline's reads (`D6`) or losing its writer (`D2`) is caught.

use proptest::prelude::*;
use rpt_core::{Database, Mode, PhysicalPlan, Planner, QueryOptions};
use rpt_exec::{ResourceId, SourceSpec, VerifyMode};
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

#[test]
fn corpus_plans_verify_clean_static() {
    let db = database_for(&tpch(0.05, 42));
    for sql in CORPUS {
        for pc in [1usize, 8] {
            let plan = compile(&db, sql, &opts(pc));
            let rep = plan.verify();
            assert!(rep.is_clean(), "pc={pc} sql={sql}: {:?}", rep.errors);
            assert!(rep.checks_run > 0);
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

fn rule_ids(plan: &PhysicalPlan) -> Vec<&'static str> {
    plan.verify().errors.iter().map(|e| e.rule.id()).collect()
}

fn healthy_plan(pc: usize) -> PhysicalPlan {
    let db = database_for(&tpch(0.05, 42));
    let plan = compile(&db, CORPUS[2], &opts(pc));
    assert!(plan.verify().is_clean(), "fixture plan must start clean");
    plan
}

#[test]
fn mutation_dropped_dep_edge_is_reads_divergence() {
    let mut plan = healthy_plan(8);
    let i = plan
        .deps
        .iter()
        .position(|d| !d.reads.is_empty())
        .expect("some pipeline reads something");
    plan.deps[i].reads.clear();
    let ids = rule_ids(&plan);
    assert!(ids.contains(&"D6"), "expected D6, got {ids:?}");
}

/// The read set of a fused scan comes from its resident probes: a plan
/// that forgets one (so the scan could open before the filter exists), or
/// whose filter has lost its writer, is rejected at that pipeline.
#[test]
fn mutation_dropped_scan_probe_filter_dependency_is_rejected() {
    for pc in [1usize, 8] {
        let healthy = healthy_plan(pc);
        let (scan, filter) = healthy
            .pipelines
            .iter()
            .enumerate()
            .find_map(|(i, p)| match &p.source {
                SourceSpec::Scan { probes, .. } => {
                    Some((i, ResourceId::Filter(probes.first()?.filter_id)))
                }
                _ => None,
            })
            .expect("an RPT plan probes some base scan");
        assert!(healthy.deps[scan].reads.contains(&filter));

        let mut plan = healthy_plan(pc);
        plan.deps[scan].reads.retain(|g| *g != filter);
        let errors = plan.verify().errors;
        assert!(
            errors
                .iter()
                .any(|e| e.rule.id() == "D6" && e.pipeline == Some(scan)),
            "pc={pc}: expected D6 at pipeline {scan}, got {errors:?}"
        );

        let mut plan = healthy_plan(pc);
        for d in &mut plan.deps {
            d.writes.retain(|g| *g != filter);
        }
        let errors = plan.verify().errors;
        assert!(
            errors.iter().any(|e| e.rule.id() == "D2"
                && e.pipeline == Some(scan)
                && e.grain == Some(filter)),
            "pc={pc}: expected D2 on {filter:?} at pipeline {scan}, got {errors:?}"
        );
    }
}

#[test]
fn mutation_dropped_writer_claim_is_writes_divergence() {
    let mut plan = healthy_plan(8);
    plan.deps[0].writes.clear();
    let ids = rule_ids(&plan);
    assert!(ids.contains(&"S1"), "expected S1, got {ids:?}");
    // The dangling readers of those grains surface too.
    assert!(ids.contains(&"D2"), "expected D2 alongside S1, got {ids:?}");
}

#[test]
fn mutation_orphaned_output_buffer_is_rejected() {
    let mut plan = healthy_plan(8);
    // Claim the result lives in a brand-new buffer that no pipeline writes.
    plan.num_buffers += 1;
    plan.output_buffer = plan.num_buffers - 1;
    let ids = rule_ids(&plan);
    assert!(ids.contains(&"D5"), "expected D5, got {ids:?}");
}

/// The rule ids one mutation class reports at the site it mutated (a
/// pipeline or a grain), compiled and verified from [`healthy_plan`].
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

#[test]
fn mutation_rule_ids_are_distinct_per_class() {
    // Dropped dep edge: the reader's recorded reads diverge.
    let mut plan = healthy_plan(8);
    let reader = plan
        .deps
        .iter()
        .position(|d| !d.reads.is_empty())
        .expect("some pipeline reads something");
    plan.deps[reader].reads.clear();
    let dropped_edge = ids_at(&plan, |e| e.pipeline == Some(reader));

    // Dropped writer claim: the writer's recorded writes diverge.
    let mut plan = healthy_plan(8);
    plan.deps[0].writes.clear();
    let dropped_writer = ids_at(&plan, |e| e.pipeline == Some(0));

    // Dropped filter writer: the probed filter's read dangles.
    let mut plan = healthy_plan(8);
    let filter = plan
        .pipelines
        .iter()
        .find_map(|p| match &p.source {
            SourceSpec::Scan { probes, .. } => Some(ResourceId::Filter(probes.first()?.filter_id)),
            _ => None,
        })
        .expect("an RPT plan probes some base scan");
    for d in &mut plan.deps {
        d.writes.retain(|g| *g != filter);
    }
    let dropped_filter_writer = ids_at(&plan, |e| e.grain == Some(filter));

    // Orphaned output buffer: the claimed result is never written.
    let mut plan = healthy_plan(8);
    plan.num_buffers += 1;
    plan.output_buffer = plan.num_buffers - 1;
    let out = plan.output_buffer;
    let orphaned = ids_at(
        &plan,
        |e| matches!(e.grain, Some(ResourceId::BufferPart(b, _)) if b == out),
    );

    // Each class reports exactly its own rule at the site it broke, and
    // the four rules differ — a diagnostic that always says "plan
    // invalid" would be useless.
    let classes = [
        dropped_edge,
        dropped_writer,
        dropped_filter_writer,
        orphaned,
    ];
    assert_eq!(
        classes,
        [["D6"], ["S1"], ["D2"], ["D5"]].map(|c| c.to_vec())
    );
    let unique: std::collections::BTreeSet<_> = classes.iter().collect();
    assert_eq!(unique.len(), classes.len());
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
