//! Static plan verifier: positive corpus coverage and negative mutation
//! coverage.
//!
//! Positive: every corpus query's compiled plan verifies clean across
//! `partition_count {1,8} × repartition_elide {on,off}` (statically) and
//! end-to-end under `RPT_PLAN_VERIFY=strict`.
//!
//! Negative: single mutations of a healthy plan — a dropped dependency
//! edge, a flipped distribution claim, a `Preserve` route on an ineligible
//! pipeline, an orphaned output buffer, a dropped writer claim — must each
//! be rejected with the expected stable rule id (`D6`, `P2`, `P1`, `D5`,
//! `S1`), proving the rule families fire independently. A Bloom filter
//! probed *inside* a scan is a dependency like any other: dropping it from
//! the scan pipeline's reads (`D6`) or losing its writer (`D2`) is caught.

use proptest::prelude::*;
use rpt_core::{Database, Mode, PhysicalPlan, Planner, QueryOptions};
use rpt_exec::{ResourceId, RouteMode, SinkSpec, SourceSpec, VerifyMode};
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

fn opts(pc: usize, elide: bool) -> QueryOptions {
    QueryOptions::new(Mode::RobustPredicateTransfer)
        .with_partition_count(pc)
        .with_repartition_elide(elide)
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
    let mut preserve_total = 0usize;
    for sql in CORPUS {
        for pc in [1usize, 8] {
            for elide in [false, true] {
                let o = opts(pc, elide);
                let plan = compile(&db, sql, &o);
                let rep = plan.verify();
                assert!(
                    rep.is_clean(),
                    "pc={pc} elide={elide} sql={sql}: {:?}",
                    rep.errors
                );
                assert!(rep.checks_run > 0);
                if elide && pc > 1 {
                    preserve_total += rep.preserve_routes;
                }
            }
        }
    }
    // Elision must actually fire somewhere in the corpus — every Preserve
    // route above was independently proven eligible by the verifier.
    assert!(preserve_total > 0, "no corpus plan elided a repartition");
}

#[test]
fn corpus_runs_clean_under_strict_all_legs() {
    let db = database_for(&tpch(0.05, 42));
    for sql in CORPUS.iter().take(3) {
        for pc in [1usize, 8] {
            for elide in [false, true] {
                let o = opts(pc, elide).with_workers(4);
                let r = db.query(sql, &o).unwrap_or_else(|e| {
                    panic!("strict verify failed (pc={pc} elide={elide}): {e}")
                });
                assert!(
                    r.metrics.verify_checks_run > 0,
                    "no verify checks recorded (pc={pc} elide={elide})"
                );
            }
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
    let o = opts(8, true).with_workers(4).with_threads(2);
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

fn healthy_plan(pc: usize, elide: bool) -> PhysicalPlan {
    let db = database_for(&tpch(0.05, 42));
    let o = opts(pc, elide);
    let plan = compile(&db, CORPUS[2], &o);
    assert!(plan.verify().is_clean(), "fixture plan must start clean");
    plan
}

#[test]
fn mutation_dropped_dep_edge_is_reads_divergence() {
    let mut plan = healthy_plan(8, true);
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
        let healthy = healthy_plan(pc, true);
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

        let mut plan = healthy_plan(pc, true);
        plan.deps[scan].reads.retain(|g| *g != filter);
        let errors = plan.verify().errors;
        assert!(
            errors
                .iter()
                .any(|e| e.rule.id() == "D6" && e.pipeline == Some(scan)),
            "pc={pc}: expected D6 at pipeline {scan}, got {errors:?}"
        );

        let mut plan = healthy_plan(pc, true);
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
    let mut plan = healthy_plan(8, true);
    plan.deps[0].writes.clear();
    let ids = rule_ids(&plan);
    assert!(ids.contains(&"S1"), "expected S1, got {ids:?}");
    // The dangling readers of those grains surface too.
    assert!(ids.contains(&"D2"), "expected D2 alongside S1, got {ids:?}");
}

#[test]
fn mutation_flipped_distribution_claim_is_rejected() {
    let mut plan = healthy_plan(8, true);
    let b = plan
        .distributions
        .iter()
        .position(|d| d.is_some())
        .expect("some buffer carries a distribution claim");
    plan.distributions[b] = Some(vec![41]);
    let ids = rule_ids(&plan);
    assert!(ids.contains(&"P2"), "expected P2, got {ids:?}");
}

#[test]
fn mutation_ineligible_preserve_route_is_rejected() {
    // Compile with elision off so every route starts Radix, then force a
    // Preserve route onto a pipeline that cannot prove eligibility: a
    // table-sourced pipeline has no partitioned input to preserve.
    let mut plan = healthy_plan(8, false);
    let i = plan
        .pipelines
        .iter()
        .position(|p| {
            matches!(&p.source, SourceSpec::Table(_) | SourceSpec::Scan { .. })
                && !matches!(&p.sink, SinkSpec::Sort { .. })
        })
        .expect("plan has a table-sourced pipeline");
    plan.pipelines[i].route = RouteMode::Preserve;
    let ids = rule_ids(&plan);
    assert!(ids.contains(&"P1"), "expected P1, got {ids:?}");
}

#[test]
fn mutation_orphaned_output_buffer_is_rejected() {
    let mut plan = healthy_plan(8, true);
    // Claim the result lives in a brand-new buffer that no pipeline writes.
    plan.num_buffers += 1;
    plan.output_buffer = plan.num_buffers - 1;
    plan.distributions.push(None);
    let ids = rule_ids(&plan);
    assert!(ids.contains(&"D5"), "expected D5, got {ids:?}");
}

#[test]
fn mutation_rule_ids_are_distinct_per_class() {
    // The four headline mutation classes report four different rules —
    // a diagnostic that always says "plan invalid" would be useless.
    let ids = ["D6", "P2", "P1", "D5"];
    let unique: std::collections::BTreeSet<_> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len());
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
        elide in proptest::bool::ANY,
    ) {
        let db = database_for(&tpch(0.05, 42));
        let o = opts(1usize << pc_pow, elide);
        let plan = compile(&db, CORPUS[qi], &o);
        let rep = plan.verify();
        prop_assert!(rep.is_clean(), "{:?}", rep.errors);
    }
}
