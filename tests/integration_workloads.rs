//! Integration: every benchmark query parses, binds, plans, and returns
//! identical results across all execution modes and several join orders.

use rpt_core::{Database, JoinQuery, Mode, Planner, QueryOptions};
use rpt_exec::{SinkSpec, SourceSpec};
use rpt_workloads::{dsb, job, tpcds, tpch, Workload};

fn database_for(w: &Workload) -> Database {
    let mut db = Database::new();
    for t in &w.tables {
        db.register_table(t.clone());
    }
    db
}

/// Floating-point sums differ in the last ulps across join orders
/// (summation order); compare with a relative tolerance.
fn rows_equalish(a: &[Vec<rpt_common::ScalarValue>], b: &[Vec<rpt_common::ScalarValue>]) -> bool {
    use rpt_common::ScalarValue::*;
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                    (Float64(x), Float64(y)) => {
                        (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                    }
                    _ => va == vb,
                })
        })
}

fn check_workload(w: &Workload) {
    let db = database_for(w);
    for q in &w.queries {
        let bound = db
            .bind_sql(&q.sql)
            .unwrap_or_else(|e| panic!("{} {}: bind failed: {e}", w.name, q.id));
        assert_eq!(
            bound.num_relations(),
            q.num_joins + 1,
            "{} {}: relation count",
            w.name,
            q.id
        );
        assert_eq!(
            bound.is_alpha_acyclic(),
            !q.cyclic,
            "{} {}: acyclicity flag mismatch",
            w.name,
            q.id
        );
        // Baseline is ground truth; every other mode must agree.
        let base = db
            .query(&q.sql, &QueryOptions::new(Mode::Baseline))
            .unwrap_or_else(|e| panic!("{} {}: baseline failed: {e}", w.name, q.id));
        for mode in [
            Mode::BloomJoin,
            Mode::PredicateTransfer,
            Mode::RobustPredicateTransfer,
            Mode::Yannakakis,
        ] {
            let r = db
                .query(&q.sql, &QueryOptions::new(mode))
                .unwrap_or_else(|e| panic!("{} {} {mode:?}: failed: {e}", w.name, q.id));
            assert!(
                rows_equalish(&r.sorted_rows(), &base.sorted_rows()),
                "{} {} {mode:?}: wrong result",
                w.name,
                q.id
            );
        }
    }
}

#[test]
fn tpch_all_queries_all_modes() {
    check_workload(&tpch(0.02, 11));
}

#[test]
fn job_all_queries_all_modes() {
    check_workload(&job(0.02, 12));
}

#[test]
fn tpcds_all_queries_all_modes() {
    check_workload(&tpcds(0.02, 13));
}

#[test]
fn dsb_all_queries_all_modes() {
    check_workload(&dsb(0.02, 14));
}

#[test]
fn random_orders_preserve_results() {
    let w = tpch(0.02, 21);
    let db = database_for(&w);
    let q = db.bind_sql(&w.query("q3").unwrap().sql).unwrap();
    let base = db
        .execute(&q, &QueryOptions::new(Mode::Baseline))
        .unwrap()
        .sorted_rows();
    let graph = q.graph();
    for seed in 0..6 {
        let order = rpt_core::random_left_deep(&graph, seed);
        for mode in [Mode::Baseline, Mode::RobustPredicateTransfer] {
            let r = db
                .execute(
                    &q,
                    &QueryOptions::new(mode)
                        .with_order(rpt_core::JoinOrder::LeftDeep(order.clone())),
                )
                .unwrap();
            assert!(
                rows_equalish(&r.sorted_rows(), &base),
                "seed {seed} mode {mode:?}"
            );
        }
        let bushy = rpt_core::random_bushy(&graph, seed);
        let r = db
            .execute(
                &q,
                &QueryOptions::new(Mode::RobustPredicateTransfer)
                    .with_order(rpt_core::JoinOrder::Bushy(bushy)),
            )
            .unwrap();
        assert!(rows_equalish(&r.sorted_rows(), &base), "bushy seed {seed}");
    }
}

#[test]
fn tpcds_q29_is_alpha_but_not_gamma_acyclic() {
    // §5.1.1: "Query 29 is acyclic but not γ-acyclic ... certain join
    // orders are unsafe." Verify both the classification and that
    // SafeSubjoin flags an unsafe subjoin of the real query graph.
    let w = tpcds(0.02, 61);
    let db = database_for(&w);
    let qd = w.query("q29").unwrap();
    let q = db.bind_sql(&qd.sql).unwrap();
    assert!(q.is_alpha_acyclic(), "q29 must be α-acyclic");
    assert!(!q.is_gamma_acyclic(), "q29 must not be γ-acyclic");
    let graph = q.graph();
    // By Theorem 3.6, some connected subjoin must be unsafe.
    let n = graph.num_relations();
    let mut found_unsafe = false;
    for mask in 1u32..(1 << n) {
        let subset: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        if subset.len() < 2 || subset.len() == n {
            continue;
        }
        let (sub, _) = graph.induced_subgraph(&subset);
        if sub.is_connected() && !rpt_graph::safe_subjoin(&graph, &subset) {
            found_unsafe = true;
            break;
        }
    }
    assert!(
        found_unsafe,
        "α-not-γ query must have an unsafe connected subjoin"
    );
    // And the guaranteed-safe Yannakakis order passes the check end to end.
    let order = rpt_graph::safe_subjoin::yannakakis_order(&graph).unwrap();
    assert!(rpt_graph::safe_join_order(&graph, &order));
}

/// Transfer filters (CreateBF) in the plan `opts` compiles for `q`: the
/// filters the buffer sinks build, however many pipelines carry them.
fn createbf_filters(db: &Database, q: &JoinQuery, opts: &QueryOptions) -> usize {
    let order = db.choose_order(q, opts).unwrap();
    let plan = Planner::new(q, opts).compile(&order.plan()).unwrap();
    plan.pipelines
        .iter()
        .map(|p| match &p.sink {
            SinkSpec::Buffer { blooms, .. } => blooms.len(),
            _ => 0,
        })
        .sum()
}

#[test]
fn transfer_schedule_pipelines_have_expected_shape() {
    // JOB 3a under RPT must build one transfer filter per semi-join in the
    // forward+backward schedule (modulo the §4.3 prunings).
    let w = job(0.02, 62);
    let db = database_for(&w);
    let qd = w.query("3a").unwrap();
    let q = db.bind_sql(&qd.sql).unwrap();
    let mut opts = QueryOptions::new(Mode::RobustPredicateTransfer);
    opts.prune_backward = false;
    opts.prune_trivial = false;
    let filters = createbf_filters(&db, &q, &opts);
    // 4 relations → 3 forward + 3 backward semi-joins.
    assert_eq!(filters, 6);
    // With pruning on, the count can only shrink.
    let pruned = QueryOptions::new(Mode::RobustPredicateTransfer);
    assert!(createbf_filters(&db, &q, &pruned) <= filters);
    let r = db.execute(&q, &opts).unwrap();
    let r2 = db.execute(&q, &pruned).unwrap();
    assert_eq!(r.sorted_rows(), r2.sorted_rows());
}

/// A reduced relation is buffered once: under every transfer mode, at
/// partition counts 1 and 8, no compiled plan of the four generators'
/// queries has a pure-copy pipeline (a buffer read through no operator into
/// another buffer). A second CreateBF or materialize on a relation whose
/// stream is already a bare buffer joins the pipeline that wrote it.
#[test]
fn no_plan_copies_a_buffer() {
    for w in [
        tpch(0.02, 42),
        job(0.02, 42),
        tpcds(0.02, 42),
        dsb(0.02, 42),
    ] {
        let db = database_for(&w);
        for qd in &w.queries {
            let q = db.bind_sql(&qd.sql).unwrap();
            for mode in [
                Mode::PredicateTransfer,
                Mode::RobustPredicateTransfer,
                Mode::Yannakakis,
                Mode::Hybrid,
            ] {
                for partitions in [1, 8] {
                    let opts = QueryOptions::new(mode).with_partition_count(partitions);
                    let order = db.choose_order(&q, &opts).unwrap();
                    let plan = Planner::new(&q, &opts).compile(&order.plan()).unwrap();
                    for p in &plan.pipelines {
                        assert!(
                            !matches!(
                                (&p.source, p.ops.is_empty(), &p.sink),
                                (SourceSpec::Buffer(_), true, SinkSpec::Buffer { .. })
                            ),
                            "{} {} {mode:?} pc={partitions}: `{}` copies a buffer",
                            w.name,
                            qd.id,
                            p.label
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn baseline_has_no_bloom_work_and_pt_variants_do() {
    let w = tpch(0.02, 63);
    let db = database_for(&w);
    let qd = w.query("q3").unwrap();
    let q = db.bind_sql(&qd.sql).unwrap();
    let base = db.execute(&q, &QueryOptions::new(Mode::Baseline)).unwrap();
    assert_eq!(base.metrics.bloom_probe_in, 0);
    assert_eq!(base.metrics.bloom_build_rows, 0);
    let rpt = db
        .execute(&q, &QueryOptions::new(Mode::RobustPredicateTransfer))
        .unwrap();
    assert!(rpt.metrics.bloom_build_rows > 0);
    assert!(rpt.metrics.bloom_probe_in > 0);
    assert!(rpt.metrics.bloom_nanos > 0);
    // Yannakakis uses exact semi-joins, no blooms.
    let yan = db
        .execute(&q, &QueryOptions::new(Mode::Yannakakis))
        .unwrap();
    assert_eq!(yan.metrics.bloom_build_rows, 0);
}
