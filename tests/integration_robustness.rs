//! The paper's theoretical guarantees, checked empirically:
//!
//! 1. Full reduction: after RPT's transfer phase on an α-acyclic query,
//!    exact Yannakakis reduction leaves every surviving tuple contributing
//!    to the output — the join phase is monotone along safe orders.
//! 2. Robustness: for acyclic queries, RPT's work varies by a small
//!    constant across random join orders while the baseline varies wildly.
//! 3. Cyclic queries get no guarantee (documented behaviour, §5.1.3).

use rpt_core::robustness::robustness_factor;
use rpt_core::{Database, Mode, QueryOptions};
use rpt_workloads::{job, tpcds, tpch, Workload};

fn database_for(w: &Workload) -> Database {
    let mut db = Database::new();
    for t in &w.tables {
        db.register_table(t.clone());
    }
    db
}

#[test]
fn rpt_rf_is_bounded_on_acyclic_queries() {
    let w = job(0.05, 31);
    let db = database_for(&w);
    for qd in w.acyclic_queries().iter().take(6) {
        let q = db.bind_sql(&qd.sql).unwrap();
        let rep =
            robustness_factor(&db, &q, Mode::RobustPredicateTransfer, 8, false, None, 5).unwrap();
        let rf = rep.rf_work();
        // The paper's worst acyclic left-deep RF is 1.6; Bloom false
        // positives and join-phase build-side choices give us a little
        // slack, but the factor must stay a small constant.
        assert!(rf < 3.0, "JOB {} RPT RF {rf} too large", qd.id);
        assert_eq!(rep.timeouts, 0, "JOB {} timed out under RPT", qd.id);
    }
}

#[test]
fn baseline_rf_exceeds_rpt_rf_overall() {
    let w = tpch(0.05, 32);
    let db = database_for(&w);
    let mut base_rfs = Vec::new();
    let mut rpt_rfs = Vec::new();
    for qd in w.acyclic_queries() {
        if qd.num_joins < 3 {
            continue;
        }
        let q = db.bind_sql(&qd.sql).unwrap();
        let base = robustness_factor(&db, &q, Mode::Baseline, 6, false, None, 9).unwrap();
        let rpt =
            robustness_factor(&db, &q, Mode::RobustPredicateTransfer, 6, false, None, 9).unwrap();
        base_rfs.push(base.rf_work());
        rpt_rfs.push(rpt.rf_work());
    }
    let base_avg: f64 = base_rfs.iter().sum::<f64>() / base_rfs.len() as f64;
    let rpt_avg: f64 = rpt_rfs.iter().sum::<f64>() / rpt_rfs.len() as f64;
    assert!(
        base_avg > rpt_avg * 1.5,
        "baseline avg RF {base_avg} vs RPT {rpt_avg}: robustness advantage missing"
    );
    // Table 1's shape holds at the worst query too, not just on average.
    let max = |rfs: &[f64]| rfs.iter().copied().fold(0.0, f64::max);
    let (base_max, rpt_max) = (max(&base_rfs), max(&rpt_rfs));
    assert!(
        rpt_max <= base_max,
        "RPT max RF {rpt_max} vs baseline {base_max}"
    );
}

#[test]
fn tpch_robustness_tiny() {
    // Table 1's shape on every TPC-H query with at least two joins, at a
    // tiny scale: a few random orders each (more for more joins), and a
    // budget of 1000 × the optimizer plan's work so no order runs away.
    let w = tpch(0.02, 7);
    let db = database_for(&w);
    let mut rfs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let modes = [Mode::Baseline, Mode::RobustPredicateTransfer];
    for qd in w.queries.iter().filter(|qd| qd.num_joins >= 2) {
        let q = db.bind_sql(&qd.sql).unwrap();
        let opt_work = db
            .execute(&q, &QueryOptions::new(Mode::Baseline))
            .unwrap()
            .work()
            .max(1);
        let orders =
            (((70.0 * qd.num_joins as f64 - 190.0).max(20.0) * 0.02) as usize).clamp(4, 1000);
        for (mode, acc) in modes.iter().zip(rfs.iter_mut()) {
            let rep =
                robustness_factor(&db, &q, *mode, orders, false, Some(opt_work * 1000), 7).unwrap();
            if !qd.cyclic && rep.rf_work().is_finite() {
                acc.push(rep.rf_work());
            }
        }
    }
    let [base_rfs, rpt_rfs] = rfs;
    assert!(!base_rfs.is_empty() && !rpt_rfs.is_empty());
    let avg = |rfs: &[f64]| rfs.iter().sum::<f64>() / rfs.len() as f64;
    let max = |rfs: &[f64]| rfs.iter().copied().fold(0.0, f64::max);
    let (base_avg, rpt_avg) = (avg(&base_rfs), avg(&rpt_rfs));
    assert!(
        rpt_avg < base_avg,
        "RPT avg RF {rpt_avg} should beat baseline {base_avg}"
    );
    let (base_max, rpt_max) = (max(&base_rfs), max(&rpt_rfs));
    assert!(
        rpt_max <= base_max,
        "RPT max RF {rpt_max} vs baseline {base_max}"
    );
}

#[test]
fn transfer_phase_fully_reduces_acyclic_query() {
    // On an α-acyclic query, exact (Yannakakis) reduction leaves only
    // output-contributing tuples: the join phase's per-join outputs are
    // monotonically non-decreasing toward |OUT| along the tree order, so no
    // join output can exceed the final join output size.
    let w = tpch(0.05, 33);
    let db = database_for(&w);
    let qd = w.query("q10").unwrap();
    let q = db.bind_sql(&qd.sql).unwrap();
    assert!(q.is_alpha_acyclic());
    let r = db
        .execute(&q, &QueryOptions::new(Mode::Yannakakis))
        .unwrap();
    // Work bounded: join outputs ≤ (#joins) × |final join size|.
    let out = r.metrics.output_rows.max(1);
    let joins = qd.num_joins as u64;
    assert!(
        r.metrics.join_output_rows <= joins * out,
        "Yannakakis join outputs {} exceed {} × |OUT| = {}",
        r.metrics.join_output_rows,
        joins,
        joins * out
    );
}

#[test]
fn bloom_reduction_is_superset_of_exact_reduction() {
    // RPT (Bloom) may keep false positives that exact Yannakakis removes,
    // never the opposite: RPT's join-phase input can only be ≥ exact's,
    // and both produce identical final results.
    let w = job(0.05, 34);
    let db = database_for(&w);
    for id in ["3a", "2a", "6a"] {
        let qd = w.query(id).unwrap();
        let q = db.bind_sql(&qd.sql).unwrap();
        let exact = db
            .execute(&q, &QueryOptions::new(Mode::Yannakakis))
            .unwrap();
        let bloom = db
            .execute(&q, &QueryOptions::new(Mode::RobustPredicateTransfer))
            .unwrap();
        assert_eq!(exact.sorted_rows(), bloom.sorted_rows(), "JOB {id}");
        assert!(
            bloom.metrics.join_probe_in * 10 >= exact.metrics.join_probe_in * 9,
            "JOB {id}: bloom join input {} suspiciously below exact {}",
            bloom.metrics.join_probe_in,
            exact.metrics.join_probe_in
        );
    }
}

#[test]
fn cyclic_queries_remain_unprotected() {
    // For a cyclic query, RPT still executes correctly but its RF may be
    // large — we only assert correctness + that the engine doesn't reject.
    let w = tpcds(0.05, 35);
    let db = database_for(&w);
    let qd = w.query("q19").unwrap();
    assert!(qd.cyclic);
    let q = db.bind_sql(&qd.sql).unwrap();
    assert!(!q.is_alpha_acyclic());
    let base = db.execute(&q, &QueryOptions::new(Mode::Baseline)).unwrap();
    let rpt = db
        .execute(&q, &QueryOptions::new(Mode::RobustPredicateTransfer))
        .unwrap();
    assert_eq!(base.sorted_rows(), rpt.sorted_rows());
}

#[test]
fn budget_marks_catastrophic_orders_as_timeouts() {
    let w = tpch(0.05, 36);
    let db = database_for(&w);
    let qd = w.query("q8").unwrap(); // 7 joins: enough room for bad orders
    let q = db.bind_sql(&qd.sql).unwrap();
    let opt_work = db
        .execute(&q, &QueryOptions::new(Mode::Baseline))
        .unwrap()
        .work();
    // A *tight* budget must trip for at least one random baseline order.
    let rep = robustness_factor(
        &db,
        &q,
        Mode::Baseline,
        10,
        false,
        Some(opt_work + opt_work / 2),
        17,
    )
    .unwrap();
    assert!(
        rep.timeouts > 0,
        "expected some random orders to exceed 1.5× the optimizer's work"
    );
    // RPT under the same budget should (almost always) fit.
    let rep = robustness_factor(
        &db,
        &q,
        Mode::RobustPredicateTransfer,
        10,
        false,
        Some(opt_work * 20),
        17,
    )
    .unwrap();
    assert_eq!(rep.timeouts, 0, "RPT tripped a generous budget");
}

#[test]
fn hybrid_wcoj_handles_cyclic_queries() {
    // The §5.1.3 extension: on cyclic queries the hybrid RPT+WCOJ executor
    // returns the same results as the baseline, with no join order to get
    // wrong at all.
    let w = tpcds(0.05, 37);
    let db = database_for(&w);
    for qd in w.queries.iter().filter(|q| q.cyclic) {
        let q = db.bind_sql(&qd.sql).unwrap();
        let base = db.execute(&q, &QueryOptions::new(Mode::Baseline)).unwrap();
        let hybrid = db.execute(&q, &QueryOptions::new(Mode::Hybrid)).unwrap();
        assert_eq!(
            base.sorted_rows(),
            hybrid.sorted_rows(),
            "{}: hybrid result mismatch",
            qd.id
        );
    }
}

#[test]
fn wcoj_beats_binary_joins_on_triangle_blowup() {
    // Triangle query over a "bowtie" instance: every binary join order
    // produces a quadratic intermediate, while WCOJ's intersection-driven
    // search stays near-linear. This is the AGM-bound separation the
    // paper's §6.3 discusses.
    use rpt_common::{DataType, Field, Schema, Vector};
    use rpt_storage::Table;
    let n: i64 = 300;
    // R(a,b) = {(i,0)} ∪ {(0,i)}; S(b,c), T(a,c) identical star shapes.
    let mut xs: Vec<i64> = (1..n).collect();
    xs.extend(std::iter::repeat_n(0, (n - 1) as usize));
    let mut ys: Vec<i64> = std::iter::repeat_n(0, (n - 1) as usize).collect();
    ys.extend(1..n);
    let star = |name: &str, c0: &str, c1: &str| {
        Table::new(
            name,
            Schema::new(vec![
                Field::new(c0, DataType::Int64),
                Field::new(c1, DataType::Int64),
            ]),
            vec![Vector::from_i64(xs.clone()), Vector::from_i64(ys.clone())],
        )
        .unwrap()
    };
    let mut db = Database::new();
    db.register_table(star("tr", "a", "b"));
    db.register_table(star("ts", "b", "c"));
    db.register_table(star("tt", "a", "c"));
    let sql = "SELECT COUNT(*) FROM tr, ts, tt \
               WHERE tr.a = tt.a AND tr.b = ts.b AND ts.c = tt.c";
    let q = db.bind_sql(sql).unwrap();
    assert!(!q.is_alpha_acyclic(), "triangle must be cyclic");
    let base = db.execute(&q, &QueryOptions::new(Mode::Baseline)).unwrap();
    let hybrid = db.execute(&q, &QueryOptions::new(Mode::Hybrid)).unwrap();
    assert_eq!(base.sorted_rows(), hybrid.sorted_rows());
    // Binary join blows up quadratically (star hub joins star hub); the
    // hybrid executor's work stays far below it.
    assert!(
        base.metrics.join_output_rows > (n as u64) * (n as u64) / 4,
        "baseline did not blow up: {}",
        base.metrics.join_output_rows
    );
    assert!(
        hybrid.work() < base.work() / 5,
        "hybrid {} not ≪ baseline {}",
        hybrid.work(),
        base.work()
    );
}

#[test]
fn safe_order_supervision_repairs_unsafe_orders() {
    // §3.2 supervision on TPC-DS q29 (α- but not γ-acyclic): an explicitly
    // unsafe left-deep order gets repaired to a safe one, and the repaired
    // plan produces the same result with fewer join-phase tuples than the
    // unsafe plan.
    let w = tpcds(0.05, 38);
    let db = database_for(&w);
    let qd = w.query("q29").unwrap();
    let q = db.bind_sql(&qd.sql).unwrap();
    let graph = q.graph();
    // Find an unsafe left-deep order by scanning random ones.
    let mut unsafe_order = None;
    for seed in 0..200 {
        let o = rpt_core::random_left_deep(&graph, seed);
        if !rpt_graph::safe_join_order(&graph, &o) {
            unsafe_order = Some(o);
            break;
        }
    }
    let unsafe_order = unsafe_order.expect("q29 must admit an unsafe order");
    // Without supervision the unsafe order runs as-is.
    let raw = db
        .execute(
            &q,
            &QueryOptions::new(Mode::RobustPredicateTransfer)
                .with_order(rpt_core::JoinOrder::LeftDeep(unsafe_order.clone())),
        )
        .unwrap();
    assert_eq!(raw.join_order.relations(), unsafe_order);
    // With supervision the order is replaced by a safe one.
    let supervised_opts = QueryOptions::new(Mode::RobustPredicateTransfer)
        .with_order(rpt_core::JoinOrder::LeftDeep(unsafe_order.clone()))
        .with_safe_orders();
    let supervised = db.execute(&q, &supervised_opts).unwrap();
    let executed = supervised.join_order.relations();
    assert_ne!(
        executed, unsafe_order,
        "supervision did not repair the order"
    );
    assert!(rpt_graph::safe_join_order(&graph, &executed));
    assert_eq!(raw.sorted_rows(), supervised.sorted_rows());
}

#[test]
fn supervision_is_noop_for_gamma_acyclic_queries() {
    let w = tpch(0.02, 39);
    let db = database_for(&w);
    let qd = w.query("q3").unwrap();
    let q = db.bind_sql(&qd.sql).unwrap();
    assert!(q.is_gamma_acyclic());
    let order = rpt_core::JoinOrder::LeftDeep(vec![2, 1, 0]);
    let opts = QueryOptions::new(Mode::RobustPredicateTransfer)
        .with_order(order.clone())
        .with_safe_orders();
    let r = db.execute(&q, &opts).unwrap();
    // γ-acyclic: every connected order is safe, nothing to repair.
    assert_eq!(r.join_order, order);
}
