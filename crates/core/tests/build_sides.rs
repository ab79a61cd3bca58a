//! The optimizer's build sides: under Baseline and BloomJoin every join of
//! the optimizer's left-deep order builds on its smaller input by estimate
//! (ties keep right = build), explicit orders and transfer-mode plans run
//! as given, the reported join order is the plan that ran, and a BloomJoin
//! filter is sized from its build subtree's estimate.

use rpt_common::{DataType, Field, Schema, Vector};
use rpt_core::estimator::Estimator;
use rpt_core::optimizer::optimize_left_deep;
use rpt_core::{Database, JoinOrder, Mode, PlanNode, Planner, QueryOptions};
use rpt_exec::{FilterShape, SinkSpec};
use rpt_storage::Table;

fn table(name: &str, columns: Vec<(&str, Vec<i64>)>) -> Table {
    let fields = columns
        .iter()
        .map(|(c, _)| Field::new(*c, DataType::Int64))
        .collect();
    let vectors = columns
        .into_iter()
        .map(|(_, v)| Vector::from_i64(v))
        .collect();
    Table::new(name, Schema::new(fields), vectors).unwrap()
}

/// Spacing of the key values: every key column spans more than the 65 536
/// values of the dense-range floor (`rpt_common::dense::DENSE_MIN_SLOTS`),
/// and these small filters' Bloom budgets are smaller still, so no
/// transfer filter here becomes a key bitmap.
const STRIDE: i64 = 64;

/// A chain `a — b — c` where a filter leaves `a` ~20 rows, each `a` row has
/// two `b` rows and each `b` row two `c` rows; `d` has as many rows as `c`.
fn db() -> Database {
    let keys = |n: i64, modulo: i64| (0..n).map(|i| i % modulo * STRIDE).collect();
    let mut db = Database::new();
    db.register_table(table(
        "a",
        vec![
            ("id", keys(2000, 2000)),
            ("v", (0..2000).map(|i| i % 100).collect()),
        ],
    ));
    db.register_table(table(
        "b",
        vec![("id", keys(4000, 4000)), ("a_id", keys(4000, 2000))],
    ));
    for name in ["c", "d"] {
        db.register_table(table(
            name,
            vec![("id", keys(8000, 8000)), ("b_id", keys(8000, 4000))],
        ));
    }
    db
}

const CHAIN: &str = "SELECT a.id, b.id, c.id FROM a, b, c \
                     WHERE a.id = b.a_id AND b.id = c.b_id AND a.v = 7";

/// Build-side mode under test, the optimizer choosing the order.
fn opts(mode: Mode) -> QueryOptions {
    QueryOptions::new(mode).with_partition_count(1)
}

/// The optimizer's left-deep order, as every mode chose it before build
/// sides came from estimates.
fn dp_order(db: &Database, sql: &str) -> Vec<usize> {
    let q = db.bind_sql(sql).unwrap();
    optimize_left_deep(&q, &Estimator::new(&q)).unwrap()
}

#[test]
fn build_side_intermediate_smaller_than_next_relation_builds_left() {
    let db = db();
    let q = db.bind_sql(CHAIN).unwrap();
    let seq = dp_order(&db, CHAIN);
    let order = db.choose_order(&q, &opts(Mode::Baseline)).unwrap();
    let JoinOrder::Bushy(plan) = &order else {
        panic!("no side flipped: {order:?}");
    };
    assert_eq!(plan.relations(), seq, "the order itself is the DP's");
    assert!(plan.is_left_deep(), "the tree keeps its shape");
    // The top join: the estimated ~40-row intermediate against all of `c`.
    let PlanNode::Join { build_left, .. } = plan else {
        panic!("not a join: {plan:?}");
    };
    assert!(*build_left);

    let flipped = db.execute(&q, &opts(Mode::Baseline)).unwrap();
    let unflipped = db
        .execute(
            &q,
            &opts(Mode::Baseline).with_order(JoinOrder::LeftDeep(seq.clone())),
        )
        .unwrap();
    assert_eq!(flipped.rows.len(), 80);
    assert_eq!(flipped.sorted_rows(), unflipped.sorted_rows());
    // Same work (each join touches both inputs once), far fewer rows built.
    assert_eq!(flipped.work(), unflipped.work());
    assert!(
        flipped.metrics.hash_build_rows * 10 < unflipped.metrics.hash_build_rows,
        "flipped built {} rows, unflipped {}",
        flipped.metrics.hash_build_rows,
        unflipped.metrics.hash_build_rows
    );
}

#[test]
fn build_side_ties_keep_right() {
    let db = db();
    let sql = "SELECT COUNT(*) FROM c, d WHERE c.b_id = d.b_id";
    let q = db.bind_sql(sql).unwrap();
    let order = db.choose_order(&q, &opts(Mode::Baseline)).unwrap();
    assert_eq!(order, JoinOrder::LeftDeep(dp_order(&db, sql)));
    let r = db.execute(&q, &opts(Mode::Baseline)).unwrap();
    assert_eq!(r.scalar_i64(), Some(16_000));
    assert_eq!(r.join_order, order);
}

#[test]
fn build_side_explicit_and_transfer_plans_run_as_given() {
    let db = db();
    let q = db.bind_sql(CHAIN).unwrap();
    let seq = dp_order(&db, CHAIN);
    let explicit = JoinOrder::LeftDeep(seq.clone());
    for mode in [Mode::Baseline, Mode::BloomJoin] {
        let o = opts(mode).with_order(explicit.clone());
        assert_eq!(db.choose_order(&q, &o).unwrap(), explicit, "{mode:?}");
        assert_eq!(db.execute(&q, &o).unwrap().join_order, explicit, "{mode:?}");
    }
    let flip = PlanNode::left_deep(&seq).flip_top_build_side();
    let o = opts(Mode::Baseline).with_order(JoinOrder::Bushy(flip.clone()));
    assert_eq!(db.choose_order(&q, &o).unwrap(), JoinOrder::Bushy(flip));
    for mode in [
        Mode::PredicateTransfer,
        Mode::RobustPredicateTransfer,
        Mode::Yannakakis,
    ] {
        let r = db.execute(&q, &opts(mode)).unwrap();
        assert_eq!(r.join_order, explicit, "{mode:?}");
        assert_eq!(r.rows.len(), 80, "{mode:?}");
    }
}

#[test]
fn build_side_join_order_reports_the_plan_that_ran() {
    let db = db();
    let q = db.bind_sql(CHAIN).unwrap();
    for mode in [Mode::Baseline, Mode::BloomJoin] {
        let r = db.execute(&q, &opts(mode)).unwrap();
        assert!(matches!(r.join_order, JoinOrder::Bushy(_)), "{mode:?}");
        let again = db
            .execute(&q, &opts(mode).with_order(r.join_order.clone()))
            .unwrap();
        assert_eq!(again.join_order, r.join_order, "{mode:?}");
        assert_eq!(again.metrics.hash_build_rows, r.metrics.hash_build_rows);
        assert_eq!(
            again.metrics.intermediate_tuples,
            r.metrics.intermediate_tuples
        );
        assert_eq!(again.sorted_rows(), r.sorted_rows(), "{mode:?}");
    }
}

/// A flipped BloomJoin plan sizes each SIP filter from its build subtree's
/// estimate — the number the side was chosen by — not from the largest
/// base table under it.
#[test]
fn build_side_bloom_join_filter_sized_from_build_estimate() {
    let db = db();
    let q = db.bind_sql(CHAIN).unwrap();
    let o = opts(Mode::BloomJoin);
    let plan = db.choose_order(&q, &o).unwrap().plan();
    let PlanNode::Join {
        left, build_left, ..
    } = &plan
    else {
        panic!("not a join: {plan:?}");
    };
    assert!(*build_left);
    let want = Estimator::new(&q).join_card(&left.relations()).ceil() as usize;
    assert!(want < 100, "the intermediate is estimated at {want} rows");

    let compiled = Planner::new(&q, &o).compile(&plan).unwrap();
    // Every filter here is a Bloom filter: every key range is wider than
    // the dense-range size rule admits (`STRIDE`).
    let sized: Vec<usize> = compiled
        .pipelines
        .iter()
        .filter_map(|p| match &p.sink {
            SinkSpec::HashBuild { blooms, .. } => blooms.first().map(|b| match b.shape {
                FilterShape::Bloom { expected_keys, .. } => expected_keys,
                FilterShape::Bitmap { .. } => panic!("a key bitmap: {:?}", b.shape),
            }),
            _ => None,
        })
        .collect();
    // The build subtree's own joins are planned first, the top join last.
    assert_eq!(sized.last(), Some(&want), "filters sized {sized:?}");
    assert!(sized.iter().all(|&n| n < 2000), "filters sized {sized:?}");

    let bloom = db.execute(&q, &o).unwrap();
    let base = db.execute(&q, &opts(Mode::Baseline)).unwrap();
    assert_eq!(bloom.sorted_rows(), base.sorted_rows());
}

/// Fig. 10: flipping the top join's build side of JOB 17e's bushy optimizer
/// plan changes how many rows the hash joins build (sf 0.05 / seed 42:
/// 678 → 461 under Baseline, 39 → 33 under RPT), with the same result.
#[test]
fn build_side_flip_on_job_17e_changes_hash_build_rows() {
    let w = rpt_workloads::job(0.05, 42);
    let mut db = Database::new();
    for t in &w.tables {
        db.register_table(t.clone());
    }
    let q = db.bind_sql(&w.query("17e").unwrap().sql).unwrap();
    let bushy = opts(Mode::RobustPredicateTransfer).with_bushy_optimizer();
    let plan = db.choose_order(&q, &bushy).unwrap().plan();
    for mode in [Mode::Baseline, Mode::RobustPredicateTransfer] {
        let run = |plan: PlanNode| {
            db.execute(&q, &opts(mode).with_order(JoinOrder::Bushy(plan)))
                .unwrap()
        };
        let as_planned = run(plan.clone());
        let flipped = run(plan.clone().flip_top_build_side());
        assert_eq!(as_planned.sorted_rows(), flipped.sorted_rows(), "{mode:?}");
        assert_ne!(
            as_planned.metrics.hash_build_rows, flipped.metrics.hash_build_rows,
            "{mode:?}"
        );
    }
}
