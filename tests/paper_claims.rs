//! The paper's deterministic figures as counter assertions.
//!
//! Every check reads only `QueryResult::metrics` and `work()` (tuples
//! through stateful operators), never wall-clock time, so each one holds
//! or fails the same way on every machine. The timed figures (Tables 1–3,
//! Figs. 6–7, 9, 14–20) are `benchmark/` metrics instead.
//!
//! | test | paper |
//! |---|---|
//! | `adversarial_quadratic_vs_rpt` | Fig. 12, the N²/2 instance |
//! | `fig8_shows_pt_fragility` | Fig. 8, PT vs RPT on Small2Large-fragile queries |
//! | `fig11_rpt_narrows_gap` | Fig. 11, JOB 2a's Σ intermediates |
//! | `fig13_random_largest_root_trees` | Fig. 13, random LargestRoot trees |
//! | `backward_pass_pruning_only_saves_work` | §4.3 backward-pass skip |
//! | `pruning_reduces_or_equal_work` | §4.3 trivial semi-join pruning |
//! | `bloom_fpr_sweep_keeps_rows_and_orders_survivors` | filter false positives |
//! | `key_bitmap_edges_make_rpt_join_like_yannakakis` | §3, RPT with exact semi-joins is Yannakakis |
//! | `rpt_tolerates_ce_noise_better` | §1–2, estimation error |
//! | `rpt_speeds_up_tpch` | Table 3's direction, on work |
//! | `hybrid_stays_below_worst_baseline_order_on_cyclic_queries` | §5.1.3, RPT+WCOJ |
//!
//! Where a figure runs one query under several plans, every run's rows
//! are checked against the row-at-a-time oracle (`tests/oracle/`), not
//! against each other: two plans sum floats in different orders, so
//! their float cells may differ in the last bits.

mod oracle;

use rpt_core::{random_left_deep, Database, JoinOrder, JoinQuery, Mode, QueryOptions, QueryResult};
use rpt_workloads::{adversarial, dsb, job, tpcds, tpch, Workload};

fn database_for(w: &Workload) -> Database {
    let mut db = Database::new();
    for t in &w.tables {
        db.register_table(t.clone());
    }
    db
}

/// Run `q` under `mode` with the `n` random left-deep orders seeded
/// `seed, seed + 1, ...`.
fn random_order_runs(
    db: &Database,
    q: &JoinQuery,
    mode: Mode,
    n: u64,
    seed: u64,
    prune_backward: bool,
) -> Vec<QueryResult> {
    let graph = q.graph();
    (0..n)
        .map(|i| {
            let order = JoinOrder::LeftDeep(random_left_deep(&graph, seed.wrapping_add(i)));
            let mut opts = QueryOptions::new(mode).with_order(order);
            opts.prune_backward = prune_backward;
            db.execute(q, &opts).unwrap()
        })
        .collect()
}

fn geomean(values: &[f64]) -> f64 {
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Fig. 12: the 3-way output is empty, yet both baseline orders process
/// ≈ N²/2 join outputs while RPT's transfer phase empties the inputs.
#[test]
fn adversarial_quadratic_vs_rpt() {
    let n = 200;
    let w = adversarial(n);
    let db = database_for(&w);
    let sql = &w.queries[0].sql;
    let run = |mode: Mode, order: Vec<usize>| {
        db.query(
            sql,
            &QueryOptions::new(mode).with_order(JoinOrder::LeftDeep(order)),
        )
        .unwrap()
    };
    // (R ⋈ S) ⋈ T and (S ⋈ T) ⋈ R.
    let rs_first = run(Mode::Baseline, vec![0, 1, 2]).metrics.join_output_rows;
    let st_first = run(Mode::Baseline, vec![1, 2, 0]).metrics.join_output_rows;
    let rpt = run(Mode::RobustPredicateTransfer, vec![0, 1, 2]);
    let quad = (n * n / 2) as u64;
    // `output_rows` counts rows into the final aggregate, i.e. |OUT| of
    // the join.
    assert_eq!(rpt.metrics.output_rows, 0);
    assert!(rs_first >= quad * 9 / 10, "{rs_first}");
    assert!(st_first >= quad * 9 / 10, "{st_first}");
    // Bloom false positives allow a tiny residue, no more.
    assert!(
        rpt.metrics.join_output_rows < n as u64,
        "RPT join outputs {} not ~0",
        rpt.metrics.join_output_rows
    );
    assert!(rpt.work() < quad / 10, "rpt work {} vs {quad}", rpt.work());
}

/// Fig. 8: on at least one of the queries whose Small2Large schedule
/// under-reduces, PT's worst random order does far more work than RPT's.
#[test]
fn fig8_shows_pt_fragility() {
    let (sf, seed) = (0.02, 7);
    let job = job(sf, seed);
    let ds = tpcds(sf, seed);
    let mut maxima = Vec::new();
    for (w, id) in [(&job, "32a"), (&job, "32b"), (&ds, "q54"), (&ds, "q83")] {
        let db = database_for(w);
        let q = db.bind_sql(&w.query(id).unwrap().sql).unwrap();
        let worst = |mode| {
            random_order_runs(&db, &q, mode, 8, seed, true)
                .iter()
                .map(QueryResult::work)
                .max()
                .unwrap()
        };
        let pt = worst(Mode::PredicateTransfer);
        let rpt = worst(Mode::RobustPredicateTransfer);
        maxima.push((id, pt, rpt));
    }
    assert!(
        maxima
            .iter()
            .any(|&(_, pt, rpt)| pt as f64 > rpt as f64 * 1.5),
        "PT never looked fragile (query, PT max work, RPT max work): {maxima:?}"
    );
}

/// Fig. 11: over random left-deep orders of JOB 2a, RPT's worst/best ratio
/// of Σ intermediate results is no larger than the baseline's.
#[test]
fn fig11_rpt_narrows_gap() {
    // Enough data that intermediate counts are not single-digit noise.
    let w = job(0.1, 7);
    let db = database_for(&w);
    let q = db.bind_sql(&w.query("2a").unwrap().sql).unwrap();
    let spread = |mode| {
        // The paper's accounting treats the reduced tables as a fixed part
        // of Σ intermediates for every order, so the backward-pass skip
        // stays off: all orders share one transfer-phase materialization.
        let inter: Vec<u64> = random_order_runs(&db, &q, mode, 10, 7, false)
            .iter()
            .map(|r| r.metrics.intermediate_tuples)
            .collect();
        *inter.iter().max().unwrap() as f64 / (*inter.iter().min().unwrap()).max(1) as f64
    };
    let base_ratio = spread(Mode::Baseline);
    let rpt_ratio = spread(Mode::RobustPredicateTransfer);
    assert!(
        rpt_ratio <= base_ratio,
        "RPT ratio {rpt_ratio} vs baseline {base_ratio}"
    );
}

/// Fig. 13: a random LargestRoot tree (largest relation stays root) over
/// the optimizer's order returns the oracle's rows and stays within 3× the
/// work of the unmodified tree, on every acyclic TPC-H and JOB query with
/// at least two joins. At sf 0.05 / seed 42 the worst of 50 trees is TPC-H
/// q9 at 2.19×.
#[test]
fn fig13_random_largest_root_trees() {
    let seed = 42;
    for w in [tpch(0.05, seed), job(0.05, seed)] {
        let db = database_for(&w);
        for qd in w.acyclic_queries() {
            if qd.num_joins < 2 {
                continue;
            }
            let q = db.bind_sql(&qd.sql).unwrap();
            let rpt = QueryOptions::new(Mode::RobustPredicateTransfer);
            let order = db.choose_order(&q, &rpt).unwrap();
            let rpt = rpt.with_order(order);
            let want = oracle::answer(&db, &w.tables, &qd.sql);
            let base = db.execute(&q, &rpt).unwrap();
            want.check(&base.rows, &format!("{} {}", w.name, qd.id));
            for tree in 0..10 {
                let opts = rpt.clone().with_random_tree(seed + tree);
                let r = db.execute(&q, &opts).unwrap();
                let id = format!("{} {} tree {tree}", w.name, qd.id);
                want.check(&r.rows, &id);
                assert!(
                    r.work() < 3 * base.work(),
                    "{id}: work {} vs unmodified {}",
                    r.work(),
                    base.work()
                );
            }
        }
    }
}

/// §4.3: on the aligned LargestRoot order, skipping the backward pass never
/// adds work (off/on is 1.00–1.32 over the TPC-H queries at sf 0.05 /
/// seed 42), and both runs return the oracle's rows.
#[test]
fn backward_pass_pruning_only_saves_work() {
    let w = tpch(0.05, 42);
    let db = database_for(&w);
    for qd in w.acyclic_queries() {
        if qd.num_joins < 2 {
            continue;
        }
        let q = db.bind_sql(&qd.sql).unwrap();
        let tree = rpt_graph::largest_root(&q.graph()).unwrap();
        let aligned = QueryOptions::new(Mode::RobustPredicateTransfer)
            .with_order(JoinOrder::LeftDeep(tree.insertion_order));
        let on = db.execute(&q, &aligned).unwrap();
        let mut off = aligned.clone();
        off.prune_backward = false;
        let off = db.execute(&q, &off).unwrap();
        let want = oracle::answer(&db, &w.tables, &qd.sql);
        want.check(&on.rows, &format!("{} backward pass skipped", qd.id));
        want.check(&off.rows, &format!("{} backward pass run", qd.id));
        assert!(
            on.work() <= off.work(),
            "{}: backward pass skipped {} vs run {}",
            qd.id,
            on.work(),
            off.work()
        );
    }
}

/// §4.3: skipping trivial PK-side semi-joins must never add more than 10%
/// work.
#[test]
fn pruning_reduces_or_equal_work() {
    let w = tpch(0.02, 7);
    let db = database_for(&w);
    for qd in w.acyclic_queries() {
        if qd.num_joins < 2 {
            continue;
        }
        let q = db.bind_sql(&qd.sql).unwrap();
        let on = QueryOptions::new(Mode::RobustPredicateTransfer);
        let mut off = on.clone();
        off.prune_trivial = false;
        let on = db.execute(&q, &on).unwrap().work();
        let off = db.execute(&q, &off).unwrap().work();
        assert!(on <= off * 11 / 10, "{}: pruning on {on} off {off}", qd.id);
    }
}

/// Bloom filter FPR sweep: false positives change which rows survive the
/// transfer phase, never the result (every run returns the oracle's
/// rows). On DSB q24, which keeps a composite-key Bloom edge, more rows
/// survive the looser the filter; on JOB 3a, whose every edge carries an
/// exact key bitmap, the survivors do not move with the FPR.
#[test]
fn bloom_fpr_sweep_keeps_rows_and_orders_survivors() {
    let sweep = |w: &Workload, id: &str| -> Vec<(f64, u64)> {
        let db = database_for(w);
        let q = db.bind_sql(&w.query(id).unwrap().sql).unwrap();
        let runs: Vec<(f64, QueryResult)> = [0.001, 0.01, 0.02, 0.1, 0.3, 0.49]
            .into_iter()
            .map(|fpr| {
                let mut opts = QueryOptions::new(Mode::RobustPredicateTransfer);
                opts.bloom_fpr = fpr;
                (fpr, db.execute(&q, &opts).unwrap())
            })
            .collect();
        let want = oracle::answer(&db, &w.tables, &w.query(id).unwrap().sql);
        for (fpr, r) in &runs {
            want.check(&r.rows, &format!("{id} at fpr {fpr}"));
        }
        runs.iter()
            .map(|(fpr, r)| (*fpr, r.metrics.bloom_probe_out))
            .collect()
    };
    let survivors = sweep(&dsb(0.05, 42), "q24");
    assert!(
        survivors.windows(2).all(|p| p[0].1 <= p[1].1),
        "q24 survivors fell as the FPR rose: {survivors:?}"
    );
    // The sweep moves the counter at all: the FPR reaches the filters.
    assert!(
        survivors[0].1 < survivors[survivors.len() - 1].1,
        "{survivors:?}"
    );
    let exact = sweep(&job(0.05, 42), "3a");
    assert!(
        exact.iter().all(|s| s.1 == exact[0].1),
        "3a survivors moved with the FPR: {exact:?}"
    );
}

/// §3: RPT is Yannakakis with Bloom filters in place of exact semi-joins,
/// so where every transfer edge gets an exact key bitmap the join phase
/// sees what Yannakakis's does. On every acyclic JOB, TPC-H, TPC-DS and
/// DSB query with at least two joins, under one fixed random left-deep
/// order, the join output and probe input counts of RPT equal
/// Yannakakis's. (TPC-H q9 and TPC-DS/DSB q29 keep a composite-key Bloom
/// edge; at this scale its false positives move neither count.)
#[test]
fn key_bitmap_edges_make_rpt_join_like_yannakakis() {
    for w in [
        job(0.05, 42),
        tpch(0.05, 42),
        tpcds(0.05, 42),
        dsb(0.05, 42),
    ] {
        let db = database_for(&w);
        for qd in w
            .acyclic_queries()
            .into_iter()
            .filter(|qd| qd.num_joins >= 2)
        {
            let q = db.bind_sql(&qd.sql).unwrap();
            let order = JoinOrder::LeftDeep(random_left_deep(&q.graph(), 42));
            let joins = |mode| {
                let opts = QueryOptions::new(mode).with_order(order.clone());
                let m = db.execute(&q, &opts).unwrap().metrics;
                (m.join_output_rows, m.join_probe_in)
            };
            assert_eq!(
                joins(Mode::RobustPredicateTransfer),
                joins(Mode::Yannakakis),
                "{} {}: (join_output_rows, join_probe_in)",
                w.name,
                qd.id
            );
        }
    }
}

/// Corrupting the optimizer's estimates with `exp(σ·z)` noise degrades the
/// baseline's plans more than RPT's (the paper's thesis about estimation
/// error), and σ = 0 changes nothing.
#[test]
fn rpt_tolerates_ce_noise_better() {
    let seed = 7;
    let w = tpch(0.05, seed);
    let db = database_for(&w);
    // Geomean over queries of (mean work over 3 noise seeds / clean work).
    let degradation = |mode, sigma| {
        let ratios: Vec<f64> = w
            .acyclic_queries()
            .into_iter()
            .filter(|qd| qd.num_joins >= 2)
            .map(|qd| {
                let q = db.bind_sql(&qd.sql).unwrap();
                let clean = db.execute(&q, &QueryOptions::new(mode)).unwrap().work();
                let noisy: u64 = (0..3)
                    .map(|s| {
                        let mut opts = QueryOptions::new(mode);
                        opts.ce_noise = Some((seed + s, sigma));
                        db.execute(&q, &opts).unwrap().work()
                    })
                    .sum();
                noisy as f64 / 3.0 / clean.max(1) as f64
            })
            .collect();
        geomean(&ratios)
    };
    for mode in [Mode::Baseline, Mode::RobustPredicateTransfer] {
        let d = degradation(mode, 0.0);
        assert!((d - 1.0).abs() < 1e-9, "{mode:?} at σ=0: {d}");
    }
    let base = degradation(Mode::Baseline, 4.0);
    let rpt = degradation(Mode::RobustPredicateTransfer, 4.0);
    assert!(
        base > rpt,
        "σ=4: baseline degradation {base} should exceed RPT {rpt}"
    );
}

/// Table 3's direction on the cost-weighted work metric: RPT does less
/// work than the baseline over TPC-H with the optimizer's plans.
#[test]
fn rpt_speeds_up_tpch() {
    let w = tpch(0.1, 7);
    let db = database_for(&w);
    let ratios: Vec<f64> = w
        .queries
        .iter()
        .map(|qd| {
            let q = db.bind_sql(&qd.sql).unwrap();
            let work = |mode| {
                db.execute(&q, &QueryOptions::new(mode))
                    .unwrap()
                    .metrics
                    .weighted_work()
            };
            work(Mode::Baseline) / work(Mode::RobustPredicateTransfer).max(1.0)
        })
        .collect();
    let s = geomean(&ratios);
    assert!(s > 1.0, "RPT work speedup {s} <= 1");
}

/// §5.1.3 extension: on every cyclic TPC-DS query the hybrid RPT+WCOJ
/// executor, which has no join order to get wrong, does no more work than
/// the worst of 8 random left-deep baseline orders (2 836–4 795 vs
/// 8 793–15 647 at sf 0.05 / seed 42).
#[test]
fn hybrid_stays_below_worst_baseline_order_on_cyclic_queries() {
    let seed = 42;
    let w = tpcds(0.05, seed);
    let db = database_for(&w);
    for qd in w.queries.iter().filter(|q| q.cyclic) {
        let q = db.bind_sql(&qd.sql).unwrap();
        let hybrid = db.execute(&q, &QueryOptions::new(Mode::Hybrid)).unwrap();
        let worst = random_order_runs(&db, &q, Mode::Baseline, 8, seed, true)
            .iter()
            .map(QueryResult::work)
            .max()
            .unwrap();
        assert!(
            hybrid.work() <= worst,
            "{}: hybrid {} vs worst baseline order {worst}",
            qd.id,
            hybrid.work()
        );
    }
}
