//! Cross-mode correctness on hand-built schemas: chains, stars, composite
//! keys, self-joins, empty results, NULL join keys — all five execution
//! modes must agree with the baseline under arbitrary join orders.
//!
//! Also includes a property test: random join queries over random data,
//! executed under every mode and several random orders, always produce the
//! baseline's result (the engine-level statement of "join ordering does not
//! affect correctness, only cost").

mod oracle;

use oracle::Fixture;
use proptest::prelude::*;
use rpt_common::{DataType, Field, ScalarValue, Schema, Vector};
use rpt_core::{random_left_deep, Database, JoinOrder, Mode, QueryOptions};
use rpt_storage::Table;

fn table(name: &str, cols: Vec<(&str, Vector)>) -> Table {
    let schema = Schema::new(
        cols.iter()
            .map(|(n, v)| Field::new(*n, v.data_type()))
            .collect(),
    );
    Table::new(name, schema, cols.into_iter().map(|(_, v)| v).collect()).expect("valid table")
}

fn run_all_modes(db: &Database, sql: &str) -> Vec<(Mode, Vec<Vec<ScalarValue>>)> {
    Mode::ALL
        .iter()
        .map(|&m| {
            let r = db
                .query(sql, &QueryOptions::new(m))
                .unwrap_or_else(|e| panic!("{m:?} failed: {e}"));
            (m, r.sorted_rows())
        })
        .collect()
}

fn assert_modes_agree(db: &Database, sql: &str) {
    let results = run_all_modes(db, sql);
    let (m0, base) = &results[0];
    for (m, rows) in &results[1..] {
        assert_eq!(rows, base, "{m:?} differs from {m0:?} on {sql}");
    }
}

const CHAIN_SQL: &str = "SELECT COUNT(*) FROM a, b, c \
                         WHERE a.k = b.k AND b.j = c.j AND a.v = 2 AND c.tag = 't1'";

fn chain() -> Fixture {
    Fixture::new(vec![
        table(
            "a",
            vec![
                ("k", Vector::from_i64((0..50).collect())),
                ("v", Vector::from_i64((0..50).map(|i| i % 5).collect())),
            ],
        ),
        table(
            "b",
            vec![
                ("k", Vector::from_i64((0..200).map(|i| i % 50).collect())),
                ("j", Vector::from_i64((0..200).map(|i| i % 20).collect())),
            ],
        ),
        table(
            "c",
            vec![
                ("j", Vector::from_i64((0..20).collect())),
                (
                    "tag",
                    Vector::from_utf8((0..20).map(|i| format!("t{}", i % 3)).collect()),
                ),
            ],
        ),
    ])
}

fn chain_db() -> Database {
    chain().db
}

#[test]
fn chain_join_with_filters() {
    assert_modes_agree(&chain_db(), CHAIN_SQL);
}

const COMPOSITE_SQL: &str = "SELECT COUNT(*), SUM(l.pay) FROM left_t l, right_t r \
                             WHERE l.x = r.x AND l.y = r.y";

fn composite_db() -> Database {
    let mut db = Database::new();
    db.register_table(table(
        "left_t",
        vec![
            ("x", Vector::from_i64((0..100).map(|i| i % 10).collect())),
            ("y", Vector::from_i64((0..100).map(|i| i % 7).collect())),
            ("pay", Vector::from_i64((0..100).collect())),
        ],
    ));
    db.register_table(table(
        "right_t",
        vec![
            ("x", Vector::from_i64((0..70).map(|i| i % 10).collect())),
            ("y", Vector::from_i64((0..70).map(|i| i % 7).collect())),
        ],
    ));
    db
}

#[test]
fn composite_key_join() {
    assert_modes_agree(&composite_db(), COMPOSITE_SQL);
}

// 2-hop paths: edges e1 joined to edges e2 on e1.dst = e2.src.
const SELF_JOIN_SQL: &str =
    "SELECT COUNT(*) FROM edges e1, edges e2 WHERE e1.dst = e2.src AND e1.src = 0";

fn edges_db() -> Database {
    let mut db = Database::new();
    db.register_table(table(
        "edges",
        vec![
            ("src", Vector::from_i64((0..100).map(|i| i % 10).collect())),
            (
                "dst",
                Vector::from_i64((0..100).map(|i| (i + 3) % 10).collect()),
            ),
        ],
    ));
    db
}

#[test]
fn self_join_via_aliases() {
    assert_modes_agree(&edges_db(), SELF_JOIN_SQL);
}

const EMPTY_SQL: &str = "SELECT COUNT(*) FROM t1, t2 WHERE t1.k = t2.k";

fn empty_db() -> Database {
    let mut db = Database::new();
    db.register_table(table("t1", vec![("k", Vector::from_i64(vec![1, 2, 3]))]));
    db.register_table(table(
        "t2",
        vec![
            ("k", Vector::from_i64(vec![10, 20])),
            ("z", Vector::from_i64(vec![0, 0])),
        ],
    ));
    db
}

#[test]
fn empty_result_is_consistent() {
    let db = empty_db();
    // Keys never match: output empty, COUNT(*) = 0 everywhere.
    let results = run_all_modes(&db, EMPTY_SQL);
    for (m, rows) in results {
        assert_eq!(rows, vec![vec![ScalarValue::Int64(0)]], "{m:?}");
    }
}

const NULL_KEYS_SQL: &str = "SELECT COUNT(*) FROM n1, n2 WHERE n1.k = n2.k";

fn null_keys_db() -> Database {
    let mut k1 = Vector::new_empty(DataType::Int64);
    k1.push(&ScalarValue::Int64(1)).unwrap();
    k1.push(&ScalarValue::Null).unwrap();
    k1.push(&ScalarValue::Int64(2)).unwrap();
    let mut k2 = Vector::new_empty(DataType::Int64);
    k2.push(&ScalarValue::Null).unwrap();
    k2.push(&ScalarValue::Int64(1)).unwrap();
    let mut db = Database::new();
    db.register_table(table("n1", vec![("k", k1)]));
    db.register_table(table("n2", vec![("k", k2)]));
    db
}

#[test]
fn null_join_keys_never_match() {
    let db = null_keys_db();
    let results = run_all_modes(&db, NULL_KEYS_SQL);
    for (m, rows) in results {
        assert_eq!(rows, vec![vec![ScalarValue::Int64(1)]], "{m:?}");
    }
}

// §3.2's example: R(A,B,C) ⋈ S(A,B) ⋈ T(B,C); only join tree S–R–T.
const ALPHA_NOT_GAMMA_SQL: &str = "SELECT COUNT(*) FROM r3, s2, t2 \
     WHERE r3.a = s2.a AND r3.b = s2.b AND r3.b = t2.b AND r3.c = t2.c";

fn alpha_not_gamma_db() -> Database {
    let mut db = Database::new();
    let n = 40i64;
    db.register_table(table(
        "r3",
        vec![
            ("a", Vector::from_i64((0..n).collect())),
            ("b", Vector::from_i64(vec![1; n as usize])),
            ("c", Vector::from_i64((0..n).collect())),
        ],
    ));
    db.register_table(table(
        "s2",
        vec![
            ("a", Vector::from_i64((0..n).collect())),
            ("b", Vector::from_i64(vec![1; n as usize])),
        ],
    ));
    db.register_table(table(
        "t2",
        vec![
            ("b", Vector::from_i64(vec![1; n as usize])),
            ("c", Vector::from_i64((0..n).collect())),
        ],
    ));
    db
}

#[test]
fn alpha_not_gamma_acyclic_query_runs() {
    let db = alpha_not_gamma_db();
    let sql = ALPHA_NOT_GAMMA_SQL;
    let q = {
        let q = db.bind_sql(sql).unwrap();
        assert!(q.is_alpha_acyclic());
        assert!(!q.is_gamma_acyclic());
        q
    };
    // The unsafe order (S ⋈ T first) still yields correct results — safety
    // is about cost, not correctness.
    let graph = q.graph();
    assert!(!rpt_graph::safe_subjoin(&graph, &[1, 2]));
    assert_modes_agree(&db, sql);
    let bad_order = QueryOptions::new(Mode::RobustPredicateTransfer)
        .with_order(JoinOrder::LeftDeep(vec![1, 2, 0]));
    let good_order = QueryOptions::new(Mode::RobustPredicateTransfer)
        .with_order(JoinOrder::LeftDeep(vec![1, 0, 2]));
    let bad = db.execute(&q, &bad_order).unwrap();
    let good = db.execute(&q, &good_order).unwrap();
    assert_eq!(bad.sorted_rows(), good.sorted_rows());
    // And the unsafe order really does blow up (quadratic S⋈T).
    assert!(
        bad.metrics.join_output_rows > good.metrics.join_output_rows * 5,
        "unsafe {} vs safe {}",
        bad.metrics.join_output_rows,
        good.metrics.join_output_rows
    );
}

// ------------------------------------------------------------ property test

/// Random 3-table instances: every mode × several random orders must match
/// the baseline count.
fn prop_db(keys_a: &[i64], keys_b: &[i64], keys_c: &[i64]) -> Database {
    let mut db = Database::new();
    db.register_table(table("pa", vec![("k", Vector::from_i64(keys_a.to_vec()))]));
    db.register_table(table(
        "pb",
        vec![
            ("k", Vector::from_i64(keys_b.to_vec())),
            (
                "j",
                Vector::from_i64(keys_b.iter().map(|k| k % 5).collect()),
            ),
        ],
    ));
    db.register_table(table("pc", vec![("j", Vector::from_i64(keys_c.to_vec()))]));
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_instances_all_modes_agree(
        keys_a in proptest::collection::vec(0i64..12, 1..60),
        keys_b in proptest::collection::vec(0i64..12, 1..60),
        keys_c in proptest::collection::vec(0i64..5, 1..20),
        order_seed in 0u64..50,
    ) {
        let db = prop_db(&keys_a, &keys_b, &keys_c);
        let sql = "SELECT COUNT(*) FROM pa, pb, pc WHERE pa.k = pb.k AND pb.j = pc.j";
        let q = db.bind_sql(sql).unwrap();
        let base = db
            .execute(&q, &QueryOptions::new(Mode::Baseline))
            .unwrap()
            .sorted_rows();
        let graph = q.graph();
        let order = JoinOrder::LeftDeep(random_left_deep(&graph, order_seed));
        for mode in Mode::ALL {
            let r = db
                .execute(&q, &QueryOptions::new(mode).with_order(order.clone()))
                .unwrap();
            prop_assert_eq!(r.sorted_rows(), base.clone(), "mode {:?}", mode);
        }
    }
}

// ------------------------------------------------- scheduler parity test

/// GROUP BY over the chain schema: 20 groups, SUM + COUNT aggregates, and
/// a SELECT order that forces a reprojection pipeline *consuming* the
/// aggregate buffer (the partitioned aggregate sink's downstream case).
const GROUP_BY_SQL: &str = "SELECT COUNT(*) AS cnt, SUM(b.k) AS s, b.j \
                            FROM b, c WHERE b.j = c.j GROUP BY b.j";

/// Every (database, query) pair exercised in this file.
fn scheduler_parity_cases() -> Vec<(Database, String)> {
    vec![
        (chain_db(), CHAIN_SQL.to_string()),
        (composite_db(), COMPOSITE_SQL.to_string()),
        (edges_db(), SELF_JOIN_SQL.to_string()),
        (empty_db(), EMPTY_SQL.to_string()),
        (null_keys_db(), NULL_KEYS_SQL.to_string()),
        (alpha_not_gamma_db(), ALPHA_NOT_GAMMA_SQL.to_string()),
        (
            prop_db(&[1, 2, 2, 3, 9], &[2, 2, 3, 4, 5, 5], &[0, 1, 2]),
            "SELECT COUNT(*) FROM pa, pb, pc WHERE pa.k = pb.k AND pb.j = pc.j".to_string(),
        ),
        (chain_db(), GROUP_BY_SQL.to_string()),
    ]
}

/// Parity matrix: every query in this file, under every mode, must produce
/// identical sorted results at every `partition_count ∈ {1, 2, 8}` ×
/// `threads ∈ {1, 4}` point — the partitioned sinks and the morsel fan-out
/// may only change *how* results are materialized, never *what* they
/// contain.
#[test]
fn partition_parallelism_parity_matrix() {
    for (db, sql) in scheduler_parity_cases() {
        for mode in Mode::ALL {
            let mut baseline: Option<Vec<Vec<ScalarValue>>> = None;
            for partition_count in [1usize, 2, 8] {
                for threads in [1usize, 4] {
                    let r = db
                        .query(
                            &sql,
                            &QueryOptions::new(mode)
                                .with_partition_count(partition_count)
                                .with_threads(threads),
                        )
                        .unwrap_or_else(|e| {
                            panic!("{mode:?} pc={partition_count} t={threads} failed on {sql}: {e}")
                        });
                    let rows = r.sorted_rows();
                    match &baseline {
                        None => baseline = Some(rows),
                        Some(b) => assert_eq!(
                            &rows, b,
                            "{mode:?} pc={partition_count} t={threads} differs on {sql}"
                        ),
                    }
                }
            }
        }
    }
}

/// The acceptance check for partitioned sinks: with `partition_count > 1`
/// no sink merge runs on a single thread over the full result. Every sink
/// must report one merge task per partition, and for pipelines with enough
/// rows to spread, the largest merge task must stay strictly below the
/// pipeline's total. Two exemptions: the query has no GROUP BY, so its
/// aggregate keeps one group table and merges in one task; and a pipeline
/// whose rows all carry one partition key can only fill one partition.
#[test]
fn sink_merges_never_cover_the_full_result() {
    let db = chain_db();
    let partitions = 8u64;
    let r = db
        .query(
            CHAIN_SQL,
            &QueryOptions::new(Mode::RobustPredicateTransfer)
                .with_partition_count(partitions as usize)
                .with_threads(2),
        )
        .unwrap();
    // Scheduler-level stats: merges happened, and the per-pipeline records
    // account for every merge task the counter saw.
    let merge_tasks: u64 = r.sched.pipelines.iter().map(|p| p.merge_tasks).sum();
    assert!(merge_tasks >= partitions);
    assert_eq!(r.metrics.merge_tasks, merge_tasks);

    // Per-pipeline: every partitioned merge ran `partitions` tasks, and no
    // merge task covered a pipeline's full row count where the hash spread
    // is statistically certain: ≥ 8 rows into the sink. Every `b` row left
    // by `a.v = 2` (k ≡ 2 mod 5, so j ∈ {2, 7, 12, 17}) and `c.tag = 't1'`
    // (j ∈ {1, 4, 7, …}) has j = 7, but the reduced `b` is buffered once,
    // by the pipeline that also builds `b -> a` and so routes on `b.k`: no
    // pipeline partitions it on `b.j`, and no sink holds a single key.
    let mut checked = 0;
    let mut global_aggs = 0;
    let mut one_key = Vec::new();
    for p in &r.sched.pipelines {
        let (label, rows, max_task) = (&p.label, p.sink_rows, p.merge_max_task_rows);
        if label.starts_with("aggregate ") {
            assert_eq!(
                p.merge_tasks, 1,
                "{label}: a global aggregate merges in one task"
            );
            global_aggs += 1;
            continue;
        }
        assert_eq!(p.merge_tasks, partitions, "{label}");
        if rows >= 8 {
            if max_task < rows {
                checked += 1;
            } else {
                one_key.push(label.as_str());
            }
        }
    }
    assert!(
        one_key.is_empty(),
        "{one_key:?} hold one key: {:#?}",
        r.sched.pipelines
    );
    assert!(checked >= 2, "expected ≥2 spread-checked sink merges");
    assert_eq!(global_aggs, 1, "CHAIN_SQL has one GROUP-BY-less aggregate");

    // That one sink builds both of `b`'s backward filters and its label
    // names both edges, so no two pipelines share a label.
    let mut labels: Vec<&str> = r.sched.pipelines.iter().map(|p| p.label.as_str()).collect();
    assert!(
        labels.contains(&"bwd createbf b -> a, b -> c"),
        "{labels:?}"
    );
    labels.sort_unstable();
    let all = labels.len();
    labels.dedup();
    assert_eq!(labels.len(), all, "duplicate labels: {labels:?}");
}

/// Worker/partition parity: every query in this file, under every mode,
/// returns the rows of its serial run (`workers = 1`, `threads = 1`,
/// `partition_count = 1`) across the `partition_count × worker-count`
/// matrix. With the default `threads == 1` every pipeline is an ordered
/// chain, so equality is exact (floats included).
#[test]
fn worker_partition_matrix_agrees_with_serial_run() {
    for (db, sql) in scheduler_parity_cases() {
        for mode in Mode::ALL {
            let serial = db
                .query(
                    &sql,
                    &QueryOptions::new(mode)
                        .with_partition_count(1)
                        .with_workers(1),
                )
                .unwrap_or_else(|e| panic!("serial {mode:?} failed on {sql}: {e}"));
            for partition_count in [1usize, 2, 8] {
                for workers in [1usize, 2, 8] {
                    let r = db
                        .query(
                            &sql,
                            &QueryOptions::new(mode)
                                .with_partition_count(partition_count)
                                .with_workers(workers),
                        )
                        .unwrap_or_else(|e| {
                            panic!("{mode:?} pc={partition_count} w={workers} failed on {sql}: {e}")
                        });
                    assert_eq!(
                        r.sorted_rows(),
                        serial.sorted_rows(),
                        "{mode:?} pc={partition_count} w={workers} differs on {sql}"
                    );
                    // Deterministic work totals under any scheduling.
                    assert_eq!(
                        r.metrics.intermediate_tuples, serial.metrics.intermediate_tuples,
                        "{mode:?} pc={partition_count} w={workers} totals differ on {sql}"
                    );
                    // The scheduler reported its task accounting.
                    assert!(
                        !r.sched.pipelines.is_empty() && r.sched.tasks > 0,
                        "{mode:?} pc={partition_count} w={workers}: {:?}",
                        r.sched
                    );
                    assert_eq!(r.sched.tasks, r.metrics.sched_tasks);
                }
            }
        }
    }
}

/// GROUP BY matrix (the aggregate-sink acceptance check): a grouped
/// aggregation returns the oracle's groups at every
/// `partition_count {1,2,8} × workers {1,2,8}` point through the
/// fixed-width group tables (its key is one `Int64`), and with
/// `partition_count > 1` its merge runs as per-partition tasks, none of
/// which covers the full group set.
#[test]
fn groupby_partition_worker_matrix() {
    let chain = chain();
    let (db, expected) = (&chain.db, chain.answer(GROUP_BY_SQL));
    let groups = expected.rows().len() as u64;
    assert_eq!(groups, 20, "20 distinct b.j groups");
    for partition_count in [1usize, 2, 8] {
        for workers in [1usize, 2, 8] {
            let at = format!("pc={partition_count} w={workers}");
            let r = db
                .query(
                    GROUP_BY_SQL,
                    &QueryOptions::new(Mode::RobustPredicateTransfer)
                        .with_partition_count(partition_count)
                        .with_workers(workers),
                )
                .unwrap_or_else(|e| panic!("{at} failed: {e}"));
            expected.check(&r.rows, &at);
            let (fast, generic) = (r.metrics.agg_fast_path_chunks, r.metrics.agg_generic_chunks);
            assert!(
                fast > 0 && generic == 0,
                "{at}: expected fast path, fast={fast} generic={generic}"
            );
            if partition_count > 1 {
                // The GROUP BY merge ran one task per partition and no
                // task saw all 20 groups.
                let agg = r
                    .sched
                    .pipelines
                    .iter()
                    .find(|p| p.label.starts_with("aggregate"))
                    .unwrap_or_else(|| panic!("{at}: no aggregate pipeline in {:?}", r.sched));
                assert_eq!(agg.merge_tasks, partition_count as u64);
                let agg_max = agg.merge_max_task_rows;
                assert!(
                    agg_max < groups,
                    "{at}: an aggregate merge task covered {agg_max} of {groups} groups"
                );
            }
        }
    }
}

/// The fast-path acceptance check: on an all-`Int64` GROUP BY the fixed-key
/// tables engage automatically (`agg_fast_path_chunks > 0`, no generic
/// chunk) and return the oracle's rows at every partition count. Byte
/// identity with the generic tables is pinned at the `AggregateState`
/// level (`aggregate::tests::fast_and_generic_tables_are_byte_identical`).
#[test]
fn agg_fast_path_engages_and_equals_the_oracle() {
    let chain = chain();
    let (db, expected) = (&chain.db, chain.answer(GROUP_BY_SQL));
    for partition_count in [1usize, 8] {
        let opts =
            QueryOptions::new(Mode::RobustPredicateTransfer).with_partition_count(partition_count);
        let fast = db.query(GROUP_BY_SQL, &opts).unwrap();
        assert!(
            fast.metrics.agg_fast_path_chunks > 0,
            "pc={partition_count}: fast path did not engage"
        );
        assert_eq!(fast.metrics.agg_generic_chunks, 0, "pc={partition_count}");
        expected.check(&fast.rows, &format!("pc={partition_count}"));
    }
}

/// A `Utf8` GROUP BY key packs into the fixed-width fast path when the
/// block storage layer dictionary-encodes the column (32-bit codes), and
/// takes the generic tables when the column has more than
/// `DICT_MAX_DISTINCT` distinct values and so no dictionary — with the
/// oracle's rows either way, across partition counts.
#[test]
fn utf8_group_key_fast_path_follows_dictionary_encoding() {
    let mut chain = chain();
    // `w.name` has one more distinct value than a dictionary may hold;
    // three of them appear twice.
    let wide = rpt_storage::encode::DICT_MAX_DISTINCT + 1;
    let rows = wide + 3;
    chain.register(table(
        "w",
        vec![
            (
                "name",
                Vector::from_utf8((0..rows).map(|i| format!("n{}", i % wide)).collect()),
            ),
            (
                "j",
                Vector::from_i64((0..rows as i64).map(|i| i % 20).collect()),
            ),
        ],
    ));
    let db = &chain.db;
    let dict = |name: &str, col: usize| {
        let table = &db.catalog().get(name).unwrap().table;
        table.encoded().columns[col].dict.clone()
    };
    assert!(dict("c", 1).is_some(), "c.tag is dictionary-coded");
    assert!(dict("w", 0).is_none(), "w.name is stored as flat strings");
    let cases = [
        ("SELECT c.tag, COUNT(*) AS n FROM b, c WHERE b.j = c.j GROUP BY c.tag", true),
        ("SELECT w.name, COUNT(*) AS n FROM w, c WHERE w.j = c.j AND c.tag = 't1' GROUP BY w.name", false),
    ];
    for (sql, coded) in cases {
        let expected = chain.answer(sql);
        for partition_count in [1usize, 8] {
            let at = format!("pc={partition_count}: {sql}");
            let r = db
                .query(
                    sql,
                    &QueryOptions::new(Mode::RobustPredicateTransfer)
                        .with_partition_count(partition_count),
                )
                .unwrap();
            let (fast, generic) = (r.metrics.agg_fast_path_chunks, r.metrics.agg_generic_chunks);
            if coded {
                assert!(
                    fast > 0 && generic == 0,
                    "{at}: fast={fast} generic={generic}"
                );
            } else {
                assert!(
                    fast == 0 && generic > 0,
                    "{at}: fast={fast} generic={generic}"
                );
            }
            expected.check(&r.rows, &at);
        }
    }
}

/// The transfer phase of a star query has independent per-relation
/// CreateBF builds; the scheduler must surface that parallelism
/// (initially-ready > 1) while still producing the sequential result.
#[test]
fn transfer_pass_exposes_parallelism() {
    let db = chain_db();
    let opts = QueryOptions::new(Mode::RobustPredicateTransfer);
    let r = db.query(CHAIN_SQL, &opts).unwrap();
    assert!(
        r.sched.initially_ready > 1,
        "expected >1 initially-ready pipelines: {:?}",
        r.sched
    );
}
