//! The §5.4 "+spill" path: a query memory budget that makes the governor
//! spill transfer-phase buffers and sort runs must not change any query
//! result — including when the buffers are hash-partitioned and only some
//! partitions are evicted — and must leave no spill file behind.

use proptest::prelude::*;
use rpt_common::hash::hash_i64;
use rpt_common::{DataChunk, DataType, Field, Partitioner, ScalarValue, Schema, Vector};
use rpt_core::{Database, Mode, QueryOptions};
use rpt_exec::operators::buffer::{BufferSink, BufferSinkFactory};
use rpt_exec::{BloomSink, ExecContext, FilterShape, JoinHashTable, Resources, SinkFactory};
use rpt_storage::Table;
use rpt_workloads::{tpch, Workload};

fn database_for(w: &Workload) -> Database {
    let mut db = Database::new();
    for t in &w.tables {
        db.register_table(t.clone());
    }
    db
}

#[test]
fn spill_limit_does_not_change_results() {
    let w = tpch(0.05, 51);
    let db = database_for(&w);
    let dir = std::env::temp_dir().join(format!("rpt_it_spill_{}", std::process::id()));
    for qd in w.acyclic_queries() {
        let unbounded = db
            .query(&qd.sql, &QueryOptions::new(Mode::RobustPredicateTransfer))
            .unwrap_or_else(|e| panic!("{}: {e}", qd.id));
        // A 64 KiB budget forces nearly every transfer buffer to spill.
        let spilled = db
            .query(
                &qd.sql,
                &QueryOptions::new(Mode::RobustPredicateTransfer)
                    .with_memory_budget(Some(64 * 1024))
                    .with_spill_dir(&dir),
            )
            .unwrap_or_else(|e| panic!("{} (spill): {e}", qd.id));
        assert_eq!(
            unbounded.sorted_rows(),
            spilled.sorted_rows(),
            "{}: spill changed the result",
            qd.id
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Partitioned sinks under a memory budget must not change any query
/// result: the governor evicts the largest partitions while others stay
/// resident, and the restored buffers feed the join phase.
#[test]
fn partitioned_spill_does_not_change_results() {
    let w = tpch(0.05, 54);
    let db = database_for(&w);
    let dir = std::env::temp_dir().join(format!("rpt_it_pspill_{}", std::process::id()));
    for qd in w.acyclic_queries() {
        let reference = db
            .query(&qd.sql, &QueryOptions::new(Mode::RobustPredicateTransfer))
            .unwrap_or_else(|e| panic!("{}: {e}", qd.id));
        let partitioned_spill = db
            .query(
                &qd.sql,
                &QueryOptions::new(Mode::RobustPredicateTransfer)
                    .with_partition_count(4)
                    .with_memory_budget(Some(64 * 1024))
                    .with_spill_dir(&dir),
            )
            .unwrap_or_else(|e| panic!("{} (partitioned spill): {e}", qd.id));
        // Partitioning reorders the chunks feeding float aggregates, so
        // float sums may differ in the last ulp; everything else must be
        // exactly equal.
        assert_rows_approx_eq(
            &reference.sorted_rows(),
            &partitioned_spill.sorted_rows(),
            &qd.id,
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Exact equality except for Float64 values, which are compared with a
/// relative epsilon (chunk reordering changes float summation order).
fn assert_rows_approx_eq(a: &[Vec<ScalarValue>], b: &[Vec<ScalarValue>], id: &str) {
    assert_eq!(a.len(), b.len(), "{id}: row count differs");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.len(), rb.len(), "{id}: arity differs");
        for (x, y) in ra.iter().zip(rb) {
            match (x, y) {
                (ScalarValue::Float64(u), ScalarValue::Float64(v)) => {
                    let tol = 1e-9 * u.abs().max(v.abs()).max(1.0);
                    assert!((u - v).abs() <= tol, "{id}: {u} vs {v}");
                }
                _ => assert_eq!(x, y, "{id}: {x:?} vs {y:?}"),
            }
        }
    }
}

/// Drive a partitioned `BufferSink` directly with skewed data so exactly
/// one partition pushes the query over its memory budget: that partition
/// spills, the others stay resident, and the restored buffer probes
/// correctly.
#[test]
fn spilling_one_partition_keeps_others_resident() {
    let dir = std::env::temp_dir().join(format!("rpt_it_pspill_skew_{}", std::process::id()));
    let partitions = 4usize;
    let hot_key = 42i64;
    let hot_partition = Partitioner::new(partitions).of_hash(hash_i64(hot_key));
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]);

    // A 16 KiB budget. The 60 spread rows go in first and stay resident;
    // then the hot partition receives 4000 × 16-byte rows (~62 KiB), so it
    // is the buffer pushing whenever the budget is crossed, and the
    // governor evicts it (the largest resident buffer) every time. With
    // the hot rows first, a spread partition would be evicted instead: a
    // flagged buffer that stops pushing keeps its bytes counted, so the
    // governor moves on to the next largest.
    let ctx = ExecContext::new()
        .with_partitions(partitions)
        .with_memory_budget(Some(16 * 1024))
        .with_spill_dir(&dir);
    let factory = BufferSinkFactory::new(
        0,
        schema,
        vec![BloomSink {
            filter_id: 0,
            key_cols: vec![0],
            shape: FilterShape::Bloom {
                expected_keys: 4096,
                fpr: 0.02,
            },
        }],
    );
    let mut sink = factory.make(&ctx).unwrap();
    let spread_keys: Vec<i64> = (100..160).collect();
    let spread_vals: Vec<i64> = (4000..4060).collect();
    sink.sink(
        DataChunk::new(vec![
            Vector::from_i64(spread_keys.clone()),
            Vector::from_i64(spread_vals),
        ]),
        &ctx,
    )
    .unwrap();
    for chunk_idx in 0..8 {
        let keys = vec![hot_key; 500];
        let vals: Vec<i64> = (0..500).map(|j| chunk_idx * 500 + j).collect();
        sink.sink(
            DataChunk::new(vec![Vector::from_i64(keys), Vector::from_i64(vals)]),
            &ctx,
        )
        .unwrap();
    }

    let sink = sink
        .into_any()
        .downcast::<BufferSink>()
        .expect("buffer sink state");
    for (p, stats) in sink.spill_stats().into_iter().enumerate() {
        if p == hot_partition {
            assert!(stats.chunks_spilled > 0, "hot partition never spilled");
        } else {
            assert_eq!(stats.chunks_spilled, 0, "partition {p} spilled");
        }
    }

    // Restore: the merge publishes every partition (spilled chunks are read
    // back), and the rebuilt buffer probes like the original rows.
    let res = Resources::with_partitions(1, 1, 0, partitions);
    factory.merge_partitioned(vec![sink], &ctx, &res).unwrap();
    let chunks = res.buffer(0).unwrap();
    let total: usize = chunks.iter().map(|c| c.num_rows()).sum();
    assert_eq!(total, 4060);
    let hot_rows: usize = res
        .buffer_partition(0, hot_partition)
        .unwrap()
        .iter()
        .map(|c| c.num_rows())
        .sum();
    assert!(hot_rows >= 4000, "hot partition restored {hot_rows} rows");

    let restored: Vec<DataChunk> = chunks.iter().map(|c| c.as_ref().clone()).collect();
    let ht = JoinHashTable::build(&restored, vec![0]).unwrap();
    let probe = DataChunk::new(vec![Vector::from_i64(vec![hot_key, 130, 999])]);
    let (mut pr, mut br) = (vec![], vec![]);
    ht.probe(&probe, &[0], &mut pr, &mut br);
    assert_eq!(pr.iter().filter(|&&p| p == 0).count(), 4000);
    assert_eq!(pr.iter().filter(|&&p| p == 1).count(), 1);
    assert_eq!(pr.iter().filter(|&&p| p == 2).count(), 0);
    // The CreateBF filter built over the same stream has no false negatives.
    let filter = res.filter(0).unwrap();
    assert!(filter.probe_i64(hot_key));
    for &k in &spread_keys {
        assert!(filter.probe_i64(k));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Drive the full-sort sink (no LIMIT → governed spill runs) directly with
/// skewed chunk sizes so exactly one partition crosses the memory budget:
/// that partition spills to disk, the merge still yields exactly ordered
/// output, and no `rpt_spill_*` file survives the query.
#[test]
fn sort_spills_one_partition_and_merges_in_order() {
    use rpt_exec::{cmp_scalar_rows, SortKey, SortSinkFactory};

    let dir = std::env::temp_dir().join(format!("rpt_it_sortspill_{}", std::process::id()));
    let partitions = 4usize;
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]);
    // A 32 KiB budget, which only the large chunks' partition can cross.
    let ctx = ExecContext::new()
        .with_partitions(partitions)
        .with_memory_budget(Some(32 * 1024))
        .with_spill_dir(&dir);
    let keys = vec![SortKey {
        col: 0,
        desc: true,
        nulls_first: true,
    }];
    let factory = SortSinkFactory::new(0, keys.clone(), None, 0, schema);
    let mut sink = factory.make(&ctx).unwrap();

    // Chunks are routed round-robin, so every 4th chunk lands in the same
    // partition. Make those 500 rows (~8 KiB each; four of them cross the
    // budget) and the rest 8 rows (resident everywhere else).
    let mut expected: Vec<Vec<ScalarValue>> = Vec::new();
    let mut next = 0i64;
    for i in 0..16 {
        let n = if i % partitions == 0 { 500 } else { 8 };
        let ks: Vec<i64> = (0..n).map(|j| (next + j) * 7919 % 10007).collect();
        let vs: Vec<i64> = (next..next + n).collect();
        next += n;
        for (k, v) in ks.iter().zip(&vs) {
            expected.push(vec![ScalarValue::Int64(*k), ScalarValue::Int64(*v)]);
        }
        sink.sink(
            DataChunk::new(vec![Vector::from_i64(ks), Vector::from_i64(vs)]),
            &ctx,
        )
        .unwrap();
    }

    // Each SpillBuffer opens its own rpt_spill_* file on first eviction:
    // exactly one partition's run must have spilled by now.
    let spill_files = |d: &std::path::Path| -> usize {
        std::fs::read_dir(d)
            .map(|it| {
                it.filter(|e| {
                    e.as_ref()
                        .map(|e| e.file_name().to_string_lossy().starts_with("rpt_spill_"))
                        .unwrap_or(false)
                })
                .count()
            })
            .unwrap_or(0)
    };
    assert_eq!(spill_files(&dir), 1, "exactly one partition should spill");

    let res = Resources::new(1, 0, 0);
    factory.merge_partitioned(vec![sink], &ctx, &res).unwrap();
    let rows: Vec<Vec<ScalarValue>> = res
        .buffer(0)
        .unwrap()
        .iter()
        .flat_map(|c| c.rows())
        .collect();
    expected.sort_unstable_by(|a, b| cmp_scalar_rows(&keys, a, b));
    assert_eq!(expected, rows, "merged output out of order or incomplete");
    assert_eq!(spill_files(&dir), 0, "spill files leaked past the merge");
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end: a full ORDER BY (no LIMIT) under a tiny memory budget returns
/// exactly the unbounded run's ordered rows, and leaves no spill files.
#[test]
fn sort_under_spill_pressure_end_to_end() {
    let w = tpch(0.05, 55);
    let db = database_for(&w);
    let dir = std::env::temp_dir().join(format!("rpt_it_sortspill_e2e_{}", std::process::id()));
    let sql = "SELECT l.l_orderkey, l.l_quantity, l.l_extendedprice FROM lineitem l \
               WHERE l.l_quantity > 5 ORDER BY 3 DESC, 1";
    let unbounded = db
        .query(
            sql,
            &QueryOptions::new(Mode::RobustPredicateTransfer).with_partition_count(4),
        )
        .unwrap();
    let spilled = db
        .query(
            sql,
            &QueryOptions::new(Mode::RobustPredicateTransfer)
                .with_partition_count(4)
                .with_memory_budget(Some(8 * 1024))
                .with_spill_dir(&dir),
        )
        .unwrap();
    // Raw columns, no aggregation: the ordered rows must match exactly.
    assert_eq!(
        unbounded.rows, spilled.rows,
        "spill changed the sorted output"
    );
    assert!(
        unbounded.rows.len() > 1000,
        "query too small to pressure the budget"
    );
    let leftovers = std::fs::read_dir(&dir)
        .map(|it| {
            it.filter(|e| {
                e.as_ref()
                    .map(|e| e.file_name().to_string_lossy().starts_with("rpt_spill_"))
                    .unwrap_or(false)
            })
            .count()
        })
        .unwrap_or(0);
    assert_eq!(leftovers, 0, "rpt_spill_* files left behind");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spill_works_multithreaded() {
    let w = tpch(0.05, 53);
    let db = database_for(&w);
    let dir = std::env::temp_dir().join(format!("rpt_it_spill_mt_{}", std::process::id()));
    let qd = w.query("q3").unwrap();
    let reference = db
        .query(&qd.sql, &QueryOptions::new(Mode::RobustPredicateTransfer))
        .unwrap();
    let spilled_mt = db
        .query(
            &qd.sql,
            &QueryOptions::new(Mode::RobustPredicateTransfer)
                .with_threads(4)
                .with_memory_budget(Some(32 * 1024))
                .with_spill_dir(&dir),
        )
        .unwrap();
    // Multi-threaded morsel claiming reorders the chunks feeding q3's float
    // SUM, so compare with the same ulp tolerance as the partitioned runs.
    assert_rows_approx_eq(&reference.sorted_rows(), &spilled_mt.sorted_rows(), "q3-mt");
    std::fs::remove_dir_all(&dir).ok();
}

// --------------------------------------------- compressed spill + governor

fn count_spill_files(d: &std::path::Path) -> usize {
    std::fs::read_dir(d)
        .map(|it| {
            it.filter(|e| {
                e.as_ref()
                    .map(|e| e.file_name().to_string_lossy().starts_with("rpt_spill_"))
                    .unwrap_or(false)
            })
            .count()
        })
        .unwrap_or(0)
}

/// The block-encoded spill format must at least halve the bytes written
/// for compressible Int64 runs against the logical bytes they hold (the
/// compression-ratio gauge reads at least 200), and restore the exact rows
/// pushed — asserted at the sink level, where the input is controlled.
#[test]
fn encoded_spill_at_least_halves_written_bytes() {
    let dir = std::env::temp_dir().join(format!("rpt_it_encspill_{}", std::process::id()));
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]);
    // Pin to one partition: the `Resources` below declares a
    // single-partition layout whatever RPT_PARTITION_COUNT says.
    let ctx = ExecContext::new()
        .with_partitions(1)
        .with_memory_budget(Some(4 * 1024))
        .with_spill_dir(&dir);
    let factory = BufferSinkFactory::new(0, schema, vec![]);
    let mut sink = factory.make(&ctx).unwrap();
    let mut pushed = Vec::new();
    for c in 0..8i64 {
        // Narrow-range keys (RLE/FOR-friendly) + a slowly growing value
        // column: both land far under their 8-byte raw width.
        let ks: Vec<i64> = (0..512).map(|j| 100 + (j % 40)).collect();
        let vs: Vec<i64> = (0..512).map(|j| c * 512 + j).collect();
        let chunk = DataChunk::new(vec![Vector::from_i64(ks), Vector::from_i64(vs)]);
        pushed.extend(chunk.rows());
        sink.sink(chunk, &ctx).unwrap();
    }
    let res = Resources::new(1, 0, 0);
    factory.merge_partitioned(vec![sink], &ctx, &res).unwrap();
    let rows: Vec<Vec<ScalarValue>> = res
        .buffer(0)
        .unwrap()
        .iter()
        .flat_map(|c| c.rows())
        .collect();
    assert_eq!(rows, pushed, "spill changed the restored rows");
    let m = ctx.metrics.summary();
    assert!(m.spill_bytes_written > 0, "never spilled");
    assert!(
        m.spill_bytes_read >= m.spill_bytes_written,
        "restore read {} < wrote {}",
        m.spill_bytes_read,
        m.spill_bytes_written
    );
    assert!(
        m.spill_compression_ratio_pct >= 200,
        "compression gauge {} below 200 (2x)",
        m.spill_compression_ratio_pct
    );
    // The merge restores each spilled run once, so it reads back exactly
    // the bytes that were written.
    assert_eq!(
        m.spill_bytes_read, m.spill_bytes_written,
        "restore read a different byte count than was spilled"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A sink dropped mid-query — spilled runs on disk, never finalized —
/// must unlink its spill files on drop (the file-lifecycle guarantee the
/// startup orphan sweep only backstops for killed processes).
#[test]
fn dropped_sink_mid_query_leaves_no_spill_files() {
    let dir = std::env::temp_dir().join(format!("rpt_it_dropspill_{}", std::process::id()));
    let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
    let ctx = ExecContext::new()
        .with_memory_budget(Some(1024))
        .with_spill_dir(&dir);
    let factory = BufferSinkFactory::new(0, schema, vec![]);
    let mut sink = factory.make(&ctx).unwrap();
    for _ in 0..4 {
        sink.sink(
            DataChunk::new(vec![Vector::from_i64((0..512).collect())]),
            &ctx,
        )
        .unwrap();
    }
    assert!(count_spill_files(&dir) >= 1, "sink never spilled");
    drop(sink);
    assert_eq!(
        count_spill_files(&dir),
        0,
        "dropped sink leaked spill files"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The query-wide memory governor: a tiny `memory_budget_bytes` makes the
/// largest resident sink spill, the query result is unchanged, the eviction counter records it, and no
/// spill file survives the query.
#[test]
fn memory_governor_evicts_across_sinks_without_changing_results() {
    let w = tpch(0.05, 56);
    let db = database_for(&w);
    let dir = std::env::temp_dir().join(format!("rpt_it_govspill_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let qd = w.query("q3").unwrap();
    let reference = db
        .query(&qd.sql, &QueryOptions::new(Mode::RobustPredicateTransfer))
        .unwrap();
    let mut opts = QueryOptions::new(Mode::RobustPredicateTransfer)
        .with_partition_count(4)
        .with_memory_budget(Some(1024));
    opts.spill_dir = dir.clone();
    let governed = db.query(&qd.sql, &opts).unwrap();
    assert_rows_approx_eq(
        &reference.sorted_rows(),
        &governed.sorted_rows(),
        "q3-governed",
    );
    assert!(
        governed.metrics.spill_victim_evictions >= 1,
        "governor never evicted under a 1 KiB budget: {:?}",
        governed.metrics
    );
    assert!(
        governed.metrics.spill_bytes_written > 0,
        "eviction wrote no spill bytes"
    );
    assert_eq!(count_spill_files(&dir), 0, "governed run leaked files");
    // An unconstrained budget keeps everything resident: no evictions.
    let roomy = db
        .query(
            &qd.sql,
            &QueryOptions::new(Mode::RobustPredicateTransfer).with_memory_budget(Some(1 << 30)),
        )
        .unwrap();
    assert_eq!(roomy.metrics.spill_victim_evictions, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Governor-driven spills honour `QueryOptions::spill_dir`: the context
/// carries the directory, and a
/// directory that cannot exist (its parent is a regular file) fails the
/// query instead of the runs quietly landing in `temp_dir()`.
#[test]
fn governor_spills_go_to_the_query_spill_dir() {
    let w = tpch(0.05, 56);
    let db = database_for(&w);
    let blocker = std::env::temp_dir().join(format!("rpt_it_blocker_{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    let mut opts = QueryOptions::new(Mode::RobustPredicateTransfer)
        .with_partition_count(4)
        .with_memory_budget(Some(1024));
    opts.spill_dir = blocker.join("spill");
    assert_eq!(db.make_context(&opts).spill_dir, opts.spill_dir);
    let result = db.query(&w.query("q3").unwrap().sql, &opts);
    std::fs::remove_file(&blocker).ok();
    let err = result.expect_err("spilled somewhere other than spill_dir");
    assert!(!err.is_budget(), "unexpected error kind: {err}");
}

/// Under the global scheduler each partition's merge task restores its
/// own spilled runs: with one worker and a 1-byte budget every sink
/// spills, and the merges read every spilled byte back — at partition
/// count 4 and at 1 alike, since every sink merges through its partition
/// merger. Both runs return the same rows.
#[test]
fn merge_tasks_restore_spilled_runs_under_global_scheduler() {
    let w = tpch(0.05, 57);
    let db = database_for(&w);
    let dir = std::env::temp_dir().join(format!("rpt_it_mergespill_{}", std::process::id()));
    let qd = w.query("q3").unwrap();
    let base = QueryOptions::new(Mode::RobustPredicateTransfer)
        .with_partition_count(4)
        .with_workers(1)
        .with_threads(1)
        .with_memory_budget(Some(1))
        .with_spill_dir(&dir);
    let on = db.query(&qd.sql, &base).unwrap();
    let one = db
        .query(&qd.sql, &base.clone().with_partition_count(1))
        .unwrap();
    for (parts, r) in [(4, &on), (1, &one)] {
        let m = &r.metrics;
        assert!(
            m.spill_bytes_written > 0,
            "{parts} partitions: never spilled"
        );
        assert!(
            m.spill_bytes_read >= m.spill_bytes_written,
            "{parts} partitions: restore read {} < wrote {}",
            m.spill_bytes_read,
            m.spill_bytes_written
        );
    }
    // The partition count changes the float summation order, so float
    // cells compare within a relative tolerance.
    assert_rows_approx_eq(
        &on.sorted_rows(),
        &one.sorted_rows(),
        "q3 at 4 vs 1 partitions",
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The merge reads every worker's spilled runs back once and never spills
/// them again. With every chunk spilled (a 1-byte memory budget, which
/// overrides any `RPT_MEMORY_BUDGET` in the environment) two workers write
/// and read exactly the spill bytes one worker does: each worker's run is
/// restored straight into the published buffer, not pushed into another
/// worker's governed buffer first.
#[test]
fn merge_spills_each_row_once() {
    let w = tpch(0.2, 57);
    let db = database_for(&w);
    let dir = std::env::temp_dir().join(format!("rpt_it_spillonce_{}", std::process::id()));
    for id in ["q3", "q5", "q10", "q18"] {
        let sql = &w.query(id).unwrap().sql;
        let spill_bytes = |workers: usize| {
            let opts = QueryOptions::new(Mode::RobustPredicateTransfer)
                .with_partition_count(1)
                .with_workers(workers)
                .with_threads(workers)
                .with_memory_budget(Some(1))
                .with_spill_dir(&dir);
            let m = db.query(sql, &opts).unwrap().metrics;
            (m.spill_bytes_written, m.spill_bytes_read)
        };
        let one = spill_bytes(1);
        assert!(one.0 > 0, "{id}: never spilled");
        assert_eq!(
            spill_bytes(2),
            one,
            "{id}: (written, read) at 2 workers vs 1"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------ spill-leg property test

fn spill_prop_db(keys_a: &[i64], keys_b: &[i64]) -> Database {
    let mk = |name: &str, cols: Vec<(&str, Vector)>| {
        let schema = Schema::new(
            cols.iter()
                .map(|(n, v)| Field::new(*n, v.data_type()))
                .collect(),
        );
        Table::new(name, schema, cols.into_iter().map(|(_, v)| v).collect()).expect("valid table")
    };
    let mut db = Database::new();
    db.register_table(mk("pa", vec![("k", Vector::from_i64(keys_a.to_vec()))]));
    db.register_table(mk(
        "pb",
        vec![
            ("k", Vector::from_i64(keys_b.to_vec())),
            (
                "j",
                Vector::from_i64(keys_b.iter().map(|k| k % 5).collect()),
            ),
        ],
    ));
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random join+GROUP BY instances: resident and forced spill at
    /// `threads = 2, workers = 4` return the rows of the serial resident
    /// run (`workers = 1, threads = 1, partition_count = 1`) across
    /// partition counts (integer aggregates, so equality is exact even on
    /// the multithreaded legs).
    #[test]
    fn spill_legs_agree_with_resident(
        keys_a in proptest::collection::vec(0i64..12, 1..60),
        keys_b in proptest::collection::vec(0i64..12, 1..60),
    ) {
        let db = spill_prop_db(&keys_a, &keys_b);
        let dir = std::env::temp_dir().join(format!("rpt_it_propspill_{}", std::process::id()));
        let sql = "SELECT pb.j, COUNT(*) AS c, SUM(pa.k) AS s FROM pa, pb \
                   WHERE pa.k = pb.k GROUP BY pb.j";
        let serial = db
            .query(
                sql,
                &QueryOptions::new(Mode::RobustPredicateTransfer)
                    .with_partition_count(1)
                    .with_workers(1),
            )
            .unwrap()
            .sorted_rows();
        for parts in [1usize, 8] {
            let base = QueryOptions::new(Mode::RobustPredicateTransfer)
                .with_partition_count(parts)
                .with_threads(2)
                .with_workers(4);
            let resident = db.query(sql, &base).unwrap().sorted_rows();
            // A 1-byte budget forces every chunk of every buffer to spill.
            let spilled = db
                .query(sql, &base.clone().with_memory_budget(Some(1)).with_spill_dir(&dir))
                .unwrap()
                .sorted_rows();
            prop_assert_eq!(&serial, &resident, "resident parts={}", parts);
            prop_assert_eq!(&serial, &spilled, "spilled parts={}", parts);
        }
        prop_assert_eq!(count_spill_files(&dir), 0, "spill files leaked");
        std::fs::remove_dir_all(&dir).ok();
    }
}
