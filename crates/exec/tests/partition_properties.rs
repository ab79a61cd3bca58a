//! Property tests for the hash-partitioned sinks: random chunk streams ×
//! random partition counts × random worker counts must produce exactly the
//! unpartitioned baseline's contents (as multisets), route every row to the
//! partition its key hashes to, and build bit-identical Bloom filters; and
//! a DAG of partitioned sinks fed from partitioned buffers must produce
//! exactly what the serial, unpartitioned run produces.

use proptest::prelude::*;
use rpt_common::hash::hash_i64;
use rpt_common::{DataChunk, DataType, Field, Partitioner, ScalarValue, Schema, Vector};
use rpt_exec::operators::buffer::BufferSinkFactory;
use rpt_exec::operators::hash_build::HashBuildFactory;
use rpt_exec::operators::AggregateFactory;
use rpt_exec::{
    AggExpr, AggFunc, BloomSink, ExecContext, Executor, Expr, FilterShape, OpSpec, PipelinePlan,
    Resources, SinkFactory, SinkSpec, SourceSpec,
};
use rpt_storage::{StoredTable, Table};
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ])
}

/// `(key, row id)` chunks of `chunk_size`, dealt round-robin to `workers`.
fn worker_chunks(keys: &[i64], chunk_size: usize, workers: usize) -> Vec<Vec<DataChunk>> {
    let mut per_worker: Vec<Vec<DataChunk>> = vec![Vec::new(); workers];
    for (i, ck) in keys.chunks(chunk_size.max(1)).enumerate() {
        let vals: Vec<i64> = (0..ck.len()).map(|j| (i * chunk_size + j) as i64).collect();
        per_worker[i % workers].push(DataChunk::new(vec![
            Vector::from_i64(ck.to_vec()),
            Vector::from_i64(vals),
        ]));
    }
    per_worker
}

/// Drive a sink the way the pipeline driver does: one state per worker,
/// then the merge through the sink's partition merger.
fn run_sink(
    factory: &dyn SinkFactory,
    ctx: &ExecContext,
    res: &Resources,
    per_worker: Vec<Vec<DataChunk>>,
) {
    let mut states = Vec::new();
    for chunks in per_worker {
        let mut s = factory.make(ctx).unwrap();
        for c in chunks {
            s.sink(c, ctx).unwrap();
        }
        states.push(s);
    }
    factory.merge_partitioned(states, ctx, res).unwrap();
}

/// Sorted multiset of `(key, val)` rows across chunks.
fn row_multiset<'a>(chunks: impl Iterator<Item = &'a DataChunk>) -> Vec<(i64, i64)> {
    let mut rows: Vec<(i64, i64)> = chunks
        .flat_map(|c| {
            c.rows()
                .into_iter()
                .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        })
        .collect();
    rows.sort_unstable();
    rows
}

fn bloom_spec() -> BloomSink {
    BloomSink {
        filter_id: 0,
        key_cols: vec![0],
        shape: FilterShape::Bloom {
            expected_keys: 256,
            fpr: 0.02,
        },
    }
}

fn agg_schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("c", DataType::Int64),
        Field::new("s", DataType::Int64),
    ])
}

/// The three-pipeline DAG that feeds a partitioned aggregate and a keyed
/// CreateBF from partitioned buffers: a CreateBF buffer keyed on column 0,
/// a grouped aggregate consuming it on the same key, and a keyed CreateBF
/// over the aggregate's output.
fn keyed_dag_pipelines(keys: &[i64]) -> Vec<PipelinePlan> {
    let t = Arc::new(StoredTable::new(
        Table::new(
            "t",
            schema(),
            vec![
                Vector::from_i64(keys.to_vec()),
                Vector::from_i64((0..keys.len() as i64).collect()),
            ],
        )
        .unwrap(),
    ));
    let bloom = |filter_id: usize| BloomSink {
        filter_id,
        ..bloom_spec()
    };
    let p0 = PipelinePlan {
        label: "createbf".into(),
        source: SourceSpec::full_scan(t),
        ops: vec![],
        sink: SinkSpec::Buffer {
            buf_id: 0,
            blooms: vec![bloom(0)],
        },
        intermediate: true,
        sink_schema: schema(),
    };
    let p1 = PipelinePlan {
        label: "aggregate".into(),
        source: SourceSpec::Buffer(0),
        ops: vec![],
        sink: SinkSpec::Aggregate {
            buf_id: 1,
            group_cols: vec![0],
            aggs: vec![
                AggExpr::count_star("c"),
                AggExpr {
                    func: AggFunc::Sum,
                    input: Some(Expr::col(1)),
                    alias: "s".into(),
                },
            ],
            input_types: vec![DataType::Int64, DataType::Int64],
            output_schema: agg_schema(),
            key_dicts: vec![],
        },
        intermediate: true,
        sink_schema: agg_schema(),
    };
    let p2 = PipelinePlan {
        label: "consume".into(),
        source: SourceSpec::Buffer(1),
        ops: vec![OpSpec::Project(vec![
            Expr::col(0),
            Expr::col(1),
            Expr::col(2),
        ])],
        sink: SinkSpec::Buffer {
            buf_id: 2,
            blooms: vec![bloom(1)],
        },
        intermediate: false,
        sink_schema: agg_schema(),
    };
    vec![p0, p1, p2]
}

/// Run [`keyed_dag_pipelines`] on a pool of `workers` threads: the full
/// row sequence of buffer 2 (partition concatenation order).
fn run_keyed_dag(keys: &[i64], partitions: usize, workers: usize) -> Vec<Vec<ScalarValue>> {
    let ctx = ExecContext::new()
        .with_workers(workers)
        .with_threads(workers)
        .with_partitions(partitions);
    let mut exec = Executor::new(ctx, 3, 2, 0);
    exec.run_dag(&keyed_dag_pipelines(keys)).unwrap();
    exec.buffer(2)
        .unwrap()
        .iter()
        .flat_map(|c| c.rows())
        .collect()
}

/// The governor keeps seeing a hash build's bytes after its sinks are
/// gone: the registration moves into the published table and reports the
/// table's own footprint until `Resources` lets the table go.
#[test]
fn published_hash_table_keeps_its_governor_registration() {
    for partitions in [1usize, 8] {
        let ctx = ExecContext::new()
            .with_partitions(partitions)
            .with_memory_budget(Some(1 << 30));
        let gov = ctx.governor.clone().unwrap();
        let factory = HashBuildFactory::new(0, vec![0], schema(), vec![]);
        let res = Resources::with_partitions(0, 0, 1, partitions);
        let keys: Vec<i64> = (0..2000).collect();
        run_sink(&factory, &ctx, &res, worker_chunks(&keys, 500, 2));
        // Every sink is gone; the table holds the one registration left.
        let footprint = res.hash_table(0).unwrap().size_bytes();
        assert!(footprint > 2000 * 16, "rows plus the index");
        assert_eq!(gov.resident_bytes(), footprint);
        drop(res);
        assert_eq!(gov.resident_bytes(), 0, "released with the table");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Partitioned `BufferSink` (CreateBF): contents equal the
    /// unpartitioned baseline as a multiset, every row lands in the
    /// partition its key hashes to, and the published Bloom filter is
    /// bit-identical to the baseline's.
    #[test]
    fn partitioned_buffer_sink_matches_baseline(
        keys in proptest::collection::vec(-40i64..40, 1..150),
        chunk_size in 1usize..50,
        pc_exp in 1u32..4,
        workers in 1usize..4,
    ) {
        let partitions = 1usize << pc_exp;
        let factory = BufferSinkFactory::new(0, schema(), vec![bloom_spec()]);

        let base_ctx = ExecContext::new().with_partitions(1);
        let base_res = Resources::with_partitions(1, 1, 0, 1);
        run_sink(&factory, &base_ctx, &base_res, worker_chunks(&keys, chunk_size, 1));

        let ctx = ExecContext::new().with_threads(workers).with_partitions(partitions);
        let res = Resources::with_partitions(1, 1, 0, partitions);
        run_sink(&factory, &ctx, &res, worker_chunks(&keys, chunk_size, workers));

        // Multiset parity of the whole buffer.
        let base = row_multiset(base_res.buffer(0).unwrap().iter().map(|c| c.as_ref()));
        let part = row_multiset(res.buffer(0).unwrap().iter().map(|c| c.as_ref()));
        prop_assert_eq!(&base, &part);
        prop_assert_eq!(base.len(), keys.len());

        // Radix routing: every row sits in the partition its key hashes to.
        let partitioner = Partitioner::new(partitions);
        for p in 0..partitions {
            for chunk in res.buffer_partition(0, p).unwrap().iter() {
                for row in chunk.rows() {
                    let key = row[0].as_i64().unwrap();
                    prop_assert_eq!(partitioner.of_hash(hash_i64(key)), p,
                        "key {} in wrong partition {}", key, p);
                }
            }
        }

        // The CreateBF filter (bits and key ranges) is identical regardless
        // of partitioning.
        let base_filter = base_res.filter(0).unwrap();
        let part_filter = res.filter(0).unwrap();
        prop_assert!(base_filter == part_filter, "filters differ");
        prop_assert_eq!(base_filter.num_inserted(), part_filter.num_inserted());
    }

    /// Partitioned `AggregateSink`: the merged GROUP BY result equals the
    /// single-partition path's as a multiset of `(key, SUM, COUNT)` groups,
    /// every group is sealed in the partition its key hashes to, and no
    /// merge task covers the full group set once groups spread.
    #[test]
    fn partitioned_aggregate_sink_matches_baseline(
        keys in proptest::collection::vec(-40i64..40, 1..150),
        chunk_size in 1usize..50,
        pc_exp in 1u32..4,
        workers in 1usize..4,
    ) {
        let partitions = 1usize << pc_exp;
        let out_schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("s", DataType::Int64),
            Field::new("c", DataType::Int64),
        ]);
        let factory = AggregateFactory::new(
            0,
            vec![0],
            vec![
                AggExpr {
                    func: AggFunc::Sum,
                    input: Some(Expr::col(1)),
                    alias: "s".into(),
                },
                AggExpr::count_star("c"),
            ],
            vec![DataType::Int64, DataType::Int64],
            out_schema,
            vec![],
        );

        let base_ctx = ExecContext::new().with_partitions(1);
        let base_res = Resources::with_partitions(1, 0, 0, 1);
        run_sink(&factory, &base_ctx, &base_res, worker_chunks(&keys, chunk_size, 1));

        let ctx = ExecContext::new().with_threads(workers).with_partitions(partitions);
        let res = Resources::with_partitions(1, 0, 0, partitions);
        run_sink(&factory, &ctx, &res, worker_chunks(&keys, chunk_size, workers));

        let groups = |chunks: &[std::sync::Arc<DataChunk>]| {
            let mut rows: Vec<(i64, i64, i64)> = chunks
                .iter()
                .flat_map(|c| {
                    c.rows().into_iter().map(|r| {
                        (
                            r[0].as_i64().unwrap(),
                            r[1].as_i64().unwrap(),
                            r[2].as_i64().unwrap(),
                        )
                    })
                })
                .collect();
            rows.sort_unstable();
            rows
        };
        let base = groups(&base_res.buffer(0).unwrap());
        let part = groups(&res.buffer(0).unwrap());
        prop_assert_eq!(&base, &part);
        let distinct: std::collections::HashSet<i64> = keys.iter().copied().collect();
        prop_assert_eq!(base.len(), distinct.len());
        prop_assert_eq!(base.iter().map(|&(_, _, c)| c).sum::<i64>(), keys.len() as i64);

        // Each group was merged and sealed in the partition its key
        // hashes to — the same radix the other partitioned sinks use.
        let partitioner = Partitioner::new(partitions);
        for p in 0..partitions {
            for chunk in res.buffer_partition(0, p).unwrap().iter() {
                for row in chunk.rows() {
                    let key = row[0].as_i64().unwrap();
                    prop_assert_eq!(partitioner.of_hash(hash_i64(key)), p,
                        "group {} in wrong partition {}", key, p);
                }
            }
        }

        // Merge accounting: one task per partition, and no task saw every
        // group (only checkable when the hash spread is certain).
        let m = ctx.metrics.summary();
        prop_assert_eq!(m.merge_tasks, partitions as u64);
        if distinct.len() >= 16 {
            prop_assert!(m.merge_max_task_rows < distinct.len() as u64,
                "a merge task covered all {} groups", distinct.len());
        }
    }

    /// Partitioned hash build: the one published table holds the same
    /// rows as the unpartitioned build's — laid out partition after
    /// partition, each key's rows in one of them — and both hash-join
    /// probes and semi-join probes agree with the unpartitioned baseline.
    #[test]
    fn partitioned_hash_build_matches_baseline(
        keys in proptest::collection::vec(-40i64..40, 1..150),
        probes in proptest::collection::vec(-60i64..60, 1..100),
        chunk_size in 1usize..50,
        pc_exp in 1u32..4,
        workers in 1usize..4,
    ) {
        let partitions = 1usize << pc_exp;
        let factory = HashBuildFactory::new(0, vec![0], schema(), vec![]);

        let base_ctx = ExecContext::new().with_partitions(1);
        let base_res = Resources::with_partitions(0, 0, 1, 1);
        run_sink(&factory, &base_ctx, &base_res, worker_chunks(&keys, chunk_size, 1));

        let ctx = ExecContext::new().with_threads(workers).with_partitions(partitions);
        let res = Resources::with_partitions(0, 0, 1, partitions);
        run_sink(&factory, &ctx, &res, worker_chunks(&keys, chunk_size, workers));

        let base_ht = base_res.hash_table(0).unwrap();
        let ht = res.hash_table(0).unwrap();
        prop_assert_eq!(ht.num_rows(), keys.len());
        prop_assert_eq!(ctx.metrics.summary().merge_tasks, partitions as u64);

        // Build rows as multisets; partitions contiguous and in order.
        prop_assert_eq!(
            row_multiset(std::iter::once(&ht.data)),
            row_multiset(std::iter::once(&base_ht.data))
        );
        let partitioner = Partitioner::new(partitions);
        let part_of_row: Vec<usize> = ht.data.columns[0]
            .i64_slice()
            .iter()
            .map(|&key| partitioner.of_hash(hash_i64(key)))
            .collect();
        prop_assert!(part_of_row.windows(2).all(|w| w[0] <= w[1]),
            "partitions interleave in the row store: {:?}", part_of_row);

        // Probe parity: same (probe key, build value) match multiset.
        let probe = DataChunk::new(vec![Vector::from_i64(probes.clone())]);
        let matches = |t: &rpt_exec::JoinHashTable| {
            let (mut pr, mut br) = (vec![], vec![]);
            t.probe(&probe, &[0], &mut pr, &mut br);
            let vals = t.data.columns[1].take(&br);
            let mut out: Vec<(i64, i64)> = pr
                .iter()
                .zip(vals.i64_slice())
                .map(|(&p, &v)| (probes[p as usize], v))
                .collect();
            out.sort_unstable();
            out
        };
        prop_assert_eq!(matches(&base_ht), matches(&ht));

        // Semi-probe parity (selection order included).
        prop_assert_eq!(base_ht.semi_probe(&probe, &[0]), ht.semi_probe(&probe, &[0]));
    }

    /// The keyed DAG over the `partition_count {1..8} × workers {1..4}`
    /// matrix equals the `partitions = 1, workers = 1` run as a multiset
    /// of `(key, COUNT, SUM)` rows.
    #[test]
    fn keyed_dag_matches_serial_run(
        keys in proptest::collection::vec(-60i64..60, 1..250),
        partitions in 1usize..=8,
        workers in 1usize..=4,
    ) {
        let sorted = |mut rows: Vec<Vec<ScalarValue>>| {
            rows.sort_by_key(|r| (r[0].as_i64(), r[1].as_i64(), r[2].as_i64()));
            rows
        };
        let base = sorted(run_keyed_dag(&keys, 1, 1));
        let rows = sorted(run_keyed_dag(&keys, partitions, workers));
        prop_assert_eq!(rows, base, "pc={} workers={} differs", partitions, workers);
    }

    /// Repeatability: the keyed DAG is bit-deterministic under ordered
    /// chains (`threads == 1`, `workers == 1`) — two runs of the same
    /// config emit the same rows in the same order.
    #[test]
    fn keyed_dag_is_deterministic_single_threaded(
        keys in proptest::collection::vec(-60i64..60, 1..250),
        partitions in 1usize..=8,
    ) {
        let a = run_keyed_dag(&keys, partitions, 1);
        let b = run_keyed_dag(&keys, partitions, 1);
        prop_assert_eq!(a, b, "pc={} not deterministic", partitions);
    }
}
