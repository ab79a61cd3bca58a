//! Partitioning a sink eight ways must not fragment what the next pipeline
//! reads: the sinks write-combine, so the chunks the sources hand out at
//! `partition_count = 8` stay within a constant of those at
//! `partition_count = 1` — one part-filled tail per partition and pipeline,
//! not eight sub-chunks per incoming chunk.

use rpt_core::{Database, Mode, QueryOptions, QueryResult};
use rpt_workloads::{dsb, job, tpcds, tpch};

const SF: f64 = 0.5;

fn run(db: &Database, sql: &str, partitions: usize) -> QueryResult {
    // Every option a CI leg's `RPT_*` variable could move is pinned: a
    // spilled run is restored frame by frame, which is not the subject.
    let opts = QueryOptions::new(Mode::RobustPredicateTransfer)
        .with_threads(1)
        .with_partition_count(partitions)
        .with_memory_budget(None);
    db.query(sql, &opts)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
}

#[test]
fn eight_partitions_hand_out_no_more_chunks_than_one_plus_their_tails() {
    let (mut total_1, mut total_8) = (0, 0);
    for w in [tpch(SF, 42), job(SF, 42), tpcds(SF, 42), dsb(SF, 42)] {
        let mut db = Database::new();
        for t in &w.tables {
            db.register_table(t.clone());
        }
        for q in &w.queries {
            let one = run(&db, &q.sql, 1);
            let eight = run(&db, &q.sql, 8);
            assert_eq!(one.sorted_rows().len(), eight.sorted_rows().len());
            let pipelines = eight.sched.pipelines.len() as u64;
            let (c1, c8) = (one.metrics.source_chunks, eight.metrics.source_chunks);
            assert!(c1 > 0, "{} {}: no source chunk counted", w.name, q.id);
            assert!(
                c8 <= 2 * c1 + 8 * pipelines,
                "{} {}: {c8} source chunks at 8 partitions, {c1} at 1, {pipelines} pipelines",
                w.name,
                q.id
            );
            total_1 += c1;
            total_8 += c8;
        }
    }
    assert!(
        total_8 <= 2 * total_1,
        "corpus: {total_8} source chunks at 8 partitions vs {total_1} at 1"
    );
}
