//! The scheduler's typed run record (`QueryResult::sched`) agrees with the
//! flat counters it sits beside: one `PipelineStats` per compiled pipeline,
//! whose sink rows and merge splits add up to `intermediate_tuples`,
//! `output_rows`, `merge_tasks` and `merge_max_task_rows`. Every
//! pipeline of every compiled plan has its own label, so a lookup by label
//! finds one pipeline.

use rpt_core::{Database, Mode, Planner, QueryOptions};
use rpt_workloads::{dsb, job, tpcds, tpch};
use std::collections::BTreeSet;

#[test]
fn per_pipeline_record_adds_up_to_the_counters() {
    for w in [tpch(0.02, 42), job(0.02, 42)] {
        let mut db = Database::new();
        for t in &w.tables {
            db.register_table(t.clone());
        }
        for q in &w.queries {
            let bound = db.bind_sql(&q.sql).unwrap();
            for mode in Mode::ALL.into_iter().filter(|&m| m != Mode::Hybrid) {
                for partitions in [1usize, 8] {
                    let at = format!("{} {} {mode:?} pc={partitions}", w.name, q.id);
                    let opts = QueryOptions::new(mode).with_partition_count(partitions);
                    let r = db
                        .execute(&bound, &opts)
                        .unwrap_or_else(|e| panic!("{at}: {e}"));
                    let (m, s) = (&r.metrics, &r.sched);

                    let order = db.choose_order(&bound, &opts).unwrap();
                    let plan = Planner::new(&bound, &opts).compile(&order.plan()).unwrap();
                    assert_eq!(s.pipelines.len(), plan.pipelines.len(), "{at}");

                    let (output, intermediate): (Vec<_>, Vec<_>) =
                        s.pipelines.iter().partition(|p| !p.intermediate);
                    let intermediate_rows: u64 = intermediate.iter().map(|p| p.sink_rows).sum();
                    assert_eq!(intermediate_rows, m.intermediate_tuples, "{at}");
                    assert_eq!(output.len(), 1, "{at}: one final pipeline");
                    assert_eq!(output[0].sink_rows, m.output_rows, "{at}");

                    let merge_tasks: u64 = s.pipelines.iter().map(|p| p.merge_tasks).sum();
                    assert_eq!(merge_tasks, m.merge_tasks, "{at}");
                    let max_task_rows = s.pipelines.iter().map(|p| p.merge_max_task_rows).max();
                    assert_eq!(max_task_rows, Some(m.merge_max_task_rows), "{at}");
                    assert_eq!(s.tasks, m.sched_tasks, "{at}");
                }
            }
        }
    }
}

#[test]
fn pipeline_labels_are_unique_in_every_plan() {
    let mut plans = 0;
    for w in [
        tpch(0.02, 42),
        job(0.02, 42),
        tpcds(0.02, 42),
        dsb(0.02, 42),
    ] {
        let mut db = Database::new();
        for t in &w.tables {
            db.register_table(t.clone());
        }
        for q in &w.queries {
            let bound = db.bind_sql(&q.sql).unwrap();
            for mode in Mode::ALL {
                for partitions in [1usize, 8] {
                    let at = format!("{} {} {mode:?} pc={partitions}", w.name, q.id);
                    let opts = QueryOptions::new(mode).with_partition_count(partitions);
                    let order = db.choose_order(&bound, &opts).unwrap();
                    let plan = Planner::new(&bound, &opts).compile(&order.plan()).unwrap();
                    let mut seen = BTreeSet::new();
                    for p in &plan.pipelines {
                        assert!(seen.insert(&p.label), "{at}: two pipelines `{}`", p.label);
                    }
                    plans += 1;
                }
            }
        }
    }
    assert_eq!(plans, 64 * Mode::ALL.len() * 2);
}
