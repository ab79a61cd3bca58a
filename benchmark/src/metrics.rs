//! The names, units and directions of every metric the benchmark reports.
//! `BENCHMARK.json` lists exactly these (a self-test compares the two), and
//! later issues refer to metrics and workloads by these names.

use crate::json::Json;

/// A metric a user of the engine would see. `bound` is the share of the
/// parent's median by which it may get worse before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// Every end-to-end metric is a cost: lower is better. The bounds are what
/// this sandbox can hold, not what the engine deserves: ten runs of one
/// binary spread by up to 19% in time and 16% in resident size, and the host
/// slows by 40% for minutes at a time (README, "Steadiness").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "pass_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_geomean_ms",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p95_ms",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn cost(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn gain(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Per-layer metrics, reported by the traced run. Times are self times per
/// pass; counts are per pass; `*_ns_per_*`, `*_per_s` and the two
/// `bytes_per_raw_byte` ratios come from the kernel runs on fixed inputs.
pub const PER_LAYER: [PerLayer; 58] = [
    // front end: rpt-sql, rpt-core::{binder, optimizer, planner}, rpt-analyze
    cost("sql.parse_s", "s"),
    cost("binder.bind_s", "s"),
    cost("optimizer.order_s", "s"),
    cost("planner.compile_s", "s"),
    cost("analyze.verify_s", "s"),
    // execution as a whole
    cost("exec.run_s", "s"),
    cost("exec.teardown_s", "s"),
    cost("exec.work_tuples", "count"),
    cost("exec.intermediate_tuples", "count"),
    cost("exec.join_output_rows", "count"),
    // transfer: operators::create_bf, ProbeBloom, rpt-bloom
    cost("transfer.bloom_s", "s"),
    cost("transfer.build_rows", "count"),
    cost("transfer.probe_pass_ratio", "ratio"),
    cost("bloom.insert_ns_per_key.small", "ns/key"),
    cost("bloom.insert_ns_per_key.large", "ns/key"),
    cost("bloom.probe_ns_per_key.small", "ns/key"),
    cost("bloom.probe_ns_per_key.large", "ns/key"),
    // rpt-common::hash, rpt-exec::hash_table
    cost("hash.ns_per_row.int64", "ns/row"),
    cost("hash.ns_per_row.int64_dict", "ns/row"),
    cost("join.build_ns_per_row", "ns/row"),
    cost("join.probe_ns_per_row", "ns/row"),
    cost("join.hash_build_rows", "count"),
    cost("join.probe_rows", "count"),
    // rpt-storage::block / encode
    gain("storage.encode_mrows_per_s", "Mrows/s"),
    gain("storage.decode_mrows_per_s", "Mrows/s"),
    cost("storage.bytes_per_raw_byte", "ratio"),
    gain("storage.blocks_pruned_ratio", "ratio"),
    cost("storage.scan_rows", "count"),
    // rpt-exec::aggregate, operators::sort
    cost("agg.update_ns_per_row.fast", "ns/row"),
    cost("agg.update_ns_per_row.generic", "ns/row"),
    gain("agg.fast_path_share", "ratio"),
    gain("sort.rows_pruned", "count"),
    cost("sort.merge_tasks", "count"),
    // rpt-exec::global
    gain("sched.utilization", "ratio"),
    cost("sched.tasks", "count"),
    gain("sched.overlap_tasks", "count"),
    cost("sched.max_queue_depth", "count"),
    cost("sched.merge_max_task_rows", "count"),
    // rpt-storage::spill / govern
    gain("spill.write_mb_per_s", "MB/s"),
    gain("spill.read_mb_per_s", "MB/s"),
    cost("spill.bytes_per_raw_byte", "ratio"),
    cost("spill.bytes_written", "count"),
    cost("spill.bytes_read", "count"),
    gain("spill.prefetch_hit_ratio", "ratio"),
    cost("spill.evictions", "count"),
    // rpt-core::robustness — the paper's Tables 1-2; 0 off `random-orders`
    cost("robustness.rf_time_geomean", "ratio"),
    cost("robustness.rf_time_max", "ratio"),
    cost("robustness.rf_work_geomean", "ratio"),
    cost("robustness.rf_work_max", "ratio"),
    cost("robustness.rf_work_max.leftdeep", "ratio"),
    cost("robustness.rf_work_max.bushy", "ratio"),
    // the traced run itself
    cost("trace.replan_s", "s"),
    cost("trace.check_s", "s"),
    cost("trace.unattributed_s", "s"),
    cost("trace.traced_pass_s", "s"),
    cost("trace.untraced_pass_s", "s"),
    cost("trace.overhead_ratio", "ratio"),
    gain("trace.attributed_share", "ratio"),
];

/// One reported value with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

/// The `metrics` object of the result line: `{name: {value, unit}}`.
pub fn metrics_json(values: &[Value]) -> Json {
    Json::obj(values.iter().map(|v| {
        (
            v.name,
            Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(v.unit))]),
        )
    }))
}

/// The contents of `BENCHMARK.json`, generated from the tables above so the
/// file and the runner cannot drift apart (`rpt-benchmark manifest`).
pub fn manifest(run_seconds: u32) -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(crate::COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(run_seconds))),
        (
            "workloads",
            Json::Arr(
                crate::workloads::SPECS
                    .iter()
                    .map(|s| Json::obj([("name", Json::str(s.name)), ("why", Json::str(s.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str("lower")),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        let better = if m.higher_is_better {
                            "higher"
                        } else {
                            "lower"
                        };
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
