//! One run of one workload (the unit the contract in `BENCHMARK.json`
//! describes), and `run --all`, which starts one such run per workload in a
//! fresh process and collects the results into a file.

use crate::check;
use crate::env;
use crate::json::Json;
use crate::kernels;
use crate::metrics::{metrics_json, Value, END_TO_END, PER_LAYER};
use crate::runner::{self, Measurement, Pass, Prepared};
use crate::stats::{median, spread};
use crate::trace::{LayerTimes, Recorder};
use crate::workloads::{self, Spec, SPECS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed passes a run makes even when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 3;
/// Share of `--seconds` a traced run spends on passes; the kernels, whose
/// inputs are of fixed size, take the rest.
const TRACE_PASS_SHARE: f64 = 0.6;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run found, ready to print.
pub struct Report {
    pub workload: &'static str,
    pub attempted: usize,
    pub failed: usize,
    pub values: Vec<Value>,
    /// Everything else worth keeping: datasets, options, derived numbers.
    pub info: Json,
}

impl Report {
    /// The line the contract asks for, last on standard output.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.values)),
        ])
        .compact()
    }

    /// One line per metric: `workload metric value unit n`.
    pub fn metric_lines(&self) -> String {
        self.values
            .iter()
            .map(|v| {
                format!(
                    "{} {} {} {} n={}\n",
                    self.workload, v.name, v.value, v.unit, v.n
                )
            })
            .collect()
    }
}

pub fn golden_path(workload: &str) -> PathBuf {
    Path::new("benchmark/golden").join(format!("{workload}.json"))
}

fn find_spec(name: &str) -> Result<&'static Spec, String> {
    workloads::spec(name).ok_or_else(|| {
        let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

/// What a run keeps besides its metrics.
fn info(p: &Prepared, m: &Measurement) -> Vec<(&'static str, Json)> {
    let datasets = p
        .datasets
        .iter()
        .map(|d| {
            Json::obj([
                ("name", Json::str(d.name)),
                ("sf", Json::Num(d.sf)),
                ("rows", Json::Num(d.rows as f64)),
            ])
        })
        .collect();
    let mut pairs = vec![
        ("seed", Json::Num(p.seed as f64)),
        ("nproc", Json::Num(p.nproc as f64)),
        ("datasets", Json::Arr(datasets)),
        ("queries", Json::Num(p.queries.len() as f64)),
        ("executions_per_pass", Json::Num(p.items.len() as f64)),
        ("passes", Json::Num(m.passes.len() as f64)),
        ("options", Json::Str(p.options_line())),
        (
            "failed_share",
            Json::Num(m.failed as f64 / m.attempted as f64),
        ),
    ];
    if let Some(budget) = p.spec.memory_budget {
        pairs.push(("memory_budget_bytes", Json::Num(budget as f64)));
    }
    pairs
}

/// Fails the run when the workload is no longer what its `why` says.
fn check_identity(p: &Prepared, pass: &Pass) -> Result<(), String> {
    let bad = runner::identity_violations(p, pass);
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("workload identity violated: {}", bad.join("; ")))
    }
}

fn golden_failures(p: &Prepared) -> Result<usize, String> {
    let bad = check::golden_mismatches(
        &golden_path(p.spec.name),
        p.seed,
        p.scale,
        &p.query_ids(),
        &p.references,
    )?;
    for id in &bad {
        eprintln!(
            "[{}] reference of {id} differs from {}",
            p.spec.name,
            golden_path(p.spec.name).display()
        );
    }
    Ok(bad.len())
}

fn robustness_json(r: &runner::Robustness) -> Json {
    Json::obj([
        ("rf_time_geomean", Json::Num(r.time_geomean)),
        ("rf_time_max", Json::Num(r.time_max)),
        ("rf_work_geomean", Json::Num(r.work_geomean)),
        ("rf_work_max", Json::Num(r.work_max)),
    ])
}

/// The end-to-end run: set up, measure with tracing off, then set up again
/// until `SETUPS` times are in (the repeats come last so that the passes
/// run in a process that has set up once, like a user's).
fn untraced(spec: &'static Spec, args: &RunArgs, tmp: &Path) -> Result<Report, String> {
    let timed_prepare = || {
        let t = Instant::now();
        let p = runner::prepare(spec, args.seed, 1.0, tmp).map_err(|e| e.to_string())?;
        Ok::<_, String>((p, t.elapsed().as_secs_f64()))
    };
    let (p, first_setup_s) = timed_prepare()?;
    let golden_failed = golden_failures(&p)?;
    let hwm_after_setup = env::peak_rss_mb();
    let m = runner::measure(args.seconds, MIN_PASSES, |_| p.run_pass());
    let last = &m.passes[m.passes.len() - 1];
    check_identity(&p, last)?;
    let rf = runner::robustness(&p, &m.passes);
    let mut info = info(&p, &m);
    info.extend([
        (
            "pass_s_samples",
            Json::nums(&m.passes.iter().map(Pass::total_s).collect::<Vec<_>>()),
        ),
        (
            "peak_rss_mb_samples",
            Json::nums(&m.passes.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>()),
        ),
        (
            "exec.work_tuples",
            Json::Num(last.counters.total_work() as f64),
        ),
        // `VmHWM` as it would read after the passes without the per-pass
        // resets: unlike `peak_rss_mb` it includes set-up and whatever the
        // allocator kept from earlier passes.
        (
            "vm_hwm_mb",
            Json::Num(
                m.passes
                    .iter()
                    .map(|p| p.peak_rss_mb)
                    .fold(hwm_after_setup, f64::max),
            ),
        ),
        ("robustness", robustness_json(&rf)),
    ]);
    let attempted = m.attempted + p.queries.len();
    let failed = m.failed + golden_failed;

    drop(p); // one copy of the data resident at a time
    let mut setup_s = vec![first_setup_s];
    while setup_s.len() < SETUPS {
        setup_s.push(timed_prepare()?.1);
    }
    info.push(("setup_s_samples", Json::nums(&setup_s)));
    Ok(Report {
        workload: spec.name,
        // The reference executions are executions too; one whose digest
        // left the golden file is a failed one.
        attempted,
        failed,
        values: runner::end_to_end(&m.passes, &setup_s),
        info: Json::obj(info),
    })
}

/// The traced run: set up once, alternate untraced and traced passes, run
/// the kernels, write the spans out.
fn traced(spec: &'static Spec, args: &RunArgs, tmp: &Path) -> Result<Report, String> {
    let p = runner::prepare(spec, args.seed, 1.0, tmp).map_err(|e| e.to_string())?;
    let golden_failed = golden_failures(&p)?;
    let mut rec = Recorder::default();
    // Pass 0 is the warm-up; odd passes are untraced, even ones traced, so
    // both kinds see the same drift.
    let m = runner::measure(args.seconds * TRACE_PASS_SHARE, 4, |i| {
        if i % 2 == 1 || i == 0 {
            p.run_pass()
        } else {
            p.run_traced_pass(&mut rec, i)
        }
    });
    let plain: Vec<Pass> = m.passes.iter().step_by(2).cloned().collect();
    let traced_nos: Vec<usize> = (1..=m.passes.len()).filter(|i| i % 2 == 0).collect();
    let last = &plain[plain.len() - 1];
    check_identity(&p, last)?;
    let layers: Vec<LayerTimes> = traced_nos
        .iter()
        .map(|&i| LayerTimes::of(&rec, i))
        .collect();
    let k = kernels::run(tmp, 1).map_err(|e| e.to_string())?;

    let out = Path::new(env::OUT_DIR).join(format!("trace-{}.json", spec.name));
    std::fs::write(&out, rec.to_json(spec.name, args.seed))
        .map_err(|e| format!("{}: {e}", out.display()))?;

    let mut info = info(&p, &m);
    info.push(("trace_file", Json::Str(out.display().to_string())));
    Ok(Report {
        workload: spec.name,
        attempted: m.attempted + p.queries.len(),
        failed: m.failed + golden_failed,
        values: per_layer(&p, &plain, &layers, &k),
        info: Json::obj(info),
    })
}

/// Every per-layer metric, in the order of `PER_LAYER`.
pub fn per_layer(
    p: &Prepared,
    plain: &[Pass],
    layers: &[LayerTimes],
    k: &kernels::Kernels,
) -> Vec<Value> {
    let c = &plain[plain.len() - 1].counters;
    let rf = runner::robustness(p, plain);
    let med = |f: fn(&LayerTimes) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let untraced_pass_s = median(&plain.iter().map(Pass::total_s).collect::<Vec<_>>());
    let traced_pass_s = med(|l| l.traced_pass_s);
    let times = [
        ("sql.parse_s", med(|l| l.parse_s)),
        ("binder.bind_s", med(|l| l.bind_s)),
        ("optimizer.order_s", med(|l| l.order_s)),
        ("planner.compile_s", med(|l| l.compile_s)),
        ("analyze.verify_s", med(|l| l.verify_s)),
        ("exec.run_s", med(|l| l.run_s)),
        ("exec.teardown_s", med(|l| l.teardown_s)),
        ("trace.replan_s", med(|l| l.replan_s)),
        ("trace.check_s", med(|l| l.check_s)),
        ("trace.unattributed_s", med(|l| l.unattributed_s)),
        ("trace.traced_pass_s", traced_pass_s),
        ("trace.untraced_pass_s", untraced_pass_s),
        ("trace.attributed_share", med(LayerTimes::attributed_share)),
    ];
    let counts = [
        ("exec.work_tuples", c.total_work() as f64),
        ("exec.intermediate_tuples", c.intermediate_tuples as f64),
        ("exec.join_output_rows", c.join_output_rows as f64),
        ("transfer.bloom_s", c.bloom_nanos as f64 * 1e-9),
        ("transfer.build_rows", c.bloom_build_rows as f64),
        (
            "transfer.probe_pass_ratio",
            runner::ratio(c.bloom_probe_out, c.bloom_probe_in),
        ),
        ("join.hash_build_rows", c.hash_build_rows as f64),
        ("join.probe_rows", c.join_probe_in as f64),
        (
            "storage.blocks_pruned_ratio",
            runner::blocks_pruned_ratio(c),
        ),
        ("storage.scan_rows", c.scan_rows as f64),
        ("agg.fast_path_share", runner::agg_fast_share(c)),
        ("sort.rows_pruned", c.sort_rows_pruned as f64),
        ("sort.merge_tasks", c.sort_merge_tasks as f64),
        (
            "sched.utilization",
            runner::ratio(c.sched_busy_nanos, c.sched_wall_nanos),
        ),
        ("sched.tasks", c.sched_tasks as f64),
        ("sched.overlap_tasks", c.sched_overlap_tasks as f64),
        ("sched.max_queue_depth", c.sched_max_queue_depth as f64),
        ("sched.merge_max_task_rows", c.merge_max_task_rows as f64),
        ("spill.bytes_written", c.spill_bytes_written as f64),
        ("spill.bytes_read", c.spill_bytes_read as f64),
        (
            "spill.prefetch_hit_ratio",
            runner::ratio(
                c.spill_prefetch_hits,
                c.spill_prefetch_hits + c.spill_prefetch_misses,
            ),
        ),
        ("spill.evictions", c.spill_victim_evictions as f64),
        ("robustness.rf_time_geomean", rf.time_geomean),
        ("robustness.rf_time_max", rf.time_max),
        ("robustness.rf_work_geomean", rf.work_geomean),
        ("robustness.rf_work_max", rf.work_max),
        ("robustness.rf_work_max.leftdeep", rf.work_max_leftdeep),
        ("robustness.rf_work_max.bushy", rf.work_max_bushy),
        ("trace.overhead_ratio", traced_pass_s / untraced_pass_s),
    ];
    let kernel = [
        ("bloom.insert_ns_per_key.small", k.bloom_insert_ns_small),
        ("bloom.insert_ns_per_key.large", k.bloom_insert_ns_large),
        ("bloom.probe_ns_per_key.small", k.bloom_probe_ns_small),
        ("bloom.probe_ns_per_key.large", k.bloom_probe_ns_large),
        ("hash.ns_per_row.int64", k.hash_ns_int64),
        ("hash.ns_per_row.int64_dict", k.hash_ns_int64_dict),
        ("join.build_ns_per_row", k.join_build_ns),
        ("join.probe_ns_per_row", k.join_probe_ns),
        ("storage.encode_mrows_per_s", k.storage_encode_mrows_s),
        ("storage.decode_mrows_per_s", k.storage_decode_mrows_s),
        ("storage.bytes_per_raw_byte", k.storage_bytes_per_raw_byte),
        ("agg.update_ns_per_row.fast", k.agg_update_ns_fast),
        ("agg.update_ns_per_row.generic", k.agg_update_ns_generic),
        ("spill.write_mb_per_s", k.spill_write_mb_s),
        ("spill.read_mb_per_s", k.spill_read_mb_s),
        ("spill.bytes_per_raw_byte", k.spill_bytes_per_raw_byte),
    ];
    let mut by_name: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    by_name.extend(times.map(|(n, v)| (n, (v, layers.len()))));
    by_name.extend(counts.map(|(n, v)| (n, (v, 1))));
    by_name.extend(kernel.map(|(n, v)| (n, (v, 3))));
    PER_LAYER
        .iter()
        .map(|m| {
            let (value, n) = by_name
                .get(m.name)
                .copied()
                .unwrap_or_else(|| panic!("per-layer metric {} is not computed", m.name));
            Value {
                name: m.name,
                value,
                unit: m.unit,
                n,
            }
        })
        .collect()
}

/// One run of one workload.
pub fn single(args: &RunArgs) -> Result<Report, String> {
    let spec = find_spec(&args.workload)?;
    let removed = env::scrub_rpt_env();
    if !removed.is_empty() {
        eprintln!("removed from the environment: {}", removed.join(" "));
    }
    let tmp = env::private_tmp_dir().map_err(|e| format!("scratch directory: {e}"))?;
    let report = if args.trace {
        traced(spec, args, &tmp)
    } else {
        untraced(spec, args, &tmp)
    };
    // The scratch directory goes whether or not the run succeeded.
    std::fs::remove_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    report
}

/// Prints the report; the result line goes last.
pub fn print(report: &Report) {
    println!(
        "# {} {}",
        report.workload,
        report
            .info
            .get("options")
            .and_then(Json::as_str)
            .unwrap_or("")
    );
    for d in report.info.get("datasets").map_or(&[][..], Json::as_arr) {
        println!("# {} dataset {}", report.workload, d.compact());
    }
    print!("{}", report.metric_lines());
    println!("info {}", report.info.compact());
    println!("{}", report.result_line());
}

/// Start `--workload <name>` in a fresh process of this executable and
/// parse what it printed.
fn child(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{name}: run exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    let result = text.lines().last().ok_or("no output")?;
    let info = text
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("info "))
        .ok_or("no info line")?;
    Ok((Json::parse(result)?, Json::parse(info)?))
}

pub struct AllArgs {
    pub seed: u64,
    pub seconds: f64,
    pub runs: usize,
    pub trace: bool,
    pub out: PathBuf,
}

fn metric_values(results: &[Json], name: &str) -> Vec<f64> {
    results
        .iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

/// Print one metric's median over the runs of a workload, and return it
/// with the values as they go into the results file.
fn collect(workload: &str, results: &[Json], name: &str, unit: &str) -> (f64, Json) {
    let values = metric_values(results, name);
    let median = median(&values);
    println!(
        "{workload} {name} {median} {unit} n={} spread={:.4}",
        values.len(),
        spread(&values)
    );
    let entry = Json::obj([("unit", Json::str(unit)), ("values", Json::nums(&values))]);
    (median, entry)
}

fn sum_of(results: &[Json], key: &str) -> f64 {
    results
        .iter()
        .filter_map(|r| r.get(key)?.as_f64())
        .sum::<f64>()
}

/// `run --all`: every workload, each run in a fresh process so that
/// `peak_rss_mb` is the workload's own; writes the results file and prints
/// one line per metric.
pub fn all(args: &AllArgs) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut geomean_ms = BTreeMap::new();
    let mut all_correct = true;
    for spec in &SPECS {
        let mut results = Vec::new();
        let mut layer_results = Vec::new();
        let mut last_info = Json::Null;
        for _ in 0..args.runs {
            let (result, info) = child(spec.name, args.seed, args.seconds, false)?;
            results.push(result);
            last_info = info;
            if args.trace {
                layer_results.push(child(spec.name, args.seed, args.seconds, true)?.0);
            }
        }
        let failed = sum_of(&results, "failed") + sum_of(&layer_results, "failed");
        all_correct &= failed == 0.0;
        let mut end_to_end = Vec::new();
        for m in &END_TO_END {
            let (median, values) = collect(spec.name, &results, m.name, m.unit);
            if m.name == "query_geomean_ms" {
                geomean_ms.insert(spec.name, median);
            }
            end_to_end.push((m.name, values));
        }
        let mut per_layer = Vec::new();
        for m in PER_LAYER.iter().filter(|_| args.trace) {
            per_layer.push((m.name, collect(spec.name, &layer_results, m.name, m.unit).1));
        }
        workloads.push((
            spec.name,
            Json::obj([
                ("why", Json::str(spec.why)),
                ("attempted", Json::Num(sum_of(&results, "attempted"))),
                ("failed", Json::Num(failed)),
                ("info", last_info),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }
    // Not gated: the paper's Table 3 number, from two workloads' medians.
    let speedup = geomean_ms["corpus-baseline"] / geomean_ms["corpus-rpt"];
    println!(
        "derived paper.speedup_geomean {speedup} ratio (base corpus-baseline.query_geomean_ms = {} ms)",
        geomean_ms["corpus-baseline"]
    );
    let file = Json::obj([
        ("machine", env::machine_stamp()),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("runs", Json::Num(args.runs as f64)),
        (
            "derived",
            Json::obj([("paper.speedup_geomean", Json::Num(speedup))]),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, file.pretty()).map_err(|e| format!("{}: {e}", args.out.display()))?;
    println!("wrote {}", args.out.display());
    Ok(all_correct)
}

/// `golden`: rewrite the checked-in digests from the references of `seed`.
pub fn write_golden(seed: u64) -> Result<(), String> {
    env::scrub_rpt_env();
    let tmp = env::private_tmp_dir().map_err(|e| e.to_string())?;
    for spec in &SPECS {
        let p = runner::prepare(spec, seed, 1.0, &tmp).map_err(|e| e.to_string())?;
        let path = golden_path(spec.name);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        let json = check::golden_json(seed, 1.0, &p.query_ids(), &p.references);
        std::fs::write(&path, json.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    std::fs::remove_dir_all(&tmp).map_err(|e| e.to_string())
}
