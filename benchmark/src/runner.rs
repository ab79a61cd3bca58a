//! Setup, the closed measurement loop (one client, one query at a time), and
//! the end-to-end metrics computed from it.

use crate::check::Reference;
use crate::env;
use crate::metrics::Value;
use crate::stats::{geomean, median, percentile};
use crate::workloads::{self, Item, OrderKind, Query, QuerySet, Spec};
use rpt_common::Result;
use rpt_core::{Database, Mode, QueryResult};
use rpt_exec::MetricsSummary;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A random order may do this many times the work of the Baseline
/// optimizer plan before it is aborted and counted as failed.
const BUDGET_FACTOR: u64 = 1000;

pub struct Dataset {
    pub name: &'static str,
    pub sf: f64,
    pub rows: usize,
}

/// A workload ready to run: data registered and block-encoded, reference
/// results computed, per-item options resolved.
pub struct Prepared {
    pub spec: &'static Spec,
    pub seed: u64,
    pub scale: f64,
    pub nproc: usize,
    pub datasets: Vec<Dataset>,
    pub dbs: Vec<Database>,
    pub queries: Vec<Query>,
    pub items: Vec<Item>,
    pub references: Vec<Reference>,
    pub tmp: PathBuf,
}

/// Everything `setup_s` times: generate the tables for `seed`, register
/// them (which computes statistics), build every table's block encoding,
/// and compute the reference result of every query with `Mode::Baseline`,
/// one thread, one partition, no memory budget. `scale` multiplies every
/// scale factor; only the self-tests pass anything but 1.
pub fn prepare(spec: &'static Spec, seed: u64, scale: f64, tmp: &Path) -> Result<Prepared> {
    let nproc = env::nproc();
    let generated: Vec<_> = spec
        .data
        .iter()
        .map(|&(gen, sf)| (gen, gen.generate(sf * scale, seed)))
        .collect();
    let queries = workloads::queries(spec, &generated);

    let mut datasets = Vec::new();
    let mut dbs = Vec::new();
    for (&(gen, sf), (_, workload)) in spec.data.iter().zip(generated) {
        datasets.push(Dataset {
            name: gen.name(),
            sf: sf * scale,
            rows: workload.total_rows(),
        });
        let mut db = Database::new();
        for table in workload.tables {
            db.register_table(table);
        }
        for name in db.catalog().table_names() {
            db.catalog().get(name)?.table.encoded();
        }
        dbs.push(db);
    }

    let mut reference_opts = spec.options(Mode::Baseline, 1, tmp);
    reference_opts.partition_count = 1;
    reference_opts.memory_budget_bytes = None;
    let references = queries
        .iter()
        .map(|q| {
            let r = dbs[q.dataset].query(&q.sql, &reference_opts)?;
            let work = r.work();
            Ok(Reference::new(r.rows, q.ordered, work))
        })
        .collect::<Result<Vec<_>>>()?;

    let budgets: Vec<u64> = references
        .iter()
        .map(|r| r.work.max(1).saturating_mul(BUDGET_FACTOR))
        .collect();
    let items = workloads::items(spec, &queries, &dbs, &budgets, seed, nproc, tmp)?;
    Ok(Prepared {
        spec,
        seed,
        scale,
        nproc,
        datasets,
        dbs,
        queries,
        items,
        references,
        tmp: tmp.to_path_buf(),
    })
}

impl Prepared {
    pub fn query_ids(&self) -> Vec<String> {
        self.queries.iter().map(|q| q.id.clone()).collect()
    }

    /// The options of the first execution of a pass, every field of them,
    /// as the engine will see them.
    pub fn options_line(&self) -> String {
        format!("{:?}", self.items[0].opts)
    }
}

/// One pass over the item list.
#[derive(Default, Clone)]
pub struct Pass {
    /// Seconds per item: the call that produced the result plus dropping
    /// the result; the check between the two is not timed.
    pub latencies: Vec<f64>,
    /// `QueryResult::work()` per item; the budget where it was exhausted.
    pub works: Vec<u64>,
    /// Engine counters summed over the pass (maxima for the `max_*` ones).
    pub counters: MetricsSummary,
    /// Sum of `QueryResult::wall_time`.
    pub run_s: f64,
    pub failed: usize,
    /// Peak resident size of the process during the pass (`VmHWM`, reset
    /// when the pass starts; the peak so far where it cannot be reset).
    pub peak_rss_mb: f64,
}

impl Pass {
    pub fn total_s(&self) -> f64 {
        self.latencies.iter().sum()
    }
}

fn accumulate(total: &mut MetricsSummary, m: &MetricsSummary) {
    total.scan_rows += m.scan_rows;
    total.bloom_probe_in += m.bloom_probe_in;
    total.bloom_probe_out += m.bloom_probe_out;
    total.bloom_build_rows += m.bloom_build_rows;
    total.hash_build_rows += m.hash_build_rows;
    total.join_probe_in += m.join_probe_in;
    total.join_output_rows += m.join_output_rows;
    total.intermediate_tuples += m.intermediate_tuples;
    total.bloom_nanos += m.bloom_nanos;
    total.merge_max_task_rows = total.merge_max_task_rows.max(m.merge_max_task_rows);
    total.sched_tasks += m.sched_tasks;
    total.sched_overlap_tasks += m.sched_overlap_tasks;
    total.sched_max_queue_depth = total.sched_max_queue_depth.max(m.sched_max_queue_depth);
    total.sched_busy_nanos += m.sched_busy_nanos;
    total.sched_wall_nanos += m.sched_wall_nanos;
    total.sched_workers = total.sched_workers.max(m.sched_workers);
    total.agg_fast_path_chunks += m.agg_fast_path_chunks;
    total.agg_generic_chunks += m.agg_generic_chunks;
    total.blocks_pruned += m.blocks_pruned;
    total.blocks_scanned += m.blocks_scanned;
    total.sort_rows_pruned += m.sort_rows_pruned;
    total.sort_merge_tasks += m.sort_merge_tasks;
    total.spill_bytes_written += m.spill_bytes_written;
    total.spill_bytes_read += m.spill_bytes_read;
    total.spill_prefetch_hits += m.spill_prefetch_hits;
    total.spill_prefetch_misses += m.spill_prefetch_misses;
    total.spill_victim_evictions += m.spill_victim_evictions;
}

impl Prepared {
    /// Book one finished execution into `pass`: check the rows against the
    /// reference (untimed), time the drop, look for a leaked spill run.
    /// `call_s` is the time the call that produced `result` took.
    pub fn settle(&self, item: &Item, result: Result<QueryResult>, call_s: f64, pass: &mut Pass) {
        let mut ok = false;
        let mut latency = call_s;
        let mut work = item.opts.work_budget.unwrap_or(0);
        match result {
            Ok(r) => {
                ok = self.references[item.query].matches(&r.rows);
                work = r.work();
                accumulate(&mut pass.counters, &r.metrics);
                pass.run_s += r.wall_time.as_secs_f64();
                let t = Instant::now();
                drop(black_box(r));
                latency += t.elapsed().as_secs_f64();
            }
            Err(e) => eprintln!(
                "[{}] {} failed: {e}",
                self.spec.name, self.queries[item.query].id
            ),
        }
        if env::take_leftover_spill_files(&self.tmp) > 0 {
            eprintln!(
                "[{}] {} left a spill file behind",
                self.spec.name, self.queries[item.query].id
            );
            ok = false;
        }
        pass.latencies.push(latency);
        pass.works.push(work);
        pass.failed += usize::from(!ok);
    }

    /// One untraced pass: `Database::query` per item.
    pub fn run_pass(&self) -> Pass {
        let mut pass = Pass::default();
        env::reset_peak_rss();
        for item in &self.items {
            let q = &self.queries[item.query];
            let t = Instant::now();
            let result = black_box(self.dbs[q.dataset].query(&q.sql, &item.opts));
            let call_s = t.elapsed().as_secs_f64();
            self.settle(item, result, call_s, &mut pass);
        }
        pass.peak_rss_mb = env::peak_rss_mb();
        pass
    }
}

/// What a run measured: the timed passes, and how many executions were
/// attempted and failed including the warm-up pass.
pub struct Measurement {
    pub passes: Vec<Pass>,
    pub attempted: usize,
    pub failed: usize,
}

/// Loops `pass` (the first call is the untimed warm-up) until `seconds`
/// have gone by and at least `min_passes` timed passes are in.
pub fn measure(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> Pass,
) -> Measurement {
    let start = Instant::now();
    let warm_up = pass(0);
    let mut m = Measurement {
        passes: Vec::new(),
        attempted: warm_up.latencies.len(),
        failed: warm_up.failed,
    };
    loop {
        let one = pass(m.passes.len() + 1);
        m.attempted += one.latencies.len();
        m.failed += one.failed;
        let last_s = one.total_s();
        m.passes.push(one);
        // Stop when another pass like the last would overrun the window.
        let over = start.elapsed().as_secs_f64() + last_s > seconds;
        if m.passes.len() >= min_passes && over {
            return m;
        }
    }
}

/// Latencies of item `i` across passes, in milliseconds.
fn item_ms(passes: &[Pass], i: usize) -> Vec<f64> {
    passes.iter().map(|p| p.latencies[i] * 1e3).collect()
}

/// The end-to-end metrics of a run, in the order of `metrics::END_TO_END`.
pub fn end_to_end(passes: &[Pass], setup_s: &[f64]) -> Vec<Value> {
    let n_items = passes[0].latencies.len();
    let pass_s: Vec<f64> = passes.iter().map(Pass::total_s).collect();
    let per_item: Vec<f64> = (0..n_items).map(|i| median(&item_ms(passes, i))).collect();
    let pooled: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies.iter().map(|l| l * 1e3))
        .collect();
    vec![
        Value {
            name: "pass_s",
            value: median(&pass_s),
            unit: "s",
            n: pass_s.len(),
        },
        Value {
            name: "query_geomean_ms",
            value: geomean(&per_item),
            unit: "ms",
            n: per_item.len(),
        },
        Value {
            name: "query_p95_ms",
            value: percentile(&pooled, 95.0),
            unit: "ms",
            n: pooled.len(),
        },
        Value {
            name: "peak_rss_mb",
            // The least any pass needed: a pass that peaks higher than
            // another over the same work holds memory the allocator kept,
            // and which passes do differs from run to run.
            value: passes
                .iter()
                .map(|p| p.peak_rss_mb)
                .fold(f64::INFINITY, f64::min),
            unit: "MiB",
            n: passes.len(),
        },
        Value {
            name: "setup_s",
            value: median(setup_s),
            unit: "s",
            n: setup_s.len(),
        },
    ]
}

/// The paper's robustness factors over the random orders of each query.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Robustness {
    /// Geomean over queries of max/min over orders of the per-order median
    /// latency.
    pub time_geomean: f64,
    pub time_max: f64,
    /// Same over `QueryResult::work()`, a count that repeats exactly.
    pub work_geomean: f64,
    pub work_max: f64,
    pub work_max_leftdeep: f64,
    pub work_max_bushy: f64,
}

fn max_over_min(values: impl Iterator<Item = f64>) -> Option<f64> {
    let (min, max) = values.fold((f64::INFINITY, 0.0f64), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    });
    (min > 0.0 && min.is_finite()).then(|| max / min)
}

/// All zero on workloads that run one plan per query.
pub fn robustness(p: &Prepared, passes: &[Pass]) -> Robustness {
    if !matches!(p.spec.queries, QuerySet::RandomOrders { .. }) {
        return Robustness::default();
    }
    let works = &passes[passes.len() - 1].works;
    let mut time = Vec::new();
    let mut work = Vec::new();
    let (mut left_deep, mut bushy) = (0.0f64, 0.0f64);
    for q in 0..p.queries.len() {
        let of_kind = |kind: Option<OrderKind>| {
            p.items
                .iter()
                .enumerate()
                .filter(move |(_, it)| it.query == q && kind.is_none_or(|k| it.kind == k))
                .map(|(i, _)| i)
        };
        time.extend(max_over_min(
            of_kind(None).map(|i| median(&item_ms(passes, i))),
        ));
        work.extend(max_over_min(of_kind(None).map(|i| works[i] as f64)));
        let kind_max = |k| max_over_min(of_kind(Some(k)).map(|i| works[i] as f64)).unwrap_or(0.0);
        left_deep = left_deep.max(kind_max(OrderKind::LeftDeep));
        bushy = bushy.max(kind_max(OrderKind::Bushy));
    }
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    Robustness {
        time_geomean: geomean(&time),
        time_max: max(&time),
        work_geomean: geomean(&work),
        work_max: max(&work),
        work_max_leftdeep: left_deep,
        work_max_bushy: bushy,
    }
}

/// Share of aggregate chunks that took the fixed-width fast path.
pub fn agg_fast_share(c: &MetricsSummary) -> f64 {
    ratio(
        c.agg_fast_path_chunks,
        c.agg_fast_path_chunks + c.agg_generic_chunks,
    )
}

/// Share of candidate blocks that zone maps or Bloom key ranges skipped.
pub fn blocks_pruned_ratio(c: &MetricsSummary) -> f64 {
    ratio(c.blocks_pruned, c.blocks_pruned + c.blocks_scanned)
}

pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// What makes each workload the workload its `why` says it is. A violated
/// line fails the run rather than showing up as a slower or faster metric:
/// the numbers of a workload that lost its identity mean something else.
pub fn identity_violations(p: &Prepared, pass: &Pass) -> Vec<String> {
    let c = &pass.counters;
    let mut bad = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };
    let spilled = c.spill_bytes_written;
    match p.spec.name {
        "spill" => require(spilled > 0, "spill: spill.bytes_written = 0".into()),
        name => require(
            spilled == 0,
            format!("{name}: spill.bytes_written = {spilled}, expected 0"),
        ),
    }
    match p.spec.name {
        "corpus-baseline" => require(
            c.bloom_build_rows == 0,
            format!(
                "corpus-baseline: transfer.build_rows = {}",
                c.bloom_build_rows
            ),
        ),
        "corpus-rpt" => {
            let share = c.bloom_nanos as f64 * 1e-9 / pass.run_s;
            require(
                share >= 0.10,
                format!("corpus-rpt: transfer.bloom_s / exec.run_s = {share:.3} < 0.10"),
            );
        }
        "scan-agg-sort" => {
            require(
                c.blocks_pruned > 0,
                "scan-agg-sort: storage.blocks_pruned_ratio = 0".into(),
            );
            let share = agg_fast_share(c);
            require(
                share > 0.0 && share < 1.0,
                format!("scan-agg-sort: agg.fast_path_share = {share}, expected inside (0, 1)"),
            );
        }
        "parallel" => require(
            c.sched_tasks > 0 && c.sched_workers == p.nproc as u64,
            format!(
                "parallel: sched.tasks = {}, workers = {} of nproc {}",
                c.sched_tasks, c.sched_workers, p.nproc
            ),
        ),
        _ => {}
    }
    bad
}
