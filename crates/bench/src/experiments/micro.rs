//! Figure 16 (Bloom probe vs hash probe microbenchmark) and the ablation
//! experiments for the design choices DESIGN.md calls out.

use crate::config::Config;
use crate::util::{database_for, render_table};
use rpt_bloom::BloomFilter;
use rpt_common::Result;
use rpt_core::{Mode, QueryOptions};
use std::time::Instant;

// --------------------------------------------------------------- Figure 16

/// One sweep point: build-side size vs probe throughput.
pub struct Fig16Row {
    pub build_rows: usize,
    pub hash_probe_secs: f64,
    pub bloom_probe_secs: f64,
    /// Batched Bloom probe (the branch-free block test, compiled for AVX2
    /// where the CPU has it) — the paper's "SIMD Bloom Probe" series.
    pub bloom_batched_secs: f64,
    pub hash_table_bytes: usize,
    pub bloom_bytes: usize,
}

/// Figure 16: fix the probe side, sweep the build side over powers of two.
/// Keys are uniform in `0..2^30` like the paper's microbenchmark.
///
/// Both sides measure the *engine's* code paths: the hash side probes a
/// real `JoinHashTable` (hash → directory slot → chain walk with key
/// comparison, exactly what a semi-join or hash join pays per tuple); the
/// Bloom side runs the `ProbeBF` path (vectorized hash → batch probe
/// straight into a selection vector). Chunked at the engine's 2048-row
/// vector size.
pub fn fig16_bloom_micro(probe_rows: usize, max_build_log2: u32) -> Vec<Fig16Row> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rpt_common::chunk::VECTOR_SIZE;
    use rpt_common::hash::hash_columns;
    use rpt_common::{DataChunk, Vector};
    use rpt_exec::JoinHashTable;

    let mut rng = StdRng::seed_from_u64(16);
    let probe_keys: Vec<i64> = (0..probe_rows)
        .map(|_| rng.gen_range(0..1i64 << 30))
        .collect();
    // Pre-split the probe side into engine-sized chunks.
    let probe_chunks: Vec<DataChunk> = probe_keys
        .chunks(VECTOR_SIZE)
        .map(|c| DataChunk::new(vec![Vector::from_i64(c.to_vec())]))
        .collect();

    let mut out = Vec::new();
    let mut log2 = 7; // 128
    while log2 <= max_build_log2 {
        let n = 1usize << log2;
        let build_keys: Vec<i64> = (0..n).map(|_| rng.gen_range(0..1i64 << 30)).collect();

        // Engine hash table (chained directory + key verification).
        let ht = JoinHashTable::build(
            &[DataChunk::new(vec![Vector::from_i64(build_keys.clone())])],
            vec![0],
        )
        .expect("build hash table");
        let t0 = Instant::now();
        let mut survivors = 0usize;
        for c in &probe_chunks {
            survivors += ht.semi_probe(c, &[0]).len();
        }
        let hash_probe_secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(survivors);

        // Engine Bloom filter (scalar early-exit and batched paths).
        let mut bf = BloomFilter::with_default_fpr(n);
        for &k in &build_keys {
            bf.insert_i64(k);
        }
        let t0 = Instant::now();
        let mut hits = 0u64;
        for &k in &probe_keys {
            hits += bf.probe_i64(k) as u64;
        }
        let bloom_probe_secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(hits);

        let t0 = Instant::now();
        let mut survivors = 0usize;
        let mut sel = Vec::with_capacity(VECTOR_SIZE);
        for c in &probe_chunks {
            let cols: Vec<&Vector> = c.columns.iter().collect();
            let hashes = hash_columns(&cols, c.num_rows());
            sel.clear();
            bf.probe_hashes_sel(&hashes, None, &mut sel);
            survivors += sel.len();
        }
        let bloom_batched_secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(survivors);

        out.push(Fig16Row {
            build_rows: n,
            hash_probe_secs,
            bloom_probe_secs,
            bloom_batched_secs,
            hash_table_bytes: n * 16 + n * 4, // hash map entries + bucket ids
            bloom_bytes: bf.size_bytes(),
        });
        log2 += 1;
    }
    out
}

pub fn print_fig16(rows: &[Fig16Row]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.build_rows),
                format!("{:.4}", r.hash_probe_secs),
                format!("{:.4}", r.bloom_probe_secs),
                format!("{:.4}", r.bloom_batched_secs),
                format!("{:.1}", r.hash_probe_secs / r.bloom_batched_secs.max(1e-9)),
                format!("{}", r.hash_table_bytes),
                format!("{}", r.bloom_bytes),
            ]
        })
        .collect();
    render_table(
        &[
            "build rows",
            "hash probe s",
            "bloom probe s",
            "bloom batch s",
            "speedup",
            "HT bytes",
            "BF bytes",
        ],
        &table,
    )
}

// --------------------------------------------------------------- Ablations

/// Ablation rows: per query, work with a feature on vs off.
pub struct AblationRow {
    pub query: String,
    pub on_work: u64,
    pub off_work: u64,
}

/// Ablation 2 (DESIGN.md): §4.3 backward-pass skipping when the join order
/// aligns with the join tree. The skip only fires on *aligned* orders
/// (root-first tree traversals), so the ablation executes the LargestRoot
/// insertion order explicitly — the same order Yannakakis' join phase uses.
pub fn ablation_backward_pass(cfg: &Config) -> Result<Vec<AblationRow>> {
    use rpt_core::JoinOrder;
    let w = rpt_workloads::tpch(cfg.sf, cfg.seed);
    let db = database_for(&w);
    let mut out = Vec::new();
    for qd in w.acyclic_queries() {
        if qd.num_joins < 2 {
            continue;
        }
        let q = db.bind_sql(&qd.sql)?;
        let graph = q.graph();
        let Some(tree) = rpt_graph::largest_root(&graph) else {
            continue;
        };
        let aligned = JoinOrder::LeftDeep(tree.insertion_order.clone());
        let mut on = QueryOptions::new(Mode::RobustPredicateTransfer).with_order(aligned.clone());
        on.prune_backward = true;
        let mut off = QueryOptions::new(Mode::RobustPredicateTransfer).with_order(aligned);
        off.prune_backward = false;
        let r_on = db.execute(&q, &on)?;
        let r_off = db.execute(&q, &off)?;
        out.push(AblationRow {
            query: qd.id.clone(),
            on_work: r_on.work(),
            off_work: r_off.work(),
        });
    }
    Ok(out)
}

/// Ablation 3: trivial PK-side semi-join pruning.
pub fn ablation_pruning(cfg: &Config) -> Result<Vec<AblationRow>> {
    let w = rpt_workloads::tpch(cfg.sf, cfg.seed);
    let db = database_for(&w);
    let mut out = Vec::new();
    for qd in w.acyclic_queries() {
        if qd.num_joins < 2 {
            continue;
        }
        let q = db.bind_sql(&qd.sql)?;
        let mut on = QueryOptions::new(Mode::RobustPredicateTransfer);
        on.prune_trivial = true;
        let mut off = on.clone();
        off.prune_trivial = false;
        let r_on = db.execute(&q, &on)?;
        let r_off = db.execute(&q, &off)?;
        out.push(AblationRow {
            query: qd.id.clone(),
            on_work: r_on.work(),
            off_work: r_off.work(),
        });
    }
    Ok(out)
}

/// Ablation 4: Bloom filter FPR sweep — join-phase output rows (false
/// positives survive the transfer phase and get eliminated in the joins)
/// vs filter memory.
pub struct FprRow {
    pub fpr: f64,
    pub work: u64,
    pub join_output_rows: u64,
    /// Rows surviving Bloom probes (grows with the false-positive rate).
    pub bloom_survivors: u64,
}

pub fn ablation_fpr(cfg: &Config) -> Result<Vec<FprRow>> {
    let w = rpt_workloads::job(cfg.sf, cfg.seed);
    let db = database_for(&w);
    let qd = w.query("3a").expect("JOB 3a exists");
    let q = db.bind_sql(&qd.sql)?;
    let mut out = Vec::new();
    for fpr in [0.001, 0.01, 0.02, 0.1, 0.3, 0.49] {
        let mut opts = QueryOptions::new(Mode::RobustPredicateTransfer);
        opts.bloom_fpr = fpr;
        let r = db.execute(&q, &opts)?;
        out.push(FprRow {
            fpr,
            work: r.work(),
            join_output_rows: r.metrics.join_output_rows,
            bloom_survivors: r.metrics.bloom_probe_out,
        });
    }
    Ok(out)
}

/// Extension experiment (§5.1.3 made concrete): on the *cyclic* TPC-DS
/// templates, compare the worst random-order baseline against the hybrid
/// RPT+WCOJ executor, which has no join order at all.
pub struct HybridRow {
    pub query: String,
    pub baseline_best: u64,
    pub baseline_worst: u64,
    pub rpt_worst: u64,
    pub hybrid_work: u64,
}

pub fn hybrid_cyclic(cfg: &Config) -> Result<Vec<HybridRow>> {
    use rpt_core::{random_left_deep, JoinOrder};
    let w = rpt_workloads::tpcds(cfg.sf, cfg.seed);
    let db = database_for(&w);
    let mut out = Vec::new();
    for qd in w.queries.iter().filter(|q| q.cyclic) {
        let q = db.bind_sql(&qd.sql)?;
        let graph = q.graph();
        let n = 8;
        let run_orders = |mode: Mode| -> Result<(u64, u64)> {
            let mut best = u64::MAX;
            let mut worst = 0u64;
            for i in 0..n {
                let order =
                    JoinOrder::LeftDeep(random_left_deep(&graph, cfg.seed.wrapping_add(i as u64)));
                let r = db.execute(&q, &QueryOptions::new(mode).with_order(order))?;
                best = best.min(r.work());
                worst = worst.max(r.work());
            }
            Ok((best, worst))
        };
        let (b_best, b_worst) = run_orders(Mode::Baseline)?;
        let (_, rpt_worst) = run_orders(Mode::RobustPredicateTransfer)?;
        let hybrid = db.execute(&q, &QueryOptions::new(Mode::Hybrid))?;
        out.push(HybridRow {
            query: qd.id.clone(),
            baseline_best: b_best,
            baseline_worst: b_worst,
            rpt_worst,
            hybrid_work: hybrid.work(),
        });
    }
    Ok(out)
}

pub fn print_hybrid(rows: &[HybridRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.query.clone(),
                format!("{}", r.baseline_best),
                format!("{}", r.baseline_worst),
                format!("{}", r.rpt_worst),
                format!("{}", r.hybrid_work),
            ]
        })
        .collect();
    render_table(
        &[
            "cyclic query",
            "base best",
            "base worst",
            "RPT worst",
            "RPT+WCOJ",
        ],
        &table,
    )
}

/// Motivation experiment: how much does each executor suffer when the
/// optimizer's cardinality estimates are corrupted? (§1/§2.1: real
/// optimizers mis-estimate by orders of magnitude at ≥5 joins; the paper's
/// thesis is that RPT makes the executor tolerant of exactly this.)
///
/// For each noise level σ we re-run every query with the optimizer's plan
/// chosen under `exp(σ·z)`-multiplied estimates, and report the geomean
/// slowdown relative to the noise-free plan, per mode.
pub struct NoiseRow {
    pub sigma: f64,
    /// mode label → geomean work ratio (noisy plan / clean plan).
    pub degradation: Vec<(&'static str, f64)>,
}

pub fn ce_noise_tolerance(cfg: &Config) -> Result<Vec<NoiseRow>> {
    let w = rpt_workloads::tpch(cfg.sf, cfg.seed);
    let db = database_for(&w);
    let modes = [Mode::Baseline, Mode::RobustPredicateTransfer];
    let mut out = Vec::new();
    for sigma in [0.0, 1.0, 2.0, 4.0] {
        let mut degradation = Vec::new();
        for mode in modes {
            let mut ratios = Vec::new();
            for qd in w.acyclic_queries() {
                if qd.num_joins < 2 {
                    continue;
                }
                let q = db.bind_sql(&qd.sql)?;
                let clean = db.execute(&q, &QueryOptions::new(mode))?.work() as f64;
                // Average over a few noise seeds so one lucky plan doesn't
                // hide the effect.
                let mut noisy_sum = 0.0;
                let seeds = 3;
                for seed in 0..seeds {
                    let mut opts = QueryOptions::new(mode);
                    opts.ce_noise = Some((cfg.seed.wrapping_add(seed), sigma));
                    noisy_sum += db.execute(&q, &opts)?.work() as f64;
                }
                ratios.push((noisy_sum / seeds as f64) / clean.max(1.0));
            }
            degradation.push((mode.label(), crate::util::geomean(&ratios)));
        }
        out.push(NoiseRow { sigma, degradation });
    }
    Ok(out)
}

pub fn print_noise(rows: &[NoiseRow]) -> String {
    let mut table = Vec::new();
    for r in rows {
        let mut cells = vec![format!("{:.1}", r.sigma)];
        for (_, d) in &r.degradation {
            cells.push(format!("{d:.3}"));
        }
        table.push(cells);
    }
    let mut headers = vec!["sigma"];
    let labels: Vec<&str> = rows
        .first()
        .map(|r| r.degradation.iter().map(|(l, _)| *l).collect())
        .unwrap_or_default();
    headers.extend(labels);
    render_table(&headers, &table)
}

pub fn print_ablation(rows: &[AblationRow], label: &str) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.query.clone(),
                format!("{}", r.on_work),
                format!("{}", r.off_work),
                format!("{:.3}", r.off_work as f64 / r.on_work.max(1) as f64),
            ]
        })
        .collect();
    format!(
        "{label}\n{}",
        render_table(&["query", "on", "off", "off/on"], &table)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bloom_micro_shape() {
        // Unit tests run unoptimized, so we only check structural claims
        // here; the timing claim (Bloom probe beats hash probe, gap grows
        // with build size) is verified by the release-mode Criterion bench
        // `fig16_bloom_micro`.
        let rows = fig16_bloom_micro(50_000, 13);
        assert!(rows.len() >= 5);
        for r in &rows {
            // Bloom filters stay much smaller than hash tables.
            assert!(r.bloom_bytes < r.hash_table_bytes, "at {}", r.build_rows);
            assert!(r.hash_probe_secs > 0.0 && r.bloom_batched_secs > 0.0);
        }
        // Sizes double along the sweep.
        assert_eq!(rows[1].build_rows, rows[0].build_rows * 2);
    }

    #[test]
    fn pruning_reduces_or_equal_work() {
        let cfg = Config::tiny();
        let rows = ablation_pruning(&cfg).unwrap();
        // Pruning must never *increase* work dramatically; usually reduces.
        for r in &rows {
            assert!(
                r.on_work <= r.off_work * 11 / 10,
                "{}: pruning on {} off {}",
                r.query,
                r.on_work,
                r.off_work
            );
        }
    }

    #[test]
    fn rpt_tolerates_ce_noise_better() {
        let mut cfg = Config::tiny();
        cfg.sf = 0.05;
        let rows = ce_noise_tolerance(&cfg).unwrap();
        // At the highest noise level, the baseline's degradation must
        // exceed RPT's — the paper's central claim about optimizer error
        // tolerance.
        let worst = rows.last().unwrap();
        let base = worst
            .degradation
            .iter()
            .find(|(l, _)| *l == "DuckDB")
            .unwrap()
            .1;
        let rpt = worst
            .degradation
            .iter()
            .find(|(l, _)| *l == "RPT")
            .unwrap()
            .1;
        assert!(
            base > rpt,
            "σ=4: baseline degradation {base} should exceed RPT {rpt}"
        );
        // σ=0 must be exactly 1.0 for both.
        let zero = &rows[0];
        for (l, d) in &zero.degradation {
            assert!((d - 1.0).abs() < 1e-9, "{l} at σ=0: {d}");
        }
    }

    #[test]
    fn fpr_tradeoff_monotone_ish() {
        let cfg = Config::tiny();
        let rows = ablation_fpr(&cfg).unwrap();
        // Higher FPR → more false positives surviving into the join phase.
        let first = rows.first().unwrap().join_output_rows;
        let last = rows.last().unwrap().join_output_rows;
        assert!(
            last >= first,
            "fpr 0.3 joins {last} < fpr 0.001 joins {first}"
        );
    }
}
