//! Self-tests of the benchmark, at a fiftieth of its scale factors:
//! `cargo test --manifest-path benchmark/Cargo.toml`.

use rpt_benchmark::json::Json;
use rpt_benchmark::kernels::{self, Kernels};
use rpt_benchmark::metrics::{self, END_TO_END, PER_LAYER};
use rpt_benchmark::run;
use rpt_benchmark::runner::{self, Prepared};
use rpt_benchmark::trace::{LayerTimes, Recorder};
use rpt_benchmark::workloads::{self, SPECS};
use rpt_benchmark::{COMMAND, RUN_SECONDS};
use std::path::PathBuf;

const TINY: f64 = 0.02;
const SEED: u64 = 7;

/// A scratch directory of the test's own (tests run in parallel), removed
/// when the test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("rpt_benchmark_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tiny(workload: &str, scratch: &Scratch) -> Prepared {
    let spec = workloads::spec(workload).expect("known workload");
    runner::prepare(spec, SEED, TINY, &scratch.0).expect("prepare")
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// `BENCHMARK.json` is the manifest the runner generates, so every workload
/// and metric named in one is named in the other, with the same unit,
/// direction and bound.
#[test]
fn benchmark_json_is_the_runner_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 << 10);
    let file = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(file, metrics::manifest(RUN_SECONDS));
}

#[test]
fn manifest_stays_inside_the_contract_limits() {
    assert!((2..=8).contains(&SPECS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|a| a.len() <= 200));

    let mut names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for name in &names {
        assert!(valid_name(name), "bad name {name:?}");
    }
    let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");

    for s in &SPECS {
        assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
    }
    for m in &END_TO_END {
        assert!(valid_unit(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    for m in &PER_LAYER {
        assert!(valid_unit(m.unit), "{}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!(setup.unit, "s");
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

/// Every workload runs, checks clean, and reports every end-to-end and
/// per-layer metric by its manifest name, in manifest order.
#[test]
fn every_workload_emits_every_metric() {
    for spec in &SPECS {
        let scratch = Scratch::new(spec.name);
        let p = tiny(spec.name, &scratch);
        let mut rec = Recorder::default();
        let m = runner::measure(0.0, 4, |i| {
            if i % 2 == 1 || i == 0 {
                p.run_pass()
            } else {
                p.run_traced_pass(&mut rec, i)
            }
        });
        assert_eq!(m.failed, 0, "{}", spec.name);
        assert_eq!(m.attempted, 5 * p.items.len(), "{}", spec.name);

        let values = runner::end_to_end(&m.passes, &[0.5, 0.4, 0.6]);
        let got: Vec<&str> = values.iter().map(|v| v.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        assert_eq!(got, want, "{}", spec.name);
        for v in &values {
            assert!(
                v.value.is_finite() && v.value > 0.0,
                "{} {}",
                spec.name,
                v.name
            );
        }

        let plain: Vec<_> = m.passes.iter().step_by(2).cloned().collect();
        let layers = [LayerTimes::of(&rec, 2), LayerTimes::of(&rec, 4)];
        let values = run::per_layer(&p, &plain, &layers, &Kernels::default());
        let got: Vec<&str> = values.iter().map(|v| v.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|e| e.name).collect();
        assert_eq!(got, want, "{}", spec.name);
        for v in &values {
            assert!(v.value.is_finite(), "{} {}", spec.name, v.name);
        }
        let rf = values
            .iter()
            .find(|v| v.name == "robustness.rf_work_max")
            .expect("listed");
        assert_eq!(rf.value >= 1.0, spec.name == "random-orders");
    }
}

#[test]
fn a_corrupted_reference_counts_as_failures() {
    let scratch = Scratch::new("corrupt");
    let mut p = tiny("corpus-rpt", &scratch);
    assert_eq!(p.run_pass().failed, 0);
    let extra = p.references[0].rows.first().cloned().unwrap_or_default();
    p.references[0].rows.push(extra);
    assert_eq!(p.run_pass().failed, 1);
    // failures are counted over every execution attempted, warm-up included
    let m = runner::measure(0.0, 1, |_| p.run_pass());
    assert_eq!(m.attempted, 2 * p.items.len());
    assert_eq!(m.failed, 2);
}

#[test]
fn a_leftover_spill_file_counts_as_a_failure() {
    let scratch = Scratch::new("leftover");
    let p = tiny("spill", &scratch);
    assert_eq!(p.run_pass().failed, 0);
    let leaked = p.tmp.join("rpt_spill_1_q1_1.bin");
    std::fs::write(&leaked, b"left behind").expect("write");
    let pass = p.run_pass();
    assert_eq!(pass.failed, 1, "one leak is one failed execution");
    assert!(!leaked.exists(), "the leak is removed once counted");
}

/// The budget of a random order is 1000x the Baseline plan's work: an order
/// that exhausts it is a failed execution, not a crash.
#[test]
fn an_exhausted_work_budget_counts_as_a_failure() {
    let scratch = Scratch::new("budget");
    let mut p = tiny("random-orders", &scratch);
    for item in &mut p.items {
        item.opts.work_budget = Some(1);
    }
    let pass = p.run_pass();
    assert_eq!(pass.failed, p.items.len());
    assert_eq!(pass.latencies.len(), p.items.len());
}

#[test]
fn traced_pass_attributes_its_time_to_layers() {
    let scratch = Scratch::new("traced");
    let p = tiny("corpus-rpt", &scratch);
    let mut rec = Recorder::default();
    let pass = p.run_traced_pass(&mut rec, 1);
    assert_eq!(pass.failed, 0);
    for (i, s) in rec.spans.iter().enumerate() {
        assert!(s.end_ns >= s.start_ns, "{}", s.name);
        if let Some(parent) = s.parent {
            assert!(parent < i, "{} precedes its parent", s.name);
        }
    }
    let per_query = rec.spans.iter().filter(|s| s.query == 0).count();
    assert_eq!(
        per_query, 12,
        "pass + query + 6 stages + replan + run + check + drop"
    );
    let t = LayerTimes::of(&rec, 1);
    assert!(t.run_s > 0.0 && t.compile_s > 0.0 && t.parse_s > 0.0);
    assert!(t.attributed_share() > 0.9 && t.attributed_share() <= 1.0 + 1e-9);
    // the traced pass and the latencies it books are the same interval
    assert!((t.traced_pass_s - pass.total_s()).abs() / pass.total_s() < 0.05);
}

#[test]
fn options_do_not_come_from_the_environment() {
    std::env::set_var("RPT_BENCHMARK_SELFTEST", "1");
    std::env::set_var("RPT_PARTITION_COUNT", "16");
    let removed = rpt_benchmark::env::scrub_rpt_env();
    assert!(removed.iter().any(|n| n == "RPT_PARTITION_COUNT"));
    assert!(std::env::vars().all(|(k, _)| !k.starts_with("RPT_")));
    let scratch = Scratch::new("options");
    let spec = workloads::spec("corpus-rpt").expect("known");
    let o = spec.options(rpt_core::Mode::Baseline, 2, &scratch.0);
    assert_eq!((o.partition_count, o.threads, o.workers), (1, 1, Some(1)));
    let o = workloads::spec("parallel").expect("known").options(
        rpt_core::Mode::Baseline,
        2,
        &scratch.0,
    );
    assert_eq!((o.partition_count, o.threads, o.workers), (8, 2, Some(2)));
}

#[test]
fn kernels_report_positive_rates() {
    let scratch = Scratch::new("kernels");
    let k = kernels::run(&scratch.0, 64).expect("kernels");
    for v in [
        k.bloom_insert_ns_small,
        k.bloom_probe_ns_large,
        k.hash_ns_int64_dict,
        k.join_build_ns,
        k.join_probe_ns,
        k.agg_update_ns_fast,
        k.agg_update_ns_generic,
        k.storage_encode_mrows_s,
        k.storage_decode_mrows_s,
        k.spill_write_mb_s,
        k.spill_read_mb_s,
    ] {
        assert!(v.is_finite() && v > 0.0, "{k:?}");
    }
    assert!(k.storage_bytes_per_raw_byte > 0.0 && k.storage_bytes_per_raw_byte < 1.0);
    assert!(k.spill_bytes_per_raw_byte > 0.0 && k.spill_bytes_per_raw_byte < 1.0);
}
