//! # rpt-benchmark
//!
//! The one benchmark of the RPT engine. Six workloads, five gated
//! end-to-end metrics and the per-layer metrics behind them, all measured
//! from outside: by timing calls into the engine's public functions and
//! reading the public `QueryResult` / `MetricsSummary`. See `README.md`
//! for the tables and `../BENCHMARK.json` for the contract.

pub mod check;
pub mod compare;
pub mod env;
pub mod json;
pub mod kernels;
pub mod metrics;
pub mod run;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;

/// How the benchmark is started from the root of a checkout; the driver
/// appends `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Seconds one run measures for unless `--seconds` says otherwise.
pub const RUN_SECONDS: u32 = 10;

/// The seed the golden digests were written at.
pub const DEFAULT_SEED: u64 = 42;
