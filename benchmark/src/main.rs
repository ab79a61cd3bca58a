//! Command line of the benchmark.
//!
//! ```text
//! rpt-benchmark [run] --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
//! rpt-benchmark run --all [--seed N] [--seconds S] [--runs R] [--trace] [--out FILE]
//! rpt-benchmark compare A.json B.json
//! rpt-benchmark golden      rewrite benchmark/golden/ for the default seed
//! rpt-benchmark manifest    print the contents of BENCHMARK.json
//! ```

use rpt_benchmark::json::Json;
use rpt_benchmark::run::{self, AllArgs, RunArgs};
use rpt_benchmark::{compare, env, metrics, DEFAULT_SEED, RUN_SECONDS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: rpt-benchmark [run] --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
       rpt-benchmark run --all [--seed N] [--seconds S] [--runs R] [--trace] [--out FILE]
       rpt-benchmark compare A.json B.json
       rpt-benchmark golden | manifest";

struct Cli {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    runs: usize,
    trace: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        runs: 1,
        trace: false,
        out: PathBuf::from(env::OUT_DIR).join("results.json"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        let bad = |v: String| format!("{arg}: cannot read {v:?}");
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--all" => cli.all = true,
            "--seed" => cli.seed = value("a number").and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                cli.seconds = value("a number").and_then(|v| v.parse().map_err(|_| bad(v)))?;
            }
            "--runs" => cli.runs = value("a number").and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--out" => cli.out = PathBuf::from(value("a path")?),
            // `--trace` alone turns tracing on; `--trace 0|1` says which.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    cli.trace = false;
                }
                Some("1") => {
                    it.next();
                    cli.trace = true;
                }
                _ => cli.trace = true,
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds.is_finite()) || cli.runs == 0 {
        return Err("--seconds and --runs must be positive".into());
    }
    Ok(cli)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `Ok(false)`: the command ran and found failures or regressions.
fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest(RUN_SECONDS).pretty());
            Ok(true)
        }
        Some("compare") => {
            let [_, a, b] = args else {
                return Err(USAGE.into());
            };
            let c = compare::compare(&read_json(a)?, &read_json(b)?)?;
            print!("{}", c.text);
            Ok(c.clean)
        }
        _ if cfg!(debug_assertions) => {
            Err("built with debug assertions; measure with `cargo run --release`".into())
        }
        Some("golden") => run::write_golden(DEFAULT_SEED).map(|()| true),
        first => {
            let rest = if first == Some("run") {
                &args[1..]
            } else {
                args
            };
            let cli = parse_run(rest)?;
            match (cli.all, cli.workload) {
                (true, None) => run::all(&AllArgs {
                    seed: cli.seed,
                    seconds: cli.seconds,
                    runs: cli.runs,
                    trace: cli.trace,
                    out: cli.out,
                }),
                (false, Some(workload)) => {
                    let report = run::single(&RunArgs {
                        workload,
                        seed: cli.seed,
                        seconds: cli.seconds,
                        trace: cli.trace,
                    })?;
                    run::print(&report);
                    // A run that completed and checked its outputs exits 0
                    // even if some were wrong: the result line says so.
                    Ok(true)
                }
                _ => Err(USAGE.into()),
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("rpt-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
