//! The process environment: what the runner removes from it, where it may
//! write, and the machine description stamped into results.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Everything the benchmark writes goes here, relative to the directory it
/// is started from (the root of the checkout).
pub const OUT_DIR: &str = "benchmark/out";

/// Remove every `RPT_*` variable, so no engine default is taken from the
/// caller's shell. Returns the names removed, for the record.
pub fn scrub_rpt_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RPT_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// A private, empty scratch directory under [`OUT_DIR`] that is also made
/// this process's `TMPDIR`: the engine puts governor-driven spill runs in
/// `std::env::temp_dir()` and sweeps that directory on `Database::new()`,
/// and the benchmark must neither read nor write outside its checkout.
pub fn private_tmp_dir() -> std::io::Result<PathBuf> {
    let dir = std::env::current_dir()?
        .join(OUT_DIR)
        .join(format!("tmp-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    std::env::set_var("TMPDIR", &dir);
    Ok(dir)
}

/// Spill runs (`rpt_spill_*`) present in `dir`, removed as they are
/// counted so one leak is one failure.
pub fn take_leftover_spill_files(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("rpt_spill_"))
        .inspect(|e| {
            let _ = std::fs::remove_file(e.path());
        })
        .count()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process, in MiB (`VmHWM`): since the
/// last [`reset_peak_rss`] that took effect, else since the process began.
/// NaN where `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    let hwm_kib = || {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse::<f64>().ok()
    };
    hwm_kib().map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Make the peak resident size start over from the current resident size
/// (`5` to `clear_refs`, Linux 4.0). Where the kernel refuses, the peak keeps
/// counting from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine and toolchain a results file was measured on. Every number
/// in it is this machine's: with 2 cores, `parallel` and `spill` say
/// nothing about scaling.
pub fn machine_stamp() -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
