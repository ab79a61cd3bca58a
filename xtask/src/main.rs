//! `cargo xtask lint` — std-only workspace lint (no external deps).
//!
//! Seven token-scan rules; the first three are scoped to hot execution
//! paths where a panic or a silent counter wrap would take down or corrupt
//! a query:
//!
//! * **A (no-panic operators):** no `.unwrap()` / `.expect(` in
//!   `crates/exec/src/operators/`, `crates/exec/src/expr.rs` (the
//!   predicate kernels every scan morsel and filter runs),
//!   `crates/exec/src/hash_table.rs` (every join build and probe),
//!   `crates/exec/src/aggregate.rs` (every GROUP BY and aggregate fold),
//!   `crates/exec/src/pipeline.rs` and `crates/exec/src/scheduler.rs` (the
//!   plan's specs, their deps, lowering and the pipeline DAG),
//!   `crates/exec/src/global.rs` (the task scheduler every query runs on),
//!   `crates/exec/src/wcoj.rs` (the Generic Join of the Hybrid mode),
//!   `crates/analyze/src/lib.rs` (the static plan verifier),
//!   `crates/core/src/planner.rs` (every compiled plan),
//!   `crates/core/src/robustness.rs` (the paper's robustness factors),
//!   `crates/storage/src/` (the block codecs and the key-hash kernel
//!   every scan probe runs, the statistics registration reads off the
//!   blocks, the spill writer and the decoder every restore runs, and the
//!   memory governor), and `crates/bloom/src/` (the transfer filters every
//!   CreateBF fills and every ProbeBF tests, including the key bitmap
//!   indexed by key offset) outside `#[cfg(test)]` modules. Operator code
//!   returns `Result`; lock poisoning, absent slots, values missing from a
//!   dictionary, corrupt spill frames and keys outside a key bitmap's
//!   range are runtime errors, not panics, and a codec matches every block
//!   variant instead of panicking on the ones it does not expect.
//! * **B (checked counters):** no bare `+=` in `crates/exec/src/aggregate.rs`,
//!   `crates/exec/src/context.rs`, or `crates/exec/src/operators/` outside
//!   tests. A line is exempt when it visibly routes through a checked/
//!   saturating/wrapping helper or is floating-point (`f64`) arithmetic,
//!   where wrap-around is not the failure mode.
//! * **C (no dead metrics):** every `AtomicU64` field of `Metrics`
//!   (`crates/exec/src/context.rs`) must be referenced in non-test source
//!   outside its declaring file (someone increments it) and referenced in
//!   test code (a `tests/` directory or a `#[cfg(test)]` region) so a
//!   regression to zero is caught.
//! * **D (argued unsafe):** the `unsafe` keyword may appear only in
//!   `crates/bloom/src/filter.rs` (the AVX2 dispatch of the Bloom kernels),
//!   and only directly under a `// SAFETY:` comment.
//! * **E (one thread pool):** no `thread::scope`, `thread::spawn` or
//!   `thread::Builder` in non-test code under `crates/` outside
//!   `crates/exec/src/global.rs`, whose worker pool is sized by the
//!   query's worker count; every other piece of parallel work runs as a
//!   task of that pool, so the thread count is the pool size.
//! * **F (one place per knob):** a non-test `env::var("RPT_…")` read under
//!   `crates/` names one of the three `RPT_*` knobs, inside the one
//!   function that reads it: `RPT_PARTITION_COUNT` in
//!   `partition_count_from_env`, `RPT_MEMORY_BUDGET` in
//!   `memory_budget_from_env`, `RPT_PLAN_VERIFY` in `VerifyMode::from_env`.
//!   Every other setting is a `QueryOptions` / `ExecContext` field.
//! * **G (an independent oracle):** under `tests/oracle/`, the test oracle
//!   names nothing from `rpt_exec` but the plain operator enums `CmpOp`,
//!   `ArithOp` and `AggFunc`, and the identifiers `Expr`, `Predicate`,
//!   `cmp_scalar_rows` and `SortKey` (the engine's expressions, predicate
//!   kernels and sort order) and `encoded`, `BlockTable`, `BlockColumn`,
//!   `EncodedBlock`, `decode_block` and `decode_block_sel` (the storage
//!   codecs) do not appear at all (the binder's output variant
//!   `OutputKind::Expr` aside), so the oracle shares only the parser, the
//!   binder and the tables' raw vectors with the engine it checks.
//!
//! Findings can be suppressed via `xtask/lint-allow.txt` (`RULE path[:line]`
//! entries); the file starts — and should stay — empty.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(repo_root()),
        Some(other) => {
            eprintln!("unknown xtask command `{other}`; available: lint");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask lint");
            ExitCode::FAILURE
        }
    }
}

fn repo_root() -> PathBuf {
    // xtask lives at <root>/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask crate has a parent directory")
        .to_path_buf()
}

#[derive(Debug, PartialEq, Eq)]
struct Finding {
    rule: char,
    /// Repo-relative path, `/`-separated.
    path: String,
    /// 1-based; 0 when the finding is file- or workspace-level.
    line: usize,
    message: String,
}

fn lint(root: PathBuf) -> ExitCode {
    let allow = load_allowlist(&root.join("xtask/lint-allow.txt"));
    let mut findings = Vec::new();
    findings.extend(rule_a(&root));
    findings.extend(rule_b(&root));
    findings.extend(rule_c(&root));
    findings.extend(rule_d(&root));
    findings.extend(rule_e(&root));
    findings.extend(rule_f(&root));
    findings.extend(rule_g(&root));

    let mut failed = 0usize;
    for f in &findings {
        if allowed(&allow, f) {
            println!("allow [{}] {}:{} {}", f.rule, f.path, f.line, f.message);
        } else {
            eprintln!("lint [{}] {}:{} {}", f.rule, f.path, f.line, f.message);
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("cargo xtask lint: {failed} finding(s)");
        ExitCode::FAILURE
    } else {
        println!("cargo xtask lint: clean");
        ExitCode::SUCCESS
    }
}

fn load_allowlist(path: &Path) -> Vec<(char, String, Option<usize>)> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(rule), Some(target)) = (parts.next(), parts.next()) else {
            continue;
        };
        let rule = rule.chars().next().unwrap_or('?');
        match target.rsplit_once(':') {
            Some((p, l)) if l.chars().all(|c| c.is_ascii_digit()) => {
                entries.push((rule, p.to_string(), l.parse().ok()));
            }
            _ => entries.push((rule, target.to_string(), None)),
        }
    }
    entries
}

fn allowed(allow: &[(char, String, Option<usize>)], f: &Finding) -> bool {
    allow
        .iter()
        .any(|(r, p, l)| *r == f.rule && *p == f.path && l.is_none_or(|l| l == f.line))
}

/// Per-line classification of a source file: which lines are executable
/// (non-test, comments stripped) vs inside a `#[cfg(test)]` item.
struct Classified {
    /// Comment-stripped text per line (empty for comment-only lines).
    code: Vec<String>,
    /// Line is inside a `#[cfg(test)]`-gated item.
    test: Vec<bool>,
}

fn classify(text: &str) -> Classified {
    let stripped = strip_comments(text);
    let lines: Vec<&str> = stripped.lines().collect();
    let mut test = vec![false; lines.len()];
    let mut depth = 0i64; // brace depth inside the current test item; 0 = outside
    let mut armed = false; // saw #[cfg(test)], waiting for the opening brace
    for (i, line) in lines.iter().enumerate() {
        if depth == 0 && !armed && line.contains("#[cfg(test)]") {
            armed = true;
        }
        let opens = line.matches('{').count() as i64;
        let closes = line.matches('}').count() as i64;
        if armed || depth > 0 {
            test[i] = true;
            depth += opens - closes;
            if armed && opens > 0 {
                armed = false;
            }
            if !armed && depth <= 0 {
                depth = 0;
            }
        }
    }
    Classified {
        code: lines.iter().map(|s| s.to_string()).collect(),
        test,
    }
}

/// Remove `//` line comments, `/* */` block comments, and the *contents*
/// of string literals (so a `+=` inside a message string never trips a
/// rule). Char literals like `'"'` are handled enough to not derail the
/// string tracker.
fn strip_comments(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    let mut in_block = 0usize;
    let mut in_line = false;
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if c == '\n' {
            in_line = false;
            in_str = false; // plain strings don't span lines un-escaped; good enough
            out.push('\n');
            continue;
        }
        if in_line {
            continue;
        }
        if in_block > 0 {
            if c == '*' && chars.peek() == Some(&'/') {
                chars.next();
                in_block -= 1;
            } else if c == '/' && chars.peek() == Some(&'*') {
                chars.next();
                in_block += 1;
            }
            continue;
        }
        if in_str {
            if c == '\\' {
                chars.next();
            } else if c == '"' {
                in_str = false;
                out.push('"');
            }
            continue;
        }
        match c {
            '/' if chars.peek() == Some(&'/') => {
                chars.next();
                in_line = true;
            }
            '/' if chars.peek() == Some(&'*') => {
                chars.next();
                in_block += 1;
            }
            '"' => {
                in_str = true;
                out.push('"');
            }
            '\'' => {
                // Consume a char literal ('x', '\n', '"') so its quote
                // doesn't open a phantom string. Lifetimes ('a) have no
                // closing quote within a few chars; probe without
                // consuming in that case.
                let probe: Vec<char> = chars.clone().take(3).collect();
                let lit_len = match probe.as_slice() {
                    ['\\', _, '\''] => Some(3),
                    [_, '\'', ..] => Some(2),
                    _ => None,
                };
                if let Some(len) = lit_len {
                    for _ in 0..len {
                        chars.next();
                    }
                }
                out.push('\'');
            }
            _ => out.push(c),
        }
    }
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

// ---- Rule A: no panicking calls in operator and robustness code ----

/// The files rule A scans.
fn rule_a_files(root: &Path) -> Vec<PathBuf> {
    let mut files = vec![
        root.join("crates/exec/src/expr.rs"),
        root.join("crates/exec/src/hash_table.rs"),
        root.join("crates/exec/src/aggregate.rs"),
        root.join("crates/exec/src/pipeline.rs"),
        root.join("crates/exec/src/scheduler.rs"),
        root.join("crates/exec/src/global.rs"),
        root.join("crates/exec/src/wcoj.rs"),
        root.join("crates/analyze/src/lib.rs"),
        root.join("crates/core/src/planner.rs"),
        root.join("crates/core/src/robustness.rs"),
    ];
    walk(&root.join("crates/exec/src/operators"), &mut files);
    walk(&root.join("crates/storage/src"), &mut files);
    walk(&root.join("crates/bloom/src"), &mut files);
    files
}

fn rule_a(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for path in rule_a_files(root) {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        findings.extend(scan_a(&rel(root, &path), &text));
    }
    findings
}

fn scan_a(path: &str, text: &str) -> Vec<Finding> {
    scan_tokens(
        path,
        text,
        'A',
        &[".unwrap()", ".expect("],
        "in panic-free code; return a Result instead",
    )
}

/// One finding per non-test line and `needles` entry it contains.
fn scan_tokens(path: &str, text: &str, rule: char, needles: &[&str], why: &str) -> Vec<Finding> {
    let c = classify(text);
    let mut findings = Vec::new();
    for (i, line) in c.code.iter().enumerate() {
        if c.test[i] {
            continue;
        }
        for needle in needles {
            if line.contains(needle) {
                findings.push(Finding {
                    rule,
                    path: path.to_string(),
                    line: i + 1,
                    message: format!("`{needle}` {why}"),
                });
            }
        }
    }
    findings
}

// ---- Rule B: no unchecked += in accumulator/metrics paths ----

const RULE_B_FILES: &[&str] = &["crates/exec/src/aggregate.rs", "crates/exec/src/context.rs"];

fn rule_b(root: &Path) -> Vec<Finding> {
    let mut files: Vec<PathBuf> = RULE_B_FILES.iter().map(|f| root.join(f)).collect();
    walk(&root.join("crates/exec/src/operators"), &mut files);
    let mut findings = Vec::new();
    for path in files {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        findings.extend(scan_b(&rel(root, &path), &text));
    }
    findings
}

fn scan_b(path: &str, text: &str) -> Vec<Finding> {
    let c = classify(text);
    let mut findings = Vec::new();
    for (i, line) in c.code.iter().enumerate() {
        if c.test[i] || !line.contains("+=") {
            continue;
        }
        let exempt = ["saturating_", "checked_", "wrapping_", "f64", "f32"]
            .iter()
            .any(|t| line.contains(t));
        if !exempt {
            findings.push(Finding {
                rule: 'B',
                path: path.to_string(),
                line: i + 1,
                message: "unchecked `+=` in counter path; use a saturating/checked helper".into(),
            });
        }
    }
    findings
}

// ---- Rule C: no dead metrics ----

fn rule_c(root: &Path) -> Vec<Finding> {
    let decl_path = root.join("crates/exec/src/context.rs");
    let Ok(decl_text) = fs::read_to_string(&decl_path) else {
        return vec![Finding {
            rule: 'C',
            path: "crates/exec/src/context.rs".into(),
            line: 0,
            message: "cannot read Metrics declaration file".into(),
        }];
    };
    let metrics = metric_fields(&decl_text);

    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("tests"), &mut files);
    walk(&root.join("examples"), &mut files);

    let mut incremented: BTreeSet<&str> = BTreeSet::new();
    let mut tested: BTreeSet<&str> = BTreeSet::new();
    for path in &files {
        let relp = rel(root, path);
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        let is_test_dir = relp.starts_with("tests/") || relp.contains("/tests/");
        let c = classify(&text);
        for (i, line) in c.code.iter().enumerate() {
            for m in &metrics {
                if !line.contains(m.as_str()) {
                    continue;
                }
                if is_test_dir || c.test[i] {
                    tested.insert(m);
                } else {
                    // A mutating call, not a mere mention (declaration,
                    // `load`, or summary copy). rustfmt may break the
                    // call over two lines, so look one line back too.
                    let window = |l: &str| {
                        ["add(", "fetch_add", "max_update", "store("]
                            .iter()
                            .any(|t| l.contains(t))
                    };
                    if window(line) || (i > 0 && window(&c.code[i - 1])) {
                        incremented.insert(m);
                    }
                }
            }
        }
    }

    let mut findings = Vec::new();
    for m in &metrics {
        if !incremented.contains(m.as_str()) {
            findings.push(Finding {
                rule: 'C',
                path: "crates/exec/src/context.rs".into(),
                line: 0,
                message: format!("metric `{m}` is never incremented outside its declaration"),
            });
        }
        if !tested.contains(m.as_str()) {
            findings.push(Finding {
                rule: 'C',
                path: "crates/exec/src/context.rs".into(),
                line: 0,
                message: format!("metric `{m}` is never asserted in tests"),
            });
        }
    }
    findings
}

// ---- Rule D: unsafe only where it is argued for ----

const RULE_D_FILE: &str = "crates/bloom/src/filter.rs";

fn rule_d(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "xtask", "benchmark"] {
        walk(&root.join(dir), &mut files);
    }
    let mut findings = Vec::new();
    for path in files {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        findings.extend(scan_d(&rel(root, &path), &text));
    }
    findings
}

fn scan_d(path: &str, text: &str) -> Vec<Finding> {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    let has_unsafe = |line: &str| {
        line.match_indices("unsafe").any(|(at, kw)| {
            !line[..at].chars().next_back().is_some_and(is_word)
                && !line[at + kw.len()..].chars().next().is_some_and(is_word)
        })
    };
    let raw: Vec<&str> = text.lines().collect();
    let mut findings = Vec::new();
    for (i, line) in strip_comments(text).lines().enumerate() {
        if !has_unsafe(line) {
            continue;
        }
        // The run of `//` lines directly above must open the argument.
        let argued = raw[..i]
            .iter()
            .rev()
            .map(|l| l.trim_start())
            .take_while(|l| l.starts_with("//"))
            .any(|l| l.starts_with("// SAFETY:"));
        let message = if path != RULE_D_FILE {
            format!("`unsafe` outside {RULE_D_FILE}")
        } else if !argued {
            "`unsafe` without a `// SAFETY:` comment directly above".into()
        } else {
            continue;
        };
        findings.push(Finding {
            rule: 'D',
            path: path.to_string(),
            line: i + 1,
            message,
        });
    }
    findings
}

// ---- Rule E: the scheduler's pool is the only source of threads ----

const RULE_E_FILE: &str = "crates/exec/src/global.rs";

fn rule_e(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    let mut findings = Vec::new();
    for path in files {
        let relp = rel(root, &path);
        if relp == RULE_E_FILE || relp.contains("/tests/") {
            continue;
        }
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        findings.extend(scan_e(&relp, &text));
    }
    findings
}

fn scan_e(path: &str, text: &str) -> Vec<Finding> {
    scan_tokens(
        path,
        text,
        'E',
        &["thread::scope", "thread::spawn", "thread::Builder"],
        &format!("outside {RULE_E_FILE}; run the work as a scheduler task"),
    )
}

// ---- Rule F: each env knob is read in one function ----

/// The `RPT_*` knobs and the function that alone reads each.
const RULE_F_KNOBS: &[(&str, &str)] = &[
    ("RPT_PARTITION_COUNT", "partition_count_from_env"),
    ("RPT_MEMORY_BUDGET", "memory_budget_from_env"),
    ("RPT_PLAN_VERIFY", "VerifyMode::from_env"),
];

fn rule_f(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    let mut findings = Vec::new();
    for path in files {
        let relp = rel(root, &path);
        if relp.contains("/tests/") {
            continue;
        }
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        findings.extend(scan_f(&relp, &text));
    }
    findings
}

fn scan_f(path: &str, text: &str) -> Vec<Finding> {
    let c = classify(text);
    // String contents are stripped from `c.code`, so the variable name is
    // the first string literal after `env::var` in the raw text: on the
    // call's line, or on the next one where rustfmt broke the call.
    let raw: Vec<&str> = text.lines().collect();
    let mut findings = Vec::new();
    let mut depth = 0i64;
    let mut impl_ty: Option<String> = None;
    let mut func = String::new();
    for (i, line) in c.code.iter().enumerate() {
        let t = line.trim_start();
        if depth == 0 && t.starts_with("impl") {
            impl_ty = impl_type(t);
        }
        if let Some(name) = fn_name(t) {
            func = match (&impl_ty, depth) {
                (Some(ty), d) if d > 0 => format!("{ty}::{name}"),
                _ => name,
            };
        }
        depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
        if depth <= 0 {
            depth = 0;
            impl_ty = None;
        }
        if c.test[i] || !line.contains("env::var") {
            continue;
        }
        let Some(call) = raw.get(i).and_then(|l| l.split_once("env::var")) else {
            continue;
        };
        let arg = match call.1.split_once('"') {
            Some((_, rest)) => rest,
            None => match raw.get(i + 1).and_then(|l| l.split_once('"')) {
                Some((_, rest)) => rest,
                None => continue,
            },
        };
        let Some(knob) = arg.split('"').next().filter(|v| v.starts_with("RPT_")) else {
            continue;
        };
        let message = match RULE_F_KNOBS.iter().find(|(k, _)| *k == knob) {
            None => format!("`{knob}` is not a knob; make it a `QueryOptions` field"),
            Some((_, reader)) if *reader != func => {
                format!("`{knob}` read in `{func}`; only `{reader}` reads it")
            }
            Some(_) => continue,
        };
        findings.push(Finding {
            rule: 'F',
            path: path.to_string(),
            line: i + 1,
            message,
        });
    }
    findings
}

/// The self type of an `impl` header (`impl<T> Trait for Ty<T> {` → `Ty`).
fn impl_type(header: &str) -> Option<String> {
    let mut rest = header.strip_prefix("impl")?;
    if rest.starts_with('<') {
        rest = &rest[rest.find('>')? + 1..];
    }
    if let Some((_, ty)) = rest.split_once(" for ") {
        rest = ty;
    }
    let name: String = rest
        .trim_start()
        .chars()
        .take_while(|ch| ch.is_alphanumeric() || *ch == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// The name a `fn` item on this line declares, if any.
fn fn_name(line: &str) -> Option<String> {
    let at = line.find("fn ")?;
    if at > 0 && !line[..at].ends_with(' ') {
        return None;
    }
    let name: String = line[at + 3..]
        .chars()
        .take_while(|ch| ch.is_alphanumeric() || *ch == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Field names of `pub struct Metrics` with type `AtomicU64`.
fn metric_fields(context_rs: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut in_struct = false;
    for line in context_rs.lines() {
        let t = line.trim();
        if t.starts_with("pub struct Metrics") {
            in_struct = true;
            continue;
        }
        if in_struct {
            if t == "}" {
                break;
            }
            if let Some(rest) = t.strip_prefix("pub ") {
                if let Some((name, ty)) = rest.split_once(':') {
                    if ty.trim().trim_end_matches(',') == "AtomicU64" {
                        fields.push(name.trim().to_string());
                    }
                }
            }
        }
    }
    fields
}

// ---- Rule G: the test oracle shares no evaluation code with the engine ----

const RULE_G_DIR: &str = "tests/oracle";
/// The only items the oracle may name from `rpt_exec`.
const RULE_G_ALLOWED: &[&str] = &["CmpOp", "ArithOp", "AggFunc"];
/// Engine evaluation code the oracle may not name, by any path: the
/// expression and predicate types, the row comparator and sort keys, the
/// binder's lowering into engine expressions, the planner and executor
/// that `rpt_core` re-exports, and the block-encoded storage form and its
/// decoders (the oracle reads the raw vectors the test hands it).
const RULE_G_BANNED: &[&str] = &[
    "Expr",
    "Predicate",
    "cmp_scalar_rows",
    "SortKey",
    "to_exec",
    "execute",
    "Planner",
    "PhysicalPlan",
    "encoded",
    "BlockTable",
    "BlockColumn",
    "EncodedBlock",
    "decode_block",
    "decode_block_sel",
];

fn rule_g(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    walk(&root.join(RULE_G_DIR), &mut files);
    let mut findings = Vec::new();
    for path in files {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        findings.extend(scan_g(&rel(root, &path), &text));
    }
    findings
}

fn scan_g(path: &str, text: &str) -> Vec<Finding> {
    // Test regions count too: the whole oracle is test code.
    let code = strip_comments(text);
    let mut findings = Vec::new();
    let mut find = |at: usize, message: String| {
        findings.push(Finding {
            rule: 'G',
            path: path.to_string(),
            line: code[..at].matches('\n').count() + 1,
            message,
        });
    };
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut at = 0;
    for word in code.split(|c: char| !is_ident(c)) {
        if RULE_G_BANNED.contains(&word) && !code[..at].ends_with("OutputKind::") {
            find(at, format!("`{word}` is engine evaluation code"));
        }
        if word == "rpt_exec" {
            // The names imported or used through this path: one segment,
            // or every entry of a `{...}` group (a nested path by its first
            // segment).
            let rest = &code[at + word.len()..];
            let names: Vec<&str> = match rest.strip_prefix("::") {
                Some(group) if group.starts_with('{') => group[1..]
                    .split('}')
                    .next()
                    .unwrap_or("")
                    .split(',')
                    .map(|n| n.trim().split("::").next().unwrap_or("").trim())
                    .filter(|n| !n.is_empty())
                    .collect(),
                Some(path) => vec![path.split(|c: char| !is_ident(c)).next().unwrap_or("")],
                None => vec![""],
            };
            for name in names {
                if !RULE_G_ALLOWED.contains(&name) {
                    find(
                        at,
                        format!(
                            "`rpt_exec::{name}`: the oracle names only {}",
                            RULE_G_ALLOWED.join(", ")
                        ),
                    );
                }
            }
        }
        at += word.len() + 1;
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    // Seeded-violation self-test: the scanners must catch planted bugs.

    #[test]
    fn rule_a_catches_seeded_unwrap() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let f = scan_a("x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ('A', 2));
        // The whole storage crate is in scope, its statistics included.
        let stats = "crates/storage/src/stats.rs";
        let root = repo_root();
        assert!(rule_a_files(&root).contains(&root.join(stats)));
        let seeded = "pub fn column(&self) -> &ColumnStats {\n    self.columns.first().expect(\"a column\")\n}\n";
        let f = scan_a(stats, seeded);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].path.as_str(), f[0].line), (stats, 2));
    }

    #[test]
    fn rule_a_skips_tests_and_comments() {
        let src = "\
fn f() {} // .unwrap() in a comment is fine
/* .expect( in a block comment too */
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
";
        assert!(scan_a("x.rs", src).is_empty());
    }

    #[test]
    fn rule_b_catches_seeded_bare_add() {
        let src = "fn f(mut a: u64) {\n    a += 1;\n    a = a.saturating_add(2);\n}\n";
        let f = scan_b("x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ('B', 2));
    }

    #[test]
    fn rule_b_exempts_checked_and_float_lines() {
        let src = "\
fn f(mut a: u64, mut x: f64) {
    a = a.checked_add(1).unwrap_or(u64::MAX); // not +=
    add_f64(&mut x, 1.0); // helper takes f64
}
fn add_f64(a: &mut f64, b: f64) { *a += b }
";
        assert!(scan_b("x.rs", src).is_empty());
    }

    #[test]
    fn rule_b_ignores_strings() {
        let src = "fn f() -> &'static str {\n    \"a += b\"\n}\n";
        assert!(scan_b("x.rs", src).is_empty());
    }

    #[test]
    fn rule_d_wants_unsafe_in_one_file_under_a_safety_comment() {
        let argued =
            "fn f() {\n    // SAFETY: checked above,\n    // twice.\n    unsafe { g() }\n}\n";
        assert!(scan_d(RULE_D_FILE, argued).is_empty());
        let elsewhere = scan_d("crates/exec/src/x.rs", argued);
        assert_eq!(elsewhere.len(), 1);
        assert_eq!((elsewhere[0].rule, elsewhere[0].line), ('D', 4));
        // A blank line or code between the comment and the block breaks it.
        let detached = "// SAFETY: stale\nlet x = 1;\nunsafe { g() }\n";
        assert_eq!(scan_d(RULE_D_FILE, detached).len(), 1);
        // Identifiers, comments and strings that merely contain the word.
        let mentions = "fn first_unsafe_prefix() {} // unsafe\nconst S: &str = \"unsafe\";\n";
        assert!(scan_d("x.rs", mentions).is_empty());
    }

    #[test]
    fn rule_e_catches_a_thread_outside_the_scheduler() {
        let src = "fn f() {\n    std::thread::scope(|s| {\n        s.spawn(|| ());\n    });\n}\n";
        let f = scan_e("crates/bloom/src/filter.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ('E', 2));
    }

    #[test]
    fn rule_e_skips_test_regions() {
        let src = "\
fn f() {} // thread::spawn in a comment is fine
#[cfg(test)]
mod tests {
    #[test]
    fn t() { std::thread::spawn(|| ()).join().unwrap(); }
}
";
        assert!(scan_e("crates/exec/src/x.rs", src).is_empty());
    }

    #[test]
    fn rule_g_keeps_the_oracle_to_the_operator_enums() {
        let clean = "\
use rpt_exec::{AggFunc, ArithOp, CmpOp};
fn f(e: &RExpr, op: rpt_exec::CmpOp) {} // an Expr in a comment is fine
const S: &str = \"SortKey\";
fn g(k: &OutputKind) -> bool { matches!(k, OutputKind::Expr(_)) }
";
        assert!(scan_g("tests/oracle/mod.rs", clean).is_empty());
        let seeded = "\
use rpt_exec::{
    CmpOp,
    Expr,
};
use rpt_exec::operators::sort;
fn f(p: &Predicate) {}
fn g() { rpt_exec::cmp_scalar_rows(&[], &[], &[]); }
use rpt_exec as exec;
fn h(e: &RExpr, db: &Database) { let x = e.to_exec(&|_, c| Some(c)); db.execute(&q, &o); }
use rpt_core::{Planner, PhysicalPlan};
fn k(db: &Database) { let t = db.catalog().get(\"t\").unwrap().table.encoded(); }
use rpt_storage::{BlockTable, BlockColumn, EncodedBlock};
fn m(t: &BlockTable) { t.columns[0].decode_block_sel(0, &[]); t.decode_block(0); }
";
        let f = scan_g("tests/oracle/mod.rs", seeded);
        let got: Vec<(usize, char)> = f.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(
            got,
            [
                (1, 'G'),  // `Expr` in the group
                (3, 'G'),  // `Expr` itself
                (5, 'G'),  // `operators`
                (6, 'G'),  // `Predicate`
                (7, 'G'),  // `rpt_exec::cmp_scalar_rows`
                (7, 'G'),  // `cmp_scalar_rows` itself
                (8, 'G'),  // a renamed path
                (9, 'G'),  // the binder's lowering into engine expressions
                (9, 'G'),  // the executor
                (10, 'G'), // the planner
                (10, 'G'), // its plans
                (11, 'G'), // a registered table's blocks
                (12, 'G'), // the block-encoded table
                (12, 'G'), // a block column
                (12, 'G'), // an encoded block
                (13, 'G'), // the block table again
                (13, 'G'), // a selective block decode
                (13, 'G'), // a whole-block decode
            ],
            "{f:#?}"
        );
    }

    #[test]
    fn rule_f_allows_each_knob_in_its_reader_only() {
        let src = "\
pub fn memory_budget_from_env() -> Option<usize> {
    std::env::var(\"RPT_MEMORY_BUDGET\").ok()?.parse().ok()
}
impl VerifyMode {
    pub fn from_env() -> VerifyMode {
        VerifyMode::from_setting(std::env::var(\"RPT_PLAN_VERIFY\").ok().as_deref())
    }
}
impl ExecContext {
    pub fn new() -> Self {
        let trace = std::env::var(\"RPT_SCHED_TRACE\").is_ok();
        let budget = std::env::var(\"RPT_MEMORY_BUDGET\").ok();
        // std::env::var(\"RPT_IN_A_COMMENT\")
    }
    pub fn from_env() -> Self {
        std::env::var(
            \"RPT_PLAN_VERIFY\",
        )
    }
}
#[cfg(test)]
mod tests {
    fn t() { std::env::var_os(\"RPT_ANYTHING\"); }
}
";
        let f = scan_f("crates/exec/src/context.rs", src);
        let got: Vec<(usize, &str)> = f.iter().map(|f| (f.line, f.message.as_str())).collect();
        assert_eq!(
            got,
            [
                (
                    11,
                    "`RPT_SCHED_TRACE` is not a knob; make it a `QueryOptions` field"
                ),
                (
                    12,
                    "`RPT_MEMORY_BUDGET` read in `ExecContext::new`; only `memory_budget_from_env` reads it"
                ),
                (
                    16,
                    "`RPT_PLAN_VERIFY` read in `ExecContext::from_env`; only `VerifyMode::from_env` reads it"
                ),
            ]
        );
        assert!(f.iter().all(|f| f.rule == 'F'));
    }

    #[test]
    fn metric_fields_parsed() {
        let src = "\
pub struct Metrics {
    pub scan_rows: AtomicU64,
    /// doc
    pub other: usize,
    pub verify_checks_run: AtomicU64,
}
";
        assert_eq!(metric_fields(src), vec!["scan_rows", "verify_checks_run"]);
    }

    #[test]
    fn allowlist_matches_by_rule_path_and_line() {
        let allow = vec![
            ('A', "x.rs".to_string(), Some(2)),
            ('B', "y.rs".to_string(), None),
        ];
        let hit = Finding {
            rule: 'A',
            path: "x.rs".into(),
            line: 2,
            message: String::new(),
        };
        let miss = Finding {
            line: 3,
            ..Finding {
                rule: 'A',
                path: "x.rs".into(),
                line: 0,
                message: String::new(),
            }
        };
        assert!(allowed(&allow, &hit));
        assert!(!allowed(&allow, &miss));
        let any_line = Finding {
            rule: 'B',
            path: "y.rs".into(),
            line: 99,
            message: String::new(),
        };
        assert!(allowed(&allow, &any_line));
    }

    #[test]
    fn workspace_is_lint_clean() {
        // The real scan over the real tree: keeps the repo honest without
        // waiting for CI.
        let root = repo_root();
        let findings: Vec<Finding> = rule_a(&root)
            .into_iter()
            .chain(rule_b(&root))
            .chain(rule_c(&root))
            .chain(rule_d(&root))
            .chain(rule_e(&root))
            .chain(rule_f(&root))
            .chain(rule_g(&root))
            .collect();
        let allow = load_allowlist(&root.join("xtask/lint-allow.txt"));
        let active: Vec<&Finding> = findings.iter().filter(|f| !allowed(&allow, f)).collect();
        assert!(active.is_empty(), "lint findings: {active:#?}");
    }
}
