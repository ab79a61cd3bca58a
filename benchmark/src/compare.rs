//! `compare A.json B.json`: every (workload, metric) of two results files
//! side by side, with the benchmark's bounds applied to the end-to-end
//! ones. A is the base; every ratio printed is B's median over A's.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, spread};
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot show whether the metric held; never reported as unchanged.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Every end-to-end metric is lower-is-better. The spread of a side with a
/// single run is unknown and does not count.
pub fn verdict(base: &[f64], new: &[f64], bound: f64) -> Verdict {
    let widest = [base, new]
        .iter()
        .filter(|v| v.len() >= 2)
        .map(|v| spread(v))
        .fold(0.0, f64::max);
    let change = median(new) / median(base) - 1.0;
    if widest > bound {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Regressed
    } else if change < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn values(file: &Json, workload: &str, group: &str, metric: &str) -> Vec<f64> {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(group))
        .and_then(|g| g.get(metric))
        .and_then(|m| m.get("values"))
        .map_or_else(Vec::new, Json::f64s)
}

fn summary(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v);
    format!("{:.6} [{:.6}, {:.6}] n={}", median(v), q1, q3, v.len())
}

pub struct Comparison {
    pub text: String,
    /// Any end-to-end metric regressed or unresolved, or more failures.
    pub clean: bool,
}

/// Refuses two files measured on machines with different core counts:
/// `parallel` and `spill` size their pools from it.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let nproc = |f: &Json| f.get("machine")?.get("nproc")?.as_f64();
    let (na, nb) = (nproc(a), nproc(b));
    if na.is_none() || na != nb {
        return Err(format!(
            "nproc differs or is missing (A: {na:?}, B: {nb:?}); the two files are not comparable"
        ));
    }
    let mut text = String::new();
    let mut clean = true;
    let names = |f: &Json| -> Vec<String> {
        f.get("workloads")
            .map_or(&[][..], Json::entries)
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    };
    for workload in names(a) {
        if !names(b).contains(&workload) {
            continue;
        }
        let failed = |f: &Json| {
            f.get("workloads")
                .and_then(|w| w.get(&workload))
                .and_then(|w| w.get("failed"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let (fa, fb) = (failed(a), failed(b));
        if fb > fa {
            clean = false;
        }
        writeln!(
            text,
            "{workload} failed A={fa} B={fb}{}",
            if fb > fa { " regressed" } else { "" }
        )
        .expect("write to String");
        for m in &END_TO_END {
            let (va, vb) = (
                values(a, &workload, "end_to_end", m.name),
                values(b, &workload, "end_to_end", m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, m.bound);
            clean &= !matches!(v, Verdict::Regressed | Verdict::Unresolved);
            writeln!(
                text,
                "{workload} {} {} A={} B={} ratio={:.4} (base A={:.6}) bound={} {}",
                m.name,
                m.unit,
                summary(&va),
                summary(&vb),
                median(&vb) / median(&va),
                median(&va),
                m.bound,
                v.label()
            )
            .expect("write to String");
        }
        for m in &PER_LAYER {
            let (va, vb) = (
                values(a, &workload, "per_layer", m.name),
                values(b, &workload, "per_layer", m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            // Counts repeat exactly on one-thread workloads; say so when
            // they do not rather than print a ratio of 1.0000.
            let note = if m.unit == "count" && ma != mb {
                " differs"
            } else {
                ""
            };
            writeln!(
                text,
                "{workload} {} {} A={ma} B={mb} ratio={:.4} (base A={ma}){note}",
                m.name,
                m.unit,
                mb / ma
            )
            .expect("write to String");
        }
    }
    Ok(Comparison { text, clean })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(
            verdict(&base, &[1.02, 1.01, 1.03, 1.02], 0.07),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &[1.10, 1.11, 1.09, 1.10], 0.07),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &[0.80, 0.81, 0.79, 0.80], 0.07),
            Verdict::Improved
        );
        // a spread wider than the bound is never "unchanged", whatever the medians
        assert_eq!(
            verdict(&base, &[0.9, 1.0, 1.1, 1.2], 0.07),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[0.9, 1.0, 1.1, 1.2], &base, 0.07),
            Verdict::Unresolved
        );
        // single runs: no spread to judge, the ratio alone decides
        assert_eq!(verdict(&[1.0], &[1.05], 0.07), Verdict::Unchanged);
        assert_eq!(verdict(&[1.0], &[1.08], 0.07), Verdict::Regressed);
    }

    fn file(nproc: f64, pass_s: &[f64], failed: f64) -> Json {
        Json::obj([
            ("machine", Json::obj([("nproc", Json::Num(nproc))])),
            (
                "workloads",
                Json::obj([(
                    "corpus-rpt",
                    Json::obj([
                        ("failed", Json::Num(failed)),
                        (
                            "end_to_end",
                            Json::obj([(
                                "pass_s",
                                Json::obj([
                                    ("unit", Json::str("s")),
                                    ("values", Json::nums(pass_s)),
                                ]),
                            )]),
                        ),
                        (
                            "per_layer",
                            Json::obj([(
                                "exec.work_tuples",
                                Json::obj([
                                    ("unit", Json::str("count")),
                                    ("values", Json::nums(&[100.0])),
                                ]),
                            )]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn refuses_different_core_counts() {
        let err = compare(&file(2.0, &[1.0], 0.0), &file(8.0, &[1.0], 0.0));
        assert!(err.is_err_and(|e| e.contains("nproc")));
        assert!(compare(&Json::Obj(vec![]), &file(2.0, &[1.0], 0.0)).is_err());
    }

    #[test]
    fn reports_ratio_with_base_and_flags_regressions() {
        let a = file(2.0, &[1.0, 1.0, 1.01], 0.0);
        let same = compare(&a, &file(2.0, &[1.01, 1.0, 1.02], 0.0)).unwrap();
        assert!(same.clean, "{}", same.text);
        assert!(same.text.contains("corpus-rpt pass_s s A=1.000000"));
        assert!(same.text.contains("(base A=1.000000) bound=0.25 unchanged"));
        assert!(same.text.contains("exec.work_tuples count A=100 B=100"));

        let slow = compare(&a, &file(2.0, &[1.4, 1.4, 1.41], 0.0)).unwrap();
        assert!(!slow.clean);
        assert!(slow.text.contains("regressed"));

        let failing = compare(&a, &file(2.0, &[1.0, 1.0, 1.01], 3.0)).unwrap();
        assert!(!failing.clean);
    }
}
