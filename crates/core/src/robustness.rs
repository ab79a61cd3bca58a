//! Robustness measurement: run a query under many random join orders and
//! compute the Robustness Factor (RF) — the max/min ratio the paper uses
//! throughout §5.
//!
//! RF is computed on the deterministic *work* metric (tuples through
//! stateful operators), which is what the theory actually bounds and what
//! makes the laptop-scale reproduction stable; wall-clock factors are the
//! benchmark's `robustness.rf_time_*`.

use crate::engine::{Database, Mode, QueryOptions};
use crate::optimizer::{random_bushy, random_left_deep, JoinOrder};
use crate::query::JoinQuery;
use rpt_common::Result;

/// Aggregated robustness statistics for one query × one mode.
#[derive(Debug, Clone)]
pub struct RobustnessReport {
    pub mode: Mode,
    pub works: Vec<u64>,
    /// Orders that exceeded the budget (the `*` markers in the paper's
    /// figures); each counts as `budget` work in `works`.
    pub timeouts: usize,
}

impl RobustnessReport {
    /// Robustness factor over the work metric (max/min of completed runs).
    /// Timeouts count as `budget`-work runs, so RF is a lower bound when
    /// timeouts occurred.
    pub fn rf_work(&self) -> f64 {
        ratio(&self.works.iter().map(|&w| w as f64).collect::<Vec<_>>())
    }

    /// Five-number summary of normalized work (for box plots à la Fig. 6):
    /// (min, p25, median, p75, max).
    pub fn work_box(&self) -> (f64, f64, f64, f64, f64) {
        five_numbers(&self.works.iter().map(|&w| w as f64).collect::<Vec<_>>())
    }
}

fn ratio(values: &[f64]) -> f64 {
    let (mut min, mut max) = (f64::INFINITY, 0.0f64);
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    if values.is_empty() || min <= 0.0 {
        return f64::NAN;
    }
    max / min
}

/// (min, p25, median, p75, max) with linear interpolation.
pub fn five_numbers(values: &[f64]) -> (f64, f64, f64, f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN, f64::NAN, f64::NAN, f64::NAN);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| -> f64 {
        let idx = p * (v.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        if lo == hi {
            v[lo]
        } else {
            v[lo] + (v[hi] - v[lo]) * (idx - lo as f64)
        }
    };
    (v[0], q(0.25), q(0.5), q(0.75), v[v.len() - 1])
}

/// Run `n` random join orders (left-deep or bushy) of `q` under `mode` and
/// collect the robustness report. `budget` caps catastrophic orders
/// (`None` = run to completion).
pub fn robustness_factor(
    db: &Database,
    q: &JoinQuery,
    mode: Mode,
    n: usize,
    bushy: bool,
    budget: Option<u64>,
    base_seed: u64,
) -> Result<RobustnessReport> {
    let graph = q.graph();
    let mut works = Vec::with_capacity(n);
    let mut timeouts = 0;
    for i in 0..n {
        let seed = base_seed.wrapping_add(i as u64);
        let order = if bushy {
            JoinOrder::Bushy(random_bushy(&graph, seed))
        } else {
            JoinOrder::LeftDeep(random_left_deep(&graph, seed))
        };
        let mut opts = QueryOptions::new(mode).with_order(order);
        opts.work_budget = budget;
        match db.execute(q, &opts) {
            Ok(r) => works.push(r.work()),
            Err(e) if e.is_budget() => {
                timeouts += 1;
                if let Some(b) = budget {
                    works.push(b);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(RobustnessReport {
        mode,
        works,
        timeouts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_common::{DataType, Field, Schema, Vector};
    use rpt_storage::Table;

    fn db() -> Database {
        let mut db = Database::new();
        // A chain where a bad order explodes: big ⋈ mid ⋈ sel, where `sel`
        // is highly selective. Joining big⋈mid first is wasteful.
        db.register_table(
            Table::new(
                "big",
                Schema::new(vec![Field::new("k", DataType::Int64)]),
                vec![Vector::from_i64((0..2000).map(|i| i % 500).collect())],
            )
            .unwrap(),
        );
        db.register_table(
            Table::new(
                "mid",
                Schema::new(vec![
                    Field::new("k", DataType::Int64),
                    Field::new("j", DataType::Int64),
                ]),
                vec![
                    Vector::from_i64((0..500).collect()),
                    Vector::from_i64((0..500).map(|i| i % 50).collect()),
                ],
            )
            .unwrap(),
        );
        db.register_table(
            Table::new(
                "sel",
                Schema::new(vec![
                    Field::new("j", DataType::Int64),
                    Field::new("flag", DataType::Int64),
                ]),
                vec![
                    Vector::from_i64((0..50).collect()),
                    Vector::from_i64((0..50).map(|i| i64::from(i == 7)).collect()),
                ],
            )
            .unwrap(),
        );
        db
    }

    const SQL: &str = "SELECT COUNT(*) FROM big b, mid m, sel s \
                       WHERE b.k = m.k AND m.j = s.j AND s.flag = 1";

    #[test]
    fn rpt_is_more_robust_than_baseline() {
        let db = db();
        let q = db.bind_sql(SQL).unwrap();
        let base = robustness_factor(&db, &q, Mode::Baseline, 8, false, None, 1).unwrap();
        let rpt =
            robustness_factor(&db, &q, Mode::RobustPredicateTransfer, 8, false, None, 1).unwrap();
        assert!(
            base.rf_work() >= rpt.rf_work(),
            "baseline RF {} should exceed RPT RF {}",
            base.rf_work(),
            rpt.rf_work()
        );
        assert_eq!(rpt.timeouts, 0);
        // All runs completed and produced consistent work counts.
        assert_eq!(rpt.works.len(), 8);
    }

    #[test]
    fn bushy_reports_work() {
        let db = db();
        let q = db.bind_sql(SQL).unwrap();
        let r =
            robustness_factor(&db, &q, Mode::RobustPredicateTransfer, 5, true, None, 42).unwrap();
        assert_eq!(r.works.len(), 5);
        assert!(r.rf_work() >= 1.0);
    }

    #[test]
    fn budget_counts_timeouts() {
        let db = db();
        let q = db.bind_sql(SQL).unwrap();
        let r = robustness_factor(&db, &q, Mode::Baseline, 6, false, Some(100), 3).unwrap();
        assert!(r.timeouts > 0);
        assert_eq!(r.works.len(), 6);
    }

    #[test]
    fn five_number_summary() {
        let (mn, p25, med, p75, mx) = five_numbers(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((mn, p25, med, p75, mx), (1.0, 2.0, 3.0, 4.0, 5.0));
        let (mn, _, med, _, mx) = five_numbers(&[2.0]);
        assert_eq!((mn, med, mx), (2.0, 2.0, 2.0));
    }
}
