//! Every query of the four workload generators (TPC-H, JOB, TPC-DS, DSB;
//! 64 in all, the cyclic ones included) under every `Mode` at partition
//! counts 1 and 8 returns the oracle's answer (`tests/oracle/`): the
//! paper's claim that the join strategy never changes the result, checked
//! against a reference that shares only the parser and binder with the
//! engine. At scale 0.2, 55 of the 64 answers hold a non-zero count or a
//! group; at 0.02 only 30 would.

mod oracle;

use rpt_core::{Database, Mode, QueryOptions};
use rpt_workloads::{dsb, job, tpcds, tpch, Workload};

const SF: f64 = 0.2;

/// Check every query of `w`; returns how many there are.
fn check_workload(w: &Workload) -> usize {
    let mut db = Database::new();
    for t in &w.tables {
        db.register_table(t.clone());
    }
    for q in &w.queries {
        let bound = db
            .bind_sql(&q.sql)
            .unwrap_or_else(|e| panic!("{}: {e}", q.id));
        let expected =
            oracle::eval(&bound, &w.tables).unwrap_or_else(|e| panic!("{} oracle: {e}", q.id));
        for mode in Mode::ALL {
            for partitions in [1usize, 8] {
                let at = format!("{} {} {mode:?} pc={partitions}", w.name, q.id);
                let opts = QueryOptions::new(mode).with_partition_count(partitions);
                let r = db
                    .execute(&bound, &opts)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                expected.check(&r.rows, &at);
            }
        }
    }
    w.queries.len()
}

#[test]
fn tpch_queries_equal_the_oracle_in_every_mode() {
    assert_eq!(check_workload(&tpch(SF, 42)), 12);
}

#[test]
fn job_queries_equal_the_oracle_in_every_mode() {
    assert_eq!(check_workload(&job(SF, 42)), 18);
}

#[test]
fn tpcds_queries_equal_the_oracle_in_every_mode() {
    assert_eq!(check_workload(&tpcds(SF, 42)), 17);
}

#[test]
fn dsb_queries_equal_the_oracle_in_every_mode() {
    assert_eq!(check_workload(&dsb(SF, 42)), 17);
}

/// `Answer::check` of ordered results: rows may trade places only where
/// their ORDER BY keys tie, floats within the tolerance.
mod ordered_check {
    use super::oracle::{Answer, Row};
    use rpt_common::ScalarValue::{Float64, Utf8};
    use rpt_core::query::BoundOrderKey;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Rows `(name, x)` ordered by `x` ascending, in that order.
    fn answer(xs: &[(&str, f64)], offset: usize, limit: Option<usize>) -> Answer {
        Answer {
            all: xs.iter().map(|&(n, x)| row(n, x)).collect(),
            order_by: vec![BoundOrderKey {
                output_pos: 1,
                desc: false,
                nulls_first: false,
            }],
            offset,
            limit,
        }
    }

    fn row(name: &str, x: f64) -> Row {
        vec![Utf8(name.into()), Float64(x)]
    }

    fn accepts(a: &Answer, got: &[Row]) -> bool {
        catch_unwind(AssertUnwindSafe(|| a.check(got, "check"))).is_ok()
    }

    const NEAR: f64 = 1.0 + 1e-12;

    #[test]
    fn a_reversed_float_order_fails() {
        let a = answer(&[("a", 1.0), ("b", 2.0), ("c", 3.0)], 0, None);
        assert!(accepts(&a, &[row("a", 1.0), row("b", 2.0), row("c", 3.0)]));
        assert!(!accepts(&a, &[row("c", 3.0), row("b", 2.0), row("a", 1.0)]));
    }

    #[test]
    fn an_unsorted_limit_window_fails() {
        let a = answer(&[("a", 1.0), ("b", 2.0), ("c", 3.0)], 1, Some(2));
        assert!(accepts(&a, &[row("b", 2.0), row("c", 3.0)]));
        assert!(!accepts(&a, &[row("c", 3.0), row("b", 2.0)]));
    }

    #[test]
    fn swapped_float_near_ties_pass() {
        let a = answer(&[("a", 1.0), ("b", NEAR), ("c", 3.0)], 0, None);
        assert!(accepts(&a, &[row("b", NEAR), row("a", 1.0), row("c", 3.0)]));
        assert!(!accepts(
            &a,
            &[row("b", NEAR), row("b", NEAR), row("c", 3.0)]
        ));
    }

    #[test]
    fn a_near_tie_may_cross_the_limit_edge() {
        let a = answer(&[("a", 1.0), ("b", NEAR), ("c", 3.0)], 0, Some(1));
        assert!(accepts(&a, &[row("b", NEAR)]));
        assert!(!accepts(&a, &[row("c", 3.0)]));
    }
}
