//! Output checking: every execution's rows are compared with a reference
//! computed during setup, and the reference itself with a checked-in digest.

use crate::json::Json;
use rpt_common::ScalarValue;
use std::cmp::Ordering;
use std::path::Path;

type Row = Vec<ScalarValue>;

/// Floats may differ by summation order between plans; everything else is
/// exact.
const FLOAT_REL_TOL: f64 = 1e-9;

/// The expected rows of one query: in sequence for an `ordered` query,
/// canonically sorted otherwise.
pub struct Reference {
    pub rows: Vec<Row>,
    pub ordered: bool,
    /// `QueryResult::work()` of the reference execution.
    pub work: u64,
}

impl Reference {
    pub fn new(mut rows: Vec<Row>, ordered: bool, work: u64) -> Reference {
        if !ordered {
            rows.sort_by(cmp_rows);
        }
        Reference {
            rows,
            ordered,
            work,
        }
    }

    pub fn matches(&self, rows: &[Row]) -> bool {
        if rows.len() != self.rows.len() {
            return false;
        }
        if self.ordered {
            return self.rows.iter().zip(rows).all(|(a, b)| rows_equal(a, b));
        }
        let mut idx: Vec<usize> = (0..rows.len()).collect();
        idx.sort_by(|&a, &b| cmp_rows(&rows[a], &rows[b]));
        self.rows
            .iter()
            .zip(idx)
            .all(|(a, i)| rows_equal(a, &rows[i]))
    }
}

fn rank(v: &ScalarValue) -> u8 {
    match v {
        ScalarValue::Null => 0,
        ScalarValue::Bool(_) => 1,
        ScalarValue::Int64(_) => 2,
        ScalarValue::Float64(_) => 3,
        ScalarValue::Utf8(_) => 4,
    }
}

fn cmp_values(a: &ScalarValue, b: &ScalarValue) -> Ordering {
    match (a, b) {
        (ScalarValue::Bool(x), ScalarValue::Bool(y)) => x.cmp(y),
        (ScalarValue::Int64(x), ScalarValue::Int64(y)) => x.cmp(y),
        (ScalarValue::Float64(x), ScalarValue::Float64(y)) => x.total_cmp(y),
        (ScalarValue::Utf8(x), ScalarValue::Utf8(y)) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)),
    }
}

/// Canonical row order: the exact columns first, floats last, so that two
/// results whose floats differ within tolerance still sort alike.
fn cmp_rows(a: &Row, b: &Row) -> Ordering {
    let is_float = |v: &ScalarValue| matches!(v, ScalarValue::Float64(_));
    let exact = a
        .iter()
        .zip(b)
        .filter(|(x, y)| !is_float(x) && !is_float(y))
        .map(|(x, y)| cmp_values(x, y))
        .find(|o| o.is_ne());
    exact
        .or_else(|| {
            a.iter()
                .zip(b)
                .map(|(x, y)| cmp_values(x, y))
                .find(|o| o.is_ne())
        })
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

fn rows_equal(a: &Row, b: &Row) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (ScalarValue::Float64(x), ScalarValue::Float64(y)) => {
                x == y
                    || (x.is_nan() && y.is_nan())
                    || (x - y).abs() <= FLOAT_REL_TOL * x.abs().max(y.abs())
            }
            _ => x == y,
        })
}

fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Order-insensitive digest of the exact (non-float) values of a result,
/// with its own hash so an engine hash change cannot hide in it.
pub fn checksum(rows: &[Row]) -> u64 {
    rows.iter()
        .map(|row| {
            row.iter().enumerate().fold(0u64, |acc, (col, v)| {
                let h = match v {
                    ScalarValue::Null => 0x6E75_6C6C,
                    ScalarValue::Bool(b) => u64::from(*b) + 1,
                    ScalarValue::Int64(i) => *i as u64,
                    ScalarValue::Utf8(s) => s
                        .bytes()
                        .fold(0xCBF2_9CE4_8422_2325, |h, b| mix(h ^ u64::from(b))),
                    ScalarValue::Float64(_) => return acc,
                };
                mix(acc ^ mix(h.wrapping_add(col as u64 + 1)))
            })
        })
        .fold(0u64, |sum, h| sum.wrapping_add(mix(h)))
}

/// The checked-in digest of one workload's reference results, valid for
/// the seed and scale it was written at: a bug in `Mode::Baseline` itself
/// would move the reference and every run with it, but not this file.
pub fn golden_json(seed: u64, scale: f64, ids: &[String], refs: &[Reference]) -> Json {
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("scale", Json::Num(scale)),
        (
            "queries",
            Json::Obj(
                ids.iter()
                    .zip(refs)
                    .map(|(id, r)| {
                        let digest = Json::obj([
                            ("rows", Json::Num(r.rows.len() as f64)),
                            ("checksum", Json::Str(format!("{:016x}", checksum(&r.rows)))),
                        ]);
                        (id.clone(), digest)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Ids of the queries whose reference differs from the golden file at
/// `path`. No file, or a file written for another seed or scale, checks
/// nothing.
pub fn golden_mismatches(
    path: &Path,
    seed: u64,
    scale: f64,
    ids: &[String],
    refs: &[Reference],
) -> Result<Vec<String>, String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(Vec::new());
    };
    let golden = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let same = |key: &str, want: f64| golden.get(key).and_then(Json::as_f64) == Some(want);
    if !same("seed", seed as f64) || !same("scale", scale) {
        return Ok(Vec::new());
    }
    let now = golden_json(seed, scale, ids, refs);
    Ok(ids
        .iter()
        .filter(|id| {
            let at = |j: &Json| j.get("queries").and_then(|q| q.get(id)).cloned();
            at(&golden) != at(&now)
        })
        .cloned()
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ScalarValue::{Float64, Int64, Null, Utf8};

    fn rows() -> Vec<Row> {
        vec![
            vec![Int64(2), Utf8("b".into()), Float64(10.0)],
            vec![Int64(1), Utf8("a".into()), Float64(0.1 + 0.2)],
            vec![Int64(1), Null, Float64(3.0)],
        ]
    }

    #[test]
    fn unordered_reference_ignores_order_and_float_rounding() {
        let r = Reference::new(rows(), false, 0);
        let mut shuffled = rows();
        shuffled.reverse();
        shuffled[1][2] = Float64(0.3); // differs from 0.1 + 0.2 in the last bit
        assert!(r.matches(&shuffled));
    }

    #[test]
    fn any_changed_value_or_row_count_fails() {
        let r = Reference::new(rows(), false, 0);
        let mut wrong = rows();
        wrong[0][0] = Int64(3);
        assert!(!r.matches(&wrong));
        let mut wrong = rows();
        wrong[0][2] = Float64(10.0001);
        assert!(!r.matches(&wrong));
        assert!(!r.matches(&rows()[..2]));
    }

    #[test]
    fn ordered_reference_requires_the_sequence() {
        let r = Reference::new(rows(), true, 0);
        assert!(r.matches(&rows()));
        let mut swapped = rows();
        swapped.swap(0, 1);
        assert!(!r.matches(&swapped));
    }

    #[test]
    fn checksum_is_order_insensitive_and_skips_floats() {
        let mut other = rows();
        other.reverse();
        other[0][2] = Float64(-1.0);
        assert_eq!(checksum(&rows()), checksum(&other));
        other[0][0] = Int64(7);
        assert_ne!(checksum(&rows()), checksum(&other));
        // the column a value sits in matters
        let a = vec![vec![Int64(1), Int64(2)]];
        let b = vec![vec![Int64(2), Int64(1)]];
        assert_ne!(checksum(&a), checksum(&b));
    }

    #[test]
    fn golden_detects_a_moved_reference() {
        let dir = std::env::temp_dir().join(format!("rpt_golden_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.json");
        let ids = vec!["t.q1".to_string()];
        let refs = vec![Reference::new(rows(), false, 0)];
        std::fs::write(&path, golden_json(42, 1.0, &ids, &refs).pretty()).unwrap();
        assert!(golden_mismatches(&path, 42, 1.0, &ids, &refs)
            .unwrap()
            .is_empty());
        let mut moved = rows();
        moved[2][0] = Int64(9);
        let moved = vec![Reference::new(moved, false, 0)];
        assert_eq!(
            golden_mismatches(&path, 42, 1.0, &ids, &moved).unwrap(),
            ids
        );
        // another seed or scale: the file does not apply
        assert!(golden_mismatches(&path, 7, 1.0, &ids, &moved)
            .unwrap()
            .is_empty());
        assert!(golden_mismatches(&path, 42, 0.5, &ids, &moved)
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
