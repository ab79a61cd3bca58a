//! Property test for the selection-vector predicate kernels: random chunks
//! (`Int64` / `Float64` / `Bool` / `Utf8` flat and dictionary-backed, with
//! NULLs, with and without an incoming selection) × random predicates over
//! every `Expr` variant — `Predicate::select` must return exactly the rows
//! on which `Expr::eval` yields TRUE, including under `NOT` (UNKNOWN stays
//! UNKNOWN) and when one compiled predicate (one dictionary memo) serves
//! several chunks.

use proptest::prelude::*;
use proptest::TestRng;
use rpt_common::{DataChunk, ScalarValue, Utf8Dict, Vector};
use rpt_exec::{ArithOp, CmpOp, Expr, Predicate};
use std::sync::Arc;

const WORDS: [&str; 8] = [
    "ring", "ringer", "sing", "singer", "", "bring", "rin", "zebra",
];
const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::NotEq,
    CmpOp::Lt,
    CmpOp::LtEq,
    CmpOp::Gt,
    CmpOp::GtEq,
];

// Column layout of every generated chunk.
const INT_A: usize = 0;
const INT_B: usize = 1;
const FLOAT: usize = 2;
const BOOL: usize = 3;
const STR_FLAT: usize = 4;
const STR_DICT: usize = 5;

fn pick<T: Copy>(rng: &mut TestRng, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize]
}

fn validity(rng: &mut TestRng, n: usize) -> Option<Vec<bool>> {
    // A third of the columns have no mask at all (the all-valid fast path).
    (rng.below(3) > 0).then(|| (0..n).map(|_| rng.below(4) > 0).collect())
}

fn chunk(rng: &mut TestRng, dict: &Arc<Utf8Dict>) -> DataChunk {
    let n = rng.below(40) as usize;
    let small = |rng: &mut TestRng| rng.below(9) as i64 - 4;
    let mut cols = vec![
        Vector::from_i64((0..n).map(|_| small(rng)).collect()),
        Vector::from_i64((0..n).map(|_| small(rng)).collect()),
        Vector::from_f64(
            (0..n)
                .map(|_| match rng.below(8) {
                    0 => f64::NAN,
                    _ => small(rng) as f64 / 2.0,
                })
                .collect(),
        ),
        Vector::from_bool((0..n).map(|_| rng.gen_bool()).collect()),
        Vector::from_utf8((0..n).map(|_| pick(rng, &WORDS).to_string()).collect()),
        Vector::from_dict_codes(
            (0..n)
                .map(|_| rng.below(dict.len() as u64) as i64)
                .collect(),
            None,
            dict.clone(),
        ),
    ];
    for c in &mut cols {
        c.validity = validity(rng, n);
    }
    let mut chunk = DataChunk::new(cols);
    if n > 0 && rng.gen_bool() {
        // An arbitrary (unordered, possibly repeating) incoming selection.
        let k = rng.below(n as u64 + 1) as usize;
        chunk.set_selection((0..k).map(|_| rng.below(n as u64) as u32).collect());
    }
    chunk
}

fn int_lit(rng: &mut TestRng) -> ScalarValue {
    ScalarValue::Int64(rng.below(9) as i64 - 4)
}

fn float_lit(rng: &mut TestRng) -> ScalarValue {
    match rng.below(8) {
        0 => ScalarValue::Float64(f64::NAN),
        _ => ScalarValue::Float64((rng.below(9) as f64 - 4.0) / 2.0),
    }
}

fn str_lit(rng: &mut TestRng) -> String {
    pick(rng, &["ring", "ing", "r", "", "sing", "zebra", "q"]).to_string()
}

fn in_list(
    rng: &mut TestRng,
    mut item: impl FnMut(&mut TestRng) -> ScalarValue,
) -> Vec<ScalarValue> {
    let mut list: Vec<ScalarValue> = (0..rng.below(4)).map(|_| item(rng)).collect();
    if rng.below(4) == 0 {
        list.push(ScalarValue::Null);
    }
    list
}

/// A string constant, now and then an integer one (a string compares to
/// no integer: FALSE, not an error).
fn str_or_int_lit(rng: &mut TestRng) -> ScalarValue {
    if rng.below(6) == 0 {
        int_lit(rng)
    } else {
        ScalarValue::Utf8(str_lit(rng))
    }
}

/// A numeric operand: a column, or arithmetic over columns and literals
/// (no kernel — exercises the `eval` fallback on a row subset).
fn numeric(rng: &mut TestRng) -> Expr {
    match rng.below(4) {
        0 => Expr::col(INT_A),
        1 => Expr::col(INT_B),
        2 => Expr::col(FLOAT),
        _ => Expr::Arith {
            op: pick(rng, &[ArithOp::Add, ArithOp::Sub, ArithOp::Mul]),
            left: Box::new(Expr::col(pick(rng, &[INT_A, INT_B, FLOAT]))),
            right: Box::new(Expr::lit(int_lit(rng))),
        },
    }
}

fn leaf(rng: &mut TestRng) -> Expr {
    let op = pick(rng, &OPS);
    let str_col = pick(rng, &[STR_FLAT, STR_DICT]);
    let boxed_str = Box::new(Expr::col(str_col));
    match rng.below(12) {
        0 => Expr::cmp(op, numeric(rng), Expr::lit(int_lit(rng))),
        1 => Expr::cmp(op, Expr::lit(float_lit(rng)), numeric(rng)),
        2 => Expr::cmp(op, numeric(rng), numeric(rng)),
        3 => Expr::cmp(op, Expr::col(str_col), Expr::lit(str_or_int_lit(rng))),
        4 => Expr::cmp(op, Expr::col(STR_FLAT), Expr::col(STR_DICT)),
        5 => Expr::cmp(
            op,
            Expr::col(BOOL),
            Expr::lit(ScalarValue::Bool(rng.gen_bool())),
        ),
        6 => Expr::InList {
            expr: Box::new(Expr::col(pick(rng, &[INT_A, FLOAT]))),
            list: in_list(rng, |rng| {
                if rng.gen_bool() {
                    int_lit(rng)
                } else {
                    float_lit(rng)
                }
            }),
        },
        7 => Expr::InList {
            expr: boxed_str,
            list: in_list(rng, str_or_int_lit),
        },
        8 => Expr::Contains {
            expr: boxed_str,
            pattern: str_lit(rng),
        },
        9 => Expr::StartsWith {
            expr: boxed_str,
            pattern: str_lit(rng),
        },
        10 => Expr::EndsWith {
            expr: boxed_str,
            pattern: str_lit(rng),
        },
        _ => match rng.below(5) {
            0 => Expr::IsNull(Box::new(numeric(rng))),
            1 => Expr::IsNull(boxed_str),
            2 => Expr::col(BOOL),
            // Constant shapes: `x = NULL` and a bare literal.
            3 => Expr::eq(Expr::col(INT_A), Expr::lit(ScalarValue::Null)),
            _ => Expr::lit(ScalarValue::Bool(true)),
        },
    }
}

fn predicate(rng: &mut TestRng, depth: u32) -> Expr {
    if depth == 0 || rng.below(3) == 0 {
        return leaf(rng);
    }
    let parts = |rng: &mut TestRng| -> Vec<Expr> {
        (0..rng.below(4))
            .map(|_| predicate(rng, depth - 1))
            .collect()
    };
    match rng.below(3) {
        0 => Expr::And(parts(rng)),
        1 => Expr::Or(parts(rng)),
        _ => Expr::Not(Box::new(predicate(rng, depth - 1))),
    }
}

/// Logical rows on which `Expr::eval` yields TRUE.
fn oracle(e: &Expr, c: &DataChunk) -> Vec<u32> {
    let v = e.eval(c).expect("eval");
    (0..c.num_rows() as u32)
        .filter(|&i| v.is_valid(i as usize) && v.bool_slice()[i as usize])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn select_equals_eval(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_name(&format!("predicate-{seed}"));
        let dict = Utf8Dict::from_values(WORDS);
        let e = predicate(&mut rng, 3);
        // One compiled predicate over several chunks sharing a dictionary:
        // verdicts memoized on the first chunk must hold on the next.
        let compiled = Predicate::new(&e);
        for _ in 0..3 {
            let c = chunk(&mut rng, &dict);
            let want = oracle(&e, &c);
            prop_assert_eq!(compiled.select(&c).expect("select"), want.clone(), "{:?}\n{:?}", e, c);
            prop_assert_eq!(Predicate::new(&e).select(&c).expect("fresh select"), want, "{:?}", e);
        }
    }
}

/// The `Int64 column CMP Int64 literal` kernel, exhaustively: every
/// operator, plain and under `NOT`, literal on either side, against the
/// extreme literals and a present and an absent value, over a column with
/// and without NULLs, through an incoming selection and without one.
/// `select` must return the `eval` oracle's rows; a NULL row is in neither
/// the plain nor the negated result, and every other row is in exactly one.
#[test]
fn int64_compare_arm_equals_eval() {
    let vals = vec![i64::MIN, -5, 0, 3, 3, 17, i64::MAX, 42, -5, i64::MIN, 3];
    let n = vals.len();
    let nulls: Vec<bool> = (0..n).map(|i| i % 4 != 1 && i != 9).collect();
    let (present, absent) = (3, 4);
    for validity in [None, Some(nulls)] {
        for selection in [None, Some(vec![10u32, 0, 3, 3, 6, 1, 9, 5])] {
            let mut col = Vector::from_i64(vals.clone());
            col.validity = validity.clone();
            let mut c = DataChunk::new(vec![col]);
            let rows: Vec<usize> = match &selection {
                Some(sel) => {
                    c.set_selection(sel.clone());
                    sel.iter().map(|&r| r as usize).collect()
                }
                None => (0..n).collect(),
            };
            let valid = |k: u32| validity.as_ref().is_none_or(|m| m[rows[k as usize]]);
            for op in OPS {
                for x in [i64::MIN, i64::MAX, present, absent] {
                    let lit = || Expr::lit(ScalarValue::Int64(x));
                    for plain in [
                        Expr::cmp(op, Expr::col(0), lit()),
                        Expr::cmp(op, lit(), Expr::col(0)),
                    ] {
                        let negated = Expr::Not(Box::new(plain.clone()));
                        let hit = Predicate::new(&plain).select(&c).expect("select");
                        let miss = Predicate::new(&negated).select(&c).expect("select");
                        assert_eq!(hit, oracle(&plain, &c), "{plain:?} sel={selection:?}");
                        assert_eq!(miss, oracle(&negated, &c), "{negated:?} sel={selection:?}");
                        for k in 0..rows.len() as u32 {
                            let count = hit.contains(&k) as usize + miss.contains(&k) as usize;
                            assert_eq!(count, valid(k) as usize, "{plain:?} row {k}");
                        }
                    }
                }
            }
        }
    }
}
