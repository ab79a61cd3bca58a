//! Vectorized expressions: filters, projections, aggregates.
//!
//! Two evaluators share one semantics (SQL three-valued logic: a
//! comparison, `IN`, or `LIKE` over a NULL is UNKNOWN, `NOT` keeps UNKNOWN
//! UNKNOWN, and a filter keeps only TRUE rows):
//!
//! * [`Expr::eval`] materializes a value vector per node — projections,
//!   aggregate inputs, and the reference the kernels are tested against;
//! * [`Predicate`] refines a *selection vector* instead: `AND` narrows the
//!   surviving rows conjunct by conjunct and stops at nothing left, `OR`
//!   unions what each disjunct adds, and `column ⋈ constant` leaves run on
//!   the typed payload — per dictionary entry for dictionary-backed
//!   strings — without building bool or literal vectors. Shapes without a
//!   kernel (arithmetic, column-vs-column) fall back to `eval` over the
//!   surviving rows only.

use rpt_common::{ColumnData, DataChunk, DataType, Error, Result, ScalarValue, Utf8Dict, Vector};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl CmpOp {
    /// The comparison with swapped operands: `a OP b` ⇔ `b OP.flip() a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::NotEq => CmpOp::NotEq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
        }
    }

    /// The operator that holds exactly where this one fails, over totally
    /// ordered operands: `NOT (a OP b)` ⇔ `a OP.negate() b`.
    fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::NotEq,
            CmpOp::NotEq => CmpOp::Eq,
            CmpOp::Lt => CmpOp::GtEq,
            CmpOp::LtEq => CmpOp::Gt,
            CmpOp::Gt => CmpOp::LtEq,
            CmpOp::GtEq => CmpOp::Lt,
        }
    }

    /// Does an operand ordering satisfy this operator? `None` (NaN, or
    /// incomparable types) satisfies nothing, `<>` included.
    #[inline]
    fn holds(self, ord: Option<Ordering>) -> bool {
        match self {
            CmpOp::Eq => ord == Some(Ordering::Equal),
            CmpOp::NotEq => matches!(ord, Some(Ordering::Less | Ordering::Greater)),
            CmpOp::Lt => ord == Some(Ordering::Less),
            CmpOp::LtEq => matches!(ord, Some(Ordering::Less | Ordering::Equal)),
            CmpOp::Gt => ord == Some(Ordering::Greater),
            CmpOp::GtEq => matches!(ord, Some(Ordering::Greater | Ordering::Equal)),
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// A scalar expression evaluated over the *logical* rows of a chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to the chunk column at this index.
    Column(usize),
    Literal(ScalarValue),
    Cmp {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Arith {
        op: ArithOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    And(Vec<Expr>),
    Or(Vec<Expr>),
    Not(Box<Expr>),
    /// `expr IN (v1, v2, ...)`.
    InList {
        expr: Box<Expr>,
        list: Vec<ScalarValue>,
    },
    /// Substring match — our stand-in for `LIKE '%pat%'`.
    Contains {
        expr: Box<Expr>,
        pattern: String,
    },
    /// Prefix match — stand-in for `LIKE 'pat%'`.
    StartsWith {
        expr: Box<Expr>,
        pattern: String,
    },
    /// Suffix match — stand-in for `LIKE '%pat'`.
    EndsWith {
        expr: Box<Expr>,
        pattern: String,
    },
    IsNull(Box<Expr>),
}

/// The logical rows of a chunk an evaluation covers: all `n` of them, or
/// an ascending subset.
#[derive(Clone, Copy)]
enum Rows<'a> {
    All(usize),
    Some(&'a [u32]),
}

impl Rows<'_> {
    fn len(&self) -> usize {
        match self {
            Rows::All(n) => *n,
            Rows::Some(r) => r.len(),
        }
    }

    fn to_vec(self) -> Vec<u32> {
        match self {
            Rows::All(n) => (0..n as u32).collect(),
            Rows::Some(r) => r.to_vec(),
        }
    }
}

/// The payload of a boolean-typed vector, or an execution error.
fn bools(v: &Vector) -> Result<&[bool]> {
    match (&v.data, v.is_dict()) {
        (ColumnData::Bool(b), false) => Ok(b),
        _ => Err(Error::Exec(format!(
            "expected a boolean operand, got {:?}",
            v.data_type()
        ))),
    }
}

/// A boolean vector from per-row `(value, known)` pairs: unknown rows
/// become NULLs with a `false` placeholder payload.
fn tri_vector(mut val: Vec<bool>, known: Vec<bool>) -> Vector {
    for (v, &k) in val.iter_mut().zip(&known) {
        *v &= k;
    }
    let mut out = Vector::from_bool(val);
    if known.iter().any(|&k| !k) {
        out.validity = Some(known);
    }
    out
}

impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    pub fn lit(v: ScalarValue) -> Expr {
        Expr::Literal(v)
    }

    pub fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
        Expr::Cmp {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    pub fn eq(l: Expr, r: Expr) -> Expr {
        Expr::cmp(CmpOp::Eq, l, r)
    }

    pub fn and(exprs: Vec<Expr>) -> Expr {
        match <[Expr; 1]>::try_from(exprs) {
            Ok([only]) => only,
            Err(exprs) => Expr::And(exprs),
        }
    }

    /// Result type of this expression over `input` column types.
    pub fn data_type(&self, input: &[DataType]) -> Result<DataType> {
        Ok(match self {
            Expr::Column(i) => *input
                .get(*i)
                .ok_or_else(|| Error::Plan(format!("column index {i} out of bounds")))?,
            Expr::Literal(v) => v.data_type().unwrap_or(DataType::Int64),
            Expr::Cmp { .. }
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::InList { .. }
            | Expr::Contains { .. }
            | Expr::StartsWith { .. }
            | Expr::EndsWith { .. }
            | Expr::IsNull(_) => DataType::Bool,
            Expr::Arith { op: _, left, right } => {
                let lt = left.data_type(input)?;
                let rt = right.data_type(input)?;
                if lt == DataType::Float64 || rt == DataType::Float64 {
                    DataType::Float64
                } else {
                    DataType::Int64
                }
            }
        })
    }

    /// Every column index this expression reads.
    pub fn columns(&self, out: &mut BTreeSet<usize>) {
        match self {
            Expr::Column(c) => {
                out.insert(*c);
            }
            Expr::Literal(_) => {}
            Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
                left.columns(out);
                right.columns(out);
            }
            Expr::And(parts) | Expr::Or(parts) => parts.iter().for_each(|p| p.columns(out)),
            Expr::Not(e)
            | Expr::IsNull(e)
            | Expr::InList { expr: e, .. }
            | Expr::Contains { expr: e, .. }
            | Expr::StartsWith { expr: e, .. }
            | Expr::EndsWith { expr: e, .. } => e.columns(out),
        }
    }

    /// The same expression with every column index rewritten through `f`.
    pub fn map_columns(&self, f: &dyn Fn(usize) -> usize) -> Expr {
        let sub = |e: &Expr| Box::new(e.map_columns(f));
        match self {
            Expr::Column(c) => Expr::Column(f(*c)),
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Cmp { op, left, right } => Expr::Cmp {
                op: *op,
                left: sub(left),
                right: sub(right),
            },
            Expr::Arith { op, left, right } => Expr::Arith {
                op: *op,
                left: sub(left),
                right: sub(right),
            },
            Expr::And(parts) => Expr::And(parts.iter().map(|p| p.map_columns(f)).collect()),
            Expr::Or(parts) => Expr::Or(parts.iter().map(|p| p.map_columns(f)).collect()),
            Expr::Not(e) => Expr::Not(sub(e)),
            Expr::IsNull(e) => Expr::IsNull(sub(e)),
            Expr::InList { expr, list } => Expr::InList {
                expr: sub(expr),
                list: list.clone(),
            },
            Expr::Contains { expr, pattern } => Expr::Contains {
                expr: sub(expr),
                pattern: pattern.clone(),
            },
            Expr::StartsWith { expr, pattern } => Expr::StartsWith {
                expr: sub(expr),
                pattern: pattern.clone(),
            },
            Expr::EndsWith { expr, pattern } => Expr::EndsWith {
                expr: sub(expr),
                pattern: pattern.clone(),
            },
        }
    }

    /// Evaluate over the logical rows of `chunk`, producing a flat vector of
    /// length `chunk.num_rows()`.
    pub fn eval(&self, chunk: &DataChunk) -> Result<Vector> {
        self.eval_rows(chunk, Rows::All(chunk.num_rows()))
    }

    /// [`Expr::eval`] restricted to `rows`: one output row per listed
    /// logical row.
    fn eval_rows(&self, chunk: &DataChunk, rows: Rows<'_>) -> Result<Vector> {
        let n = rows.len();
        match self {
            Expr::Column(i) => {
                let col = chunk
                    .columns
                    .get(*i)
                    .ok_or_else(|| Error::Exec(format!("column {i} out of bounds")))?;
                Ok(match (rows, &chunk.selection) {
                    (Rows::All(_), None) => col.clone(),
                    (Rows::All(_), Some(sel)) => col.take(sel),
                    (Rows::Some(r), None) => col.take(r),
                    (Rows::Some(r), Some(sel)) => {
                        let phys: Vec<u32> = r.iter().map(|&i| sel[i as usize]).collect();
                        col.take(&phys)
                    }
                })
            }
            Expr::Literal(v) => {
                let mut out = Vector::new_empty(v.data_type().unwrap_or(DataType::Int64));
                for _ in 0..n {
                    out.push(v)?;
                }
                Ok(out)
            }
            Expr::Cmp { op, left, right } => {
                let l = left.eval_rows(chunk, rows)?;
                let r = right.eval_rows(chunk, rows)?;
                eval_cmp(*op, &l, &r)
            }
            Expr::Arith { op, left, right } => {
                let l = left.eval_rows(chunk, rows)?;
                let r = right.eval_rows(chunk, rows)?;
                eval_arith(*op, &l, &r)
            }
            // Kleene AND / OR: a deciding operand (FALSE for AND, TRUE for
            // OR) wins over UNKNOWN; otherwise UNKNOWN is contagious.
            Expr::And(parts) | Expr::Or(parts) => {
                let decides = matches!(self, Expr::Or(_));
                let mut decided = vec![false; n];
                let mut unknown = vec![false; n];
                for p in parts {
                    let v = p.eval_rows(chunk, rows)?;
                    let b = bools(&v)?;
                    for i in 0..n {
                        if !v.is_valid(i) {
                            unknown[i] = true;
                        } else if b[i] == decides {
                            decided[i] = true;
                        }
                    }
                }
                let val = decided.iter().map(|&d| d == decides).collect();
                let known = (0..n).map(|i| decided[i] || !unknown[i]).collect();
                Ok(tri_vector(val, known))
            }
            Expr::Not(inner) => {
                let v = inner.eval_rows(chunk, rows)?;
                let b = bools(&v)?;
                let mut out = Vector::from_bool((0..n).map(|i| v.is_valid(i) && !b[i]).collect());
                out.validity = v.validity;
                Ok(out)
            }
            Expr::InList { expr, list } => {
                let v = expr.eval_rows(chunk, rows)?;
                // A miss against a list holding a NULL is UNKNOWN.
                let null_in_list = list.iter().any(ScalarValue::is_null);
                let (mut val, mut known) = (Vec::with_capacity(n), Vec::with_capacity(n));
                for i in 0..n {
                    let x = v.get(i);
                    let found = !x.is_null() && list.iter().any(|y| y == &x);
                    val.push(found);
                    known.push(found || !(x.is_null() || null_in_list));
                }
                Ok(tri_vector(val, known))
            }
            Expr::Contains { expr, pattern } => {
                eval_like(expr, chunk, rows, |s| s.contains(pattern))
            }
            Expr::StartsWith { expr, pattern } => {
                eval_like(expr, chunk, rows, |s| s.starts_with(pattern))
            }
            Expr::EndsWith { expr, pattern } => {
                eval_like(expr, chunk, rows, |s| s.ends_with(pattern))
            }
            Expr::IsNull(inner) => {
                let v = inner.eval_rows(chunk, rows)?;
                Ok(Vector::from_bool((0..n).map(|i| !v.is_valid(i)).collect()))
            }
        }
    }
}

/// One of the `LIKE` stand-ins over the rows of a string operand: NULL in,
/// NULL out.
fn eval_like(
    operand: &Expr,
    chunk: &DataChunk,
    rows: Rows<'_>,
    test: impl Fn(&str) -> bool,
) -> Result<Vector> {
    let v = operand.eval_rows(chunk, rows)?;
    if v.data_type() != DataType::Utf8 {
        return Err(Error::Exec(format!(
            "string predicate over a {:?} operand",
            v.data_type()
        )));
    }
    let hits = (0..v.len())
        .map(|i| v.is_valid(i) && test(v.utf8_at(i)))
        .collect();
    let mut out = Vector::from_bool(hits);
    out.validity = v.validity;
    Ok(out)
}

/// What a [`Predicate`] leaf tests its column against.
enum Test {
    /// `col CMP literal`, literal non-NULL.
    Cmp(CmpOp, ScalarValue),
    In(Vec<ScalarValue>),
    Contains(String),
    StartsWith(String),
    EndsWith(String),
}

impl Test {
    /// The verdict for a non-NULL string. A string never compares to a
    /// constant of another type, as in [`ScalarValue::partial_cmp_sql`].
    fn hit(&self, s: &str) -> bool {
        match self {
            Test::Cmp(op, lit) => op.holds(match lit {
                ScalarValue::Utf8(lit) => Some(s.cmp(lit.as_str())),
                _ => None,
            }),
            Test::In(list) => list
                .iter()
                .any(|v| matches!(v, ScalarValue::Utf8(x) if x == s)),
            Test::Contains(p) => s.contains(p.as_str()),
            Test::StartsWith(p) => s.starts_with(p.as_str()),
            Test::EndsWith(p) => s.ends_with(p.as_str()),
        }
    }

    /// The test as an [`Expr`] over column `col`, for the column types
    /// without a kernel.
    fn to_expr(&self, col: usize) -> Expr {
        let expr = Box::new(Expr::Column(col));
        match self {
            Test::Cmp(op, lit) => Expr::Cmp {
                op: *op,
                left: expr,
                right: Box::new(Expr::Literal(lit.clone())),
            },
            Test::In(list) => Expr::InList {
                expr,
                list: list.clone(),
            },
            Test::Contains(p) => Expr::Contains {
                expr,
                pattern: p.clone(),
            },
            Test::StartsWith(p) => Expr::StartsWith {
                expr,
                pattern: p.clone(),
            },
            Test::EndsWith(p) => Expr::EndsWith {
                expr,
                pattern: p.clone(),
            },
        }
    }
}

/// One leaf's verdict per entry of one dictionary, decided the first time
/// a code is met and shared by every chunk (and worker) the predicate
/// sees afterwards.
struct DictVerdicts {
    dict: Arc<Utf8Dict>,
    /// 0 = undecided, 1 = miss, 2 = hit. `Relaxed` suffices: a verdict
    /// publishes nothing but itself and racing writers store equal values.
    verdicts: Vec<AtomicU8>,
}

impl DictVerdicts {
    #[inline]
    fn hit(&self, code: usize, test: &Test) -> bool {
        match self.verdicts[code].load(Relaxed) {
            0 => {
                let hit = test.hit(self.dict.value(code));
                self.verdicts[code].store(1 + hit as u8, Relaxed);
                hit
            }
            v => v == 2,
        }
    }
}

/// The [`DictVerdicts`] of the dictionary a leaf last met (a scan column
/// has exactly one).
#[derive(Default)]
struct DictMemo(Mutex<Option<Arc<DictVerdicts>>>);

impl DictMemo {
    fn verdicts(&self, dict: &Arc<Utf8Dict>) -> Result<Arc<DictVerdicts>> {
        let mut slot = self
            .0
            .lock()
            .map_err(|_| Error::Exec("dictionary memo lock poisoned".into()))?;
        if let Some(v) = slot.as_ref().filter(|v| Arc::ptr_eq(&v.dict, dict)) {
            return Ok(v.clone());
        }
        let fresh = Arc::new(DictVerdicts {
            dict: dict.clone(),
            verdicts: (0..dict.len()).map(|_| AtomicU8::new(0)).collect(),
        });
        *slot = Some(fresh.clone());
        Ok(fresh)
    }
}

enum Node {
    And(Vec<Node>),
    Or(Vec<Node>),
    Not(Box<Node>),
    /// `col IS NULL`.
    IsNull(usize),
    /// `col ⋈ constant`.
    Leaf {
        col: usize,
        test: Test,
        memo: DictMemo,
    },
    /// Any other shape, evaluated through [`Expr::eval`].
    Generic(Expr),
}

/// A predicate compiled for selection-vector evaluation (see the module
/// docs). Shareable across workers; dictionary verdicts accumulate inside.
pub struct Predicate {
    root: Node,
}

impl Predicate {
    pub fn new(expr: &Expr) -> Predicate {
        Predicate {
            root: Node::compile(expr),
        }
    }

    /// Logical row indices of `chunk` (ascending) for which the predicate
    /// is TRUE.
    pub fn select(&self, chunk: &DataChunk) -> Result<Vec<u32>> {
        self.root.select(chunk, Rows::All(chunk.num_rows()), true)
    }
}

impl Node {
    fn compile(expr: &Expr) -> Node {
        let leaf = |col: &Expr, test: Test| match col {
            Expr::Column(c) => Node::Leaf {
                col: *c,
                test,
                memo: DictMemo::default(),
            },
            _ => Node::Generic(expr.clone()),
        };
        match expr {
            Expr::And(parts) => Node::And(parts.iter().map(Node::compile).collect()),
            Expr::Or(parts) => Node::Or(parts.iter().map(Node::compile).collect()),
            Expr::Not(inner) => Node::Not(Box::new(Node::compile(inner))),
            Expr::IsNull(inner) => match &**inner {
                Expr::Column(c) => Node::IsNull(*c),
                _ => Node::Generic(expr.clone()),
            },
            Expr::Cmp { op, left, right } => match (&**left, &**right) {
                (col, Expr::Literal(v)) if !v.is_null() => leaf(col, Test::Cmp(*op, v.clone())),
                (Expr::Literal(v), col) if !v.is_null() => {
                    leaf(col, Test::Cmp(op.flip(), v.clone()))
                }
                _ => Node::Generic(expr.clone()),
            },
            Expr::InList { expr: e, list } => leaf(e, Test::In(list.clone())),
            Expr::Contains { expr: e, pattern } => leaf(e, Test::Contains(pattern.clone())),
            Expr::StartsWith { expr: e, pattern } => leaf(e, Test::StartsWith(pattern.clone())),
            Expr::EndsWith { expr: e, pattern } => leaf(e, Test::EndsWith(pattern.clone())),
            Expr::Column(_) | Expr::Literal(_) | Expr::Arith { .. } => Node::Generic(expr.clone()),
        }
    }

    /// The rows of `rows` on which this node evaluates to `want` (never
    /// the UNKNOWN ones), ascending.
    fn select(&self, chunk: &DataChunk, rows: Rows<'_>, want: bool) -> Result<Vec<u32>> {
        match self {
            Node::Not(inner) => inner.select(chunk, rows, !want),
            // AND is TRUE (OR is FALSE) only where every part is: narrow
            // the surviving rows part by part, stopping at nothing left.
            Node::And(parts) | Node::Or(parts) if matches!(self, Node::And(_)) == want => {
                let mut cur: Option<Vec<u32>> = None;
                for p in parts {
                    let next = p.select(chunk, cur.as_deref().map_or(rows, Rows::Some), want)?;
                    let done = next.is_empty();
                    cur = Some(next);
                    if done {
                        break;
                    }
                }
                Ok(cur.unwrap_or_else(|| rows.to_vec()))
            }
            // OR is TRUE (AND is FALSE) wherever any part is: union what
            // each part decides among the rows still undecided.
            Node::And(parts) | Node::Or(parts) => {
                let mut out: Vec<u32> = Vec::new();
                let mut rest = rows.to_vec();
                for p in parts {
                    if rest.is_empty() {
                        break;
                    }
                    let hit = p.select(chunk, Rows::Some(&rest), want)?;
                    if !hit.is_empty() {
                        rest.retain(|r| hit.binary_search(r).is_err());
                        out.extend(hit);
                    }
                }
                out.sort_unstable();
                Ok(out)
            }
            Node::IsNull(col) => {
                let c = column(chunk, *col)?;
                Ok(match c.validity.as_deref() {
                    Some(m) => scan_rows(chunk, rows, |p| m[p] != want),
                    None if want => Vec::new(),
                    None => rows.to_vec(),
                })
            }
            Node::Leaf { col, test, memo } => {
                match select_leaf(column(chunk, *col)?, test, memo, chunk, rows, want)? {
                    Some(hit) => Ok(hit),
                    None => select_generic(&test.to_expr(*col), chunk, rows, want),
                }
            }
            Node::Generic(expr) => select_generic(expr, chunk, rows, want),
        }
    }
}

fn column(chunk: &DataChunk, col: usize) -> Result<&Vector> {
    chunk
        .columns
        .get(col)
        .ok_or_else(|| Error::Exec(format!("column {col} out of bounds")))
}

/// The rows of `rows` whose *physical* row passes `pass`, compacted
/// without a branch on the verdict: every candidate is written at the
/// cursor, which then advances by the verdict (as `KeyBitmap::probe_sel`
/// does), so a selectivity near one half costs no mispredictions.
fn scan_rows(chunk: &DataChunk, rows: Rows<'_>, pass: impl Fn(usize) -> bool) -> Vec<u32> {
    let mut out = vec![0u32; rows.len()];
    let mut kept = 0;
    let mut put = |row: u32, phys: usize| {
        out[kept] = row;
        kept += pass(phys) as usize;
    };
    match (rows, chunk.selection.as_deref()) {
        (Rows::All(n), None) => (0..n as u32).for_each(|i| put(i, i as usize)),
        (Rows::All(n), Some(sel)) => (0..n as u32).for_each(|i| put(i, sel[i as usize] as usize)),
        (Rows::Some(r), None) => r.iter().for_each(|&i| put(i, i as usize)),
        (Rows::Some(r), Some(sel)) => r.iter().for_each(|&i| put(i, sel[i as usize] as usize)),
    }
    out.truncate(kept);
    out
}

/// [`scan_rows`] over the non-NULL rows of one column.
#[derive(Clone, Copy)]
struct ValidRows<'a> {
    chunk: &'a DataChunk,
    rows: Rows<'a>,
    valid: Option<&'a [bool]>,
}

impl ValidRows<'_> {
    fn keep(self, pass: impl Fn(usize) -> bool) -> Vec<u32> {
        match self.valid {
            None => scan_rows(self.chunk, self.rows, pass),
            Some(m) => scan_rows(self.chunk, self.rows, |p| m[p] && pass(p)),
        }
    }

    /// [`ValidRows::keep`] for a `pass` that reads any row's payload
    /// safely: it runs on NULL rows too, so validity joins the verdict
    /// without a branch.
    fn keep_any_payload(self, pass: impl Fn(usize) -> bool) -> Vec<u32> {
        match self.valid {
            None => scan_rows(self.chunk, self.rows, pass),
            Some(m) => scan_rows(self.chunk, self.rows, |p| m[p] & pass(p)),
        }
    }
}

/// Run a leaf's typed kernel over column `c`; `Ok(None)` when the column's
/// type has none for this test.
fn select_leaf(
    c: &Vector,
    test: &Test,
    memo: &DictMemo,
    chunk: &DataChunk,
    rows: Rows<'_>,
    want: bool,
) -> Result<Option<Vec<u32>>> {
    if let Test::In(list) = test {
        // A miss against a list holding a NULL is UNKNOWN, so with one no
        // row is FALSE.
        if !want && list.iter().any(ScalarValue::is_null) {
            return Ok(Some(Vec::new()));
        }
    }
    let valid = c.validity.as_deref();
    let scan = ValidRows { chunk, rows, valid };
    Ok(Some(match (&c.data, &c.dict, test) {
        // Dictionary-backed strings: test the code's memoized verdict.
        (ColumnData::Int64(codes), Some(dict), _) => {
            let verdicts = memo.verdicts(dict)?;
            scan.keep(|p| verdicts.hit(codes[p] as usize, test) == want)
        }
        (ColumnData::Utf8(vals), None, _) => scan.keep(|p| test.hit(&vals[p]) == want),
        (ColumnData::Int64(vals), None, Test::Cmp(op, ScalarValue::Int64(x))) => {
            // Validity drops NULL rows first and non-NULL Int64 values are
            // totally ordered, so NOT is exactly the negated operator: the
            // comparison is picked once, not per row.
            let x = *x;
            match if want { *op } else { op.negate() } {
                CmpOp::Eq => scan.keep_any_payload(|p| vals[p] == x),
                CmpOp::NotEq => scan.keep_any_payload(|p| vals[p] != x),
                CmpOp::Lt => scan.keep_any_payload(|p| vals[p] < x),
                CmpOp::LtEq => scan.keep_any_payload(|p| vals[p] <= x),
                CmpOp::Gt => scan.keep_any_payload(|p| vals[p] > x),
                CmpOp::GtEq => scan.keep_any_payload(|p| vals[p] >= x),
            }
        }
        (ColumnData::Int64(vals), None, Test::Cmp(op, ScalarValue::Float64(x))) => {
            scan.keep(|p| op.holds((vals[p] as f64).partial_cmp(x)) == want)
        }
        (ColumnData::Float64(vals), None, Test::Cmp(op, ScalarValue::Float64(x))) => {
            scan.keep(|p| op.holds(vals[p].partial_cmp(x)) == want)
        }
        (ColumnData::Float64(vals), None, Test::Cmp(op, ScalarValue::Int64(x))) => {
            let x = *x as f64;
            scan.keep(|p| op.holds(vals[p].partial_cmp(&x)) == want)
        }
        (ColumnData::Bool(vals), None, Test::Cmp(op, ScalarValue::Bool(x))) => {
            scan.keep(|p| op.holds(vals[p].partial_cmp(x)) == want)
        }
        (ColumnData::Int64(vals), None, Test::In(list)) => {
            let ints: Vec<i64> = list
                .iter()
                .filter_map(|v| match v {
                    ScalarValue::Int64(x) => Some(*x),
                    _ => None,
                })
                .collect();
            scan.keep(|p| ints.contains(&vals[p]) == want)
        }
        _ => return Ok(None),
    }))
}

/// Evaluate `expr` over `rows` through [`Expr::eval`] and keep the rows
/// where it is `want`.
fn select_generic(expr: &Expr, chunk: &DataChunk, rows: Rows<'_>, want: bool) -> Result<Vec<u32>> {
    let v = expr.eval_rows(chunk, rows)?;
    let b = bools(&v)?;
    let keep = |k: &usize| v.is_valid(*k) && b[*k] == want;
    Ok(match rows {
        Rows::All(n) => (0..n).filter(keep).map(|k| k as u32).collect(),
        Rows::Some(r) => (0..r.len()).filter(keep).map(|k| r[k]).collect(),
    })
}

/// The `Int64 column CMP i64-literal` conjuncts of a predicate, normalized
/// to `(column, op, literal)` with the column on the left. These are the
/// conjuncts a scan can check against per-block zone maps: any block whose
/// `[min, max]` proves the conjunct false for every row can be skipped
/// without changing the filter's output (NULL rows never pass a comparison
/// either way). Walks `And` trees; `Or`/`Not` subtrees contribute nothing.
pub(crate) fn prunable_conjuncts(expr: &Expr) -> Vec<(usize, CmpOp, i64)> {
    fn walk(e: &Expr, out: &mut Vec<(usize, CmpOp, i64)>) {
        match e {
            Expr::And(parts) => parts.iter().for_each(|p| walk(p, out)),
            Expr::Cmp { op, left, right } => match (&**left, &**right) {
                (Expr::Column(c), Expr::Literal(ScalarValue::Int64(x))) => out.push((*c, *op, *x)),
                (Expr::Literal(ScalarValue::Int64(x)), Expr::Column(c)) => {
                    out.push((*c, op.flip(), *x))
                }
                _ => {}
            },
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out
}

/// The `Utf8 column CMP string-literal` conjuncts of a predicate,
/// normalized to `(column, op, literal)` with the column on the left —
/// the string analog of [`prunable_conjuncts`]. A scan can check these
/// against per-block `Utf8` zone maps when the column carries a sorted
/// shared dictionary (dict codes are assigned in lexicographic order, so
/// comparing the literal against the zone's string bounds is exactly the
/// dict-code comparison). Walks `And` trees; `Or`/`Not` subtrees
/// contribute nothing.
pub(crate) fn prunable_utf8_conjuncts(expr: &Expr) -> Vec<(usize, CmpOp, String)> {
    fn walk(e: &Expr, out: &mut Vec<(usize, CmpOp, String)>) {
        match e {
            Expr::And(parts) => parts.iter().for_each(|p| walk(p, out)),
            Expr::Cmp { op, left, right } => match (&**left, &**right) {
                (Expr::Column(c), Expr::Literal(ScalarValue::Utf8(s))) => {
                    out.push((*c, *op, s.clone()))
                }
                (Expr::Literal(ScalarValue::Utf8(s)), Expr::Column(c)) => {
                    out.push((*c, op.flip(), s.clone()))
                }
                _ => {}
            },
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out
}

/// `l CMP r` row by row; NULL on either side gives NULL.
fn eval_cmp(op: CmpOp, l: &Vector, r: &Vector) -> Result<Vector> {
    let n = l.len();
    if r.len() != n {
        return Err(Error::Exec("comparison arity mismatch".into()));
    }
    let both = |i: usize| l.is_valid(i) && r.is_valid(i);
    // Typed fast paths for the hot combinations.
    let hits: Vec<bool> = match (&l.data, &r.data) {
        _ if l.is_dict() || r.is_dict() => (0..n)
            .map(|i| op.holds(l.get(i).partial_cmp_sql(&r.get(i))))
            .collect(),
        (ColumnData::Int64(a), ColumnData::Int64(b)) => (0..n)
            .map(|i| both(i) && op.holds(Some(a[i].cmp(&b[i]))))
            .collect(),
        (ColumnData::Float64(a), ColumnData::Float64(b)) => (0..n)
            .map(|i| both(i) && op.holds(a[i].partial_cmp(&b[i])))
            .collect(),
        (ColumnData::Utf8(a), ColumnData::Utf8(b)) => (0..n)
            .map(|i| both(i) && op.holds(Some(a[i].cmp(&b[i]))))
            .collect(),
        _ => (0..n)
            .map(|i| op.holds(l.get(i).partial_cmp_sql(&r.get(i))))
            .collect(),
    };
    let mut out = Vector::from_bool(hits);
    out.validity = merge_validity(l, r, n);
    Ok(out)
}

fn eval_arith(op: ArithOp, l: &Vector, r: &Vector) -> Result<Vector> {
    let n = l.len();
    if r.len() != n {
        return Err(Error::Exec("arithmetic arity mismatch".into()));
    }
    match (&l.data, &r.data) {
        (ColumnData::Int64(a), ColumnData::Int64(b)) => {
            let vals: Vec<i64> = (0..n)
                .map(|i| match op {
                    ArithOp::Add => a[i].wrapping_add(b[i]),
                    ArithOp::Sub => a[i].wrapping_sub(b[i]),
                    ArithOp::Mul => a[i].wrapping_mul(b[i]),
                    ArithOp::Div => {
                        if b[i] == 0 {
                            0
                        } else {
                            a[i] / b[i]
                        }
                    }
                })
                .collect();
            let mut v = Vector::from_i64(vals);
            v.validity = merge_validity(l, r, n);
            Ok(v)
        }
        _ => {
            // Promote to f64.
            let get = |v: &Vector, i: usize| -> f64 { v.get(i).as_f64().unwrap_or(f64::NAN) };
            let vals: Vec<f64> = (0..n)
                .map(|i| {
                    let (a, b) = (get(l, i), get(r, i));
                    match op {
                        ArithOp::Add => a + b,
                        ArithOp::Sub => a - b,
                        ArithOp::Mul => a * b,
                        ArithOp::Div => a / b,
                    }
                })
                .collect();
            let mut v = Vector::from_f64(vals);
            v.validity = merge_validity(l, r, n);
            Ok(v)
        }
    }
}

fn merge_validity(l: &Vector, r: &Vector, n: usize) -> Option<Vec<bool>> {
    if l.validity.is_none() && r.validity.is_none() {
        return None;
    }
    Some((0..n).map(|i| l.is_valid(i) && r.is_valid(i)).collect())
}

/// Aggregate functions supported by the hash aggregate sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    CountStar,
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// One aggregate: a function over an input expression (`None` for
/// `COUNT(*)`).
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    pub input: Option<Expr>,
    pub alias: String,
}

impl AggExpr {
    pub fn count_star(alias: impl Into<String>) -> AggExpr {
        AggExpr {
            func: AggFunc::CountStar,
            input: None,
            alias: alias.into(),
        }
    }

    pub fn output_type(&self, input: &[DataType]) -> Result<DataType> {
        Ok(match self.func {
            AggFunc::CountStar | AggFunc::Count => DataType::Int64,
            AggFunc::Avg => DataType::Float64,
            AggFunc::Sum => match self
                .input
                .as_ref()
                .ok_or_else(|| Error::Plan("SUM needs an argument".into()))?
                .data_type(input)?
            {
                DataType::Float64 => DataType::Float64,
                _ => DataType::Int64,
            },
            AggFunc::Min | AggFunc::Max => self
                .input
                .as_ref()
                .ok_or_else(|| Error::Plan("MIN/MAX need an argument".into()))?
                .data_type(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(e: &Expr, c: &DataChunk) -> Result<Vec<u32>> {
        Predicate::new(e).select(c)
    }

    fn chunk() -> DataChunk {
        DataChunk::new(vec![
            Vector::from_i64(vec![1, 2, 3, 4]),
            Vector::from_utf8(vec!["ab".into(), "bc".into(), "cd".into(), "bcd".into()]),
            Vector::from_f64(vec![1.5, 2.5, 3.5, 4.5]),
        ])
    }

    #[test]
    fn column_and_literal() {
        let c = chunk();
        let v = Expr::col(0).eval(&c).unwrap();
        assert_eq!(v.i64_slice(), &[1, 2, 3, 4]);
        let l = Expr::lit(ScalarValue::Int64(9)).eval(&c).unwrap();
        assert_eq!(l.i64_slice(), &[9, 9, 9, 9]);
    }

    #[test]
    fn comparison_selection() {
        let c = chunk();
        let pred = Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::lit(ScalarValue::Int64(2)));
        assert_eq!(select(&pred, &c).unwrap(), vec![2, 3]);
    }

    #[test]
    fn respects_chunk_selection() {
        let mut c = chunk();
        c.set_selection(vec![1, 3]); // values 2, 4
        let pred = Expr::cmp(CmpOp::GtEq, Expr::col(0), Expr::lit(ScalarValue::Int64(3)));
        // logical row 1 (value 4) passes
        assert_eq!(select(&pred, &c).unwrap(), vec![1]);
    }

    #[test]
    fn and_or_not() {
        let c = chunk();
        let gt1 = Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::lit(ScalarValue::Int64(1)));
        let lt4 = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(ScalarValue::Int64(4)));
        let both = Expr::And(vec![gt1.clone(), lt4.clone()]);
        assert_eq!(select(&both, &c).unwrap(), vec![1, 2]);
        let either = Expr::Or(vec![
            Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit(ScalarValue::Int64(1))),
            Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit(ScalarValue::Int64(4))),
        ]);
        assert_eq!(select(&either, &c).unwrap(), vec![0, 3]);
        let neither = Expr::Not(Box::new(either));
        assert_eq!(select(&neither, &c).unwrap(), vec![1, 2]);
    }

    #[test]
    fn string_predicates() {
        let c = chunk();
        let contains = Expr::Contains {
            expr: Box::new(Expr::col(1)),
            pattern: "bc".into(),
        };
        assert_eq!(select(&contains, &c).unwrap(), vec![1, 3]);
        let starts = Expr::StartsWith {
            expr: Box::new(Expr::col(1)),
            pattern: "b".into(),
        };
        assert_eq!(select(&starts, &c).unwrap(), vec![1, 3]);
    }

    #[test]
    fn in_list() {
        let c = chunk();
        let inl = Expr::InList {
            expr: Box::new(Expr::col(0)),
            list: vec![ScalarValue::Int64(2), ScalarValue::Int64(4)],
        };
        assert_eq!(select(&inl, &c).unwrap(), vec![1, 3]);
    }

    #[test]
    fn arithmetic() {
        let c = chunk();
        let sum = Expr::Arith {
            op: ArithOp::Add,
            left: Box::new(Expr::col(0)),
            right: Box::new(Expr::col(0)),
        };
        assert_eq!(sum.eval(&c).unwrap().i64_slice(), &[2, 4, 6, 8]);
        let mixed = Expr::Arith {
            op: ArithOp::Mul,
            left: Box::new(Expr::col(0)),
            right: Box::new(Expr::col(2)),
        };
        let v = mixed.eval(&c).unwrap();
        assert_eq!(v.f64_slice()[1], 5.0);
        assert_eq!(
            mixed
                .data_type(&[DataType::Int64, DataType::Utf8, DataType::Float64])
                .unwrap(),
            DataType::Float64
        );
    }

    /// Rows where [`Expr::eval`] yields TRUE — the reference for every
    /// selection kernel.
    fn oracle(e: &Expr, c: &DataChunk) -> Vec<u32> {
        let v = e.eval(c).unwrap();
        (0..c.num_rows() as u32)
            .filter(|&i| v.is_valid(i as usize) && v.bool_slice()[i as usize])
            .collect()
    }

    /// The `col CMP Int64-literal` kernel agrees with the bool-vector
    /// evaluation in every orientation, under chunk selections, under
    /// `NOT`, and with NULLs.
    #[test]
    fn constant_comparison_kernel_matches_eval() {
        let mut v = Vector::new_empty(DataType::Int64);
        for x in [
            ScalarValue::Int64(5),
            ScalarValue::Null,
            ScalarValue::Int64(-3),
            ScalarValue::Int64(9),
            ScalarValue::Int64(2),
        ] {
            v.push(&x).unwrap();
        }
        let mut c = DataChunk::new(vec![v]);
        let ops = [
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Gt,
            CmpOp::GtEq,
        ];
        for with_sel in [false, true] {
            if with_sel {
                c.set_selection(vec![4, 1, 0, 2]);
            }
            for op in ops {
                for lit in [-3i64, 2, 6] {
                    let direct = Expr::cmp(op, Expr::col(0), Expr::lit(ScalarValue::Int64(lit)));
                    // Literal-on-the-left flips the operator.
                    let flipped = Expr::cmp(op, Expr::lit(ScalarValue::Int64(lit)), Expr::col(0));
                    let negated = Expr::Not(Box::new(direct.clone()));
                    for e in [direct, flipped, negated] {
                        assert_eq!(
                            select(&e, &c).unwrap(),
                            oracle(&e, &c),
                            "{e:?} sel {with_sel}"
                        );
                    }
                }
            }
        }
    }

    fn nullable_strings(dict: bool) -> Vector {
        let vals = ["ringer", "ring", "", "sing", "ring"];
        let validity = Some(vec![true, true, false, true, true]);
        if dict {
            let d = Utf8Dict::from_values(vals);
            let codes = vals.iter().map(|s| d.code_of(s).unwrap() as i64).collect();
            Vector::from_dict_codes(codes, validity, d)
        } else {
            let mut v = Vector::from_utf8(vals.iter().map(|s| s.to_string()).collect());
            v.validity = validity;
            v
        }
    }

    /// UNKNOWN stays UNKNOWN under `NOT`: a NULL operand fails `NOT IN`,
    /// `NOT LIKE` and `NOT (x = 5)` alike, in the kernels and in `eval`.
    #[test]
    fn not_keeps_unknown_unknown() {
        let mut ints = Vector::new_empty(DataType::Int64);
        for x in [
            ScalarValue::Int64(5),
            ScalarValue::Null,
            ScalarValue::Int64(7),
        ] {
            ints.push(&x).unwrap();
        }
        let not = |e: Expr| Expr::Not(Box::new(e));
        let c = DataChunk::new(vec![ints]);
        let not_eq = not(Expr::eq(Expr::col(0), Expr::lit(ScalarValue::Int64(5))));
        let not_in = not(Expr::InList {
            expr: Box::new(Expr::col(0)),
            list: vec![ScalarValue::Int64(5)],
        });
        for e in [not_eq, not_in] {
            assert_eq!(select(&e, &c).unwrap(), vec![2], "{e:?}");
            assert_eq!(oracle(&e, &c), vec![2], "{e:?}");
        }
        // A miss against a list holding a NULL is UNKNOWN too.
        let not_in_null = not(Expr::InList {
            expr: Box::new(Expr::col(0)),
            list: vec![ScalarValue::Int64(5), ScalarValue::Null],
        });
        assert_eq!(select(&not_in_null, &c).unwrap(), Vec::<u32>::new());
        assert_eq!(oracle(&not_in_null, &c), Vec::<u32>::new());

        for dict in [false, true] {
            let c = DataChunk::new(vec![nullable_strings(dict)]);
            let not_like = not(Expr::Contains {
                expr: Box::new(Expr::col(0)),
                pattern: "ring".into(),
            });
            assert_eq!(select(&not_like, &c).unwrap(), vec![3], "dict {dict}");
            assert_eq!(oracle(&not_like, &c), vec![3], "dict {dict}");
            // NOT over AND/OR: FALSE AND UNKNOWN is FALSE, TRUE OR UNKNOWN
            // is TRUE, everything else with an UNKNOWN stays UNKNOWN.
            let is_sing = Expr::eq(Expr::col(0), Expr::lit(ScalarValue::Utf8("sing".into())));
            let has_r = Expr::Contains {
                expr: Box::new(Expr::col(0)),
                pattern: "r".into(),
            };
            for e in [
                not(Expr::And(vec![is_sing.clone(), has_r.clone()])),
                not(Expr::Or(vec![is_sing, has_r])),
            ] {
                assert_eq!(select(&e, &c).unwrap(), oracle(&e, &c), "{e:?}");
                assert!(!oracle(&e, &c).contains(&2), "NULL row kept by {e:?}");
            }
        }
    }

    /// `LIKE '%ing'` is a suffix match, not a substring match, on flat and
    /// dictionary-backed strings.
    #[test]
    fn ends_with_rejects_inner_matches() {
        let e = Expr::EndsWith {
            expr: Box::new(Expr::col(0)),
            pattern: "ing".into(),
        };
        for dict in [false, true] {
            let c = DataChunk::new(vec![nullable_strings(dict)]);
            assert_eq!(select(&e, &c).unwrap(), vec![1, 3, 4], "dict {dict}");
            assert_eq!(oracle(&e, &c), vec![1, 3, 4], "dict {dict}");
        }
    }

    #[test]
    fn null_semantics() {
        let mut v = Vector::new_empty(DataType::Int64);
        v.push(&ScalarValue::Int64(1)).unwrap();
        v.push(&ScalarValue::Null).unwrap();
        let c = DataChunk::new(vec![v]);
        let pred = Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit(ScalarValue::Int64(1)));
        // NULL = 1 is not true → filtered out.
        assert_eq!(select(&pred, &c).unwrap(), vec![0]);
        let isnull = Expr::IsNull(Box::new(Expr::col(0)));
        assert_eq!(select(&isnull, &c).unwrap(), vec![1]);
    }

    #[test]
    fn division_by_zero_int() {
        let c = DataChunk::new(vec![Vector::from_i64(vec![10]), Vector::from_i64(vec![0])]);
        let div = Expr::Arith {
            op: ArithOp::Div,
            left: Box::new(Expr::col(0)),
            right: Box::new(Expr::col(1)),
        };
        assert_eq!(div.eval(&c).unwrap().i64_slice(), &[0]);
    }

    #[test]
    fn agg_types() {
        let input = [DataType::Int64, DataType::Float64];
        let sum_i = AggExpr {
            func: AggFunc::Sum,
            input: Some(Expr::col(0)),
            alias: "s".into(),
        };
        assert_eq!(sum_i.output_type(&input).unwrap(), DataType::Int64);
        let avg = AggExpr {
            func: AggFunc::Avg,
            input: Some(Expr::col(0)),
            alias: "a".into(),
        };
        assert_eq!(avg.output_type(&input).unwrap(), DataType::Float64);
        assert_eq!(
            AggExpr::count_star("c").output_type(&input).unwrap(),
            DataType::Int64
        );
    }
}
