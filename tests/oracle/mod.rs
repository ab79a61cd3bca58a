//! A row-at-a-time reference interpreter for bound queries: the oracle
//! the engine's answers are checked against.
//!
//! It shares only the parser and binder with the engine. It reads the
//! `JoinQuery` that `Database::bind_sql` returns and the raw input vectors
//! of each base `Table` (`Table::column(c).get(row)`), which the test hands
//! it: registration keeps only the block-encoded form, and the oracle
//! never reads that. It evaluates the query one `ScalarValue` row at a
//! time, in SQL's clause order (KipSQL's `bind_query` → `bind_select` →
//! `bind_limit`):
//!
//! 1. each relation's pushed-down `filter`, in three-valued logic;
//! 2. the equi-joins over attribute classes, where a NULL key never
//!    matches. Relations join one at a time in a connected order, so
//!    cyclic queries work too;
//! 3. the residual predicates;
//! 4. GROUP BY and the aggregates;
//! 5. the output items, ORDER BY, then OFFSET / LIMIT.
//!
//! No engine expression, predicate kernel, comparator, sort, aggregate,
//! hash table or block codec is used; `cargo xtask lint` rule G keeps it
//! that way. From `rpt_exec` only the plain operator enums are named.
//!
//! The scalar rules are the ones the engine documents:
//!
//! * `Int64` arithmetic wraps and `x / 0 = 0`; arithmetic with a `Float64`
//!   operand is `Float64`; NULL in, NULL out;
//! * `Int64` and `Float64` compare numerically; values of incomparable
//!   types compare false (not unknown); a NULL operand makes any
//!   comparison unknown;
//! * `IN` over a list holding NULL is unknown on a miss;
//! * `COUNT(*)` counts rows and `COUNT(x)` non-NULL values; `SUM` of
//!   `Int64` is `Int64`, an error once its running sum overflows; `AVG`
//!   is `Float64`;
//!   `MIN` / `MAX` keep the first of equal values; `AVG`, `MIN` and `MAX`
//!   over no value are NULL, but `SUM` over no value is 0 (SQL says NULL;
//!   the engine's aggregates and the benchmark's checked-in result digests
//!   both use 0); a group-less aggregate over no row yields one row;
//! * ORDER BY keys place NULLs by `nulls_first` and reverse only the
//!   value order when `desc`. Rows tied on every key order by every
//!   column, ascending, NULLs first, so the result order is total.

#![allow(dead_code)] // each test binary uses its own part of the oracle

use rpt_common::{DataType, Error, Result, ScalarValue};
use rpt_core::query::{BoundOrderKey, BoundRelation, JoinQuery, OutputKind, RExpr};
use rpt_core::Database;
use rpt_exec::{AggFunc, ArithOp, CmpOp};
use rpt_storage::Table;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};

pub type Row = Vec<ScalarValue>;

/// What a query must return.
#[derive(Debug)]
pub struct Answer {
    /// Every result row before OFFSET / LIMIT, in the query's total order.
    pub all: Vec<Row>,
    /// The query's ORDER BY keys; when there are any, row positions count.
    pub order_by: Vec<BoundOrderKey>,
    pub offset: usize,
    pub limit: Option<usize>,
}

/// A database and the raw tables registered in it, which the oracle reads.
pub struct Fixture {
    pub db: Database,
    pub tables: Vec<Table>,
}

impl Fixture {
    /// A new database with a copy of each of `tables` registered.
    pub fn new(tables: Vec<Table>) -> Fixture {
        let mut db = Database::new();
        for t in &tables {
            db.register_table(t.clone());
        }
        Fixture { db, tables }
    }

    /// Register (or replace) one more table.
    pub fn register(&mut self, table: Table) {
        self.tables.retain(|t| t.name != table.name);
        self.db.register_table(table.clone());
        self.tables.push(table);
    }

    /// The oracle's answer to `sql`.
    pub fn answer(&self, sql: &str) -> Answer {
        answer(&self.db, &self.tables, sql)
    }
}

/// `tables` with NULLs: in column `c`, row `i` is NULL when `i` is a
/// multiple of `7 + c`, so every filter column, join key, group key and
/// aggregate input holds some, at rows that differ between columns.
pub fn with_nulls(tables: &[Table]) -> Vec<Table> {
    tables
        .iter()
        .map(|t| {
            let columns = t
                .columns
                .iter()
                .enumerate()
                .map(|(c, v)| {
                    let mut v = v.clone();
                    v.validity = Some((0..v.len()).map(|i| i % (7 + c) != 0).collect());
                    v
                })
                .collect();
            Table::new(t.name.clone(), t.schema.clone(), columns).unwrap()
        })
        .collect()
}

/// Bind `sql` against `db` and evaluate it over `tables`, the raw tables
/// registered in `db`.
pub fn answer(db: &Database, tables: &[Table], sql: &str) -> Answer {
    let q = db
        .bind_sql(sql)
        .unwrap_or_else(|e| panic!("oracle: binding failed: {e}\n{sql}"));
    eval(&q, tables).unwrap_or_else(|e| panic!("oracle: evaluation failed: {e}\n{sql}"))
}

/// Evaluate a bound query over `tables`: the raw form of every table it
/// reads, found by name.
pub fn eval(q: &JoinQuery, tables: &[Table]) -> Result<Answer> {
    let inputs = (0..q.relations.len())
        .map(|r| filtered_rows(q, r, raw_table(tables, &q.relations[r])?))
        .collect::<Result<Vec<_>>>()?;
    let mut kept = Vec::new();
    for t in join(q, &inputs) {
        let env = env(&inputs, &t);
        let mut pass = true;
        for res in &q.residuals {
            pass &= holds(&res.expr, &env)?;
        }
        if pass {
            kept.push(t);
        }
    }
    let mut all = if q.group_by.is_empty() && q.aggs.is_empty() {
        kept.iter()
            .map(|t| {
                let env = env(&inputs, t);
                q.output
                    .iter()
                    .map(|item| match &item.kind {
                        OutputKind::Expr(e) => value(e, &env),
                        OutputKind::Agg(_) => {
                            Err(Error::Exec("aggregate output without aggregates".into()))
                        }
                    })
                    .collect()
            })
            .collect::<Result<Vec<Row>>>()?
    } else {
        aggregate(q, &inputs, &kept)?
    };
    all.sort_by(|a, b| total_order(&q.order_by, a, b));
    Ok(Answer {
        all,
        order_by: q.order_by.clone(),
        offset: q.offset.unwrap_or(0),
        limit: q.limit,
    })
}

/// The rows of `table` whose values satisfy `filter` (relation `rel`'s
/// single-relation predicate), projected to `columns`, in table order.
pub fn filter_table(
    table: &Table,
    filter: Option<&RExpr>,
    rel: usize,
    columns: &[usize],
) -> Result<Vec<Row>> {
    let all: Vec<usize> = (0..table.num_columns()).collect();
    let rows = passing_rows(table, filter, rel, &all)?;
    Ok(rows
        .iter()
        .map(|r| columns.iter().map(|&c| r[c].clone()).collect())
        .collect())
}

// ---- step 1: per-relation filters ----

/// The table of `tables` that relation `rel` was bound to. Its row count
/// must be the registered one, so a test cannot hand over a stale table.
fn raw_table<'t>(tables: &'t [Table], rel: &BoundRelation) -> Result<&'t Table> {
    let name = &rel.table.name;
    let table = tables
        .iter()
        .find(|t| &t.name == name)
        .ok_or_else(|| Error::Bind(format!("oracle: no raw input for table `{name}`")))?;
    if table.num_rows() != rel.table.num_rows() {
        return Err(Error::Bind(format!(
            "oracle: raw `{name}` has {} rows, the registered one {}",
            table.num_rows(),
            rel.table.num_rows()
        )));
    }
    Ok(table)
}

/// The rows of `table` that pass `filter` (over relation `rel`), in table
/// order, with the values of the columns `read` and NULL in every other
/// cell.
fn passing_rows(
    table: &Table,
    filter: Option<&RExpr>,
    rel: usize,
    read: &[usize],
) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    for row in 0..table.num_rows() {
        let mut values = vec![ScalarValue::Null; table.num_columns()];
        for &c in read {
            values[c] = table.column(c).get(row);
        }
        let mut env = vec![None; rel + 1];
        env[rel] = Some(&values);
        if filter.map_or(Ok(true), |f| holds(f, &env))? {
            out.push(values);
        }
    }
    Ok(out)
}

/// Relation `r`'s rows of `table` that pass its filter, with every column
/// the query reads of it.
fn filtered_rows(q: &JoinQuery, r: usize, table: &Table) -> Result<Vec<Row>> {
    let rel = &q.relations[r];
    let mut used = BTreeSet::new();
    let mut exprs: Vec<&RExpr> = rel.filter.iter().collect();
    exprs.extend(q.residuals.iter().map(|res| &res.expr));
    exprs.extend(q.aggs.iter().filter_map(|a| a.arg.as_ref()));
    exprs.extend(q.output.iter().filter_map(|o| match &o.kind {
        OutputKind::Expr(e) => Some(e),
        OutputKind::Agg(_) => None,
    }));
    for e in exprs {
        columns_of(e, r, &mut used);
    }
    used.extend(rel.attr_cols.values().copied());
    used.extend(
        q.group_by
            .iter()
            .filter(|(gr, _)| *gr == r)
            .map(|&(_, c)| c),
    );
    let used: Vec<usize> = used.into_iter().collect();
    passing_rows(table, rel.filter.as_ref(), r, &used)
}

/// The columns of relation `r` that `e` reads.
fn columns_of(e: &RExpr, r: usize, out: &mut BTreeSet<usize>) {
    match e {
        RExpr::Col { rel, col } => {
            if *rel == r {
                out.insert(*col);
            }
        }
        RExpr::Lit(_) => {}
        RExpr::Cmp { left, right, .. } | RExpr::Arith { left, right, .. } => {
            columns_of(left, r, out);
            columns_of(right, r, out);
        }
        RExpr::And(parts) | RExpr::Or(parts) => parts.iter().for_each(|p| columns_of(p, r, out)),
        RExpr::Not(x)
        | RExpr::IsNull(x)
        | RExpr::InList { expr: x, .. }
        | RExpr::Contains { expr: x, .. }
        | RExpr::StartsWith { expr: x, .. }
        | RExpr::EndsWith { expr: x, .. } => columns_of(x, r, out),
    }
}

// ---- scalar evaluation ----

/// The current row of each relation, by relation index (`None` where a
/// relation has no row in scope).
type Env<'a> = [Option<&'a Row>];

/// Does a predicate hold? Unknown (NULL) does not.
fn holds(e: &RExpr, env: &Env) -> Result<bool> {
    match value(e, env)? {
        ScalarValue::Bool(b) => Ok(b),
        ScalarValue::Null => Ok(false),
        v => Err(Error::Exec(format!("predicate evaluated to {v:?}"))),
    }
}

/// A boolean operand: `Some(b)`, or `None` for unknown.
fn truth(v: ScalarValue) -> Result<Option<bool>> {
    match v {
        ScalarValue::Bool(b) => Ok(Some(b)),
        ScalarValue::Null => Ok(None),
        v => Err(Error::Exec(format!("expected a boolean, got {v:?}"))),
    }
}

fn tri(v: Option<bool>) -> ScalarValue {
    v.map_or(ScalarValue::Null, ScalarValue::Bool)
}

fn value(e: &RExpr, env: &Env) -> Result<ScalarValue> {
    Ok(match e {
        RExpr::Col { rel, col } => env
            .get(*rel)
            .copied()
            .flatten()
            .ok_or_else(|| Error::Exec(format!("relation {rel} has no row in scope")))?[*col]
            .clone(),
        RExpr::Lit(v) => v.clone(),
        RExpr::Cmp { op, left, right } => {
            let (l, r) = (value(left, env)?, value(right, env)?);
            if l.is_null() || r.is_null() {
                ScalarValue::Null
            } else {
                ScalarValue::Bool(compare(&l, &r).is_some_and(|o| cmp_holds(*op, o)))
            }
        }
        RExpr::Arith { op, left, right } => arith(*op, value(left, env)?, value(right, env)?),
        // Kleene logic: a deciding operand (FALSE for AND, TRUE for OR)
        // wins over unknown.
        RExpr::And(parts) | RExpr::Or(parts) => {
            let decides = matches!(e, RExpr::Or(_));
            let mut unknown = false;
            for p in parts {
                match truth(value(p, env)?)? {
                    Some(b) if b == decides => return Ok(ScalarValue::Bool(decides)),
                    Some(_) => {}
                    None => unknown = true,
                }
            }
            tri((!unknown).then_some(!decides))
        }
        RExpr::Not(x) => tri(truth(value(x, env)?)?.map(|b| !b)),
        RExpr::InList { expr, list } => {
            let x = value(expr, env)?;
            if x.is_null() {
                ScalarValue::Null
            } else if list.iter().any(|y| same_value(&x, y)) {
                ScalarValue::Bool(true)
            } else if list.iter().any(ScalarValue::is_null) {
                ScalarValue::Null
            } else {
                ScalarValue::Bool(false)
            }
        }
        RExpr::Contains { expr, pattern } => like(value(expr, env)?, |s| s.contains(pattern))?,
        RExpr::StartsWith { expr, pattern } => like(value(expr, env)?, |s| s.starts_with(pattern))?,
        RExpr::EndsWith { expr, pattern } => like(value(expr, env)?, |s| s.ends_with(pattern))?,
        RExpr::IsNull(x) => ScalarValue::Bool(value(x, env)?.is_null()),
    })
}

fn like(v: ScalarValue, test: impl Fn(&str) -> bool) -> Result<ScalarValue> {
    match v {
        ScalarValue::Null => Ok(ScalarValue::Null),
        ScalarValue::Utf8(s) => Ok(ScalarValue::Bool(test(&s))),
        v => Err(Error::Exec(format!("string predicate over {v:?}"))),
    }
}

fn cmp_holds(op: CmpOp, o: Ordering) -> bool {
    match op {
        CmpOp::Eq => o == Ordering::Equal,
        CmpOp::NotEq => o != Ordering::Equal,
        CmpOp::Lt => o == Ordering::Less,
        CmpOp::LtEq => o != Ordering::Greater,
        CmpOp::Gt => o == Ordering::Greater,
        CmpOp::GtEq => o != Ordering::Less,
    }
}

/// SQL comparison of two non-NULL values; `None` when they are
/// incomparable (other types, or a NaN).
fn compare(a: &ScalarValue, b: &ScalarValue) -> Option<Ordering> {
    use ScalarValue::*;
    match (a, b) {
        (Int64(x), Int64(y)) => Some(x.cmp(y)),
        (Utf8(x), Utf8(y)) => Some(x.cmp(y)),
        (Bool(x), Bool(y)) => Some(x.cmp(y)),
        _ => number(a)?.partial_cmp(&number(b)?),
    }
}

/// The value of a numeric scalar as `f64`.
fn number(v: &ScalarValue) -> Option<f64> {
    match v {
        ScalarValue::Int64(x) => Some(*x as f64),
        ScalarValue::Float64(x) => Some(*x),
        _ => None,
    }
}

/// The same value of the same type (an `IN` list match).
fn same_value(a: &ScalarValue, b: &ScalarValue) -> bool {
    use ScalarValue::*;
    match (a, b) {
        (Int64(x), Int64(y)) => x == y,
        (Float64(x), Float64(y)) => x == y,
        (Utf8(x), Utf8(y)) => x == y,
        (Bool(x), Bool(y)) => x == y,
        _ => false,
    }
}

fn arith(op: ArithOp, l: ScalarValue, r: ScalarValue) -> ScalarValue {
    use ScalarValue::*;
    match (l, r) {
        (Null, _) | (_, Null) => Null,
        (Int64(a), Int64(b)) => Int64(match op {
            ArithOp::Add => a.wrapping_add(b),
            ArithOp::Sub => a.wrapping_sub(b),
            ArithOp::Mul => a.wrapping_mul(b),
            ArithOp::Div if b == 0 => 0,
            ArithOp::Div => a.wrapping_div(b),
        }),
        (l, r) => {
            let (a, b) = (
                number(&l).unwrap_or(f64::NAN),
                number(&r).unwrap_or(f64::NAN),
            );
            Float64(match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => a / b,
            })
        }
    }
}

/// The static type of an expression, as the binder's relations declare
/// their columns.
fn type_of(q: &JoinQuery, e: &RExpr) -> DataType {
    match e {
        RExpr::Col { rel, col } => q.relations[*rel].table.schema.field(*col).data_type,
        RExpr::Lit(v) => v.data_type().unwrap_or(DataType::Int64),
        RExpr::Arith { left, right, .. } => {
            if type_of(q, left) == DataType::Float64 || type_of(q, right) == DataType::Float64 {
                DataType::Float64
            } else {
                DataType::Int64
            }
        }
        _ => DataType::Bool,
    }
}

// ---- step 2: equi-joins over attribute classes ----

/// A join or group key cell, hashable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Null,
    Int(i64),
    Float(u64),
    Str(String),
    Bool(bool),
}

fn key(v: &ScalarValue) -> Key {
    match v {
        ScalarValue::Null => Key::Null,
        ScalarValue::Int64(x) => Key::Int(*x),
        ScalarValue::Float64(x) => Key::Float(x.to_bits()),
        ScalarValue::Utf8(s) => Key::Str(s.clone()),
        ScalarValue::Bool(b) => Key::Bool(*b),
    }
}

/// One joined row: an index into each relation's filtered rows.
type Tuple = Vec<u32>;

fn env<'a>(inputs: &'a [Vec<Row>], t: &[u32]) -> Vec<Option<&'a Row>> {
    t.iter()
        .zip(inputs)
        .map(|(&i, rows)| Some(&rows[i as usize]))
        .collect()
}

/// Join every relation's filtered rows on the attribute classes they
/// share. The smallest input starts; each step adds the smallest input
/// that shares an attribute with those joined so far (a cross product
/// only when none does), matching every shared attribute at once.
fn join(q: &JoinQuery, inputs: &[Vec<Row>]) -> Vec<Tuple> {
    let n = inputs.len();
    let mut joined: Vec<usize> = Vec::with_capacity(n);
    // Attribute class -> (relation, column) of a joined relation holding it.
    let mut bound: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    let mut tuples: Vec<Tuple> = vec![vec![0; n]];
    while joined.len() < n {
        let rest = (0..n).filter(|r| !joined.contains(r));
        let connected = |r: &usize| {
            q.relations[*r]
                .attr_cols
                .keys()
                .any(|a| bound.contains_key(a))
        };
        let next = rest
            .clone()
            .filter(connected)
            .min_by_key(|&r| inputs[r].len())
            .or_else(|| rest.min_by_key(|&r| inputs[r].len()))
            .expect("a relation is left to join");
        let rel = &q.relations[next];
        // (column of `next`, where the joined side holds the same class).
        let on: Vec<(usize, (usize, usize))> = rel
            .attr_cols
            .iter()
            .filter_map(|(a, &c)| bound.get(a).map(|&at| (c, at)))
            .collect();
        let mut build: HashMap<Vec<Key>, Vec<u32>> = HashMap::new();
        for (i, row) in inputs[next].iter().enumerate() {
            let k: Vec<Key> = on.iter().map(|&(c, _)| key(&row[c])).collect();
            if !k.contains(&Key::Null) {
                build.entry(k).or_default().push(i as u32);
            }
        }
        let mut out = Vec::new();
        for t in &tuples {
            let k: Vec<Key> = on
                .iter()
                .map(|&(_, (r, c))| key(&inputs[r][t[r] as usize][c]))
                .collect();
            for &i in build.get(&k).into_iter().flatten() {
                let mut t = t.clone();
                t[next] = i;
                out.push(t);
            }
        }
        tuples = out;
        joined.push(next);
        for (&a, &c) in &rel.attr_cols {
            bound.entry(a).or_insert((next, c));
        }
    }
    tuples
}

// ---- step 4: GROUP BY and aggregates ----

/// One aggregate's running state over one group.
struct Acc {
    func: AggFunc,
    float: bool,
    count: i64,
    int_sum: i64,
    float_sum: f64,
    best: Option<ScalarValue>,
}

impl Acc {
    fn new(func: AggFunc, float: bool) -> Acc {
        Acc {
            func,
            float,
            count: 0,
            int_sum: 0,
            float_sum: 0.0,
            best: None,
        }
    }

    /// Fold one row's argument (`None` for `COUNT(*)`).
    fn fold(&mut self, v: Option<ScalarValue>) -> Result<()> {
        let Some(v) = v else {
            self.count += 1;
            return Ok(());
        };
        if v.is_null() {
            return Ok(());
        }
        match self.func {
            AggFunc::CountStar | AggFunc::Count => self.count += 1,
            AggFunc::Sum | AggFunc::Avg => {
                self.count += 1;
                match (&v, self.float || self.func == AggFunc::Avg) {
                    // Overflow is an error as soon as the running sum leaves
                    // `i64`, in table order. The engine adds its partial sums
                    // in another order, so a sum that overflows only midway
                    // may differ; no corpus query comes near `i64::MAX`.
                    (ScalarValue::Int64(_) | ScalarValue::Bool(_), false) => {
                        let x = match v {
                            ScalarValue::Int64(x) => x,
                            _ => i64::from(v == ScalarValue::Bool(true)),
                        };
                        self.int_sum = self.int_sum.checked_add(x).ok_or_else(|| {
                            Error::Exec(format!(
                                "SUM overflowed i64 (adding {x} to {})",
                                self.int_sum
                            ))
                        })?;
                    }
                    (v, true) => match number(v) {
                        Some(x) => self.float_sum += x,
                        None => return Err(Error::Exec(format!("{:?} of {v:?}", self.func))),
                    },
                    (v, false) => return Err(Error::Exec(format!("{:?} of {v:?}", self.func))),
                }
            }
            AggFunc::Min | AggFunc::Max => {
                let want = if self.func == AggFunc::Min {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                if self
                    .best
                    .as_ref()
                    .is_none_or(|b| compare(&v, b) == Some(want))
                {
                    self.best = Some(v);
                }
            }
        }
        Ok(())
    }

    fn result(&self) -> Result<ScalarValue> {
        Ok(match self.func {
            AggFunc::CountStar | AggFunc::Count => ScalarValue::Int64(self.count),
            AggFunc::Avg if self.count == 0 => ScalarValue::Null,
            AggFunc::Sum if self.float => ScalarValue::Float64(self.float_sum),
            AggFunc::Sum => ScalarValue::Int64(self.int_sum),
            AggFunc::Avg => ScalarValue::Float64(self.float_sum / self.count as f64),
            AggFunc::Min | AggFunc::Max => self.best.clone().unwrap_or(ScalarValue::Null),
        })
    }
}

/// One output row per group (one row in all without GROUP BY, even over
/// no input): group columns and other expressions from the group's first
/// row, aggregates over all of its rows.
fn aggregate(q: &JoinQuery, inputs: &[Vec<Row>], tuples: &[Tuple]) -> Result<Vec<Row>> {
    let fresh = || {
        q.aggs
            .iter()
            .map(|a| {
                let float = a
                    .arg
                    .as_ref()
                    .is_some_and(|e| type_of(q, e) == DataType::Float64);
                Acc::new(a.func, float)
            })
            .collect::<Vec<_>>()
    };
    let mut index: HashMap<Vec<Key>, usize> = HashMap::new();
    let mut groups: Vec<(Option<&Tuple>, Vec<Acc>)> = Vec::new();
    if q.group_by.is_empty() {
        groups.push((None, fresh()));
    }
    for t in tuples {
        let env = env(inputs, t);
        let g = if q.group_by.is_empty() {
            0
        } else {
            let k = q
                .group_by
                .iter()
                .map(|&(r, c)| key(&inputs[r][t[r] as usize][c]))
                .collect();
            *index.entry(k).or_insert_with(|| {
                groups.push((None, fresh()));
                groups.len() - 1
            })
        };
        let (first, accs) = &mut groups[g];
        first.get_or_insert(t);
        for (acc, a) in accs.iter_mut().zip(&q.aggs) {
            acc.fold(a.arg.as_ref().map(|e| value(e, &env)).transpose()?)?;
        }
    }
    groups
        .iter()
        .map(|(first, accs)| {
            let env = first.map(|t| env(inputs, t)).unwrap_or_default();
            q.output
                .iter()
                .map(|item| match &item.kind {
                    OutputKind::Agg(i) => accs[*i].result(),
                    OutputKind::Expr(_) if first.is_none() => Ok(ScalarValue::Null),
                    OutputKind::Expr(e) => value(e, &env),
                })
                .collect()
        })
        .collect()
}

// ---- step 5: ORDER BY and OFFSET / LIMIT ----

/// Ascending order of two non-NULL cells of one column.
fn cmp_asc(a: &ScalarValue, b: &ScalarValue) -> Ordering {
    use ScalarValue::*;
    match (a, b) {
        (Float64(x), Float64(y)) => x.total_cmp(y),
        _ => compare(a, b).unwrap_or(Ordering::Equal),
    }
}

fn cmp_cell(a: &ScalarValue, b: &ScalarValue, desc: bool, nulls_first: bool) -> Ordering {
    match (a.is_null(), b.is_null()) {
        (true, true) => Ordering::Equal,
        (true, false) if nulls_first => Ordering::Less,
        (true, false) => Ordering::Greater,
        (false, true) if nulls_first => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) if desc => cmp_asc(a, b).reverse(),
        (false, false) => cmp_asc(a, b),
    }
}

/// The ORDER BY keys, then every column ascending with NULLs first.
fn total_order(keys: &[BoundOrderKey], a: &Row, b: &Row) -> Ordering {
    keys.iter()
        .map(|k| cmp_cell(&a[k.output_pos], &b[k.output_pos], k.desc, k.nulls_first))
        .chain((0..a.len()).map(|c| cmp_cell(&a[c], &b[c], false, true)))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

// ---- checking an engine result ----

/// Exact equality, but `Float64` cells within a relative 1e-9: float sums
/// fold in another order in the engine.
fn cells_match(a: &ScalarValue, b: &ScalarValue) -> bool {
    match (a, b) {
        (ScalarValue::Float64(x), ScalarValue::Float64(y)) => {
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

fn rows_match(a: &Row, b: &Row) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| cells_match(x, y))
}

/// Can every row of `got` be paired with its own row of `pool`?
fn pairs_into(got: &[Row], pool: &[Row]) -> bool {
    let mut used = vec![false; pool.len()];
    got.iter().all(|g| {
        let hit = (0..pool.len()).find(|&i| !used[i] && rows_match(g, &pool[i]));
        hit.map(|i| used[i] = true).is_some()
    })
}

impl Answer {
    /// The rows the query returns, OFFSET and LIMIT applied.
    pub fn rows(&self) -> &[Row] {
        let lo = self.offset.min(self.all.len());
        let hi = self
            .limit
            .map_or(self.all.len(), |l| lo.saturating_add(l).min(self.all.len()));
        &self.all[lo..hi]
    }

    /// Panic unless `got` is this answer:
    /// * with ORDER BY, row for row; or, where ties or float near-ties
    ///   on the keys let rows trade places, with the key cells equal to
    ///   the answer's position for position (floats within the
    ///   tolerance) and every row a distinct row of the full result
    ///   that ties with the window's edge when it lies outside it;
    /// * without it, as a multiset (any rows of the full result, when a
    ///   LIMIT or OFFSET picks some), float cells within the tolerance.
    pub fn check(&self, got: &[Row], what: &str) {
        let want = self.rows();
        let fail = |why: &str| -> ! {
            let show = |rows: &[Row]| -> String {
                let head: Vec<String> = rows.iter().take(12).map(|r| format!("  {r:?}")).collect();
                format!("{} rows\n{}", rows.len(), head.join("\n"))
            };
            panic!(
                "{what}: {why}\noracle: {}\nengine: {}",
                show(want),
                show(got)
            )
        };
        if want.len() != got.len() {
            fail("row count differs from the oracle");
        }
        if self.order_by.is_empty() {
            let pool = if want.len() < self.all.len() {
                &self.all[..]
            } else {
                want
            };
            if !pairs_into(got, pool) {
                fail("a row is not in the oracle's result");
            }
            return;
        }
        if want.iter().zip(got).all(|(w, g)| rows_match(w, g)) {
            return;
        }
        let keys_match = |a: &Row, b: &Row| {
            self.order_by
                .iter()
                .all(|k| cells_match(&a[k.output_pos], &b[k.output_pos]))
        };
        if !want.iter().zip(got).all(|(w, g)| keys_match(w, g)) {
            fail("ORDER BY keys differ from the oracle's, position for position");
        }
        let edges = [want.first(), want.last()];
        let window = self.offset..self.offset + want.len();
        let pool: Vec<Row> = self
            .all
            .iter()
            .enumerate()
            .filter(|(i, r)| window.contains(i) || edges.iter().flatten().any(|e| keys_match(r, e)))
            .map(|(_, r)| r.clone())
            .collect();
        if !pairs_into(got, &pool) {
            fail("a row is not in the oracle's result");
        }
    }
}
