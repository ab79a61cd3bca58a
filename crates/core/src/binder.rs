//! Binder: resolves a parsed `SelectStmt` against the catalog into a
//! [`JoinQuery`].
//!
//! Following the paper's natural-join framing (§3.1, footnote 2), every
//! equality join predicate `R.a = S.b` merges `a` and `b` into one join
//! *attribute class* (union-find). Single-relation predicates become
//! pushed-down filters; multi-relation non-equi-join predicates (the
//! TPC-DS 13/48 kind) become residual predicates applied after the joins.

use crate::catalog::Catalog;
use crate::query::{
    BoundAgg, BoundOrderKey, BoundRelation, JoinQuery, OutputItem, OutputKind, RExpr, ResidualPred,
};
use rpt_common::{Error, Result, ScalarValue};
use rpt_exec::{AggFunc, ArithOp, CmpOp};
use rpt_sql::ast::{
    AggName, AstExpr, BinOp, ColumnRef, Literal, OrderByTarget, SelectItem, SelectStmt,
};
use std::collections::{BTreeMap, BTreeSet};

/// Bind a parsed statement.
pub fn bind(stmt: &SelectStmt, catalog: &Catalog) -> Result<JoinQuery> {
    if stmt.from.is_empty() {
        return Err(Error::Bind("FROM list is empty".into()));
    }
    // 1. Resolve FROM.
    let mut bindings: BTreeMap<String, usize> = BTreeMap::new();
    let mut rels: Vec<BoundRelation> = Vec::with_capacity(stmt.from.len());
    for (i, tref) in stmt.from.iter().enumerate() {
        let entry = catalog.get(&tref.table)?;
        let binding = tref.binding_name().to_string();
        if bindings.insert(binding.clone(), i).is_some() {
            return Err(Error::Bind(format!("duplicate table binding `{binding}`")));
        }
        rels.push(BoundRelation {
            binding,
            table: entry.table.clone(),
            filter: None,
            attr_cols: BTreeMap::new(),
            needed_cols: vec![],
        });
    }

    let resolver = ColumnResolver {
        bindings: bindings.clone(),
        tables: rels.iter().map(|r| r.table.clone()).collect(),
    };

    // 2. Split WHERE into conjuncts and classify.
    let mut join_pairs: Vec<((usize, usize), (usize, usize))> = Vec::new();
    let mut filters: Vec<Vec<RExpr>> = vec![Vec::new(); rels.len()];
    let mut residuals: Vec<ResidualPred> = Vec::new();
    if let Some(w) = &stmt.where_clause {
        let mut conjuncts = Vec::new();
        split_conjuncts(w, &mut conjuncts);
        for c in conjuncts {
            // Equi-join predicate?
            if let AstExpr::Binary {
                op: BinOp::Eq,
                left,
                right,
            } = c
            {
                if let (AstExpr::Column(lc), AstExpr::Column(rc)) = (&**left, &**right) {
                    let l = resolver.resolve(lc)?;
                    let r = resolver.resolve(rc)?;
                    if l.0 != r.0 {
                        join_pairs.push((l, r));
                        continue;
                    }
                }
            }
            let rexpr = lower(c, &resolver)?;
            let touched = rexpr.relations();
            match touched.len() {
                0 => {
                    // Constant predicate — attach to the first relation.
                    filters[0].push(rexpr);
                }
                1 => {
                    let rel = *touched.iter().next().expect("len checked");
                    filters[rel].push(rexpr);
                }
                _ => residuals.push(ResidualPred {
                    expr: rexpr,
                    rels: touched,
                }),
            }
        }
    }

    // 3. Union-find over (rel, col) to form join attribute classes.
    let mut uf = UnionFind::new();
    for (l, r) in &join_pairs {
        uf.union(*l, *r);
    }
    let classes = uf.classes();
    let mut num_attrs = 0;
    for members in classes {
        let rels_in_class: BTreeSet<usize> = members.iter().map(|&(r, _)| r).collect();
        if rels_in_class.len() < 2 {
            continue;
        }
        let attr = num_attrs;
        num_attrs += 1;
        // First column per relation joins; extra columns in the same
        // relation become intra-relation equality filters.
        let mut first: BTreeMap<usize, usize> = BTreeMap::new();
        for &(r, c) in &members {
            match first.get(&r) {
                None => {
                    first.insert(r, c);
                }
                Some(&c0) if c0 != c => {
                    filters[r].push(RExpr::Cmp {
                        op: CmpOp::Eq,
                        left: Box::new(RExpr::Col { rel: r, col: c0 }),
                        right: Box::new(RExpr::Col { rel: r, col: c }),
                    });
                }
                _ => {}
            }
        }
        for (r, c) in first {
            rels[r].attr_cols.insert(attr, c);
        }
    }

    // 4. Outputs and aggregates.
    let mut aggs: Vec<BoundAgg> = Vec::new();
    let mut output: Vec<OutputItem> = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        match item {
            SelectItem::Star => {
                for (r, rel) in rels.iter().enumerate() {
                    for (c, f) in rel.table.schema.fields.iter().enumerate() {
                        output.push(OutputItem {
                            alias: format!("{}.{}", rel.binding, f.name),
                            kind: OutputKind::Expr(RExpr::Col { rel: r, col: c }),
                        });
                    }
                }
            }
            SelectItem::Expr { expr, alias } => match expr {
                AstExpr::Agg { func, arg, star } => {
                    let alias = alias.clone().unwrap_or_else(|| format!("agg_{i}"));
                    let bound_arg = match (arg, star) {
                        (Some(a), _) => Some(lower(a, &resolver)?),
                        (None, true) => None,
                        (None, false) => {
                            return Err(Error::Bind("aggregate missing argument".into()))
                        }
                    };
                    aggs.push(BoundAgg {
                        func: agg_func(*func, bound_arg.is_some()),
                        arg: bound_arg,
                        alias: alias.clone(),
                    });
                    output.push(OutputItem {
                        alias,
                        kind: OutputKind::Agg(aggs.len() - 1),
                    });
                }
                other => {
                    if contains_agg(other) {
                        return Err(Error::Bind(
                            "aggregates must be top-level select items".into(),
                        ));
                    }
                    let rexpr = lower(other, &resolver)?;
                    let alias = alias.clone().unwrap_or_else(|| match other {
                        AstExpr::Column(c) => c.to_string(),
                        _ => format!("col_{i}"),
                    });
                    output.push(OutputItem {
                        alias,
                        kind: OutputKind::Expr(rexpr),
                    });
                }
            },
        }
    }

    // 5. GROUP BY.
    let mut group_by = Vec::new();
    for g in &stmt.group_by {
        group_by.push(resolver.resolve(g)?);
    }

    // 6. ORDER BY keys resolve against the *output* row: by alias (or the
    // display form of a column item), by 1-based ordinal, or — failing
    // both — as a base column that some output expression projects. The
    // dialect default pins NULL placement: NULLS LAST ascending, NULLS
    // FIRST descending (so NULLs always sort as the "largest" value).
    let mut order_by = Vec::with_capacity(stmt.order_by.len());
    for item in &stmt.order_by {
        let output_pos = match &item.target {
            OrderByTarget::Ordinal(n) => {
                if *n < 1 || *n > output.len() {
                    return Err(Error::Bind(format!(
                        "ORDER BY ordinal {n} out of range (SELECT list has {} items)",
                        output.len()
                    )));
                }
                *n - 1
            }
            OrderByTarget::Column(c) => {
                let display = c.to_string();
                let by_alias: Vec<usize> = output
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.alias == display)
                    .map(|(i, _)| i)
                    .collect();
                match by_alias.len() {
                    1 => by_alias[0],
                    n if n > 1 => {
                        return Err(Error::Bind(format!("ambiguous ORDER BY key `{display}`")))
                    }
                    _ => {
                        // Fall back to resolving as a base column projected
                        // by some output expression.
                        let (rel, col) = resolver.resolve(c).map_err(|_| {
                            Error::Bind(format!(
                                "ORDER BY key `{display}` is not in the SELECT list"
                            ))
                        })?;
                        output
                            .iter()
                            .position(|o| {
                                matches!(&o.kind, OutputKind::Expr(RExpr::Col { rel: r, col: c })
                                    if *r == rel && *c == col)
                            })
                            .ok_or_else(|| {
                                Error::Bind(format!(
                                    "ORDER BY key `{display}` is not in the SELECT list"
                                ))
                            })?
                    }
                }
            }
        };
        order_by.push(BoundOrderKey {
            output_pos,
            desc: item.desc,
            nulls_first: item.nulls_first.unwrap_or(item.desc),
        });
    }

    // 7. Needed columns per relation.
    let mut needed: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); rels.len()];
    for (r, rel) in rels.iter().enumerate() {
        for &c in rel.attr_cols.values() {
            needed[r].insert(c);
        }
    }
    for &(r, c) in &group_by {
        needed[r].insert(c);
    }
    let mut cols = BTreeSet::new();
    for o in &output {
        if let OutputKind::Expr(e) = &o.kind {
            e.columns(&mut cols);
        }
    }
    for a in &aggs {
        if let Some(e) = &a.arg {
            e.columns(&mut cols);
        }
    }
    for rp in &residuals {
        rp.expr.columns(&mut cols);
    }
    for (r, c) in cols {
        needed[r].insert(c);
    }
    for (r, rel) in rels.iter_mut().enumerate() {
        if needed[r].is_empty() {
            // Keep at least one column so chunks have a row count.
            needed[r].insert(0);
        }
        rel.needed_cols = needed[r].iter().copied().collect();
        rel.filter = match filters[r].len() {
            0 => None,
            1 => Some(filters[r][0].clone()),
            _ => Some(RExpr::And(filters[r].clone())),
        };
    }

    Ok(JoinQuery {
        relations: rels,
        num_attrs,
        residuals,
        group_by,
        aggs,
        output,
        order_by,
        limit: stmt.limit.map(|n| n as usize),
        offset: stmt.offset.map(|n| n as usize),
    })
}

fn agg_func(name: AggName, has_arg: bool) -> AggFunc {
    match name {
        AggName::Count => {
            if has_arg {
                AggFunc::Count
            } else {
                AggFunc::CountStar
            }
        }
        AggName::Sum => AggFunc::Sum,
        AggName::Min => AggFunc::Min,
        AggName::Max => AggFunc::Max,
        AggName::Avg => AggFunc::Avg,
    }
}

fn contains_agg(e: &AstExpr) -> bool {
    match e {
        AstExpr::Agg { .. } => true,
        AstExpr::Binary { left, right, .. } => contains_agg(left) || contains_agg(right),
        AstExpr::Not(x) => contains_agg(x),
        AstExpr::IsNull { expr, .. }
        | AstExpr::InList { expr, .. }
        | AstExpr::Like { expr, .. } => contains_agg(expr),
        AstExpr::Between { expr, low, high } => {
            contains_agg(expr) || contains_agg(low) || contains_agg(high)
        }
        _ => false,
    }
}

fn split_conjuncts<'a>(e: &'a AstExpr, out: &mut Vec<&'a AstExpr>) {
    match e {
        AstExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            split_conjuncts(left, out);
            split_conjuncts(right, out);
        }
        other => out.push(other),
    }
}

struct ColumnResolver {
    bindings: BTreeMap<String, usize>,
    tables: Vec<std::sync::Arc<rpt_storage::StoredTable>>,
}

impl ColumnResolver {
    fn resolve(&self, c: &ColumnRef) -> Result<(usize, usize)> {
        match &c.qualifier {
            Some(q) => {
                let &rel = self
                    .bindings
                    .get(q)
                    .ok_or_else(|| Error::Bind(format!("unknown table binding `{q}`")))?;
                let col = self.tables[rel].schema.index_of(&c.name)?;
                Ok((rel, col))
            }
            None => {
                let mut found = None;
                for (r, rel) in self.tables.iter().enumerate() {
                    if let Ok(col) = rel.schema.index_of(&c.name) {
                        if found.is_some() {
                            return Err(Error::Bind(format!("ambiguous column `{}`", c.name)));
                        }
                        found = Some((r, col));
                    }
                }
                found.ok_or_else(|| Error::Bind(format!("unknown column `{}`", c.name)))
            }
        }
    }
}

fn literal_to_scalar(l: &Literal) -> ScalarValue {
    match l {
        Literal::Int(v) => ScalarValue::Int64(*v),
        Literal::Float(v) => ScalarValue::Float64(*v),
        Literal::Str(s) => ScalarValue::Utf8(s.clone()),
        Literal::Bool(b) => ScalarValue::Bool(*b),
        Literal::Null => ScalarValue::Null,
    }
}

/// Lower an AST expression (no aggregates) into a resolved [`RExpr`].
fn lower(e: &AstExpr, resolver: &ColumnResolver) -> Result<RExpr> {
    Ok(match e {
        AstExpr::Column(c) => {
            let (rel, col) = resolver.resolve(c)?;
            RExpr::Col { rel, col }
        }
        AstExpr::Literal(l) => RExpr::Lit(literal_to_scalar(l)),
        AstExpr::Binary { op, left, right } => {
            let l = lower(left, resolver)?;
            let r = lower(right, resolver)?;
            match op {
                BinOp::And => RExpr::And(vec![l, r]),
                BinOp::Or => RExpr::Or(vec![l, r]),
                BinOp::Eq => cmp(CmpOp::Eq, l, r),
                BinOp::NotEq => cmp(CmpOp::NotEq, l, r),
                BinOp::Lt => cmp(CmpOp::Lt, l, r),
                BinOp::LtEq => cmp(CmpOp::LtEq, l, r),
                BinOp::Gt => cmp(CmpOp::Gt, l, r),
                BinOp::GtEq => cmp(CmpOp::GtEq, l, r),
                BinOp::Add => arith(ArithOp::Add, l, r),
                BinOp::Sub => arith(ArithOp::Sub, l, r),
                BinOp::Mul => arith(ArithOp::Mul, l, r),
                BinOp::Div => arith(ArithOp::Div, l, r),
            }
        }
        AstExpr::Not(inner) => RExpr::Not(Box::new(lower(inner, resolver)?)),
        AstExpr::IsNull { expr, negated } => {
            let inner = RExpr::IsNull(Box::new(lower(expr, resolver)?));
            if *negated {
                RExpr::Not(Box::new(inner))
            } else {
                inner
            }
        }
        AstExpr::InList {
            expr,
            list,
            negated,
        } => {
            let inner = RExpr::InList {
                expr: Box::new(lower(expr, resolver)?),
                list: list.iter().map(literal_to_scalar).collect(),
            };
            if *negated {
                RExpr::Not(Box::new(inner))
            } else {
                inner
            }
        }
        AstExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let inner = lower_like(lower(expr, resolver)?, pattern);
            if *negated {
                RExpr::Not(Box::new(inner))
            } else {
                inner
            }
        }
        AstExpr::Between { expr, low, high } => {
            let e1 = lower(expr, resolver)?;
            let lo = lower(low, resolver)?;
            let hi = lower(high, resolver)?;
            RExpr::And(vec![
                cmp(CmpOp::GtEq, e1.clone(), lo),
                cmp(CmpOp::LtEq, e1, hi),
            ])
        }
        AstExpr::Agg { .. } => {
            return Err(Error::Bind(
                "aggregate used where a scalar expression is required".into(),
            ))
        }
    })
}

fn cmp(op: CmpOp, l: RExpr, r: RExpr) -> RExpr {
    RExpr::Cmp {
        op,
        left: Box::new(l),
        right: Box::new(r),
    }
}

fn arith(op: ArithOp, l: RExpr, r: RExpr) -> RExpr {
    RExpr::Arith {
        op,
        left: Box::new(l),
        right: Box::new(r),
    }
}

/// Translate SQL LIKE patterns into the engine's substring predicates:
/// `%x%` → contains, `x%` → prefix, `%x` → suffix, no `%` → equality,
/// `a%b%c` → conjunction of contains (a slight over-approximation the
/// synthetic workloads never hit ambiguously).
fn lower_like(expr: RExpr, pattern: &str) -> RExpr {
    let has_pct = pattern.contains('%');
    if !has_pct {
        return cmp(
            CmpOp::Eq,
            expr,
            RExpr::Lit(ScalarValue::Utf8(pattern.to_string())),
        );
    }
    let starts = pattern.starts_with('%');
    let ends = pattern.ends_with('%');
    let parts: Vec<&str> = pattern.split('%').filter(|p| !p.is_empty()).collect();
    match (parts.len(), starts, ends) {
        (0, _, _) => RExpr::Lit(ScalarValue::Bool(true)), // bare "%"
        (1, true, true) => RExpr::Contains {
            expr: Box::new(expr),
            pattern: parts[0].to_string(),
        },
        (1, false, true) => RExpr::StartsWith {
            expr: Box::new(expr),
            pattern: parts[0].to_string(),
        },
        (1, true, false) => RExpr::EndsWith {
            expr: Box::new(expr),
            pattern: parts[0].to_string(),
        },
        _ => {
            let mut conj: Vec<RExpr> = Vec::new();
            if !starts {
                conj.push(RExpr::StartsWith {
                    expr: Box::new(expr.clone()),
                    pattern: parts[0].to_string(),
                });
            }
            for p in &parts {
                conj.push(RExpr::Contains {
                    expr: Box::new(expr.clone()),
                    pattern: p.to_string(),
                });
            }
            RExpr::And(conj)
        }
    }
}

/// Union-find over `(rel, col)` pairs.
struct UnionFind {
    parent: BTreeMap<(usize, usize), (usize, usize)>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind {
            parent: BTreeMap::new(),
        }
    }

    fn find(&mut self, x: (usize, usize)) -> (usize, usize) {
        let p = *self.parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = self.find(p);
        self.parent.insert(x, root);
        root
    }

    fn union(&mut self, a: (usize, usize), b: (usize, usize)) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }

    /// All classes (deterministic order).
    fn classes(&mut self) -> Vec<Vec<(usize, usize)>> {
        let keys: Vec<(usize, usize)> = self.parent.keys().copied().collect();
        let mut groups: BTreeMap<(usize, usize), Vec<(usize, usize)>> = BTreeMap::new();
        for k in keys {
            let r = self.find(k);
            groups.entry(r).or_default().push(k);
        }
        groups.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_common::{DataType, Field, Schema, Vector};
    use rpt_sql::parse_select;
    use rpt_storage::Table;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            Table::new(
                "orders",
                Schema::new(vec![
                    Field::new("id", DataType::Int64),
                    Field::new("cust_id", DataType::Int64),
                    Field::new("status", DataType::Utf8),
                    Field::new("total", DataType::Float64),
                ]),
                vec![
                    Vector::from_i64(vec![1, 2, 3]),
                    Vector::from_i64(vec![10, 10, 20]),
                    Vector::from_utf8(vec!["A".into(), "B".into(), "A".into()]),
                    Vector::from_f64(vec![5.0, 6.0, 7.0]),
                ],
            )
            .unwrap(),
        );
        c.register(
            Table::new(
                "customer",
                Schema::new(vec![
                    Field::new("id", DataType::Int64),
                    Field::new("name", DataType::Utf8),
                ]),
                vec![
                    Vector::from_i64(vec![10, 20]),
                    Vector::from_utf8(vec!["alice".into(), "bob".into()]),
                ],
            )
            .unwrap(),
        );
        c.register(
            Table::new(
                "lineitem",
                Schema::new(vec![
                    Field::new("order_id", DataType::Int64),
                    Field::new("price", DataType::Float64),
                ]),
                vec![
                    Vector::from_i64(vec![1, 1, 2]),
                    Vector::from_f64(vec![1.0, 2.0, 3.0]),
                ],
            )
            .unwrap(),
        );
        c
    }

    fn bind_sql(sql: &str) -> Result<JoinQuery> {
        let stmt = parse_select(sql).map_err(Error::Parse)?;
        bind(&stmt, &catalog())
    }

    #[test]
    fn join_attrs_from_equality() {
        let q = bind_sql(
            "SELECT COUNT(*) FROM orders o, customer c, lineitem l \
             WHERE o.cust_id = c.id AND l.order_id = o.id",
        )
        .unwrap();
        assert_eq!(q.num_relations(), 3);
        assert_eq!(q.num_attrs, 2);
        // orders participates in both attrs.
        assert_eq!(q.relations[0].attr_cols.len(), 2);
        assert_eq!(q.relations[1].attr_cols.len(), 1);
        let g = q.graph();
        assert!(g.edge_between(0, 1).is_some());
        assert!(g.edge_between(0, 2).is_some());
        assert!(g.edge_between(1, 2).is_none());
        assert!(q.is_alpha_acyclic());
    }

    #[test]
    fn filters_pushed_to_relations() {
        let q = bind_sql(
            "SELECT o.id FROM orders o, customer c \
             WHERE o.cust_id = c.id AND o.total > 5.5 AND c.name LIKE '%ali%'",
        )
        .unwrap();
        assert!(q.relations[0].filter.is_some());
        assert!(q.relations[1].filter.is_some());
        assert!(q.residuals.is_empty());
    }

    #[test]
    fn residual_predicates_detected() {
        let q = bind_sql(
            "SELECT COUNT(*) FROM orders o, customer c \
             WHERE o.cust_id = c.id AND (o.total > 5 OR c.name = 'bob')",
        )
        .unwrap();
        assert_eq!(q.residuals.len(), 1);
        assert_eq!(q.residuals[0].rels.len(), 2);
    }

    #[test]
    fn aggregates_and_groups() {
        let q = bind_sql(
            "SELECT o.status, COUNT(*) AS cnt, SUM(l.price) AS total \
             FROM orders o, lineitem l WHERE l.order_id = o.id GROUP BY o.status",
        )
        .unwrap();
        assert_eq!(q.aggs.len(), 2);
        assert_eq!(q.aggs[0].func, AggFunc::CountStar);
        assert_eq!(q.aggs[1].func, AggFunc::Sum);
        assert_eq!(q.group_by, vec![(0, 2)]);
        assert_eq!(q.output.len(), 3);
        assert_eq!(q.output[1].alias, "cnt");
    }

    #[test]
    fn needed_cols_computed() {
        let q = bind_sql(
            "SELECT c.name FROM orders o, customer c WHERE o.cust_id = c.id AND o.total > 1",
        )
        .unwrap();
        // orders needs cust_id (join key) only; total is filter-only.
        assert_eq!(q.relations[0].needed_cols, vec![1]);
        // customer needs id (join) + name (output).
        assert_eq!(q.relations[1].needed_cols, vec![0, 1]);
    }

    #[test]
    fn unqualified_and_ambiguous() {
        // `name` is unique to customer → resolves.
        assert!(bind_sql("SELECT name FROM customer").is_ok());
        // `id` is ambiguous between orders and customer.
        assert!(bind_sql("SELECT id FROM orders o, customer c WHERE o.cust_id = c.id").is_err());
        // unknown column
        assert!(bind_sql("SELECT nope FROM customer").is_err());
        // unknown table
        assert!(bind_sql("SELECT x FROM missing").is_err());
        // duplicate binding
        assert!(bind_sql("SELECT 1 FROM orders o, customer o").is_err());
    }

    #[test]
    fn like_lowering() {
        let q = bind_sql("SELECT id FROM customer WHERE name LIKE 'al%'").unwrap();
        assert!(matches!(
            q.relations[0].filter.as_ref().unwrap(),
            RExpr::StartsWith { .. }
        ));
        let q = bind_sql("SELECT id FROM customer WHERE name LIKE '%li%'").unwrap();
        assert!(matches!(
            q.relations[0].filter.as_ref().unwrap(),
            RExpr::Contains { .. }
        ));
        let q = bind_sql("SELECT id FROM customer WHERE name LIKE 'alice'").unwrap();
        assert!(matches!(
            q.relations[0].filter.as_ref().unwrap(),
            RExpr::Cmp { op: CmpOp::Eq, .. }
        ));
        let q = bind_sql("SELECT id FROM customer WHERE name NOT LIKE '%x%'").unwrap();
        assert!(matches!(
            q.relations[0].filter.as_ref().unwrap(),
            RExpr::Not(_)
        ));
    }

    #[test]
    fn between_lowering() {
        let q = bind_sql("SELECT id FROM orders WHERE total BETWEEN 5 AND 6").unwrap();
        match q.relations[0].filter.as_ref().unwrap() {
            RExpr::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn transitive_join_classes() {
        // a.x = b.x and b.x = c.x → one attribute class across 3 relations.
        let mut c = Catalog::new();
        for name in ["ta", "tb", "tc"] {
            c.register(
                Table::new(
                    name,
                    Schema::new(vec![Field::new("x", DataType::Int64)]),
                    vec![Vector::from_i64(vec![1])],
                )
                .unwrap(),
            );
        }
        let stmt =
            parse_select("SELECT COUNT(*) FROM ta a, tb b, tc q WHERE a.x = b.x AND b.x = q.x")
                .unwrap();
        let q = bind(&stmt, &c).unwrap();
        assert_eq!(q.num_attrs, 1);
        // Clique: all three pairwise connected through the shared attr.
        let g = q.graph();
        assert_eq!(g.edges().len(), 3);
    }

    #[test]
    fn order_by_binding() {
        // By alias, by ordinal, by projected base column.
        let q = bind_sql(
            "SELECT o.status, COUNT(*) AS cnt FROM orders o \
             GROUP BY o.status ORDER BY cnt DESC, 1 ASC, o.status",
        )
        .unwrap();
        assert_eq!(
            q.order_by,
            vec![
                BoundOrderKey {
                    output_pos: 1,
                    desc: true,
                    nulls_first: true, // DESC default
                },
                BoundOrderKey {
                    output_pos: 0,
                    desc: false,
                    nulls_first: false, // ASC default
                },
                BoundOrderKey {
                    output_pos: 0,
                    desc: false,
                    nulls_first: false,
                },
            ]
        );
        // Explicit NULLS placement overrides the default.
        let q = bind_sql("SELECT id FROM customer ORDER BY id DESC NULLS LAST LIMIT 2 OFFSET 1")
            .unwrap();
        assert!(!q.order_by[0].nulls_first);
        assert_eq!(q.limit, Some(2));
        assert_eq!(q.offset, Some(1));
        // Errors: ordinal out of range, key not projected.
        assert!(bind_sql("SELECT id FROM customer ORDER BY 2").is_err());
        assert!(bind_sql("SELECT id FROM customer ORDER BY name").is_err());
        assert!(bind_sql("SELECT id FROM customer ORDER BY nope").is_err());
    }

    #[test]
    fn star_expansion() {
        let q = bind_sql("SELECT * FROM customer").unwrap();
        assert_eq!(q.output.len(), 2);
        assert_eq!(q.output[0].alias, "customer.id");
    }
}
