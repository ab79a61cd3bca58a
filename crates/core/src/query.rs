//! The bound query model: relations, join attribute classes, filters,
//! residual predicates, and output shape.

use rpt_common::{Error, Result, ScalarValue};
use rpt_exec::{AggFunc, ArithOp, CmpOp, Expr};
use rpt_graph::{AttrId, QueryGraph, Relation};
use rpt_storage::StoredTable;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// An expression whose column references are resolved to
/// `(relation index, column index)` pairs. Lowered to an executable
/// [`Expr`] once the physical column layout is known.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    Col {
        rel: usize,
        col: usize,
    },
    Lit(ScalarValue),
    Cmp {
        op: CmpOp,
        left: Box<RExpr>,
        right: Box<RExpr>,
    },
    Arith {
        op: ArithOp,
        left: Box<RExpr>,
        right: Box<RExpr>,
    },
    And(Vec<RExpr>),
    Or(Vec<RExpr>),
    Not(Box<RExpr>),
    InList {
        expr: Box<RExpr>,
        list: Vec<ScalarValue>,
    },
    Contains {
        expr: Box<RExpr>,
        pattern: String,
    },
    StartsWith {
        expr: Box<RExpr>,
        pattern: String,
    },
    EndsWith {
        expr: Box<RExpr>,
        pattern: String,
    },
    IsNull(Box<RExpr>),
}

impl RExpr {
    /// Lower to an executable expression. `layout` maps `(rel, col)` to a
    /// position in the physical chunk.
    pub fn to_exec(&self, layout: &dyn Fn(usize, usize) -> Option<usize>) -> Result<Expr> {
        Ok(match self {
            RExpr::Col { rel, col } => Expr::Column(layout(*rel, *col).ok_or_else(|| {
                Error::Plan(format!(
                    "column (rel {rel}, col {col}) not present in physical layout"
                ))
            })?),
            RExpr::Lit(v) => Expr::Literal(v.clone()),
            RExpr::Cmp { op, left, right } => Expr::Cmp {
                op: *op,
                left: Box::new(left.to_exec(layout)?),
                right: Box::new(right.to_exec(layout)?),
            },
            RExpr::Arith { op, left, right } => Expr::Arith {
                op: *op,
                left: Box::new(left.to_exec(layout)?),
                right: Box::new(right.to_exec(layout)?),
            },
            RExpr::And(parts) => Expr::And(
                parts
                    .iter()
                    .map(|p| p.to_exec(layout))
                    .collect::<Result<_>>()?,
            ),
            RExpr::Or(parts) => Expr::Or(
                parts
                    .iter()
                    .map(|p| p.to_exec(layout))
                    .collect::<Result<_>>()?,
            ),
            RExpr::Not(inner) => Expr::Not(Box::new(inner.to_exec(layout)?)),
            RExpr::InList { expr, list } => Expr::InList {
                expr: Box::new(expr.to_exec(layout)?),
                list: list.clone(),
            },
            RExpr::Contains { expr, pattern } => Expr::Contains {
                expr: Box::new(expr.to_exec(layout)?),
                pattern: pattern.clone(),
            },
            RExpr::StartsWith { expr, pattern } => Expr::StartsWith {
                expr: Box::new(expr.to_exec(layout)?),
                pattern: pattern.clone(),
            },
            RExpr::EndsWith { expr, pattern } => Expr::EndsWith {
                expr: Box::new(expr.to_exec(layout)?),
                pattern: pattern.clone(),
            },
            RExpr::IsNull(inner) => Expr::IsNull(Box::new(inner.to_exec(layout)?)),
        })
    }

    /// All `(rel, col)` pairs referenced.
    pub fn columns(&self, out: &mut BTreeSet<(usize, usize)>) {
        match self {
            RExpr::Col { rel, col } => {
                out.insert((*rel, *col));
            }
            RExpr::Lit(_) => {}
            RExpr::Cmp { left, right, .. } | RExpr::Arith { left, right, .. } => {
                left.columns(out);
                right.columns(out);
            }
            RExpr::And(parts) | RExpr::Or(parts) => {
                for p in parts {
                    p.columns(out);
                }
            }
            RExpr::Not(inner) | RExpr::IsNull(inner) => inner.columns(out),
            RExpr::InList { expr, .. }
            | RExpr::Contains { expr, .. }
            | RExpr::StartsWith { expr, .. }
            | RExpr::EndsWith { expr, .. } => expr.columns(out),
        }
    }

    /// The set of relations referenced.
    pub fn relations(&self) -> BTreeSet<usize> {
        let mut cols = BTreeSet::new();
        self.columns(&mut cols);
        cols.into_iter().map(|(r, _)| r).collect()
    }
}

/// One relation of the query with its pushed-down filter.
#[derive(Clone)]
pub struct BoundRelation {
    /// Alias the query refers to this relation by.
    pub binding: String,
    /// The registered table; its `stats()` feed the estimates.
    pub table: Arc<StoredTable>,
    /// Conjunction of single-relation predicates (column indices refer to
    /// the *base table*).
    pub filter: Option<RExpr>,
    /// Join attribute class → column index in the base table.
    pub attr_cols: BTreeMap<AttrId, usize>,
    /// Base-table columns needed downstream (join keys + outputs +
    /// residuals), sorted. Scans project to exactly these.
    pub needed_cols: Vec<usize>,
}

impl BoundRelation {
    /// Position of base column `col` within the projected (needed) columns.
    pub fn projected_index(&self, col: usize) -> Option<usize> {
        self.needed_cols.iter().position(|&c| c == col)
    }
}

/// A predicate spanning ≥ 2 relations that is not an equi-join (e.g. the
/// OR-of-conjunctions predicates of TPC-DS Q13/Q48 discussed in §5.1.1).
/// Applied after the join phase.
#[derive(Debug, Clone)]
pub struct ResidualPred {
    pub expr: RExpr,
    pub rels: BTreeSet<usize>,
}

/// An aggregate in the SELECT list.
#[derive(Debug, Clone)]
pub struct BoundAgg {
    pub func: AggFunc,
    pub arg: Option<RExpr>,
    pub alias: String,
}

/// One output column.
#[derive(Debug, Clone)]
pub enum OutputKind {
    /// A (possibly computed) expression over the joined relations.
    Expr(RExpr),
    /// Reference to `JoinQuery::aggs[i]`.
    Agg(usize),
}

#[derive(Debug, Clone)]
pub struct OutputItem {
    pub alias: String,
    pub kind: OutputKind,
}

/// One bound ORDER BY key: a position in the query's output row plus its
/// direction and resolved NULL placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundOrderKey {
    /// Index into `JoinQuery::output` (the final projected row).
    pub output_pos: usize,
    pub desc: bool,
    /// Resolved placement: the binder applies the dialect default
    /// (NULLS LAST for ASC, NULLS FIRST for DESC) when unspecified.
    pub nulls_first: bool,
}

/// A fully bound join query: the unit the optimizer and planner work on.
#[derive(Clone)]
pub struct JoinQuery {
    pub relations: Vec<BoundRelation>,
    /// Number of join attribute classes (attribute ids are `0..num_attrs`).
    pub num_attrs: usize,
    pub residuals: Vec<ResidualPred>,
    pub group_by: Vec<(usize, usize)>,
    pub aggs: Vec<BoundAgg>,
    pub output: Vec<OutputItem>,
    /// ORDER BY keys over the output row; empty = unordered.
    pub order_by: Vec<BoundOrderKey>,
    pub limit: Option<usize>,
    pub offset: Option<usize>,
}

impl JoinQuery {
    /// Build the weighted join graph (§3.1). Vertex cardinalities are the
    /// base-table row counts, which drive LargestRoot and Small2Large.
    pub fn graph(&self) -> QueryGraph {
        QueryGraph::new(
            self.relations
                .iter()
                .map(|r| {
                    Relation::new(
                        r.binding.clone(),
                        r.attr_cols.keys().copied().collect(),
                        r.table.stats().num_rows,
                    )
                })
                .collect(),
        )
    }

    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    pub fn is_alpha_acyclic(&self) -> bool {
        rpt_graph::is_alpha_acyclic(&self.graph())
    }

    pub fn is_gamma_acyclic(&self) -> bool {
        rpt_graph::is_gamma_acyclic(&self.graph())
    }

    /// Join attribute classes shared between two relations (= the natural
    /// join key of that edge).
    pub fn shared_attrs(&self, a: usize, b: usize) -> Vec<AttrId> {
        self.relations[a]
            .attr_cols
            .keys()
            .filter(|k| self.relations[b].attr_cols.contains_key(k))
            .copied()
            .collect()
    }

    /// Is this relation's join key on `attrs` unique (a primary key)? Used
    /// by the §4.3 pruning rule: a semi-join from an unfiltered PK side of a
    /// PK–FK join is trivial and can be skipped.
    pub fn key_is_unique(&self, rel: usize, attrs: &[AttrId]) -> bool {
        if attrs.len() != 1 {
            return false; // conservative for composite keys
        }
        let r = &self.relations[rel];
        let Some(&col) = r.attr_cols.get(&attrs[0]) else {
            return false;
        };
        let stats = r.table.stats();
        let key = stats.column(col);
        key.distinct == stats.num_rows && key.null_count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_common::{DataType, Field, Schema, Vector};

    fn rel(binding: &str, rows: Vec<i64>, attrs: &[(AttrId, usize)]) -> BoundRelation {
        let table = rpt_storage::Table::new(
            binding,
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("v", DataType::Int64),
            ]),
            vec![Vector::from_i64(rows.clone()), Vector::from_i64(rows)],
        )
        .unwrap();
        BoundRelation {
            binding: binding.into(),
            table: Arc::new(StoredTable::new(table)),
            filter: None,
            attr_cols: attrs.iter().copied().collect(),
            needed_cols: vec![0, 1],
        }
    }

    fn query() -> JoinQuery {
        // r(attr0@col0) ⋈ s(attr0@col0, attr1@col1) ⋈ t(attr1@col0)
        JoinQuery {
            relations: vec![
                rel("r", vec![1, 2, 3], &[(0, 0)]),
                rel("s", vec![1, 2, 3, 4], &[(0, 0), (1, 1)]),
                rel("t", vec![1, 2, 3, 4, 5], &[(1, 0)]),
            ],
            num_attrs: 2,
            residuals: vec![],
            group_by: vec![],
            aggs: vec![],
            output: vec![],
            order_by: vec![],
            limit: None,
            offset: None,
        }
    }

    #[test]
    fn graph_shape() {
        let q = query();
        let g = q.graph();
        assert_eq!(g.num_relations(), 3);
        assert!(g.edge_between(0, 1).is_some());
        assert!(g.edge_between(1, 2).is_some());
        assert!(g.edge_between(0, 2).is_none());
        assert!(q.is_alpha_acyclic());
        assert!(q.is_gamma_acyclic());
        assert_eq!(g.largest_relation(), 2);
    }

    #[test]
    fn shared_attrs() {
        let q = query();
        assert_eq!(q.shared_attrs(0, 1), vec![0]);
        assert_eq!(q.shared_attrs(1, 2), vec![1]);
        assert!(q.shared_attrs(0, 2).is_empty());
    }

    #[test]
    fn key_uniqueness() {
        let q = query();
        // every table has distinct ids → unique keys
        assert!(q.key_is_unique(0, &[0]));
        assert!(q.key_is_unique(2, &[1]));
        // composite: conservative false
        assert!(!q.key_is_unique(1, &[0, 1]));
        // missing attr
        assert!(!q.key_is_unique(0, &[1]));
    }

    #[test]
    fn rexpr_lowering_and_columns() {
        let e = RExpr::And(vec![
            RExpr::Cmp {
                op: CmpOp::Gt,
                left: Box::new(RExpr::Col { rel: 0, col: 1 }),
                right: Box::new(RExpr::Lit(ScalarValue::Int64(5))),
            },
            RExpr::Contains {
                expr: Box::new(RExpr::Col { rel: 1, col: 0 }),
                pattern: "x".into(),
            },
        ]);
        let mut cols = BTreeSet::new();
        e.columns(&mut cols);
        assert_eq!(cols.into_iter().collect::<Vec<_>>(), vec![(0, 1), (1, 0)]);
        assert_eq!(e.relations().into_iter().collect::<Vec<_>>(), vec![0, 1]);
        // layout: (0,1) -> 3, (1,0) -> 7
        let exec = e
            .to_exec(&|r, c| match (r, c) {
                (0, 1) => Some(3),
                (1, 0) => Some(7),
                _ => None,
            })
            .unwrap();
        match exec {
            Expr::And(parts) => {
                assert!(matches!(&parts[0], Expr::Cmp { left, .. } if **left == Expr::Column(3)));
            }
            other => panic!("expected And, got {other:?}"),
        }
        // missing layout entry errors
        assert!(e.to_exec(&|_, _| None).is_err());
    }

    #[test]
    fn projected_index() {
        let mut r = rel("r", vec![1], &[(0, 0)]);
        r.needed_cols = vec![1];
        assert_eq!(r.projected_index(1), Some(0));
        assert_eq!(r.projected_index(0), None);
    }
}
