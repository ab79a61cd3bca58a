//! Textbook cardinality estimation for the baseline optimizer.
//!
//! Implements the classic assumptions the paper lists in §2.1 — uniformity,
//! independence, inclusion — over the per-column statistics collected at
//! registration. An optional multiplicative noise knob lets experiments
//! inject the kind of estimation error that real optimizers suffer from
//! (under-estimation by orders of magnitude at ≥5 joins, per Leis et al.),
//! for the ablation benches.

use crate::query::{JoinQuery, RExpr};
use rpt_common::hash::{combine, hash_i64};
use rpt_exec::CmpOp;

/// Cardinality estimator over a bound query.
pub struct Estimator<'q> {
    q: &'q JoinQuery,
    /// `(seed, sigma)`: each base-table and edge estimate is multiplied by
    /// `exp(sigma * z)` with `z` a deterministic standard-normal-ish draw.
    noise: Option<(u64, f64)>,
}

impl<'q> Estimator<'q> {
    pub fn new(q: &'q JoinQuery) -> Self {
        Estimator { q, noise: None }
    }

    /// Enable deterministic noise injection (ablation: CE error tolerance).
    pub fn with_noise(mut self, seed: u64, sigma: f64) -> Self {
        self.noise = Some((seed, sigma));
        self
    }

    fn noise_factor(&self, tag: u64) -> f64 {
        match self.noise {
            None => 1.0,
            Some((seed, sigma)) => {
                // 4 deterministic uniforms → approximately normal z.
                let mut z = -2.0;
                let mut h = combine(hash_i64(seed as i64), hash_i64(tag as i64));
                for _ in 0..4 {
                    h = hash_i64(h as i64);
                    z += (h >> 11) as f64 / (1u64 << 53) as f64;
                }
                (sigma * z).exp()
            }
        }
    }

    /// Estimated rows of a relation after its pushed-down filter.
    pub fn base_card(&self, rel: usize) -> f64 {
        let r = &self.q.relations[rel];
        let rows = r.table.stats().num_rows as f64;
        let sel = r.filter.as_ref().map_or(1.0, |f| self.selectivity(rel, f));
        (rows * sel).max(1.0) * self.noise_factor(rel as u64)
    }

    /// Heuristic filter selectivity.
    fn selectivity(&self, rel: usize, e: &RExpr) -> f64 {
        let r = &self.q.relations[rel];
        let distinct = |col: usize| -> f64 { (r.table.stats().column(col).distinct.max(1)) as f64 };
        match e {
            RExpr::Cmp { op, left, right } => {
                // column-vs-literal fast paths
                let col = match (&**left, &**right) {
                    (RExpr::Col { col, .. }, RExpr::Lit(_))
                    | (RExpr::Lit(_), RExpr::Col { col, .. }) => Some(*col),
                    _ => None,
                };
                match (op, col) {
                    (CmpOp::Eq, Some(c)) => 1.0 / distinct(c),
                    (CmpOp::NotEq, Some(c)) => 1.0 - 1.0 / distinct(c),
                    (CmpOp::Lt | CmpOp::LtEq | CmpOp::Gt | CmpOp::GtEq, _) => 1.0 / 3.0,
                    (CmpOp::Eq, None) => 0.1,
                    _ => 0.5,
                }
            }
            RExpr::And(parts) => parts.iter().map(|p| self.selectivity(rel, p)).product(),
            RExpr::Or(parts) => parts
                .iter()
                .map(|p| self.selectivity(rel, p))
                .fold(0.0, |a, b| a + b - a * b)
                .min(1.0),
            RExpr::Not(inner) => 1.0 - self.selectivity(rel, inner),
            RExpr::InList { expr, list } => {
                if let RExpr::Col { col, .. } = &**expr {
                    (list.len() as f64 / distinct(*col)).min(1.0)
                } else {
                    0.2
                }
            }
            RExpr::Contains { .. } => 0.1,
            RExpr::StartsWith { .. } | RExpr::EndsWith { .. } => 0.05,
            RExpr::IsNull(_) => 0.05,
            RExpr::Lit(_) | RExpr::Col { .. } | RExpr::Arith { .. } => 1.0,
        }
    }

    /// Selectivity of the join edge between relations `a` and `b`:
    /// `Π_attr 1 / max(d_a(attr), d_b(attr))` (uniformity + inclusion).
    pub fn edge_selectivity(&self, a: usize, b: usize) -> f64 {
        let shared = self.q.shared_attrs(a, b);
        let mut sel = 1.0;
        for attr in &shared {
            let da = self.attr_distinct(a, *attr);
            let db = self.attr_distinct(b, *attr);
            sel /= da.max(db).max(1.0);
        }
        sel * self.noise_factor(((a as u64) << 20) ^ (b as u64) ^ 0xE)
    }

    fn attr_distinct(&self, rel: usize, attr: usize) -> f64 {
        let r = &self.q.relations[rel];
        r.attr_cols
            .get(&attr)
            .map(|&c| r.table.stats().column(c).distinct.max(1) as f64)
            .unwrap_or(1.0)
    }

    /// Incremental join estimate: cardinality of `S ∪ {r}` given `card(S)`.
    /// Applies every edge between `r` and the members of `S` (System-R
    /// style).
    pub fn extend_card(&self, current_set: &[usize], current_card: f64, r: usize) -> f64 {
        let mut card = current_card * self.base_card(r);
        for &s in current_set {
            if !self.q.shared_attrs(s, r).is_empty() {
                card *= self.edge_selectivity(s, r);
            }
        }
        card.max(1.0)
    }

    /// Estimated rows of joining `rels` in the given order: the first
    /// relation's `base_card`, extended by each following one. This is the
    /// number the left-deep DP gives that prefix of its order.
    pub fn join_card(&self, rels: &[usize]) -> f64 {
        let Some((&first, rest)) = rels.split_first() else {
            return 1.0;
        };
        rest.iter()
            .enumerate()
            .fold(self.base_card(first), |card, (i, &r)| {
                self.extend_card(&rels[..=i], card, r)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind;
    use crate::catalog::Catalog;
    use rpt_common::{DataType, Field, Schema, Vector};
    use rpt_sql::parse_select;
    use rpt_storage::Table;

    fn setup() -> Catalog {
        let mut c = Catalog::new();
        // fact: 1000 rows, key 0..1000; dim: 100 rows key 0..100
        c.register(
            Table::new(
                "fact",
                Schema::new(vec![
                    Field::new("id", DataType::Int64),
                    Field::new("dim_id", DataType::Int64),
                    Field::new("v", DataType::Int64),
                ]),
                vec![
                    Vector::from_i64((0..1000).collect()),
                    Vector::from_i64((0..1000).map(|i| i % 100).collect()),
                    Vector::from_i64((0..1000).map(|i| i % 7).collect()),
                ],
            )
            .unwrap(),
        );
        c.register(
            Table::new(
                "dim",
                Schema::new(vec![
                    Field::new("id", DataType::Int64),
                    Field::new("grp", DataType::Int64),
                ]),
                vec![
                    Vector::from_i64((0..100).collect()),
                    Vector::from_i64((0..100).map(|i| i % 5).collect()),
                ],
            )
            .unwrap(),
        );
        c
    }

    fn q(sql: &str) -> JoinQuery {
        bind(&parse_select(sql).unwrap(), &setup()).unwrap()
    }

    #[test]
    fn base_card_applies_filter_selectivity() {
        let query = q("SELECT COUNT(*) FROM fact WHERE fact.v = 3");
        let est = Estimator::new(&query);
        // v has 7 distinct values → ~1000/7
        let card = est.base_card(0);
        assert!((card - 1000.0 / 7.0).abs() < 1.0, "card = {card}");
    }

    #[test]
    fn join_estimate_pk_fk() {
        let query = q("SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id");
        let est = Estimator::new(&query);
        let c0 = est.base_card(0);
        let joined = est.extend_card(&[0], c0, 1);
        // |fact ⋈ dim| = 1000 * 100 / max(100, 100) = 1000.
        assert!((joined - 1000.0).abs() < 1.0, "joined = {joined}");
    }

    #[test]
    fn range_and_in_selectivities() {
        let query = q("SELECT COUNT(*) FROM dim WHERE dim.grp > 2");
        let est = Estimator::new(&query);
        assert!((est.base_card(0) - 100.0 / 3.0).abs() < 1.0);
        let query = q("SELECT COUNT(*) FROM dim WHERE dim.grp IN (1, 2)");
        let est = Estimator::new(&query);
        assert!((est.base_card(0) - 40.0).abs() < 1.0); // 2/5 of 100
    }

    #[test]
    fn noise_changes_estimates_deterministically() {
        let query = q("SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id");
        let clean = Estimator::new(&query).base_card(0);
        let noisy1 = Estimator::new(&query).with_noise(42, 2.0).base_card(0);
        let noisy2 = Estimator::new(&query).with_noise(42, 2.0).base_card(0);
        let noisy3 = Estimator::new(&query).with_noise(43, 2.0).base_card(0);
        assert_eq!(noisy1, noisy2);
        assert_ne!(noisy1, clean);
        assert_ne!(noisy1, noisy3);
    }

    #[test]
    fn disconnected_extension_is_cross_product() {
        let query = q("SELECT COUNT(*) FROM fact f, dim d WHERE f.v = 0 AND d.grp = 0");
        let est = Estimator::new(&query);
        let c0 = est.base_card(0);
        let cross = est.extend_card(&[0], c0, 1);
        assert!((cross - c0 * est.base_card(1)).abs() < 1e-6);
    }
}
