//! Join-order selection: the baseline optimizer (left-deep dynamic
//! programming with a greedy fallback, mirroring DuckDB's DP + greedy
//! split), a greedy bushy optimizer, and the random order generators used
//! by the robustness experiments (§5.1).

use crate::estimator::Estimator;
use crate::query::JoinQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpt_common::{Error, Result};
use rpt_graph::QueryGraph;

/// A (possibly bushy) join plan tree. The build side of each hash join is
/// the `right` child unless `build_left` flips it. The Baseline and
/// BloomJoin optimizer plans set it from estimates (`with_build_sides`);
/// the Figure 10 experiment sets it by hand to build on the wrong side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanNode {
    Leaf(usize),
    Join {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        /// When true, build on `left` and probe with `right`. Default
        /// false: build on `right`.
        build_left: bool,
    },
}

impl PlanNode {
    pub fn join(left: PlanNode, right: PlanNode) -> PlanNode {
        PlanNode::Join {
            left: Box::new(left),
            right: Box::new(right),
            build_left: false,
        }
    }

    /// Left-deep chain from an order: `((r0 ⋈ r1) ⋈ r2) ⋈ ...`.
    pub fn left_deep(order: &[usize]) -> PlanNode {
        assert!(!order.is_empty());
        let mut node = PlanNode::Leaf(order[0]);
        for &r in &order[1..] {
            node = PlanNode::join(node, PlanNode::Leaf(r));
        }
        node
    }

    /// Relations in this subtree (in-order).
    pub fn relations(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect(&self, out: &mut Vec<usize>) {
        match self {
            PlanNode::Leaf(r) => out.push(*r),
            PlanNode::Join { left, right, .. } => {
                left.collect(out);
                right.collect(out);
            }
        }
    }

    /// Is this a left-deep chain?
    pub fn is_left_deep(&self) -> bool {
        match self {
            PlanNode::Leaf(_) => true,
            PlanNode::Join { left, right, .. } => {
                matches!(**right, PlanNode::Leaf(_)) && left.is_left_deep()
            }
        }
    }

    /// Number of join nodes.
    pub fn num_joins(&self) -> usize {
        match self {
            PlanNode::Leaf(_) => 0,
            PlanNode::Join { left, right, .. } => 1 + left.num_joins() + right.num_joins(),
        }
    }

    /// Flip the build side of the topmost join (Figure 10's experiment).
    pub fn flip_top_build_side(mut self) -> PlanNode {
        if let PlanNode::Join { build_left, .. } = &mut self {
            *build_left = !*build_left;
        }
        self
    }
}

/// A chosen join order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinOrder {
    LeftDeep(Vec<usize>),
    Bushy(PlanNode),
}

impl JoinOrder {
    pub fn plan(&self) -> PlanNode {
        match self {
            JoinOrder::LeftDeep(order) => PlanNode::left_deep(order),
            JoinOrder::Bushy(node) => node.clone(),
        }
    }

    pub fn relations(&self) -> Vec<usize> {
        match self {
            JoinOrder::LeftDeep(order) => order.clone(),
            JoinOrder::Bushy(node) => node.relations(),
        }
    }
}

/// Maximum relation count for exact left-deep DP; beyond this the greedy
/// algorithm takes over (mirroring DuckDB's optimizer structure).
const DP_LIMIT: usize = 17;

/// Baseline optimizer: pick a left-deep order minimizing Σ intermediate
/// cardinality estimates (C_out). Joins without cross products when the
/// graph is connected.
pub fn optimize_left_deep(q: &JoinQuery, est: &Estimator<'_>) -> Result<Vec<usize>> {
    let n = q.num_relations();
    if n == 0 {
        return Err(Error::Plan("no relations".into()));
    }
    if n == 1 {
        return Ok(vec![0]);
    }
    if n <= DP_LIMIT {
        if let Some(order) = dp_left_deep(q, est) {
            return Ok(order);
        }
    }
    greedy_left_deep(q, est)
}

/// Exact DP over subsets for left-deep plans (cost = Σ intermediate sizes).
fn dp_left_deep(q: &JoinQuery, est: &Estimator<'_>) -> Option<Vec<usize>> {
    let n = q.num_relations();
    let full: usize = (1 << n) - 1;
    // dp[mask] = (cost, card, last_added) — f64::INFINITY = unreachable.
    let mut cost = vec![f64::INFINITY; full + 1];
    let mut card = vec![0.0f64; full + 1];
    let mut last = vec![usize::MAX; full + 1];
    for r in 0..n {
        let m = 1usize << r;
        cost[m] = 0.0;
        card[m] = est.base_card(r);
        last[m] = r;
    }
    let joinable = |mask: usize, r: usize| -> bool {
        (0..n).any(|s| mask & (1 << s) != 0 && !q.shared_attrs(s, r).is_empty())
    };
    for mask in 1..=full {
        if cost[mask].is_infinite() {
            continue;
        }
        let members: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        for r in 0..n {
            if mask & (1 << r) != 0 || !joinable(mask, r) {
                continue;
            }
            let next = mask | (1 << r);
            let next_card = est.extend_card(&members, card[mask], r);
            let next_cost = cost[mask] + next_card;
            if next_cost < cost[next] {
                cost[next] = next_cost;
                card[next] = next_card;
                last[next] = r;
            }
        }
    }
    if cost[full].is_infinite() {
        return None; // disconnected graph
    }
    // Reconstruct.
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let r = last[mask];
        order.push(r);
        mask &= !(1 << r);
    }
    order.reverse();
    Some(order)
}

/// Greedy left-deep: start from the smallest estimated relation, repeatedly
/// append the joinable relation minimizing the resulting estimate.
fn greedy_left_deep(q: &JoinQuery, est: &Estimator<'_>) -> Result<Vec<usize>> {
    let n = q.num_relations();
    let start = (0..n)
        .min_by(|&a, &b| {
            est.base_card(a)
                .partial_cmp(&est.base_card(b))
                .expect("cardinalities are finite")
        })
        .expect("n >= 1");
    let mut order = vec![start];
    let mut card = est.base_card(start);
    while order.len() < n {
        let mut best: Option<(usize, f64)> = None;
        for r in 0..n {
            if order.contains(&r) {
                continue;
            }
            if !order.iter().any(|&s| !q.shared_attrs(s, r).is_empty()) {
                continue;
            }
            let c = est.extend_card(&order, card, r);
            if best.is_none_or(|(_, bc)| c < bc) {
                best = Some((r, c));
            }
        }
        let (r, c) = best
            .ok_or_else(|| Error::Plan("join graph is disconnected (Cartesian product)".into()))?;
        order.push(r);
        card = c;
    }
    Ok(order)
}

/// Build every join of `plan` on its smaller input by estimate, keeping
/// the tree shape: `build_left` wherever the left subtree's
/// [`Estimator::join_card`] is strictly below the right's, so a tie keeps
/// the right side. The planner sizes a BloomJoin filter from the same
/// number.
pub(crate) fn with_build_sides(plan: PlanNode, est: &Estimator<'_>) -> PlanNode {
    match plan {
        PlanNode::Leaf(r) => PlanNode::Leaf(r),
        PlanNode::Join { left, right, .. } => {
            let build_left = est.join_card(&left.relations()) < est.join_card(&right.relations());
            PlanNode::Join {
                left: Box::new(with_build_sides(*left, est)),
                right: Box::new(with_build_sides(*right, est)),
                build_left,
            }
        }
    }
}

/// Greedy bushy optimizer: repeatedly merge the pair of subtrees with the
/// smallest estimated join output.
pub fn optimize_bushy(q: &JoinQuery, est: &Estimator<'_>) -> Result<PlanNode> {
    let n = q.num_relations();
    if n == 0 {
        return Err(Error::Plan("no relations".into()));
    }
    let mut forest: Vec<(PlanNode, Vec<usize>, f64)> = (0..n)
        .map(|r| (PlanNode::Leaf(r), vec![r], est.base_card(r)))
        .collect();
    while forest.len() > 1 {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..forest.len() {
            for j in 0..forest.len() {
                if i == j {
                    continue;
                }
                let connected = forest[i].1.iter().any(|&a| {
                    forest[j]
                        .1
                        .iter()
                        .any(|&b| !q.shared_attrs(a, b).is_empty())
                });
                if !connected {
                    continue;
                }
                // estimate i ⋈ j
                let mut c = forest[i].2;
                let set_i = forest[i].1.clone();
                let mut set = set_i;
                for &b in &forest[j].1 {
                    c = est.extend_card(&set, c, b);
                    set.push(b);
                }
                if best.is_none_or(|(_, _, bc)| c < bc) {
                    best = Some((i, j, c));
                }
            }
        }
        let (i, j, c) = best
            .ok_or_else(|| Error::Plan("join graph is disconnected (Cartesian product)".into()))?;
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        let tj = forest.swap_remove(hi);
        let ti = forest.swap_remove(lo);
        // `i` merged `j`: probe the bigger side, build the smaller (by
        // estimate), i.e. right = smaller.
        let (probe, build) = if ti.2 >= tj.2 {
            (ti.clone(), tj.clone())
        } else {
            (tj.clone(), ti.clone())
        };
        let mut rels = probe.1.clone();
        rels.extend(build.1.iter().copied());
        forest.push((PlanNode::join(probe.0, build.0), rels, c));
    }
    Ok(forest.pop().expect("forest reduced to one tree").0)
}

/// Random left-deep order (§5.1): pick a random start, then repeatedly pick
/// a random base table joinable with the current intermediate (no Cartesian
/// products).
pub fn random_left_deep(graph: &QueryGraph, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = graph.num_relations();
    let start = rng.gen_range(0..n);
    let mut order = vec![start];
    let mut in_set = vec![false; n];
    in_set[start] = true;
    while order.len() < n {
        let frontier: Vec<usize> = (0..n)
            .filter(|&r| !in_set[r] && graph.neighbors(r).iter().any(|&s| in_set[s]))
            .collect();
        if frontier.is_empty() {
            // disconnected graph: jump anywhere (Cartesian product) — the
            // planner rejects this, but keep the generator total.
            let rest: Vec<usize> = (0..n).filter(|&r| !in_set[r]).collect();
            let r = rest[rng.gen_range(0..rest.len())];
            in_set[r] = true;
            order.push(r);
            continue;
        }
        let r = frontier[rng.gen_range(0..frontier.len())];
        in_set[r] = true;
        order.push(r);
    }
    order
}

/// Random bushy plan (§5.1): repeatedly pick two random joinable subtrees
/// and merge them, until one tree remains.
pub fn random_bushy(graph: &QueryGraph, seed: u64) -> PlanNode {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = graph.num_relations();
    let mut forest: Vec<(PlanNode, Vec<usize>)> =
        (0..n).map(|r| (PlanNode::Leaf(r), vec![r])).collect();
    while forest.len() > 1 {
        // Collect joinable pairs.
        let mut pairs = Vec::new();
        for i in 0..forest.len() {
            for j in (i + 1)..forest.len() {
                let connected = forest[i].1.iter().any(|&a| {
                    forest[j]
                        .1
                        .iter()
                        .any(|&b| graph.edge_between(a, b).is_some())
                });
                if connected {
                    pairs.push((i, j));
                }
            }
        }
        if pairs.is_empty() {
            // Disconnected: merge arbitrary pair.
            pairs.push((0, 1));
        }
        let (i, j) = pairs[rng.gen_range(0..pairs.len())];
        let flip: bool = rng.gen();
        let tj = forest.swap_remove(j);
        let ti = forest.swap_remove(i);
        let (l, r) = if flip { (tj, ti) } else { (ti, tj) };
        let mut rels = l.1.clone();
        rels.extend(r.1.iter().copied());
        forest.push((PlanNode::join(l.0, r.0), rels));
    }
    forest.pop().expect("forest reduced to one tree").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind;
    use crate::catalog::Catalog;
    use rpt_common::{DataType, Field, Schema, Vector};
    use rpt_sql::parse_select;
    use rpt_storage::Table;

    fn chain_catalog() -> Catalog {
        let mut c = Catalog::new();
        let sizes = [("a", 10i64), ("b", 1000), ("m", 100), ("z", 10000)];
        for (name, n) in sizes {
            c.register(
                Table::new(
                    name,
                    Schema::new(vec![
                        Field::new("k1", DataType::Int64),
                        Field::new("k2", DataType::Int64),
                    ]),
                    vec![
                        Vector::from_i64((0..n).collect()),
                        Vector::from_i64((0..n).map(|i| i % 10).collect()),
                    ],
                )
                .unwrap(),
            );
        }
        c
    }

    fn chain_query() -> JoinQuery {
        // a ⋈ b ⋈ m ⋈ z along a path a—b—m—z
        let stmt = parse_select(
            "SELECT COUNT(*) FROM a, b, m, z \
             WHERE a.k1 = b.k2 AND b.k1 = m.k2 AND m.k1 = z.k2",
        )
        .unwrap();
        bind(&stmt, &chain_catalog()).unwrap()
    }

    #[test]
    fn plan_node_shapes() {
        let ld = PlanNode::left_deep(&[2, 0, 1]);
        assert!(ld.is_left_deep());
        assert_eq!(ld.relations(), vec![2, 0, 1]);
        assert_eq!(ld.num_joins(), 2);
        let bushy = PlanNode::join(
            PlanNode::join(PlanNode::Leaf(0), PlanNode::Leaf(1)),
            PlanNode::join(PlanNode::Leaf(2), PlanNode::Leaf(3)),
        );
        assert!(!bushy.is_left_deep());
        assert_eq!(bushy.num_joins(), 3);
    }

    #[test]
    fn dp_produces_connected_order() {
        let q = chain_query();
        let est = Estimator::new(&q);
        let order = optimize_left_deep(&q, &est).unwrap();
        assert_eq!(order.len(), 4);
        // every prefix must be connected
        for k in 2..=4 {
            let prefix = &order[..k];
            let connected = prefix[1..].iter().all(|&r| {
                prefix
                    .iter()
                    .any(|&s| s != r && !q.shared_attrs(s, r).is_empty())
            });
            assert!(connected, "prefix {prefix:?} disconnected");
        }
    }

    #[test]
    fn greedy_matches_dp_feasibility() {
        let q = chain_query();
        let est = Estimator::new(&q);
        let greedy = greedy_left_deep(&q, &est).unwrap();
        assert_eq!(greedy.len(), 4);
    }

    #[test]
    fn bushy_optimizer_builds_tree() {
        let q = chain_query();
        let est = Estimator::new(&q);
        let plan = optimize_bushy(&q, &est).unwrap();
        let mut rels = plan.relations();
        rels.sort_unstable();
        assert_eq!(rels, vec![0, 1, 2, 3]);
        assert_eq!(plan.num_joins(), 3);
    }

    #[test]
    fn random_left_deep_is_joinable_and_seeded() {
        let q = chain_query();
        let g = q.graph();
        let o1 = random_left_deep(&g, 7);
        let o2 = random_left_deep(&g, 7);
        assert_eq!(o1, o2);
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..30 {
            let o = random_left_deep(&g, seed);
            assert_eq!(o.len(), 4);
            // connectivity of each prefix (chain graph → neighbors)
            for k in 2..=4 {
                let prefix = &o[..k];
                let last = prefix[k - 1];
                assert!(
                    prefix[..k - 1]
                        .iter()
                        .any(|&s| g.edge_between(s, last).is_some()),
                    "order {o:?} not joinable at step {k}"
                );
            }
            distinct.insert(o);
        }
        assert!(distinct.len() > 3, "random orders never varied");
    }

    #[test]
    fn random_bushy_covers_all_relations() {
        let q = chain_query();
        let g = q.graph();
        let mut saw_bushy = false;
        for seed in 0..30 {
            let p = random_bushy(&g, seed);
            let mut rels = p.relations();
            rels.sort_unstable();
            assert_eq!(rels, vec![0, 1, 2, 3]);
            if !p.is_left_deep() {
                saw_bushy = true;
            }
        }
        assert!(saw_bushy, "never generated a genuinely bushy plan");
    }

    #[test]
    fn flip_top_build_side() {
        let p = PlanNode::join(PlanNode::Leaf(0), PlanNode::Leaf(1)).flip_top_build_side();
        match p {
            PlanNode::Join { build_left, .. } => assert!(build_left),
            _ => panic!(),
        }
    }

    #[test]
    fn single_relation_query() {
        let mut c = Catalog::new();
        c.register(
            Table::new(
                "solo",
                Schema::new(vec![Field::new("x", DataType::Int64)]),
                vec![Vector::from_i64(vec![1])],
            )
            .unwrap(),
        );
        let q = bind(&parse_select("SELECT COUNT(*) FROM solo").unwrap(), &c).unwrap();
        let est = Estimator::new(&q);
        assert_eq!(optimize_left_deep(&q, &est).unwrap(), vec![0]);
    }
}
