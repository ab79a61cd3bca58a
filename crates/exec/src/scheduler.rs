//! The pipeline dependency DAG.
//!
//! Each pipeline reads and writes [`ResourceId`] grains (buffer partitions,
//! Bloom filters, hash tables); those sets define the only order execution
//! has to respect — e.g. the per-relation CreateBF builds of the forward
//! transfer pass (§4.2) touch disjoint buffers and filters, so nothing
//! orders them relative to each other. [`PipelinePlan::deps`] derives a
//! [`NodeDeps`] per pipeline from its specs; `rpt-analyze` judges those sets
//! with [`build_dag`] and [`stuck_nodes`], and the executor
//! ([`crate::global`]) rejects a cyclic plan up front with the same two
//! functions and gates every task on the grains it reads.
//!
//! [`PipelinePlan::deps`]: crate::pipeline::PipelinePlan::deps

use crate::operators::ResourceId;
use rpt_common::{Error, Result};
use std::collections::HashMap;

/// Read/write grain sets of one schedulable node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeDeps {
    pub reads: Vec<ResourceId>,
    pub writes: Vec<ResourceId>,
}

/// The dependency DAG in adjacency form: `edges[p]` lists the nodes that
/// must wait for `p`; `indegree[c]` counts how many nodes `c` waits for.
pub struct Dag {
    pub(crate) edges: Vec<Vec<usize>>,
    pub(crate) indegree: Vec<usize>,
}

/// Build the DAG: node `c` depends on node `p` (p < runs-before > c) when
/// `p` writes a resource `c` reads, or — defensively, the planner never
/// emits this — when both write the same resource (ordered by index).
pub fn build_dag(deps: &[NodeDeps]) -> Dag {
    let n = deps.len();
    let mut writer: HashMap<ResourceId, Vec<usize>> = HashMap::new();
    for (i, d) in deps.iter().enumerate() {
        for &w in &d.writes {
            writer.entry(w).or_default().push(i);
        }
    }
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indegree = vec![0usize; n];
    let add_edge = |edges: &mut Vec<Vec<usize>>, indegree: &mut Vec<usize>, p: usize, c: usize| {
        if p != c && !edges[p].contains(&c) {
            edges[p].push(c);
            indegree[c] += 1;
        }
    };
    for (c, d) in deps.iter().enumerate() {
        for r in &d.reads {
            if let Some(ps) = writer.get(r) {
                for &p in ps {
                    add_edge(&mut edges, &mut indegree, p, c);
                }
            }
        }
    }
    // Write-write conflicts: serialize in index order.
    for ps in writer.values() {
        for pair in ps.windows(2) {
            add_edge(&mut edges, &mut indegree, pair[0], pair[1]);
        }
    }
    Dag { edges, indegree }
}

/// Kahn's algorithm: the nodes a dependency cycle keeps from ever running
/// (the cycle's members and everything downstream of it), ascending; empty
/// when the DAG is acyclic.
pub fn stuck_nodes(dag: &Dag) -> Vec<usize> {
    let n = dag.indegree.len();
    let mut indegree = dag.indegree.clone();
    let mut stack: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    while let Some(p) = stack.pop() {
        for &c in &dag.edges[p] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                stack.push(c);
            }
        }
    }
    (0..n).filter(|&i| indegree[i] > 0).collect()
}

/// `Error::Plan` if the dependencies contain a cycle.
pub(crate) fn check_acyclic(dag: &Dag) -> Result<()> {
    let stuck = stuck_nodes(dag);
    if stuck.is_empty() {
        return Ok(());
    }
    Err(Error::Plan(format!(
        "pipeline dependency cycle involving pipelines {stuck:?}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(reads: Vec<ResourceId>, writes: Vec<ResourceId>) -> NodeDeps {
        NodeDeps { reads, writes }
    }

    use ResourceId::{BufferPart, Filter, HashTable};

    /// Every read of a written resource becomes exactly one producer →
    /// consumer edge; an independent node has none.
    #[test]
    fn dependencies_respected() {
        // 0 → {1, 2} → 3 (a diamond), 4 independent.
        let deps = vec![
            node(vec![], vec![BufferPart(0, 0)]),
            node(vec![BufferPart(0, 0)], vec![Filter(0)]),
            node(vec![BufferPart(0, 0)], vec![HashTable(0)]),
            node(vec![Filter(0), HashTable(0)], vec![BufferPart(1, 0)]),
            node(vec![], vec![BufferPart(2, 0)]),
        ];
        let dag = build_dag(&deps);
        assert_eq!(
            dag.edges,
            vec![vec![1, 2], vec![3], vec![3], vec![], vec![]]
        );
        assert_eq!(dag.indegree, vec![0, 1, 1, 2, 0]);
        check_acyclic(&dag).unwrap();
    }

    /// A dependency cycle is reported as `Error::Plan`.
    #[test]
    fn cycle_is_plan_error() {
        let deps = vec![
            node(vec![BufferPart(1, 0)], vec![BufferPart(0, 0)]),
            node(vec![BufferPart(0, 0)], vec![BufferPart(1, 0)]),
        ];
        let err = check_acyclic(&build_dag(&deps)).unwrap_err();
        assert!(matches!(err, Error::Plan(_)), "got {err}");
        // Nodes reachable only through the cycle are reported too.
        let deps = vec![
            node(vec![], vec![BufferPart(9, 0)]),
            node(vec![BufferPart(9, 0), Filter(0)], vec![HashTable(0)]),
            node(vec![HashTable(0)], vec![Filter(0)]),
        ];
        let err = check_acyclic(&build_dag(&deps)).unwrap_err();
        assert!(matches!(err, Error::Plan(_)), "got {err}");
    }

    /// Write-write conflicts (never emitted by the planner) are serialized
    /// by index rather than left unordered.
    #[test]
    fn write_write_serialized() {
        let deps = vec![
            node(vec![], vec![BufferPart(0, 0)]),
            node(vec![], vec![BufferPart(0, 0)]),
            node(vec![BufferPart(0, 0)], vec![BufferPart(1, 0)]),
        ];
        let dag = build_dag(&deps);
        assert!(dag.edges[0].contains(&1));
        assert!(dag.edges[1].contains(&2));
        check_acyclic(&dag).unwrap();
    }

    #[test]
    fn empty_dag_is_noop() {
        let dag = build_dag(&[]);
        assert!(dag.edges.is_empty() && dag.indegree.is_empty());
        check_acyclic(&dag).unwrap();
    }
}
