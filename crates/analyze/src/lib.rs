//! # rpt-analyze
//!
//! Static plan verifier: proves well-formedness of a compiled
//! `PhysicalPlan` (every mode compiles to one) *before* a single task is
//! scheduled, rejecting an unsound plan with a structured diagnostic. It
//! judges the deps the scheduler will use — [`PipelinePlan::deps`], read
//! off the specs — so nothing the planner could record can drift from
//! them; the independent check lives in `R1`/`R2`, which compare those
//! deps with what execution actually touched.
//!
//! Three rule families (ids are stable and asserted by the mutation
//! tests):
//!
//! * **D — dependency-graph soundness.** `D1` acyclicity, `D2` every read
//!   grain has a writer, `D3` at most one writing pipeline per grain,
//!   `D4` no pipeline reads a grain it also writes, `D5` every partition
//!   of the output buffer is written.
//! * **S — sink contracts.** `S2` every grain names a buffer, filter or
//!   hash table the plan allocates, and no partition outside the plan's
//!   partition count; `S3` every sealed buffer grain has a downstream
//!   reader or is the output buffer (no dead seal).
//! * **R — runtime reconciliation.** After a verify-mode run, the
//!   executor's observed-access shadow log must be a subset of the
//!   declared dependencies: `R1` undeclared read, `R2` undeclared write.

use rpt_exec::scheduler::{build_dag, stuck_nodes};
use rpt_exec::{NodeDeps, PipelinePlan, ResourceId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Stable rule identifiers; the mutation suite asserts specific ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// D1: the pipeline dependency graph has a cycle.
    Cycle,
    /// D2: a pipeline reads a grain no pipeline writes.
    UnwrittenRead,
    /// D3: a grain has more than one writing pipeline.
    MultiWriter,
    /// D4: a pipeline reads a grain it also writes.
    SelfReadWrite,
    /// D5: the output buffer is not (fully) written.
    OutputUnwritten,
    /// S2: a grain names a resource the plan does not allocate, or a
    /// partition outside the plan's partition count.
    PartitionLayout,
    /// S3: a sealed buffer grain has no downstream reader and is not the
    /// output buffer.
    DeadSeal,
    /// R1: execution read a grain the plan never declared as read.
    UndeclaredRead,
    /// R2: execution wrote a grain the plan never declared as written.
    UndeclaredWrite,
}

impl Rule {
    /// Short stable id (`D1`…`R2`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::Cycle => "D1",
            Rule::UnwrittenRead => "D2",
            Rule::MultiWriter => "D3",
            Rule::SelfReadWrite => "D4",
            Rule::OutputUnwritten => "D5",
            Rule::PartitionLayout => "S2",
            Rule::DeadSeal => "S3",
            Rule::UndeclaredRead => "R1",
            Rule::UndeclaredWrite => "R2",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One verifier finding: which rule, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    pub rule: Rule,
    /// Index of the offending pipeline, when the finding is local to one.
    pub pipeline: Option<usize>,
    /// The offending resource grain, when the finding names one.
    pub grain: Option<ResourceId>,
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.rule.id())?;
        if let Some(p) = self.pipeline {
            write!(f, " pipeline {p}")?;
        }
        if let Some(g) = self.grain {
            write!(f, " grain {g:?}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Everything the verifier needs about a compiled plan: its pipelines'
/// specs and the slots it allocates. Built by `PhysicalPlan::verify`, but
/// deliberately plain so tests can build one around mutated specs.
pub struct PlanFacts<'a> {
    pub pipelines: &'a [PipelinePlan],
    pub num_buffers: usize,
    pub num_filters: usize,
    pub num_tables: usize,
    pub partition_count: usize,
    /// The buffer the driver reads the result from after the run.
    pub output_buffer: usize,
}

/// Outcome of a static verification pass.
#[derive(Debug, Default)]
pub struct VerifyReport {
    pub errors: Vec<VerifyError>,
    /// Individual rule applications executed (feeds the
    /// `verify_checks_run` metric).
    pub checks_run: u64,
}

impl VerifyReport {
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    fn check(&mut self) {
        self.checks_run = self.checks_run.saturating_add(1);
    }

    fn error(
        &mut self,
        rule: Rule,
        pipeline: Option<usize>,
        grain: Option<ResourceId>,
        message: impl Into<String>,
    ) {
        self.errors.push(VerifyError {
            rule,
            pipeline,
            grain,
            message: message.into(),
        });
    }
}

/// Run every static rule family over the plan facts.
pub fn verify_plan(facts: &PlanFacts<'_>) -> VerifyReport {
    let mut rep = VerifyReport::default();
    let pc = facts.partition_count.max(1);

    let deps: Vec<NodeDeps> = facts.pipelines.iter().map(|p| p.deps(pc)).collect();

    // ---- S2: partition layout ----
    // No grain may name a resource the plan does not allocate, nor a
    // partition at or past the plan's count.
    for (i, d) in deps.iter().enumerate() {
        for &g in d.reads.iter().chain(d.writes.iter()) {
            rep.check();
            let out_of_range = match g {
                ResourceId::BufferPart(b, p) => b >= facts.num_buffers || p >= pc,
                ResourceId::Filter(f) => f >= facts.num_filters,
                ResourceId::HashTable(t) => t >= facts.num_tables,
            };
            if out_of_range {
                rep.error(
                    Rule::PartitionLayout,
                    Some(i),
                    Some(g),
                    format!(
                        "grain outside plan layout ({} buffers × {pc} partitions, {} filters, {} tables)",
                        facts.num_buffers, facts.num_filters, facts.num_tables
                    ),
                );
            }
        }
    }

    // ---- D2 / D3 / D4: writer soundness ----
    let mut writers: BTreeMap<ResourceId, Vec<usize>> = BTreeMap::new();
    for (i, d) in deps.iter().enumerate() {
        for &g in &d.writes {
            writers.entry(g).or_default().push(i);
        }
    }
    for (&g, ws) in &writers {
        rep.check();
        if ws.len() > 1 {
            rep.error(
                Rule::MultiWriter,
                None,
                Some(g),
                format!("written by pipelines {ws:?}"),
            );
        }
    }
    for (i, d) in deps.iter().enumerate() {
        for &g in &d.reads {
            rep.check();
            if d.writes.contains(&g) {
                rep.error(
                    Rule::SelfReadWrite,
                    Some(i),
                    Some(g),
                    "pipeline reads a grain it writes",
                );
            }
            rep.check();
            if !writers.contains_key(&g) {
                rep.error(
                    Rule::UnwrittenRead,
                    Some(i),
                    Some(g),
                    "no pipeline writes this grain",
                );
            }
        }
    }

    // ---- D5: the output written ----
    let out = facts.output_buffer;
    for p in 0..pc {
        rep.check();
        let g = ResourceId::BufferPart(out, p);
        if !writers.contains_key(&g) {
            rep.error(
                Rule::OutputUnwritten,
                None,
                Some(g),
                format!("output buffer {out} has unwritten partition {p}"),
            );
        }
    }

    // ---- S3: no dead seals ----
    let read_grains: BTreeSet<ResourceId> =
        deps.iter().flat_map(|d| d.reads.iter().copied()).collect();
    for (&g, ws) in &writers {
        if let ResourceId::BufferPart(b, _) = g {
            rep.check();
            if b != out && !read_grains.contains(&g) {
                rep.error(
                    Rule::DeadSeal,
                    ws.first().copied(),
                    Some(g),
                    "sealed grain has no downstream reader and is not the output",
                );
            }
        }
    }

    // ---- D1: acyclicity, judged by the scheduler's own DAG ----
    rep.check();
    let stuck = stuck_nodes(&build_dag(&deps));
    if let Some(&first) = stuck.first() {
        rep.error(
            Rule::Cycle,
            Some(first),
            None,
            format!("dependency cycle through pipelines {stuck:?}"),
        );
    }

    rep
}

/// Reconcile the executor's observed-access shadow log against the plan's
/// declared dependencies: every observed access must have been declared
/// (`observed ⊆ declared`; the reverse is fine — an empty source may
/// short-circuit declared reads). Returns one error per undeclared grain.
pub fn reconcile_accesses(
    deps: &[NodeDeps],
    observed_reads: &[ResourceId],
    observed_writes: &[ResourceId],
) -> (Vec<VerifyError>, u64) {
    let declared_reads: BTreeSet<ResourceId> =
        deps.iter().flat_map(|d| d.reads.iter().copied()).collect();
    let declared_writes: BTreeSet<ResourceId> =
        deps.iter().flat_map(|d| d.writes.iter().copied()).collect();
    let mut errors = Vec::new();
    let mut checks = 0u64;
    for &g in observed_reads {
        checks = checks.saturating_add(1);
        if !declared_reads.contains(&g) {
            errors.push(VerifyError {
                rule: Rule::UndeclaredRead,
                pipeline: None,
                grain: Some(g),
                message: "execution read a grain no pipeline declared".into(),
            });
        }
    }
    for &g in observed_writes {
        checks = checks.saturating_add(1);
        if !declared_writes.contains(&g) {
            errors.push(VerifyError {
                rule: Rule::UndeclaredWrite,
                pipeline: None,
                grain: Some(g),
                message: "execution wrote a grain no pipeline declared".into(),
            });
        }
    }
    (errors, checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_common::{DataType, Field, Schema};
    use rpt_exec::{BloomSink, FilterShape, OpSpec, SinkSpec, SourceSpec};
    use std::sync::Arc;

    fn schema() -> Schema {
        Schema::new(vec![Field::new("k", DataType::Int64)])
    }

    fn table() -> Arc<rpt_storage::StoredTable> {
        let t = rpt_storage::Table::new(
            "t",
            schema(),
            vec![rpt_common::Vector::from_i64(vec![1, 2, 3])],
        )
        .expect("valid fixture table");
        Arc::new(rpt_storage::StoredTable::new(t))
    }

    /// scan → keyed CreateBF buffer 0; buffer 0 → hash-build table 0 on
    /// the same key; buffer 0 → collect buffer 1.
    fn small_plan() -> Vec<PipelinePlan> {
        vec![
            PipelinePlan {
                label: "create".into(),
                source: SourceSpec::full_scan(table()),
                ops: vec![],
                sink: SinkSpec::Buffer {
                    buf_id: 0,
                    blooms: vec![BloomSink {
                        filter_id: 0,
                        key_cols: vec![0],
                        shape: FilterShape::Bloom {
                            expected_keys: 3,
                            fpr: 0.01,
                        },
                    }],
                },
                intermediate: true,
                sink_schema: schema(),
            },
            PipelinePlan {
                label: "build".into(),
                source: SourceSpec::Buffer(0),
                ops: vec![],
                sink: SinkSpec::HashBuild {
                    ht_id: 0,
                    key_cols: vec![0],
                    blooms: vec![],
                },
                intermediate: true,
                sink_schema: schema(),
            },
            PipelinePlan {
                label: "out".into(),
                source: SourceSpec::Buffer(0),
                ops: vec![OpSpec::SemiProbe {
                    ht_id: 0,
                    key_cols: vec![0],
                }],
                sink: SinkSpec::Buffer {
                    buf_id: 1,
                    blooms: vec![],
                },
                intermediate: false,
                sink_schema: schema(),
            },
        ]
    }

    fn facts(pipelines: &[PipelinePlan], pc: usize) -> PlanFacts<'_> {
        PlanFacts {
            pipelines,
            num_buffers: 2,
            num_filters: 1,
            num_tables: 1,
            partition_count: pc,
            output_buffer: 1,
        }
    }

    fn rules(pipes: &[PipelinePlan]) -> Vec<Rule> {
        let rep = verify_plan(&facts(pipes, 4));
        rep.errors.iter().map(|e| e.rule).collect()
    }

    #[test]
    fn clean_plan_verifies() {
        for pc in [1, 4] {
            let pipes = small_plan();
            let rep = verify_plan(&facts(&pipes, pc));
            assert!(rep.is_clean(), "pc={pc}: {:?}", rep.errors);
            assert!(rep.checks_run > 0);
        }
    }

    #[test]
    fn orphaned_output_is_rejected() {
        let pipes = small_plan();
        // Claim the output lives in a buffer nobody writes.
        let mut f = facts(&pipes, 4);
        f.num_buffers = 3;
        f.output_buffer = 2;
        let rep = verify_plan(&f);
        assert!(rep.errors.iter().any(|e| e.rule == Rule::OutputUnwritten));
    }

    #[test]
    fn self_read_write_and_multi_writer() {
        let mut pipes = small_plan();
        // Pipeline 1 writes its own source buffer, which pipeline 0 writes.
        pipes[1].sink = SinkSpec::Buffer {
            buf_id: 0,
            blooms: vec![],
        };
        let rules = rules(&pipes);
        assert!(rules.contains(&Rule::SelfReadWrite), "{rules:?}");
        assert!(rules.contains(&Rule::MultiWriter), "{rules:?}");
    }

    #[test]
    fn cycle_detected() {
        let mut pipes = small_plan();
        // Pipeline 0 now reads buffer 1, which pipeline 2 writes from
        // buffer 0: 0 → 2 → 0.
        pipes[0].source = SourceSpec::Buffer(1);
        let rep = verify_plan(&facts(&pipes, 4));
        let cycle: Vec<_> = rep
            .errors
            .iter()
            .filter(|e| e.rule == Rule::Cycle)
            .collect();
        assert_eq!(cycle.len(), 1, "{:?}", rep.errors);
        assert_eq!(cycle[0].pipeline, Some(0));
    }

    #[test]
    fn unwritten_read_detected() {
        let mut pipes = small_plan();
        pipes[2].ops.push(OpSpec::ProbeBloom {
            filter_id: 0,
            key_cols: vec![0],
        });
        assert!(rules(&pipes).is_empty());
        // Drop filter 0's writer so the probe's read dangles.
        pipes[0].sink = SinkSpec::Buffer {
            buf_id: 0,
            blooms: vec![],
        };
        assert_eq!(rules(&pipes), vec![Rule::UnwrittenRead]);
    }

    #[test]
    fn out_of_layout_grain_is_rejected() {
        let mut pipes = small_plan();
        pipes[1].sink = SinkSpec::HashBuild {
            ht_id: 7,
            key_cols: vec![0],
            blooms: vec![],
        };
        let rep = verify_plan(&facts(&pipes, 4));
        assert!(rep.errors.iter().any(|e| e.rule == Rule::PartitionLayout
            && e.pipeline == Some(1)
            && e.grain == Some(ResourceId::HashTable(7))));
    }

    #[test]
    fn reconcile_flags_undeclared_accesses() {
        let deps: Vec<NodeDeps> = small_plan().iter().map(|p| p.deps(4)).collect();
        let (errors, checks) = reconcile_accesses(
            &deps,
            &[ResourceId::BufferPart(0, 0), ResourceId::Filter(9)],
            &[ResourceId::HashTable(9)],
        );
        assert_eq!(checks, 3);
        assert!(errors.iter().any(|e| e.rule == Rule::UndeclaredRead));
        assert!(errors.iter().any(|e| e.rule == Rule::UndeclaredWrite));
        let (errors, _) = reconcile_accesses(&deps, &[ResourceId::BufferPart(0, 1)], &[]);
        assert!(errors.is_empty());
    }
}
