//! # rpt-analyze
//!
//! Static plan verifier: proves well-formedness of a compiled
//! `PhysicalPlan` / `HybridPrelude` *before* a single task is scheduled,
//! by independently re-deriving everything the planner claims and
//! rejecting divergence with a structured diagnostic.
//!
//! Three rule families (ids are stable and asserted by the mutation
//! tests):
//!
//! * **D — dependency-graph soundness.** `D1` acyclicity, `D2` every read
//!   grain has a writer, `D3` at most one writing pipeline per grain,
//!   `D4` no pipeline reads a grain it also writes, `D5` every required
//!   output buffer is written, `D6` the recorded read sets equal the read
//!   sets re-derived from the pipeline specs.
//! * **S — sink/merger contracts.** `S1` recorded write sets equal the
//!   re-derived ones, `S2` every `SinkSpec` lowers to a factory whose
//!   declared resource layout matches the spec's (and no grain escapes
//!   the plan's partition count), `S3` every sealed buffer grain has a
//!   downstream reader or is a required output (no dead seal).
//! * **R — runtime reconciliation.** After a verify-mode run, the
//!   executor's observed-access shadow log must be a subset of the
//!   declared dependencies: `R1` undeclared read, `R2` undeclared write.

use rpt_exec::{
    expand_partition_grains, NodeDeps, OpSpec, PipelinePlan, ResourceId, SinkSpec, SourceSpec,
};
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
    /// D5: a required output buffer is not (fully) written.
    OutputUnwritten,
    /// D6: a recorded read set diverges from the spec-derived one.
    ReadsDiverge,
    /// S1: a recorded write set diverges from the spec-derived one.
    WritesDiverge,
    /// S2: a sink factory's declared layout diverges from its spec, or a
    /// grain names a partition outside the plan's partition count.
    PartitionLayout,
    /// S3: a sealed buffer grain has no downstream reader and is not a
    /// required output.
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
            Rule::ReadsDiverge => "D6",
            Rule::WritesDiverge => "S1",
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

/// Everything the verifier needs about a compiled plan. Built by the
/// planner (`PhysicalPlan::verify_facts` / `HybridPrelude::verify_facts`)
/// but deliberately plain so tests can mutate a copy.
pub struct PlanFacts<'a> {
    pub pipelines: &'a [PipelinePlan],
    /// The planner-recorded dependency sets (partition-granular).
    pub deps: &'a [NodeDeps],
    pub num_buffers: usize,
    pub num_filters: usize,
    pub num_tables: usize,
    pub partition_count: usize,
    /// Buffers the driver reads after the run (the output buffer, or the
    /// hybrid prelude's per-relation buffers).
    pub required_buffers: &'a [usize],
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

/// Independently re-derive the resources a pipeline *reads*, straight
/// from its specs (never through the planner's recorded deps).
fn spec_reads(p: &PipelinePlan, partition_count: usize) -> Vec<ResourceId> {
    let mut r = Vec::new();
    match &p.source {
        SourceSpec::Table(_) => {}
        // The fused scan reads the Bloom filters it probes (and prunes
        // by); its own predicate and projection read nothing shared.
        SourceSpec::Scan { probes, .. } => {
            r.extend(probes.iter().map(|p| ResourceId::Filter(p.filter_id)));
        }
        SourceSpec::Buffer(b) => r.push(ResourceId::Buffer(*b)),
    }
    for op in &p.ops {
        match op {
            OpSpec::Filter(_) | OpSpec::Project(_) => {}
            OpSpec::ProbeBloom { filter_id, .. } => r.push(ResourceId::Filter(*filter_id)),
            OpSpec::JoinProbe { ht_id, .. } | OpSpec::SemiProbe { ht_id, .. } => {
                r.push(ResourceId::HashTable(*ht_id))
            }
        }
    }
    expand_partition_grains(&r, partition_count)
}

/// Independently re-derive the resources a pipeline *writes*.
fn spec_writes(p: &PipelinePlan, partition_count: usize) -> Vec<ResourceId> {
    let mut w = Vec::new();
    match &p.sink {
        SinkSpec::Buffer { buf_id, blooms } => {
            w.push(ResourceId::Buffer(*buf_id));
            w.extend(blooms.iter().map(|b| ResourceId::Filter(b.filter_id)));
        }
        SinkSpec::HashBuild { ht_id, blooms, .. } => {
            w.push(ResourceId::HashTable(*ht_id));
            w.extend(blooms.iter().map(|b| ResourceId::Filter(b.filter_id)));
        }
        SinkSpec::Aggregate { buf_id, .. } | SinkSpec::Sort { buf_id, .. } => {
            w.push(ResourceId::Buffer(*buf_id));
        }
    }
    expand_partition_grains(&w, partition_count)
}

/// Run every static rule family over the plan facts.
pub fn verify_plan(facts: &PlanFacts<'_>) -> VerifyReport {
    let mut rep = VerifyReport::default();
    let n = facts.pipelines.len();
    let pc = facts.partition_count.max(1);

    // ---- Re-derive dependency sets from the specs (D6 / S1) ----
    let derived_reads: Vec<Vec<ResourceId>> =
        facts.pipelines.iter().map(|p| spec_reads(p, pc)).collect();
    let derived_writes: Vec<Vec<ResourceId>> =
        facts.pipelines.iter().map(|p| spec_writes(p, pc)).collect();
    rep.check();
    if facts.deps.len() != n {
        rep.error(
            Rule::ReadsDiverge,
            None,
            None,
            format!(
                "plan records {} dep entries for {n} pipelines",
                facts.deps.len()
            ),
        );
    }
    for (i, deps) in facts.deps.iter().enumerate().take(n) {
        rep.check();
        if deps.reads != derived_reads[i] {
            rep.error(
                Rule::ReadsDiverge,
                Some(i),
                None,
                format!(
                    "recorded reads {:?} != derived {:?}",
                    deps.reads, derived_reads[i]
                ),
            );
        }
        rep.check();
        if deps.writes != derived_writes[i] {
            rep.error(
                Rule::WritesDiverge,
                Some(i),
                None,
                format!(
                    "recorded writes {:?} != derived {:?}",
                    deps.writes, derived_writes[i]
                ),
            );
        }
    }

    // From here on, judge the *recorded* deps (what the scheduler will
    // actually consume); divergence from the specs was reported above.
    let reads: Vec<&[ResourceId]> = facts.deps.iter().map(|d| d.reads.as_slice()).collect();
    let writes: Vec<&[ResourceId]> = facts.deps.iter().map(|d| d.writes.as_slice()).collect();

    // ---- S2: partition layout ----
    // No grain may name a partition at or past the plan's count, and every
    // sink factory must declare exactly the resources its spec implies.
    for (i, deps) in facts.deps.iter().enumerate() {
        for &g in deps.reads.iter().chain(deps.writes.iter()) {
            rep.check();
            match g {
                ResourceId::BufferPart(b, p) if p >= pc || b >= facts.num_buffers => {
                    rep.error(
                        Rule::PartitionLayout,
                        Some(i),
                        Some(g),
                        format!(
                            "grain outside plan layout ({} buffers × {pc} partitions)",
                            facts.num_buffers
                        ),
                    );
                }
                ResourceId::Buffer(_) => {
                    rep.error(
                        Rule::PartitionLayout,
                        Some(i),
                        Some(g),
                        "whole-buffer grain in partition-granular deps",
                    );
                }
                ResourceId::Filter(f) if f >= facts.num_filters => {
                    rep.error(
                        Rule::PartitionLayout,
                        Some(i),
                        Some(g),
                        "filter id out of range",
                    );
                }
                ResourceId::HashTable(t) if t >= facts.num_tables => {
                    rep.error(
                        Rule::PartitionLayout,
                        Some(i),
                        Some(g),
                        "hash table id out of range",
                    );
                }
                _ => {}
            }
        }
    }
    for (i, p) in facts.pipelines.iter().enumerate() {
        // Lower the sink spec and compare the factory's declared writes
        // against the spec-derived set: the factory is what execution
        // actually publishes through, so the two must agree.
        rep.check();
        let factory_writes = expand_partition_grains(&p.sink.lower(&p.sink_schema).writes(), pc);
        if factory_writes != derived_writes[i] {
            rep.error(
                Rule::PartitionLayout,
                Some(i),
                None,
                format!(
                    "sink factory declares {factory_writes:?}, spec implies {:?}",
                    derived_writes[i]
                ),
            );
        }
    }

    // ---- D2 / D3 / D4: writer soundness ----
    let mut writers: BTreeMap<ResourceId, Vec<usize>> = BTreeMap::new();
    for (i, w) in writes.iter().enumerate() {
        for &g in w.iter() {
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
    for (i, r) in reads.iter().enumerate() {
        let own: BTreeSet<ResourceId> = writes[i].iter().copied().collect();
        for &g in r.iter() {
            rep.check();
            if own.contains(&g) {
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

    // ---- D5: required outputs written ----
    for &b in facts.required_buffers {
        for p in 0..pc {
            rep.check();
            let g = ResourceId::BufferPart(b, p);
            if !writers.contains_key(&g) {
                rep.error(
                    Rule::OutputUnwritten,
                    None,
                    Some(g),
                    format!("required buffer {b} has unwritten partition {p}"),
                );
            }
        }
    }

    // ---- S3: no dead seals ----
    let required: BTreeSet<usize> = facts.required_buffers.iter().copied().collect();
    let read_grains: BTreeSet<ResourceId> = reads.iter().flat_map(|r| r.iter().copied()).collect();
    for (&g, ws) in &writers {
        if let ResourceId::BufferPart(b, _) = g {
            rep.check();
            if !required.contains(&b) && !read_grains.contains(&g) {
                rep.error(
                    Rule::DeadSeal,
                    ws.first().copied(),
                    Some(g),
                    "sealed grain has no downstream reader and is not a required output",
                );
            }
        }
    }

    // ---- D1: acyclicity (Kahn over pipeline-level writer→reader edges) ----
    {
        let mut succs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut indeg = vec![0usize; n];
        for (j, r) in reads.iter().enumerate() {
            for &g in r.iter() {
                if let Some(ws) = writers.get(&g) {
                    for &i in ws {
                        if i != j && succs[i].insert(j) {
                            indeg[j] += 1;
                        }
                    }
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &j in &succs[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
        rep.check();
        if seen < n {
            let stuck: Vec<usize> = (0..n).filter(|&i| indeg[i] > 0).collect();
            rep.error(
                Rule::Cycle,
                stuck.first().copied(),
                None,
                format!("dependency cycle through pipelines {stuck:?}"),
            );
        }
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
    use rpt_exec::BloomSink;
    use std::sync::Arc;

    fn schema() -> Schema {
        Schema::new(vec![Field::new("k", DataType::Int64)])
    }

    fn table() -> Arc<rpt_storage::Table> {
        let t = rpt_storage::Table::new(
            "t",
            schema(),
            vec![rpt_common::Vector::from_i64(vec![1, 2, 3])],
        )
        .expect("valid fixture table");
        Arc::new(t)
    }

    /// scan → keyed CreateBF buffer 0; buffer 0 → hash-build table 0 on
    /// the same key; buffer 0 → collect buffer 1.
    fn small_plan(pc: usize) -> (Vec<PipelinePlan>, Vec<NodeDeps>) {
        let mut pipelines = vec![
            PipelinePlan {
                label: "create".into(),
                source: SourceSpec::Table(table()),
                ops: vec![],
                sink: SinkSpec::Buffer {
                    buf_id: 0,
                    blooms: vec![BloomSink {
                        filter_id: 0,
                        key_cols: vec![0],
                        expected_keys: 3,
                        fpr: 0.01,
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
        ];
        // Keep the fixture honest: recorded deps are derived the same way
        // the planner records them.
        let deps: Vec<NodeDeps> = pipelines
            .iter()
            .map(|p| p.node_deps().expand_partitions(pc))
            .collect();
        pipelines.shrink_to_fit();
        (pipelines, deps)
    }

    fn facts<'a>(
        pipelines: &'a [PipelinePlan],
        deps: &'a [NodeDeps],
        pc: usize,
        required: &'a [usize],
    ) -> PlanFacts<'a> {
        PlanFacts {
            pipelines,
            deps,
            num_buffers: 2,
            num_filters: 1,
            num_tables: 1,
            partition_count: pc,
            required_buffers: required,
        }
    }

    #[test]
    fn clean_plan_verifies() {
        for pc in [1, 4] {
            let (pipes, deps) = small_plan(pc);
            let rep = verify_plan(&facts(&pipes, &deps, pc, &[1]));
            assert!(rep.is_clean(), "pc={pc}: {:?}", rep.errors);
            assert!(rep.checks_run > 0);
        }
    }

    #[test]
    fn dropped_dep_edge_is_reads_divergence() {
        let (pipes, mut deps) = small_plan(4);
        deps[1].reads.clear();
        let rep = verify_plan(&facts(&pipes, &deps, 4, &[1]));
        assert!(rep.errors.iter().any(|e| e.rule == Rule::ReadsDiverge));
    }

    #[test]
    fn orphaned_output_is_rejected() {
        let (pipes, deps) = small_plan(4);
        // Claim the output lives in a buffer nobody writes.
        let mut f = facts(&pipes, &deps, 4, &[1]);
        f.num_buffers = 3;
        f.required_buffers = &[2];
        let rep = verify_plan(&f);
        assert!(rep.errors.iter().any(|e| e.rule == Rule::OutputUnwritten));
    }

    #[test]
    fn self_read_write_and_multi_writer() {
        let (pipes, mut deps) = small_plan(4);
        // Pipeline 1 claims to also write its own source buffer.
        let extra: Vec<ResourceId> = (0..4).map(|p| ResourceId::BufferPart(0, p)).collect();
        deps[1].writes.extend(extra);
        deps[1].writes.sort_unstable();
        let rep = verify_plan(&facts(&pipes, &deps, 4, &[1]));
        assert!(rep.errors.iter().any(|e| e.rule == Rule::SelfReadWrite));
        assert!(rep.errors.iter().any(|e| e.rule == Rule::MultiWriter));
    }

    #[test]
    fn cycle_detected() {
        let (pipes, mut deps) = small_plan(4);
        // Make pipeline 0 read what pipeline 2 writes: 0→1 already holds
        // via buffer 0, now 2→0 and 0 reads nothing else; edges
        // 0→2 (buffer 0) and 2→0 (buffer 1) form a cycle.
        deps[0]
            .reads
            .extend((0..4).map(|p| ResourceId::BufferPart(1, p)));
        deps[0].reads.sort_unstable();
        let rep = verify_plan(&facts(&pipes, &deps, 4, &[1]));
        assert!(rep.errors.iter().any(|e| e.rule == Rule::Cycle));
    }

    #[test]
    fn unwritten_read_detected() {
        let (pipes, mut deps) = small_plan(4);
        deps[2].reads.push(ResourceId::Filter(0));
        deps[2].reads.sort_unstable();
        // Remove filter 0's writer claim so the read dangles.
        deps[0]
            .writes
            .retain(|g| !matches!(g, ResourceId::Filter(0)));
        let rep = verify_plan(&facts(&pipes, &deps, 4, &[1]));
        assert!(rep.errors.iter().any(|e| e.rule == Rule::UnwrittenRead));
    }

    #[test]
    fn reconcile_flags_undeclared_accesses() {
        let (_pipes, deps) = small_plan(4);
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
