//! Physical planner: compiles a [`JoinQuery`] + execution [`Mode`] + join
//! order into the executor's pipelines.
//!
//! This is the counterpart of the paper's §4.3 "Robust Predicate Transfer
//! module": it runs LargestRoot (or Small2Large for the PT baseline) to
//! obtain a transfer schedule, inserts `CreateBF`/`ProbeBF` pairs for every
//! semi-join in the schedule (Figure 5), applies the two pruning
//! optimizations of §4.3, and then builds the join phase from the chosen
//! join order over the reduced relations — or, for `Mode::Hybrid`, one
//! Generic Join over all of them. Every mode compiles to one
//! [`PhysicalPlan`].

use crate::engine::{Mode, QueryOptions};
use crate::optimizer::PlanNode;
use crate::query::JoinQuery;
use rpt_common::{DataType, Error, Field, Result, ScalarValue, Schema};
use rpt_exec::{
    AggExpr, BloomSink, Expr, FilterShape, OpSpec, PipelinePlan, ScanProbe, SinkSpec, SortKey,
    SourceSpec, WcojInput,
};
use rpt_graph::{
    largest_root, largest_root_randomized, small2large, JoinTree, SemiJoin, TransferSchedule,
};
use std::sync::Arc;

/// The physical-plan IR: the compiled pipelines and the resource slots
/// they use. Each pipeline's specs are the whole plan — the buffer
/// partitions, filters and hash tables it reads and writes, and so the
/// partial order the DAG scheduler executes, come from
/// [`PipelinePlan::deps`] at `partition_count`. A GROUP BY sink's merge
/// seals one partition of its result per merge task, so e.g. the final
/// re-projection pipeline starts on the first sealed group partition.
pub struct PhysicalPlan {
    pub pipelines: Vec<PipelinePlan>,
    pub num_buffers: usize,
    pub num_filters: usize,
    pub num_tables: usize,
    /// Hash partitions per materializing sink (power of two; 1 =
    /// unpartitioned). The executor sizes its per-partition resource slots
    /// from this.
    pub partition_count: usize,
    /// Buffer holding the final result.
    pub output_buffer: usize,
    /// Result schema (aliases + types).
    pub output_schema: Schema,
}

impl PhysicalPlan {
    /// `(buffers, filters, hash tables)` slot counts for the executor.
    pub fn resource_counts(&self) -> (usize, usize, usize) {
        (self.num_buffers, self.num_filters, self.num_tables)
    }

    /// Statically verify this plan (see `rpt_analyze`): dependency-graph
    /// soundness and sink contracts over the grains its specs imply.
    pub fn verify(&self) -> rpt_analyze::VerifyReport {
        rpt_analyze::verify_plan(&rpt_analyze::PlanFacts {
            pipelines: &self.pipelines,
            num_buffers: self.num_buffers,
            num_filters: self.num_filters,
            num_tables: self.num_tables,
            partition_count: self.partition_count,
            output_buffer: self.output_buffer,
        })
    }
}

/// A not-yet-terminated chunk stream with its column provenance.
#[derive(Clone)]
struct Stream {
    source: SourceSpec,
    ops: Vec<OpSpec>,
    /// `(relation, base column)` per physical position.
    layout: Vec<(usize, usize)>,
    label: String,
}

impl Stream {
    fn position_of(&self, rel: usize, col: usize) -> Option<usize> {
        self.layout.iter().position(|&(r, c)| r == rel && c == col)
    }

    /// ProbeBF on the key at layout positions `key_cols`. While the stream
    /// is still a bare base scan the probe moves into the scan itself
    /// (keyed by base-table column), which applies it before decoding the
    /// output columns and prunes blocks by the filter's key ranges; any
    /// other stream gets the streaming operator.
    fn probe_bloom(&mut self, filter_id: usize, key_cols: Vec<usize>) {
        match &mut self.source {
            SourceSpec::Scan { probes, .. } if self.ops.is_empty() => probes.push(ScanProbe {
                filter_id,
                key_cols: key_cols.iter().map(|&pos| self.layout[pos].1).collect(),
            }),
            _ => self.ops.push(OpSpec::ProbeBloom {
                filter_id,
                key_cols,
            }),
        }
    }
}

/// Per-relation state during the transfer phase.
struct RelState {
    stream: Stream,
    /// Has any filter/semi-join touched this relation yet? Drives the §4.3
    /// trivial-semi-join pruning.
    reduced: bool,
}

pub struct Planner<'q> {
    q: &'q JoinQuery,
    opts: &'q QueryOptions,
    pipelines: Vec<PipelinePlan>,
    num_buffers: usize,
    num_filters: usize,
    num_tables: usize,
}

impl<'q> Planner<'q> {
    pub fn new(q: &'q JoinQuery, opts: &'q QueryOptions) -> Self {
        Planner {
            q,
            opts,
            pipelines: Vec::new(),
            num_buffers: 0,
            num_filters: 0,
            num_tables: 0,
        }
    }

    fn new_buffer(&mut self) -> usize {
        self.num_buffers += 1;
        self.num_buffers - 1
    }

    fn new_filter(&mut self) -> usize {
        self.num_filters += 1;
        self.num_filters - 1
    }

    fn new_table(&mut self) -> usize {
        self.num_tables += 1;
        self.num_tables - 1
    }

    /// Compile the full query.
    pub fn compile(mut self, plan: &PlanNode) -> Result<PhysicalPlan> {
        let rels = plan.relations();
        if rels.len() != self.q.num_relations() {
            return Err(Error::Plan(format!(
                "join order covers {} relations, query has {}",
                rels.len(),
                self.q.num_relations()
            )));
        }

        // 1. Initial per-relation streams (fused filtering, projecting scans).
        let mut states: Vec<RelState> = (0..self.q.num_relations())
            .map(|r| self.base_stream(r))
            .collect::<Result<_>>()?;

        // 2. Transfer phase (mode-dependent).
        match self.opts.mode {
            Mode::Baseline | Mode::BloomJoin => {}
            Mode::PredicateTransfer => {
                let graph = self.q.graph();
                let schedule = small2large(&graph).schedule;
                self.run_transfer(&schedule, &mut states, false)?;
            }
            Mode::RobustPredicateTransfer => {
                let graph = self.q.graph();
                let tree = self.rpt_tree(&graph)?;
                let schedule = TransferSchedule::from_tree(&graph, &tree);
                let skip_backward = self.opts.prune_backward
                    && plan.is_left_deep()
                    && order_aligned_with_tree(&plan.relations(), &tree);
                let schedule = if skip_backward {
                    TransferSchedule {
                        forward: schedule.forward,
                        backward: vec![],
                    }
                } else {
                    schedule
                };
                self.run_transfer(&schedule, &mut states, false)?;
            }
            // Yannakakis reduces exactly; Hybrid transfers Bloom filters
            // over the same full schedule.
            Mode::Yannakakis | Mode::Hybrid => {
                let graph = self.q.graph();
                let tree = self.rpt_tree(&graph)?;
                let schedule = TransferSchedule::from_tree(&graph, &tree);
                let exact = self.opts.mode == Mode::Yannakakis;
                self.run_transfer(&schedule, &mut states, exact)?;
            }
        }

        // 3. Join phase: hash joins in the plan's order, or Hybrid's
        // worst-case optimal join, which eliminates attributes, not
        // relations, and so ignores the order.
        let mut final_stream = if self.opts.mode == Mode::Hybrid {
            self.generic_join(&mut states)?
        } else {
            self.compile_join(plan, &mut states)?
        };

        // 4. Residual predicates.
        for rp in &self.q.residuals {
            let layout = final_stream.layout.clone();
            let expr = rp
                .expr
                .to_exec(&|r, c| layout.iter().position(|&(lr, lc)| lr == r && lc == c))?;
            final_stream.ops.push(OpSpec::Filter(expr));
        }

        // 5. Output: aggregate or projection.
        self.finish(final_stream)
    }

    /// LargestRoot, or its §5.2 randomized variant when requested.
    fn rpt_tree(&self, graph: &rpt_graph::QueryGraph) -> Result<JoinTree> {
        let tree = match self.opts.random_tree_seed {
            Some(seed) => largest_root_randomized(graph, seed),
            None => largest_root(graph),
        };
        tree.ok_or_else(|| {
            Error::Plan("join graph is disconnected: Cartesian products are unsupported".into())
        })
    }

    /// Base stream for one relation: one fused [`SourceSpec::Scan`] that
    /// carries the relation's pushed-down filter (column indices are
    /// base-table columns) and projects to the needed columns, so the
    /// stream starts with no operators at all. The scan derives its
    /// zone-map pruning from the filter's literal conjuncts; later transfer
    /// steps may add Bloom probes (see [`Stream::probe_bloom`]).
    fn base_stream(&self, r: usize) -> Result<RelState> {
        let rel = &self.q.relations[r];
        let filter = rel
            .filter
            .as_ref()
            .map(|f| f.to_exec(&|fr, fc| if fr == r { Some(fc) } else { None }))
            .transpose()?;
        let layout: Vec<(usize, usize)> = rel.needed_cols.iter().map(|&c| (r, c)).collect();
        Ok(RelState {
            reduced: filter.is_some(),
            stream: Stream {
                source: SourceSpec::Scan {
                    table: rel.table.clone(),
                    filter,
                    columns: rel.needed_cols.clone(),
                    probes: Vec::new(),
                },
                ops: Vec::new(),
                layout,
                label: rel.binding.clone(),
            },
        })
    }

    /// Schema of a stream (used for spill files and result schemas).
    fn stream_schema(&self, s: &Stream) -> Schema {
        Schema::new(
            s.layout
                .iter()
                .map(|&(r, c)| {
                    let rel = &self.q.relations[r];
                    Field::new(
                        format!("{}.{}", rel.binding, rel.table.schema.field(c).name),
                        rel.table.schema.field(c).data_type,
                    )
                })
                .collect(),
        )
    }

    /// Materialize a stream into a buffer, optionally building Bloom
    /// filters — this is the CreateBF operator (sink half). `stream` then
    /// reads that buffer; returns its id. A stream that already is a bare
    /// buffer is not copied again: its filters join the pipeline that wrote
    /// the buffer, whose label gains `, {name}` per filter request.
    fn materialize(
        &mut self,
        stream: &mut Stream,
        mut blooms: Vec<BloomSink>,
        step: &str,
        name: &str,
    ) -> usize {
        if let (SourceSpec::Buffer(buf), true) = (&stream.source, stream.ops.is_empty()) {
            let buf = *buf;
            let writer = self.pipelines.iter_mut().find_map(|p| match &mut p.sink {
                SinkSpec::Buffer { buf_id, blooms } if *buf_id == buf => {
                    Some((&mut p.label, blooms))
                }
                _ => None,
            });
            if let Some((label, built)) = writer {
                if !blooms.is_empty() {
                    label.push_str(&format!(", {name}"));
                    built.append(&mut blooms);
                }
                return buf;
            }
        }
        let buf = self.new_buffer();
        let schema = self.stream_schema(stream);
        self.pipelines.push(PipelinePlan {
            label: format!("{step} {name}"),
            source: std::mem::replace(&mut stream.source, SourceSpec::Buffer(buf)),
            ops: std::mem::take(&mut stream.ops),
            sink: SinkSpec::Buffer {
                buf_id: buf,
                blooms,
            },
            intermediate: true,
            sink_schema: schema,
        });
        buf
    }

    /// The shape of a CreateBF from the `source` stream's key (layout
    /// positions) to the `target`'s, both CreateBF sites' size rule
    /// ([`FilterShape::choose`]): a key bitmap needs one key attribute,
    /// `Int64` key columns on both sides, and a source column whose
    /// catalog `[min, max]` is a dense range with the Bloom filter's bits
    /// as budget (`rpt_common::DenseRange`; at least 65 536 values, so a
    /// source of a few keys always gets one). That range is exact for the
    /// stream too: predicates, semi-joins and joins only remove rows,
    /// never create values.
    fn filter_shape(
        &self,
        expected_keys: usize,
        (source, src_keys): (&Stream, &[usize]),
        (target, tgt_keys): (&Stream, &[usize]),
    ) -> FilterShape {
        let int64 = |stream: &Stream, pos: usize| {
            let (rel, col) = stream.layout[pos];
            let r = &self.q.relations[rel];
            (r.table.schema.field(col).data_type == DataType::Int64).then(|| r.stats.column(col))
        };
        let range = match (src_keys, tgt_keys) {
            ([s], [t]) if int64(target, *t).is_some() => {
                int64(source, *s).and_then(|stats| match (&stats.min, &stats.max) {
                    (ScalarValue::Int64(min), ScalarValue::Int64(max)) => Some((*min, *max)),
                    _ => None,
                })
            }
            _ => None,
        };
        FilterShape::choose(expected_keys, self.opts.bloom_fpr, range)
    }

    /// Run a transfer schedule, inserting CreateBF/ProbeBF (or exact hash
    /// semi-joins for Yannakakis) per semi-join.
    fn run_transfer(
        &mut self,
        schedule: &TransferSchedule,
        states: &mut [RelState],
        exact: bool,
    ) -> Result<()> {
        for (pass, steps) in [(0, &schedule.forward), (1, &schedule.backward)] {
            for sj in steps {
                self.transfer_step(sj, states, exact, pass == 0)?;
            }
        }
        Ok(())
    }

    /// Layout positions in `stream` of relation `rel`'s columns for `attrs`.
    fn key_positions(&self, stream: &Stream, rel: usize, attrs: &[usize]) -> Result<Vec<usize>> {
        attrs
            .iter()
            .map(|a| {
                let col = *self.q.relations[rel]
                    .attr_cols
                    .get(a)
                    .ok_or_else(|| Error::Plan(format!("relation lacks attr {a}")))?;
                stream
                    .position_of(rel, col)
                    .ok_or_else(|| Error::Plan("join key column was projected away".into()))
            })
            .collect()
    }

    fn transfer_step(
        &mut self,
        sj: &SemiJoin,
        states: &mut [RelState],
        exact: bool,
        forward: bool,
    ) -> Result<()> {
        let SemiJoin {
            target,
            source,
            attrs,
        } = sj;
        if attrs.is_empty() {
            return Ok(());
        }
        // §4.3 pruning: if the source is an unfiltered, unreduced PK side of
        // a PK–FK join, the semi-join is trivial (inclusion) — skip it.
        if self.opts.prune_trivial
            && !states[*source].reduced
            && self.q.key_is_unique(*source, attrs)
        {
            return Ok(());
        }

        let src_keys = self.key_positions(&states[*source].stream, *source, attrs)?;
        let tgt_keys = self.key_positions(&states[*target].stream, *target, attrs)?;

        // `{dir} {step} {source} -> {target}`: a plan transfers along one
        // edge once per direction, so the label names one pipeline (a
        // CreateBF that joins an earlier pipeline appends its edge there).
        let dir = if forward { "fwd" } else { "bwd" };
        let edge = format!(
            "{} -> {}",
            self.q.relations[*source].binding, self.q.relations[*target].binding
        );

        if exact {
            // Yannakakis: materialize the source, build an exact hash table,
            // semi-probe the target.
            let src_stream = &mut states[*source].stream;
            let buf = self.materialize(src_stream, vec![], &format!("{dir} materialize"), &edge);
            let schema = self.stream_schema(src_stream);
            let ht = self.new_table();
            self.pipelines.push(PipelinePlan {
                label: format!("{dir} semibuild {edge}"),
                source: SourceSpec::Buffer(buf),
                ops: vec![],
                sink: SinkSpec::HashBuild {
                    ht_id: ht,
                    key_cols: src_keys,
                    blooms: vec![],
                },
                intermediate: true,
                sink_schema: schema,
            });
            states[*target].stream.ops.push(OpSpec::SemiProbe {
                ht_id: ht,
                key_cols: tgt_keys,
            });
        } else {
            // Predicate Transfer: CreateBF on the source, ProbeBF on the
            // target. A Bloom filter is sized for the *estimated
            // post-filter* cardinality (an upper bound once earlier
            // semi-joins have reduced the source further); undersizing only
            // raises the false-positive rate, never correctness.
            let filter_id = self.new_filter();
            let expected = crate::estimator::Estimator::new(self.q)
                .base_card(*source)
                .ceil() as usize;
            let shape = self.filter_shape(
                expected,
                (&states[*source].stream, &src_keys),
                (&states[*target].stream, &tgt_keys),
            );
            self.materialize(
                &mut states[*source].stream,
                vec![BloomSink {
                    filter_id,
                    key_cols: src_keys,
                    shape,
                }],
                &format!("{dir} createbf"),
                &edge,
            );
            states[*target].stream.probe_bloom(filter_id, tgt_keys);
        }
        states[*target].reduced = true;
        Ok(())
    }

    /// Compile the join phase for a plan subtree; returns its output stream.
    fn compile_join(&mut self, node: &PlanNode, states: &mut [RelState]) -> Result<Stream> {
        match node {
            PlanNode::Leaf(r) => Ok(states[*r].stream.clone()),
            PlanNode::Join {
                left,
                right,
                build_left,
            } => {
                let (probe_node, build_node) = if *build_left {
                    (&**right, &**left)
                } else {
                    (&**left, &**right)
                };
                let build_stream = self.compile_join(build_node, states)?;
                let probe_stream = self.compile_join(probe_node, states)?;

                // Natural-join keys: all attribute classes shared between
                // the two sides.
                let build_rels = build_node.relations();
                let probe_rels = probe_node.relations();
                let mut attrs: Vec<usize> = Vec::new();
                for &b in &build_rels {
                    for &p in &probe_rels {
                        for a in self.q.shared_attrs(b, p) {
                            if !attrs.contains(&a) {
                                attrs.push(a);
                            }
                        }
                    }
                }
                if attrs.is_empty() {
                    return Err(Error::Plan(format!(
                        "Cartesian product between {:?} and {:?} is unsupported",
                        probe_rels, build_rels
                    )));
                }
                let find_key = |stream: &Stream, rels: &[usize], attr: usize| -> Result<usize> {
                    for &r in rels {
                        if let Some(&col) = self.q.relations[r].attr_cols.get(&attr) {
                            if let Some(pos) = stream.position_of(r, col) {
                                return Ok(pos);
                            }
                        }
                    }
                    Err(Error::Plan(format!(
                        "attr {attr} not found in stream layout"
                    )))
                };
                let build_keys: Vec<usize> = attrs
                    .iter()
                    .map(|&a| find_key(&build_stream, &build_rels, a))
                    .collect::<Result<_>>()?;
                let probe_keys: Vec<usize> = attrs
                    .iter()
                    .map(|&a| find_key(&probe_stream, &probe_rels, a))
                    .collect::<Result<_>>()?;

                // Build pipeline (sink = hash table; BloomJoin also builds a
                // Bloom filter for SIP into the probe side).
                let ht = self.new_table();
                let mut blooms = Vec::new();
                let mut probe_bf = None;
                // BloomJoin only pays for a filter when the build side is
                // actually selective (some base predicate or an earlier join
                // reduced it) — the standard SIP heuristic; otherwise the
                // Bloom filter eliminates nothing.
                let build_side_filtered = build_rels
                    .iter()
                    .any(|&r| self.q.relations[r].filter.is_some())
                    || build_rels.len() > 1;
                if self.opts.mode == Mode::BloomJoin && build_side_filtered {
                    let filter_id = self.new_filter();
                    // Sized for the build subtree's estimate, the number its
                    // side was chosen by (`with_build_sides`).
                    let expected =
                        self.opts.estimator(self.q).join_card(&build_rels).ceil() as usize;
                    let shape = self.filter_shape(
                        expected,
                        (&build_stream, &build_keys),
                        (&probe_stream, &probe_keys),
                    );
                    blooms.push(BloomSink {
                        filter_id,
                        key_cols: build_keys.clone(),
                        shape,
                    });
                    probe_bf = Some(filter_id);
                }
                let schema = self.stream_schema(&build_stream);
                let build_label = format!("build {}", build_stream.label);
                self.pipelines.push(PipelinePlan {
                    label: build_label,
                    source: build_stream.source.clone(),
                    ops: build_stream.ops.clone(),
                    sink: SinkSpec::HashBuild {
                        ht_id: ht,
                        key_cols: build_keys,
                        blooms,
                    },
                    intermediate: true,
                    sink_schema: schema,
                });

                // Extend the probe stream.
                let mut out = probe_stream;
                if let Some(filter_id) = probe_bf {
                    out.probe_bloom(filter_id, probe_keys.clone());
                }
                out.ops.push(OpSpec::JoinProbe {
                    ht_id: ht,
                    key_cols: probe_keys,
                    build_output_cols: (0..build_stream.layout.len()).collect(),
                });
                out.layout.extend(build_stream.layout.iter().copied());
                out.label = format!("{}⋈{}", out.label, build_stream.label);
                Ok(out)
            }
        }
    }

    /// Hybrid's join phase (§5.1.3): materialize every relation whose
    /// stream still has work, then one Generic Join over all relation
    /// buffers, eliminating the query's attributes in id order. The stream
    /// carries the relations' layouts concatenated in relation order.
    fn generic_join(&mut self, states: &mut [RelState]) -> Result<Stream> {
        let mut inputs = Vec::with_capacity(states.len());
        let mut layout = Vec::new();
        for (r, state) in states.iter_mut().enumerate() {
            let stream = &mut state.stream;
            let buf_id =
                self.materialize(stream, vec![], "materialize", &self.q.relations[r].binding);
            let attr_cols = self.q.relations[r]
                .attr_cols
                .iter()
                .map(|(&attr, &col)| {
                    let pos = stream
                        .position_of(r, col)
                        .ok_or_else(|| Error::Plan("join key column was projected away".into()))?;
                    Ok((attr, pos))
                })
                .collect::<Result<_>>()?;
            inputs.push(WcojInput {
                buf_id,
                schema: self.stream_schema(stream),
                attr_cols,
            });
            layout.extend(stream.layout.iter().copied());
        }
        Ok(Stream {
            source: SourceSpec::GenericJoin {
                inputs,
                attr_order: (0..self.q.num_attrs).collect(),
            },
            ops: vec![],
            layout,
            label: "wcoj".into(),
        })
    }

    /// The plan whose output buffer `out_buf` has schema `schema`, after a
    /// terminal sort / TopK pipeline when the query orders or limits its
    /// output. ORDER BY keys are bound to output positions, so the sort
    /// reads the projected buffer as-is. `LIMIT` without `ORDER BY` still
    /// runs the sort sink (keys empty ⇒ the total-order tie-break alone),
    /// which pins a deterministic row choice across worker and partition
    /// counts.
    fn assemble(mut self, mut out_buf: usize, schema: Schema) -> PhysicalPlan {
        if !self.q.order_by.is_empty() || self.q.limit.is_some() || self.q.offset.is_some() {
            let keys: Vec<SortKey> = self
                .q
                .order_by
                .iter()
                .map(|k| SortKey {
                    col: k.output_pos,
                    desc: k.desc,
                    nulls_first: k.nulls_first,
                })
                .collect();
            let sort_buf = self.new_buffer();
            self.pipelines.push(PipelinePlan {
                label: "sort output".into(),
                source: SourceSpec::Buffer(out_buf),
                ops: vec![],
                sink: SinkSpec::Sort {
                    buf_id: sort_buf,
                    keys,
                    limit: self.q.limit,
                    offset: self.q.offset.unwrap_or(0),
                },
                intermediate: false,
                sink_schema: schema.clone(),
            });
            out_buf = sort_buf;
        }
        PhysicalPlan {
            pipelines: self.pipelines,
            num_buffers: self.num_buffers,
            num_filters: self.num_filters,
            num_tables: self.num_tables,
            partition_count: rpt_common::normalize_partition_count(self.opts.partition_count),
            output_buffer: out_buf,
            output_schema: schema,
        }
    }

    /// Terminate the final stream: aggregation or projection (then the
    /// optional sort / TopK), into the output buffer.
    fn finish(mut self, stream: Stream) -> Result<PhysicalPlan> {
        let layout = stream.layout.clone();
        let resolve = |r: usize, c: usize| layout.iter().position(|&(lr, lc)| lr == r && lc == c);
        let input_types: Vec<DataType> = layout
            .iter()
            .map(|&(r, c)| self.q.relations[r].table.schema.field(c).data_type)
            .collect();

        if !self.q.aggs.is_empty() || !self.q.group_by.is_empty() {
            // Aggregate sink, output = [group cols..., aggs...].
            let group_cols: Vec<usize> = self
                .q
                .group_by
                .iter()
                .map(|&(r, c)| {
                    resolve(r, c)
                        .ok_or_else(|| Error::Plan("GROUP BY column missing from layout".into()))
                })
                .collect::<Result<_>>()?;
            let aggs: Vec<AggExpr> = self
                .q
                .aggs
                .iter()
                .map(|a| {
                    Ok(AggExpr {
                        func: a.func,
                        input: a.arg.as_ref().map(|e| e.to_exec(&resolve)).transpose()?,
                        alias: a.alias.clone(),
                    })
                })
                .collect::<Result<_>>()?;
            let mut agg_schema_fields: Vec<Field> = self
                .q
                .group_by
                .iter()
                .map(|&(r, c)| {
                    let rel = &self.q.relations[r];
                    Field::new(
                        format!("{}.{}", rel.binding, rel.table.schema.field(c).name),
                        rel.table.schema.field(c).data_type,
                    )
                })
                .collect();
            for a in &aggs {
                agg_schema_fields.push(Field::new(a.alias.clone(), a.output_type(&input_types)?));
            }
            let agg_schema = Schema::new(agg_schema_fields);
            // Dictionary-coded `Utf8` group keys: attach the base table's
            // dictionary for every string group column so the aggregate can
            // pack 32-bit codes into the fixed-width fast-path key instead
            // of falling back to the generic encoded-key table. Attached per
            // *input column* (the sink indexes by group column position).
            let mut key_dicts: Vec<Option<Arc<rpt_common::Utf8Dict>>> = vec![None; layout.len()];
            for &g in &group_cols {
                let (r, c) = layout[g];
                let rel = &self.q.relations[r];
                if rel.table.schema.field(c).data_type == DataType::Utf8 {
                    key_dicts[g] = rel.table.encoded().columns[c].dict.clone();
                }
            }
            let agg_buf = self.new_buffer();
            let sink_schema = self.stream_schema(&stream);
            self.pipelines.push(PipelinePlan {
                label: format!("aggregate {}", stream.label),
                source: stream.source,
                ops: stream.ops,
                sink: SinkSpec::Aggregate {
                    buf_id: agg_buf,
                    group_cols,
                    aggs,
                    input_types,
                    output_schema: agg_schema.clone(),
                    key_dicts,
                },
                intermediate: false,
                sink_schema,
            });

            // Re-project to the SELECT item order if it differs from
            // [groups..., aggs...].
            let ng = self.q.group_by.len();
            let mut projection = Vec::with_capacity(self.q.output.len());
            let mut out_fields = Vec::with_capacity(self.q.output.len());
            for item in &self.q.output {
                match &item.kind {
                    crate::query::OutputKind::Agg(i) => {
                        projection.push(ng + i);
                        out_fields.push(agg_schema.field(ng + i).clone());
                    }
                    crate::query::OutputKind::Expr(e) => {
                        // must be a group-by column
                        let mut cols = std::collections::BTreeSet::new();
                        e.columns(&mut cols);
                        let (r, c) = match (cols.len(), e) {
                            (1, crate::query::RExpr::Col { rel, col }) => (*rel, *col),
                            _ => {
                                return Err(Error::Plan(
                                    "non-aggregate SELECT items must be plain GROUP BY columns"
                                        .into(),
                                ))
                            }
                        };
                        let gpos = self
                            .q
                            .group_by
                            .iter()
                            .position(|&(gr, gc)| gr == r && gc == c)
                            .ok_or_else(|| {
                                Error::Plan(format!(
                                    "SELECT column `{}` is not in GROUP BY",
                                    item.alias
                                ))
                            })?;
                        projection.push(gpos);
                        out_fields.push(Field::new(
                            item.alias.clone(),
                            agg_schema.field(gpos).data_type,
                        ));
                    }
                }
            }
            let identity = projection.iter().copied().eq(0..agg_schema.len());
            if identity {
                return Ok(self.assemble(agg_buf, agg_schema));
            }
            let out_buf = self.new_buffer();
            let out_schema = Schema::new(out_fields);
            self.pipelines.push(PipelinePlan {
                label: "project output".into(),
                source: SourceSpec::Buffer(agg_buf),
                ops: vec![OpSpec::Project(
                    projection.into_iter().map(Expr::Column).collect(),
                )],
                sink: SinkSpec::Buffer {
                    buf_id: out_buf,
                    blooms: vec![],
                },
                intermediate: false,
                sink_schema: out_schema.clone(),
            });
            Ok(self.assemble(out_buf, out_schema))
        } else {
            // Plain projection.
            let mut exprs = Vec::with_capacity(self.q.output.len());
            let mut out_fields = Vec::with_capacity(self.q.output.len());
            for item in &self.q.output {
                match &item.kind {
                    crate::query::OutputKind::Expr(e) => {
                        let exec = e.to_exec(&resolve)?;
                        let dt = exec.data_type(&input_types)?;
                        exprs.push(exec);
                        out_fields.push(Field::new(item.alias.clone(), dt));
                    }
                    crate::query::OutputKind::Agg(_) => {
                        return Err(Error::Plan("aggregate without aggregation context".into()))
                    }
                }
            }
            let out_buf = self.new_buffer();
            let out_schema = Schema::new(out_fields);
            let mut ops = stream.ops;
            ops.push(OpSpec::Project(exprs));
            self.pipelines.push(PipelinePlan {
                label: format!("output {}", stream.label),
                source: stream.source,
                ops,
                sink: SinkSpec::Buffer {
                    buf_id: out_buf,
                    blooms: vec![],
                },
                intermediate: false,
                sink_schema: out_schema.clone(),
            });
            Ok(self.assemble(out_buf, out_schema))
        }
    }
}

/// Does a left-deep join order start at the tree root and only ever join
/// tree children of already-joined relations? In that case the forward pass
/// alone suffices (§4.3's "skip the entire backward pass" optimization):
/// every newly joined relation is immediately intersected with its
/// fully-reduced parent.
pub fn order_aligned_with_tree(order: &[usize], tree: &JoinTree) -> bool {
    if order.is_empty() || order[0] != tree.root {
        return false;
    }
    let mut joined = vec![false; tree.num_relations()];
    joined[order[0]] = true;
    for &r in &order[1..] {
        match tree.parent[r] {
            Some(p) if joined[p] => joined[r] = true,
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_graph::JoinTree;

    /// The aggregate pipeline's output buffer is written at partition
    /// grain, and its consumer (the reprojection pipeline) reads the same
    /// grains — what lets the global scheduler
    /// overlap GROUP BY merges with downstream consumption.
    #[test]
    fn aggregate_buffer_deps_are_partition_granular() {
        use crate::engine::{Database, Mode, QueryOptions};
        use rpt_common::{DataType, Field, Vector};
        use rpt_exec::ResourceId;
        use rpt_storage::Table;

        let mut db = Database::new();
        db.register_table(
            Table::new(
                "t",
                rpt_common::Schema::new(vec![
                    Field::new("g", DataType::Int64),
                    Field::new("v", DataType::Int64),
                ]),
                vec![
                    Vector::from_i64((0..100).map(|i| i % 7).collect()),
                    Vector::from_i64((0..100).collect()),
                ],
            )
            .unwrap(),
        );
        // SELECT order forces a reprojection pipeline after the aggregate.
        let sql = "SELECT COUNT(*) AS c, t.g FROM t GROUP BY t.g";
        let q = db.bind_sql(sql).unwrap();
        let opts = QueryOptions::new(Mode::Baseline).with_partition_count(4);
        let order = db.choose_order(&q, &opts).unwrap();
        let plan = Planner::new(&q, &opts).compile(&order.plan()).unwrap();

        assert_eq!(plan.partition_count, 4);
        assert_eq!(plan.pipelines.len(), 2, "aggregate + reprojection");
        let agg_buf = plan.output_buffer - 1; // aggregate buffer precedes output
        let agg_grains: Vec<ResourceId> =
            (0..4).map(|p| ResourceId::BufferPart(agg_buf, p)).collect();
        let (agg, reproject) = (plan.pipelines[0].deps(4), plan.pipelines[1].deps(4));
        for g in &agg_grains {
            assert!(
                agg.writes.contains(g),
                "aggregate writes missing grain {g:?}: {:?}",
                agg.writes
            );
            assert!(
                reproject.reads.contains(g),
                "reprojection reads missing grain {g:?}: {:?}",
                reproject.reads
            );
        }
    }

    /// A Hybrid plan is one plan: its join phase is exactly one Generic
    /// Join pipeline, whose inputs are each relation's final buffer in
    /// relation order, and the plan verifies clean.
    #[test]
    fn hybrid_plan_has_one_generic_join_over_final_buffers() {
        use crate::engine::{Database, Mode, QueryOptions};
        use rpt_common::{DataType, Field, Vector};
        use rpt_storage::Table;

        let mut db = Database::new();
        for (name, a, b) in [("tr", "a", "b"), ("ts", "b", "c"), ("tt", "a", "c")] {
            let t = Table::new(
                name,
                rpt_common::Schema::new(vec![
                    Field::new(a, DataType::Int64),
                    Field::new(b, DataType::Int64),
                ]),
                vec![
                    Vector::from_i64((0..50).map(|i| i % 7).collect()),
                    Vector::from_i64((0..50).map(|i| i % 5).collect()),
                ],
            )
            .unwrap();
            db.register_table(t);
        }
        let sql = "SELECT COUNT(*) FROM tr, ts, tt \
                   WHERE tr.a = tt.a AND tr.b = ts.b AND ts.c = tt.c AND tr.a < 5";
        let q = db.bind_sql(sql).unwrap();
        for pc in [1, 4] {
            let opts = QueryOptions::new(Mode::Hybrid).with_partition_count(pc);
            let order = db.choose_order(&q, &opts).unwrap();
            let plan = Planner::new(&q, &opts).compile(&order.plan()).unwrap();
            let joins: Vec<(usize, &Vec<WcojInput>)> = plan
                .pipelines
                .iter()
                .enumerate()
                .filter_map(|(i, p)| match &p.source {
                    SourceSpec::GenericJoin { inputs, .. } => Some((i, inputs)),
                    _ => None,
                })
                .collect();
            assert_eq!(joins.len(), 1, "pc={pc}");
            let (at, inputs) = joins[0];
            assert_eq!(inputs.len(), q.num_relations());
            for (r, input) in inputs.iter().enumerate() {
                // The last pipeline that sinks relation r's rows.
                let binding = &q.relations[r].binding;
                let sinks_rel = |label: &str| {
                    label == format!("materialize {binding}")
                        || label.contains(&format!(" {binding} -> "))
                };
                let last = plan.pipelines[..at]
                    .iter()
                    .rev()
                    .find(|p| sinks_rel(&p.label))
                    .unwrap();
                assert!(
                    matches!(last.sink, SinkSpec::Buffer { buf_id, .. } if buf_id == input.buf_id),
                    "pc={pc}: {binding} reads buffer {} after `{}`",
                    input.buf_id,
                    last.label
                );
            }
            let rep = plan.verify();
            assert!(rep.is_clean(), "pc={pc}: {:?}", rep.errors);
        }
    }

    #[test]
    fn alignment_check() {
        // Tree: 2 ← 1 ← {0, 3} (root 2)
        let tree = JoinTree {
            root: 2,
            parent: vec![Some(1), Some(2), None, Some(1)],
            insertion_order: vec![2, 1, 0, 3],
        };
        assert!(order_aligned_with_tree(&[2, 1, 0, 3], &tree));
        assert!(order_aligned_with_tree(&[2, 1, 3, 0], &tree));
        // starts off-root
        assert!(!order_aligned_with_tree(&[1, 2, 0, 3], &tree));
        // joins a grandchild before its parent
        assert!(!order_aligned_with_tree(&[2, 0, 1, 3], &tree));
        assert!(!order_aligned_with_tree(&[], &tree));
    }
}
