//! Parity of the fused late-materializing scan with the composition it
//! replaced and with the oracle: for random tables × predicates ×
//! projections, and for every base relation of every corpus query,
//! `SourceSpec::Scan` (filter and projection inside the scan morsel) must
//! emit exactly the rows — in order — of a bare scan
//! (`SourceSpec::full_scan`: every column, no predicate, no probes) →
//! `OpSpec::Filter` → `OpSpec::Project`, and of the oracle's
//! single-relation filter over the table's raw columns (`tests/oracle/`).
//! With scan-resident probes of Bloom filters and key bitmaps, it must
//! emit the rows and probe counters of the same composition with one
//! `OpSpec::ProbeBloom` per probe, every row of the oracle's exact
//! semi-join, and only rows the oracle's filter keeps — exactly the
//! semi-join when every probe is a key bitmap.

mod oracle;

use proptest::prelude::*;
use proptest::TestRng;
use rpt_common::chunk::VECTOR_SIZE;
use rpt_common::{DenseRange, ScalarValue, Schema, Vector};
use rpt_core::query::RExpr;
use rpt_core::{Database, Mode, Planner, QueryOptions};
use rpt_exec::operators::TableScan;
use rpt_exec::{
    BloomSink, CmpOp, ExecContext, Executor, Expr, FilterShape, MetricsSummary, OpSpec,
    PipelinePlan, ScanProbe, SinkSpec, Source, SourceSpec,
};
use rpt_storage::{ColumnStats, StoredTable, Table};
use rpt_workloads::{dsb, job, tpcds, tpch, Workload};
use std::collections::HashSet;
use std::sync::Arc;

type Rows = Vec<Vec<ScalarValue>>;

/// `source → ops → collect` with no transferred filter.
fn collect(source: SourceSpec, ops: Vec<OpSpec>, schema: Schema) -> (Rows, MetricsSummary) {
    collect_probed(&[], source, ops, schema)
}

/// The form of `table` that registration keeps and scans read.
fn stored(table: &Table) -> Arc<StoredTable> {
    Arc::new(StoredTable::new(table.clone()))
}

/// Fused scan vs the unfused reference composition and the oracle, for a
/// filter over relation 0.
fn assert_parity(table: &Table, filter: Option<&RExpr>, columns: &[usize], what: &str) {
    let scanned = stored(table);
    assert_probe_parity(table, &scanned, filter.map(|f| (f, 0)), columns, &[], what);
}

/// `RExpr` builders over relation 0.
fn col(c: usize) -> RExpr {
    RExpr::Col { rel: 0, col: c }
}

fn lit(v: ScalarValue) -> RExpr {
    RExpr::Lit(v)
}

fn cmp(op: CmpOp, left: RExpr, right: RExpr) -> RExpr {
    RExpr::Cmp {
        op,
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn database_for(w: &Workload) -> Database {
    let mut db = Database::new();
    for t in &w.tables {
        db.register_table(t.clone());
    }
    db
}

/// Every base relation of every query of the four workload generators:
/// its bound filter and needed columns through both scans.
#[test]
fn corpus_base_relations_scan_identically() {
    let mut relations = 0;
    for w in [tpch(0.2, 42), job(0.2, 5), tpcds(0.2, 7), dsb(0.2, 9)] {
        let db = database_for(&w);
        for q in &w.queries {
            let bound = db.bind_sql(&q.sql).expect("corpus query binds");
            for (r, rel) in bound.relations.iter().enumerate() {
                let raw = w.tables.iter().find(|t| t.name == rel.table.name);
                assert_probe_parity(
                    raw.expect("a generated table"),
                    &rel.table,
                    rel.filter.as_ref().map(|f| (f, r)),
                    &rel.needed_cols,
                    &[],
                    &format!("{} {} {}", w.name, q.id, rel.binding),
                );
                relations += 1;
            }
        }
    }
    assert!(relations > 150, "only {relations} base relations covered");
}

/// Plan shape of the whole corpus under RPT: a ProbeBF whose stream still
/// starts at a base scan lives in the scan, so the streaming operator only
/// ever follows a buffer source (backward pass, join phase) — and both
/// forms occur.
#[test]
fn corpus_rpt_plans_probe_base_relations_inside_the_scan() {
    let opts = QueryOptions::new(Mode::RobustPredicateTransfer);
    let (mut queries, mut resident, mut streaming) = (0, 0, 0);
    for w in [tpch(0.2, 42), job(0.2, 5), tpcds(0.2, 7), dsb(0.2, 9)] {
        let db = database_for(&w);
        for q in &w.queries {
            let bound = db.bind_sql(&q.sql).expect("corpus query binds");
            let order = db.choose_order(&bound, &opts).expect("order chosen");
            let plan = Planner::new(&bound, &opts)
                .compile(&order.plan())
                .expect("corpus query compiles");
            queries += 1;
            for p in &plan.pipelines {
                let probe_ops = p
                    .ops
                    .iter()
                    .filter(|op| matches!(op, OpSpec::ProbeBloom { .. }))
                    .count();
                match &p.source {
                    SourceSpec::Buffer(_) | SourceSpec::GenericJoin { .. } => {
                        streaming += probe_ops
                    }
                    SourceSpec::Scan { probes, .. } => {
                        assert_eq!(probe_ops, 0, "{} {}: {}", w.name, q.id, p.label);
                        resident += probes.len();
                    }
                }
            }
        }
    }
    assert_eq!(queries, 64);
    assert!(
        resident > 0 && streaming > 0,
        "{resident} resident, {streaming} streaming"
    );
}

const WORDS: [&str; 6] = ["ring", "ringer", "sing", "", "bring", "zebra"];

// Column layout of the random tables.
const CLUSTERED: usize = 0;
const SMALL: usize = 1;
const FLOAT: usize = 2;
const WORD: usize = 3;
const FLAG: usize = 4;
const NUM_COLS: usize = 5;

fn nullable(mut v: Vector, rng: &mut TestRng) -> Vector {
    if rng.gen_bool() {
        v.validity = Some((0..v.len()).map(|_| rng.below(5) > 0).collect());
    }
    v
}

/// A few blocks of rows: a clustered key (tight zone maps, so literal
/// conjuncts prune), low-cardinality ints (RLE / FOR), floats, dictionary
/// strings, bools — each randomly nullable.
fn random_table(rng: &mut TestRng) -> Table {
    let n = VECTOR_SIZE * 2 + rng.below(VECTOR_SIZE as u64) as usize;
    let cols = vec![
        ("clustered", Vector::from_i64((0..n as i64).collect())),
        (
            "small",
            Vector::from_i64((0..n).map(|_| rng.below(7) as i64).collect()),
        ),
        (
            "float",
            Vector::from_f64((0..n).map(|_| rng.below(100) as f64 / 4.0).collect()),
        ),
        (
            "word",
            Vector::from_utf8(
                (0..n)
                    .map(|_| WORDS[rng.below(WORDS.len() as u64) as usize].to_string())
                    .collect(),
            ),
        ),
        (
            "flag",
            Vector::from_bool((0..n).map(|_| rng.gen_bool()).collect()),
        ),
    ];
    let schema = Schema::new(
        cols.iter()
            .map(|(name, v)| rpt_common::Field::new(*name, v.data_type()))
            .collect(),
    );
    let columns = cols.into_iter().map(|(_, v)| nullable(v, rng)).collect();
    Table::new("t", schema, columns).expect("valid table")
}

fn random_leaf(rng: &mut TestRng, rows: i64) -> RExpr {
    let ops = [
        CmpOp::Eq,
        CmpOp::NotEq,
        CmpOp::Lt,
        CmpOp::LtEq,
        CmpOp::Gt,
        CmpOp::GtEq,
    ];
    let op = ops[rng.below(6) as usize];
    let word = || Box::new(col(WORD));
    let pattern = ["ring", "ing", "r", "absent"][rng.below(4) as usize].to_string();
    match rng.below(10) {
        // Column-free: one verdict for every row of every block.
        9 => cmp(
            op,
            lit(ScalarValue::Int64(rng.below(3) as i64)),
            lit(ScalarValue::Int64(1)),
        ),
        0 => cmp(
            op,
            col(CLUSTERED),
            lit(ScalarValue::Int64(rng.below(rows as u64) as i64)),
        ),
        1 => cmp(op, col(SMALL), lit(ScalarValue::Int64(rng.below(8) as i64))),
        2 => cmp(
            op,
            col(FLOAT),
            lit(ScalarValue::Float64(rng.below(100) as f64 / 4.0)),
        ),
        3 => cmp(op, col(WORD), lit(ScalarValue::Utf8(pattern))),
        4 => RExpr::InList {
            expr: Box::new(col(SMALL)),
            list: (0..rng.below(4))
                .map(|_| ScalarValue::Int64(rng.below(8) as i64))
                .collect(),
        },
        5 => RExpr::EndsWith {
            expr: word(),
            pattern,
        },
        6 => RExpr::Contains {
            expr: word(),
            pattern,
        },
        7 => cmp(CmpOp::Eq, col(FLAG), lit(ScalarValue::Bool(rng.gen_bool()))),
        _ => RExpr::IsNull(Box::new(col(rng.below(NUM_COLS as u64) as usize))),
    }
}

fn random_filter(rng: &mut TestRng, rows: i64, depth: u32) -> RExpr {
    if depth == 0 || rng.below(3) == 0 {
        return random_leaf(rng, rows);
    }
    let parts = |rng: &mut TestRng| -> Vec<RExpr> {
        (0..1 + rng.below(3))
            .map(|_| random_filter(rng, rows, depth - 1))
            .collect()
    };
    match rng.below(3) {
        0 => RExpr::And(parts(rng)),
        1 => RExpr::Or(parts(rng)),
        _ => RExpr::Not(Box::new(random_filter(rng, rows, depth - 1))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_scans_match_the_unfused_composition(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_name(&format!("fused-scan-{seed}"));
        let table = random_table(&mut rng);
        let filter = (rng.below(5) > 0).then(|| random_filter(&mut rng, table.num_rows() as i64, 2));
        // Any subset of the columns, in any order.
        let mut columns: Vec<usize> = (0..NUM_COLS).filter(|_| rng.gen_bool()).collect();
        if columns.is_empty() {
            columns.push(rng.below(NUM_COLS as u64) as usize);
        }
        if rng.gen_bool() {
            columns.reverse();
        }
        assert_parity(&table, filter.as_ref(), &columns, &format!("{filter:?} -> {columns:?}"));
    }
}

/// A predicate that reads no column (the binder pushes `WHERE 1 = 1` down
/// to relation 0) still sees every row of every morsel.
#[test]
fn constant_filters_keep_or_drop_every_row() {
    let mut rng = TestRng::from_name("fused-scan-constant");
    let table = random_table(&mut rng);
    let one = || lit(ScalarValue::Int64(1));
    let holds = cmp(CmpOp::Eq, one(), one());
    let fails = cmp(CmpOp::Lt, one(), one());
    for filter in [
        holds.clone(),
        fails.clone(),
        RExpr::Or(vec![fails, holds.clone()]),
        RExpr::Not(Box::new(holds)),
    ] {
        let what = format!("{filter:?}");
        assert_parity(&table, Some(&filter), &[WORD, SMALL], &what);
    }
}

/// A block no zone map can prune (its bounds straddle the literal) whose
/// rows all fail the filter is decoded for the predicate column only, then
/// skipped: counted as scanned, contributing no rows.
#[test]
fn unprunable_block_with_no_survivors_is_skipped_after_the_filter() {
    let n = VECTOR_SIZE * 3;
    // Block 1 alternates 0 / 100 — `x = 50` is inside its zone, matches
    // nothing. Blocks 0 and 2 hold one match each.
    let x: Vec<i64> = (0..n)
        .map(|i| match i {
            7 => 50,
            i if i == n - 3 => 50,
            i => [0, 100][i % 2],
        })
        .collect();
    let table = Table::new(
        "t",
        Schema::new(vec![
            rpt_common::Field::new("x", rpt_common::DataType::Int64),
            rpt_common::Field::new("payload", rpt_common::DataType::Utf8),
        ]),
        vec![
            Vector::from_i64(x),
            Vector::from_utf8((0..n).map(|i| format!("row-{i}")).collect()),
        ],
    )
    .expect("valid table");
    let filter = cmp(CmpOp::Eq, col(0), lit(ScalarValue::Int64(50)));
    assert_parity(&table, Some(&filter), &[1], "straddled literal");

    let fused = SourceSpec::Scan {
        table: stored(&table),
        filter: Some(lower(&filter, 0)),
        columns: vec![1],
        probes: vec![],
    };
    let schema = Schema::new(vec![table.schema.field(1).clone()]);
    let (rows, m) = collect(fused, vec![], schema);
    assert_eq!(
        rows,
        vec![
            vec![ScalarValue::Utf8("row-7".into())],
            vec![ScalarValue::Utf8(format!("row-{}", n - 3))],
        ]
    );
    assert_eq!(m.blocks_pruned, 0, "no zone map rules `x = 50` out");
    assert_eq!(m.blocks_scanned, 3);
    assert_eq!(m.scan_rows, n as u64);
    assert_eq!(m.output_rows, 2);
}

// ---- Scan-resident Bloom probes ----

/// The build side of a transfer: a table of the probe keys to keep.
fn key_table(cols: Vec<Vector>) -> Table {
    let schema = Schema::new(
        cols.iter()
            .enumerate()
            .map(|(i, v)| rpt_common::Field::new(format!("k{i}"), v.data_type()))
            .collect(),
    );
    Table::new("keys", schema, cols).expect("valid key table")
}

/// A transferred filter for the parity harness: built over all columns of
/// `keys` (in order), probed on base columns `on` of the scanned table.
/// `exact` asks for a key bitmap over the one `Int64` key column's value
/// range in place of a Bloom filter.
struct Transfer {
    keys: Table,
    on: Vec<usize>,
    exact: bool,
}

impl Transfer {
    fn shape(&self) -> FilterShape {
        let stats = ColumnStats::compute(self.keys.column(0));
        match (&stats.min, &stats.max) {
            (ScalarValue::Int64(min), ScalarValue::Int64(max)) if self.exact => {
                assert_eq!(self.keys.num_columns(), 1, "a key bitmap takes one key");
                FilterShape::Bitmap(DenseRange::new(*min, *max, u64::MAX).unwrap())
            }
            _ => FilterShape::Bloom {
                expected_keys: self.keys.num_rows().max(1),
                fpr: 0.02,
            },
        }
    }
}

/// One CreateBF pipeline per transfer: filter `i` (and buffer `i`) from
/// `transfers[i]`.
fn createbf_plans(transfers: &[Transfer]) -> Vec<PipelinePlan> {
    transfers
        .iter()
        .enumerate()
        .map(|(i, t)| PipelinePlan {
            label: format!("createbf {i}"),
            source: SourceSpec::full_scan(stored(&t.keys)),
            ops: vec![],
            sink: SinkSpec::Buffer {
                buf_id: i,
                blooms: vec![BloomSink {
                    filter_id: i,
                    key_cols: (0..t.keys.num_columns()).collect(),
                    shape: t.shape(),
                }],
            },
            intermediate: true,
            sink_schema: t.keys.schema.clone(),
        })
        .collect()
}

fn probe_ctx() -> ExecContext {
    ExecContext::new().with_threads(1).with_partitions(1)
}

/// Build the filters of `transfers`, then run `source → ops → collect`,
/// single-threaded and unpartitioned (so buffer order is scan order), and
/// return the collected rows plus the metrics.
fn collect_probed(
    transfers: &[Transfer],
    source: SourceSpec,
    ops: Vec<OpSpec>,
    schema: Schema,
) -> (Rows, MetricsSummary) {
    let out = transfers.len();
    let mut exec = Executor::new(probe_ctx(), out + 1, out, 0);
    let mut plans = createbf_plans(transfers);
    plans.push(PipelinePlan {
        label: "collect".into(),
        source,
        ops,
        sink: SinkSpec::Buffer {
            buf_id: out,
            blooms: vec![],
        },
        intermediate: false,
        sink_schema: schema,
    });
    exec.run_dag(&plans).expect("pipelines run");
    let rows = exec
        .buffer(out)
        .expect("output buffer")
        .iter()
        .flat_map(|c| c.rows())
        .collect();
    (rows, exec.ctx.metrics.summary())
}

/// The engine expression of a filter over relation `rel`, its columns
/// the base table's.
fn lower(filter: &RExpr, rel: usize) -> Expr {
    filter
        .to_exec(&|r, c| (r == rel).then_some(c))
        .expect("single-relation filter lowers")
}

/// Is `part` an in-order subsequence of `whole`?
fn subsequence(part: &[Vec<ScalarValue>], whole: &[Vec<ScalarValue>]) -> bool {
    let mut rest = whole.iter();
    part.iter().all(|p| rest.any(|w| w == p))
}

/// A scan of `table` with resident probes vs `Table` → `Filter` →
/// `ProbeBloom`… → `Project`: the same rows in the same order and the
/// same probe counters. Against the oracle over `raw`, the columns `table`
/// was encoded from (`filter` is relation `rel`'s): every row of the exact
/// semi-join with every transfer's keys (a NULL key matches nothing), only
/// rows the filter keeps, in table order, and exactly the semi-join when
/// every transfer is a key bitmap. Returns the fused scan's rows and
/// metrics.
fn assert_probe_parity(
    raw: &Table,
    table: &Arc<StoredTable>,
    filter: Option<(&RExpr, usize)>,
    columns: &[usize],
    transfers: &[Transfer],
    what: &str,
) -> (Rows, MetricsSummary) {
    let schema = Schema::new(
        columns
            .iter()
            .map(|&c| table.schema.field(c).clone())
            .collect(),
    );
    let exec_filter = filter.map(|(f, rel)| lower(f, rel));
    let mut reference_ops: Vec<OpSpec> = exec_filter.iter().cloned().map(OpSpec::Filter).collect();
    reference_ops.extend(
        transfers
            .iter()
            .enumerate()
            .map(|(i, t)| OpSpec::ProbeBloom {
                filter_id: i,
                key_cols: t.on.clone(),
            }),
    );
    reference_ops.push(OpSpec::Project(
        columns.iter().map(|&c| Expr::Column(c)).collect(),
    ));
    let fused = SourceSpec::Scan {
        table: table.clone(),
        filter: exec_filter,
        columns: columns.to_vec(),
        probes: transfers
            .iter()
            .enumerate()
            .map(|(i, t)| ScanProbe {
                filter_id: i,
                key_cols: t.on.clone(),
            })
            .collect(),
    };
    let (got, gm) = collect_probed(transfers, fused, vec![], schema.clone());
    let (want, wm) = collect_probed(
        transfers,
        SourceSpec::full_scan(table.clone()),
        reference_ops,
        schema,
    );
    assert_eq!(got.len(), want.len(), "{what}: row count");
    assert!(got == want, "{what}: rows differ");
    assert_eq!(
        (gm.bloom_probe_in, gm.bloom_probe_out),
        (wm.bloom_probe_in, wm.bloom_probe_out),
        "{what}: probe counters"
    );

    let (rel, f) = filter.map_or((0, None), |(f, rel)| (rel, Some(f)));
    let all: Vec<usize> = (0..raw.num_columns()).collect();
    let passing = oracle::filter_table(raw, f, rel, &all).expect("oracle filter");
    // Each transfer's build keys, by their `Debug` form.
    let key_sets: Vec<HashSet<String>> = transfers
        .iter()
        .map(|t| {
            (0..t.keys.num_rows())
                .map(|r| {
                    let key: Vec<ScalarValue> = (0..t.keys.num_columns())
                        .map(|c| t.keys.column(c).get(r))
                        .collect();
                    format!("{key:?}")
                })
                .collect()
        })
        .collect();
    let in_every_filter = |row: &Vec<ScalarValue>| {
        transfers.iter().zip(&key_sets).all(|(t, keys)| {
            let key: Vec<ScalarValue> = t.on.iter().map(|&c| row[c].clone()).collect();
            !key.contains(&ScalarValue::Null) && keys.contains(&format!("{key:?}"))
        })
    };
    let project = |rows: Vec<&Vec<ScalarValue>>| -> Rows {
        rows.into_iter()
            .map(|r| columns.iter().map(|&c| r[c].clone()).collect())
            .collect()
    };
    let semi_join = project(passing.iter().filter(|r| in_every_filter(r)).collect());
    let kept = project(passing.iter().collect());
    if transfers
        .iter()
        .all(|t| matches!(t.shape(), FilterShape::Bitmap(_)))
    {
        assert!(got == semi_join, "{what}: rows differ from the oracle");
    } else {
        assert!(
            subsequence(&semi_join, &got),
            "{what}: a matching row is missing"
        );
        assert!(
            subsequence(&got, &kept),
            "{what}: a row the filter drops is emitted"
        );
    }
    (got, gm)
}

/// Column `col` of `table`, rows `rows` (NULLs included), as a key column.
fn sample(table: &Table, col: usize, rows: &[usize]) -> Vector {
    let idx: Vec<u32> = rows.iter().map(|&r| r as u32).collect();
    table.column(col).take(&idx)
}

/// A column of distinct strings: a selective string key. Like `WORD` it is
/// dictionary-coded in the block layout and flat `Utf8` in the raw one, so
/// the two legs of every case cover both forms.
const TAG: usize = NUM_COLS;

fn with_tag_column(t: &Table, rng: &mut TestRng) -> Table {
    let n = t.num_rows();
    let mut fields = t.schema.fields.clone();
    fields.push(rpt_common::Field::new("tag", rpt_common::DataType::Utf8));
    let mut columns: Vec<Vector> = (0..NUM_COLS).map(|c| t.column(c).clone()).collect();
    columns.push(nullable(
        Vector::from_utf8((0..n).map(|i| format!("tag-{i}")).collect()),
        rng,
    ));
    Table::new("t", Schema::new(fields), columns).expect("valid table")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random tables × predicates × projections × one or two transferred
    /// filters over Int64, dictionary-Utf8, flat-Utf8 and composite keys
    /// (NULL keys on both sides; the second probe shares a key column with
    /// the first; keys may be predicate columns and need not be output; a
    /// single Int64 key gets a Bloom filter or an exact key bitmap).
    #[test]
    fn random_probed_scans_match_the_unfused_composition(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_name(&format!("fused-scan-probes-{seed}"));
        let table = with_tag_column(&random_table(&mut rng), &mut rng);
        let n = table.num_rows();
        let filter = rng.gen_bool().then(|| random_filter(&mut rng, n as i64, 2));
        let mut columns: Vec<usize> = (0..=NUM_COLS).filter(|_| rng.gen_bool()).collect();
        if columns.is_empty() {
            columns.push(rng.below(NUM_COLS as u64) as usize);
        }
        let on: Vec<usize> = match rng.below(6) {
            0 => vec![CLUSTERED],
            1 => vec![WORD],
            2 => vec![TAG],
            3 => vec![SMALL, WORD],
            4 => vec![WORD, FLOAT, FLAG],
            _ => vec![CLUSTERED, TAG],
        };
        // Keys of a few hundred sampled rows: most blocks keep a handful.
        let picks: Vec<usize> = (0..1 + rng.below(300)).map(|_| rng.below(n as u64) as usize).collect();
        // A single Int64 key may get an exact key bitmap.
        let mut transfers = vec![Transfer {
            keys: key_table(on.iter().map(|&c| sample(&table, c, &picks)).collect()),
            on: on.clone(),
            exact: on.len() == 1 && rng.gen_bool(),
        }];
        if rng.gen_bool() {
            // A second filter on the first one's leading key column.
            let picks: Vec<usize> = (0..1 + rng.below(2000)).map(|_| rng.below(n as u64) as usize).collect();
            transfers.push(Transfer {
                keys: key_table(vec![sample(&table, on[0], &picks)]),
                on: vec![on[0]],
                exact: rng.gen_bool(),
            });
        }
        let what = format!("{filter:?} probes {on:?} x{} -> {columns:?}", transfers.len());
        let (_, m) = assert_probe_parity(&table, &stored(&table), filter.as_ref().map(|f| (f, 0)), &columns, &transfers, &what);
        prop_assert!(m.bloom_probe_out <= m.bloom_probe_in);
    }
}

/// A block no zone map can prune — the filter tracked no key range for a
/// string key — whose every row the filter rejects is decoded for the key
/// column only, then skipped: scanned, probed, contributing no rows.
#[test]
fn block_rejected_by_a_resident_probe_is_skipped_before_output_decode() {
    let n = VECTOR_SIZE * 3;
    let table = Table::new(
        "t",
        Schema::new(vec![
            rpt_common::Field::new("k", rpt_common::DataType::Utf8),
            rpt_common::Field::new("payload", rpt_common::DataType::Int64),
        ]),
        vec![
            Vector::from_utf8((0..n).map(|i| format!("key-{i}")).collect()),
            Vector::from_i64((0..n as i64).collect()),
        ],
    )
    .expect("valid table");
    let scanned = stored(&table);
    // One surviving key in block 0, one in block 2, none in block 1.
    let wanted = [7, n - 3];
    let transfers = [Transfer {
        keys: key_table(vec![Vector::from_utf8(
            wanted.iter().map(|i| format!("key-{i}")).collect(),
        )]),
        on: vec![0],
        exact: false,
    }];
    let (_, m) = assert_probe_parity(&table, &scanned, None, &[1], &transfers, "rejected block");
    assert_eq!(m.blocks_pruned, 0, "no key range to prune a Utf8 key by");
    assert_eq!(m.blocks_scanned, 3 + 1, "every block of `t`, one of `keys`");
    assert_eq!(m.bloom_probe_in, n as u64);
    // Two true matches plus whatever the 2% false-positive rate lets by.
    assert!((2..n as u64 / 10).contains(&m.bloom_probe_out), "{m:?}");
    assert_eq!(m.output_rows, m.bloom_probe_out);

    // The same rejection seen at the source: morsel 1 yields no chunk.
    let mut exec = Executor::new(probe_ctx(), 1, 1, 0);
    exec.run_dag(&createbf_plans(&transfers))
        .expect("createbf runs");
    let scan = TableScan::fused(
        scanned,
        None,
        vec![1],
        vec![ScanProbe {
            filter_id: 0,
            key_cols: vec![0],
        }],
    );
    let morsels = scan.open(&exec.ctx, exec.resources()).expect("scan opens");
    assert_eq!(morsels.count(), 3);
    let survivors: Vec<Option<usize>> = (0..3)
        .map(|i| {
            let chunk = morsels.morsel(i, &exec.ctx).expect("morsel decodes");
            chunk.map(|c| c.num_rows())
        })
        .collect();
    assert!(
        survivors[0] >= Some(1) && survivors[2] >= Some(1),
        "{survivors:?}"
    );
    assert_eq!(survivors[1], None, "block 1 holds no wanted key");
}

/// Keys hashed or read from every source at once, against the unfused
/// operator:
/// a composite probe key whose first column is the predicate's (hashed
/// from the decoded vector) and whose second is still encoded (hashed
/// from its block), run-length and width-0 frame-of-reference key blocks,
/// and NULL keys on both sides of the transfer. A row with a NULL in any
/// key column never survives a probe.
#[test]
fn mixed_key_sources_probe_like_the_unfused_composition() {
    const PRED: usize = 0;
    const RUNS: usize = 1;
    const SPARSE: usize = 2;
    const PAYLOAD: usize = 3;
    let n = VECTOR_SIZE * 3;
    let mut sparse = Vector::from_i64((0..n as i64).map(|i| (i * 13) % 500).collect());
    // Block 1 is all NULL (stored as width-0 FOR); the others hold a NULL
    // every fifth row.
    sparse.validity = Some((0..n).map(|i| i / VECTOR_SIZE != 1 && i % 5 != 0).collect());
    let field = |name: &str, t| rpt_common::Field::new(name, t);
    let table = Table::new(
        "t",
        Schema::new(vec![
            field("pred", rpt_common::DataType::Int64),
            field("runs", rpt_common::DataType::Int64),
            field("sparse", rpt_common::DataType::Int64),
            field("payload", rpt_common::DataType::Utf8),
        ]),
        vec![
            Vector::from_i64((0..n as i64).map(|i| (i * 37) % 1000).collect()),
            Vector::from_i64((0..n as i64).map(|i| i / 16 % 50).collect()),
            sparse,
            Vector::from_utf8((0..n).map(|i| format!("row-{i}")).collect()),
        ],
    )
    .expect("valid table");
    let scanned = stored(&table);
    let enc = scanned.encoded();
    assert!(enc.columns[RUNS]
        .blocks
        .iter()
        .all(|b| matches!(b.data, rpt_storage::EncodedBlock::RleI64 { .. })));
    assert!(matches!(
        enc.columns[SPARSE].blocks[1].data,
        rpt_storage::EncodedBlock::ForI64 { width: 0, .. }
    ));

    // Every seventh row's keys, NULLs included, so most blocks keep some.
    let picks: Vec<usize> = (0..n).step_by(7).collect();
    let transfer = |on: Vec<usize>| Transfer {
        keys: key_table(on.iter().map(|&c| sample(&table, c, &picks)).collect()),
        on,
        exact: false,
    };
    let exact = |on: Vec<usize>| Transfer {
        exact: true,
        ..transfer(on)
    };
    let filter = cmp(CmpOp::Lt, col(PRED), lit(ScalarValue::Int64(600)));
    let cases: [(Option<&RExpr>, Vec<Transfer>, Vec<usize>); 6] = [
        (
            Some(&filter),
            vec![transfer(vec![PRED, RUNS])],
            vec![PAYLOAD],
        ),
        (
            Some(&filter),
            vec![transfer(vec![PRED, SPARSE]), transfer(vec![RUNS])],
            vec![SPARSE, PAYLOAD],
        ),
        (None, vec![transfer(vec![SPARSE, RUNS])], vec![RUNS, SPARSE]),
        (
            None,
            vec![transfer(vec![RUNS, SPARSE])],
            vec![PAYLOAD, SPARSE],
        ),
        // Key bitmaps read their keys from RLE and FOR blocks (the
        // all-NULL width-0 one included) ...
        (
            None,
            vec![exact(vec![SPARSE]), exact(vec![RUNS])],
            vec![SPARSE, PAYLOAD],
        ),
        // ... and from the decoded predicate column.
        (
            Some(&filter),
            vec![exact(vec![PRED]), exact(vec![SPARSE])],
            vec![SPARSE, PAYLOAD],
        ),
    ];
    for (i, (filter, transfers, columns)) in cases.iter().enumerate() {
        let what = format!("case {i}");
        let (rows, m) = assert_probe_parity(
            &table,
            &scanned,
            filter.map(|f| (f, 0)),
            columns,
            transfers,
            &what,
        );
        assert!(m.bloom_probe_out > 0, "{what}: {m:?}");
        if let Some(at) = columns.iter().position(|&c| c == SPARSE) {
            assert!(
                rows.iter().all(|r| r[at] != ScalarValue::Null),
                "{what}: a NULL key survived a probe"
            );
        }
    }
}
