//! Parity of the fused late-materializing scan with the composition it
//! replaced: for random tables × predicates × projections, and for every
//! base relation of every corpus query, `SourceSpec::Scan` (filter and
//! projection inside the scan morsel) must emit exactly the rows — in
//! order — of `SourceSpec::Table` → `OpSpec::Filter` → `OpSpec::Project`,
//! under both storage layouts.

use proptest::prelude::*;
use proptest::TestRng;
use rpt_common::chunk::VECTOR_SIZE;
use rpt_common::{ScalarValue, Schema, Vector};
use rpt_core::Database;
use rpt_exec::{
    CmpOp, ExecContext, Executor, Expr, MetricsSummary, OpSpec, PipelinePlan, RouteMode, SinkSpec,
    SourceSpec,
};
use rpt_storage::Table;
use rpt_workloads::{dsb, job, tpcds, tpch, Workload};
use std::sync::Arc;

type Rows = Vec<Vec<ScalarValue>>;

/// Run `source → ops → collect` single-threaded, unpartitioned (so buffer
/// order is scan order) and return the collected rows plus the metrics.
fn collect(
    source: SourceSpec,
    ops: Vec<OpSpec>,
    schema: Schema,
    encoded: bool,
) -> (Rows, MetricsSummary) {
    let ctx = ExecContext::new()
        .with_threads(1)
        .with_partitions(1)
        .with_storage_encoding(encoded);
    let mut exec = Executor::new(ctx, 1, 0, 0);
    let plan = PipelinePlan {
        label: "collect".into(),
        source,
        ops,
        sink: SinkSpec::Buffer {
            buf_id: 0,
            blooms: vec![],
        },
        intermediate: false,
        route: RouteMode::Radix,
        sink_schema: schema,
    };
    exec.run(&[plan]).expect("pipeline runs");
    let rows = exec
        .buffer(0)
        .expect("output buffer")
        .iter()
        .flat_map(|c| c.rows())
        .collect();
    (rows, exec.ctx.metrics.summary())
}

/// Fused scan vs the unfused reference composition, both layouts.
fn assert_parity(table: &Arc<Table>, filter: Option<&Expr>, columns: &[usize], what: &str) {
    let schema = Schema::new(
        columns
            .iter()
            .map(|&c| table.schema.field(c).clone())
            .collect(),
    );
    let mut reference_ops: Vec<OpSpec> = filter
        .iter()
        .map(|f| OpSpec::Filter((*f).clone()))
        .collect();
    reference_ops.push(OpSpec::Project(
        columns.iter().map(|&c| Expr::Column(c)).collect(),
    ));
    for encoded in [true, false] {
        let fused = SourceSpec::Scan {
            table: table.clone(),
            filter: filter.cloned(),
            columns: columns.to_vec(),
            bloom: vec![],
        };
        let (got, _) = collect(fused, vec![], schema.clone(), encoded);
        let (want, _) = collect(
            SourceSpec::Table(table.clone()),
            reference_ops.clone(),
            schema.clone(),
            encoded,
        );
        assert_eq!(got.len(), want.len(), "{what} encoded={encoded}: row count");
        assert!(got == want, "{what} encoded={encoded}: rows differ");
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
                let filter = rel.filter.as_ref().map(|f| {
                    f.to_exec(&|fr, fc| (fr == r).then_some(fc))
                        .expect("single-relation filter lowers")
                });
                assert_parity(
                    &rel.table,
                    filter.as_ref(),
                    &rel.needed_cols,
                    &format!("{} {} {}", w.name, q.id, rel.binding),
                );
                relations += 1;
            }
        }
    }
    assert!(relations > 150, "only {relations} base relations covered");
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
fn random_table(rng: &mut TestRng) -> Arc<Table> {
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
    Arc::new(Table::new("t", schema, columns).expect("valid table"))
}

fn random_leaf(rng: &mut TestRng, rows: i64) -> Expr {
    let ops = [
        CmpOp::Eq,
        CmpOp::NotEq,
        CmpOp::Lt,
        CmpOp::LtEq,
        CmpOp::Gt,
        CmpOp::GtEq,
    ];
    let op = ops[rng.below(6) as usize];
    let word = || Box::new(Expr::col(WORD));
    let pattern = ["ring", "ing", "r", "absent"][rng.below(4) as usize].to_string();
    match rng.below(10) {
        // Column-free: one verdict for every row of every block.
        9 => Expr::cmp(
            op,
            Expr::lit(ScalarValue::Int64(rng.below(3) as i64)),
            Expr::lit(ScalarValue::Int64(1)),
        ),
        0 => Expr::cmp(
            op,
            Expr::col(CLUSTERED),
            Expr::lit(ScalarValue::Int64(rng.below(rows as u64) as i64)),
        ),
        1 => Expr::cmp(
            op,
            Expr::col(SMALL),
            Expr::lit(ScalarValue::Int64(rng.below(8) as i64)),
        ),
        2 => Expr::cmp(
            op,
            Expr::col(FLOAT),
            Expr::lit(ScalarValue::Float64(rng.below(100) as f64 / 4.0)),
        ),
        3 => Expr::cmp(op, Expr::col(WORD), Expr::lit(ScalarValue::Utf8(pattern))),
        4 => Expr::InList {
            expr: Box::new(Expr::col(SMALL)),
            list: (0..rng.below(4))
                .map(|_| ScalarValue::Int64(rng.below(8) as i64))
                .collect(),
        },
        5 => Expr::EndsWith {
            expr: word(),
            pattern,
        },
        6 => Expr::Contains {
            expr: word(),
            pattern,
        },
        7 => Expr::eq(
            Expr::col(FLAG),
            Expr::lit(ScalarValue::Bool(rng.gen_bool())),
        ),
        _ => Expr::IsNull(Box::new(Expr::col(rng.below(NUM_COLS as u64) as usize))),
    }
}

fn random_filter(rng: &mut TestRng, rows: i64, depth: u32) -> Expr {
    if depth == 0 || rng.below(3) == 0 {
        return random_leaf(rng, rows);
    }
    let parts = |rng: &mut TestRng| -> Vec<Expr> {
        (0..1 + rng.below(3))
            .map(|_| random_filter(rng, rows, depth - 1))
            .collect()
    };
    match rng.below(3) {
        0 => Expr::And(parts(rng)),
        1 => Expr::Or(parts(rng)),
        _ => Expr::Not(Box::new(random_filter(rng, rows, depth - 1))),
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
    let one = || Expr::lit(ScalarValue::Int64(1));
    let holds = Expr::eq(one(), one());
    let fails = Expr::cmp(CmpOp::Lt, one(), one());
    for filter in [
        holds.clone(),
        fails.clone(),
        Expr::Or(vec![fails, holds.clone()]),
        Expr::Not(Box::new(holds)),
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
    let table = Arc::new(
        Table::new(
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
        .expect("valid table"),
    );
    let filter = Expr::eq(Expr::col(0), Expr::lit(ScalarValue::Int64(50)));
    assert_parity(&table, Some(&filter), &[1], "straddled literal");

    let fused = SourceSpec::Scan {
        table: table.clone(),
        filter: Some(filter),
        columns: vec![1],
        bloom: vec![],
    };
    let schema = Schema::new(vec![table.schema.field(1).clone()]);
    let (rows, m) = collect(fused, vec![], schema, true);
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
