//! Property tests for the type-specialized aggregation fast path: the
//! fixed-key (packed `u64`/`u128`) group tables must be *byte-identical* to
//! the generic encoded-key tables over random `Int64`/`Bool` keys with
//! NULLs, checked on `AggregateState`s fed per worker and merged, including
//! the `i64` extremes. Through the aggregate sink, which takes the fast
//! path on every eligible key, at every partition count × worker count,
//! the rows must equal a row-at-a-time reference fold written here and the
//! metrics must show the fast path ran. Every aggregate function over
//! every input type must also match that fold, on the group-less, fast and
//! generic tables.

use proptest::prelude::*;
use rpt_common::{DataChunk, DataType, Field, ScalarValue, Schema, Utf8Dict, Vector};
use rpt_exec::operators::AggregateFactory;
use rpt_exec::{AggExpr, AggFunc, AggregateState, ExecContext, Expr, Resources, SinkFactory};
use std::collections::BTreeMap;
use std::sync::Arc;

fn out_schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("b", DataType::Bool),
        Field::new("c", DataType::Int64),
        Field::new("s", DataType::Int64),
        Field::new("mn", DataType::Int64),
        Field::new("mx", DataType::Int64),
        Field::new("av", DataType::Float64),
    ])
}

/// The `(key, flag, value)` chunks' column types.
const TYPES: [DataType; 3] = [DataType::Int64, DataType::Bool, DataType::Int64];

/// COUNT(*), SUM, MIN, MAX and AVG of the value, grouped by key and flag.
fn factory_aggs() -> Vec<AggExpr> {
    vec![
        AggExpr::count_star("c"),
        AggExpr {
            func: AggFunc::Sum,
            input: Some(Expr::col(2)),
            alias: "s".into(),
        },
        AggExpr {
            func: AggFunc::Min,
            input: Some(Expr::col(2)),
            alias: "mn".into(),
        },
        AggExpr {
            func: AggFunc::Max,
            input: Some(Expr::col(2)),
            alias: "mx".into(),
        },
        AggExpr {
            func: AggFunc::Avg,
            input: Some(Expr::col(2)),
            alias: "av".into(),
        },
    ]
}

fn factory() -> AggregateFactory {
    AggregateFactory::new(
        0,
        vec![0, 1],
        factory_aggs(),
        TYPES.to_vec(),
        out_schema(),
        vec![],
    )
}

/// `(key, bool-flag, value)` chunks with NULLs derived from the key stream
/// (`k % 9 == 0` → NULL key, `k % 7 == 0` → NULL flag, `k % 5 == 0` → NULL
/// value), dealt round-robin to `workers`.
fn worker_chunks(keys: &[i64], chunk_size: usize, workers: usize) -> Vec<Vec<DataChunk>> {
    let mut per_worker: Vec<Vec<DataChunk>> = vec![Vec::new(); workers];
    for (i, ck) in keys.chunks(chunk_size.max(1)).enumerate() {
        let mut kv = Vector::new_empty(DataType::Int64);
        let mut bv = Vector::new_empty(DataType::Bool);
        let mut vv = Vector::new_empty(DataType::Int64);
        for (j, &k) in ck.iter().enumerate() {
            kv.push(&if k % 9 == 0 {
                ScalarValue::Null
            } else {
                ScalarValue::Int64(k)
            })
            .unwrap();
            bv.push(&if k % 7 == 0 {
                ScalarValue::Null
            } else {
                ScalarValue::Bool(k % 2 == 0)
            })
            .unwrap();
            vv.push(&if k % 5 == 0 {
                ScalarValue::Null
            } else {
                ScalarValue::Int64((i * chunk_size + j) as i64 - 20)
            })
            .unwrap();
        }
        per_worker[i % workers].push(DataChunk::new(vec![kv, bv, vv]));
    }
    per_worker
}

/// Drive the sink the way the pipeline driver does (one state per worker,
/// then the merge through the sink's partition merger) and return every
/// published row in partition order.
fn run(
    factory: &AggregateFactory,
    partitions: usize,
    per_worker: Vec<Vec<DataChunk>>,
) -> (Vec<Vec<ScalarValue>>, ExecContext) {
    let ctx = ExecContext::new().with_partitions(partitions);
    let res = Resources::with_partitions(1, 0, 0, partitions);
    let mut states = Vec::new();
    for chunks in per_worker {
        let mut s = factory.make(&ctx).unwrap();
        for c in chunks {
            s.sink(c, &ctx).unwrap();
        }
        states.push(s);
    }
    factory.merge_partitioned(states, &ctx, &res).unwrap();
    let rows: Vec<Vec<ScalarValue>> = res
        .buffer(0)
        .unwrap()
        .iter()
        .flat_map(|c| c.rows())
        .collect();
    (rows, ctx)
}

/// The fast (`fast`) or generic group tables of the `(key, flag)` chunks:
/// one `AggregateState` per worker, merged into the first, finalized.
fn state_rows(fast: bool, per_worker: Vec<Vec<DataChunk>>) -> Vec<Vec<ScalarValue>> {
    let mut states = per_worker.into_iter().map(|chunks| {
        let mut st =
            AggregateState::with_fast_path(vec![0, 1], factory_aggs(), &TYPES, fast).unwrap();
        assert_eq!(st.is_fast(), fast);
        for c in &chunks {
            st.update(c).unwrap();
        }
        st
    });
    let mut first = states.next().unwrap();
    for st in states {
        first.merge(st).unwrap();
    }
    first.finalize(&out_schema()).unwrap().rows()
}

/// The sink's rows for the `(key, flag)` chunks equal the reference fold,
/// and only the fast tables consumed chunks.
fn assert_sink_matches_reference(
    keys: &[i64],
    chunk_size: usize,
    partitions: usize,
    workers: usize,
) {
    let per_worker = worker_chunks(keys, chunk_size, workers);
    let all: Vec<DataChunk> = per_worker.iter().flatten().cloned().collect();
    let want = reference_fold(&[0, 1], &factory_aggs(), &TYPES, &all);
    let (got, ctx) = run(&factory(), partitions, per_worker);
    assert_eq!(keyed(got, 2), want, "pc={partitions} w={workers}");
    let m = ctx.metrics.summary();
    assert!(
        m.agg_fast_path_chunks > 0 && m.agg_generic_chunks == 0,
        "counted fast={} generic={}",
        m.agg_fast_path_chunks,
        m.agg_generic_chunks
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fast path must be *byte-identical* to the generic path: same
    /// rows in the same order (identical routing hashes → identical
    /// encoded-key sort) from per-worker states merged together, with
    /// NULLs in keys and values; and the sink's rows, at random partition
    /// and worker counts, equal the reference fold.
    #[test]
    fn fast_path_is_byte_identical_to_generic(
        keys in proptest::collection::vec(-40i64..40, 1..150),
        chunk_size in 1usize..50,
        pc_exp in 0u32..4,
        workers in 1usize..4,
    ) {
        let generic = state_rows(false, worker_chunks(&keys, chunk_size, workers));
        let fast = state_rows(true, worker_chunks(&keys, chunk_size, workers));
        prop_assert_eq!(&generic, &fast, "fast vs generic rows differ");
        prop_assert!(!generic.is_empty());
        assert_sink_matches_reference(&keys, chunk_size, 1usize << pc_exp, workers);
    }
}

/// The `i64` extremes pack, group, and finalize identically on both paths
/// (MIN/MAX/−1/0 exercise every bit of the 64-bit value field), and the
/// sink groups them as the reference fold does.
#[test]
fn extreme_keys_are_byte_identical() {
    let keys = vec![
        i64::MAX,
        i64::MIN,
        -1,
        0,
        1,
        i64::MAX,
        i64::MIN,
        i64::MAX - 1,
        i64::MIN + 1,
        0,
    ];
    for workers in [1usize, 2] {
        let generic = state_rows(false, worker_chunks(&keys, 3, workers));
        let fast = state_rows(true, worker_chunks(&keys, 3, workers));
        assert_eq!(generic, fast, "w={workers}");
        for partitions in [1usize, 2, 8] {
            assert_sink_matches_reference(&keys, 3, partitions, workers);
        }
    }
}

/// SUM overflow at `i64::MAX` is an `Error::Exec` through the sink on the
/// fast path (checked adds survive the columnar accumulators), and in the
/// generic tables of an `AggregateState`.
#[test]
fn fast_path_sink_surfaces_sum_overflow() {
    let aggs = vec![AggExpr {
        func: AggFunc::Sum,
        input: Some(Expr::col(1)),
        alias: "s".into(),
    }];
    let types = vec![DataType::Int64, DataType::Int64];
    let first = DataChunk::new(vec![
        Vector::from_i64(vec![3, 3]),
        Vector::from_i64(vec![i64::MAX, 0]),
    ]);
    let second = DataChunk::new(vec![Vector::from_i64(vec![3]), Vector::from_i64(vec![1])]);

    let factory = AggregateFactory::new(
        0,
        vec![0],
        aggs.clone(),
        types.clone(),
        Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("s", DataType::Int64),
        ]),
        vec![],
    );
    let ctx = ExecContext::new();
    let mut sink = factory.make(&ctx).unwrap();
    sink.sink(first.clone(), &ctx).unwrap();
    let err = sink.sink(second.clone(), &ctx).unwrap_err();
    assert!(err.to_string().contains("SUM"), "sink: {err}");
    assert!(ctx.metrics.summary().agg_fast_path_chunks > 0);

    let mut generic = AggregateState::with_fast_path(vec![0], aggs, &types, false).unwrap();
    assert!(!generic.is_fast());
    generic.update(&first).unwrap();
    let err = generic.update(&second).unwrap_err();
    assert!(err.to_string().contains("SUM"), "generic: {err}");
}

/// SUM overflow without GROUP BY is an `Error::Exec` too: the group-less
/// fold keeps the checked adds.
#[test]
fn groupless_sum_overflow_is_an_exec_error() {
    let factory = AggregateFactory::new(
        0,
        vec![],
        vec![AggExpr {
            func: AggFunc::Sum,
            input: Some(Expr::col(0)),
            alias: "s".into(),
        }],
        vec![DataType::Int64],
        Schema::new(vec![Field::new("s", DataType::Int64)]),
        vec![],
    );
    let ctx = ExecContext::new();
    let mut sink = factory.make(&ctx).unwrap();
    let one = |v: i64| DataChunk::new(vec![Vector::from_i64(vec![v])]);
    sink.sink(one(i64::MAX), &ctx).unwrap();
    let err = sink.sink(one(1), &ctx).unwrap_err();
    assert!(err.to_string().contains("SUM"), "{err}");
}

// ------------------------------------------------- reference accumulators

/// Strings of several lengths (the encoded-key order sorts by length
/// bytes first), one of them multi-byte.
const WORDS: [&str; 7] = ["", "a", "b", "ab", "ba", "zz", "é"];

/// Input columns of the reference chunks: two `Int64` group keys, then one
/// aggregate input per type the accumulators read.
const KEY_A: usize = 0;
const KEY_B: usize = 1;
const INPUTS: [(usize, DataType); 5] = [
    (2, DataType::Int64),
    (3, DataType::Float64),
    (4, DataType::Bool),
    (5, DataType::Utf8), // flat
    (6, DataType::Utf8), // dictionary-coded
];

/// COUNT(*), then COUNT, SUM, MIN, MAX and AVG of every input column.
fn reference_aggs() -> Vec<AggExpr> {
    let mut aggs = vec![AggExpr::count_star("star")];
    for (col, _) in INPUTS {
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            aggs.push(AggExpr {
                func,
                input: Some(Expr::col(col)),
                alias: format!("{func:?}_{col}"),
            });
        }
    }
    aggs
}

fn input_types() -> Vec<DataType> {
    let mut types = vec![DataType::Int64, DataType::Int64];
    types.extend(INPUTS.map(|(_, t)| t));
    types
}

/// A row-at-a-time fold over `ScalarValue`s, written from the SQL
/// semantics the engine documents (COUNT(x) skips NULLs, SUM of strings is
/// 0, AVG of booleans NULL, MIN/MAX keep the first of equal values).
#[derive(Debug)]
enum RefAcc {
    Count(i64),
    SumI(i64),
    SumF(f64),
    Extreme(std::cmp::Ordering, Option<ScalarValue>),
    Avg(f64, i64),
}

impl RefAcc {
    fn new(a: &AggExpr, types: &[DataType]) -> RefAcc {
        let float_input =
            a.input.as_ref().map(|e| e.data_type(types).unwrap()) == Some(DataType::Float64);
        match a.func {
            AggFunc::CountStar | AggFunc::Count => RefAcc::Count(0),
            AggFunc::Sum if float_input => RefAcc::SumF(0.0),
            AggFunc::Sum => RefAcc::SumI(0),
            AggFunc::Min => RefAcc::Extreme(std::cmp::Ordering::Less, None),
            AggFunc::Max => RefAcc::Extreme(std::cmp::Ordering::Greater, None),
            AggFunc::Avg => RefAcc::Avg(0.0, 0),
        }
    }

    /// `value` is `None` for COUNT(*).
    fn fold(&mut self, value: Option<&ScalarValue>) {
        let present = value.filter(|v| !v.is_null());
        match self {
            RefAcc::Count(c) => {
                if value.is_none() || present.is_some() {
                    *c += 1;
                }
            }
            RefAcc::SumI(s) => *s += present.and_then(ScalarValue::as_i64).unwrap_or(0),
            RefAcc::SumF(s) => {
                if let Some(x) = present.and_then(ScalarValue::as_f64) {
                    *s += x;
                }
            }
            RefAcc::Extreme(want, cur) => {
                if let Some(v) = present {
                    if cur
                        .as_ref()
                        .is_none_or(|c| v.partial_cmp_sql(c) == Some(*want))
                    {
                        *cur = Some(v.clone());
                    }
                }
            }
            RefAcc::Avg(sum, n) => {
                if let Some(x) = present.and_then(ScalarValue::as_f64) {
                    *sum += x;
                    *n += 1;
                }
            }
        }
    }

    fn result(&self) -> ScalarValue {
        match self {
            RefAcc::Count(c) | RefAcc::SumI(c) => ScalarValue::Int64(*c),
            RefAcc::SumF(s) => ScalarValue::Float64(*s),
            RefAcc::Extreme(_, v) => v.clone().unwrap_or(ScalarValue::Null),
            RefAcc::Avg(_, 0) => ScalarValue::Null,
            RefAcc::Avg(sum, n) => ScalarValue::Float64(*sum / *n as f64),
        }
    }
}

/// Reference chunks from `(key a, key b, value, flags)` rows: `value`
/// drives every input column (`Float64` = value / 4, `Bool` = even, the
/// strings = a word picked by it), flag bits 0..5 make key a, key b, the
/// `Int64`, `Float64`, `Bool` and string inputs NULL, and bit 6 drops the
/// row from the chunk's selection vector.
fn reference_chunks(
    rows: &[(i64, i64, i64, u8)],
    chunk_size: usize,
    dict: &Arc<Utf8Dict>,
) -> Vec<DataChunk> {
    rows.chunks(chunk_size)
        .map(|rs| {
            let nullable = |dt: DataType, bit: u8, f: &dyn Fn(i64) -> ScalarValue| {
                let mut v = Vector::new_empty(dt);
                for &(a, b, x, flags) in rs {
                    let value = match bit {
                        0 => f(a),
                        1 => f(b),
                        _ => f(x),
                    };
                    let null = flags & (1 << bit) != 0;
                    v.push(if null { &ScalarValue::Null } else { &value })
                        .unwrap();
                }
                v
            };
            let word = |x: i64| WORDS[x.rem_euclid(WORDS.len() as i64) as usize];
            let strings = nullable(DataType::Utf8, 5, &|x| ScalarValue::Utf8(word(x).into()));
            let codes = rs
                .iter()
                .map(|&(_, _, x, _)| dict.code_of(word(x)).unwrap() as i64)
                .collect();
            let coded = Vector::from_dict_codes(codes, strings.validity.clone(), dict.clone());
            let mut chunk = DataChunk::new(vec![
                nullable(DataType::Int64, 0, &ScalarValue::Int64),
                nullable(DataType::Int64, 1, &ScalarValue::Int64),
                nullable(DataType::Int64, 2, &ScalarValue::Int64),
                nullable(DataType::Float64, 3, &|x| {
                    ScalarValue::Float64(x as f64 / 4.0)
                }),
                nullable(DataType::Bool, 4, &|x| ScalarValue::Bool(x % 2 == 0)),
                strings,
                coded,
            ]);
            let kept: Vec<u32> = (0..rs.len() as u32)
                .filter(|&i| rs[i as usize].3 & (1 << 6) == 0)
                .collect();
            if kept.len() < rs.len() {
                chunk.set_selection(kept);
            }
            chunk
        })
        .collect()
}

/// Group key of a row or result row: the key columns as `Option<i64>`.
fn key_of(values: impl Iterator<Item = ScalarValue>) -> Vec<Option<i64>> {
    values.map(|v| v.as_i64()).collect()
}

/// Result rows keyed by their first `ng` (group) columns.
fn keyed(rows: Vec<Vec<ScalarValue>>, ng: usize) -> BTreeMap<Vec<Option<i64>>, Vec<ScalarValue>> {
    rows.into_iter()
        .map(|row| (key_of(row[..ng].iter().cloned()), row[ng..].to_vec()))
        .collect()
}

/// `aggs` over the logical rows of `chunks`, one row at a time, grouped by
/// `group_cols` (one group over no rows without GROUP BY).
fn reference_fold(
    group_cols: &[usize],
    aggs: &[AggExpr],
    types: &[DataType],
    chunks: &[DataChunk],
) -> BTreeMap<Vec<Option<i64>>, Vec<ScalarValue>> {
    let mut want: BTreeMap<Vec<Option<i64>>, Vec<RefAcc>> = BTreeMap::new();
    let fresh = || {
        aggs.iter()
            .map(|a| RefAcc::new(a, types))
            .collect::<Vec<_>>()
    };
    if group_cols.is_empty() {
        want.insert(vec![], fresh());
    }
    for c in chunks {
        for r in 0..c.num_rows() {
            let accs = want
                .entry(key_of(group_cols.iter().map(|&g| c.value(g, r))))
                .or_insert_with(fresh);
            for (acc, a) in accs.iter_mut().zip(aggs) {
                let input = a.input.as_ref().map(|e| match e {
                    Expr::Column(col) => c.value(*col, r),
                    _ => unreachable!("reference aggregates read columns"),
                });
                acc.fold(input.as_ref());
            }
        }
    }
    want.into_iter()
        .map(|(k, accs)| (k, accs.iter().map(RefAcc::result).collect()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every aggregate over every input type, on the group-less table, the
    /// fast table (one `Int64` key) and the generic table (two `Int64`
    /// keys), equals the reference fold — floats exactly: one worker keeps
    /// each group's rows in input order at every partition count.
    #[test]
    fn aggregates_match_row_at_a_time_reference(
        rows in proptest::collection::vec((0i64..6, 0i64..3, -60i64..60, 0u8..128), 0..160),
        chunk_size in 1usize..40,
        pc_exp in 0u32..4,
        table in 0usize..3,
    ) {
        let partitions = 1usize << pc_exp;
        let dict = Utf8Dict::from_values(WORDS);
        let chunks = reference_chunks(&rows, chunk_size, &dict);
        let sunk = chunks.iter().any(|c| c.num_rows() > 0);
        let group_cols = match table {
            0 => vec![],
            1 => vec![KEY_A],
            _ => vec![KEY_A, KEY_B],
        };
        let types = input_types();
        let aggs = reference_aggs();
        let want = reference_fold(&group_cols, &aggs, &types, &chunks);

        let mut fields: Vec<Field> = group_cols
            .iter()
            .map(|g| Field::new(format!("k{g}"), DataType::Int64))
            .collect();
        fields.extend(aggs.iter().map(|a| Field::new(a.alias.clone(), a.output_type(&types).unwrap())));
        let factory = AggregateFactory::new(
            0,
            group_cols.clone(),
            aggs.clone(),
            types.clone(),
            Schema::new(fields),
            vec![],
        );
        let (got, ctx) = run(&factory, partitions, vec![chunks]);
        let got = keyed(got, group_cols.len());
        prop_assert_eq!(&got, &want, "table {}, {} partitions", table, partitions);

        let m = ctx.metrics.summary();
        if sunk && table == 1 {
            prop_assert!(m.agg_fast_path_chunks > 0 && m.agg_generic_chunks == 0);
        } else {
            prop_assert!(m.agg_fast_path_chunks == 0);
        }
    }
}
