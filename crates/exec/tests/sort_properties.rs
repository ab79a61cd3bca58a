//! Property tests for the partitioned sort/TopK sink: random typed rows
//! (with NULLs) × random keys over any column × random directions ×
//! random partition and worker counts must produce exactly the rows
//! `sort_unstable_by` yields under the engine's published total order
//! (`cmp_scalar_rows`) on the gathered input, sliced by OFFSET/LIMIT — and
//! a TopK whose limit covers every row must equal the full sort.
//!
//! The columns cover every normalized-key case: `Int64`; `Float64` with
//! NaN, ±0.0, ±inf; a flat `Utf8` column (compared value by value); `Bool`;
//! and a dictionary `Utf8` column whose chunks share one dictionary or
//! switch to a second one with different codes in some chunks.

use proptest::prelude::*;
use rpt_common::{DataChunk, DataType, Field, ScalarValue, Schema, Utf8Dict, Vector};
use rpt_exec::{cmp_scalar_rows, ExecContext, Resources, SinkFactory, SortKey, SortSinkFactory};
use std::sync::Arc;

const WORDS: [&str; 6] = ["ash", "birch", "cedar", "elm", "oak", "yew"];

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("x", DataType::Float64),
        Field::new("s", DataType::Utf8),
        Field::new("b", DataType::Bool),
        Field::new("d", DataType::Utf8),
    ])
}

/// One generated row: `(key, roll, tag, roll2)`. `key` is the `Int64`
/// column; `roll` picks NULLs and the float; `tag` derives the flat
/// string; `roll2` the bool and the dictionary word.
type Row = (i64, u32, i64, u32);

fn float_of(roll: u32, tag: i64) -> f64 {
    match (roll / 5) % 12 {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => 0.0,
        3 => -0.0,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        _ => tag as f64 / 7.0,
    }
}

/// A validity mask over `rows` that is NULL where `null` holds, or none
/// when no row is NULL.
fn mask(rows: &[Row], null: impl Fn(&Row) -> bool) -> Option<Vec<bool>> {
    rows.iter()
        .any(&null)
        .then(|| rows.iter().map(|r| !null(r)).collect())
}

/// The rows as a chunk whose dictionary column codes into `dict`.
fn chunk_of(rows: &[Row], dict: &Arc<Utf8Dict>) -> DataChunk {
    let with = |mut v: Vector, validity: Option<Vec<bool>>| {
        v.validity = validity;
        v
    };
    let word = |&(_, _, _, r2): &Row| WORDS[(r2 % 6) as usize];
    DataChunk::new(vec![
        with(
            Vector::from_i64(rows.iter().map(|r| r.0).collect()),
            mask(rows, |r| r.1 % 5 == 0),
        ),
        with(
            Vector::from_f64(rows.iter().map(|r| float_of(r.1, r.2)).collect()),
            mask(rows, |r| (r.1 / 60) % 6 == 0),
        ),
        Vector::from_utf8(
            rows.iter()
                .map(|r| format!("s{:03}", r.2.rem_euclid(40)))
                .collect(),
        ),
        with(
            Vector::from_bool(rows.iter().map(|r| r.3 % 2 == 0).collect()),
            mask(rows, |r| r.3 % 7 == 0),
        ),
        Vector::from_dict_codes(
            rows.iter()
                .map(|r| i64::from(dict.code_of(word(r)).expect("word in dictionary")))
                .collect(),
            mask(rows, |r| (r.3 / 7) % 6 == 0),
            dict.clone(),
        ),
    ])
}

/// Split into `chunk_size` chunks dealt round-robin across `workers`.
/// Every `second_dict`-th chunk (never when 0) codes its dictionary
/// column into a second dictionary whose codes differ from the first's.
fn worker_chunks(
    rows: &[Row],
    chunk_size: usize,
    workers: usize,
    second_dict: usize,
) -> Vec<Vec<DataChunk>> {
    let shared = Utf8Dict::from_values(WORDS);
    let other = Utf8Dict::from_values(WORDS.iter().chain(&["alder", "fir"]).copied());
    let mut per_worker: Vec<Vec<DataChunk>> = vec![Vec::new(); workers];
    for (i, ck) in rows.chunks(chunk_size.max(1)).enumerate() {
        let dict = if second_dict > 0 && i % second_dict == second_dict - 1 {
            &other
        } else {
            &shared
        };
        per_worker[i % workers].push(chunk_of(ck, dict));
    }
    per_worker
}

/// Drive the sink exactly as the pipeline driver does and return the
/// published output rows in order.
fn run_engine(
    factory: &SortSinkFactory,
    ctx: &ExecContext,
    per_worker: Vec<Vec<DataChunk>>,
) -> Vec<Vec<ScalarValue>> {
    let res = Resources::new(1, 0, 0);
    let mut states = Vec::new();
    for chunks in per_worker {
        let mut s = factory.make(ctx).expect("make");
        for c in chunks {
            s.sink(c, ctx).expect("sink");
        }
        states.push(s);
    }
    factory.merge_partitioned(states, ctx, &res).expect("merge");
    res.buffer(0)
        .expect("buffer")
        .iter()
        .flat_map(|c| c.rows())
        .collect()
}

fn reference(
    rows: &[Row],
    keys: &[SortKey],
    limit: Option<usize>,
    offset: usize,
) -> Vec<Vec<ScalarValue>> {
    let mut all: Vec<Vec<ScalarValue>> = chunk_of(rows, &Utf8Dict::from_values(WORDS)).rows();
    all.sort_unstable_by(|a, b| cmp_scalar_rows(keys, a, b));
    let lo = offset.min(all.len());
    let hi = limit
        .map(|l| lo.saturating_add(l).min(all.len()))
        .unwrap_or(all.len());
    all[lo..hi].to_vec()
}

/// Rows with floats replaced by their bit patterns, so that NaN equals
/// itself and -0.0 differs from 0.0 when rows are compared.
fn bitwise(rows: Vec<Vec<ScalarValue>>) -> Vec<Vec<ScalarValue>> {
    rows.into_iter()
        .map(|r| {
            r.into_iter()
                .map(|v| match v {
                    ScalarValue::Float64(x) => ScalarValue::Utf8(format!("{:#x}", x.to_bits())),
                    v => v,
                })
                .collect()
        })
        .collect()
}

fn sort_keys(drawn: &[(usize, bool, bool)]) -> Vec<SortKey> {
    drawn
        .iter()
        .map(|&(col, desc, nulls_first)| SortKey {
            col,
            desc,
            nulls_first,
        })
        .collect()
}

fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec((-25i64..25, 0u32..1000, -100i64..100, 0u32..1000), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine's output is byte-identical to `sort_unstable_by` under
    /// the same total order, regardless of partitioning, worker count,
    /// chunking or dictionary mix — for keys over any column, including
    /// NULL keys in either declared placement.
    #[test]
    fn sort_sink_matches_sort_unstable_by(
        rows in rows_strategy(180),
        shape in (1usize..40, 0u32..4, 1usize..4, 0usize..4),
        drawn in proptest::collection::vec((0usize..5, proptest::bool::ANY, proptest::bool::ANY), 1..4),
        limit_roll in 0usize..80,
        offset in 0usize..6,
    ) {
        let (chunk_size, pc_exp, workers, second_dict) = shape;
        let partitions = 1usize << pc_exp;
        let keys = sort_keys(&drawn);
        // ~1/3 full sorts, the rest TopK with a small bound.
        let limit = if limit_roll < 27 { None } else { Some(limit_roll - 27) };
        let expected = bitwise(reference(&rows, &keys, limit, offset));

        let factory = SortSinkFactory::new(0, keys.clone(), limit, offset, schema());
        let ctx = ExecContext::new()
            .with_threads(workers)
            .with_partitions(partitions);
        let chunks = worker_chunks(&rows, chunk_size, workers, second_dict);
        let got = bitwise(run_engine(&factory, &ctx, chunks));
        prop_assert_eq!(&expected, &got,
            "partitions={} workers={} chunk={} second_dict={} keys={:?} limit={:?} offset={}",
            partitions, workers, chunk_size, second_dict, keys, limit, offset);

        // The TopK bound held on every run the sink kept.
        if let Some(l) = limit {
            let m = ctx.metrics.summary();
            prop_assert!(
                m.sort_max_run_rows <= (l + offset) as u64,
                "run of {} rows exceeds bound {}", m.sort_max_run_rows, l + offset
            );
        }
    }

    /// A TopK whose limit covers the whole input is exactly the full sort.
    #[test]
    fn topk_with_covering_limit_is_full_sort(
        rows in rows_strategy(120),
        shape in (1usize..40, 0u32..4, 1usize..4, 0usize..4),
        drawn in proptest::collection::vec((0usize..5, proptest::bool::ANY, proptest::bool::ANY), 1..3),
        slack in 0usize..10,
    ) {
        let (chunk_size, pc_exp, workers, second_dict) = shape;
        let partitions = 1usize << pc_exp;
        let keys = sort_keys(&drawn);

        let full = SortSinkFactory::new(0, keys.clone(), None, 0, schema());
        let ctx = ExecContext::new()
            .with_threads(workers)
            .with_partitions(partitions);
        let chunks = worker_chunks(&rows, chunk_size, workers, second_dict);
        let full_rows = bitwise(run_engine(&full, &ctx, chunks.clone()));

        let topk = SortSinkFactory::new(0, keys, Some(rows.len() + slack), 0, schema());
        let ctx = ExecContext::new()
            .with_threads(workers)
            .with_partitions(partitions);
        let topk_rows = bitwise(run_engine(&topk, &ctx, chunks));

        prop_assert_eq!(full_rows, topk_rows);
    }

    /// With one partition and one worker every row past the bound is
    /// counted exactly once, whether the TopK boundary rejected it before
    /// it was copied or a cut or the final sort dropped it.
    #[test]
    fn topk_counts_every_pruned_row(
        rows in rows_strategy(400),
        chunk_size in 1usize..64,
        drawn in proptest::collection::vec((0usize..5, proptest::bool::ANY, proptest::bool::ANY), 1..3),
        bound in 0usize..30,
        second_dict in 0usize..4,
    ) {
        let keys = sort_keys(&drawn);
        let factory = SortSinkFactory::new(0, keys.clone(), Some(bound), 0, schema());
        let ctx = ExecContext::new().with_threads(1).with_partitions(1);
        let got = run_engine(&factory, &ctx, worker_chunks(&rows, chunk_size, 1, second_dict));
        let n = rows.len();
        prop_assert_eq!(got.len(), n.min(bound));
        let m = ctx.metrics.summary();
        prop_assert_eq!(m.sort_rows_pruned, (n - n.min(bound)) as u64,
            "rows={} bound={} chunk={} keys={:?}", n, bound, chunk_size, keys);
    }
}
