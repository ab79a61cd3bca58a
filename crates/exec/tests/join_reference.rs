//! Property tests: the hash-join probe and the exact semi-join must agree
//! with a naive nested-loop reference — pairs in (probe row, ascending
//! build row) order, not merely as a set — over NULL keys on either side,
//! duplicate-heavy keys (long chains), composite `Int64` + `Utf8` keys,
//! every mix of flat and dictionary string encodings, probe chunks behind a
//! selection vector, builds from several chunks, and small tables probed by
//! large inputs that mostly miss; and the table an 8-partition
//! [`HashBuildFactory`] sink and merge assemble from the same chunks must
//! answer exactly like the single table. `Int64` keys come dense, which
//! builds a direct directory, and spread over the whole `i64` domain,
//! `i64::MIN` and `i64::MAX` included, which builds a hashed one; every
//! table is checked to be of the kind its keys call for.
//!
//! The reference is a nested loop of its own rather than the repo-level
//! test oracle (`tests/oracle/`): the oracle evaluates bound SQL over
//! whole tables and returns result rows, so it cannot see what these
//! tests pin below SQL — the (probe row, build row) pair order, probe
//! chunks behind a selection vector, and the build table a partitioned
//! sink assembles from its chunks.

use proptest::prelude::*;
use rpt_common::{DataChunk, DataType, Field, ScalarValue, Schema, Utf8Dict, Vector, VECTOR_SIZE};
use rpt_exec::operators::hash_build::HashBuildFactory;
use rpt_exec::{ExecContext, JoinHashTable, Resources, SinkFactory};
use std::sync::Arc;

/// A key value as the tests describe it: a small integer, `None` = NULL
/// (generated as -1).
type Key = Option<i64>;

fn keys(raw: &[i64]) -> Vec<Key> {
    raw.iter().map(|&v| (v >= 0).then_some(v)).collect()
}

/// How a key column is laid out in a [`Vector`]. `Int64` stores key `v`
/// as `v`; `Spread` as [`spread`]`(v)`. The string layouts spell key `v` as
/// `"k{v}"`; the two dictionaries hold the same keys under different
/// codes.
#[derive(Clone, Copy, Debug)]
enum Enc {
    Int64,
    Spread,
    Flat,
    Dict(usize),
}

/// Key `v` spread over the `i64` domain, one-to-one on the keys the tests
/// draw: 0 and 1 go to `i64::MIN` and `i64::MAX`, and any two keys lie
/// more than 2^31 apart, so a table over two distinct keys is hashed.
fn spread(v: i64) -> i64 {
    match v {
        0 => i64::MIN,
        1 => i64::MAX,
        v => v * 0x9E37_79B9,
    }
}

const STRING_ENCS: [Enc; 3] = [Enc::Flat, Enc::Dict(0), Enc::Dict(1)];

fn dicts() -> [Arc<Utf8Dict>; 2] {
    let spelled = || (0..8).map(|v| format!("k{v}"));
    [
        Utf8Dict::from_values(spelled()),
        Utf8Dict::from_values(spelled().chain(["a".to_string(), "k3x".to_string()])),
    ]
}

fn vector(col: &[Key], enc: Enc, dicts: &[Arc<Utf8Dict>; 2]) -> Vector {
    match enc {
        Enc::Int64 | Enc::Spread => {
            let value = |k: i64| match enc {
                Enc::Spread => spread(k),
                _ => k,
            };
            let mut v = Vector::new_empty(DataType::Int64);
            for k in col {
                v.push(&k.map_or(ScalarValue::Null, |k| ScalarValue::Int64(value(k))))
                    .unwrap();
            }
            v
        }
        Enc::Flat => {
            let mut v = Vector::new_empty(DataType::Utf8);
            for k in col {
                v.push(&k.map_or(ScalarValue::Null, |k| ScalarValue::Utf8(format!("k{k}"))))
                    .unwrap();
            }
            v
        }
        Enc::Dict(d) => {
            let code =
                |k: &Key| k.map_or(0, |k| dicts[d].code_of(&format!("k{k}")).unwrap() as i64);
            let validity = col
                .iter()
                .any(Option::is_none)
                .then(|| col.iter().map(Option::is_some).collect());
            Vector::from_dict_codes(col.iter().map(code).collect(), validity, dicts[d].clone())
        }
    }
}

/// One side of a join: its key columns and how each is encoded.
struct Side {
    cols: Vec<Vec<Key>>,
    encs: Vec<Enc>,
}

impl Side {
    fn rows(&self) -> usize {
        self.cols[0].len()
    }

    fn row(&self, i: usize) -> Vec<Key> {
        self.cols.iter().map(|c| c[i]).collect()
    }

    /// Should a table built over this side index its directory directly?
    /// Only a single `Int64` key can: dense keys whenever one is non-NULL,
    /// spread keys when all the non-NULL ones are equal.
    fn direct(&self) -> bool {
        let mut present: Vec<i64> = self.cols[0].iter().flatten().copied().collect();
        present.sort_unstable();
        present.dedup();
        match self.encs.as_slice() {
            [Enc::Int64] => !present.is_empty(),
            [Enc::Spread] => present.len() == 1,
            _ => false,
        }
    }

    /// Key columns followed by a payload column holding the row number.
    fn chunk(&self, dicts: &[Arc<Utf8Dict>; 2]) -> DataChunk {
        let mut columns: Vec<Vector> = self
            .cols
            .iter()
            .zip(&self.encs)
            .map(|(c, &e)| vector(c, e, dicts))
            .collect();
        columns.push(Vector::from_i64((0..self.rows() as i64).collect()));
        DataChunk::new(columns)
    }
}

/// Rows `offset..offset + len` of a flat chunk.
fn slice(chunk: &DataChunk, offset: usize, len: usize) -> DataChunk {
    DataChunk::new(chunk.columns.iter().map(|c| c.slice(offset, len)).collect())
}

/// Nested-loop join of the probe side's rows `sel` against every build row:
/// `(logical probe row, build row)`, NULL in any key column matching
/// nothing.
fn reference_join(build: &Side, probe: &Side, sel: &[u32]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (logical, &p) in sel.iter().enumerate() {
        let pk = probe.row(p as usize);
        if pk.iter().any(Option::is_none) {
            continue;
        }
        for b in 0..build.rows() {
            if build.row(b) == pk {
                out.push((logical as u32, b as u32));
            }
        }
    }
    out
}

/// Build `build` from `pieces` chunks, probe it with `probe` behind the
/// selection `sel` (`None` = every row), and hold every entry point to the
/// reference.
fn check(
    build: &Side,
    probe: &Side,
    pieces: usize,
    sel: Option<Vec<u32>>,
) -> Result<(), TestCaseError> {
    let dicts = dicts();
    let key_cols: Vec<usize> = (0..build.cols.len()).collect();
    let payload = key_cols.len();
    // `pieces` build chunks of near-equal length (one empty chunk for an
    // empty build side).
    let whole = build.chunk(&dicts);
    let step = build.rows().div_ceil(pieces).max(1);
    let build_chunks: Vec<DataChunk> = (0..build.rows().max(1))
        .step_by(step)
        .map(|o| slice(&whole, o, step.min(build.rows() - o)))
        .collect();
    let mut probe_chunk = probe.chunk(&dicts);
    let all: Vec<u32> = (0..probe.rows() as u32).collect();
    let want = reference_join(build, probe, sel.as_deref().unwrap_or(&all));
    if let Some(sel) = sel {
        probe_chunk.set_selection(sel);
    }

    let table = JoinHashTable::build(&build_chunks, key_cols.clone()).unwrap();
    prop_assert_eq!(table.num_rows(), build.rows());
    prop_assert_eq!(table.is_direct(), build.direct(), "directory kind");
    let (mut p_out, mut b_out) = (vec![], vec![]);
    table.probe(&probe_chunk, &key_cols, &mut p_out, &mut b_out);
    let got: Vec<(u32, u32)> = p_out.iter().copied().zip(b_out.iter().copied()).collect();
    prop_assert_eq!(&got, &want, "probe pairs, in order");

    let mut want_semi: Vec<u32> = want.iter().map(|&(p, _)| p).collect();
    want_semi.dedup();
    prop_assert_eq!(table.semi_probe(&probe_chunk, &key_cols), want_semi.clone());

    // The same build chunks through the partitioned sink: radix-routed
    // eight ways into write-combined runs, one merge task per partition
    // (most of them empty at these sizes), one table assembled at the end.
    // Its row ids follow partition order; the payload is the row number in
    // the input, so gathering it names the match.
    let fields = whole.columns.iter().enumerate();
    let schema = Schema::new(
        fields
            .map(|(i, c)| Field::new(format!("c{i}"), c.data_type()))
            .collect(),
    );
    let factory = HashBuildFactory::new(0, key_cols.clone(), schema, vec![]);
    let ctx = ExecContext::new().with_partitions(8);
    let res = Resources::with_partitions(0, 0, 1, 8);
    let mut sink = factory.make(&ctx).unwrap();
    for chunk in &build_chunks {
        sink.sink(chunk.clone(), &ctx).unwrap();
    }
    factory.merge_partitioned(vec![sink], &ctx, &res).unwrap();
    let assembled = res.hash_table(0).unwrap();
    prop_assert_eq!(assembled.num_rows(), build.rows());
    prop_assert_eq!(
        assembled.is_direct(),
        build.direct(),
        "assembled directory kind"
    );
    prop_assert_eq!(assembled.data.num_columns(), payload + 1);
    let (mut pp_out, mut rows) = (vec![], vec![]);
    assembled.probe(&probe_chunk, &key_cols, &mut pp_out, &mut rows);
    prop_assert_eq!(&pp_out, &p_out, "assembled probe rows");
    let matched = assembled.data.columns[payload].take(&rows);
    let matched: Vec<u32> = matched.i64_slice().iter().map(|&r| r as u32).collect();
    prop_assert_eq!(&matched, &b_out, "assembled build rows, in order");
    prop_assert_eq!(assembled.semi_probe(&probe_chunk, &key_cols), want_semi);
    Ok(())
}

/// A selection over `n` physical rows from one bit per row of `mask`
/// (ascending, possibly empty); `None` when `use_sel` is off.
fn selection(use_sel: bool, mask: u64, n: usize) -> Option<Vec<u32>> {
    use_sel.then(|| {
        (0..n as u32)
            .filter(|i| mask >> (i % 64) & 1 == 1)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// One `Int64` key, NULLs on both sides, few distinct values over up
    /// to 300 build rows: every chain is long. Dense keys build a direct
    /// directory, spread ones a hashed one; probe keys fall below, inside
    /// and above the build's range.
    #[test]
    fn int64_key_with_nulls_and_long_chains(
        build in proptest::collection::vec(-1i64..4, 0..300),
        probe in proptest::collection::vec(-1i64..6, 0..40),
        spread in proptest::bool::ANY,
        pieces in 1usize..5,
        use_sel in proptest::bool::ANY,
        mask in 0u64..u64::MAX,
    ) {
        let sel = selection(use_sel, mask, probe.len());
        let enc = if spread { Enc::Spread } else { Enc::Int64 };
        let build = Side { cols: vec![keys(&build)], encs: vec![enc] };
        let probe = Side { cols: vec![keys(&probe)], encs: vec![enc] };
        check(&build, &probe, pieces, sel)?;
    }

    /// One string key under every pairing of flat, dictionary and
    /// other-dictionary encodings.
    #[test]
    fn string_key_across_encodings(
        build in proptest::collection::vec(-1i64..8, 0..60),
        probe in proptest::collection::vec(-1i64..8, 0..40),
        encs in (0usize..3, 0usize..3),
        pieces in 1usize..4,
        use_sel in proptest::bool::ANY,
        mask in 0u64..u64::MAX,
    ) {
        let sel = selection(use_sel, mask, probe.len());
        let build = Side { cols: vec![keys(&build)], encs: vec![STRING_ENCS[encs.0]] };
        let probe = Side { cols: vec![keys(&probe)], encs: vec![STRING_ENCS[encs.1]] };
        check(&build, &probe, pieces, sel)?;
    }

    /// Composite key: an `Int64` column and a string column, NULLs in
    /// either position on either side.
    #[test]
    fn composite_int64_utf8_key(
        build in proptest::collection::vec((-1i64..3, -1i64..3), 0..80),
        probe in proptest::collection::vec((-1i64..3, -1i64..3), 0..40),
        encs in (0usize..3, 0usize..3),
        pieces in 1usize..4,
        use_sel in proptest::bool::ANY,
        mask in 0u64..u64::MAX,
    ) {
        let sel = selection(use_sel, mask, probe.len());
        let side = |rows: &[(i64, i64)], enc: Enc| Side {
            cols: vec![
                keys(&rows.iter().map(|r| r.0).collect::<Vec<_>>()),
                keys(&rows.iter().map(|r| r.1).collect::<Vec<_>>()),
            ],
            encs: vec![Enc::Int64, enc],
        };
        check(&side(&build, STRING_ENCS[encs.0]), &side(&probe, STRING_ENCS[encs.1]), pieces, sel)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A small table probed by a large input whose keys mostly miss — what
    /// a build side chosen by estimate gives: 1–64 build rows against more
    /// than one vector of probe rows, probed chunk by chunk, with NULLs on
    /// both sides, as dense or spread `Int64` keys or flat string keys.
    #[test]
    fn small_build_large_mostly_missing_probe(
        build in proptest::collection::vec(-8i64..256, 1..=64),
        probe in proptest::collection::vec(-100i64..4096, VECTOR_SIZE + 1..3 * VECTOR_SIZE),
        enc in 0usize..3,
        pieces in 1usize..3,
        use_sel in proptest::bool::ANY,
        mask in 0u64..u64::MAX,
    ) {
        let enc = [Enc::Int64, Enc::Spread, Enc::Flat][enc];
        let build = Side { cols: vec![keys(&build)], encs: vec![enc] };
        for (c, rows) in probe.chunks(VECTOR_SIZE).enumerate() {
            let sel = selection(use_sel, mask.rotate_left(c as u32), rows.len());
            let probe = Side { cols: vec![keys(rows)], encs: vec![enc] };
            check(&build, &probe, pieces, sel)?;
        }
    }
}
