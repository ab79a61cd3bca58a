//! The statistics registration keeps (`StoredTable::stats`, read off the
//! block zone maps and the encoding's sort) against a row-at-a-time
//! reference computed from the raw vectors: min and max over the valid
//! values, the NULL count, and the exact distinct count. Every column of
//! the four generator workloads, their NULL-laced TPC-H tables, and the
//! edge shapes the generators do not make must agree exactly.

mod oracle;

use rpt_common::chunk::VECTOR_SIZE;
use rpt_common::{Field, ScalarValue, Schema, Vector};
use rpt_storage::{ColumnStats, StoredTable, Table, TableStats};
use rpt_workloads::{dsb, job, tpcds, tpch};
use std::collections::HashSet;

/// A valid value as a hashable key; floats by their bits.
#[derive(PartialEq, Eq, Hash)]
enum Key {
    Int(i64),
    Float(u64),
    Str(String),
    Bool(bool),
}

fn key(x: &ScalarValue) -> Key {
    match x {
        ScalarValue::Int64(v) => Key::Int(*v),
        ScalarValue::Float64(v) => Key::Float(v.to_bits()),
        ScalarValue::Utf8(v) => Key::Str(v.clone()),
        ScalarValue::Bool(v) => Key::Bool(*v),
        ScalarValue::Null => unreachable!("NULLs are counted, not keyed"),
    }
}

/// `a < b` for two valid values of one type.
fn less(a: &ScalarValue, b: &ScalarValue) -> bool {
    match (a, b) {
        (ScalarValue::Int64(a), ScalarValue::Int64(b)) => a < b,
        (ScalarValue::Float64(a), ScalarValue::Float64(b)) => a < b,
        (ScalarValue::Utf8(a), ScalarValue::Utf8(b)) => a < b,
        (ScalarValue::Bool(a), ScalarValue::Bool(b)) => a < b,
        _ => panic!("a column mixes types: {a:?} vs {b:?}"),
    }
}

/// One column's statistics, one row at a time.
fn reference(v: &Vector) -> ColumnStats {
    let mut stats = ColumnStats {
        min: ScalarValue::Null,
        max: ScalarValue::Null,
        distinct: 0,
        null_count: 0,
    };
    let mut seen = HashSet::new();
    for i in 0..v.len() {
        let x = v.get(i);
        if x.is_null() {
            stats.null_count += 1;
            continue;
        }
        if stats.min.is_null() || less(&x, &stats.min) {
            stats.min = x.clone();
        }
        if stats.max.is_null() || less(&stats.max, &x) {
            stats.max = x.clone();
        }
        seen.insert(key(&x));
    }
    stats.distinct = seen.len() as u64;
    stats
}

/// Registration's statistics of `table` equal the reference, column by
/// column.
fn check(table: &Table) {
    let want = TableStats {
        num_rows: table.num_rows() as u64,
        columns: table.columns.iter().map(reference).collect(),
    };
    let stored = StoredTable::new(table.clone());
    let got = stored.stats();
    assert_eq!(got.num_rows, want.num_rows, "{}", table.name);
    for (c, w) in want.columns.iter().enumerate() {
        let field = &table.schema.field(c).name;
        assert_eq!(got.column(c), w, "{}.{field}", table.name);
    }
    assert_eq!(*got, want, "{}", table.name);
}

fn table(cols: Vec<(&str, Vector)>) -> Table {
    let schema = Schema::new(
        cols.iter()
            .map(|(n, v)| Field::new(*n, v.data_type()))
            .collect(),
    );
    Table::new("t", schema, cols.into_iter().map(|(_, v)| v).collect()).unwrap()
}

fn with_validity(mut v: Vector, valid: impl Fn(usize) -> bool) -> Vector {
    v.validity = Some((0..v.len()).map(valid).collect());
    v
}

#[test]
fn generator_columns_match_the_reference() {
    for w in [tpch(0.05, 42), tpcds(0.05, 7), job(0.05, 5), dsb(0.05, 9)] {
        for t in &w.tables {
            check(t);
        }
    }
}

#[test]
fn null_laced_tpch_columns_match_the_reference() {
    for t in &oracle::with_nulls(&tpch(0.05, 42).tables) {
        check(t);
    }
}

#[test]
fn empty_and_all_null_columns() {
    check(&table(vec![
        ("i", Vector::from_i64(vec![])),
        ("f", Vector::from_f64(vec![])),
        ("s", Vector::from_utf8(vec![])),
        ("b", Vector::from_bool(vec![])),
    ]));
    let n = VECTOR_SIZE + 5;
    let all_null = table(vec![
        ("i", with_validity(Vector::from_i64(vec![3; n]), |_| false)),
        (
            "f",
            with_validity(Vector::from_f64(vec![1.5; n]), |_| false),
        ),
        (
            "s",
            with_validity(Vector::from_utf8(vec!["x".into(); n]), |_| false),
        ),
        (
            "b",
            with_validity(Vector::from_bool(vec![true; n]), |_| false),
        ),
    ]);
    check(&all_null);
    let s = StoredTable::new(all_null);
    assert_eq!(s.stats().column(0).null_count, n as u64);
    assert!(s.stats().column(2).max.is_null());
}

/// More distinct strings than a dictionary takes: the column stays raw,
/// and its distinct count comes from the same sort that declined it.
#[test]
fn high_cardinality_utf8_column_without_a_dictionary() {
    let n = 80_000usize;
    let v = with_validity(
        Vector::from_utf8((0..n).map(|i| format!("s{:05}", (i * 3) % n)).collect()),
        |i| i % 11 != 3,
    );
    let t = table(vec![("s", v)]);
    check(&t);
    let s = StoredTable::new(t);
    assert!(s.encoded().columns[0].dict.is_none());
    assert!(s.stats().column(0).distinct > 65_536);
}

#[test]
fn bool_columns() {
    let n = 2 * VECTOR_SIZE + 9;
    check(&table(vec![
        (
            "both",
            Vector::from_bool((0..n).map(|i| i % 3 == 0).collect()),
        ),
        ("true", Vector::from_bool(vec![true; n])),
        ("false", Vector::from_bool(vec![false; n])),
        // the only `false` sits in the last block, after blocks of NULLs
        // and `true`s
        (
            "late_false",
            with_validity(
                Vector::from_bool((0..n).map(|i| i != n - 1).collect()),
                |i| i >= VECTOR_SIZE,
            ),
        ),
    ]));
}

/// Min and max lie in different blocks, away from the first, so only a
/// fold over every block's zone map finds them.
#[test]
fn multi_block_columns_with_min_and_max_in_different_blocks() {
    let n = 4 * VECTOR_SIZE + 17;
    let max_at = VECTOR_SIZE + 3;
    let min_at = 3 * VECTOR_SIZE + 100;
    let int = |i: usize| match i {
        _ if i == max_at => 1_000_000,
        _ if i == min_at => -1_000_000,
        _ => (i % 1000) as i64,
    };
    let t = table(vec![
        ("i", Vector::from_i64((0..n).map(int).collect())),
        (
            "i_nulls",
            with_validity(Vector::from_i64((0..n).map(int).collect()), |i| i % 5 != 0),
        ),
        (
            "f",
            Vector::from_f64((0..n).map(|i| int(i) as f64 / 4.0).collect()),
        ),
        (
            "s",
            Vector::from_utf8(
                (0..n)
                    .map(|i| match i {
                        _ if i == max_at => "zzz".to_string(),
                        _ if i == min_at => "aaa".to_string(),
                        _ => format!("m{}", i % 50),
                    })
                    .collect(),
            ),
        ),
    ]);
    check(&t);
    let s = StoredTable::new(t);
    assert_eq!(s.encoded().num_blocks(), 5);
    let i = s.stats().column(0);
    assert_eq!(
        (&i.min, &i.max),
        (
            &ScalarValue::Int64(-1_000_000),
            &ScalarValue::Int64(1_000_000)
        )
    );
    assert_eq!(s.stats().column(3).max, ScalarValue::Utf8("zzz".into()));
    assert_eq!(s.stats().column(1).null_count, n.div_ceil(5) as u64);
}
