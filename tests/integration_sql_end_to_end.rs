//! SQL feature coverage, end-to-end: every surface-area feature of the
//! dialect exercised through parse → bind → optimize → plan → execute,
//! verified against hand-computed answers.

mod oracle;

use oracle::Fixture;
use rpt_common::{DataType, Field, ScalarValue, Schema, Vector};
use rpt_core::{Database, Mode, QueryOptions};
use rpt_storage::encode::DICT_MAX_DISTINCT;
use rpt_storage::Table;

fn db() -> Database {
    let mut db = Database::new();
    db.register_table(
        Table::new(
            "emp",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("dept_id", DataType::Int64),
                Field::new("name", DataType::Utf8),
                Field::new("salary", DataType::Float64),
                Field::new("active", DataType::Bool),
            ]),
            vec![
                Vector::from_i64((0..12).collect()),
                Vector::from_i64((0..12).map(|i| i % 3).collect()),
                Vector::from_utf8(
                    (0..12)
                        .map(|i| {
                            if i % 4 == 0 {
                                format!("Anna{i}")
                            } else {
                                format!("Bob{i}")
                            }
                        })
                        .collect(),
                ),
                Vector::from_f64((0..12).map(|i| 1000.0 + 100.0 * i as f64).collect()),
                Vector::from_bool((0..12).map(|i| i % 2 == 0).collect()),
            ],
        )
        .expect("valid emp table"),
    );
    db.register_table(
        Table::new(
            "dept",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ]),
            vec![
                Vector::from_i64(vec![0, 1, 2]),
                Vector::from_utf8(vec!["eng".into(), "ops".into(), "hr".into()]),
            ],
        )
        .expect("valid dept table"),
    );
    db
}

/// Run under RPT and return the rows exactly as the engine ordered them —
/// queries that need a defined order say so with ORDER BY.
fn q(db: &Database, sql: &str) -> Vec<Vec<ScalarValue>> {
    db.query(sql, &QueryOptions::new(Mode::RobustPredicateTransfer))
        .unwrap_or_else(|e| panic!("query failed: {e}\n{sql}"))
        .rows
}

#[test]
fn projection_and_aliases() {
    let db = db();
    let rows = q(
        &db,
        "SELECT e.name AS who, e.salary FROM emp e WHERE e.id = 3",
    );
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], ScalarValue::Utf8("Bob3".into()));
    assert_eq!(rows[0][1], ScalarValue::Float64(1300.0));
    let r = db
        .query(
            "SELECT e.name AS who FROM emp e WHERE e.id = 0",
            &QueryOptions::new(Mode::Baseline),
        )
        .unwrap();
    assert_eq!(r.schema.fields[0].name, "who");
}

#[test]
fn aggregates_global_and_grouped() {
    let db = db();
    let rows = q(
        &db,
        "SELECT COUNT(*), SUM(emp.salary), MIN(emp.id), MAX(emp.id), AVG(emp.salary) FROM emp",
    );
    assert_eq!(rows[0][0], ScalarValue::Int64(12));
    assert_eq!(rows[0][2], ScalarValue::Int64(0));
    assert_eq!(rows[0][3], ScalarValue::Int64(11));
    let grouped = q(
        &db,
        "SELECT d.name, COUNT(*) AS c FROM emp e, dept d \
         WHERE e.dept_id = d.id GROUP BY d.name ORDER BY d.name",
    );
    assert_eq!(
        grouped,
        vec![
            vec![ScalarValue::Utf8("eng".into()), ScalarValue::Int64(4)],
            vec![ScalarValue::Utf8("hr".into()), ScalarValue::Int64(4)],
            vec![ScalarValue::Utf8("ops".into()), ScalarValue::Int64(4)],
        ]
    );
}

#[test]
fn order_by_limit_offset() {
    let db = db();
    // Plain scan: top salaries descending, skipping the single highest.
    let rows = q(
        &db,
        "SELECT e.id, e.salary FROM emp e ORDER BY e.salary DESC LIMIT 3 OFFSET 1",
    );
    assert_eq!(
        rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
        vec![
            ScalarValue::Int64(10),
            ScalarValue::Int64(9),
            ScalarValue::Int64(8)
        ]
    );
    // Ordinal key, ascending default.
    let rows = q(&db, "SELECT e.name, e.id FROM emp e ORDER BY 2 LIMIT 2");
    assert_eq!(rows[0][1], ScalarValue::Int64(0));
    assert_eq!(rows[1][1], ScalarValue::Int64(1));
    // Joins + GROUP BY + ORDER BY an aggregate alias + LIMIT, end to end.
    let rows = q(
        &db,
        "SELECT d.name, SUM(e.salary) AS s FROM emp e, dept d \
         WHERE e.dept_id = d.id GROUP BY d.name ORDER BY s DESC LIMIT 2",
    );
    assert_eq!(
        rows,
        vec![
            vec![ScalarValue::Utf8("hr".into()), ScalarValue::Float64(6600.0)],
            vec![
                ScalarValue::Utf8("ops".into()),
                ScalarValue::Float64(6200.0)
            ],
        ]
    );
    // LIMIT without ORDER BY: any 5 rows, deterministically chosen.
    let rows = q(&db, "SELECT e.id FROM emp e LIMIT 5");
    assert_eq!(rows.len(), 5);
    // The TopK bound kept every sort run at limit + offset rows or fewer.
    let r = db
        .query(
            "SELECT e.id FROM emp e ORDER BY e.id LIMIT 3 OFFSET 1",
            &QueryOptions::new(Mode::RobustPredicateTransfer),
        )
        .expect("topk query");
    assert!(r.metrics.sort_max_run_rows <= 4, "{:?}", r.metrics);
}

#[test]
fn where_features() {
    let db = db();
    // IN list
    assert_eq!(
        q(&db, "SELECT COUNT(*) FROM emp WHERE emp.id IN (1, 3, 5)")[0][0],
        ScalarValue::Int64(3)
    );
    // BETWEEN
    assert_eq!(
        q(
            &db,
            "SELECT COUNT(*) FROM emp WHERE emp.salary BETWEEN 1200 AND 1400"
        )[0][0],
        ScalarValue::Int64(3)
    );
    // LIKE prefix + contains
    assert_eq!(
        q(&db, "SELECT COUNT(*) FROM emp WHERE emp.name LIKE 'Anna%'")[0][0],
        ScalarValue::Int64(3)
    );
    assert_eq!(
        q(&db, "SELECT COUNT(*) FROM emp WHERE emp.name LIKE '%ob1%'")[0][0],
        ScalarValue::Int64(3) // Bob1, Bob10, Bob11
    );
    // NOT / <> / OR precedence
    assert_eq!(
        q(
            &db,
            "SELECT COUNT(*) FROM emp WHERE NOT emp.id = 0 AND (emp.id < 2 OR emp.id > 10)"
        )[0][0],
        ScalarValue::Int64(2) // 1 and 11
    );
    // boolean literal comparison
    assert_eq!(
        q(&db, "SELECT COUNT(*) FROM emp WHERE emp.active = TRUE")[0][0],
        ScalarValue::Int64(6)
    );
}

#[test]
fn arithmetic_in_select_and_where() {
    let db = db();
    let rows = q(
        &db,
        "SELECT emp.salary * 2 + 1 AS doubled FROM emp WHERE emp.id = 1",
    );
    assert_eq!(rows[0][0], ScalarValue::Float64(2201.0));
    assert_eq!(
        q(&db, "SELECT COUNT(*) FROM emp WHERE emp.id * 2 = 8")[0][0],
        ScalarValue::Int64(1)
    );
}

#[test]
fn residual_or_across_relations() {
    let db = db();
    // (e cond AND d cond) OR (e cond AND d cond): unpushable, residual.
    let rows = q(
        &db,
        "SELECT COUNT(*) FROM emp e, dept d WHERE e.dept_id = d.id \
         AND ((d.name = 'eng' AND e.salary < 1500) OR (d.name = 'hr' AND e.salary > 1500))",
    );
    // eng = dept 0: ids 0,3,6,9 → salaries 1000,1300,1600,1900 → <1500: 2
    // hr = dept 2: ids 2,5,8,11 → salaries 1200,1500,1800,2100 → >1500: 2
    assert_eq!(rows[0][0], ScalarValue::Int64(4));
}

#[test]
fn star_select() {
    let db = db();
    let r = db
        .query(
            "SELECT * FROM emp e, dept d WHERE e.dept_id = d.id AND e.id = 0",
            &QueryOptions::new(Mode::Baseline),
        )
        .unwrap();
    assert_eq!(r.schema.len(), 7); // 5 emp + 2 dept columns
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn error_paths_are_reported() {
    let db = db();
    let opts = QueryOptions::new(Mode::Baseline);
    assert!(db.query("SELECT FROM emp", &opts).is_err()); // parse
    assert!(db.query("SELECT * FROM missing", &opts).is_err()); // bind: table
    assert!(db.query("SELECT nope FROM emp", &opts).is_err()); // bind: column
                                                               // Cartesian product rejected at planning.
    let err = db
        .query("SELECT COUNT(*) FROM emp e, dept d", &opts)
        .unwrap_err();
    assert!(
        err.to_string().contains("Cartesian") || err.to_string().contains("disconnected"),
        "unexpected error: {err}"
    );
}

#[test]
fn case_insensitive_keywords() {
    let db = db();
    assert_eq!(
        q(&db, "select count(*) from emp where emp.id between 0 and 3")[0][0],
        ScalarValue::Int64(4)
    );
}

/// `pet(id, kind, legs)` with NULLs in both predicate columns (row 2) and
/// the strings `'ringer'` / `'ring'` / `'sing'` that tell a suffix match
/// from a substring match. With `flat`, rows `4..` add more than
/// [`DICT_MAX_DISTINCT`] distinct kinds, so `kind` is stored as flat
/// strings instead of dictionary codes and the scan runs the flat string
/// kernels.
fn db_with_nulls(flat: bool) -> Fixture {
    let padding = if flat { DICT_MAX_DISTINCT + 1 } else { 0 };
    let pads = (0..padding).map(|i| (Some(format!("pad-{i}")), Some(i as i64 % 7)));
    let rows: Vec<Vec<ScalarValue>> = [
        (Some("ringer".to_string()), Some(4)),
        (Some("ring".to_string()), Some(5)),
        (None, None),
        (Some("sing".to_string()), Some(2)),
    ]
    .into_iter()
    .chain(pads)
    .enumerate()
    .map(|(id, (kind, legs))| {
        vec![
            ScalarValue::Int64(id as i64),
            kind.map_or(ScalarValue::Null, ScalarValue::Utf8),
            legs.map_or(ScalarValue::Null, ScalarValue::Int64),
        ]
    })
    .collect();
    Fixture::new(vec![Table::from_rows(
        "pet",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("kind", DataType::Utf8),
            Field::new("legs", DataType::Int64),
        ]),
        &rows,
    )
    .expect("valid pet table")])
}

/// The ids below 4 (the hand-built rows) that `predicate` keeps; the whole
/// result, padding rows included, must be the oracle's.
fn ids(f: &Fixture, predicate: &str) -> Vec<i64> {
    let sql = format!("SELECT pet.id FROM pet WHERE {predicate} ORDER BY 1");
    let opts = QueryOptions::new(Mode::RobustPredicateTransfer);
    let rows =
        f.db.query(&sql, &opts)
            .unwrap_or_else(|e| panic!("query failed: {e}\n{sql}"))
            .rows;
    f.answer(&sql).check(&rows, &sql);
    rows.iter()
        .map(|r| r[0].as_i64().expect("id"))
        .filter(|&id| id < 4)
        .collect()
}

/// The `pet` tables of both string forms, with `kind`'s dictionary
/// asserted present or absent.
fn pet_dbs() -> [Fixture; 2] {
    [false, true].map(|flat| {
        let f = db_with_nulls(flat);
        assert_eq!(is_flat(&f.db, "pet", 1), flat, "flat={flat}");
        f
    })
}

/// Is column `col` of table `name` stored without a dictionary?
fn is_flat(db: &Database, name: &str, col: usize) -> bool {
    let table = &db.catalog().get(name).expect("table registered").table;
    table.encoded().columns[col].dict.is_none()
}

/// Three-valued logic under NOT: a NULL operand makes `NOT IN`, `NOT LIKE`
/// and `NOT (x = 5)` UNKNOWN, so the row is dropped — over a
/// dictionary-coded and a flat string column.
#[test]
fn not_over_null_drops_the_row() {
    for f in pet_dbs() {
        let ids = |p: &str| ids(&f, p);
        assert_eq!(ids("pet.legs NOT IN (5)"), vec![0, 3]);
        assert_eq!(ids("NOT (pet.legs = 5)"), vec![0, 3]);
        assert_eq!(ids("pet.kind NOT LIKE '%ring%'"), vec![3]);
        assert_eq!(ids("pet.kind NOT IN ('sing')"), vec![0, 1]);
        // The positive forms and IS NULL were right before and stay right.
        assert_eq!(ids("pet.legs IN (5)"), vec![1]);
        assert_eq!(ids("pet.kind IS NULL"), vec![2]);
        assert_eq!(ids("NOT (pet.kind IS NULL)"), vec![0, 1, 3]);
    }
}

/// `LIKE '%ing'` is a suffix match: `'ringer'` contains `ing` but does not
/// end with it.
#[test]
fn like_suffix_pattern_is_a_suffix_match() {
    for f in pet_dbs() {
        assert_eq!(ids(&f, "pet.kind LIKE '%ing'"), vec![1, 3]);
        assert_eq!(ids(&f, "pet.kind NOT LIKE '%ing'"), vec![0]);
    }
}

/// A predicate that names no column is pushed down to a scan with nothing
/// to decode for it; it must still hold (or fail) for every row.
#[test]
fn constant_predicates_keep_or_drop_every_row() {
    let db = db_with_nulls(false);
    assert_eq!(ids(&db, "1 = 1"), vec![0, 1, 2, 3]);
    assert_eq!(ids(&db, "1 = 0 OR 2 = 2"), vec![0, 1, 2, 3]);
    assert_eq!(ids(&db, "1 = 1 AND pet.legs < 5"), vec![0, 3]);
    assert_eq!(ids(&db, "1 = 0"), Vec::<i64>::new());
    assert_eq!(ids(&db, "NOT (1 = 1)"), Vec::<i64>::new());
}

/// `r(a, b)` and `s(a, b)`, `n` rows each: `b` takes every value in
/// both, `a` is NULL everywhere, or valid everywhere when `a_valid`.
/// `b` is `Int64` with 4 000 rows, or with `flat` a string column of more
/// than [`DICT_MAX_DISTINCT`] distinct values, stored without a
/// dictionary.
fn db_composite_keys(a_valid: bool, flat: bool) -> (Fixture, usize) {
    let n = if flat { DICT_MAX_DISTINCT + 1 } else { 4_000 };
    let mut f = Fixture::new(Vec::new());
    for name in ["r", "s"] {
        let mut a = Vector::from_i64((0..n as i64).map(|i| i % 7).collect());
        if !a_valid {
            a.validity = Some(vec![false; n]);
        }
        let b = if flat {
            Vector::from_utf8((0..n).map(|i| format!("b{i}")).collect())
        } else {
            Vector::from_i64((0..n as i64).collect())
        };
        let table = Table::new(
            name,
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", b.data_type()),
            ]),
            vec![a, b],
        )
        .expect("valid key table");
        f.register(table);
        if flat {
            assert!(is_flat(&f.db, name, 1), "`b` is stored as flat strings");
        }
    }
    (f, n)
}

/// A key with a NULL in any column matches nothing, so no transferred
/// filter may let it through: with `a` NULL everywhere, the filter `r ⋈ s`
/// transfers on `(a, b)` passes no row, and the join phase probes none.
/// Only a NULL in the last key column used to leave the sentinel hash that
/// CreateBF skipped; a NULL in the first one had every key inserted and
/// every probe row pass.
#[test]
fn null_composite_join_keys_never_pass_a_transferred_filter() {
    let join = "SELECT r.b FROM r, s WHERE r.a = s.a AND r.b = s.b";
    let swapped = "SELECT r.b FROM r, s WHERE r.b = s.b AND r.a = s.a";
    let single = "SELECT r.b FROM r, s WHERE r.a = s.a";
    let opts = QueryOptions::new(Mode::RobustPredicateTransfer);
    for flat in [false, true] {
        let (f, _) = db_composite_keys(false, flat);
        for sql in [join, swapped, single] {
            let r =
                f.db.query(sql, &opts)
                    .unwrap_or_else(|e| panic!("query failed: {e}\n{sql}"));
            let m = &r.metrics;
            assert!(r.rows.is_empty(), "{sql}");
            assert!(m.bloom_probe_in > 0, "{sql} flat={flat}: {m:?}");
            assert_eq!(m.bloom_probe_out, 0, "{sql} flat={flat}: {m:?}");
            assert_eq!(m.join_probe_in, 0, "{sql} flat={flat}: {m:?}");
        }
        // The same join with `a` valid keeps every row.
        let (f, n) = db_composite_keys(true, flat);
        let r = f.db.query(join, &opts).expect("join runs");
        assert_eq!(r.rows.len(), n, "flat={flat}");
        f.answer(join).check(&r.rows, join);
    }
}
