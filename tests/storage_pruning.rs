//! End-to-end tests for the block-encoded storage scan path: zone-map
//! pruning driven by pushed-down literal predicates and by transferred
//! Bloom key ranges must skip blocks (observable in the metrics) while
//! producing the rows of the oracle (`tests/oracle/`), which reads the
//! tables' raw columns, across modes and partition counts.

mod oracle;

use oracle::Fixture;
use rpt_common::chunk::VECTOR_SIZE;
use rpt_common::{DataType, Field, ScalarValue, Schema, Vector};
use rpt_core::{Mode, QueryOptions};
use rpt_storage::Table;

fn table(name: &str, cols: Vec<(&str, Vector)>) -> Table {
    let schema = Schema::new(
        cols.iter()
            .map(|(n, v)| Field::new(*n, v.data_type()))
            .collect(),
    );
    Table::new(name, schema, cols.into_iter().map(|(_, v)| v).collect()).expect("valid table")
}

const FACT_ROWS: i64 = 40_000;

/// `fact.fk` is clustered (row i has fk = i), so zone maps are tight and a
/// selective range or key-range predicate can rule out most blocks.
/// `dim` holds a narrow id band in the middle of the fact's key space.
fn fixture() -> Fixture {
    let mut f = Fixture::new(Vec::new());
    f.register(table(
        "fact",
        vec![
            ("fk", Vector::from_i64((0..FACT_ROWS).collect())),
            (
                "val",
                Vector::from_i64((0..FACT_ROWS).map(|i| i % 100).collect()),
            ),
        ],
    ));
    f.register(table(
        "dim",
        vec![
            ("id", Vector::from_i64((10_000..10_050).collect())),
            ("flag", Vector::from_i64(vec![1; 50])),
            (
                "name",
                Vector::from_utf8((0..50).map(|i| format!("n{}", i % 5)).collect()),
            ),
        ],
    ));
    f
}

/// A selective `Int64 col < literal` scan prunes every block whose zone
/// range lies past the literal — and agrees with the oracle on rows.
#[test]
fn literal_range_scan_prunes_blocks() {
    let f = fixture();
    let sql = "SELECT COUNT(*) FROM fact WHERE fact.fk < 1000";
    let on = f.db.query(sql, &QueryOptions::new(Mode::Baseline)).unwrap();
    assert_eq!(on.scalar_i64(), Some(1000));
    let total_blocks = (FACT_ROWS as u64).div_ceil(VECTOR_SIZE as u64);
    // Only the first block intersects [0, 1000); all others prune.
    assert_eq!(on.metrics.blocks_scanned, 1, "{:?}", on.metrics);
    assert_eq!(on.metrics.blocks_pruned, total_blocks - 1);
    f.answer(sql).check(&on.rows, sql);
}

/// Predicate transfer plants a Bloom filter on the dim side; the fact scan
/// then skips every block outside the filter's observed build-key range
/// [10000, 10049] — pruning driven by a *transferred* predicate, with no
/// base filter on the fact at all.
#[test]
fn transferred_bloom_range_prunes_fact_blocks() {
    let f = fixture();
    let sql = "SELECT COUNT(*) FROM fact, dim \
               WHERE fact.fk = dim.id AND dim.flag = 1";
    let rpt =
        f.db.query(sql, &QueryOptions::new(Mode::RobustPredicateTransfer))
            .unwrap();
    assert_eq!(rpt.scalar_i64(), Some(50));
    // The 50-key band covers one (maybe two) fact blocks; the rest prune.
    let total_blocks = (FACT_ROWS as u64).div_ceil(VECTOR_SIZE as u64);
    assert!(
        rpt.metrics.blocks_pruned >= total_blocks - 2,
        "expected most of {total_blocks} fact blocks pruned, got {} ({:?})",
        rpt.metrics.blocks_pruned,
        rpt.metrics
    );

    // Same query without predicate transfer: no Bloom filter exists, so
    // every fact block must be scanned.
    let base = f.db.query(sql, &QueryOptions::new(Mode::Baseline)).unwrap();
    assert_eq!(base.scalar_i64(), Some(50));
    assert_eq!(base.metrics.blocks_pruned, 0);
    assert!(base.metrics.blocks_scanned >= total_blocks);

    // And the oracle agrees on the result.
    f.answer(sql).check(&rpt.rows, sql);
}

/// Utf8 zone-map pruning through the sorted shared dictionary: `cat.grp`
/// is clustered (block `b` holds only the string `s{b}`), so a string
/// literal comparison rules out every non-intersecting block — dict codes
/// are assigned in lexicographic order, making the zone's string bounds
/// exactly the stored code bounds. A `=` literal absent from the
/// dictionary prunes *every* block, and the oracle agrees on rows
/// throughout.
#[test]
fn utf8_dict_literal_scan_prunes_blocks() {
    let blocks = 4usize;
    let mut f = Fixture::new(Vec::new());
    f.register(table(
        "cat",
        vec![
            (
                "grp",
                Vector::from_utf8(
                    (0..blocks * VECTOR_SIZE)
                        .map(|i| format!("s{}", i / VECTOR_SIZE))
                        .collect(),
                ),
            ),
            (
                "v",
                Vector::from_i64((0..(blocks * VECTOR_SIZE) as i64).collect()),
            ),
        ],
    ));

    // Equality on one block's string: the other three blocks prune.
    let eq = "SELECT COUNT(*) FROM cat WHERE cat.grp = 's2'";
    let on = f.db.query(eq, &QueryOptions::new(Mode::Baseline)).unwrap();
    assert_eq!(on.scalar_i64(), Some(VECTOR_SIZE as i64));
    assert_eq!(on.metrics.blocks_scanned, 1, "{:?}", on.metrics);
    assert_eq!(on.metrics.blocks_pruned, blocks as u64 - 1);

    // Range below 's1': only block 0 ("s0") can hold a match.
    let lt = "SELECT COUNT(*) FROM cat WHERE cat.grp < 's1'";
    let on = f.db.query(lt, &QueryOptions::new(Mode::Baseline)).unwrap();
    assert_eq!(on.scalar_i64(), Some(VECTOR_SIZE as i64));
    assert_eq!(on.metrics.blocks_scanned, 1, "{:?}", on.metrics);
    assert_eq!(on.metrics.blocks_pruned, blocks as u64 - 1);

    // A literal outside the dictionary can match no row anywhere: every
    // block prunes without decoding a thing.
    let absent = "SELECT COUNT(*) FROM cat WHERE cat.grp = 'zzz'";
    let on =
        f.db.query(absent, &QueryOptions::new(Mode::Baseline))
            .unwrap();
    assert_eq!(on.scalar_i64(), Some(0));
    assert_eq!(on.metrics.blocks_scanned, 0, "{:?}", on.metrics);
    assert_eq!(on.metrics.blocks_pruned, blocks as u64);

    // The oracle agrees on rows.
    for sql in [eq, lt, absent] {
        let on = f.db.query(sql, &QueryOptions::new(Mode::Baseline)).unwrap();
        f.answer(sql).check(&on.rows, sql);
    }
}

/// NULL join keys must survive pruning decisions: a block containing NULL
/// keys can never be Bloom-range-pruned (the probe keeps NULL rows only as
/// hash false positives, but literal semantics must not change), and
/// results stay the oracle's.
#[test]
fn null_keys_not_mispruned() {
    let mut f = Fixture::new(Vec::new());
    // fk: NULLs sprinkled through a clustered key column.
    let mut fk = Vector::new_empty(DataType::Int64);
    for i in 0..6000i64 {
        if i % 97 == 0 {
            fk.push(&ScalarValue::Null).unwrap();
        } else {
            fk.push(&ScalarValue::Int64(i)).unwrap();
        }
    }
    let n = 6000usize;
    f.register(table(
        "f",
        vec![("fk", fk), ("v", Vector::from_i64((0..n as i64).collect()))],
    ));
    f.register(table(
        "d",
        vec![
            ("id", Vector::from_i64((100..160).collect())),
            ("flag", Vector::from_i64(vec![1; 60])),
        ],
    ));
    let sql = "SELECT COUNT(*) FROM f, d WHERE f.fk = d.id AND d.flag = 1";
    let on =
        f.db.query(sql, &QueryOptions::new(Mode::RobustPredicateTransfer))
            .unwrap();
    f.answer(sql).check(&on.rows, sql);
    // One match per dim id, except ids whose fact row was NULLed out
    // (multiples of 97).
    let expect = (100..160).filter(|i| i % 97 != 0).count() as i64;
    assert_eq!(on.scalar_i64(), Some(expect));
}

/// Full parity sweep: scans return the oracle's rows for filters, joins,
/// and string GROUP BYs, across execution modes and partition counts.
#[test]
fn scans_agree_with_the_oracle() {
    let f = fixture();
    let queries = [
        "SELECT COUNT(*) FROM fact WHERE fact.fk >= 39000 AND fact.val < 7",
        "SELECT COUNT(*) FROM fact, dim WHERE fact.fk = dim.id AND dim.flag = 1",
        "SELECT dim.name, COUNT(*) AS n, SUM(fact.val) AS s FROM fact, dim \
         WHERE fact.fk = dim.id GROUP BY dim.name",
        "SELECT dim.name, dim.id FROM dim WHERE dim.id < 10010",
    ];
    for sql in queries {
        let expected = f.answer(sql);
        for mode in [Mode::Baseline, Mode::RobustPredicateTransfer] {
            for pc in [1usize, 8] {
                let on =
                    f.db.query(sql, &QueryOptions::new(mode).with_partition_count(pc))
                        .unwrap();
                expected.check(&on.rows, &format!("{mode:?} pc={pc}: {sql}"));
            }
        }
    }
}

/// Multi-column join keys: the transferred Bloom filter tracks one key
/// range *per key position*, so a fact scan prunes on whichever position
/// is selective. Here key `a` is cyclic (every block spans its full 0..100
/// range — position 0 can prune nothing) while key `b` is clustered, so
/// all pruning must come from position 1's observed band — exactly what
/// the old single-key gate threw away.
#[test]
fn multi_column_bloom_key_ranges_prune_fact_blocks() {
    let mut f = Fixture::new(Vec::new());
    f.register(table(
        "fact2",
        vec![
            (
                "a",
                Vector::from_i64((0..FACT_ROWS).map(|i| i % 100).collect()),
            ),
            ("b", Vector::from_i64((0..FACT_ROWS).collect())),
        ],
    ));
    // dim2 matches fact2 rows 10_000..10_050 on (a, b) jointly.
    f.register(table(
        "dim2",
        vec![
            (
                "x",
                Vector::from_i64((10_000..10_050).map(|i| i % 100).collect()),
            ),
            ("y", Vector::from_i64((10_000..10_050).collect())),
            ("flag", Vector::from_i64(vec![1; 50])),
        ],
    ));
    let sql = "SELECT COUNT(*) FROM fact2, dim2 \
               WHERE fact2.a = dim2.x AND fact2.b = dim2.y AND dim2.flag = 1";
    let rpt =
        f.db.query(sql, &QueryOptions::new(Mode::RobustPredicateTransfer))
            .unwrap();
    assert_eq!(rpt.scalar_i64(), Some(50));
    let total_blocks = (FACT_ROWS as u64).div_ceil(VECTOR_SIZE as u64);
    assert!(
        rpt.metrics.blocks_pruned >= total_blocks - 2,
        "expected most of {total_blocks} fact blocks pruned via key position 1, got {} ({:?})",
        rpt.metrics.blocks_pruned,
        rpt.metrics
    );
    // The oracle and the baseline agree on the result.
    f.answer(sql).check(&rpt.rows, sql);
    let base = f.db.query(sql, &QueryOptions::new(Mode::Baseline)).unwrap();
    assert_eq!(base.scalar_i64(), Some(50));
    assert_eq!(base.metrics.blocks_pruned, 0);
}
