//! Differential query corpus: ~20 full queries (filters, multi-way joins,
//! GROUP BY, ORDER BY / LIMIT / OFFSET) over the TPC-H, TPC-DS, JOB, and
//! DSB generators, each executed through every
//! `partition_count {1,8} × agg_fast {on,off} × storage_encoding
//! {on,off}` leg and compared — in exact row order — against a naive
//! single-threaded reference: the unordered query run at
//! `Baseline / threads=1 / partition_count=1`, gathered into rows, sorted
//! with `sort_unstable_by` under the engine's published total-order
//! comparator ([`rpt_exec::cmp_scalar_rows`]), then sliced by
//! OFFSET/LIMIT. Only float aggregate cells are compared with a relative
//! tolerance (summation order shifts the last ulps across join orders);
//! everything else must match exactly, including position.

use rpt_common::ScalarValue;
use rpt_core::{Database, Mode, QueryOptions};
use rpt_exec::{cmp_scalar_rows, SortKey};
use rpt_workloads::{dsb, job, tpcds, tpch, Workload};

/// One corpus entry: the unordered query body, the ordering suffix the
/// engine executes, and the same ordering bound to output positions
/// (`(output_pos, desc, nulls_first)`) for the reference sort.
struct CorpusQuery {
    id: &'static str,
    base: &'static str,
    suffix: &'static str,
    keys: &'static [(usize, bool, bool)],
    limit: Option<usize>,
    offset: usize,
}

impl CorpusQuery {
    fn sql(&self) -> String {
        format!("{} {}", self.base, self.suffix)
    }

    fn sort_keys(&self) -> Vec<SortKey> {
        self.keys
            .iter()
            .map(|&(col, desc, nulls_first)| SortKey {
                col,
                desc,
                nulls_first,
            })
            .collect()
    }
}

const TPCH_QUERIES: &[CorpusQuery] = &[
    CorpusQuery {
        id: "h_orders_topk",
        base: "SELECT o.o_orderkey, o.o_totalprice FROM orders o \
               WHERE o.o_totalprice > 200000",
        suffix: "ORDER BY 2 DESC LIMIT 15 OFFSET 2",
        keys: &[(1, true, true)],
        limit: Some(15),
        offset: 2,
    },
    CorpusQuery {
        id: "h_lineitem_ship",
        base: "SELECT l.l_orderkey, l.l_quantity, l.l_shipdate FROM lineitem l \
               WHERE l.l_shipdate < 300",
        suffix: "ORDER BY 3 DESC NULLS FIRST, 1 NULLS LAST LIMIT 20",
        keys: &[(2, true, true), (0, false, false)],
        limit: Some(20),
        offset: 0,
    },
    CorpusQuery {
        id: "h_mkt_revenue",
        base: "SELECT c.c_mktsegment, COUNT(*) AS cnt, SUM(l.l_extendedprice) AS revenue \
               FROM customer c, orders o, lineitem l \
               WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
                 AND o.o_orderdate < 1200 GROUP BY c.c_mktsegment",
        suffix: "ORDER BY revenue DESC LIMIT 3",
        keys: &[(2, true, true)],
        limit: Some(3),
        offset: 0,
    },
    CorpusQuery {
        id: "h_nation_suppliers",
        base: "SELECT n.n_name, COUNT(*) AS cnt FROM supplier s, nation n \
               WHERE s.s_nationkey = n.n_nationkey GROUP BY n.n_name",
        suffix: "ORDER BY n.n_name",
        keys: &[(0, false, false)],
        limit: None,
        offset: 0,
    },
    CorpusQuery {
        id: "h_returns_by_nation",
        base: "SELECT n.n_name, SUM(l.l_extendedprice) AS revenue \
               FROM customer c, orders o, lineitem l, nation n \
               WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
                 AND c.c_nationkey = n.n_nationkey AND l.l_returnflag = 'R' \
               GROUP BY n.n_name",
        suffix: "ORDER BY 2 DESC, 1 LIMIT 5",
        keys: &[(1, true, true), (0, false, false)],
        limit: Some(5),
        offset: 0,
    },
    CorpusQuery {
        id: "h_parts_by_size",
        base: "SELECT p.p_size, p.p_type, COUNT(*) AS cnt FROM part p, partsupp ps \
               WHERE p.p_partkey = ps.ps_partkey AND p.p_size < 26 \
               GROUP BY p.p_size, p.p_type",
        suffix: "ORDER BY 1, 2 LIMIT 25",
        keys: &[(0, false, false), (1, false, false)],
        limit: Some(25),
        offset: 0,
    },
    CorpusQuery {
        id: "h_brand_counts",
        base: "SELECT p.p_brand, p.p_type, COUNT(*) AS supplier_cnt \
               FROM partsupp ps, part p, supplier s \
               WHERE p.p_partkey = ps.ps_partkey AND s.s_suppkey = ps.ps_suppkey \
                 AND p.p_brand <> 'Brand#45' GROUP BY p.p_brand, p.p_type",
        suffix: "ORDER BY 3 DESC, 1 ASC, 2 ASC LIMIT 10",
        keys: &[(2, true, true), (0, false, false), (1, false, false)],
        limit: Some(10),
        offset: 0,
    },
    CorpusQuery {
        id: "h_priority_counts",
        base: "SELECT o.o_orderpriority, COUNT(*) AS cnt FROM orders o, lineitem l \
               WHERE o.o_orderkey = l.l_orderkey AND o.o_orderdate BETWEEN 100 AND 1500 \
               GROUP BY o.o_orderpriority",
        suffix: "ORDER BY 1",
        keys: &[(0, false, false)],
        limit: None,
        offset: 0,
    },
];

const TPCDS_QUERIES: &[CorpusQuery] = &[
    CorpusQuery {
        id: "ds_year_profit",
        base: "SELECT d.d_year, COUNT(*) AS cnt, SUM(ss.ss_net_profit) AS profit \
               FROM store_sales ss, date_dim d, item i \
               WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_item_sk = i.i_item_sk \
                 AND d.d_moy = 11 GROUP BY d.d_year",
        suffix: "ORDER BY 1 LIMIT 8",
        keys: &[(0, false, false)],
        limit: Some(8),
        offset: 0,
    },
    CorpusQuery {
        id: "ds_brand_counts",
        base: "SELECT d.d_year, i.i_brand, COUNT(*) AS cnt \
               FROM date_dim d, store_sales ss, item i \
               WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_item_sk = i.i_item_sk \
                 AND d.d_moy = 12 GROUP BY d.d_year, i.i_brand",
        suffix: "ORDER BY 3 DESC, 2, 1 LIMIT 12",
        keys: &[(2, true, true), (1, false, false), (0, false, false)],
        limit: Some(12),
        offset: 0,
    },
    CorpusQuery {
        id: "ds_brand_topk_offset",
        base: "SELECT i.i_brand, COUNT(*) AS cnt \
               FROM date_dim d, store_sales ss, item i \
               WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_item_sk = i.i_item_sk \
                 AND d.d_moy = 11 GROUP BY i.i_brand",
        suffix: "ORDER BY 2 DESC, 1 LIMIT 7 OFFSET 3",
        keys: &[(1, true, true), (0, false, false)],
        limit: Some(7),
        offset: 3,
    },
    CorpusQuery {
        id: "ds_category_sort",
        base: "SELECT i.i_category, COUNT(*) AS cnt, SUM(ss.ss_net_profit) AS profit \
               FROM date_dim d, store_sales ss, item i \
               WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_item_sk = i.i_item_sk \
                 AND d.d_year = 2000 GROUP BY i.i_category",
        suffix: "ORDER BY i.i_category",
        keys: &[(0, false, false)],
        limit: None,
        offset: 0,
    },
    CorpusQuery {
        id: "ds_state_counts",
        base: "SELECT ca.ca_state, COUNT(*) AS cnt \
               FROM store_sales ss, store s, customer_address ca, date_dim d \
               WHERE ss.ss_store_sk = s.s_store_sk AND ss.ss_sold_date_sk = d.d_date_sk \
                 AND ss.ss_addr_sk = ca.ca_address_sk AND d.d_year = 1999 \
               GROUP BY ca.ca_state",
        suffix: "ORDER BY 2 DESC, 1 LIMIT 6",
        keys: &[(1, true, true), (0, false, false)],
        limit: Some(6),
        offset: 0,
    },
];

const JOB_QUERIES: &[CorpusQuery] = &[
    CorpusQuery {
        id: "job_year_counts",
        base: "SELECT t.production_year, COUNT(*) AS cnt \
               FROM title t, movie_keyword mk, keyword k \
               WHERE t.id = mk.movie_id AND mk.keyword_id = k.id \
                 AND k.keyword LIKE '%sequel%' GROUP BY t.production_year",
        suffix: "ORDER BY 2 DESC, 1 LIMIT 10",
        keys: &[(1, true, true), (0, false, false)],
        limit: Some(10),
        offset: 0,
    },
    CorpusQuery {
        id: "job_country_counts",
        base: "SELECT cn.country_code, COUNT(*) AS cnt \
               FROM company_name cn, movie_companies mc, title t \
               WHERE cn.id = mc.company_id AND mc.movie_id = t.id \
                 AND t.production_year > 1990 GROUP BY cn.country_code",
        suffix: "ORDER BY 1 LIMIT 5",
        keys: &[(0, false, false)],
        limit: Some(5),
        offset: 0,
    },
    CorpusQuery {
        id: "job_info_counts",
        base: "SELECT mi.info, COUNT(*) AS cnt \
               FROM movie_info mi, title t, info_type it \
               WHERE mi.movie_id = t.id AND mi.info_type_id = it.id \
                 AND t.production_year BETWEEN 1950 AND 2000 GROUP BY mi.info",
        suffix: "ORDER BY 2 DESC, 1 ASC LIMIT 8",
        keys: &[(1, true, true), (0, false, false)],
        limit: Some(8),
        offset: 0,
    },
    CorpusQuery {
        id: "job_titles_plain",
        base: "SELECT t.title, t.production_year \
               FROM title t, movie_keyword mk, keyword k \
               WHERE t.id = mk.movie_id AND mk.keyword_id = k.id \
                 AND k.keyword = 'character-name-in-title'",
        suffix: "ORDER BY 2 DESC, 1 LIMIT 15",
        keys: &[(1, true, true), (0, false, false)],
        limit: Some(15),
        offset: 0,
    },
];

const DSB_QUERIES: &[CorpusQuery] = &[
    CorpusQuery {
        id: "dsb_year_counts",
        base: "SELECT d.d_year, COUNT(*) AS cnt FROM store_sales ss, date_dim d \
               WHERE ss.ss_sold_date_sk = d.d_date_sk AND d.d_moy = 4 \
               GROUP BY d.d_year",
        suffix: "ORDER BY 1 DESC LIMIT 5",
        keys: &[(0, true, true)],
        limit: Some(5),
        offset: 0,
    },
    CorpusQuery {
        id: "dsb_brand_qty",
        base: "SELECT i.i_brand, COUNT(*) AS cnt, SUM(ss.ss_quantity) AS qty \
               FROM store_sales ss, item i, date_dim d \
               WHERE ss.ss_item_sk = i.i_item_sk AND ss.ss_sold_date_sk = d.d_date_sk \
                 AND d.d_year = 2000 GROUP BY i.i_brand",
        suffix: "ORDER BY 3 DESC, 1 LIMIT 10",
        keys: &[(2, true, true), (0, false, false)],
        limit: Some(10),
        offset: 0,
    },
    CorpusQuery {
        id: "dsb_dep_counts",
        base: "SELECT hd.hd_dep_count, COUNT(*) AS cnt \
               FROM store_sales ss, household_demographics hd \
               WHERE ss.ss_hdemo_sk = hd.hd_demo_sk GROUP BY hd.hd_dep_count",
        suffix: "ORDER BY 1 LIMIT 12",
        keys: &[(0, false, false)],
        limit: Some(12),
        offset: 0,
    },
    CorpusQuery {
        id: "dsb_sales_scan",
        base: "SELECT ss.ss_ticket_number, ss.ss_quantity \
               FROM store_sales ss, date_dim d \
               WHERE ss.ss_sold_date_sk = d.d_date_sk AND d.d_moy = 1 \
                 AND ss.ss_quantity > 95",
        suffix: "ORDER BY 2 DESC, 1 LIMIT 25 OFFSET 5",
        keys: &[(1, true, true), (0, false, false)],
        limit: Some(25),
        offset: 5,
    },
];

fn database_for(w: &Workload) -> Database {
    let mut db = Database::new();
    for t in &w.tables {
        db.register_table(t.clone());
    }
    db
}

/// Exact positional equality; float cells get a relative tolerance
/// (aggregate sums differ in the last ulps across join orders).
fn cell_matches(a: &ScalarValue, b: &ScalarValue) -> bool {
    match (a, b) {
        (ScalarValue::Float64(x), ScalarValue::Float64(y)) => {
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

fn assert_rows_match(expected: &[Vec<ScalarValue>], got: &[Vec<ScalarValue>], what: &str) {
    assert_eq!(expected.len(), got.len(), "{what}: row count");
    for (i, (e, g)) in expected.iter().zip(got).enumerate() {
        assert_eq!(e.len(), g.len(), "{what}: row {i} width");
        for (c, (ev, gv)) in e.iter().zip(g).enumerate() {
            assert!(
                cell_matches(ev, gv),
                "{what}: row {i} col {c}: expected {ev:?}, got {gv:?}\nexpected rows: {expected:?}\ngot rows: {got:?}"
            );
        }
    }
}

/// The naive reference: unordered query at Baseline / threads=1 /
/// partition_count=1, rows sorted with `sort_unstable_by` under the same
/// total order the engine publishes, then OFFSET/LIMIT applied by slicing.
fn reference_rows(db: &Database, q: &CorpusQuery) -> Vec<Vec<ScalarValue>> {
    let opts = QueryOptions::new(Mode::Baseline)
        .with_threads(1)
        .with_partition_count(1);
    let mut rows = db
        .query(q.base, &opts)
        .unwrap_or_else(|e| panic!("{}: reference failed: {e}", q.id))
        .rows;
    let keys = q.sort_keys();
    rows.sort_unstable_by(|a, b| cmp_scalar_rows(&keys, a, b));
    let lo = q.offset.min(rows.len());
    let hi = q
        .limit
        .map(|l| lo.saturating_add(l).min(rows.len()))
        .unwrap_or(rows.len());
    rows[lo..hi].to_vec()
}

fn check_corpus(w: &Workload, corpus: &[CorpusQuery]) {
    let db = database_for(w);
    for q in corpus {
        let expected = reference_rows(&db, q);
        assert!(
            q.limit.is_none() || !expected.is_empty(),
            "{} {}: degenerate corpus query (empty reference)",
            w.name,
            q.id
        );
        let sql = q.sql();
        for parts in [1usize, 8] {
            for agg_fast in [true, false] {
                for storage in [true, false] {
                    let opts = QueryOptions::new(Mode::RobustPredicateTransfer)
                        .with_partition_count(parts)
                        .with_threads(2)
                        .with_workers(4)
                        .with_agg_fast(agg_fast)
                        .with_storage_encoding(storage);
                    let leg = format!(
                        "{} {} [parts={parts} agg_fast={agg_fast} storage={storage}]",
                        w.name, q.id
                    );
                    let r = db
                        .query(&sql, &opts)
                        .unwrap_or_else(|e| panic!("{leg}: query failed: {e}"));
                    assert_rows_match(&expected, &r.rows, &leg);
                    // The TopK bound: no sort run may retain more than
                    // limit + offset rows.
                    if let Some(limit) = q.limit {
                        assert!(
                            r.metrics.sort_max_run_rows <= (limit + q.offset) as u64,
                            "{leg}: sort run exceeded the TopK bound: {:?}",
                            r.metrics
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn tpch_corpus_all_legs() {
    check_corpus(&tpch(0.05, 42), TPCH_QUERIES);
}

#[test]
fn tpcds_corpus_all_legs() {
    check_corpus(&tpcds(0.05, 7), TPCDS_QUERIES);
}

#[test]
fn job_corpus_all_legs() {
    check_corpus(&job(0.05, 5), JOB_QUERIES);
}

#[test]
fn dsb_corpus_all_legs() {
    check_corpus(&dsb(0.05, 9), DSB_QUERIES);
}

#[test]
fn corpus_covers_twenty_queries_and_topk_prunes() {
    let total = TPCH_QUERIES.len() + TPCDS_QUERIES.len() + JOB_QUERIES.len() + DSB_QUERIES.len();
    assert!(total >= 20, "corpus shrank to {total} queries");
    // A wide-input TopK query must actually discard rows before the merge
    // (the sink never holds a full sort of its input).
    let w = tpch(0.05, 42);
    let db = database_for(&w);
    let q = &TPCH_QUERIES[1]; // h_lineitem_ship: 3k lineitems, LIMIT 20
    let r = db
        .query(
            &q.sql(),
            &QueryOptions::new(Mode::RobustPredicateTransfer)
                .with_partition_count(8)
                .with_threads(2)
                .with_workers(4),
        )
        .expect("topk query");
    assert!(
        r.metrics.sort_rows_pruned > 0,
        "TopK never pruned: {:?}",
        r.metrics
    );
    assert!(r.metrics.sort_merge_tasks > 0, "{:?}", r.metrics);
}

#[test]
fn single_thread_single_partition_is_bit_deterministic() {
    let w = tpch(0.05, 42);
    let db = database_for(&w);
    for q in &TPCH_QUERIES[..3] {
        let opts = QueryOptions::new(Mode::RobustPredicateTransfer)
            .with_threads(1)
            .with_partition_count(1);
        let a = db.query(&q.sql(), &opts).expect("first run");
        let b = db.query(&q.sql(), &opts).expect("second run");
        // Bitwise equality, floats included — no tolerance.
        assert_eq!(a.rows, b.rows, "{}: nondeterministic output", q.id);
    }
}

/// The forced-spill leg of the corpus: every TPC-H corpus query under a
/// 1 KiB query-wide memory budget (the governor pushes every materializing
/// sink to disk — asserted, so the leak scan below is known to cover a
/// directory that was written to) across partition counts, still matching
/// the naive reference row-for-row — and no spill file survives any query.
#[test]
fn tpch_corpus_under_tiny_memory_budget() {
    let w = tpch(0.05, 42);
    let db = database_for(&w);
    let dir = std::env::temp_dir().join(format!("rpt_corpus_budget_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut evictions = 0;
    for q in TPCH_QUERIES {
        let expected = reference_rows(&db, q);
        let sql = q.sql();
        for parts in [1usize, 8] {
            let mut opts = QueryOptions::new(Mode::RobustPredicateTransfer)
                .with_partition_count(parts)
                .with_threads(2)
                .with_workers(4)
                .with_memory_budget(Some(1024));
            opts.spill_dir = dir.clone();
            let leg = format!("{} [budget parts={parts}]", q.id);
            let r = db
                .query(&sql, &opts)
                .unwrap_or_else(|e| panic!("{leg}: query failed: {e}"));
            assert_rows_match(&expected, &r.rows, &leg);
            evictions += r.metrics.spill_victim_evictions;
        }
    }
    assert!(evictions > 0, "nothing was ever evicted into {dir:?}");
    let leftovers = std::fs::read_dir(&dir)
        .map(|it| {
            it.filter(|e| {
                e.as_ref()
                    .map(|e| e.file_name().to_string_lossy().starts_with("rpt_spill_"))
                    .unwrap_or(false)
            })
            .count()
        })
        .unwrap_or(0);
    assert_eq!(leftovers, 0, "budgeted corpus leaked spill files");
    std::fs::remove_dir_all(&dir).ok();
}
