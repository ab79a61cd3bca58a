//! Differential query corpus: ~20 full queries (filters, multi-way joins,
//! GROUP BY, ORDER BY / LIMIT / OFFSET) over the TPC-H, TPC-DS, JOB, and
//! DSB generators, each executed under RPT at `partition_count {1, 8}`
//! (two threads, four workers) and compared — in exact row order — with
//! the row-at-a-time oracle (`tests/oracle/`), which shares only the
//! parser and binder with the engine. Only float cells are compared with
//! a relative tolerance (summation order shifts the last ulps across join
//! orders), and a near-tie on a float key may reorder rows; everything
//! else must match exactly, including position.

mod oracle;

use rpt_core::{Database, Mode, QueryOptions};
use rpt_storage::Table;
use rpt_workloads::{dsb, job, tpcds, tpch, Workload};

/// One corpus entry: the unordered query body and the ordering suffix the
/// engine executes.
struct CorpusQuery {
    id: &'static str,
    base: &'static str,
    suffix: &'static str,
}

impl CorpusQuery {
    fn sql(&self) -> String {
        format!("{} {}", self.base, self.suffix)
    }
}

const TPCH_QUERIES: &[CorpusQuery] = &[
    CorpusQuery {
        id: "h_orders_topk",
        base: "SELECT o.o_orderkey, o.o_totalprice FROM orders o \
               WHERE o.o_totalprice > 200000",
        suffix: "ORDER BY 2 DESC LIMIT 15 OFFSET 2",
    },
    CorpusQuery {
        id: "h_lineitem_ship",
        base: "SELECT l.l_orderkey, l.l_quantity, l.l_shipdate FROM lineitem l \
               WHERE l.l_shipdate < 300",
        suffix: "ORDER BY 3 DESC NULLS FIRST, 1 NULLS LAST LIMIT 20",
    },
    CorpusQuery {
        id: "h_mkt_revenue",
        base: "SELECT c.c_mktsegment, COUNT(*) AS cnt, SUM(l.l_extendedprice) AS revenue \
               FROM customer c, orders o, lineitem l \
               WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
                 AND o.o_orderdate < 1200 GROUP BY c.c_mktsegment",
        suffix: "ORDER BY revenue DESC LIMIT 3",
    },
    CorpusQuery {
        id: "h_nation_suppliers",
        base: "SELECT n.n_name, COUNT(*) AS cnt FROM supplier s, nation n \
               WHERE s.s_nationkey = n.n_nationkey GROUP BY n.n_name",
        suffix: "ORDER BY n.n_name",
    },
    CorpusQuery {
        id: "h_returns_by_nation",
        base: "SELECT n.n_name, SUM(l.l_extendedprice) AS revenue \
               FROM customer c, orders o, lineitem l, nation n \
               WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
                 AND c.c_nationkey = n.n_nationkey AND l.l_returnflag = 'R' \
               GROUP BY n.n_name",
        suffix: "ORDER BY 2 DESC, 1 LIMIT 5",
    },
    CorpusQuery {
        id: "h_parts_by_size",
        base: "SELECT p.p_size, p.p_type, COUNT(*) AS cnt FROM part p, partsupp ps \
               WHERE p.p_partkey = ps.ps_partkey AND p.p_size < 26 \
               GROUP BY p.p_size, p.p_type",
        suffix: "ORDER BY 1, 2 LIMIT 25",
    },
    CorpusQuery {
        id: "h_brand_counts",
        base: "SELECT p.p_brand, p.p_type, COUNT(*) AS supplier_cnt \
               FROM partsupp ps, part p, supplier s \
               WHERE p.p_partkey = ps.ps_partkey AND s.s_suppkey = ps.ps_suppkey \
                 AND p.p_brand <> 'Brand#45' GROUP BY p.p_brand, p.p_type",
        suffix: "ORDER BY 3 DESC, 1 ASC, 2 ASC LIMIT 10",
    },
    CorpusQuery {
        id: "h_supply_cost_range",
        base: "SELECT p.p_size, MIN(ps.ps_supplycost) AS lo, MAX(ps.ps_supplycost) AS hi, \
                 AVG(ps.ps_availqty) AS qty, COUNT(p.p_brand) AS brands \
               FROM part p, partsupp ps \
               WHERE p.p_partkey = ps.ps_partkey AND ps.ps_availqty > 100 \
               GROUP BY p.p_size",
        suffix: "ORDER BY 2, 1 LIMIT 12",
    },
    CorpusQuery {
        id: "h_priority_counts",
        base: "SELECT o.o_orderpriority, COUNT(*) AS cnt FROM orders o, lineitem l \
               WHERE o.o_orderkey = l.l_orderkey AND o.o_orderdate BETWEEN 100 AND 1500 \
               GROUP BY o.o_orderpriority",
        suffix: "ORDER BY 1",
    },
];

/// Over the TPC-H tables with NULLs in every column (`with_nulls`): NULL
/// filter operands under `NOT`, `<>` and `IN`, NULL single and composite
/// join keys, a NULL group, and NULL aggregate inputs.
const TPCH_NULL_QUERIES: &[CorpusQuery] = &[
    CorpusQuery {
        id: "n_priority_aggregates",
        base: "SELECT o.o_orderpriority, COUNT(*) AS n, COUNT(o.o_totalprice) AS priced, \
                 SUM(o.o_totalprice) AS total, MIN(o.o_orderdate) AS earliest, \
                 MAX(o.o_custkey) AS last_cust \
               FROM orders o WHERE o.o_orderdate < 1200 GROUP BY o.o_orderpriority",
        suffix: "ORDER BY 1 NULLS FIRST",
    },
    CorpusQuery {
        id: "n_not_date",
        base: "SELECT c.c_mktsegment, COUNT(*) AS n FROM customer c, orders o \
               WHERE c.c_custkey = o.o_custkey AND NOT (o.o_orderdate < 600) \
               GROUP BY c.c_mktsegment",
        suffix: "ORDER BY 2 DESC, 1",
    },
    CorpusQuery {
        id: "n_urgent_lines",
        base: "SELECT l.l_orderkey, l.l_quantity, o.o_orderpriority FROM lineitem l, orders o \
               WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity <> 10 \
                 AND o.o_orderpriority IN ('1-URGENT', '2-HIGH')",
        suffix: "ORDER BY 1 DESC NULLS FIRST, 2 LIMIT 20",
    },
    CorpusQuery {
        id: "n_composite_supply",
        base: "SELECT ps.ps_suppkey, COUNT(*) AS n, SUM(l.l_quantity) AS qty \
               FROM lineitem l, partsupp ps \
               WHERE l.l_partkey = ps.ps_partkey AND l.l_suppkey = ps.ps_suppkey \
                 AND NOT (l.l_returnflag = 'R') GROUP BY ps.ps_suppkey",
        suffix: "ORDER BY 2 DESC, 1 LIMIT 10",
    },
    CorpusQuery {
        id: "n_brass_or_unsized",
        base: "SELECT p.p_type, COUNT(*) AS n, AVG(p.p_retailprice) AS price FROM part p \
               WHERE p.p_type LIKE '%BRASS' OR p.p_size IS NULL GROUP BY p.p_type",
        suffix: "ORDER BY 1",
    },
];

/// `w`'s tables with NULLs: in column `c`, row `i` is NULL when `i` is a
/// multiple of `7 + c`, so every filter column, join key, group key and
/// aggregate input holds some, at rows that differ between columns.
fn with_nulls(w: &Workload) -> Vec<Table> {
    w.tables
        .iter()
        .map(|t| {
            let columns = t
                .columns
                .iter()
                .enumerate()
                .map(|(c, v)| {
                    let mut v = v.clone();
                    v.validity = Some((0..v.len()).map(|i| i % (7 + c) != 0).collect());
                    v
                })
                .collect();
            Table::new(t.name.clone(), t.schema.clone(), columns).unwrap()
        })
        .collect()
}

const TPCDS_QUERIES: &[CorpusQuery] = &[
    CorpusQuery {
        id: "ds_year_profit",
        base: "SELECT d.d_year, COUNT(*) AS cnt, SUM(ss.ss_net_profit) AS profit \
               FROM store_sales ss, date_dim d, item i \
               WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_item_sk = i.i_item_sk \
                 AND d.d_moy = 11 GROUP BY d.d_year",
        suffix: "ORDER BY 1 LIMIT 8",
    },
    CorpusQuery {
        id: "ds_brand_counts",
        base: "SELECT d.d_year, i.i_brand, COUNT(*) AS cnt \
               FROM date_dim d, store_sales ss, item i \
               WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_item_sk = i.i_item_sk \
                 AND d.d_moy = 12 GROUP BY d.d_year, i.i_brand",
        suffix: "ORDER BY 3 DESC, 2, 1 LIMIT 12",
    },
    CorpusQuery {
        id: "ds_brand_topk_offset",
        base: "SELECT i.i_brand, COUNT(*) AS cnt \
               FROM date_dim d, store_sales ss, item i \
               WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_item_sk = i.i_item_sk \
                 AND d.d_moy = 11 GROUP BY i.i_brand",
        suffix: "ORDER BY 2 DESC, 1 LIMIT 7 OFFSET 3",
    },
    CorpusQuery {
        id: "ds_category_sort",
        base: "SELECT i.i_category, COUNT(*) AS cnt, SUM(ss.ss_net_profit) AS profit \
               FROM date_dim d, store_sales ss, item i \
               WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_item_sk = i.i_item_sk \
                 AND d.d_year = 2000 GROUP BY i.i_category",
        suffix: "ORDER BY i.i_category",
    },
    CorpusQuery {
        id: "ds_state_counts",
        base: "SELECT ca.ca_state, COUNT(*) AS cnt \
               FROM store_sales ss, store s, customer_address ca, date_dim d \
               WHERE ss.ss_store_sk = s.s_store_sk AND ss.ss_sold_date_sk = d.d_date_sk \
                 AND ss.ss_addr_sk = ca.ca_address_sk AND d.d_year = 1999 \
               GROUP BY ca.ca_state",
        suffix: "ORDER BY 2 DESC, 1 LIMIT 6",
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
    },
    CorpusQuery {
        id: "job_country_counts",
        base: "SELECT cn.country_code, COUNT(*) AS cnt \
               FROM company_name cn, movie_companies mc, title t \
               WHERE cn.id = mc.company_id AND mc.movie_id = t.id \
                 AND t.production_year > 1990 GROUP BY cn.country_code",
        suffix: "ORDER BY 1 LIMIT 5",
    },
    CorpusQuery {
        id: "job_info_counts",
        base: "SELECT mi.info, COUNT(*) AS cnt \
               FROM movie_info mi, title t, info_type it \
               WHERE mi.movie_id = t.id AND mi.info_type_id = it.id \
                 AND t.production_year BETWEEN 1950 AND 2000 GROUP BY mi.info",
        suffix: "ORDER BY 2 DESC, 1 ASC LIMIT 8",
    },
    CorpusQuery {
        id: "job_titles_plain",
        base: "SELECT t.title, t.production_year \
               FROM title t, movie_keyword mk, keyword k \
               WHERE t.id = mk.movie_id AND mk.keyword_id = k.id \
                 AND k.keyword = 'character-name-in-title'",
        suffix: "ORDER BY 2 DESC, 1 LIMIT 15",
    },
];

const DSB_QUERIES: &[CorpusQuery] = &[
    CorpusQuery {
        id: "dsb_year_counts",
        base: "SELECT d.d_year, COUNT(*) AS cnt FROM store_sales ss, date_dim d \
               WHERE ss.ss_sold_date_sk = d.d_date_sk AND d.d_moy = 4 \
               GROUP BY d.d_year",
        suffix: "ORDER BY 1 DESC LIMIT 5",
    },
    CorpusQuery {
        id: "dsb_brand_qty",
        base: "SELECT i.i_brand, COUNT(*) AS cnt, SUM(ss.ss_quantity) AS qty \
               FROM store_sales ss, item i, date_dim d \
               WHERE ss.ss_item_sk = i.i_item_sk AND ss.ss_sold_date_sk = d.d_date_sk \
                 AND d.d_year = 2000 GROUP BY i.i_brand",
        suffix: "ORDER BY 3 DESC, 1 LIMIT 10",
    },
    CorpusQuery {
        id: "dsb_dep_counts",
        base: "SELECT hd.hd_dep_count, COUNT(*) AS cnt \
               FROM store_sales ss, household_demographics hd \
               WHERE ss.ss_hdemo_sk = hd.hd_demo_sk GROUP BY hd.hd_dep_count",
        suffix: "ORDER BY 1 LIMIT 12",
    },
    CorpusQuery {
        id: "dsb_sales_scan",
        base: "SELECT ss.ss_ticket_number, ss.ss_quantity \
               FROM store_sales ss, date_dim d \
               WHERE ss.ss_sold_date_sk = d.d_date_sk AND d.d_moy = 1 \
                 AND ss.ss_quantity > 95",
        suffix: "ORDER BY 2 DESC, 1 LIMIT 25 OFFSET 5",
    },
];

fn database_for(tables: &[Table]) -> Database {
    let mut db = Database::new();
    for t in tables {
        db.register_table(t.clone());
    }
    db
}

fn check_corpus(w: &Workload, corpus: &[CorpusQuery]) {
    check_queries(&w.tables, w.name, corpus);
}

/// Every query of `corpus` over `tables` in every leg equals the oracle.
fn check_queries(tables: &[Table], name: &str, corpus: &[CorpusQuery]) {
    let db = database_for(tables);
    for q in corpus {
        let sql = q.sql();
        let expected = oracle::answer(&db, tables, &sql);
        assert!(
            expected.limit.is_none() || !expected.rows().is_empty(),
            "{name} {}: degenerate corpus query (empty oracle answer)",
            q.id
        );
        for parts in [1usize, 8] {
            let opts = QueryOptions::new(Mode::RobustPredicateTransfer)
                .with_partition_count(parts)
                .with_threads(2)
                .with_workers(4);
            let leg = format!("{name} {} [parts={parts}]", q.id);
            let r = db
                .query(&sql, &opts)
                .unwrap_or_else(|e| panic!("{leg}: query failed: {e}"));
            expected.check(&r.rows, &leg);
            // The TopK bound: no sort run may retain more than
            // limit + offset rows.
            if let Some(limit) = expected.limit {
                assert!(
                    r.metrics.sort_max_run_rows <= (limit + expected.offset) as u64,
                    "{leg}: sort run exceeded the TopK bound: {:?}",
                    r.metrics
                );
            }
        }
    }
}

#[test]
fn tpch_corpus_all_legs() {
    check_corpus(&tpch(0.05, 42), TPCH_QUERIES);
}

#[test]
fn tpch_corpus_with_nulls_all_legs() {
    check_queries(
        &with_nulls(&tpch(0.05, 42)),
        "TPC-H+NULLs",
        TPCH_NULL_QUERIES,
    );
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
    let total = TPCH_QUERIES.len()
        + TPCH_NULL_QUERIES.len()
        + TPCDS_QUERIES.len()
        + JOB_QUERIES.len()
        + DSB_QUERIES.len();
    assert!(total >= 20, "corpus shrank to {total} queries");
    // A wide-input TopK query must actually discard rows before the merge
    // (the sink never holds a full sort of its input).
    let w = tpch(0.05, 42);
    let db = database_for(&w.tables);
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
    let db = database_for(&w.tables);
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
/// the oracle row-for-row — and no spill file survives any query.
#[test]
fn tpch_corpus_under_tiny_memory_budget() {
    let w = tpch(0.05, 42);
    let db = database_for(&w.tables);
    let dir = std::env::temp_dir().join(format!("rpt_corpus_budget_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut evictions = 0;
    for q in TPCH_QUERIES {
        let sql = q.sql();
        let expected = oracle::answer(&db, &w.tables, &sql);
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
            expected.check(&r.rows, &leg);
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
