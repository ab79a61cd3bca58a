//! The six workloads: what data each generates, which queries it runs, and
//! the engine options it runs them under. Each `why` says which layer does
//! the work and which one the workload deliberately bypasses.

use rpt_core::{random_bushy, random_left_deep, Database, JoinOrder, Mode, QueryOptions};
use rpt_exec::{SchedulerKind, VerifyMode};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gen {
    Tpch,
    Job,
    Tpcds,
    Dsb,
}

impl Gen {
    pub fn name(self) -> &'static str {
        match self {
            Gen::Tpch => "tpch",
            Gen::Job => "job",
            Gen::Tpcds => "tpcds",
            Gen::Dsb => "dsb",
        }
    }

    pub fn generate(self, sf: f64, seed: u64) -> rpt_workloads::Workload {
        match self {
            Gen::Tpch => rpt_workloads::tpch(sf, seed),
            Gen::Job => rpt_workloads::job(sf, seed),
            Gen::Tpcds => rpt_workloads::tpcds(sf, seed),
            Gen::Dsb => rpt_workloads::dsb(sf, seed),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySet {
    /// Every query of every generated dataset, optimizer's left-deep plan.
    Corpus,
    /// The acyclic queries with at least two joins, each under this many
    /// seeded random left-deep and random bushy join orders.
    RandomOrders { left_deep: usize, bushy: usize },
    /// Single-table and one-join queries over TPC-H (see `scan_agg_sort`).
    ScanAggSort,
    /// Materializing queries over TPC-H under a memory budget (see `spill`).
    Spill,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub data: &'static [(Gen, f64)],
    pub queries: QuerySet,
    /// Mode of the corpus queries; the hand-written sets name theirs.
    pub mode: Mode,
    /// `threads = workers = nproc` instead of 1.
    pub parallel: bool,
    pub partition_count: usize,
    pub memory_budget: Option<usize>,
}

const CORPUS_SF: f64 = 4.0;
const CORPUS: [(Gen, f64); 4] = [
    (Gen::Tpch, CORPUS_SF),
    (Gen::Job, CORPUS_SF),
    (Gen::Tpcds, CORPUS_SF),
    (Gen::Dsb, CORPUS_SF),
];
const RANDOM_ORDERS_SF: f64 = 1.0;
const RANDOM_ORDERS: [(Gen, f64); 4] = [
    (Gen::Tpch, RANDOM_ORDERS_SF),
    (Gen::Job, RANDOM_ORDERS_SF),
    (Gen::Tpcds, RANDOM_ORDERS_SF),
    (Gen::Dsb, RANDOM_ORDERS_SF),
];

/// Working set of `spill` is the ~240k-row lineitem plus orders (tens of
/// MiB materialized); the budget is far below it so every sink evicts.
pub const SPILL_BUDGET_BYTES: usize = 1 << 20;

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "corpus-rpt",
        why: "all 64 tpch+job+tpcds+dsb queries under RPT, optimizer's plan, 1 thread: the paper's Table 3 setting; Bloom transfer is a large share of run time and the join phase is small",
        data: &CORPUS,
        queries: QuerySet::Corpus,
        mode: Mode::RobustPredicateTransfer,
        parallel: false,
        partition_count: 1,
        memory_budget: None,
    },
    Spec {
        name: "corpus-baseline",
        why: "same data and queries under Mode::Baseline: bypasses transfer entirely, so hash build/probe and large intermediates do the work; the denominator of the paper's speedup",
        data: &CORPUS,
        queries: QuerySet::Corpus,
        mode: Mode::Baseline,
        parallel: false,
        partition_count: 1,
        memory_budget: None,
    },
    Spec {
        name: "random-orders",
        why: "acyclic queries with 2+ joins under seeded random left-deep and bushy orders (paper's Tables 1-2): the only workload where planning explicit orders and bad-order join phases matter",
        data: &RANDOM_ORDERS,
        queries: QuerySet::RandomOrders {
            left_deep: 4,
            bushy: 4,
        },
        mode: Mode::RobustPredicateTransfer,
        parallel: false,
        partition_count: 1,
        memory_budget: None,
    },
    Spec {
        name: "scan-agg-sort",
        why: "scans, GROUP BYs and sorts over a 240k-row lineitem with at most one join: block pruning vs decode, fast vs generic group table, TopK vs full sort do the work; transfer and join almost none",
        data: &[(Gen::Tpch, 4.0)],
        queries: QuerySet::ScanAggSort,
        mode: Mode::RobustPredicateTransfer,
        parallel: false,
        partition_count: 8,
        memory_budget: None,
    },
    Spec {
        name: "parallel",
        why: "the corpus-rpt queries and data with threads=workers=nproc and 8 partitions: the only workload where the global scheduler, partitioned sinks and merges do work",
        data: &CORPUS,
        queries: QuerySet::Corpus,
        mode: Mode::RobustPredicateTransfer,
        parallel: true,
        partition_count: 8,
        memory_budget: None,
    },
    Spec {
        name: "spill",
        why: "materializing tpch queries under a 1 MiB memory budget, far below the working set: buffer and sort sinks write and re-read spill runs; spill bytes are 0 on the other five workloads",
        data: &[(Gen::Tpch, 4.0)],
        queries: QuerySet::Spill,
        mode: Mode::RobustPredicateTransfer,
        parallel: true,
        partition_count: 4,
        memory_budget: Some(SPILL_BUDGET_BYTES),
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The options every query of this workload starts from. Each field the
    /// workload depends on is assigned here, so neither an `RPT_*` variable
    /// (the runner also removes those) nor a changed default can alter what
    /// is measured without this file changing.
    pub fn options(&self, mode: Mode, nproc: usize, spill_dir: &Path) -> QueryOptions {
        let lanes = if self.parallel { nproc } else { 1 };
        let mut o = QueryOptions::new(mode);
        o.join_order = None;
        o.bushy_optimizer = false;
        o.scheduler = SchedulerKind::Global;
        o.threads = lanes;
        o.workers = Some(lanes);
        o.partition_count = self.partition_count;
        o.work_budget = None;
        o.spill_limit_bytes = None;
        o.spill_dir = spill_dir.to_path_buf();
        o.memory_budget_bytes = self.memory_budget;
        o.spill_encoding = true;
        o.spill_prefetch = true;
        o.agg_fast = true;
        o.storage_encoding = true;
        o.repartition_elide = true;
        o.plan_verify = VerifyMode::Off;
        o
    }
}

/// One SQL text with the mode it runs under.
#[derive(Debug, Clone)]
pub struct Query {
    /// `<dataset>.<id>`, e.g. `tpch.q3`.
    pub id: String,
    /// Index into the prepared datasets.
    pub dataset: usize,
    pub sql: String,
    pub mode: Mode,
    /// The ORDER BY keys determine the row sequence completely, so results
    /// are compared in sequence instead of as multisets.
    pub ordered: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderKind {
    Optimizer,
    LeftDeep,
    Bushy,
}

/// One execution of a pass: a query under one join order.
#[derive(Debug, Clone)]
pub struct Item {
    pub query: usize,
    pub kind: OrderKind,
    pub opts: QueryOptions,
}

/// The queries of the generated datasets that `keep` lets through.
fn corpus_queries(
    datasets: &[(Gen, rpt_workloads::Workload)],
    mode: Mode,
    keep: impl Fn(&rpt_workloads::QueryDef) -> bool,
) -> Vec<Query> {
    let mut out = Vec::new();
    for (d, (gen, w)) in datasets.iter().enumerate() {
        for q in w.queries.iter().filter(|q| keep(q)) {
            out.push(Query {
                id: format!("{}.{}", gen.name(), q.id),
                dataset: d,
                sql: q.sql.clone(),
                mode,
                ordered: false,
            });
        }
    }
    out
}

fn tpch_query(id: &str, mode: Mode, ordered: bool, sql: String) -> Query {
    Query {
        id: format!("tpch.{id}"),
        dataset: 0,
        sql,
        mode,
        ordered,
    }
}

const LINEITEM_SORT: &str = "SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l \
                             ORDER BY 2 DESC, 1";
const CUSTKEY_REVENUE: &str = "SELECT o.o_custkey, SUM(l.l_extendedprice) AS rev \
                               FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey \
                               GROUP BY o.o_custkey ORDER BY 2 DESC, 1";

/// The queries of `BENCH_scan.json`, `BENCH_agg.json` and `BENCH_sort.json`
/// (same SQL; the two range literals scale with the order count so the
/// selectivity those files were measured at is kept) plus a full-decode
/// scan and a generic-table GROUP BY, so both uses of each layer are here:
/// prune vs decode, fast vs generic table, TopK vs full sort.
fn scan_agg_sort(num_orders: usize) -> Vec<Query> {
    use Mode::{Baseline, RobustPredicateTransfer as Rpt};
    // BENCH_scan ran at 30k orders with `< 2000` and `< 600`.
    let range = num_orders * 2000 / 30_000;
    let bloom_range = num_orders * 600 / 30_000;
    vec![
        tpch_query(
            "range_scan",
            Baseline,
            false,
            format!(
                "SELECT COUNT(*) AS c, SUM(l.l_quantity) AS q \
                 FROM lineitem l WHERE l.l_orderkey < {range}"
            ),
        ),
        tpch_query(
            "full_scan_sum",
            Baseline,
            false,
            "SELECT COUNT(*) AS c, SUM(l.l_quantity) AS q, SUM(l.l_extendedprice) AS p, \
             SUM(l.l_shipdate) AS d FROM lineitem l"
                .into(),
        ),
        tpch_query(
            "dict_group_by",
            Baseline,
            false,
            "SELECT l.l_returnflag, COUNT(*) AS c, SUM(l.l_quantity) AS q \
             FROM lineitem l GROUP BY l.l_returnflag"
                .into(),
        ),
        tpch_query(
            "orders_many_groups",
            Rpt,
            false,
            "SELECT l.l_orderkey, COUNT(*) AS c, SUM(l.l_quantity) AS q \
             FROM lineitem l GROUP BY l.l_orderkey"
                .into(),
        ),
        tpch_query(
            "join_key_groups",
            Rpt,
            false,
            "SELECT o.o_custkey, COUNT(*) AS c, SUM(l.l_quantity) AS q \
             FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey \
             GROUP BY o.o_custkey"
                .into(),
        ),
        // Two Int64 keys need 130 bits: the generic group table.
        tpch_query(
            "two_key_groups",
            Rpt,
            false,
            "SELECT l.l_suppkey, l.l_quantity, COUNT(*) AS c, SUM(l.l_extendedprice) AS p \
             FROM lineitem l GROUP BY l.l_suppkey, l.l_quantity"
                .into(),
        ),
        tpch_query("lineitem_sort", Rpt, true, LINEITEM_SORT.into()),
        tpch_query(
            "lineitem_topk",
            Rpt,
            true,
            format!("{LINEITEM_SORT} LIMIT 10"),
        ),
        tpch_query("custkey_revenue_sort", Rpt, true, CUSTKEY_REVENUE.into()),
        tpch_query(
            "custkey_revenue_topk",
            Rpt,
            true,
            format!("{CUSTKEY_REVENUE} LIMIT 10"),
        ),
        tpch_query(
            "bloom_transfer_join",
            Rpt,
            false,
            format!(
                "SELECT COUNT(*) AS c FROM orders o, lineitem l \
                 WHERE o.o_orderkey = l.l_orderkey AND o.o_orderkey < {bloom_range}"
            ),
        ),
    ]
}

/// The two `BENCH_spill.json` queries, three corpus queries with large
/// transfer-phase buffers, and a full sort of lineitem.
fn spill(tpch: &rpt_workloads::Workload) -> Vec<Query> {
    let rpt = Mode::RobustPredicateTransfer;
    let mut out = vec![
        tpch_query(
            "int64_transfer_spill",
            rpt,
            false,
            "SELECT COUNT(*) AS c, SUM(l.l_quantity) AS q, SUM(l.l_partkey) AS p, \
             SUM(l.l_suppkey) AS s, SUM(l.l_shipdate) AS d \
             FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey"
                .into(),
        ),
        tpch_query(
            "dict_utf8_group_spill",
            rpt,
            false,
            "SELECT l.l_returnflag, o.o_orderpriority, COUNT(*) AS c \
             FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey \
             GROUP BY l.l_returnflag, o.o_orderpriority"
                .into(),
        ),
    ];
    for id in ["q3", "q9", "q18"] {
        let q = tpch.query(id).expect("tpch corpus query");
        out.push(tpch_query(id, rpt, false, q.sql.clone()));
    }
    out.push(tpch_query("lineitem_sort", rpt, true, LINEITEM_SORT.into()));
    out
}

/// The query list of a workload over its generated datasets.
pub fn queries(spec: &Spec, datasets: &[(Gen, rpt_workloads::Workload)]) -> Vec<Query> {
    match spec.queries {
        QuerySet::Corpus => corpus_queries(datasets, spec.mode, |_| true),
        QuerySet::RandomOrders { .. } => {
            corpus_queries(datasets, spec.mode, |q| !q.cyclic && q.num_joins >= 2)
        }
        QuerySet::ScanAggSort => {
            let orders = datasets[0]
                .1
                .tables
                .iter()
                .find(|t| t.name == "orders")
                .map_or(0, |t| t.num_rows());
            scan_agg_sort(orders)
        }
        QuerySet::Spill => spill(&datasets[0].1),
    }
}

/// The executions of one pass. `budgets[q]` is the work budget of query
/// `q` under a random order (the paper's 1000 x t_opt timeout analogue).
pub fn items(
    spec: &Spec,
    queries: &[Query],
    dbs: &[Database],
    budgets: &[u64],
    seed: u64,
    nproc: usize,
    spill_dir: &Path,
) -> rpt_common::Result<Vec<Item>> {
    let mut out = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let base = spec.options(q.mode, nproc, spill_dir);
        let QuerySet::RandomOrders { left_deep, bushy } = spec.queries else {
            out.push(Item {
                query: qi,
                kind: OrderKind::Optimizer,
                opts: base,
            });
            continue;
        };
        let graph = dbs[q.dataset].bind_sql(&q.sql)?.graph();
        for k in 0..left_deep + bushy {
            // One stream of order seeds per (run seed, query, k).
            let order_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((qi as u64) << 16)
                .wrapping_add(k as u64);
            let (kind, order) = if k < left_deep {
                (
                    OrderKind::LeftDeep,
                    JoinOrder::LeftDeep(random_left_deep(&graph, order_seed)),
                )
            } else {
                (
                    OrderKind::Bushy,
                    JoinOrder::Bushy(random_bushy(&graph, order_seed)),
                )
            };
            let mut opts = base.clone();
            opts.join_order = Some(order);
            opts.work_budget = Some(budgets[qi]);
            out.push(Item {
                query: qi,
                kind,
                opts,
            });
        }
    }
    Ok(out)
}
