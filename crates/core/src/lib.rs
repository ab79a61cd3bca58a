//! # rpt-core — Robust Predicate Transfer
//!
//! The public API of this reproduction of *"Debunking the Myth of Join
//! Ordering: Toward Robust SQL Analytics"* (SIGMOD 2025). It glues the
//! substrates together into an analytical SQL engine with six join
//! execution modes, each compiled to one physical plan:
//!
//! | [`Mode`] | What it does |
//! |---|---|
//! | `Baseline` | plain hash joins in the chosen join order (vanilla DuckDB stand-in) |
//! | `BloomJoin` | baseline + a Bloom filter pushed from each hash-join build side to its probe side (local SIP) |
//! | `PredicateTransfer` | the original PT (CIDR 2024): Small2Large transfer schedule, then the join phase |
//! | `RobustPredicateTransfer` | **RPT**: LargestRoot transfer schedule (full reduction for α-acyclic queries) + join phase, with the §4.3 pruning optimizations |
//! | `Yannakakis` | exact hash semi-join reduction over the LargestRoot join tree (the classic algorithm, as an ablation) |
//! | `Hybrid` | the full LargestRoot Bloom transfer + one worst-case optimal Generic Join pipeline as the join phase (the join order is ignored) — the paper's §5.1.3 proposal for cyclic queries |
//!
//! ```no_run
//! use rpt_core::{Database, Mode, QueryOptions};
//! # fn main() -> rpt_common::Result<()> {
//! let mut db = Database::new();
//! // db.register_table(...);
//! let result = db.query(
//!     "SELECT COUNT(*) FROM t, s WHERE t.id = s.t_id",
//!     &QueryOptions::new(Mode::RobustPredicateTransfer),
//! )?;
//! println!("{} rows, {} intermediate tuples",
//!          result.rows.len(), result.metrics.intermediate_tuples);
//! # Ok(())
//! # }
//! ```

pub mod binder;
pub mod catalog;
pub mod engine;
pub mod estimator;
pub mod optimizer;
pub mod planner;
pub mod query;
pub mod robustness;

pub use catalog::Catalog;
pub use engine::{Database, Mode, QueryOptions, QueryResult};
pub use optimizer::{random_bushy, random_left_deep, JoinOrder, PlanNode};
pub use planner::{PhysicalPlan, Planner};
pub use query::JoinQuery;
pub use robustness::{robustness_factor, RobustnessReport};
