//! # rpt-workloads
//!
//! Seeded synthetic reproductions of the paper's four evaluation workloads
//! at laptop scale:
//!
//! * [`tpch()`](tpch::tpch) — the TPC-H schema (8 tables) with uniform PK–FK
//!   relationships; query shapes of the evaluated TPC-H queries
//!   (2, 3, 5, 7, 8, 9, 10, 11, 18, 21 — Q5 is the cyclic one);
//! * [`job()`](job::job) — an IMDB-like schema and the JOB templates the paper calls
//!   out (2a, 3a, 17e, 32a/32b among a broader set);
//! * [`tpcds()`](tpcds::tpcds) — a TPC-DS subset including the special cases of §5.1.1:
//!   Q13/Q48 (un-pushable OR predicates), Q29 (α- but not γ-acyclic,
//!   composite-key joins), Q54/Q83 (PT-fragile shapes), and the cyclic
//!   templates (19, 24, 46, 64, 68, 72, 85 shapes);
//! * [`dsb()`](dsb::dsb) — the TPC-DS schema with Zipf-skewed foreign keys and
//!   correlated predicates, following DSB's "more realistic distributions";
//! * [`adversarial()`](adversarial::adversarial) — Figure 12's N²/2 instance.
//!
//! **Substitution note (see DESIGN.md):** the official generators and the
//! IMDB snapshot are not redistributable; these generators reproduce the
//! *join-graph topology, key relationships, skew and filter selectivity*
//! of each benchmark, which is what the paper's robustness claims depend
//! on. Row counts default to ≈1/1000 of SF100 so the full suite runs on a
//! laptop; scale with the `sf` parameter.

pub mod adversarial;
pub mod dsb;
pub mod gen;
pub mod job;
pub mod tpcds;
pub mod tpch;
pub mod workload;

pub use adversarial::adversarial;
pub use dsb::dsb;
pub use job::job;
pub use tpcds::tpcds;
pub use tpch::tpch;
pub use workload::{QueryDef, Workload};
