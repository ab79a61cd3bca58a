//! # rpt-common
//!
//! Foundational data representation shared by every crate in the RPT
//! reproduction: scalar values, data types, schemas, typed column vectors
//! with validity masks, the 2048-row [`chunk::DataChunk`] unit of vectorized
//! execution, selection vectors, the vectorized hashing routines used by
//! hash joins, aggregation, and Bloom filters, and the dense key range
//! ([`dense::DenseRange`]) that key bitmaps and direct join directories
//! index by `key − min`.
//!
//! The design mirrors the execution substrate described in §4.1 of
//! *Debunking the Myth of Join Ordering* (SIGMOD 2025): a push-based
//! vectorized engine processes tuples in batches ("data chunks", default
//! batch size 2048) and marks valid entries with a *selection vector*.

pub mod chunk;
pub mod dense;
pub mod dict;
pub mod error;
pub mod hash;
pub mod partition;
pub mod schema;
pub mod types;
pub mod vector;

pub use chunk::{DataChunk, SelectionVector, VECTOR_SIZE};
pub use dense::DenseRange;
pub use dict::{Utf8Dict, DICT_KEY_BITS};
pub use error::{Error, Result};
pub use partition::{normalize_partition_count, partition_count_from_env, Partitioner};
pub use schema::{Field, Schema};
pub use types::{DataType, ScalarValue};
pub use vector::{ColumnData, Vector};
