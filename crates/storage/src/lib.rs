//! # rpt-storage
//!
//! Columnar table storage for the RPT engine:
//!
//! * [`table::Table`] — raw in-memory columnar tables: what the generators
//!   produce and what statistics and the block encoding are computed from;
//! * [`stats::TableStats`] — per-column min/max/distinct statistics feeding
//!   the baseline optimizer's cardinality estimates;
//! * [`block`] — the block-based columnar layout: per-column sequences of
//!   `VECTOR_SIZE`-row encoded blocks, each carrying a zone map
//!   (min/max/null-count) consulted by scans for block skipping, and
//!   [`block::StoredTable`], a registered table as the engine holds it
//!   (name, schema and blocks; the paper's main-memory setting, §5);
//! * [`encode`] — block codecs: RLE / frame-of-reference bit-packed
//!   `Int64`, dictionary-coded `Utf8`, raw fallbacks;
//! * [`spill`] — a memory-capped chunk buffer that spills to disk in the
//!   block-encoded spill format, used to reproduce the "+spill"
//!   configuration where the materialized intermediate results of the
//!   transfer phase do not fit in memory;
//! * [`govern`] — the query-wide [`govern::MemoryGovernor`] that picks
//!   spill victims across all materializing sinks instead of enforcing
//!   isolated per-buffer caps.

pub mod block;
pub mod encode;
pub mod govern;
pub mod spill;
pub mod stats;
pub mod table;

pub use block::{Block, BlockColumn, BlockTable, StoredTable, ZoneMap};
pub use encode::EncodedBlock;
pub use govern::{sweep_orphan_spill_files, GovernedHandle, MemoryGovernor};
pub use spill::{SpillBuffer, SpillStats};
pub use stats::{ColumnStats, TableStats};
pub use table::{chunk_size_bytes, Table};
