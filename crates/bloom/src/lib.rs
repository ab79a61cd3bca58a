//! # rpt-bloom
//!
//! The filters of the paper's `CreateBF`/`ProbeBF` operators (§4.2): a
//! register-blocked Bloom filter, and an exact bitmap for dense `Int64`
//! keys ([`bitmap`]), one of which each transfer edge gets by a plan-time
//! size rule ([`transfer`]).
//!
//! The Bloom filter is modeled on the Apache Arrow 16.0 filter the paper
//! uses, which in turn follows the cache-efficient *blocked* design of
//! Putze, Sanders & Singler (SEA 2007, reference \[67\] in the paper).
//! Layout: the filter is an array of 32-byte blocks, each block being eight
//! 32-bit words. A key sets exactly one bit in each of the eight words of a
//! single block, so an insert or probe touches one cache line. The word bit
//! positions are derived from the key hash with eight odd "salt" multipliers
//! — the same construction Arrow vectorizes with AVX2; here the bulk paths
//! are plain safe loops compiled a second time with AVX2 enabled, where
//! LLVM turns the eight lanes into one 256-bit operation each (see
//! [`filter`]).
//!
//! The default false-positive target is 2%, Arrow's default, as used in the
//! paper.

pub mod bitmap;
pub mod filter;
pub mod selection;
pub mod transfer;

pub use bitmap::KeyBitmap;
pub use filter::BloomFilter;
pub use selection::bitmask_to_selection;
pub use transfer::{FilterKind, FilterShape, TransferFilter};
