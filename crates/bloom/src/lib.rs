//! # rpt-bloom
//!
//! Register-blocked Bloom filter, modeled on the Apache Arrow 16.0 filter the
//! paper uses for its `CreateBF`/`ProbeBF` operators (§4.2), which in turn
//! follows the cache-efficient *blocked* design of Putze, Sanders & Singler
//! (SEA 2007, reference \[67\] in the paper).
//!
//! Layout: the filter is an array of 64-byte blocks, each block being eight
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

pub mod filter;
pub mod selection;

pub use filter::BloomFilter;
pub use selection::bitmask_to_selection;
