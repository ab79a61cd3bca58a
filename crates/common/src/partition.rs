//! Radix partitioning on join-key hashes.
//!
//! A [`Partitioner`] assigns every key hash to one of a power-of-two number
//! of partitions. Materializing sinks use it to write thread-local
//! *partitioned* runs so the per-partition merges can run in parallel: a
//! sink buckets the rows of an incoming chunk by [`Partitioner::of_hash`]
//! and appends each bucket straight into that partition's tail chunk
//! ([`crate::DataChunk::append_rows`]). Producer and consumer of a
//! partitioned buffer must agree on the routing, so the partition index is
//! a pure function of the key hash. Probes do not route: the join hash
//! table is one table, whatever the partition count its build ran with.
//!
//! The partition bits are taken from bits 48..56 of the (already
//! avalanche-mixed) hash rather than the extremes: the low bits index the
//! join hash table's directory and the topmost bits pick the Bloom filter
//! block, so carving the partition out of either end would strip entropy
//! from those structures within a partition.

use crate::chunk::DataChunk;

/// Partition counts are capped at 256 (one byte of hash is used for
/// routing); realistic merge parallelism saturates far below this.
pub const MAX_PARTITIONS: usize = 256;

const PARTITION_SHIFT: u32 = 48;

/// Round a requested partition count to the nearest usable value: at least
/// 1, a power of two, at most [`MAX_PARTITIONS`].
pub fn normalize_partition_count(count: usize) -> usize {
    count.clamp(1, MAX_PARTITIONS).next_power_of_two()
}

/// Default partition count for this process: `RPT_PARTITION_COUNT` when set
/// to a positive integer (normalized), else 1 (unpartitioned).
pub fn partition_count_from_env() -> usize {
    std::env::var("RPT_PARTITION_COUNT")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&p| p > 0)
        .map(normalize_partition_count)
        .unwrap_or(1)
}

/// Routes key hashes to one of a power-of-two number of partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioner {
    count: usize,
    mask: u64,
}

impl Partitioner {
    pub fn new(count: usize) -> Partitioner {
        let count = normalize_partition_count(count);
        Partitioner {
            count,
            mask: count as u64 - 1,
        }
    }

    pub fn count(&self) -> usize {
        self.count
    }

    /// `true` when partitioning is a no-op (a single partition).
    pub fn is_single(&self) -> bool {
        self.count == 1
    }

    /// Partition of a key hash. NULL keys (sentinel hash `u64::MAX`) land
    /// deterministically in the last partition.
    #[inline(always)]
    pub fn of_hash(&self, hash: u64) -> usize {
        ((hash >> PARTITION_SHIFT) & self.mask) as usize
    }

    /// Bucket the logical rows of `chunk` by partition, given one hash per
    /// *logical* row: `rows[p]` becomes the physical indices of partition
    /// `p`'s rows, in chunk order. `rows` is the caller's scratch: cleared
    /// first, its allocations kept from call to call.
    pub fn bucket_rows(&self, chunk: &DataChunk, hashes: &[u64], rows: &mut Vec<Vec<u32>>) {
        debug_assert_eq!(hashes.len(), chunk.num_rows());
        rows.resize_with(self.count, Vec::new);
        rows.iter_mut().for_each(Vec::clear);
        for (logical, &h) in hashes.iter().enumerate() {
            rows[self.of_hash(h)].push(chunk.physical_index(logical) as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_i64;
    use crate::{ScalarValue, Vector};

    #[test]
    fn normalization() {
        assert_eq!(normalize_partition_count(0), 1);
        assert_eq!(normalize_partition_count(1), 1);
        assert_eq!(normalize_partition_count(3), 4);
        assert_eq!(normalize_partition_count(8), 8);
        assert_eq!(normalize_partition_count(100), 128);
        assert_eq!(normalize_partition_count(100_000), MAX_PARTITIONS);
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let p = Partitioner::new(8);
        for k in 0..1000i64 {
            let h = hash_i64(k);
            let part = p.of_hash(h);
            assert!(part < 8);
            assert_eq!(part, p.of_hash(h), "routing must be deterministic");
        }
        // Mixed hashes spread sequential keys across partitions.
        let used: std::collections::HashSet<usize> =
            (0..1000i64).map(|k| p.of_hash(hash_i64(k))).collect();
        assert!(used.len() > 4, "only {} partitions used", used.len());
    }

    #[test]
    fn single_partition_takes_everything() {
        let p = Partitioner::new(1);
        assert!(p.is_single());
        assert_eq!(p.of_hash(u64::MAX), 0);
        assert_eq!(p.of_hash(0), 0);
    }

    /// The scatter step of the partitioned sinks: bucket a chunk's logical
    /// rows by key hash and append each bucket to its partition's chunk.
    #[test]
    fn scatter_respects_selection_and_routing() {
        let p = Partitioner::new(4);
        let mut chunk = DataChunk::new(vec![
            Vector::from_i64(vec![10, 11, 12, 13, 14]),
            Vector::from_i64(vec![0, 1, 2, 3, 4]),
        ]);
        chunk.set_selection(vec![0, 2, 4]); // logical rows: keys 10, 12, 14
        let hashes: Vec<u64> = [10i64, 12, 14].iter().map(|&k| hash_i64(k)).collect();
        let mut rows = vec![vec![99]; 2]; // stale scratch of another shape
        p.bucket_rows(&chunk, &hashes, &mut rows);
        assert_eq!(rows.concat().len(), 3);
        let mut parts: Vec<DataChunk> = (0..4).map(|_| chunk.take_rows(&[])).collect();
        for (part, rows) in parts.iter_mut().zip(&rows) {
            part.append_rows(&chunk, rows).unwrap();
        }
        let mut seen = Vec::new();
        for (i, c) in parts.iter().enumerate() {
            assert!(c.selection.is_none(), "partition chunks are flat");
            for row in 0..c.num_rows() {
                let key = match c.value(0, row) {
                    ScalarValue::Int64(k) => k,
                    other => panic!("unexpected value {other:?}"),
                };
                assert_eq!(p.of_hash(hash_i64(key)), i, "row routed to wrong partition");
                assert_eq!(
                    c.value(1, row),
                    ScalarValue::Int64(key - 10),
                    "payload follows key"
                );
                seen.push(key);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![10, 12, 14]);
    }
}
