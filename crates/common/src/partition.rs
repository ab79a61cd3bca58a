//! Radix partitioning on join-key hashes.
//!
//! A [`Partitioner`] assigns every key hash to one of a power-of-two number
//! of partitions. Materializing sinks use it to write thread-local
//! *partitioned* runs so the per-partition merges can run in parallel, and
//! probes route each row to the partition whose hash table can contain its
//! matches. Build and probe sides must agree on the routing, so the
//! partition index is a pure function of the key hash.
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

    /// Split the logical rows of a chunk into per-partition flat chunks,
    /// given one hash per *logical* row. Partitions that receive no rows
    /// are `None`.
    pub fn split_chunk(&self, chunk: &DataChunk, hashes: &[u64]) -> Vec<Option<DataChunk>> {
        debug_assert_eq!(hashes.len(), chunk.num_rows());
        let mut indices: Vec<Vec<u32>> = vec![Vec::new(); self.count];
        for (logical, &h) in hashes.iter().enumerate() {
            indices[self.of_hash(h)].push(chunk.physical_index(logical) as u32);
        }
        indices
            .into_iter()
            .map(|idx| {
                if idx.is_empty() {
                    None
                } else {
                    Some(DataChunk::new(
                        chunk.columns.iter().map(|c| c.take(&idx)).collect(),
                    ))
                }
            })
            .collect()
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

    #[test]
    fn split_chunk_respects_selection_and_routing() {
        let p = Partitioner::new(4);
        let mut chunk = DataChunk::new(vec![
            Vector::from_i64(vec![10, 11, 12, 13, 14]),
            Vector::from_i64(vec![0, 1, 2, 3, 4]),
        ]);
        chunk.set_selection(vec![0, 2, 4]); // logical rows: keys 10, 12, 14
        let hashes: Vec<u64> = [10i64, 12, 14].iter().map(|&k| hash_i64(k)).collect();
        let parts = p.split_chunk(&chunk, &hashes);
        assert_eq!(parts.len(), 4);
        let mut seen = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            if let Some(c) = part {
                assert!(c.selection.is_none(), "split chunks are flat");
                for row in 0..c.num_rows() {
                    let key = match c.value(0, row) {
                        ScalarValue::Int64(k) => k,
                        other => panic!("unexpected value {other:?}"),
                    };
                    assert_eq!(p.of_hash(hash_i64(key)), i, "row routed to wrong partition");
                    seen.push(key);
                }
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![10, 12, 14]);
    }
}
