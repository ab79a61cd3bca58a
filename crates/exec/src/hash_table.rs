//! Join hash tables (build side of hash joins and exact semi-joins), and
//! their hash-partitioned aggregate: a [`PartitionedHashTable`] holds one
//! [`JoinHashTable`] per radix partition so builds can run per-partition in
//! parallel, and routes every probe row to the single partition whose table
//! can contain its matches (build and probe share the [`Partitioner`]).
//!
//! A table is flat and chained, in the style of DuckDB's join hash table:
//! the build rows sit concatenated in one columnar row store, a
//! power-of-two directory maps the low bits of a key hash to the first
//! build row of its chain, and a per-row link leads to the next. Nothing is
//! allocated per key, so building is three array fills and dropping a table
//! is four frees.

use rpt_common::hash::hash_columns_sel;
use rpt_common::{ColumnData, DataChunk, DataType, Error, Partitioner, Result, Vector};
use rpt_storage::{chunk_size_bytes, GovernedHandle};
use std::sync::Arc;

/// A materialized build side: all build rows (flattened) plus a chained
/// hash index on the key columns.
pub struct JoinHashTable {
    /// Flattened build-side rows (all columns).
    pub data: DataChunk,
    pub key_cols: Vec<usize>,
    /// Directory, a power of two long: `heads[hash & (len - 1)]` is the
    /// first build row of that slot's chain plus one, 0 when the slot is
    /// empty. The index comes from the low hash bits — disjoint from the
    /// [`Partitioner`]'s bits 48..56, which are constant within one
    /// partition's table.
    heads: Vec<u32>,
    /// `next[row]` is the following row of `row`'s chain plus one, 0 at the
    /// end. Chains run in ascending build-row order.
    next: Vec<u32>,
    /// Key hash of every build row: a chain holds every key whose hash
    /// lands in the slot, and comparing hashes first rejects the others
    /// without touching the key columns (string and composite keys).
    hashes: Vec<u64>,
}

/// Build rows are addressed by `u32` and stored off by one in the
/// directory and the chains, so a table holds at most `u32::MAX` rows.
fn check_row_count(rows: usize) -> Result<()> {
    if rows > u32::MAX as usize {
        return Err(Error::Exec(format!(
            "hash-join build side of {rows} rows exceeds the {} a table can address",
            u32::MAX
        )));
    }
    Ok(())
}

/// The key columns of a row store — none for a table built from no chunks
/// at all, which has no columns (and no rows to key).
fn key_columns<'a>(data: &'a DataChunk, key_cols: &[usize]) -> Vec<&'a Vector> {
    if data.num_columns() == 0 {
        return Vec::new();
    }
    key_cols.iter().map(|&k| &data.columns[k]).collect()
}

/// Validity masks of the key columns that have one: a row with a NULL in
/// any key column matches nothing.
fn key_validity<'a>(keys: &[&'a Vector]) -> Vec<&'a [bool]> {
    keys.iter().filter_map(|k| k.validity.as_deref()).collect()
}

/// Equality of one key column between a probe chunk and a build side,
/// resolved to typed slices once per (probe chunk, table) so the candidate
/// loop does no type or encoding dispatch on the vectors. NULLs are ruled
/// out before a comparison runs (NULL build rows are never linked, NULL
/// probe rows are skipped).
enum KeyEq<'a> {
    /// `Int64`, or `Utf8` codes into one shared dictionary.
    Int64(&'a [i64], &'a [i64]),
    Float64(&'a [f64], &'a [f64]),
    Bool(&'a [bool], &'a [bool]),
    /// Flat strings, or strings under two different encodings.
    Utf8(&'a Vector, &'a Vector),
    /// Key types differ: nothing matches.
    Never,
}

impl<'a> KeyEq<'a> {
    fn resolve(probe: &'a Vector, build: &'a Vector) -> KeyEq<'a> {
        let same_encoding = match (&probe.dict, &build.dict) {
            (None, None) => true,
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        };
        if !same_encoding {
            return if probe.data_type() == DataType::Utf8 && build.data_type() == DataType::Utf8 {
                KeyEq::Utf8(probe, build)
            } else {
                KeyEq::Never
            };
        }
        match (&probe.data, &build.data) {
            (ColumnData::Int64(p), ColumnData::Int64(b)) => KeyEq::Int64(p, b),
            (ColumnData::Float64(p), ColumnData::Float64(b)) => KeyEq::Float64(p, b),
            (ColumnData::Bool(p), ColumnData::Bool(b)) => KeyEq::Bool(p, b),
            (ColumnData::Utf8(_), ColumnData::Utf8(_)) => KeyEq::Utf8(probe, build),
            _ => KeyEq::Never,
        }
    }

    #[inline]
    fn eq(&self, probe_row: usize, build_row: usize) -> bool {
        match self {
            KeyEq::Int64(p, b) => p[probe_row] == b[build_row],
            KeyEq::Float64(p, b) => p[probe_row] == b[build_row],
            KeyEq::Bool(p, b) => p[probe_row] == b[build_row],
            KeyEq::Utf8(p, b) => p.utf8_at(probe_row) == b.utf8_at(build_row),
            KeyEq::Never => false,
        }
    }
}

/// The probe behind every probe and semi-probe, partitioned or not: route
/// each logical row of `chunk` (keyed on `probe_keys`) to the one table of
/// `parts` that can hold its matches and walk that slot's chain.
/// `on_match(logical probe row, partition, build row)` sees a probe row's
/// matches in ascending build-row order and returns whether to keep walking
/// (a semi-probe stops at the first).
#[inline]
fn probe_each(
    parts: &[JoinHashTable],
    partitioner: Partitioner,
    chunk: &DataChunk,
    probe_keys: &[usize],
    on_match: impl FnMut(u32, u32, u32) -> bool,
) {
    if chunk.num_rows() == 0 || parts.iter().all(|t| t.num_rows() == 0) {
        return;
    }
    let keys: Vec<&Vector> = probe_keys.iter().map(|&k| &chunk.columns[k]).collect();
    let key_eq: Vec<Vec<KeyEq>> = parts
        .iter()
        .map(|t| {
            keys.iter()
                .zip(key_columns(&t.data, &t.key_cols))
                .map(|(p, b)| KeyEq::resolve(p, b))
                .collect()
        })
        .collect();
    // The common key — one `Int64` column, or one column of codes into a
    // shared dictionary — compares with no dispatch at all, and as cheaply
    // as the hashes would. Every other key rejects on the build row's
    // stored hash before it touches the key columns.
    let probe_int64 = key_eq.iter().find_map(|k| match k.as_slice() {
        [KeyEq::Int64(probe, _)] => Some(*probe),
        _ => None,
    });
    let builds_int64: Option<Vec<&[i64]>> = key_eq
        .iter()
        .map(|k| match k.as_slice() {
            [KeyEq::Int64(_, build)] => Some(*build),
            [] => Some(&[][..]), // a table with no columns has no rows to compare
            _ => None,
        })
        .collect();
    match probe_int64.zip(builds_int64) {
        Some((probe, builds)) => walk_chains(
            parts,
            partitioner,
            chunk,
            &keys,
            |part, p, b, _| probe[p] == builds[part][b],
            on_match,
        ),
        None => walk_chains(
            parts,
            partitioner,
            chunk,
            &keys,
            |part, p, b, hash| {
                parts[part].hashes[b] == hash && key_eq[part].iter().all(|k| k.eq(p, b))
            },
            on_match,
        ),
    }
}

/// The one candidate loop of [`probe_each`], compiled once per key
/// comparison `keys_eq(partition, physical probe row, build row, probe
/// hash)`. Hashes the key columns through the chunk's selection — no
/// gathered copy.
#[inline]
fn walk_chains(
    parts: &[JoinHashTable],
    partitioner: Partitioner,
    chunk: &DataChunk,
    keys: &[&Vector],
    keys_eq: impl Fn(usize, usize, usize, u64) -> bool,
    mut on_match: impl FnMut(u32, u32, u32) -> bool,
) {
    let sel = chunk.selection.as_deref();
    let hashes = hash_columns_sel(keys, sel, chunk.num_rows());
    let nulls = key_validity(keys);
    for (row, &hash) in hashes.iter().enumerate() {
        let probe_row = sel.map_or(row, |s| s[row] as usize);
        if nulls.iter().any(|valid| !valid[probe_row]) {
            continue;
        }
        let part = partitioner.of_hash(hash);
        let table = &parts[part];
        let mut link = table.heads[hash as usize & (table.heads.len() - 1)];
        while link != 0 {
            let build_row = (link - 1) as usize;
            // `on_match` last: it runs only for a match, and ends the walk
            // by returning false.
            if keys_eq(part, probe_row, build_row, hash)
                && !on_match(row as u32, part as u32, link - 1)
            {
                break;
            }
            link = table.next[build_row];
        }
    }
}

impl JoinHashTable {
    /// Build from the build side's chunks: every row is copied once, into
    /// column storage reserved from the summed row count.
    pub fn build(chunks: &[DataChunk], key_cols: Vec<usize>) -> Result<JoinHashTable> {
        let n: usize = chunks.iter().map(DataChunk::num_rows).sum();
        check_row_count(n)?;
        let mut data = DataChunk::default();
        if let Some((first, rest)) = chunks.split_first() {
            data = first.flattened();
            data.reserve(n - data.num_rows());
            for c in rest {
                data.append(c)?;
            }
        }
        let keys = key_columns(&data, &key_cols);
        let hashes = hash_columns_sel(&keys, None, n);
        let nulls = key_validity(&keys);
        // At most half full, and never empty so a probe needs no size check.
        let mut heads = vec![0u32; (n * 2).next_power_of_two()];
        let mask = heads.len() - 1;
        let mut next = vec![0u32; n];
        // Linking in reverse leaves every chain in ascending row order, so
        // a probe row meets its matches in the order they were built.
        for row in (0..n).rev() {
            if nulls.iter().any(|valid| !valid[row]) {
                continue;
            }
            let head = &mut heads[hashes[row] as usize & mask];
            next[row] = *head;
            *head = row as u32 + 1;
        }
        Ok(JoinHashTable {
            data,
            key_cols,
            heads,
            next,
            hashes,
        })
    }

    pub fn num_rows(&self) -> usize {
        self.data.num_rows()
    }

    /// Heap footprint: the row store plus the directory, chains and hashes.
    pub fn size_bytes(&self) -> usize {
        chunk_size_bytes(&self.data)
            + (self.heads.len() + self.next.len()) * std::mem::size_of::<u32>()
            + self.hashes.len() * std::mem::size_of::<u64>()
    }

    /// Hash-join probe: for each logical row of `chunk` (keyed on
    /// `probe_keys`), emit one `(logical_probe_row, build_row)` pair per
    /// match, a probe row's pairs in ascending build-row order. Duplicates
    /// on the build side produce multiple pairs — this is where non-robust
    /// join orders blow up.
    pub fn probe(
        &self,
        chunk: &DataChunk,
        probe_keys: &[usize],
        probe_out: &mut Vec<u32>,
        build_out: &mut Vec<u32>,
    ) {
        let parts = std::slice::from_ref(self);
        probe_each(
            parts,
            Partitioner::new(1),
            chunk,
            probe_keys,
            |row, _, b| {
                probe_out.push(row);
                build_out.push(b);
                true
            },
        );
    }

    /// Exact semi-join probe: logical rows of `chunk` with ≥ 1 match
    /// (no duplication). This is the hash-based semi-join of the classic
    /// Yannakakis algorithm.
    pub fn semi_probe(&self, chunk: &DataChunk, probe_keys: &[usize]) -> Vec<u32> {
        let mut out = Vec::new();
        let parts = std::slice::from_ref(self);
        probe_each(
            parts,
            Partitioner::new(1),
            chunk,
            probe_keys,
            |row, _, _| {
                out.push(row);
                false
            },
        );
        out
    }
}

/// A match emitted by a partitioned probe: `(partition, build row within
/// that partition's table)`.
pub type BuildRef = (u32, u32);

/// One [`JoinHashTable`] per radix partition, with probes routed by the
/// same key hash the build side partitioned on. With one partition this
/// degenerates to a plain wrapped table.
pub struct PartitionedHashTable {
    parts: Vec<JoinHashTable>,
    partitioner: Partitioner,
    /// The build sink's unevictable governor registration, held for as
    /// long as the table lives so it keeps exerting memory pressure through
    /// the probe phase.
    _governed: Option<GovernedHandle>,
}

impl PartitionedHashTable {
    /// Wrap an unpartitioned table (partition count 1).
    pub fn single(table: JoinHashTable) -> PartitionedHashTable {
        PartitionedHashTable::from_parts(vec![table])
    }

    /// Assemble from per-partition tables (the length must be the
    /// partition count the build side routed with: a power of two).
    pub fn from_parts(parts: Vec<JoinHashTable>) -> PartitionedHashTable {
        assert!(
            parts.len().is_power_of_two(),
            "partition count must be a power of two, got {}",
            parts.len()
        );
        let partitioner = Partitioner::new(parts.len());
        PartitionedHashTable {
            parts,
            partitioner,
            _governed: None,
        }
    }

    /// Take over the build sink's governor registration and report the
    /// table's footprint on it until the table drops.
    pub fn governed_by(mut self, handle: Option<GovernedHandle>) -> PartitionedHashTable {
        if let Some(h) = &handle {
            h.update(self.size_bytes());
        }
        self._governed = handle;
        self
    }

    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    pub fn partition(&self, part: usize) -> &JoinHashTable {
        &self.parts[part]
    }

    pub fn num_rows(&self) -> usize {
        self.parts.iter().map(JoinHashTable::num_rows).sum()
    }

    pub fn size_bytes(&self) -> usize {
        self.parts.iter().map(JoinHashTable::size_bytes).sum()
    }

    /// Hash-join probe (see [`JoinHashTable::probe`]): each probe row is
    /// routed to exactly one partition — the one its key hash maps to —
    /// so matches and multiplicities are identical to an unpartitioned
    /// probe over the union of the partitions.
    pub fn probe(
        &self,
        chunk: &DataChunk,
        probe_keys: &[usize],
        probe_out: &mut Vec<u32>,
        build_out: &mut Vec<BuildRef>,
    ) {
        probe_each(
            &self.parts,
            self.partitioner,
            chunk,
            probe_keys,
            |row, part, b| {
                probe_out.push(row);
                build_out.push((part, b));
                true
            },
        );
    }

    /// Exact semi-join probe (see [`JoinHashTable::semi_probe`]).
    pub fn semi_probe(&self, chunk: &DataChunk, probe_keys: &[usize]) -> Vec<u32> {
        let mut out = Vec::new();
        probe_each(
            &self.parts,
            self.partitioner,
            chunk,
            probe_keys,
            |row, _, _| {
                out.push(row);
                false
            },
        );
        out
    }

    /// Gather build-side columns `cols` for the given probe matches (the
    /// probe-side analogue of `Vector::take` across partitions). Stays
    /// vectorized: with one partition a single `take` per column; otherwise
    /// one bulk `take` per partition and column plus one permutation `take`
    /// to restore match order — no per-row scalar dispatch.
    pub fn gather(&self, cols: &[usize], matches: &[BuildRef]) -> Result<Vec<Vector>> {
        if let [table] = self.parts.as_slice() {
            let rows: Vec<u32> = matches.iter().map(|&(_, b)| b).collect();
            return Ok(cols
                .iter()
                .map(|&col| table.data.columns[col].take(&rows))
                .collect());
        }
        // Bucket the match indices per partition, and note where each match
        // lands in the partition-major concatenation of the buckets.
        let mut per_part: Vec<Vec<u32>> = vec![Vec::new(); self.parts.len()];
        for &(part, b) in matches {
            per_part[part as usize].push(b);
        }
        let mut next = Vec::with_capacity(self.parts.len());
        let mut acc = 0u32;
        for idx in &per_part {
            next.push(acc);
            acc += idx.len() as u32;
        }
        let perm: Vec<u32> = matches
            .iter()
            .map(|&(part, _)| {
                let pos = next[part as usize];
                next[part as usize] += 1;
                pos
            })
            .collect();
        cols.iter()
            .map(|&col| {
                // Concatenate the per-partition bulk takes…
                let mut concat = Vector::new_empty(self.parts[0].data.columns[col].data_type());
                for (table, idx) in self.parts.iter().zip(&per_part) {
                    if !idx.is_empty() {
                        concat.append(&table.data.columns[col].take(idx))?;
                    }
                }
                // …then permute back into match order.
                Ok(concat.take(&perm))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_common::ScalarValue;

    fn build_chunk() -> DataChunk {
        DataChunk::new(vec![
            Vector::from_i64(vec![1, 2, 2, 3]),
            Vector::from_utf8(vec!["a".into(), "b".into(), "b2".into(), "c".into()]),
        ])
    }

    #[test]
    fn build_and_probe() {
        let ht = JoinHashTable::build(&[build_chunk()], vec![0]).unwrap();
        assert_eq!(ht.num_rows(), 4);
        let probe = DataChunk::new(vec![Vector::from_i64(vec![2, 5, 1])]);
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&probe, &[0], &mut p, &mut b);
        // key 2 matches build rows 1 and 2; key 1 matches build row 0.
        assert_eq!(p, vec![0, 0, 2]);
        let mut bs = b.clone();
        bs.sort_unstable();
        assert_eq!(bs, vec![0, 1, 2]);
    }

    #[test]
    fn probe_respects_selection() {
        let ht = JoinHashTable::build(&[build_chunk()], vec![0]).unwrap();
        let mut probe = DataChunk::new(vec![Vector::from_i64(vec![2, 5, 1])]);
        probe.set_selection(vec![2]); // only the key 1 row, logical idx 0
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&probe, &[0], &mut p, &mut b);
        assert_eq!(p, vec![0]);
        assert_eq!(b, vec![0]);
    }

    #[test]
    fn composite_keys() {
        let build = DataChunk::new(vec![
            Vector::from_i64(vec![1, 1, 2]),
            Vector::from_i64(vec![10, 20, 10]),
        ]);
        let ht = JoinHashTable::build(&[build], vec![0, 1]).unwrap();
        let probe = DataChunk::new(vec![
            Vector::from_i64(vec![1, 2, 1]),
            Vector::from_i64(vec![10, 10, 30]),
        ]);
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&probe, &[0, 1], &mut p, &mut b);
        assert_eq!(p, vec![0, 1]);
        assert_eq!(b, vec![0, 2]);
    }

    #[test]
    fn semi_probe_no_duplication() {
        let ht = JoinHashTable::build(&[build_chunk()], vec![0]).unwrap();
        let probe = DataChunk::new(vec![Vector::from_i64(vec![2, 5, 2])]);
        let sel = ht.semi_probe(&probe, &[0]);
        assert_eq!(sel, vec![0, 2]); // each matching row once
    }

    #[test]
    fn null_keys_never_match() {
        let mut keycol = Vector::new_empty(rpt_common::DataType::Int64);
        keycol.push(&ScalarValue::Int64(1)).unwrap();
        keycol.push(&ScalarValue::Null).unwrap();
        let ht = JoinHashTable::build(&[DataChunk::new(vec![keycol])], vec![0]).unwrap();
        let mut probe_key = Vector::new_empty(rpt_common::DataType::Int64);
        probe_key.push(&ScalarValue::Null).unwrap();
        probe_key.push(&ScalarValue::Int64(1)).unwrap();
        let probe = DataChunk::new(vec![probe_key]);
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&probe, &[0], &mut p, &mut b);
        assert_eq!(p, vec![1]); // only the non-null key matches
        assert_eq!(b, vec![0]);
        assert_eq!(ht.semi_probe(&probe, &[0]), vec![1]);
    }

    #[test]
    fn empty_build_side() {
        let ht = JoinHashTable::build(&[], vec![0]).unwrap();
        assert_eq!(ht.num_rows(), 0);
        let probe = DataChunk::new(vec![Vector::from_i64(vec![1])]);
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&probe, &[0], &mut p, &mut b);
        assert!(p.is_empty() && b.is_empty());
        assert!(ht.semi_probe(&probe, &[0]).is_empty());
    }

    /// An empty build side given as an empty chunk keeps its columns, so a
    /// probe's output chunk still has the build columns to (not) gather.
    #[test]
    fn empty_build_side_keeps_column_arity() {
        use rpt_common::{Field, Schema};
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("s", DataType::Utf8),
        ]);
        let ht = JoinHashTable::build(&[DataChunk::empty_like(&schema)], vec![0]).unwrap();
        assert_eq!((ht.num_rows(), ht.data.num_columns()), (0, 2));
        let pht = PartitionedHashTable::single(ht);
        let probe = DataChunk::new(vec![Vector::from_i64(vec![1])]);
        let (mut p, mut b) = (vec![], vec![]);
        pht.probe(&probe, &[0], &mut p, &mut b);
        assert!(p.is_empty());
        let cols = pht.gather(&[0, 1], &b).unwrap();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[1].data_type(), DataType::Utf8);
        assert!(cols.iter().all(Vector::is_empty));
    }

    /// The bound `build` enforces before narrowing row ids to `u32`.
    #[test]
    fn row_ids_past_u32_are_an_error() {
        assert!(check_row_count(0).is_ok());
        assert!(check_row_count(u32::MAX as usize).is_ok());
        let err = check_row_count(u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, Error::Exec(_)), "{err:?}");
    }

    /// Every probe row sees its matches in ascending build-row order, even
    /// when unrelated keys share its chain.
    #[test]
    fn matches_come_in_build_order() {
        let keys: Vec<i64> = (0..4000).map(|i| i % 7).collect();
        let ht = JoinHashTable::build(
            &[DataChunk::new(vec![Vector::from_i64(keys.clone())])],
            vec![0],
        )
        .unwrap();
        let probe = DataChunk::new(vec![Vector::from_i64(vec![3, 9, 0])]);
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&probe, &[0], &mut p, &mut b);
        let want: Vec<(u32, u32)> = [(0u32, 3i64), (2, 0)]
            .iter()
            .flat_map(|&(row, key)| {
                let rows = keys.iter().enumerate().filter(move |(_, &k)| k == key);
                rows.map(move |(i, _)| (row, i as u32))
            })
            .collect();
        let got: Vec<(u32, u32)> = p.into_iter().zip(b).collect();
        assert_eq!(got, want);
    }

    /// Partition build chunks by key hash, rebuild per-partition tables,
    /// and verify probes and semi-probes match the unpartitioned table.
    #[test]
    fn partitioned_probe_matches_unpartitioned() {
        use rpt_common::hash::hash_columns;

        let keys: Vec<i64> = (0..500).map(|i| i % 37).collect();
        let vals: Vec<i64> = (0..500).collect();
        let build = DataChunk::new(vec![Vector::from_i64(keys), Vector::from_i64(vals)]);
        let flat = JoinHashTable::build(std::slice::from_ref(&build), vec![0]).unwrap();

        let partitioner = Partitioner::new(8);
        let hashes = hash_columns(&[&build.columns[0]], build.num_rows());
        let split = partitioner.split_chunk(&build, &hashes);
        let parts: Vec<JoinHashTable> = split
            .into_iter()
            .map(|c| JoinHashTable::build(&c.into_iter().collect::<Vec<_>>(), vec![0]).unwrap())
            .collect();
        let pht = PartitionedHashTable::from_parts(parts);
        assert_eq!(pht.num_rows(), flat.num_rows());

        let probe = DataChunk::new(vec![Vector::from_i64((0..60).collect())]);
        let (mut fp, mut fb) = (vec![], vec![]);
        flat.probe(&probe, &[0], &mut fp, &mut fb);
        let (mut pp, mut pb) = (vec![], vec![]);
        pht.probe(&probe, &[0], &mut pp, &mut pb);

        // Same matches as multisets of (probe key, build value).
        let key = |p: u32| probe.value(0, p as usize).as_i64().unwrap();
        let mut flat_pairs: Vec<(i64, i64)> = fp
            .iter()
            .zip(fb.iter())
            .map(|(&p, &b)| {
                (
                    key(p),
                    flat.data.columns[1].get(b as usize).as_i64().unwrap(),
                )
            })
            .collect();
        let gathered = pht.gather(&[1], &pb).unwrap().remove(0);
        let mut part_pairs: Vec<(i64, i64)> = pp
            .iter()
            .enumerate()
            .map(|(i, &p)| (key(p), gathered.get(i).as_i64().unwrap()))
            .collect();
        flat_pairs.sort_unstable();
        part_pairs.sort_unstable();
        assert_eq!(flat_pairs, part_pairs);

        // Semi-probe selections are identical (order included).
        assert_eq!(flat.semi_probe(&probe, &[0]), pht.semi_probe(&probe, &[0]));
    }

    #[test]
    fn multi_chunk_build() {
        let c1 = DataChunk::new(vec![Vector::from_i64(vec![1, 2])]);
        let c2 = DataChunk::new(vec![Vector::from_i64(vec![3])]);
        let ht = JoinHashTable::build(&[c1, c2], vec![0]).unwrap();
        assert_eq!(ht.num_rows(), 3);
        let probe = DataChunk::new(vec![Vector::from_i64(vec![3])]);
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&probe, &[0], &mut p, &mut b);
        assert_eq!(b, vec![2]);
    }
}
