//! The join hash table: build side of hash joins and exact semi-joins.
//!
//! A table is flat and chained, in the style of DuckDB's join hash table:
//! the build rows sit concatenated in one columnar row store, a directory
//! maps a key to the first build row of its chain, and a per-row link leads
//! to the next. Nothing is allocated per key, so building is three array
//! fills and dropping a table is four frees.
//!
//! The directory comes in two kinds, picked per table by the dense-range
//! size rule ([`DenseRange`]). A *hashed* directory is a power of two long
//! and indexed by the low bits of the key hash. A *direct* one, for a
//! single plain `Int64` key whose non-NULL build values span a dense range
//! `[min, max]`, is indexed by `key - min`, as DuckDB's perfect hash join
//! is: a probe hashes nothing and compares nothing, because every chain
//! holds one key value.
//!
//! There is one table per join whatever the sink's partition count. A
//! partitioned build prepares each partition's rows in parallel — one
//! [`BuildPart`] per merge task: the partition's runs concatenated, its
//! keys hashed — and [`JoinHashTable::assemble`] lays the parts end to end
//! under one directory, so a probe never routes, never resolves keys per
//! partition and gathers matches with one `take` per column.

use rpt_common::hash::hash_columns_sel;
use rpt_common::{ColumnData, DataChunk, DataType, DenseRange, Error, Result, Vector};
use rpt_storage::{chunk_size_bytes, GovernedHandle};
use std::sync::Arc;

/// A materialized build side: all build rows (flattened) plus a chained
/// hash index on the key columns.
pub struct JoinHashTable {
    /// Flattened build-side rows (all columns).
    pub data: DataChunk,
    pub key_cols: Vec<usize>,
    /// Directory: `heads[slot]` is the first build row of that slot's
    /// chain plus one, 0 when the slot is empty. Hashed, it is a power of
    /// two long and a key's slot is `hash & (len - 1)` — the low hash bits;
    /// the [`rpt_common::Partitioner`]'s bits 48..56 only routed the build.
    /// Direct, it holds one slot per value of the key range and one more,
    /// always empty, at index `size`: a key's slot is its offset clamped
    /// onto `size` ([`slot`]), so every key outside the range lands there.
    heads: Vec<u32>,
    /// The key range of a direct directory; `None` for a hashed one.
    direct: Option<DenseRange>,
    /// `next[row]` is the following row of `row`'s chain plus one, 0 at the
    /// end. Chains run in ascending build-row order.
    next: Vec<u32>,
    /// Key hash of every build row: a chain holds every key whose hash
    /// lands in the slot, and comparing hashes first rejects the others
    /// without touching the key columns (string and composite keys). Empty
    /// for a single plain `Int64` key, which compares the keys themselves
    /// (or, direct, nothing at all) and frees the hashes once linked.
    hashes: Vec<u64>,
    /// The build sink's unevictable governor registration, held for as
    /// long as the table lives so it keeps exerting memory pressure through
    /// the probe phase.
    _governed: Option<GovernedHandle>,
}

/// One partition's share of a build side, ready to be laid into the table:
/// its rows concatenated in arrival order and the key hash of each. Merge
/// tasks prepare these in parallel.
#[derive(Default)]
pub struct BuildPart {
    data: DataChunk,
    hashes: Vec<u64>,
}

impl BuildPart {
    /// Concatenate `chunks` (every row copied once, into column storage
    /// reserved from the summed row count) and hash the key columns. No
    /// chunks at all give a part without columns; pass one empty chunk of
    /// the build schema to keep the column arity.
    pub fn new(chunks: &[DataChunk], key_cols: &[usize]) -> Result<BuildPart> {
        let n: usize = chunks.iter().map(DataChunk::num_rows).sum();
        let mut data = DataChunk::default();
        if let Some((first, rest)) = chunks.split_first() {
            data = first.flattened();
            data.reserve(n - data.num_rows());
            for c in rest {
                data.append(c)?;
            }
        }
        let hashes = hash_columns_sel(&key_columns(&data, key_cols), None, n);
        Ok(BuildPart { data, hashes })
    }

    pub fn num_rows(&self) -> usize {
        self.data.num_rows()
    }
}

/// Rows of a build side given as the row counts of its parts. Build rows
/// are addressed by `u32` and stored off by one in the directory and the
/// chains, so a table holds at most `u32::MAX` rows — summed over all the
/// parts it is assembled from.
fn total_rows(parts: impl IntoIterator<Item = usize>) -> Result<usize> {
    let rows = parts
        .into_iter()
        .try_fold(0usize, |sum, n| sum.checked_add(n))
        .unwrap_or(usize::MAX);
    if rows > u32::MAX as usize {
        return Err(Error::Exec(format!(
            "hash-join build side of {rows} rows exceeds the {} a table can address",
            u32::MAX
        )));
    }
    Ok(rows)
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

/// The slot of `key` in a direct directory over `range`: its offset, or
/// the empty slot `size` for every key outside the range, without a branch.
#[inline(always)]
fn slot(range: DenseRange, key: i64) -> usize {
    range.offset(key).min(range.size()) as usize
}

/// Chain the build rows under a directory of `len` slots, row `row` in
/// slot `slot(row)`, skipping rows with a NULL key: the directory and the
/// links. Linking in reverse leaves every chain in ascending row order, so
/// a probe row meets its matches in the order they were built.
fn link(
    n: usize,
    nulls: &[&[bool]],
    len: usize,
    slot: impl Fn(usize) -> usize,
) -> (Vec<u32>, Vec<u32>) {
    let mut heads = vec![0u32; len];
    let mut next = vec![0u32; n];
    for row in (0..n).rev() {
        if nulls.iter().any(|valid| !valid[row]) {
            continue;
        }
        let head = &mut heads[slot(row)];
        next[row] = *head;
        *head = row as u32 + 1;
    }
    (heads, next)
}

/// Equality of one key column between a probe chunk and the build side,
/// resolved to typed slices once per probe chunk so the candidate loop does
/// no type or encoding dispatch on the vectors. NULLs are ruled out before
/// a comparison runs (NULL build rows are never linked, NULL probe rows are
/// skipped).
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

impl JoinHashTable {
    /// Build from the build side's chunks: every row is copied once, into
    /// column storage reserved from the summed row count.
    pub fn build(chunks: &[DataChunk], key_cols: Vec<usize>) -> Result<JoinHashTable> {
        JoinHashTable::assemble(vec![BuildPart::new(chunks, &key_cols)?], key_cols)
    }

    /// Lay `parts` end to end into one table: row stores appended in part
    /// order into columns reserved once, hashes concatenated, one directory
    /// sized for the total — direct when the keys' range is dense with
    /// four times the hashed directory's length as its budget
    /// ([`DenseRange::of`]), hashed otherwise. The first part with rows is
    /// moved in, not copied, and brings its encodings (dictionaries) with
    /// it; a build without rows keeps the first part's columns. All rows of
    /// a key sit in one part and parts stay contiguous and in order, so
    /// linking the whole store in reverse leaves every chain in ascending
    /// build-row order exactly as a build over the concatenated input.
    pub fn assemble(parts: Vec<BuildPart>, key_cols: Vec<usize>) -> Result<JoinHashTable> {
        let n = total_rows(parts.iter().map(BuildPart::num_rows))?;
        let lead = parts.iter().position(|p| p.num_rows() > 0).unwrap_or(0);
        let mut rest = parts.into_iter().skip(lead);
        let BuildPart {
            mut data,
            mut hashes,
        } = rest.next().unwrap_or_default();
        data.reserve(n - data.num_rows());
        hashes.reserve_exact(n - hashes.len());
        // An empty part has nothing to add — and, being flat, would make
        // the append decode the store's dictionaries.
        for part in rest.filter(|p| p.num_rows() > 0) {
            data.append(&part.data)?;
            hashes.extend_from_slice(&part.hashes);
        }
        let keys = key_columns(&data, &key_cols);
        let nulls = key_validity(&keys);
        // At most half full, and never empty so a probe needs no size check.
        let hashed_len = (n * 2).next_power_of_two();
        // A single plain `Int64` key: the only kind a probe compares by
        // value instead of by stored hash, and the only kind that may be
        // indexed directly. Dictionary codes stay hashed, because a probe
        // under another dictionary hashes strings.
        let int_keys = match keys.as_slice() {
            [Vector {
                data: ColumnData::Int64(k),
                dict: None,
                ..
            }] => Some(k.as_slice()),
            _ => None,
        };
        let budget = (hashed_len as u64).saturating_mul(4);
        let direct = int_keys.and_then(|k| DenseRange::of(k, nulls.first().copied(), budget));
        let (heads, next) = match (int_keys, direct) {
            (Some(k), Some(range)) => link(n, &nulls, range.size() as usize + 1, |row| {
                slot(range, k[row])
            }),
            _ => link(n, &nulls, hashed_len, |row| {
                hashes[row] as usize & (hashed_len - 1)
            }),
        };
        if int_keys.is_some() {
            hashes = Vec::new();
        }
        Ok(JoinHashTable {
            data,
            key_cols,
            heads,
            direct,
            next,
            hashes,
            _governed: None,
        })
    }

    /// Take over the build sink's governor registration and report the
    /// table's footprint on it until the table drops.
    pub fn governed_by(mut self, handle: Option<GovernedHandle>) -> JoinHashTable {
        if let Some(h) = &handle {
            h.update(self.size_bytes());
        }
        self._governed = handle;
        self
    }

    pub fn num_rows(&self) -> usize {
        self.data.num_rows()
    }

    /// Is the directory indexed by key offset rather than by key hash?
    pub fn is_direct(&self) -> bool {
        self.direct.is_some()
    }

    /// Heap footprint: the row store plus the directory, chains and hashes
    /// (none for a single plain `Int64` key).
    pub fn size_bytes(&self) -> usize {
        chunk_size_bytes(&self.data)
            + (self.heads.len() + self.next.len()) * std::mem::size_of::<u32>()
            + self.hashes.len() * std::mem::size_of::<u64>()
    }

    /// The probe behind [`Self::probe`] and [`Self::semi_probe`]: walk the
    /// chain of each logical row of `chunk` (keyed on `probe_keys`).
    /// `on_match(logical probe row, build row)` sees a probe row's matches
    /// in ascending build-row order and returns whether to keep walking (a
    /// semi-probe stops at the first).
    #[inline]
    fn probe_each(
        &self,
        chunk: &DataChunk,
        probe_keys: &[usize],
        on_match: impl FnMut(u32, u32) -> bool,
    ) {
        let n = chunk.num_rows();
        if n == 0 || self.num_rows() == 0 {
            return;
        }
        let keys: Vec<&Vector> = probe_keys.iter().map(|&k| &chunk.columns[k]).collect();
        let key_eq: Vec<KeyEq> = keys
            .iter()
            .zip(key_columns(&self.data, &self.key_cols))
            .map(|(p, b)| KeyEq::resolve(p, b))
            .collect();
        // A key column of another type matches nothing. Past this, a table
        // keyed on one plain `Int64` column — the tables whose stored
        // hashes are freed — resolves to `KeyEq::Int64`.
        if key_eq.iter().any(|k| matches!(k, KeyEq::Never)) {
            return;
        }
        let sel = chunk.selection.as_deref();
        let nulls = key_validity(&keys);
        if let ([KeyEq::Int64(probe, _)], Some(range)) = (key_eq.as_slice(), self.direct) {
            // The key is its slot, and every chain holds that one key
            // value: nothing to hash, nothing to compare.
            let all = |_, _, _| true;
            return match sel {
                None => {
                    self.walk_chains(n, sel, &nulls, |row| slot(range, probe[row]), all, on_match)
                }
                Some(s) => {
                    let at = |row: usize| slot(range, probe[s[row] as usize]);
                    self.walk_chains(n, sel, &nulls, at, all, on_match)
                }
            };
        }
        let hashes = hash_columns_sel(&keys, sel, n);
        let mask = self.heads.len() - 1;
        let slot = |row: usize| hashes[row] as usize & mask;
        // The common key — one `Int64` column, or one column of codes into
        // a shared dictionary — compares with no dispatch at all, and as
        // cheaply as the hashes would. Every other key rejects on the build
        // row's stored hash before it touches the key columns.
        match key_eq.as_slice() {
            [KeyEq::Int64(probe, build)] => {
                let keys_eq = |_, p: usize, b: usize| probe[p] == build[b];
                self.walk_chains(n, sel, &nulls, slot, keys_eq, on_match)
            }
            _ => {
                let keys_eq = |row: usize, p: usize, b: usize| {
                    self.hashes[b] == hashes[row] && key_eq.iter().all(|k| k.eq(p, b))
                };
                self.walk_chains(n, sel, &nulls, slot, keys_eq, on_match)
            }
        }
    }

    /// The one candidate loop of [`Self::probe_each`], compiled once per
    /// directory slot `slot(logical row)` and key comparison
    /// `keys_eq(logical row, physical row, build row)` over the `n` logical
    /// rows of a chunk with selection `sel` and key validity `nulls`.
    ///
    /// Two passes. The first reads every row's chain head and, without a
    /// branch, keeps the rows whose directory slot is occupied together
    /// with that head; a probe of a small table by a large input drops most
    /// of its rows here. The second walks the kept rows' chains, in row
    /// order, so matches come out as a single loop would emit them.
    #[inline]
    fn walk_chains(
        &self,
        n: usize,
        sel: Option<&[u32]>,
        nulls: &[&[bool]],
        slot: impl Fn(usize) -> usize,
        keys_eq: impl Fn(usize, usize, usize) -> bool,
        mut on_match: impl FnMut(u32, u32) -> bool,
    ) {
        // Every row is written at `live`, which advances only past rows
        // with a chain, so the kept `(row, head)` pairs end up in front.
        let mut candidates = vec![(0u32, 0u32); n];
        let mut live = 0;
        for row in 0..n {
            let head = self.heads[slot(row)];
            candidates[live] = (row as u32, head);
            live += usize::from(head != 0);
        }
        for &(row, head) in &candidates[..live] {
            let row = row as usize;
            let probe_row = sel.map_or(row, |s| s[row] as usize);
            if nulls.iter().any(|valid| !valid[probe_row]) {
                continue;
            }
            let mut link = head;
            while link != 0 {
                let build_row = (link - 1) as usize;
                // `on_match` last: it runs only for a match, and ends the
                // walk by returning false.
                if keys_eq(row, probe_row, build_row) && !on_match(row as u32, link - 1) {
                    break;
                }
                link = self.next[build_row];
            }
        }
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
        self.probe_each(chunk, probe_keys, |row, b| {
            probe_out.push(row);
            build_out.push(b);
            true
        });
    }

    /// Exact semi-join probe: logical rows of `chunk` with ≥ 1 match
    /// (no duplication). This is the hash-based semi-join of the classic
    /// Yannakakis algorithm.
    pub fn semi_probe(&self, chunk: &DataChunk, probe_keys: &[usize]) -> Vec<u32> {
        let mut out = Vec::new();
        self.probe_each(chunk, probe_keys, |row, _| {
            out.push(row);
            false
        });
        out
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

    /// A NULL probe key hashes to the sentinel `u64::MAX`, whose slot is the
    /// directory's last. When a build key shares that slot and equals the
    /// NULL row's payload, only the validity check keeps them apart. The
    /// second build key lies far enough away to keep the table hashed.
    #[test]
    fn null_probe_row_skipped_in_the_sentinel_slot() {
        use rpt_common::hash::hash_i64;
        let key = (0..).find(|&k| hash_i64(k) & 3 == 3).unwrap();
        let ht = JoinHashTable::build(
            &[DataChunk::new(vec![Vector::from_i64(vec![
                key,
                key + (1 << 40),
            ])])],
            vec![0],
        )
        .unwrap();
        assert!(!ht.is_direct());
        assert_eq!(ht.heads.len(), 4);
        let mut probe_key = Vector::from_i64(vec![key, key]);
        probe_key.validity = Some(vec![false, true]);
        let probe = DataChunk::new(vec![probe_key]);
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&probe, &[0], &mut p, &mut b);
        assert_eq!((p, b), (vec![1], vec![0]));
        assert_eq!(ht.semi_probe(&probe, &[0]), vec![1]);
    }

    /// `(logical probe row, build row)` pairs of a probe of `ht` by `keys`
    /// (`None` = NULL), checked against the semi-probe.
    fn probe_pairs(ht: &JoinHashTable, keys: &[Option<i64>]) -> Vec<(u32, u32)> {
        let mut col = Vector::new_empty(DataType::Int64);
        for k in keys {
            col.push(&k.map_or(ScalarValue::Null, ScalarValue::Int64))
                .unwrap();
        }
        let probe = DataChunk::new(vec![col]);
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&probe, &[0], &mut p, &mut b);
        let mut semi = p.clone();
        semi.dedup();
        assert_eq!(ht.semi_probe(&probe, &[0]), semi);
        p.into_iter().zip(b).collect()
    }

    fn int_table(keys: Vec<i64>) -> JoinHashTable {
        JoinHashTable::build(&[DataChunk::new(vec![Vector::from_i64(keys)])], vec![0]).unwrap()
    }

    /// The size rule: up to `max(4 × hashed_len, 65 536)` slots of key
    /// range are indexed directly, one more are hashed. A direct table
    /// frees its build hashes and counts none of them in its footprint;
    /// its directory is the range plus the empty slot.
    #[test]
    fn direct_directory_size_rule() {
        for (keys, direct) in [
            (vec![0, 65_535], true),
            (vec![0, 65_536], false),
            (vec![-9, -8, -7], true),
            ((0..20_000).map(|k| k * 13).collect(), true),
            ((0..20_000).map(|k| k * 14).collect(), false),
        ] {
            let n = keys.len();
            let (lo, hi) = (keys[0], keys[n - 1]);
            let ht = int_table(keys);
            assert_eq!(ht.is_direct(), direct, "[{lo}, {hi}]");
            let heads = if direct {
                (hi - lo) as usize + 2
            } else {
                (2 * n).next_power_of_two()
            };
            assert_eq!(ht.heads.len(), heads);
            assert!(ht.hashes.is_empty());
            assert_eq!(
                ht.size_bytes(),
                chunk_size_bytes(&ht.data) + (heads + n) * std::mem::size_of::<u32>()
            );
            assert_eq!(
                probe_pairs(&ht, &[Some(hi), Some(lo)]),
                [(0, n as u32 - 1), (1, 0)]
            );
        }
    }

    /// `{i64::MIN, i64::MAX}` spans the whole domain, which no dense range
    /// holds: the table is hashed and matches both ends.
    #[test]
    fn full_domain_build_is_hashed() {
        let ht = int_table(vec![i64::MAX, i64::MIN]);
        assert!(!ht.is_direct());
        assert_eq!(ht.heads.len(), 4);
        let probe = [Some(i64::MIN), Some(0), Some(i64::MAX), Some(-1), None];
        assert_eq!(probe_pairs(&ht, &probe), [(0, 1), (2, 0)]);
    }

    /// Keys one below `min` and one above `max` land on the empty slot,
    /// also where the offset wraps: at both ends of the `i64` domain and
    /// for probe keys at the other end.
    #[test]
    fn direct_probe_outside_the_range_misses() {
        for (lo, hi) in [(10, 20), (i64::MIN, i64::MIN + 5), (i64::MAX - 5, i64::MAX)] {
            let ht = int_table(vec![hi, lo, lo]);
            assert!(ht.is_direct());
            let probe = [
                lo.checked_sub(1),
                Some(lo),
                hi.checked_add(1),
                Some(hi),
                Some(i64::MIN),
                Some(i64::MAX),
                Some(lo.wrapping_add(1)),
            ];
            let mut want = vec![(1, 1), (1, 2), (3, 0)];
            if lo == i64::MIN {
                want.push((4, 1));
                want.push((4, 2));
            }
            if hi == i64::MAX {
                want.push((5, 0));
            }
            want.sort_unstable();
            assert_eq!(probe_pairs(&ht, &probe), want, "[{lo}, {hi}]");
        }
    }

    /// A NULL probe row whose payload lies in the range reads an occupied
    /// slot; only the validity check keeps it from matching. A NULL build
    /// row is never linked and never widens the range.
    #[test]
    fn direct_null_rows_never_match() {
        let mut build = Vector::from_i64(vec![5, i64::MAX, 6]);
        build.validity = Some(vec![true, false, true]);
        let ht = JoinHashTable::build(&[DataChunk::new(vec![build])], vec![0]).unwrap();
        assert!(ht.is_direct());
        assert_eq!(ht.heads.len(), 3);
        let mut probe = Vector::from_i64(vec![5, 6, 6, i64::MAX]);
        probe.validity = Some(vec![false, true, false, true]);
        let mut sel_probe = DataChunk::new(vec![probe]);
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&sel_probe, &[0], &mut p, &mut b);
        assert_eq!((p, b), (vec![1], vec![2]));
        sel_probe.set_selection(vec![0, 2, 1]);
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&sel_probe, &[0], &mut p, &mut b);
        assert_eq!((p, b), (vec![2], vec![2]));
        assert_eq!(ht.semi_probe(&sel_probe, &[0]), vec![2]);
    }

    /// All-NULL and empty builds have no key range: hashed, matching
    /// nothing.
    #[test]
    fn all_null_and_empty_builds_are_hashed() {
        let mut nulls = Vector::from_i64(vec![3, 3]);
        nulls.validity = Some(vec![false, false]);
        let empty = DataChunk::new(vec![Vector::from_i64(vec![])]);
        for chunks in [vec![DataChunk::new(vec![nulls])], vec![empty], vec![]] {
            let ht = JoinHashTable::build(&chunks, vec![0]).unwrap();
            assert!(!ht.is_direct());
            assert!(probe_pairs(&ht, &[Some(3), None, Some(0)]).is_empty());
        }
    }

    /// A direct probe reads the slots straight from a plain `Int64` probe
    /// column; a probe key of another type or encoding matches nothing.
    #[test]
    fn direct_probe_by_another_type_matches_nothing() {
        let ht = int_table(vec![0, 1, 2]);
        assert!(ht.is_direct());
        let dict = rpt_common::Utf8Dict::from_values(["a", "b", "c"].map(String::from));
        for key in [
            Vector::from_f64(vec![0.0, 1.0]),
            Vector::from_utf8(vec!["0".into(), "1".into()]),
            Vector::from_dict_codes(vec![0, 1], None, dict),
        ] {
            let probe = DataChunk::new(vec![key]);
            let (mut p, mut b) = (vec![], vec![]);
            ht.probe(&probe, &[0], &mut p, &mut b);
            assert!(p.is_empty() && b.is_empty());
            assert!(ht.semi_probe(&probe, &[0]).is_empty());
        }
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
    /// probe's output chunk still has the build columns to (not) gather —
    /// also when it is assembled from several empty parts.
    #[test]
    fn empty_build_side_keeps_column_arity() {
        use rpt_common::{Field, Schema};
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("s", DataType::Utf8),
        ]);
        let empty = [DataChunk::empty_like(&schema)];
        let parts = (0..4).map(|_| BuildPart::new(&empty, &[0]).unwrap());
        for ht in [
            JoinHashTable::build(&empty, vec![0]).unwrap(),
            JoinHashTable::assemble(parts.collect(), vec![0]).unwrap(),
        ] {
            assert_eq!((ht.num_rows(), ht.data.num_columns()), (0, 2));
            let probe = DataChunk::new(vec![Vector::from_i64(vec![1])]);
            let (mut p, mut b) = (vec![], vec![]);
            ht.probe(&probe, &[0], &mut p, &mut b);
            assert!(p.is_empty());
            let col = ht.data.columns[1].take(&b);
            assert_eq!(col.data_type(), DataType::Utf8);
            assert!(col.is_empty());
        }
    }

    /// The bound `assemble` enforces before narrowing row ids to `u32`: on
    /// the rows of all parts together, since one table addresses them all.
    #[test]
    fn row_ids_past_u32_are_an_error() {
        assert_eq!(total_rows([]).unwrap(), 0);
        assert_eq!(total_rows([u32::MAX as usize]).unwrap(), u32::MAX as usize);
        let err = total_rows([u32::MAX as usize + 1]).unwrap_err();
        assert!(matches!(err, Error::Exec(_)), "{err:?}");

        let half = u32::MAX as usize / 2;
        assert_eq!(total_rows([half, half, 1]).unwrap(), u32::MAX as usize);
        let err = total_rows([half, half, 2]).unwrap_err();
        assert!(
            matches!(err, Error::Exec(_)),
            "each part fits, the sum does not: {err:?}"
        );
        assert!(
            total_rows([usize::MAX, 1]).is_err(),
            "a sum past usize is an error too"
        );
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

    /// A table assembled from eight radix partitions of the build side —
    /// each part the partition's rows in arrival order — matches the same
    /// keys as the table built over the unpartitioned input, every probe
    /// row meeting its matches in the same (build) order: with dense keys
    /// (both tables direct) and with keys spread over the `i64` domain
    /// (both hashed).
    #[test]
    fn partitioned_probe_matches_unpartitioned() {
        use rpt_common::hash::hash_columns;
        use rpt_common::Partitioner;

        let spread = |k: i64| match k {
            0 => i64::MIN,
            1 => i64::MAX,
            k => k.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64),
        };
        for (key_of, direct) in [(&(|k| k) as &dyn Fn(i64) -> i64, true), (&spread, false)] {
            let keys: Vec<i64> = (0..500).map(|i| key_of(i % 37)).collect();
            let vals: Vec<i64> = (0..500).collect();
            let build = DataChunk::new(vec![Vector::from_i64(keys), Vector::from_i64(vals)]);
            let flat = JoinHashTable::build(std::slice::from_ref(&build), vec![0]).unwrap();

            let partitioner = Partitioner::new(8);
            let hashes = hash_columns(&[&build.columns[0]], build.num_rows());
            let mut rows: Vec<Vec<u32>> = vec![Vec::new(); 8];
            for (row, &h) in hashes.iter().enumerate() {
                rows[partitioner.of_hash(h)].push(row as u32);
            }
            let parts = rows
                .iter()
                .map(|r| BuildPart::new(&[build.take_rows(r)], &[0]).unwrap())
                .collect();
            let assembled = JoinHashTable::assemble(parts, vec![0]).unwrap();
            assert_eq!(assembled.num_rows(), flat.num_rows());
            assert_eq!((flat.is_direct(), assembled.is_direct()), (direct, direct));

            let probe_keys = (-1..60).map(key_of).collect();
            let probe = DataChunk::new(vec![Vector::from_i64(probe_keys)]);
            let pairs = |t: &JoinHashTable| -> Vec<(u32, i64)> {
                let (mut p, mut b) = (vec![], vec![]);
                t.probe(&probe, &[0], &mut p, &mut b);
                let vals = t.data.columns[1].take(&b);
                p.into_iter()
                    .zip(vals.i64_slice().iter().copied())
                    .collect()
            };
            // The payload is the row number in the unpartitioned input, so
            // equal pair lists mean equal matches in equal order.
            let want = pairs(&flat);
            assert_eq!(want.len(), 500, "every build row matches once");
            assert_eq!(want, pairs(&assembled));
            assert_eq!(
                flat.semi_probe(&probe, &[0]),
                assembled.semi_probe(&probe, &[0])
            );
        }
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
