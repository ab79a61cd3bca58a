//! Hash aggregation sink state (group-by + aggregate functions).
//!
//! [`AggregateState`] is one thread's (or one hash partition's) group
//! table, behind the [`GroupTable`] trait with two implementations:
//!
//! * [`FixedKeyGroupTable`] — the **fast path**, selected at sink
//!   construction when every group column is fixed-width (`Int64`/`Bool`).
//!   Each row's key is packed into one `u64`/`u128` straight from the
//!   typed [`Vector`] payloads (one NULL bit per column, no `ScalarValue`,
//!   no byte encoding) and groups live in an open-addressed table probed on
//!   the packed key — no collision-chain byte compares.
//! * [`GenericGroupTable`] — the fallback for `Utf8`/`Float64` keys (and
//!   group-less global aggregates): type-tagged byte-encoded keys in a
//!   hash-chained table, compared only within a chain and cloned only when
//!   a group is first seen.
//!
//! Both paths hash group keys *vectorized once per chunk* (the same per-row
//! hash the partitioned [`crate::operators::AggregateSink`] radix-routes
//! on, so fast and generic runs route groups identically and `threads == 1`
//! output is byte-identical between them), and both accumulate through the
//! columnar [`AggState::update_vector`], which consumes whole selected
//! column slices per group run instead of materializing one `ScalarValue`
//! per row per aggregate.

use crate::expr::{AggExpr, AggFunc};
use rpt_common::{
    ColumnData, DataChunk, DataType, Error, Result, ScalarValue, Schema, Utf8Dict, Vector,
    DICT_KEY_BITS,
};
use std::any::Any;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Group-key hashes are already avalanche-mixed by `rpt_common::hash`, so
/// the generic group table's map uses an identity hasher.
#[derive(Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdentityHasher only accepts u64 keys");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// `u64 → V` map keyed by an already-mixed hash.
type IdentityMap<V> = HashMap<u64, V, BuildHasherDefault<IdentityHasher>>;

/// Running state of one aggregate in one group.
#[derive(Debug, Clone)]
pub enum AggState {
    Count(i64),
    SumI(i64),
    SumF(f64),
    Min(Option<ScalarValue>),
    Max(Option<ScalarValue>),
    Avg { sum: f64, count: i64 },
}

/// Allocation-sensitivity counters fed by [`AggState::update_vector`]:
/// tests pin these the way PR 4 pinned `key_allocs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct AggUpdateStats {
    /// MIN/MAX replacements — i.e. `ScalarValue` clones into the running
    /// state. At most one per `update_vector` call (the old per-row path
    /// cloned on every improving row, so sorted input cloned per row).
    pub minmax_clones: u64,
}

/// `a + b` with `i64` overflow surfaced as [`Error::Exec`] instead of a
/// debug panic / silent release wrap (`what` names the aggregate).
#[inline]
fn checked_i64_add(a: i64, b: i64, what: &str) -> Result<i64> {
    a.checked_add(b)
        .ok_or_else(|| Error::Exec(format!("{what} overflowed i64 (adding {b} to {a})")))
}

/// Float accumulate. IEEE addition saturates to ±inf rather than wrapping,
/// so no checked variant exists or is needed; routing through this helper
/// keeps the no-bare-`+=` lint signal clean in accumulator paths.
#[inline]
fn add_f64(acc_f64: &mut f64, x: f64) {
    *acc_f64 += x;
}

/// `partial_cmp_sql` between a typed column element and a scalar, without
/// materializing the element as a `ScalarValue`.
fn cmp_elem_sql(v: &Vector, row: usize, c: &ScalarValue) -> Option<Ordering> {
    use ScalarValue::*;
    match (&v.data, c) {
        (_, Null) => None,
        (ColumnData::Int64(a), Int64(b)) => Some(a[row].cmp(b)),
        (ColumnData::Int64(a), Float64(b)) => (a[row] as f64).partial_cmp(b),
        (ColumnData::Float64(a), Float64(b)) => a[row].partial_cmp(b),
        (ColumnData::Float64(a), Int64(b)) => a[row].partial_cmp(&(*b as f64)),
        (ColumnData::Utf8(a), Utf8(b)) => Some(a[row].cmp(b)),
        (ColumnData::Bool(a), Bool(b)) => Some(a[row].cmp(b)),
        _ => None,
    }
}

/// Batched MIN/MAX: scan the selected rows for the batch extremum by
/// reference (typed compares, no `ScalarValue` per row), then compare that
/// one candidate against the running value and clone only on replacement.
///
/// Matches the scalar path's strict-improvement and NULL semantics; the one
/// divergence is `f64` NaN *mid-batch* (a NaN candidate absorbs the rest of
/// its batch instead of each row comparing against the running value
/// individually) — both group-table paths batch identically, so they stay
/// consistent with each other.
fn update_minmax(
    cur: &mut Option<ScalarValue>,
    input: Option<&Vector>,
    sel: &[u32],
    want: Ordering,
    stats: &mut AggUpdateStats,
) {
    let Some(v) = input else { return };
    let mut best: Option<usize> = None;
    macro_rules! scan {
        ($vals:expr, $cmp:expr) => {{
            for &r in sel {
                let r = r as usize;
                if !v.is_valid(r) {
                    continue;
                }
                match best {
                    None => best = Some(r),
                    Some(b) => {
                        if $cmp(&$vals[r], &$vals[b]) == Some(want) {
                            best = Some(r);
                        }
                    }
                }
            }
        }};
    }
    match &v.data {
        ColumnData::Int64(vals) => scan!(vals, |a: &i64, b: &i64| Some(a.cmp(b))),
        ColumnData::Float64(vals) => scan!(vals, |a: &f64, b: &f64| a.partial_cmp(b)),
        ColumnData::Utf8(vals) => scan!(vals, |a: &String, b: &String| Some(a.cmp(b))),
        ColumnData::Bool(vals) => scan!(vals, |a: &bool, b: &bool| Some(a.cmp(b))),
    }
    let Some(b) = best else { return };
    let better = match cur.as_ref() {
        None => true,
        Some(c) => cmp_elem_sql(v, b, c) == Some(want),
    };
    if better {
        *cur = Some(v.get(b));
        stats.minmax_clones = stats.minmax_clones.saturating_add(1);
    }
}

impl AggState {
    fn new(func: AggFunc, float_sum: bool) -> AggState {
        match func {
            AggFunc::CountStar | AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => {
                if float_sum {
                    AggState::SumF(0.0)
                } else {
                    AggState::SumI(0)
                }
            }
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
        }
    }

    /// Scalar update (merge helpers and tests; the hot paths batch through
    /// [`AggState::update_vector`]).
    pub fn update(&mut self, value: Option<&ScalarValue>) -> Result<()> {
        match self {
            AggState::Count(c) => {
                // COUNT(*) gets None input and counts every row; COUNT(x)
                // gets Some and skips NULLs.
                match value {
                    None => *c = checked_i64_add(*c, 1, "COUNT")?,
                    Some(v) if !v.is_null() => *c = checked_i64_add(*c, 1, "COUNT")?,
                    _ => {}
                }
            }
            AggState::SumI(s) => {
                if let Some(x) = value.and_then(|v| v.as_i64()) {
                    *s = checked_i64_add(*s, x, "SUM")?;
                }
            }
            AggState::SumF(s) => {
                if let Some(x) = value.and_then(|v| v.as_f64()) {
                    add_f64(s, x);
                }
            }
            AggState::Min(cur) => {
                if let Some(v) = value {
                    if !v.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|c| v.partial_cmp_sql(c) == Some(Ordering::Less))
                    {
                        *cur = Some(v.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(v) = value {
                    if !v.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|c| v.partial_cmp_sql(c) == Some(Ordering::Greater))
                    {
                        *cur = Some(v.clone());
                    }
                }
            }
            AggState::Avg { sum, count } => {
                if let Some(x) = value.and_then(|v| v.as_f64()) {
                    add_f64(sum, x);
                    *count = checked_i64_add(*count, 1, "AVG count")?;
                }
            }
        }
        Ok(())
    }

    /// Columnar update: fold the selected rows of `input` into this state
    /// in one call, reading the typed payload slices directly — no
    /// per-row `ScalarValue`. `sel` holds logical row indices into `input`
    /// (a flat chunk-wide vector from `eval_inputs`); `input` is `None`
    /// only for `COUNT(*)`.
    pub fn update_vector(
        &mut self,
        input: Option<&Vector>,
        sel: &[u32],
        stats: &mut AggUpdateStats,
    ) -> Result<()> {
        match self {
            AggState::Count(c) => {
                let n = match input {
                    None => sel.len() as i64,
                    Some(v) => sel.iter().filter(|&&r| v.is_valid(r as usize)).count() as i64,
                };
                *c = checked_i64_add(*c, n, "COUNT")?;
            }
            AggState::SumI(s) => {
                let Some(v) = input else { return Ok(()) };
                match &v.data {
                    ColumnData::Int64(vals) => {
                        for &r in sel {
                            let r = r as usize;
                            if v.is_valid(r) {
                                *s = checked_i64_add(*s, vals[r], "SUM")?;
                            }
                        }
                    }
                    ColumnData::Bool(vals) => {
                        for &r in sel {
                            let r = r as usize;
                            if v.is_valid(r) {
                                *s = checked_i64_add(*s, vals[r] as i64, "SUM")?;
                            }
                        }
                    }
                    // Float64/Utf8 have no i64 coercion; the scalar path
                    // skips them too.
                    _ => {}
                }
            }
            AggState::SumF(s) => {
                let Some(v) = input else { return Ok(()) };
                match &v.data {
                    ColumnData::Float64(vals) => {
                        for &r in sel {
                            let r = r as usize;
                            if v.is_valid(r) {
                                add_f64(s, vals[r]);
                            }
                        }
                    }
                    ColumnData::Int64(vals) => {
                        for &r in sel {
                            let r = r as usize;
                            if v.is_valid(r) {
                                add_f64(s, vals[r] as f64);
                            }
                        }
                    }
                    _ => {}
                }
            }
            AggState::Min(cur) => update_minmax(cur, input, sel, Ordering::Less, stats),
            AggState::Max(cur) => update_minmax(cur, input, sel, Ordering::Greater, stats),
            AggState::Avg { sum, count } => {
                let Some(v) = input else { return Ok(()) };
                let mut n = 0i64;
                match &v.data {
                    ColumnData::Float64(vals) => {
                        for &r in sel {
                            let r = r as usize;
                            if v.is_valid(r) {
                                add_f64(sum, vals[r]);
                                n = n.saturating_add(1);
                            }
                        }
                    }
                    ColumnData::Int64(vals) => {
                        for &r in sel {
                            let r = r as usize;
                            if v.is_valid(r) {
                                add_f64(sum, vals[r] as f64);
                                n = n.saturating_add(1);
                            }
                        }
                    }
                    _ => {}
                }
                *count = checked_i64_add(*count, n, "AVG count")?;
            }
        }
        Ok(())
    }

    fn merge(&mut self, other: &AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a = checked_i64_add(*a, *b, "COUNT")?,
            (AggState::SumI(a), AggState::SumI(b)) => *a = checked_i64_add(*a, *b, "SUM")?,
            (AggState::SumF(a), AggState::SumF(b)) => add_f64(a, *b),
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(bv) = b {
                    if a.as_ref()
                        .is_none_or(|av| bv.partial_cmp_sql(av) == Some(Ordering::Less))
                    {
                        *a = Some(bv.clone());
                    }
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(bv) = b {
                    if a.as_ref()
                        .is_none_or(|av| bv.partial_cmp_sql(av) == Some(Ordering::Greater))
                    {
                        *a = Some(bv.clone());
                    }
                }
            }
            (AggState::Avg { sum: a, count: ac }, AggState::Avg { sum: b, count: bc }) => {
                add_f64(a, *b);
                *ac = checked_i64_add(*ac, *bc, "AVG count")?;
            }
            _ => unreachable!("merging mismatched aggregate states"),
        }
        Ok(())
    }

    fn finalize(&self) -> ScalarValue {
        match self {
            AggState::Count(c) => ScalarValue::Int64(*c),
            AggState::SumI(s) => ScalarValue::Int64(*s),
            AggState::SumF(s) => ScalarValue::Float64(*s),
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(ScalarValue::Null),
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    ScalarValue::Null
                } else {
                    ScalarValue::Float64(sum / *count as f64)
                }
            }
        }
    }
}

fn new_states(aggs: &[AggExpr], float_sums: &[bool]) -> Vec<AggState> {
    aggs.iter()
        .zip(float_sums.iter())
        .map(|(a, &f)| AggState::new(a.func, f))
        .collect()
}

/// Encode a group key into comparable bytes (type-tagged).
fn encode_key(values: &[ScalarValue], out: &mut Vec<u8>) {
    out.clear();
    for v in values {
        match v {
            ScalarValue::Null => out.push(0),
            ScalarValue::Int64(x) => {
                out.push(1);
                out.extend_from_slice(&x.to_le_bytes());
            }
            ScalarValue::Float64(x) => {
                out.push(2);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            ScalarValue::Utf8(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            ScalarValue::Bool(b) => {
                out.push(4);
                out.push(*b as u8);
            }
        }
    }
}

// --------------------------------------------------------- packed key layout

/// Bit layout of a packed fixed-width group key: per column (in group-col
/// order) one NULL bit followed by the column's value bits, packed
/// left-to-right into a single integer. Eligibility rule: every group
/// column has a fixed-width encoding ([`DataType::fixed_key_bits`], or
/// [`DICT_KEY_BITS`]-wide dictionary codes for a `Utf8` column with a
/// planner-attached dictionary) and the widths plus NULL bits fit in 128
/// bits — so `GROUP BY one Int64` (65 bits), `Int64 + Bool` (67), and a
/// dictionary-coded string column (33) take the fast path while two
/// `Int64`s (130) or a dictionary-less `Utf8`/`Float64` key fall back to
/// the generic table.
#[derive(Debug, Clone)]
pub struct KeyLayout {
    widths: Vec<u32>,
    types: Vec<DataType>,
    /// Per group column: the table dictionary its codes are packed
    /// against (`Utf8` columns only).
    dicts: Vec<Option<Arc<Utf8Dict>>>,
    total_bits: u32,
}

impl KeyLayout {
    /// The layout for these group columns, or `None` when the key is not
    /// fixed-width packable (→ generic table). `key_dicts` is indexed by
    /// *input column* and carries the table dictionary of each
    /// dictionary-coded `Utf8` column (planner-attached).
    pub fn try_new(
        group_cols: &[usize],
        input_types: &[DataType],
        key_dicts: &[Option<Arc<Utf8Dict>>],
    ) -> Option<KeyLayout> {
        if group_cols.is_empty() {
            return None;
        }
        let mut widths = Vec::with_capacity(group_cols.len());
        let mut types = Vec::with_capacity(group_cols.len());
        let mut dicts = Vec::with_capacity(group_cols.len());
        let mut total = 0u32;
        for &g in group_cols {
            let dt = *input_types.get(g)?;
            let (w, dict) = match key_dicts.get(g).and_then(Clone::clone) {
                Some(d) if dt == DataType::Utf8 => (DICT_KEY_BITS, Some(d)),
                _ => (dt.fixed_key_bits()?, None),
            };
            widths.push(w);
            types.push(dt);
            dicts.push(dict);
            total = total.saturating_add(w + 1);
        }
        (total <= 128).then_some(KeyLayout {
            widths,
            types,
            dicts,
            total_bits: total,
        })
    }

    /// Total packed width (value bits + one NULL bit per column).
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    fn num_cols(&self) -> usize {
        self.widths.len()
    }

    /// Pack every logical row's key columns into one integer per row,
    /// straight from the typed payloads. Dictionary group columns pack
    /// their codes: when the chunk vector carries the layout's dictionary
    /// (the scan served it), the `Int64` code payload packs directly; a
    /// flat string vector (or one on a different dictionary) falls back to
    /// a per-row code lookup.
    fn pack(&self, chunk: &DataChunk, group_cols: &[usize]) -> Vec<u128> {
        let mut acc = vec![0u128; chunk.num_rows()];
        let sel = chunk.selection.as_deref();
        for (i, &g) in group_cols.iter().enumerate() {
            let v = &chunk.columns[g];
            match &self.dicts[i] {
                None => v.pack_fixed_key(sel, self.widths[i], &mut acc),
                Some(d) if v.dict.as_ref().is_some_and(|vd| Arc::ptr_eq(vd, d)) => {
                    v.pack_fixed_key(sel, self.widths[i], &mut acc)
                }
                Some(d) => pack_dict_lookup(v, d, sel, self.widths[i], &mut acc),
            }
        }
        acc
    }

    /// Unpack a key back into scalars (finalize only — never on the per-row
    /// path). Dictionary codes decode back to their strings.
    fn decode(&self, mut key: u128, out: &mut Vec<ScalarValue>) {
        out.clear();
        for i in (0..self.widths.len()).rev() {
            let (w, dt) = (self.widths[i], self.types[i]);
            let null = (key >> w) & 1 == 1;
            let val = key & ((1u128 << w) - 1);
            key >>= w + 1;
            out.push(if null {
                ScalarValue::Null
            } else {
                match dt {
                    DataType::Int64 => ScalarValue::Int64(val as u64 as i64),
                    DataType::Bool => ScalarValue::Bool(val != 0),
                    DataType::Utf8 => {
                        let d = self.dicts[i]
                            .as_ref()
                            .expect("dictionary-less Utf8 in packed key layout");
                        ScalarValue::Utf8(d.value(val as usize).to_string())
                    }
                    _ => unreachable!("non-fixed-width type in packed key layout"),
                }
            });
        }
        out.reverse();
    }
}

/// [`Vector::pack_fixed_key`]'s protocol for a string column whose codes
/// must come from a per-row dictionary lookup (the vector is flat, or
/// dictionary-backed on a *different* dictionary). A value missing from
/// the layout dictionary is a planner invariant violation: the dictionary
/// covers the base column's full value set and group keys are a subset of
/// it.
fn pack_dict_lookup(v: &Vector, d: &Utf8Dict, sel: Option<&[u32]>, width: u32, acc: &mut [u128]) {
    let shift = width + 1;
    for (i, a) in acc.iter_mut().enumerate() {
        let row = sel.map_or(i, |s| s[i] as usize);
        *a = (*a << shift)
            | if v.is_valid(row) {
                d.code_of(v.utf8_at(row))
                    .expect("group value missing from the column dictionary")
                    as u128
            } else {
                1u128 << width
            };
    }
}

/// Per-chunk key material, computed once by
/// [`AggregateState::prepare_keys`] and shared across a sink's partitions:
/// the vectorized group-key hashes (identical values on both table paths,
/// so radix routing — and therefore `threads == 1` output — is
/// byte-identical between them) plus, on the fast path, the packed keys.
pub struct ChunkKeys {
    pub hashes: Vec<u64>,
    packed: Option<Vec<u128>>,
}

/// A packed group key: `u64` when the layout fits 64 bits, `u128` up to
/// 128. Keys are always *packed* as `u128` and narrowed per table.
pub(crate) trait PackedKey: Copy + Eq + Send + 'static {
    fn from_u128(v: u128) -> Self;
    fn to_u128(self) -> u128;
}

impl PackedKey for u64 {
    #[inline(always)]
    fn from_u128(v: u128) -> u64 {
        v as u64
    }
    #[inline(always)]
    fn to_u128(self) -> u128 {
        self as u128
    }
}

impl PackedKey for u128 {
    #[inline(always)]
    fn from_u128(v: u128) -> u128 {
        v
    }
    #[inline(always)]
    fn to_u128(self) -> u128 {
        self
    }
}

// ------------------------------------------------------------- group tables

/// One group table implementation. `update` folds a set of logical rows in
/// (the partitioned sink calls it once per partition with that partition's
/// row subset); `merge` combines another worker's table of the *same
/// concrete type* (downcast like `Sink::combine`); `finalize` emits the
/// result chunk with groups sorted by their *encoded key bytes*, so every
/// implementation produces the same deterministic order.
pub(crate) trait GroupTable: Send {
    fn update(
        &mut self,
        chunk: &DataChunk,
        inputs: &[Option<Vector>],
        rows: &[u32],
        keys: &ChunkKeys,
    ) -> Result<()>;

    fn merge(&mut self, other: Box<dyn GroupTable>) -> Result<()>;

    fn num_groups(&self) -> usize;

    fn key_allocs(&self) -> u64;

    fn stats(&self) -> AggUpdateStats;

    fn finalize(self: Box<Self>, output_schema: &Schema) -> Result<DataChunk>;

    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

fn downcast_table<T: GroupTable + 'static>(other: Box<dyn GroupTable>) -> Result<Box<T>> {
    other
        .into_any()
        .downcast::<T>()
        .map_err(|_| Error::Exec("merging mismatched group tables".into()))
}

/// Detect runs of equal group indices in `row_groups` (parallel to `rows`)
/// and hand each `(group, row-slice)` run to `fold` — which feeds the
/// columnar [`AggState::update_vector`], one call per `(run, aggregate)`
/// instead of one `ScalarValue` per `(row, aggregate)`.
fn for_each_run(
    row_groups: &[u32],
    rows: &[u32],
    mut fold: impl FnMut(usize, &[u32]) -> Result<()>,
) -> Result<()> {
    let mut start = 0;
    while start < rows.len() {
        let g = row_groups[start];
        let mut end = start + 1;
        while end < rows.len() && row_groups[end] == g {
            end = end.saturating_add(1);
        }
        fold(g as usize, &rows[start..end])?;
        start = end;
    }
    Ok(())
}

/// One generic-path group: its encoded key, decoded key values, running
/// aggregate states, and the next entry in this hash bucket's chain.
struct Group {
    hash: u64,
    key: Vec<u8>,
    vals: Vec<ScalarValue>,
    states: Vec<AggState>,
    next: Option<usize>,
}

/// The fallback table: type-tagged byte-encoded keys in a chained hash
/// table (`heads` maps a group-key hash to its chain in `groups`; lookups
/// compare encoded bytes only within one chain, and the key is cloned into
/// the table only when a *new* group is inserted — `key_allocs` pins that).
struct GenericGroupTable {
    group_cols: Vec<usize>,
    aggs: Vec<AggExpr>,
    float_sums: Vec<bool>,
    heads: IdentityMap<usize>,
    groups: Vec<Group>,
    key_allocs: u64,
    stats: AggUpdateStats,
    /// Scratch: per-row group index of the last `update` call.
    row_groups: Vec<u32>,
}

impl GenericGroupTable {
    fn new(group_cols: Vec<usize>, aggs: Vec<AggExpr>, float_sums: Vec<bool>) -> GenericGroupTable {
        GenericGroupTable {
            group_cols,
            aggs,
            float_sums,
            heads: IdentityMap::default(),
            groups: Vec::new(),
            key_allocs: 0,
            stats: AggUpdateStats::default(),
            row_groups: Vec::new(),
        }
    }

    /// Walk the collision chain of `hash` for an entry with exactly these
    /// encoded key bytes.
    fn find_group(&self, hash: u64, key: &[u8]) -> Option<usize> {
        let mut at = self.heads.get(&hash).copied();
        while let Some(i) = at {
            if self.groups[i].key == key {
                return Some(i);
            }
            at = self.groups[i].next;
        }
        None
    }
}

impl GroupTable for GenericGroupTable {
    fn update(
        &mut self,
        chunk: &DataChunk,
        inputs: &[Option<Vector>],
        rows: &[u32],
        keys: &ChunkKeys,
    ) -> Result<()> {
        let mut key_buf = Vec::new();
        let mut key_vals: Vec<ScalarValue> = Vec::with_capacity(self.group_cols.len());
        self.row_groups.clear();
        for &row in rows {
            let row = row as usize;
            key_vals.clear();
            for &g in &self.group_cols {
                key_vals.push(chunk.value(g, row));
            }
            encode_key(&key_vals, &mut key_buf);
            let hash = keys.hashes[row];
            // Probe the chain for this hash; clone the key only on a miss.
            let idx = match self.find_group(hash, &key_buf) {
                Some(i) => i,
                None => {
                    let idx = self.groups.len();
                    self.key_allocs = self.key_allocs.saturating_add(1);
                    self.groups.push(Group {
                        hash,
                        key: key_buf.clone(),
                        vals: key_vals.clone(),
                        states: new_states(&self.aggs, &self.float_sums),
                        next: self.heads.insert(hash, idx),
                    });
                    idx
                }
            };
            self.row_groups.push(idx as u32);
        }
        let (groups, row_groups, stats) = (&mut self.groups, &self.row_groups, &mut self.stats);
        for_each_run(row_groups, rows, |g, sel| {
            for (i, st) in groups[g].states.iter_mut().enumerate() {
                st.update_vector(inputs[i].as_ref(), sel, stats)?;
            }
            Ok(())
        })
    }

    /// Merge another worker's generic table for the same partition.
    /// Moved-in groups reuse the other table's key/value allocations.
    fn merge(&mut self, other: Box<dyn GroupTable>) -> Result<()> {
        let other = downcast_table::<GenericGroupTable>(other)?;
        for group in other.groups {
            match self.find_group(group.hash, &group.key) {
                Some(i) => {
                    for (a, b) in self.groups[i].states.iter_mut().zip(group.states.iter()) {
                        a.merge(b)?;
                    }
                }
                None => {
                    let idx = self.groups.len();
                    self.groups.push(Group {
                        next: self.heads.insert(group.hash, idx),
                        ..group
                    });
                }
            }
        }
        Ok(())
    }

    fn num_groups(&self) -> usize {
        self.groups.len()
    }

    fn key_allocs(&self) -> u64 {
        self.key_allocs
    }

    fn stats(&self) -> AggUpdateStats {
        self.stats
    }

    /// Produce the output chunk. Groups are sorted by encoded key for
    /// determinism (within one partition; partitions are published in
    /// partition-index order).
    fn finalize(self: Box<Self>, output_schema: &Schema) -> Result<DataChunk> {
        let this = *self;
        let mut entries: Vec<Group> = this.groups;
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        let ng = this.group_cols.len();
        let mut columns = output_columns(output_schema, ng, this.aggs.len())?;
        for group in &entries {
            for (i, v) in group.vals.iter().enumerate() {
                columns[i].push(v)?;
            }
            for (i, s) in group.states.iter().enumerate() {
                columns[ng + i].push(&s.finalize())?;
            }
        }
        // Global aggregation with zero rows still yields one row.
        if entries.is_empty() && ng == 0 {
            for (i, s) in new_states(&this.aggs, &this.float_sums).iter().enumerate() {
                columns[i].push(&s.finalize())?;
            }
        }
        Ok(DataChunk::new(columns))
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Validate the output schema and build its empty column vectors.
fn output_columns(output_schema: &Schema, ng: usize, num_aggs: usize) -> Result<Vec<Vector>> {
    let columns: Vec<Vector> = output_schema
        .fields
        .iter()
        .map(|f| Vector::new_empty(f.data_type))
        .collect();
    if columns.len() != ng + num_aggs {
        return Err(Error::Plan(format!(
            "aggregate output schema has {} fields, expected {}",
            columns.len(),
            ng + num_aggs
        )));
    }
    Ok(columns)
}

/// The fast path: groups keyed by their packed fixed-width key in an
/// open-addressed (linear probing) table. `slots` maps a probe position to
/// a dense group index (`u32::MAX` = empty); probes compare one integer,
/// never bytes. The per-group routing hash is retained so resizes and
/// partition-wise merges never re-hash — and merges compare packed keys
/// directly, no decoding.
struct FixedKeyGroupTable<K: PackedKey> {
    layout: KeyLayout,
    aggs: Vec<AggExpr>,
    float_sums: Vec<bool>,
    slots: Vec<u32>,
    keys: Vec<K>,
    hashes: Vec<u64>,
    states: Vec<Vec<AggState>>,
    key_allocs: u64,
    stats: AggUpdateStats,
    row_groups: Vec<u32>,
}

/// Initial open-addressing capacity (power of two).
const FIXED_TABLE_MIN_SLOTS: usize = 16;

impl<K: PackedKey> FixedKeyGroupTable<K> {
    fn new(layout: KeyLayout, aggs: Vec<AggExpr>, float_sums: Vec<bool>) -> FixedKeyGroupTable<K> {
        FixedKeyGroupTable {
            layout,
            aggs,
            float_sums,
            slots: vec![u32::MAX; FIXED_TABLE_MIN_SLOTS],
            keys: Vec::new(),
            hashes: Vec::new(),
            states: Vec::new(),
            key_allocs: 0,
            stats: AggUpdateStats::default(),
            row_groups: Vec::new(),
        }
    }

    /// Keep the load factor under 7/8 (grow *before* probing so the probe
    /// loop always terminates on an empty slot).
    fn maybe_grow(&mut self) {
        if (self.keys.len() + 1) * 8 <= self.slots.len() * 7 {
            return;
        }
        let new_cap = self.slots.len() * 2;
        let mask = new_cap - 1;
        let mut slots = vec![u32::MAX; new_cap];
        for (idx, &h) in self.hashes.iter().enumerate() {
            let mut i = (h as usize) & mask;
            while slots[i] != u32::MAX {
                i = (i + 1) & mask;
            }
            slots[i] = idx as u32;
        }
        self.slots = slots;
    }

    fn find(&self, hash: u64, key: K) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            match self.slots[i] {
                u32::MAX => return None,
                s if self.keys[s as usize] == key => return Some(s as usize),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Insert a group known to be absent, taking ownership of its states.
    fn insert_new(&mut self, hash: u64, key: K, states: Vec<AggState>) -> usize {
        self.maybe_grow();
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        while self.slots[i] != u32::MAX {
            i = (i + 1) & mask;
        }
        let idx = self.keys.len();
        self.slots[i] = idx as u32;
        self.keys.push(key);
        self.hashes.push(hash);
        self.states.push(states);
        idx
    }

    fn find_or_insert(&mut self, hash: u64, key: K) -> usize {
        self.maybe_grow();
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            match self.slots[i] {
                u32::MAX => {
                    let idx = self.keys.len();
                    self.slots[i] = idx as u32;
                    self.keys.push(key);
                    self.hashes.push(hash);
                    self.states.push(new_states(&self.aggs, &self.float_sums));
                    self.key_allocs = self.key_allocs.saturating_add(1);
                    return idx;
                }
                s if self.keys[s as usize] == key => return s as usize,
                _ => i = (i + 1) & mask,
            }
        }
    }
}

impl<K: PackedKey> GroupTable for FixedKeyGroupTable<K> {
    fn update(
        &mut self,
        _chunk: &DataChunk,
        inputs: &[Option<Vector>],
        rows: &[u32],
        keys: &ChunkKeys,
    ) -> Result<()> {
        let packed = keys
            .packed
            .as_deref()
            .ok_or_else(|| Error::Exec("fast-path group table without packed keys".into()))?;
        self.row_groups.clear();
        for &row in rows {
            let row = row as usize;
            let idx = self.find_or_insert(keys.hashes[row], K::from_u128(packed[row]));
            self.row_groups.push(idx as u32);
        }
        let (states, row_groups, stats) = (&mut self.states, &self.row_groups, &mut self.stats);
        for_each_run(row_groups, rows, |g, sel| {
            for (i, st) in states[g].iter_mut().enumerate() {
                st.update_vector(inputs[i].as_ref(), sel, stats)?;
            }
            Ok(())
        })
    }

    /// Merge another worker's fixed-key table for the same partition:
    /// probe on `(stored hash, packed key)` directly — no decoding, no
    /// re-hashing.
    fn merge(&mut self, other: Box<dyn GroupTable>) -> Result<()> {
        let other = downcast_table::<FixedKeyGroupTable<K>>(other)?;
        for ((key, hash), states) in other.keys.into_iter().zip(other.hashes).zip(other.states) {
            match self.find(hash, key) {
                Some(i) => {
                    for (a, b) in self.states[i].iter_mut().zip(states.iter()) {
                        a.merge(b)?;
                    }
                }
                None => {
                    self.insert_new(hash, key, states);
                }
            }
        }
        Ok(())
    }

    fn num_groups(&self) -> usize {
        self.keys.len()
    }

    fn key_allocs(&self) -> u64 {
        self.key_allocs
    }

    fn stats(&self) -> AggUpdateStats {
        self.stats
    }

    /// Decode each group's packed key (once per group, never per row),
    /// then emit in encoded-key-byte order — the exact order the generic
    /// table finalizes in, so the two paths are byte-identical.
    fn finalize(self: Box<Self>, output_schema: &Schema) -> Result<DataChunk> {
        let this = *self;
        let ng = this.layout.num_cols();
        let mut columns = output_columns(output_schema, ng, this.aggs.len())?;
        let mut decoded: Vec<Vec<ScalarValue>> = Vec::with_capacity(this.keys.len());
        let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(this.keys.len());
        let mut vals = Vec::new();
        let mut buf = Vec::new();
        for &k in &this.keys {
            this.layout.decode(k.to_u128(), &mut vals);
            encode_key(&vals, &mut buf);
            decoded.push(vals.clone());
            encoded.push(buf.clone());
        }
        let mut order: Vec<usize> = (0..this.keys.len()).collect();
        order.sort_by(|&a, &b| encoded[a].cmp(&encoded[b]));
        for &g in &order {
            for (i, v) in decoded[g].iter().enumerate() {
                columns[i].push(v)?;
            }
            for (i, s) in this.states[g].iter().enumerate() {
                columns[ng + i].push(&s.finalize())?;
            }
        }
        Ok(DataChunk::new(columns))
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

// ---------------------------------------------------------- AggregateState

/// Thread-local (or per-partition) hash-aggregate state: the group-table
/// selection (fast fixed-key vs generic encoded-key) plus the chunk-level
/// key preparation shared by the partitioned sink.
pub struct AggregateState {
    group_cols: Vec<usize>,
    aggs: Vec<AggExpr>,
    layout: Option<KeyLayout>,
    table: Box<dyn GroupTable>,
}

impl AggregateState {
    /// A generic (encoded-key) state — the fallback path and the
    /// compatibility constructor.
    pub fn new(
        group_cols: Vec<usize>,
        aggs: Vec<AggExpr>,
        input_types: &[rpt_common::DataType],
    ) -> Result<AggregateState> {
        AggregateState::with_fast_path(group_cols, aggs, input_types, false)
    }

    /// A state that takes the fixed-width fast path when `fast` is set and
    /// the group key is eligible ([`KeyLayout::try_new`]); otherwise the
    /// generic table. No key dictionaries: string group keys always fall
    /// back to the generic table here.
    pub fn with_fast_path(
        group_cols: Vec<usize>,
        aggs: Vec<AggExpr>,
        input_types: &[rpt_common::DataType],
        fast: bool,
    ) -> Result<AggregateState> {
        AggregateState::with_fast_path_dicts(group_cols, aggs, input_types, fast, &[])
    }

    /// [`AggregateState::with_fast_path`] plus per-input-column table
    /// dictionaries: a dictionary-coded `Utf8` group column packs its
    /// [`DICT_KEY_BITS`]-wide codes into the fixed key, extending fast-path
    /// eligibility to string group keys.
    pub fn with_fast_path_dicts(
        group_cols: Vec<usize>,
        aggs: Vec<AggExpr>,
        input_types: &[rpt_common::DataType],
        fast: bool,
        key_dicts: &[Option<Arc<Utf8Dict>>],
    ) -> Result<AggregateState> {
        let float_sums = aggs
            .iter()
            .map(|a| {
                Ok(match (&a.func, &a.input) {
                    (AggFunc::Sum, Some(e)) => {
                        e.data_type(input_types)? == rpt_common::DataType::Float64
                    }
                    _ => false,
                })
            })
            .collect::<Result<Vec<bool>>>()?;
        let layout = if fast {
            KeyLayout::try_new(&group_cols, input_types, key_dicts)
        } else {
            None
        };
        let table: Box<dyn GroupTable> = match &layout {
            Some(l) if l.total_bits() <= 64 => Box::new(FixedKeyGroupTable::<u64>::new(
                l.clone(),
                aggs.clone(),
                float_sums,
            )),
            Some(l) => Box::new(FixedKeyGroupTable::<u128>::new(
                l.clone(),
                aggs.clone(),
                float_sums,
            )),
            None => Box::new(GenericGroupTable::new(
                group_cols.clone(),
                aggs.clone(),
                float_sums,
            )),
        };
        Ok(AggregateState {
            group_cols,
            aggs,
            layout,
            table,
        })
    }

    /// Is this state on the fixed-width fast path?
    pub fn is_fast(&self) -> bool {
        self.layout.is_some()
    }

    /// Number of distinct groups seen so far.
    pub fn num_groups(&self) -> usize {
        self.table.num_groups()
    }

    /// How many group keys were materialized into the table — exactly one
    /// per distinct group (the allocation-sensitivity probe: the pre-PR-4
    /// implementation cloned the key buffer once per *input row*).
    pub fn key_allocs(&self) -> u64 {
        self.table.key_allocs()
    }

    /// MIN/MAX replacement clones performed so far (at most one per
    /// update batch; the old path cloned per improving row).
    pub fn minmax_clones(&self) -> u64 {
        self.table.stats().minmax_clones
    }

    /// Evaluate the aggregate input expressions once for a whole chunk.
    /// Dictionary-backed string inputs are decoded to flat strings here —
    /// once per chunk — so [`AggState::update_vector`]'s typed payload
    /// loops never mistake code payloads for integer values.
    pub fn eval_inputs(&self, chunk: &DataChunk) -> Result<Vec<Option<Vector>>> {
        self.aggs
            .iter()
            .map(|a| {
                a.input
                    .as_ref()
                    .map(|e| {
                        let mut v = e.eval(chunk)?;
                        v.decode_dict_in_place();
                        Ok(v)
                    })
                    .transpose()
            })
            .collect()
    }

    /// Vectorized per-chunk key material: group-key hashes over the
    /// chunk's logical rows (the same hash the partitioned sink
    /// radix-routes on, computed straight from the typed payloads without
    /// a gather) plus the packed keys on the fast path.
    pub fn prepare_keys(&self, chunk: &DataChunk) -> ChunkKeys {
        let n = chunk.num_rows();
        let hashes = if self.group_cols.is_empty() {
            vec![0; n]
        } else {
            crate::operators::key_hashes(chunk, &self.group_cols)
        };
        let packed = self
            .layout
            .as_ref()
            .map(|l| l.pack(chunk, &self.group_cols));
        ChunkKeys { hashes, packed }
    }

    /// Consume a chunk (Sink): evaluate inputs + keys once, then fold
    /// every logical row in.
    pub fn update(&mut self, chunk: &DataChunk) -> Result<()> {
        let n = chunk.num_rows();
        if n == 0 {
            return Ok(());
        }
        let inputs = self.eval_inputs(chunk)?;
        let keys = self.prepare_keys(chunk);
        let rows: Vec<u32> = (0..n as u32).collect();
        self.update_rows(chunk, &inputs, &rows, &keys)
    }

    /// Fold the given logical rows into the group table. `inputs` are the
    /// chunk-wide aggregate input vectors (from [`Self::eval_inputs`]) and
    /// `keys` the chunk-wide key material (from [`Self::prepare_keys`]),
    /// both indexed by logical row — the partitioned sink computes them
    /// once per chunk and calls this once per partition with that
    /// partition's row subset.
    pub fn update_rows(
        &mut self,
        chunk: &DataChunk,
        inputs: &[Option<Vector>],
        rows: &[u32],
        keys: &ChunkKeys,
    ) -> Result<()> {
        self.table.update(chunk, inputs, rows, keys)
    }

    /// Merge another thread's state for the same partition (Combine). Both
    /// states were built by the same factory, so the tables are the same
    /// concrete type; fast-path tables merge on packed keys directly.
    pub fn merge(&mut self, other: AggregateState) -> Result<()> {
        self.table.merge(other.table)
    }

    /// Produce the output chunk (Finalize). Groups are sorted by encoded
    /// key on both table paths (within one partition; partitions are
    /// published in partition-index order).
    pub fn finalize(self, output_schema: &Schema) -> Result<DataChunk> {
        self.table.finalize(output_schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use rpt_common::{DataType, Field};

    fn chunk() -> DataChunk {
        DataChunk::new(vec![
            Vector::from_i64(vec![1, 1, 2, 2, 2]),
            Vector::from_i64(vec![10, 20, 30, 40, 50]),
            Vector::from_f64(vec![1.0, 2.0, 3.0, 4.0, 5.0]),
        ])
    }

    fn agg(func: AggFunc, col: usize, alias: &str) -> AggExpr {
        AggExpr {
            func,
            input: Some(Expr::col(col)),
            alias: alias.into(),
        }
    }

    #[test]
    fn grouped_sum_count() {
        let types = [DataType::Int64, DataType::Int64, DataType::Float64];
        let mut st = AggregateState::new(
            vec![0],
            vec![agg(AggFunc::Sum, 1, "s"), AggExpr::count_star("c")],
            &types,
        )
        .unwrap();
        st.update(&chunk()).unwrap();
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::new("s", DataType::Int64),
            Field::new("c", DataType::Int64),
        ]);
        let out = st.finalize(&schema).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(1, 0), ScalarValue::Int64(30)); // group 1: 10+20
        assert_eq!(out.value(2, 0), ScalarValue::Int64(2));
        assert_eq!(out.value(1, 1), ScalarValue::Int64(120)); // group 2
        assert_eq!(out.value(2, 1), ScalarValue::Int64(3));
    }

    #[test]
    fn global_min_max_avg() {
        let types = [DataType::Int64, DataType::Int64, DataType::Float64];
        let mut st = AggregateState::new(
            vec![],
            vec![
                agg(AggFunc::Min, 1, "mn"),
                agg(AggFunc::Max, 1, "mx"),
                agg(AggFunc::Avg, 2, "av"),
            ],
            &types,
        )
        .unwrap();
        st.update(&chunk()).unwrap();
        let schema = Schema::new(vec![
            Field::new("mn", DataType::Int64),
            Field::new("mx", DataType::Int64),
            Field::new("av", DataType::Float64),
        ]);
        let out = st.finalize(&schema).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, 0), ScalarValue::Int64(10));
        assert_eq!(out.value(1, 0), ScalarValue::Int64(50));
        assert_eq!(out.value(2, 0), ScalarValue::Float64(3.0));
    }

    #[test]
    fn merge_combines_thread_states() {
        let types = [DataType::Int64, DataType::Int64, DataType::Float64];
        let mk = || AggregateState::new(vec![0], vec![AggExpr::count_star("c")], &types).unwrap();
        let mut a = mk();
        let mut b = mk();
        let mut c1 = chunk();
        c1.set_selection(vec![0, 1]); // group 1 rows
        let mut c2 = chunk();
        c2.set_selection(vec![2, 3, 4]); // group 2 rows
        a.update(&c1).unwrap();
        b.update(&c2).unwrap();
        a.merge(b).unwrap();
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::new("c", DataType::Int64),
        ]);
        let out = a.finalize(&schema).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(1, 0), ScalarValue::Int64(2));
        assert_eq!(out.value(1, 1), ScalarValue::Int64(3));
    }

    #[test]
    fn global_agg_on_empty_input_yields_one_row() {
        let types = [DataType::Int64];
        let st = AggregateState::new(vec![], vec![AggExpr::count_star("c")], &types).unwrap();
        let schema = Schema::new(vec![Field::new("c", DataType::Int64)]);
        let out = st.finalize(&schema).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, 0), ScalarValue::Int64(0));
    }

    #[test]
    fn grouped_agg_on_empty_input_yields_zero_rows() {
        let types = [DataType::Int64, DataType::Int64, DataType::Float64];
        let st = AggregateState::new(vec![0], vec![AggExpr::count_star("c")], &types).unwrap();
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::new("c", DataType::Int64),
        ]);
        let out = st.finalize(&schema).unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn count_skips_nulls_countstar_does_not() {
        let mut v = Vector::new_empty(DataType::Int64);
        v.push(&ScalarValue::Int64(1)).unwrap();
        v.push(&ScalarValue::Null).unwrap();
        let c = DataChunk::new(vec![v]);
        let types = [DataType::Int64];
        let mut st = AggregateState::new(
            vec![],
            vec![
                AggExpr {
                    func: AggFunc::Count,
                    input: Some(Expr::col(0)),
                    alias: "cnt".into(),
                },
                AggExpr::count_star("star"),
            ],
            &types,
        )
        .unwrap();
        st.update(&c).unwrap();
        let schema = Schema::new(vec![
            Field::new("cnt", DataType::Int64),
            Field::new("star", DataType::Int64),
        ]);
        let out = st.finalize(&schema).unwrap();
        assert_eq!(out.value(0, 0), ScalarValue::Int64(1));
        assert_eq!(out.value(1, 0), ScalarValue::Int64(2));
    }

    /// Allocation sensitivity: the group key is materialized into the
    /// table exactly once per *distinct group*, never per input row —
    /// on both table paths.
    #[test]
    fn key_cloned_only_on_first_sight_of_a_group() {
        let types = [DataType::Int64, DataType::Int64, DataType::Float64];
        for fast in [false, true] {
            let mut st = AggregateState::with_fast_path(
                vec![0],
                vec![AggExpr::count_star("c")],
                &types,
                fast,
            )
            .unwrap();
            assert_eq!(st.is_fast(), fast);
            for _ in 0..100 {
                st.update(&chunk()).unwrap(); // 5 rows, 2 distinct groups
            }
            assert_eq!(st.num_groups(), 2);
            assert_eq!(st.key_allocs(), 2, "500 rows must allocate only 2 keys");
        }
    }

    /// `i64` SUM overflow surfaces as `Error::Exec` instead of panicking in
    /// debug or silently wrapping in release — on both table paths.
    #[test]
    fn sum_overflow_is_an_exec_error() {
        let types = [DataType::Int64, DataType::Int64];
        for fast in [false, true] {
            // Group on a constant key so both chunks land in the same
            // group (and, with `fast`, the same fixed-key table entry).
            let mut st = AggregateState::with_fast_path(
                vec![0],
                vec![agg(AggFunc::Sum, 1, "s")],
                &types,
                fast,
            )
            .unwrap();
            assert_eq!(st.is_fast(), fast);
            st.update(&DataChunk::new(vec![
                Vector::from_i64(vec![7]),
                Vector::from_i64(vec![i64::MAX]),
            ]))
            .unwrap();
            let err = st
                .update(&DataChunk::new(vec![
                    Vector::from_i64(vec![7]),
                    Vector::from_i64(vec![1]),
                ]))
                .unwrap_err();
            assert!(matches!(err, Error::Exec(_)), "got {err}");
            assert!(err.to_string().contains("SUM"), "got {err}");
        }
    }

    /// Overflow across a thread-state merge is caught too — on both paths.
    #[test]
    fn sum_overflow_in_merge_is_an_exec_error() {
        let types = [DataType::Int64];
        for fast in [false, true] {
            let mk = || {
                AggregateState::with_fast_path(
                    vec![0],
                    vec![agg(AggFunc::Sum, 0, "s")],
                    &types,
                    fast,
                )
                .unwrap()
            };
            let mut a = mk();
            let mut b = mk();
            a.update(&DataChunk::new(vec![Vector::from_i64(vec![i64::MAX])]))
                .unwrap();
            b.update(&DataChunk::new(vec![Vector::from_i64(vec![i64::MAX])]))
                .unwrap();
            let err = a.merge(b).unwrap_err();
            assert!(matches!(err, Error::Exec(_)), "got {err}");
        }
    }

    /// Values *below* the overflow threshold still sum exactly.
    #[test]
    fn sum_near_i64_max_is_exact() {
        let types = [DataType::Int64];
        let mut st = AggregateState::new(vec![], vec![agg(AggFunc::Sum, 0, "s")], &types).unwrap();
        st.update(&DataChunk::new(vec![Vector::from_i64(vec![
            i64::MAX - 10,
            7,
            3,
        ])]))
        .unwrap();
        let schema = Schema::new(vec![Field::new("s", DataType::Int64)]);
        let out = st.finalize(&schema).unwrap();
        assert_eq!(out.value(0, 0), ScalarValue::Int64(i64::MAX));
    }

    // ------------------------------------------------ fast-path specifics

    /// Fast-path eligibility: fixed-width keys within 128 packed bits take
    /// the fixed table; `Utf8`/`Float64` keys and over-wide keys fall back.
    #[test]
    fn fast_path_eligibility_rule() {
        let aggs = vec![AggExpr::count_star("c")];
        let eligible = |cols: Vec<usize>, types: &[DataType]| {
            AggregateState::with_fast_path(cols, aggs.clone(), types, true)
                .unwrap()
                .is_fast()
        };
        assert!(eligible(vec![0], &[DataType::Int64])); // 65 bits
        assert!(eligible(vec![0, 1], &[DataType::Int64, DataType::Bool])); // 67
        assert!(eligible(vec![0], &[DataType::Bool])); // 2 bits → u64 table
        assert!(eligible(vec![0, 1], &[DataType::Bool, DataType::Bool]));
        assert!(!eligible(vec![0], &[DataType::Utf8]));
        assert!(!eligible(vec![0], &[DataType::Float64]));
        assert!(!eligible(vec![0, 1], &[DataType::Int64, DataType::Int64])); // 130
        assert!(!eligible(vec![], &[DataType::Int64])); // global agg
                                                        // Asking for the fast path off always yields the generic table.
        assert!(
            !AggregateState::with_fast_path(vec![0], aggs.clone(), &[DataType::Int64], false)
                .unwrap()
                .is_fast()
        );
    }

    /// Packed keys round-trip through decode, including NULLs and the
    /// `i64` extremes, and distinct tuples pack to distinct keys.
    #[test]
    fn key_layout_pack_decode_roundtrip() {
        let layout = KeyLayout::try_new(&[0, 1], &[DataType::Int64, DataType::Bool], &[]).unwrap();
        assert_eq!(layout.total_bits(), 67);
        let mut k = Vector::new_empty(DataType::Int64);
        for v in [
            ScalarValue::Int64(i64::MAX),
            ScalarValue::Int64(i64::MIN),
            ScalarValue::Int64(0),
            ScalarValue::Null,
            ScalarValue::Int64(-1),
        ] {
            k.push(&v).unwrap();
        }
        let mut b = Vector::new_empty(DataType::Bool);
        for v in [
            ScalarValue::Bool(true),
            ScalarValue::Bool(false),
            ScalarValue::Null,
            ScalarValue::Bool(false),
            ScalarValue::Bool(true),
        ] {
            b.push(&v).unwrap();
        }
        let chunk = DataChunk::new(vec![k.clone(), b.clone()]);
        let packed = layout.pack(&chunk, &[0, 1]);
        let mut seen = std::collections::HashSet::new();
        let mut vals = Vec::new();
        for (row, &key) in packed.iter().enumerate() {
            assert!(seen.insert(key), "distinct tuples must pack distinctly");
            layout.decode(key, &mut vals);
            assert_eq!(vals[0], k.get(row), "row {row} int col");
            assert_eq!(vals[1], b.get(row), "row {row} bool col");
        }
        // NULL int packs differently from 0: rows 2 and 3 share the int
        // value bits but differ in the NULL flag.
        assert_ne!(packed[2], packed[3]);
    }

    /// The two table implementations finalize byte-identical chunks for
    /// the same input, including NULL keys, Bool keys, and every aggregate
    /// function.
    #[test]
    fn fast_and_generic_tables_are_byte_identical() {
        let types = [
            DataType::Int64,
            DataType::Bool,
            DataType::Int64,
            DataType::Float64,
        ];
        let mut key = Vector::new_empty(DataType::Int64);
        let mut flag = Vector::new_empty(DataType::Bool);
        let mut vi = Vector::new_empty(DataType::Int64);
        let vf: Vec<f64> = (0..40).map(|i| (i as f64) * 0.5 - 3.0).collect();
        for i in 0..40i64 {
            key.push(&if i % 7 == 0 {
                ScalarValue::Null
            } else {
                ScalarValue::Int64(i % 5 - 2)
            })
            .unwrap();
            flag.push(&if i % 11 == 0 {
                ScalarValue::Null
            } else {
                ScalarValue::Bool(i % 2 == 0)
            })
            .unwrap();
            vi.push(&if i % 3 == 0 {
                ScalarValue::Null
            } else {
                ScalarValue::Int64(i * 10)
            })
            .unwrap();
        }
        let chunk = DataChunk::new(vec![key, flag, vi, Vector::from_f64(vf)]);
        let aggs = vec![
            AggExpr::count_star("c"),
            agg(AggFunc::Sum, 2, "s"),
            agg(AggFunc::Min, 3, "mn"),
            agg(AggFunc::Max, 2, "mx"),
            agg(AggFunc::Avg, 3, "av"),
        ];
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("f", DataType::Bool),
            Field::new("c", DataType::Int64),
            Field::new("s", DataType::Int64),
            Field::new("mn", DataType::Float64),
            Field::new("mx", DataType::Int64),
            Field::new("av", DataType::Float64),
        ]);
        let run = |fast: bool| {
            let mut st =
                AggregateState::with_fast_path(vec![0, 1], aggs.clone(), &types, fast).unwrap();
            assert_eq!(st.is_fast(), fast);
            st.update(&chunk).unwrap();
            // A second pass exercises found-group probes too.
            st.update(&chunk).unwrap();
            st.finalize(&schema).unwrap()
        };
        let generic = run(false);
        let fast = run(true);
        assert_eq!(generic.num_rows(), fast.num_rows());
        assert_eq!(
            generic.columns, fast.columns,
            "paths must be byte-identical"
        );
    }

    /// Fast-path merges combine packed-key tables directly and match the
    /// generic merge result exactly.
    #[test]
    fn fast_merge_matches_generic_merge() {
        let types = [DataType::Int64, DataType::Int64, DataType::Float64];
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::new("s", DataType::Int64),
            Field::new("c", DataType::Int64),
        ]);
        let aggs = vec![agg(AggFunc::Sum, 1, "s"), AggExpr::count_star("c")];
        let run = |fast: bool| {
            let mk =
                || AggregateState::with_fast_path(vec![0], aggs.clone(), &types, fast).unwrap();
            let mut a = mk();
            let mut b = mk();
            let mut c1 = chunk();
            c1.set_selection(vec![0, 1, 2]);
            let mut c2 = chunk();
            c2.set_selection(vec![2, 3, 4]);
            a.update(&c1).unwrap();
            b.update(&c2).unwrap();
            a.merge(b).unwrap();
            a.finalize(&schema).unwrap()
        };
        assert_eq!(run(false).columns, run(true).columns);
    }

    /// The MIN/MAX allocation pin (the PR-4-style probe): a whole
    /// ascending batch — where *every* row improves — performs exactly one
    /// replacement clone per update call, not one per row.
    #[test]
    fn minmax_clones_once_per_batch() {
        let types = [DataType::Utf8];
        let vals: Vec<String> = (0..100).map(|i| format!("v{i:03}")).collect();
        let c = DataChunk::new(vec![Vector::from_utf8(vals)]);
        let mut st = AggregateState::new(vec![], vec![agg(AggFunc::Max, 0, "mx")], &types).unwrap();
        st.update(&c).unwrap();
        assert_eq!(st.minmax_clones(), 1, "100 improving rows, one clone");
        st.update(&c).unwrap();
        // Second pass: the batch extremum ties the running max (not a
        // strict improvement), so no further clone.
        assert_eq!(st.minmax_clones(), 1);
        let schema = Schema::new(vec![Field::new("mx", DataType::Utf8)]);
        let out = st.finalize(&schema).unwrap();
        assert_eq!(out.value(0, 0), ScalarValue::Utf8("v099".into()));
    }
}
