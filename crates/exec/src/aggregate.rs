//! Hash aggregation state: per-chunk group ids into typed accumulator
//! columns.
//!
//! [`AggregateState`] is one thread's (or one hash partition's) aggregate.
//! A chunk is folded in two steps:
//!
//! 1. **Group ids.** A group table gives every row one dense `u32` group
//!    id. The table is chosen at sink construction:
//!    * no GROUP BY — no table and no hashing: every row is group 0;
//!    * [`FixedKeyTable`] — the **fast path**, when every group column is
//!      fixed-width (`Int64`/`Bool`, or a `Utf8` column with a
//!      planner-attached dictionary): each row's key is packed into one
//!      `u128` straight from the typed [`Vector`] payloads and probed
//!      by one integer compare;
//!    * [`GenericKeyTable`] — the fallback (`Utf8`/`Float64` keys, keys
//!      wider than 128 bits): keys are type-tagged byte strings, encoded
//!      column by column per chunk into one reusable buffer and stored back
//!      to back in one arena.
//! 2. **Accumulators.** Each aggregate keeps struct-of-arrays columns
//!    indexed by group id ([`Acc`]) and folds a chunk in one typed loop
//!    over (group ids, input values).
//!
//! Both keyed tables hash their keys once per chunk with the hash the
//! partitioned [`crate::operators::AggregateSink`] radix-routes on, and
//! both finalize in the byte order of the generic table's encoded keys, so
//! fast and generic runs route groups identically and `threads == 1`
//! output is byte-identical between them.

use crate::expr::{AggExpr, AggFunc};
use rpt_common::{
    ColumnData, DataChunk, DataType, Error, Field, Result, Schema, Utf8Dict, Vector, DICT_KEY_BITS,
};
use std::cmp::Ordering;
use std::sync::Arc;

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

/// A chunk-wide column viewed by payload type, resolved once per chunk.
/// Dictionary-coded strings stay codes and are read through
/// [`Vector::utf8_at`], so their code payload is never taken for `Int64`
/// values.
enum Values<'a> {
    I64(&'a [i64]),
    F64(&'a [f64]),
    Bool(&'a [bool]),
    Str(&'a Vector),
}

impl<'a> Values<'a> {
    fn of(v: &'a Vector) -> Values<'a> {
        match &v.data {
            _ if v.dict.is_some() => Values::Str(v),
            ColumnData::Int64(x) => Values::I64(x),
            ColumnData::Float64(x) => Values::F64(x),
            ColumnData::Bool(x) => Values::Bool(x),
            ColumnData::Utf8(_) => Values::Str(v),
        }
    }

    /// Length of valid row `r` in the generic table's key encoding.
    fn key_len(&self, r: usize) -> usize {
        match self {
            Values::I64(_) | Values::F64(_) => 9,
            Values::Bool(_) => 2,
            Values::Str(v) => 5 + v.utf8_at(r).len(),
        }
    }

    /// Write valid row `r` in the key encoding to the front of `out`;
    /// returns its length.
    fn put_key(&self, r: usize, out: &mut [u8]) -> usize {
        let mut put = |tag: u8, parts: &[&[u8]]| {
            out[0] = tag;
            let mut at = 1;
            for p in parts {
                out[at..at + p.len()].copy_from_slice(p);
                at = at.saturating_add(p.len());
            }
            at
        };
        match self {
            Values::I64(x) => put(1, &[&x[r].to_le_bytes()]),
            Values::F64(x) => put(2, &[&x[r].to_bits().to_le_bytes()]),
            Values::Str(v) => {
                let s = v.utf8_at(r).as_bytes();
                put(3, &[&(s.len() as u32).to_le_bytes(), s])
            }
            Values::Bool(x) => put(4, &[&[x[r] as u8]]),
        }
    }
}

// ------------------------------------------------------------ accumulators

/// Call `f(group, row)` for every row of `rows` valid under `validity`
/// (the input's NULL mask), where `ids[k]` is the group of `rows[k]` and no
/// `ids` puts every row in group 0.
#[inline(always)]
fn each_valid(
    ids: Option<&[u32]>,
    rows: &[u32],
    validity: Option<&[bool]>,
    mut f: impl FnMut(usize, usize) -> Result<()>,
) -> Result<()> {
    match (ids, validity) {
        (Some(ids), None) => {
            for (&g, &r) in ids.iter().zip(rows) {
                f(g as usize, r as usize)?;
            }
        }
        (Some(ids), Some(m)) => {
            for (&g, &r) in ids.iter().zip(rows) {
                if m[r as usize] {
                    f(g as usize, r as usize)?;
                }
            }
        }
        (None, None) => {
            for &r in rows {
                f(0, r as usize)?;
            }
        }
        (None, Some(m)) => {
            for &r in rows {
                if m[r as usize] {
                    f(0, r as usize)?;
                }
            }
        }
    }
    Ok(())
}

/// The MIN/MAX fold. `rows` are cut into runs of equal group ids (one run
/// without `ids`); the best valid row of each run — `better(row, best)`
/// replaces `best` — is offered once to the run's group by `offer(group,
/// row)`. Finding a run's extremum before comparing it with the group's
/// running value is the documented `f64` divergence from a row-at-a-time
/// fold: a NaN that starts a run absorbs the rest of it.
fn best_per_run(
    ids: Option<&[u32]>,
    rows: &[u32],
    validity: Option<&[bool]>,
    better: impl Fn(usize, usize) -> bool,
    mut offer: impl FnMut(usize, usize),
) {
    let (mut group, mut best) = (0usize, None);
    for (k, &r) in rows.iter().enumerate() {
        let g = ids.map_or(0, |ids| ids[k] as usize);
        if g != group {
            if let Some(b) = best.take() {
                offer(group, b);
            }
            group = g;
        }
        let r = r as usize;
        if validity.is_none_or(|m| m[r]) && best.is_none_or(|b| better(r, b)) {
            best = Some(r);
        }
    }
    if let Some(b) = best {
        offer(group, b);
    }
}

/// MIN/MAX values of one aggregate, one slot per group, typed by the
/// aggregate's input type.
enum Extremes {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
    Utf8(Vec<String>),
}

/// One aggregate's running values, one slot per group id.
enum Acc {
    /// `COUNT(*)` (no input: every row) and `COUNT(x)` (non-NULL rows).
    Count(Vec<i64>),
    /// `SUM` of `Int64`/`Bool` input, overflow-checked.
    SumI(Vec<i64>),
    /// `SUM` of `Float64` input.
    SumF(Vec<f64>),
    Avg {
        sum: Vec<f64>,
        count: Vec<i64>,
    },
    /// MIN (`want == Less`) or MAX (`Greater`); group `g`'s slot holds a
    /// value only once `set[g]`.
    Extreme {
        want: Ordering,
        set: Vec<bool>,
        vals: Extremes,
    },
}

impl Acc {
    fn new(a: &AggExpr, input_types: &[DataType]) -> Result<Acc> {
        let input_type = || -> Result<Option<DataType>> {
            a.input
                .as_ref()
                .map(|e| e.data_type(input_types))
                .transpose()
        };
        let extreme = |want| -> Result<Acc> {
            let vals = match input_type()? {
                Some(DataType::Float64) => Extremes::F64(Vec::new()),
                Some(DataType::Bool) => Extremes::Bool(Vec::new()),
                Some(DataType::Utf8) => Extremes::Utf8(Vec::new()),
                Some(DataType::Int64) | None => Extremes::I64(Vec::new()),
            };
            Ok(Acc::Extreme {
                want,
                set: Vec::new(),
                vals,
            })
        };
        Ok(match a.func {
            AggFunc::CountStar | AggFunc::Count => Acc::Count(Vec::new()),
            AggFunc::Sum if input_type()? == Some(DataType::Float64) => Acc::SumF(Vec::new()),
            AggFunc::Sum => Acc::SumI(Vec::new()),
            AggFunc::Min => extreme(Ordering::Less)?,
            AggFunc::Max => extreme(Ordering::Greater)?,
            AggFunc::Avg => Acc::Avg {
                sum: Vec::new(),
                count: Vec::new(),
            },
        })
    }

    /// Grow to `n` group slots, new ones at the empty value.
    fn resize(&mut self, n: usize) {
        match self {
            Acc::Count(v) | Acc::SumI(v) => v.resize(n, 0),
            Acc::SumF(v) => v.resize(n, 0.0),
            Acc::Avg { sum, count } => {
                sum.resize(n, 0.0);
                count.resize(n, 0);
            }
            Acc::Extreme { set, vals, .. } => {
                set.resize(n, false);
                match vals {
                    Extremes::I64(v) => v.resize(n, 0),
                    Extremes::F64(v) => v.resize(n, 0.0),
                    Extremes::Bool(v) => v.resize(n, false),
                    Extremes::Utf8(v) => v.resize_with(n, String::new),
                }
            }
        }
    }

    /// Fold `rows` of the chunk-wide `input` (`None` only for `COUNT(*)`)
    /// into the slots of their groups (`ids`, parallel to `rows`; `None`
    /// means group 0). Per group, rows fold in `rows` order, so `f64` sums
    /// keep row order.
    fn update(&mut self, input: Option<&Vector>, rows: &[u32], ids: Option<&[u32]>) -> Result<()> {
        let Some(v) = input else {
            return match self {
                Acc::Count(c) => each_valid(ids, rows, None, |g, _| {
                    c[g] = checked_i64_add(c[g], 1, "COUNT")?;
                    Ok(())
                }),
                _ => Ok(()),
            };
        };
        let m = v.validity.as_deref();
        match (self, Values::of(v)) {
            (Acc::Count(c), _) => each_valid(ids, rows, m, |g, _| {
                c[g] = checked_i64_add(c[g], 1, "COUNT")?;
                Ok(())
            }),
            (Acc::SumI(s), Values::I64(x)) => each_valid(ids, rows, m, |g, r| {
                s[g] = checked_i64_add(s[g], x[r], "SUM")?;
                Ok(())
            }),
            (Acc::SumI(s), Values::Bool(x)) => each_valid(ids, rows, m, |g, r| {
                s[g] = checked_i64_add(s[g], x[r] as i64, "SUM")?;
                Ok(())
            }),
            (Acc::SumF(s), Values::F64(x)) => each_valid(ids, rows, m, |g, r| {
                add_f64(&mut s[g], x[r]);
                Ok(())
            }),
            (Acc::SumF(s), Values::I64(x)) => each_valid(ids, rows, m, |g, r| {
                add_f64(&mut s[g], x[r] as f64);
                Ok(())
            }),
            (Acc::Avg { sum, count }, Values::F64(x)) => each_valid(ids, rows, m, |g, r| {
                add_f64(&mut sum[g], x[r]);
                count[g] = checked_i64_add(count[g], 1, "AVG count")?;
                Ok(())
            }),
            (Acc::Avg { sum, count }, Values::I64(x)) => each_valid(ids, rows, m, |g, r| {
                add_f64(&mut sum[g], x[r] as f64);
                count[g] = checked_i64_add(count[g], 1, "AVG count")?;
                Ok(())
            }),
            // SUM and AVG skip values they have no number for (a SUM of
            // strings stays 0, an AVG of booleans NULL).
            (Acc::SumI(_) | Acc::SumF(_) | Acc::Avg { .. }, _) => Ok(()),
            (Acc::Extreme { want, set, vals }, x) => {
                let want = *want;
                match (vals, x) {
                    (Extremes::I64(s), Values::I64(x)) => best_per_run(
                        ids,
                        rows,
                        m,
                        |a, b| x[a].cmp(&x[b]) == want,
                        |g, r| {
                            if !set[g] || x[r].cmp(&s[g]) == want {
                                (s[g], set[g]) = (x[r], true);
                            }
                        },
                    ),
                    (Extremes::F64(s), Values::F64(x)) => best_per_run(
                        ids,
                        rows,
                        m,
                        |a, b| x[a].partial_cmp(&x[b]) == Some(want),
                        |g, r| {
                            if !set[g] || x[r].partial_cmp(&s[g]) == Some(want) {
                                (s[g], set[g]) = (x[r], true);
                            }
                        },
                    ),
                    (Extremes::Bool(s), Values::Bool(x)) => best_per_run(
                        ids,
                        rows,
                        m,
                        |a, b| x[a].cmp(&x[b]) == want,
                        |g, r| {
                            if !set[g] || x[r].cmp(&s[g]) == want {
                                (s[g], set[g]) = (x[r], true);
                            }
                        },
                    ),
                    // The slot's `String` is reused: a replacement copies
                    // bytes, and only once per run.
                    (Extremes::Utf8(s), Values::Str(v)) => best_per_run(
                        ids,
                        rows,
                        m,
                        |a, b| v.utf8_at(a).cmp(v.utf8_at(b)) == want,
                        |g, r| {
                            let x = v.utf8_at(r);
                            if !set[g] || x.cmp(s[g].as_str()) == want {
                                s[g].clear();
                                s[g].push_str(x);
                                set[g] = true;
                            }
                        },
                    ),
                    _ if rows.iter().all(|&r| !v.is_valid(r as usize)) => {}
                    _ => {
                        return Err(Error::Exec(format!(
                            "MIN/MAX input changed type to {:?}",
                            v.data_type()
                        )))
                    }
                }
                Ok(())
            }
        }
    }

    /// Fold `other`'s slots into this one's: `other`'s group `j` is this
    /// accumulator's group `map[j]`.
    fn merge(&mut self, other: Acc, map: &[u32]) -> Result<()> {
        let pairs = || map.iter().map(|&g| g as usize).enumerate();
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => {
                for (j, g) in pairs() {
                    a[g] = checked_i64_add(a[g], b[j], "COUNT")?;
                }
            }
            (Acc::SumI(a), Acc::SumI(b)) => {
                for (j, g) in pairs() {
                    a[g] = checked_i64_add(a[g], b[j], "SUM")?;
                }
            }
            (Acc::SumF(a), Acc::SumF(b)) => {
                for (j, g) in pairs() {
                    add_f64(&mut a[g], b[j]);
                }
            }
            (Acc::Avg { sum, count }, Acc::Avg { sum: s, count: c }) => {
                for (j, g) in pairs() {
                    add_f64(&mut sum[g], s[j]);
                    count[g] = checked_i64_add(count[g], c[j], "AVG count")?;
                }
            }
            (
                Acc::Extreme { want, set, vals },
                Acc::Extreme {
                    set: other_set,
                    vals: other_vals,
                    ..
                },
            ) => {
                let want = Some(*want);
                let set = set.as_mut_slice();
                match (vals, other_vals) {
                    (Extremes::I64(a), Extremes::I64(b)) => {
                        merge_slots(set, a, &other_set, b, map, |x, y| x.partial_cmp(y) == want)
                    }
                    (Extremes::F64(a), Extremes::F64(b)) => {
                        merge_slots(set, a, &other_set, b, map, |x, y| x.partial_cmp(y) == want)
                    }
                    (Extremes::Bool(a), Extremes::Bool(b)) => {
                        merge_slots(set, a, &other_set, b, map, |x, y| x.partial_cmp(y) == want)
                    }
                    (Extremes::Utf8(a), Extremes::Utf8(b)) => {
                        merge_slots(set, a, &other_set, b, map, |x, y| x.partial_cmp(y) == want)
                    }
                    _ => return Err(Error::Exec("merging mismatched MIN/MAX states".into())),
                }
            }
            _ => return Err(Error::Exec("merging mismatched aggregate states".into())),
        }
        Ok(())
    }

    /// The output column: one value per group, in `order`.
    fn finish(self, order: &[u32]) -> Vector {
        match self {
            Acc::Count(v) | Acc::SumI(v) => Vector::from_i64(gather(&v, order)),
            Acc::SumF(v) => Vector::from_f64(gather(&v, order)),
            Acc::Avg { sum, count } => {
                let avg = |g: usize| (count[g] != 0).then(|| sum[g] / count[g] as f64);
                let vals = order.iter().map(|&g| avg(g as usize).unwrap_or(0.0));
                let valid = order.iter().map(|&g| count[g as usize] != 0);
                with_validity(Vector::from_f64(vals.collect()), valid.collect())
            }
            Acc::Extreme { set, vals, .. } => {
                let data = match vals {
                    Extremes::I64(v) => ColumnData::Int64(gather(&v, order)),
                    Extremes::F64(v) => ColumnData::Float64(gather(&v, order)),
                    Extremes::Bool(v) => ColumnData::Bool(gather(&v, order)),
                    Extremes::Utf8(mut v) => ColumnData::Utf8(
                        order
                            .iter()
                            .map(|&g| std::mem::take(&mut v[g as usize]))
                            .collect(),
                    ),
                };
                with_validity(Vector::new(data), gather(&set, order))
            }
        }
    }
}

/// MIN/MAX merge: `other`'s set slot `j` replaces slot `map[j]` when that
/// is unset or `better(new, old)`. Values move; none is cloned.
fn merge_slots<T>(
    set: &mut [bool],
    slots: &mut [T],
    other_set: &[bool],
    other: Vec<T>,
    map: &[u32],
    better: impl Fn(&T, &T) -> bool,
) {
    for ((x, &x_set), &g) in other.into_iter().zip(other_set).zip(map) {
        let g = g as usize;
        if x_set && (!set[g] || better(&x, &slots[g])) {
            (slots[g], set[g]) = (x, true);
        }
    }
}

fn gather<T: Copy>(v: &[T], order: &[u32]) -> Vec<T> {
    order.iter().map(|&g| v[g as usize]).collect()
}

/// Attach a NULL mask, `None` when every row is valid (as `Vector::push`
/// builds it). NULL rows keep the placeholder payload `push` writes.
fn with_validity(mut v: Vector, valid: Vec<bool>) -> Vector {
    if valid.contains(&false) {
        v.validity = Some(valid);
    }
    v
}

/// `v` as a column of the output schema's type: `Int64` values widen to
/// `Float64` as `Vector::push` widens them; any other mismatch is an error.
fn fit(v: Vector, dt: DataType) -> Result<Vector> {
    match v.data {
        ColumnData::Int64(x) if dt == DataType::Float64 => Ok(Vector {
            data: ColumnData::Float64(x.into_iter().map(|x| x as f64).collect()),
            ..v
        }),
        _ if v.data_type() == dt => Ok(v),
        _ => Err(Error::Exec(format!(
            "aggregate output of type {:?} does not fit a {dt:?} column",
            v.data_type()
        ))),
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
    /// Per group column: the offset of its value bits (the last column
    /// packs lowest; its NULL bit sits just above its value bits).
    shifts: Vec<u32>,
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
        for &g in group_cols {
            let dt = *input_types.get(g)?;
            let (w, dict) = match key_dicts.get(g).and_then(Clone::clone) {
                Some(d) if dt == DataType::Utf8 => (DICT_KEY_BITS, Some(d)),
                _ => (dt.fixed_key_bits()?, None),
            };
            widths.push(w);
            types.push(dt);
            dicts.push(dict);
        }
        let mut shifts = vec![0; widths.len()];
        let mut total = 0u32;
        for (shift, &w) in shifts.iter_mut().zip(&widths).rev() {
            *shift = total;
            total = total.saturating_add(w + 1);
        }
        (total <= 128).then_some(KeyLayout {
            widths,
            types,
            dicts,
            shifts,
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

    /// Pack every logical row's key columns into one integer per row in
    /// `acc`, straight from the typed payloads. Dictionary group columns
    /// pack their codes: when the chunk vector carries the layout's
    /// dictionary (the scan served it), the `Int64` code payload packs
    /// directly; a flat string vector (or one on a different dictionary)
    /// falls back to a per-row code lookup.
    fn pack(&self, chunk: &DataChunk, group_cols: &[usize], acc: &mut Vec<u128>) -> Result<()> {
        acc.clear();
        acc.resize(chunk.num_rows(), 0);
        let sel = chunk.selection.as_deref();
        for (i, &g) in group_cols.iter().enumerate() {
            let v = &chunk.columns[g];
            match &self.dicts[i] {
                Some(d) if !v.dict.as_ref().is_some_and(|vd| Arc::ptr_eq(vd, d)) => {
                    pack_dict_lookup(v, d, sel, self.widths[i], acc)?
                }
                _ => v.pack_fixed_key(sel, self.widths[i], acc),
            }
        }
        Ok(())
    }

    /// Column `i` of a packed key: its value bits, or `None` when NULL.
    fn field(&self, key: u128, i: usize) -> Option<u128> {
        let (w, s) = (self.widths[i], self.shifts[i]);
        ((key >> (s + w)) & 1 == 0).then(|| (key >> s) & ((1u128 << w) - 1))
    }

    /// Column `i` of `key` as an integer that orders like the column's
    /// encoded key bytes: NULL (tag 0) first, then non-NULL values, `Int64`
    /// ones by their little-endian bytes. Dictionary codes order by code
    /// here; [`KeyLayout::cmp_keys`] orders them by their strings.
    fn field_order(&self, key: u128, i: usize) -> u128 {
        self.field(key, i).map_or(0, |v| {
            let v = match self.types[i] {
                DataType::Int64 => (v as u64).swap_bytes() as u128,
                _ => v,
            };
            (1u128 << self.widths[i]) | v
        })
    }

    /// The whole key as one integer in encoded-key-byte order (layouts
    /// without dictionary columns).
    fn order_key(&self, key: u128) -> u128 {
        (0..self.num_cols()).fold(0, |acc, i| {
            acc | (self.field_order(key, i) << self.shifts[i])
        })
    }

    /// Encoded-key-byte order of two packed keys, column by column;
    /// dictionary columns compare their strings.
    fn cmp_keys(&self, a: u128, b: u128) -> Ordering {
        (0..self.num_cols())
            .map(
                |i| match (&self.dicts[i], self.field(a, i), self.field(b, i)) {
                    (Some(d), Some(x), Some(y)) => cmp_encoded_str(
                        dict_str(d, x).unwrap_or_default(),
                        dict_str(d, y).unwrap_or_default(),
                    ),
                    _ => self.field_order(a, i).cmp(&self.field_order(b, i)),
                },
            )
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// The group columns of `keys`, one row per key, typed by `fields`.
    /// Dictionary codes decode back to their strings.
    fn columns(&self, keys: &[u128], fields: &[Field]) -> Result<Vec<Vector>> {
        (0..self.num_cols())
            .zip(fields)
            .map(|(i, f)| {
                let vals = keys.iter().map(|&k| self.field(k, i));
                let data = match (self.types[i], &self.dicts[i]) {
                    (_, Some(d)) => ColumnData::Utf8(
                        vals.map(|v| match v {
                            None => Ok(String::new()),
                            Some(c) => dict_str(d, c).map(str::to_owned).ok_or_else(|| {
                                Error::Exec(format!("group key code {c} outside its dictionary"))
                            }),
                        })
                        .collect::<Result<_>>()?,
                    ),
                    (DataType::Int64, None) => {
                        ColumnData::Int64(vals.map(|v| v.unwrap_or(0) as u64 as i64).collect())
                    }
                    (DataType::Bool, None) => {
                        ColumnData::Bool(vals.map(|v| v.is_some_and(|v| v != 0)).collect())
                    }
                    (dt, None) => {
                        return Err(Error::Exec(format!("{dt:?} column in a packed group key")))
                    }
                };
                let valid = keys.iter().map(|&k| self.field(k, i).is_some()).collect();
                fit(with_validity(Vector::new(data), valid), f.data_type)
            })
            .collect()
    }
}

fn dict_str(d: &Utf8Dict, code: u128) -> Option<&str> {
    d.values().get(code as usize).map(String::as_str)
}

/// Byte order of two strings' key encodings: the little-endian `u32`
/// length first, then the bytes.
fn cmp_encoded_str(a: &str, b: &str) -> Ordering {
    let len = |s: &str| (s.len() as u32).swap_bytes();
    len(a)
        .cmp(&len(b))
        .then_with(|| a.as_bytes().cmp(b.as_bytes()))
}

/// [`Vector::pack_fixed_key`]'s protocol for a string column whose codes
/// must come from a per-row dictionary lookup (the vector is flat, or
/// dictionary-backed on a *different* dictionary). A value missing from
/// the layout dictionary is a planner invariant violation — the dictionary
/// covers the base column's full value set and group keys are a subset of
/// it — reported as [`Error::Exec`].
fn pack_dict_lookup(
    v: &Vector,
    d: &Utf8Dict,
    sel: Option<&[u32]>,
    width: u32,
    acc: &mut [u128],
) -> Result<()> {
    let shift = width + 1;
    for (i, a) in acc.iter_mut().enumerate() {
        let row = sel.map_or(i, |s| s[i] as usize);
        let bits = if v.is_valid(row) {
            let s = v.utf8_at(row);
            d.code_of(s).ok_or_else(|| {
                Error::Exec(format!(
                    "group value {s:?} missing from the column dictionary"
                ))
            })? as u128
        } else {
            1u128 << width
        };
        *a = (*a << shift) | bits;
    }
    Ok(())
}

// ------------------------------------------------------------- group tables

/// Per-chunk key material, computed once by
/// [`AggregateState::prepare_keys`] and shared by a sink's partitions; the
/// buffers are reused from chunk to chunk.
#[derive(Default)]
pub struct ChunkKeys {
    /// Group-key hash per logical row: the radix-routing hash and both
    /// keyed tables' probe hash (identical values on both, so routing —
    /// and therefore `threads == 1` output — is the same on both).
    pub hashes: Vec<u64>,
    /// Fast path: the packed key per logical row.
    packed: Vec<u128>,
    /// Generic path: the encoded key per logical row.
    encoded: EncodedKeys,
}

/// An empty [`Directory`] slot.
const EMPTY: u32 = u32::MAX;

/// Initial directory capacity (power of two).
const MIN_SLOTS: usize = 16;

/// Open-addressed (linear probing) directory from a group's hash to its
/// dense id, kept at most 7/8 full. Both keyed tables use it and differ
/// only in how a candidate's key is compared. Every group's hash is kept,
/// so growing and merging never re-hash.
struct Directory {
    slots: Vec<u32>,
}

impl Directory {
    fn new() -> Directory {
        Directory {
            slots: vec![EMPTY; MIN_SLOTS],
        }
    }

    /// The id of the group `is_key` accepts among those filed under
    /// `hash`, or `None` after filing a new group under id `hashes.len()`
    /// — the caller then appends that group's hash and key. `hashes` holds
    /// the hash of every group filed so far.
    #[inline]
    fn find_or_file(
        &mut self,
        hash: u64,
        hashes: &[u64],
        is_key: impl Fn(usize) -> bool,
    ) -> Option<u32> {
        // Grow before probing, so the probe always ends on an empty slot.
        if (hashes.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow(hashes);
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => {
                    self.slots[i] = hashes.len() as u32;
                    return None;
                }
                s if is_key(s as usize) => return Some(s),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self, hashes: &[u64]) {
        let mask = self.slots.len() * 2 - 1;
        self.slots = vec![EMPTY; mask + 1];
        for (id, &h) in hashes.iter().enumerate() {
            let mut i = h as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = id as u32;
        }
    }
}

/// The fast path: groups keyed by their packed fixed-width key. Merges
/// probe on the stored `(hash, packed key)` pairs — no decoding, no
/// re-hashing; keys are unpacked only at finalize.
struct FixedKeyTable {
    layout: KeyLayout,
    dir: Directory,
    keys: Vec<u128>,
    hashes: Vec<u64>,
}

impl FixedKeyTable {
    fn new(layout: KeyLayout) -> FixedKeyTable {
        FixedKeyTable {
            layout,
            dir: Directory::new(),
            keys: Vec::new(),
            hashes: Vec::new(),
        }
    }

    fn file(&mut self, hash: u64, key: u128) -> u32 {
        let FixedKeyTable {
            dir, keys, hashes, ..
        } = self;
        dir.find_or_file(hash, hashes, |g| keys[g] == key)
            .unwrap_or_else(|| {
                keys.push(key);
                hashes.push(hash);
                (keys.len() - 1) as u32
            })
    }

    fn assign(&mut self, rows: &[u32], keys: &ChunkKeys, ids: &mut Vec<u32>) {
        ids.clear();
        for &r in rows {
            let r = r as usize;
            ids.push(self.file(keys.hashes[r], keys.packed[r]));
        }
    }

    fn merge(&mut self, other: FixedKeyTable) -> Vec<u32> {
        (other.keys.iter().zip(&other.hashes))
            .map(|(&k, &h)| self.file(h, k))
            .collect()
    }

    /// Group ids in the encoded-key-byte order the generic table sorts by.
    fn order(&self) -> Vec<u32> {
        let key = |g: &u32| self.keys[*g as usize];
        let mut order: Vec<u32> = (0..self.keys.len() as u32).collect();
        if self.layout.dicts.iter().any(Option::is_some) {
            order.sort_unstable_by(|a, b| self.layout.cmp_keys(key(a), key(b)));
        } else {
            order.sort_by_cached_key(|g| self.layout.order_key(key(g)));
        }
        order
    }

    fn key_columns(&self, order: &[u32], fields: &[Field]) -> Result<Vec<Vector>> {
        self.layout.columns(&gather(&self.keys, order), fields)
    }
}

/// The generic table's group keys of one chunk: each logical row's group
/// columns, type-tagged and concatenated (NULL = tag 0; `Int64` = 1 + 8
/// little-endian bytes; `Float64` = 2 + its bits; `Utf8` = 3 + `u32`
/// length + bytes; `Bool` = 4 + 1 byte). Byte order of two encodings is
/// the order groups finalize in.
#[derive(Default)]
struct EncodedKeys {
    bytes: Vec<u8>,
    /// Row `i`'s key is `bytes[ends[i]..ends[i + 1]]`.
    ends: Vec<usize>,
    /// Scratch: each row's length, then its write cursor.
    at: Vec<usize>,
}

impl EncodedKeys {
    fn row(&self, i: usize) -> &[u8] {
        &self.bytes[self.ends[i]..self.ends[i + 1]]
    }

    /// Encode every logical row's key, column by column from the typed
    /// payloads: one pass sizes the rows, one writes each column's value at
    /// every row's cursor.
    fn encode(&mut self, chunk: &DataChunk, group_cols: &[usize]) {
        let n = chunk.num_rows();
        let sel = chunk.selection.as_deref();
        let phys = |i: usize| sel.map_or(i, |s| s[i] as usize);
        let cols: Vec<&Vector> = group_cols.iter().map(|&g| &chunk.columns[g]).collect();
        self.at.clear();
        self.at.resize(n, 0);
        for v in &cols {
            let vals = Values::of(v);
            for (i, len) in self.at.iter_mut().enumerate() {
                let r = phys(i);
                *len = len.saturating_add(if v.is_valid(r) { vals.key_len(r) } else { 1 });
            }
        }
        self.ends.clear();
        self.ends.push(0);
        let mut end = 0usize;
        for len in &self.at {
            end = end.saturating_add(*len);
            self.ends.push(end);
        }
        self.bytes.clear();
        self.bytes.resize(end, 0);
        self.at.copy_from_slice(&self.ends[..n]);
        for v in &cols {
            let vals = Values::of(v);
            for (i, at) in self.at.iter_mut().enumerate() {
                let r = phys(i);
                let out = &mut self.bytes[*at..];
                let len = if v.is_valid(r) {
                    vals.put_key(r, out)
                } else {
                    out[0] = 0;
                    1
                };
                *at = at.saturating_add(len);
            }
        }
    }
}

/// The fallback table: encoded keys (see [`EncodedKeys`]) stored back to
/// back in one arena, written once per group. A probe compares the stored
/// hash, then the key bytes.
struct GenericKeyTable {
    dir: Directory,
    hashes: Vec<u64>,
    /// Group `g`'s key is `bytes[ends[g]..ends[g + 1]]`.
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl GenericKeyTable {
    fn new() -> GenericKeyTable {
        GenericKeyTable {
            dir: Directory::new(),
            hashes: Vec::new(),
            bytes: Vec::new(),
            ends: vec![0],
        }
    }

    fn key(&self, g: usize) -> &[u8] {
        &self.bytes[self.ends[g]..self.ends[g + 1]]
    }

    fn file(&mut self, hash: u64, key: &[u8]) -> u32 {
        let GenericKeyTable {
            dir,
            hashes,
            bytes,
            ends,
        } = self;
        let is_key = |g: usize| hashes[g] == hash && &bytes[ends[g]..ends[g + 1]] == key;
        dir.find_or_file(hash, hashes, is_key).unwrap_or_else(|| {
            hashes.push(hash);
            bytes.extend_from_slice(key);
            ends.push(bytes.len());
            (hashes.len() - 1) as u32
        })
    }

    fn assign(&mut self, rows: &[u32], keys: &ChunkKeys, ids: &mut Vec<u32>) {
        ids.clear();
        for &r in rows {
            let r = r as usize;
            ids.push(self.file(keys.hashes[r], keys.encoded.row(r)));
        }
    }

    fn merge(&mut self, other: GenericKeyTable) -> Vec<u32> {
        (0..other.hashes.len())
            .map(|g| self.file(other.hashes[g], other.key(g)))
            .collect()
    }

    fn order(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.hashes.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| self.key(a as usize).cmp(self.key(b as usize)));
        order
    }

    /// Decode the keys of the groups in `order`, column by column, into
    /// columns typed by `fields`.
    fn key_columns(&self, order: &[u32], fields: &[Field]) -> Result<Vec<Vector>> {
        let mut at: Vec<usize> = order.iter().map(|&g| self.ends[g as usize]).collect();
        fields
            .iter()
            .map(|f| {
                let mut data = ColumnData::new_empty(f.data_type);
                let mut valid = Vec::with_capacity(order.len());
                for (at, &g) in at.iter_mut().zip(order) {
                    let key = &self.bytes[*at..self.ends[g as usize + 1]];
                    *at = at.saturating_add(push_encoded(&mut data, &mut valid, key)?);
                }
                Ok(with_validity(Vector::new(data), valid))
            })
            .collect()
    }
}

/// Append the encoded key value at the front of `key` to `out` (a NULL
/// appends `Vector::push`'s placeholder and an invalid row); returns the
/// value's encoded length. An `Int64` value widens into a `Float64` column
/// as `Vector::push` widens it.
fn push_encoded(out: &mut ColumnData, valid: &mut Vec<bool>, key: &[u8]) -> Result<usize> {
    let corrupt = || Error::Exec("truncated group key".into());
    let at = |range: std::ops::Range<usize>| key.get(range).ok_or_else(corrupt);
    let word = |range| -> Result<[u8; 8]> { at(range)?.try_into().map_err(|_| corrupt()) };
    let tag = *key.first().ok_or_else(corrupt)?;
    let len = match tag {
        0 => 1,
        3 => 5 + u32::from_le_bytes(at(1..5)?.try_into().map_err(|_| corrupt())?) as usize,
        4 => 2,
        _ => 9,
    };
    match (tag, &mut *out) {
        (0, ColumnData::Int64(v)) => v.push(0),
        (0, ColumnData::Float64(v)) => v.push(0.0),
        (0, ColumnData::Utf8(v)) => v.push(String::new()),
        (0, ColumnData::Bool(v)) => v.push(false),
        (1, ColumnData::Int64(v)) => v.push(i64::from_le_bytes(word(1..9)?)),
        (1, ColumnData::Float64(v)) => v.push(i64::from_le_bytes(word(1..9)?) as f64),
        (2, ColumnData::Float64(v)) => v.push(f64::from_bits(u64::from_le_bytes(word(1..9)?))),
        (3, ColumnData::Utf8(v)) => {
            let s = std::str::from_utf8(at(5..len)?).map_err(|e| Error::Exec(e.to_string()))?;
            v.push(s.to_owned())
        }
        (4, ColumnData::Bool(v)) => v.push(at(1..2)?[0] != 0),
        (tag, out) => {
            return Err(Error::Exec(format!(
                "group key tag {tag} does not fit a {:?} column",
                out.data_type()
            )))
        }
    }
    valid.push(tag != 0);
    Ok(len)
}

// ---------------------------------------------------------- AggregateState

/// Where a state's groups live.
enum Groups {
    /// No GROUP BY: one group (id 0), no table. `seen` once a row (or a
    /// merged state that saw one) arrived.
    Single {
        seen: bool,
    },
    Fixed(FixedKeyTable),
    Generic(GenericKeyTable),
}

impl Groups {
    /// Number of accumulator slots: the group count, and 1 without GROUP
    /// BY (its one row exists even over zero input rows).
    fn len(&self) -> usize {
        match self {
            Groups::Single { .. } => 1,
            Groups::Fixed(t) => t.keys.len(),
            Groups::Generic(t) => t.hashes.len(),
        }
    }
}

/// Thread-local (or per-partition) hash-aggregate state: a group table
/// (or none, without GROUP BY) handing out group ids, and one
/// [`Acc`] per aggregate.
pub struct AggregateState {
    group_cols: Vec<usize>,
    aggs: Vec<AggExpr>,
    groups: Groups,
    accs: Vec<Acc>,
    /// Scratch: the group id of every row of the last update.
    ids: Vec<u32>,
}

impl AggregateState {
    /// A generic (encoded-key) state — the fallback path and the
    /// compatibility constructor.
    pub fn new(
        group_cols: Vec<usize>,
        aggs: Vec<AggExpr>,
        input_types: &[DataType],
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
        input_types: &[DataType],
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
        input_types: &[DataType],
        fast: bool,
        key_dicts: &[Option<Arc<Utf8Dict>>],
    ) -> Result<AggregateState> {
        let layout = fast
            .then(|| KeyLayout::try_new(&group_cols, input_types, key_dicts))
            .flatten();
        let groups = match layout {
            _ if group_cols.is_empty() => Groups::Single { seen: false },
            Some(l) => Groups::Fixed(FixedKeyTable::new(l)),
            None => Groups::Generic(GenericKeyTable::new()),
        };
        let mut accs = aggs
            .iter()
            .map(|a| Acc::new(a, input_types))
            .collect::<Result<Vec<_>>>()?;
        accs.iter_mut().for_each(|a| a.resize(groups.len()));
        Ok(AggregateState {
            group_cols,
            aggs,
            groups,
            accs,
            ids: Vec::new(),
        })
    }

    /// Is this state on the fixed-width fast path?
    pub fn is_fast(&self) -> bool {
        matches!(self.groups, Groups::Fixed(_))
    }

    /// Number of distinct groups seen so far (without GROUP BY: 1 once any
    /// row arrived).
    pub fn num_groups(&self) -> usize {
        match self.groups {
            Groups::Single { seen } => seen as usize,
            ref g => g.len(),
        }
    }

    /// Evaluate the aggregate input expressions once for a whole chunk:
    /// one flat vector per aggregate, indexed by logical row.
    pub fn eval_inputs(&self, chunk: &DataChunk) -> Result<Vec<Option<Vector>>> {
        self.aggs
            .iter()
            .map(|a| a.input.as_ref().map(|e| e.eval(chunk)).transpose())
            .collect()
    }

    /// Compute a chunk's key material into `keys` (buffers reused):
    /// group-key hashes over its logical rows (the same hash the
    /// partitioned sink radix-routes on, straight from the typed payloads
    /// without a gather) plus the packed keys on the fast path or the
    /// encoded keys on the generic one. Without GROUP BY there is none.
    pub fn prepare_keys(&self, chunk: &DataChunk, keys: &mut ChunkKeys) -> Result<()> {
        let cols = &self.group_cols;
        match &self.groups {
            Groups::Single { .. } => {
                keys.hashes.clear();
                return Ok(());
            }
            Groups::Fixed(t) => t.layout.pack(chunk, cols, &mut keys.packed)?,
            Groups::Generic(_) => keys.encoded.encode(chunk, cols),
        }
        keys.hashes = crate::operators::key_hashes(chunk, cols);
        Ok(())
    }

    /// Consume a chunk (Sink): evaluate inputs + keys once, then fold
    /// every logical row in.
    pub fn update(&mut self, chunk: &DataChunk) -> Result<()> {
        let n = chunk.num_rows();
        if n == 0 {
            return Ok(());
        }
        let inputs = self.eval_inputs(chunk)?;
        let mut keys = ChunkKeys::default();
        self.prepare_keys(chunk, &mut keys)?;
        let rows: Vec<u32> = (0..n as u32).collect();
        self.update_rows(&inputs, &rows, &keys)
    }

    /// Fold the given logical rows in. `inputs` are the chunk-wide
    /// aggregate input vectors (from [`Self::eval_inputs`]) and `keys` the
    /// chunk-wide key material (from [`Self::prepare_keys`]), both indexed
    /// by logical row — the partitioned sink computes them once per chunk
    /// and calls this once per partition with that partition's rows.
    pub fn update_rows(
        &mut self,
        inputs: &[Option<Vector>],
        rows: &[u32],
        keys: &ChunkKeys,
    ) -> Result<()> {
        let ids = &mut self.ids;
        match &mut self.groups {
            Groups::Single { seen } => *seen |= !rows.is_empty(),
            Groups::Fixed(t) => t.assign(rows, keys, ids),
            Groups::Generic(t) => t.assign(rows, keys, ids),
        }
        let (n, ids) = match self.groups {
            Groups::Single { .. } => (1, None),
            ref g => (g.len(), Some(self.ids.as_slice())),
        };
        for (acc, input) in self.accs.iter_mut().zip(inputs) {
            acc.resize(n);
            acc.update(input.as_ref(), rows, ids)?;
        }
        Ok(())
    }

    /// Merge another thread's state for the same partition (Combine). Both
    /// states were built by the same factory, so the tables are the same
    /// kind; fast-path tables merge on packed keys directly.
    pub fn merge(&mut self, other: AggregateState) -> Result<()> {
        let map = match (&mut self.groups, other.groups) {
            (Groups::Single { seen }, Groups::Single { seen: theirs }) => {
                *seen |= theirs;
                vec![0]
            }
            (Groups::Fixed(a), Groups::Fixed(b)) => a.merge(b),
            (Groups::Generic(a), Groups::Generic(b)) => a.merge(b),
            _ => return Err(Error::Exec("merging mismatched group tables".into())),
        };
        if self.accs.len() != other.accs.len() {
            return Err(Error::Exec("merging mismatched aggregate lists".into()));
        }
        let n = self.groups.len();
        for (acc, theirs) in self.accs.iter_mut().zip(other.accs) {
            acc.resize(n);
            acc.merge(theirs, &map)?;
        }
        Ok(())
    }

    /// Produce the output chunk (Finalize): groups in the byte order of
    /// their encoded keys on both table paths (within one partition;
    /// partitions are published in partition-index order), key columns
    /// then one column per aggregate, written typed. Without GROUP BY the
    /// one row is there even over zero input rows.
    pub fn finalize(self, output_schema: &Schema) -> Result<DataChunk> {
        let ng = self.group_cols.len();
        if output_schema.len() != ng + self.accs.len() {
            return Err(Error::Plan(format!(
                "aggregate output schema has {} fields, expected {}",
                output_schema.len(),
                ng + self.accs.len()
            )));
        }
        let (key_fields, agg_fields) = output_schema.fields.split_at(ng);
        let (order, mut columns) = match &self.groups {
            Groups::Single { .. } => (vec![0], Vec::new()),
            Groups::Fixed(t) => {
                let order = t.order();
                let keys = t.key_columns(&order, key_fields)?;
                (order, keys)
            }
            Groups::Generic(t) => {
                let order = t.order();
                let keys = t.key_columns(&order, key_fields)?;
                (order, keys)
            }
        };
        for (acc, f) in self.accs.into_iter().zip(agg_fields) {
            columns.push(fit(acc.finish(&order), f.data_type)?);
        }
        Ok(DataChunk::new(columns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use rpt_common::{DataType, Field, ScalarValue};

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

    /// Allocation sensitivity: a group's key is written into the table
    /// once, when the group is first seen, never per input row — on both
    /// table paths.
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
            let stored = match &st.groups {
                Groups::Fixed(t) => t.keys.len(),
                // One `Int64` key encodes to 9 bytes.
                Groups::Generic(t) => t.bytes.len() / 9,
                Groups::Single { .. } => 0,
            };
            assert_eq!(stored, 2, "500 rows must store only 2 keys");
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

    /// Packed keys round-trip through the finalize key columns, including
    /// NULLs and the `i64` extremes, and distinct tuples pack to distinct
    /// keys.
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
        let mut packed = Vec::new();
        layout.pack(&chunk, &[0, 1], &mut packed).unwrap();
        let distinct: std::collections::HashSet<u128> = packed.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            packed.len(),
            "distinct tuples pack distinctly"
        );
        let fields = [
            Field::new("k", DataType::Int64),
            Field::new("b", DataType::Bool),
        ];
        let cols = layout.columns(&packed, &fields).unwrap();
        assert_eq!(cols, vec![k, b], "decoded columns equal the pushed ones");
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

    /// Dictionary-coded string keys finalize in the generic table's order
    /// too: by the little-endian length bytes first (a 256-byte string
    /// before a 1-byte one), then by the bytes — not by dictionary code.
    #[test]
    fn dictionary_keys_finalize_in_encoded_key_order() {
        let long = "z".repeat(256);
        let words = ["b", "", "ab", "aa", long.as_str(), "a"];
        let dict = Utf8Dict::from_values(words);
        let codes: Vec<i64> = words
            .iter()
            .chain(&words)
            .map(|w| dict.code_of(w).unwrap() as i64)
            .collect();
        let n = codes.len() as i64;
        let mut validity = vec![true; codes.len()];
        validity[3] = false;
        let key = Vector::from_dict_codes(codes, Some(validity), dict.clone());
        let chunk = DataChunk::new(vec![key, Vector::from_i64((0..n).collect())]);
        let types = [DataType::Utf8, DataType::Int64];
        let aggs = vec![agg(AggFunc::Sum, 1, "s")];
        let schema = Schema::new(vec![
            Field::new("k", DataType::Utf8),
            Field::new("s", DataType::Int64),
        ]);
        let run = |fast: bool| {
            let dicts = [Some(dict.clone()), None];
            let mut st =
                AggregateState::with_fast_path_dicts(vec![0], aggs.clone(), &types, fast, &dicts)
                    .unwrap();
            assert_eq!(st.is_fast(), fast);
            st.update(&chunk).unwrap();
            st.finalize(&schema).unwrap()
        };
        let (generic, fast) = (run(false), run(true));
        assert_eq!(
            generic.columns, fast.columns,
            "paths must be byte-identical"
        );
        let keys: Vec<ScalarValue> = (0..generic.num_rows())
            .map(|r| generic.value(0, r))
            .collect();
        let s = |w: &str| ScalarValue::Utf8(w.into());
        assert_eq!(
            keys,
            vec![
                ScalarValue::Null,
                s(""),
                s(&long),
                s("a"),
                s("b"),
                s("aa"),
                s("ab")
            ]
        );
    }

    /// A flat string group column holding a value its layout dictionary
    /// lacks is an `Error::Exec`, not a panic.
    #[test]
    fn group_value_missing_from_dictionary_is_an_exec_error() {
        let dict = Utf8Dict::from_values(["east", "west"]);
        let mut st = AggregateState::with_fast_path_dicts(
            vec![0],
            vec![AggExpr::count_star("c")],
            &[DataType::Utf8],
            true,
            &[Some(dict)],
        )
        .unwrap();
        assert!(st.is_fast());
        let flat = Vector::from_utf8(vec!["east".into(), "north".into()]);
        let err = st.update(&DataChunk::new(vec![flat])).unwrap_err();
        assert!(matches!(err, Error::Exec(_)), "got {err}");
        assert!(err.to_string().contains("north"), "got {err}");
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

    /// The documented MIN/MAX NaN batching: within one update, a NaN that
    /// starts a group's run of rows absorbs the rest of the run, so the
    /// smaller value after it never reaches the running minimum.
    #[test]
    fn nan_starting_a_run_absorbs_the_run() {
        let types = [DataType::Float64];
        let mut st = AggregateState::new(vec![], vec![agg(AggFunc::Min, 0, "mn")], &types).unwrap();
        st.update(&DataChunk::new(vec![Vector::from_f64(vec![2.0])]))
            .unwrap();
        st.update(&DataChunk::new(vec![Vector::from_f64(vec![f64::NAN, 1.0])]))
            .unwrap();
        let schema = Schema::new(vec![Field::new("mn", DataType::Float64)]);
        let out = st.finalize(&schema).unwrap();
        assert_eq!(out.value(0, 0), ScalarValue::Float64(2.0));
    }
}
