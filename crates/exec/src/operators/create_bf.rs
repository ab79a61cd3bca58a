//! CreateBF (§4.2): the filter-building half shared by the sinks.
//!
//! A [`BloomSink`] is the *request* ("build filter `filter_id` over these
//! key columns, of this shape"); a [`BloomBuild`] is one worker's
//! in-progress filter, which takes key hashes if it is a Bloom filter and
//! raw `Int64` keys, unhashed, if it is a key bitmap. Buffer sinks (the
//! canonical CreateBF) and hash-build sinks (the BloomJoin baseline's build
//! side) both embed a list of `BloomBuild`s; their mergers' `finish`
//! OR-merges every worker's builds and publishes the filters
//! ([`merge_publish_blooms`]).

use super::{KeyHashes, Resources};
use crate::context::ExecContext;
use rpt_bloom::{FilterKind, FilterShape, TransferFilter};
use rpt_common::{ColumnData, DataChunk, Error, Result};
use std::time::Instant;

/// Request to build one transfer filter inside a buffering sink.
#[derive(Clone)]
pub struct BloomSink {
    pub filter_id: usize,
    pub key_cols: Vec<usize>,
    /// Bloom filter or key bitmap, and its size; the planner's size rule
    /// ([`FilterShape::choose`]) picks it.
    pub shape: FilterShape,
}

/// One worker's partial filter for a [`BloomSink`] request.
pub struct BloomBuild {
    spec: BloomSink,
    filter: TransferFilter,
}

impl BloomBuild {
    pub fn new(spec: &BloomSink) -> Result<BloomBuild> {
        Ok(BloomBuild {
            filter: TransferFilter::new(&spec.shape)?,
            spec: spec.clone(),
        })
    }

    /// Instantiate one build per request.
    pub fn from_specs(specs: &[BloomSink]) -> Result<Vec<BloomBuild>> {
        specs.iter().map(BloomBuild::new).collect()
    }

    pub fn filter_id(&self) -> usize {
        self.spec.filter_id
    }

    /// Publish the finished filter.
    pub fn publish(self, res: &Resources) -> Result<()> {
        res.publish_filter(self.spec.filter_id, self.filter)
    }
}

/// Insert the keys of a chunk into the worker's partial filters (the
/// `Sink` step of CreateBF / the BloomJoin build side). Bloom filters take
/// the key hashes, which come from — and stay in — `hashes`, so the sink's
/// partition routing on the same key columns does not hash them again; key
/// bitmaps take the raw values and hash nothing.
pub(crate) fn insert_into_blooms(
    hashes: &mut KeyHashes,
    blooms: &mut [BloomBuild],
    ctx: &ExecContext,
) -> Result<()> {
    if blooms.is_empty() {
        return Ok(());
    }
    let m = &ctx.metrics;
    let t0 = Instant::now();
    let chunk = hashes.chunk();
    for build in blooms.iter_mut() {
        let nulls: Vec<&[bool]> = build
            .spec
            .key_cols
            .iter()
            .filter_map(|&k| chunk.columns[k].validity.as_deref())
            .collect();
        // A key with a NULL in any column matches nothing, so it is never
        // inserted. NULL is read from validity: a composite key's hash is
        // not the sentinel when a later column is valid, and a valid key
        // may hash to the sentinel.
        let valid = |i: &usize| {
            let row = chunk.physical_index(*i);
            nulls.iter().all(|valid| valid[row])
        };
        match build.filter.kind_mut() {
            FilterKind::Bloom(bloom) => {
                let keys = hashes.get(&build.spec.key_cols);
                if nulls.is_empty() {
                    bloom.insert_hashes(keys);
                } else {
                    let valid: Vec<u64> = (0..keys.len()).filter(valid).map(|i| keys[i]).collect();
                    bloom.insert_hashes(&valid);
                }
            }
            FilterKind::Bitmap(bitmap) => {
                let vals = bitmap_keys(chunk, &build.spec.key_cols)?;
                if chunk.selection.is_none() && nulls.is_empty() {
                    bitmap.insert_all(vals.iter().copied())?;
                } else {
                    let rows = (0..chunk.num_rows()).filter(valid);
                    bitmap.insert_all(rows.map(|i| vals[chunk.physical_index(i)]))?;
                }
            }
        }
        observe_i64_key_ranges(chunk, build);
    }
    m.add(&m.bloom_nanos, t0.elapsed().as_nanos() as u64);
    m.add(
        &m.bloom_build_rows,
        chunk.num_rows() as u64 * blooms.len() as u64,
    );
    Ok(())
}

/// The flat `Int64` payload of a key bitmap's one key column (indexed by
/// physical row). Any other key is a planning error: the size rule only
/// picks a bitmap for one `Int64` key column.
fn bitmap_keys<'a>(chunk: &'a DataChunk, key_cols: &[usize]) -> Result<&'a [i64]> {
    let v = match key_cols {
        [k] => &chunk.columns[*k],
        _ => {
            return Err(Error::Exec(format!(
                "a key bitmap takes one key column, not {}",
                key_cols.len()
            )))
        }
    };
    match &v.data {
        ColumnData::Int64(vals) if !v.is_dict() => Ok(vals),
        _ => Err(Error::Exec(
            "a key bitmap's key column is not a flat Int64 column".into(),
        )),
    }
}

/// Track the raw value range of every flat `Int64` key column on the
/// partial filter (one tracked range per key position), so scans can prune
/// storage blocks whose zone maps are disjoint from the transferred
/// filter's key range on *any* key column — multi-column joins prune too.
/// Dictionary-backed vectors are skipped: their `Int64` payload holds
/// codes, not values.
fn observe_i64_key_ranges(chunk: &DataChunk, build: &mut BloomBuild) {
    let BloomBuild { spec, filter } = build;
    for (pos, &col) in spec.key_cols.iter().enumerate() {
        let v = &chunk.columns[col];
        if v.is_dict() {
            continue;
        }
        let ColumnData::Int64(vals) = &v.data else {
            continue;
        };
        let widen = |bounds: Option<(i64, i64)>, x: i64| {
            Some(bounds.map_or((x, x), |(a, b)| (a.min(x), b.max(x))))
        };
        let bounds = if chunk.selection.is_none() && v.validity.is_none() {
            vals.iter().copied().fold(None, widen)
        } else {
            (0..chunk.num_rows())
                .map(|i| chunk.physical_index(i))
                .filter(|&p| v.is_valid(p))
                .map(|p| vals[p])
                .fold(None, widen)
        };
        if let Some((lo, hi)) = bounds {
            filter.observe_key_range_at(pos, lo, hi);
        }
    }
}

/// Merge every worker's partial filters and publish the results — the
/// `finish` half of CreateBF, run inside the merger's `Finish` task. OR is
/// commutative and associative, so the published bit pattern is identical
/// whatever the worker order.
pub fn merge_publish_blooms(mut per_worker: Vec<Vec<BloomBuild>>, res: &Resources) -> Result<()> {
    if per_worker.is_empty() {
        return Ok(());
    }
    let mut merged = per_worker.remove(0);
    for (i, build) in merged.iter_mut().enumerate() {
        for other in &per_worker {
            build.filter.merge(&other[i].filter)?;
        }
    }
    for build in merged {
        build.publish(res)?;
    }
    Ok(())
}
