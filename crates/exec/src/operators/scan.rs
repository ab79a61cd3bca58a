//! Scan sources: the fused late-materializing table scan (zone-map block
//! pruning, selection first — predicate, then transferred filters —
//! and only then decode the rest, for the surviving rows) and buffer
//! re-scans.

use super::probe_bloom::{probe_selection, ProbeKey};
use super::{ChunkList, Morsels, Resources, Source};
use crate::context::ExecContext;
use crate::expr::{prunable_conjuncts, prunable_utf8_conjuncts, CmpOp, Expr, Predicate};
use rpt_bloom::TransferFilter;
use rpt_common::{DataChunk, DataType, Result, Vector};
use rpt_storage::{BlockTable, StoredTable, ZoneMap};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The pushed-down predicate of a scan, compiled against the compact chunk
/// of just the columns it reads.
struct ScanFilter {
    /// Base-table columns the predicate reads, ascending; `pred` addresses
    /// them by position in this list.
    cols: Vec<usize>,
    pred: Predicate,
    /// `Int64 col CMP literal` conjuncts (base-table column indices). Any
    /// block whose zone map proves a conjunct can never hold is skipped —
    /// the predicate still runs on surviving blocks, so pruning only
    /// removes rows it would drop anyway.
    int_conjuncts: Vec<(usize, CmpOp, i64)>,
    /// `Utf8 col CMP string-literal` conjuncts. Only consulted for columns
    /// the block encoding gave a sorted shared dictionary: dict codes are
    /// assigned in lexicographic order, so the zone's string bounds order
    /// exactly like the stored codes, and an `=` literal absent from the
    /// dictionary can never match any row of the column.
    utf8_conjuncts: Vec<(usize, CmpOp, String)>,
}

/// A transferred filter probed inside the scan (a scan-resident
/// ProbeBF): rows whose key misses filter `filter_id` never leave the scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanProbe {
    pub filter_id: usize,
    /// Base-table columns forming the probe key, in key order.
    pub key_cols: Vec<usize>,
}

/// Scan a table's block-encoded form one block per morsel, with the
/// relation's predicate, its transferred filters and its projection
/// fused in.
///
/// Opening resolves every probe's filter (published before the scan may
/// open — they are in its pipeline's reads) and, from the filters' tracked
/// key ranges, prunes blocks by zone map; nothing is decoded. Each morsel then
/// runs its *selection phase* — decode the predicate's columns and evaluate
/// it to a selection; for each probe in plan order hash the key columns
/// through the selection (a predicate column from its decoded vector, any
/// other straight from its encoded block, undecoded) and narrow it with
/// the filter — giving up on the block as soon as nothing survives, and
/// only then decodes the remaining output columns, key columns included,
/// for the selected rows, into a flat chunk in `output` order.
///
/// Columns come from the table's block-encoded form (dictionary-coded
/// `Utf8` columns as dictionary-backed vectors), the only form a
/// [`StoredTable`] keeps.
pub struct TableScan {
    table: Arc<StoredTable>,
    filter: Option<ScanFilter>,
    /// Base-table columns emitted, in output order.
    output: Vec<usize>,
    /// Transferred filters, probed in this order after the predicate.
    /// Every `Int64` key column also prunes: when the published filter
    /// tracked a raw key range at that key position, blocks of all-valid
    /// rows disjoint from it cannot contain a true semi-join match and are
    /// skipped — multi-column join keys contribute one independent range
    /// per position.
    probes: Vec<ScanProbe>,
}

impl TableScan {
    /// The rows passing `filter` (over base-table column indices) and every
    /// filter of `probes`, projected to `output`.
    pub fn fused(
        table: Arc<StoredTable>,
        filter: Option<&Expr>,
        output: Vec<usize>,
        probes: Vec<ScanProbe>,
    ) -> TableScan {
        let filter = filter.map(|f| {
            let mut cols = BTreeSet::new();
            f.columns(&mut cols);
            let mut cols: Vec<usize> = cols.into_iter().collect();
            if cols.is_empty() {
                // A constant predicate (`WHERE 1 = 1`) reads no column, but
                // its chunk still needs the morsel's row count: lend it the
                // first output column, which the output then reuses.
                cols.extend(output.first());
            }
            let compact = f.map_columns(&|c| cols.partition_point(|&x| x < c));
            ScanFilter {
                pred: Predicate::new(&compact),
                cols,
                int_conjuncts: prunable_conjuncts(f),
                utf8_conjuncts: prunable_utf8_conjuncts(f),
            }
        });
        TableScan {
            table,
            filter,
            output,
            probes,
        }
    }

    /// Can any row of a block with zone map `zone` satisfy `col CMP lit`?
    /// NULL rows never satisfy a SQL comparison, so all-NULL blocks prune
    /// under any literal conjunct. `bounds` is `None` for a zone of another
    /// type, which never prunes.
    fn may_match<T: PartialOrd>(zone: &ZoneMap, bounds: Option<(T, T)>, op: CmpOp, lit: T) -> bool {
        if zone.all_null() {
            return false;
        }
        let Some((mn, mx)) = bounds else {
            return true;
        };
        match op {
            CmpOp::Eq => lit >= mn && lit <= mx,
            CmpOp::NotEq => !(mn == mx && mn == lit),
            CmpOp::Lt => mn < lit,
            CmpOp::LtEq => mn <= lit,
            CmpOp::Gt => mx > lit,
            CmpOp::GtEq => mx >= lit,
        }
    }

    fn block_pruned(&self, enc: &BlockTable, b: usize, bloom_ranges: &[(usize, i64, i64)]) -> bool {
        if let Some(f) = &self.filter {
            for &(col, op, lit) in &f.int_conjuncts {
                let zone = enc.zone(col, b);
                if !Self::may_match(zone, zone.i64_bounds(), op, lit) {
                    return true;
                }
            }
            for (col, op, lit) in &f.utf8_conjuncts {
                // Dictionary gate: without the sorted shared dict the
                // column's stored form carries no code order to prune
                // against.
                let Some(dict) = &enc.columns[*col].dict else {
                    continue;
                };
                // `col = 'lit'` with a literal outside the dictionary can
                // never hold for any row of the column, whatever the block.
                if *op == CmpOp::Eq && dict.code_of(lit).is_none() {
                    return true;
                }
                let zone = enc.zone(*col, b);
                if !Self::may_match(zone, zone.utf8_bounds(), *op, lit.as_str()) {
                    return true;
                }
            }
        }
        for &(col, lo, hi) in bloom_ranges {
            let zone = enc.zone(col, b);
            // Only all-valid blocks are eligible. The probe drops
            // NULL-keyed rows, so pruning a block holding NULLs would be
            // correct too; the gate keeps such blocks' probe counters.
            if zone.null_count == 0 {
                if let Some((mn, mx)) = zone.i64_bounds() {
                    if mx < lo || mn > hi {
                        return true;
                    }
                }
            }
        }
        false
    }
}

impl Source for TableScan {
    fn open<'a>(&'a self, ctx: &ExecContext, res: &Resources) -> Result<Box<dyn Morsels + 'a>> {
        let filters: Vec<Arc<TransferFilter>> = self
            .probes
            .iter()
            .map(|p| res.filter(p.filter_id))
            .collect::<Result<_>>()?;
        let enc = self.table.encoded();
        // `(col, lo, hi)`: the raw key range each filter tracked, per
        // `Int64` key column.
        let mut bloom_ranges = Vec::new();
        for (probe, filter) in self.probes.iter().zip(&filters) {
            for (key_pos, &col) in probe.key_cols.iter().enumerate() {
                if self.table.schema.field(col).data_type != DataType::Int64 {
                    continue;
                }
                if let Some((lo, hi)) = filter.key_range_at(key_pos) {
                    bloom_ranges.push((col, lo, hi));
                }
            }
        }
        let blocks: Vec<usize> = (0..enc.num_blocks())
            .filter(|&b| !self.block_pruned(enc, b, &bloom_ranges))
            .collect();
        let pruned = (enc.num_blocks() - blocks.len()) as u64;
        ctx.metrics.add(&ctx.metrics.blocks_pruned, pruned);
        Ok(Box::new(ScanMorsels {
            scan: self,
            enc,
            blocks,
            filters,
        }))
    }
}

/// An opened scan: morsel `i` is block `blocks[i]` of `enc` (the blocks
/// zone-map pruning left).
struct ScanMorsels<'a> {
    scan: &'a TableScan,
    enc: &'a BlockTable,
    blocks: Vec<usize>,
    /// The published filter of each of `scan.probes`, resolved at `open`.
    filters: Vec<Arc<TransferFilter>>,
}

impl ScanMorsels<'_> {
    /// Column `col` of morsel `i`: every row, or the block-local rows `sel`.
    fn column(&self, col: usize, i: usize, sel: Option<&[u32]>) -> Vector {
        match sel {
            None => self.enc.columns[col].decode_block(self.blocks[i]),
            Some(sel) => self.enc.columns[col].decode_block_sel(self.blocks[i], sel),
        }
    }
}

impl Morsels for ScanMorsels<'_> {
    fn count(&self) -> usize {
        self.blocks.len()
    }

    fn morsel(&self, i: usize, ctx: &ExecContext) -> Result<Option<DataChunk>> {
        let start = self.blocks[i] * self.enc.block_rows;
        let rows = self.enc.block_rows.min(self.scan.table.num_rows() - start);
        ctx.charge(rows as u64)?;
        let m = &ctx.metrics;
        m.add(&m.scan_rows, rows as u64);
        m.add(&m.blocks_scanned, 1);

        // Selection phase. `decoded` holds the whole-morsel columns decoded
        // so far, by base column; `sel` (morsel-local rows, `None` = all)
        // is what survives.
        let mut sel: Option<Vec<u32>> = None;
        let mut decoded: Vec<(usize, Vector)> = Vec::new();
        if let Some(f) = &self.scan.filter {
            let chunk = DataChunk::new(f.cols.iter().map(|&c| self.column(c, i, None)).collect());
            let keep = f.pred.select(&chunk)?;
            if keep.is_empty() {
                return Ok(None);
            }
            if keep.len() < rows {
                sel = Some(keep);
            }
            decoded = f.cols.iter().copied().zip(chunk.columns).collect();
        }
        for (probe, filter) in self.scan.probes.iter().zip(&self.filters) {
            // A key column the predicate decoded hashes from that vector;
            // every other one hashes from its block, decoding nothing.
            let keys: Vec<ProbeKey> = probe
                .key_cols
                .iter()
                .map(|&c| match decoded.iter().find(|(d, _)| *d == c) {
                    Some((_, v)) => ProbeKey::Vector(v),
                    None => ProbeKey::Block(&self.enc.columns[c].blocks[self.blocks[i]]),
                })
                .collect();
            let n = sel.as_ref().map_or(rows, Vec::len);
            let keep = probe_selection(filter, &keys, sel.as_deref(), n, m)?;
            if keep.is_empty() {
                return Ok(None);
            }
            if keep.len() < rows {
                sel = Some(keep);
            }
        }

        // Then materialize the output columns for the surviving rows,
        // reusing what the selection phase already decoded.
        let sel = sel.as_deref();
        let columns = self
            .scan
            .output
            .iter()
            .map(|&c| {
                let reused = decoded.iter().position(|(d, _)| *d == c);
                match (reused, sel) {
                    (Some(k), None) => decoded.swap_remove(k).1,
                    (Some(k), Some(sel)) => decoded[k].1.take(sel),
                    (None, _) => self.column(c, i, sel),
                }
            })
            .collect();
        Ok(Some(DataChunk::new(columns)))
    }
}

/// Re-scan the materialized output of an earlier pipeline (e.g. a CreateBF
/// buffer acting as the source of the backward pass or the join phase).
pub struct BufferScan {
    buf_id: usize,
}

impl BufferScan {
    pub fn new(buf_id: usize) -> BufferScan {
        BufferScan { buf_id }
    }
}

/// A sealed buffer (partition): one morsel per stored chunk. A morsel is a
/// deep copy — `Vector` payloads are not shared — so the stored chunk stays
/// intact for the buffer's other readers.
struct BufferMorsels(Arc<ChunkList>);

impl Morsels for BufferMorsels {
    fn count(&self) -> usize {
        self.0.len()
    }

    fn morsel(&self, i: usize, ctx: &ExecContext) -> Result<Option<DataChunk>> {
        ctx.charge(self.0[i].num_rows() as u64)?;
        Ok(Some(self.0[i].as_ref().clone()))
    }
}

impl Source for BufferScan {
    fn open<'a>(&'a self, _ctx: &ExecContext, res: &Resources) -> Result<Box<dyn Morsels + 'a>> {
        Ok(Box::new(BufferMorsels(res.buffer(self.buf_id)?)))
    }

    /// Buffer partitions seal independently, so the global scheduler can
    /// stream this source partition-by-partition while the producer is
    /// still merging the others.
    fn partitioned_input(&self) -> Option<usize> {
        Some(self.buf_id)
    }

    fn open_partition<'a>(
        &'a self,
        _ctx: &ExecContext,
        res: &Resources,
        part: usize,
    ) -> Result<Box<dyn Morsels + 'a>> {
        Ok(Box::new(BufferMorsels(
            res.buffer_partition(self.buf_id, part)?,
        )))
    }
}
