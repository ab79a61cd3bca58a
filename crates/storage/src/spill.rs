//! Memory-capped chunk buffers that spill to disk in a block-encoded
//! format.
//!
//! The "+spill" configuration of §5.4 limits available memory to ≈50% of
//! RPT's peak usage so that the data chunks materialized after the forward
//! pass (inside `CreateBF` operators) overflow to disk. [`SpillBuffer`]
//! reproduces this, writing each spilled chunk through the block codecs:
//!
//! ```text
//! file   = frame*                          (one frame per spilled chunk)
//! frame  = u32 byte_len | chunk
//! chunk  = u64 nrows | column*             (selection is flattened away)
//! column = u8 tag | u8 has_validity | [validity bytes] | payload
//! tag    = 0 RawI64   payload: nrows × i64 LE
//!          1 RawF64   payload: nrows × f64 LE
//!          2 RawUtf8  payload: (u32 len | bytes)*
//!          3 RawBool  payload: nrows bytes
//!          4 RleI64   payload: u32 nruns | nruns × i64 | nruns × u32
//!          5 ForI64   payload: i64 base | u8 width | u32 nwords | words
//!          6 DictUtf8 payload: nrows × u32 codes (shared per-file dict)
//! ```
//!
//! `Int64` columns run through [`encode_i64`] (RLE or frame-of-reference
//! bit-packing, NULL slots pinned to the block minimum so they cost no
//! width); dictionary-backed `Utf8` columns spill their 32-bit codes and
//! the buffer keeps **one** dictionary reference per column for the whole
//! file — a chunk arriving with a *different* dictionary falls back to raw
//! strings for that chunk. Restores are insertion-ordered: forced-spill
//! output is row-for-row identical to the resident path.
//!
//! A restore trusts nothing it reads. Each frame's length prefix and row
//! count must equal the ones recorded when it was written, each column's
//! tag must fit its schema type, and each payload must be well formed (a
//! FOR width below 64 with exactly the words its rows need, RLE runs that
//! sum to the row count, dictionary codes inside the dictionary) before
//! anything is allocated for it or decoded. A failed check is an
//! `Error::Exec`, never a panic.
//!
//! Resident rows are **write-combined**: [`SpillBuffer::push`] and
//! [`SpillBuffer::push_rows`] append into the resident tail chunk while
//! the rows fit one vector with it, so however small the chunks a sink is
//! handed (a partitioned sink scatters each one eight ways), the run it
//! stores never holds two adjacent resident chunks one vector could hold.
//!
//! In the engine a buffer spills only when the query's
//! [`MemoryGovernor`](crate::govern::MemoryGovernor) says so: sinks build
//! every buffer with `mem_limit_bytes = usize::MAX` and attach a governor
//! handle, and the governor may flag the buffer as the spill victim after
//! any push, which evicts *all* resident chunks to the spill file (order
//! preserved). A finite `mem_limit_bytes` spills each chunk that would
//! take the buffer past it; only the spill kernel benchmark and tests set
//! one.

use crate::encode::{encode_i64, EncodedBlock};
use crate::govern::GovernedHandle;
use crate::table::{chunk_size_bytes, taken_size_bytes};
use rpt_common::{ColumnData, DataChunk, DataType, Error, Result, Schema, Utf8Dict, Vector};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Statistics about a buffer's spill behaviour, aggregated into the
/// engine's `spill_*` metrics family.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpillStats {
    pub chunks_in_memory: usize,
    pub chunks_spilled: usize,
    pub bytes_in_memory: usize,
    /// Decoded (logical) bytes of the spilled chunks.
    pub bytes_spilled: usize,
    /// Bytes actually written to the spill file (encoded form).
    pub encoded_bytes_spilled: usize,
    /// Bytes read back from the spill file.
    pub bytes_read: usize,
    /// Governor-requested whole-buffer evictions serviced.
    pub victim_evictions: usize,
}

/// Where chunk `i` (in insertion order) currently lives.
#[derive(Debug, Clone, Copy)]
enum ChunkSlot {
    /// Index into `in_memory`.
    Mem(usize),
    /// Sequence number in the spill file.
    Spill(usize),
}

/// What was written for one spilled chunk, checked again on restore.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Frame size in bytes, length prefix included.
    bytes: usize,
    rows: usize,
}

/// A buffer of data chunks with a memory cap; overflow goes to a temp file.
pub struct SpillBuffer {
    schema: Schema,
    mem_limit_bytes: usize,
    in_memory: Vec<DataChunk>,
    mem_bytes: usize,
    /// Insertion-order map of every pushed chunk to its current home.
    order: Vec<ChunkSlot>,
    /// Once-per-file dictionary reference per column (set by the first
    /// dict-backed chunk spilled for that column).
    dicts: Vec<Option<Arc<Utf8Dict>>>,
    /// Per spilled chunk, in sequence order.
    frames: Vec<Frame>,
    spill_path: Option<PathBuf>,
    spill_writer: Option<BufWriter<File>>,
    stats: SpillStats,
    spill_dir: PathBuf,
    /// Query id baked into the spill file name (orphan-sweep forensics).
    file_tag: u64,
    governor: Option<GovernedHandle>,
}

impl SpillBuffer {
    /// `mem_limit_bytes = usize::MAX` disables spilling (pure in-memory
    /// buffering, the default configuration).
    pub fn new(schema: Schema, mem_limit_bytes: usize, spill_dir: impl Into<PathBuf>) -> Self {
        let ncols = schema.len();
        SpillBuffer {
            schema,
            mem_limit_bytes,
            in_memory: Vec::new(),
            mem_bytes: 0,
            order: Vec::new(),
            dicts: vec![None; ncols],
            frames: Vec::new(),
            spill_path: None,
            spill_writer: None,
            stats: SpillStats::default(),
            spill_dir: spill_dir.into(),
            file_tag: 0,
            governor: None,
        }
    }

    /// Unbounded in-memory buffer.
    pub fn unbounded(schema: Schema) -> Self {
        SpillBuffer::new(schema, usize::MAX, std::env::temp_dir())
    }

    // Ignored: there is one spill format. Only `benchmark/src/kernels.rs`
    // calls it, and the next `benchmark` PR can drop it.
    #[doc(hidden)]
    pub fn with_encoding(self, _encoded: bool) -> Self {
        self
    }

    /// Tag spill file names with the owning query id.
    pub fn with_file_tag(mut self, query_id: u64) -> Self {
        self.file_tag = query_id;
        self
    }

    /// Attach a global memory-governor registration: every push reports
    /// residency, and a victim flag evicts all resident chunks.
    pub fn with_governor(mut self, handle: GovernedHandle) -> Self {
        self.governor = Some(handle);
        self
    }

    /// Hand the governor registration to a new owner. The buffer reports
    /// nothing from then on; the registration keeps the bytes last reported
    /// on it until its new owner updates or drops it.
    pub fn take_governor(&mut self) -> Option<GovernedHandle> {
        self.governor.take()
    }

    /// Append the logical rows of a chunk. Write-combining: the rows go
    /// into the resident tail chunk while they fit one vector with it, so
    /// a run never stores two adjacent resident chunks that one vector
    /// could hold; a selection-free chunk that does not fit is stored as
    /// it came, not copied.
    pub fn push(&mut self, mut chunk: DataChunk) -> Result<()> {
        if let Some(sel) = chunk.selection.take() {
            return self.push_rows(&chunk, &sel);
        }
        let rows = chunk.num_rows();
        if rows == 0 {
            return Ok(());
        }
        let sz = chunk_size_bytes(&chunk);
        if !self.combine_into_tail(rows, sz, |tail| tail.append(&chunk))? {
            self.store(chunk, sz)?;
        }
        self.report_residency()
    }

    /// Append physical rows `rows` of `src` — how a partitioned sink
    /// scatters a chunk: each row is copied once, into this partition's
    /// tail, with no sub-chunk in between.
    pub fn push_rows(&mut self, src: &DataChunk, rows: &[u32]) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let sz = taken_size_bytes(src, rows);
        if !self.combine_into_tail(rows.len(), sz, |tail| tail.append_rows(src, rows))? {
            self.store(src.take_rows(rows), sz)?;
        }
        self.report_residency()
    }

    /// Run `append` on the tail chunk if `rows` more rows of `sz` bytes
    /// may join it: it is resident (the last slot in insertion order, so
    /// order is kept), has room, and the cap would not have spilled the
    /// rows on their own. Residency grows by what the tail measurably
    /// gained — an append may add a validity mask or decode a dictionary.
    fn combine_into_tail(
        &mut self,
        rows: usize,
        sz: usize,
        append: impl FnOnce(&mut DataChunk) -> Result<()>,
    ) -> Result<bool> {
        if self.mem_bytes + sz > self.mem_limit_bytes {
            return Ok(false);
        }
        let Some(ChunkSlot::Mem(i)) = self.order.last().copied() else {
            return Ok(false);
        };
        let tail = &mut self.in_memory[i];
        if !tail.has_room_for(rows) {
            return Ok(false);
        }
        let before = chunk_size_bytes(tail);
        append(tail)?;
        let added = chunk_size_bytes(tail).saturating_sub(before);
        self.mem_bytes += added;
        self.stats.bytes_in_memory += added;
        Ok(true)
    }

    /// Store a flat chunk of `sz` bytes as a chunk of its own: resident
    /// under the cap, else in the spill file.
    fn store(&mut self, flat: DataChunk, sz: usize) -> Result<()> {
        if self.mem_bytes + sz > self.mem_limit_bytes {
            let seq = self.spill_chunk(&flat, sz)?;
            self.order.push(ChunkSlot::Spill(seq));
        } else {
            self.mem_bytes += sz;
            self.stats.chunks_in_memory += 1;
            self.stats.bytes_in_memory += sz;
            self.order.push(ChunkSlot::Mem(self.in_memory.len()));
            self.in_memory.push(flat);
        }
        Ok(())
    }

    /// Tell the governor what is resident now and evict if it says so.
    fn report_residency(&mut self) -> Result<()> {
        let flagged = match &self.governor {
            Some(h) => h.update(self.mem_bytes),
            None => false,
        };
        if flagged {
            self.evict_resident()?;
            if let Some(h) = &self.governor {
                h.update(self.mem_bytes);
            }
        }
        Ok(())
    }

    /// Service a governor victim flag: move every resident chunk to the
    /// spill file, preserving insertion order.
    fn evict_resident(&mut self) -> Result<()> {
        if self.in_memory.is_empty() {
            return Ok(());
        }
        let mut resident: Vec<Option<DataChunk>> = std::mem::take(&mut self.in_memory)
            .into_iter()
            .map(Some)
            .collect();
        let mut order = std::mem::take(&mut self.order);
        for slot in order.iter_mut() {
            if let ChunkSlot::Mem(i) = *slot {
                let chunk = resident[i]
                    .take()
                    .ok_or_else(|| Error::Exec("resident chunk evicted twice".into()))?;
                let sz = chunk_size_bytes(&chunk);
                let seq = self.spill_chunk(&chunk, sz)?;
                *slot = ChunkSlot::Spill(seq);
            }
        }
        self.order = order;
        self.mem_bytes = 0;
        self.stats.chunks_in_memory = 0;
        self.stats.bytes_in_memory = 0;
        self.stats.victim_evictions += 1;
        Ok(())
    }

    /// Write one chunk to the spill file; returns its sequence number.
    fn spill_chunk(&mut self, chunk: &DataChunk, sz: usize) -> Result<usize> {
        if self.spill_path.is_none() {
            std::fs::create_dir_all(&self.spill_dir)?;
            let id = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = self.spill_dir.join(format!(
                "rpt_spill_{}_q{}_{id}.bin",
                std::process::id(),
                self.file_tag
            ));
            let file = std::fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)?;
            self.spill_path = Some(path);
            self.spill_writer = Some(BufWriter::new(file));
        }
        let frame = self.encode_chunk(chunk)?;
        let w = self
            .spill_writer
            .as_mut()
            .ok_or_else(|| Error::Exec("spill writer missing".into()))?;
        w.write_all(&(frame.len() as u32).to_le_bytes())?;
        w.write_all(&frame)?;
        self.frames.push(Frame {
            bytes: frame.len() + 4,
            rows: chunk.num_rows(),
        });
        let seq = self.stats.chunks_spilled;
        self.stats.chunks_spilled += 1;
        self.stats.bytes_spilled += sz;
        self.stats.encoded_bytes_spilled += frame.len() + 4;
        Ok(seq)
    }

    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    fn flush_writer(&mut self) -> Result<()> {
        if let Some(mut w) = self.spill_writer.take() {
            w.flush()?;
        }
        Ok(())
    }

    /// Sequentially read every spilled frame back, decode it and account
    /// the bytes read. A length prefix that differs from the size recorded
    /// at write time fails before the frame is allocated.
    fn read_spilled(&mut self) -> Result<Vec<DataChunk>> {
        let path = self
            .spill_path
            .as_ref()
            .ok_or_else(|| Error::Exec("spilled chunks without a spill file".into()))?;
        let mut r = std::io::BufReader::new(File::open(path)?);
        let mut out = Vec::with_capacity(self.stats.chunks_spilled);
        for seq in 0..self.stats.chunks_spilled {
            let written = *self
                .frames
                .get(seq)
                .ok_or_else(|| Error::Exec(format!("spill frame {seq} was never written")))?;
            let mut len = [0u8; 4];
            r.read_exact(&mut len)?;
            let len = u32::from_le_bytes(len) as usize;
            if len + 4 != written.bytes {
                return Err(Error::Exec(format!(
                    "spill frame {seq}: {} bytes on disk, {} written",
                    len + 4,
                    written.bytes
                )));
            }
            let mut frame = vec![0u8; len];
            r.read_exact(&mut frame)?;
            self.stats.bytes_read += len + 4;
            out.push(self.decode_chunk(&frame, written.rows)?);
        }
        Ok(out)
    }

    /// Finish writing and return all chunks in **insertion order**: the
    /// restore interleaves spilled and resident chunks exactly as pushed,
    /// so a forced-spill run is row-identical to a resident one. Reads the
    /// spill file back, then removes it. The backward pass and join phase
    /// re-scan through this.
    pub fn take_chunks(&mut self) -> Result<Vec<DataChunk>> {
        let spilled: Vec<DataChunk> = if self.stats.chunks_spilled > 0 {
            self.flush_writer()?;
            self.read_spilled()?
        } else {
            Vec::new()
        };
        let mut spilled: Vec<Option<DataChunk>> = spilled.into_iter().map(Some).collect();
        let mut resident: Vec<Option<DataChunk>> = std::mem::take(&mut self.in_memory)
            .into_iter()
            .map(Some)
            .collect();
        let mut out = Vec::with_capacity(self.order.len());
        for slot in std::mem::take(&mut self.order) {
            let chunk = match slot {
                ChunkSlot::Mem(i) => resident.get_mut(i).and_then(Option::take),
                ChunkSlot::Spill(s) => spilled.get_mut(s).and_then(Option::take),
            };
            out.push(chunk.ok_or_else(|| Error::Exec("spill restore slot consumed twice".into()))?);
        }
        drop(self.spill_writer.take());
        if let Some(p) = self.spill_path.take() {
            std::fs::remove_file(p).ok();
        }
        Ok(out)
    }

    /// Consuming wrapper around [`Self::take_chunks`] (callers that do not
    /// need the post-restore stats).
    pub fn into_chunks(mut self) -> Result<Vec<DataChunk>> {
        self.take_chunks()
    }

    // ---- block-encoded chunk (de)serialization ----

    fn encode_chunk(&mut self, chunk: &DataChunk) -> Result<Vec<u8>> {
        let nrows = chunk.num_rows();
        let mut buf = Vec::with_capacity(64 + nrows);
        buf.extend_from_slice(&(nrows as u64).to_le_bytes());
        for (ci, col) in chunk.columns.iter().enumerate() {
            self.encode_column(&mut buf, ci, col, nrows)?;
        }
        Ok(buf)
    }

    fn encode_column(
        &mut self,
        buf: &mut Vec<u8>,
        ci: usize,
        col: &Vector,
        nrows: usize,
    ) -> Result<()> {
        // Dict-backed Utf8: spill 32-bit codes against the once-per-file
        // dictionary reference; a chunk carrying a different dictionary
        // falls back to raw strings for that chunk.
        if let (Some(dict), ColumnData::Int64(codes)) = (&col.dict, &col.data) {
            let same = match &self.dicts[ci] {
                None => {
                    self.dicts[ci] = Some(dict.clone());
                    true
                }
                Some(d) => Arc::ptr_eq(d, dict),
            };
            if same {
                buf.push(6);
                write_validity(buf, col, nrows);
                for (i, &code) in codes.iter().enumerate().take(nrows) {
                    let code = if col.is_valid(i) { code as u32 } else { 0 };
                    buf.extend_from_slice(&code.to_le_bytes());
                }
            } else {
                let flat = col.decode_dict();
                encode_raw_utf8(buf, &flat, nrows)?;
            }
            return Ok(());
        }
        match &col.data {
            ColumnData::Int64(vals) => {
                let enc = encode_i64(vals, col.validity.as_deref());
                match enc {
                    EncodedBlock::RleI64 { values, lengths } => {
                        buf.push(4);
                        write_validity(buf, col, nrows);
                        buf.extend_from_slice(&(values.len() as u32).to_le_bytes());
                        for v in &values {
                            buf.extend_from_slice(&v.to_le_bytes());
                        }
                        for l in &lengths {
                            buf.extend_from_slice(&l.to_le_bytes());
                        }
                    }
                    EncodedBlock::ForI64 {
                        base, width, words, ..
                    } => {
                        buf.push(5);
                        write_validity(buf, col, nrows);
                        buf.extend_from_slice(&base.to_le_bytes());
                        buf.push(width);
                        buf.extend_from_slice(&(words.len() as u32).to_le_bytes());
                        for w in &words {
                            buf.extend_from_slice(&w.to_le_bytes());
                        }
                    }
                    _ => {
                        buf.push(0);
                        write_validity(buf, col, nrows);
                        for v in vals {
                            buf.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                }
            }
            ColumnData::Float64(vals) => {
                buf.push(1);
                write_validity(buf, col, nrows);
                for v in vals {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            ColumnData::Utf8(_) => encode_raw_utf8(buf, col, nrows)?,
            ColumnData::Bool(vals) => {
                buf.push(3);
                write_validity(buf, col, nrows);
                buf.extend(vals.iter().map(|&b| b as u8));
            }
        }
        Ok(())
    }

    fn decode_chunk(&self, frame: &[u8], rows: usize) -> Result<DataChunk> {
        let mut r = Cursor { buf: frame, pos: 0 };
        let nrows = r.u64()?;
        if nrows != rows as u64 {
            return Err(corrupt(format!("{nrows} rows, {rows} written")));
        }
        let mut columns = Vec::with_capacity(self.schema.len());
        for ci in 0..self.schema.len() {
            columns.push(self.decode_column(&mut r, ci, rows)?);
        }
        if r.pos != frame.len() {
            return Err(corrupt(format!("{} trailing bytes", frame.len() - r.pos)));
        }
        Ok(DataChunk::new(columns))
    }

    fn decode_column(&self, r: &mut Cursor<'_>, ci: usize, nrows: usize) -> Result<Vector> {
        let tag = r.u8()?;
        let field = &self.schema.fields[ci];
        let stored = match tag {
            0 | 4 | 5 => DataType::Int64,
            1 => DataType::Float64,
            2 | 6 => DataType::Utf8,
            3 => DataType::Bool,
            other => return Err(corrupt(format!("bad column tag {other}"))),
        };
        if stored != field.data_type {
            return Err(corrupt(format!(
                "column `{}` stored as {stored:?}, schema says {:?}",
                field.name, field.data_type
            )));
        }
        let validity = match r.u8()? {
            0 => None,
            1 => Some(
                r.bytes(nrows)?
                    .iter()
                    .map(|&b| b != 0)
                    .collect::<Vec<bool>>(),
            ),
            other => return Err(corrupt(format!("bad validity flag {other}"))),
        };
        let data = match tag {
            0 => ColumnData::Int64(r.words(nrows)?.map(i64::from_le_bytes).collect()),
            1 => ColumnData::Float64(r.words(nrows)?.map(f64::from_le_bytes).collect()),
            2 => {
                let mut v = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    let len = r.u32()? as usize;
                    let bytes = r.bytes(len)?;
                    v.push(
                        String::from_utf8(bytes.to_vec())
                            .map_err(|e| corrupt(format!("invalid utf8: {e}")))?,
                    );
                }
                ColumnData::Utf8(v)
            }
            3 => ColumnData::Bool(r.bytes(nrows)?.iter().map(|&b| b != 0).collect()),
            4 => {
                let nruns = r.u32()? as usize;
                if nruns > nrows {
                    return Err(corrupt(format!("{nruns} runs over {nrows} rows")));
                }
                let values = r.words(nruns)?.map(i64::from_le_bytes).collect();
                let lengths: Vec<u32> = r
                    .bytes(nruns * 4)?
                    .chunks_exact(4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect();
                let covered: u64 = lengths.iter().map(|&l| l as u64).sum();
                if covered != nrows as u64 {
                    return Err(corrupt(format!("runs cover {covered} of {nrows} rows")));
                }
                EncodedBlock::RleI64 { values, lengths }.decode(None)
            }
            5 => {
                let base = r.i64()?;
                let width = r.u8()?;
                if width >= 64 {
                    return Err(corrupt(format!("bit width {width}")));
                }
                let nwords = r.u32()? as usize;
                let need = (nrows * width as usize).div_ceil(64);
                if nwords != need {
                    return Err(corrupt(format!(
                        "{nwords} words for {nrows} rows of width {width}, need {need}"
                    )));
                }
                EncodedBlock::ForI64 {
                    len: nrows as u32,
                    base,
                    width,
                    words: r.words(nwords)?.map(u64::from_le_bytes).collect(),
                }
                .decode(None)
            }
            _ => {
                let dict = self.dicts[ci]
                    .clone()
                    .ok_or_else(|| corrupt("dict-coded column without dictionary".into()))?;
                let mut codes = Vec::with_capacity(nrows);
                for i in 0..nrows {
                    let code = r.u32()? as usize;
                    let valid = validity.as_ref().is_none_or(|m| m[i]);
                    if valid && code >= dict.len() {
                        return Err(corrupt(format!(
                            "code {code} past a {}-entry dictionary",
                            dict.len()
                        )));
                    }
                    codes.push(code as i64);
                }
                return Ok(Vector::from_dict_codes(codes, validity, dict));
            }
        };
        Ok(Vector {
            data,
            validity,
            dict: None,
        })
    }
}

/// The error every failed restore check returns.
fn corrupt(what: String) -> Error {
    Error::Exec(format!("corrupt spill frame: {what}"))
}

fn write_validity(buf: &mut Vec<u8>, col: &Vector, nrows: usize) {
    match &col.validity {
        Some(m) => {
            buf.push(1);
            buf.extend(m.iter().take(nrows).map(|&b| b as u8));
        }
        None => buf.push(0),
    }
}

fn encode_raw_utf8(buf: &mut Vec<u8>, col: &Vector, nrows: usize) -> Result<()> {
    let ColumnData::Utf8(vals) = &col.data else {
        return Err(Error::Exec("raw utf8 encode on non-utf8 column".into()));
    };
    buf.push(2);
    write_validity(buf, col, nrows);
    for s in vals.iter().take(nrows) {
        buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
        buf.extend_from_slice(s.as_bytes());
    }
    Ok(())
}

/// Bounds-checked little-endian slice reader for spill frames.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("truncated".into()))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// `n` little-endian 8-byte words, bounds-checked as one slice before
    /// the caller allocates for them.
    fn words(&mut self, n: usize) -> Result<impl Iterator<Item = [u8; 8]> + 'a> {
        let bytes = self.bytes(
            n.checked_mul(8)
                .ok_or_else(|| corrupt(format!("{n} words")))?,
        )?;
        Ok(bytes.chunks_exact(8).map(|b| {
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            a
        }))
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let b = self.bytes(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(b);
        Ok(a)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array::<4>()?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array::<8>()?))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array::<8>()?))
    }
}

impl Drop for SpillBuffer {
    fn drop(&mut self) {
        // Close the writer's file handle *before* unlinking: removing an
        // open file is a silent no-op failure on Windows and leaks the
        // spill file (`remove_file(...).ok()` swallows the error).
        drop(self.spill_writer.take());
        if let Some(p) = self.spill_path.take() {
            std::fs::remove_file(p).ok();
        }
    }
}

// Sink state crosses worker threads (each worker owns one buffer) and the
// DAG scheduler moves whole sinks between the worker that filled them and
// the worker that finalizes the pipeline — SpillBuffer must stay `Send`
// and `Sync`. Compile-time proof so a future field (e.g. an `Rc` cache)
// cannot silently break the executor.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SpillBuffer>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::MemoryGovernor;
    use rpt_common::{Field, ScalarValue};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("x", DataType::Int64)])
    }

    fn chunk(vals: Vec<i64>) -> DataChunk {
        DataChunk::new(vec![Vector::from_i64(vals)])
    }

    /// Logical rows of a restored run, in order.
    fn values(chunks: &[DataChunk]) -> Vec<i64> {
        chunks
            .iter()
            .flat_map(|c| c.rows().into_iter().map(|r| r[0].as_i64().unwrap()))
            .collect()
    }

    #[test]
    fn unbounded_keeps_everything_in_memory() {
        let mut b = SpillBuffer::unbounded(schema());
        b.push(chunk(vec![1, 2, 3])).unwrap();
        b.push(chunk(vec![4])).unwrap();
        let mut selected = chunk(vec![7, 6, 5]);
        selected.set_selection(vec![2, 1]);
        b.push(selected).unwrap();
        b.push_rows(&chunk(vec![9, 8, 7]), &[2]).unwrap();
        let st = b.stats();
        assert_eq!(st.chunks_spilled, 0);
        // Everything fits one vector, so it is one resident chunk, and the
        // accounting is that chunk's size.
        assert_eq!((st.chunks_in_memory, st.bytes_in_memory), (1, 7 * 8));
        assert_eq!(b.mem_bytes, 7 * 8);
        let chunks = b.into_chunks().unwrap();
        assert_eq!(chunks.len(), 1);
        assert_eq!(values(&chunks), vec![1, 2, 3, 4, 5, 6, 7]);
    }

    /// The tail takes rows only while the result fits one vector; a chunk
    /// that does not fit starts the next tail, untouched.
    #[test]
    fn tail_combines_up_to_one_vector() {
        use rpt_common::VECTOR_SIZE;
        let mut b = SpillBuffer::unbounded(schema());
        let sizes = [VECTOR_SIZE - 10, 10, 1, VECTOR_SIZE, 5, 5];
        let mut next = 0i64;
        for n in sizes {
            b.push(chunk((next..next + n as i64).collect())).unwrap();
            next += n as i64;
        }
        let chunks = b.into_chunks().unwrap();
        let rows: Vec<usize> = chunks.iter().map(DataChunk::num_rows).collect();
        assert_eq!(rows, vec![VECTOR_SIZE, 1, VECTOR_SIZE, 10]);
        assert_eq!(values(&chunks), (0..next).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_limit_spills_and_restores_order_content() {
        let dir = std::env::temp_dir().join("rpt_spill_test1");
        let mut b = SpillBuffer::new(schema(), 16, &dir); // ~2 i64s
        b.push(chunk(vec![1, 2])).unwrap(); // fits (16 bytes)
        b.push(chunk(vec![3, 4])).unwrap(); // spills
        b.push(chunk(vec![5])).unwrap(); // spills
        let st = b.stats();
        assert_eq!(st.chunks_in_memory, 1);
        assert_eq!(st.chunks_spilled, 2);
        assert!(st.bytes_spilled >= 24);
        let chunks = b.take_chunks().unwrap();
        // The restore read back every frame it wrote.
        assert!(b.stats().bytes_read > 0);
        assert_eq!(b.stats().bytes_read, st.encoded_bytes_spilled);
        // Insertion order: [1,2] resident, then the two spilled chunks.
        let all: Vec<i64> = chunks
            .iter()
            .flat_map(|c| c.rows().into_iter().map(|r| r[0].as_i64().unwrap()))
            .collect();
        assert_eq!(all, vec![1, 2, 3, 4, 5], "restore preserves push order");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_chunks_skipped() {
        let mut b = SpillBuffer::unbounded(schema());
        b.push(chunk(vec![])).unwrap();
        assert!(b.into_chunks().unwrap().is_empty());
    }

    #[test]
    fn spill_file_removed_after_consume() {
        let dir = std::env::temp_dir().join("rpt_spill_test2");
        let mut b = SpillBuffer::new(schema(), 0, &dir);
        b.push(chunk(vec![1])).unwrap();
        let path = b.spill_path.clone().unwrap();
        assert!(path.exists());
        let _ = b.into_chunks().unwrap();
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An early-error drop (the buffer is abandoned without consuming it,
    /// e.g. a failing pipeline) must close the still-open writer handle
    /// and unlink the spill file — no `rpt_spill_*` file may leak.
    #[test]
    fn dropped_buffer_leaks_no_spill_file() {
        let dir = std::env::temp_dir().join("rpt_spill_test_drop");
        std::fs::remove_dir_all(&dir).ok();
        let path = {
            let mut b = SpillBuffer::new(schema(), 0, &dir);
            b.push(chunk(vec![1, 2, 3])).unwrap();
            b.push(chunk(vec![4])).unwrap();
            let path = b.spill_path.clone().unwrap();
            assert!(path.exists());
            assert!(b.spill_writer.is_some(), "writer still open at drop time");
            path
            // `b` dropped here without `into_chunks`.
        };
        assert!(!path.exists(), "spill file leaked after drop");
        let leaked: Vec<_> = std::fs::read_dir(&dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.file_name().to_string_lossy().starts_with("rpt_spill_"))
                    .collect()
            })
            .unwrap_or_default();
        assert!(leaked.is_empty(), "leaked spill files: {leaked:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn selection_flattened_before_spill() {
        let dir = std::env::temp_dir().join("rpt_spill_test3");
        let mut b = SpillBuffer::new(schema(), 0, &dir);
        let mut c = chunk(vec![10, 20, 30]);
        c.set_selection(vec![2, 0]);
        b.push(c).unwrap();
        let chunks = b.into_chunks().unwrap();
        assert_eq!(chunks[0].num_rows(), 2);
        assert_eq!(chunks[0].value(0, 0), ScalarValue::Int64(30));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn mixed_schema() -> Schema {
        Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
            Field::new("b", DataType::Bool),
        ])
    }

    fn mixed_chunk(n: usize, offset: i64) -> DataChunk {
        let mut i = Vector::new_empty(DataType::Int64);
        for k in 0..n {
            if k % 7 == 3 {
                i.push(&ScalarValue::Null).unwrap();
            } else {
                i.push(&ScalarValue::Int64(offset + (k as i64 % 40)))
                    .unwrap();
            }
        }
        DataChunk::new(vec![
            i,
            Vector::from_f64((0..n).map(|k| k as f64 / 3.0).collect()),
            Vector::from_utf8((0..n).map(|k| format!("s{}", k % 5)).collect()),
            Vector::from_bool((0..n).map(|k| k % 2 == 0).collect()),
        ])
    }

    #[test]
    fn encoded_spill_roundtrips_all_types() {
        let dir = std::env::temp_dir().join("rpt_spill_rt");
        let mut b = SpillBuffer::new(mixed_schema(), 0, &dir);
        let c1 = mixed_chunk(200, 1_000_000);
        let c2 = mixed_chunk(64, -50);
        b.push(c1.clone()).unwrap();
        b.push(c2.clone()).unwrap();
        let restored = b.into_chunks().unwrap();
        assert_eq!(restored.len(), 2);
        for (orig, got) in [(&c1, &restored[0]), (&c2, &restored[1])] {
            assert_eq!(orig.num_rows(), got.num_rows());
            for (ri, row) in orig.rows().into_iter().enumerate() {
                assert_eq!(row, got.rows()[ri], "row {ri}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The Int64/dict-Utf8 shape the bench corpus uses: small-range keys
    /// bit-pack, dictionary columns spill 32-bit codes instead of strings,
    /// so the file is at most half the logical bytes it holds.
    #[test]
    fn encoded_spill_is_smaller_than_decoded() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("s", DataType::Utf8),
        ]);
        let dict = Utf8Dict::from_values(vec!["alpha-category", "beta-category", "gamma-category"]);
        let make = || {
            DataChunk::new(vec![
                Vector::from_i64((0..512).map(|k| 100 + k % 40).collect()),
                Vector::from_dict_codes((0..512).map(|k| k % 3).collect(), None, dict.clone()),
            ])
        };
        let dir = std::env::temp_dir().join("rpt_spill_sz");
        let mut b = SpillBuffer::new(schema, 0, &dir);
        for _ in 0..4 {
            b.push(make()).unwrap();
        }
        let st = b.stats();
        let _ = b.into_chunks().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let (enc, logical) = (st.encoded_bytes_spilled, st.bytes_spilled);
        assert_eq!(st.chunks_spilled, 4);
        assert!(
            enc > 0 && logical * 100 / enc >= 200,
            "block-encoded spill ({enc}B) not ≥2× smaller than its logical bytes ({logical}B)"
        );
    }

    #[test]
    fn dict_backed_columns_spill_codes_with_shared_dict() {
        let schema = Schema::new(vec![Field::new("s", DataType::Utf8)]);
        let dict = Utf8Dict::from_values(vec!["a", "b", "c"]);
        let codes =
            |v: Vec<i64>| DataChunk::new(vec![Vector::from_dict_codes(v, None, dict.clone())]);
        let dir = std::env::temp_dir().join("rpt_spill_dict");
        let mut b = SpillBuffer::new(schema.clone(), 0, &dir);
        b.push(codes(vec![0, 2, 1, 2])).unwrap();
        b.push(codes(vec![2, 2, 2])).unwrap();
        // A chunk with a *different* dictionary must fall back to strings.
        let other_dict = Utf8Dict::from_values(vec!["x", "y"]);
        b.push(DataChunk::new(vec![Vector::from_dict_codes(
            vec![1, 0],
            None,
            other_dict,
        )]))
        .unwrap();
        let restored = b.into_chunks().unwrap();
        assert!(
            restored[0].columns[0].is_dict(),
            "codes restore dict-backed"
        );
        assert!(
            Arc::ptr_eq(restored[0].columns[0].dict.as_ref().unwrap(), &dict),
            "restored dict is the shared per-file reference"
        );
        assert_eq!(restored[0].columns[0].utf8_at(1), "c");
        assert!(!restored[2].columns[0].is_dict(), "foreign dict falls back");
        assert_eq!(restored[2].columns[0].utf8_at(0), "y");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Each corruption a frame can carry past the bounds-checked cursor
    /// fails the restore with `Error::Exec`: a stored type that differs
    /// from the schema, a FOR width of 64, a short FOR word count, RLE runs
    /// that do not cover the rows, a dictionary code past the dictionary,
    /// a bad validity flag and a length prefix that differs from the
    /// frame written. Offsets are into a one-frame file of one column:
    /// `u32 len` at 0, `u64 nrows` at 4, the tag at 12, the validity flag
    /// at 13, the payload from 14.
    #[test]
    fn corrupt_frames_fail_the_restore() {
        let dict = Utf8Dict::from_values(vec!["a", "b", "c"]);
        let int = || Schema::new(vec![Field::new("x", DataType::Int64)]);
        let raw = chunk(vec![i64::MIN, 0, i64::MAX]); // span too wide: RawI64
        let for_ = chunk((0..64).map(|k| k * 7 % 100).collect()); // ForI64
        let rle = chunk((0..64).map(|k| k / 16).collect()); // four runs
        let cases: Vec<(&str, Schema, DataChunk, usize, Vec<u8>)> = vec![
            ("stored type", int(), raw, 12, vec![1]),
            ("validity flag", int(), for_.clone(), 13, vec![2]),
            ("FOR width", int(), for_.clone(), 22, vec![64]),
            (
                "FOR words",
                int(),
                for_.clone(),
                23,
                0u32.to_le_bytes().to_vec(),
            ),
            (
                "RLE runs",
                int(),
                rle,
                14 + 4 + 4 * 8,
                1u32.to_le_bytes().to_vec(),
            ),
            (
                "dict code",
                Schema::new(vec![Field::new("s", DataType::Utf8)]),
                DataChunk::new(vec![Vector::from_dict_codes(vec![0, 2, 1], None, dict)]),
                14,
                3u32.to_le_bytes().to_vec(),
            ),
            ("length prefix", int(), for_, 0, 1u32.to_le_bytes().to_vec()),
        ];
        let dir = std::env::temp_dir().join("rpt_spill_corrupt");
        for (what, schema, c, offset, bytes) in cases {
            let mut b = SpillBuffer::new(schema, 0, &dir);
            b.push(c).unwrap();
            b.flush_writer().unwrap();
            let path = b.spill_path.clone().unwrap();
            let mut file = std::fs::read(&path).unwrap();
            file[offset..offset + bytes.len()].copy_from_slice(&bytes);
            std::fs::write(&path, file).unwrap();
            let got = b.take_chunks();
            assert!(matches!(got, Err(Error::Exec(_))), "{what}: {got:?}");
            drop(b);
            assert!(!path.exists(), "{what}: spill file leaked");
        }
        // A file cut short — mid-frame, or to nothing — fails the restore
        // with the reader's I/O error.
        for (what, keep) in [("mid-frame", 9), ("empty", 0)] {
            let mut b = SpillBuffer::new(schema(), 0, &dir);
            b.push(chunk((0..64).collect())).unwrap();
            b.flush_writer().unwrap();
            let path = b.spill_path.clone().unwrap();
            let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            assert!(b.frames[0].bytes > keep, "{what}: cut inside the frame");
            file.set_len(keep as u64).unwrap();
            drop(file);
            let got = b.take_chunks();
            assert!(matches!(got, Err(Error::Io(_))), "{what}: {got:?}");
            drop(b);
            assert!(!path.exists(), "{what}: spill file leaked");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn governor_victim_eviction_moves_resident_chunks_to_disk() {
        let dir = std::env::temp_dir().join("rpt_spill_gov");
        let gov = Arc::new(MemoryGovernor::new(64));
        let mut b = SpillBuffer::new(schema(), usize::MAX, &dir).with_governor(gov.register(true));
        b.push(chunk(vec![1, 2, 3])).unwrap(); // 24B resident, under budget
        assert_eq!(b.stats().chunks_spilled, 0);
        assert_eq!(gov.resident_bytes(), 24);
        b.push(chunk(vec![4, 5, 6, 7, 8, 9])).unwrap(); // 72B in the tail: evict
        let st = b.stats();
        assert_eq!(st.chunks_in_memory, 0, "eviction cleared residency");
        assert_eq!(st.bytes_in_memory, 0);
        assert_eq!(
            st.chunks_spilled, 1,
            "the combined tail went out as one frame"
        );
        assert_eq!(st.bytes_spilled, 72);
        assert_eq!(st.victim_evictions, 1);
        assert_eq!(gov.evictions(), 1);
        assert_eq!(gov.resident_bytes(), 0);
        // Nothing is resident, so the next rows start a new tail after the
        // spilled frame rather than joining it.
        b.push(chunk(vec![10])).unwrap();
        assert_eq!(b.stats().chunks_in_memory, 1);
        assert_eq!(gov.resident_bytes(), 8);
        let chunks = b.into_chunks().unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(
            values(&chunks),
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            "order preserved"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_name_carries_pid_and_query_id() {
        let dir = std::env::temp_dir().join("rpt_spill_name");
        let mut b = SpillBuffer::new(schema(), 0, &dir).with_file_tag(42);
        b.push(chunk(vec![1])).unwrap();
        let name = b
            .spill_path
            .as_ref()
            .unwrap()
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        assert!(
            name.starts_with(&format!("rpt_spill_{}_q42_", std::process::id())),
            "{name}"
        );
        let _ = b.into_chunks().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
