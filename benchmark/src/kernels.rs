//! Kernel measurements: direct calls into one layer's public functions on
//! fixed seeded inputs, once per traced run. They do not depend on the
//! workload or the run seed, so a kernel number that moves between two
//! commits moved because that layer's code did.

use crate::stats::median;
use rpt_bloom::BloomFilter;
use rpt_common::hash::{hash_columns_sel, hash_i64};
use rpt_common::{DataChunk, DataType, Result, Utf8Dict, Vector, VECTOR_SIZE};
use rpt_exec::{AggExpr, AggFunc, AggregateState, Expr, JoinHashTable};
use rpt_storage::{chunk_size_bytes, BlockTable, SpillBuffer};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const KERNEL_SEED: u64 = 0x5EED_CAFE;
/// Bloom filter sizes of the paper's Fig. 16: cache-resident and not.
const BLOOM_SMALL_KEYS: usize = 64 << 10;
const BLOOM_LARGE_KEYS: usize = 8 << 20;
const ROWS: usize = 1 << 20;
/// Scale factor of the TPC-H lineitem the storage and spill kernels use
/// (~480k rows, ~235 blocks).
const LINEITEM_SF: f64 = 8.0;

#[derive(Debug, Default, Clone, Copy)]
pub struct Kernels {
    pub bloom_insert_ns_small: f64,
    pub bloom_insert_ns_large: f64,
    pub bloom_probe_ns_small: f64,
    pub bloom_probe_ns_large: f64,
    pub hash_ns_int64: f64,
    pub hash_ns_int64_dict: f64,
    pub join_build_ns: f64,
    pub join_probe_ns: f64,
    pub storage_encode_mrows_s: f64,
    pub storage_decode_mrows_s: f64,
    pub storage_bytes_per_raw_byte: f64,
    pub agg_update_ns_fast: f64,
    pub agg_update_ns_generic: f64,
    pub spill_write_mb_s: f64,
    pub spill_read_mb_s: f64,
    pub spill_bytes_per_raw_byte: f64,
}

/// Median seconds of `reps` calls of `f`.
fn time<T>(reps: usize, mut f: impl FnMut() -> Result<T>) -> Result<f64> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f()?);
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&samples))
}

/// splitmix64 stream: the kernels' only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

/// Insert `keys` hashes, then probe as many of which half were inserted.
fn bloom(keys: usize, reps: usize) -> Result<(f64, f64)> {
    let inserted: Vec<u64> = (0..keys as i64).map(hash_i64).collect();
    let probed: Vec<u64> = (0..keys as i64)
        .map(|k| hash_i64(k * 2)) // even keys below `keys` hit, the rest miss
        .collect();
    let empty = BloomFilter::with_default_fpr(keys);
    let mut filter = empty.empty_clone();
    let insert_s = time(reps, || {
        filter = empty.empty_clone();
        filter.insert_hashes(black_box(&inserted));
        Ok(())
    })?;
    let probe_s = time(reps, || Ok(filter.probe_hashes_bitmask(black_box(&probed))))?;
    Ok((insert_s * 1e9 / keys as f64, probe_s * 1e9 / keys as f64))
}

fn hash(rng: &mut Rng, rows: usize) -> Result<(f64, f64)> {
    let ints = Vector::from_i64((0..rows).map(|_| rng.below(1 << 40)).collect());
    let dict = Utf8Dict::from_values((0..1000).map(|i| format!("value-{i:04}")));
    let codes = Vector::from_dict_codes((0..rows).map(|_| rng.below(1000)).collect(), None, dict);
    let int64_s = time(5, || Ok(hash_columns_sel(&[&ints], None, rows)))?;
    let both_s = time(5, || Ok(hash_columns_sel(&[&ints, &codes], None, rows)))?;
    Ok((int64_s * 1e9 / rows as f64, both_s * 1e9 / rows as f64))
}

fn chunks_of(columns: &[Vector]) -> Vec<DataChunk> {
    rpt_common::chunk::chunk_ranges(columns[0].len(), VECTOR_SIZE)
        .map(|(offset, len)| DataChunk::new(columns.iter().map(|c| c.slice(offset, len)).collect()))
        .collect()
}

/// Build a table on `rows` distinct shuffled keys, probe it with as many
/// keys of which half match.
fn join(rng: &mut Rng, rows: usize) -> Result<(f64, f64)> {
    let mut keys: Vec<i64> = (0..rows as i64).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let payload = Vector::from_i64((0..rows as i64).collect());
    let build = chunks_of(&[Vector::from_i64(keys), payload.clone()]);
    let probe_keys = (0..rows).map(|_| rng.below(2 * rows as u64)).collect();
    let probe = chunks_of(&[Vector::from_i64(probe_keys), payload]);

    let mut table = JoinHashTable::build(&[], vec![0])?;
    let build_s = time(3, || {
        table = JoinHashTable::build(&build, vec![0])?;
        Ok(())
    })?;
    let probe_s = time(3, || {
        let (mut probe_out, mut build_out) = (Vec::new(), Vec::new());
        for chunk in &probe {
            table.probe(chunk, &[0], &mut probe_out, &mut build_out);
        }
        Ok(probe_out.len())
    })?;
    Ok((build_s * 1e9 / rows as f64, probe_s * 1e9 / rows as f64))
}

/// `COUNT(*), SUM(v) GROUP BY k` over `rows` rows and a tenth as many
/// groups, through the fixed-width table and through the generic one.
fn agg(rng: &mut Rng, rows: usize) -> Result<(f64, f64)> {
    let keys = Vector::from_i64((0..rows).map(|_| rng.below(rows as u64 / 10)).collect());
    let values = Vector::from_i64((0..rows).map(|_| rng.below(1000)).collect());
    let input = chunks_of(&[keys, values]);
    let aggs = vec![
        AggExpr::count_star("c"),
        AggExpr {
            func: AggFunc::Sum,
            input: Some(Expr::Column(1)),
            alias: "s".into(),
        },
    ];
    let types = [DataType::Int64, DataType::Int64];
    let run = |fast: bool| -> Result<f64> {
        let s = time(3, || {
            let mut state = AggregateState::with_fast_path(vec![0], aggs.clone(), &types, fast)?;
            assert_eq!(state.is_fast(), fast, "group table the kernel asked for");
            for chunk in &input {
                state.update(chunk)?;
            }
            Ok(state.num_groups())
        })?;
        Ok(s * 1e9 / rows as f64)
    };
    Ok((run(true)?, run(false)?))
}

/// Encode and decode rates in Mrows/s, and encoded bytes per raw byte.
fn storage(lineitem: &rpt_storage::Table) -> Result<(f64, f64, f64)> {
    let rows = lineitem.num_rows() as f64;
    let mut blocks = BlockTable::build(lineitem, VECTOR_SIZE);
    let encode_s = time(3, || {
        blocks = BlockTable::build(lineitem, VECTOR_SIZE);
        Ok(())
    })?;
    let decode_s = time(3, || {
        Ok((0..blocks.num_blocks())
            .map(|b| blocks.decode_block(b).num_rows())
            .sum::<usize>())
    })?;
    Ok((
        rows / encode_s / 1e6,
        rows / decode_s / 1e6,
        blocks.encoded_size_bytes() as f64 / lineitem.size_bytes() as f64,
    ))
}

/// Push lineitem through a `SpillBuffer` whose 1-byte limit sends every
/// chunk to its file, then read all of it back. The file lives in the
/// sandbox's page cache: these are not a device's rates. Returns write and
/// read rates in MB/s of raw bytes, and spilled bytes per raw byte.
fn spill(lineitem: &rpt_storage::Table, dir: &Path) -> Result<(f64, f64, f64)> {
    let chunks = lineitem.default_chunks();
    let raw_mb = chunks.iter().map(chunk_size_bytes).sum::<usize>() as f64 / 1e6;
    let (mut write_s, mut read_s, mut ratio) = (Vec::new(), Vec::new(), 0.0);
    for _ in 0..3 {
        let mut buffer = SpillBuffer::new(lineitem.schema.clone(), 1, dir).with_encoding(true);
        let t = Instant::now();
        for chunk in &chunks {
            buffer.push(chunk.clone())?;
        }
        write_s.push(t.elapsed().as_secs_f64());
        let stats = buffer.stats();
        ratio = stats.encoded_bytes_spilled as f64 / stats.bytes_spilled as f64;
        let t = Instant::now();
        black_box(buffer.take_chunks()?);
        read_s.push(t.elapsed().as_secs_f64());
    }
    Ok((raw_mb / median(&write_s), raw_mb / median(&read_s), ratio))
}

/// Every input is `1 / shrink` of its size; only the self-tests, which run
/// unoptimized, pass anything but 1.
pub fn run(spill_dir: &Path, shrink: usize) -> Result<Kernels> {
    let mut rng = Rng(KERNEL_SEED);
    let rows = ROWS / shrink;
    let (bloom_insert_ns_small, bloom_probe_ns_small) = bloom(BLOOM_SMALL_KEYS / shrink, 41)?;
    let (bloom_insert_ns_large, bloom_probe_ns_large) = bloom(BLOOM_LARGE_KEYS / shrink, 3)?;
    let (hash_ns_int64, hash_ns_int64_dict) = hash(&mut rng, rows)?;
    let (join_build_ns, join_probe_ns) = join(&mut rng, rows)?;
    let (agg_update_ns_fast, agg_update_ns_generic) = agg(&mut rng, rows)?;
    let tpch = rpt_workloads::tpch(LINEITEM_SF / shrink as f64, KERNEL_SEED);
    let lineitem = tpch
        .tables
        .iter()
        .find(|t| t.name == "lineitem")
        .expect("tpch has lineitem");
    let (storage_encode_mrows_s, storage_decode_mrows_s, storage_bytes_per_raw_byte) =
        storage(lineitem)?;
    let (spill_write_mb_s, spill_read_mb_s, spill_bytes_per_raw_byte) = spill(lineitem, spill_dir)?;
    Ok(Kernels {
        bloom_insert_ns_small,
        bloom_insert_ns_large,
        bloom_probe_ns_small,
        bloom_probe_ns_large,
        hash_ns_int64,
        hash_ns_int64_dict,
        join_build_ns,
        join_probe_ns,
        storage_encode_mrows_s,
        storage_decode_mrows_s,
        storage_bytes_per_raw_byte,
        agg_update_ns_fast,
        agg_update_ns_generic,
        spill_write_mb_s,
        spill_read_mb_s,
        spill_bytes_per_raw_byte,
    })
}
