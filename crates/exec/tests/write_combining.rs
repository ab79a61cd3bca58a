//! Property tests for the write-combining sinks: whatever sizes, selections,
//! string encodings and NULL masks the incoming chunks have, a stored run
//! holds exactly the rows routed to it, in arrival order, in chunks no two
//! adjacent of which would fit one vector — and the spill accounting still
//! describes what is stored.

use proptest::prelude::*;
use rpt_common::hash::{hash_columns, hash_columns_sel};
use rpt_common::{
    ColumnData, DataChunk, DataType, Field, Partitioner, ScalarValue, Schema, Utf8Dict, Vector,
    VECTOR_SIZE,
};
use rpt_exec::operators::buffer::BufferSinkFactory;
use rpt_exec::operators::hash_build::HashBuildFactory;
use rpt_exec::{BloomSink, ExecContext, FilterShape, Resources, SinkFactory};
use rpt_storage::{chunk_size_bytes, MemoryGovernor, SpillBuffer};
use std::sync::Arc;

type Row = Vec<ScalarValue>;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("s", DataType::Utf8),
        Field::new("id", DataType::Int64),
    ])
}

/// splitmix64, so one generated seed decides a whole chunk stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    /// A validity mask with about one NULL in eight, for some chunks only.
    fn validity(&mut self, n: usize) -> Option<Vec<bool>> {
        (self.below(2) == 0).then(|| (0..n).map(|_| self.below(8) != 0).collect())
    }
}

/// Chunks of the given physical sizes: a nullable `Int64` key, a string
/// column that is flat or coded in one of two dictionaries from chunk to
/// chunk, a running row id; about half of them behind a selection.
fn stream(sizes: &[usize], seed: u64) -> Vec<DataChunk> {
    let dicts = [
        Utf8Dict::from_values(vec!["a", "b", "c"]),
        Utf8Dict::from_values(vec!["c", "d"]),
    ];
    let mut rng = Rng(seed);
    let mut next_id = 0i64;
    let mut chunks = Vec::new();
    for &n in sizes {
        let key = Vector {
            data: ColumnData::Int64((0..n).map(|_| rng.below(50) as i64).collect()),
            validity: rng.validity(n),
            dict: None,
        };
        let encoding = rng.below(3) as usize;
        let string = match dicts.get(encoding) {
            Some(dict) => Vector::from_dict_codes(
                (0..n)
                    .map(|_| rng.below(dict.len() as u64) as i64)
                    .collect(),
                rng.validity(n),
                dict.clone(),
            ),
            None => Vector {
                data: ColumnData::Utf8((0..n).map(|_| format!("f{}", rng.below(9))).collect()),
                validity: rng.validity(n),
                dict: None,
            },
        };
        let ids = Vector::from_i64((next_id..next_id + n as i64).collect());
        next_id += n as i64;
        let mut chunk = DataChunk::new(vec![key, string, ids]);
        if rng.below(2) == 0 {
            chunk.set_selection((0..n as u32).filter(|_| rng.below(4) != 0).collect());
        }
        chunks.push(chunk);
    }
    chunks
}

fn rows_of<'a>(chunks: impl IntoIterator<Item = &'a DataChunk>) -> Vec<Row> {
    chunks.into_iter().flat_map(DataChunk::rows).collect()
}

/// The logical rows of `chunks` by the partition their key hashes to.
fn routed(chunks: &[DataChunk], partitions: usize) -> Vec<Vec<Row>> {
    let partitioner = Partitioner::new(partitions);
    let mut out = vec![Vec::new(); partitions];
    for chunk in chunks {
        let flat = chunk.flattened();
        let hashes = hash_columns(&[&flat.columns[0]], flat.num_rows());
        for (row, h) in flat.rows().into_iter().zip(hashes) {
            out[partitioner.of_hash(h)].push(row);
        }
    }
    out
}

/// No two adjacent chunks of a stored run would fit one vector.
fn assert_combined(run: &[&DataChunk]) -> Result<(), TestCaseError> {
    for pair in run.windows(2) {
        prop_assert!(pair.iter().all(|c| c.selection.is_none()));
        let rows = pair[0].num_rows() + pair[1].num_rows();
        prop_assert!(
            rows > VECTOR_SIZE,
            "adjacent chunks of {rows} rows were not combined"
        );
    }
    Ok(())
}

/// The bytes the write-combined runs of `chunks` hold when they are routed
/// on column 0 to `partitions` partitions: a reference route into one
/// ungoverned buffer per partition.
fn run_bytes(chunks: &[DataChunk], partitions: usize) -> usize {
    let partitioner = Partitioner::new(partitions);
    let mut runs: Vec<SpillBuffer> = (0..partitions)
        .map(|_| SpillBuffer::unbounded(schema()))
        .collect();
    let mut rows = Vec::new();
    for chunk in chunks {
        let hashes = hash_columns_sel(
            &[&chunk.columns[0]],
            chunk.selection.as_deref(),
            chunk.num_rows(),
        );
        partitioner.bucket_rows(chunk, &hashes, &mut rows);
        for (run, rows) in runs.iter_mut().zip(&rows) {
            run.push_rows(chunk, rows).unwrap();
        }
    }
    runs.iter().map(|r| r.stats().bytes_in_memory).sum()
}

fn spill_files(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |d| {
        d.flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("rpt_spill_"))
            .count()
    })
}

fn bloom() -> BloomSink {
    BloomSink {
        filter_id: 0,
        key_cols: vec![0],
        shape: FilterShape::Bloom {
            expected_keys: 64,
            fpr: 0.02,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `SpillBuffer::push` / `push_rows`: rows in order, chunks combined,
    /// residency exact on the buffer and on the governor; under a 1-byte
    /// cap everything still spills and comes back in insertion order.
    #[test]
    fn spill_buffer_combines_and_accounts(
        sizes in proptest::collection::vec(1usize..900, 1..12),
        seed in 0u64..u64::MAX,
    ) {
        let chunks = stream(&sizes, seed);
        let want = rows_of(&chunks);
        let dir = std::env::temp_dir().join(format!("rpt_wc_buffer_{seed}"));

        let gov = Arc::new(MemoryGovernor::new(usize::MAX));
        let mut buffer = SpillBuffer::new(schema(), usize::MAX, &dir).with_governor(gov.register(true));
        let mut tiny = SpillBuffer::new(schema(), 1, &dir);
        for (i, chunk) in chunks.iter().enumerate() {
            tiny.push(chunk.clone()).unwrap();
            // Alternate the two entry points; they store the same rows.
            match (&chunk.selection, i % 2) {
                (Some(sel), 0) => buffer.push_rows(chunk, sel).unwrap(),
                _ => buffer.push(chunk.clone()).unwrap(),
            }
        }
        let stats = buffer.stats();
        let resident = gov.resident_bytes();
        let stored = buffer.take_chunks().unwrap();
        prop_assert_eq!(rows_of(&stored), want.clone());
        assert_combined(&stored.iter().collect::<Vec<_>>())?;
        let bytes: usize = stored.iter().map(chunk_size_bytes).sum();
        prop_assert_eq!((stats.chunks_in_memory, stats.chunks_spilled), (stored.len(), 0));
        prop_assert_eq!(stats.bytes_in_memory, bytes);
        prop_assert_eq!(resident, bytes, "the governor's last update");

        let stats = tiny.stats();
        prop_assert_eq!(stats.chunks_in_memory, 0);
        prop_assert_eq!(stats.chunks_spilled, chunks.iter().filter(|c| c.num_rows() > 0).count());
        prop_assert_eq!(rows_of(&tiny.take_chunks().unwrap()), want);
        prop_assert_eq!(spill_files(&dir), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `BufferSink` with 1 and 8 partitions: every partition stores the
    /// rows routed to it, in order, combined, with the governor seeing
    /// exactly the stored bytes; a 1-byte memory budget changes none of
    /// the rows and leaves no file behind.
    #[test]
    fn buffer_sink_combines_per_partition(
        sizes in proptest::collection::vec(1usize..900, 1..10),
        seed in 0u64..u64::MAX,
    ) {
        let chunks = stream(&sizes, seed);
        let factory = BufferSinkFactory::new(0, schema(), vec![bloom()]);
        for partitions in [1usize, 8] {
            let want = routed(&chunks, partitions);
            let dir = std::env::temp_dir().join(format!("rpt_wc_sink_{seed}_{partitions}"));
            for budget in [usize::MAX, 1] {
                let ctx = ExecContext::new()
                    .with_partitions(partitions)
                    .with_memory_budget(Some(budget))
                    .with_spill_dir(&dir);
                let gov = ctx.governor.clone().unwrap();
                let res = Resources::with_partitions(1, 1, 0, partitions);
                let mut sink = factory.make(&ctx).unwrap();
                for chunk in &chunks {
                    sink.sink(chunk.clone(), &ctx).unwrap();
                }
                let resident = gov.resident_bytes();
                factory.merge_partitioned(vec![sink], &ctx, &res).unwrap();
                let mut bytes = 0;
                for (p, want) in want.iter().enumerate() {
                    let stored = res.buffer_partition(0, p).unwrap();
                    let stored: Vec<&DataChunk> = stored.iter().map(|c| c.as_ref()).collect();
                    prop_assert_eq!(&rows_of(stored.iter().copied()), want, "partition {}", p);
                    if budget == usize::MAX {
                        assert_combined(&stored)?;
                    }
                    bytes += stored.iter().map(|c| chunk_size_bytes(c)).sum::<usize>();
                }
                prop_assert_eq!(resident, if budget == usize::MAX { bytes } else { 0 });
                prop_assert_eq!(res.filter(0).unwrap().num_inserted() > 0, want.iter().any(|p| !p.is_empty()));
                prop_assert_eq!(spill_files(&dir), 0);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A hash build with 1 and 8 partitions: the one assembled table
    /// stores partition after partition, each the rows routed to it in
    /// arrival order. Under a memory governor the runs report exactly the
    /// bytes they hold — no more for a chunk behind a selection — until the
    /// table takes their registration over, and a 1-byte budget spills none
    /// of them: the table keeps its rows and no file is left behind.
    #[test]
    fn hash_build_sink_lays_partitions_in_order(
        sizes in proptest::collection::vec(1usize..900, 1..10),
        seed in 0u64..u64::MAX,
    ) {
        let chunks = stream(&sizes, seed);
        let factory = HashBuildFactory::new(0, vec![0], schema(), vec![]);
        for partitions in [1usize, 8] {
            let want: Vec<Row> = routed(&chunks, partitions).into_iter().flatten().collect();
            let held = run_bytes(&chunks, partitions);
            let dir = std::env::temp_dir().join(format!("rpt_wc_build_{seed}_{partitions}"));
            for budget in [None, Some(usize::MAX), Some(1)] {
                let ctx = ExecContext::new()
                    .with_partitions(partitions)
                    .with_memory_budget(budget)
                    .with_spill_dir(&dir);
                let res = Resources::with_partitions(0, 0, 1, partitions);
                let mut sink = factory.make(&ctx).unwrap();
                for chunk in &chunks {
                    sink.sink(chunk.clone(), &ctx).unwrap();
                }
                if let Some(gov) = &ctx.governor {
                    prop_assert_eq!(gov.resident_bytes(), held, "budget {:?}", budget);
                }
                factory.merge_partitioned(vec![sink], &ctx, &res).unwrap();
                let table = res.hash_table(0).unwrap();
                prop_assert_eq!(table.data.rows(), want.clone(), "partitions = {}", partitions);
                if let Some(gov) = &ctx.governor {
                    prop_assert_eq!(gov.resident_bytes(), table.size_bytes(), "handed to the table");
                }
                prop_assert_eq!(spill_files(&dir), 0);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
