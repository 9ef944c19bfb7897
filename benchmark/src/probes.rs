//! Direct probes of single layers through their public functions.
//!
//! A statement-level trace cannot see inside `exec.execute`, so these
//! time the storage and geometry primitives on fixtures shaped like the
//! workloads' data (100-byte item rows, the 16x16 state grid). They run
//! in every traced run, on every workload, against the same fixtures.

use crate::gen::{Cell, Generator, SpatialGen, SpatialSpec, KEY_STRIDE};
use sos_geom::{Point, Polygon};
use sos_storage::btree::BTree;
use sos_storage::field::{decode_record, encode_record, Field};
use sos_storage::heap::HeapFile;
use sos_storage::keys::int_key;
use sos_storage::lsdtree::{Entry, LsdTree};
use sos_storage::{mem_pool, BufferPool, DiskManager, FileDisk, MemDisk, PageId, Wal};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 50_000;
const LOOKUPS: usize = 20_000;
const COMMITS: usize = 100;

/// `(metric name, value, operations measured)`, names as in
/// BENCHMARK.json.
pub type Probed = Vec<(&'static str, f64, u64)>;

/// Record `name` as nanoseconds per operation since `started`.
fn timed(out: &mut Probed, name: &'static str, started: Instant, ops: usize) {
    out.push((
        name,
        started.elapsed().as_nanos() as f64 / ops as f64,
        ops as u64,
    ));
}

/// A cheap deterministic index sequence (no RNG state to thread through).
fn pick(i: usize, n: usize) -> usize {
    crate::gen::scatter(i as u64, n as u64) as usize
}

fn fields_and_records(out: &mut Probed) -> Vec<Vec<u8>> {
    let rows: Vec<Vec<Field>> = (0..ROWS as i64)
        .map(|i| {
            vec![
                Field::Int(i * KEY_STRIDE),
                Field::Int(i % 100),
                Field::Str("x".repeat(76)),
            ]
        })
        .collect();
    let t = Instant::now();
    let records: Vec<Vec<u8>> = rows.iter().map(|r| encode_record(r)).collect();
    timed(out, "storage.field.encode_ns_per_row", t, ROWS);
    let t = Instant::now();
    for r in &records {
        black_box(decode_record(r).expect("decode"));
    }
    timed(out, "storage.field.decode_ns_per_row", t, ROWS);
    records
}

fn heap(records: &[Vec<u8>], out: &mut Probed) {
    let heap = HeapFile::create(mem_pool(4096)).expect("heap");
    for r in records {
        heap.insert(r).expect("heap insert");
    }
    let t = Instant::now();
    assert_eq!(black_box(heap.scan().count()), ROWS);
    timed(out, "storage.heap.scan_ns_per_row", t, ROWS);
}

fn btree(records: &[Vec<u8>], out: &mut Probed) {
    let pool = mem_pool(4096);
    let tree = BTree::create(Arc::clone(&pool)).expect("btree");
    let entries: Vec<_> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (int_key(i as i64 * KEY_STRIDE), r.clone()))
        .collect();
    let t = Instant::now();
    tree.bulk_load(entries).expect("bulk_load");
    timed(out, "storage.btree.bulk_load_ns_per_row", t, ROWS);
    let t = Instant::now();
    assert_eq!(black_box(tree.scan().expect("scan").count()), ROWS);
    timed(out, "storage.btree.scan_ns_per_row", t, ROWS);
    let reads_before = pool.stats().logical_reads;
    let t = Instant::now();
    for i in 0..LOOKUPS {
        let key = int_key(pick(i, ROWS) as i64 * KEY_STRIDE);
        assert_eq!(black_box(tree.lookup(&key).expect("lookup")).len(), 1);
    }
    timed(out, "storage.btree.lookup_ns", t, LOOKUPS);
    out.push((
        "storage.btree.pages_per_lookup",
        (pool.stats().logical_reads - reads_before) as f64 / LOOKUPS as f64,
        LOOKUPS as u64,
    ));
    let t = Instant::now();
    for (i, record) in records.iter().enumerate().take(LOOKUPS) {
        let key = int_key(pick(i, ROWS) as i64 * KEY_STRIDE + 1);
        tree.insert(&key, record).expect("insert");
    }
    timed(out, "storage.btree.insert_ns", t, LOOKUPS);
}

fn spatial(out: &mut Probed) {
    let gen = SpatialGen::new(
        SpatialSpec {
            cities_per_set: 1,
            grid: 16,
        },
        1,
    );
    let states: Vec<Polygon> = gen.tables()[0]
        .rows
        .iter()
        .map(|row| match &row[1] {
            Cell::Pgon(v) => Polygon::new(v.iter().map(|&(x, y)| Point::new(x, y)).collect()),
            other => unreachable!("states carry polygons, got {other:?}"),
        })
        .collect();
    // Points near the centre of each state: inside, after all 8 edges.
    let probes: Vec<(usize, Point)> = (0..LOOKUPS)
        .map(|i| {
            let s = pick(i, states.len());
            let b = states[s].bbox();
            let f = 0.4 + 0.2 * (i % 7) as f64 / 7.0;
            (
                s,
                Point::new(
                    b.min_x + (b.max_x - b.min_x) * f,
                    b.min_y + (b.max_y - b.min_y) * f,
                ),
            )
        })
        .collect();
    let t = Instant::now();
    for (s, p) in &probes {
        assert!(black_box(states[*s].contains_point(p)));
    }
    timed(out, "geom.inside_ns", t, LOOKUPS);

    let pool = mem_pool(4096);
    let tree = LsdTree::create(Arc::clone(&pool)).expect("lsdtree");
    tree.bulk_load(
        states
            .iter()
            .map(|s| Entry {
                rect: s.bbox(),
                payload: vec![0; 160],
            })
            .collect(),
    )
    .expect("lsd bulk_load");
    let reads_before = pool.stats().logical_reads;
    let t = Instant::now();
    for (_, p) in &probes {
        assert_eq!(
            black_box(tree.point_search(*p).expect("point_search")).len(),
            1
        );
    }
    timed(out, "storage.lsdtree.point_search_ns", t, LOOKUPS);
    out.push((
        "storage.lsdtree.pages_per_search",
        (pool.stats().logical_reads - reads_before) as f64 / LOOKUPS as f64,
        LOOKUPS as u64,
    ));
}

fn buffer(out: &mut Probed) {
    const PAGES: usize = 1024;
    let disk: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
    for _ in 0..PAGES {
        disk.allocate_page().expect("allocate");
    }
    // All resident: every fetch is a hit.
    let pool = BufferPool::new(Arc::clone(&disk), PAGES);
    (0..PAGES).for_each(|p| drop(pool.fetch(p as PageId).expect("fetch")));
    let t = Instant::now();
    for i in 0..LOOKUPS {
        black_box(pool.fetch(pick(i, PAGES) as PageId).expect("fetch"));
    }
    timed(out, "storage.buffer.fetch_hit_ns", t, LOOKUPS);
    // 16 frames cycling over 1024 pages: every fetch evicts and reads.
    let pool = BufferPool::new(disk, 16);
    let t = Instant::now();
    for i in 0..LOOKUPS {
        black_box(pool.fetch((i % PAGES) as PageId).expect("fetch"));
    }
    timed(out, "storage.buffer.fetch_miss_ns", t, LOOKUPS);
    assert_eq!(pool.stats().physical_reads, LOOKUPS as u64);
}

/// One dirtied page image plus `Wal::commit` under the default
/// `SyncPolicy::PerCommit`, on real files in `dir`.
fn wal(dir: &Path, out: &mut Probed) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let open = |name: &str| -> Result<Arc<dyn DiskManager>, String> {
        Ok(Arc::new(
            FileDisk::open(&dir.join(name)).map_err(|e| e.to_string())?,
        ))
    };
    let (data, log) = (open("pages.db")?, open("wal.log")?);
    let (wal, _, _) = Wal::recover(log, &data).map_err(|e| e.to_string())?;
    let pool = BufferPool::with_wal(data, 64, Arc::new(wal));
    let (pid, guard) = pool.allocate().map_err(|e| e.to_string())?;
    drop(guard);
    let t = Instant::now();
    for i in 0..COMMITS {
        pool.begin_tx().map_err(|e| e.to_string())?;
        pool.fetch(pid).map_err(|e| e.to_string())?.write()[0] = i as u8;
        pool.commit_tx(None).map_err(|e| e.to_string())?;
    }
    timed(out, "storage.wal.commit_ns", t, COMMITS);
    drop(pool);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

pub fn run_all(tmp: &Path) -> Result<Probed, String> {
    let mut out = Probed::new();
    let records = fields_and_records(&mut out);
    heap(&records, &mut out);
    btree(&records, &mut out);
    spatial(&mut out);
    buffer(&mut out);
    wal(tmp, &mut out)?;
    Ok(out)
}
