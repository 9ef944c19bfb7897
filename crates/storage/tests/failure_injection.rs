//! Failure injection: a disk manager that starts failing after a set
//! number of operations. Storage structures must surface the error —
//! never panic, never corrupt previously flushed state.

use sos_storage::btree::BTree;
use sos_storage::heap::HeapFile;
use sos_storage::keys::int_key;
use sos_storage::{BufferPool, DiskManager, MemDisk, PageId, StorageError, StorageResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Wraps a disk and fails every operation once the fuse burns out.
struct FaultyDisk {
    inner: MemDisk,
    remaining: AtomicUsize,
}

impl FaultyDisk {
    fn new(ops_before_failure: usize) -> FaultyDisk {
        FaultyDisk {
            inner: MemDisk::new(),
            remaining: AtomicUsize::new(ops_before_failure),
        }
    }

    fn tick(&self) -> StorageResult<()> {
        let left = self
            .remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1));
        match left {
            Ok(_) => Ok(()),
            Err(_) => Err(StorageError::Io(std::io::Error::other(
                "injected disk failure",
            ))),
        }
    }
}

impl DiskManager for FaultyDisk {
    fn read_page(&self, pid: PageId, buf: &mut [u8]) -> StorageResult<()> {
        self.tick()?;
        self.inner.read_page(pid, buf)
    }

    fn write_page(&self, pid: PageId, buf: &[u8]) -> StorageResult<()> {
        self.tick()?;
        self.inner.write_page(pid, buf)
    }

    fn allocate_page(&self) -> StorageResult<PageId> {
        self.tick()?;
        self.inner.allocate_page()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&self) -> StorageResult<()> {
        self.tick()?;
        self.inner.sync()
    }
}

#[test]
fn btree_insert_surfaces_disk_failures() {
    // A tiny pool forces evictions (and hence disk traffic) early.
    let disk = Arc::new(FaultyDisk::new(60));
    let pool = BufferPool::new(disk, 2).shared();
    let tree = BTree::create(pool).unwrap();
    let rec = vec![7u8; 512];
    let mut saw_error = false;
    for i in 0..10_000 {
        match tree.insert(&int_key(i), &rec) {
            Ok(()) => {}
            Err(StorageError::Io(_)) => {
                saw_error = true;
                break;
            }
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }
    assert!(
        saw_error,
        "the injected failure must surface as Err, not panic"
    );
}

#[test]
fn heap_scan_surfaces_disk_failures() {
    let disk = Arc::new(FaultyDisk::new(40));
    let pool = BufferPool::new(disk, 2).shared();
    let heap = HeapFile::create(pool).unwrap();
    let rec = vec![3u8; 2000];
    // Fill until the fuse burns (inserts already error eventually).
    let mut insert_failed = false;
    for _ in 0..200 {
        if heap.insert(&rec).is_err() {
            insert_failed = true;
            break;
        }
    }
    // Whether inserting or scanning hits the fuse, both must return Err.
    let scan_err = heap.scan().any(|r| r.is_err());
    assert!(insert_failed || scan_err);
}

#[test]
fn exhausted_pool_reports_pool_exhausted() {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 1).shared();
    let (_, guard) = pool.allocate().unwrap();
    // With the only frame pinned, any further page demand must fail
    // cleanly.
    let Err(e) = pool.allocate() else {
        panic!("allocation with all frames pinned must fail");
    };
    assert!(matches!(e, StorageError::PoolExhausted));
    drop(guard);
    assert!(pool.allocate().is_ok());
}

#[test]
fn query_over_failing_disk_reports_error_at_system_level() {
    // Wire a faulty disk under a whole Database: the error comes back as
    // a SystemError, not a panic.
    // A single-frame pool forces disk traffic on nearly every statement,
    // so the 10-op fuse burns within the first few inserts.
    let disk = Arc::new(FaultyDisk::new(4));
    let pool = BufferPool::new(disk, 1).shared();
    let mut db = sos_system::Database::builder().pool(pool).build();
    db.run(
        r#"
        type t = tuple(<(k, int), (payload, string)>);
        create r : tidrel(t);
    "#,
    )
    .unwrap();
    let mut failed = false;
    for i in 0..1000 {
        let stmt = format!(r#"update r := insert(r, mktuple[(k, {i}), (payload, "x{i}")]);"#);
        if db.run(&stmt).is_err() {
            failed = true;
            break;
        }
    }
    if !failed {
        failed = db.query("r feed count").is_err();
    }
    assert!(failed, "the injected failure must surface through Database");
}

/// Overwrite two bytes of page `pid` with `v` (little-endian) at `at`,
/// straight through the pool, as a torn or corrupted write would.
fn corrupt_u16(pool: &BufferPool, pid: PageId, at: usize, v: u16) {
    let guard = pool.fetch(pid).unwrap();
    guard.write()[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

fn assert_corrupt<T: std::fmt::Debug>(what: &str, r: StorageResult<T>) {
    match r {
        Err(StorageError::Corrupt(_)) => {}
        other => panic!("{what}: expected a corrupt-page error, got {other:?}"),
    }
}

#[test]
fn a_heap_slot_past_the_page_is_a_corrupt_error() {
    let pool = sos_storage::mem_pool(16);
    let heap = HeapFile::create(pool.clone()).unwrap();
    let tid = heap.insert(b"first").unwrap();
    heap.insert(b"second").unwrap();
    // Slot 0's length (page header 4 bytes, then offset, length).
    corrupt_u16(&pool, tid.page, 6, u16::MAX);
    assert_corrupt("get", heap.get(tid));
    assert_corrupt("scan", heap.scan().collect::<StorageResult<Vec<_>>>());
    assert_corrupt(
        "visit_page",
        heap.visit_page(tid.page, |records| {
            records.collect::<StorageResult<Vec<_>>>().map(|_| ())
        }),
    );
    // A slot directory that runs past the page.
    corrupt_u16(&pool, tid.page, 0, u16::MAX);
    assert_corrupt("scan", heap.scan().collect::<StorageResult<Vec<_>>>());
    assert_corrupt("visit_page", heap.visit_page(tid.page, |_| Ok(())));
    assert_eq!(pool.pinned_frames(), 0);
}

#[test]
fn heap_writes_to_a_page_that_overruns_itself_are_corrupt_errors() {
    let pool = sos_storage::mem_pool(16);
    let heap = HeapFile::create(pool.clone()).unwrap();
    let tid = heap.insert(b"first").unwrap();
    heap.insert(b"second").unwrap();
    // A slot directory that runs past the page.
    corrupt_u16(&pool, tid.page, 0, u16::MAX);
    assert_corrupt("insert", heap.insert(b"third"));
    assert_corrupt("update", heap.update(tid, b"a longer first record"));
    corrupt_u16(&pool, tid.page, 0, 2);
    // Slot 0's length (page header 4 bytes, then offset, length).
    corrupt_u16(&pool, tid.page, 6, u16::MAX);
    assert_corrupt("insert", heap.insert(b"third"));
    assert_corrupt("update", heap.update(tid, b"a longer first record"));
    assert_corrupt("delete", heap.delete(tid));
    corrupt_u16(&pool, tid.page, 6, 5);
    // A free-space end past the page.
    corrupt_u16(&pool, tid.page, 2, u16::MAX);
    assert_corrupt("insert", heap.insert(b"third"));
    assert_eq!(pool.pinned_frames(), 0);
}

#[test]
fn a_btree_leaf_entry_past_the_page_is_a_corrupt_error() {
    let pool = sos_storage::mem_pool(16);
    let tree = BTree::create(pool.clone()).unwrap();
    for i in 0..10 {
        tree.insert(&int_key(i), b"record").unwrap();
    }
    let leaf = tree.root();
    // The first entry's record length (leaf header 7 bytes, then key
    // length, record length).
    corrupt_u16(&pool, leaf, 9, u16::MAX);
    assert_corrupt(
        "scan",
        tree.scan()
            .and_then(|scan| scan.collect::<StorageResult<Vec<_>>>()),
    );
    assert_corrupt("lookup", tree.lookup(&int_key(3)));
    assert_corrupt(
        "visit_leaf",
        tree.visit_leaf(leaf, |entries| {
            entries.collect::<StorageResult<Vec<_>>>().map(|_| ())
        }),
    );
    // An entry count far past what the page holds.
    corrupt_u16(&pool, leaf, 9, 6);
    corrupt_u16(&pool, leaf, 1, u16::MAX);
    assert_corrupt(
        "scan",
        tree.scan()
            .and_then(|scan| scan.collect::<StorageResult<Vec<_>>>()),
    );
    assert_eq!(pool.pinned_frames(), 0);
}
