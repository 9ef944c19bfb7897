//! Buffer pool behavior under concurrent heap scans: pins must all be
//! released, counters must stay consistent (`requests = hits +
//! misses`), and every scan must see every record, with and without
//! eviction pressure. Each scan splits the heap's pages over scoped
//! threads, as a parallel drain does, so scans race one another and
//! themselves on the shared pool.

use sos_storage::heap::HeapFile;
use sos_storage::{BufferPool, MemDisk, PoolStats, TupleId};
use std::sync::Arc;

fn filled_heap(pool: Arc<BufferPool>, n: usize) -> Arc<HeapFile> {
    let heap = HeapFile::create(pool).unwrap();
    for i in 0..n {
        heap.insert(format!("record-{i:06}-{}", "p".repeat(i % 300)).as_bytes())
            .unwrap();
    }
    Arc::new(heap)
}

fn assert_consistent(s: &PoolStats) {
    assert_eq!(
        s.logical_reads,
        s.cache_hits + s.physical_reads,
        "requests must equal hits + misses: {s:?}"
    );
}

/// Scan `heap` through its public API with `threads` scoped threads,
/// each over a contiguous run of its pages; the tuple ids come back in
/// page order.
fn split_scan(heap: &HeapFile, threads: usize) -> Vec<TupleId> {
    let pages = heap.pages();
    let chunk = pages.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = pages
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    heap.scan_pages(part.to_vec())
                        .map(|r| r.expect("scan").0)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("scan thread panicked"))
            .collect()
    })
}

#[test]
fn concurrent_par_scans_release_all_pins() {
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256));
    let heap = filled_heap(pool.clone(), 2000);
    let n_scans = 8;
    std::thread::scope(|scope| {
        for _ in 0..n_scans {
            let heap = heap.clone();
            scope.spawn(move || {
                assert_eq!(split_scan(&heap, 4).len(), 2000);
            });
        }
    });
    assert_eq!(
        pool.pinned_frames(),
        0,
        "all pins must be released after the scans finish"
    );
    assert_consistent(&pool.stats());
}

#[test]
fn concurrent_par_scans_under_eviction_pressure() {
    // A pool far smaller than the file: concurrent scans constantly
    // evict each other's pages. Counts must stay exact, pins must drain,
    // and the hit/miss split must still account for every request.
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 8));
    let heap = filled_heap(pool.clone(), 1500);
    let pages = heap.pages().len();
    assert!(pages > 16, "need more pages ({pages}) than frames (8)");
    pool.flush_all().unwrap();
    pool.reset_stats();

    std::thread::scope(|scope| {
        for _ in 0..6 {
            let heap = heap.clone();
            scope.spawn(move || {
                assert_eq!(split_scan(&heap, 3).len(), 1500);
            });
        }
    });

    let s = pool.stats();
    assert_eq!(pool.pinned_frames(), 0);
    assert_consistent(&s);
    // Every scan touches every page at least once.
    assert!(s.logical_reads >= (6 * pages) as u64);
    // The pool is tiny, so most requests must have missed.
    assert!(s.physical_reads > 0, "eviction pressure must cause misses");
}

#[test]
fn concurrent_mixed_readers_see_exactly_once_semantics() {
    // Several concurrent split scans, each collecting tuple ids: every
    // scan independently sees each record exactly once.
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
    let heap = filled_heap(pool.clone(), 800);
    let collected: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let heap = heap.clone();
                scope.spawn(move || {
                    let tids = split_scan(&heap, 4);
                    let mut unique = tids.clone();
                    unique.sort();
                    unique.dedup();
                    assert_eq!(unique.len(), tids.len(), "no tuple visited twice");
                    tids.len()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(collected.iter().all(|&n| n == 800));
    assert_eq!(pool.pinned_frames(), 0);
    assert_consistent(&pool.stats());
}
