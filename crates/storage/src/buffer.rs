//! The buffer pool: a fixed set of frames caching disk pages, with LRU
//! replacement, pin counting, and I/O statistics.
//!
//! All storage structures go through the pool, so its counters give an
//! engine-wide measure of logical page touches and physical I/O — the cost
//! numbers reported by the experiment harness.

use crate::wal::{Lsn, Wal, WalStats};
use crate::{DiskManager, PageId, StorageError, StorageResult, PAGE_SIZE};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What one checkpoint did, returned by [`BufferPool::checkpoint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Data pages written back during the checkpoint.
    pub pages_written: u64,
    /// The log scan start before the checkpoint (all zero for a
    /// non-durable pool).
    pub start_lsn: Lsn,
    /// The new scan start the checkpoint advanced to.
    pub end_lsn: Lsn,
    /// Wall time of the whole checkpoint, in microseconds.
    pub duration_micros: u64,
}

/// Counters accumulated over the lifetime of a pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served (hits + misses).
    pub logical_reads: u64,
    /// Requests served from a cached frame (hits). Every successfully
    /// served request is a hit or a miss, so
    /// `logical_reads == cache_hits + physical_reads` — concurrency tests
    /// check this identity after parallel scans.
    pub cache_hits: u64,
    /// Pages read from the disk manager (misses).
    pub physical_reads: u64,
    /// Pages written back to the disk manager.
    pub physical_writes: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
}

/// The page image (and dirty flag) a frame had before the current
/// transaction first touched it; restored on abort.
struct Undo {
    data: Box<[u8; PAGE_SIZE]>,
    was_dirty: bool,
}

struct Frame {
    pid: PageId,
    data: RwLock<Box<[u8; PAGE_SIZE]>>,
    dirty: AtomicBool,
    pins: AtomicUsize,
    last_used: AtomicU64,
    /// Log position past this page's last committed after-image. The
    /// WAL-before-data rule: the log must be durable through this LSN
    /// before the page may be written to the data disk.
    page_lsn: AtomicU64,
    /// Id of the open transaction that dirtied this frame (0 = none).
    /// Frames with a non-zero `txid` are never evicted and never written
    /// back — the pool is strictly *no-steal*.
    txid: AtomicU64,
    undo: Mutex<Option<Undo>>,
    /// Shared handle to the pool's open-transaction id, so the write
    /// path can capture an undo image without reaching back to the pool.
    tx_current: Arc<AtomicU64>,
}

struct Counters {
    logical_reads: AtomicU64,
    cache_hits: AtomicU64,
    physical_reads: AtomicU64,
    physical_writes: AtomicU64,
    evictions: AtomicU64,
}

/// A buffer pool over a [`DiskManager`], optionally fronted by a
/// write-ahead log ([`BufferPool::with_wal`]).
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    capacity: usize,
    frames: Mutex<HashMap<PageId, Arc<Frame>>>,
    clock: AtomicU64,
    stats: Counters,
    wal: Option<Arc<Wal>>,
    /// Id of the open transaction (0 = none). Single-writer: statement
    /// execution is serialized, parallel workers only read.
    tx_current: Arc<AtomicU64>,
}

impl BufferPool {
    /// Create a pool of `capacity` frames (at least 1).
    pub fn new(disk: Arc<dyn DiskManager>, capacity: usize) -> Self {
        Self::build(disk, capacity, None)
    }

    /// Create a pool whose writes are protected by a write-ahead log:
    /// transactional updates ([`BufferPool::begin_tx`] /
    /// [`BufferPool::commit_tx`]) log full page images before any data
    /// page reaches `disk`, and eviction enforces WAL-before-data.
    pub fn with_wal(disk: Arc<dyn DiskManager>, capacity: usize, wal: Arc<Wal>) -> Self {
        Self::build(disk, capacity, Some(wal))
    }

    fn build(disk: Arc<dyn DiskManager>, capacity: usize, wal: Option<Arc<Wal>>) -> Self {
        BufferPool {
            disk,
            capacity: capacity.max(1),
            frames: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            stats: Counters {
                logical_reads: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                physical_reads: AtomicU64::new(0),
                physical_writes: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            },
            wal,
            tx_current: Arc::new(AtomicU64::new(0)),
        }
    }

    fn new_frame(&self, pid: PageId, data: Box<[u8; PAGE_SIZE]>, dirty: bool, tick: u64) -> Frame {
        Frame {
            pid,
            data: RwLock::new(data),
            dirty: AtomicBool::new(dirty),
            pins: AtomicUsize::new(1),
            last_used: AtomicU64::new(tick),
            page_lsn: AtomicU64::new(0),
            txid: AtomicU64::new(0),
            undo: Mutex::new(None),
            tx_current: Arc::clone(&self.tx_current),
        }
    }

    /// Fetch a page, pinning it for the lifetime of the returned guard.
    pub fn fetch(&self, pid: PageId) -> StorageResult<PageGuard> {
        self.stats.logical_reads.fetch_add(1, Ordering::Relaxed);
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut frames = self.frames.lock();
        if let Some(frame) = frames.get(&pid) {
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            frame.last_used.store(tick, Ordering::Relaxed);
            frame.pins.fetch_add(1, Ordering::SeqCst);
            return Ok(PageGuard {
                frame: Arc::clone(frame),
            });
        }
        // Miss: make room, then read from the disk.
        if frames.len() >= self.capacity {
            self.evict_one(&mut frames)?;
        }
        let mut data = Box::new([0u8; PAGE_SIZE]);
        self.disk.read_page(pid, &mut data[..])?;
        self.stats.physical_reads.fetch_add(1, Ordering::Relaxed);
        let frame = Arc::new(self.new_frame(pid, data, false, tick));
        frames.insert(pid, Arc::clone(&frame));
        Ok(PageGuard { frame })
    }

    /// Allocate a fresh zeroed page and return it pinned. The page is born
    /// in the pool dirty (it must reach disk on eviction or flush).
    pub fn allocate(&self) -> StorageResult<(PageId, PageGuard)> {
        let pid = self.disk.allocate_page()?;
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut frames = self.frames.lock();
        if frames.len() >= self.capacity {
            self.evict_one(&mut frames)?;
        }
        let frame = Arc::new(self.new_frame(pid, Box::new([0u8; PAGE_SIZE]), true, tick));
        // A page allocated inside a transaction belongs to it: its undo
        // image is the zero page it was born as.
        let cur = self.tx_current.load(Ordering::SeqCst);
        if cur != 0 {
            frame.txid.store(cur, Ordering::SeqCst);
            *frame.undo.lock() = Some(Undo {
                data: Box::new([0u8; PAGE_SIZE]),
                was_dirty: false,
            });
        }
        frames.insert(pid, Arc::clone(&frame));
        Ok((pid, PageGuard { frame }))
    }

    fn evict_one(&self, frames: &mut HashMap<PageId, Arc<Frame>>) -> StorageResult<()> {
        // No-steal: frames dirtied by the open transaction are not
        // eviction candidates — their images are not in the log yet, so
        // writing them out would let uncommitted data reach the disk.
        let victim = frames
            .values()
            .filter(|f| f.pins.load(Ordering::SeqCst) == 0 && f.txid.load(Ordering::SeqCst) == 0)
            .min_by_key(|f| f.last_used.load(Ordering::Relaxed))
            .cloned()
            .ok_or(StorageError::PoolExhausted)?;
        // Write back before dropping the frame: if the write fails the
        // page stays cached and dirty, so its newest image is not lost.
        if victim.dirty.load(Ordering::SeqCst) {
            self.write_back(&victim)?;
        }
        frames.remove(&victim.pid);
        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Write `frame` to the data disk behind the WAL-before-data check:
    /// the log must be durable past the frame's last logged image first.
    fn write_back(&self, frame: &Frame) -> StorageResult<()> {
        if let Some(wal) = &self.wal {
            wal.flush_to(frame.page_lsn.load(Ordering::SeqCst))?;
        }
        let data = frame.data.read();
        self.disk.write_page(frame.pid, &data[..])?;
        self.stats.physical_writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Write every committed dirty frame back to disk (frames stay
    /// cached) and return how many pages reached the disk. Frames
    /// belonging to an open transaction are skipped — they reach the
    /// disk only after their images are in the log.
    pub fn flush_all(&self) -> StorageResult<u64> {
        let frames = self.frames.lock();
        let mut written = 0u64;
        for frame in frames.values() {
            if frame.txid.load(Ordering::SeqCst) != 0 {
                continue;
            }
            if frame.dirty.swap(false, Ordering::SeqCst) {
                if let Err(e) = self.write_back(frame) {
                    // Still dirty: a later flush or checkpoint retries it.
                    frame.dirty.store(true, Ordering::SeqCst);
                    return Err(e);
                }
                written += 1;
            }
        }
        Ok(written)
    }

    // ------------------------------------------------------ transactions

    /// Begin a statement transaction. Without a WAL this is a no-op (and
    /// returns 0); with one, subsequent page writes capture undo images
    /// and are fenced from the data disk until [`BufferPool::commit_tx`].
    pub fn begin_tx(&self) -> StorageResult<u64> {
        let Some(wal) = &self.wal else { return Ok(0) };
        if self.tx_current.load(Ordering::SeqCst) != 0 {
            return Err(StorageError::Tx("transaction already active".into()));
        }
        let txid = wal.alloc_txid();
        self.tx_current.store(txid, Ordering::SeqCst);
        Ok(txid)
    }

    /// Commit the open transaction: log a full after-image of every page
    /// it dirtied (in page order), append the optional `meta` payload and
    /// the commit marker, and flush + sync the log. Only after this
    /// returns `Ok` is the statement durable; the data pages themselves
    /// stay cached and dirty, to be written back by eviction, flush or
    /// checkpoint — always behind the WAL-before-data check.
    ///
    /// On error the transaction is left open so the caller can (and
    /// should) [`BufferPool::abort_tx`] to restore the pre-images.
    pub fn commit_tx(&self, meta: Option<&[u8]>) -> StorageResult<()> {
        let Some(wal) = &self.wal else { return Ok(()) };
        let txid = self.tx_current.load(Ordering::SeqCst);
        if txid == 0 {
            return Err(StorageError::Tx("commit without active transaction".into()));
        }
        let frames = self.frames.lock();
        let mut touched: Vec<&Arc<Frame>> = frames
            .values()
            .filter(|f| f.txid.load(Ordering::SeqCst) == txid)
            .collect();
        touched.sort_by_key(|f| f.pid);
        for f in &touched {
            let data = f.data.read();
            let lsn = wal.append_page_image(txid, f.pid, &data[..])?;
            f.page_lsn.store(lsn, Ordering::SeqCst);
        }
        wal.commit(txid, meta)?;
        for f in &touched {
            f.txid.store(0, Ordering::SeqCst);
            *f.undo.lock() = None;
        }
        self.tx_current.store(0, Ordering::SeqCst);
        Ok(())
    }

    /// Abort the open transaction, restoring every touched frame to its
    /// pre-transaction image and dirty flag. No-op without a WAL or an
    /// open transaction.
    pub fn abort_tx(&self) -> StorageResult<()> {
        let Some(wal) = &self.wal else { return Ok(()) };
        let txid = self.tx_current.load(Ordering::SeqCst);
        if txid == 0 {
            return Ok(());
        }
        let frames = self.frames.lock();
        for f in frames.values() {
            if f.txid.load(Ordering::SeqCst) != txid {
                continue;
            }
            if let Some(undo) = f.undo.lock().take() {
                *f.data.write() = undo.data;
                f.dirty.store(undo.was_dirty, Ordering::SeqCst);
            }
            f.txid.store(0, Ordering::SeqCst);
        }
        self.tx_current.store(0, Ordering::SeqCst);
        // Informational only — redo ignores uncommitted transactions.
        wal.append_abort(txid);
        Ok(())
    }

    /// Fuzzy checkpoint: flush the log, write every committed dirty page
    /// to the data disk (WAL first), sync the data disk, then advance
    /// the log's scan start past the work it no longer needs to redo.
    /// `meta` is re-published at the new scan start so recovery can
    /// still find the engine's catalog snapshot. Returns what the
    /// checkpoint did.
    pub fn checkpoint(&self, meta: Option<&[u8]>) -> StorageResult<CheckpointStats> {
        let started = Instant::now();
        if self.tx_current.load(Ordering::SeqCst) != 0 {
            return Err(StorageError::Tx("checkpoint inside a transaction".into()));
        }
        let start_lsn = self.wal.as_ref().map(|w| w.checkpoint_lsn()).unwrap_or(0);
        if let Some(wal) = &self.wal {
            wal.flush()?;
        }
        let pages_written = self.flush_all()?;
        self.disk.sync()?;
        if let Some(wal) = &self.wal {
            wal.checkpoint_mark(meta)?;
        }
        let end_lsn = self.wal.as_ref().map(|w| w.checkpoint_lsn()).unwrap_or(0);
        Ok(CheckpointStats {
            pages_written,
            start_lsn,
            end_lsn,
            duration_micros: started.elapsed().as_micros() as u64,
        })
    }

    /// The write-ahead log, when this pool has one.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// True when this pool logs its writes.
    pub fn has_wal(&self) -> bool {
        self.wal.is_some()
    }

    /// WAL counters (zeroes without a WAL).
    pub fn wal_stats(&self) -> WalStats {
        self.wal.as_ref().map(|w| w.stats()).unwrap_or_default()
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            logical_reads: self.stats.logical_reads.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            physical_reads: self.stats.physical_reads.load(Ordering::Relaxed),
            physical_writes: self.stats.physical_writes.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
        }
    }

    /// Reset the counters (e.g. between benchmark phases).
    pub fn reset_stats(&self) {
        self.stats.logical_reads.store(0, Ordering::Relaxed);
        self.stats.cache_hits.store(0, Ordering::Relaxed);
        self.stats.physical_reads.store(0, Ordering::Relaxed);
        self.stats.physical_writes.store(0, Ordering::Relaxed);
        self.stats.evictions.store(0, Ordering::Relaxed);
    }

    /// The disk manager beneath this pool.
    pub fn disk(&self) -> &Arc<dyn DiskManager> {
        &self.disk
    }

    /// Number of frames currently cached.
    pub fn cached_frames(&self) -> usize {
        self.frames.lock().len()
    }

    /// Number of frames currently pinned (a guard is outstanding). Zero
    /// whenever no scan or update is in flight — concurrency tests use
    /// this to prove parallel scans release every pin.
    pub fn pinned_frames(&self) -> usize {
        self.frames
            .lock()
            .values()
            .filter(|f| f.pins.load(Ordering::SeqCst) > 0)
            .count()
    }
}

/// A pinned page. Dropping the guard unpins the frame; taking a write lock
/// marks it dirty.
pub struct PageGuard {
    frame: Arc<Frame>,
}

impl PageGuard {
    pub fn page_id(&self) -> PageId {
        self.frame.pid
    }

    /// Shared read access to the page bytes.
    pub fn read(&self) -> RwLockReadGuard<'_, Box<[u8; PAGE_SIZE]>> {
        self.frame.data.read()
    }

    /// Exclusive write access; marks the page dirty. Inside an open
    /// transaction the first write to a frame captures its undo image,
    /// so the statement can be rolled back atomically on error.
    pub fn write(&self) -> RwLockWriteGuard<'_, Box<[u8; PAGE_SIZE]>> {
        let cur = self.frame.tx_current.load(Ordering::SeqCst);
        if cur != 0 && self.frame.txid.load(Ordering::SeqCst) != cur {
            let mut undo = self.frame.undo.lock();
            if self.frame.txid.load(Ordering::SeqCst) != cur {
                *undo = Some(Undo {
                    data: self.frame.data.read().clone(),
                    was_dirty: self.frame.dirty.load(Ordering::SeqCst),
                });
                self.frame.txid.store(cur, Ordering::SeqCst);
            }
        }
        self.frame.dirty.store(true, Ordering::SeqCst);
        self.frame.data.write()
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.frame.pins.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultClock, FaultDisk, FaultSchedule, MemDisk, Wal};

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(Arc::new(MemDisk::new()), frames)
    }

    fn durable_pool(frames: usize) -> BufferPool {
        let data: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
        let wal_disk: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
        let (wal, _, _) = Wal::recover(wal_disk, &data).unwrap();
        BufferPool::with_wal(data, frames, Arc::new(wal))
    }

    #[test]
    fn fetch_hit_does_not_touch_disk() {
        let p = pool(4);
        let (pid, g) = p.allocate().unwrap();
        drop(g);
        p.fetch(pid).unwrap();
        p.fetch(pid).unwrap();
        let s = p.stats();
        assert_eq!(s.logical_reads, 2);
        assert_eq!(s.physical_reads, 0, "allocation primes the cache");
    }

    #[test]
    fn writes_survive_eviction() {
        let p = pool(2);
        let (pid, g) = p.allocate().unwrap();
        g.write()[0] = 99;
        drop(g);
        // Force eviction by allocating past capacity.
        for _ in 0..4 {
            let (_, g) = p.allocate().unwrap();
            drop(g);
        }
        let g = p.fetch(pid).unwrap();
        assert_eq!(g.read()[0], 99);
        assert!(p.stats().evictions >= 3);
        assert!(p.stats().physical_writes >= 1);
    }

    #[test]
    fn pinned_pages_cannot_be_evicted() {
        let p = pool(2);
        let (_, g0) = p.allocate().unwrap();
        let (_, g1) = p.allocate().unwrap();
        assert!(matches!(p.allocate(), Err(StorageError::PoolExhausted)));
        drop(g0);
        drop(g1);
        assert!(p.allocate().is_ok());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let p = pool(2);
        let (a, ga) = p.allocate().unwrap();
        drop(ga);
        let (b, gb) = p.allocate().unwrap();
        drop(gb);
        // Touch `a` so `b` is the LRU victim.
        drop(p.fetch(a).unwrap());
        let (_, gc) = p.allocate().unwrap();
        drop(gc);
        p.reset_stats();
        drop(p.fetch(a).unwrap());
        assert_eq!(p.stats().physical_reads, 0, "a should still be cached");
        drop(p.fetch(b).unwrap());
        assert_eq!(p.stats().physical_reads, 1, "b was evicted");
    }

    #[test]
    fn flush_all_persists_dirty_pages() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(disk.clone(), 4);
        let (pid, g) = p.allocate().unwrap();
        g.write()[10] = 5;
        drop(g);
        p.flush_all().unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(pid, &mut buf).unwrap();
        assert_eq!(buf[10], 5);
    }

    #[test]
    fn scheduled_writeback_keeps_reads_fresh() {
        // Eviction on a durable pool writes the page back inline (log
        // first); a refetch must read the newest image from the disk.
        let p = durable_pool(2);
        p.begin_tx().unwrap();
        let (pid, g) = p.allocate().unwrap();
        g.write()[0] = 42;
        drop(g);
        p.commit_tx(None).unwrap();
        for _ in 0..4 {
            p.begin_tx().unwrap();
            let (_, g) = p.allocate().unwrap();
            g.write()[0] = 1;
            drop(g);
            p.commit_tx(None).unwrap();
        }
        let g = p.fetch(pid).unwrap();
        assert_eq!(g.read()[0], 42);
        drop(g);
        let s = p.stats();
        assert_eq!(s.logical_reads, s.cache_hits + s.physical_reads);
        assert!(s.physical_writes >= 1, "eviction wrote the page back");
    }

    #[test]
    fn failed_writeback_keeps_the_page_cached_and_dirty() {
        // A data-page write that fails must not drop the committed image:
        // eviction would otherwise serve the stale disk page, and a later
        // checkpoint would move the log past an image the disk never got.
        let clock = FaultClock::new(FaultSchedule {
            transient_write_errors: vec![0, 1],
            ..Default::default()
        });
        let data: Arc<dyn DiskManager> = Arc::new(FaultDisk::new(Arc::new(MemDisk::new()), clock));
        let wal_disk: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
        let (wal, _, _) = Wal::recover(wal_disk, &data).unwrap();
        let p = BufferPool::with_wal(Arc::clone(&data), 1, Arc::new(wal));
        p.begin_tx().unwrap();
        let (pid, g) = p.allocate().unwrap();
        g.write()[0] = 42;
        drop(g);
        p.commit_tx(None).unwrap();
        // Write 0: evicting the page fails, and it stays cached.
        assert!(p.allocate().is_err());
        assert_eq!(p.fetch(pid).unwrap().read()[0], 42);
        // Write 1: the flush fails; the retry (write 2) lands the page.
        assert!(p.flush_all().is_err());
        assert_eq!(p.flush_all().unwrap(), 1);
        let mut buf = [0u8; PAGE_SIZE];
        data.read_page(pid, &mut buf).unwrap();
        assert_eq!(buf[0], 42);
    }

    #[test]
    fn checkpoint_reports_pages_and_lsn_range() {
        let p = durable_pool(8);
        p.begin_tx().unwrap();
        let (_, g) = p.allocate().unwrap();
        g.write()[0] = 7;
        drop(g);
        let (_, g) = p.allocate().unwrap();
        g.write()[0] = 8;
        drop(g);
        p.commit_tx(Some(b"meta")).unwrap();
        let cp = p.checkpoint(Some(b"meta")).unwrap();
        assert_eq!(cp.pages_written, 2);
        assert!(
            cp.end_lsn > cp.start_lsn,
            "checkpoint advances the scan start"
        );
        assert_eq!(p.wal_stats().checkpoints, 1);
        // A non-durable pool still flushes but has no log positions.
        let plain = pool(4);
        let (_, g) = plain.allocate().unwrap();
        g.write()[0] = 1;
        drop(g);
        let cp = plain.checkpoint(None).unwrap();
        assert_eq!((cp.start_lsn, cp.end_lsn), (0, 0));
        assert_eq!(cp.pages_written, 1);
    }

    #[test]
    fn concurrent_fetches_from_threads() {
        let p = Arc::new(pool(8));
        let (pid, g) = p.allocate().unwrap();
        g.write()[0] = 1;
        drop(g);
        let mut handles = vec![];
        for _ in 0..8 {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let g = p.fetch(pid).unwrap();
                    assert_eq!(g.read()[0], 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.stats().logical_reads, 800);
    }
}
