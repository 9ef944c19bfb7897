//! Pool-level durability: transactions over `BufferPool::with_wal`,
//! crash simulation through `FaultDisk`'s volatile write cache, and
//! redo-only recovery. "Crash" here is dropping the pool and its
//! `FaultDisk`s — everything unsynced vanishes, exactly like a power
//! loss — and "reopen" is running `Wal::recover` over the surviving
//! inner disks.

use sos_storage::{
    BufferPool, DiskManager, FaultClock, FaultDisk, FaultSchedule, MemDisk, PageId, StorageError,
    Wal, PAGE_SIZE,
};
use std::sync::Arc;

/// The durable disks that survive a crash.
struct Env {
    data: Arc<dyn DiskManager>,
    wal: Arc<dyn DiskManager>,
}

fn env() -> Env {
    Env {
        data: Arc::new(MemDisk::new()),
        wal: Arc::new(MemDisk::new()),
    }
}

fn open(
    env: &Env,
    schedule: FaultSchedule,
    cap: usize,
) -> (Arc<BufferPool>, Arc<FaultClock>, Option<Vec<u8>>) {
    let clock = FaultClock::new(schedule);
    let data: Arc<dyn DiskManager> =
        Arc::new(FaultDisk::new(Arc::clone(&env.data), Arc::clone(&clock)));
    let wal_disk: Arc<dyn DiskManager> =
        Arc::new(FaultDisk::new(Arc::clone(&env.wal), Arc::clone(&clock)));
    let (wal, meta, _info) = Wal::recover(wal_disk, &data).unwrap();
    (
        BufferPool::with_wal(data, cap, Arc::new(wal)).shared(),
        clock,
        meta,
    )
}

/// Read a page straight from the durable data disk.
fn durable_byte(env: &Env, pid: PageId, off: usize) -> u8 {
    let mut buf = [0u8; PAGE_SIZE];
    env.data.read_page(pid, &mut buf).unwrap();
    buf[off]
}

#[test]
fn committed_update_survives_crash() {
    let env = env();
    let pid;
    {
        let (pool, _, _) = open(&env, FaultSchedule::default(), 8);
        pool.begin_tx().unwrap();
        let (p, g) = pool.allocate().unwrap();
        g.write()[0] = 42;
        drop(g);
        pool.commit_tx(Some(b"snapshot")).unwrap();
        pid = p;
        // Crash: the pool is dropped without flushing data pages.
    }
    assert_eq!(
        durable_byte(&env, pid, 0),
        0,
        "the data page itself was never synced before the crash"
    );
    let (pool, _, meta) = open(&env, FaultSchedule::default(), 8);
    assert_eq!(meta.as_deref(), Some(&b"snapshot"[..]));
    let g = pool.fetch(pid).unwrap();
    assert_eq!(g.read()[0], 42, "recovery replayed the committed image");
}

#[test]
fn uncommitted_update_is_rolled_back_by_crash() {
    let env = env();
    let pid;
    {
        let (pool, _, _) = open(&env, FaultSchedule::default(), 8);
        pool.begin_tx().unwrap();
        let (p, g) = pool.allocate().unwrap();
        g.write()[0] = 42;
        drop(g);
        pid = p;
        // Crash without commit.
    }
    let (pool, _, meta) = open(&env, FaultSchedule::default(), 8);
    assert!(meta.is_none());
    let g = pool.fetch(pid).unwrap();
    assert_eq!(g.read()[0], 0, "uncommitted write must not survive");
}

/// Regression for the eviction ordering hole: a dirty page belonging to
/// an open transaction must never be stolen to the data disk, and a
/// committed dirty page evicted (written but unsynced) before a crash
/// must come back via the log.
#[test]
fn dirty_eviction_then_crash_loses_nothing() {
    let env = env();
    let (a, b0, b1);
    {
        let (pool, _, _) = open(&env, FaultSchedule::default(), 2);
        // Two committed filler pages.
        pool.begin_tx().unwrap();
        let (p0, g0) = pool.allocate().unwrap();
        drop(g0);
        let (p1, g1) = pool.allocate().unwrap();
        drop(g1);
        pool.commit_tx(None).unwrap();
        (b0, b1) = (p0, p1);

        pool.begin_tx().unwrap();
        let (p, g) = pool.allocate().unwrap();
        g.write()[7] = 99;
        drop(g);
        a = p;
        // Hammer the other pages: with capacity 2 something must be
        // evicted each time, and it must never be the transaction's page.
        for _ in 0..4 {
            drop(pool.fetch(b0).unwrap());
            drop(pool.fetch(b1).unwrap());
            assert_eq!(
                durable_byte(&env, a, 7),
                0,
                "no-steal: uncommitted page must not reach the data disk"
            );
        }
        pool.commit_tx(Some(b"committed")).unwrap();
        // Now force the *committed* dirty page out of the pool. The
        // eviction write lands in the volatile cache only.
        drop(pool.fetch(b0).unwrap());
        drop(pool.fetch(b1).unwrap());
        assert_eq!(durable_byte(&env, a, 7), 0, "eviction write not yet synced");
        // Crash.
    }
    let (pool, _, _) = open(&env, FaultSchedule::default(), 8);
    let g = pool.fetch(a).unwrap();
    assert_eq!(g.read()[7], 99, "the log, not the lost eviction, is truth");
}

#[test]
fn transaction_larger_than_pool_fails_cleanly() {
    let env = env();
    let (pool, _, _) = open(&env, FaultSchedule::default(), 2);
    pool.begin_tx().unwrap();
    let (_, g0) = pool.allocate().unwrap();
    drop(g0);
    let (_, g1) = pool.allocate().unwrap();
    drop(g1);
    // Every frame belongs to the open transaction: no-steal leaves no
    // eviction victim.
    assert!(matches!(pool.allocate(), Err(StorageError::PoolExhausted)));
    pool.abort_tx().unwrap();
    // After the abort the frames are ordinary again.
    assert!(pool.allocate().is_ok());
}

#[test]
fn abort_restores_pre_images() {
    let env = env();
    let (pool, _, _) = open(&env, FaultSchedule::default(), 8);
    pool.begin_tx().unwrap();
    let (pid, g) = pool.allocate().unwrap();
    g.write()[0] = 1;
    drop(g);
    pool.commit_tx(None).unwrap();

    pool.begin_tx().unwrap();
    let g = pool.fetch(pid).unwrap();
    g.write()[0] = 2;
    drop(g);
    pool.abort_tx().unwrap();

    let g = pool.fetch(pid).unwrap();
    assert_eq!(g.read()[0], 1, "abort rewinds to the committed image");
    drop(g);
    // The restored page is still flushable (its dirty flag came back).
    pool.flush_all().unwrap();
    pool.disk().sync().unwrap();
    assert_eq!(durable_byte(&env, pid, 0), 1);
}

#[test]
fn transient_write_error_aborts_commit_then_retry_succeeds() {
    let env = env();
    // Wal::recover issues write 0 (the generation header); the commit's
    // flush issues the next writes — fail the first of them once.
    let schedule = FaultSchedule {
        transient_write_errors: vec![1],
        ..Default::default()
    };
    let (pool, _, _) = open(&env, schedule, 8);
    pool.begin_tx().unwrap();
    let (pid, g) = pool.allocate().unwrap();
    g.write()[0] = 5;
    drop(g);
    assert!(
        pool.commit_tx(None).is_err(),
        "flush hit the injected error"
    );
    pool.abort_tx().unwrap();
    let g = pool.fetch(pid).unwrap();
    assert_eq!(g.read()[0], 0, "failed commit rolled back");
    drop(g);

    pool.begin_tx().unwrap();
    let g = pool.fetch(pid).unwrap();
    g.write()[0] = 6;
    drop(g);
    pool.commit_tx(Some(b"retried")).unwrap();
    drop(pool);

    let (pool, _, meta) = open(&env, FaultSchedule::default(), 8);
    assert_eq!(meta.as_deref(), Some(&b"retried"[..]));
    let g = pool.fetch(pid).unwrap();
    assert_eq!(g.read()[0], 6);
}

#[test]
fn checkpoint_syncs_data_and_advances_scan_start() {
    let env = env();
    let pid;
    {
        let (pool, _, _) = open(&env, FaultSchedule::default(), 8);
        pool.begin_tx().unwrap();
        let (p, g) = pool.allocate().unwrap();
        g.write()[0] = 7;
        drop(g);
        pool.commit_tx(Some(b"s1")).unwrap();
        pid = p;
        assert_eq!(durable_byte(&env, pid, 0), 0);
        pool.checkpoint(Some(b"cp")).unwrap();
        assert_eq!(
            durable_byte(&env, pid, 0),
            7,
            "checkpoint pushes committed pages to the durable data disk"
        );
        let wal = pool.wal().unwrap();
        assert!(wal.checkpoint_lsn() > 0);
        assert_eq!(wal.stats().checkpoints, 1);

        pool.begin_tx().unwrap();
        let g = pool.fetch(pid).unwrap();
        g.write()[0] = 8;
        drop(g);
        pool.commit_tx(Some(b"s2")).unwrap();
        // Crash after a post-checkpoint commit.
    }
    let (pool, _, meta) = open(&env, FaultSchedule::default(), 8);
    assert_eq!(meta.as_deref(), Some(&b"s2"[..]));
    let wal = pool.wal().unwrap();
    let info = wal.recovery_info();
    assert!(info.start_lsn > 0, "scan started at the checkpoint");
    let g = pool.fetch(pid).unwrap();
    assert_eq!(g.read()[0], 8);
}

/// Recovery must be idempotent: recovering the same disks twice leaves
/// exactly the same durable state as recovering once.
#[test]
fn recovery_is_idempotent() {
    let env = env();
    let pid;
    {
        let (pool, _, _) = open(&env, FaultSchedule::default(), 8);
        pool.begin_tx().unwrap();
        let (p, g) = pool.allocate().unwrap();
        g.write()[0] = 11;
        drop(g);
        pool.commit_tx(Some(b"m")).unwrap();
        pid = p;
    }
    let (pool1, _, meta1) = open(&env, FaultSchedule::default(), 8);
    let info1 = pool1.wal().unwrap().recovery_info();
    drop(pool1);
    let snapshot_after_once = durable_byte(&env, pid, 0);
    let (pool2, _, meta2) = open(&env, FaultSchedule::default(), 8);
    let info2 = pool2.wal().unwrap().recovery_info();
    assert_eq!(meta1, meta2);
    assert_eq!(info1.scanned_records, info2.scanned_records);
    assert_eq!(info1.valid_end, info2.valid_end);
    assert_eq!(snapshot_after_once, durable_byte(&env, pid, 0));
    assert_eq!(snapshot_after_once, 11);
}
