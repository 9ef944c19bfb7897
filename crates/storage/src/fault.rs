//! Deterministic fault injection for durability testing.
//!
//! [`FaultDisk`] wraps any [`DiskManager`] and models a volatile write
//! cache honestly: `write_page` lands in an in-memory overlay and only
//! `sync` merges it into the durable inner disk. A scripted
//! [`FaultSchedule`] can then *crash* the disk at an exact write index —
//! everything unsynced is discarded, exactly as if the machine lost
//! power — optionally tearing the final write in half, or inject
//! transient I/O errors that fail a single operation without crashing.
//!
//! Several `FaultDisk`s (the data disk and the log disk of one database)
//! share one [`FaultClock`], so a crash index counts writes across both
//! and a test can crash a whole database at *every* write it ever
//! performs, deterministically.

use crate::{DiskManager, PageId, StorageError, StorageResult, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A scripted fault schedule, interpreted against the shared write
/// counter of a [`FaultClock`].
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    /// Crash *on* the write with this (0-based) global index: the write
    /// is not applied (or only half-applied, see `torn`) and every
    /// subsequent operation fails. Unsynced earlier writes are lost.
    pub crash_at_write: Option<u64>,
    /// When crashing, durably apply the first half of the final page —
    /// a torn write, as after a power loss mid-sector-train.
    pub torn: bool,
    /// Write indices that fail once with a transient I/O error (the
    /// write is not applied, but the disk survives).
    pub transient_write_errors: Vec<u64>,
}

impl FaultSchedule {
    /// Crash cleanly on write `n`.
    pub fn crash_at(n: u64) -> FaultSchedule {
        FaultSchedule {
            crash_at_write: Some(n),
            ..Default::default()
        }
    }

    /// Crash on write `n`, tearing that write in half.
    pub fn torn_at(n: u64) -> FaultSchedule {
        FaultSchedule {
            crash_at_write: Some(n),
            torn: true,
            ..Default::default()
        }
    }
}

/// The shared write counter and crash state for a set of [`FaultDisk`]s.
pub struct FaultClock {
    schedule: FaultSchedule,
    writes: AtomicU64,
    crashed: AtomicBool,
}

impl FaultClock {
    pub fn new(schedule: FaultSchedule) -> Arc<FaultClock> {
        Arc::new(FaultClock {
            schedule,
            writes: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
        })
    }

    /// Total writes issued so far across all disks on this clock.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    /// True once the scheduled crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    fn crash_error() -> StorageError {
        StorageError::Io(std::io::Error::other("simulated crash"))
    }
}

enum WriteVerdict {
    Proceed,
    TransientError,
    Crash { torn: bool },
}

/// A [`DiskManager`] wrapper with a volatile write cache and scripted
/// crashes. Durable state lives in the wrapped inner disk; retrieve it
/// with [`FaultDisk::inner`] after a crash to reopen "the disk that
/// survived the power loss".
pub struct FaultDisk {
    inner: Arc<dyn DiskManager>,
    clock: Arc<FaultClock>,
    /// Writes acknowledged but not yet synced: lost on crash.
    overlay: Mutex<HashMap<PageId, Box<[u8; PAGE_SIZE]>>>,
}

impl FaultDisk {
    pub fn new(inner: Arc<dyn DiskManager>, clock: Arc<FaultClock>) -> FaultDisk {
        FaultDisk {
            inner,
            clock,
            overlay: Mutex::new(HashMap::new()),
        }
    }

    /// The durable disk beneath the volatile cache — what a reopened
    /// database sees after the crash.
    pub fn inner(&self) -> Arc<dyn DiskManager> {
        Arc::clone(&self.inner)
    }

    fn check_alive(&self) -> StorageResult<()> {
        if self.clock.crashed() {
            return Err(FaultClock::crash_error());
        }
        Ok(())
    }

    fn write_verdict(&self) -> WriteVerdict {
        let idx = self.clock.writes.fetch_add(1, Ordering::SeqCst);
        let s = &self.clock.schedule;
        if s.crash_at_write == Some(idx) {
            self.clock.crashed.store(true, Ordering::SeqCst);
            return WriteVerdict::Crash { torn: s.torn };
        }
        if s.transient_write_errors.contains(&idx) {
            return WriteVerdict::TransientError;
        }
        WriteVerdict::Proceed
    }
}

impl DiskManager for FaultDisk {
    fn read_page(&self, pid: PageId, buf: &mut [u8]) -> StorageResult<()> {
        self.check_alive()?;
        if let Some(page) = self.overlay.lock().get(&pid) {
            buf.copy_from_slice(&page[..]);
            return Ok(());
        }
        self.inner.read_page(pid, buf)
    }

    fn write_page(&self, pid: PageId, buf: &[u8]) -> StorageResult<()> {
        self.check_alive()?;
        match self.write_verdict() {
            WriteVerdict::Proceed => {
                let mut page = Box::new([0u8; PAGE_SIZE]);
                page.copy_from_slice(buf);
                self.overlay.lock().insert(pid, page);
                Ok(())
            }
            WriteVerdict::TransientError => Err(StorageError::Io(std::io::Error::other(
                "injected transient write error",
            ))),
            WriteVerdict::Crash { torn } => {
                if torn {
                    // The first half of the page reaches stable storage;
                    // the second half keeps whatever was durable before.
                    let mut page = [0u8; PAGE_SIZE];
                    self.inner.read_page(pid, &mut page).ok();
                    page[..PAGE_SIZE / 2].copy_from_slice(&buf[..PAGE_SIZE / 2]);
                    self.inner.write_page(pid, &page).ok();
                    self.inner.sync().ok();
                }
                Err(FaultClock::crash_error())
            }
        }
    }

    fn allocate_page(&self) -> StorageResult<PageId> {
        self.check_alive()?;
        // Allocation (file extension with zeros) is durable immediately;
        // the interesting volatility is in page contents.
        self.inner.allocate_page()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&self) -> StorageResult<()> {
        self.check_alive()?;
        let overlay = std::mem::take(&mut *self.overlay.lock());
        for (pid, page) in overlay {
            self.inner.write_page(pid, &page[..])?;
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDisk;

    #[test]
    fn unsynced_writes_are_lost_on_crash() {
        let inner: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
        let clock = FaultClock::new(FaultSchedule::crash_at(2));
        let disk = FaultDisk::new(Arc::clone(&inner), clock);
        let p = disk.allocate_page().unwrap();
        let one = [1u8; PAGE_SIZE];
        disk.write_page(p, &one).unwrap(); // write 0
        disk.sync().unwrap(); // durable
        let two = [2u8; PAGE_SIZE];
        disk.write_page(p, &two).unwrap(); // write 1: volatile
                                           // Reads see the cached version before the crash...
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(p, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
        // ...write 2 crashes, and everything after fails.
        assert!(disk.write_page(p, &two).is_err());
        assert!(disk.read_page(p, &mut buf).is_err());
        assert!(disk.sync().is_err());
        // The durable disk kept only the synced write.
        inner.read_page(p, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
    }

    #[test]
    fn torn_crash_applies_half_the_final_write() {
        let inner: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
        let clock = FaultClock::new(FaultSchedule::torn_at(1));
        let disk = FaultDisk::new(Arc::clone(&inner), clock);
        let p = disk.allocate_page().unwrap();
        let old = [3u8; PAGE_SIZE];
        disk.write_page(p, &old).unwrap(); // write 0
        disk.sync().unwrap();
        let new = [9u8; PAGE_SIZE];
        assert!(disk.write_page(p, &new).is_err()); // write 1: torn crash
        let mut buf = [0u8; PAGE_SIZE];
        inner.read_page(p, &mut buf).unwrap();
        assert_eq!(buf[0], 9, "first half is the new data");
        assert_eq!(buf[PAGE_SIZE - 1], 3, "second half is the old data");
    }

    #[test]
    fn transient_error_fails_once_without_crashing() {
        let inner: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
        let clock = FaultClock::new(FaultSchedule {
            transient_write_errors: vec![1],
            ..Default::default()
        });
        let disk = FaultDisk::new(inner, clock);
        let p = disk.allocate_page().unwrap();
        let data = [5u8; PAGE_SIZE];
        disk.write_page(p, &data).unwrap(); // write 0
        assert!(disk.write_page(p, &data).is_err()); // write 1: transient
        disk.write_page(p, &data).unwrap(); // write 2: fine again
        disk.sync().unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(p, &mut buf).unwrap();
        assert_eq!(buf[0], 5);
    }

    #[test]
    fn clock_stays_exact_under_concurrent_writers() {
        // A FaultDisk is shared across threads like any DiskManager;
        // the shared clock must count every write exactly once and a
        // crash must take down all of them.
        let clock = FaultClock::new(FaultSchedule::default());
        let disks: Vec<Arc<FaultDisk>> = (0..2)
            .map(|_| Arc::new(FaultDisk::new(Arc::new(MemDisk::new()), Arc::clone(&clock))))
            .collect();
        for d in &disks {
            d.allocate_page().unwrap();
        }
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let d = Arc::clone(&disks[i % 2]);
                std::thread::spawn(move || {
                    let data = [i as u8; PAGE_SIZE];
                    for _ in 0..25 {
                        d.write_page(0, &data).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(clock.writes(), 100, "every write ticks the clock once");
        // Volatile overlays drain independently per disk.
        disks[0].sync().unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        disks[0].inner().read_page(0, &mut buf).unwrap();
        assert!(buf[0] == 0 || buf[0] == 2, "one of disk 0's writers wins");
    }

    #[test]
    fn one_clock_counts_writes_across_disks() {
        let clock = FaultClock::new(FaultSchedule::crash_at(1));
        let a = FaultDisk::new(Arc::new(MemDisk::new()), Arc::clone(&clock));
        let b = FaultDisk::new(Arc::new(MemDisk::new()), Arc::clone(&clock));
        let pa = a.allocate_page().unwrap();
        let pb = b.allocate_page().unwrap();
        let data = [1u8; PAGE_SIZE];
        a.write_page(pa, &data).unwrap(); // global write 0
        assert!(b.write_page(pb, &data).is_err()); // global write 1: crash
        assert!(clock.crashed());
        // The crash takes down every disk on the clock.
        assert!(a.write_page(pa, &data).is_err());
        assert_eq!(clock.writes(), 2);
    }
}
