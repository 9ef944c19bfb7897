//! Disk managers: the lowest layer, a flat array of pages.

use crate::{PageId, StorageError, StorageResult, PAGE_SIZE};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// A source and sink of fixed-size pages. The buffer pool above is
/// single-threaded, but disks stay `Send + Sync`: a disk is shared
/// through an `Arc` with the log, a fault-injection wrapper or a reopened
/// pool, and its lock is taken once per physical I/O, not per page touch.
pub trait DiskManager: Send + Sync {
    /// Read page `pid` into `buf` (exactly [`PAGE_SIZE`] bytes).
    fn read_page(&self, pid: PageId, buf: &mut [u8]) -> StorageResult<()>;
    /// Write page `pid` from `buf` (exactly [`PAGE_SIZE`] bytes).
    fn write_page(&self, pid: PageId, buf: &[u8]) -> StorageResult<()>;
    /// Extend the disk by one zeroed page and return its id.
    fn allocate_page(&self) -> StorageResult<PageId>;
    /// Number of allocated pages.
    fn num_pages(&self) -> u64;
    /// Force every previously acknowledged write to stable storage.
    /// Durability claims (WAL-before-data, checkpointing) are stated in
    /// terms of synced writes only: a plain `write_page` may sit in a
    /// volatile cache until the next `sync`.
    fn sync(&self) -> StorageResult<()>;
}

/// An in-memory disk: a growable vector of pages. Used by tests, examples
/// and benchmarks — the buffer pool still meters every "physical" access,
/// so cost-shape measurements remain meaningful.
pub struct MemDisk {
    pages: Mutex<Vec<Box<[u8; PAGE_SIZE]>>>,
}

impl MemDisk {
    pub fn new() -> Self {
        MemDisk {
            pages: Mutex::new(Vec::new()),
        }
    }
}

impl Default for MemDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskManager for MemDisk {
    fn read_page(&self, pid: PageId, buf: &mut [u8]) -> StorageResult<()> {
        let pages = self.pages.lock();
        let page = pages
            .get(pid as usize)
            .ok_or(StorageError::PageOutOfBounds(pid))?;
        buf.copy_from_slice(&page[..]);
        Ok(())
    }

    fn write_page(&self, pid: PageId, buf: &[u8]) -> StorageResult<()> {
        let mut pages = self.pages.lock();
        let page = pages
            .get_mut(pid as usize)
            .ok_or(StorageError::PageOutOfBounds(pid))?;
        page.copy_from_slice(buf);
        Ok(())
    }

    fn allocate_page(&self) -> StorageResult<PageId> {
        let mut pages = self.pages.lock();
        pages.push(Box::new([0u8; PAGE_SIZE]));
        Ok((pages.len() - 1) as PageId)
    }

    fn num_pages(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn sync(&self) -> StorageResult<()> {
        // Memory is as stable as a MemDisk ever gets.
        Ok(())
    }
}

/// A file-backed disk using positioned reads/writes.
pub struct FileDisk {
    file: File,
    next: AtomicU64,
}

impl FileDisk {
    /// Open (or create) the database file at `path`.
    pub fn open(path: &Path) -> StorageResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(FileDisk {
            file,
            next: AtomicU64::new(len / PAGE_SIZE as u64),
        })
    }
}

#[cfg(unix)]
impl DiskManager for FileDisk {
    fn read_page(&self, pid: PageId, buf: &mut [u8]) -> StorageResult<()> {
        use std::os::unix::fs::FileExt;
        if (pid as u64) >= self.num_pages() {
            return Err(StorageError::PageOutOfBounds(pid));
        }
        self.file
            .read_exact_at(buf, pid as u64 * PAGE_SIZE as u64)?;
        Ok(())
    }

    fn write_page(&self, pid: PageId, buf: &[u8]) -> StorageResult<()> {
        use std::os::unix::fs::FileExt;
        if (pid as u64) >= self.num_pages() {
            return Err(StorageError::PageOutOfBounds(pid));
        }
        self.file.write_all_at(buf, pid as u64 * PAGE_SIZE as u64)?;
        Ok(())
    }

    fn allocate_page(&self) -> StorageResult<PageId> {
        use std::os::unix::fs::FileExt;
        let pid = self.next.fetch_add(1, Ordering::SeqCst);
        let zeros = [0u8; PAGE_SIZE];
        self.file.write_all_at(&zeros, pid * PAGE_SIZE as u64)?;
        Ok(pid as PageId)
    }

    fn num_pages(&self) -> u64 {
        self.next.load(Ordering::SeqCst)
    }

    fn sync(&self) -> StorageResult<()> {
        self.file.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memdisk_roundtrip() {
        let d = MemDisk::new();
        let p0 = d.allocate_page().unwrap();
        let p1 = d.allocate_page().unwrap();
        assert_eq!((p0, p1), (0, 1));
        let mut w = [0u8; PAGE_SIZE];
        w[0] = 42;
        w[PAGE_SIZE - 1] = 24;
        d.write_page(p1, &w).unwrap();
        let mut r = [0u8; PAGE_SIZE];
        d.read_page(p1, &mut r).unwrap();
        assert_eq!(w, r);
        // Page 0 is still zeroed.
        d.read_page(p0, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0));
    }

    #[test]
    fn memdisk_rejects_unallocated_page() {
        let d = MemDisk::new();
        let mut buf = [0u8; PAGE_SIZE];
        assert!(matches!(
            d.read_page(5, &mut buf),
            Err(StorageError::PageOutOfBounds(5))
        ));
    }

    #[test]
    fn filedisk_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("sos_disk_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.pages");
        {
            let d = FileDisk::open(&path).unwrap();
            let p = d.allocate_page().unwrap();
            let mut w = [0u8; PAGE_SIZE];
            w[7] = 77;
            d.write_page(p, &w).unwrap();
        }
        {
            let d = FileDisk::open(&path).unwrap();
            assert_eq!(d.num_pages(), 1);
            let mut r = [0u8; PAGE_SIZE];
            d.read_page(0, &mut r).unwrap();
            assert_eq!(r[7], 77);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
