//! Heap files: unordered collections of records addressed by [`TupleId`].
//!
//! This implements two of the paper's representation type constructors:
//! `tidrel(tuple)` — a permanently stored relation with no specific order
//! over which secondary indexes can be built — and `srel(tuple)` — the
//! temporary relation produced by the `collect` stream operator (an `srel`
//! is simply a heap file the executor treats as transient).

use crate::page::SlottedPage;
use crate::{BufferPool, PageId, StorageError, StorageResult, TupleId};
use std::cell::RefCell;
use std::sync::Arc;

/// An unordered record file over the buffer pool.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    /// Pages of the file in allocation order. The last page is the
    /// insertion target until full.
    pages: RefCell<Vec<PageId>>,
}

impl HeapFile {
    /// Create an empty heap file.
    pub fn create(pool: Arc<BufferPool>) -> StorageResult<Self> {
        Ok(HeapFile {
            pool,
            pages: RefCell::new(Vec::new()),
        })
    }

    /// Re-open a heap file from its page list (catalog-persisted state).
    pub fn from_pages(pool: Arc<BufferPool>, pages: Vec<PageId>) -> Self {
        HeapFile {
            pool,
            pages: RefCell::new(pages),
        }
    }

    /// The page ids backing this file (for catalog persistence).
    pub fn pages(&self) -> Vec<PageId> {
        self.pages.borrow().clone()
    }

    /// Insert a record, returning its stable tuple id.
    pub fn insert(&self, record: &[u8]) -> StorageResult<TupleId> {
        let mut pages = self.pages.borrow_mut();
        if let Some(&last) = pages.last() {
            let guard = self.pool.fetch(last)?;
            let mut buf = guard.write();
            if SlottedPage::fits(&buf[..], record.len())? {
                let slot = SlottedPage::insert(&mut buf[..], record)?;
                return Ok(TupleId { page: last, slot });
            }
        }
        let (pid, guard) = self.pool.allocate()?;
        {
            let mut buf = guard.write();
            SlottedPage::init(&mut buf[..]);
            let slot = SlottedPage::insert(&mut buf[..], record)?;
            pages.push(pid);
            Ok(TupleId { page: pid, slot })
        }
    }

    /// Read the record at `tid`.
    pub fn get(&self, tid: TupleId) -> StorageResult<Vec<u8>> {
        let guard = self.pool.fetch(tid.page)?;
        let buf = guard.read();
        SlottedPage::get(&buf[..], tid.slot)?
            .map(|r| r.to_vec())
            .ok_or(StorageError::InvalidTupleId {
                page: tid.page,
                slot: tid.slot,
            })
    }

    /// Delete the record at `tid`. Errors if the slot is not live.
    pub fn delete(&self, tid: TupleId) -> StorageResult<()> {
        let guard = self.pool.fetch(tid.page)?;
        let mut buf = guard.write();
        if SlottedPage::delete(&mut buf[..], tid.slot)? {
            Ok(())
        } else {
            Err(StorageError::InvalidTupleId {
                page: tid.page,
                slot: tid.slot,
            })
        }
    }

    /// Replace the record at `tid` in place (same tuple id afterwards).
    pub fn update(&self, tid: TupleId, record: &[u8]) -> StorageResult<()> {
        let guard = self.pool.fetch(tid.page)?;
        let mut buf = guard.write();
        SlottedPage::update(&mut buf[..], tid.slot, record).map_err(|e| match e {
            StorageError::InvalidTupleId { slot, .. } => StorageError::InvalidTupleId {
                page: tid.page,
                slot,
            },
            other => other,
        })
    }

    /// Number of live records: the live slots of each page, one fetch
    /// per page, no record copied.
    pub fn count(&self) -> StorageResult<usize> {
        let mut n = 0;
        for page in self.pages() {
            let guard = self.pool.fetch(page)?;
            n += SlottedPage::live_slots(&guard.read()[..])?.count();
        }
        Ok(n)
    }

    /// Full scan in page order, one page fetch per page. This is the
    /// physical realization of the paper's `feed` operator on
    /// `tidrel`/`srel` representations.
    pub fn scan(&self) -> HeapScan<'_> {
        HeapScan {
            heap: self,
            pages: self.pages().into_iter(),
            page: Vec::new().into_iter(),
        }
    }

    /// Hand `f` the live records of `page` in slot order, borrowed from
    /// the pinned frame under a single page fetch and read borrow — the
    /// page-at-a-time path of the scan cursors. Each record's extent is
    /// checked against the page as it is reached (`Corrupt` otherwise).
    /// `f` must not write to this page (it stays borrowed across the
    /// whole visit).
    pub fn visit_page<R, E, F>(&self, page: PageId, f: F) -> Result<R, E>
    where
        E: From<StorageError>,
        F: FnOnce(PageRecords<'_>) -> Result<R, E>,
    {
        let guard = self.pool.fetch(page)?;
        let buf = guard.read();
        let slots = SlottedPage::slots(&buf[..])?;
        f(PageRecords {
            buf: &buf[..],
            slots,
        })
    }
}

/// The live records of one heap page, borrowed from the pinned frame
/// (see [`HeapFile::visit_page`]).
pub struct PageRecords<'a> {
    buf: &'a [u8],
    slots: std::ops::Range<u16>,
}

impl<'a> PageRecords<'a> {
    /// The next live record and its slot.
    fn next_slot(&mut self) -> Option<StorageResult<(u16, &'a [u8])>> {
        loop {
            let slot = self.slots.next()?;
            match SlottedPage::get(self.buf, slot) {
                Ok(Some(rec)) => return Some(Ok((slot, rec))),
                Ok(None) => {}
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

impl<'a> Iterator for PageRecords<'a> {
    type Item = StorageResult<&'a [u8]>;

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, self.slots.size_hint().1)
    }

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.next_slot()?.map(|(_, rec)| rec))
    }
}

/// Iterator over the live records of a heap file.
///
/// The scan snapshots the page list at creation, and copies out a
/// page's live records under one fetch when it reaches the page: a
/// change to a page already read is not seen, one to a page further on
/// may be (same contract as a real slotted-page scan cursor).
pub struct HeapScan<'a> {
    heap: &'a HeapFile,
    pages: std::vec::IntoIter<PageId>,
    /// The current page's records not yet returned.
    page: std::vec::IntoIter<StorageResult<(TupleId, Vec<u8>)>>,
}

impl Iterator for HeapScan<'_> {
    type Item = StorageResult<(TupleId, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.page.next() {
                return Some(item);
            }
            let page = self.pages.next()?;
            let read = self.heap.visit_page(page, |mut records| {
                let mut items = Vec::new();
                while let Some(r) = records.next_slot() {
                    items.push(r.map(|(slot, rec)| (TupleId { page, slot }, rec.to_vec())));
                }
                Ok::<_, StorageError>(items)
            });
            match read {
                Ok(items) => self.page = items.into_iter(),
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem_pool;

    fn heap() -> HeapFile {
        HeapFile::create(mem_pool(64)).unwrap()
    }

    #[test]
    fn insert_get_roundtrip() {
        let h = heap();
        let tid = h.insert(b"record one").unwrap();
        assert_eq!(h.get(tid).unwrap(), b"record one");
    }

    #[test]
    fn scan_sees_all_records_across_pages() {
        let h = heap();
        let rec = vec![3u8; 1000]; // ~8 per page
        let n = 50;
        for _ in 0..n {
            h.insert(&rec).unwrap();
        }
        assert_eq!(h.count().unwrap(), n);
        assert!(h.pages().len() > 1, "should have spilled to several pages");
    }

    #[test]
    fn delete_then_get_fails_and_scan_skips() {
        let h = heap();
        let a = h.insert(b"a").unwrap();
        let b = h.insert(b"b").unwrap();
        h.delete(a).unwrap();
        assert!(h.get(a).is_err());
        assert!(h.delete(a).is_err());
        let seen: Vec<Vec<u8>> = h.scan().map(|r| r.unwrap().1).collect();
        assert_eq!(seen, vec![b"b".to_vec()]);
        assert_eq!(h.get(b).unwrap(), b"b");
    }

    #[test]
    fn a_full_scan_fetches_each_page_once() {
        let pool = mem_pool(64);
        let h = HeapFile::create(pool.clone()).unwrap();
        let rec = vec![7u8; 600]; // ~13 per page
        let ids: Vec<TupleId> = (0..200).map(|_| h.insert(&rec).unwrap()).collect();
        h.delete(ids[3]).unwrap();
        let pages = h.pages().len() as u64;
        assert!(pages > 10, "{pages} page(s)");
        let before = pool.stats().logical_reads;
        let scanned: Vec<TupleId> = h.scan().map(|r| r.unwrap().0).collect();
        assert_eq!(pool.stats().logical_reads - before, pages);
        let live: Vec<TupleId> = ids.iter().copied().filter(|&t| t != ids[3]).collect();
        assert_eq!(scanned, live);
        let before = pool.stats().logical_reads;
        assert_eq!(h.count().unwrap(), 199);
        assert_eq!(pool.stats().logical_reads - before, pages);
    }

    #[test]
    fn update_preserves_tuple_id() {
        let h = heap();
        let tid = h.insert(b"before").unwrap();
        h.update(tid, b"after, and rather longer than before")
            .unwrap();
        assert_eq!(h.get(tid).unwrap(), b"after, and rather longer than before");
    }

    #[test]
    fn reopen_from_pages_sees_same_data() {
        let pool = mem_pool(64);
        let h = HeapFile::create(pool.clone()).unwrap();
        for i in 0..20u8 {
            h.insert(&[i; 100]).unwrap();
        }
        let pages = h.pages();
        drop(h);
        let h2 = HeapFile::from_pages(pool, pages);
        assert_eq!(h2.count().unwrap(), 20);
    }

    #[test]
    fn tuple_ids_are_stable_across_other_deletes() {
        let h = heap();
        let ids: Vec<TupleId> = (0..10u8).map(|i| h.insert(&[i; 50]).unwrap()).collect();
        h.delete(ids[3]).unwrap();
        h.delete(ids[7]).unwrap();
        for (i, tid) in ids.iter().enumerate() {
            if i == 3 || i == 7 {
                continue;
            }
            assert_eq!(h.get(*tid).unwrap(), vec![i as u8; 50]);
        }
    }
}
