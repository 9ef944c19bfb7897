//! Page constants and slotted record pages.
//!
//! A slotted page holds variable-length records addressed by slot number.
//! Records are appended from the back of the page while the slot directory
//! grows from the front; deleting a record frees its slot (the slot number
//! stays stable so tuple identifiers remain valid) and its space is
//! reclaimed by compaction when an insert would otherwise not fit.

use crate::{StorageError, StorageResult};
use std::ops::Range;

/// Size of every page, in bytes.
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page on disk.
pub type PageId = u32;

/// A stable record address: page plus slot. This is the paper's "tuple
/// identifier" used by `tidrel` (and by secondary indexes in Section 6's
/// discussion of search methods).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId {
    pub page: PageId,
    pub slot: u16,
}

impl std::fmt::Display for TupleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tid({}, {})", self.page, self.slot)
    }
}

// Layout of a slotted page:
//   [0..2)  u16 slot_count
//   [2..4)  u16 free_end   (records occupy [free_end .. PAGE_SIZE))
//   [4..)   slot directory: per slot u16 offset, u16 len
// A dead slot has offset == 0 (records can never start at 0 because the
// header occupies it) — its length is kept at 0.
const HEADER: usize = 4;
const SLOT: usize = 4;

/// The largest record a slotted page can hold.
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER - SLOT;

/// A view over the raw bytes of a slotted page. All accessors take the
/// byte buffer explicitly so the same code serves buffer-pool frames and
/// scratch buffers.
pub struct SlottedPage;

impl SlottedPage {
    /// Format `buf` as an empty slotted page.
    pub fn init(buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        buf[..HEADER].fill(0);
        write_u16(buf, 0, 0);
        write_u16(buf, 2, PAGE_SIZE as u16);
    }

    pub fn slot_count(buf: &[u8]) -> u16 {
        read_u16(buf, 0)
    }

    /// Start of the record area; `Corrupt` if the header puts it past
    /// the page.
    fn free_end(buf: &[u8]) -> StorageResult<usize> {
        let fe = read_u16(buf, 2) as usize;
        // A fresh (all-zero) page from the disk manager reads as
        // slot_count 0 / free_end 0; treat it as empty.
        match fe {
            0 => Ok(PAGE_SIZE),
            fe if fe <= buf.len() => Ok(fe),
            fe => Err(StorageError::Corrupt(format!(
                "free-space end {fe} lies past the end of the page"
            ))),
        }
    }

    fn slot(buf: &[u8], i: u16) -> (usize, usize) {
        let base = HEADER + i as usize * SLOT;
        (
            read_u16(buf, base) as usize,
            read_u16(buf, base + 2) as usize,
        )
    }

    fn set_slot(buf: &mut [u8], i: u16, off: usize, len: usize) {
        let base = HEADER + i as usize * SLOT;
        write_u16(buf, base, off as u16);
        write_u16(buf, base + 2, len as u16);
    }

    /// The bytes of the live record in `slot` (`None` if the slot is
    /// dead); `Corrupt` if the slot or its record lies past the page.
    fn record_range(buf: &[u8], slot: u16) -> StorageResult<Option<Range<usize>>> {
        if HEADER + (slot as usize + 1) * SLOT > buf.len() {
            return Err(StorageError::Corrupt(format!(
                "slot {slot} lies past the end of the page"
            )));
        }
        let (off, len) = Self::slot(buf, slot);
        if off == 0 {
            return Ok(None);
        }
        if off + len > buf.len() {
            return Err(StorageError::Corrupt(format!(
                "record of {len} bytes at offset {off} in slot {slot} overruns the page"
            )));
        }
        Ok(Some(off..off + len))
    }

    /// Free bytes available for a new record (including its slot entry).
    pub fn free_space(buf: &[u8]) -> StorageResult<usize> {
        let used_front = HEADER + Self::slots(buf)?.len() * SLOT;
        Ok(Self::free_end(buf)?.saturating_sub(used_front))
    }

    /// Would `record` fit, possibly after compaction and reusing a dead slot?
    pub fn fits(buf: &[u8], record_len: usize) -> StorageResult<bool> {
        let slots = Self::slots(buf)?.len();
        let live = Self::live_bytes(buf)?;
        let slot_cost = if Self::first_dead_slot(buf)?.is_some() {
            0
        } else {
            SLOT
        };
        Ok(PAGE_SIZE - HEADER - slots * SLOT >= live + record_len + slot_cost)
    }

    fn live_bytes(buf: &[u8]) -> StorageResult<usize> {
        let mut total = 0;
        for i in Self::slots(buf)? {
            total += Self::record_range(buf, i)?.map_or(0, |r| r.len());
        }
        Ok(total)
    }

    fn first_dead_slot(buf: &[u8]) -> StorageResult<Option<u16>> {
        Ok(Self::slots(buf)?.find(|&i| Self::slot(buf, i).0 == 0))
    }

    /// Insert a record, returning its slot. Compacts if fragmented.
    pub fn insert(buf: &mut [u8], record: &[u8]) -> StorageResult<u16> {
        if record.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: MAX_RECORD,
            });
        }
        if !Self::fits(buf, record.len())? {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: Self::free_space(buf)?,
            });
        }
        let slot = Self::first_dead_slot(buf)?;
        let needs_new_slot = slot.is_none();
        let needed = record.len() + if needs_new_slot { SLOT } else { 0 };
        if Self::free_space(buf)? < needed {
            Self::compact(buf)?;
        }
        let slot = slot.unwrap_or_else(|| {
            let s = Self::slot_count(buf);
            write_u16(buf, 0, s + 1);
            s
        });
        let off = Self::free_end(buf)? - record.len();
        buf[off..off + record.len()].copy_from_slice(record);
        write_u16(buf, 2, off as u16);
        Self::set_slot(buf, slot, off, record.len());
        Ok(slot)
    }

    /// Read the record in `slot`: `None` if the slot is dead or past the
    /// directory, `Corrupt` if the slot or its record lies past the page.
    pub fn get(buf: &[u8], slot: u16) -> StorageResult<Option<&[u8]>> {
        if slot >= Self::slot_count(buf) {
            return Ok(None);
        }
        Ok(Self::record_range(buf, slot)?.map(|r| &buf[r]))
    }

    /// Delete the record in `slot`. Returns whether a live record was
    /// there; `Corrupt` if the slot or its record lies past the page.
    pub fn delete(buf: &mut [u8], slot: u16) -> StorageResult<bool> {
        if Self::get(buf, slot)?.is_none() {
            return Ok(false);
        }
        Self::set_slot(buf, slot, 0, 0);
        Ok(true)
    }

    /// Replace the record in `slot` (the paper's in-situ `modify`).
    /// Fails if the new record does not fit even after compaction.
    pub fn update(buf: &mut [u8], slot: u16, record: &[u8]) -> StorageResult<()> {
        if Self::get(buf, slot)?.is_none() {
            return Err(StorageError::InvalidTupleId { page: 0, slot });
        }
        let (off, len) = Self::slot(buf, slot);
        if record.len() <= len {
            // Shrink in place.
            let start = off + len - record.len();
            buf[start..off + len].copy_from_slice(record);
            Self::set_slot(buf, slot, start, record.len());
            return Ok(());
        }
        // Re-insert: free, compact, place at the back.
        let live = Self::live_bytes(buf)? - len;
        if PAGE_SIZE - HEADER - Self::slot_count(buf) as usize * SLOT < live + record.len() {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: PAGE_SIZE - HEADER - live,
            });
        }
        Self::set_slot(buf, slot, 0, 0);
        Self::compact(buf)?;
        let new_off = Self::free_end(buf)? - record.len();
        buf[new_off..new_off + record.len()].copy_from_slice(record);
        write_u16(buf, 2, new_off as u16);
        Self::set_slot(buf, slot, new_off, record.len());
        Ok(())
    }

    /// Iterate the live slots of a page; `Corrupt` if the slot directory
    /// runs past the page.
    pub fn live_slots(buf: &[u8]) -> StorageResult<impl Iterator<Item = u16> + '_> {
        Ok(Self::slots(buf)?.filter(move |&i| Self::slot(buf, i).0 != 0))
    }

    /// Every slot number of the directory, live or dead; `Corrupt` if
    /// the directory runs past the page.
    pub(crate) fn slots(buf: &[u8]) -> StorageResult<Range<u16>> {
        let count = Self::slot_count(buf);
        if HEADER + count as usize * SLOT > buf.len() {
            return Err(StorageError::Corrupt(format!(
                "slot directory of {count} slots overruns the page"
            )));
        }
        Ok(0..count)
    }

    /// Slide all live records to the back of the page, preserving slots.
    /// Callers first check that the live records fit beside the slot
    /// directory (`fits`).
    fn compact(buf: &mut [u8]) -> StorageResult<()> {
        let mut records: Vec<(u16, Vec<u8>)> = Vec::new();
        for i in Self::slots(buf)? {
            if let Some(r) = Self::record_range(buf, i)? {
                records.push((i, buf[r].to_vec()));
            }
        }
        let mut end = PAGE_SIZE;
        for (slot, rec) in &records {
            end -= rec.len();
            buf[end..end + rec.len()].copy_from_slice(rec);
            Self::set_slot(buf, *slot, end, rec.len());
        }
        write_u16(buf, 2, end as u16);
        Ok(())
    }
}

fn read_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

fn write_u16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        SlottedPage::init(&mut buf);
        buf
    }

    #[test]
    fn insert_and_get_roundtrip() {
        let mut p = fresh();
        let s0 = SlottedPage::insert(&mut p, b"hello").unwrap();
        let s1 = SlottedPage::insert(&mut p, b"world!").unwrap();
        assert_eq!(SlottedPage::get(&p, s0).unwrap(), Some(&b"hello"[..]));
        assert_eq!(SlottedPage::get(&p, s1).unwrap(), Some(&b"world!"[..]));
        assert_ne!(s0, s1);
    }

    #[test]
    fn delete_frees_slot_and_reuses_it() {
        let mut p = fresh();
        let s0 = SlottedPage::insert(&mut p, b"aaaa").unwrap();
        assert!(SlottedPage::delete(&mut p, s0).unwrap());
        assert!(!SlottedPage::delete(&mut p, s0).unwrap());
        assert_eq!(SlottedPage::get(&p, s0).unwrap(), None);
        let s1 = SlottedPage::insert(&mut p, b"bbbb").unwrap();
        assert_eq!(s0, s1, "dead slot should be reused");
    }

    #[test]
    fn fills_page_then_rejects() {
        let mut p = fresh();
        let rec = vec![7u8; 100];
        let mut n = 0;
        while SlottedPage::fits(&p, rec.len()).unwrap() {
            SlottedPage::insert(&mut p, &rec).unwrap();
            n += 1;
        }
        assert!(n >= 70, "expected ~78 records of 104 bytes, got {n}");
        assert!(SlottedPage::insert(&mut p, &rec).is_err());
    }

    #[test]
    fn compaction_reclaims_deleted_space() {
        let mut p = fresh();
        let rec = vec![1u8; 1000];
        let mut slots = vec![];
        while SlottedPage::fits(&p, rec.len()).unwrap() {
            slots.push(SlottedPage::insert(&mut p, &rec).unwrap());
        }
        // Delete every other record, then a record of twice the size must fit
        // via compaction (holes are not adjacent).
        for s in slots.iter().step_by(2) {
            SlottedPage::delete(&mut p, *s).unwrap();
        }
        let big = vec![2u8; 2000];
        let s = SlottedPage::insert(&mut p, &big).unwrap();
        assert_eq!(SlottedPage::get(&p, s).unwrap(), Some(&big[..]));
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = fresh();
        let s = SlottedPage::insert(&mut p, b"short").unwrap();
        SlottedPage::update(&mut p, s, b"tiny").unwrap();
        assert_eq!(SlottedPage::get(&p, s).unwrap(), Some(&b"tiny"[..]));
        let long = vec![9u8; 500];
        SlottedPage::update(&mut p, s, &long).unwrap();
        assert_eq!(SlottedPage::get(&p, s).unwrap(), Some(&long[..]));
    }

    #[test]
    fn update_too_large_restores_old_record() {
        let mut p = fresh();
        let filler = vec![1u8; MAX_RECORD - 200];
        SlottedPage::insert(&mut p, &filler).unwrap();
        let s = SlottedPage::insert(&mut p, b"keep me").unwrap();
        let too_big = vec![2u8; 4000];
        assert!(SlottedPage::update(&mut p, s, &too_big).is_err());
        assert_eq!(SlottedPage::get(&p, s).unwrap(), Some(&b"keep me"[..]));
    }

    #[test]
    fn rejects_record_larger_than_page() {
        let mut p = fresh();
        let huge = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            SlottedPage::insert(&mut p, &huge),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn live_slots_skips_deleted() {
        let mut p = fresh();
        let a = SlottedPage::insert(&mut p, b"a").unwrap();
        let b = SlottedPage::insert(&mut p, b"b").unwrap();
        let c = SlottedPage::insert(&mut p, b"c").unwrap();
        SlottedPage::delete(&mut p, b).unwrap();
        let live: Vec<u16> = SlottedPage::live_slots(&p).unwrap().collect();
        assert_eq!(live, vec![a, c]);
    }
}
