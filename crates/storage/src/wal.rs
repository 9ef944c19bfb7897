//! Physical write-ahead logging and redo-only recovery.
//!
//! The log is an append-only stream of records over its own
//! [`DiskManager`], separate from the data disk. Durability follows the
//! classic ARIES redo discipline, simplified by a **no-steal** buffer
//! policy (the pool never writes an uncommitted page to the data disk),
//! so no undo records are ever needed on disk:
//!
//! * every page a transaction dirtied is logged as a full after-image at
//!   commit, followed by a `Commit` marker, and the log is flushed and
//!   synced before the commit is acknowledged (*WAL before data*);
//! * recovery scans the log from the last checkpoint, stops at the first
//!   torn or CRC-invalid record (logical truncation), and replays the
//!   page images of committed transactions onto the data disk.
//!
//! # The commit path
//!
//! Every log write happens inline, on the thread that appends or
//! commits, under the one lock that guards the in-memory tail. The
//! engine has a single writer, so there is nothing for a background
//! thread to overlap or coalesce. A [`SyncPolicy`] decides only whether
//! a commit also syncs:
//!
//! * [`SyncPolicy::PerCommit`] — commit writes the tail and syncs the
//!   log before returning, one fsync per commit: `Ok` means durable.
//! * [`SyncPolicy::NoSync`] — commit writes the tail but does not sync.
//!   A crash can lose a suffix of acknowledged commits, but recovery
//!   still lands on a statement boundary (the log is truncated at the
//!   first torn record, never replayed past it). The next sync — an
//!   explicit flush, a policy switch, a checkpoint, or an eviction's
//!   WAL-before-data check — makes them durable.
//!
//! An append that would leave more than `TAIL_PAGES` filled log pages in
//! memory first writes the pending ones out (without a sync), so a big
//! statement or a bulk load holds a bounded amount of log in memory
//! under either policy.
//!
//! # On-disk layout
//!
//! Pages `0` and `1` of the log disk are two alternating header slots —
//! the classic double-buffered superblock. Each slot carries a sequence
//! number, the current *generation*, the checkpoint LSN, and a CRC; the
//! valid slot with the larger sequence number wins, so a torn header
//! write falls back to the older (safe) slot. Records start at page `2`;
//! an LSN is a byte offset into that record region.
//!
//! Each record is `len | gen | kind | txid | crc | payload`. The CRC
//! covers everything after `len`. A payload is at most `MAX_PAYLOAD`
//! bytes: the writer refuses a longer one with
//! [`StorageError::LogRecordTooLarge`] before it appends anything, and
//! the scan stops at a length over the limit, so no record the writer
//! accepted is one the reader drops. The generation number fences off stale
//! bytes: it is bumped (and durably written to a header slot) every time
//! the log is opened, before any new append, so a scan that sees a record
//! whose generation runs backwards knows it has walked past the live tail
//! into debris from an earlier incarnation.

use crate::{DiskManager, PageId, StorageError, StorageResult, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A log sequence number: a byte offset into the record region.
pub type Lsn = u64;

const MAGIC: u64 = 0x534f_535f_5741_4c31; // "SOS_WAL1"
/// Pages 0 and 1 hold the two header slots; records start at page 2.
const HEADER_SLOTS: u64 = 2;
/// Bytes of header slot payload that the CRC covers.
const HEADER_LEN: usize = 28;
/// Record header: len u32 | gen u32 | kind u8 | txid u64 | crc u32.
const REC_HEADER: usize = 21;
/// Upper bound on a single record payload, shared by writer and reader:
/// `Wal::append` refuses a longer payload, so a scan that meets a
/// longer length has walked into a torn or stale record.
const MAX_PAYLOAD: u64 = 1 << 26;

const KIND_PAGE: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_ABORT: u8 = 3;
const KIND_META: u8 = 4;

// ---------------------------------------------------------------- crc32

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3) over a sequence of byte slices.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for part in parts {
        for &b in *part {
            c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
    }
    !c
}

// -------------------------------------------------------------- policy

/// When a commit's log records are forced to stable storage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Write and fsync before the commit returns, one fsync per commit.
    #[default]
    PerCommit,
    /// Write the commit to the log disk without an fsync. A crash loses
    /// a suffix of acknowledged commits but never breaks statement
    /// atomicity.
    NoSync,
}

impl SyncPolicy {
    /// Parse `percommit` or `nosync`.
    pub fn parse(s: &str) -> Result<SyncPolicy, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "percommit" | "per-commit" | "per_commit" => Ok(SyncPolicy::PerCommit),
            "nosync" | "no-sync" | "no_sync" => Ok(SyncPolicy::NoSync),
            _ => Err(format!(
                "unknown sync policy `{}` (expected percommit or nosync)",
                s.trim()
            )),
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::PerCommit => write!(f, "percommit"),
            SyncPolicy::NoSync => write!(f, "nosync"),
        }
    }
}

/// Filled log pages an append may leave in memory. An append that would
/// exceed it writes the pending pages out first (without a sync).
const TAIL_PAGES: usize = 64;

// --------------------------------------------------------------- stats

/// Counters accumulated since the log was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (all kinds).
    pub records: u64,
    /// Full page images appended.
    pub page_images: u64,
    /// Transactions committed through the log.
    pub commits: u64,
    /// Transactions aborted (logged best-effort, never synced).
    pub aborts: u64,
    /// Bytes appended to the record region.
    pub bytes: u64,
    /// Flushes that reached the disk (`write` + `sync` round trips).
    pub syncs: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
}

impl WalStats {
    /// Counter-wise difference (`after - before`), for EXPLAIN ANALYZE.
    pub fn delta(&self, before: &WalStats) -> WalStats {
        WalStats {
            records: self.records - before.records,
            page_images: self.page_images - before.page_images,
            commits: self.commits - before.commits,
            aborts: self.aborts - before.aborts,
            bytes: self.bytes - before.bytes,
            syncs: self.syncs - before.syncs,
            checkpoints: self.checkpoints - before.checkpoints,
        }
    }

    /// True when nothing was logged.
    pub fn is_empty(&self) -> bool {
        *self == WalStats::default()
    }
}

/// What recovery found and did when the log was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Valid records scanned (from the checkpoint to the tail).
    pub scanned_records: u64,
    /// Distinct committed transactions seen.
    pub committed_txs: u64,
    /// Page images replayed onto the data disk.
    pub replayed_pages: u64,
    /// True when the scan stopped on non-zero debris (a torn or
    /// corrupt record) rather than on a clean zeroed tail.
    pub truncated: bool,
    /// Where the scan started (the checkpoint LSN).
    pub start_lsn: Lsn,
    /// First byte past the last valid record: the new append point.
    pub valid_end: Lsn,
}

// -------------------------------------------------------------- header

#[derive(Debug, Clone, Copy)]
struct Header {
    seq: u64,
    gen: u32,
    checkpoint: Lsn,
}

fn encode_header(h: &Header) -> [u8; PAGE_SIZE] {
    let mut page = [0u8; PAGE_SIZE];
    page[0..8].copy_from_slice(&MAGIC.to_le_bytes());
    page[8..16].copy_from_slice(&h.seq.to_le_bytes());
    page[16..20].copy_from_slice(&h.gen.to_le_bytes());
    page[20..28].copy_from_slice(&h.checkpoint.to_le_bytes());
    let crc = crc32(&[&page[..HEADER_LEN]]);
    page[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&crc.to_le_bytes());
    page
}

fn decode_header(page: &[u8]) -> Option<Header> {
    let magic = u64::from_le_bytes(page[0..8].try_into().unwrap());
    if magic != MAGIC {
        return None;
    }
    let crc = u32::from_le_bytes(page[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap());
    if crc32(&[&page[..HEADER_LEN]]) != crc {
        return None;
    }
    Some(Header {
        seq: u64::from_le_bytes(page[8..16].try_into().unwrap()),
        gen: u32::from_le_bytes(page[16..20].try_into().unwrap()),
        checkpoint: u64::from_le_bytes(page[20..28].try_into().unwrap()),
    })
}

// ---------------------------------------------------------------- tail

/// Everything behind the log's one lock: the in-memory append point
/// (the partially filled tail page plus any filled pages not yet
/// written to the log disk), the LSN frontier, the policy and the
/// counters. Holding the lock is what serializes appends and every
/// log-disk write.
struct Tail {
    policy: SyncPolicy,
    next_lsn: Lsn,
    page_idx: u64,
    page: Box<[u8; PAGE_SIZE]>,
    pending: Vec<(u64, Box<[u8; PAGE_SIZE]>)>,
    /// Highest LSN whose bytes reached the log disk (≥ `durable`; the gap
    /// is written-but-not-yet-synced data under `NoSync`).
    written: Lsn,
    /// Highest LSN known to be on stable storage.
    durable: Lsn,
    header_seq: u64,
    checkpoint: Lsn,
    stats: WalStats,
}

impl Tail {
    fn push(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (self.next_lsn - self.page_idx * PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - off).min(rest.len());
            self.page[off..off + n].copy_from_slice(&rest[..n]);
            self.next_lsn += n as u64;
            rest = &rest[n..];
            if off + n == PAGE_SIZE {
                let full = std::mem::replace(&mut self.page, Box::new([0u8; PAGE_SIZE]));
                self.pending.push((self.page_idx, full));
                self.page_idx += 1;
            }
        }
    }
}

// --------------------------------------------------------------- reader

/// Buffered byte-range reads over the record region.
struct RegionReader<'a> {
    disk: &'a Arc<dyn DiskManager>,
    page: Box<[u8; PAGE_SIZE]>,
    cur: Option<u64>,
}

impl<'a> RegionReader<'a> {
    fn new(disk: &'a Arc<dyn DiskManager>) -> Self {
        RegionReader {
            disk,
            page: Box::new([0u8; PAGE_SIZE]),
            cur: None,
        }
    }

    fn read(&mut self, mut off: u64, buf: &mut [u8]) -> StorageResult<()> {
        let mut dst = 0;
        while dst < buf.len() {
            let pidx = off / PAGE_SIZE as u64;
            if self.cur != Some(pidx) {
                self.disk
                    .read_page((HEADER_SLOTS + pidx) as PageId, &mut self.page[..])?;
                self.cur = Some(pidx);
            }
            let poff = (off % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - poff).min(buf.len() - dst);
            buf[dst..dst + n].copy_from_slice(&self.page[poff..poff + n]);
            dst += n;
            off += n as u64;
        }
        Ok(())
    }
}

struct Rec {
    kind: u8,
    txid: u64,
    payload: Vec<u8>,
}

// ----------------------------------------------------------------- Wal

/// The write-ahead log. Opened with [`Wal::recover`], which replays the
/// committed suffix of the log onto the data disk before returning.
pub struct Wal {
    disk: Arc<dyn DiskManager>,
    gen: u32,
    tail: Mutex<Tail>,
    next_txid: AtomicU64,
    recovery: RecoveryInfo,
}

impl Wal {
    /// Open the log under [`SyncPolicy::PerCommit`]. See
    /// [`Wal::recover_with`].
    pub fn recover(
        wal_disk: Arc<dyn DiskManager>,
        data_disk: &Arc<dyn DiskManager>,
    ) -> StorageResult<(Wal, Option<Vec<u8>>, RecoveryInfo)> {
        Wal::recover_with(wal_disk, data_disk, SyncPolicy::PerCommit)
    }

    /// Open the log on `wal_disk` and run redo-only recovery against
    /// `data_disk`: scan from the checkpoint, truncate logically at the
    /// first torn/CRC-invalid record, replay committed page images, sync
    /// the data disk, then bump the generation so stale tail bytes can
    /// never be mistaken for live records. Returns the opened log, the
    /// payload of the last committed `Meta` record (the engine's catalog
    /// snapshot), and what recovery did. Replay mutates only the data
    /// disk — never the log — so recovering twice equals recovering once.
    ///
    /// A commit marker is honored only if no later `Abort` for the same
    /// transaction follows it: a commit whose inline flush failed leaves
    /// its marker in the tail, the engine rolls back in memory and logs
    /// the abort, and a later successful flush may make both durable —
    /// the abort must win or recovery would resurrect a rolled-back
    /// statement.
    pub fn recover_with(
        wal_disk: Arc<dyn DiskManager>,
        data_disk: &Arc<dyn DiskManager>,
        policy: SyncPolicy,
    ) -> StorageResult<(Wal, Option<Vec<u8>>, RecoveryInfo)> {
        while wal_disk.num_pages() < HEADER_SLOTS {
            wal_disk.allocate_page()?;
        }
        // Pick the valid header slot with the larger sequence number.
        let mut slot_buf = [0u8; PAGE_SIZE];
        let mut best: Option<Header> = None;
        for slot in 0..HEADER_SLOTS {
            wal_disk.read_page(slot as PageId, &mut slot_buf)?;
            if let Some(h) = decode_header(&slot_buf) {
                if best.is_none_or(|b| h.seq > b.seq) {
                    best = Some(h);
                }
            }
        }
        let header = best.unwrap_or(Header {
            seq: 0,
            gen: 0,
            checkpoint: 0,
        });

        // Scan the record region from the checkpoint to the first
        // invalid record.
        let region_len = wal_disk.num_pages().saturating_sub(HEADER_SLOTS) * PAGE_SIZE as u64;
        let start_lsn = header.checkpoint.min(region_len);
        let mut reader = RegionReader::new(&wal_disk);
        let mut lsn = start_lsn;
        let mut cur_gen = 0u32;
        let mut truncated = false;
        let mut records: Vec<Rec> = Vec::new();
        while lsn + REC_HEADER as u64 <= region_len {
            let mut hdr = [0u8; REC_HEADER];
            reader.read(lsn, &mut hdr)?;
            let len = u32::from_le_bytes(hdr[0..4].try_into().unwrap()) as u64;
            let gen = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
            let kind = hdr[8];
            let txid = u64::from_le_bytes(hdr[9..17].try_into().unwrap());
            let crc = u32::from_le_bytes(hdr[17..21].try_into().unwrap());
            let malformed = !(KIND_PAGE..=KIND_META).contains(&kind)
                || len > MAX_PAYLOAD
                || lsn + REC_HEADER as u64 + len > region_len
                || gen < cur_gen
                || gen > header.gen;
            if malformed {
                truncated = hdr.iter().any(|&b| b != 0);
                break;
            }
            let mut payload = vec![0u8; len as usize];
            reader.read(lsn + REC_HEADER as u64, &mut payload)?;
            if crc32(&[&hdr[4..17], &payload]) != crc {
                truncated = true;
                break;
            }
            cur_gen = gen;
            records.push(Rec {
                kind,
                txid,
                payload,
            });
            lsn += REC_HEADER as u64 + len;
        }
        let valid_end = lsn;

        // Redo: apply page images of committed transactions, in log
        // order, onto the data disk. Built in log order so a later
        // `Abort` cancels an earlier `Commit` of the same transaction
        // (the failed-flush-then-rollback sequence); txids are never
        // reused, so no other ordering occurs.
        let mut committed: HashSet<u64> = HashSet::new();
        for r in &records {
            match r.kind {
                KIND_COMMIT => {
                    committed.insert(r.txid);
                }
                KIND_ABORT => {
                    committed.remove(&r.txid);
                }
                _ => {}
            }
        }
        let mut meta: Option<Vec<u8>> = None;
        let mut replayed = 0u64;
        let mut max_txid = 0u64;
        for r in &records {
            max_txid = max_txid.max(r.txid);
            if !committed.contains(&r.txid) {
                continue;
            }
            match r.kind {
                KIND_PAGE => {
                    if r.payload.len() != 8 + PAGE_SIZE {
                        return Err(StorageError::Corrupt(
                            "wal page image with wrong payload size".into(),
                        ));
                    }
                    let pid = u64::from_le_bytes(r.payload[0..8].try_into().unwrap());
                    while data_disk.num_pages() <= pid {
                        data_disk.allocate_page()?;
                    }
                    data_disk.write_page(pid as PageId, &r.payload[8..])?;
                    replayed += 1;
                }
                KIND_META => meta = Some(r.payload.clone()),
                _ => {}
            }
        }
        if replayed > 0 {
            data_disk.sync()?;
        }

        let info = RecoveryInfo {
            scanned_records: records.len() as u64,
            committed_txs: committed.len() as u64,
            replayed_pages: replayed,
            truncated,
            start_lsn,
            valid_end,
        };

        // Fence off the old generation: bump it and durably publish the
        // new header before any append of this incarnation.
        let new_header = Header {
            seq: header.seq + 1,
            gen: header.gen + 1,
            checkpoint: start_lsn,
        };
        let page = encode_header(&new_header);
        wal_disk.write_page((new_header.seq % HEADER_SLOTS) as PageId, &page)?;
        wal_disk.sync()?;

        // Rebuild the tail page around the append point, zeroing the
        // stale suffix so the next flush overwrites old debris.
        let page_idx = valid_end / PAGE_SIZE as u64;
        let off = (valid_end % PAGE_SIZE as u64) as usize;
        let mut tail_page = Box::new([0u8; PAGE_SIZE]);
        if HEADER_SLOTS + page_idx < wal_disk.num_pages() {
            wal_disk.read_page((HEADER_SLOTS + page_idx) as PageId, &mut tail_page[..])?;
        }
        tail_page[off..].fill(0);

        let wal = Wal {
            disk: wal_disk,
            gen: new_header.gen,
            tail: Mutex::new(Tail {
                policy,
                next_lsn: valid_end,
                page_idx,
                page: tail_page,
                pending: Vec::new(),
                written: valid_end,
                durable: valid_end,
                header_seq: new_header.seq,
                checkpoint: start_lsn,
                stats: WalStats::default(),
            }),
            next_txid: AtomicU64::new(max_txid + 1),
            recovery: info,
        };
        Ok((wal, meta, info))
    }

    /// Append one record to the tail. A payload over `MAX_PAYLOAD` is
    /// refused with [`StorageError::LogRecordTooLarge`]. If the record
    /// would leave more than `TAIL_PAGES` filled pages pending, the
    /// pending pages are written out first. Either way, an error means
    /// nothing was appended.
    fn append(&self, t: &mut Tail, kind: u8, txid: u64, parts: &[&[u8]]) -> StorageResult<Lsn> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len as u64 > MAX_PAYLOAD {
            return Err(StorageError::LogRecordTooLarge {
                size: len as u64,
                max: MAX_PAYLOAD,
            });
        }
        let off = (t.next_lsn - t.page_idx * PAGE_SIZE as u64) as usize;
        if t.pending.len() + (off + REC_HEADER + len) / PAGE_SIZE > TAIL_PAGES {
            self.write(t)?;
        }
        Ok(self.push_record(t, kind, txid, parts))
    }

    /// Encode one record into the tail; returns its start LSN.
    fn push_record(&self, t: &mut Tail, kind: u8, txid: u64, parts: &[&[u8]]) -> Lsn {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let mut hdr = [0u8; REC_HEADER];
        hdr[0..4].copy_from_slice(&(len as u32).to_le_bytes());
        hdr[4..8].copy_from_slice(&self.gen.to_le_bytes());
        hdr[8] = kind;
        hdr[9..17].copy_from_slice(&txid.to_le_bytes());
        let mut crc_parts: Vec<&[u8]> = Vec::with_capacity(parts.len() + 1);
        crc_parts.push(&hdr[4..17]);
        crc_parts.extend_from_slice(parts);
        let crc = crc32(&crc_parts);
        hdr[17..21].copy_from_slice(&crc.to_le_bytes());
        let start = t.next_lsn;
        t.push(&hdr);
        for p in parts {
            t.push(p);
        }
        t.stats.records += 1;
        t.stats.bytes += (REC_HEADER + len) as u64;
        start
    }

    /// Write all appended-but-unwritten pages (no sync). Pending pages
    /// are dropped only after every write succeeds, so a failed write
    /// leaves the tail fully retryable.
    fn write(&self, t: &mut Tail) -> StorageResult<Lsn> {
        let snapshot = t.next_lsn;
        if t.written >= snapshot {
            return Ok(snapshot);
        }
        let need = HEADER_SLOTS + t.page_idx + 1;
        while self.disk.num_pages() < need {
            self.disk.allocate_page()?;
        }
        for (idx, page) in &t.pending {
            self.disk
                .write_page((HEADER_SLOTS + idx) as PageId, &page[..])?;
        }
        self.disk
            .write_page((HEADER_SLOTS + t.page_idx) as PageId, &t.page[..])?;
        t.pending.clear();
        t.written = snapshot;
        Ok(snapshot)
    }

    /// Write everything appended so far and sync the log disk.
    fn sync(&self, t: &mut Tail) -> StorageResult<Lsn> {
        if t.durable >= t.next_lsn {
            return Ok(t.next_lsn);
        }
        let snapshot = self.write(t)?;
        self.disk.sync()?;
        t.durable = snapshot;
        t.stats.syncs += 1;
        Ok(snapshot)
    }

    /// Allocate a fresh transaction id (never 0).
    pub fn alloc_txid(&self) -> u64 {
        self.next_txid.fetch_add(1, Ordering::SeqCst)
    }

    /// The active commit durability policy.
    pub fn policy(&self) -> SyncPolicy {
        self.tail.lock().policy
    }

    /// Switch the commit durability policy at runtime. The new policy
    /// is in force even if the flush that follows fails; that flush
    /// syncs everything the old policy left unsynced, so the switch is a
    /// clean durability boundary.
    pub fn set_policy(&self, policy: SyncPolicy) -> StorageResult<()> {
        let mut t = self.tail.lock();
        t.policy = policy;
        self.sync(&mut t)?;
        Ok(())
    }

    /// Append a full after-image of page `pid`. Returns the LSN *past*
    /// the record — the point the log must be flushed to before the page
    /// itself may be written to the data disk (WAL before data). Fails,
    /// appending nothing, when making room in the tail fails.
    pub fn append_page_image(&self, txid: u64, pid: PageId, image: &[u8]) -> StorageResult<Lsn> {
        debug_assert_eq!(image.len(), PAGE_SIZE);
        let pid8 = (pid as u64).to_le_bytes();
        let mut t = self.tail.lock();
        self.append(&mut t, KIND_PAGE, txid, &[&pid8, image])?;
        t.stats.page_images += 1;
        Ok(t.next_lsn)
    }

    /// Append an abort marker. Informational for redo (an uncommitted
    /// transaction is ignored anyway), but load-bearing after a *failed*
    /// commit write: it cancels the orphaned commit marker if a later
    /// write makes both durable. So it always lands in the tail (it
    /// never writes to make room, and so cannot fail), and it is not
    /// written eagerly.
    pub fn append_abort(&self, txid: u64) -> Lsn {
        let mut t = self.tail.lock();
        t.stats.aborts += 1;
        self.push_record(&mut t, KIND_ABORT, txid, &[])
    }

    /// Commit: append the optional `Meta` payload (the engine's catalog
    /// snapshot) and the `Commit` marker, then write the tail. A meta
    /// payload over the record limit fails the commit before its marker
    /// is appended. Under
    /// `PerCommit` the log is synced too and `Ok` means the transaction
    /// is durable; under `NoSync` it means the commit reached the log
    /// disk unsynced.
    pub fn commit(&self, txid: u64, meta: Option<&[u8]>) -> StorageResult<Lsn> {
        let mut t = self.tail.lock();
        if let Some(m) = meta {
            self.append(&mut t, KIND_META, txid, &[m])?;
        }
        let lsn = self.append(&mut t, KIND_COMMIT, txid, &[])?;
        match t.policy {
            SyncPolicy::PerCommit => self.sync(&mut t)?,
            SyncPolicy::NoSync => self.write(&mut t)?,
        };
        t.stats.commits += 1;
        Ok(lsn)
    }

    /// Write all appended-but-unwritten log pages and sync the log disk.
    pub fn flush(&self) -> StorageResult<Lsn> {
        self.sync(&mut self.tail.lock())
    }

    /// Ensure the log is durable at least through `lsn` (the WAL-before-
    /// data check: called with a page's LSN before that page goes to the
    /// data disk).
    pub fn flush_to(&self, lsn: Lsn) -> StorageResult<()> {
        let mut t = self.tail.lock();
        if t.durable < lsn {
            self.sync(&mut t)?;
        }
        Ok(())
    }

    /// LSN through which the log is durable.
    pub fn durable_lsn(&self) -> Lsn {
        self.tail.lock().durable
    }

    /// LSN through which log bytes have reached the disk (≥ durable).
    pub fn written_lsn(&self) -> Lsn {
        self.tail.lock().written
    }

    /// LSN of the in-memory append point (≥ written).
    pub fn appended_lsn(&self) -> Lsn {
        self.tail.lock().next_lsn
    }

    /// The checkpoint LSN recovery will scan from.
    pub fn checkpoint_lsn(&self) -> Lsn {
        self.tail.lock().checkpoint
    }

    /// Advance the checkpoint. The caller (the buffer pool) must already
    /// have pushed every committed page to the data disk *and synced it*;
    /// this appends a fresh `Meta` + `Commit` pair (so the catalog
    /// snapshot stays reachable from the new scan start), flushes, and
    /// only then durably moves the scan start forward. A crash anywhere
    /// in between, or a meta payload over the record limit, leaves the
    /// old checkpoint in force, which merely means more redo — never
    /// lost data.
    pub fn checkpoint_mark(&self, meta: Option<&[u8]>) -> StorageResult<()> {
        let txid = self.alloc_txid();
        let mut t = self.tail.lock();
        let start = t.next_lsn;
        if let Some(m) = meta {
            self.append(&mut t, KIND_META, txid, &[m])?;
        }
        self.append(&mut t, KIND_COMMIT, txid, &[])?;
        self.sync(&mut t)?;
        t.header_seq += 1;
        let page = encode_header(&Header {
            seq: t.header_seq,
            gen: self.gen,
            checkpoint: start,
        });
        self.disk
            .write_page((t.header_seq % HEADER_SLOTS) as PageId, &page)?;
        self.disk.sync()?;
        t.checkpoint = start;
        t.stats.checkpoints += 1;
        Ok(())
    }

    /// Snapshot of the log's counters.
    pub fn stats(&self) -> WalStats {
        self.tail.lock().stats
    }

    /// What recovery found when this log was opened.
    pub fn recovery_info(&self) -> RecoveryInfo {
        self.recovery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultClock, FaultDisk, FaultSchedule, MemDisk};

    fn disks() -> (Arc<dyn DiskManager>, Arc<dyn DiskManager>) {
        (Arc::new(MemDisk::new()), Arc::new(MemDisk::new()))
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(&[b"123456789"]), 0xcbf4_3926);
        // Split input hashes the same as contiguous input.
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xcbf4_3926);
    }

    #[test]
    fn header_slot_roundtrip_and_rejection() {
        let h = Header {
            seq: 7,
            gen: 3,
            checkpoint: 4096,
        };
        let page = encode_header(&h);
        let back = decode_header(&page).unwrap();
        assert_eq!((back.seq, back.gen, back.checkpoint), (7, 3, 4096));
        let mut torn = page;
        torn[9] ^= 0xff;
        assert!(decode_header(&torn).is_none());
        assert!(decode_header(&[0u8; PAGE_SIZE]).is_none());
    }

    #[test]
    fn sync_policy_parses_and_displays() {
        assert_eq!(SyncPolicy::parse("percommit"), Ok(SyncPolicy::PerCommit));
        assert_eq!(SyncPolicy::parse("  PerCommit "), Ok(SyncPolicy::PerCommit));
        assert_eq!(SyncPolicy::parse("nosync"), Ok(SyncPolicy::NoSync));
        assert!(SyncPolicy::parse("group").is_err());
        assert!(SyncPolicy::parse("group:200:64").is_err());
        assert!(SyncPolicy::parse("eventually").is_err());
        for p in [SyncPolicy::PerCommit, SyncPolicy::NoSync] {
            assert_eq!(SyncPolicy::parse(&p.to_string()), Ok(p));
        }
    }

    #[test]
    fn commit_replays_on_recover_and_uncommitted_does_not() {
        let data: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
        let (wal_disk, _) = disks();
        let (wal, meta, info) = Wal::recover(Arc::clone(&wal_disk), &data).unwrap();
        assert!(meta.is_none());
        assert_eq!(info.scanned_records, 0);

        // Committed tx writes page 0; uncommitted tx writes page 1.
        data.allocate_page().unwrap();
        data.allocate_page().unwrap();
        let t1 = wal.alloc_txid();
        let mut img = [7u8; PAGE_SIZE];
        img[0] = 1;
        wal.append_page_image(t1, 0, &img).unwrap();
        wal.commit(t1, Some(b"snapshot-1")).unwrap();
        let t2 = wal.alloc_txid();
        img[0] = 2;
        wal.append_page_image(t2, 1, &img).unwrap();
        wal.flush().unwrap();
        drop(wal);

        let (wal2, meta2, info2) = Wal::recover(Arc::clone(&wal_disk), &data).unwrap();
        assert_eq!(meta2.as_deref(), Some(&b"snapshot-1"[..]));
        assert_eq!(info2.committed_txs, 1);
        assert_eq!(info2.replayed_pages, 1);
        let mut buf = [0u8; PAGE_SIZE];
        data.read_page(0, &mut buf).unwrap();
        assert_eq!((buf[0], buf[1]), (1, 7));
        data.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[0], 0, "uncommitted image must not be replayed");
        drop(wal2);

        // Recovery is idempotent: a third open replays to the same state.
        let (_, meta3, info3) = Wal::recover(wal_disk, &data).unwrap();
        assert_eq!(meta3.as_deref(), Some(&b"snapshot-1"[..]));
        assert_eq!(info3.scanned_records, info2.scanned_records);
        data.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
    }

    #[test]
    fn torn_record_truncates_scan_but_keeps_earlier_commits() {
        let (wal_disk, data) = disks();
        let (wal, _, _) = Wal::recover(Arc::clone(&wal_disk), &data).unwrap();
        let t1 = wal.alloc_txid();
        let img = [9u8; PAGE_SIZE];
        wal.append_page_image(t1, 0, &img).unwrap();
        wal.commit(t1, None).unwrap();
        let t2 = wal.alloc_txid();
        wal.append_page_image(t2, 1, &img).unwrap();
        wal.commit(t2, None).unwrap();
        drop(wal);

        // Corrupt a byte inside the *second* transaction's page image:
        // t1 logged [PageWrite, Commit], so t2's image payload starts
        // after those records plus t2's own record header and pid.
        let off = ((REC_HEADER + 8 + PAGE_SIZE) + REC_HEADER + REC_HEADER + 8 + 100) as u64;
        let pidx = (2 + off / PAGE_SIZE as u64) as PageId;
        let poff = (off % PAGE_SIZE as u64) as usize;
        let mut buf = [0u8; PAGE_SIZE];
        wal_disk.read_page(pidx, &mut buf).unwrap();
        buf[poff] ^= 0xff;
        wal_disk.write_page(pidx, &buf).unwrap();

        let (_, _, info) = Wal::recover(wal_disk, &data).unwrap();
        assert!(info.truncated, "scan must stop at the corrupt record");
        assert_eq!(info.committed_txs, 1, "only the first commit survives");
        let mut page0 = [0u8; PAGE_SIZE];
        data.read_page(0, &mut page0).unwrap();
        assert_eq!(page0[0], 9);
    }

    #[test]
    fn checkpoint_advances_scan_start_and_preserves_meta() {
        let (wal_disk, data) = disks();
        let (wal, _, _) = Wal::recover(Arc::clone(&wal_disk), &data).unwrap();
        let t1 = wal.alloc_txid();
        wal.append_page_image(t1, 0, &[1u8; PAGE_SIZE]).unwrap();
        wal.commit(t1, Some(b"before")).unwrap();
        wal.checkpoint_mark(Some(b"at-checkpoint")).unwrap();
        let cp = wal.checkpoint_lsn();
        assert!(cp > 0);
        drop(wal);

        let (wal2, meta, info) = Wal::recover(Arc::clone(&wal_disk), &data).unwrap();
        assert_eq!(info.start_lsn, cp, "scan starts at the checkpoint");
        assert_eq!(
            meta.as_deref(),
            Some(&b"at-checkpoint"[..]),
            "checkpoint re-publishes the snapshot past the scan start"
        );
        assert_eq!(
            info.replayed_pages, 0,
            "pre-checkpoint images not rescanned"
        );
        drop(wal2);
    }

    #[test]
    fn generation_fences_reject_stale_tail_after_reopen() {
        let (wal_disk, data) = disks();
        // Generation 1: two committed transactions.
        let (wal, _, _) = Wal::recover(Arc::clone(&wal_disk), &data).unwrap();
        let t1 = wal.alloc_txid();
        wal.append_page_image(t1, 0, &[1u8; PAGE_SIZE]).unwrap();
        wal.commit(t1, None).unwrap();
        let end_t1 = wal.durable_lsn();
        let t2 = wal.alloc_txid();
        wal.append_page_image(t2, 1, &[2u8; PAGE_SIZE]).unwrap();
        wal.commit(t2, None).unwrap();
        drop(wal);

        // Simulate a logical truncation back to end_t1: corrupt the first
        // record of t2 so recovery stops there, then append a new commit
        // in the next generation. The old t2 bytes past the new append
        // point must stay dead even where they are still CRC-valid.
        let pidx = 2 + end_t1 / PAGE_SIZE as u64;
        let mut buf = [0u8; PAGE_SIZE];
        wal_disk.read_page(pidx as PageId, &mut buf).unwrap();
        buf[(end_t1 % PAGE_SIZE as u64) as usize + 8] ^= 0xff;
        wal_disk.write_page(pidx as PageId, &buf).unwrap();

        let (wal2, _, info) = Wal::recover(Arc::clone(&wal_disk), &data).unwrap();
        assert_eq!(info.valid_end, end_t1);
        let t3 = wal2.alloc_txid();
        wal2.commit(t3, Some(b"gen2")).unwrap();
        drop(wal2);

        let (_, meta, info2) = Wal::recover(wal_disk, &data).unwrap();
        assert_eq!(meta.as_deref(), Some(&b"gen2"[..]));
        // t1 (gen 1) + meta/commit of t3 (gen 2); t2's remnants are gone.
        assert_eq!(info2.committed_txs, 2);
    }

    #[test]
    fn per_commit_syncs_once_per_commit() {
        let (wal_disk, data) = disks();
        let (wal, _, _) = Wal::recover(Arc::clone(&wal_disk), &data).unwrap();
        for _ in 0..5 {
            let t = wal.alloc_txid();
            wal.append_page_image(t, 0, &[4u8; PAGE_SIZE]).unwrap();
            wal.commit(t, None).unwrap();
        }
        let s = wal.stats();
        assert_eq!(s.commits, 5);
        assert_eq!(s.syncs, 5);
        assert_eq!(wal.durable_lsn(), wal.appended_lsn());
    }

    #[test]
    fn nosync_acknowledges_commits_without_waiting_for_fsync() {
        let (wal_disk, data) = disks();
        let (wal, _, _) =
            Wal::recover_with(Arc::clone(&wal_disk), &data, SyncPolicy::NoSync).unwrap();
        for _ in 0..3 {
            let t = wal.alloc_txid();
            wal.append_page_image(t, 0, &[6u8; PAGE_SIZE]).unwrap();
            wal.commit(t, None).unwrap();
        }
        let s = wal.stats();
        assert_eq!(s.commits, 3);
        // Commits never waited on an fsync; an explicit flush catches up.
        let end = wal.flush().unwrap();
        assert_eq!(wal.durable_lsn(), end);
        assert_eq!(wal.appended_lsn(), end);
        drop(wal);
        let (_, _, info) = Wal::recover(wal_disk, &data).unwrap();
        assert_eq!(info.committed_txs, 3);
    }

    /// One transaction logs `2 * TAIL_PAGES + 1` page images, so its
    /// appends write the tail out twice before the commit. Crashed clean
    /// and torn at every write index under both policies, recovery
    /// replays every image or none, never a prefix — and all of them
    /// once a `PerCommit` commit was acknowledged. The tail never holds
    /// more than `TAIL_PAGES` filled pages, even once writes fail.
    #[test]
    fn inline_drain_replays_all_or_nothing_at_every_crash_point() {
        const IMAGES: usize = 2 * TAIL_PAGES + 1;
        let image = |pid: usize| [(pid % 251) as u8 + 1; PAGE_SIZE];
        // Returns whether the commit was acknowledged and whether the
        // appends wrote to the log before the commit did.
        let run = |wal_disk: Arc<dyn DiskManager>, data: &Arc<dyn DiskManager>, policy| {
            let Ok((wal, _, _)) = Wal::recover_with(wal_disk, data, policy) else {
                return (false, false);
            };
            let t = wal.alloc_txid();
            for pid in 0..IMAGES {
                let appended = wal.append_page_image(t, pid as PageId, &image(pid));
                assert!(wal.tail.lock().pending.len() <= TAIL_PAGES);
                if appended.is_err() {
                    return (false, true);
                }
            }
            let drained = wal.written_lsn() > 0;
            (wal.commit(t, None).is_ok(), drained)
        };
        for policy in [SyncPolicy::PerCommit, SyncPolicy::NoSync] {
            let clock = FaultClock::new(FaultSchedule::default());
            let (wal_inner, data) = disks();
            let wal_disk: Arc<dyn DiskManager> =
                Arc::new(FaultDisk::new(wal_inner, Arc::clone(&clock)));
            assert_eq!(run(wal_disk, &data, policy), (true, true));
            let total = clock.writes();
            for torn in [false, true] {
                for i in 0..total {
                    let schedule = if torn {
                        FaultSchedule::torn_at(i)
                    } else {
                        FaultSchedule::crash_at(i)
                    };
                    let (wal_inner, data) = disks();
                    let wal_disk: Arc<dyn DiskManager> = Arc::new(FaultDisk::new(
                        Arc::clone(&wal_inner),
                        FaultClock::new(schedule),
                    ));
                    let (acked, _) = run(wal_disk, &data, policy);
                    let (_, _, info) = Wal::recover(wal_inner, &data).unwrap();
                    let replayed = info.replayed_pages as usize;
                    let at = format!("{policy} crash at write {i} (torn={torn})");
                    assert!(
                        replayed == 0 || replayed == IMAGES,
                        "{at}: replayed {replayed}"
                    );
                    if acked && policy == SyncPolicy::PerCommit {
                        assert_eq!(replayed, IMAGES, "{at}: acknowledged commit lost");
                    }
                    if replayed == IMAGES {
                        let mut buf = [0u8; PAGE_SIZE];
                        for pid in [0, TAIL_PAGES, IMAGES - 1] {
                            data.read_page(pid as PageId, &mut buf).unwrap();
                            assert_eq!(buf, image(pid), "{at}: page {pid}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn abort_after_failed_commit_flush_cancels_replay() {
        // A commit whose flush dies leaves its Commit marker in the
        // in-memory tail; the engine rolls back and logs an Abort. If a
        // later flush lands both, recovery must not resurrect the
        // rolled-back transaction.
        let clock = FaultClock::new(FaultSchedule {
            // Write 0 is the recovery generation header; write 1 is the
            // first page of t1's failing commit flush.
            transient_write_errors: vec![1],
            ..Default::default()
        });
        let wal_inner: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
        let wal_disk: Arc<dyn DiskManager> =
            Arc::new(FaultDisk::new(Arc::clone(&wal_inner), clock));
        let data: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
        let (wal, _, _) = Wal::recover(Arc::clone(&wal_disk), &data).unwrap();

        let t1 = wal.alloc_txid();
        wal.append_page_image(t1, 0, &[1u8; PAGE_SIZE]).unwrap();
        assert!(wal.commit(t1, None).is_err(), "injected failure");
        wal.append_abort(t1);

        let t2 = wal.alloc_txid();
        wal.append_page_image(t2, 1, &[2u8; PAGE_SIZE]).unwrap();
        wal.commit(t2, None).unwrap();
        drop(wal);
        wal_disk.sync().unwrap();

        let (_, _, info) = Wal::recover(wal_disk, &data).unwrap();
        assert_eq!(info.committed_txs, 1, "t1's commit marker is canceled");
        let mut buf = [0u8; PAGE_SIZE];
        data.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0, "rolled-back t1 must not be replayed");
        data.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[0], 2, "t2 replays normally");
    }

    #[test]
    fn a_record_at_the_limit_commits_and_one_byte_more_is_refused() {
        let (wal_disk, data) = disks();
        let (wal, _, _) = Wal::recover(Arc::clone(&wal_disk), &data).unwrap();
        let over = vec![8u8; MAX_PAYLOAD as usize + 1];
        let refused = |r: StorageResult<()>| match r {
            Err(StorageError::LogRecordTooLarge { size, max }) => {
                assert_eq!((size, max), (MAX_PAYLOAD + 1, MAX_PAYLOAD))
            }
            other => panic!("expected LogRecordTooLarge, got {other:?}"),
        };
        refused(wal.commit(wal.alloc_txid(), Some(&over)).map(drop));
        refused(wal.checkpoint_mark(Some(&over)));
        drop(over);
        assert_eq!(wal.appended_lsn(), 0, "a refused record appends nothing");
        assert_eq!(wal.stats(), WalStats::default());
        assert_eq!(wal.checkpoint_lsn(), 0, "the old checkpoint stays in force");

        let at_limit = vec![7u8; MAX_PAYLOAD as usize];
        wal.commit(wal.alloc_txid(), Some(&at_limit)).unwrap();
        drop(wal);
        let (_, meta, info) = Wal::recover(wal_disk, &data).unwrap();
        assert_eq!(info.committed_txs, 1);
        assert!(!info.truncated);
        assert!(
            meta == Some(at_limit),
            "the record at the limit is recovered"
        );
    }

    #[test]
    fn set_policy_flushes_and_switches() {
        let (wal_disk, data) = disks();
        let (wal, _, _) =
            Wal::recover_with(Arc::clone(&wal_disk), &data, SyncPolicy::NoSync).unwrap();
        let t = wal.alloc_txid();
        wal.append_page_image(t, 0, &[3u8; PAGE_SIZE]).unwrap();
        wal.commit(t, None).unwrap();
        wal.set_policy(SyncPolicy::PerCommit).unwrap();
        assert_eq!(wal.policy(), SyncPolicy::PerCommit);
        // The switch drained the NoSync backlog.
        assert_eq!(wal.durable_lsn(), wal.appended_lsn());
        let before = wal.stats().syncs;
        let t2 = wal.alloc_txid();
        wal.append_page_image(t2, 1, &[4u8; PAGE_SIZE]).unwrap();
        wal.commit(t2, None).unwrap();
        assert_eq!(wal.stats().syncs, before + 1);
    }
}
