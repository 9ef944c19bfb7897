//! Page-based storage engine for the SOS framework.
//!
//! Section 4 of the paper assumes a representation level with several
//! storage structures, each of which becomes a type constructor:
//!
//! * `srel`   — a temporary (unordered) relation collecting a stream,
//! * `tidrel` — a permanently stored relation with no specific order,
//!   addressed by tuple identifiers (a heap file),
//! * `btree`  — a clustering single-attribute (or key-expression) B-tree,
//! * `lsdtree` — the LSD-tree of Henrich/Six/Widmayer storing rectangles.
//!
//! This crate implements those structures on a real page substrate: a
//! [`DiskManager`] (in-memory or file backed), a [`BufferPool`] with LRU
//! replacement, pinning, and I/O statistics, and record pages. The buffer
//! pool statistics are how the benchmark harness reports *cost shape*
//! (pages touched) next to wall time — the quantity the paper's
//! optimization rules are designed to reduce.
//!
//! The engine stores opaque byte records; the execution layer encodes
//! tuples with [`field`] and order-preserving keys with [`keys`].

mod buffer;
mod disk;
mod error;
mod page;

pub mod btree;
pub mod fault;
pub mod field;
pub mod heap;
pub mod keys;
pub mod lsdtree;
pub mod wal;

pub use buffer::{BufferPool, CheckpointStats, PoolStats};
pub use disk::{DiskManager, FileDisk, MemDisk};
pub use error::{StorageError, StorageResult};
pub use fault::{FaultClock, FaultDisk, FaultSchedule};
pub use page::{PageId, TupleId, PAGE_SIZE};
pub use wal::{Lsn, RecoveryInfo, SyncPolicy, Wal, WalStats};

use std::sync::Arc;

/// Convenience constructor: a buffer pool of `frames` frames over a fresh
/// in-memory disk. This is what tests and most examples use.
pub fn mem_pool(frames: usize) -> Arc<BufferPool> {
    BufferPool::new(Arc::new(MemDisk::new()), frames).shared()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool above is single-threaded; the disks and the log below it
    /// stay shareable across threads.
    #[test]
    fn device_layer_stays_send_and_sync() {
        fn send_sync<T: Send + Sync + ?Sized>() {}
        send_sync::<dyn DiskManager>();
        send_sync::<MemDisk>();
        send_sync::<FileDisk>();
        send_sync::<FaultDisk>();
        send_sync::<FaultClock>();
        send_sync::<Wal>();
    }
}
