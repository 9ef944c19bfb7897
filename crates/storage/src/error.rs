use crate::PageId;

/// Errors raised by the storage engine.
#[derive(Debug)]
pub enum StorageError {
    /// An I/O error from a file-backed disk manager.
    Io(std::io::Error),
    /// A page id beyond the end of the underlying disk.
    PageOutOfBounds(PageId),
    /// A record too large to ever fit on a page.
    RecordTooLarge { size: usize, max: usize },
    /// A write-ahead log record over the log's record limit (refused
    /// before anything is appended).
    LogRecordTooLarge { size: u64, max: u64 },
    /// A tuple id whose slot does not hold a live record.
    InvalidTupleId { page: PageId, slot: u16 },
    /// The buffer pool has no evictable frame (everything pinned).
    PoolExhausted,
    /// A page whose bytes do not deserialize as the expected node kind.
    Corrupt(String),
    /// A transaction protocol violation (nested begin, commit without
    /// begin, checkpoint inside a transaction, ...).
    Tx(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::PageOutOfBounds(p) => write!(f, "page {p} out of bounds"),
            StorageError::RecordTooLarge { size, max } => {
                write!(f, "record of {size} bytes exceeds page capacity {max}")
            }
            StorageError::LogRecordTooLarge { size, max } => write!(
                f,
                "log record of {size} bytes exceeds the write-ahead log's record limit of {max} bytes"
            ),
            StorageError::InvalidTupleId { page, slot } => {
                write!(f, "invalid tuple id ({page}, {slot})")
            }
            StorageError::PoolExhausted => write!(f, "buffer pool exhausted: all frames pinned"),
            StorageError::Corrupt(msg) => write!(f, "corrupt page: {msg}"),
            StorageError::Tx(msg) => write!(f, "transaction error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

pub type StorageResult<T> = Result<T, StorageError>;
