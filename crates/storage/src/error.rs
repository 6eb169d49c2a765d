//! Error type for the storage engine.

use pdl_core::CoreError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the storage engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// The underlying page store failed.
    Store(CoreError),
    /// A record no longer exists at the given location.
    RecordNotFound { pid: u64, slot: u16 },
    /// A record or key does not fit in a page.
    TooLarge { size: usize, max: usize },
    /// The database ran out of allocatable logical pages.
    OutOfPages,
    /// A page's on-disk structure is inconsistent.
    PageCorrupt(String),
    /// Key already present in a unique index.
    DuplicateKey,
    /// A page is dirty under another uncommitted transaction.
    TxnConflict { pid: u64 },
    /// Every buffer frame is pinned by uncommitted transactions; nothing
    /// can be evicted.
    BufferPinned,
    /// Transaction API misuse (no open transaction, nested begin, ...).
    TxnState(String),
    /// A read view outlived the pool's version retention: the versions it
    /// needs were discarded under `snapshot_version_cap` to keep memory
    /// flat.
    SnapshotTooOld { read_ts: u64, floor: u64 },
    /// Internal invariant broken.
    Internal(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Store(e) => write!(f, "page store error: {e}"),
            StorageError::RecordNotFound { pid, slot } => {
                write!(f, "no record at page {pid} slot {slot}")
            }
            StorageError::TooLarge { size, max } => {
                write!(f, "record of {size} bytes exceeds page capacity {max}")
            }
            StorageError::OutOfPages => write!(f, "database out of logical pages"),
            StorageError::PageCorrupt(msg) => write!(f, "page corrupt: {msg}"),
            StorageError::DuplicateKey => write!(f, "duplicate key in unique index"),
            StorageError::TxnConflict { pid } => {
                write!(f, "page {pid} is dirty under another uncommitted transaction")
            }
            StorageError::BufferPinned => {
                write!(f, "every buffer frame is pinned by uncommitted transactions")
            }
            StorageError::TxnState(msg) => write!(f, "transaction state error: {msg}"),
            StorageError::SnapshotTooOld { read_ts, floor } => {
                write!(
                    f,
                    "snapshot too old: view at ts {read_ts} needs versions discarded \
                     up to ts {floor} (raise StoreOptions::snapshot_version_cap or release views \
                     sooner)"
                )
            }
            StorageError::Internal(msg) => write!(f, "internal storage error: {msg}"),
        }
    }
}

impl Error for StorageError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StorageError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for StorageError {
    fn from(e: CoreError) -> Self {
        StorageError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(StorageError::RecordNotFound { pid: 3, slot: 7 }.to_string().contains("slot 7"));
        assert!(StorageError::from(CoreError::StorageFull).to_string().contains("full"));
        assert!(Error::source(&StorageError::Store(CoreError::StorageFull)).is_some());
    }
}
