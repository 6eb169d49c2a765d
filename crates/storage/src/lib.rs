//! # pdl-storage — DBMS storage-manager substrate
//!
//! A compact storage engine standing in for the Odysseus ORDBMS the paper
//! drives its experiments with (see DESIGN.md §3): a [`Database`] that is
//! a buffer pool (2Q admission, clean-first eviction) over any
//! [`pdl_core::PageStore`], slotted record pages, [`HeapFile`]s with a
//! free-space map, and a [`BTree`] index.
//!
//! What matters for reproducing the paper is the page-level contract:
//! reads miss into [`pdl_core::PageStore::read_page`], every mutation
//! reports its changed byte ranges as one *update command*
//! ([`pdl_core::PageStore::apply_update`] — the hook tightly-coupled
//! log-based methods need), and dirty evictions reflect whole logical
//! pages ([`pdl_core::PageStore::evict_page`]).
//!
//! On top of that contract sits the **MVCC read layer**: non-mutating
//! reads take shared borrows (`&Database`), and a
//! [`ReadView`] freezes the whole page space at a commit-clock position
//! by resolving reads against per-page version chains (see
//! `FrameCache`). Every read entry point — [`BTree`] lookups and range
//! scans, [`HeapFile`] gets and scans — is generic over [`PageRead`], so
//! the same code path serves current-state reads and frozen snapshots.

#![forbid(unsafe_code)]

mod btree;
mod buffer;
mod db;
mod error;
#[cfg(test)]
#[path = "sharded_tests.rs"]
mod sharded;
pub mod slotted;
mod view;

pub use btree::{BTree, Key, KeyBuf};
pub use buffer::{read_u16, read_u64, BufferStats, PageLatch, PageMut};
pub use db::{Database, DbSnapshot, Durability, RecordId, RecoveredStructure, TxnId};
pub use error::StorageError;
pub use heap::HeapFile;
pub use view::{PageRead, ReadGuard, ReadView, StructId, StructRoot};

/// Construct a [`PageMut`] over a raw buffer, for page-format tests and
/// tools operating outside a buffer pool.
#[doc(hidden)]
pub fn testing_page_mut<'a>(
    data: &'a mut [u8],
    changes: &'a mut Vec<pdl_core::ChangeRange>,
) -> PageMut<'a> {
    buffer::testing::page_mut(data, changes)
}

mod heap;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
