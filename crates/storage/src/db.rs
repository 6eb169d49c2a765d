//! The database: the buffer pool over one page store, MVCC read views,
//! a logical-page allocator and transactions, in one type.
//!
//! [`Database`] owns the store behind a mutex, the frame cache
//! (`FrameCache`: 2Q admission, clean-first eviction; see `buffer.rs`)
//! behind another, the MVCC registry and the page latch table; every
//! read and write goes through it. Heap
//! files and B+-trees allocate their pages here; the page-update method
//! underneath decides how those logical pages land in flash.
//!
//! Reads take `&Database`. Plain reads see the *live* page image —
//! including an open transaction's in-flight writes, since transactions
//! mutate frames in place (the write transaction reading its own
//! writes). Isolation comes from [`Database::begin_read`]: an MVCC
//! [`ReadView`] freezes the whole page space at its commit-clock
//! position, hiding both in-flight writes and every later commit.
//!
//! # Concurrent structural writers
//!
//! Mutations take `&Database` too: the database is interior-mutable
//! (allocator, transaction table and structure registry each behind
//! their own lock), and structural writers — B+-tree splits, heap
//! growth — serialize per *page* through the latch table
//! ([`Database::latch_page`]), not per database. Transactions are keyed
//! by thread: [`Database::begin`] opens at most one transaction per
//! thread, and every `with_page_mut` on that thread is tracked against
//! it. Cross-thread writes to a page dirtied by another uncommitted
//! transaction fail with [`StorageError::TxnConflict`] — the caller
//! aborts and retries, optimistic-concurrency style.
//!
//! # Durable structure roots
//!
//! On a store with a PDL checkpoint region, every durable commit that
//! changed a registered structure hands the full `StructId → StructRoot`
//! snapshot to the store in the same [`pdl_core::CommitBatch`] as the
//! data, to land in the checkpoint region's root log — the record is
//! authoritative exactly when the transaction's commit record is
//! durable. After a crash, [`Database::recover_structures`] rebuilds the
//! registered handles from the store alone. Stores without a root log
//! (OPU, IPU, IPL, and PDL without a checkpoint region) restart through
//! `BTree::attach` / `HeapFile::attach` at roots the caller remembered.
//! Either way a handle belongs to the one database that registered it.

use crate::btree::BTree;
use crate::buffer::{
    BufferStats, FrameCache, LatchTable, NoVersioning, OwnedPage, PageLatch, PageMut, StoreBackend,
    VersionSource,
};
use crate::error::StorageError;
use crate::heap::HeapFile;
use crate::view::{MvccState, PageRead, StructId, StructRoot};
use crate::{ReadGuard, ReadView, Result};
use pdl_core::{CommitBatch, CommitError, PageStore, StructRootEntry, StructRootsSnapshot, NO_TXN};
use pdl_flash::FlashStats;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// Source of [`Database::id`] values: never 0, never reused.
static NEXT_DB_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// What [`Database::current_txn`] last established on this thread:
    /// `(database id, that database's open transaction here)`. Only the
    /// thread itself opens or closes its transaction, and `begin` /
    /// `commit` / `abort` rewrite the entry, so an entry whose id matches
    /// is exact; one for another database is a miss, answered from
    /// `open_txns`.
    static THREAD_TXN: Cell<(u64, Option<TxnId>)> = const { Cell::new((0, None)) };
}

/// A durable commit waiting for its batch (see [`Database::commit`]).
struct Committer {
    txn: TxnId,
    structs: Vec<(StructId, StructRoot)>,
    pages: Vec<OwnedPage>,
    /// Host-clock µs the committer joined the queue (`None` with
    /// observability off): its `commit_lock_wait` sample ends when a
    /// leader takes it into a batch.
    queued_at: Option<u64>,
}

/// The group-commit queue: committers wait here, in arrival order, for
/// a leader to take them into a batch and report back.
#[derive(Default)]
struct CommitQueue {
    waiting: Vec<Committer>,
    /// A leader holds the lead: it is gathering or running a batch.
    leading: bool,
    /// Outcomes of finished batches, until each member collects its own.
    done: HashMap<TxnId, Result<()>>,
}

/// Take the next batch off the front of the queue: every waiting
/// committer, except that over a root log at most one member may change
/// structures: the batch's root record names that member's transaction. A
/// second such committer, and everyone behind it, waits for the next
/// batch. (Across shards a batch now commits whole — one record on one
/// shard proves every member — so the rule could be relaxed; it stays
/// until that is measured.)
fn next_batch(waiting: &mut Vec<Committer>, root_log: bool) -> Vec<Committer> {
    let mut root_writers = waiting.iter().enumerate().filter(|(_, c)| !c.structs.is_empty());
    let cut = match (root_log, root_writers.nth(1)) {
        (true, Some((second, _))) => second,
        _ => waiting.len(),
    };
    waiting.drain(..cut).collect()
}

/// A leader's hold on the commit queue. Dropping it posts the batch's
/// outcome to every member and hands the lead on — also when the batch
/// panicked, which stops the database (the store may hold part of the
/// batch) instead of leaving every committer waiting for a leader that
/// is gone.
struct Leader<'a> {
    db: &'a Database,
    batch: Vec<Committer>,
    /// Set once the batch ran to an outcome; `None` on unwind.
    outcome: Option<Result<()>>,
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        let outcome = self.outcome.take().unwrap_or_else(|| {
            let e = StorageError::Internal("a commit batch panicked".into());
            Err(self.db.stopped.get_or_init(|| e).clone())
        });
        let mut queue = self.db.lock_commits();
        queue.done.extend(self.batch.iter().map(|c| (c.txn, outcome.clone())));
        queue.leading = false;
        // Everyone asleep is a member of this batch or still queued; a
        // lone committer wakes nobody.
        if self.batch.len() > 1 || !queue.waiting.is_empty() {
            self.db.batch_done.notify_all();
        }
    }
}

/// A record locator: logical page + slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    pub pid: u64,
    pub slot: u16,
}

impl RecordId {
    pub fn new(pid: u64, slot: u16) -> RecordId {
        RecordId { pid, slot }
    }

    /// Pack into a u64 (B+-tree value encoding).
    ///
    /// Only 48 bits are available for the page id — a pid at or above
    /// 2^48 would silently collide with another record's encoding.
    pub fn to_u64(self) -> u64 {
        debug_assert!(
            self.pid < 1 << 48,
            "RecordId pid {} exceeds the 48-bit encoding range",
            self.pid
        );
        (self.pid << 16) | self.slot as u64
    }

    pub fn from_u64(v: u64) -> RecordId {
        RecordId { pid: v >> 16, slot: (v & 0xFFFF) as u16 }
    }
}

/// A transaction handle (see [`Database::begin`]).
pub type TxnId = u64;

/// What a [`Database::commit`] guarantees.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Durability {
    /// Commit releases the transaction's pages back to ordinary lazy
    /// eviction: atomic in memory (abort restores pre-images), but a
    /// crash rolls back to the last write-through, exactly as before the
    /// `pdl-txn` subsystem. This is the paper's own setting. A committed
    /// page keeps its pre-image for the write-back, which hands it to the
    /// store ([`PageStore::evict_held`]): PDL then stages the page
    /// without reading its base back.
    #[default]
    Relaxed,
    /// Commit hands every dirtied page to the store as one
    /// [`pdl_core::CommitBatch`]: all-or-nothing across a crash (on PDL;
    /// other methods degrade to write-through durability without
    /// atomicity).
    Commit,
}

/// A structure rebuilt from the store's checkpointed root log (see
/// [`Database::recover_structures`]), already registered in the
/// database's structure-root registry.
pub enum RecoveredStructure {
    BTree(BTree),
    Heap(HeapFile),
}

impl RecoveredStructure {
    /// Unwrap a recovered B+-tree (panics on a heap entry — recovery
    /// order is registration order, so callers know which is which).
    pub fn into_btree(self) -> BTree {
        match self {
            RecoveredStructure::BTree(t) => t,
            RecoveredStructure::Heap(_) => panic!("recovered structure is a heap, not a b+-tree"),
        }
    }

    /// Unwrap a recovered heap file (panics on a B+-tree entry).
    pub fn into_heap(self) -> HeapFile {
        match self {
            RecoveredStructure::Heap(h) => h,
            RecoveredStructure::BTree(_) => panic!("recovered structure is a b+-tree, not a heap"),
        }
    }
}

/// The logical-page allocator, behind one lock: a monotonic frontier
/// plus a free list fed by rolled-back structured allocations.
struct AllocState {
    next_pid: u64,
    /// Pids reclaimed from rolled-back structured allocations, reissued
    /// before the monotonic frontier advances.
    free_pids: Vec<u64>,
    /// Pages each open transaction allocated, as `(pid, structured)`.
    txn_allocs: HashMap<TxnId, Vec<(u64, bool)>>,
    /// Raw-allocation pids stranded by rollbacks so far (the
    /// [`BufferStats::leaked_pids`] gauge).
    leaked: u64,
}

/// An empty frame cache of `frames` pages over `store`, pinning
/// transactions' pages when commits are durable.
fn new_frame_cache(store: &dyn PageStore, frames: usize, durability: Durability) -> FrameCache {
    let opts = store.options();
    let mut cache = FrameCache::new(
        frames,
        store.logical_page_size(),
        opts.snapshot_version_cap as usize,
        store.consumes_updates(),
    );
    cache.set_pin_owned(durability == Durability::Commit);
    cache
}

/// A database: buffer pool + MVCC read views + logical-page allocator +
/// transactions.
///
/// All of it behind `&self`: readers, writers and transaction control
/// are safe to call from any number of threads (`Database: Sync`). The
/// cache, the store and the MVCC registry each sit behind their own
/// mutex (lock order: see `buffer.rs`).
pub struct Database {
    /// Process-unique identity, validating the per-thread
    /// `current_txn` cache.
    id: u64,
    store: Mutex<Box<dyn PageStore>>,
    cache: Mutex<FrameCache>,
    mvcc: Mutex<MvccState>,
    /// Open read views: lets an auto-committed command skip the MVCC
    /// registry when no view could need its pre-image.
    active_views: AtomicUsize,
    page_size: usize,
    /// Per-page latches for structural writers (crab-walk descents).
    latches: LatchTable,
    /// Host-clock recorder: the latch-wait and commit-lock-wait
    /// histograms plus the structural-operation spans.
    /// Recording only when `obs`.
    pool_obs: Mutex<pdl_obs::Recorder>,
    /// Host-clock epoch `pool_obs` times against.
    obs_epoch: Instant,
    /// Shard count of the store — the lane structural spans are
    /// attributed to (`pid % num_shards`, the shard mapping).
    num_shards: u32,
    alloc: Mutex<AllocState>,
    max_pages: u64,
    durability: Durability,
    next_txn: AtomicU64,
    /// Open transactions, keyed by the thread that opened them: at most
    /// one per thread, so `with_page_mut` can attribute mutations without
    /// threading a handle through every call. The source of truth for
    /// `begin` / `commit` / `abort`; page accesses read the thread's
    /// cached copy.
    open_txns: Mutex<HashMap<ThreadId, TxnId>>,
    /// Each open transaction's uncommitted structural changes (B+-tree
    /// roots, heap page lists), keyed by [`StructId`]: published into the
    /// structure-root log at the commit timestamp, discarded on
    /// abort. Current-state reads on the owning thread see them
    /// (read-your-writes, like the in-place frame mutations); snapshot
    /// reads never do.
    txn_structs: Mutex<HashMap<TxnId, HashMap<StructId, StructRoot>>>,
    /// Bumped on every rollback (abort or failed durable commit):
    /// lets heap handles invalidate their free-space estimates, which a
    /// rollback can leave *under*-estimating restored space.
    abort_epoch: AtomicU64,
    /// Durable commits waiting for a batch (see [`Database::commit`]).
    commits: Mutex<CommitQueue>,
    /// Signalled when a leader finishes a batch.
    batch_done: Condvar,
    /// Commit latency on the simulated clock (`CommitSolo` /
    /// `CommitGroup` histograms and one `commit` span per batch);
    /// recording only when `obs`.
    commit_obs: Mutex<pdl_obs::Recorder>,
    /// `StoreOptions::obs` of the store, asked once at construction.
    obs: bool,
    /// The store error behind a `CommitError::Failed`: the batch was
    /// opened, recovery may judge that transaction committed, so it can
    /// be neither rolled back nor confirmed. The database stops, and
    /// every later `begin` / `commit` reports this error. Empty — one
    /// atomic load to find out — on a healthy database.
    stopped: OnceLock<StorageError>,
    /// Whether the store persists structure roots
    /// ([`PageStore::struct_roots`]), asked once at construction.
    has_root_log: bool,
}

impl Database {
    /// Wrap a page store with a buffer of `buffer_pages` pages.
    ///
    /// On a store carrying a checkpointed root log
    /// ([`pdl_core::PageStore::struct_roots`]), the allocation frontier
    /// auto-initializes past every persisted structure page, so a
    /// recovered database never reissues a pid a recovered structure
    /// still references.
    pub fn new(store: Box<dyn PageStore>, buffer_pages: usize) -> Database {
        let max_pages = store.options().num_logical_pages;
        let next_txn = store.txn_id_floor();
        let persisted = store.struct_roots();
        let has_root_log = persisted.is_some();
        let next_pid = persisted.map_or(0, |snap| {
            let past_entries =
                snap.entries.iter().flat_map(|e| e.pids.iter().map(|p| p + 1)).max().unwrap_or(0);
            snap.next_pid.max(past_entries)
        });
        let obs = store.options().obs;
        let recorder = || {
            let mut rec = pdl_obs::Recorder::disabled();
            if obs {
                rec.enable(pdl_obs::DEFAULT_SPAN_CAPACITY);
            }
            Mutex::new(rec)
        };
        let page_size = store.logical_page_size();
        let cache = new_frame_cache(&*store, buffer_pages, Durability::Relaxed);
        Database {
            id: NEXT_DB_ID.fetch_add(1, Ordering::Relaxed),
            num_shards: store.num_shards().max(1) as u32,
            store: Mutex::new(store),
            cache: Mutex::new(cache),
            mvcc: Mutex::new(MvccState::default()),
            active_views: AtomicUsize::new(0),
            page_size,
            latches: LatchTable::new(),
            pool_obs: recorder(),
            obs_epoch: Instant::now(),
            alloc: Mutex::new(AllocState {
                next_pid,
                free_pids: Vec::new(),
                txn_allocs: HashMap::new(),
                leaked: 0,
            }),
            max_pages,
            durability: Durability::Relaxed,
            next_txn: AtomicU64::new(next_txn),
            open_txns: Mutex::new(HashMap::new()),
            txn_structs: Mutex::new(HashMap::new()),
            abort_epoch: AtomicU64::new(0),
            commits: Mutex::new(CommitQueue::default()),
            batch_done: Condvar::new(),
            commit_obs: recorder(),
            obs,
            stopped: OnceLock::new(),
            has_root_log,
        }
    }

    /// Wrap a store whose first `allocated` pages are already in use
    /// (a recovered store without a root log). The frontier never falls
    /// below the one [`Database::new`] derives from the store's root log.
    pub fn new_with_allocated(
        store: Box<dyn PageStore>,
        buffer_pages: usize,
        allocated: u64,
    ) -> Database {
        let db = Database::new(store, buffer_pages);
        let mut alloc = db.lock_alloc();
        alloc.next_pid = alloc.next_pid.max(allocated);
        drop(alloc);
        db
    }

    /// Choose the commit guarantee (default: [`Durability::Relaxed`]).
    pub fn with_durability(mut self, durability: Durability) -> Database {
        self.durability = durability;
        self.lock_cache().set_pin_owned(durability == Durability::Commit);
        self
    }

    pub fn durability(&self) -> Durability {
        self.durability
    }

    fn lock_alloc(&self) -> MutexGuard<'_, AllocState> {
        self.alloc.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn lock_cache(&self) -> MutexGuard<'_, FrameCache> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_mvcc(&self) -> MutexGuard<'_, MvccState> {
        self.mvcc.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fail-stop check (see the `stopped` field).
    fn check_stopped(&self) -> Result<()> {
        self.stopped.get().map_or(Ok(()), |e| Err(e.clone()))
    }

    fn lock_open_txns(&self) -> MutexGuard<'_, HashMap<ThreadId, TxnId>> {
        self.open_txns.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_txn_structs(&self) -> MutexGuard<'_, HashMap<TxnId, HashMap<StructId, StructRoot>>> {
        self.txn_structs.lock().unwrap_or_else(|e| e.into_inner())
    }

    // ------------------------------------------------------------------
    // Transactions (pdl-txn): at most one open transaction per *thread*;
    // every `with_page_mut` on that thread between begin and
    // commit/abort is tracked against it.
    // ------------------------------------------------------------------

    /// Open a transaction on the calling thread. Until
    /// [`Database::commit`] or [`Database::abort`] (on the same thread),
    /// every mutation is tagged with the returned id, its first touch of
    /// a page snapshots the pre-image, and (in [`Durability::Commit`]
    /// mode) its dirty pages are pinned in the cache.
    pub fn begin(&self) -> Result<TxnId> {
        self.check_stopped()?;
        let me = std::thread::current().id();
        let mut open = self.lock_open_txns();
        if open.contains_key(&me) {
            return Err(StorageError::TxnState(
                "a transaction is already open on this thread".into(),
            ));
        }
        let txn = self.next_txn.fetch_add(1, Ordering::SeqCst);
        open.insert(me, txn);
        THREAD_TXN.set((self.id, Some(txn)));
        Ok(txn)
    }

    /// The calling thread's open transaction, if any. Every page access
    /// asks, so the answer comes from the thread's own cache (see
    /// `THREAD_TXN`) and takes no lock unless the thread last used
    /// another database.
    pub fn current_txn(&self) -> Option<TxnId> {
        let (db, txn) = THREAD_TXN.get();
        if db == self.id {
            return txn;
        }
        let txn = self.lock_open_txns().get(&std::thread::current().id()).copied();
        THREAD_TXN.set((self.id, txn));
        txn
    }

    /// Close the calling thread's transaction entry, returning its id.
    fn take_thread_txn(&self, what: &str) -> Result<TxnId> {
        let taken = self.lock_open_txns().remove(&std::thread::current().id());
        THREAD_TXN.set((self.id, None));
        taken.ok_or_else(|| StorageError::TxnState(format!("{what} without an open transaction")))
    }

    /// Commit the calling thread's transaction according to the
    /// configured [`Durability`].
    ///
    /// A durable commit goes through the **group-commit queue**. The
    /// committer copies out its pages and queues; if no batch is running
    /// it becomes the leader: while other transactions are open it first
    /// yields a few times (the gather phase), then takes every waiting
    /// committer, in arrival order, into one [`CommitBatch`] (one
    /// structure-root snapshot for the whole batch), hands it to the
    /// store in one call and publishes every member at one commit
    /// timestamp. A committer that arrives while a batch runs rides the
    /// next one. Per shard, a batch's differentials share flash pages and
    /// its commit records share one flush — the commit-time batching of
    /// Adaptive Logging (Yao et al.).
    /// A batch of one is exactly the solo commit.
    pub fn commit(&self) -> Result<()> {
        let txn = self.take_thread_txn("commit")?;
        let structs: Vec<(StructId, StructRoot)> = self
            .lock_txn_structs()
            .remove(&txn)
            .map(|m| m.into_iter().collect())
            .unwrap_or_default();
        if self.durability == Durability::Relaxed {
            self.clear_allocs(txn);
            self.publish_commit(&[txn], structs, false);
            return Ok(());
        }
        let pages = self.lock_cache().collect_owned(txn);
        if pages.is_empty() && (structs.is_empty() || !self.has_root_log) {
            // Read-only (or no root log): nothing to make durable.
            self.check_stopped()?;
            self.clear_allocs(txn);
            self.publish_commit(&[txn], structs, false);
            return Ok(());
        }
        let queued_at = self.obs_now_us();
        let mut queue = self.lock_commits();
        queue.waiting.push(Committer { txn, structs, pages, queued_at });
        loop {
            if let Some(outcome) = queue.done.remove(&txn) {
                return outcome;
            }
            if queue.leading {
                queue = self.batch_done.wait(queue).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            queue.leading = true;
            if !self.lock_open_txns().is_empty() {
                // Gather: other transactions are open, and a few yields
                // let those about to commit queue for this batch even
                // when cores are scarce. A lone transaction skips it.
                drop(queue);
                for _ in 0..4 {
                    std::thread::yield_now();
                }
                queue = self.lock_commits();
            }
            let batch = next_batch(&mut queue.waiting, self.has_root_log);
            drop(queue);
            let mut leader = Leader { db: self, batch, outcome: None };
            leader.outcome = Some(self.run_batch(&leader.batch));
            drop(leader);
            queue = self.lock_commits();
        }
    }

    fn lock_commits(&self) -> MutexGuard<'_, CommitQueue> {
        self.commits.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Committers queued behind the running batch.
    #[cfg(test)]
    pub(crate) fn queued_commits(&self) -> usize {
        self.lock_commits().waiting.len()
    }

    /// A leader holds the lead: it is gathering or running a batch.
    #[cfg(test)]
    pub(crate) fn batch_running(&self) -> bool {
        self.lock_commits().leading
    }

    /// Run one group-commit batch (the leader's half of
    /// [`Database::commit`]); the outcome is every member's.
    fn run_batch(&self, batch: &[Committer]) -> Result<()> {
        for c in batch {
            self.record_wait(pdl_obs::LatencyClass::CommitLockWait, c.queued_at);
        }
        self.check_stopped()?;
        let txns: Vec<TxnId> = batch.iter().map(|c| c.txn).collect();
        // In arrival order: where two members moved one structure, the
        // root snapshot and the registry both keep the later move.
        let structs: Vec<(StructId, StructRoot)> =
            batch.iter().flat_map(|c| c.structs.iter().cloned()).collect();
        // The root snapshot is taken by the one leader, so two batches
        // that each moved a root cannot hand over a record carrying the
        // other's stale one. Its record is proven by the commit record of
        // the member that changed a structure (`next_batch` admits one).
        let roots = self.durable_roots(&structs);
        let root_txn = batch.iter().find(|c| !c.structs.is_empty()).map_or(txns[0], |c| c.txn);
        let staged = CommitBatch {
            pages: batch.iter().flat_map(|c| c.pages.iter().map(|p| p.batch_page(c.txn))).collect(),
            roots: roots.as_ref().map(|r| (r, root_txn)),
        };
        match self.store_commit(&staged, &txns) {
            Ok(()) => {
                txns.iter().for_each(|&t| self.clear_allocs(t));
                self.publish_commit(&txns, structs, true);
                Ok(())
            }
            Err(CommitError::Rejected(e)) => {
                // Nothing reached the store: roll every member's frames
                // back to their pre-images and report the transactions
                // failed (`structs` is dropped unpublished).
                for &t in &txns {
                    let _ = self.rollback(t);
                    self.rollback_allocs(t);
                    self.abort_epoch.fetch_add(1, Ordering::SeqCst);
                }
                Err(e.into())
            }
            Err(CommitError::Failed(e)) => {
                // Not an abort: rolling back would hand the batch's pids
                // to the next writer while recovery may keep its pages.
                // Only a leader gets here, one at a time, after
                // `check_stopped` passed: this is the first and only set.
                let e = StorageError::from(e);
                let _ = self.stopped.set(e.clone());
                Err(e)
            }
        }
    }

    /// [`PageStore::commit_batch`], with the batch's commit latency
    /// recorded when observability is on: the largest advance of any
    /// chip's simulated clock across the call (the busiest chip's serial
    /// flash time) is one `CommitSolo` or `CommitGroup` sample per
    /// member, and the batch is one `commit` span.
    fn store_commit(
        &self,
        batch: &CommitBatch<'_>,
        txns: &[TxnId],
    ) -> std::result::Result<(), CommitError> {
        if !self.obs {
            return self.with_store(|store| store.commit_batch(batch));
        }
        let clocks = |store: &dyn PageStore| {
            let mut now = Vec::new();
            store.for_each_chip(&mut |c| now.push(c.sim_now_us()));
            now
        };
        let (result, start_us, sample) = self.with_store(|store| {
            let before = clocks(store);
            let result = store.commit_batch(batch);
            let after = clocks(store);
            let start_us = before.iter().copied().max().unwrap_or(0);
            let sample = after.iter().zip(&before).map(|(a, b)| a - b).max().unwrap_or(0);
            (result, start_us, sample)
        });
        if result.is_ok() {
            let (class, ctx) = match txns.len() {
                1 => (pdl_obs::LatencyClass::CommitSolo, "solo"),
                _ => (pdl_obs::LatencyClass::CommitGroup, "group"),
            };
            let mut rec = self.commit_obs.lock().unwrap_or_else(|e| e.into_inner());
            for _ in txns {
                rec.record(class, sample);
            }
            rec.push_span(pdl_obs::Span {
                name: "commit",
                ctx,
                lane: 0,
                start_us,
                dur_us: sample,
                block: txns.len() as u64,
                id: txns.iter().copied().min().unwrap_or(0),
            });
        }
        result
    }

    /// Publish a commit of `txns` at one commit timestamp: allocate it
    /// and publish `structs` (their structural changes) under the
    /// registry lock, then close every transaction — pending pre-images
    /// become committed versions where a read view predates the commit,
    /// frames lose their owner — all under one hold of the cache mutex.
    /// A view that registers meanwhile reads at the new clock, and its
    /// first read waits for the cache mutex: it sees the whole commit,
    /// never one page of it before another. `durable`: the images are on
    /// flash and the frames become clean; otherwise (relaxed durability)
    /// they stay dirty and reach flash by ordinary eviction.
    fn publish_commit(&self, txns: &[TxnId], structs: Vec<(StructId, StructRoot)>, durable: bool) {
        let mut cache = self.lock_cache();
        let (ts, floor) = {
            let mut m = self.lock_mvcc();
            let (ts, retain) = m.alloc_commit();
            for (id, root) in structs {
                m.publish_struct(id, retain.then_some(ts), root);
            }
            (retain.then_some(ts), m.floor())
        };
        for &txn in txns {
            cache.end_txn(txn, ts, durable, floor);
        }
    }

    /// Restore every page `txn` touched to its pre-image.
    fn rollback(&self, txn: TxnId) -> Result<()> {
        self.lock_cache().rollback(&mut StoreBackend(&self.store), txn)
    }

    /// Abort the calling thread's transaction: every touched page
    /// returns to its pre-image (the base page plus the last committed
    /// differential, as cached at first touch), and every structural
    /// change the transaction made — B+-tree splits, heap-file growth —
    /// is undone with them: the pending root publications are discarded,
    /// so registered handles resolve the last *committed* root/page list
    /// again (physiological structural undo: the pages hold the restored
    /// bytes, the root log holds the restored shape).
    ///
    /// Pages the transaction allocated through
    /// [`Database::alloc_page_structured`] return to the allocator's free
    /// list: their only references — page bytes and pending root
    /// publications — are undone with the rollback, so reissuing them
    /// cannot alias two structures onto one page. Raw
    /// [`Database::alloc_page`] pids are *not* reissued (the caller may
    /// hold them outside any registered structure); they are stranded and
    /// counted in the [`BufferStats::leaked_pids`] gauge, so the once
    /// silent leak is at least observable.
    pub fn abort(&self) -> Result<()> {
        let txn = self.take_thread_txn("abort")?;
        self.lock_txn_structs().remove(&txn);
        self.abort_epoch.fetch_add(1, Ordering::SeqCst);
        let r = self.rollback(txn);
        self.rollback_allocs(txn);
        r
    }

    /// Forget a committed transaction's allocation log.
    fn clear_allocs(&self, txn: TxnId) {
        self.lock_alloc().txn_allocs.remove(&txn);
    }

    /// Undo a transaction's page allocations on a rollback path:
    /// structured pids go back to the free list, raw pids are stranded
    /// but counted.
    fn rollback_allocs(&self, txn: TxnId) {
        let mut alloc = self.lock_alloc();
        for (pid, structured) in alloc.txn_allocs.remove(&txn).unwrap_or_default() {
            if structured {
                alloc.free_pids.push(pid);
            } else {
                alloc.leaked += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // MVCC read views
    // ------------------------------------------------------------------

    /// Open a snapshot of the whole page space at the current commit
    /// clock: commits after this point — including any open
    /// transaction's eventual commit — are invisible through the view.
    pub fn begin_read(&self) -> ReadView {
        let ts = self.lock_mvcc().register_view();
        self.active_views.fetch_add(1, Ordering::SeqCst);
        ReadView::new(ts)
    }

    /// Release a view, pruning every version no remaining reader needs.
    pub fn release_read(&self, view: ReadView) {
        let floor = self.lock_mvcc().deregister_view(view.read_ts());
        self.active_views.fetch_sub(1, Ordering::SeqCst);
        self.lock_cache().prune_committed(floor);
    }

    /// Open a leak-proof snapshot: the returned guard releases the view
    /// when dropped, so a `?` mid-scan (e.g. on
    /// [`StorageError::SnapshotTooOld`]) or a panic can never leak the
    /// view and freeze the version-retention floor.
    pub fn read_view(&self) -> ReadGuard<'_> {
        ReadGuard::new(self)
    }

    /// Run `f` under a freshly opened view, releasing it on every exit
    /// path — the recommended shape for whole-scan read-only
    /// transactions.
    pub fn with_read_view<R>(&self, f: impl FnOnce(&ReadView) -> R) -> R {
        let guard = self.read_view();
        f(guard.view())
    }

    /// Snapshot read of one page as of `view`.
    pub fn with_page_at<R>(
        &self,
        view: &ReadView,
        pid: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        self.lock_cache().with_page_at(&mut StoreBackend(&self.store), pid, view.read_ts(), f)
    }

    /// A [`PageRead`] adapter over `view`: hand it to the read entry
    /// points (`BTree::get_at`, `HeapFile::get_at`, ...) to run a whole
    /// scan against one frozen snapshot.
    pub fn snapshot<'a>(&'a self, view: &'a ReadView) -> DbSnapshot<'a> {
        DbSnapshot { db: self, view }
    }

    // ------------------------------------------------------------------
    // Structure-root log: registered structures (B+-trees, heap files)
    // version their root state through the commit clock, so stale
    // handles and snapshot scans always resolve the right shape.
    // ------------------------------------------------------------------

    /// Register a structure at its creation-time state. A view opened
    /// *before* the structure was created is not snapshot-safe for it
    /// (its pages read as their pre-creation bytes).
    pub fn register_struct(&self, root: StructRoot) -> StructId {
        self.lock_mvcc().register_struct(root)
    }

    /// The structure's state as the calling thread sees it: its open
    /// transaction's pending change if any, else the last committed
    /// state.
    pub fn struct_current(&self, id: StructId) -> Option<StructRoot> {
        if let Some(txn) = self.current_txn() {
            if let Some(root) = self.lock_txn_structs().get(&txn).and_then(|m| m.get(&id)) {
                return Some(root.clone());
            }
        }
        self.lock_mvcc().struct_current(id)
    }

    /// [`Database::struct_current`] gated on a generation counter: `None`
    /// when the committed state has not changed since generation `seen`
    /// (and the calling thread's transaction, if any, has no pending
    /// change for `id`), sparing mirroring handles the clone on their hot
    /// path.
    pub fn struct_current_if_newer(&self, id: StructId, seen: u64) -> Option<(u64, StructRoot)> {
        if let Some(txn) = self.current_txn() {
            if self.lock_txn_structs().get(&txn).is_some_and(|m| m.contains_key(&id)) {
                // A pending change exists — and only the handle that made
                // it sees it, so the caller's mirror already reflects it;
                // the commit will bump the committed generation and
                // trigger a re-fetch, an abort bumps the rollback epoch
                // which resets the caller's generation.
                return None;
            }
        }
        self.lock_mvcc().struct_current_if_newer(id, seen)
    }

    /// Record a structural change. Inside the calling thread's
    /// transaction it stays pending (visible to this thread, published at
    /// commit, discarded on abort); outside one it auto-commits onto the
    /// root log immediately: the change rides the commit clock as of now
    /// — every page command it consisted of has already allocated its
    /// commit timestamp, so views opened before the change resolve the
    /// superseded pre-state.
    pub fn publish_struct(&self, id: StructId, root: StructRoot) {
        match self.current_txn() {
            Some(txn) => {
                self.lock_txn_structs().entry(txn).or_default().insert(id, root);
            }
            None => {
                let mut m = self.lock_mvcc();
                let ts = m.clock;
                let retain = !m.active.is_empty();
                m.publish_struct(id, retain.then_some(ts), root);
            }
        }
    }

    /// Rollbacks (aborts and failed durable commits) so far — heap
    /// handles watch this to invalidate free-space estimates a rollback
    /// made stale.
    pub fn abort_epoch(&self) -> u64 {
        self.abort_epoch.load(Ordering::SeqCst)
    }

    /// Structure-root pre-states currently retained (diagnostics/tests).
    pub fn retained_struct_versions(&self) -> usize {
        self.lock_mvcc().retained_struct_versions()
    }

    /// Retained committed page versions (diagnostics/tests).
    pub fn retained_versions(&self) -> usize {
        self.lock_cache().retained_versions()
    }

    /// Build the durable root-log record a committing transaction
    /// stages: every registered structure's committed state, overlaid
    /// with the transaction's own pending structural changes, plus the
    /// allocation frontier. `None` when the transaction changed no
    /// structure (the previously staged snapshot stays authoritative) or
    /// the backing store has no root log.
    fn durable_roots(&self, structs: &[(StructId, StructRoot)]) -> Option<StructRootsSnapshot> {
        if structs.is_empty() || !self.has_root_log {
            return None;
        }
        let mut roots = self.lock_mvcc().current_roots();
        for (id, root) in structs {
            match roots.binary_search_by_key(id, |(i, _)| *i) {
                Ok(at) => roots[at].1 = root.clone(),
                Err(at) => roots.insert(at, (*id, root.clone())),
            }
        }
        let next_pid = self.lock_alloc().next_pid;
        let entries = roots
            .into_iter()
            .map(|(id, root)| match root {
                StructRoot::BTree { root } => {
                    StructRootEntry { id, kind: StructRootEntry::KIND_BTREE, pids: vec![root] }
                }
                StructRoot::Heap { pages } => {
                    StructRootEntry { id, kind: StructRootEntry::KIND_HEAP, pids: pages }
                }
            })
            .collect();
        Some(StructRootsSnapshot { next_pid, entries })
    }

    /// Rebuild every structure persisted in the store's checkpointed
    /// root log, in registration order (ascending stored id), each
    /// re-registered in this database's structure-root registry. This is
    /// the self-contained recovery path: no externally remembered root
    /// pids, no `attach`.
    pub fn recover_structures(&self) -> Vec<RecoveredStructure> {
        let Some(snap) = self.with_store(|s| s.struct_roots()) else {
            return Vec::new();
        };
        let mut entries = snap.entries;
        entries.sort_unstable_by_key(|e| e.id);
        entries
            .into_iter()
            .map(|e| match e.kind {
                StructRootEntry::KIND_HEAP => {
                    RecoveredStructure::Heap(HeapFile::attach(self, e.pids))
                }
                _ => RecoveredStructure::BTree(BTree::attach(
                    self,
                    e.pids.first().copied().unwrap_or(0),
                )),
            })
            .collect()
    }

    /// Fold the store's durable state — including the structure-root
    /// log — into a fresh checkpoint (PDL §4.5's fuzzy checkpoint; a
    /// no-op on methods without one).
    pub fn checkpoint(&self) -> Result<()> {
        Ok(self.with_store(|s| s.checkpoint())?)
    }

    /// Allocate the next logical page for a caller that may keep the pid
    /// anywhere — including outside every registered structure. If the
    /// calling thread's transaction rolls back, such a pid cannot be
    /// reissued safely and is stranded (see [`BufferStats::leaked_pids`]);
    /// allocations owned by a registered structure should use
    /// [`Database::alloc_page_structured`] instead.
    pub fn alloc_page(&self) -> Result<u64> {
        self.alloc_inner(false)
    }

    /// Allocate a logical page whose only references will be page bytes
    /// and structure-root publications — both undone by a rollback — so
    /// an abort (or failed durable commit) can safely return the pid to
    /// the free list for reissue. B+-tree splits and heap-file growth
    /// allocate here.
    pub fn alloc_page_structured(&self) -> Result<u64> {
        self.alloc_inner(true)
    }

    fn alloc_inner(&self, structured: bool) -> Result<u64> {
        let txn = self.current_txn();
        let mut alloc = self.lock_alloc();
        let pid = match alloc.free_pids.pop() {
            Some(pid) => pid,
            None => {
                if alloc.next_pid >= self.max_pages {
                    return Err(StorageError::OutOfPages);
                }
                let pid = alloc.next_pid;
                alloc.next_pid += 1;
                pid
            }
        };
        if let Some(txn) = txn {
            alloc.txn_allocs.entry(txn).or_default().push((pid, structured));
        }
        Ok(pid)
    }

    /// Pages allocated so far (the "database size" of Experiment 7): the
    /// allocation frontier, counting stranded and free-listed pids too.
    pub fn allocated_pages(&self) -> u64 {
        self.lock_alloc().next_pid
    }

    /// Raw-allocation pids stranded by rollbacks so far (the same value
    /// the [`BufferStats::leaked_pids`] gauge reports).
    pub fn leaked_pages(&self) -> u64 {
        self.lock_alloc().leaked
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Read access to the current image of a page (`&self`: concurrent
    /// readers are expressible in the type system).
    pub fn with_page<R>(&self, pid: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.lock_cache().with_page(&mut StoreBackend(&self.store), pid, f)
    }

    /// Mutable page access. The closure's writes through [`PageMut`]
    /// form **one update command**: after it returns, the recorded ranges
    /// are reported to the page store (tightly-coupled methods write their
    /// update logs here). The command is tracked against the calling
    /// thread's open transaction, if any (versioning happens at commit);
    /// without one it auto-commits, and its pre-image joins the page's
    /// version chain when an open read view predates it. A page dirtied
    /// by *another* uncommitted transaction fails with
    /// [`StorageError::TxnConflict`].
    pub fn with_page_mut<R>(&self, pid: u64, f: impl FnOnce(&mut PageMut) -> R) -> Result<R> {
        let (txn, vsrc): (TxnId, &dyn VersionSource) = match self.current_txn() {
            Some(txn) => (txn, &NoVersioning),
            None => (NO_TXN, self),
        };
        self.lock_cache().with_page_mut_txn(&mut StoreBackend(&self.store), pid, txn, vsrc, f)
    }

    /// Structural-descent read: like [`Database::with_page`], but fails
    /// with [`StorageError::TxnConflict`] when the page is dirty and
    /// owned by *another* uncommitted transaction. A structural writer
    /// must never navigate a shape another transaction changed but has
    /// not committed — the change may still be rolled back, and
    /// descending its half-published geometry could route an insert into
    /// the wrong subtree. The check and the read happen under one
    /// acquisition of the cache mutex.
    pub fn with_page_struct<R>(&self, pid: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let txn = self.current_txn().unwrap_or(NO_TXN);
        self.lock_cache().with_page_struct(&mut StoreBackend(&self.store), pid, txn, f)
    }

    /// Acquire the latch on logical page `pid`, blocking while another
    /// thread holds it; the latch releases on drop. Structural writers
    /// (B+-tree crab-walk descents, heap growth) couple through these;
    /// readers never take them. Lock order: latches are acquired strictly
    /// root-to-leaf (and left-to-right along the leaf chain), and the
    /// cache/store/MVCC mutexes are only taken *under* a latch, never the
    /// other way round.
    pub fn latch_page(&self, pid: u64) -> PageLatch<'_> {
        let wait_from = self.obs_now_us();
        let (latch, waited) = self.latches.latch(pid);
        if waited {
            self.record_wait(pdl_obs::LatencyClass::LatchWait, wait_from);
        }
        latch
    }

    /// Host-clock µs since the observability epoch (`None` when
    /// observability is off — the one branch disabled recording costs).
    fn obs_now_us(&self) -> Option<u64> {
        self.obs.then(|| self.obs_epoch.elapsed().as_micros() as u64)
    }

    fn lock_pool_obs(&self) -> MutexGuard<'_, pdl_obs::Recorder> {
        self.pool_obs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record the host-clock time since `start_us` (from `obs_now_us`) as
    /// one `class` sample; a no-op when `start_us` is `None`.
    fn record_wait(&self, class: pdl_obs::LatencyClass, start_us: Option<u64>) {
        let Some(start_us) = start_us else { return };
        let end_us = self.obs_epoch.elapsed().as_micros() as u64;
        self.lock_pool_obs().record(class, end_us.saturating_sub(start_us));
    }

    /// Host-clock µs for a structural span's start (`None` with
    /// observability off; pass it straight to [`Database::struct_span`]).
    pub fn struct_span_start(&self) -> Option<u64> {
        self.obs_now_us()
    }

    /// Record a structural-operation span (`split`, `root-publish`, ...)
    /// attributed to `pid`, the calling thread's transaction and the
    /// pid's shard (`pid % num_shards`), so a trace shows concurrent
    /// descents as parallel lanes. No-op when `start_us` is `None`.
    pub fn struct_span(&self, name: &'static str, pid: u64, start_us: Option<u64>) {
        let Some(start_us) = start_us else { return };
        let end_us = self.obs_epoch.elapsed().as_micros() as u64;
        let span = pdl_obs::Span {
            name,
            ctx: "struct",
            lane: (pid % self.num_shards as u64) as u32,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            block: self.current_txn().unwrap_or(0),
            id: pid,
        };
        self.lock_pool_obs().push_span(span);
    }

    pub fn buffer_stats(&self) -> BufferStats {
        let mut stats = self.lock_cache().stats();
        stats.active_views = self.active_views.load(Ordering::SeqCst) as u64;
        stats.leaked_pids = self.lock_alloc().leaked;
        stats
    }

    /// Flash statistics of the underlying chip.
    pub fn io_stats(&self) -> FlashStats {
        self.with_store(|s| s.stats())
    }

    /// Whether observability recording is on (set by `StoreOptions::obs`).
    pub fn obs_enabled(&self) -> bool {
        self.obs
    }

    /// Every chip's recorder snapshot, shard order.
    fn chip_snapshots(&self) -> Vec<pdl_obs::RecorderSnapshot> {
        let mut snaps = Vec::new();
        self.with_store(|s| s.for_each_chip(&mut |c| snaps.push(c.recorder().snapshot())));
        snaps
    }

    fn commit_obs_snapshot(&self) -> pdl_obs::RecorderSnapshot {
        self.commit_obs.lock().unwrap_or_else(|e| e.into_inner()).snapshot()
    }

    /// Everything recorded on the simulated clock: every chip's latency
    /// histograms per op class × context, merged, plus the commit-latency
    /// histograms; the spans of every chip, then the commit spans.
    pub fn obs_snapshot(&self) -> pdl_obs::RecorderSnapshot {
        let mut snaps = self.chip_snapshots();
        snaps.push(self.commit_obs_snapshot());
        let mut merged = pdl_obs::RecorderSnapshot::merged(&snaps);
        merged.spans = snaps.into_iter().flat_map(|s| s.spans).collect();
        merged
    }

    /// Snapshot of the pool-side recorder: the `latch_wait` and
    /// `commit_lock_wait` contention histograms plus structural-operation
    /// spans.
    pub fn pool_obs_snapshot(&self) -> pdl_obs::RecorderSnapshot {
        self.lock_pool_obs().snapshot()
    }

    /// Chrome trace-event JSON of the simulated-clock tracks: one per
    /// chip (`chip`, or `shard0`, `shard1`, ... on a sharded store), plus
    /// `commit` once a durable commit has been recorded. Deterministic
    /// for a fixed seed; the host-clock structural track is exported
    /// separately via [`Database::obs_struct_trace_json`].
    pub fn obs_trace_json(&self) -> String {
        let chips = self.chip_snapshots();
        let one_chip = chips.len() == 1;
        let mut tracks: Vec<pdl_obs::TraceTrack> = chips
            .into_iter()
            .enumerate()
            .map(|(i, s)| pdl_obs::TraceTrack {
                name: if one_chip { "chip".to_string() } else { format!("shard{i}") },
                spans: s.spans,
                dropped_spans: s.dropped_spans,
            })
            .collect();
        let commits = self.commit_obs_snapshot();
        if !commits.spans.is_empty() || commits.dropped_spans > 0 {
            tracks.push(pdl_obs::TraceTrack {
                name: "commit".to_string(),
                spans: commits.spans,
                dropped_spans: commits.dropped_spans,
            });
        }
        pdl_obs::chrome_trace(&tracks)
    }

    /// Chrome trace-event JSON of the host-clock structural track
    /// (split / root-publish / heap-grow). Concurrent writers show as
    /// parallel lanes; timestamps are wall-clock, so this export is not
    /// byte-deterministic across runs.
    pub fn obs_struct_trace_json(&self) -> String {
        let pool = self.pool_obs_snapshot();
        let tracks = vec![pdl_obs::TraceTrack {
            name: "struct".to_string(),
            spans: pool.spans,
            dropped_spans: pool.dropped_spans,
        }];
        pdl_obs::chrome_trace(&tracks)
    }

    pub fn reset_io_stats(&self) {
        self.with_store(|s| s.reset_stats());
    }

    /// Method label of the underlying page store.
    pub fn method_name(&self) -> String {
        self.with_store(|s| s.name())
    }

    /// Run `f` against the underlying page store (exclusive: the store
    /// mutex is held for the duration — misses and write-backs wait,
    /// buffer hits do not).
    pub fn with_store<R>(&self, f: impl FnOnce(&mut dyn PageStore) -> R) -> R {
        f(self.store.lock().unwrap_or_else(|e| e.into_inner()).as_mut())
    }

    /// Write every dirty page back and flush the store's buffers
    /// (write-through, the durability point of §4.5).
    pub fn flush(&self) -> Result<()> {
        self.lock_cache().write_back_dirty(&mut StoreBackend(&self.store))?;
        self.with_store(|s| s.flush())?;
        Ok(())
    }

    /// Resize the buffer to `frames` pages: write every dirty page back
    /// and flush, as [`Database::flush`] does, then start over with an
    /// empty frame cache of the new size (and zeroed
    /// [`Database::buffer_stats`] counters). Registered structures,
    /// the allocator and the commit clock carry on unchanged.
    ///
    /// Fails with [`StorageError::TxnState`], changing nothing, while
    /// any transaction or read view is open: their pages and versions
    /// live in the frames.
    pub fn set_buffer_pages(&self, frames: usize) -> Result<()> {
        let mut cache = self.lock_cache();
        if !self.lock_open_txns().is_empty() || self.active_views.load(Ordering::SeqCst) > 0 {
            return Err(StorageError::TxnState(
                "cannot resize the buffer while a transaction or read view is open".into(),
            ));
        }
        cache.write_back_dirty(&mut StoreBackend(&self.store))?;
        self.with_store(|s| s.flush())?;
        *cache = self.with_store(|s| new_frame_cache(s, frames, self.durability));
        Ok(())
    }

    /// Tear down, flushing, and hand back the page store.
    pub fn into_store(self) -> Result<Box<dyn PageStore>> {
        self.flush()?;
        Ok(self.into_store_without_flush())
    }

    /// Tear down *without* flushing (crash simulation: cached dirty
    /// pages and uncommitted transactions are lost, exactly as on a power
    /// failure).
    pub fn into_store_without_flush(self) -> Box<dyn PageStore> {
        self.store.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// Auto-committed update commands take their commit timestamps from the
/// MVCC registry.
impl VersionSource for Database {
    fn capture_hint(&self) -> bool {
        self.active_views.load(Ordering::SeqCst) > 0
    }

    fn commit_ts(&self) -> Option<(u64, u64)> {
        let mut m = self.lock_mvcc();
        let (ts, retain) = m.alloc_commit();
        retain.then(|| (ts, m.floor()))
    }
}

/// Current-state reads: what the read path sees without a view.
impl PageRead for Database {
    fn page_size(&self) -> usize {
        Database::page_size(self)
    }

    fn with_page<R>(&self, pid: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        Database::with_page(self, pid, f)
    }

    fn struct_root(&self, id: StructId) -> Option<StructRoot> {
        // Pending-aware: the open transaction reads its own structural
        // writes, matching the in-place frame mutations it also sees.
        self.struct_current(id)
    }
}

/// A [`ReadView`] bound to its database: every read through it resolves
/// at the view's snapshot timestamp.
pub struct DbSnapshot<'a> {
    db: &'a Database,
    view: &'a ReadView,
}

impl DbSnapshot<'_> {
    pub fn read_ts(&self) -> u64 {
        self.view.read_ts()
    }
}

impl PageRead for DbSnapshot<'_> {
    fn page_size(&self) -> usize {
        self.db.page_size()
    }

    fn with_page<R>(&self, pid: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.db.with_page_at(self.view, pid, f)
    }

    fn struct_root(&self, id: StructId) -> Option<StructRoot> {
        // As of the view: a root moved by a later split resolves to its
        // pre-split pre-state, never to any open transaction's pending
        // changes.
        self.db.lock_mvcc().resolve_struct(id, self.view.read_ts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::{build_store, MethodKind, StoreOptions};
    use pdl_flash::{FlashChip, FlashConfig};

    fn db() -> Database {
        let chip = FlashChip::new(FlashConfig::tiny());
        let store = build_store(chip, MethodKind::Opu, StoreOptions::new(16)).unwrap();
        Database::new(store, 4)
    }

    #[test]
    fn record_id_packs() {
        let rid = RecordId::new(123456, 789);
        assert_eq!(RecordId::from_u64(rid.to_u64()), rid);
    }

    #[test]
    fn record_id_round_trips_at_the_encoding_boundary() {
        let rid = RecordId::new((1 << 48) - 1, u16::MAX);
        assert_eq!(RecordId::from_u64(rid.to_u64()), rid);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "48-bit encoding range"))]
    fn record_id_rejects_oversized_pids_in_debug() {
        // In release builds the assertion compiles out; the encoding is
        // then silently lossy, which is exactly what the debug assertion
        // is there to catch during development.
        let v = RecordId::new(1 << 48, 0).to_u64();
        if cfg!(debug_assertions) {
            unreachable!("debug_assert must have fired");
        }
        assert_eq!(RecordId::from_u64(v).pid, 0, "demonstrates the silent corruption");
    }

    #[test]
    fn database_accepts_a_sharded_store() {
        let store = pdl_core::ShardedStore::with_uniform_chips(
            FlashConfig::tiny(),
            4,
            MethodKind::Pdl { max_diff_size: 128 },
            StoreOptions::new(16),
        )
        .unwrap();
        let d = Database::new(Box::new(store), 4);
        for _ in 0..16 {
            let pid = d.alloc_page().unwrap();
            d.with_page_mut(pid, |p| p.write(0, &[pid as u8 + 1, 0xAB])).unwrap();
        }
        d.flush().unwrap();
        for pid in 0..16u64 {
            let b = d.with_page(pid, |p| p[0]).unwrap();
            assert_eq!(b, pid as u8 + 1);
        }
        // Aggregate I/O stats span all four shard chips.
        assert!(d.io_stats().total().writes >= 16);
        assert!(d.method_name().contains("Sharded x4"));
    }

    #[test]
    fn allocates_until_capacity() {
        let d = db();
        for expect in 0..16u64 {
            assert_eq!(d.alloc_page().unwrap(), expect);
        }
        assert!(matches!(d.alloc_page(), Err(StorageError::OutOfPages)));
        assert_eq!(d.allocated_pages(), 16);
    }

    #[test]
    fn page_round_trip_through_pool() {
        let d = db();
        let pid = d.alloc_page().unwrap();
        d.with_page_mut(pid, |p| p.write(0, b"data")).unwrap();
        d.flush().unwrap();
        let first = d.with_page(pid, |p| p[0]).unwrap();
        assert_eq!(first, b'd');
        assert!(d.io_stats().total().writes > 0);
    }

    #[test]
    fn view_does_not_see_the_open_transactions_writes() {
        let d = db();
        let pid = d.alloc_page().unwrap();
        d.with_page_mut(pid, |p| p.write(0, &[1; 4])).unwrap();
        // A view opened before the transaction must never observe its
        // writes — neither while it is open nor after it commits.
        let view = d.begin_read();
        d.begin().unwrap();
        d.with_page_mut(pid, |p| p.write(0, &[2; 4])).unwrap();
        assert_eq!(d.with_page_at(&view, pid, |p| p[0]).unwrap(), 1, "in-flight writes hidden");
        d.commit().unwrap();
        assert_eq!(d.with_page_at(&view, pid, |p| p[0]).unwrap(), 1, "commit after open hidden");
        assert_eq!(d.with_page(pid, |p| p[0]).unwrap(), 2, "current reads see the commit");
        d.release_read(view);
    }

    #[test]
    fn view_after_abort_keeps_reading_the_pre_image() {
        let d = db();
        let pid = d.alloc_page().unwrap();
        d.with_page_mut(pid, |p| p.write(0, &[5; 4])).unwrap();
        let view = d.begin_read();
        d.begin().unwrap();
        d.with_page_mut(pid, |p| p.write(0, &[6; 4])).unwrap();
        d.abort().unwrap();
        assert_eq!(d.with_page_at(&view, pid, |p| p[0]).unwrap(), 5);
        assert_eq!(d.with_page(pid, |p| p[0]).unwrap(), 5, "abort restored the pre-image");
        d.release_read(view);
    }

    #[test]
    fn snapshot_adapter_reads_through_page_read() {
        use crate::view::PageRead as _;
        let d = db();
        let pid = d.alloc_page().unwrap();
        d.with_page_mut(pid, |p| p.write(0, &[9; 4])).unwrap();
        let view = d.begin_read();
        d.with_page_mut(pid, |p| p.write(0, &[10; 4])).unwrap();
        let snap = d.snapshot(&view);
        assert_eq!(snap.with_page(pid, |p| p[0]).unwrap(), 9);
        assert_eq!(snap.page_size(), d.page_size());
        let _ = snap;
        d.release_read(view);
    }

    #[test]
    fn transactions_are_thread_keyed() {
        let d = db();
        let a = d.alloc_page().unwrap();
        let b = d.alloc_page().unwrap();
        d.begin().unwrap();
        d.with_page_mut(a, |p| p.write(0, &[1; 4])).unwrap();
        std::thread::scope(|scope| {
            let d = &d;
            scope
                .spawn(move || {
                    // Another thread opens its own transaction...
                    d.begin().unwrap();
                    d.with_page_mut(b, |p| p.write(0, &[2; 4])).unwrap();
                    // ...but touching the first thread's dirty page
                    // conflicts instead of silently sharing ownership.
                    let err = d.with_page_mut(a, |p| p.write(0, &[3; 4])).unwrap_err();
                    assert!(matches!(err, StorageError::TxnConflict { .. }), "got {err:?}");
                    d.commit().unwrap();
                })
                .join()
                .unwrap();
        });
        d.commit().unwrap();
        assert_eq!(d.with_page(a, |p| p[0]).unwrap(), 1);
        assert_eq!(d.with_page(b, |p| p[0]).unwrap(), 2);
    }

    fn txn_state(what: &str) -> StorageError {
        StorageError::TxnState(what.into())
    }

    #[test]
    fn current_txn_follows_the_database_in_use() {
        // Two databases used alternately on one thread: the thread's
        // cache holds one of them at a time and must not answer for the
        // other.
        let (a, b) = (db(), db());
        b.begin().unwrap();
        b.commit().unwrap(); // so that the two hand out different ids
        assert_eq!((a.current_txn(), b.current_txn()), (None, None));
        let ta = a.begin().unwrap();
        assert_eq!(b.current_txn(), None, "a's transaction is not b's");
        assert_eq!(a.current_txn(), Some(ta), "and a still has it after the switch");
        let tb = b.begin().unwrap();
        assert_ne!(ta, tb);
        assert_eq!((a.current_txn(), b.current_txn()), (Some(ta), Some(tb)));
        // Mutations are attributed by the same answer: b's abort must
        // take b's write back and leave a's alone.
        let (pa, pb) = (a.alloc_page().unwrap(), b.alloc_page().unwrap());
        a.with_page_mut(pa, |p| p.write(0, &[1; 4])).unwrap();
        b.with_page_mut(pb, |p| p.write(0, &[2; 4])).unwrap();
        b.abort().unwrap();
        assert_eq!((a.current_txn(), b.current_txn()), (Some(ta), None));
        a.commit().unwrap();
        assert_eq!((a.current_txn(), b.current_txn()), (None, None));
        assert_eq!(a.with_page(pa, |p| p[0]).unwrap(), 1);
        assert_eq!(b.with_page(pb, |p| p[0]).unwrap(), 0);
    }

    #[test]
    fn a_transaction_is_invisible_to_other_threads() {
        let d = db();
        let mine = d.begin().unwrap();
        std::thread::scope(|scope| {
            let d = &d;
            scope
                .spawn(move || {
                    assert_eq!(d.current_txn(), None);
                    assert_eq!(d.commit(), Err(txn_state("commit without an open transaction")));
                    assert_eq!(d.current_txn(), None);
                })
                .join()
                .unwrap();
        });
        assert_eq!(d.current_txn(), Some(mine), "the other thread's commit closed nothing");
        d.commit().unwrap();
    }

    #[test]
    fn begin_follows_commit_and_abort_and_state_errors_are_unchanged() {
        let d = db();
        assert_eq!(d.commit(), Err(txn_state("commit without an open transaction")));
        assert_eq!(d.abort(), Err(txn_state("abort without an open transaction")));
        let first = d.begin().unwrap();
        assert_eq!(d.begin(), Err(txn_state("a transaction is already open on this thread")));
        assert_eq!(d.current_txn(), Some(first), "the refused begin left the open one alone");
        d.commit().unwrap();
        assert_eq!(d.current_txn(), None);
        let second = d.begin().unwrap();
        assert!(second > first);
        assert_eq!(d.current_txn(), Some(second));
        d.abort().unwrap();
        assert_eq!(d.current_txn(), None);
        assert_eq!(d.abort(), Err(txn_state("abort without an open transaction")));
        let third = d.begin().unwrap();
        assert_eq!(d.current_txn(), Some(third));
        d.commit().unwrap();
    }

    fn sharded_pdl(obs: bool) -> Database {
        let store = pdl_core::ShardedStore::with_uniform_chips(
            FlashConfig::tiny(),
            2,
            MethodKind::Pdl { max_diff_size: 128 },
            StoreOptions::new(32).with_obs(obs),
        )
        .unwrap();
        Database::new(Box::new(store), 16).with_durability(Durability::Commit)
    }

    #[test]
    fn a_btree_insert_into_cached_pages_never_waits_for_the_store() {
        // The two-writer shape: one writer is inside the store (its
        // commit protocol) while the other inserts into its own tree.
        use crate::btree::KeyBuf;
        use std::sync::mpsc;
        let d = sharded_pdl(false);
        let tree = BTree::create(&d).unwrap();
        for k in 0..8u64 {
            tree.insert(&d, &KeyBuf::new().push_u64(k).finish(), k).unwrap();
        }
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let (d, tree) = (&d, &tree);
            scope.spawn(move || {
                d.with_store(|_| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                })
            });
            entered_rx.recv().unwrap();
            scope.spawn(move || {
                d.begin().unwrap();
                tree.insert(d, &KeyBuf::new().push_u64(100).finish(), 100).unwrap();
                assert_eq!(tree.get(d, &KeyBuf::new().push_u64(100).finish()).unwrap(), Some(100));
                done_tx.send(()).unwrap();
                d.commit().unwrap(); // this one does need the store
            });
            let finished = done_rx.recv_timeout(std::time::Duration::from_secs(20)).is_ok();
            release_tx.send(()).unwrap();
            assert!(finished, "begin + insert + get waited for the store");
        });
        assert_eq!(tree.get(&d, &KeyBuf::new().push_u64(100).finish()).unwrap(), Some(100));
    }

    #[test]
    fn durable_commits_record_their_wait_for_the_commit_lock() {
        let waits = |d: &Database| {
            for _ in 0..3 {
                d.begin().unwrap();
                let pid = d.alloc_page().unwrap();
                d.with_page_mut(pid, |p| p.write(0, &[7; 4])).unwrap();
                d.commit().unwrap();
            }
            d.pool_obs_snapshot().hist(pdl_obs::LatencyClass::CommitLockWait).count()
        };
        assert_eq!(waits(&sharded_pdl(true)), 3, "one sample per durable commit");
        assert_eq!(waits(&sharded_pdl(false)), 0, "nothing is recorded with obs off");
        let relaxed = sharded_pdl(true).with_durability(Durability::Relaxed);
        assert_eq!(waits(&relaxed), 0, "a relaxed commit never takes the lock");
    }

    #[test]
    fn a_batch_carries_at_most_one_root_writer_over_a_root_log() {
        let committer = |txn: TxnId, moves_a_root: bool| Committer {
            txn,
            structs: if moves_a_root {
                vec![(txn, StructRoot::BTree { root: txn })]
            } else {
                Vec::new()
            },
            pages: Vec::new(),
            queued_at: None,
        };
        let queue = || {
            vec![
                committer(1, false),
                committer(2, true),
                committer(3, false),
                committer(4, true),
                committer(5, false),
            ]
        };
        let txns = |batch: Vec<Committer>| batch.iter().map(|c| c.txn).collect::<Vec<_>>();
        let mut waiting = queue();
        assert_eq!(txns(next_batch(&mut waiting, true)), [1, 2, 3]);
        assert_eq!(txns(next_batch(&mut waiting, true)), [4, 5], "arrival order kept");
        assert!(waiting.is_empty());
        let mut waiting = queue();
        assert_eq!(txns(next_batch(&mut waiting, false)), [1, 2, 3, 4, 5], "no root log");
    }

    /// A store whose `commit_batch` reports that it was entered, waits
    /// for a go-ahead, then panics.
    struct PanicsOnCommit {
        inner: Box<dyn PageStore>,
        entered: std::sync::mpsc::Sender<()>,
        go: std::sync::mpsc::Receiver<()>,
    }

    impl PageStore for PanicsOnCommit {
        fn options(&self) -> &StoreOptions {
            self.inner.options()
        }
        fn read_page(&mut self, pid: u64, out: &mut [u8]) -> pdl_core::Result<()> {
            self.inner.read_page(pid, out)
        }
        fn apply_update(
            &mut self,
            pid: u64,
            page_after: &[u8],
            changes: &[pdl_core::ChangeRange],
        ) -> pdl_core::Result<()> {
            self.inner.apply_update(pid, page_after, changes)
        }
        fn consumes_updates(&self) -> bool {
            self.inner.consumes_updates()
        }
        fn evict_page(&mut self, pid: u64, page: &[u8]) -> pdl_core::Result<()> {
            self.inner.evict_page(pid, page)
        }
        fn evict_held(
            &mut self,
            pid: u64,
            page: &[u8],
            held: Option<&[u8]>,
        ) -> pdl_core::Result<()> {
            self.inner.evict_held(pid, page, held)
        }
        fn flush(&mut self) -> pdl_core::Result<()> {
            self.inner.flush()
        }
        fn chip(&self) -> &FlashChip {
            self.inner.chip()
        }
        fn chip_mut(&mut self) -> &mut FlashChip {
            self.inner.chip_mut()
        }
        fn name(&self) -> String {
            self.inner.name()
        }
        fn into_chips(self: Box<Self>) -> Vec<FlashChip> {
            self.inner.into_chips()
        }
        fn commit_batch(&mut self, _: &CommitBatch<'_>) -> std::result::Result<(), CommitError> {
            self.entered.send(()).unwrap();
            let _ = self.go.recv();
            panic!("the store panicked inside commit_batch");
        }
    }

    #[test]
    fn a_panicking_batch_stops_the_database_instead_of_hanging_committers() {
        use std::sync::{mpsc, Arc};
        use std::time::{Duration, Instant};
        let (entered_tx, entered_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel();
        let chip = FlashChip::new(FlashConfig::tiny());
        let inner =
            build_store(chip, MethodKind::Pdl { max_diff_size: 128 }, StoreOptions::new(16))
                .unwrap();
        let store = PanicsOnCommit { inner, entered: entered_tx, go: go_rx };
        let d = Arc::new(Database::new(Box::new(store), 8).with_durability(Durability::Commit));
        for pid in 0..2 {
            d.with_page(pid, |_| ()).unwrap(); // cached: the follower never waits for the store
        }
        let commit = |d: Arc<Database>, pid: u64| {
            std::thread::spawn(move || {
                d.begin().unwrap();
                d.with_page_mut(pid, |p| p.write(0, &[1; 4])).unwrap();
                d.commit()
            })
        };
        // The leader is inside the store when a second committer queues.
        let leader = commit(d.clone(), 0);
        entered_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let follower = commit(d.clone(), 1);
        std::thread::spawn(move || done_tx.send(follower.join().unwrap()));
        let deadline = Instant::now() + Duration::from_secs(20);
        while d.queued_commits() < 1 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(d.queued_commits(), 1, "the follower queues behind the leader");
        go_tx.send(()).unwrap();
        assert!(leader.join().is_err(), "the leader's batch panicked");
        let queued = done_rx.recv_timeout(Duration::from_secs(20));
        let Ok(Err(stopped)) = queued else { panic!("the queued committer got {queued:?}") };
        assert_eq!(stopped, StorageError::Internal("a commit batch panicked".into()));
        // A later committer is refused, not left waiting for a leader.
        assert_eq!(d.begin(), Err(stopped));
    }

    #[test]
    fn a_rewrap_below_the_recovered_frontier_never_reissues_a_tree_page() {
        use crate::btree::KeyBuf;
        let kind = MethodKind::Pdl { max_diff_size: 128 };
        let opts = || StoreOptions::new(256).with_checkpoint_blocks(2);
        let store = build_store(FlashChip::new(FlashConfig::scaled(16)), kind, opts()).unwrap();
        let d = Database::new(store, 64).with_durability(Durability::Commit);
        let key = |k: u64| KeyBuf::new().push_u64(k).finish();
        let tree = BTree::create(&d).unwrap();
        d.begin().unwrap();
        for k in 0..400u64 {
            tree.insert(&d, &key(k), k).unwrap();
        }
        d.commit().unwrap();
        d.checkpoint().unwrap();
        // The tree allocated every pid below the frontier.
        let frontier = d.allocated_pages();
        assert!(frontier > 1, "the tree split");
        let chip = d.into_store_without_flush().into_chip();
        let store = pdl_core::recover_store(chip, kind, opts()).unwrap();
        let d = Database::new_with_allocated(store, 64, 0);
        let tree = d.recover_structures().pop().expect("the tree is in the root log").into_btree();
        let pid = d.alloc_page().unwrap();
        assert!(pid >= frontier, "pid {pid} is the tree's (frontier {frontier})");
        d.with_page_mut(pid, |p| p.fill(0, p.len(), 0xFF)).unwrap();
        for k in 0..400u64 {
            assert_eq!(tree.get(&d, &key(k)).unwrap(), Some(k), "key {k}");
        }
    }

    /// Twin databases for the resize tests: a PDL store under a 16-frame
    /// buffer, one B+-tree and one heap file.
    fn resize_twin() -> (Database, BTree, HeapFile) {
        let store = build_store(
            FlashChip::new(FlashConfig::scaled(16)),
            MethodKind::Pdl { max_diff_size: 128 },
            StoreOptions::new(256),
        )
        .unwrap();
        let d = Database::new(store, 16);
        let (tree, heap) = (BTree::create(&d).unwrap(), HeapFile::create(&d));
        (d, tree, heap)
    }

    /// Insert keys `keys` into the tree, each pointing at a heap record
    /// of its own.
    fn resize_fill(d: &Database, tree: &BTree, heap: &HeapFile, keys: std::ops::Range<u64>) {
        for k in keys {
            let rid = heap.insert(d, &k.to_le_bytes().repeat(8)).unwrap();
            tree.insert(d, &crate::btree::KeyBuf::new().push_u64(k).finish(), rid.to_u64())
                .unwrap();
        }
    }

    /// Every key `0..n` reads back through the tree, and its record
    /// through the heap file.
    fn resize_check(d: &Database, tree: &BTree, heap: &HeapFile, n: u64) {
        for k in 0..n {
            let rid = tree.get(d, &crate::btree::KeyBuf::new().push_u64(k).finish()).unwrap();
            let rid = RecordId::from_u64(rid.unwrap_or_else(|| panic!("key {k} lost")));
            assert_eq!(heap.get(d, rid, |b| b.to_vec()).unwrap(), k.to_le_bytes().repeat(8));
        }
        let mut records = 0;
        heap.scan(d, |_, _| records += 1).unwrap();
        assert_eq!(records, n);
    }

    #[test]
    fn set_buffer_pages_shrinks_and_grows_at_the_flash_cost_of_a_flush() {
        // `a` flushes where `b` resizes; both then take the new size, so
        // they stay twins and `a`'s flush prices `b`'s resize.
        let (a, tree_a, heap_a) = resize_twin();
        let (b, tree_b, heap_b) = resize_twin();
        let root = tree_b.current_root(&b);
        let mut n = 0;
        for (frames, more) in [(4, 400), (64, 400)] {
            resize_fill(&a, &tree_a, &heap_a, n..n + more);
            resize_fill(&b, &tree_b, &heap_b, n..n + more);
            n += more;
            assert_eq!(a.io_stats(), b.io_stats());
            let before = a.io_stats().total().writes;
            a.flush().unwrap();
            assert!(a.io_stats().total().writes > before, "dirty pages were buffered");
            b.set_buffer_pages(frames).unwrap();
            assert_eq!(b.io_stats(), a.io_stats(), "a resize does the flash I/O of a flush");
            assert_eq!(b.buffer_stats(), BufferStats::default(), "an empty cache");
            a.set_buffer_pages(frames).unwrap();
            assert_eq!(a.io_stats(), b.io_stats(), "resizing a flushed buffer writes nothing");
            resize_check(&b, &tree_b, &heap_b, n);
            resize_check(&a, &tree_a, &heap_a, n);
        }
        assert_ne!(tree_b.current_root(&b), root, "the tree split");
        let misses = b.buffer_stats().misses;
        resize_check(&b, &tree_b, &heap_b, n);
        assert_eq!(b.buffer_stats().misses, misses, "64 frames hold the whole database");
    }

    #[test]
    fn set_buffer_pages_refuses_while_a_transaction_or_a_view_is_open() {
        let (d, tree, heap) = resize_twin();
        resize_fill(&d, &tree, &heap, 0..100);
        let refused = |d: &Database| {
            let (io, buffer) = (d.io_stats(), d.buffer_stats());
            let err = d.set_buffer_pages(4).unwrap_err();
            assert!(matches!(err, StorageError::TxnState(_)), "got {err:?}");
            assert_eq!(d.io_stats(), io, "nothing was written back");
            assert_eq!(d.buffer_stats(), buffer, "the cache is the same");
        };
        d.begin().unwrap();
        resize_fill(&d, &tree, &heap, 100..150);
        refused(&d);
        d.commit().unwrap();
        let view = d.begin_read();
        refused(&d);
        d.release_read(view);
        // The refusals changed nothing: the committed keys are all
        // there, and with both closed the resize goes through.
        resize_check(&d, &tree, &heap, 150);
        d.set_buffer_pages(4).unwrap();
        resize_check(&d, &tree, &heap, 150);
    }

    #[test]
    fn page_latches_serialize_holders() {
        let d = db();
        let l = d.latch_page(7);
        assert_eq!(l.pid(), 7);
        // A second latch on a *different* page does not block.
        let other = d.latch_page(8);
        drop(other);
        // A blocked acquirer proceeds once the holder drops.
        std::thread::scope(|scope| {
            let d = &d;
            let t = scope.spawn(move || {
                let _l = d.latch_page(7);
                true
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert!(!t.is_finished(), "latch 7 is held: the second acquirer must wait");
            drop(l);
            assert!(t.join().unwrap());
        });
    }
}
