//! The buffer pool's parts: the frame cache, page latches, and the
//! adapter through which both reach the page store.
//!
//! [`crate::Database`] is the buffer pool: it owns one [`FrameCache`]
//! over any [`PageStore`], and that cache is where the paper's two
//! coupling styles meet the storage engine:
//!
//! * every mutation goes through [`crate::Database::with_page_mut`], whose
//!   [`PageMut`] records the changed byte ranges of the *update command*
//!   and reports them to [`PageStore::apply_update`] — exactly the
//!   update-log hook a tightly-coupled (log-based) method needs;
//! * evicting a dirty page calls [`PageStore::evict_page`] — the moment a
//!   loosely-coupled method (PDL, OPU, IPU) reflects the page into flash.
//!
//! # Replacement: 2Q admission, clean-first eviction
//!
//! Over flash a miss costs PDL its read step (base page + differential
//! page) and a dirty victim its write step too, so the cache decides
//! both who stays and who goes with that in mind:
//!
//! * **Admission is 2Q** (Johnson & Shasha, VLDB '94). A first-time miss
//!   enters `A1in`, a FIFO: a hit there does not move the frame. A frame
//!   evicted from `A1in` leaves its pid in `A1out`, a ghost FIFO of
//!   `capacity / 2` pids, and a miss on such a pid enters `Am`, an LRU
//!   list where a hit moves the frame to the newest end. Pages read
//!   once (a TPC-C STOCK-LEVEL scan) pass through `A1in` without pushing
//!   re-used pages out of `Am`.
//! * **Eviction is clean-first** (CFLRU, Park et al., CASES '06). The
//!   victim queue is `A1in` while it holds more than `capacity / 4`
//!   frames or `Am` is empty, else `Am`. Inside it the oldest clean
//!   frame in the older half goes first; when that half holds none, the
//!   oldest frame not pinned goes. A queue whose every frame is pinned
//!   hands the choice to the other; [`StorageError::BufferPinned`] means
//!   every frame is pinned.
//!
//! Each queue threads two intrusive lists through its frames — all of
//! them and the clean ones alone, both in queue order — and keeps the
//! newest frame of its older half, so the pick costs O(1) besides the
//! pinned frames it skips.
//!
//! # Version chains (MVCC snapshot reads)
//!
//! Each logical page additionally carries a **version chain**: a pending
//! undo image while an uncommitted transaction owns the page (the same
//! image abort needs anyway), plus the committed images superseded by
//! commits that some open [`crate::ReadView`] predates, keyed by commit
//! timestamp. A snapshot read at `read_ts` resolves to the *oldest*
//! version whose commit timestamp exceeds `read_ts` — the image the page
//! had when the view opened — falling back to the pending undo image (an
//! in-flight writer's pre-image) and finally the current frame. Chains
//! are pruned when views are released and bounded by
//! [`pdl_core::StoreOptions::snapshot_version_cap`]. Every version is
//! one logical page, so the cap is the DRAM budget in pages. Versions
//! live in DRAM only: when the cap discards one an open view still needs,
//! that view reads [`StorageError::SnapshotTooOld`] from then on — never
//! other bytes.
//!
//! # Lock order, and what a buffer hit costs
//!
//! One order, everywhere: **page latch → cache → { MVCC registry |
//! store }**. A latch is only ever taken with no database mutex held;
//! the cache mutex is taken under any number of latches; the MVCC
//! registry and the store mutex are leaves, taken under the cache mutex
//! or on their own, never one under the other. (The allocator, the
//! open-transaction table, the pending structure roots and the
//! group-commit queue are leaves too, each taken with none of the above
//! held.)
//!
//! **A buffer hit — [`crate::Database::with_page`], the structural read,
//! a mutation — takes the cache mutex once and no other global lock.**
//! The store mutex is taken only to do flash work:
//!
//! * a miss (`read_page`) and the write-back of the victim it evicts;
//! * [`crate::Database::flush`], [`crate::Database::with_store`] and the
//!   commit protocol of [`crate::Database::commit`];
//! * rollback and mutation, **only** over a store that consumes update
//!   notifications ([`PageStore::consumes_updates`]: IPL) — asked once
//!   at construction.
//!
//! The one other lock a mutation can take is the MVCC registry, when an
//! auto-committed command runs while a read view is open (it allocates
//! the version's commit timestamp).

use crate::error::StorageError;
use crate::Result;
use pdl_core::{BatchPage, ChangeRange, IdMap, PageStore, NO_TXN};
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::thread::ThreadId;

/// A mutable view of a buffered page that records which bytes change.
pub struct PageMut<'a> {
    data: &'a mut [u8],
    changes: &'a mut Vec<ChangeRange>,
}

impl<'a> PageMut<'a> {
    /// Read access to the page image.
    pub fn as_slice(&self) -> &[u8] {
        self.data
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Overwrite `bytes` at `offset`, recording the change.
    pub fn write(&mut self, offset: usize, bytes: &[u8]) {
        self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
        self.changes.push(ChangeRange::new(offset, bytes.len()));
    }

    /// Fill `len` bytes at `offset` with `value`, recording the change.
    pub fn fill(&mut self, offset: usize, len: usize, value: u8) {
        self.data[offset..offset + len].fill(value);
        self.changes.push(ChangeRange::new(offset, len));
    }

    /// Write a little-endian `u16` (the slotted-page header currency).
    pub fn write_u16(&mut self, offset: usize, v: u16) {
        self.write(offset, &v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn write_u64(&mut self, offset: usize, v: u64) {
        self.write(offset, &v.to_le_bytes());
    }

    /// Move `len` bytes from `src` to `dst` within the page (compaction).
    pub fn copy_within(&mut self, src: usize, dst: usize, len: usize) {
        self.data.copy_within(src..src + len, dst);
        self.changes.push(ChangeRange::new(dst, len));
    }
}

/// Construct a [`PageMut`] over a raw buffer — for page-format unit tests
/// and tools that operate outside a buffer pool.
#[doc(hidden)]
#[allow(dead_code)]
pub mod testing {
    use super::*;

    pub fn page_mut<'a>(data: &'a mut [u8], changes: &'a mut Vec<ChangeRange>) -> PageMut<'a> {
        PageMut { data, changes }
    }
}

/// Read helpers shared by page-format code.
pub fn read_u16(page: &[u8], offset: usize) -> u16 {
    u16::from_le_bytes([page[offset], page[offset + 1]])
}

pub fn read_u64(page: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(page[offset..offset + 8].try_into().expect("8 bytes"))
}

/// End-of-list marker for the frame links.
const NIL: u32 = u32::MAX;

/// The two resident queues of 2Q: `A1in`, the FIFO a first-time miss
/// enters, and `Am`, the LRU list of pages missed again while `A1out`
/// still remembered them.
const A1IN: usize = 0;
const AM: usize = 1;

/// The two lists a queue threads through its frames ([`Frame::links`]):
/// every frame, and the clean frames alone, both oldest to newest.
const ALL: usize = 0;
const CLEAN: usize = 1;

/// A frame's neighbours in one list ([`NIL`] at the ends).
#[derive(Clone, Copy)]
struct Links {
    newer: u32,
    older: u32,
}

struct Frame {
    pid: u64,
    dirty: bool,
    /// Transaction that dirtied this frame ([`NO_TXN`] when none): the
    /// per-transaction change tracking of the `pdl-txn` subsystem.
    owner: u64,
    /// The resident queue holding the frame ([`A1IN`] or [`AM`]).
    queue: usize,
    /// When the frame took its place in its queue — its admission in
    /// `A1in`, its last use in `Am` — from one counter, so a queue's
    /// stamps grow from its oldest frame to its newest.
    stamp: u64,
    /// Neighbours in the queue's [`ALL`] list, and in its [`CLEAN`] list
    /// while the frame is clean.
    links: [Links; 2],
    /// The image the store holds for the page, which a dirty frame keeps
    /// for its write-back ([`PageStore::evict_held`]): the pending
    /// pre-image a relaxed commit leaves behind while it is still the
    /// store's image, or a copy of the frame a transaction takes when it
    /// re-dirties a page a write-back reflected in its middle.
    /// Emptied whenever the page is reflected or the frame cleaned; a
    /// clean frame holds none.
    held: Option<Vec<u8>>,
}

/// One resident queue: its lists' ends, and the newest frame of its
/// clean-first window.
#[derive(Clone, Copy)]
struct Queue {
    oldest: [u32; 2],
    newest: [u32; 2],
    len: usize,
    /// The newest frame of the older half of the queue, its
    /// `len.div_ceil(2)` oldest frames: the window in which a clean frame
    /// goes before any older dirty one ([`NIL`] when the queue is empty).
    edge: u32,
}

impl Queue {
    const EMPTY: Queue = Queue { oldest: [NIL; 2], newest: [NIL; 2], len: 0, edge: NIL };

    /// Link `idx` into `list` just older than `before` ([`NIL`]: as the
    /// newest).
    fn link(&mut self, frames: &mut [Frame], list: usize, idx: u32, before: u32) {
        let older = match before {
            NIL => self.newest[list],
            b => frames[b as usize].links[list].older,
        };
        frames[idx as usize].links[list] = Links { newer: before, older };
        match older {
            NIL => self.oldest[list] = idx,
            o => frames[o as usize].links[list].newer = idx,
        }
        match before {
            NIL => self.newest[list] = idx,
            b => frames[b as usize].links[list].older = idx,
        }
    }

    fn unlink(&mut self, frames: &mut [Frame], list: usize, idx: u32) {
        let Links { newer, older } = frames[idx as usize].links[list];
        match older {
            NIL => self.oldest[list] = newer,
            o => frames[o as usize].links[list].newer = newer,
        }
        match newer {
            NIL => self.newest[list] = older,
            n => frames[n as usize].links[list].older = older,
        }
    }

    /// Append `idx` as the newest frame (its stamp is the newest).
    fn push(&mut self, frames: &mut [Frame], idx: u32) {
        self.link(frames, ALL, idx, NIL);
        if !frames[idx as usize].dirty {
            self.link(frames, CLEAN, idx, NIL);
        }
        self.len += 1;
        if self.len == 1 {
            self.edge = idx;
        } else if !self.len.is_multiple_of(2) {
            // The window grew by one: the next newer frame joins it.
            self.edge = frames[self.edge as usize].links[ALL].newer;
        }
    }

    fn remove(&mut self, frames: &mut [Frame], idx: u32) {
        let f = &frames[idx as usize];
        if f.stamp <= frames[self.edge as usize].stamp {
            // The window loses `idx`: the next newer frame joins it.
            self.edge = frames[self.edge as usize].links[ALL].newer;
        }
        let clean = !f.dirty;
        self.unlink(frames, ALL, idx);
        if clean {
            self.unlink(frames, CLEAN, idx);
        }
        self.len -= 1;
        if self.len == 0 {
            self.edge = NIL;
        } else if self.len.is_multiple_of(2) {
            // The window shrank by one: its newest frame leaves it.
            self.edge = frames[self.edge as usize].links[ALL].older;
        }
    }
}

/// Pre-transaction image of a page, taken on the transaction's first
/// touch. It doubles as the head-in-waiting of the page's version chain:
/// abort restores it, commit either promotes it to a committed version
/// (when an open read view predates the commit) or drops it — a relaxed
/// commit moves it into the frame instead when it is `held`.
struct PendingUndo {
    txn: u64,
    data: Vec<u8>,
    /// `data` is the image the store holds for the page: the frame was
    /// clean at the first touch, and no write-back has reflected the page
    /// since (one in relaxed mode, in the middle of the transaction,
    /// clears the flag).
    held: bool,
}

/// A page a transaction dirtied, copied out for its commit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct OwnedPage {
    pub pid: u64,
    pub image: Vec<u8>,
    /// The image the store holds for the page, when the pool knows it
    /// ([`pdl_core::BatchPage::held`]).
    pub held: Option<Vec<u8>>,
}

impl OwnedPage {
    pub(crate) fn batch_page(&self, txn: u64) -> BatchPage<'_> {
        BatchPage { pid: self.pid, image: &self.image, txn, held: self.held.as_deref() }
    }
}

/// The version history of one logical page. `committed` holds
/// `(commit_ts, image)` pairs in ascending timestamp order, where `image`
/// is the page as it was *immediately before* the commit at `commit_ts` —
/// i.e. what a view with `read_ts < commit_ts` must read.
#[derive(Default)]
struct VersionChain {
    pending: Option<PendingUndo>,
    committed: Vec<(u64, Vec<u8>)>,
}

impl VersionChain {
    fn is_empty(&self) -> bool {
        self.pending.is_none() && self.committed.is_empty()
    }
}

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub dirty_writebacks: u64,
    /// Dirty write-backs that handed the store the image it held for the
    /// page ([`PageStore::evict_held`]), sparing PDL the base-page read:
    /// pages a relaxed commit left dirty, and relaxed-mode write-backs in
    /// the middle of a transaction.
    pub held_writebacks: u64,
    /// Misses on a pid `A1out` remembered, admitted into `Am` (2Q's second
    /// reference).
    pub ghost_hits: u64,
    /// Evictions that passed over an older dirty frame to take a clean one
    /// in the window (the clean-first rule at work).
    pub clean_first_evictions: u64,
    /// Snapshot reads served from a version chain (a committed version or
    /// an in-flight writer's pending undo image) instead of the frame.
    pub version_reads: u64,
    /// Read views currently open against the pool (a gauge, not a
    /// counter: set by the pool when the statistics are sampled). A value
    /// that never returns to zero between workloads is the signature of a
    /// leaked view pinning version retention forever — hold views through
    /// [`crate::ReadGuard`] to make leaks impossible.
    pub active_views: u64,
    /// Logical pages permanently stranded by rollbacks: raw
    /// [`crate::Database::alloc_page`] pids an aborted (or
    /// failed-durable-commit) transaction allocated. The caller may hold
    /// such a pid outside any registered structure, so the allocator
    /// cannot reissue it — structure-owned allocations go back to the
    /// free list instead and never appear here. A gauge set by the
    /// database when statistics are sampled (like `active_views`).
    pub leaked_pids: u64,
}

impl BufferStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The page-store operations a frame cache needs from its backing store.
///
/// [`StoreBackend`] backs this with the database's mutex-guarded
/// `Box<dyn PageStore>` (locked per call, so a call that is never made
/// never waits); the unit tests back it with an in-memory map.
pub(crate) trait PageBackend {
    fn read(&mut self, pid: u64, out: &mut [u8]) -> Result<()>;
    fn apply(&mut self, pid: u64, page_after: &[u8], changes: &[ChangeRange]) -> Result<()>;
    /// Reflect `page` ([`PageStore::evict_held`]: `held` is the image the
    /// store holds for `pid`, when the cache has it).
    fn evict(&mut self, pid: u64, page: &[u8], held: Option<&[u8]>) -> Result<()>;
}

/// Where auto-committed update commands obtain their commit timestamps.
///
/// The protocol is two-step so a writer holding a frame lock decides
/// *after* mutating: `capture_hint` is a cheap pre-check (clone the
/// pre-image only if a view might need it); `commit_ts` is called once
/// the mutation happened and, under the registry lock, either allocates
/// the commit timestamp (views are active — retain the version) or
/// returns `None` (nobody can ever need it: any view registered later
/// reads at a timestamp at or past this commit). The timestamp comes
/// paired with the oldest active read timestamp — so a version-cap trip
/// under the same frame lock knows whether some view still resolves to
/// the versions it drops.
pub(crate) trait VersionSource {
    fn capture_hint(&self) -> bool;
    fn commit_ts(&self) -> Option<(u64, u64)>;
}

/// No snapshot versioning (transactional mutations version at commit
/// instead; unit tests of the raw cache don't version at all).
pub(crate) struct NoVersioning;

impl VersionSource for NoVersioning {
    fn capture_hint(&self) -> bool {
        false
    }

    fn commit_ts(&self) -> Option<(u64, u64)> {
        None
    }
}

/// A 2Q frame cache with clean-first eviction: the store-independent core
/// of the buffer pool [`crate::Database`] runs (see the module docs).
pub(crate) struct FrameCache {
    frames: Vec<Frame>,
    /// The page image of every frame, frame `i` at `i * page_size`: one
    /// zero-filled allocation, so a frame costs no memory until it is
    /// first used, and the whole cache goes back to the system when it is
    /// dropped. (One `Vec` per frame came from the malloc arena of
    /// whichever thread took the miss, and how much of an arena a drop
    /// hands back depends on what else that thread left in it.)
    slab: Vec<u8>,
    map: IdMap<usize>,
    capacity: usize,
    page_size: usize,
    /// The resident queues, indexed [`A1IN`] and [`AM`].
    queues: [Queue; 2],
    /// Source of [`Frame::stamp`].
    clock: u64,
    /// `A1out`: the pids of the last `capacity / 2` frames evicted from
    /// `A1in`, oldest first, and the same pids as a set. A pid stays until
    /// it ages out, also once its miss took it into `Am` (Johnson &
    /// Shasha), so it is never here twice: it left `A1in` only after it
    /// entered it as a miss `A1out` did not know.
    ghosts: VecDeque<u64>,
    ghost_set: IdMap<()>,
    /// Frames in no queue: their page read failed after the eviction that
    /// freed them.
    free: Vec<u32>,
    /// Per open transaction, the frames handed to it (frame indices, in
    /// first-dirtied order). An entry is a hint, re-checked against
    /// `Frame::owner`: relaxed mode can evict an owned frame and hand it
    /// to the same or another transaction again.
    owned: IdMap<Vec<u32>>,
    /// The changed ranges of the update command in progress (one buffer
    /// for the cache, not one per frame: a command's ranges are dead once
    /// it returns).
    changes: Vec<ChangeRange>,
    stats: BufferStats,
    /// Whether transaction-owned dirty frames are pinned against eviction
    /// and skipped by write-backs ([`crate::Durability::Commit`]). Without
    /// the pin they stay evictable, with abort still restored from the
    /// in-memory undo images: [`crate::Durability::Relaxed`], the paper's
    /// own setting and the one Figure 18's TPC-C runs use.
    pin_owned: bool,
    /// Whether the store consumes update notifications
    /// ([`PageStore::consumes_updates`]). When it does not, a mutation of
    /// a cached page never calls the backend.
    notify_updates: bool,
    /// Per-page version chains, keyed by pid (they outlive frame
    /// eviction).
    chains: IdMap<VersionChain>,
    /// Committed versions currently retained across all chains.
    retained: usize,
    /// Retention bound ([`pdl_core::StoreOptions::snapshot_version_cap`]).
    version_cap: usize,
    /// Highest commit timestamp the cap discarded while a view still
    /// needed it: views reading below it get
    /// [`StorageError::SnapshotTooOld`].
    too_old_floor: u64,
}

impl FrameCache {
    pub(crate) fn new(
        capacity: usize,
        page_size: usize,
        version_cap: usize,
        notify_updates: bool,
    ) -> FrameCache {
        let capacity = capacity.max(1);
        FrameCache {
            frames: Vec::with_capacity(capacity.min(1024)),
            slab: vec![0u8; capacity * page_size],
            map: IdMap::default(),
            capacity,
            page_size,
            queues: [Queue::EMPTY; 2],
            clock: 0,
            ghosts: VecDeque::new(),
            ghost_set: IdMap::default(),
            free: Vec::new(),
            owned: IdMap::default(),
            changes: Vec::new(),
            stats: BufferStats::default(),
            pin_owned: true,
            notify_updates,
            chains: IdMap::default(),
            retained: 0,
            version_cap: version_cap.max(1),
            too_old_floor: 0,
        }
    }

    /// Switch transaction-owned frames between pinned (atomic commits)
    /// and evictable (relaxed durability).
    pub(crate) fn set_pin_owned(&mut self, pin: bool) {
        self.pin_owned = pin;
    }

    /// The page image in frame `idx`.
    fn page(&self, idx: usize) -> &[u8] {
        &self.slab[idx * self.page_size..][..self.page_size]
    }

    fn page_mut(&mut self, idx: usize) -> &mut [u8] {
        &mut self.slab[idx * self.page_size..][..self.page_size]
    }

    pub(crate) fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Whether `pid` currently occupies a frame (a prefetch hint for a
    /// cached page would charge a phantom flash read; callers check this
    /// first).
    pub(crate) fn is_cached(&self, pid: u64) -> bool {
        self.map.contains_key(&pid)
    }

    /// Committed versions currently retained (diagnostics / tests).
    pub(crate) fn retained_versions(&self) -> usize {
        self.retained
    }

    pub(crate) fn with_page<B: PageBackend, R>(
        &mut self,
        backend: &mut B,
        pid: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let idx = self.fetch(backend, pid)?;
        self.touch(idx);
        Ok(f(self.page(idx)))
    }

    /// [`Self::with_page`] for a structural descent by `txn` ([`NO_TXN`]
    /// outside a transaction): refuses a page whose dirty frame another
    /// uncommitted transaction owns, before counting or recording a use.
    pub(crate) fn with_page_struct<B: PageBackend, R>(
        &mut self,
        backend: &mut B,
        pid: u64,
        txn: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let owner = self.dirty_owner(pid);
        if owner != NO_TXN && owner != txn {
            return Err(StorageError::TxnConflict { pid });
        }
        self.with_page(backend, pid, f)
    }

    /// Snapshot read at `read_ts`: the oldest retained version newer than
    /// the view, else an in-flight writer's pending pre-image, else the
    /// current frame.
    pub(crate) fn with_page_at<B: PageBackend, R>(
        &mut self,
        backend: &mut B,
        pid: u64,
        read_ts: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        if read_ts < self.too_old_floor {
            return Err(StorageError::SnapshotTooOld { read_ts, floor: self.too_old_floor });
        }
        if let Some(chain) = self.chains.get(&pid) {
            let versioned = chain
                .committed
                .iter()
                .find(|(commit_ts, _)| *commit_ts > read_ts)
                .map(|(_, data)| data.as_slice())
                .or_else(|| chain.pending.as_ref().map(|p| p.data.as_slice()));
            if let Some(data) = versioned {
                self.stats.version_reads += 1;
                return Ok(f(data));
            }
        }
        self.with_page(backend, pid, f)
    }

    /// Mutable access on behalf of `txn` ([`NO_TXN`] for the plain
    /// auto-commit path). A frame dirtied by a different uncommitted
    /// transaction is a conflict; the first touch by a transaction makes
    /// the pre-image the pending head of the page's version chain, so
    /// abort can restore it and snapshot readers can keep seeing it. An
    /// auto-committed command versions its pre-image through `vsrc` when
    /// an open read view predates it.
    pub(crate) fn with_page_mut_txn<B: PageBackend, R>(
        &mut self,
        backend: &mut B,
        pid: u64,
        txn: u64,
        vsrc: &dyn VersionSource,
        f: impl FnOnce(&mut PageMut) -> R,
    ) -> Result<R> {
        let idx = self.fetch(backend, pid)?;
        if self.frames[idx].dirty
            && self.frames[idx].owner != NO_TXN
            && self.frames[idx].owner != txn
        {
            return Err(StorageError::TxnConflict { pid });
        }
        let mut auto_pre: Option<Vec<u8>> = None;
        let mut created_pending = false;
        let mut reheld: Option<Vec<u8>> = None;
        if txn != NO_TXN {
            let pending = self.chains.get(&pid).and_then(|c| c.pending.as_ref());
            match pending {
                Some(p) => {
                    debug_assert_eq!(
                        p.txn, txn,
                        "page {pid} already has a pending pre-image from another transaction"
                    );
                    // A clean frame under a pending pre-image: a write-back
                    // in the middle of the transaction reflected the page,
                    // and the miss that re-read it left the frame holding
                    // the store's image. Copy it for the next write-back,
                    // which would otherwise read the base back.
                    if !self.frames[idx].dirty {
                        reheld = Some(self.page(idx).to_vec());
                    }
                }
                None => {
                    let data = self.page(idx).to_vec();
                    let held = !self.frames[idx].dirty;
                    self.chains.entry(pid).or_default().pending =
                        Some(PendingUndo { txn, data, held });
                    created_pending = true;
                }
            }
        } else if vsrc.capture_hint() {
            auto_pre = Some(self.page(idx).to_vec());
        }
        self.touch(idx);
        self.changes.clear();
        let data = &mut self.slab[idx * self.page_size..][..self.page_size];
        let mut page = PageMut { data, changes: &mut self.changes };
        let r = f(&mut page);
        if !self.changes.is_empty() {
            self.mark_dirty(idx);
            let frame = &mut self.frames[idx];
            if reheld.is_some() {
                debug_assert!(frame.held.is_none(), "clean frame {idx} holds an image");
                frame.held = reheld;
            }
            if txn != NO_TXN && frame.owner != txn {
                frame.owner = txn;
                self.owned.entry(txn).or_default().push(idx as u32);
            }
            // Loosely coupled (§4): the page is updated in memory and the
            // store hears of it when the page is reflected — unless it
            // asked for update commands.
            if self.notify_updates {
                let data = &self.slab[idx * self.page_size..][..self.page_size];
                backend.apply(pid, data, &self.changes)?;
            }
            // One auto-committed update command = one commit event: retain
            // the pre-image iff a view still needs it.
            if let Some(pre) = auto_pre {
                if let Some((commit_ts, floor)) = vsrc.commit_ts() {
                    self.push_version(pid, commit_ts, pre, floor);
                }
            }
        } else if created_pending {
            // Touch without a write: keep ownership and undo exactly as
            // they were. A dangling pending would otherwise shadow pages
            // the transaction never dirtied (it skips the frame-owner
            // conflict check), letting a later auto-commit write be
            // silently undone by this transaction's abort or mispublished
            // as its pre-image at commit.
            if let Some(chain) = self.chains.get_mut(&pid) {
                chain.pending = None;
                if chain.is_empty() {
                    self.chains.remove(&pid);
                }
            }
        }
        Ok(r)
    }

    fn push_version(&mut self, pid: u64, commit_ts: u64, data: Vec<u8>, floor: u64) {
        let chain = self.chains.entry(pid).or_default();
        debug_assert!(
            chain.committed.last().is_none_or(|(ts, _)| *ts < commit_ts),
            "version chain for page {pid} must stay ascending"
        );
        chain.committed.push((commit_ts, data));
        self.retained += 1;
        self.enforce_cap(floor);
    }

    /// Drop the oldest retained versions until the DRAM budget holds. A
    /// whole commit's versions always leave together, so a surviving view
    /// never observes half a commit. `floor` is the oldest active read
    /// timestamp (`u64::MAX` when no view is open).
    ///
    /// The versions of the oldest commit, at `ts`, are what a view reading
    /// below `ts` resolves to. If no active view reads there they are
    /// dropped for free: any view opened later reads at the current clock,
    /// at or past this commit. Otherwise the too-old floor advances to
    /// `ts`, and those views read `SnapshotTooOld` from then on instead of
    /// newer bytes.
    fn enforce_cap(&mut self, floor: u64) {
        while self.retained > self.version_cap {
            let oldest = self
                .chains
                .values()
                .filter_map(|c| c.committed.first().map(|(ts, _)| *ts))
                .min()
                .expect("over budget implies a committed version exists");
            for chain in self.chains.values_mut() {
                let cut = chain.committed.partition_point(|(ts, _)| *ts <= oldest);
                chain.committed.drain(..cut);
                self.retained -= cut;
            }
            if floor < oldest {
                self.too_old_floor = self.too_old_floor.max(oldest);
            }
            self.chains.retain(|_, c| !c.is_empty());
        }
    }

    /// Drop committed versions at or below `floor` (the minimum active
    /// read timestamp; `u64::MAX` when no view remains). Called at
    /// read-view release so the chains shrink back as readers retire.
    pub(crate) fn prune_committed(&mut self, floor: u64) {
        let mut removed = 0;
        for chain in self.chains.values_mut() {
            let before = chain.committed.len();
            chain.committed.retain(|(ts, _)| *ts > floor);
            removed += before - chain.committed.len();
        }
        if removed > 0 {
            self.retained -= removed;
            self.chains.retain(|_, c| !c.is_empty());
        }
    }

    /// Locate or load `pid` into a frame, evicting if needed. A miss
    /// enters `A1in`, or `Am` when `A1out` remembers the pid.
    fn fetch<B: PageBackend>(&mut self, backend: &mut B, pid: u64) -> Result<usize> {
        if let Some(idx) = self.map.get(&pid) {
            self.stats.hits += 1;
            return Ok(*idx);
        }
        self.stats.misses += 1;
        // Asked before the eviction, which may push the victim's pid into
        // `A1out` and age this one out.
        let ghost = self.ghost_set.contains_key(&pid);
        let idx = match self.free.pop() {
            Some(idx) => idx as usize,
            None if self.frames.len() < self.capacity => {
                self.frames.push(Frame {
                    pid: u64::MAX,
                    dirty: false,
                    owner: NO_TXN,
                    queue: A1IN,
                    stamp: 0,
                    links: [Links { newer: NIL, older: NIL }; 2],
                    held: None,
                });
                self.frames.len() - 1
            }
            None => self.evict(backend)?,
        };
        if let Err(e) = backend.read(pid, self.page_mut(idx)) {
            self.free.push(idx as u32);
            return Err(e);
        }
        self.frames[idx].pid = pid;
        self.stats.ghost_hits += ghost as u64;
        self.enqueue(idx, if ghost { AM } else { A1IN });
        self.map.insert(pid, idx);
        Ok(idx)
    }

    /// Append frame `idx` to `queue` as its newest frame.
    fn enqueue(&mut self, idx: usize, queue: usize) {
        self.clock += 1;
        let f = &mut self.frames[idx];
        (f.queue, f.stamp) = (queue, self.clock);
        self.queues[queue].push(&mut self.frames, idx as u32);
    }

    /// Record a use of frame `idx`: an `Am` frame moves to the newest end,
    /// an `A1in` frame keeps its place.
    fn touch(&mut self, idx: usize) {
        let at = idx as u32;
        if self.frames[idx].queue == AM && self.queues[AM].newest[ALL] != at {
            self.queues[AM].remove(&mut self.frames, at);
            self.enqueue(idx, AM);
        }
    }

    /// Mark frame `idx` dirty: it leaves its queue's clean list.
    fn mark_dirty(&mut self, idx: usize) {
        if !self.frames[idx].dirty {
            let queue = self.frames[idx].queue;
            self.queues[queue].unlink(&mut self.frames, CLEAN, idx as u32);
            self.frames[idx].dirty = true;
        }
    }

    /// Mark frame `idx` clean (its page is reflected, so it holds no
    /// image): it joins its queue's clean list before the first clean
    /// frame newer than it. Cleaning a transaction's frames newest first
    /// keeps that search to the dirty frames between them.
    fn mark_clean(&mut self, idx: usize) {
        self.frames[idx].held = None;
        if self.frames[idx].dirty {
            self.frames[idx].dirty = false;
            let mut next = self.frames[idx].links[ALL].newer;
            while next != NIL && self.frames[next as usize].dirty {
                next = self.frames[next as usize].links[ALL].newer;
            }
            let queue = self.frames[idx].queue;
            self.queues[queue].link(&mut self.frames, CLEAN, idx as u32, next);
        }
    }

    fn pinned(&self, idx: u32) -> bool {
        self.pin_owned && self.frames[idx as usize].owner != NO_TXN
    }

    /// The victim `queue` offers, and whether the clean-first rule chose
    /// it over an older dirty frame: the oldest clean frame when it lies
    /// in the window, else the oldest frame not pinned.
    fn victim_in(&self, queue: usize) -> Option<(u32, bool)> {
        let q = &self.queues[queue];
        let clean = q.oldest[CLEAN];
        if clean != NIL && self.frames[clean as usize].stamp <= self.frames[q.edge as usize].stamp {
            debug_assert!(!self.pinned(clean), "a clean frame is never pinned");
            return Some((clean, clean != q.oldest[ALL]));
        }
        let mut at = q.oldest[ALL];
        while at != NIL && self.pinned(at) {
            at = self.frames[at as usize].links[ALL].newer;
        }
        (at != NIL).then_some((at, false))
    }

    /// Free a frame for a miss. The victim comes from `A1in` while it holds
    /// more than a quarter of the frames or `Am` is empty, else from `Am`;
    /// a queue whose every frame is pinned hands the choice to the other.
    /// An `A1in` victim leaves its pid in `A1out`.
    fn evict<B: PageBackend>(&mut self, backend: &mut B) -> Result<usize> {
        // Frames dirtied by an uncommitted transaction are pinned in
        // atomic-commit mode: their data must not reach the store before
        // the commit record does.
        let first = if self.queues[A1IN].len > self.capacity / 4 || self.queues[AM].len == 0 {
            A1IN
        } else {
            AM
        };
        let (at, clean_first) = self
            .victim_in(first)
            .or_else(|| self.victim_in(1 - first))
            .ok_or(StorageError::BufferPinned)?;
        let idx = at as usize;
        let Frame { pid, dirty, queue, .. } = self.frames[idx];
        if dirty {
            self.write_back(backend, idx)?;
        }
        self.queues[queue].remove(&mut self.frames, at);
        let f = &mut self.frames[idx];
        (f.dirty, f.owner) = (false, NO_TXN);
        if queue == A1IN {
            self.remember(pid);
        }
        self.map.remove(&pid);
        self.stats.evictions += 1;
        self.stats.clean_first_evictions += clean_first as u64;
        Ok(idx)
    }

    /// Reflect dirty frame `idx` into the store with the image the store
    /// holds for it, when the cache has one: the frame's, or in the middle
    /// of a relaxed-mode transaction its pending pre-image — which the
    /// store's image is no longer once this returns. The frame's flags
    /// are the caller's to reset.
    fn write_back<B: PageBackend>(&mut self, backend: &mut B, idx: usize) -> Result<()> {
        let f = &mut self.frames[idx];
        let (pid, slot) = (f.pid, f.held.take());
        let mut pending = match f.owner {
            NO_TXN => None,
            _ => self.chains.get_mut(&pid).and_then(|c| c.pending.as_mut()).filter(|p| p.held),
        };
        let held = slot.as_deref().or(pending.as_ref().map(|p| &p.data[..]));
        let page = &self.slab[idx * self.page_size..][..self.page_size];
        let written = backend.evict(pid, page, held);
        self.stats.held_writebacks += (written.is_ok() && held.is_some()) as u64;
        if let Some(p) = pending.as_mut() {
            p.held = false;
        }
        written?;
        self.stats.dirty_writebacks += 1;
        Ok(())
    }

    /// Push `pid` into `A1out`, aging out its oldest pid when full.
    fn remember(&mut self, pid: u64) {
        if self.capacity / 2 == 0 {
            return;
        }
        let fresh = self.ghost_set.insert(pid, ()).is_none();
        debug_assert!(fresh, "page {pid} is in A1out twice");
        self.ghosts.push_back(pid);
        if self.ghosts.len() > self.capacity / 2 {
            let aged = self.ghosts.pop_front().expect("A1out is over capacity");
            self.ghost_set.remove(&aged);
        }
    }

    /// Write every dirty frame back (does not flush the store itself).
    /// In atomic-commit mode, transaction-owned frames are skipped: only
    /// their commit makes them durable.
    pub(crate) fn write_back_dirty<B: PageBackend>(&mut self, backend: &mut B) -> Result<()> {
        let mut written = Ok(());
        for idx in 0..self.frames.len() {
            if self.frames[idx].dirty && !self.pinned(idx as u32) {
                written = self.write_back(backend, idx);
                if written.is_err() {
                    break;
                }
                self.frames[idx].dirty = false;
                self.frames[idx].owner = NO_TXN;
            }
        }
        // Rebuild the clean lists in one pass per queue.
        for q in &mut self.queues {
            (q.oldest[CLEAN], q.newest[CLEAN]) = (NIL, NIL);
            let mut at = q.oldest[ALL];
            while at != NIL {
                if !self.frames[at as usize].dirty {
                    q.link(&mut self.frames, CLEAN, at, NIL);
                }
                at = self.frames[at as usize].links[ALL].newer;
            }
        }
        written
    }

    /// Copy `txn`'s dirtied page images for commit staging, each with the
    /// image the store holds for it where the pending pre-image is that
    /// image. The frames stay owned (and the pending pre-images stay)
    /// until [`Self::end_txn`] confirms the staging succeeded — so a
    /// failed commit can still roll back.
    pub(crate) fn collect_owned(&mut self, txn: u64) -> Vec<OwnedPage> {
        let Some(list) = self.owned.get_mut(&txn) else { return Vec::new() };
        list.sort_unstable();
        list.dedup();
        let mut out: Vec<OwnedPage> = list
            .iter()
            .map(|&idx| (idx as usize, &self.frames[idx as usize]))
            .filter(|(_, f)| f.owner == txn && f.dirty)
            .map(|(idx, f)| OwnedPage {
                pid: f.pid,
                image: self.slab[idx * self.page_size..][..self.page_size].to_vec(),
                held: self
                    .chains
                    .get(&f.pid)
                    .and_then(|c| c.pending.as_ref())
                    .filter(|p| p.txn == txn && p.held)
                    .map(|p| p.data.clone()),
            })
            .collect();
        out.sort_by_key(|p| p.pid);
        out
    }

    /// Close `txn` on its commit path. Every pending pre-image the
    /// transaction left becomes a committed version at `version_at` (a
    /// read view predates the commit) or is dropped (`None`: no view can
    /// ever need it). `clean` distinguishes a durable commit (the images
    /// are on flash: frames become clean) from a relaxed commit (frames
    /// stay dirty and reach flash by ordinary eviction). A relaxed commit
    /// moves each pre-image that is still the store's image into its
    /// frame for that eviction, copying it only when a view also takes
    /// it as a version.
    pub(crate) fn end_txn(&mut self, txn: u64, version_at: Option<u64>, clean: bool, floor: u64) {
        let mut cleaned = self.owned.remove(&txn).unwrap_or_default();
        cleaned.retain(|&idx| {
            let f = &mut self.frames[idx as usize];
            let mine = f.owner == txn;
            if mine {
                f.owner = NO_TXN;
            }
            mine && clean
        });
        cleaned.sort_unstable_by_key(|&idx| Reverse(self.frames[idx as usize].stamp));
        for idx in cleaned {
            self.mark_clean(idx as usize);
        }
        let mut promoted = 0usize;
        for (pid, chain) in self.chains.iter_mut() {
            if chain.pending.as_ref().is_some_and(|p| p.txn == txn) {
                let p = chain.pending.take().expect("just checked");
                // A held pre-image means the frame is resident and dirty
                // (only a write-back clears the flag).
                let keep = if p.held && !clean { self.map.get(pid).copied() } else { None };
                let held = match version_at {
                    Some(ts) => {
                        debug_assert!(
                            chain.committed.last().is_none_or(|(c, _)| *c < ts),
                            "version chain for page {pid} must stay ascending"
                        );
                        let held = keep.map(|_| p.data.clone());
                        chain.committed.push((ts, p.data));
                        promoted += 1;
                        held
                    }
                    None => keep.map(|_| p.data),
                };
                if let (Some(idx), Some(held)) = (keep, held) {
                    let f = &mut self.frames[idx];
                    debug_assert!(f.dirty && f.held.is_none(), "page {pid} holds an image twice");
                    f.held = Some(held);
                }
            }
        }
        if promoted > 0 {
            self.retained += promoted;
        }
        self.chains.retain(|_, c| !c.is_empty());
        if promoted > 0 {
            self.enforce_cap(floor);
        }
    }

    /// Abort `txn`: restore every touched frame's pre-transaction image
    /// (base page + last committed state, as cached at first touch). A
    /// frame evicted meanwhile is re-faulted and overwritten.
    pub(crate) fn rollback<B: PageBackend>(&mut self, backend: &mut B, txn: u64) -> Result<()> {
        // Every frame the transaction owns has a pending pre-image, and
        // restoring those below releases the ownership.
        self.owned.remove(&txn);
        let mut entries: Vec<(u64, Vec<u8>)> = Vec::new();
        for (pid, chain) in self.chains.iter_mut() {
            if chain.pending.as_ref().is_some_and(|p| p.txn == txn) {
                entries.push((*pid, chain.pending.take().expect("just checked").data));
            }
        }
        self.chains.retain(|_, c| !c.is_empty());
        entries.sort_unstable_by_key(|(pid, _)| *pid);
        for (pid, undo) in entries {
            // Always restore *dirty*: the aborted image may have reached
            // the store (a relaxed-mode eviction — even one later
            // re-faulted and re-dirtied by the same transaction — or a
            // failed commit's partial staging), and a write-back of the
            // pre-image is what repairs the durable state. When nothing
            // leaked, PDL rewrites no more than the page's current
            // differential (nothing when it has none).
            let idx = match self.map.get(&pid).copied() {
                Some(idx) => idx,
                None => self.fetch(backend, pid)?,
            };
            self.page_mut(idx).copy_from_slice(&undo);
            self.mark_dirty(idx);
            self.frames[idx].owner = NO_TXN;
            // The restoration is itself an update command: tightly-coupled
            // (log-based) methods already persisted the aborted commands
            // as update logs via `apply`, and only a superseding
            // whole-page log undoes them — eviction alone does not, since
            // their evict path flushes logs rather than images. The
            // loosely-coupled methods are not told.
            if self.notify_updates {
                let full = ChangeRange::new(0, undo.len());
                backend.apply(pid, self.page(idx), &[full])?;
            }
        }
        Ok(())
    }

    /// The uncommitted transaction currently owning `pid`'s dirty frame
    /// ([`NO_TXN`] when the page is uncached, clean, or auto-committed).
    pub(crate) fn dirty_owner(&self, pid: u64) -> u64 {
        self.map.get(&pid).map_or(NO_TXN, |&idx| {
            let f = &self.frames[idx];
            if f.dirty {
                f.owner
            } else {
                NO_TXN
            }
        })
    }

    /// Assert the queues' invariants: each list runs oldest to newest by
    /// stamp, the clean list holds exactly the queue's clean frames, the
    /// edge closes the older half, and every mapped frame is in the queue
    /// its `Frame::queue` names.
    #[cfg(test)]
    pub(crate) fn check_queues(&self) {
        let mut queued = 0;
        for (queue, q) in self.queues.iter().enumerate() {
            let walk = |list: usize| {
                let mut out = Vec::new();
                let (mut at, mut older) = (q.oldest[list], NIL);
                while at != NIL {
                    let f = &self.frames[at as usize];
                    assert_eq!(f.links[list].older, older, "links of frame {at}");
                    assert_eq!(f.queue, queue, "frame {at} is in another queue");
                    out.push(at);
                    (older, at) = (at, f.links[list].newer);
                }
                assert_eq!(q.newest[list], older);
                out
            };
            let all = walk(ALL);
            assert_eq!(all.len(), q.len);
            assert!(all
                .windows(2)
                .all(|w| self.frames[w[0] as usize].stamp < self.frames[w[1] as usize].stamp));
            let clean: Vec<u32> =
                all.iter().copied().filter(|&i| !self.frames[i as usize].dirty).collect();
            assert_eq!(walk(CLEAN), clean, "clean list of queue {queue}");
            let edge = q.len.checked_sub(1).map_or(NIL, |_| all[q.len.div_ceil(2) - 1]);
            assert_eq!(q.edge, edge, "window edge of queue {queue}");
            for &i in &clean {
                assert!(self.frames[i as usize].held.is_none(), "clean frame {i} holds an image");
            }
            for &i in &all {
                assert_eq!(self.map.get(&self.frames[i as usize].pid), Some(&(i as usize)));
            }
            queued += q.len;
        }
        assert_eq!(queued + self.free.len(), self.frames.len());
        assert!(self.free.iter().all(|&i| self.frames[i as usize].held.is_none()));
        assert_eq!(self.map.len(), queued);
        assert!(self.ghosts.len() <= self.capacity / 2);
        assert_eq!(self.ghosts.len(), self.ghost_set.len());
        assert!(self.ghosts.iter().all(|pid| self.ghost_set.contains_key(pid)));
    }

    /// Drop every cached page and version chain without writing back
    /// (crash simulation).
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.frames.clear();
        self.map.clear();
        self.queues = [Queue::EMPTY; 2];
        self.ghosts.clear();
        self.ghost_set.clear();
        self.free.clear();
        self.owned.clear();
        self.chains.clear();
        self.retained = 0;
    }
}

/// The per-page latch table structural writers couple through.
///
/// Latches are logical-page-granular and live *outside* the frame cache:
/// a frame may be evicted and re-faulted while its page stays latched,
/// and a latch is never requested with the cache mutex held (lock order:
/// latch → cache → {MVCC | store}, see the module docs), so latch waits
/// never block readers. Acquisition is blocking and non-reentrant — a thread
/// latching a page it already holds is a programming error (it would
/// deadlock against itself) and asserts.
///
/// Deadlock freedom follows from the acquisition order: every structural
/// writer latches strictly along a root-to-leaf descent, and leaf-chain
/// walks latch strictly left-to-right, so the wait-for graph follows one
/// global partial order (tree order, then leaf order) and cannot cycle.
pub(crate) struct LatchTable {
    state: Mutex<LatchState>,
    cv: Condvar,
}

#[derive(Default)]
struct LatchState {
    held: IdMap<ThreadId>,
    /// Threads inside `acquire`'s wait loop. Counted under the mutex a
    /// release takes, so a release that reads 0 has no one to wake: a
    /// thread that has not counted itself yet will find the latch free.
    waiters: usize,
}

impl LatchTable {
    pub(crate) fn new() -> LatchTable {
        LatchTable { state: Mutex::new(LatchState::default()), cv: Condvar::new() }
    }

    /// Latch `pid`, blocking while another thread holds it; also returns
    /// whether the acquisition had to wait.
    pub(crate) fn latch(&self, pid: u64) -> (PageLatch<'_>, bool) {
        let waited = self.acquire(pid);
        (PageLatch { latches: self, pid }, waited)
    }

    /// Blocking acquire of `pid`'s latch; returns whether the acquisition
    /// had to wait (the contention signal the `latch_wait` histogram
    /// records).
    fn acquire(&self, pid: u64) -> bool {
        let me = std::thread::current().id();
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        assert!(
            state.held.get(&pid) != Some(&me),
            "page latch {pid} is not reentrant: already held by this thread"
        );
        let contended = state.held.contains_key(&pid);
        if contended {
            state.waiters += 1;
            while state.held.contains_key(&pid) {
                state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            state.waiters -= 1;
        }
        state.held.insert(pid, me);
        contended
    }

    /// Wakes the waiters only when there are any: the uncontended release
    /// is a map removal, not a `futex_wake`.
    fn release(&self, pid: u64) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let owner = state.held.remove(&pid);
        debug_assert!(owner.is_some(), "released page latch {pid} that was never acquired");
        let wake = state.waiters > 0;
        drop(state);
        if wake {
            self.cv.notify_all();
        }
    }
}

/// RAII guard for one page latch (see [`crate::Database::latch_page`]):
/// releases on drop, so early returns and panics cannot strand a latch.
/// Dropping latches in reverse-acquisition order is not required for
/// correctness — only the *acquisition* order matters for deadlock
/// freedom.
#[must_use = "a page latch blocks other structural writers until dropped"]
pub struct PageLatch<'p> {
    latches: &'p LatchTable,
    pid: u64,
}

impl PageLatch<'_> {
    /// The latched logical page.
    pub fn pid(&self) -> u64 {
        self.pid
    }
}

impl Drop for PageLatch<'_> {
    fn drop(&mut self) {
        self.latches.release(self.pid);
    }
}

/// Backend adapter over the database's mutex-guarded store (locked per
/// operation; the cache lock is always taken first).
pub(crate) struct StoreBackend<'a>(pub(crate) &'a Mutex<Box<dyn PageStore>>);

impl StoreBackend<'_> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Box<dyn PageStore>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl PageBackend for StoreBackend<'_> {
    fn read(&mut self, pid: u64, out: &mut [u8]) -> Result<()> {
        Ok(self.lock().read_page(pid, out)?)
    }

    fn apply(&mut self, pid: u64, page_after: &[u8], changes: &[ChangeRange]) -> Result<()> {
        Ok(self.lock().apply_update(pid, page_after, changes)?)
    }

    fn evict(&mut self, pid: u64, page: &[u8], held: Option<&[u8]>) -> Result<()> {
        Ok(self.lock().evict_held(pid, page, held)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, Durability};
    use pdl_core::{build_store, MethodKind, ShardedStore, StoreOptions};
    use pdl_flash::{FlashChip, FlashConfig};
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::atomic::Ordering;

    /// A database over `store` whose open transactions' frames are
    /// pinned (durable commits), with `capacity` frames.
    fn pool_over(store: Box<dyn PageStore>, capacity: usize) -> Database {
        Database::new(store, capacity).with_durability(Durability::Commit)
    }

    /// A 24-page `kind` store over `shards` tiny chips: the plain store
    /// for one, a `ShardedStore` otherwise.
    fn store(kind: MethodKind, shards: usize) -> Box<dyn PageStore> {
        let opts = StoreOptions::new(24);
        if shards == 1 {
            return build_store(FlashChip::new(FlashConfig::tiny()), kind, opts).unwrap();
        }
        Box::new(ShardedStore::with_uniform_chips(FlashConfig::tiny(), shards, kind, opts).unwrap())
    }

    fn pool(capacity: usize, kind: MethodKind) -> Database {
        pool_over(store(kind, 1), capacity)
    }

    #[test]
    fn writes_survive_eviction_pressure() {
        for shards in [1, 2] {
            let p = pool_over(store(MethodKind::Pdl { max_diff_size: 128 }, shards), 2);
            for pid in 0..8u64 {
                p.with_page_mut(pid, |page| page.write(0, &[pid as u8; 4])).unwrap();
            }
            for pid in 0..8u64 {
                let b = p.with_page(pid, |page| page[0]).unwrap();
                assert_eq!(b, pid as u8, "{shards} shards, pid {pid}");
            }
            assert!(p.buffer_stats().evictions > 0, "{shards} shards");
            assert!(p.buffer_stats().dirty_writebacks > 0, "{shards} shards");
        }
    }

    #[test]
    fn hits_do_not_touch_flash() {
        for (kind, shards) in [(MethodKind::Opu, 1), (MethodKind::Pdl { max_diff_size: 128 }, 2)] {
            let p = pool_over(store(kind, shards), 4);
            p.with_page_mut(1, |page| page.write(0, b"abcd")).unwrap();
            let before = p.io_stats().total();
            for _ in 0..10 {
                p.with_page(1, |page| page[0]).unwrap();
            }
            let d = p.io_stats().total() - before;
            assert_eq!(d.total_ops(), 0, "{shards} shards: cache hits must be free");
            assert_eq!(p.buffer_stats().hits, 10, "{shards} shards");
        }
    }

    #[test]
    fn clean_pages_evict_without_writeback() {
        let p = pool(1, MethodKind::Opu);
        p.with_page(0, |_| ()).unwrap();
        p.with_page(1, |_| ()).unwrap(); // evicts page 0, clean
        assert_eq!(p.buffer_stats().dirty_writebacks, 0);
        assert_eq!(p.buffer_stats().evictions, 1);
    }

    #[test]
    fn update_commands_reach_tightly_coupled_methods() {
        let p = pool(2, MethodKind::Ipl { log_bytes_per_block: 512 });
        // Load the page first so IPL has an original page.
        p.with_page_mut(3, |page| {
            let len = page.len();
            page.fill(0, len, 7);
        })
        .unwrap();
        p.flush().unwrap();
        // A small update command becomes an update log, readable back.
        p.with_page_mut(3, |page| page.write(10, &[9, 9])).unwrap();
        p.flush().unwrap();
        p.lock_cache().clear(); // read it back from the store, not the frame
        let (a, b) = p.with_page(3, |page| (page[10], page[12])).unwrap();
        assert_eq!(a, 9);
        assert_eq!(b, 7);
    }

    #[test]
    fn flush_all_makes_state_durable() {
        let p = pool(4, MethodKind::Pdl { max_diff_size: 128 });
        p.with_page_mut(0, |page| page.write(5, b"xyz")).unwrap();
        p.flush().unwrap();
        let store = p.into_store().unwrap();
        let chip = store.into_chip();
        let mut back = pdl_core::recover_store(
            chip,
            MethodKind::Pdl { max_diff_size: 128 },
            StoreOptions::new(24),
        )
        .unwrap();
        let mut out = vec![0u8; back.logical_page_size()];
        back.read_page(0, &mut out).unwrap();
        assert_eq!(&out[5..8], b"xyz");
    }

    /// A raw cache of `capacity` frames over a map, pinning owned frames.
    fn raw_cache(capacity: usize) -> (FrameCache, MemBackend) {
        (FrameCache::new(capacity, MODEL_PAGE, 8, true), MemBackend::default())
    }

    fn read(cache: &mut FrameCache, backend: &mut MemBackend, pid: u64) -> Result<()> {
        cache.with_page(backend, pid, |_| ())
    }

    fn dirty(cache: &mut FrameCache, backend: &mut MemBackend, pid: u64, txn: u64) -> Result<()> {
        cache.with_page_mut_txn(backend, pid, txn, &NoVersioning, |page| page.write(0, &[1]))
    }

    fn queue_of(cache: &FrameCache, pid: u64) -> Option<usize> {
        cache.map.get(&pid).map(|&idx| cache.frames[idx].queue)
    }

    #[test]
    fn one_shot_misses_do_not_evict_a_page_rereferenced_through_a1out() {
        let (mut cache, mut mem) = raw_cache(8);
        for pid in 0..8 {
            read(&mut cache, &mut mem, pid).unwrap();
        }
        read(&mut cache, &mut mem, 100).unwrap(); // evicts 0 into A1out
        read(&mut cache, &mut mem, 0).unwrap(); // its second reference
        assert_eq!(queue_of(&cache, 0), Some(AM));
        // A scan twice the pool's size: exact LRU would have evicted page 0,
        // the least recently used page, on its first miss.
        for pid in 200..216 {
            read(&mut cache, &mut mem, pid).unwrap();
        }
        assert!(cache.is_cached(0), "the scan went through A1in alone");
        assert_eq!(cache.stats().evictions, 2 + 16);
    }

    #[test]
    fn clean_frames_go_first_inside_the_window_and_dirty_ones_past_it() {
        let (mut cache, mut mem) = raw_cache(8);
        for pid in 0..8 {
            read(&mut cache, &mut mem, pid).unwrap();
        }
        // A1in holds 0..8 in admission order, and its window is the oldest
        // four. Dirtying is a hit there, so nobody moves.
        for pid in [0, 1, 2] {
            dirty(&mut cache, &mut mem, pid, NO_TXN).unwrap();
        }
        read(&mut cache, &mut mem, 100).unwrap();
        assert!(!cache.is_cached(3), "the oldest clean frame in the window goes");
        assert!(cache.is_cached(0));
        let stats = cache.stats();
        assert_eq!((stats.dirty_writebacks, stats.clean_first_evictions), (0, 1));
        // Now the window is 0, 1, 2, 4, all dirty: the clean 5 lies past it,
        // so the oldest frame goes and is written back.
        dirty(&mut cache, &mut mem, 4, NO_TXN).unwrap();
        read(&mut cache, &mut mem, 101).unwrap();
        assert!(!cache.is_cached(0) && cache.is_cached(5));
        let stats = cache.stats();
        assert_eq!((stats.dirty_writebacks, stats.clean_first_evictions), (1, 1));
        assert_eq!(mem.pages[&0][0], 1, "the write-back reached the store");
    }

    #[test]
    fn a_miss_on_a_ghost_pid_enters_am_and_a_hit_there_moves_it_up() {
        // Four frames: A1out remembers two pids, and A1in is the victim
        // queue while it holds more than one frame.
        let (mut cache, mut mem) = raw_cache(4);
        for pid in 0..6 {
            read(&mut cache, &mut mem, pid).unwrap(); // 4 and 5 evict 0 and 1
        }
        assert_eq!(cache.ghosts, [0, 1]);
        read(&mut cache, &mut mem, 0).unwrap(); // evicts 2
        read(&mut cache, &mut mem, 1).unwrap(); // evicts 3
        assert_eq!((queue_of(&cache, 0), queue_of(&cache, 1)), (Some(AM), Some(AM)));
        assert_eq!(cache.ghosts, [2, 3], "A1out holds the last two A1in victims");
        read(&mut cache, &mut mem, 6).unwrap(); // evicts 4
        assert_eq!(queue_of(&cache, 6), Some(A1IN));
        read(&mut cache, &mut mem, 0).unwrap(); // a hit: 0 moves above 1 in Am
        read(&mut cache, &mut mem, 4).unwrap(); // a ghost again: evicts 5
        assert_eq!(cache.queues[A1IN].len, 1);
        // A1in is down to one frame, so Am's least recently used page goes.
        read(&mut cache, &mut mem, 5).unwrap();
        assert!(!cache.is_cached(1) && cache.is_cached(0));
        assert_eq!(cache.stats().ghost_hits, 4);
        // A pid that aged out of A1out is a first-time miss again.
        read(&mut cache, &mut mem, 2).unwrap();
        assert_eq!(queue_of(&cache, 2), Some(A1IN));
        assert_eq!(cache.stats().ghost_hits, 4);
    }

    #[test]
    fn pinned_frames_are_skipped_and_buffer_pinned_when_every_frame_is() {
        let (mut cache, mut mem) = raw_cache(4);
        for pid in 0..5 {
            read(&mut cache, &mut mem, pid).unwrap(); // 4 evicts 0
        }
        read(&mut cache, &mut mem, 0).unwrap(); // 0 into Am, evicts 1

        // Transaction 7 pins all of A1in: the victim comes from Am.
        for pid in [2, 3, 4] {
            dirty(&mut cache, &mut mem, pid, 7).unwrap();
        }
        read(&mut cache, &mut mem, 5).unwrap();
        assert!(!cache.is_cached(0), "A1in was all pinned");
        assert!([2, 3, 4].iter().all(|&pid| cache.dirty_owner(pid) == 7));
        assert_eq!(cache.stats().dirty_writebacks, 0);
        // Pinning the last frame leaves nothing to evict.
        dirty(&mut cache, &mut mem, 5, 8).unwrap();
        assert_eq!(read(&mut cache, &mut mem, 6), Err(StorageError::BufferPinned));
        assert!(!cache.is_cached(6));
        // A durable commit unpins its frames and cleans them.
        cache.end_txn(7, None, true, u64::MAX);
        read(&mut cache, &mut mem, 6).unwrap();
        assert!(!cache.is_cached(2), "the oldest clean frame in the window");
        assert_eq!(cache.stats().dirty_writebacks, 0);
    }

    /// The image frame of `pid` holds for its write-back.
    fn held_image(cache: &FrameCache, pid: u64) -> Option<Vec<u8>> {
        cache.map.get(&pid).and_then(|&idx| cache.frames[idx].held.clone())
    }

    #[test]
    fn a_frame_whose_read_failed_holds_no_page() {
        let (mut cache, mut mem) = raw_cache(1);
        cache.set_pin_owned(false);
        // A relaxed commit leaves page 0 dirty, holding the store's image.
        dirty(&mut cache, &mut mem, 0, 1).unwrap();
        cache.end_txn(1, None, false, u64::MAX);
        assert_eq!(held_image(&cache, 0), Some(vec![0; MODEL_PAGE]));
        mem.corrupt = Some(5);
        assert!(read(&mut cache, &mut mem, 5).is_err()); // evicts 0 first
        assert!(!cache.is_cached(0) && !cache.is_cached(5));
        cache.check_queues();
        let stats = cache.stats();
        assert_eq!((stats.dirty_writebacks, stats.held_writebacks), (1, 1));
        // The freed frame is reused without a second write-back of page 0,
        // and holds no image.
        read(&mut cache, &mut mem, 0).unwrap();
        assert_eq!(held_image(&cache, 0), None);
        assert_eq!(cache.stats().dirty_writebacks, 1);
        assert_eq!(mem.pages[&0][0], 1, "page 0 as written back");
        cache.write_back_dirty(&mut mem).unwrap();
        assert_eq!(mem.pages[&0][0], 1);
        assert_eq!(cache.with_page(&mut mem, 0, |page| page[0]).unwrap(), 1);
        assert!(mem.wrong_held.is_empty());
    }

    #[test]
    fn a_relaxed_eviction_inside_a_transaction_spends_its_pre_image() {
        let (mut cache, mut mem) = raw_cache(1);
        cache.set_pin_owned(false);
        mem.pages.insert(0, vec![7; MODEL_PAGE]);
        dirty(&mut cache, &mut mem, 0, 1).unwrap();
        // Page 1's miss evicts page 0 in the middle of transaction 1: the
        // store gets the pre-image as the image it holds, and holds the
        // transaction's page from then on.
        read(&mut cache, &mut mem, 1).unwrap();
        assert_eq!(cache.stats().held_writebacks, 1);
        // Re-dirtied, the frame holds the page as the miss re-read it,
        // and keeps it through the abort: the restored pre-image is no
        // longer what the store holds.
        let partial = mem.stored(0);
        assert_eq!(partial[0], 1);
        dirty(&mut cache, &mut mem, 0, 1).unwrap();
        assert_eq!(held_image(&cache, 0), Some(partial.clone()));
        cache.rollback(&mut mem, 1).unwrap();
        assert_eq!(held_image(&cache, 0), Some(partial));
        cache.write_back_dirty(&mut mem).unwrap();
        assert_eq!(mem.pages[&0], vec![7; MODEL_PAGE], "the abort reached the store");
        // The same with a commit: each eviction hands on what the store
        // holds, and the committed frame keeps the page as re-read.
        dirty(&mut cache, &mut mem, 0, 2).unwrap();
        read(&mut cache, &mut mem, 1).unwrap();
        dirty(&mut cache, &mut mem, 0, 2).unwrap();
        cache.end_txn(2, None, false, u64::MAX);
        assert_eq!(held_image(&cache, 0), Some(mem.stored(0)));
        cache.write_back_dirty(&mut mem).unwrap();
        // A transaction nothing evicted: its abort leaves the frame dirty
        // with no image, and the write-back reads the base.
        dirty(&mut cache, &mut mem, 0, 3).unwrap();
        cache.rollback(&mut mem, 3).unwrap();
        assert_eq!(held_image(&cache, 0), None);
        cache.write_back_dirty(&mut mem).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.dirty_writebacks, stats.held_writebacks), (5, 4));
        cache.check_queues();
        assert!(mem.wrong_held.is_empty());
    }

    #[test]
    fn buffer_stats_count_ghost_hits_and_clean_first_evictions() {
        let p = pool_over(store(MethodKind::Opu, 1), 4);
        for pid in 0..5 {
            p.with_page(pid, |_| ()).unwrap(); // 4 evicts 0
        }
        p.with_page(0, |_| ()).unwrap(); // a ghost hit, evicts 1
        p.with_page_mut(2, |page| page.write(0, &[1])).unwrap();
        p.with_page(5, |_| ()).unwrap(); // passes the dirty 2 for the clean 3
        let stats = p.buffer_stats();
        assert_eq!((stats.ghost_hits, stats.clean_first_evictions), (1, 1));
        assert_eq!((stats.evictions, stats.dirty_writebacks), (3, 0));
    }

    #[test]
    fn relaxed_commits_hand_their_pre_images_to_the_write_backs() {
        let pdl = MethodKind::Pdl { max_diff_size: 128 };
        for shards in [1, 2] {
            let p = Database::new(store(pdl, shards), 8);
            for pid in 0..4u64 {
                p.with_page_mut(pid, |page| page.write(0, &[pid as u8; 8])).unwrap();
            }
            p.flush().unwrap();
            assert_eq!(p.buffer_stats().held_writebacks, 0, "auto-commits hold nothing");
            for round in 1..=2u8 {
                p.begin().unwrap();
                for pid in 0..4u64 {
                    p.with_page_mut(pid, |page| page.write(8, &[round; 4])).unwrap();
                }
                p.commit().unwrap();
                let reads = p.io_stats().total().reads;
                if round == 1 {
                    p.flush().unwrap();
                    assert_eq!(p.buffer_stats().held_writebacks, 4, "{shards} shards");
                } else {
                    // A shrink writes back the same way.
                    p.set_buffer_pages(2).unwrap();
                }
                let read = p.io_stats().total().reads - reads;
                assert_eq!(read, 0, "{shards} shards, round {round}: base pages read back");
            }
            p.lock_cache().clear();
            for pid in 0..4u64 {
                let page = p.with_page(pid, |page| page[..12].to_vec()).unwrap();
                assert_eq!(
                    page,
                    [&[pid as u8; 8][..], &[2; 4]].concat(),
                    "{shards} shards, pid {pid}"
                );
            }
        }
    }

    #[test]
    fn page_mut_helpers_record_changes() {
        let mut data = vec![0u8; 64];
        let mut changes = Vec::new();
        let mut page = PageMut { data: &mut data, changes: &mut changes };
        page.write_u16(0, 0x1234);
        page.write_u64(8, 42);
        page.fill(20, 4, 0xFF);
        page.copy_within(20, 30, 4);
        assert_eq!(read_u16(page.as_slice(), 0), 0x1234);
        assert_eq!(read_u64(page.as_slice(), 8), 42);
        assert_eq!(&page.as_slice()[30..34], &[0xFF; 4]);
        assert_eq!(changes.len(), 4);
    }

    // ------------------------------------------------------------------
    // Queues, clean lists and owned-frame lists against full scans
    // ------------------------------------------------------------------

    const MODEL_PAGE: usize = 8;

    /// A store that is a map: `evict` is the only way in. A read of
    /// `corrupt` scribbles over the frame and fails, as a read that finds
    /// a corrupt page may.
    #[derive(Default)]
    struct MemBackend {
        pages: HashMap<u64, Vec<u8>>,
        corrupt: Option<u64>,
        /// Write-backs whose held image was not the page the map held.
        wrong_held: Vec<u64>,
    }

    impl MemBackend {
        /// What a read of `pid` returns (a page never written is zeroes).
        fn stored(&self, pid: u64) -> Vec<u8> {
            self.pages.get(&pid).cloned().unwrap_or_else(|| vec![0; MODEL_PAGE])
        }
    }

    impl PageBackend for MemBackend {
        fn read(&mut self, pid: u64, out: &mut [u8]) -> Result<()> {
            if self.corrupt == Some(pid) {
                out.fill(0xEE);
                return Err(StorageError::Internal(format!("page {pid} is corrupt")));
            }
            match self.pages.get(&pid) {
                Some(page) => out.copy_from_slice(page),
                None => out.fill(0),
            }
            Ok(())
        }

        fn apply(&mut self, _: u64, _: &[u8], _: &[ChangeRange]) -> Result<()> {
            Ok(())
        }

        fn evict(&mut self, pid: u64, page: &[u8], held: Option<&[u8]>) -> Result<()> {
            if held.is_some_and(|held| held != self.stored(pid)) {
                self.wrong_held.push(pid);
            }
            self.pages.insert(pid, page.to_vec());
            Ok(())
        }
    }

    struct ScanFrame {
        pid: u64,
        data: Vec<u8>,
        dirty: bool,
        owner: u64,
        queue: usize,
        /// Admission in `A1in`, last use in `Am`.
        stamp: u64,
        /// The image the store holds for the page, kept for the
        /// write-back.
        held: Option<Vec<u8>>,
    }

    /// The frame cache without lists: a queue and a stamp per frame, and
    /// the victim, the owned set and the release each found by a scan
    /// over every frame.
    #[derive(Default)]
    struct ScanModel {
        frames: Vec<ScanFrame>,
        capacity: usize,
        pin_owned: bool,
        tick: u64,
        /// `A1out`, oldest first.
        ghosts: Vec<u64>,
        ghost_hits: u64,
        clean_first_evictions: u64,
        /// pid → (transaction, pre-image, whether the store holds it)
        pending: std::collections::BTreeMap<u64, (u64, Vec<u8>, bool)>,
        store: HashMap<u64, Vec<u8>>,
        evictions: u64,
        dirty_writebacks: u64,
        held_writebacks: u64,
    }

    impl ScanModel {
        fn slot(&self, pid: u64) -> Option<usize> {
            self.frames.iter().position(|f| f.pid == pid)
        }

        fn pinned(&self, f: &ScanFrame) -> bool {
            self.pin_owned && f.owner != NO_TXN
        }

        /// The victim of `queue` and whether it is a clean frame taken
        /// over an older dirty one: the oldest clean frame among the older
        /// half of the queue's frames by stamp, else its oldest frame not
        /// pinned.
        fn victim_in(&self, queue: usize) -> Option<(usize, bool)> {
            let mut order: Vec<usize> =
                (0..self.frames.len()).filter(|&i| self.frames[i].queue == queue).collect();
            order.sort_by_key(|&i| self.frames[i].stamp);
            let window = &order[..order.len().div_ceil(2)];
            if let Some(&clean) = window.iter().find(|&&i| !self.frames[i].dirty) {
                return Some((clean, clean != order[0]));
            }
            order.into_iter().find(|&i| !self.pinned(&self.frames[i])).map(|i| (i, false))
        }

        fn fetch(&mut self, pid: u64) -> Result<usize> {
            if let Some(idx) = self.slot(pid) {
                return Ok(idx);
            }
            let ghost = self.ghosts.contains(&pid);
            let idx = if self.frames.len() < self.capacity {
                self.frames.push(ScanFrame {
                    pid,
                    data: Vec::new(),
                    dirty: false,
                    owner: NO_TXN,
                    queue: A1IN,
                    stamp: 0,
                    held: None,
                });
                self.frames.len() - 1
            } else {
                let in_a1in = self.frames.iter().filter(|f| f.queue == A1IN).count();
                let first = if in_a1in > self.capacity / 4 || in_a1in == self.frames.len() {
                    A1IN
                } else {
                    AM
                };
                let (idx, clean_first) = self
                    .victim_in(first)
                    .or_else(|| self.victim_in(1 - first))
                    .ok_or(StorageError::BufferPinned)?;
                if self.frames[idx].dirty {
                    self.write_back(idx);
                }
                let victim = &self.frames[idx];
                if victim.queue == A1IN {
                    self.ghosts.push(victim.pid);
                    if self.ghosts.len() > self.capacity / 2 {
                        self.ghosts.remove(0);
                    }
                }
                self.evictions += 1;
                self.clean_first_evictions += clean_first as u64;
                idx
            };
            self.ghost_hits += ghost as u64;
            self.tick += 1;
            let data = self.store.get(&pid).cloned().unwrap_or_else(|| vec![0; MODEL_PAGE]);
            let f = &mut self.frames[idx];
            (f.pid, f.data, f.dirty, f.owner, f.held) = (pid, data, false, NO_TXN, None);
            (f.queue, f.stamp) = (if ghost { AM } else { A1IN }, self.tick);
            Ok(idx)
        }

        fn touch(&mut self, idx: usize) {
            if self.frames[idx].queue == AM {
                self.tick += 1;
                self.frames[idx].stamp = self.tick;
            }
        }

        fn read(&mut self, pid: u64) -> Result<Vec<u8>> {
            let idx = self.fetch(pid)?;
            self.touch(idx);
            Ok(self.frames[idx].data.clone())
        }

        fn write(&mut self, pid: u64, txn: u64, value: Option<u8>) -> Result<()> {
            let idx = self.fetch(pid)?;
            let f = &self.frames[idx];
            if f.dirty && f.owner != NO_TXN && f.owner != txn {
                return Err(StorageError::TxnConflict { pid });
            }
            self.touch(idx);
            let Some(value) = value else { return Ok(()) };
            let f = &mut self.frames[idx];
            if txn != NO_TXN {
                // A clean frame is the store's image: the pending
                // pre-image when there is none yet, else the frame's own.
                if self.pending.contains_key(&pid) && !f.dirty {
                    f.held = Some(f.data.clone());
                }
                let held = !f.dirty;
                self.pending.entry(pid).or_insert_with(|| (txn, f.data.clone(), held));
                f.owner = txn;
            }
            f.data[0] = value;
            f.dirty = true;
            Ok(())
        }

        fn collect_owned(&self, txn: u64) -> Vec<OwnedPage> {
            let mut out: Vec<OwnedPage> = self
                .frames
                .iter()
                .filter(|f| f.owner == txn && f.dirty)
                .map(|f| OwnedPage {
                    pid: f.pid,
                    image: f.data.clone(),
                    held: self
                        .pending
                        .get(&f.pid)
                        .filter(|(t, _, held)| *t == txn && *held)
                        .map(|(_, data, _)| data.clone()),
                })
                .collect();
            out.sort_by_key(|p| p.pid);
            out
        }

        /// Take `txn`'s pending pre-images out, in page order.
        fn take_pending(&mut self, txn: u64) -> Vec<(u64, Vec<u8>, bool)> {
            let pids: Vec<u64> =
                self.pending.iter().filter(|(_, (t, ..))| *t == txn).map(|(pid, _)| *pid).collect();
            let mut out = Vec::new();
            for pid in pids {
                let (_, undo, held) = self.pending.remove(&pid).expect("listed above");
                out.push((pid, undo, held));
            }
            out
        }

        /// A relaxed commit leaves each frame whose pre-image the store
        /// still holds with that image.
        fn end_txn(&mut self, txn: u64, clean: bool) {
            for f in self.frames.iter_mut().filter(|f| f.owner == txn) {
                f.owner = NO_TXN;
                f.dirty &= !clean;
                if clean {
                    f.held = None;
                }
            }
            for (pid, undo, held) in self.take_pending(txn) {
                if held && !clean {
                    let idx = self.slot(pid).expect("a held pre-image's frame is resident");
                    self.frames[idx].held = Some(undo);
                }
            }
        }

        /// A restored frame keeps whatever image it held.
        fn rollback(&mut self, txn: u64) -> Result<()> {
            for (pid, undo, _) in self.take_pending(txn) {
                let idx = self.fetch(pid)?; // a refill, not a use
                let f = &mut self.frames[idx];
                (f.data, f.dirty, f.owner) = (undo, true, NO_TXN);
            }
            Ok(())
        }

        /// Write frame `idx` back, with the store's image when the frame
        /// holds it or the page's pending pre-image still is it; neither
        /// is afterwards.
        fn write_back(&mut self, idx: usize) {
            let f = &mut self.frames[idx];
            let pending = self.pending.get_mut(&f.pid);
            let held = f.held.take().is_some() || pending.as_ref().is_some_and(|(_, _, h)| *h);
            if let Some((_, _, h)) = pending {
                *h = false;
            }
            self.store.insert(f.pid, f.data.clone());
            self.dirty_writebacks += 1;
            self.held_writebacks += held as u64;
        }

        fn write_back_dirty(&mut self) {
            for idx in 0..self.frames.len() {
                if self.frames[idx].dirty && !self.pinned(&self.frames[idx]) {
                    self.write_back(idx);
                    let f = &mut self.frames[idx];
                    (f.dirty, f.owner) = (false, NO_TXN);
                }
            }
        }

        fn clear(&mut self) {
            self.frames.clear();
            self.pending.clear();
            self.ghosts.clear();
        }

        /// `set_buffer_pages` once everything is written back: an empty
        /// cache of `capacity` frames with zeroed counters.
        fn resize(&mut self, capacity: usize) {
            assert!(self.frames.iter().all(|f| !f.dirty));
            *self = ScanModel {
                capacity,
                pin_owned: self.pin_owned,
                store: std::mem::take(&mut self.store),
                ..ScanModel::default()
            };
        }

        /// The image frame of `pid` holds, if any.
        fn held(&self, pid: u64) -> Option<Vec<u8>> {
            self.slot(pid).and_then(|idx| self.frames[idx].held.clone())
        }

        fn dirty_owner(&self, pid: u64) -> u64 {
            self.slot(pid)
                .map(|idx| &self.frames[idx])
                .filter(|f| f.dirty)
                .map_or(NO_TXN, |f| f.owner)
        }
    }

    /// One generated step: `(kind, pid, writer, value)`.
    type ScanOp = (u8, u64, usize, u8);

    fn run_against_scans(
        capacity: usize,
        pin_owned: bool,
        ops: Vec<ScanOp>,
    ) -> std::result::Result<(), TestCaseError> {
        let new_cache = |capacity| {
            let mut cache = FrameCache::new(capacity, MODEL_PAGE, 8, true);
            cache.set_pin_owned(pin_owned);
            cache
        };
        let mut cache = new_cache(capacity);
        let mut backend = MemBackend::default();
        let mut model = ScanModel { capacity, pin_owned, ..ScanModel::default() };
        // Writer 0 auto-commits; 1..=3 are open transactions, each
        // replaced by a fresh id when it ends.
        let mut txns = [NO_TXN, 1, 2, 3];
        let mut next_txn = 4;
        for (step, (kind, pid, writer, value)) in ops.into_iter().enumerate() {
            let txn = txns[writer];
            match kind {
                0..=4 => {
                    let got = cache.with_page(&mut backend, pid, |page| page.to_vec());
                    prop_assert_eq!(got, model.read(pid), "step {}: read {}", step, pid);
                }
                5..=10 => {
                    // The cache asserts that a page carries one pending
                    // pre-image: relaxed mode can evict a transaction's
                    // page, and the layers above keep a second
                    // transaction off it.
                    if txn != NO_TXN
                        && model.pending.get(&pid).is_some_and(|(t, ..)| *t != txn)
                        && model.dirty_owner(pid) == NO_TXN
                    {
                        continue;
                    }
                    let value = (kind != 10).then_some(value); // 10: touch, no write
                    let got =
                        cache.with_page_mut_txn(&mut backend, pid, txn, &NoVersioning, |page| {
                            if let Some(v) = value {
                                page.write(0, &[v]);
                            }
                        });
                    prop_assert_eq!(got, model.write(pid, txn, value), "step {}: write", step);
                }
                11 if writer > 0 => {
                    let got = cache.collect_owned(txn);
                    prop_assert_eq!(got, model.collect_owned(txn), "step {}: collect", step);
                }
                12 if writer > 0 => {
                    // Commit: durable (the images go to the store, the
                    // frames turn clean) or relaxed (they stay dirty).
                    let staged = cache.collect_owned(txn);
                    prop_assert_eq!(&staged, &model.collect_owned(txn), "step {}: commit", step);
                    // A held image is exactly what the store holds.
                    for p in &staged {
                        if let Some(held) = &p.held {
                            let stored = backend.stored(p.pid);
                            prop_assert_eq!(held, &stored, "step {}: page {} held", step, p.pid);
                        }
                    }
                    let clean = value % 2 == 0;
                    if clean {
                        for p in staged {
                            backend.pages.insert(p.pid, p.image.clone());
                            model.store.insert(p.pid, p.image);
                        }
                    }
                    cache.end_txn(txn, None, clean, u64::MAX);
                    model.end_txn(txn, clean);
                    txns[writer] = next_txn;
                    next_txn += 1;
                }
                13 if writer > 0 => {
                    let got = cache.rollback(&mut backend, txn);
                    prop_assert_eq!(got, model.rollback(txn), "step {}: rollback", step);
                    txns[writer] = next_txn;
                    next_txn += 1;
                }
                14 => {
                    cache.write_back_dirty(&mut backend).unwrap();
                    model.write_back_dirty();
                }
                15 if value < 32 => {
                    cache.clear();
                    model.clear();
                }
                16 => {
                    // `set_buffer_pages`, shrinking or growing: the open
                    // transactions end first (relaxed commits, their
                    // frames keep the held images), then every dirty page
                    // is written back and the cache starts over.
                    for t in &mut txns[1..] {
                        cache.end_txn(*t, None, false, u64::MAX);
                        model.end_txn(*t, false);
                        *t = next_txn;
                        next_txn += 1;
                    }
                    cache.write_back_dirty(&mut backend).unwrap();
                    model.write_back_dirty();
                    let stats = cache.stats();
                    prop_assert_eq!(
                        (stats.dirty_writebacks, stats.held_writebacks),
                        (model.dirty_writebacks, model.held_writebacks),
                        "step {}: resize",
                        step
                    );
                    let capacity = 1 + usize::from(value) % 6;
                    cache = new_cache(capacity);
                    model.resize(capacity);
                }
                _ => continue,
            }
            for pid in 0..10 {
                let cached = model.slot(pid).is_some();
                prop_assert_eq!(cache.is_cached(pid), cached, "step {}: page {}", step, pid);
                let owner = model.dirty_owner(pid);
                prop_assert_eq!(cache.dirty_owner(pid), owner, "step {}: page {}", step, pid);
                prop_assert_eq!(
                    held_image(&cache, pid),
                    model.held(pid),
                    "step {}: page {} held",
                    step,
                    pid
                );
            }
            prop_assert_eq!(&backend.pages, &model.store, "step {}: written back", step);
            // Every held image a write-back handed on was the stored page.
            prop_assert_eq!(&backend.wrong_held, &Vec::<u64>::new(), "step {}", step);
            let stats = cache.stats();
            prop_assert_eq!(
                (stats.evictions, stats.dirty_writebacks),
                (model.evictions, model.dirty_writebacks),
                "step {}",
                step
            );
            prop_assert_eq!(
                (stats.ghost_hits, stats.clean_first_evictions),
                (model.ghost_hits, model.clean_first_evictions),
                "step {}",
                step
            );
            prop_assert_eq!(stats.held_writebacks, model.held_writebacks, "step {}", step);
            cache.check_queues();
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every miss evicts the page the scan over queues and stamps
        /// would have (2Q's victim queue, the oldest clean frame in its
        /// older half, else its oldest frame not pinned), `collect_owned`
        /// returns what the owner scan would have, and the cache refuses
        /// (`BufferPinned`, `TxnConflict`) exactly when the scans would
        /// have — through three interleaved transactions, in both pinning
        /// modes, across write-backs, durable commits that clean frames,
        /// rollbacks that re-fault evicted pages, cache resets and
        /// resizes. Every frame holds the image the model says it holds,
        /// and every image a write-back hands the store is the page the
        /// store holds.
        #[test]
        fn lists_match_the_full_scans(
            capacity in 1usize..=6,
            pin_owned in any::<bool>(),
            ops in proptest::collection::vec((0u8..17, 0u64..10, 0usize..4, 1u8..=255), 1..200),
        ) {
            run_against_scans(capacity, pin_owned, ops)?;
        }
    }

    // ------------------------------------------------------------------
    // MVCC read views
    // ------------------------------------------------------------------

    #[test]
    fn view_is_isolated_from_auto_committed_writes() {
        let p = pool(4, MethodKind::Opu);
        p.with_page_mut(0, |page| page.write(0, &[1; 4])).unwrap();
        let view = p.begin_read();
        p.with_page_mut(0, |page| page.write(0, &[2; 4])).unwrap();
        p.with_page_mut(0, |page| page.write(0, &[3; 4])).unwrap();
        // The view still reads the image at open time; current reads see
        // the newest committed data.
        assert_eq!(p.with_page_at(&view, 0, |pg| pg[0]).unwrap(), 1);
        assert_eq!(p.with_page(0, |pg| pg[0]).unwrap(), 3);
        assert!(p.buffer_stats().version_reads > 0);
        p.release_read(view);
        assert_eq!(p.retained_versions(), 0, "release prunes the chain");
    }

    #[test]
    fn versions_survive_frame_eviction() {
        let p = pool(1, MethodKind::Opu); // one frame: every access evicts
        p.with_page_mut(0, |page| page.write(0, &[7; 4])).unwrap();
        let view = p.begin_read();
        p.with_page_mut(0, |page| page.write(0, &[8; 4])).unwrap();
        for pid in 1..6u64 {
            p.with_page_mut(pid, |page| page.write(0, &[pid as u8; 2])).unwrap();
        }
        assert_eq!(p.with_page_at(&view, 0, |pg| pg[0]).unwrap(), 7);
        p.release_read(view);
    }

    #[test]
    fn no_views_means_no_retention() {
        let p = pool(4, MethodKind::Opu);
        for round in 0..10u8 {
            p.with_page_mut(0, |page| page.write(0, &[round; 4])).unwrap();
        }
        assert_eq!(p.retained_versions(), 0, "versioning is free-riding: no readers, no copies");
    }

    #[test]
    fn cap_cuts_off_the_oldest_view() {
        let chip = FlashChip::new(FlashConfig::tiny());
        let store =
            build_store(chip, MethodKind::Opu, StoreOptions::new(24).with_snapshot_version_cap(3))
                .unwrap();
        let p = pool_over(store, 8);
        p.with_page_mut(0, |page| page.write(0, &[1; 4])).unwrap();
        let view = p.begin_read();
        for round in 0..8u8 {
            p.with_page_mut(round as u64 % 4, |page| page.write(0, &[round + 10; 4])).unwrap();
        }
        assert!(p.retained_versions() <= 3, "cap bounds the pool's version memory");
        let err = p.with_page_at(&view, 0, |_| ()).unwrap_err();
        assert!(matches!(err, StorageError::SnapshotTooOld { .. }), "got {err:?}");
        p.release_read(view);
        assert_eq!(p.retained_versions(), 0, "release prunes every retained version");
        // A fresh view reads fine.
        let view = p.begin_read();
        assert!(p.with_page_at(&view, 0, |_| ()).is_ok());
        p.release_read(view);
    }

    #[test]
    fn read_guard_releases_on_drop_and_gauges_active_views() {
        let p = pool(4, MethodKind::Opu);
        p.with_page_mut(0, |page| page.write(0, &[1; 4])).unwrap();
        {
            let guard = p.read_view();
            assert_eq!(p.buffer_stats().active_views, 1, "the gauge counts the open guard");
            p.with_page_mut(0, |page| page.write(0, &[2; 4])).unwrap();
            assert_eq!(p.with_page_at(guard.view(), 0, |pg| pg[0]).unwrap(), 1);
        }
        assert_eq!(p.buffer_stats().active_views, 0, "drop released the view");
        assert_eq!(p.retained_versions(), 0, "and pruned what it pinned");
        let r = p.with_read_view(|view| p.with_page_at(view, 0, |pg| pg[0]));
        assert_eq!(r.unwrap(), 2);
        assert_eq!(p.buffer_stats().active_views, 0, "the closure helper releases on exit");
    }

    // ------------------------------------------------------------------
    // A buffer hit takes the cache mutex and no other global lock
    // ------------------------------------------------------------------

    use std::sync::mpsc;
    use std::time::Duration;

    fn pool_of(kind: MethodKind) -> Database {
        let chip = FlashChip::new(FlashConfig::tiny());
        pool_over(build_store(chip, kind, StoreOptions::new(24)).unwrap(), 8)
    }

    /// Park one thread inside [`Database::with_store`], run the three
    /// kinds of buffer hit on another, and report whether they were done
    /// within `patience` — that is, while the store was still held. No
    /// interleaving is left to the scheduler: the store is released only
    /// after the answer is in.
    fn hits_finish_while_the_store_is_held(p: &Database, patience: Duration) -> bool {
        for pid in 0..3u64 {
            p.with_page(pid, |_| ()).unwrap();
        }
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                p.with_store(|_| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                })
            });
            entered_rx.recv().unwrap();
            scope.spawn(move || {
                p.with_page(0, |page| page[0]).unwrap();
                p.with_page_struct(1, |page| page[0]).unwrap();
                p.begin().unwrap();
                p.with_page_mut(2, |page| page.write(0, &[1; 4])).unwrap();
                done_tx.send(()).unwrap();
                p.abort().unwrap();
            });
            let finished = done_rx.recv_timeout(patience).is_ok();
            release_tx.send(()).unwrap();
            finished
        })
    }

    #[test]
    fn a_hit_never_waits_for_the_store() {
        let generous = Duration::from_secs(20);
        for kind in [MethodKind::Pdl { max_diff_size: 128 }, MethodKind::Opu, MethodKind::Ipu] {
            let p = pool_of(kind);
            assert!(hits_finish_while_the_store_is_held(&p, generous), "{}", kind.label());
        }
        let sharded = pdl_core::ShardedStore::with_uniform_chips(
            FlashConfig::tiny(),
            2,
            MethodKind::Pdl { max_diff_size: 128 },
            StoreOptions::new(24),
        )
        .unwrap();
        let p = pool_over(Box::new(sharded), 8);
        assert!(hits_finish_while_the_store_is_held(&p, generous), "sharded PDL");
    }

    #[test]
    fn a_store_that_consumes_updates_is_still_told() {
        // The mutation needs the store here, so it cannot finish while
        // another thread holds it, however long one waits.
        let brief = Duration::from_millis(50);
        let ipl = pool_of(MethodKind::Ipl { log_bytes_per_block: 512 });
        assert!(!hits_finish_while_the_store_is_held(&ipl, brief), "IPL writes its logs there");
    }

    #[test]
    fn latches_exclude_and_never_lose_a_wake_up() {
        // 8 threads hammer 2 latches. A release that skipped a wake-up a
        // waiter needed would leave that waiter asleep for good — the
        // watchdog below, not a hung test run, reports it.
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 50_000;
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        let latches = Arc::new(LatchTable::new());
        let guarded = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let (done_tx, done_rx) = mpsc::channel();
        let mut workers = Vec::new();
        for t in 0..THREADS {
            let (latches, guarded, done_tx) = (latches.clone(), guarded.clone(), done_tx.clone());
            workers.push(std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    let pid = (t + i) % 2;
                    latches.acquire(pid);
                    // Not an atomic increment: a second holder would lose
                    // updates.
                    let seen = guarded[pid as usize].load(Ordering::Relaxed);
                    guarded[pid as usize].store(seen + 1, Ordering::Relaxed);
                    latches.release(pid);
                }
                done_tx.send(()).unwrap();
            }));
        }
        for finished in 0..THREADS {
            done_rx
                .recv_timeout(Duration::from_secs(120))
                .unwrap_or_else(|_| panic!("only {finished} of {THREADS} threads finished"));
        }
        for worker in workers {
            worker.join().unwrap();
        }
        let total: u64 = guarded.iter().map(|g| g.load(Ordering::Relaxed)).sum();
        assert_eq!(total, THREADS * ROUNDS);
        let state = latches.state.lock().unwrap();
        assert!(state.held.is_empty() && state.waiters == 0);
    }

    #[test]
    #[should_panic(expected = "not reentrant")]
    fn latching_a_page_twice_on_one_thread_asserts() {
        let latches = LatchTable::new();
        latches.acquire(3);
        latches.acquire(3);
    }

    #[test]
    fn concurrent_readers_share_the_pool() {
        // &Database reads from several threads: the type-system witness
        // that non-mutating reads no longer need `&mut`.
        let p = pool(8, MethodKind::Opu);
        for pid in 0..8u64 {
            p.with_page_mut(pid, |page| page.write(0, &[pid as u8 + 1; 4])).unwrap();
        }
        let view = p.begin_read();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let p = &p;
                let view = &view;
                scope.spawn(move || {
                    for pid in 0..8u64 {
                        let cur = p.with_page(pid, |pg| pg[0]).unwrap();
                        let snap = p.with_page_at(view, pid, |pg| pg[0]).unwrap();
                        assert_eq!(cur, pid as u8 + 1);
                        assert_eq!(snap, pid as u8 + 1);
                    }
                });
            }
        });
        p.release_read(view);
    }
}
