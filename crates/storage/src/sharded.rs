//! The shard-striped buffer pool: concurrent page access over a
//! [`ShardedStore`].
//!
//! Frames are striped the same way the store stripes pages: stripe `i`
//! caches exactly the pages shard `i` owns, behind its own lock. A page
//! access therefore takes two locks in a fixed order — stripe `i`, then
//! (on a miss or write-back, inside the store) shard `i` — and
//! transactions touching different shards never serialize on anything.
//!
//! The API is the `&self` counterpart of [`crate::BufferPool`]: the same
//! update-command contract (mutations through [`PageMut`] report their
//! changed ranges to the page store), usable from many threads at once.
//!
//! # Group commit (`pdl-txn`)
//!
//! Concurrent transactions commit through a **group-commit coordinator**:
//! the first committer becomes the leader, absorbs every transaction
//! queued behind it, and executes one combined batch — per shard, all the
//! batch's differentials land in shared flash pages behind a single
//! differential-write-buffer flush, and all its commit records share a
//! flush too. This amortizes the commit-time flush the same way the
//! paper's Case-2 buffer amortizes page writes, trading a little commit
//! latency for flash throughput (the knob Adaptive Logging turns at
//! commit time). Followers block until the leader publishes their
//! result.

//! # Snapshot reads (MVCC)
//!
//! [`ShardedBufferPool::begin_read`] opens a [`ReadView`] whose reads
//! never wait on writers: they resolve against the per-stripe version
//! chains (see `FrameCache`). The registry coordinates views with the
//! group-commit coordinator so a **cross-shard batch is seen atomically
//! or not at all**: the leader allocates one commit timestamp for the
//! whole batch, blocks view *registration* (never reads through already
//! open views) while it publishes the batch's versions across stripes,
//! and only then admits new views — which, reading at the new clock, see
//! the entire batch. Auto-committed single-page writes allocate their
//! timestamp *after* mutating, under the owning stripe's lock, so a view
//! that ever observed the old image keeps observing it.

use crate::buffer::{
    BufferStats, FrameCache, NoVersioning, OwnedPage, PageBackend, PageMut, VersionSource,
};
use crate::db::TxnId;
use crate::view::{MvccState, PageRead, StructId, StructRoot, ViewRegistry};
use crate::{ReadGuard, ReadView, Result};
use pdl_core::{ChangeRange, CommitBatch, CoreError, PageStore, ShardedStore};
use pdl_flash::{FlashStats, WearSummary};
use pdl_obs::{LatencyClass, Recorder, RecorderSnapshot, TraceTrack};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Adapts the `*_shared` entry points of a [`ShardedStore`] to the
/// [`PageBackend`] a [`FrameCache`] drives.
struct SharedBackend<'a>(&'a ShardedStore);

impl PageBackend for SharedBackend<'_> {
    fn read(&mut self, pid: u64, out: &mut [u8]) -> Result<()> {
        self.0.read_page_shared(pid, out)?;
        Ok(())
    }

    fn apply(&mut self, pid: u64, page_after: &[u8], changes: &[ChangeRange]) -> Result<()> {
        self.0.apply_update_shared(pid, page_after, changes)?;
        Ok(())
    }

    fn evict(&mut self, pid: u64, page: &[u8]) -> Result<()> {
        self.0.evict_page_shared(pid, page)?;
        Ok(())
    }

    fn spill_supported(&mut self) -> bool {
        self.0.spill_supported_shared()
    }

    fn spill(&mut self, pid: u64, page: &[u8]) -> Result<u64> {
        Ok(self.0.spill_page_shared(pid, page)?.0)
    }

    fn read_spilled(&mut self, pid: u64, handle: u64, out: &mut [u8]) -> Result<()> {
        self.0.read_spill_shared(pid, handle, out)?;
        Ok(())
    }

    fn free_spilled(&mut self, pid: u64, handle: u64) -> Result<()> {
        self.0.free_spill_shared(pid, handle)?;
        Ok(())
    }
}

/// State shared by every committer: the queue the leader drains and the
/// results it publishes.
#[derive(Default)]
struct GroupState {
    pending: Vec<TxnId>,
    done: HashMap<TxnId, Result<()>>,
    leader_active: bool,
}

/// [`VersionSource`] over the pool's shared MVCC registry: called by a
/// writer *while it holds a stripe lock*, so the registry lock must never
/// be held while acquiring a stripe lock elsewhere.
struct ShardedVersioner<'a> {
    active_views: &'a AtomicUsize,
    mvcc: &'a Mutex<MvccState>,
}

impl VersionSource for ShardedVersioner<'_> {
    fn capture_hint(&self) -> bool {
        self.active_views.load(Ordering::SeqCst) > 0
    }

    fn commit_ts(&self) -> Option<(u64, Vec<u64>)> {
        let mut m = self.mvcc.lock().unwrap_or_else(|e| e.into_inner());
        let (ts, retain) = m.alloc_commit();
        retain.then(|| (ts, m.active_ts()))
    }
}

/// A concurrent LRU buffer pool, frame locks striped by shard, with a
/// group-commit coordinator for transactional writers and MVCC read
/// views that never serialize behind them.
pub struct ShardedBufferPool {
    store: ShardedStore,
    stripes: Vec<Mutex<FrameCache>>,
    next_txn: AtomicU64,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    mvcc: Mutex<MvccState>,
    mvcc_cv: Condvar,
    active_views: AtomicUsize,
    /// Uncommitted structural changes per transaction, published into the
    /// MVCC registry's structure-root log at the batch commit timestamp
    /// (discarded on abort). Lock order: `mvcc` before `pending_structs`
    /// (the only place both are held is the publish phase).
    pending_structs: Mutex<HashMap<TxnId, Vec<(StructId, StructRoot)>>>,
    /// Flash time charged by group-commit batches, totalled across
    /// shards (the serial fan-out cost)...
    commit_flush_us_sum: AtomicU64,
    /// ...and counting only each batch's slowest shard (the overlapped
    /// leader's critical path). See [`BufferStats::commit_flush_us_max`].
    commit_flush_us_max: AtomicU64,
    /// Pool-level observability: end-to-end commit-latency histograms
    /// (solo vs. group) and commit spans, on the shards' simulated
    /// clocks. Enabled iff the store was built with `StoreOptions::obs`.
    obs: Mutex<Recorder>,
}

impl ShardedBufferPool {
    /// `capacity` is the total number of buffered pages, split evenly
    /// across the store's shards (every stripe gets at least one frame).
    pub fn new(store: ShardedStore, capacity: usize) -> ShardedBufferPool {
        let shards = store.num_shards();
        let per_stripe = capacity.div_ceil(shards).max(1);
        let page_size = store.logical_page_size();
        let version_cap = store.options().snapshot_version_cap as usize;
        // The byte budget bounds the POOL, so it is divided across the
        // stripes (floored at one page each so every stripe can retain
        // at least one version).
        let retention_bytes = match store.options().snapshot_retention_bytes as usize {
            0 => 0,
            b => (b / shards).max(page_size),
        };
        let next_txn = AtomicU64::new(store.txn_id_floor());
        let mut obs = Recorder::disabled();
        if store.options().obs {
            obs.enable(pdl_obs::DEFAULT_SPAN_CAPACITY);
        }
        let notify_updates = store.consumes_updates();
        let stripes = (0..shards)
            .map(|_| {
                Mutex::new(FrameCache::new(
                    per_stripe,
                    page_size,
                    version_cap,
                    retention_bytes,
                    notify_updates,
                ))
            })
            .collect();
        ShardedBufferPool {
            store,
            stripes,
            next_txn,
            group: Mutex::new(GroupState::default()),
            group_cv: Condvar::new(),
            mvcc: Mutex::new(MvccState::default()),
            mvcc_cv: Condvar::new(),
            active_views: AtomicUsize::new(0),
            pending_structs: Mutex::new(HashMap::new()),
            commit_flush_us_sum: AtomicU64::new(0),
            commit_flush_us_max: AtomicU64::new(0),
            obs: Mutex::new(obs),
        }
    }

    fn lock_mvcc(&self) -> std::sync::MutexGuard<'_, MvccState> {
        self.mvcc.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Total frame capacity over all stripes.
    pub fn capacity(&self) -> usize {
        self.stripes.iter().map(|s| self.lock_stripe_ref(s).capacity()).sum()
    }

    pub fn page_size(&self) -> usize {
        self.store.logical_page_size()
    }

    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    fn lock_stripe_ref<'a>(
        &self,
        stripe: &'a Mutex<FrameCache>,
    ) -> std::sync::MutexGuard<'a, FrameCache> {
        stripe.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn stripe_for(&self, pid: u64) -> std::sync::MutexGuard<'_, FrameCache> {
        self.lock_stripe_ref(&self.stripes[self.store.shard_of(pid)])
    }

    /// Read access to a page; locks only the owning stripe.
    pub fn with_page<R>(&self, pid: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.stripe_for(pid).with_page(&mut SharedBackend(&self.store), pid, f)
    }

    /// Read-ahead hint: issue the owning shard's flash reads for `pid`
    /// without waiting. Pages already cached in a frame are skipped (the
    /// coming read won't touch flash), and errors are swallowed — the
    /// later real read surfaces them.
    pub fn prefetch(&self, pid: u64) {
        if self.stripe_for(pid).is_cached(pid) {
            return;
        }
        let _ = self.store.prefetch_shared(pid);
    }

    /// Mutable access to a page: the closure's writes through [`PageMut`]
    /// form one update command, reported to the owning shard's store. The
    /// command auto-commits; its pre-image joins the page's version chain
    /// when an open read view predates it.
    pub fn with_page_mut<R>(&self, pid: u64, f: impl FnOnce(&mut PageMut) -> R) -> Result<R> {
        let vsrc = ShardedVersioner { active_views: &self.active_views, mvcc: &self.mvcc };
        self.stripe_for(pid).with_page_mut_txn(
            &mut SharedBackend(&self.store),
            pid,
            pdl_core::NO_TXN,
            &vsrc,
            f,
        )
    }

    // ------------------------------------------------------------------
    // MVCC read views
    // ------------------------------------------------------------------

    /// Open a snapshot at the current commit clock. Registration waits
    /// out a group-commit batch mid-publish, so the view either predates
    /// the whole batch or sees all of it — cross-shard atomicity.
    pub fn begin_read(&self) -> ReadView {
        let mut m = self.lock_mvcc();
        while m.committing {
            m = self.mvcc_cv.wait(m).unwrap_or_else(|e| e.into_inner());
        }
        let ts = m.register();
        self.active_views.fetch_add(1, Ordering::SeqCst);
        drop(m);
        ReadView::new(ts)
    }

    /// Release a view, pruning versions no remaining reader needs.
    pub fn release_read(&self, view: ReadView) {
        let floor = {
            let mut m = self.lock_mvcc();
            let floor = m.deregister(view.read_ts());
            self.active_views.fetch_sub(1, Ordering::SeqCst);
            floor
        };
        // The registry lock is dropped before the stripe locks (writers
        // nest stripe -> registry); pruning with a momentarily stale
        // floor only keeps versions a little longer, never too short.
        for s in &self.stripes {
            self.lock_stripe_ref(s).prune_committed(&mut SharedBackend(&self.store), floor);
        }
    }

    /// Open a leak-proof snapshot: the returned guard releases the view
    /// when dropped.
    pub fn read_view(&self) -> ReadGuard<'_, ShardedBufferPool> {
        ReadGuard::new(self)
    }

    /// Run `f` under a freshly opened view, releasing it on every exit
    /// path (early returns and panics included).
    pub fn with_read_view<R>(&self, f: impl FnOnce(&ReadView) -> R) -> R {
        let guard = self.read_view();
        f(guard.view())
    }

    /// Snapshot read of `pid` as of `view`; locks only the owning stripe
    /// and never waits on writers or committers. A read resolved from the
    /// flash retention ledger (a cold spilled version) lands a sample in
    /// the `cold_version_read` histogram when observability is on.
    pub fn with_page_at<R>(
        &self,
        view: &ReadView,
        pid: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        if !self.store.options().obs {
            return self.stripe_for(pid).with_page_at(
                &mut SharedBackend(&self.store),
                pid,
                view.read_ts(),
                f,
            );
        }
        let start = std::time::Instant::now();
        let (r, cold) = self.stripe_for(pid).with_page_at_traced(
            &mut SharedBackend(&self.store),
            pid,
            view.read_ts(),
            f,
        )?;
        if cold {
            let us = start.elapsed().as_micros() as u64;
            let mut rec = self.obs.lock().unwrap_or_else(|e| e.into_inner());
            rec.record(LatencyClass::ColdVersionRead, us);
        }
        Ok(r)
    }

    // ------------------------------------------------------------------
    // Structure-root log: registered structures version their root state
    // through the shared commit clock, so snapshot scanners resolve the
    // structure shape (e.g. a page list) as of their view — never a
    // half-published shape from a later commit.
    // ------------------------------------------------------------------

    /// Register a structure at its creation-time state.
    pub fn register_struct(&self, root: StructRoot) -> StructId {
        self.lock_mvcc().register_struct(root)
    }

    /// Current committed state of a registered structure. (Unlike page
    /// frames, structural state is never shown mid-transaction to other
    /// threads: live readers see the last committed shape.)
    pub fn struct_current(&self, id: StructId) -> Option<StructRoot> {
        self.lock_mvcc().struct_current(id)
    }

    /// Record a structural change on behalf of `txn`: pending until the
    /// transaction commits (published at the batch commit timestamp,
    /// atomically with the batch's page versions) or aborts (discarded).
    pub fn publish_struct_txn(&self, txn: TxnId, id: StructId, root: StructRoot) {
        let mut pend = self.pending_structs.lock().unwrap_or_else(|e| e.into_inner());
        pend.entry(txn).or_default().push((id, root));
    }

    /// Resolve a registered structure's state as of `view`.
    pub fn struct_root_at(&self, view: &ReadView, id: StructId) -> Option<StructRoot> {
        self.lock_mvcc().resolve_struct(id, view.read_ts())
    }

    /// Structure-root pre-states currently retained (diagnostics/tests).
    pub fn retained_struct_versions(&self) -> usize {
        self.lock_mvcc().retained_struct_versions()
    }

    /// A [`PageRead`] adapter over `view` (for `BTree::get_at`,
    /// `HeapFile::get_at`, and friends).
    pub fn snapshot<'a>(&'a self, view: &'a ReadView) -> PoolSnapshot<'a> {
        PoolSnapshot { pool: self, view }
    }

    /// Retained committed versions over all stripes (diagnostics/tests).
    pub fn retained_versions(&self) -> usize {
        self.stripes.iter().map(|s| self.lock_stripe_ref(s).retained_versions()).sum()
    }

    // ------------------------------------------------------------------
    // Transactions (pdl-txn)
    // ------------------------------------------------------------------

    /// Open a transaction (thread-safe; ids are unique for the pool's
    /// lifetime and never collide with ids still recorded on flash).
    pub fn begin(&self) -> TxnId {
        self.next_txn.fetch_add(1, Ordering::Relaxed)
    }

    /// Mutable page access on behalf of `txn`: the frame is pinned (and
    /// conflict-checked) until the transaction commits or aborts.
    pub fn with_page_mut_txn<R>(
        &self,
        pid: u64,
        txn: TxnId,
        f: impl FnOnce(&mut PageMut) -> R,
    ) -> Result<R> {
        self.stripe_for(pid).with_page_mut_txn(
            &mut SharedBackend(&self.store),
            pid,
            txn,
            &NoVersioning,
            f,
        )
    }

    /// Abort `txn`: every touched frame returns to its pre-image, and its
    /// pending structural changes are discarded (structural undo).
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        self.pending_structs.lock().unwrap_or_else(|e| e.into_inner()).remove(&txn);
        for s in &self.stripes {
            self.lock_stripe_ref(s).rollback(&mut SharedBackend(&self.store), txn)?;
        }
        Ok(())
    }

    /// Commit `txn` through the group-commit coordinator: concurrent
    /// commits are batched behind one leader, sharing differential pages
    /// and commit-record flushes per shard.
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        self.commit_inner(txn, true)
    }

    /// Commit `txn` alone (no batching): the baseline the `txn_commit`
    /// bench compares group commit against. Still serialized with every
    /// other commit, since a shard runs one commit batch at a time.
    pub fn commit_solo(&self, txn: TxnId) -> Result<()> {
        self.commit_inner(txn, false)
    }

    fn commit_inner(&self, txn: TxnId, group: bool) -> Result<()> {
        let mut state = self.group.lock().unwrap_or_else(|e| e.into_inner());
        state.pending.push(txn);
        loop {
            if let Some(r) = state.done.remove(&txn) {
                return r;
            }
            if !state.leader_active {
                state.leader_active = true;
                let mut batch: Vec<TxnId> = if group {
                    std::mem::take(&mut state.pending)
                } else {
                    let pos = state.pending.iter().position(|t| *t == txn).expect("enqueued");
                    vec![state.pending.remove(pos)]
                };
                drop(state);
                if group {
                    // A brief absorb window lets committers that lost the
                    // leadership race join this batch even when cores are
                    // scarce — the classic group-commit gather phase.
                    for _ in 0..2 {
                        std::thread::yield_now();
                        let mut st = self.group.lock().unwrap_or_else(|e| e.into_inner());
                        batch.append(&mut st.pending);
                    }
                }
                let result = self.commit_batch(&batch, group);
                let mut st = self.group.lock().unwrap_or_else(|e| e.into_inner());
                for t in &batch {
                    if *t != txn {
                        st.done.insert(*t, result.clone());
                    }
                }
                st.leader_active = false;
                self.group_cv.notify_all();
                return result;
            }
            state = self.group_cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Execute one commit batch: hand every member's pages to the store
    /// as a single [`CommitBatch`] (per shard, all the differentials land
    /// behind one flush and all the commit records behind another), then
    /// publish. The leader is unique, so at most one batch runs at a time.
    fn commit_batch(&self, batch: &[TxnId], group: bool) -> Result<()> {
        // Gather. Frames stay owned (and the undo images stay) until the
        // whole batch is durable, so a failed batch can roll every member
        // back. `members` are the transactions that dirtied anything.
        let mut owned: Vec<(OwnedPage, TxnId)> = Vec::new();
        let mut members: Vec<TxnId> = Vec::new();
        for &t in batch {
            let before = owned.len();
            for s in &self.stripes {
                let pages = self.lock_stripe_ref(s).collect_owned(t);
                owned.extend(pages.into_iter().map(|p| (p, t)));
            }
            if owned.len() > before {
                members.push(t);
            }
        }
        let staged = CommitBatch {
            pages: owned.iter().map(|(p, t)| p.batch_page(*t)).collect(),
            roots: None,
        };
        // For latency attribution a "group" commit is one that actually
        // absorbed companions; a group-mode batch of one experiences solo
        // latency and is classed accordingly.
        match self.commit_batch_observed(&staged, &members, group && batch.len() > 1) {
            Ok(()) => {
                // Publish phase: the whole batch shares one commit
                // timestamp, and view registration is gated while the
                // batch's versions land across stripes — so no view can
                // observe half of a cross-shard group commit. Views
                // already open read the superseded pre-images from the
                // chains; views opened after the gate lifts read at the
                // new clock and see the entire batch. The batch members'
                // structural changes publish under the same lock at the
                // same timestamp: a view sees a transaction's pages and
                // its roots move together or not at all.
                let (commit_ts, retain, active) = {
                    let mut m = self.lock_mvcc();
                    m.committing = true;
                    let (ts, retain) = m.alloc_commit();
                    let mut pend = self.pending_structs.lock().unwrap_or_else(|e| e.into_inner());
                    for &t in batch {
                        for (id, root) in pend.remove(&t).unwrap_or_default() {
                            m.publish_struct(id, retain.then_some(ts), root);
                        }
                    }
                    (ts, retain, m.active_ts())
                };
                let version_at = retain.then_some(commit_ts);
                for &t in batch {
                    for s in &self.stripes {
                        self.lock_stripe_ref(s).end_txn(
                            &mut SharedBackend(&self.store),
                            t,
                            version_at,
                            true,
                            &active,
                        );
                    }
                }
                self.lock_mvcc().committing = false;
                self.mvcc_cv.notify_all();
                Ok(())
            }
            Err(e) => {
                // Rejected, or failed after the store opened it — in which
                // case the store refuses every later batch with the same
                // error. Either way restore every member's pre-images,
                // dirty, so later write-backs supersede any tagged staging:
                // the caller sees the transaction as failed and the pool
                // stays consistent.
                for &t in batch {
                    let _ = self.abort(t);
                }
                Err(e)
            }
        }
    }

    /// [`ShardedStore::commit_batch_shared`], with the batch's flash cost
    /// and (under `StoreOptions::obs`) its commit latency sampled around
    /// the call.
    fn commit_batch_observed(
        &self,
        batch: &CommitBatch<'_>,
        members: &[TxnId],
        group: bool,
    ) -> Result<()> {
        let n = self.stripes.len();
        let flash_us = |s: usize| self.store.with_shard(s, |st| st.stats().total().total_us());
        let before: Vec<u64> = (0..n).map(flash_us).collect();
        // Commit-latency observability: the batch's critical path is the
        // slowest shard's pipeline-busy delta (queue and flush stalls
        // included). Only sampled while recording is on.
        let obs_on = self.store.options().obs;
        let busy_us = |s: usize| self.store.with_shard(s, |st| st.pipeline_busy_us());
        let obs_before: Vec<u64> = if obs_on { (0..n).map(busy_us).collect() } else { Vec::new() };
        let obs_t0 = if obs_on {
            (0..n).map(|s| self.store.with_shard(s, |st| st.chip().sim_now_us())).max().unwrap_or(0)
        } else {
            0
        };
        self.store.commit_batch_shared(batch).map_err(CoreError::from)?;
        // Attribute the batch's flash cost: the per-shard sum is what a
        // serial fan-out would have stalled for; the slowest shard is
        // the overlapped leader's critical path.
        let deltas: Vec<u64> = (0..n).map(|s| flash_us(s).saturating_sub(before[s])).collect();
        self.commit_flush_us_sum.fetch_add(deltas.iter().sum(), Ordering::Relaxed);
        self.commit_flush_us_max
            .fetch_add(deltas.iter().copied().max().unwrap_or(0), Ordering::Relaxed);
        if obs_on {
            // The batch's simulated-time critical path: the slowest
            // shard's flash-busy delta across the whole call. Every
            // member transaction experienced it, so each lands one
            // histogram sample; the batch itself is one span.
            let sample =
                (0..n).map(|s| busy_us(s).saturating_sub(obs_before[s])).max().unwrap_or(0);
            let (class, ctx) = if group {
                (LatencyClass::CommitGroup, "group")
            } else {
                (LatencyClass::CommitSolo, "solo")
            };
            let mut rec = self.obs.lock().unwrap_or_else(|e| e.into_inner());
            for _ in 0..members.len().max(1) {
                rec.record(class, sample);
            }
            rec.push_span(pdl_obs::Span {
                name: "commit",
                ctx,
                lane: 0,
                start_us: obs_t0,
                dur_us: sample,
                block: members.len() as u64,
                id: members.iter().copied().min().unwrap_or(0),
            });
        }
        Ok(())
    }

    /// Aggregate cache statistics over all stripes. `active_views` is the
    /// pool-level gauge (the registry is shared), not a per-stripe sum.
    pub fn stats(&self) -> BufferStats {
        let mut out = BufferStats::default();
        for s in &self.stripes {
            out.merge(&self.lock_stripe_ref(s).stats());
        }
        out.active_views = self.active_views.load(Ordering::SeqCst) as u64;
        out.commit_flush_us_sum = self.commit_flush_us_sum.load(Ordering::Relaxed);
        out.commit_flush_us_max = self.commit_flush_us_max.load(Ordering::Relaxed);
        out
    }

    // ------------------------------------------------------------------
    // Observability exports
    // ------------------------------------------------------------------

    /// Whether observability recording is on for this pool (set by
    /// `StoreOptions::obs` at store construction).
    pub fn obs_enabled(&self) -> bool {
        self.store.options().obs
    }

    /// Snapshot of the pool-level recorder: commit-latency histograms
    /// (solo vs. group) and commit spans.
    pub fn obs_pool_snapshot(&self) -> RecorderSnapshot {
        self.obs.lock().unwrap_or_else(|e| e.into_inner()).snapshot()
    }

    /// Per-shard chip recorder snapshots, shard order: flash op-class
    /// distributions and per-plane command spans.
    pub fn obs_shard_snapshots(&self) -> Vec<RecorderSnapshot> {
        let n = self.stripes.len();
        (0..n).map(|s| self.store.with_shard(s, |st| st.chip().recorder().snapshot())).collect()
    }

    /// The pool's global distribution view: every shard chip's histograms
    /// merged element-wise, plus the pool's commit-latency histograms.
    pub fn obs_snapshot(&self) -> RecorderSnapshot {
        let mut snaps = self.obs_shard_snapshots();
        snaps.push(self.obs_pool_snapshot());
        RecorderSnapshot::merged(&snaps)
    }

    /// Chrome trace-event JSON over everything recorded: one process row
    /// per shard chip (threads = planes) plus the pool's commit lane.
    pub fn obs_trace_json(&self) -> String {
        let mut tracks: Vec<TraceTrack> = self
            .obs_shard_snapshots()
            .into_iter()
            .enumerate()
            .map(|(i, s)| TraceTrack {
                name: format!("shard{i}"),
                spans: s.spans,
                dropped_spans: s.dropped_spans,
            })
            .collect();
        let p = self.obs_pool_snapshot();
        tracks.push(TraceTrack {
            name: "pool".to_string(),
            spans: p.spans,
            dropped_spans: p.dropped_spans,
        });
        pdl_obs::chrome_trace(&tracks)
    }

    /// Aggregate flash statistics of the underlying chips.
    pub fn io_stats(&self) -> FlashStats {
        self.store.stats_shared()
    }

    /// Aggregate wear summary over every shard chip.
    pub fn wear_summary(&self) -> WearSummary {
        WearSummary::merged(self.store.per_shard_wear())
    }

    /// Write every dirty frame back and flush every shard (write-through,
    /// the durability point of §4.5).
    pub fn flush_all(&self) -> Result<()> {
        for s in &self.stripes {
            self.lock_stripe_ref(s).write_back_dirty(&mut SharedBackend(&self.store))?;
        }
        self.store.flush_shared()?;
        Ok(())
    }

    /// Drop every cached page without writing back (crash simulation).
    pub fn poison_cache(&self) {
        for s in &self.stripes {
            self.lock_stripe_ref(s).clear();
        }
    }

    /// Consume the pool, flushing everything, and return the store.
    pub fn into_store(self) -> Result<ShardedStore> {
        self.flush_all()?;
        Ok(self.store)
    }

    /// Consume the pool *without* writing anything back (crash
    /// simulation: cached dirty pages and uncommitted transactions are
    /// lost, exactly as on a power failure).
    pub fn into_store_without_flush(self) -> ShardedStore {
        self.store
    }
}

/// Current-state reads (no view): what the pool shows without isolation
/// from later commits.
impl PageRead for ShardedBufferPool {
    fn page_size(&self) -> usize {
        ShardedBufferPool::page_size(self)
    }

    fn with_page<R>(&self, pid: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        ShardedBufferPool::with_page(self, pid, f)
    }

    fn struct_root(&self, id: StructId) -> Option<StructRoot> {
        self.struct_current(id)
    }

    fn prefetch(&self, pid: u64) {
        ShardedBufferPool::prefetch(self, pid);
    }
}

impl ViewRegistry for ShardedBufferPool {
    fn begin_read(&self) -> ReadView {
        ShardedBufferPool::begin_read(self)
    }

    fn release_read(&self, view: ReadView) {
        ShardedBufferPool::release_read(self, view)
    }
}

/// A [`ReadView`] bound to its pool: every read through it resolves at
/// the view's snapshot timestamp.
pub struct PoolSnapshot<'a> {
    pool: &'a ShardedBufferPool,
    view: &'a ReadView,
}

impl PoolSnapshot<'_> {
    pub fn read_ts(&self) -> u64 {
        self.view.read_ts()
    }
}

impl PageRead for PoolSnapshot<'_> {
    fn page_size(&self) -> usize {
        self.pool.page_size()
    }

    fn with_page<R>(&self, pid: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.pool.with_page_at(self.view, pid, f)
    }

    fn struct_root(&self, id: StructId) -> Option<StructRoot> {
        self.pool.struct_root_at(self.view, id)
    }

    fn prefetch(&self, pid: u64) {
        // A version-chain hit won't touch flash, but the chain can't be
        // known without the stripe lock anyway — the cached-frame check
        // inside covers the common case.
        self.pool.prefetch(pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::{MethodKind, StoreOptions};
    use pdl_flash::FlashConfig;

    fn pool(shards: usize, pages: u64, capacity: usize) -> ShardedBufferPool {
        let store = ShardedStore::with_uniform_chips(
            FlashConfig::tiny(),
            shards,
            MethodKind::Pdl { max_diff_size: 128 },
            StoreOptions::new(pages),
        )
        .unwrap();
        ShardedBufferPool::new(store, capacity)
    }

    fn obs_pool(shards: usize, pages: u64, capacity: usize) -> ShardedBufferPool {
        let store = ShardedStore::with_uniform_chips(
            FlashConfig::tiny(),
            shards,
            MethodKind::Pdl { max_diff_size: 128 },
            StoreOptions::new(pages).with_obs(true),
        )
        .unwrap();
        ShardedBufferPool::new(store, capacity)
    }

    #[test]
    fn obs_records_solo_and_group_commit_latency() {
        let p = obs_pool(2, 16, 8);
        assert!(p.obs_enabled());
        // Solo commit: one writer, nobody to group with.
        let t = p.begin();
        p.with_page_mut_txn(0, t, |page| page.write(0, &[1])).unwrap();
        p.commit(t).unwrap();
        let snap = p.obs_pool_snapshot();
        let solo = snap.hist(LatencyClass::CommitSolo);
        assert_eq!(solo.count(), 1);
        assert!(solo.sum_us() > 0, "a solo commit flushes flash time");
        assert_eq!(snap.hist(LatencyClass::CommitGroup).count(), 0, "no group yet");
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "commit");
        assert_eq!(snap.spans[0].ctx, "solo");

        // The merged snapshot folds shard op histograms in with the
        // pool's commit histograms, and the trace renders both tracks.
        let merged = p.obs_snapshot();
        assert!(merged.hist(LatencyClass::ProgramUser).count() > 0, "commit programmed pages");
        assert!(merged.hist(LatencyClass::CommitSolo).count() > 0);
        let trace = p.obs_trace_json();
        assert!(trace.contains("\"pool\""));
        assert!(trace.contains("\"shard0\""));

        // Group-mode commits racing the gather window: whether or not any
        // batch actually absorbs companions, every commit lands exactly
        // one sample in solo or group.
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let p = &p;
                scope.spawn(move || {
                    let t = p.begin();
                    p.with_page_mut_txn(8 + w, t, |page| page.write(0, &[7])).unwrap();
                    p.commit(t).unwrap();
                });
            }
        });
        let snap = p.obs_pool_snapshot();
        let total = snap.hist(LatencyClass::CommitSolo).count()
            + snap.hist(LatencyClass::CommitGroup).count();
        assert_eq!(total, 5, "the first solo commit plus one sample per racer");
    }

    #[test]
    fn obs_disabled_records_nothing() {
        let p = pool(2, 16, 8);
        assert!(!p.obs_enabled());
        let t = p.begin();
        p.with_page_mut_txn(0, t, |page| page.write(0, &[1])).unwrap();
        p.commit(t).unwrap();
        let snap = p.obs_snapshot();
        assert!(!snap.enabled);
        assert_eq!(snap.spans.len(), 0);
        for class in LatencyClass::ALL {
            assert_eq!(snap.hist(class).count(), 0, "{}", class.name());
        }
    }

    #[test]
    fn writes_survive_eviction_pressure() {
        let p = pool(4, 32, 4); // one frame per stripe
        for pid in 0..32u64 {
            p.with_page_mut(pid, |page| page.write(0, &[pid as u8; 4])).unwrap();
        }
        for pid in 0..32u64 {
            let b = p.with_page(pid, |page| page[0]).unwrap();
            assert_eq!(b, pid as u8, "pid {pid}");
        }
        let stats = p.stats();
        assert!(stats.evictions > 0);
        assert!(stats.dirty_writebacks > 0);
    }

    #[test]
    fn cache_hits_do_not_touch_flash() {
        let p = pool(2, 8, 8);
        p.with_page_mut(1, |page| page.write(0, b"abcd")).unwrap();
        let before = p.io_stats().total();
        for _ in 0..10 {
            p.with_page(1, |page| page[0]).unwrap();
        }
        let d = p.io_stats().total() - before;
        assert_eq!(d.total_ops(), 0, "cache hits must be free");
        assert_eq!(p.stats().hits, 10);
    }

    #[test]
    fn concurrent_writers_on_distinct_shards() {
        let p = pool(4, 64, 16);
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let p = &p;
                scope.spawn(move || {
                    // Worker w touches only pids with pid % 4 == w: its own
                    // shard and stripe.
                    for i in 0..16u64 {
                        let pid = i * 4 + w;
                        p.with_page_mut(pid, |page| page.write(0, &[w as u8 + 1; 8])).unwrap();
                    }
                });
            }
        });
        for pid in 0..64u64 {
            let b = p.with_page(pid, |page| page[0]).unwrap();
            assert_eq!(b as u64, pid % 4 + 1, "pid {pid}");
        }
    }

    #[test]
    fn flush_makes_state_durable_across_recovery() {
        let p = pool(2, 16, 4);
        for pid in 0..16u64 {
            p.with_page_mut(pid, |page| page.write(3, &[0xEE])).unwrap();
        }
        let store = p.into_store().unwrap();
        let chips = store.into_shard_chips();
        let mut back = ShardedStore::recover(
            chips,
            MethodKind::Pdl { max_diff_size: 128 },
            StoreOptions::new(16),
        )
        .unwrap();
        let mut out = vec![0u8; back.logical_page_size()];
        for pid in 0..16u64 {
            back.read_page(pid, &mut out).unwrap();
            assert_eq!(out[3], 0xEE, "pid {pid}");
        }
    }

    #[test]
    fn capacity_splits_across_stripes() {
        let p = pool(4, 32, 10);
        assert_eq!(p.num_stripes(), 4);
        assert_eq!(p.capacity(), 12, "ceil(10/4) = 3 frames per stripe");
        assert_eq!(p.page_size(), 256);
    }

    #[test]
    fn view_hides_a_group_commit_across_shards() {
        let p = pool(4, 16, 16);
        for pid in 0..16u64 {
            p.with_page_mut(pid, |page| page.write(0, &[1; 4])).unwrap();
        }
        let view = p.begin_read();
        // One transaction spanning all four shards.
        let txn = p.begin();
        for pid in 0..4u64 {
            p.with_page_mut_txn(pid, txn, |page| page.write(0, &[9; 4])).unwrap();
        }
        // Mid-flight: the view reads the pending pre-images.
        for pid in 0..4u64 {
            assert_eq!(p.with_page_at(&view, pid, |pg| pg[0]).unwrap(), 1, "pid {pid}");
        }
        p.commit(txn).unwrap();
        // Committed: the view still reads the pre-commit images on every
        // shard; current reads see the commit on every shard.
        for pid in 0..4u64 {
            assert_eq!(p.with_page_at(&view, pid, |pg| pg[0]).unwrap(), 1, "pid {pid}");
            assert_eq!(p.with_page(pid, |pg| pg[0]).unwrap(), 9, "pid {pid}");
        }
        p.release_read(view);
        assert_eq!(p.retained_versions(), 0);
        // A view opened after the commit sees all of it.
        let after = p.begin_read();
        for pid in 0..4u64 {
            assert_eq!(p.with_page_at(&after, pid, |pg| pg[0]).unwrap(), 9, "pid {pid}");
        }
        p.release_read(after);
    }

    #[test]
    fn scanners_race_committing_writers_and_stay_consistent() {
        // 2 snapshot scanners race 2 committing writers; every scan must
        // observe, per writer, one atomic prefix of its commit sequence:
        // all of a writer's pages carry the same round stamp.
        const ROUNDS: u64 = 40;
        const WRITERS: u64 = 2;
        const GROUP: u64 = 4; // pages per writer, contiguous => spans shards
        let p = pool(4, WRITERS * GROUP, 16);
        for w in 0..WRITERS {
            let txn = p.begin();
            for k in 0..GROUP {
                p.with_page_mut_txn(w * GROUP + k, txn, |page| page.write(0, &0u64.to_le_bytes()))
                    .unwrap();
            }
            p.commit(txn).unwrap();
        }
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let p = &p;
                scope.spawn(move || {
                    for round in 1..=ROUNDS {
                        let txn = p.begin();
                        for k in 0..GROUP {
                            p.with_page_mut_txn(w * GROUP + k, txn, |page| {
                                page.write(0, &round.to_le_bytes())
                            })
                            .unwrap();
                        }
                        p.commit(txn).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let p = &p;
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        // Guard-style view: released on drop at the end of
                        // the iteration, leak-proof against panics in the
                        // assertions below.
                        let view = p.read_view();
                        for w in 0..WRITERS {
                            let mut stamps = Vec::new();
                            for k in 0..GROUP {
                                let v = p
                                    .with_page_at(&view, w * GROUP + k, |pg| {
                                        u64::from_le_bytes(pg[0..8].try_into().unwrap())
                                    })
                                    .unwrap();
                                stamps.push(v);
                            }
                            assert!(
                                stamps.iter().all(|s| *s == stamps[0]),
                                "torn snapshot of writer {w}: {stamps:?}"
                            );
                        }
                    }
                });
            }
        });
        assert_eq!(p.retained_versions(), 0, "all views released, chains pruned");
    }

    #[test]
    fn touch_without_write_leaves_no_pending_undo() {
        let p = pool(2, 8, 8);
        p.with_page_mut(0, |page| page.write(0, &[1; 4])).unwrap();
        let txn = p.begin();
        // A transactional touch that never writes must not claim the
        // page: a later auto-committed write is legal and must survive
        // the transaction's abort.
        p.with_page_mut_txn(0, txn, |_page| ()).unwrap();
        p.with_page_mut(0, |page| page.write(0, &[2; 4])).unwrap();
        p.abort(txn).unwrap();
        assert_eq!(
            p.with_page(0, |pg| pg[0]).unwrap(),
            2,
            "abort must not undo a foreign auto-commit"
        );
    }

    #[test]
    fn auto_commit_writes_version_for_open_views() {
        let p = pool(2, 8, 8);
        p.with_page_mut(3, |page| page.write(0, &[4; 4])).unwrap();
        let view = p.begin_read();
        p.with_page_mut(3, |page| page.write(0, &[5; 4])).unwrap();
        assert_eq!(p.with_page_at(&view, 3, |pg| pg[0]).unwrap(), 4);
        assert_eq!(p.with_page(3, |pg| pg[0]).unwrap(), 5);
        p.release_read(view);
        assert_eq!(p.retained_versions(), 0);
    }
}
