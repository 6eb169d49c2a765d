//! Read views: MVCC snapshots over the database's buffer pool.
//!
//! A [`ReadView`] captures the database's commit clock at open time.
//! Every read through the view resolves against the per-page version
//! chains the frame cache retains (see `FrameCache`): a page superseded
//! by a commit *after* the view opened reads as its pre-commit image, a
//! page owned by an in-flight transaction reads as its last committed
//! image, and anything else reads as the current frame. The result is snapshot isolation for
//! readers that never blocks writers — the same "reuse what the write
//! path already materializes" move the paper makes for differentials: the
//! undo images transactions must keep anyway *are* the version chain.
//!
//! Views are explicit handles: open with `begin_read` (or the leak-proof
//! [`ReadGuard`] from `read_view` / `with_read_view`), read through
//! `with_page_at` (or a [`PageRead`] snapshot adapter), and hand the view
//! back with `release_read` so the cache can prune versions no reader
//! needs. A view that lingers past the retention budget
//! ([`pdl_core::StoreOptions::snapshot_version_cap`] versions, each one
//! logical page) is cut off: the oldest versions are discarded and the
//! view's reads fail with [`crate::StorageError::SnapshotTooOld`] —
//! retention is bounded, like the version-retention budgets in the flash
//! GC literature.
//!
//! # Structure roots
//!
//! Page contents are not the whole story: a [`crate::BTree`]'s root page
//! id and a [`crate::HeapFile`]'s page list are *in-memory structural
//! state*, and a snapshot scan that descends the **current** root after a
//! concurrent split walks pages that did not exist at view time. The
//! registry therefore also keeps a **structure-root log** keyed by the
//! same commit clock: every committed root change appends
//! `(commit_ts, pre_state)` — the state the structure had *immediately
//! before* the commit at `commit_ts`, exactly the pre-image discipline of
//! the page version chains — and a view at `read_ts` resolves the oldest
//! entry with `commit_ts > read_ts`, falling back to the current state.
//! The log is pruned by the same min-active-view floor, so with no
//! readers it holds nothing beyond the live roots.

use crate::{Database, Result};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide [`StructId`] allocator: ids are unique across *every*
/// registry, so a handle used with a database that never registered it
/// meets an unknown id and panics naming it, instead of silently
/// aliasing whatever structure happened to re-use the id.
static NEXT_STRUCT_ID: AtomicU64 = AtomicU64::new(0);

/// The panic of a handle used with a database that never registered it.
fn unregistered(id: StructId) -> ! {
    panic!("structure {id} is not registered in this database")
}

/// `id`'s root state as `s` resolves it; panics when `s` reads a
/// database that never registered `id` (a handle belongs to the database
/// that created or attached it).
pub(crate) fn resolve_struct<S: PageRead>(s: &S, id: StructId) -> StructRoot {
    s.struct_root(id).unwrap_or_else(|| unregistered(id))
}

/// A snapshot handle: reads through it see the database exactly as of the
/// commit clock value captured when the view was opened.
///
/// The handle is deliberately neither `Clone` nor `Copy`: each view is
/// registered once and must be released exactly once.
#[must_use = "a read view pins page versions until it is released"]
#[derive(Debug)]
pub struct ReadView {
    read_ts: u64,
}

impl ReadView {
    pub(crate) fn new(read_ts: u64) -> ReadView {
        ReadView { read_ts }
    }

    /// The commit-clock value this view reads at: commits with a larger
    /// timestamp are invisible to it.
    pub fn read_ts(&self) -> u64 {
        self.read_ts
    }
}

/// A [`ReadView`] that releases itself on drop.
///
/// `begin_read` / `release_read` are a leak hazard: any early return (a
/// `?` on [`crate::StorageError::SnapshotTooOld`] mid-scan, a panic in a
/// scan callback) between the two calls leaks the view, freezing the
/// version-retention floor forever. A guard ties the release to scope
/// exit instead. Obtain one from [`Database::read_view`], or run a whole
/// scan under [`Database::with_read_view`].
///
/// The guard borrows the database shared, so writers on any thread —
/// this one included — keep committing while it is held; the raw
/// `begin_read` / `release_read` pair stays for views that must outlive
/// a scope, which the teardown assertions and the `active_views` gauge
/// keep honest.
#[must_use = "a read guard pins page versions until it is dropped"]
pub struct ReadGuard<'p> {
    db: &'p Database,
    view: Option<ReadView>,
}

impl<'p> ReadGuard<'p> {
    pub(crate) fn new(db: &'p Database) -> ReadGuard<'p> {
        ReadGuard { db, view: Some(db.begin_read()) }
    }

    /// The guarded view (for `with_page_at` / snapshot adapters).
    pub fn view(&self) -> &ReadView {
        self.view.as_ref().expect("view present until drop")
    }

    /// Release eagerly (equivalent to dropping the guard).
    pub fn release(self) {}
}

impl std::ops::Deref for ReadGuard<'_> {
    type Target = ReadView;

    fn deref(&self) -> &ReadView {
        self.view()
    }
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        if let Some(view) = self.view.take() {
            self.db.release_read(view);
        }
    }
}

/// Handle to a structure registered in the structure-root log (see
/// `MvccState`): a [`crate::BTree`] or [`crate::HeapFile`] whose
/// structural state is versioned by the commit clock.
pub type StructId = u64;

/// The versionable structural state of a storage structure — everything a
/// *reader* needs that lives outside the pages themselves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StructRoot {
    /// A B+-tree: the root page id (moves when a split grows the tree).
    BTree { root: u64 },
    /// A heap file: the ordered page list (grows when no page fits an
    /// insert). The free-space map is *not* part of the versioned state —
    /// readers never consult it, and it is self-healing for writers.
    Heap { pages: Vec<u64> },
}

/// One registered structure: its current committed state plus the
/// pre-states superseded by commits some open view predates.
#[derive(Debug)]
struct StructState {
    current: StructRoot,
    /// Bumped on every change to `current` — cheap staleness check for
    /// handles that mirror the state ([`MvccState::struct_current_if_newer`]).
    gen: u64,
    /// `(commit_ts, pre_state)` pairs ascending: the state the structure
    /// had immediately before the commit at `commit_ts`.
    undo: Vec<(u64, StructRoot)>,
}

/// Drop undo entries no active view resolves to. A view at `read_ts`
/// resolves the first entry with `commit_ts > read_ts`, i.e. entry `i`
/// serves exactly the views in `[t_(i-1), t_i)`; an entry whose band
/// holds no active view is dead — future views register at the current
/// clock (past every entry) and resolve `current`. This keeps each log
/// at O(active distinct view timestamps) entries no matter how many
/// structural commits a lingering view sits through.
fn compact_struct_undo(undo: &mut Vec<(u64, StructRoot)>, active: &BTreeMap<u64, usize>) {
    let mut band_start = 0u64;
    undo.retain(|(ts, _)| {
        let needed = active.range(band_start..*ts).next().is_some();
        band_start = *ts;
        needed
    });
}

/// Read-only page access: the capability the read path of the storage
/// engine (B+-tree lookups and scans, heap-file gets, TPC-C's read-only
/// transactions) is written against.
///
/// Implementations: `&Database` (latest committed state) and
/// `DbSnapshot` (a [`ReadView`]'s frozen state).
pub trait PageRead {
    /// Logical page size in bytes.
    fn page_size(&self) -> usize;

    /// Run `f` over the current image of `pid` under this reader's
    /// isolation level.
    fn with_page<R>(&self, pid: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R>;

    /// Resolve a registered structure's root state under this reader's
    /// isolation level: the current committed state for live readers, the
    /// state *as of the view's `read_ts`* for snapshot readers — so a
    /// stale [`crate::BTree`] / [`crate::HeapFile`] handle is always
    /// snapshot-safe. `None` when the id is unknown to the reader's
    /// database.
    fn struct_root(&self, id: StructId) -> Option<StructRoot>;

    /// Read-ahead hint: the caller will read `pid` soon (a range scan
    /// hints the next leaf while the current one is consumed). Purely an
    /// optimisation — implementations issue flash reads without waiting,
    /// skip pages already cached in a frame, and swallow errors (the
    /// later real read surfaces them); the default does nothing.
    fn prefetch(&self, pid: u64) {
        let _ = pid;
    }
}

/// The MVCC registry the database keeps behind a mutex: the commit
/// clock, the multiset of active read timestamps, and the structure-root
/// log.
///
/// Lock discipline: the registry lock is only ever held briefly and
/// never while acquiring the cache lock — a writer holding the cache lock
/// may take it to allocate a commit timestamp. A commit is published under
/// one hold of the cache lock (`Database::publish_commit`), so a view
/// observes a multi-page or multi-shard commit atomically or not at all.
#[derive(Debug, Default)]
pub(crate) struct MvccState {
    /// Commit clock: bumped once per commit event (a transaction commit,
    /// a whole group-commit batch, or one auto-committed update command).
    pub(crate) clock: u64,
    /// Active read timestamps -> number of open views at that timestamp.
    pub(crate) active: BTreeMap<u64, usize>,
    /// The structure-root log: registered structures' current state plus
    /// commit-clock-keyed pre-states for open views.
    structs: HashMap<StructId, StructState>,
}

impl MvccState {
    /// Register a view at the current clock.
    pub(crate) fn register_view(&mut self) -> u64 {
        let ts = self.clock;
        *self.active.entry(ts).or_insert(0) += 1;
        ts
    }

    /// Deregister one view at `ts` and return the new retention floor:
    /// the minimum active read timestamp, or `u64::MAX` when no views
    /// remain (every retained version may be pruned). Structure-root
    /// pre-states are pruned here directly (they live in the registry);
    /// the caller prunes the page version chains with the same floor.
    pub(crate) fn deregister_view(&mut self, ts: u64) -> u64 {
        if let Some(n) = self.active.get_mut(&ts) {
            *n -= 1;
            if *n == 0 {
                self.active.remove(&ts);
            }
        } else {
            debug_assert!(false, "released a view at ts {ts} that was never registered");
        }
        // The prune bound is additionally clamped to the clock *as read
        // under this lock*: a view registered (and a version pushed for
        // it) after this deregister carries a larger timestamp, so even a
        // prune racing those events can never delete a version some
        // reader still needs.
        let floor = self.floor().min(self.clock);
        for s in self.structs.values_mut() {
            s.undo.retain(|(t, _)| *t > floor);
        }
        floor
    }

    /// The current retention floor (see [`MvccState::deregister_view`]).
    pub(crate) fn floor(&self) -> u64 {
        self.active.keys().next().copied().unwrap_or(u64::MAX)
    }

    /// Allocate a commit timestamp; returns `(ts, retain)` where `retain`
    /// says whether any active view still needs the superseded images.
    pub(crate) fn alloc_commit(&mut self) -> (u64, bool) {
        self.clock += 1;
        (self.clock, !self.active.is_empty())
    }

    // ------------------------------------------------------------------
    // Structure-root log
    // ------------------------------------------------------------------

    /// Register a structure with its creation-time state.
    pub(crate) fn register_struct(&mut self, root: StructRoot) -> StructId {
        let id = NEXT_STRUCT_ID.fetch_add(1, Ordering::Relaxed);
        self.structs.insert(id, StructState { current: root, gen: 0, undo: Vec::new() });
        id
    }

    /// The current committed state of `id` (`None`: never registered
    /// here).
    pub(crate) fn struct_current(&self, id: StructId) -> Option<StructRoot> {
        self.structs.get(&id).map(|s| s.current.clone())
    }

    /// The current committed state of `id` *only if* it changed since
    /// generation `seen` (with the new generation), so mirroring handles
    /// skip the clone on the hot path when nothing moved. Panics when
    /// `id` was never registered here.
    pub(crate) fn struct_current_if_newer(
        &self,
        id: StructId,
        seen: u64,
    ) -> Option<(u64, StructRoot)> {
        let s = self.structs.get(&id).unwrap_or_else(|| unregistered(id));
        (s.gen != seen).then(|| (s.gen, s.current.clone()))
    }

    /// Record a committed structural change: `root` becomes the current
    /// state. `version_at` carries the commit timestamp when an active
    /// view still needs the superseded pre-state (`None`: nobody can ever
    /// read it — exactly the retain contract of the page version chains).
    /// Several changes folded into one commit event keep the *first*
    /// pre-state: the state before the whole commit.
    pub(crate) fn publish_struct(
        &mut self,
        id: StructId,
        version_at: Option<u64>,
        root: StructRoot,
    ) {
        let s = self.structs.get_mut(&id).unwrap_or_else(|| unregistered(id));
        if s.current == root {
            return;
        }
        s.gen += 1;
        if let Some(ts) = version_at {
            debug_assert!(
                s.undo.last().is_none_or(|(t, _)| *t <= ts),
                "structure-root log for {id} must stay ascending"
            );
            if s.undo.last().is_none_or(|(t, _)| *t < ts) {
                let pre = std::mem::replace(&mut s.current, root);
                s.undo.push((ts, pre));
                compact_struct_undo(&mut s.undo, &self.active);
                return;
            }
        }
        s.current = root;
    }

    /// Resolve the state of `id` as of `read_ts`: the oldest pre-state
    /// superseded by a commit after the view opened, else the current
    /// state (`None`: never registered here).
    pub(crate) fn resolve_struct(&self, id: StructId, read_ts: u64) -> Option<StructRoot> {
        let s = self.structs.get(&id)?;
        Some(
            s.undo
                .iter()
                .find(|(ts, _)| *ts > read_ts)
                .map(|(_, pre)| pre.clone())
                .unwrap_or_else(|| s.current.clone()),
        )
    }

    /// Structure-root pre-states currently retained (diagnostics/tests).
    pub(crate) fn retained_struct_versions(&self) -> usize {
        self.structs.values().map(|s| s.undo.len()).sum()
    }

    /// Every registered structure's current committed state, ascending by
    /// id — the enumeration a durable commit serializes into the PDL
    /// checkpoint region's root log (ids are registration-ordered, so the
    /// stored order is stable across recoveries).
    pub(crate) fn current_roots(&self) -> Vec<(StructId, StructRoot)> {
        let mut out: Vec<(StructId, StructRoot)> =
            self.structs.iter().map(|(id, s)| (*id, s.current.clone())).collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Run `f`, which must panic, and return its panic message.
    pub(crate) fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the call must panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => {
                payload.downcast_ref::<&str>().map_or_else(String::new, |s| s.to_string())
            }
        }
    }

    #[test]
    fn registry_tracks_views_and_floor() {
        let mut m = MvccState::default();
        assert_eq!(m.floor(), u64::MAX);
        let a = m.register_view();
        assert_eq!(a, 0);
        let (c1, retain) = m.alloc_commit();
        assert_eq!(c1, 1);
        assert!(retain, "an active view pins versions");
        let b = m.register_view();
        assert_eq!(b, 1);
        assert_eq!(m.deregister_view(a), 1, "floor moves to the remaining view");
        assert_eq!(m.deregister_view(b), 1, "no views left: prune bound clamps to the clock");
        let (_, retain) = m.alloc_commit();
        assert!(!retain, "no views, nothing to retain");
    }

    #[test]
    fn duplicate_timestamps_refcount() {
        let mut m = MvccState::default();
        let a = m.register_view();
        let b = m.register_view();
        assert_eq!(a, b);
        assert_eq!(m.deregister_view(a), b);
        assert_eq!(m.deregister_view(b), 0, "clamped to the clock, not u64::MAX");
    }

    #[test]
    fn struct_log_resolves_pre_states_by_view_timestamp() {
        let mut m = MvccState::default();
        let id = m.register_struct(StructRoot::BTree { root: 1 });
        let early = m.register_view(); // ts 0
        let (c1, retain) = m.alloc_commit();
        m.publish_struct(id, retain.then_some(c1), StructRoot::BTree { root: 2 });
        let mid = m.register_view(); // ts 1
        let (c2, retain) = m.alloc_commit();
        m.publish_struct(id, retain.then_some(c2), StructRoot::BTree { root: 3 });
        assert_eq!(m.resolve_struct(id, early), Some(StructRoot::BTree { root: 1 }));
        assert_eq!(m.resolve_struct(id, mid), Some(StructRoot::BTree { root: 2 }));
        assert_eq!(m.resolve_struct(id, m.clock), Some(StructRoot::BTree { root: 3 }));
        assert_eq!(m.struct_current(id), Some(StructRoot::BTree { root: 3 }));
        assert_eq!(m.retained_struct_versions(), 2);
        // Releasing the views prunes the pre-states they pinned.
        m.deregister_view(early);
        assert_eq!(m.retained_struct_versions(), 1);
        m.deregister_view(mid);
        assert_eq!(m.retained_struct_versions(), 0);
        assert_eq!(m.resolve_struct(id, m.clock), Some(StructRoot::BTree { root: 3 }));
    }

    #[test]
    fn struct_log_folds_changes_within_one_commit() {
        let mut m = MvccState::default();
        let id = m.register_struct(StructRoot::Heap { pages: vec![7] });
        let view = m.register_view();
        let (ts, retain) = m.alloc_commit();
        // Two root changes inside one commit event: a view opened before
        // the commit must resolve the state before *both*.
        m.publish_struct(id, retain.then_some(ts), StructRoot::Heap { pages: vec![7, 8] });
        m.publish_struct(id, retain.then_some(ts), StructRoot::Heap { pages: vec![7, 8, 9] });
        assert_eq!(m.resolve_struct(id, view), Some(StructRoot::Heap { pages: vec![7] }));
        assert_eq!(m.struct_current(id), Some(StructRoot::Heap { pages: vec![7, 8, 9] }));
        assert_eq!(m.retained_struct_versions(), 1, "one pre-state per commit event");
        // No views: publishing just replaces the current state.
        m.deregister_view(view);
        m.publish_struct(id, None, StructRoot::Heap { pages: vec![7, 8, 9, 10] });
        assert_eq!(m.retained_struct_versions(), 0);
        assert_eq!(m.struct_current(id), Some(StructRoot::Heap { pages: vec![7, 8, 9, 10] }));
    }

    #[test]
    fn unregistered_struct_resolves_to_none() {
        let m = MvccState::default();
        assert_eq!(m.resolve_struct(42, 0), None);
        assert_eq!(m.struct_current(42), None);
    }

    #[test]
    fn struct_log_stays_flat_under_a_lingering_view() {
        // One epoch-long view + many structural commits: only the entry
        // the view actually resolves to is retained — intermediate
        // pre-states no view can ever read are compacted away.
        let mut m = MvccState::default();
        let id = m.register_struct(StructRoot::Heap { pages: vec![0] });
        let epoch = m.register_view();
        for round in 1..=100u64 {
            let (ts, retain) = m.alloc_commit();
            let pages: Vec<u64> = (0..=round).collect();
            m.publish_struct(id, retain.then_some(ts), StructRoot::Heap { pages });
        }
        assert_eq!(m.retained_struct_versions(), 1, "one band with an active view");
        assert_eq!(m.resolve_struct(id, epoch), Some(StructRoot::Heap { pages: vec![0] }));
        // A second view in a middle band pins exactly one more entry.
        let mid = m.register_view();
        for round in 101..=200u64 {
            let (ts, retain) = m.alloc_commit();
            let pages: Vec<u64> = (0..=round).collect();
            m.publish_struct(id, retain.then_some(ts), StructRoot::Heap { pages });
        }
        assert_eq!(m.retained_struct_versions(), 2);
        assert_eq!(
            m.resolve_struct(id, mid),
            Some(StructRoot::Heap { pages: (0..=100).collect() })
        );
        m.deregister_view(epoch);
        m.deregister_view(mid);
        assert_eq!(m.retained_struct_versions(), 0);
    }
}
