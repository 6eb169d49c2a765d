//! Heap files: unordered record storage over slotted pages with an
//! in-memory free-space map.
//!
//! A heap file built with [`HeapFile::create`] (or re-attached with
//! [`HeapFile::attach`]) is always **registered** in its database's
//! structure-root log: the ordered page list is versioned by the MVCC
//! commit clock, so a snapshot scan visits exactly the pages the file had
//! at the view's timestamp (growth committed later is invisible), and
//! [`crate::Database::abort`] rolls an uncommitted growth back along with
//! the page bytes. The free-space map is deliberately *not* versioned:
//! readers never consult it, and as an approximation it is self-healing —
//! a stale entry merely costs one failed placement attempt before being
//! refreshed from the page itself.
//!
//! # Concurrency
//!
//! Mutators take `&self` + `&Database`: the handle's placement state
//! (page list mirror, free-space map, rotation hint) lives behind one
//! mutex, which serializes structural mutation *per file* — concurrent
//! inserts into different heap files proceed in parallel, and readers
//! never touch the mutex. Page latches are unnecessary here: unlike a
//! B+-tree, a heap file has no cross-page invariants a reader could see
//! torn (the page list only ever appends, atomically through the
//! structure-root log), so the per-file mutex is the whole protocol. The
//! mutex is acquired *before* any pool lock and never while one is held,
//! keeping the global lock order acyclic. Concurrent mutation of one
//! file through *distinct handles* remains unsupported (each
//! `create`/`attach` registers its own structure: one file, one live
//! handle — clone the `Arc`-held handle instead).

use crate::db::{Database, RecordId};
use crate::error::StorageError;
use crate::view::{resolve_struct, PageRead, StructId, StructRoot};
use crate::{slotted, Result};
use std::collections::HashMap;
use std::sync::Mutex;

/// The per-file placement state, behind [`HeapFile`]'s mutex.
struct HeapState {
    /// The page list as of this handle's last operation; readers resolve
    /// the authoritative list per operation.
    pages: Vec<u64>,
    /// Approximate usable space per page (post-compaction bytes), keyed
    /// by pid. Missing entries are treated as "unknown, try it": the
    /// slotted page itself is the ground truth.
    fsm: HashMap<u64, u16>,
    /// Where the next first-fit scan starts.
    hint: usize,
    /// [`Database::abort_epoch`] as of the last sync: a rollback can
    /// leave `fsm` *under*-estimating restored space (inserts skipped a
    /// page forever without re-probing it), so estimates are dropped
    /// wholesale when the epoch moves and re-warm from the pages.
    fsm_epoch: u64,
    /// Structure-root generation the mirrored `pages` list reflects
    /// (`u64::MAX` = unknown, force a fetch): spares the insert hot path
    /// an O(pages) clone under the registry lock when nothing moved.
    list_gen: u64,
}

impl HeapState {
    fn fresh(pages: Vec<u64>, fsm_epoch: u64) -> HeapState {
        HeapState { pages, fsm: HashMap::new(), hint: 0, fsm_epoch, list_gen: u64::MAX }
    }

    /// Sync with the database: drop free-space estimates made stale by
    /// any rollback since the last sync, and refresh the mirrored page
    /// list from the structure-root log when its generation moved —
    /// which undoes the local effects of an aborted growth.
    fn sync(&mut self, id: StructId, db: &Database) {
        let epoch = db.abort_epoch();
        if epoch != self.fsm_epoch {
            self.fsm.clear();
            self.fsm_epoch = epoch;
            // A rollback may have discarded a pending growth the mirror
            // already applied: force a re-fetch.
            self.list_gen = u64::MAX;
        }
        if let Some((gen, StructRoot::Heap { pages })) =
            db.struct_current_if_newer(id, self.list_gen)
        {
            self.pages = pages;
            self.list_gen = gen;
        }
    }

    /// Approximate usable bytes of `pid` (unknown pages read as "plenty":
    /// the attempt itself refreshes the estimate).
    fn usable(&self, pid: u64) -> usize {
        self.fsm.get(&pid).copied().map_or(usize::MAX, |v| v as usize)
    }
}

/// An unordered collection of variable-length records.
///
/// A handle belongs to the one [`Database`] that created
/// ([`HeapFile::create`]) or attached ([`HeapFile::attach`]) it, and is
/// always registered in that database's structure-root log. Used with
/// any other database, an insert or a scan panics naming the handle's
/// structure id.
pub struct HeapFile {
    id: StructId,
    state: Mutex<HeapState>,
}

impl HeapFile {
    /// Create an empty heap file registered in the database's
    /// structure-root log.
    pub fn create(db: &Database) -> HeapFile {
        HeapFile::attach(db, Vec::new())
    }

    /// Register a file that already exists over `pages` in `db`'s
    /// structure-root log: the restart path for a caller that remembered
    /// the list. After a crash on a store with a root log, prefer
    /// [`crate::Database::recover_structures`], which rebuilds every
    /// registered file from the store alone. The free-space map starts
    /// unknown and re-warms from the pages.
    pub fn attach(db: &Database, pages: Vec<u64>) -> HeapFile {
        let id = db.register_struct(StructRoot::Heap { pages: pages.clone() });
        HeapFile { id, state: Mutex::new(HeapState::fresh(pages, db.abort_epoch())) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HeapState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of pages as of this handle's last operation.
    pub fn num_pages(&self) -> usize {
        self.lock().pages.len()
    }

    /// The page list as `s` resolves it: the current committed list (plus
    /// the open transaction's pending growth for the writer itself), or
    /// the list as of a snapshot's timestamp.
    pub fn pages_in<S: PageRead>(&self, s: &S) -> Vec<u64> {
        match resolve_struct(s, self.id) {
            StructRoot::Heap { pages } => pages,
            StructRoot::BTree { .. } => unreachable!("structure {} is a heap file", self.id),
        }
    }

    /// Insert a record, appending a fresh page when none fits. The
    /// per-file mutex is held for the duration: placement (free-space
    /// probing, growth, the page-list publication) is serialized per
    /// file, while other files — and all readers — proceed in parallel.
    pub fn insert(&self, db: &Database, bytes: &[u8]) -> Result<RecordId> {
        let mut st = self.lock();
        st.sync(self.id, db);
        // record + slot + slack
        let need = bytes.len() + 8;
        // Try the most recent page first (append-heavy workloads), then a
        // first-fit scan from the rotating hint.
        let mut candidates: Vec<usize> = Vec::with_capacity(4);
        if let Some(last) = st.pages.len().checked_sub(1) {
            candidates.push(last);
        }
        let n = st.pages.len();
        for off in 0..n {
            let i = (st.hint + off) % n;
            if st.usable(st.pages[i]) >= need && Some(&i) != candidates.first() {
                candidates.push(i);
                break;
            }
        }
        for i in candidates {
            let pid = st.pages[i];
            if st.usable(pid) < need {
                continue;
            }
            let (slot, usable) = db.with_page_mut(pid, |p| {
                if !slotted::is_formatted(p.as_slice()) {
                    slotted::init(p);
                }
                let slot = slotted::insert(p, bytes)?;
                Ok::<_, StorageError>((slot, slotted::usable_space(p.as_slice())))
            })??;
            st.fsm.insert(pid, usable as u16);
            if let Some(slot) = slot {
                st.hint = i;
                return Ok(RecordId::new(pid, slot));
            }
        }
        // Grow the file. The page is a structured allocation: a rollback
        // undoes the pending page-list publication and the handle resyncs
        // from the root log, so the pid is safe to reissue.
        let span = db.struct_span_start();
        let pid = db.alloc_page_structured()?;
        let (slot, usable) = db.with_page_mut(pid, |p| {
            slotted::init(p);
            let slot = slotted::insert(p, bytes)?;
            Ok::<_, StorageError>((slot, slotted::usable_space(p.as_slice())))
        })??;
        st.pages.push(pid);
        st.fsm.insert(pid, usable as u16);
        st.hint = st.pages.len() - 1;
        // Publish the growth: pending inside a transaction (committed
        // with it, undone by abort), auto-committed onto the
        // structure-root log otherwise — so snapshot scans keep resolving
        // the pre-growth page list.
        db.publish_struct(self.id, StructRoot::Heap { pages: st.pages.clone() });
        db.struct_span("heap-grow", pid, span);
        slot.map(|s| RecordId::new(pid, s)).ok_or(StorageError::TooLarge {
            size: bytes.len(),
            max: slotted::max_record_size(db.page_size()),
        })
    }

    /// Read a record through a closure (shared borrow: record reads never
    /// mutate heap structure).
    pub fn get<R>(&self, db: &Database, rid: RecordId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.get_at(db, rid, f)
    }

    /// [`HeapFile::get`] through any [`PageRead`] — e.g. a read-view
    /// snapshot isolated from concurrent writers.
    pub fn get_at<S: PageRead, R>(
        &self,
        s: &S,
        rid: RecordId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        s.with_page(rid.pid, |page| {
            slotted::get(page, rid.slot)
                .map(f)
                .ok_or(StorageError::RecordNotFound { pid: rid.pid, slot: rid.slot })
        })?
    }

    /// Update a record in place. Returns the (possibly new) location; the
    /// record moves pages only when its page cannot hold the new size.
    pub fn update(&self, db: &Database, rid: RecordId, bytes: &[u8]) -> Result<RecordId> {
        let updated = db.with_page_mut(rid.pid, |p| {
            if slotted::get(p.as_slice(), rid.slot).is_none() {
                return Err(StorageError::RecordNotFound { pid: rid.pid, slot: rid.slot });
            }
            let ok = slotted::update(p, rid.slot, bytes)?;
            Ok((ok, slotted::usable_space(p.as_slice())))
        })??;
        self.lock().fsm.insert(rid.pid, updated.1 as u16);
        if updated.0 {
            return Ok(rid);
        }
        // Move: delete here, insert elsewhere (each takes the per-file
        // mutex itself — it is not held across the two steps).
        self.delete(db, rid)?;
        self.insert(db, bytes)
    }

    /// Delete a record.
    pub fn delete(&self, db: &Database, rid: RecordId) -> Result<()> {
        let usable = db.with_page_mut(rid.pid, |p| {
            if !slotted::delete(p, rid.slot) {
                return Err(StorageError::RecordNotFound { pid: rid.pid, slot: rid.slot });
            }
            Ok(slotted::usable_space(p.as_slice()))
        })??;
        self.lock().fsm.insert(rid.pid, usable as u16);
        Ok(())
    }

    /// Visit every live record.
    pub fn scan(&self, db: &Database, f: impl FnMut(RecordId, &[u8])) -> Result<()> {
        self.scan_at(db, f)
    }

    /// [`HeapFile::scan`] through any [`PageRead`] snapshot: the visited
    /// page list is resolved through the structure-root log, so growth
    /// committed after the view opened is invisible — even through a
    /// stale handle.
    pub fn scan_at<S: PageRead>(&self, s: &S, mut f: impl FnMut(RecordId, &[u8])) -> Result<()> {
        for pid in self.pages_in(s) {
            s.with_page(pid, |page| {
                if slotted::is_formatted(page) {
                    for (slot, bytes) in slotted::iter(page) {
                        f(RecordId::new(pid, slot), bytes);
                    }
                }
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::{build_store, MethodKind, StoreOptions};
    use pdl_flash::{FlashChip, FlashConfig};

    fn db(pages: u64) -> Database {
        let chip = FlashChip::new(FlashConfig::scaled(8));
        let store = build_store(chip, MethodKind::Opu, StoreOptions::new(pages)).unwrap();
        Database::new(store, 8)
    }

    #[test]
    fn insert_get_round_trip() {
        let d = db(64);
        let h = HeapFile::create(&d);
        let rid = h.insert(&d, b"record one").unwrap();
        let got = h.get(&d, rid, |b| b.to_vec()).unwrap();
        assert_eq!(got, b"record one");
    }

    #[test]
    fn grows_over_many_pages_and_scans_all() {
        let d = db(64);
        let h = HeapFile::create(&d);
        let mut rids = Vec::new();
        for i in 0..500u32 {
            let rec = vec![i as u8; 100];
            rids.push(h.insert(&d, &rec).unwrap());
        }
        assert!(h.num_pages() > 10, "spread over pages: {}", h.num_pages());
        let mut seen = 0;
        h.scan(&d, |_, bytes| {
            assert_eq!(bytes.len(), 100);
            seen += 1;
        })
        .unwrap();
        assert_eq!(seen, 500);
        // Spot-check a few.
        for (i, rid) in rids.iter().enumerate().step_by(97) {
            let b = h.get(&d, *rid, |b| b[0]).unwrap();
            assert_eq!(b, i as u8);
        }
    }

    #[test]
    fn update_in_place_and_moving() {
        let d = db(64);
        let h = HeapFile::create(&d);
        // Fill one page so in-page growth is impossible.
        let first = h.insert(&d, &[1u8; 400]).unwrap();
        while h.num_pages() == 1 {
            h.insert(&d, &[2u8; 400]).unwrap();
        }
        let same = h.update(&d, first, &[3u8; 400]).unwrap();
        assert_eq!(same, first, "equal size stays");
        let moved = h.update(&d, first, &[4u8; 1500]).unwrap();
        assert_ne!(moved.pid, first.pid, "grown record relocates");
        assert_eq!(h.get(&d, moved, |b| b.len()).unwrap(), 1500);
        assert!(h.get(&d, first, |_| ()).is_err(), "old location gone");
    }

    #[test]
    fn delete_then_reuse_space() {
        let d = db(64);
        let h = HeapFile::create(&d);
        let mut rids = Vec::new();
        for _ in 0..18 {
            rids.push(h.insert(&d, &[5u8; 100]).unwrap());
        }
        let pages_before = h.num_pages();
        for rid in &rids {
            h.delete(&d, *rid).unwrap();
        }
        for _ in 0..18 {
            h.insert(&d, &[6u8; 100]).unwrap();
        }
        assert_eq!(h.num_pages(), pages_before, "deleted space was reused");
    }

    #[test]
    fn missing_records_error() {
        let d = db(64);
        let h = HeapFile::create(&d);
        let rid = h.insert(&d, b"x").unwrap();
        h.delete(&d, rid).unwrap();
        assert!(matches!(h.get(&d, rid, |_| ()), Err(StorageError::RecordNotFound { .. })));
        assert!(h.delete(&d, rid).is_err());
    }

    #[test]
    fn snapshot_scan_resolves_the_view_time_page_list() {
        let d = db(64);
        let h = HeapFile::create(&d);
        for i in 0..40u8 {
            h.insert(&d, &[i; 100]).unwrap();
        }
        let view = d.begin_read();
        let pages_at_view = h.pages_in(&d);
        // Grow the file while the view is open.
        for i in 40..120u8 {
            h.insert(&d, &[i; 100]).unwrap();
        }
        assert!(h.num_pages() > pages_at_view.len(), "the churn grew the file");
        // The stale handle's snapshot scan resolves the view-time list:
        // exactly the first 40 records, none of the later growth.
        let snap = d.snapshot(&view);
        assert_eq!(h.pages_in(&snap), pages_at_view);
        let mut seen = Vec::new();
        h.scan_at(&snap, |_, bytes| seen.push(bytes[0])).unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<u8>>());
        let _ = snap;
        d.release_read(view);
        // Current scans see everything.
        let mut n = 0;
        h.scan(&d, |_, _| n += 1).unwrap();
        assert_eq!(n, 120);
    }

    #[test]
    fn a_heap_file_used_with_another_database_panics_naming_its_id() {
        let (d, other) = (db(64), db(64));
        let h = HeapFile::create(&d);
        let rid = h.insert(&d, b"record").unwrap();
        let expected = format!("structure {} is not registered in this database", h.id);
        let view = other.begin_read();
        let snap = other.snapshot(&view);
        let uses: [&dyn Fn(); 4] = [
            &|| drop(h.insert(&other, b"x")),
            &|| drop(h.scan(&other, |_, _| ())),
            &|| drop(h.pages_in(&other)),
            &|| drop(h.scan_at(&snap, |_, _| ())),
        ];
        for f in uses {
            assert_eq!(crate::view::tests::panic_message(f), expected);
        }
        other.release_read(view);
        assert_eq!(h.get(&d, rid, |b| b.to_vec()).unwrap(), b"record");
        h.insert(&d, b"still usable").unwrap();
    }

    #[test]
    fn abort_rolls_back_heap_growth() {
        let d = db(64);
        let h = HeapFile::create(&d);
        for i in 0..10u8 {
            h.insert(&d, &[i; 100]).unwrap();
        }
        let pages_before = h.pages_in(&d);
        d.begin().unwrap();
        for i in 10..60u8 {
            h.insert(&d, &[i; 100]).unwrap();
        }
        assert!(h.pages_in(&d).len() > pages_before.len(), "the transaction grew the file");
        d.abort().unwrap();
        assert_eq!(h.pages_in(&d), pages_before, "growth rolled back");
        let mut seen = Vec::new();
        h.scan(&d, |_, bytes| seen.push(bytes[0])).unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<u8>>());
        // The file keeps working after the rollback.
        for i in 10..30u8 {
            h.insert(&d, &[i; 100]).unwrap();
        }
        let mut n = 0;
        h.scan(&d, |_, _| n += 1).unwrap();
        assert_eq!(n, 30);
    }

    #[test]
    fn concurrent_inserts_into_two_files_proceed_in_parallel() {
        // Two files, four threads (two per file): per-file serialization
        // only — both files grow, every record lands, nothing is lost.
        let d = db(128);
        let a = HeapFile::create(&d);
        let b = HeapFile::create(&d);
        std::thread::scope(|scope| {
            for (f, tag) in [(&a, 1u8), (&a, 2), (&b, 3), (&b, 4)] {
                let d = &d;
                scope.spawn(move || {
                    for _ in 0..60 {
                        f.insert(d, &[tag; 100]).unwrap();
                    }
                });
            }
        });
        let (mut na, mut nb) = (0, 0);
        a.scan(&d, |_, bytes| {
            assert!(bytes[0] == 1 || bytes[0] == 2);
            na += 1;
        })
        .unwrap();
        b.scan(&d, |_, bytes| {
            assert!(bytes[0] == 3 || bytes[0] == 4);
            nb += 1;
        })
        .unwrap();
        assert_eq!((na, nb), (120, 120));
    }
}
