//! A B+-tree index over fixed 16-byte keys.
//!
//! Keys are byte strings compared lexicographically; composite keys are
//! built big-endian with [`KeyBuf`] so integer order equals byte order.
//! Values are `u64` (usually a packed [`crate::RecordId`]). Duplicate keys
//! are allowed: readers descend to the *first* duplicate, writers append
//! after the last, range scans see all of them.
//!
//! Node layout (any page size):
//!
//! ```text
//! 0      kind: u8 (1 = leaf, 2 = internal)
//! 2..4   count: u16
//! 4..12  leaf: next-leaf pid (u64, MAX = none) | internal: child0 pid
//! 12..   entries: key[16] ++ u64   (leaf: value; internal: child pid)
//! ```
//!
//! Deletion is lazy (no rebalancing/merging); underfull pages are absorbed
//! by future inserts. This matches the benchmark workloads (TPC-C deletes
//! only `NEW-ORDER` rows, which are continually re-inserted).
//!
//! # Concurrent structural writers (latch coupling)
//!
//! Every mutation takes `&self` + `&Database` and serializes per *page*
//! through the buffer pool's latch table, crab-walk style:
//!
//! * **Insert** latches root-to-leaf, releasing all ancestors the moment
//!   the just-latched child is *safe* (non-full: it can absorb a
//!   separator without splitting). When the leaf must split, the latched
//!   suffix is exactly the chain of full ancestors the split propagates
//!   through — topped by a safe node or the root, both still latched.
//! * **Delete** is lazy (leaf-only), so every child is immediately safe:
//!   the descent couples parent → child, holding at most two latches, and
//!   the leaf-chain walk couples strictly left-to-right.
//! * **Readers take no latches.** Splits are ordered so an unlatched
//!   reader chasing the leaf chain is never torn: the right node is fully
//!   written (link inherited) *before* one atomic update command shrinks
//!   the left node and points its link at the right. A reader that
//!   descended a pre-split parent lands at most a few leaves left of its
//!   key and recovers by walking the chain right ([`BTree::get_at`]).
//!
//! Deadlock freedom: all writers acquire latches along one global partial
//! order — tree order (root to leaf) then leaf order (left to right) —
//! so the wait-for graph cannot cycle. Inside a transaction, a descent
//! that meets a page dirtied by *another* uncommitted transaction fails
//! with [`StorageError::TxnConflict`] (see
//! `Database::with_page_struct`): the caller aborts and retries rather
//! than navigate geometry that may yet roll back.

use crate::buffer::{read_u16, read_u64, PageLatch, PageMut};
use crate::db::Database;
use crate::error::StorageError;
use crate::view::{resolve_struct, PageRead, StructId, StructRoot};
use crate::Result;

/// Index key: 16 bytes, compared lexicographically.
pub type Key = [u8; 16];

/// No-next-leaf sentinel.
const NO_PID: u64 = u64::MAX;

const KIND_LEAF: u8 = 1;
const KIND_INTERNAL: u8 = 2;
const OFF_KIND: usize = 0;
const OFF_COUNT: usize = 2;
const OFF_LINK: usize = 4; // next-leaf or child0
const ENTRIES: usize = 12;
const ENTRY: usize = 24; // 16-byte key + 8-byte value/child

/// Big-endian composite key builder.
#[derive(Clone, Copy, Debug, Default)]
pub struct KeyBuf {
    bytes: Key,
    at: usize,
}

impl KeyBuf {
    pub fn new() -> KeyBuf {
        KeyBuf::default()
    }

    pub fn push_u8(mut self, v: u8) -> KeyBuf {
        self.bytes[self.at] = v;
        self.at += 1;
        self
    }

    pub fn push_u16(mut self, v: u16) -> KeyBuf {
        self.bytes[self.at..self.at + 2].copy_from_slice(&v.to_be_bytes());
        self.at += 2;
        self
    }

    pub fn push_u32(mut self, v: u32) -> KeyBuf {
        self.bytes[self.at..self.at + 4].copy_from_slice(&v.to_be_bytes());
        self.at += 4;
        self
    }

    pub fn push_u64(mut self, v: u64) -> KeyBuf {
        self.bytes[self.at..self.at + 8].copy_from_slice(&v.to_be_bytes());
        self.at += 8;
        self
    }

    /// Fixed-width string prefix (truncated / zero-padded to `width`).
    pub fn push_str(mut self, s: &str, width: usize) -> KeyBuf {
        let b = s.as_bytes();
        for i in 0..width {
            self.bytes[self.at + i] = if i < b.len() { b[i] } else { 0 };
        }
        self.at += width;
        self
    }

    pub fn finish(self) -> Key {
        self.bytes
    }
}

fn capacity(page_len: usize) -> usize {
    (page_len - ENTRIES) / ENTRY
}

fn kind(page: &[u8]) -> u8 {
    page[OFF_KIND]
}

fn count(page: &[u8]) -> usize {
    read_u16(page, OFF_COUNT) as usize
}

fn link(page: &[u8]) -> u64 {
    read_u64(page, OFF_LINK)
}

fn entry_key(page: &[u8], i: usize) -> Key {
    page[ENTRIES + i * ENTRY..ENTRIES + i * ENTRY + 16].try_into().expect("16 bytes")
}

fn entry_val(page: &[u8], i: usize) -> u64 {
    read_u64(page, ENTRIES + i * ENTRY + 16)
}

fn write_entry(page: &mut PageMut, i: usize, key: &Key, val: u64) {
    let at = ENTRIES + i * ENTRY;
    page.write(at, key);
    page.write_u64(at + 16, val);
}

fn init_node(page: &mut PageMut, node_kind: u8, link_pid: u64) {
    page.write(OFF_KIND, &[node_kind, 0]);
    page.write_u16(OFF_COUNT, 0);
    page.write_u64(OFF_LINK, link_pid);
}

/// First index whose key is >= `key` (descend-to-first-duplicate).
fn lower_bound(page: &[u8], key: &Key) -> usize {
    let n = count(page);
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if entry_key(page, mid) < *key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// First index whose key is > `key` (append-after-duplicates).
fn upper_bound(page: &[u8], key: &Key) -> usize {
    let n = count(page);
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if entry_key(page, mid) <= *key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Shift entries `[idx..count)` one slot right and write the new entry.
fn insert_entry_at(page: &mut PageMut, idx: usize, key: &Key, val: u64) {
    let n = count(page.as_slice());
    if idx < n {
        let src = ENTRIES + idx * ENTRY;
        page.copy_within(src, src + ENTRY, (n - idx) * ENTRY);
    }
    write_entry(page, idx, key, val);
    page.write_u16(OFF_COUNT, (n + 1) as u16);
}

/// Remove entry `idx`, shifting the tail left.
fn remove_entry_at(page: &mut PageMut, idx: usize) {
    let n = count(page.as_slice());
    debug_assert!(idx < n);
    if idx + 1 < n {
        let src = ENTRIES + (idx + 1) * ENTRY;
        page.copy_within(src, src - ENTRY, (n - idx - 1) * ENTRY);
    }
    page.write_u16(OFF_COUNT, (n - 1) as u16);
}

/// A B+-tree rooted at a page.
///
/// A handle belongs to the one [`Database`] that created
/// ([`BTree::create`]) or attached ([`BTree::attach`]) it, and is always
/// registered in that database's structure-root log: every committed
/// root move is recorded against the MVCC commit clock, so *any* handle —
/// however stale — resolves the right root for whatever it reads
/// through. A snapshot scan descends the root as of the view's
/// timestamp; a current-state read descends the latest committed root
/// (plus the open transaction's pending move, for the writer itself); and
/// [`crate::Database::abort`] rolls a split's root move back along with
/// the page bytes. Used with any other database, every operation panics
/// naming the handle's structure id.
///
/// All operations take `&self`: one handle may be shared across writer
/// threads (`BTree: Sync`), with mutations coupling through the
/// database's page-latch table.
pub struct BTree {
    id: StructId,
}

impl BTree {
    /// Create an empty tree (allocates the root leaf) and register it in
    /// the database's structure-root log.
    ///
    /// The root is a *raw* allocation: the registration below outlives
    /// any rollback of the creating transaction, so the pid must never be
    /// reissued.
    pub fn create(db: &Database) -> Result<BTree> {
        let root = db.alloc_page()?;
        db.with_page_mut(root, |p| init_node(p, KIND_LEAF, NO_PID))?;
        Ok(BTree::attach(db, root))
    }

    /// Register a tree that already exists at `root` in `db`'s
    /// structure-root log: the restart path for a caller that remembered
    /// the root. After a crash on a store with a root log, prefer
    /// [`crate::Database::recover_structures`], which rebuilds every
    /// registered tree from the store alone.
    pub fn attach(db: &Database, root: u64) -> BTree {
        BTree { id: db.register_struct(StructRoot::BTree { root }) }
    }

    /// The root this handle descends through `s`: the registered root as
    /// `s` resolves it (current committed state, or the state at a
    /// snapshot's timestamp).
    pub fn current_root<S: PageRead>(&self, s: &S) -> u64 {
        match resolve_struct(s, self.id) {
            StructRoot::BTree { root } => root,
            StructRoot::Heap { .. } => unreachable!("structure {} is a b+-tree", self.id),
        }
    }

    /// Descend to the leaf for `key` through any [`PageRead`] (the
    /// current state or a read-view snapshot) — the unlatched reader
    /// path. `for_insert` picks the upper-bound child (append after
    /// duplicates); otherwise the lower-bound child (first duplicate).
    /// Returns the path of internal pids, ending with the leaf pid.
    fn descend<S: PageRead>(&self, s: &S, key: &Key, for_insert: bool) -> Result<Vec<u64>> {
        let mut path = vec![self.current_root(s)];
        loop {
            let pid = *path.last().expect("non-empty");
            let next = s.with_page(pid, |p| match kind(p) {
                KIND_LEAF => Ok(None),
                KIND_INTERNAL => {
                    let idx = if for_insert { upper_bound(p, key) } else { lower_bound(p, key) };
                    Ok(Some(if idx == 0 { link(p) } else { entry_val(p, idx - 1) }))
                }
                // A page that is no B+-tree node at all — e.g. a root that
                // did not exist yet at a snapshot's timestamp. Erroring
                // here turns a would-be infinite descent into a clean
                // failure.
                k => Err(StorageError::PageCorrupt(format!(
                    "b+-tree node {pid} has unknown kind {k}"
                ))),
            })??;
            match next {
                None => return Ok(path),
                Some(child) => path.push(child),
            }
        }
    }

    /// Look up the value of the first entry with exactly `key`. Lookups
    /// never mutate tree structure and take no latches — concurrent
    /// readers run against concurrent structural writers freely.
    pub fn get(&self, db: &Database, key: &Key) -> Result<Option<u64>> {
        self.get_at(db, key)
    }

    /// [`BTree::get`] through any [`PageRead`] — e.g. a
    /// [`crate::DbSnapshot`] for a snapshot
    /// lookup that is isolated from concurrent writers.
    ///
    /// The leaf probe is a *move-right* loop: when every entry in the
    /// leaf sorts below `key`, the search follows the next-leaf link
    /// instead of giving up. That covers both a first duplicate sitting
    /// at the head of the next leaf (key equals a separator) and a
    /// current-state race where a concurrent split moved the key right
    /// after this thread's unlatched descent chose its leaf.
    pub fn get_at<S: PageRead>(&self, s: &S, key: &Key) -> Result<Option<u64>> {
        let path = self.descend(s, key, false)?;
        let mut leaf = *path.last().expect("leaf");
        loop {
            enum Probe {
                Found(u64),
                Miss,
                Right(u64),
            }
            let probe = s.with_page(leaf, |p| {
                let idx = lower_bound(p, key);
                if idx < count(p) {
                    if entry_key(p, idx) == *key {
                        Probe::Found(entry_val(p, idx))
                    } else {
                        Probe::Miss
                    }
                } else if link(p) != NO_PID {
                    Probe::Right(link(p))
                } else {
                    Probe::Miss
                }
            })?;
            match probe {
                Probe::Found(v) => return Ok(Some(v)),
                Probe::Miss => return Ok(None),
                Probe::Right(next) => leaf = next,
            }
        }
    }

    /// Insert `key -> val` (duplicates allowed).
    ///
    /// Latch-coupled: ancestors are released as soon as the descent
    /// latches a non-full child, so concurrent inserts into disjoint
    /// subtrees proceed in parallel and only split-propagation chains
    /// serialize. The whole descent restarts when the root moved between
    /// resolving and latching it (another writer grew the tree).
    pub fn insert(&self, db: &Database, key: &Key, val: u64) -> Result<()> {
        let cap = capacity(db.page_size());
        loop {
            let root = self.current_root(db);
            // Latch the root, then re-verify it *is* still the root: a
            // concurrent writer may have grown the tree in the window
            // between resolving and latching. The verified latch makes
            // later root growth by this thread race-free — nobody else
            // can be growing concurrently, they would need this latch.
            let mut latches: Vec<PageLatch<'_>> = vec![db.latch_page(root)];
            if self.current_root(db) != root {
                continue;
            }
            // Crab-walk down. `path` and `latches` stay parallel: the
            // retained prefix is, from the top, a safe node (or the
            // root) followed by only-full ancestors — exactly the chain
            // a split must propagate through.
            let mut path: Vec<u64> = vec![root];
            loop {
                let pid = *path.last().expect("non-empty");
                let next = db.with_page_struct(pid, |p| match kind(p) {
                    KIND_LEAF => Ok(None),
                    KIND_INTERNAL => {
                        let idx = upper_bound(p, key);
                        Ok(Some(if idx == 0 { link(p) } else { entry_val(p, idx - 1) }))
                    }
                    k => Err(StorageError::PageCorrupt(format!(
                        "b+-tree node {pid} has unknown kind {k}"
                    ))),
                })??;
                let Some(child) = next else { break };
                let child_latch = db.latch_page(child);
                let safe = db.with_page_struct(child, |p| count(p) < cap)?;
                if safe {
                    // The child absorbs any separator a split below it
                    // promotes: nothing above can change, release it all.
                    path.clear();
                    latches.clear();
                }
                path.push(child);
                latches.push(child_latch);
            }
            let leaf = *path.last().expect("leaf");
            let full = db.with_page(leaf, |p| count(p) >= cap)?;
            if !full {
                db.with_page_mut(leaf, |p| {
                    let idx = upper_bound(p.as_slice(), key);
                    insert_entry_at(p, idx, key, val);
                })?;
                return Ok(());
            }
            // Split the leaf, then insert into the proper half. The leaf
            // was retained un-safe, so every ancestor in `path` is still
            // latched.
            let span = db.struct_span_start();
            // Split nodes allocate structured: a rollback undoes every
            // reference to them (page bytes and the pending root
            // publication), so their pids are safe to reissue.
            let right = db.alloc_page_structured()?;
            let mid = cap / 2;
            let (sep, moved, old_next) = db.with_page(leaf, |p| {
                let moved: Vec<(Key, u64)> =
                    (mid..count(p)).map(|i| (entry_key(p, i), entry_val(p, i))).collect();
                (moved[0].0, moved, link(p))
            })?;
            // Order matters for unlatched leaf-chain readers: the right
            // node is complete (entries + inherited link) before ONE
            // update command both shrinks the left node and points its
            // link at the right — a reader sees the chain pre-split or
            // post-split, never torn.
            db.with_page_mut(right, |p| {
                init_node(p, KIND_LEAF, old_next);
                for (i, (k, v)) in moved.iter().enumerate() {
                    write_entry(p, i, k, *v);
                }
                p.write_u16(OFF_COUNT, moved.len() as u16);
            })?;
            db.with_page_mut(leaf, |p| {
                p.write_u16(OFF_COUNT, mid as u16);
                p.write_u64(OFF_LINK, right);
            })?;
            // Insert the entry into the correct half (both have room now).
            let target = if *key < sep { leaf } else { right };
            db.with_page_mut(target, |p| {
                let idx = upper_bound(p.as_slice(), key);
                insert_entry_at(p, idx, key, val);
            })?;
            db.struct_span("split", leaf, span);
            // Propagate the separator up the latched chain. Latches drop
            // (in bulk) when this insert returns — after any root
            // publication, so a restarting writer that re-latches the old
            // root always observes the published move.
            return self.insert_into_parent(db, &path[..path.len() - 1], path[0], sep, right);
        }
    }

    /// Insert `(sep, right)` into the latched parent chain after a child
    /// split. `ancestors` are the retained (still latched) ancestors of
    /// the split child, `top` the subtree's latched apex — a safe node,
    /// or the verified root when every retained node was full.
    fn insert_into_parent(
        &self,
        db: &Database,
        ancestors: &[u64],
        top: u64,
        sep: Key,
        right: u64,
    ) -> Result<()> {
        let cap = capacity(db.page_size());
        let mut sep = sep;
        let mut right = right;
        let mut level = ancestors.len();
        loop {
            if level == 0 {
                // Split reached the latched apex with nothing left to
                // absorb it: `top` is the (verified, still latched) root.
                // Grow the tree. The new root is unreachable until the
                // publication below, so it needs no latch.
                let span = db.struct_span_start();
                let new_root = db.alloc_page_structured()?;
                db.with_page_mut(new_root, |p| {
                    init_node(p, KIND_INTERNAL, top);
                    write_entry(p, 0, &sep, right);
                    p.write_u16(OFF_COUNT, 1);
                })?;
                // Publish the root move: pending inside a transaction
                // (committed with it, undone by abort), auto-committed
                // onto the structure-root log otherwise — so snapshot
                // readers keep resolving the pre-split root.
                db.publish_struct(self.id, StructRoot::BTree { root: new_root });
                db.struct_span("root-publish", new_root, span);
                return Ok(());
            }
            level -= 1;
            let parent = ancestors[level];
            let full = db.with_page(parent, |p| count(p) >= cap)?;
            if !full {
                db.with_page_mut(parent, |p| {
                    let idx = upper_bound(p.as_slice(), &sep);
                    insert_entry_at(p, idx, &sep, right);
                })?;
                return Ok(());
            }
            // Split the internal node: promote the middle key.
            let span = db.struct_span_start();
            let new_node = db.alloc_page_structured()?;
            let mid = cap / 2;
            let (promoted, moved_child0, moved) = db.with_page(parent, |p| {
                let promoted = entry_key(p, mid);
                let moved_child0 = entry_val(p, mid);
                let moved: Vec<(Key, u64)> =
                    (mid + 1..count(p)).map(|i| (entry_key(p, i), entry_val(p, i))).collect();
                (promoted, moved_child0, moved)
            })?;
            db.with_page_mut(new_node, |p| {
                init_node(p, KIND_INTERNAL, moved_child0);
                for (i, (k, v)) in moved.iter().enumerate() {
                    write_entry(p, i, k, *v);
                }
                p.write_u16(OFF_COUNT, moved.len() as u16);
            })?;
            db.with_page_mut(parent, |p| p.write_u16(OFF_COUNT, mid as u16))?;
            // Insert the pending separator into the proper half.
            let target = if sep < promoted { parent } else { new_node };
            db.with_page_mut(target, |p| {
                let idx = upper_bound(p.as_slice(), &sep);
                insert_entry_at(p, idx, &sep, right);
            })?;
            db.struct_span("split", parent, span);
            sep = promoted;
            right = new_node;
        }
    }

    /// Visit entries with `from <= key <= to` in order; the callback
    /// returns `false` to stop early.
    pub fn range(
        &self,
        db: &Database,
        from: &Key,
        to: &Key,
        f: impl FnMut(&Key, u64) -> bool,
    ) -> Result<()> {
        self.range_at(db, from, to, f)
    }

    /// [`BTree::range`] through any [`PageRead`] — a scan over a
    /// snapshot visits exactly the entries committed when the view
    /// opened, no matter what writers do meanwhile.
    pub fn range_at<S: PageRead>(
        &self,
        s: &S,
        from: &Key,
        to: &Key,
        mut f: impl FnMut(&Key, u64) -> bool,
    ) -> Result<()> {
        let path = self.descend(s, from, false)?;
        let mut leaf = *path.last().expect("leaf");
        let mut idx = s.with_page(leaf, |p| lower_bound(p, from))?;
        loop {
            enum Step {
                Stop,
                NextLeaf(u64),
            }
            let step = s.with_page(leaf, |p| {
                let n = count(p);
                let mut i = idx;
                while i < n {
                    let k = entry_key(p, i);
                    if k > *to {
                        return Step::Stop;
                    }
                    if !f(&k, entry_val(p, i)) {
                        return Step::Stop;
                    }
                    i += 1;
                }
                match link(p) {
                    NO_PID => Step::Stop,
                    next => Step::NextLeaf(next),
                }
            })?;
            match step {
                Step::Stop => return Ok(()),
                Step::NextLeaf(next) => {
                    // Read-ahead: the leaf chain is followed strictly in
                    // order, so hint the next leaf's flash reads while
                    // this leaf's entries are still being consumed.
                    s.prefetch(next);
                    leaf = next;
                    idx = 0;
                }
            }
        }
    }

    /// Delete the first entry with exactly `key`, returning its value.
    pub fn delete(&self, db: &Database, key: &Key) -> Result<Option<u64>> {
        self.delete_where(db, key, |_| true)
    }

    /// Delete the first entry with `key` whose value equals `val`.
    pub fn delete_exact(&self, db: &Database, key: &Key, val: u64) -> Result<bool> {
        Ok(self.delete_where(db, key, |v| v == val)?.is_some())
    }

    /// Latch-coupled lazy delete: leaf-only mutation means every child is
    /// immediately safe, so the descent holds at most two latches (parent
    /// released the moment the child is latched) and the duplicate walk
    /// couples left-to-right along the leaf chain.
    // `latch` is assigned for its drop timing (RAII coupling), never
    // read — the assignment's RHS acquires the child before the old
    // value's drop releases the parent.
    #[allow(unused_assignments)]
    fn delete_where(
        &self,
        db: &Database,
        key: &Key,
        pred: impl Fn(u64) -> bool,
    ) -> Result<Option<u64>> {
        loop {
            let root = self.current_root(db);
            let mut _latch = db.latch_page(root);
            if self.current_root(db) != root {
                continue;
            }
            let mut pid = root;
            loop {
                let next = db.with_page_struct(pid, |p| match kind(p) {
                    KIND_LEAF => Ok(None),
                    KIND_INTERNAL => {
                        let idx = lower_bound(p, key);
                        Ok(Some(if idx == 0 { link(p) } else { entry_val(p, idx - 1) }))
                    }
                    k => Err(StorageError::PageCorrupt(format!(
                        "b+-tree node {pid} has unknown kind {k}"
                    ))),
                })??;
                let Some(child) = next else { break };
                // Child latched before the parent latch drops (the RHS
                // runs first): the crab's two-latch coupling step.
                _latch = db.latch_page(child);
                pid = child;
            }
            loop {
                enum Outcome {
                    Deleted(u64),
                    NextLeaf(u64),
                    NotFound,
                }
                let outcome = db.with_page_mut(pid, |p| {
                    let n = count(p.as_slice());
                    let mut i = lower_bound(p.as_slice(), key);
                    while i < n {
                        let k = entry_key(p.as_slice(), i);
                        if k != *key {
                            return Outcome::NotFound;
                        }
                        let v = entry_val(p.as_slice(), i);
                        if pred(v) {
                            remove_entry_at(p, i);
                            return Outcome::Deleted(v);
                        }
                        i += 1;
                    }
                    match link(p.as_slice()) {
                        NO_PID => Outcome::NotFound,
                        next => Outcome::NextLeaf(next),
                    }
                })?;
                match outcome {
                    Outcome::Deleted(v) => return Ok(Some(v)),
                    Outcome::NotFound => return Ok(None),
                    Outcome::NextLeaf(next) => {
                        _latch = db.latch_page(next);
                        pid = next;
                    }
                }
            }
        }
    }

    /// Number of entries (full scan; diagnostics only).
    pub fn len(&self, db: &Database) -> Result<usize> {
        let mut total = 0usize;
        self.range(db, &[0u8; 16], &[0xFFu8; 16], |_, _| {
            total += 1;
            true
        })?;
        Ok(total)
    }

    pub fn is_empty(&self, db: &Database) -> Result<bool> {
        let mut any = false;
        self.range(db, &[0u8; 16], &[0xFFu8; 16], |_, _| {
            any = true;
            false
        })?;
        Ok(!any)
    }

    /// Verify tree invariants (test support): keys sorted within nodes,
    /// leaf chain sorted globally, internal separators bound their
    /// subtrees.
    pub fn check_invariants(&self, db: &Database) -> Result<()> {
        let mut last: Option<Key> = None;
        self.range(db, &[0u8; 16], &[0xFFu8; 16], |k, _| {
            if let Some(prev) = last {
                assert!(prev <= *k, "leaf chain out of order");
            }
            last = Some(*k);
            true
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::{build_store, MethodKind, StoreOptions};
    use pdl_flash::{FlashChip, FlashConfig};

    fn db() -> Database {
        // Small pages (256 bytes -> 10 entries per node) so splits and
        // multi-level trees happen quickly, on a chip with enough blocks
        // to hold a few hundred nodes.
        let mut config = FlashConfig::tiny();
        config.geometry.num_blocks = 64;
        let store =
            build_store(FlashChip::new(config), MethodKind::Opu, StoreOptions::new(448)).unwrap();
        Database::new(store, 16)
    }

    fn key(v: u64) -> Key {
        KeyBuf::new().push_u64(v).finish()
    }

    #[test]
    fn keybuf_orders_composites() {
        let a = KeyBuf::new().push_u16(1).push_u32(2).finish();
        let b = KeyBuf::new().push_u16(1).push_u32(3).finish();
        let c = KeyBuf::new().push_u16(2).push_u32(0).finish();
        assert!(a < b && b < c);
        let s1 = KeyBuf::new().push_str("BARBAR", 10).finish();
        let s2 = KeyBuf::new().push_str("BARBARA", 10).finish();
        assert!(s1 < s2);
    }

    #[test]
    fn insert_and_get_small() {
        let d = db();
        let t = BTree::create(&d).unwrap();
        for v in [5u64, 3, 9, 1, 7] {
            t.insert(&d, &key(v), v * 10).unwrap();
        }
        for v in [1u64, 3, 5, 7, 9] {
            assert_eq!(t.get(&d, &key(v)).unwrap(), Some(v * 10));
        }
        assert_eq!(t.get(&d, &key(4)).unwrap(), None);
    }

    #[test]
    fn thousand_inserts_split_to_multiple_levels() {
        let d = db();
        let t = BTree::create(&d).unwrap();
        // Insert shuffled keys.
        let mut order: Vec<u64> = (0..600).collect();
        let mut x = 99u64;
        for i in (1..order.len()).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        for v in &order {
            t.insert(&d, &key(*v), *v).unwrap();
        }
        for v in 0..600u64 {
            assert_eq!(t.get(&d, &key(v)).unwrap(), Some(v), "key {v}");
        }
        assert_eq!(t.len(&d).unwrap(), 600);
        t.check_invariants(&d).unwrap();
    }

    #[test]
    fn range_scan_in_order() {
        let d = db();
        let t = BTree::create(&d).unwrap();
        for v in (0..200u64).rev() {
            t.insert(&d, &key(v), v).unwrap();
        }
        let mut seen = Vec::new();
        t.range(&d, &key(50), &key(59), |_, v| {
            seen.push(v);
            true
        })
        .unwrap();
        assert_eq!(seen, (50..60).collect::<Vec<u64>>());
    }

    #[test]
    fn range_early_stop() {
        let d = db();
        let t = BTree::create(&d).unwrap();
        for v in 0..100u64 {
            t.insert(&d, &key(v), v).unwrap();
        }
        let mut seen = 0;
        t.range(&d, &key(0), &key(99), |_, _| {
            seen += 1;
            seen < 5
        })
        .unwrap();
        assert_eq!(seen, 5);
    }

    #[test]
    fn duplicates_all_visible_and_deletable_by_value() {
        let d = db();
        let t = BTree::create(&d).unwrap();
        // Enough duplicates to cross leaf boundaries.
        for v in 0..30u64 {
            t.insert(&d, &key(42), v).unwrap();
        }
        t.insert(&d, &key(41), 1000).unwrap();
        t.insert(&d, &key(43), 2000).unwrap();
        let mut vals = Vec::new();
        t.range(&d, &key(42), &key(42), |_, v| {
            vals.push(v);
            true
        })
        .unwrap();
        vals.sort_unstable();
        assert_eq!(vals, (0..30).collect::<Vec<u64>>());
        // Targeted delete among duplicates.
        assert!(t.delete_exact(&d, &key(42), 17).unwrap());
        assert!(!t.delete_exact(&d, &key(42), 17).unwrap());
        let mut n = 0;
        t.range(&d, &key(42), &key(42), |_, _| {
            n += 1;
            true
        })
        .unwrap();
        assert_eq!(n, 29);
        // Neighbours untouched.
        assert_eq!(t.get(&d, &key(41)).unwrap(), Some(1000));
        assert_eq!(t.get(&d, &key(43)).unwrap(), Some(2000));
    }

    #[test]
    fn delete_then_reinsert() {
        let d = db();
        let t = BTree::create(&d).unwrap();
        for v in 0..120u64 {
            t.insert(&d, &key(v), v).unwrap();
        }
        for v in (0..120u64).step_by(2) {
            assert_eq!(t.delete(&d, &key(v)).unwrap(), Some(v));
        }
        for v in (0..120u64).step_by(2) {
            assert_eq!(t.get(&d, &key(v)).unwrap(), None);
            assert_eq!(t.get(&d, &key(v + 1)).unwrap(), Some(v + 1));
        }
        for v in (0..120u64).step_by(2) {
            t.insert(&d, &key(v), v + 500).unwrap();
        }
        assert_eq!(t.len(&d).unwrap(), 120);
        t.check_invariants(&d).unwrap();
    }

    #[test]
    fn empty_tree_behaviour() {
        let d = db();
        let t = BTree::create(&d).unwrap();
        assert!(t.is_empty(&d).unwrap());
        assert_eq!(t.get(&d, &key(1)).unwrap(), None);
        assert_eq!(t.delete(&d, &key(1)).unwrap(), None);
        t.insert(&d, &key(1), 1).unwrap();
        assert!(!t.is_empty(&d).unwrap());
    }

    #[test]
    fn snapshot_scan_is_isolated_from_later_inserts_and_splits() {
        let d = db();
        let t = BTree::create(&d).unwrap();
        for v in 0..100u64 {
            t.insert(&d, &key(v), v).unwrap();
        }
        let view = d.begin_read();
        let root_at_view = t.current_root(&d);
        // Churn hard enough to split leaves and grow the tree while the
        // view is open.
        for v in 100..400u64 {
            t.insert(&d, &key(v), v).unwrap();
        }
        for v in (0..100u64).step_by(2) {
            t.delete(&d, &key(v)).unwrap();
        }
        assert_ne!(t.current_root(&d), root_at_view, "the churn grew the tree");
        // The snapshot still sees exactly the first 100 entries: the
        // structure-root log resolves the view-time root for the handle.
        let snap = d.snapshot(&view);
        assert_eq!(t.current_root(&snap), root_at_view, "root resolved as of the view");
        let mut seen = Vec::new();
        t.range_at(&snap, &key(0), &key(999), |_, v| {
            seen.push(v);
            true
        })
        .unwrap();
        assert_eq!(seen, (0..100).collect::<Vec<u64>>());
        assert_eq!(t.get_at(&snap, &key(42)).unwrap(), Some(42));
        assert_eq!(t.get_at(&snap, &key(200)).unwrap(), None, "post-view insert invisible");
        let _ = snap;
        d.release_read(view);
        // Current reads see the churned tree.
        assert_eq!(t.get(&d, &key(42)).unwrap(), None, "deleted");
        assert_eq!(t.get(&d, &key(200)).unwrap(), Some(200));
        t.check_invariants(&d).unwrap();
    }

    #[test]
    fn a_tree_used_with_another_database_panics_naming_its_id() {
        let (d, other) = (db(), db());
        let t = BTree::create(&d).unwrap();
        for v in 0..50u64 {
            t.insert(&d, &key(v), v).unwrap();
        }
        let expected = format!("structure {} is not registered in this database", t.id);
        let view = other.begin_read();
        let snap = other.snapshot(&view);
        let reads: [&dyn Fn(); 4] = [
            &|| drop(t.get(&other, &key(1))),
            &|| drop(t.insert(&other, &key(1), 1)),
            &|| drop(t.delete(&other, &key(1))),
            &|| drop(t.range_at(&snap, &key(0), &key(9), |_, _| true)),
        ];
        for read in reads {
            assert_eq!(crate::view::tests::panic_message(read), expected);
        }
        other.release_read(view);
        assert_eq!(t.get(&d, &key(1)).unwrap(), Some(1), "its own database still reads it");
    }

    #[test]
    fn abort_rolls_back_splits_and_root_growth() {
        let d = db();
        let t = BTree::create(&d).unwrap();
        for v in 0..8u64 {
            t.insert(&d, &key(v), v).unwrap();
        }
        let root_before = t.current_root(&d);
        d.begin().unwrap();
        // Enough inserts to split the root leaf (capacity 10) and grow
        // the tree inside the transaction...
        for v in 8..60u64 {
            t.insert(&d, &key(v), v).unwrap();
        }
        assert_ne!(t.current_root(&d), root_before, "the transaction grew the tree");
        d.abort().unwrap();
        // ...and the abort undoes the growth: root, contents, the lot.
        assert_eq!(t.current_root(&d), root_before, "root move rolled back");
        let mut seen = Vec::new();
        t.range(&d, &key(0), &key(999), |_, v| {
            seen.push(v);
            true
        })
        .unwrap();
        assert_eq!(seen, (0..8).collect::<Vec<u64>>());
        t.check_invariants(&d).unwrap();
        // The tree is fully usable again after the rollback.
        for v in 8..30u64 {
            t.insert(&d, &key(v), v).unwrap();
        }
        assert_eq!(t.len(&d).unwrap(), 30);
        t.check_invariants(&d).unwrap();
    }

    #[test]
    fn sequential_ascending_inserts() {
        // Worst case for naive split policies; must stay correct.
        let d = db();
        let t = BTree::create(&d).unwrap();
        for v in 0..400u64 {
            t.insert(&d, &key(v), v).unwrap();
        }
        assert_eq!(t.len(&d).unwrap(), 400);
        t.check_invariants(&d).unwrap();
        assert_eq!(t.get(&d, &key(399)).unwrap(), Some(399));
    }

    #[test]
    fn concurrent_writers_on_one_shared_tree() {
        // Four auto-committing threads insert disjoint key ranges into
        // ONE shared tree: latch-coupled descents interleave freely,
        // splits (including root growth) race, and the final tree must
        // hold every key exactly once, in order.
        let d = db();
        let t = BTree::create(&d).unwrap();
        const PER: u64 = 150;
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let d = &d;
                let t = &t;
                scope.spawn(move || {
                    for i in 0..PER {
                        let k = key(w * 10_000 + i);
                        t.insert(d, &k, w * 10_000 + i).unwrap();
                    }
                });
            }
        });
        assert_eq!(t.len(&d).unwrap(), 4 * PER as usize);
        t.check_invariants(&d).unwrap();
        for w in 0..4u64 {
            for i in (0..PER).step_by(17) {
                let v = w * 10_000 + i;
                assert_eq!(t.get(&d, &key(v)).unwrap(), Some(v), "key {v}");
            }
        }
    }

    #[test]
    fn concurrent_inserts_and_deletes_race_cleanly() {
        let d = db();
        let t = BTree::create(&d).unwrap();
        for v in 0..200u64 {
            t.insert(&d, &key(v), v).unwrap();
        }
        std::thread::scope(|scope| {
            let d = &d;
            let t = &t;
            scope.spawn(move || {
                for v in 200..400u64 {
                    t.insert(d, &key(v), v).unwrap();
                }
            });
            scope.spawn(move || {
                for v in 0..200u64 {
                    t.delete(d, &key(v)).unwrap();
                }
            });
        });
        t.check_invariants(&d).unwrap();
        let mut seen = Vec::new();
        t.range(&d, &key(0), &key(999), |_, v| {
            seen.push(v);
            true
        })
        .unwrap();
        assert_eq!(seen, (200..400).collect::<Vec<u64>>());
    }
}
