//! Model-based differential testing: an in-memory `HashMap<u64, Vec<u8>>`
//! shadow model runs in lockstep with every page-update method (and the
//! sharded engine at 1/2/4 shards) through arbitrary interleavings of
//! whole-page writes, partial updates, reads and flushes. The flash
//! geometry is tiny, so garbage collection fires constantly; after
//! *every* operation the store must agree with the model byte-for-byte
//! on the page it touched, and at the end on the whole page space. The
//! PDL engines additionally cross-check their own transaction tables
//! (`check_tables`) after every operation and every recovery, and OPU
//! checks its allocator's page bitmap against its mapping table.
//!
//! The same operation sequence also runs under each GC policy — victim
//! selection and hot/cold data placement change *where* pages live, never
//! *what* they contain, so all policies must produce identical logical
//! state.

use pdl_core::{
    build_store, BatchPage, CommitBatch, GcPolicy, MethodKind, Opu, PageStore, Pdl, ShardedStore,
    StoreOptions,
};
use pdl_flash::{FlashChip, FlashConfig};
use pdl_storage::{BTree, Database, Durability, HeapFile, Key, KeyBuf};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

const PAGES: u64 = 12;

/// One scripted operation: `(kind, pid, payload)`.
///   kind 0 — whole-page write of `payload`-filled bytes;
///   kind 1 — partial update (a 16-byte run placed by `payload`);
///   kind 2 — read and compare;
///   kind 3 — write-through flush.
type Op = (u8, u64, u8);

struct Shadow {
    model: HashMap<u64, Vec<u8>>,
    page_size: usize,
}

impl Shadow {
    fn new(page_size: usize) -> Shadow {
        Shadow { model: HashMap::new(), page_size }
    }

    fn page(&self, pid: u64) -> Vec<u8> {
        self.model.get(&pid).cloned().unwrap_or_else(|| vec![0u8; self.page_size])
    }
}

/// No tables to cross-check: the methods without `check_tables`.
fn unchecked(_: &dyn PageStore) -> Result<(), String> {
    Ok(())
}

/// Drive `store` and the shadow model through `ops`, comparing the
/// touched page (and running `check`) after every operation and every
/// page at the end.
fn drive<S: PageStore + ?Sized>(
    store: &mut S,
    ops: &[Op],
    check: fn(&S) -> Result<(), String>,
) -> Result<(), TestCaseError> {
    let size = store.logical_page_size();
    let mut shadow = Shadow::new(size);
    let mut out = vec![0u8; size];
    for (i, (kind, pid, payload)) in ops.iter().enumerate() {
        let pid = pid % PAGES;
        match kind % 4 {
            0 => {
                let page = vec![*payload; size];
                store.write_page(pid, &page).map_err(|e| {
                    TestCaseError::fail(format!("{} write_page: {e}", store.name()))
                })?;
                shadow.model.insert(pid, page);
            }
            1 => {
                let mut page = shadow.page(pid);
                let at = (*payload as usize * 7) % (size - 16);
                for (j, b) in page[at..at + 16].iter_mut().enumerate() {
                    *b = payload.wrapping_add(j as u8);
                }
                store.write_page(pid, &page).map_err(|e| {
                    TestCaseError::fail(format!("{} partial write: {e}", store.name()))
                })?;
                shadow.model.insert(pid, page);
            }
            2 => {} // the read-back below is the operation
            _ => {
                store
                    .flush()
                    .map_err(|e| TestCaseError::fail(format!("{} flush: {e}", store.name())))?;
            }
        }
        store
            .read_page(pid, &mut out)
            .map_err(|e| TestCaseError::fail(format!("{} read_page: {e}", store.name())))?;
        prop_assert_eq!(
            &out,
            &shadow.page(pid),
            "{} diverged from the model on page {} after op {}",
            store.name(),
            pid,
            i
        );
        check(store)
            .map_err(|e| TestCaseError::fail(format!("{} after op {i}: {e}", store.name())))?;
    }
    for pid in 0..PAGES {
        store
            .read_page(pid, &mut out)
            .map_err(|e| TestCaseError::fail(format!("{} final read: {e}", store.name())))?;
        prop_assert_eq!(
            &out,
            &shadow.page(pid),
            "{} diverged from the model on page {} at the end",
            store.name(),
            pid
        );
    }
    Ok(())
}

fn policies_for(kind: MethodKind) -> Vec<GcPolicy> {
    match kind {
        // The out-place methods own the pluggable policy engine: every
        // policy must preserve logical state.
        MethodKind::Opu | MethodKind::Pdl { .. } => {
            vec![GcPolicy::Greedy, GcPolicy::CostBenefit, GcPolicy::HotCold, GcPolicy::WearAware]
        }
        // IPU has no GC; IPL only varies its merge-target choice.
        MethodKind::Ipu => vec![GcPolicy::Greedy],
        MethodKind::Ipl { .. } => vec![GcPolicy::Greedy, GcPolicy::WearAware],
    }
}

/// One scripted transaction: its `(pid, payload, whole_page)` writes and
/// the number of flash programs after which power fails.
type TxnScript = (Vec<(u64, u8, bool)>, u64);

/// The transactional oracle's body, over either PDL engine: `arm(store,
/// i, budget)` arms transaction `i`'s power failure, `reboot` crashes
/// and recovers, `check` cross-checks the engine's tables — after every
/// batch that returned `Ok` and after every recovery.
fn txn_oracle<S: PageStore>(
    txns: &[TxnScript],
    mut store: S,
    arm: impl Fn(&mut S, usize, u64),
    reboot: impl Fn(S) -> S,
    check: fn(&S) -> Result<(), String>,
) -> Result<(), TestCaseError> {
    let size = store.logical_page_size();
    let mut committed: HashMap<u64, Vec<u8>> = HashMap::new();
    for pid in 0..PAGES {
        let page = vec![pid as u8; size];
        store.write_page(pid, &page).expect("load");
        committed.insert(pid, page);
    }
    store.flush().expect("baseline durability point");
    let mut out = vec![0u8; size];
    for (i, (writes, fault_after)) in txns.iter().enumerate() {
        let txn = i as u64 + 1;
        let mut staged = committed.clone();
        let mut images: Vec<(u64, Vec<u8>)> = Vec::new();
        for &(pid, payload, whole) in writes {
            let pid = pid % PAGES;
            let mut page = staged[&pid].clone();
            if whole {
                page.fill(payload);
            } else {
                let at = (payload as usize * 7) % (size - 16);
                for (j, b) in page[at..at + 16].iter_mut().enumerate() {
                    *b = payload.wrapping_add(j as u8);
                }
            }
            images.push((pid, page.clone()));
            staged.insert(pid, page);
        }
        let pages = images.iter().map(|(pid, page)| BatchPage::new(*pid, page, txn)).collect();
        arm(&mut store, i, *fault_after);
        let result = store.commit_batch(&CommitBatch { pages, roots: None });
        if result.is_ok() {
            check(&store)
                .map_err(|e| TestCaseError::fail(format!("{} txn {i}: {e}", store.name())))?;
        }
        // Crash + recover after every transaction.
        store = reboot(store);
        check(&store).map_err(|e| {
            TestCaseError::fail(format!("{} after recovery {i}: {e}", store.name()))
        })?;
        let mut now: HashMap<u64, Vec<u8>> = HashMap::new();
        for pid in 0..PAGES {
            store.read_page(pid, &mut out).expect("read");
            now.insert(pid, out.clone());
        }
        let landed = now == staged;
        prop_assert!(landed || result.is_err(), "txn {}: returned Ok, lost in recovery", i);
        prop_assert!(
            landed || now == committed,
            "txn {} ({:?}): recovered neither the batch nor its pre-images",
            i,
            result
        );
        if landed {
            committed = staged;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every method, under every applicable GC policy, agrees with the
    /// shadow model after every operation of an arbitrary script.
    #[test]
    fn every_method_matches_the_model(
        ops in proptest::collection::vec((0u8..4, 0u64..PAGES, any::<u8>()), 20..160),
    ) {
        for kind in [
            MethodKind::Opu,
            MethodKind::Ipu,
            MethodKind::Pdl { max_diff_size: 64 },
            MethodKind::Ipl { log_bytes_per_block: 512 },
        ] {
            for policy in policies_for(kind) {
                let chip = FlashChip::new(FlashConfig::tiny());
                let opts = StoreOptions::new(PAGES).with_gc_policy(policy);
                if let MethodKind::Pdl { max_diff_size } = kind {
                    let mut store = Pdl::new(chip, opts, max_diff_size).unwrap();
                    drive(&mut store, &ops, Pdl::check_tables)?;
                } else if kind == MethodKind::Opu {
                    drive(&mut Opu::new(chip, opts).unwrap(), &ops, Opu::check_tables)?;
                } else {
                    let mut store = build_store(chip, kind, opts).unwrap();
                    drive(store.as_mut(), &ops, unchecked)?;
                }
            }
        }
    }

    /// Transactional shadow model (`pdl-txn`): arbitrary transactions —
    /// each one `commit_batch` of page writes, with power failing after
    /// an arbitrary number of flash programs (often mid-batch, sometimes
    /// never) — and a crash + recovery after *every* transaction, on one
    /// chip and on the sharded engine at 1, 2 and 4 shards. A batch
    /// that returned `Ok` must be there after recovery; one that returned
    /// `Err` must be there entirely or not at all (the fault may have hit
    /// after the commit record), and the shadow follows whichever
    /// recovery chose. So uncommitted writes are invisible after
    /// recovery, and torn batches restore the pre-images (base page +
    /// last committed differential).
    #[test]
    fn transactions_match_the_model_across_recovery(
        txns in proptest::collection::vec(
            (
                proptest::collection::vec((0u64..PAGES, any::<u8>(), any::<bool>()), 1..4),
                0u64..12,
            ),
            1..12,
        ),
    ) {
        let opts = StoreOptions::new(PAGES);
        txn_oracle(
            &txns,
            Pdl::new(FlashChip::new(FlashConfig::tiny()), opts, 64).expect("build"),
            |store, _, budget| store.chip_mut().arm_fault(budget),
            |store| {
                let mut chip = Box::new(store).into_chip();
                chip.disarm_fault();
                Pdl::recover(chip, opts, 64).expect("recover")
            },
            Pdl::check_tables,
        )?;
        let kind = MethodKind::Pdl { max_diff_size: 64 };
        for n in [1usize, 2, 4] {
            txn_oracle(
                &txns,
                ShardedStore::with_uniform_chips(FlashConfig::tiny(), n, kind, opts).expect("build"),
                // Power fails on one chip; the commit stops there.
                |store, i, budget| store.shard_mut(i % n).chip_mut().arm_fault(budget),
                |store| {
                    let mut chips = store.into_shard_chips();
                    chips.iter_mut().for_each(FlashChip::disarm_fault);
                    ShardedStore::recover(chips, kind, opts).expect("recover")
                },
                ShardedStore::check_tables,
            )?;
        }
    }

    /// MVCC snapshot readers against the shadow model: a reader opened
    /// before a batch of transactions sees exactly the model's state at
    /// open time, byte for byte, for every page and every MethodKind —
    /// no matter whether the batches commit or abort, and no matter how
    /// much churn (evictions, GC) happens while the view is open. A
    /// second, epoch-long view pins the very first state across the
    /// entire script, exercising deep version chains.
    #[test]
    fn snapshot_readers_see_open_time_state(
        txns in proptest::collection::vec(
            (
                proptest::collection::vec((0u64..PAGES, any::<u8>(), any::<bool>()), 1..4),
                any::<bool>(),
            ),
            1..10,
        ),
    ) {
        for kind in [
            MethodKind::Opu,
            MethodKind::Ipu,
            MethodKind::Pdl { max_diff_size: 64 },
            MethodKind::Ipl { log_bytes_per_block: 512 },
        ] {
            let chip = FlashChip::new(FlashConfig::tiny());
            let store = build_store(chip, kind, StoreOptions::new(PAGES)).unwrap();
            let db = Database::new(store, 6);
            for _ in 0..PAGES {
                db.alloc_page().unwrap();
            }
            let size = db.page_size();
            let mut model: Vec<Vec<u8>> = (0..PAGES).map(|p| vec![p as u8; size]).collect();
            for (pid, page) in model.iter().enumerate() {
                let img = page.clone();
                db.with_page_mut(pid as u64, |p| p.write(0, &img)).unwrap();
            }
            let epoch_model = model.clone();
            let epoch = db.begin_read();
            for (writes, commit) in &txns {
                let at_open = model.clone();
                let view = db.begin_read();
                let mut staged = model.clone();
                db.begin().unwrap();
                for (pid, payload, whole) in writes {
                    let pid = (pid % PAGES) as usize;
                    if *whole {
                        staged[pid].fill(*payload);
                    } else {
                        let at = (*payload as usize * 7) % (size - 16);
                        for (j, b) in staged[pid][at..at + 16].iter_mut().enumerate() {
                            *b = payload.wrapping_add(j as u8);
                        }
                    }
                    let img = staged[pid].clone();
                    db.with_page_mut(pid as u64, |p| p.write(0, &img)).unwrap();
                    // Mid-transaction, the view must already be blind to
                    // the in-flight write.
                    let seen = db.with_page_at(&view, pid as u64, |p| p.to_vec()).unwrap();
                    prop_assert_eq!(&seen, &at_open[pid], "{}: dirty read through a view", kind.label());
                }
                if *commit {
                    db.commit().unwrap();
                    model = staged;
                } else {
                    db.abort().unwrap();
                }
                for pid in 0..PAGES as usize {
                    let seen = db.with_page_at(&view, pid as u64, |p| p.to_vec()).unwrap();
                    prop_assert_eq!(
                        &seen, &at_open[pid],
                        "{}: view diverged from open-time state on page {}", kind.label(), pid
                    );
                    let cur = db.with_page(pid as u64, |p| p.to_vec()).unwrap();
                    prop_assert_eq!(
                        &cur, &model[pid],
                        "{}: current state diverged on page {}", kind.label(), pid
                    );
                }
                db.release_read(view);
            }
            for pid in 0..PAGES as usize {
                let seen = db.with_page_at(&epoch, pid as u64, |p| p.to_vec()).unwrap();
                prop_assert_eq!(
                    &seen, &epoch_model[pid],
                    "{}: epoch view diverged on page {}", kind.label(), pid
                );
            }
            db.release_read(epoch);
            // Teardown: no leaked views, nothing left pinned.
            prop_assert_eq!(db.buffer_stats().active_views, 0);
            prop_assert_eq!(db.retained_versions(), 0);
        }
    }

    /// A durable database over a sharded store (PDL, N in {1, 2, 4}): a
    /// reader opened before a batch of durably committed cross-shard
    /// transactions sees exactly the model's state at open time — and a
    /// crash (dropping the pool while a view is open) followed by
    /// `ShardedStore::recover` lands on exactly the committed model, from
    /// which fresh views read correctly again.
    #[test]
    fn sharded_snapshot_readers_across_crash_recovery(
        txns in proptest::collection::vec(
            (
                proptest::collection::vec((0u64..PAGES, any::<u8>(), any::<bool>()), 1..4),
                any::<bool>(),
            ),
            1..8,
        ),
        crash_at in 0usize..8,
    ) {
        let kind = MethodKind::Pdl { max_diff_size: 64 };
        let opts = StoreOptions::new(PAGES);
        let open = |store: ShardedStore| {
            Database::new(Box::new(store), 8).with_durability(Durability::Commit)
        };
        for n in [1usize, 2, 4] {
            let store =
                ShardedStore::with_uniform_chips(FlashConfig::tiny(), n, kind, opts).unwrap();
            let mut pool = open(store);
            let size = pool.page_size();
            let mut model: Vec<Vec<u8>> = (0..PAGES).map(|p| vec![p as u8; size]).collect();
            for (pid, page) in model.iter().enumerate() {
                let img = page.clone();
                pool.with_page_mut(pid as u64, |p| p.write(0, &img)).unwrap();
            }
            pool.flush().unwrap();
            for (i, (writes, commit)) in txns.iter().enumerate() {
                if i == crash_at {
                    // Crash mid-read: a view is open when the pool dies.
                    let _doomed = pool.begin_read();
                    let chips = pool.into_store_without_flush().into_chips();
                    pool = open(ShardedStore::recover(chips, kind, opts).unwrap());
                    // Recovery lands on exactly the committed model (every
                    // commit below is durable), visible to a fresh view.
                    let view = pool.begin_read();
                    for pid in 0..PAGES as usize {
                        let seen =
                            pool.with_page_at(&view, pid as u64, |p| p.to_vec()).unwrap();
                        prop_assert_eq!(
                            &seen, &model[pid],
                            "{} shards: recovered state diverged on page {}", n, pid
                        );
                    }
                    pool.release_read(view);
                }
                let at_open = model.clone();
                let view = pool.begin_read();
                let mut staged = model.clone();
                pool.begin().unwrap();
                for (pid, payload, whole) in writes {
                    let pid = (pid % PAGES) as usize;
                    if *whole {
                        staged[pid].fill(*payload);
                    } else {
                        let at = (*payload as usize * 7) % (size - 16);
                        for (j, b) in staged[pid][at..at + 16].iter_mut().enumerate() {
                            *b = payload.wrapping_add(j as u8);
                        }
                    }
                    let img = staged[pid].clone();
                    pool.with_page_mut(pid as u64, |p| p.write(0, &img)).unwrap();
                }
                if *commit {
                    pool.commit().unwrap();
                    model = staged;
                } else {
                    pool.abort().unwrap();
                }
                for pid in 0..PAGES as usize {
                    let seen = pool.with_page_at(&view, pid as u64, |p| p.to_vec()).unwrap();
                    prop_assert_eq!(
                        &seen, &at_open[pid],
                        "{} shards: view diverged from open-time state on page {}", n, pid
                    );
                    let cur = pool.with_page(pid as u64, |p| p.to_vec()).unwrap();
                    prop_assert_eq!(
                        &cur, &model[pid],
                        "{} shards: current state diverged on page {}", n, pid
                    );
                }
                pool.release_read(view);
            }
            prop_assert_eq!(pool.retained_versions(), 0, "all views released");
            prop_assert_eq!(pool.buffer_stats().active_views, 0, "the view registry drained");
        }
    }

    /// Tentpole oracle for the structure-root log: N-shard databases
    /// (N in {1, 2, 4}) under writers driving continuous B+-tree splits
    /// and heap growth, with epoch-long and per-round read views held
    /// open across the churn. Every scan through a **stale handle** —
    /// the same `BTree` / `HeapFile` the writer keeps splitting — must
    /// match the shadow model at the view's open time byte for byte,
    /// the *current* state must match the committed model even right
    /// after an abort-after-split (physiological structural undo), and
    /// a mid-sequence crash + `ShardedStore::recover` + `attach` at the
    /// last committed roots must land on exactly the committed model.
    #[test]
    fn structure_scans_through_stale_handles_match_the_model(
        rounds in proptest::collection::vec(
            (proptest::collection::vec(any::<u16>(), 4..20), any::<bool>()),
            3..7,
        ),
        crash_at in 0usize..7,
    ) {
        let kind = MethodKind::Pdl { max_diff_size: 128 };
        let opts = StoreOptions::new(192);
        // Small pages (256 bytes -> 10 B+-tree entries per node) so the
        // churn splits leaves and grows the tree constantly.
        let mut config = FlashConfig::tiny();
        config.geometry.num_blocks = 64;
        let tree_key = |k: u16, round: usize, j: usize| -> Key {
            KeyBuf::new().push_u16(k).push_u8(round as u8).push_u8(j as u8).finish()
        };
        let heap_rec = |k: u16, round: usize, j: usize| -> Vec<u8> {
            let mut rec = vec![0u8; 20];
            rec[0..2].copy_from_slice(&k.to_le_bytes());
            rec[2] = round as u8;
            rec[3] = j as u8;
            rec
        };
        for n in [1usize, 2, 4] {
            let store =
                ShardedStore::with_uniform_chips(config, n, kind, opts).unwrap();
            let mut db = Database::new(Box::new(store), 128)
                .with_durability(Durability::Commit);
            let mut tree = BTree::create(&db).unwrap();
            let mut heap = HeapFile::create(&db);
            // The creations above auto-committed in memory; write them
            // through so a crash before the first commit still recovers
            // the empty structures.
            db.flush().unwrap();
            let mut tree_model: BTreeMap<Key, u64> = BTreeMap::new();
            let mut heap_model: BTreeMap<(u64, u16), Vec<u8>> = BTreeMap::new();
            // Seed a committed baseline.
            db.begin().unwrap();
            for j in 0..8u16 {
                let key = tree_key(j, 99, j as usize);
                tree.insert(&db, &key, j as u64).unwrap();
                tree_model.insert(key, j as u64);
                let rec = heap_rec(j, 99, j as usize);
                let rid = heap.insert(&db, &rec).unwrap();
                heap_model.insert((rid.pid, rid.slot), rec);
            }
            db.commit().unwrap();
            // An epoch-long view pinning this baseline across all churn.
            let mut epoch = db.begin_read();
            let mut epoch_tree = tree_model.clone();
            let mut epoch_heap = heap_model.clone();
            for (i, (keys, commit)) in rounds.iter().enumerate() {
                if i == crash_at {
                    // Crash with a view open: remember only what a real
                    // system could (the last *committed* roots), recover,
                    // re-attach, and verify the committed model survived.
                    let root = tree.current_root(&db);
                    let pages = heap.pages_in(&db);
                    let allocated = db.allocated_pages();
                    db.release_read(epoch);
                    let chips = db.into_store_without_flush().into_chips();
                    let store = ShardedStore::recover(chips, kind, opts).unwrap();
                    db = Database::new_with_allocated(Box::new(store), 128, allocated)
                        .with_durability(Durability::Commit);
                    tree = BTree::attach(&db, root);
                    heap = HeapFile::attach(&db, pages);
                    let view = db.begin_read();
                    let snap = db.snapshot(&view);
                    let mut seen: BTreeMap<Key, u64> = BTreeMap::new();
                    tree.range_at(&snap, &[0u8; 16], &[0xFF; 16], |k, v| {
                        seen.insert(*k, v);
                        true
                    })
                    .unwrap();
                    prop_assert_eq!(&seen, &tree_model,
                        "{} shards: recovered tree diverged from the committed model", n);
                    let mut hseen: BTreeMap<(u64, u16), Vec<u8>> = BTreeMap::new();
                    heap.scan_at(&snap, |rid, bytes| {
                        hseen.insert((rid.pid, rid.slot), bytes.to_vec());
                    })
                    .unwrap();
                    prop_assert_eq!(&hseen, &heap_model,
                        "{} shards: recovered heap diverged from the committed model", n);
                    let _ = snap;
                    db.release_read(view);
                    epoch = db.begin_read();
                    epoch_tree = tree_model.clone();
                    epoch_heap = heap_model.clone();
                }
                let tree_at_open = tree_model.clone();
                let heap_at_open = heap_model.clone();
                let view = db.begin_read();
                let mut tree_staged = tree_model.clone();
                let mut heap_staged = heap_model.clone();
                db.begin().unwrap();
                for (j, k) in keys.iter().enumerate() {
                    let key = tree_key(*k, i, j);
                    let val = (i * 1000 + j) as u64;
                    tree.insert(&db, &key, val).unwrap();
                    tree_staged.insert(key, val);
                    let rec = heap_rec(*k, i, j);
                    let rid = heap.insert(&db, &rec).unwrap();
                    heap_staged.insert((rid.pid, rid.slot), rec);
                }
                if *commit {
                    db.commit().unwrap();
                    tree_model = tree_staged;
                    heap_model = heap_staged;
                } else {
                    db.abort().unwrap();
                }
                // The round view, read through the STALE live handles
                // (their roots kept moving under it), must see exactly
                // the open-time state.
                {
                    let snap = db.snapshot(&view);
                    let mut seen: BTreeMap<Key, u64> = BTreeMap::new();
                    tree.range_at(&snap, &[0u8; 16], &[0xFF; 16], |k, v| {
                        seen.insert(*k, v);
                        true
                    })
                    .unwrap();
                    prop_assert_eq!(&seen, &tree_at_open,
                        "{} shards, round {}: stale-handle tree scan diverged from the \
                         open-time model", n, i);
                    let mut hseen: BTreeMap<(u64, u16), Vec<u8>> = BTreeMap::new();
                    heap.scan_at(&snap, |rid, bytes| {
                        hseen.insert((rid.pid, rid.slot), bytes.to_vec());
                    })
                    .unwrap();
                    prop_assert_eq!(&hseen, &heap_at_open,
                        "{} shards, round {}: stale-handle heap scan diverged from the \
                         open-time model", n, i);
                }
                db.release_read(view);
                // Current state must equal the committed model — right
                // through an abort-after-split (structural undo).
                let mut cur: BTreeMap<Key, u64> = BTreeMap::new();
                tree.range(&db, &[0u8; 16], &[0xFF; 16], |k, v| {
                    cur.insert(*k, v);
                    true
                })
                .unwrap();
                prop_assert_eq!(&cur, &tree_model,
                    "{} shards, round {} ({}): current tree diverged", n, i,
                    if *commit { "committed" } else { "aborted" });
                let mut hcur: BTreeMap<(u64, u16), Vec<u8>> = BTreeMap::new();
                heap.scan(&db, |rid, bytes| {
                    hcur.insert((rid.pid, rid.slot), bytes.to_vec());
                })
                .unwrap();
                prop_assert_eq!(&hcur, &heap_model,
                    "{} shards, round {} ({}): current heap diverged", n, i,
                    if *commit { "committed" } else { "aborted" });
            }
            // The epoch view still reads its open-time world.
            {
                let snap = db.snapshot(&epoch);
                let mut seen: BTreeMap<Key, u64> = BTreeMap::new();
                tree.range_at(&snap, &[0u8; 16], &[0xFF; 16], |k, v| {
                    seen.insert(*k, v);
                    true
                })
                .unwrap();
                prop_assert_eq!(&seen, &epoch_tree,
                    "{} shards: epoch tree scan diverged", n);
                let mut hseen: BTreeMap<(u64, u16), Vec<u8>> = BTreeMap::new();
                heap.scan_at(&snap, |rid, bytes| {
                    hseen.insert((rid.pid, rid.slot), bytes.to_vec());
                })
                .unwrap();
                prop_assert_eq!(&hseen, &epoch_heap,
                    "{} shards: epoch heap scan diverged", n);
            }
            db.release_read(epoch);
            // Teardown: the active-view registry is empty and nothing
            // stayed pinned (catches future view leaks).
            prop_assert_eq!(db.buffer_stats().active_views, 0);
            prop_assert_eq!(db.retained_versions(), 0);
            prop_assert_eq!(db.retained_struct_versions(), 0);
        }
    }

    /// The sharded engine at 1, 2 and 4 shards agrees with the same
    /// model (striping is invisible at the PageStore interface), for
    /// each GC policy in turn.
    #[test]
    fn sharded_store_matches_the_model(
        ops in proptest::collection::vec((0u8..4, 0u64..PAGES, any::<u8>()), 20..160),
    ) {
        for (n, policy) in
            [(1, GcPolicy::Greedy), (2, GcPolicy::CostBenefit), (4, GcPolicy::HotCold)]
        {
            let mut store = ShardedStore::with_uniform_chips(
                FlashConfig::tiny(),
                n,
                MethodKind::Pdl { max_diff_size: 64 },
                StoreOptions::new(PAGES).with_gc_policy(policy),
            )
            .unwrap();
            drive(&mut store, &ops, ShardedStore::check_tables)?;
        }
    }
}
