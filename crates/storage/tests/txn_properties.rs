//! Transactional storage semantics (`pdl-txn`): commit durability,
//! abort pre-image restoration, conflict detection, group commit over a
//! sharded store, and all-or-nothing recovery of cross-shard commits.

use pdl_core::{
    build_store, BatchPage, CommitBatch, CommitError, MethodKind, PageStore, ShardedStore,
    StoreOptions,
};
use pdl_flash::{FlashChip, FlashConfig};
use pdl_storage::{Database, Durability, StorageError};

const KIND: MethodKind = MethodKind::Pdl { max_diff_size: 128 };

/// Pages the store staged against a held image instead of a base read.
fn base_reads_skipped(store: &dyn PageStore) -> u64 {
    store.counters().iter().find(|(k, _)| *k == "base_reads_skipped").map_or(0, |(_, v)| *v)
}

fn db(pages: u64, buffer: usize) -> Database {
    let chip = FlashChip::new(FlashConfig::tiny());
    let store = build_store(chip, KIND, StoreOptions::new(pages)).unwrap();
    Database::new(store, buffer).with_durability(Durability::Commit)
}

#[test]
fn committed_transaction_survives_crash_recovery() {
    let d = db(16, 8);
    for _ in 0..4 {
        let pid = d.alloc_page().unwrap();
        d.with_page_mut(pid, |p| p.write(0, &[0x11; 8])).unwrap();
    }
    d.flush().unwrap();
    d.begin().unwrap();
    d.with_page_mut(0, |p| p.write(0, b"txn-a")).unwrap();
    d.with_page_mut(2, |p| p.write(4, b"txn-b")).unwrap();
    d.commit().unwrap();
    // Both frames were clean at the first touch: the pool handed the store
    // their images, and neither base page was read back.
    assert_eq!(d.with_store(|s| base_reads_skipped(s)), 2);
    // Crash: drop the pool without flushing, recover from the chip.
    let store = d.into_store_without_flush();
    let chip = store.into_chip();
    let mut back = pdl_core::recover_store(chip, KIND, StoreOptions::new(16)).unwrap();
    let mut out = vec![0u8; back.logical_page_size()];
    back.read_page(0, &mut out).unwrap();
    assert_eq!(&out[0..5], b"txn-a");
    back.read_page(2, &mut out).unwrap();
    assert_eq!(&out[4..9], b"txn-b");
}

#[test]
fn abort_restores_pre_images_in_memory_and_on_flash() {
    let d = db(16, 8);
    let pid = d.alloc_page().unwrap();
    d.with_page_mut(pid, |p| p.write(0, b"committed")).unwrap();
    d.flush().unwrap();
    d.begin().unwrap();
    d.with_page_mut(pid, |p| p.write(0, b"aborted!!")).unwrap();
    // Dirty read inside the transaction sees the new bytes...
    let seen = d.with_page(pid, |p| p[0]).unwrap();
    assert_eq!(seen, b'a');
    d.abort().unwrap();
    // ...but the abort restores the pre-image.
    let seen = d.with_page(pid, |p| p[0]).unwrap();
    assert_eq!(seen, b'c');
    // And nothing of the aborted write is durable.
    let store = d.into_store_without_flush();
    let chip = store.into_chip();
    let mut back = pdl_core::recover_store(chip, KIND, StoreOptions::new(16)).unwrap();
    let mut out = vec![0u8; back.logical_page_size()];
    back.read_page(pid, &mut out).unwrap();
    assert_eq!(&out[0..9], b"committed");
}

#[test]
fn uncommitted_pages_never_reach_flash_in_commit_mode() {
    let d = db(16, 8);
    let pid = d.alloc_page().unwrap();
    d.with_page_mut(pid, |p| p.write(0, b"base")).unwrap();
    d.flush().unwrap();
    d.begin().unwrap();
    d.with_page_mut(pid, |p| p.write(0, b"temp")).unwrap();
    // A write-through must not leak the pinned uncommitted frame.
    d.flush().unwrap();
    d.abort().unwrap();
    let store = d.into_store_without_flush();
    let chip = store.into_chip();
    let mut back = pdl_core::recover_store(chip, KIND, StoreOptions::new(16)).unwrap();
    let mut out = vec![0u8; back.logical_page_size()];
    back.read_page(pid, &mut out).unwrap();
    assert_eq!(&out[0..4], b"base");
}

#[test]
fn relaxed_mode_abort_restores_pre_images() {
    let chip = FlashChip::new(FlashConfig::tiny());
    let store = build_store(chip, KIND, StoreOptions::new(16)).unwrap();
    let d = Database::new(store, 2); // tiny pool: txn pages may spill
    for _ in 0..8 {
        let pid = d.alloc_page().unwrap();
        d.with_page_mut(pid, |p| p.write(0, &[7; 4])).unwrap();
    }
    d.flush().unwrap();
    d.begin().unwrap();
    for pid in 0..6u64 {
        d.with_page_mut(pid, |p| p.write(0, &[0xEE; 4])).unwrap();
    }
    d.abort().unwrap();
    d.flush().unwrap(); // write the restored pre-images through
    for pid in 0..8u64 {
        let b = d.with_page(pid, |p| p[0]).unwrap();
        assert_eq!(b, 7, "pid {pid} must read the pre-image after abort");
    }
}

#[test]
fn transaction_state_errors() {
    let d = db(8, 4);
    assert!(matches!(d.commit(), Err(StorageError::TxnState(_))));
    assert!(matches!(d.abort(), Err(StorageError::TxnState(_))));
    d.begin().unwrap();
    assert!(matches!(d.begin(), Err(StorageError::TxnState(_))));
    d.commit().unwrap(); // read-only commit is free
}

#[test]
fn buffer_full_of_pinned_frames_is_reported() {
    let d = db(16, 2); // two frames, both will be pinned
    for _ in 0..16 {
        d.alloc_page().unwrap();
    }
    d.begin().unwrap();
    d.with_page_mut(0, |p| p.write(0, &[1])).unwrap();
    d.with_page_mut(1, |p| p.write(0, &[2])).unwrap();
    let err = d.with_page_mut(2, |p| p.write(0, &[3])).unwrap_err();
    assert!(matches!(err, StorageError::BufferPinned), "{err}");
    d.commit().unwrap();
    // After commit the frames are evictable again.
    d.with_page_mut(2, |p| p.write(0, &[3])).unwrap();
}

/// A database in `Durability::Commit` mode over `store`.
fn durable(store: ShardedStore, capacity: usize) -> Database {
    Database::new(Box::new(store), capacity).with_durability(Durability::Commit)
}

fn sharded_db(shards: usize, pages: u64, capacity: usize) -> Database {
    let store = ShardedStore::with_uniform_chips(
        FlashConfig::tiny(),
        shards,
        KIND,
        StoreOptions::new(pages),
    )
    .unwrap();
    durable(store, capacity)
}

#[test]
fn group_commit_is_atomic_per_transaction_across_shards() {
    let p = sharded_db(4, 32, 64);
    for pid in 0..32u64 {
        p.with_page_mut(pid, |page| page.write(0, &[1; 4])).unwrap();
    }
    p.flush().unwrap();
    // Four concurrent writers, each committing multi-shard transactions.
    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let p = &p;
            scope.spawn(move || {
                for round in 0..6u64 {
                    p.begin().unwrap();
                    // Each txn touches two pages on different shards
                    // (pid % 4 is the shard).
                    let a = w * 8 + round % 4;
                    let b = w * 8 + 4 + (round + 1) % 4;
                    p.with_page_mut(a, |page| page.write(0, &[w as u8 + 10; 4])).unwrap();
                    p.with_page_mut(b, |page| page.write(0, &[w as u8 + 10; 4])).unwrap();
                    p.commit().unwrap();
                }
            });
        }
    });
    // Every page was clean when its transaction first touched it: all 48
    // stagings came from the held images.
    assert_eq!(p.with_store(|s| base_reads_skipped(s)), 48);
    for w in 0..4u64 {
        for off in [0u64, 4] {
            for i in 0..4u64 {
                let b = p.with_page(w * 8 + off + i, |page| page[0]).unwrap();
                assert_eq!(b, w as u8 + 10, "pid {}", w * 8 + off + i);
            }
        }
    }
    // Everything committed must survive a crash + sharded recovery.
    let mut back = crash_and_recover(p, 32);
    let mut out = vec![0u8; back.logical_page_size()];
    for w in 0..4u64 {
        for off in [0u64, 4] {
            for i in 0..4u64 {
                back.read_page(w * 8 + off + i, &mut out).unwrap();
                assert_eq!(out[0], w as u8 + 10, "pid {} after recovery", w * 8 + off + i);
            }
        }
    }
}

/// A two-shard store with eight flushed pages of 5s, and one cross-shard
/// batch (pid 0 on shard 0, pid 1 on shard 1) whose one record goes to
/// shard 0: shard 1's stage flush lands, and power fails on shard 0 before
/// the record does. Returns the recovered store.
fn torn_cross_shard_commit(txn: u64) -> ShardedStore {
    let mut store =
        ShardedStore::with_uniform_chips(FlashConfig::tiny(), 2, KIND, StoreOptions::new(8))
            .unwrap();
    let size = store.logical_page_size();
    for pid in 0..8u64 {
        store.write_page(pid, &vec![5u8; size]).unwrap();
    }
    store.flush().unwrap();
    let mut a = vec![5u8; size];
    a[0] = 0xAA;
    let mut b = vec![5u8; size];
    b[0] = 0xBB;
    store.shard_mut(0).chip_mut().arm_fault(0);
    let before = store.per_shard_stats();
    let batch = CommitBatch {
        pages: vec![BatchPage::new(0, &a, txn), BatchPage::new(1, &b, txn)],
        roots: None,
    };
    let err = store.commit_batch(&batch).unwrap_err();
    assert!(matches!(err, CommitError::Failed(_)), "{err}");
    for (s, now) in store.per_shard_stats().iter().enumerate() {
        // Shard 1's stage flush, and no record on shard 0.
        let programs = now.delta_since(&before[s]).total().writes;
        assert_eq!(programs, s as u64, "shard {s}");
    }
    let mut chips = store.into_shard_chips();
    chips.iter_mut().for_each(FlashChip::disarm_fault);
    ShardedStore::recover(chips, KIND, StoreOptions::new(8)).unwrap()
}

#[test]
fn torn_cross_shard_commit_is_discarded_on_every_shard() {
    // Shard 1's differential is durable, the batch's record is not:
    // sharded recovery must roll the whole transaction back, on both
    // shards.
    let mut back = torn_cross_shard_commit(99);
    let size = back.logical_page_size();
    let mut out = vec![0u8; size];
    for pid in [0u64, 1] {
        back.read_page(pid, &mut out).unwrap();
        assert_eq!(out, vec![5u8; size], "pid {pid} must roll back");
    }
}

#[test]
fn a_torn_cross_shard_commit_stays_torn_at_the_next_recovery() {
    let mut back = torn_cross_shard_commit(77);
    let size = back.logical_page_size();
    let mut out = vec![0u8; size];
    // Overwriting pid 1 supersedes shard 1's torn tag. No shard holds a
    // record of txn 77, so a second recovery must not prove it anywhere.
    back.write_page(1, &vec![6u8; size]).unwrap();
    back.flush().unwrap();
    let mut again =
        ShardedStore::recover(back.into_shard_chips(), KIND, StoreOptions::new(8)).unwrap();
    again.read_page(0, &mut out).unwrap();
    assert_eq!(out, vec![5u8; size], "pid 0 stays rolled back");
    again.read_page(1, &mut out).unwrap();
    assert_eq!(out, vec![6u8; size]);
}

#[test]
fn relaxed_abort_repairs_a_leaked_then_redirtied_frame() {
    // Regression: in relaxed mode a txn-owned frame can be evicted (the
    // uncommitted image leaks to the store), re-faulted and re-dirtied
    // by the same transaction. Abort must still restore the pre-image
    // *dirty*, so a write-back repairs the leaked store copy.
    let chip = FlashChip::new(FlashConfig::tiny());
    let store = build_store(chip, KIND, StoreOptions::new(16)).unwrap();
    let d = Database::new(store, 2); // two frames force evictions
    for _ in 0..8 {
        let pid = d.alloc_page().unwrap();
        d.with_page_mut(pid, |p| p.write(0, &[7; 4])).unwrap();
    }
    d.flush().unwrap();
    d.begin().unwrap();
    d.with_page_mut(0, |p| p.write(0, &[0xEE; 4])).unwrap();
    // Evict frame 0 by touching two other pages (uncommitted 0xEE leaks).
    d.with_page(1, |_| ()).unwrap();
    d.with_page(2, |_| ()).unwrap();
    // Re-fault and re-dirty page 0 under the same transaction.
    d.with_page_mut(0, |p| p.write(1, &[0xDD; 2])).unwrap();
    d.abort().unwrap();
    d.flush().unwrap();
    // The durable state must be the pre-image, not the leaked 0xEE.
    let store = d.into_store_without_flush();
    let chip = store.into_chip();
    let mut back = pdl_core::recover_store(chip, KIND, StoreOptions::new(16)).unwrap();
    let mut out = vec![0u8; back.logical_page_size()];
    back.read_page(0, &mut out).unwrap();
    assert_eq!(&out[0..4], &[7; 4], "abort must repair the leaked aborted image");
}

#[test]
fn aborted_structured_growth_returns_pids_to_the_free_list() {
    // Regression for the abort page leak: pages a rolled-back transaction
    // allocated for registered structures (heap growth, b+-tree splits)
    // used to be stranded forever. They are referenced only through page
    // bytes and root publications the rollback undoes, so the allocator
    // now reissues them.
    let d = db(32, 16);
    let heap = pdl_storage::HeapFile::create(&d);
    d.flush().unwrap();
    let frontier = d.allocated_pages();
    d.begin().unwrap();
    for i in 0..40u8 {
        heap.insert(&d, &[i; 32]).unwrap();
    }
    assert!(d.allocated_pages() > frontier, "the transaction grew the heap");
    d.abort().unwrap();
    assert_eq!(d.buffer_stats().leaked_pids, 0, "structured allocations never leak");
    let after_abort = d.allocated_pages();
    // Redoing the same growth reuses the freed pids: the frontier stays
    // put instead of doubling.
    d.begin().unwrap();
    for i in 0..40u8 {
        heap.insert(&d, &[i; 32]).unwrap();
    }
    d.commit().unwrap();
    assert_eq!(d.allocated_pages(), after_abort, "rollback-freed pids were reissued");
    // The committed records read back intact through the reused pages.
    let rid = heap.insert(&d, &[0xAA; 32]).unwrap();
    let byte = heap.get(&d, rid, |r| r[0]).unwrap();
    assert_eq!(byte, 0xAA);
}

#[test]
fn aborted_raw_allocations_are_stranded_but_counted() {
    // Raw `alloc_page` pids may be held by the caller outside any
    // registered structure, so a rollback cannot reissue them — but the
    // leak is no longer silent: the gauge counts every stranded pid.
    let d = db(16, 8);
    d.begin().unwrap();
    let a = d.alloc_page().unwrap();
    let b = d.alloc_page().unwrap();
    d.with_page_mut(a, |p| p.write(0, b"tmp")).unwrap();
    d.abort().unwrap();
    assert_eq!(d.buffer_stats().leaked_pids, 2, "both raw pids counted");
    assert_eq!(d.leaked_pages(), 2);
    // Stranded pids are never reissued.
    let next = d.alloc_page().unwrap();
    assert!(next != a && next != b, "stranded pids must not alias new allocations");
    // Allocations in committed transactions never touch the gauge.
    d.begin().unwrap();
    let _ = d.alloc_page().unwrap();
    d.commit().unwrap();
    assert_eq!(d.buffer_stats().leaked_pids, 2);
}

/// Crash: the pool and every in-memory table are gone, the chips come
/// back through recovery.
fn crash_and_recover(d: Database, pages: u64) -> Box<dyn PageStore> {
    let mut chips = d.into_store_without_flush().into_chips();
    chips.iter_mut().for_each(FlashChip::disarm_fault);
    if chips.len() == 1 {
        pdl_core::recover_store(chips.pop().unwrap(), KIND, StoreOptions::new(pages)).unwrap()
    } else {
        Box::new(ShardedStore::recover(chips, KIND, StoreOptions::new(pages)).unwrap())
    }
}

#[test]
fn a_failed_durable_commit_is_an_abort_or_a_stop() {
    // An abort: the store *rejects* the batch before staging any of it —
    // here 40 pages on a chip that cannot reserve room for them. The
    // caller carries on, the transaction's pids are free again, and
    // recovery agrees it never happened.
    let d = db(64, 48);
    for _ in 0..63 {
        let pid = d.alloc_page().unwrap();
        d.with_page_mut(pid, |p| p.write(0, &[0x11; 8])).unwrap();
    }
    d.flush().unwrap();
    d.begin().unwrap();
    for pid in 0..40 {
        d.with_page_mut(pid, |p| p.write(4, b"txn-b")).unwrap();
    }
    let grown = d.alloc_page_structured().unwrap();
    let rejected = d.commit().unwrap_err();
    assert_eq!(rejected, StorageError::Store(pdl_core::CoreError::StorageFull));
    assert_eq!(d.current_txn(), None, "the failed commit closed its transaction");
    d.begin().unwrap();
    assert_eq!(d.alloc_page_structured().unwrap(), grown, "an abort frees its pids");
    d.with_page_mut(40, |p| p.write(4, b"txn-c")).unwrap();
    d.commit().unwrap();
    let mut back = crash_and_recover(d, 64);
    let mut out = vec![0u8; back.logical_page_size()];
    for pid in 0..=40 {
        back.read_page(pid, &mut out).unwrap();
        let want: &[u8] = if pid == 40 { b"txn-c" } else { &[0x11, 0x11, 0x11, 0x11, 0] };
        assert_eq!(&out[4..9], want, "pid {pid}");
    }

    // A stop: power fails at every flash operation of one durable commit.
    // The batch was opened, so whether it committed is recovery's call (a
    // fault in a deferred obsolete mark comes after the commit point): the
    // database stops, and says why from then on.
    for budget in 0.. {
        let d = db(16, 8);
        for _ in 0..4 {
            let pid = d.alloc_page().unwrap();
            d.with_page_mut(pid, |p| p.write(0, &[0x11; 8])).unwrap();
        }
        d.flush().unwrap();
        d.begin().unwrap();
        // Page 0 changes past Max_Differential_Size (Case 3: its old base
        // page is obsoleted by a deferred mark), page 2 by a few bytes.
        d.with_page_mut(0, |p| p.fill(0, 200, 0xAA)).unwrap();
        d.with_page_mut(2, |p| p.write(4, b"txn-b")).unwrap();
        d.with_store(|s| s.chip_mut().arm_fault(budget));
        let result = d.commit();
        d.with_store(|s| s.chip_mut().disarm_fault());
        let Err(e) = result else {
            assert!(budget > 0, "the commit programmed nothing");
            break;
        };
        assert_eq!(d.current_txn(), None, "budget {budget}: the failed commit closed its txn");
        assert_eq!(d.begin().unwrap_err(), e, "a stopped database reports what stopped it");
        let mut back = crash_and_recover(d, 16);
        back.read_page(0, &mut out).unwrap();
        let committed = out[8] == 0xAA;
        back.read_page(2, &mut out).unwrap();
        assert_eq!(&out[4..9] == b"txn-b", committed, "budget {budget}: torn commit");
    }
}

// ----------------------------------------------------------------------
// A commit after a failed commit. Four pages hold 0x11 in their first
// eight bytes, flushed. Transaction 1 rewrites 200 bytes of pages 0 and 1
// (both Case 3: their old base pages die by deferred obsolete marks),
// touches page 2, and its commit fails somewhere. Transaction 2 then
// writes page 3. A store that forgets the failed batch is still open
// programs *its* deferred marks when transaction 2 commits — destroying
// pre-images whose only successors are tagged pages recovery discards.
// ----------------------------------------------------------------------

fn page_with(edits: &[(usize, &[u8])]) -> Vec<u8> {
    let mut page = vec![0u8; 256];
    page[0..8].fill(0x11);
    for (at, bytes) in edits {
        page[*at..*at + bytes.len()].copy_from_slice(bytes);
    }
    page
}

/// Pages 0..=3 after transaction 1 (and after transaction 2, for page 3).
fn after_images() -> [Vec<u8>; 4] {
    [
        page_with(&[(0, &[0xAA; 200])]),
        page_with(&[(0, &[0xBB; 200])]),
        page_with(&[(4, b"txn-b")]),
        page_with(&[(0, b"txn-2")]),
    ]
}

/// What recovery may show: transaction 1 whole or not at all — not at all
/// if the caller was told to carry on — and transaction 2 iff it
/// returned `Ok`.
fn check_two_commit_recovery(back: &mut dyn PageStore, carried_on: bool, second: bool, what: &str) {
    let (before, after) = (page_with(&[]), after_images());
    let mut now = vec![vec![0u8; 256]; 4];
    for (pid, out) in now.iter_mut().enumerate() {
        back.read_page(pid as u64, out).unwrap();
    }
    let first_landed = now[0] == after[0];
    assert!(!(carried_on && first_landed), "{what}: rolled back, recovered committed");
    for pid in 0..3 {
        let want = if first_landed { &after[pid] } else { &before };
        assert_eq!(&now[pid], want, "{what}: page {pid} (txn 1 landed: {first_landed})");
    }
    assert_eq!(&now[3], if second { &after[3] } else { &before }, "{what}: page 3");
}

/// Transaction 1's commit just failed with `e` on `d`: carry on if the
/// database lets us, crash, recover, check. Returns whether it stopped.
fn after_a_failed_commit(d: Database, e: StorageError, what: &str) -> bool {
    assert_eq!(d.current_txn(), None, "{what}: the failed commit closed its transaction");
    let (carried_on, second) = match d.begin() {
        Ok(_) => {
            d.with_page_mut(3, |p| p.write(0, b"txn-2")).unwrap();
            (true, d.commit().is_ok())
        }
        Err(again) => {
            assert_eq!(again, e, "{what}: a stopped database reports what stopped it");
            (false, false)
        }
    };
    let mut back = crash_and_recover(d, 16);
    check_two_commit_recovery(back.as_mut(), carried_on, second, what);
    !carried_on
}

fn first_transaction(d: &Database) {
    d.begin().unwrap();
    d.with_page_mut(0, |p| p.fill(0, 200, 0xAA)).unwrap();
    d.with_page_mut(1, |p| p.fill(0, 200, 0xBB)).unwrap();
    d.with_page_mut(2, |p| p.write(4, b"txn-b")).unwrap();
    d.alloc_page_structured().unwrap();
}

#[test]
fn a_commit_after_a_failed_commit_never_loses_a_preimage() {
    // One chip: power fails `budget` flash operations into the first
    // commit and is back for the second.
    let mut stops = 0;
    for budget in 0.. {
        let d = db(16, 8);
        for _ in 0..4 {
            let pid = d.alloc_page().unwrap();
            d.with_page_mut(pid, |p| p.write(0, &[0x11; 8])).unwrap();
        }
        d.flush().unwrap();
        first_transaction(&d);
        d.with_store(|s| s.chip_mut().arm_fault(budget));
        let result = d.commit();
        d.with_store(|s| s.chip_mut().disarm_fault());
        let Err(e) = result else { break };
        stops += after_a_failed_commit(d, e, &format!("one chip, budget {budget}")) as u32;
    }
    assert!(stops > 0, "the sweep never hit the commit");

    // Two shards (pages 0 and 2 on shard 0, 1 and 3 on shard 1): one
    // flash operation fails on one chip. The chips are out of reach once
    // the database owns the store, so the fault is armed before, one-shot.
    for armed in 0..2 {
        for budget in 0.. {
            let mut store = ShardedStore::with_uniform_chips(
                FlashConfig::tiny(),
                2,
                KIND,
                StoreOptions::new(16),
            )
            .unwrap();
            for pid in 0..4 {
                store.write_page(pid, &page_with(&[])).unwrap();
            }
            store.flush().unwrap();
            store.shard_mut(armed).chip_mut().arm_fault_once(budget);
            let d = Database::new_with_allocated(Box::new(store), 8, 4)
                .with_durability(Durability::Commit);
            first_transaction(&d);
            let Err(e) = d.commit() else { break };
            after_a_failed_commit(d, e, &format!("two shards, chip {armed}, budget {budget}"));
        }
    }
}

#[test]
fn a_pool_batch_after_a_failed_batch_gets_the_stored_error() {
    // Transaction 1 through the database's group-commit path over two
    // shards, with power failing on both chips or on one of them only. A
    // batch that failed after it was opened stops the database, and the
    // store it failed on must refuse the next batch with the same error.
    for armed in [&[0usize, 1][..], &[0], &[1]] {
        for budget in 0.. {
            let what = format!("chips {armed:?}, budget {budget}");
            let mut store = ShardedStore::with_uniform_chips(
                FlashConfig::tiny(),
                2,
                KIND,
                StoreOptions::new(16),
            )
            .unwrap();
            for pid in 0..4 {
                store.write_page(pid, &page_with(&[])).unwrap();
            }
            store.flush().unwrap();
            for &s in armed {
                store.shard_mut(s).chip_mut().arm_fault(budget);
            }
            let d = Database::new_with_allocated(Box::new(store), 8, 4)
                .with_durability(Durability::Commit);
            first_transaction(&d);
            let Err(e) = d.commit() else {
                assert!(budget > 0, "chips {armed:?}: the sweep never hit the commit");
                break;
            };
            let Err(stopped) = d.begin() else {
                panic!("{what}: a failed batch must stop the database")
            };
            assert_eq!(stopped, e, "{what}: a stopped database reports what stopped it");
            let second = page_with(&[(0, b"txn-2")]);
            let batch =
                CommitBatch { pages: vec![BatchPage::new(3, &second, u64::MAX)], roots: None };
            let refused = d.with_store(|s| s.commit_batch(&batch)).unwrap_err();
            let StorageError::Store(cause) = e else { panic!("{what}: {e}") };
            assert_eq!(refused, CommitError::Failed(cause), "{what}: the store refuses");
            let mut back = crash_and_recover(d, 16);
            check_two_commit_recovery(back.as_mut(), false, false, &what);
        }
    }
}
