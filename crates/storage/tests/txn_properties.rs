//! Transactional storage semantics (`pdl-txn`): commit durability,
//! abort pre-image restoration, conflict detection, group commit over
//! the sharded pool, and all-or-nothing recovery of cross-shard
//! commits.

use pdl_core::{build_store, MethodKind, PageStore, ShardedStore, StoreOptions};
use pdl_flash::{FlashChip, FlashConfig};
use pdl_storage::{Database, Durability, ShardedBufferPool, StorageError};

const KIND: MethodKind = MethodKind::Pdl { max_diff_size: 128 };

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

fn sharded_pool(shards: usize, pages: u64, capacity: usize) -> ShardedBufferPool {
    let store = ShardedStore::with_uniform_chips(
        FlashConfig::tiny(),
        shards,
        KIND,
        StoreOptions::new(pages),
    )
    .unwrap();
    ShardedBufferPool::new(store, capacity)
}

#[test]
fn group_commit_is_atomic_per_transaction_across_shards() {
    let p = sharded_pool(4, 32, 64);
    for pid in 0..32u64 {
        p.with_page_mut(pid, |page| page.write(0, &[1; 4])).unwrap();
    }
    p.flush_all().unwrap();
    // Four concurrent writers, each committing multi-shard transactions.
    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let p = &p;
            scope.spawn(move || {
                for round in 0..6u64 {
                    let txn = p.begin();
                    // Each txn touches two pages on different shards
                    // (pid % 4 is the shard).
                    let a = w * 8 + round % 4;
                    let b = w * 8 + 4 + (round + 1) % 4;
                    p.with_page_mut_txn(a, txn, |page| page.write(0, &[w as u8 + 10; 4])).unwrap();
                    p.with_page_mut_txn(b, txn, |page| page.write(0, &[w as u8 + 10; 4])).unwrap();
                    p.commit(txn).unwrap();
                }
            });
        }
    });
    for w in 0..4u64 {
        for off in [0u64, 4] {
            for i in 0..4u64 {
                let b = p.with_page(w * 8 + off + i, |page| page[0]).unwrap();
                assert_eq!(b, w as u8 + 10, "pid {}", w * 8 + off + i);
            }
        }
    }
    // Everything committed must survive a crash + sharded recovery.
    let store = p.into_store_without_flush();
    let chips = store.into_shard_chips();
    let mut back = ShardedStore::recover(chips, KIND, StoreOptions::new(32)).unwrap();
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

#[test]
fn torn_cross_shard_commit_is_discarded_on_every_shard() {
    // Stage a transaction's differentials durably on two shards but never
    // write its commit records (simulating a crash between the stage
    // flush and the record flush): sharded recovery must roll the whole
    // transaction back, on both shards.
    let store =
        ShardedStore::with_uniform_chips(FlashConfig::tiny(), 2, KIND, StoreOptions::new(8))
            .unwrap();
    let mut store = store;
    let size = store.logical_page_size();
    for pid in 0..8u64 {
        store.write_page(pid, &vec![5u8; size]).unwrap();
    }
    store.flush().unwrap();
    let txn = 99u64;
    store.txn_reserve(2).unwrap();
    let mut a = vec![5u8; size];
    a[0] = 0xAA;
    let mut b = vec![5u8; size];
    b[0] = 0xBB;
    store.txn_stage(0, &a, txn).unwrap(); // shard 0
    store.txn_stage(1, &b, txn).unwrap(); // shard 1
    store.txn_flush_stage().unwrap();
    // Crash here: no commit record anywhere.
    let chips = store.into_shard_chips();
    let mut back = ShardedStore::recover(chips, KIND, StoreOptions::new(8)).unwrap();
    let mut out = vec![0u8; size];
    for pid in [0u64, 1] {
        back.read_page(pid, &mut out).unwrap();
        assert_eq!(out, vec![5u8; size], "pid {pid} must roll back");
    }
}

#[test]
fn half_recorded_cross_shard_commit_is_discarded_globally() {
    // The record lands on shard 0 but the crash hits before shard 1's
    // record: the union verdict must discard the transaction on *both*
    // shards, even the one whose record made it.
    let mut store =
        ShardedStore::with_uniform_chips(FlashConfig::tiny(), 2, KIND, StoreOptions::new(8))
            .unwrap();
    let size = store.logical_page_size();
    for pid in 0..8u64 {
        store.write_page(pid, &vec![5u8; size]).unwrap();
    }
    store.flush().unwrap();
    let txn = 77u64;
    store.txn_reserve(2).unwrap();
    let mut a = vec![5u8; size];
    a[0] = 0xAA;
    let mut b = vec![5u8; size];
    b[0] = 0xBB;
    store.txn_stage(0, &a, txn).unwrap(); // shard 0
    store.txn_stage(1, &b, txn).unwrap(); // shard 1
    store.txn_flush_stage().unwrap();
    // Only shard 0 gets the record (simulated partial record phase).
    store
        .with_shard(0, |st| -> pdl_core::Result<()> {
            st.txn_append_commit(txn)?;
            st.txn_flush_stage()
        })
        .unwrap();
    let chips = store.into_shard_chips();
    let mut back = ShardedStore::recover(chips, KIND, StoreOptions::new(8)).unwrap();
    let mut out = vec![0u8; size];
    for pid in [0u64, 1] {
        back.read_page(pid, &mut out).unwrap();
        assert_eq!(out, vec![5u8; size], "pid {pid} must roll back globally");
    }
}

#[test]
fn group_commit_batches_share_flushes() {
    // Sequentially committed singles vs one grouped batch of the same
    // writes: the group must program fewer flash pages. Drive the group
    // case by committing from many threads at once.
    let solo = sharded_pool(2, 16, 16);
    for pid in 0..16u64 {
        solo.with_page_mut(pid, |page| page.write(0, &[9; 4])).unwrap();
    }
    solo.flush_all().unwrap();
    let before = solo.io_stats().total();
    for i in 0..8u64 {
        let txn = solo.begin();
        solo.with_page_mut_txn(i, txn, |page| page.write(1, &[i as u8; 4])).unwrap();
        solo.commit_solo(txn).unwrap();
    }
    let solo_writes = (solo.io_stats().total() - before).writes;

    let grouped = sharded_pool(2, 16, 16);
    for pid in 0..16u64 {
        grouped.with_page_mut(pid, |page| page.write(0, &[9; 4])).unwrap();
    }
    grouped.flush_all().unwrap();
    let before = grouped.io_stats().total();
    std::thread::scope(|scope| {
        for i in 0..8u64 {
            let grouped = &grouped;
            scope.spawn(move || {
                let txn = grouped.begin();
                grouped.with_page_mut_txn(i, txn, |page| page.write(1, &[i as u8; 4])).unwrap();
                grouped.commit(txn).unwrap();
            });
        }
    });
    let grouped_writes = (grouped.io_stats().total() - before).writes;
    assert!(
        grouped_writes <= solo_writes,
        "group commit must not write more pages than solo commits \
         (grouped {grouped_writes} vs solo {solo_writes})"
    );
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

#[test]
fn a_failed_durable_commit_is_an_abort_or_a_stop() {
    // Power fails at every flash operation of one durable commit. If the
    // database lets the caller carry on, it rolled the transaction back
    // and freed its pids — so recovery must agree the transaction never
    // happened. A failure at or after the commit point (the record
    // flushed, a deferred obsolete mark hit the fault) leaves that to
    // recovery: the database stops, and says why from then on.
    let (mut aborted, mut stopped) = (0, 0);
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
        let grown = d.alloc_page_structured().unwrap();
        d.with_store(|s| s.chip_mut().arm_fault(budget));
        let result = d.commit();
        d.with_store(|s| s.chip_mut().disarm_fault());
        let Err(e) = result else {
            assert!(
                aborted > 0 && stopped > 0,
                "{aborted} aborts, {stopped} stops before {budget}"
            );
            break;
        };
        assert_eq!(
            d.current_txn(),
            None,
            "budget {budget}: the failed commit closed its transaction"
        );
        let carries_on = d.begin().is_ok();
        if carries_on {
            aborted += 1;
            assert_eq!(d.alloc_page_structured().unwrap(), grown, "an abort frees its pids");
        } else {
            stopped += 1;
            assert_eq!(d.begin().unwrap_err(), e, "a stopped database reports what stopped it");
        }
        let chip = d.into_store_without_flush().into_chip();
        let mut back = pdl_core::recover_store(chip, KIND, StoreOptions::new(16)).unwrap();
        let mut out = vec![0u8; back.logical_page_size()];
        back.read_page(0, &mut out).unwrap();
        let committed = out[8] == 0xAA;
        assert!(!(carries_on && committed), "budget {budget}: rolled back, recovered committed");
        back.read_page(2, &mut out).unwrap();
        assert_eq!(&out[4..9] == b"txn-b", committed, "budget {budget}: torn commit");
    }
}
