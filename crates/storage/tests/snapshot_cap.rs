//! Epoch-long read views vs the DRAM version cap, on PDL.
//!
//! A view opened before a GC-heavy write storm reads its open-time bytes
//! for as long as `snapshot_version_cap` keeps the pre-images it needs.
//! Once the cap discards one of them, every read through the view is
//! `SnapshotTooOld` — never the bytes of a later commit. The oracle is
//! byte-for-byte, on one chip and on two shards. Afterwards the database
//! is crashed without a flush and recovered, once after the view was
//! released and once with it still open; the committed end state must
//! survive byte-for-byte either way (versions are DRAM state, never user
//! data).

use pdl_core::{build_store, recover_store, MethodKind, PageStore, ShardedStore, StoreOptions};
use pdl_flash::{FlashChip, FlashConfig};
use pdl_storage::{Database, Durability, StorageError};

const KIND: MethodKind = MethodKind::Pdl { max_diff_size: 256 };
const PAGES: u64 = 64;
const ROUNDS: u64 = 8;
const PAGES_PER_TXN: u64 = 4;
const CAP: u32 = 4;

fn options(shards: usize) -> StoreOptions {
    // The cap holds one transaction's pre-images and no more, so the
    // second commit after the view opens trips it. The GC reserve shrinks
    // the allocatable space so every shard reclaims within the short
    // storm; each chip carries 1/N of the load but the same geometry, so
    // the reserve grows with the shard count to keep the per-chip
    // pressure on.
    let mut opts = StoreOptions::new(PAGES).with_snapshot_version_cap(CAP);
    opts.reserve_blocks = if shards == 1 { 7 } else { 11 };
    opts
}

fn open(store: Box<dyn PageStore>) -> Database {
    Database::new(store, PAGES as usize / 4).with_durability(Durability::Commit)
}

/// One PDL chip, or a [`ShardedStore`] over `shards` of them.
fn build_pool(shards: usize) -> Database {
    let config = FlashConfig::scaled(16);
    let store: Box<dyn PageStore> = if shards == 1 {
        build_store(FlashChip::new(config), KIND, options(1)).expect("store")
    } else {
        Box::new(
            ShardedStore::with_uniform_chips(config, shards, KIND, options(shards)).expect("store"),
        )
    };
    let pool = open(store);
    for pid in 0..PAGES {
        pool.with_page_mut(pid, |p| p.write(0, &seed_image(pid, pool.page_size()))).expect("seed");
    }
    pool.flush().expect("seed flush");
    pool
}

/// Crash without writing anything back, then recover every chip.
fn crash_and_recover(pool: Database, shards: usize) -> Database {
    let mut chips = pool.into_store_without_flush().into_chips();
    let store: Box<dyn PageStore> = if shards == 1 {
        recover_store(chips.pop().expect("one chip"), KIND, options(1)).expect("recover")
    } else {
        Box::new(ShardedStore::recover(chips, KIND, options(shards)).expect("recover"))
    };
    open(store)
}

fn seed_image(pid: u64, size: usize) -> Vec<u8> {
    (0..size).map(|i| (pid as u8).wrapping_mul(31).wrapping_add(i as u8)).collect()
}

fn round_image(pid: u64, round: u64, size: usize) -> Vec<u8> {
    (0..size).map(|i| (pid as u8) ^ (round as u8).wrapping_mul(97).wrapping_add(i as u8)).collect()
}

/// Commit `ROUNDS` full rewrites of the page space in `PAGES_PER_TXN`
/// transactions (the GC-heavy storm the view must outlive), calling
/// `after_commit` after each one.
fn storm(pool: &Database, mut after_commit: impl FnMut()) {
    let size = pool.page_size();
    for round in 1..=ROUNDS {
        for chunk in 0..PAGES / PAGES_PER_TXN {
            pool.begin().expect("begin");
            for pid in chunk * PAGES_PER_TXN..(chunk + 1) * PAGES_PER_TXN {
                pool.with_page_mut(pid, |p| p.write(0, &round_image(pid, round, size)))
                    .expect("stamp");
            }
            pool.commit().expect("commit");
            after_commit();
        }
    }
}

fn assert_committed_state(pool: &Database, shards: usize) {
    let size = pool.page_size();
    for pid in 0..PAGES {
        let got = pool.with_page(pid, |pg| pg.to_vec()).expect("post-crash read");
        assert_eq!(
            got,
            round_image(pid, ROUNDS, size),
            "{shards} shard(s): page {pid} lost committed state across crash + recovery"
        );
    }
}

#[test]
fn an_epoch_long_view_reads_open_time_bytes_until_the_cap_trips_then_too_old() {
    for shards in [1usize, 2] {
        let pool = build_pool(shards);
        let size = pool.page_size();
        let io_before = pool.io_stats();

        pool.with_read_view(|view| {
            // The open-time oracle, captured through the view itself.
            let oracle: Vec<Vec<u8>> = (0..PAGES)
                .map(|pid| pool.with_page_at(view, pid, |pg| pg.to_vec()).expect("open-time read"))
                .collect();
            for pid in 0..PAGES {
                assert_eq!(oracle[pid as usize], seed_image(pid, size), "seed mismatch {pid}");
            }

            // After every commit, each read through the view is the
            // open-time image or `SnapshotTooOld`, and once it is
            // `SnapshotTooOld` it stays so.
            let (mut commits, mut served, mut too_old_at) = (0u64, 0u64, None);
            storm(&pool, || {
                commits += 1;
                for pid in 0..PAGES {
                    match pool.with_page_at(view, pid, |pg| pg.to_vec()) {
                        Ok(got) => {
                            assert!(
                                too_old_at.is_none(),
                                "{shards} shard(s): page {pid} read after SnapshotTooOld"
                            );
                            assert_eq!(
                                got, oracle[pid as usize],
                                "{shards} shard(s): page {pid} diverged from its open-time image"
                            );
                            served += 1;
                        }
                        Err(StorageError::SnapshotTooOld { read_ts, floor }) => {
                            assert_eq!(read_ts, view.read_ts());
                            assert!(read_ts < floor, "floor {floor} must lie above the view");
                            too_old_at.get_or_insert(commits);
                        }
                        Err(e) => panic!("{shards} shard(s): page {pid}: {e}"),
                    }
                }
            });
            // The first commit's pre-images fit the cap, so every page
            // read back after it; the second commit tripped it.
            assert_eq!(served, PAGES, "{shards} shard(s): the cap served one full scan");
            assert_eq!(too_old_at, Some(2), "{shards} shard(s): the second commit trips the cap");
        });

        let stats = pool.buffer_stats();
        assert!(stats.version_reads > 0, "{shards} shard(s): the view read retained versions");
        assert_eq!(stats.active_views, 0, "the guard must have released the view");
        let gc = pool.io_stats().delta_since(&io_before).gc;
        assert!(
            gc.total_ops() > 0,
            "{shards} shard(s): the storm must garbage-collect while the view is open"
        );

        // Crash without writing anything back: committed state survives.
        assert_committed_state(&crash_and_recover(pool, shards), shards);
    }
}

/// The crash in the middle: the storm runs *while the view is open*, and
/// the pool is crashed with the view still registered. Recovery serves
/// the committed end state byte-for-byte.
#[test]
fn a_crash_with_a_view_open_recovers_committed_state() {
    for shards in [1usize, 2] {
        let pool = build_pool(shards);
        let view = pool.begin_read();
        storm(&pool, || {});
        let probe = pool.with_page_at(&view, 0, |_| ());
        assert!(
            matches!(probe, Err(StorageError::SnapshotTooOld { .. })),
            "{shards} shard(s): the storm overran the cap, got {probe:?}"
        );
        // Crash with the view never released: `view` is dropped here
        // without `release_read`, exactly what power loss does to an open
        // scan.
        assert_committed_state(&crash_and_recover(pool, shards), shards);
    }
}
