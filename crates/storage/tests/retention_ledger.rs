//! Epoch-long read views vs the DRAM retention cap: the flash ledger
//! model-oracle.
//!
//! A view opened before a GC-heavy write storm must keep reading its
//! open-time bytes even after the storm has pushed every pre-image it
//! needs past `snapshot_version_cap` — the versions migrate into the
//! flash retention ledger (PDL spill pages) instead of dying, and
//! `with_page_at` resolves them DRAM-chain → ledger → flash read. The
//! oracle is byte-for-byte: every page read through the view equals the
//! image captured at open time, for 1, 2, and 4 shards, with zero
//! `SnapshotTooOld`. Afterwards the database is crashed without a flush and
//! recovered; the committed end state must survive byte-for-byte too
//! (spill pages are volatile retention state — recovery discards them,
//! never user data).

use pdl_core::{MethodKind, ShardedStore, StoreOptions};
use pdl_flash::FlashConfig;
use pdl_storage::{Database, Durability};

const KIND: MethodKind = MethodKind::Pdl { max_diff_size: 256 };
const PAGES: u64 = 64;
const ROUNDS: u64 = 8;
const PAGES_PER_TXN: u64 = 8;

fn options(shards: usize) -> StoreOptions {
    // A cap this small cannot hold even one round of pre-images in DRAM,
    // so the view below lives or dies by the flash ledger. The GC
    // reserve shrinks the allocatable space so every shard reclaims
    // within the short storm (the crash sweeps use the same trick); each
    // chip carries 1/N of the load but the same geometry, so the reserve
    // grows with the shard count to keep the per-chip pressure on.
    // Gap-precise retention spills only ~one pre-image per resident
    // logical page for the single open view (not one per round), so the
    // reserves sit close to the storm's raw program volume.
    let mut opts = StoreOptions::new(PAGES).with_snapshot_version_cap(4);
    opts.reserve_blocks = match shards {
        1 => 7,
        2 => 11,
        _ => 13,
    };
    opts
}

fn open(store: ShardedStore) -> Database {
    Database::new(Box::new(store), PAGES as usize / 4).with_durability(Durability::Commit)
}

fn build_pool(shards: usize) -> Database {
    let store =
        ShardedStore::with_uniform_chips(FlashConfig::scaled(16), shards, KIND, options(shards))
            .expect("store");
    let pool = open(store);
    for pid in 0..PAGES {
        pool.with_page_mut(pid, |p| p.write(0, &seed_image(pid, pool.page_size()))).expect("seed");
    }
    pool.flush().expect("seed flush");
    pool
}

/// Crash without writing anything back, then recover every shard.
fn crash_and_recover(pool: Database, shards: usize) -> Database {
    let chips = pool.into_store_without_flush().into_chips();
    open(ShardedStore::recover(chips, KIND, options(shards)).expect("recover"))
}

fn seed_image(pid: u64, size: usize) -> Vec<u8> {
    (0..size).map(|i| (pid as u8).wrapping_mul(31).wrapping_add(i as u8)).collect()
}

fn round_image(pid: u64, round: u64, size: usize) -> Vec<u8> {
    (0..size).map(|i| (pid as u8) ^ (round as u8).wrapping_mul(97).wrapping_add(i as u8)).collect()
}

/// Commit `ROUNDS` full rewrites of the page space in `PAGES_PER_TXN`
/// transactions (the GC-heavy storm the view must outlive).
fn storm(pool: &Database) {
    let size = pool.page_size();
    for round in 1..=ROUNDS {
        for chunk in 0..PAGES / PAGES_PER_TXN {
            pool.begin().expect("begin");
            for pid in chunk * PAGES_PER_TXN..(chunk + 1) * PAGES_PER_TXN {
                pool.with_page_mut(pid, |p| p.write(0, &round_image(pid, round, size)))
                    .expect("stamp");
            }
            pool.commit().expect("commit");
        }
    }
}

#[test]
fn epoch_long_view_reads_open_time_bytes_from_the_flash_ledger() {
    for shards in [1usize, 2, 4] {
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

            storm(&pool);

            // Every pre-image the view needs has long overrun the DRAM
            // cap; each read must still hand back the open-time bytes,
            // now resolved from the flash retention ledger.
            for pid in 0..PAGES {
                let got = pool
                    .with_page_at(view, pid, |pg| pg.to_vec())
                    .expect("a ledger-backed view must never see SnapshotTooOld");
                assert_eq!(
                    got, oracle[pid as usize],
                    "{shards} shard(s): page {pid} diverged from its open-time image"
                );
            }
        });

        let stats = pool.buffer_stats();
        assert!(
            stats.spilled_versions > 0,
            "{shards} shard(s): the cap overrun must have spilled versions to flash"
        );
        assert!(
            stats.ledger_hits > 0 && stats.flash_resolves > 0,
            "{shards} shard(s): view reads must have resolved through the ledger \
             (hits={}, resolves={})",
            stats.ledger_hits,
            stats.flash_resolves
        );
        assert_eq!(stats.active_views, 0, "the guard must have released the view");
        let gc = pool.io_stats().delta_since(&io_before).gc;
        assert!(
            gc.total_ops() > 0,
            "{shards} shard(s): the storm must garbage-collect while versions are pinned"
        );

        // Crash without writing anything back: committed state survives,
        // the (released) ledger does not need to.
        let recovered = crash_and_recover(pool, shards);
        for pid in 0..PAGES {
            let got = recovered.with_page(pid, |pg| pg.to_vec()).expect("post-crash read");
            assert_eq!(
                got,
                round_image(pid, ROUNDS, size),
                "{shards} shard(s): page {pid} lost committed state across crash + recovery"
            );
        }
    }
}

/// The crash in the middle: the storm runs *while the view is open*, the
/// pool is crashed with the view still registered (spill pages live on
/// flash), and recovery must (a) reclaim the orphaned spill pages as
/// garbage rather than resurrect them and (b) serve the committed end
/// state byte-for-byte.
#[test]
fn crash_with_a_live_ledger_discards_spills_and_keeps_committed_state() {
    let pool = build_pool(2);
    let size = pool.page_size();
    let view = pool.begin_read();
    storm(&pool);
    // Prove the ledger is populated (the crash below orphans it).
    let probe = pool.with_page_at(&view, 0, |pg| pg.to_vec()).expect("ledger read");
    assert_eq!(probe, seed_image(0, size));
    assert!(pool.buffer_stats().flash_resolves > 0);
    // Crash with the view never released: `view` is dropped here without
    // `release_read`, exactly what power loss does to an open scan.
    let recovered = crash_and_recover(pool, 2);
    for pid in 0..PAGES {
        let got = recovered.with_page(pid, |pg| pg.to_vec()).expect("post-crash read");
        assert_eq!(got, round_image(pid, ROUNDS, size), "page {pid} diverged after crash");
    }
    // A fresh view on the recovered pool starts clean: no spilled
    // versions, no ledger traffic, reads come from the live pages.
    let stats = recovered.buffer_stats();
    assert_eq!(stats.spilled_versions, 0);
    assert_eq!(stats.ledger_hits, 0);
}
