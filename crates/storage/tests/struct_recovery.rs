//! Crash-mid-split recovery from the checkpointed structure-root log
//! alone: no remembered root pids, no `attach`.
//!
//! Two writer threads grow registered B+-trees on one durable-commit
//! `&Database` while every flash chip runs with an armed fault budget —
//! power fails mid-run, often inside a split chain or a commit batch.
//! The store is then rebuilt with [`ShardedStore::recover`] and the
//! trees with [`Database::recover_structures`], which must hand back
//! every registered tree holding a committed batch prefix: at least
//! every batch whose commit returned, never a torn batch tail. The
//! budget sweep moves the crash point through the whole concurrent
//! phase; recovery must also be idempotent (crash the recovered store
//! again, recover again, same contents) and survive a checkpoint cycle
//! (the V3 region carries the roots through compaction). A second sweep
//! commits the same batches from one thread and visits every crash point
//! of the two-shard commit protocol, with power failing on both chips or
//! on either one alone — per-chip fault budgets, one re-run per point —
//! and, from one journaled run, on the whole device at once, where
//! recovery must also leave flash alone: no erase, and no program but the
//! obsolete marks of torn pages.

use pdl_core::{is_power_loss, MethodKind, PageStore, ShardedStore, StoreOptions};
use pdl_flash::{FlashChip, FlashConfig, OpCounts, PowerLossJournal};
use pdl_storage::{BTree, Database, Durability, Key, KeyBuf, StorageError};

const KIND: MethodKind = MethodKind::Pdl { max_diff_size: 256 };
const SHARDS: usize = 2;
const PAGES: u64 = 256;
const BASELINE: u64 = 120; // per writer, enough to grow every root
const BATCH: u64 = 12;
const BATCHES: u64 = 8;

fn options() -> StoreOptions {
    StoreOptions::new(PAGES).with_checkpoint_blocks(2)
}

fn key_of(writer: usize, i: u64) -> Key {
    KeyBuf::new().push_u8(writer as u8).push_u64(i).finish()
}

fn power_lost(e: &StorageError) -> bool {
    matches!(e, StorageError::Store(c) if is_power_loss(c))
}

/// Dump tree `w`'s contents and assert they are a dense prefix
/// `(w, 0..k)`; returns `k`.
fn dense_prefix_len(db: &Database, tree: &BTree, w: usize) -> u64 {
    let mut next = 0u64;
    tree.range(db, &key_of(w, 0), &key_of(w, u64::MAX), |k, v| {
        assert_eq!(*k, key_of(w, next), "writer {w}: hole or reorder at {next}");
        assert_eq!(v, next, "writer {w}: wrong value at {next}");
        next += 1;
        true
    })
    .unwrap();
    next
}

/// Build a database and commit a baseline on two registered trees (deep
/// enough that both roots grew, so the structure-root log is durably
/// populated). Crash it cleanly and come back through the root log, so
/// the faulted phase itself runs on recovered trees, with `power` given
/// each recovered chip (shard order) first: a fault budget burns down
/// inside that phase — split chains, staged flushes, commit records,
/// root-record programs — and a journal records it.
fn recovered_baseline(mut power: impl FnMut(usize, &mut FlashChip)) -> (Database, Vec<BTree>) {
    let store = ShardedStore::with_uniform_chips(FlashConfig::scaled(16), SHARDS, KIND, options())
        .expect("store");
    let db = Database::new(Box::new(store), 128).with_durability(Durability::Commit);

    // Baseline: one committed batch per writer, splits included.
    for w in 0..2usize {
        let t = BTree::create(&db).unwrap();
        db.begin().unwrap();
        for i in 0..BASELINE {
            t.insert(&db, &key_of(w, i), i).unwrap();
        }
        db.commit().unwrap();
    }
    let roots = db.with_store(|s| s.struct_roots()).expect("root log populated");
    assert_eq!(roots.entries.len(), 2, "both trees must be in the durable root log");

    let mut store =
        ShardedStore::recover(db.into_store_without_flush().into_chips(), KIND, options())
            .expect("baseline recover");
    for s in 0..SHARDS {
        power(s, store.shard_mut(s).chip_mut());
    }
    let db = Database::new(Box::new(store), 128).with_durability(Durability::Commit);
    let trees: Vec<BTree> = db.recover_structures().into_iter().map(|s| s.into_btree()).collect();
    assert_eq!(trees.len(), 2, "baseline trees must recover before the faulted phase");
    (db, trees)
}

/// Power is gone: take the chips as the crash left them.
fn crashed_chips(db: Database) -> Vec<FlashChip> {
    let mut chips = db.into_store_without_flush().into_chips();
    for c in &mut chips {
        c.disarm_fault();
    }
    chips
}

/// Race two writers over the recovered baseline until `budget` flash
/// operations exhaust on every chip. Returns the crashed chips plus each
/// writer's count of batches whose commit *returned* `Ok`.
fn run_until_power_loss(budget: u64) -> (Vec<FlashChip>, Vec<u64>) {
    let (db, trees) = recovered_baseline(|_, chip| chip.arm_fault(budget));

    let confirmed: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2usize)
            .map(|w| {
                let (db, tree) = (&db, &trees[w]);
                scope.spawn(move || -> u64 {
                    let mut confirmed = 0u64;
                    for b in 0..BATCHES {
                        'retry: loop {
                            if db.begin().is_err() {
                                return confirmed;
                            }
                            for i in 0..BATCH {
                                let at = BASELINE + b * BATCH + i;
                                match tree.insert(db, &key_of(w, at), at) {
                                    Ok(()) => {}
                                    Err(StorageError::TxnConflict { .. }) => {
                                        let _ = db.abort();
                                        continue 'retry;
                                    }
                                    Err(e) => {
                                        let _ = db.abort();
                                        assert!(power_lost(&e), "unexpected error: {e}");
                                        return confirmed;
                                    }
                                }
                            }
                            match db.commit() {
                                Ok(()) => {
                                    confirmed += 1;
                                    break;
                                }
                                Err(e) => {
                                    assert!(power_lost(&e), "unexpected commit error: {e}");
                                    return confirmed;
                                }
                            }
                        }
                    }
                    confirmed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("writer panicked")).collect()
    });

    (crashed_chips(db), confirmed)
}

/// The same batches from one thread — writer 0's, then writer 1's — up to
/// the first error; `committed(w)` each time a commit of writer `w`
/// returns. Nothing here depends on a scheduler: a crash point fails every
/// time or never.
fn commit_serially(db: &Database, trees: &[BTree], mut committed: impl FnMut(usize)) {
    let mut run = || -> Result<(), StorageError> {
        for (w, tree) in trees.iter().enumerate() {
            for b in 0..BATCHES {
                db.begin()?;
                for i in 0..BATCH {
                    let at = BASELINE + b * BATCH + i;
                    tree.insert(db, &key_of(w, at), at)?;
                }
                db.commit()?;
                committed(w);
            }
        }
        Ok(())
    };
    if let Err(e) = run() {
        assert!(power_lost(&e), "unexpected error: {e}");
    }
}

/// Pages the store staged against a held image instead of a base read.
fn base_reads_skipped(db: &Database) -> u64 {
    let counters = db.with_store(|s| s.counters());
    counters.iter().find(|(k, _)| *k == "base_reads_skipped").map_or(0, |(_, v)| *v)
}

/// [`commit_serially`] with only the chips of `armed` faulted. Also
/// returns how many pages the run staged from held images.
fn run_serially_until_power_loss(armed: &[usize], budget: u64) -> (Vec<FlashChip>, Vec<u64>, u64) {
    let (db, trees) = recovered_baseline(|s, chip| {
        if armed.contains(&s) {
            chip.arm_fault(budget)
        }
    });
    let mut confirmed = vec![0u64; 2];
    commit_serially(&db, &trees, |w| confirmed[w] += 1);
    let skipped = base_reads_skipped(&db);
    (crashed_chips(db), confirmed, skipped)
}

/// Recover chips into a fresh database and rebuild the trees from the
/// checkpointed root log alone.
fn recover(chips: Vec<FlashChip>) -> (Database, Vec<BTree>) {
    let store = ShardedStore::recover(chips, KIND, options()).expect("recover");
    let db = Database::new(Box::new(store), 128).with_durability(Durability::Commit);
    let trees: Vec<BTree> = db.recover_structures().into_iter().map(|s| s.into_btree()).collect();
    (db, trees)
}

/// Assert a recovered database carries exactly a committed prefix for
/// each writer and return the two lengths.
fn check_recovered(db: &Database, trees: &[BTree], confirmed: &[u64]) -> Vec<u64> {
    assert_eq!(trees.len(), 2, "both registered trees must recover without attach");
    trees
        .iter()
        .enumerate()
        .map(|(w, t)| {
            t.check_invariants(db).unwrap();
            let len = dense_prefix_len(db, t, w);
            assert!(len >= BASELINE, "writer {w}: baseline lost ({len})");
            let extra = len - BASELINE;
            assert_eq!(extra % BATCH, 0, "writer {w}: torn batch tail survived ({len})");
            assert!(
                extra / BATCH >= confirmed[w],
                "writer {w}: committed batch lost ({} < {})",
                extra / BATCH,
                confirmed[w]
            );
            len
        })
        .collect()
}

#[test]
fn clean_shutdown_recovers_everything_without_attach() {
    let (chips, confirmed) = run_until_power_loss(u64::MAX);
    assert_eq!(confirmed, vec![BATCHES, BATCHES], "unfaulted run must commit every batch");
    let (db, trees) = recover(chips);
    let lens = check_recovered(&db, &trees, &confirmed);
    assert_eq!(lens, vec![BASELINE + BATCHES * BATCH; 2]);
    assert_eq!(db.buffer_stats().leaked_pids, 0);
}

#[test]
fn crash_mid_split_sweep_recovers_committed_prefixes() {
    // Budgets span from "dies almost immediately after arming" to "dies
    // in the last batches": the crash point walks through split chains,
    // staged flushes, commit records, and root-record programs. How many
    // programs the run takes depends on how the two writers' commits
    // group, so only the lower budgets must fault.
    for budget in [3u64, 6, 10, 14, 18, 22, 26, 30, 34, 40] {
        let (chips, confirmed) = run_until_power_loss(budget);
        if budget <= 18 {
            assert!(
                confirmed.iter().any(|&c| c < BATCHES),
                "budget {budget}: fault never fired — the sweep is vacuous"
            );
        }
        check_recovery_is_idempotent(chips, &confirmed, &format!("budget {budget}"));
    }
}

/// What recovering the crash image `chips` writes: no erase, and no
/// program unless a transaction is torn — then at most one obsolete mark
/// per page carrying a torn tag or commit proof. A second recovery of the
/// same image must rebuild the same tables with the same reads.
fn check_recovery_writes(chips: &[FlashChip], what: &str) {
    let (torn, torn_pages) = ShardedStore::torn_pages(chips, &options()).unwrap();
    let recovered = |chips: &[FlashChip]| {
        let before = chips.iter().fold(OpCounts::default(), |sum, c| sum + c.stats().recovery);
        let store = ShardedStore::recover(chips.to_vec(), KIND, options()).expect("recover");
        (store.tables_digest(), store.stats().recovery - before)
    };
    let (digest, cost) = recovered(chips);
    assert_eq!(cost.erases, 0, "{what}: recovery erased");
    if torn.is_empty() {
        assert_eq!(cost.writes, 0, "{what}: recovery programmed with nothing torn");
    } else {
        assert!(
            cost.writes <= torn_pages,
            "{what}: {} marks, {torn_pages} torn pages",
            cost.writes
        );
    }
    let (again, cost2) = recovered(chips);
    assert_eq!((again, cost2.reads), (digest, cost.reads), "{what}: two recoveries disagree");
}

/// Recover, check, crash the recovered store again without flushing,
/// recover again: the second recovery must reproduce the same committed
/// state.
fn check_recovery_is_idempotent(chips: Vec<FlashChip>, confirmed: &[u64], what: &str) {
    let (db, trees) = recover(chips);
    let lens = check_recovered(&db, &trees, confirmed);
    let (db2, trees2) = recover(db.into_store_without_flush().into_chips());
    let lens2 = check_recovered(&db2, &trees2, confirmed);
    assert_eq!(lens, lens2, "{what}: recovery is not idempotent");
}

#[test]
fn serial_crash_sweep_recovers_committed_prefixes_on_every_chip_subset() {
    // Every crash point of the two-shard commit protocol, with power
    // failing on both chips or on one of them only. A shard that programs
    // its obsolete marks before the batch's commit record is durable
    // loses the previous committed batch at some of these points.
    for armed in [&[0usize, 1][..], &[0], &[1]] {
        // A budget the run outlasts is the end: larger ones fault nowhere.
        let mut budget = 1u64;
        loop {
            let (chips, confirmed, skipped) = run_serially_until_power_loss(armed, budget);
            let faulted = confirmed != [BATCHES, BATCHES];
            check_recovery_is_idempotent(chips, &confirmed, &format!("{armed:?}, {budget}"));
            if !faulted {
                // The baseline was recovered, so every page's first commit
                // read its base; the later ones must have used the pool's
                // held images, or this sweep never crashed that path.
                assert!(skipped > 0, "chips {armed:?}: no commit staged from a held image");
                break;
            }
            budget += 1;
        }
        assert!(budget > 22, "chips {armed:?}: the run ends after {budget} flash operations");
    }
}

#[test]
fn serial_crash_sweep_whole_device_recovers_committed_prefixes() {
    // The same serial run once, journaled on both chips: power fails on
    // the whole device before each flash operation of either chip. A
    // batch counts as confirmed at every crash point at or after the
    // journal position its commit returned at.
    let journal = PowerLossJournal::new();
    let (db, trees) = recovered_baseline(|_, chip| chip.attach_journal(&journal));
    let mut returned: Vec<(usize, u64)> = Vec::new();
    commit_serially(&db, &trees, |w| returned.push((w, journal.position())));
    assert_eq!(returned.len() as u64, 2 * BATCHES, "the journaled run must commit every batch");
    assert!(base_reads_skipped(&db) > 0, "no commit staged from a held image");
    let mut points = 0;
    for (g, chips) in journal.images().enumerate() {
        let mut confirmed = vec![0u64; 2];
        for &(w, at) in &returned {
            confirmed[w] += u64::from(at <= g as u64);
        }
        let what = format!("whole device, image {g}");
        check_recovery_writes(&chips, &what);
        check_recovery_is_idempotent(chips, &confirmed, &what);
        points += 1;
    }
    assert!(points > 45, "the run ends after {points} flash operations");
}

#[test]
fn recovered_roots_survive_a_checkpoint_cycle() {
    let (chips, confirmed) = run_until_power_loss(20);
    let (db, trees) = recover(chips);
    let lens = check_recovered(&db, &trees, &confirmed);

    // Compact the checkpoint region (V3 carries the root log), crash
    // again, recover again: same trees, same contents.
    db.checkpoint().expect("checkpoint after recovery");
    let chips = db.into_store_without_flush().into_chips();
    let (db2, trees2) = recover(chips);
    let lens2 = check_recovered(&db2, &trees2, &confirmed);
    assert_eq!(lens, lens2, "checkpoint cycle changed recovered contents");
}
