//! Sharding correctness: a [`ShardedStore`] must be observably identical
//! to a single store of the same method over any update trace, because
//! striping only partitions the page space — it never changes per-page
//! behaviour. Plus: multi-writer smoke tests (8 threads on overlapping
//! pages, 4 on disjoint ones, all through one `Database`) and whole-engine
//! crash recovery of every shard.

use pdl_core::{
    build_store, BatchPage, ChangeRange, CommitBatch, CommitError, CoreError, MethodKind,
    PageStore, ShardedStore, StoreOptions,
};
use pdl_flash::{FlashChip, FlashConfig};
use pdl_storage::Database;
use proptest::prelude::*;

const PAGES: u64 = 20;

/// One step of an update trace.
#[derive(Clone, Debug)]
enum Step {
    /// Whole-page write.
    Write {
        pid: u64,
        fill: u8,
    },
    /// Read-modify-reflect cycle changing one byte range.
    Update {
        pid: u64,
        offset: u16,
        len: u8,
        fill: u8,
    },
    Flush,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => (0..PAGES, any::<u8>()).prop_map(|(pid, fill)| Step::Write { pid, fill }),
        3 => (0..PAGES, 0u16..250, 1u8..40, any::<u8>())
            .prop_map(|(pid, offset, len, fill)| Step::Update { pid, offset, len, fill }),
        1 => Just(Step::Flush),
    ]
}

/// Drive one step against any store through the `PageStore` trait.
fn run_step(store: &mut dyn PageStore, step: &Step, buf: &mut [u8]) {
    let size = buf.len();
    match step {
        Step::Write { pid, fill } => {
            buf.fill(*fill);
            store.write_page(*pid, buf).unwrap();
        }
        Step::Update { pid, offset, len, fill } => {
            store.read_page(*pid, buf).unwrap();
            let at = *offset as usize % (size - *len as usize);
            buf[at..at + *len as usize].fill(*fill);
            store.apply_update(*pid, buf, &[ChangeRange::new(at, *len as usize)]).unwrap();
            store.evict_page(*pid, buf).unwrap();
        }
        Step::Flush => store.flush().unwrap(),
    }
}

fn read_all(store: &mut dyn PageStore) -> Vec<Vec<u8>> {
    let size = store.logical_page_size();
    (0..PAGES)
        .map(|pid| {
            let mut out = vec![0u8; size];
            store.read_page(pid, &mut out).unwrap();
            out
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For N in {1, 2, 4}, the sharded store's observable state after any
    /// trace is byte-identical to the single PDL store's.
    #[test]
    fn sharded_store_matches_single_store(
        steps in proptest::collection::vec(step_strategy(), 1..50),
    ) {
        let kind = MethodKind::Pdl { max_diff_size: 64 };
        let chip = FlashChip::new(FlashConfig::tiny());
        let mut single = build_store(chip, kind, StoreOptions::new(PAGES)).unwrap();
        let mut buf = vec![0u8; single.logical_page_size()];
        for step in &steps {
            run_step(single.as_mut(), step, &mut buf);
        }
        let expect = read_all(single.as_mut());

        for n in [1usize, 2, 4] {
            let mut sharded = ShardedStore::with_uniform_chips(
                FlashConfig::tiny(),
                n,
                kind,
                StoreOptions::new(PAGES),
            )
            .unwrap();
            for step in &steps {
                run_step(&mut sharded, step, &mut buf);
            }
            let got = read_all(&mut sharded);
            prop_assert_eq!(&got, &expect, "{} shards diverged from the single store", n);
        }
    }
}

/// 8 writer threads hammer overlapping pages through one [`Database`]
/// over 4 shards; after the join every page must hold exactly one of the
/// writes that targeted it, and crash recovery of all shards must preserve
/// the flushed state.
#[test]
fn concurrent_writers_then_crash_recovery() {
    const WRITERS: u64 = 8;
    const ROUNDS: u64 = 30;
    let kind = MethodKind::Pdl { max_diff_size: 64 };
    let store =
        ShardedStore::with_uniform_chips(FlashConfig::tiny(), 4, kind, StoreOptions::new(PAGES))
            .unwrap();
    // Fewer frames than pages: writers evict each other's pages to the
    // shards while they run.
    let db = Database::new(Box::new(store), 8);
    let size = db.page_size();

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let db = &db;
            scope.spawn(move || {
                let mut page = vec![0u8; size];
                for r in 0..ROUNDS {
                    // Overlapping page sets: every writer visits every pid.
                    let pid = (w + r) % PAGES;
                    // Tag pattern: writer id in every byte pair, round in
                    // the second byte — any torn mix would break the pair
                    // structure.
                    for i in (0..size).step_by(2) {
                        page[i] = w as u8 + 1;
                        page[i + 1] = r as u8;
                    }
                    db.with_page_mut(pid, |p| p.write(0, &page)).unwrap();
                }
            });
        }
    });

    // Post-join: every page is a consistent snapshot of one write.
    let read = |pid: u64| db.with_page(pid, <[u8]>::to_vec).unwrap();
    for pid in 0..PAGES {
        let out = read(pid);
        let (w, r) = (out[0], out[1]);
        assert!(w >= 1 && w as u64 <= WRITERS, "pid {pid}: writer tag {w}");
        assert!((r as u64) < ROUNDS, "pid {pid}: round tag {r}");
        for i in (0..size).step_by(2) {
            assert_eq!(out[i], w, "pid {pid}: torn page at byte {i}");
            assert_eq!(out[i + 1], r, "pid {pid}: torn page at byte {i}");
        }
    }
    let expect: Vec<Vec<u8>> = (0..PAGES).map(read).collect();

    // Flush, then crash: drop all in-memory state, recover every shard
    // from its chip.
    let chips = db.into_store().unwrap().into_chips();
    assert_eq!(chips.len(), 4);
    let mut back = ShardedStore::recover(chips, kind, StoreOptions::new(PAGES)).unwrap();
    let mut out = vec![0u8; size];
    for (pid, want) in expect.iter().enumerate() {
        back.read_page(pid as u64, &mut out).unwrap();
        assert_eq!(&out, want, "pid {pid} after recovery");
    }
}

/// Writers on disjoint page sets through one [`Database`] over 4 shards:
/// all data lands correctly.
#[test]
fn disjoint_writers_round_trip() {
    let kind = MethodKind::Pdl { max_diff_size: 64 };
    let store =
        ShardedStore::with_uniform_chips(FlashConfig::tiny(), 4, kind, StoreOptions::new(PAGES))
            .unwrap();
    let db = Database::new(Box::new(store), 8);
    let size = db.page_size();
    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let db = &db;
            scope.spawn(move || {
                // Disjoint sets: writer w owns pids congruent to w mod 4.
                for pid in (w..PAGES).step_by(4) {
                    db.with_page_mut(pid, |p| p.fill(0, size, pid as u8 + 1)).unwrap();
                }
            });
        }
    });
    let mut store = db.into_store().unwrap();
    let mut out = vec![0u8; size];
    for pid in 0..PAGES {
        store.read_page(pid, &mut out).unwrap();
        assert_eq!(out, vec![pid as u8 + 1; size], "pid {pid}");
    }
}

/// Two PDL shards over the tiny chip, every page loaded and flushed.
fn loaded_pdl_shards(opts: StoreOptions) -> (ShardedStore, Vec<u8>) {
    let kind = MethodKind::Pdl { max_diff_size: 64 };
    let mut store = ShardedStore::with_uniform_chips(FlashConfig::tiny(), 2, kind, opts).unwrap();
    let page = vec![7u8; store.logical_page_size()];
    for pid in 0..opts.num_logical_pages {
        store.write_page(pid, &page).unwrap();
    }
    store.flush().unwrap();
    (store, page)
}

#[test]
fn a_commit_batch_leaves_uninvolved_shards_alone() {
    let (mut store, mut page) = loaded_pdl_shards(StoreOptions::new(PAGES));
    // Shard 1 holds an unflushed differential of its own.
    page[9] = 1;
    store.write_page(1, &page).unwrap();
    let before = store.per_shard_stats();
    page[9] = 2;
    store
        .commit_batch(&CommitBatch { pages: vec![BatchPage::new(0, &page, 41)], roots: None })
        .unwrap();
    let after = store.per_shard_stats();
    assert!(after[0].total().writes > before[0].total().writes, "shard 0 committed the batch");
    assert_eq!(after[1], before[1], "shard 1 staged nothing: no reserve, no flush, no close");
}

#[test]
fn a_rejected_batch_closes_what_it_opened_on_other_shards() {
    // 60 pages fill most of each 128-page chip: shard 0 can reserve room
    // for one page, shard 1 cannot for twenty.
    let (mut store, page) = loaded_pdl_shards(StoreOptions::new(120).with_checkpoint_blocks(4));
    let mut pages = vec![BatchPage::new(0, &page, 51)];
    pages.extend((0..20).map(|i| BatchPage::new(2 * i + 1, &page, 51)));
    let before = store.stats();
    let err = store.commit_batch(&CommitBatch { pages, roots: None }).unwrap_err();
    assert_eq!(err, CommitError::Rejected(CoreError::StorageFull));
    assert_eq!(store.stats(), before, "a rejected batch staged nothing");
    // Shard 0's batch was opened before shard 1 refused; it is closed
    // again, so the store checkpoints and commits as if nothing happened.
    store.checkpoint().unwrap();
    store
        .commit_batch(&CommitBatch {
            pages: vec![BatchPage::new(0, &page, 52), BatchPage::new(1, &page, 52)],
            roots: None,
        })
        .unwrap();
}
