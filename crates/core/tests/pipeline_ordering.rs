//! Deterministic simulated-clock properties of the pipelined flash
//! command model (per-chip queues + plane parallelism):
//!
//! * **dependency ordering** — under queue depths 1, 4 and 16, every
//!   read observes the latest completed program for its page, and the
//!   chip's `ordering_violations` gauge stays 0 (a read is never
//!   scheduled to complete before a program/erase it depends on);
//! * **QD=1 equivalence** — with a single queue slot the pipeline clock
//!   reproduces the serial Table-1 latency sum exactly, so every
//!   pre-pipeline result is the queue-depth-1 point of the new model;
//! * **monotone speedup** — on a GC-heavy workload the pipeline busy
//!   time never regresses as the queue deepens, and QD=16 strictly
//!   beats QD=1;
//! * **in-flight crash safety** — at QD=16 a transaction's staged
//!   programs and commit record can all sit in the queue with no
//!   intervening drain; power loss at any destructive-op index must
//!   still recover to a committed prefix.
//!
//! Everything here is deterministic: the clock is simulated, the
//! workload is a fixed pseudo-random script, and crash points are every
//! crash image a [`PowerLossJournal`] took of one run.

use pdl_core::{build_store, recover_store, BatchPage, CommitBatch, MethodKind, StoreOptions};
use pdl_flash::{FlashChip, FlashConfig, PowerLossJournal};

const PAGES: u64 = 24;
const DEPTHS: [u32; 3] = [1, 4, 16];

fn config(depth: u32) -> FlashConfig {
    FlashConfig::tiny().with_queue_depth(depth).with_planes(4)
}

fn gc_heavy_opts() -> StoreOptions {
    let mut opts = StoreOptions::new(PAGES);
    // Shrink the allocatable space so the short script garbage-collects:
    // the interesting schedules are the ones with erases in the queue.
    opts.reserve_blocks = 10;
    opts
}

#[test]
fn reads_observe_latest_completed_program_at_every_depth() {
    let kind = MethodKind::Pdl { max_diff_size: 64 };
    let mut busy: Vec<(u32, u64)> = Vec::new();
    for depth in DEPTHS {
        let mut store = build_store(FlashChip::new(config(depth)), kind, gc_heavy_opts()).unwrap();
        let size = store.logical_page_size();
        let mut truth: Vec<Vec<u8>> = (0..PAGES).map(|_| vec![0u8; size]).collect();
        for pid in 0..PAGES {
            store.write_page(pid, &truth[pid as usize]).unwrap();
        }
        let mut out = vec![0u8; size];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..160usize {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pid = (x >> 33) % PAGES;
            let fill = (x >> 17) as u8;
            if (x >> 13) & 3 == 0 {
                truth[pid as usize].fill(fill);
            } else {
                let at = (fill as usize * 7) % (size - 16);
                truth[pid as usize][at..at + 16].fill(fill ^ 0x5A);
            }
            let img = truth[pid as usize].clone();
            store.write_page(pid, &img).unwrap();
            // Read a page right behind the program — possibly the one
            // just written, possibly one whose program or GC migration is
            // still in flight. It must observe the latest completed
            // program for that page, never a stale image.
            let rp = (x >> 41) % PAGES;
            store.read_page(rp, &mut out).unwrap();
            assert_eq!(out, truth[rp as usize], "depth {depth}, op {i}: stale read of page {rp}");
        }
        store.flush().unwrap();
        for pid in 0..PAGES {
            store.read_page(pid, &mut out).unwrap();
            assert_eq!(out, truth[pid as usize], "depth {depth}: page {pid} after flush");
        }

        let stats = store.stats();
        assert_eq!(
            stats.pipeline.ordering_violations, 0,
            "depth {depth}: a read was scheduled before a command it depends on"
        );
        assert!(stats.gc.total_ops() > 0, "depth {depth}: the workload must garbage-collect");
        let b = store.pipeline_busy_us();
        assert!(b > 0);
        if depth == 1 {
            // A single queue slot admits no overlap: the pipeline clock
            // must equal the serial sum of Table-1 latencies, making the
            // old synchronous model the QD=1 point of this one.
            assert_eq!(b, stats.total().total_us(), "QD=1 must reproduce the serial time sum");
        } else {
            assert!(
                stats.pipeline.max_inflight > 1,
                "depth {depth}: the queue was never actually used"
            );
        }
        busy.push((depth, b));
    }
    for w in busy.windows(2) {
        assert!(w[1].1 <= w[0].1, "busy time regressed with a deeper queue: {busy:?}");
    }
    assert!(busy[2].1 < busy[0].1, "QD=16 should strictly beat QD=1 here: {busy:?}");
}

/// One multi-page transaction per script entry: bump the "district" page
/// 0, rewrite a few pseudo-random satellite pages.
fn txn_script(count: usize) -> Vec<Vec<(u64, u8)>> {
    let mut x = 0x00DD_BA11_u64;
    (0..count)
        .map(|i| {
            let mut pages = vec![(0u64, i as u8 + 1)];
            for _ in 0..2 + (i % 3) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                pages.push((1 + (x >> 33) % (PAGES - 1), (x >> 17) as u8));
            }
            pages
        })
        .collect()
}

#[test]
fn inflight_crash_recovers_to_committed_prefix_at_qd16() {
    let kind = MethodKind::Pdl { max_diff_size: 64 };
    let opts = gc_heavy_opts();
    let txns = txn_script(8);

    let mut store = build_store(FlashChip::new(config(16)), kind, opts).unwrap();
    let size = store.logical_page_size();
    let initial: Vec<Vec<u8>> = (0..PAGES).map(|p| vec![p as u8; size]).collect();
    for pid in 0..PAGES {
        store.write_page(pid, &initial[pid as usize]).unwrap();
    }
    store.flush().unwrap();

    // The database states after each committed prefix of the script.
    let mut states: Vec<Vec<Vec<u8>>> = vec![initial];
    for txn in &txns {
        let mut next = states.last().unwrap().clone();
        for (pid, fill) in txn {
            next[*pid as usize].fill(*fill);
        }
        states.push(next);
    }

    // One transaction after another through `commit_batch`. At QD=16 the
    // staged programs and the commit record are all *submitted*; nothing
    // here drains the queue, so a crash image can cut the whole batch
    // while it is still in flight.
    let journal = PowerLossJournal::new();
    store.chip_mut().attach_journal(&journal);
    let before = store.stats();
    for (k, txn) in txns.iter().enumerate() {
        let pages = txn
            .iter()
            .map(|(pid, _)| BatchPage::new(*pid, &states[k + 1][*pid as usize], k as u64 + 1));
        store.commit_batch(&CommitBatch { pages: pages.collect(), roots: None }).unwrap();
    }
    let delta = store.stats().delta_since(&before);
    assert_eq!(journal.position(), delta.total().writes + delta.total().erases);
    assert!(delta.gc.total_ops() > 0, "the txn workload must garbage-collect ({delta:?})");
    assert!(store.stats().pipeline.max_inflight > 1, "the queue was never actually used");
    // Every crash image is a prefix of this run, so its reads were checked here.
    assert_eq!(store.stats().pipeline.ordering_violations, 0);

    // Power loss before every destructive op: whatever was still queued
    // is gone with the crash — no drain, straight to recovery.
    for (g, mut chips) in journal.images().enumerate() {
        let mut r = recover_store(chips.pop().unwrap(), kind, opts).unwrap();
        let mut out = vec![0u8; size];
        let mut pages_now: Vec<Vec<u8>> = Vec::with_capacity(PAGES as usize);
        for pid in 0..PAGES {
            r.read_page(pid, &mut out).unwrap();
            pages_now.push(out.clone());
        }
        assert!(
            states.iter().any(|s| s == &pages_now),
            "image {g}: recovered state matches no committed prefix"
        );
        assert_eq!(r.stats().pipeline.ordering_violations, 0, "image {g}");
    }
}
