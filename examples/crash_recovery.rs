//! Crash recovery demo: power loss in the middle of PDL write sequences,
//! followed by `PDL_RecoveringfromCrash` (§4.5) — including a crash
//! *during* recovery, while it marks the pages of a torn commit.
//!
//! Run with `cargo run --release --example crash_recovery`. Exits
//! non-zero if recovering an image with nothing torn programs a page.

use page_differential_logging::prelude::*;
use pdl_core::{BatchPage, CommitBatch};
use pdl_flash::PowerLossJournal;

const PAGES: u64 = 512;
const KIND: MethodKind = MethodKind::Pdl { max_diff_size: 256 };

fn main() {
    let chip = FlashChip::new(FlashConfig::scaled(64));
    let opts = StoreOptions::new(PAGES);
    let mut store = build_store(chip, KIND, opts).expect("store");
    let size = store.logical_page_size();

    // Load and update, flushing the write buffer (the durability point:
    // like a file system, data only in the buffer is lost by a crash).
    let mut page = vec![0u8; size];
    for pid in 0..PAGES {
        page.fill(pid as u8);
        store.write_page(pid, &page).expect("load");
    }
    for pid in 0..PAGES / 2 {
        page.fill(pid as u8);
        page[0..8].copy_from_slice(&pid.to_le_bytes());
        store.write_page(pid, &page).expect("update");
    }
    store.flush().expect("write-through");
    println!("loaded {PAGES} pages, updated {}, flushed", PAGES / 2);

    // Crash mid-eviction: a whole-page change is written as a new base
    // page and the old one is then set obsolete; allow the program, cut
    // power before the mark.
    store.chip_mut().arm_fault(1);
    let mut interrupted = 0u64;
    for pid in 0..PAGES {
        page.fill(0xEE);
        match store.write_page(pid, &page) {
            Ok(()) => {}
            Err(e) if pdl_core::is_power_loss(&e) => {
                interrupted = pid;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    println!("power lost while reflecting page {interrupted}");

    // Reboot: the in-memory mapping tables are gone; one scan through the
    // physical pages rebuilds them, resolving co-existing copies by
    // creation time stamp. The stale base copy is counted obsolete in
    // memory: nothing is torn, so recovery programs nothing.
    let mut chip = store.into_chip();
    chip.disarm_fault();
    let mut store = recover_store(chip, KIND, opts).expect("recover");
    let scan = store.chip().stats().recovery;
    println!("recovery: {} reads, {} programs", scan.reads, scan.writes);
    if scan.writes != 0 {
        eprintln!("recovery programmed {} pages on an image with nothing torn", scan.writes);
        std::process::exit(1);
    }

    // Atomicity check: every page is either its flushed content or the
    // fully-committed post-crash write (0xEE) — never a torn mixture.
    // Writes that completed before the power cut may legitimately persist.
    let mut out = vec![0u8; size];
    let mut survived_new = 0u64;
    let mut state = Vec::with_capacity(PAGES as usize);
    for pid in 0..PAGES {
        store.read_page(pid, &mut out).expect("read");
        let is_new = out.iter().all(|&b| b == 0xEE);
        let is_flushed = if pid < PAGES / 2 {
            u64::from_le_bytes(out[0..8].try_into().unwrap()) == pid
                && out[8..].iter().all(|&b| b == pid as u8)
        } else {
            out.iter().all(|&b| b == pid as u8)
        };
        assert!(is_new || is_flushed, "page {pid} is torn: neither old nor new state");
        survived_new += u64::from(is_new);
        state.push(out.clone());
    }
    println!(
        "all {PAGES} pages verified: {} post-crash writes committed, {} pages \
         at their flushed state, zero torn pages",
        survived_new,
        PAGES - survived_new
    );

    // A torn commit: one transaction rewrites three pages whole, each a
    // new base page tagged with its id; power fails before the third
    // program, so the commit record never lands.
    let images: Vec<Vec<u8>> = (0..3).map(|i| vec![0xC0 + i as u8; size]).collect();
    let pages = (0..3).map(|i| BatchPage::new(10 + i as u64, &images[i], 1)).collect();
    store.chip_mut().arm_fault(2);
    let Err(e) = store.commit_batch(&CommitBatch { pages, roots: None }) else {
        panic!("the commit outlasted its fault budget")
    };
    println!("power lost mid-commit: {e}");
    let mut chip = store.into_chip();
    chip.disarm_fault();

    // A second crash in the middle of recovery itself, after the first of
    // the two torn pages' obsolete marks (the journal hands back the chip
    // as that power loss would leave it). Marks only ever set useless
    // pages obsolete, so restarting is safe, and the restart marks the
    // torn page that is left.
    let journal = PowerLossJournal::new();
    chip.attach_journal(&journal);
    let marks = Pdl::recover(chip, opts, 256).expect("recover").chip().stats().recovery.writes;
    assert_eq!(marks, 2, "recovery marks the two torn pages");
    let chip = journal.images().nth(1).expect("an image after the first mark").remove(0);
    println!("crashed while recovery marked the torn commit, restarting it...");
    let before = chip.stats().recovery;
    let mut store = recover_store(chip, KIND, opts).expect("recover");
    let scan = store.chip().stats().recovery - before;
    println!(
        "recovery: {} reads, {} programs (the torn page left to mark)",
        scan.reads, scan.writes
    );
    for pid in 0..PAGES {
        store.read_page(pid, &mut out).expect("read");
        assert_eq!(out, state[pid as usize], "page {pid} must hold its pre-commit state");
    }
    println!("the torn commit rolled back: all {PAGES} pages hold their pre-commit state");
}
