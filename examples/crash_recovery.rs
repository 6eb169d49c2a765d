//! Crash recovery demo: power loss in the middle of PDL write sequences,
//! followed by `PDL_RecoveringfromCrash` (§4.5) — including a crash
//! *during* recovery.
//!
//! Run with `cargo run --release --example crash_recovery`.

use page_differential_logging::prelude::*;

const PAGES: u64 = 512;
const KIND: MethodKind = MethodKind::Pdl { max_diff_size: 256 };

fn main() {
    let chip = FlashChip::new(FlashConfig::scaled(64));
    let mut store = build_store(chip, KIND, StoreOptions::new(PAGES)).expect("store");
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
    // spare areas rebuilds them, resolving co-existing copies by creation
    // time stamp.
    let mut chip = store.into_chip();
    chip.disarm_fault();

    // A second crash in the middle of recovery itself, at its first
    // obsolete mark (the stale base page): the algorithm only marks
    // useless pages obsolete, so restarting is safe.
    chip.arm_fault(0);
    let Err(e) = Pdl::recover(chip.clone(), StoreOptions::new(PAGES), 256) else {
        panic!("recovery had a stale base page to mark")
    };
    assert!(pdl_core::is_power_loss(&e));
    println!("crashed during recovery, restarting it...");
    chip.disarm_fault();
    let mut recovered = recover_store(chip, KIND, StoreOptions::new(PAGES)).expect("recover");
    let scan = recovered.chip().stats().recovery;
    println!("recovery: {} reads, {} obsolete marks", scan.reads, scan.writes);

    // Atomicity check: every page is either its flushed content or the
    // fully-committed post-crash write (0xEE) — never a torn mixture.
    // Writes that completed before the power cut may legitimately persist.
    let mut out = vec![0u8; size];
    let mut survived_new = 0u64;
    for pid in 0..PAGES {
        recovered.read_page(pid, &mut out).expect("read");
        let is_new = out.iter().all(|&b| b == 0xEE);
        let is_flushed = if pid < PAGES / 2 {
            u64::from_le_bytes(out[0..8].try_into().unwrap()) == pid
                && out[8..].iter().all(|&b| b == pid as u8)
        } else {
            out.iter().all(|&b| b == pid as u8)
        };
        assert!(is_new || is_flushed, "page {pid} is torn: neither old nor new state");
        if is_new {
            survived_new += 1;
        }
    }
    println!(
        "all {PAGES} pages verified: {} post-crash writes committed, {} pages \
         at their flushed state, zero torn pages",
        survived_new,
        PAGES - survived_new
    );
}
