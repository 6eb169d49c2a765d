//! Checkpointed fast recovery — the paper's §4.5 future work, implemented:
//! snapshot the mapping tables into a reserved root region, then recover
//! by delta-scanning only the blocks that changed since.
//!
//! Run with `cargo run --release --example fast_recovery`. Exits non-zero
//! if either recovery programs a page: nothing on these images is torn.

use page_differential_logging::prelude::*;
use pdl_flash::OpCounts;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const PAGES: u64 = 4_096;
const MAX_DIFF: usize = 256;

/// Print one recovery's cost; exit non-zero if it programmed anything.
fn report(what: &str, cost: OpCounts) {
    println!(
        "{what:<26} {:>7} reads, {:>6.1} ms simulated, {} programs",
        cost.reads,
        cost.total_us() as f64 / 1000.0,
        cost.writes
    );
    if cost.writes != 0 {
        eprintln!("{what} programmed {} pages on an image with nothing torn", cost.writes);
        std::process::exit(1);
    }
}

fn build(checkpointed: bool) -> (Pdl, StoreOptions) {
    // 512 blocks = 64 MiB of data area; the root region is 8 blocks (1.6%).
    let opts = if checkpointed {
        StoreOptions::new(PAGES).with_checkpoint_blocks(8)
    } else {
        StoreOptions::new(PAGES)
    };
    let chip = FlashChip::new(FlashConfig::scaled(512));
    (Pdl::new(chip, opts, MAX_DIFF).expect("store"), opts)
}

fn churn(s: &mut Pdl, rounds: usize) {
    let size = s.logical_page_size();
    let mut rng = StdRng::seed_from_u64(42);
    let mut page = vec![0u8; size];
    for pid in 0..PAGES {
        rng.fill_bytes(&mut page);
        s.write_page(pid, &page).expect("load");
    }
    for _ in 0..rounds {
        let pid = rng.gen_range(0..PAGES);
        s.read_page(pid, &mut page).expect("read");
        let at = rng.gen_range(0..size - 41);
        rng.fill_bytes(&mut page[at..at + 41]);
        s.write_page(pid, &page).expect("update");
    }
}

fn main() {
    println!("database: {PAGES} pages on a 512-block chip\n");

    // Baseline: the paper's full Figure-11 scan.
    let (mut s, opts) = build(false);
    churn(&mut s, 8_000);
    s.flush().expect("write-through");
    let chip = Box::new(s).into_chip();
    let r = Pdl::recover(chip, opts, MAX_DIFF).expect("recover");
    let full = r.chip().stats().recovery;
    report("full-scan recovery:", full);

    // Checkpointed: snapshot after the churn, then light post-churn.
    let (mut s, opts) = build(true);
    churn(&mut s, 8_000);
    s.checkpoint().expect("checkpoint");
    // A little more activity after the checkpoint (the delta).
    let size = s.logical_page_size();
    let mut rng = StdRng::seed_from_u64(7);
    let mut page = vec![0u8; size];
    for _ in 0..200 {
        let pid = rng.gen_range(0..PAGES);
        s.read_page(pid, &mut page).expect("read");
        page[0] = page[0].wrapping_add(1);
        s.write_page(pid, &page).expect("update");
    }
    s.flush().expect("write-through");
    let chip = Box::new(s).into_chip();
    let r = Pdl::recover(chip, opts, MAX_DIFF).expect("recover");
    let fast = r.chip().stats().recovery;
    report("checkpoint + delta scan:", fast);
    println!(
        "\nspeedup: {:.1}x fewer reads (most unchanged blocks skipped entirely)",
        full.reads as f64 / fast.reads as f64
    );
    println!(
        "the paper: \"to recover the ... mapping table without scanning all the\n\
         physical pages ... we have to log the changes in the mapping table into\n\
         flash memory. We leave this extension as a further study.\" — done."
    );
}
