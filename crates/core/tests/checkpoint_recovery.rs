//! Tests for the checkpointed fast-recovery extension (the paper's §4.5
//! future work): correctness after arbitrary churn, crash-atomicity of
//! checkpoint writing, and the read-cost advantage over the full scan.

use pdl_core::{is_power_loss, BatchPage, CommitBatch, CommitError, PageStore, Pdl, StoreOptions};
use pdl_flash::{FlashChip, FlashConfig};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const PAGES: u64 = 300;
const MAX_DIFF: usize = 256;
const CKPT_BLOCKS: u32 = 4;

fn opts() -> StoreOptions {
    StoreOptions::new(PAGES).with_checkpoint_blocks(CKPT_BLOCKS)
}

fn fresh() -> Pdl {
    // Paper geometry, 24 blocks: root region 4, data region 20.
    Pdl::new(FlashChip::new(FlashConfig::scaled(24)), opts(), MAX_DIFF).unwrap()
}

/// Load + update randomly; returns the truth.
fn churn(s: &mut Pdl, rounds: usize, seed: u64) -> Vec<Vec<u8>> {
    let size = s.logical_page_size();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut truth: Vec<Vec<u8>> = Vec::new();
    let mut page = vec![0u8; size];
    for pid in 0..PAGES {
        rng.fill_bytes(&mut page);
        s.write_page(pid, &page).unwrap();
        truth.push(page.clone());
    }
    for _ in 0..rounds {
        let pid = rng.gen_range(0..PAGES) as usize;
        let at = rng.gen_range(0..size - 40);
        for b in truth[pid][at..at + 40].iter_mut() {
            *b = rng.gen();
        }
        let p = truth[pid].clone();
        s.write_page(pid as u64, &p).unwrap();
    }
    truth
}

fn verify(s: &mut Pdl, truth: &[Vec<u8>]) {
    let mut out = vec![0u8; s.logical_page_size()];
    for (pid, expect) in truth.iter().enumerate() {
        s.read_page(pid as u64, &mut out).unwrap();
        assert_eq!(&out, expect, "pid {pid}");
    }
}

#[test]
fn checkpoint_then_recover_restores_everything() {
    let mut s = fresh();
    let truth = churn(&mut s, 600, 1);
    s.checkpoint().unwrap();
    let chip = Box::new(s).into_chip();
    let mut r = Pdl::recover(chip, opts(), MAX_DIFF).unwrap();
    verify(&mut r, &truth);
}

#[test]
fn post_checkpoint_updates_survive_via_delta_scan() {
    let mut s = fresh();
    let mut truth = churn(&mut s, 400, 2);
    s.checkpoint().unwrap();
    // More churn after the checkpoint, enough to trigger GC (erased
    // blocks => invalidated fingerprints => purge + full-block replay).
    let size = s.logical_page_size();
    let mut rng = StdRng::seed_from_u64(22);
    for _ in 0..4000 {
        let pid = rng.gen_range(0..PAGES) as usize;
        let at = rng.gen_range(0..size - 64);
        for b in truth[pid][at..at + 64].iter_mut() {
            *b = rng.gen();
        }
        let p = truth[pid].clone();
        s.write_page(pid as u64, &p).unwrap();
    }
    assert!(s.chip().stats().total().erases > 0, "churn must GC");
    s.flush().unwrap();
    let chip = Box::new(s).into_chip();
    let mut r = Pdl::recover(chip, opts(), MAX_DIFF).unwrap();
    verify(&mut r, &truth);
    // And the store keeps working: more churn + another checkpoint.
    let _ = churn(&mut r, 50, 3);
    r.checkpoint().unwrap();
}

#[test]
fn delta_recovery_never_re_marks_what_the_running_store_marked() {
    // After the checkpoint, whole-page rewrites supersede loaded base
    // pages and small ones loaded differentials; the running store marks
    // every superseded page itself. The delta replay meets those pages
    // only through the loaded tables, so it must look before it marks.
    let mut s = fresh();
    let mut truth = churn(&mut s, 200, 10);
    s.checkpoint().unwrap();
    for pid in 0..40usize {
        if pid < 20 {
            truth[pid].fill(pid as u8);
        } else {
            truth[pid][100..120].fill(0x5C);
        }
        s.write_page(pid as u64, &truth[pid]).unwrap();
    }
    s.flush().unwrap();
    let mut r = Pdl::recover(Box::new(s).into_chip(), opts(), MAX_DIFF).unwrap();
    verify(&mut r, &truth);
    assert_eq!(r.chip().stats().recovery.writes, 0, "nothing was left to mark");
    let r = Pdl::recover(Box::new(r).into_chip(), opts(), MAX_DIFF).unwrap();
    assert_eq!(r.chip().stats().recovery.writes, 0, "nor after a second recovery");
}

#[test]
fn fresh_checkpoint_recovery_reads_far_fewer_pages() {
    // Full scan: one read per page. Fast recovery: ~two reads per block
    // plus the checkpoint itself.
    let build_state = |use_ckpt: bool| -> (FlashChip, StoreOptions) {
        let o = if use_ckpt { opts() } else { StoreOptions::new(PAGES) };
        let mut s = Pdl::new(FlashChip::new(FlashConfig::scaled(24)), o, MAX_DIFF).unwrap();
        churn(&mut s, 400, 4);
        if use_ckpt {
            s.checkpoint().unwrap();
        } else {
            s.flush().unwrap();
        }
        (Box::new(s).into_chip(), o)
    };

    let (chip, o) = build_state(false);
    let full = Pdl::recover(chip, o, MAX_DIFF).unwrap();
    let full_reads = full.chip().stats().recovery.reads;

    let (chip, o) = build_state(true);
    let fast = Pdl::recover(chip, o, MAX_DIFF).unwrap();
    let fast_reads = fast.chip().stats().recovery.reads;

    assert!(
        fast_reads * 3 < full_reads,
        "fast recovery must read far fewer pages: {fast_reads} vs {full_reads}"
    );
}

#[test]
fn crash_during_checkpoint_falls_back_to_previous_state() {
    let mut s = fresh();
    let truth = churn(&mut s, 300, 5);
    s.checkpoint().unwrap(); // checkpoint A (committed)
                             // More updates, then a checkpoint that dies before its header lands.
    let size = s.logical_page_size();
    let mut truth2 = truth.clone();
    truth2[7][0..8].fill(0x9A);
    let p = truth2[7].clone();
    s.write_page(7, &p).unwrap();
    s.flush().unwrap();
    s.chip_mut().arm_fault(3); // a few payload programs, no header
    let err = s.checkpoint().unwrap_err();
    assert!(is_power_loss(&err));
    let mut chip = Box::new(s).into_chip();
    chip.disarm_fault();
    // Recovery must use checkpoint A + delta scan and still see the
    // post-A flushed update.
    let mut r = Pdl::recover(chip, opts(), MAX_DIFF).unwrap();
    verify(&mut r, &truth2);
    let _ = size;
}

#[test]
fn alternating_checkpoints_double_buffer() {
    let mut s = fresh();
    let mut truth = churn(&mut s, 200, 6);
    for round in 0..5u8 {
        // Update one page distinctly each round, checkpoint, and make sure
        // recovery lands on the latest state.
        truth[3].fill(round);
        let p = truth[3].clone();
        s.write_page(3, &p).unwrap();
        s.checkpoint().unwrap();
    }
    let chip = Box::new(s).into_chip();
    let mut r = Pdl::recover(chip, opts(), MAX_DIFF).unwrap();
    verify(&mut r, &truth);
    // Another checkpoint after recovery continues the sequence without
    // clobbering the half we just recovered from.
    truth[3].fill(0xEE);
    let p = truth[3].clone();
    r.write_page(3, &p).unwrap();
    r.checkpoint().unwrap();
    let chip = Box::new(r).into_chip();
    let mut r2 = Pdl::recover(chip, opts(), MAX_DIFF).unwrap();
    verify(&mut r2, &truth);
}

#[test]
fn unflushed_buffer_still_lost_with_checkpoints() {
    // Checkpointing flushes the write buffer; updates after the last
    // flush/checkpoint that stayed in the buffer are lost, as §4.5
    // specifies for any buffered data.
    let mut s = fresh();
    let truth = churn(&mut s, 100, 7);
    s.checkpoint().unwrap();
    let size = s.logical_page_size();
    let mut volatile = truth[5].clone();
    volatile[10] = volatile[10].wrapping_add(1);
    s.write_page(5, &volatile).unwrap(); // differential stays buffered
    let chip = Box::new(s).into_chip();
    let mut r = Pdl::recover(chip, opts(), MAX_DIFF).unwrap();
    let mut out = vec![0u8; size];
    r.read_page(5, &mut out).unwrap();
    assert_eq!(out, truth[5], "buffered differential must be lost");
}

#[test]
fn bad_root_region_configs_are_rejected() {
    let chip = FlashChip::new(FlashConfig::scaled(24));
    assert!(Pdl::new(chip.clone(), StoreOptions::new(64).with_checkpoint_blocks(1), 256).is_err());
    assert!(Pdl::new(chip.clone(), StoreOptions::new(64).with_checkpoint_blocks(24), 256).is_err());
    // Checkpoint call without a root region fails cleanly.
    let mut s = Pdl::new(chip, StoreOptions::new(64), 256).unwrap();
    assert!(s.checkpoint().is_err());
}

#[test]
fn sharded_recovery_precheck_rides_the_checkpoint_delta() {
    // Each shard's read pass — the census the torn-commit verdict and the
    // replay both run over — must be restricted to the blocks changed
    // since the shard's checkpoint (the single-store fast path's
    // restriction), keeping the ~pages_per_block× recovery read reduction
    // under sharding, while still resolving a cross-shard torn commit
    // correctly from the delta alone.
    use pdl_core::{MethodKind, ShardedStore};

    const SPAGES: u64 = 128;
    let kind = MethodKind::Pdl { max_diff_size: MAX_DIFF };

    // Build, churn, (maybe) checkpoint, then one committed and one torn
    // cross-shard transaction, then crash.
    let build_state = |use_ckpt: bool| -> (Vec<FlashChip>, StoreOptions, Vec<Vec<u8>>) {
        let o = if use_ckpt {
            StoreOptions::new(SPAGES).with_checkpoint_blocks(CKPT_BLOCKS)
        } else {
            StoreOptions::new(SPAGES)
        };
        let mut s = ShardedStore::with_uniform_chips(FlashConfig::scaled(24), 2, kind, o).unwrap();
        let size = s.logical_page_size();
        let mut rng = StdRng::seed_from_u64(9);
        let mut truth: Vec<Vec<u8>> = Vec::new();
        let mut page = vec![0u8; size];
        for pid in 0..SPAGES {
            rng.fill_bytes(&mut page);
            s.write_page(pid, &page).unwrap();
            truth.push(page.clone());
        }
        // Whole-page rewrites fill most of each chip: the full scan reads
        // only written pages, so an empty chip would flatter the delta.
        for round in 0..2400 {
            let pid = round % SPAGES as usize;
            rng.fill_bytes(&mut truth[pid]);
            s.write_page(pid as u64, &truth[pid]).unwrap();
        }
        for _ in 0..400 {
            let pid = rng.gen_range(0..SPAGES) as usize;
            let at = rng.gen_range(0..size - 40);
            for b in truth[pid][at..at + 40].iter_mut() {
                *b = rng.gen();
            }
            let p = truth[pid].clone();
            s.write_page(pid as u64, &p).unwrap();
        }
        if use_ckpt {
            s.checkpoint().unwrap();
        } else {
            s.flush().unwrap();
        }
        // Committed transaction spanning both shards (pids 0 and 1).
        for pid in [0usize, 1] {
            truth[pid][0..8].fill(0xC0);
        }
        let pages = vec![BatchPage::new(0, &truth[0], 500), BatchPage::new(1, &truth[1], 500)];
        s.commit_batch(&CommitBatch { pages, roots: None }).unwrap();
        // Torn transaction spanning both shards: shard 1 stage-flushes its
        // differential, and power fails on shard 0, which holds the
        // batch's one record, before that record lands.
        let torn: Vec<Vec<u8>> = [2usize, 3]
            .iter()
            .map(|&pid| {
                let mut p = truth[pid].clone();
                p[0..8].fill(0xAD);
                p
            })
            .collect();
        for (shard, budget) in [(0, 0), (1, 1)] {
            s.shard_mut(shard).chip_mut().arm_fault(budget);
        }
        let before = s.per_shard_stats();
        let pages = vec![BatchPage::new(2, &torn[0], 501), BatchPage::new(3, &torn[1], 501)];
        let err = s.commit_batch(&CommitBatch { pages, roots: None }).unwrap_err();
        assert!(matches!(err, CommitError::Failed(_)), "{err}");
        for (shard, now) in s.per_shard_stats().iter().enumerate() {
            let programs = now.delta_since(&before[shard]).total().writes;
            assert_eq!(programs, shard as u64, "shard {shard}: only shard 1's stage flush landed");
        }
        let mut chips = s.into_shard_chips();
        chips.iter_mut().for_each(FlashChip::disarm_fault);
        (chips, o, truth)
    };

    let (chips, o, _) = build_state(false);
    let full = ShardedStore::recover(chips, kind, o).unwrap();
    let full_reads: u64 = full.per_shard_stats().iter().map(|st| st.recovery.reads).sum();

    let (chips, o, truth) = build_state(true);
    let mut fast = ShardedStore::recover(chips, kind, o).unwrap();
    let fast_reads: u64 = fast.per_shard_stats().iter().map(|st| st.recovery.reads).sum();

    assert!(
        fast_reads * 3 < full_reads,
        "checkpoint-aware sharded recovery must read far fewer pages: \
         {fast_reads} vs {full_reads}"
    );

    // Correctness: the committed transaction survived, the torn one
    // rolled back to pre-images, everything else is intact.
    let size = fast.logical_page_size();
    let mut out = vec![0u8; size];
    for (pid, expect) in truth.iter().enumerate() {
        fast.read_page(pid as u64, &mut out).unwrap();
        assert_eq!(&out, expect, "pid {pid}");
    }
}

#[test]
fn a_checkpoint_of_another_codec_version_is_no_checkpoint() {
    // Patch the version field of a real checkpoint header from 5 to 0
    // (programming NAND only clears bits): recovery must not trust a
    // byte of it, and fall back to the full scan.
    let build_state = |patch: bool| -> (FlashChip, Vec<Vec<u8>>) {
        let mut s = fresh();
        let truth = churn(&mut s, 400, 9);
        s.checkpoint().unwrap();
        let mut chip = Box::new(s).into_chip();
        if patch {
            let g = chip.geometry();
            let header = (0..CKPT_BLOCKS * g.pages_per_block)
                .map(pdl_flash::Ppn)
                .find(|p| {
                    let kind = chip.read_spare(*p).unwrap().map(|i| i.kind);
                    kind == Some(pdl_flash::PageKind::CheckpointHead)
                })
                .expect("the checkpoint wrote a header page");
            assert_eq!(chip.peek_data(header)[4..6], [5, 0], "magic u32, then version u16");
            chip.set_nop_data(2); // allow the one extra program of the patch
            chip.program_partial(header, 4, &[0, 0]).unwrap();
        }
        chip.reset_stats();
        (chip, truth)
    };
    let fast = Pdl::recover(build_state(false).0, opts(), MAX_DIFF).unwrap();
    let fast_reads = fast.chip().stats().recovery.reads;
    let (chip, truth) = build_state(true);
    let mut full = Pdl::recover(chip, opts(), MAX_DIFF).unwrap();
    let full_reads = full.chip().stats().recovery.reads;
    assert!(
        fast_reads * 3 < full_reads,
        "a version-0 header must send recovery to the full scan: {full_reads} vs {fast_reads}"
    );
    verify(&mut full, &truth);
}

#[test]
fn checkpoint_counts_appear_in_counters() {
    let mut s = fresh();
    churn(&mut s, 50, 8);
    s.checkpoint().unwrap();
    s.checkpoint().unwrap();
    let counters = s.counters();
    let c = counters.iter().find(|(k, _)| *k == "checkpoints").unwrap();
    assert_eq!(c.1, 2);
}
