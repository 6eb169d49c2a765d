//! Single-page corruption testing, mirroring the exhaustive crash-point
//! sweep of `crash_point_properties.rs`:
//!
//! * a **corruption-point sweep**: a fixed, GC-heavy (and, for PDL,
//!   transactional) workload is run once to enumerate every programmed
//!   data page on the chip; then, once per page and per failure variant
//!   (data-area bit rot with the spare intact, and the spare-side
//!   checksum flip), the workload is re-run from scratch, the fault is
//!   injected ([`FlashChip::corrupt_data`] / [`FlashChip::corrupt_spare`])
//!   and every logical page is read back. Each read must either match
//!   the shadow model byte for byte (the page was unaffected, or PDL
//!   repaired it online) or fail with `CoreError::PageCorrupt` — wrong
//!   bytes must never be served silently;
//! * a **mid-GC-migration case**: a failed victim erase leaves the
//!   relocated base pages with byte-identical twins in the retired
//!   block, and corrupting the live copy must repair from the twin —
//!   byte for byte, at a cost far below a full recovery scan.

use pdl_core::{
    build_store, is_page_corrupt, BatchPage, CommitBatch, GcPolicy, MethodKind, PageStore,
    StoreOptions,
};
use pdl_flash::{BlockId, FlashChip, FlashConfig, PageKind, Ppn, SpareInfo};

const PAGES: u64 = 24;

/// The fixed workload script (same generator as the crash sweep):
/// `(pid, fill, whole_page)`.
fn script(len: usize, seed: u64) -> Vec<(u64, u8, bool)> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pid = (x >> 33) % PAGES;
            let fill = (x >> 17) as u8;
            let whole = (x >> 13).is_multiple_of(3);
            (pid, fill, whole)
        })
        .collect()
}

fn apply_op(page: &mut [u8], fill: u8, whole: bool) {
    if whole {
        page.fill(fill);
    } else {
        let at = (fill as usize * 5) % (page.len() - 16);
        page[at..at + 16].fill(fill ^ 0xA5);
    }
}

fn opts_for() -> StoreOptions {
    let mut opts = StoreOptions::new(PAGES).with_gc_policy(GcPolicy::Greedy);
    // Shrink the normally-allocatable space so the short script already
    // garbage-collects (corruption of GC-migrated pages is covered).
    opts.reserve_blocks = 10;
    opts
}

/// Run the whole deterministic workload on a fresh store and return it
/// with the shadow model (the byte-exact oracle for every logical page).
/// PDL additionally runs a few multi-page transactions through the
/// commit-record path, so differential pages carrying commit records are
/// among the corruption targets.
fn run_workload(kind: MethodKind) -> (Box<dyn PageStore>, Vec<Vec<u8>>) {
    let opts = opts_for();
    let mut store = build_store(FlashChip::new(FlashConfig::tiny()), kind, opts).unwrap();
    let size = store.logical_page_size();
    let mut truth: Vec<Vec<u8>> = (0..PAGES).map(|_| vec![0u8; size]).collect();
    for pid in 0..PAGES {
        store.write_page(pid, &truth[pid as usize]).unwrap();
    }
    let post_len = if matches!(kind, MethodKind::Ipl { .. }) { 24 } else { 45 };
    for (pid, fill, whole) in script(post_len, 0xCAFE) {
        apply_op(&mut truth[pid as usize], fill, whole);
        let p = truth[pid as usize].clone();
        store.write_page(pid, &p).unwrap();
    }
    if matches!(kind, MethodKind::Pdl { .. }) {
        for (k, ops) in script(9, 0x7C0FFEE).chunks(3).enumerate() {
            let txn = k as u64 + 1;
            // Each op stages the page as it stands after that op.
            let images: Vec<Vec<u8>> = ops
                .iter()
                .map(|(pid, fill, whole)| {
                    apply_op(&mut truth[*pid as usize], *fill, *whole);
                    truth[*pid as usize].clone()
                })
                .collect();
            let pages =
                ops.iter().zip(&images).map(|(op, img)| BatchPage::new(op.0, img, txn)).collect();
            store.commit_batch(&CommitBatch { pages, roots: None }).unwrap();
        }
    }
    store.flush().unwrap();
    let delta = store.stats();
    // IPU has no separate GC: every overwrite is already a full
    // erase-cycle of the page's block, so reclamation is exercised by
    // construction and nothing lands in the `gc` bucket.
    assert!(
        delta.gc.total_ops() > 0 || matches!(kind, MethodKind::Ipu),
        "{}: workload must garbage-collect",
        store.name()
    );
    (store, truth)
}

/// Whether `kind` is a page-kind the checksum covers (a corruption
/// target). `Free` pages carry no payload and `IplLog` pages append
/// sectors after the spare is written, so both are out of checksum scope.
fn checksummed(kind: PageKind) -> bool {
    matches!(kind, PageKind::Base | PageKind::Diff | PageKind::Data | PageKind::IplData)
}

/// The sweep body: every programmed data page x {data-area, spare-side}.
fn corruption_sweep(kind: MethodKind) {
    // Enumeration run: the workload is deterministic, so every re-run
    // places the same bytes at the same physical pages.
    let (store, truth) = run_workload(kind);
    let chip = store.chip();
    let targets: Vec<u32> = (0..chip.num_pages())
        .filter(|&p| {
            SpareInfo::decode(chip.peek_spare(Ppn(p))).is_some_and(|i| checksummed(i.kind))
        })
        .collect();
    assert!(targets.len() > 10, "{}: too few corruption targets ({})", store.name(), targets.len());
    let size = truth[0].len();
    drop(store);

    let mut detected_total = 0u64;
    for &ppn in &targets {
        for spare_side in [false, true] {
            let (mut store, truth) = run_workload(kind);
            if spare_side {
                store.chip_mut().corrupt_spare(Ppn(ppn)).unwrap();
            } else {
                store.chip_mut().corrupt_data(Ppn(ppn)).unwrap();
            }
            let name = store.name();
            let mut out = vec![0u8; size];
            let mut unavailable: Vec<u64> = Vec::new();
            for pid in 0..PAGES {
                match store.read_page(pid, &mut out) {
                    Ok(()) => assert_eq!(
                        out, truth[pid as usize],
                        "{name}: ppn {ppn} (spare={spare_side}): page {pid} served wrong bytes"
                    ),
                    Err(e) => {
                        assert!(
                            is_page_corrupt(&e),
                            "{name}: ppn {ppn}: page {pid} failed with a non-corruption error: {e}"
                        );
                        unavailable.push(pid);
                    }
                }
            }
            // A detected loss heals through the normal write path: a full
            // overwrite re-bases the page (PDL unpoisons, OPU remaps, IPU
            // cycles the block). IPL is the exception — its merge carries
            // the original's stale checksum forward, so the page stays
            // reported-corrupt rather than laundered back to "valid".
            for &pid in &unavailable {
                store.write_page(pid, &truth[pid as usize]).unwrap();
                match store.read_page(pid, &mut out) {
                    Ok(()) => assert_eq!(
                        out, truth[pid as usize],
                        "{name}: ppn {ppn}: page {pid} healed to wrong bytes"
                    ),
                    Err(e) => assert!(
                        matches!(kind, MethodKind::Ipl { .. }) && is_page_corrupt(&e),
                        "{name}: ppn {ppn}: page {pid} did not heal by overwrite: {e}"
                    ),
                }
            }
            detected_total += store.stats().integrity.detected_corruptions;
        }
    }
    // Live pages were among the targets, so the sweep as a whole must
    // have detected corruption — zero detections would mean verification
    // is silently disabled.
    assert!(detected_total > 0, "sweep never detected a corruption");
}

#[test]
fn corruption_sweep_pdl() {
    corruption_sweep(MethodKind::Pdl { max_diff_size: 64 });
}

#[test]
fn corruption_sweep_opu() {
    corruption_sweep(MethodKind::Opu);
}

#[test]
fn corruption_sweep_ipu() {
    corruption_sweep(MethodKind::Ipu);
}

#[test]
fn corruption_sweep_ipl() {
    corruption_sweep(MethodKind::Ipl { log_bytes_per_block: 512 });
}

/// The mid-GC-migration case: a victim erase that fails mid-GC retires
/// the block but leaves its contents readable — byte-identical twins of
/// every base page the GC had just relocated. Corrupting the live copy
/// must repair online from the twin: byte for byte, via the normal write
/// path, at a read cost far below a full recovery scan.
#[test]
fn pdl_repairs_migrated_bases_from_gc_twins() {
    let kind = MethodKind::Pdl { max_diff_size: 64 };
    let opts = opts_for();
    let mut store = build_store(FlashChip::new(FlashConfig::tiny()), kind, opts).unwrap();
    let size = store.logical_page_size();
    let mut truth: Vec<Vec<u8>> = (0..PAGES).map(|_| vec![0u8; size]).collect();
    for pid in 0..PAGES {
        store.write_page(pid, &truth[pid as usize]).unwrap();
    }
    for (pid, fill, whole) in script(45, 0xCAFE) {
        apply_op(&mut truth[pid as usize], fill, whole);
        let p = truth[pid as usize].clone();
        store.write_page(pid, &p).unwrap();
    }
    // Arm a one-shot erase failure on every block: the next GC victim
    // erase fails mid-collection, registering twins for the bases it had
    // just migrated out.
    let nb = store.chip().geometry().num_blocks;
    for b in 0..nb {
        store.chip_mut().fail_next_erase_of(BlockId(b));
    }
    let broke = |store: &dyn PageStore| (0..nb).any(|b| store.chip().is_broken(BlockId(b)));
    for (pid, fill, whole) in script(200, 0xBEEF) {
        apply_op(&mut truth[pid as usize], fill, whole);
        let p = truth[pid as usize].clone();
        store.write_page(pid, &p).unwrap();
        if broke(store.as_ref()) {
            break;
        }
    }
    assert!(broke(store.as_ref()), "the workload never drove a GC erase into the armed failure");
    store.flush().unwrap();

    let g = store.chip().geometry();
    let mut repaired = 0u64;
    for ppn in 0..store.chip().num_pages() {
        if repaired >= 2 {
            break; // bounded: every repair re-programs and can re-trigger GC
        }
        let Some(info) = SpareInfo::decode(store.chip().peek_spare(Ppn(ppn))) else { continue };
        if info.kind != PageKind::Base || info.obsolete || info.tag >= PAGES {
            continue;
        }
        if store.chip().is_broken(g.block_of(Ppn(ppn))) {
            continue; // twins themselves are not live copies
        }
        let pid = info.tag;
        let before = store.stats();
        store.chip_mut().corrupt_data(Ppn(ppn)).unwrap();
        let mut out = vec![0u8; size];
        match store.read_page(pid, &mut out) {
            Ok(()) => {
                assert_eq!(out, truth[pid as usize], "page {pid}: repair must be byte-exact");
                let after = store.stats();
                if after.integrity.repaired_pages > before.integrity.repaired_pages {
                    repaired += 1;
                    // Online repair cost: the corrupt read, the twin read
                    // and the re-program — nowhere near the full-chip scan
                    // a recovery pass would pay.
                    let reads = after.total().reads - before.total().reads;
                    assert!(
                        reads < (store.chip().num_pages() / 8) as u64,
                        "repair read {reads} pages; a full scan reads {}",
                        store.chip().num_pages()
                    );
                }
            }
            Err(e) => {
                assert!(is_page_corrupt(&e), "page {pid}: unexpected error: {e}");
                // No twin for this base: restore availability and go on.
                store.write_page(pid, &truth[pid as usize]).unwrap();
            }
        }
    }
    assert!(repaired >= 1, "no live base had a usable GC twin — the repair path never ran");
    // The store is fully intact afterwards: repair went through the
    // normal program path and marked the corrupt copies obsolete.
    let mut out = vec![0u8; size];
    for pid in 0..PAGES {
        store.read_page(pid, &mut out).unwrap();
        assert_eq!(out, truth[pid as usize], "page {pid} after repairs");
    }
}
