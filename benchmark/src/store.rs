//! What every workload shares below its own loop: how its page store is
//! built and recovered, and the correctness checks made on the store once
//! the measured phase is over.

use crate::rng::Rng;
use pdl_core::{
    build_store, recover_store, ChangeRange, MethodKind, PageStore, ShardedStore, StoreOptions,
};
use pdl_flash::{FlashChip, FlashConfig, FlashStats, PageKind, Ppn, SpareInfo};
use std::collections::BTreeMap;
use std::time::Instant;

/// The paper's method: PDL with `Max_Differential_Size` = 256 bytes, over
/// the Table-1 chip (2 KB pages) scaled to `blocks_per_chip` blocks.
pub const METHOD: MethodKind = MethodKind::Pdl { max_diff_size: 256 };

/// Bytes changed per update operation: 2 % of a 2 KB page.
pub const PATCH_LEN: usize = 41;

/// Chips and address space of one workload's store.
#[derive(Clone, Copy, Debug)]
pub struct StoreSpec {
    pub shards: usize,
    pub blocks_per_chip: u32,
    pub logical_pages: u64,
    pub checkpoint_blocks: u32,
}

impl StoreSpec {
    fn options(&self) -> StoreOptions {
        StoreOptions::new(self.logical_pages).with_checkpoint_blocks(self.checkpoint_blocks)
    }

    pub fn build(&self) -> Result<Box<dyn PageStore>, String> {
        let config = FlashConfig::scaled(self.blocks_per_chip);
        if self.shards == 1 {
            build_store(FlashChip::new(config), METHOD, self.options()).map_err(|e| e.to_string())
        } else {
            ShardedStore::with_uniform_chips(config, self.shards, METHOD, self.options())
                .map(|s| Box::new(s) as Box<dyn PageStore>)
                .map_err(|e| e.to_string())
        }
    }

    pub fn recover(&self, mut chips: Vec<FlashChip>) -> Result<Box<dyn PageStore>, String> {
        if self.shards == 1 {
            let chip = chips.pop().ok_or("no chip to recover")?;
            recover_store(chip, METHOD, self.options()).map_err(|e| e.to_string())
        } else {
            ShardedStore::recover(chips, METHOD, self.options())
                .map(|s| Box::new(s) as Box<dyn PageStore>)
                .map_err(|e| e.to_string())
        }
    }
}

/// Correctness-check mismatches; each one counts as a failed op.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub notes: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, n: u64, what: impl Into<String>) {
        if n > 0 {
            self.count += n;
            self.notes.push(format!("{} x {}", n, what.into()));
        }
    }

    pub fn expect(&mut self, ok: bool, what: impl Into<String>) {
        self.add(u64::from(!ok), what);
    }
}

/// Simulated flash time of a stats delta, all contexts.
pub fn flash_us(delta: &FlashStats) -> u64 {
    delta.total().total_us()
}

/// Read logical pages `0..pages` into one buffer.
pub fn read_all(store: &mut dyn PageStore, pages: u64) -> Result<Vec<u8>, String> {
    let ps = store.logical_page_size();
    let mut out = vec![0u8; pages as usize * ps];
    for (pid, page) in out.chunks_exact_mut(ps).enumerate() {
        store.read_page(pid as u64, page).map_err(|e| format!("read_page({pid}): {e}"))?;
    }
    Ok(out)
}

/// Pages of `have` that are not byte-equal to the same page of `want`.
fn mismatched_pages(have: &[u8], want: &[u8], page_size: usize) -> u64 {
    debug_assert_eq!(have.len(), want.len());
    have.chunks_exact(page_size).zip(want.chunks_exact(page_size)).filter(|(a, b)| a != b).count()
        as u64
}

/// Programmed, non-obsolete physical pages over all chips. Reads the spare
/// areas through the uncharged inspection calls, so no simulated time.
fn live_physical_pages(chips: &[FlashChip]) -> u64 {
    let mut live = 0;
    for chip in chips {
        let g = chip.geometry();
        for p in 0..g.num_blocks * g.pages_per_block {
            if chip.is_erased(Ppn(p)) {
                continue;
            }
            match SpareInfo::decode(chip.peek_spare(Ppn(p))) {
                Some(info) if info.obsolete || info.kind == PageKind::Bad => {}
                _ => live += 1,
            }
        }
    }
    live
}

/// A store taken down after its run: flushed, with the number of logical
/// pages in use.
pub struct Torn {
    pub store: Box<dyn PageStore>,
    pub spec: StoreSpec,
    pub pages: u64,
    /// What every page must hold, where the workload kept a shadow of its
    /// own during the run.
    pub expected: Option<Vec<u8>>,
}

pub struct Recovered {
    pub store: Box<dyn PageStore>,
    /// The flushed image of every page, as read before the chips were taken.
    pub shadow: Vec<u8>,
    pub space_amp: f64,
    pub flash_ms: f64,
    pub flash_reads: u64,
    pub host_ms: f64,
}

/// The check every workload ends with: read every page into a shadow, take
/// the chips, recover, re-read every page — byte-equal or failed.
///
/// `perturb` flips one byte of the shadow before the compare: the checker's
/// own self-test, which must surface as a failure. (It perturbs the
/// expectation, not the chip: PDL may repair a corrupted page from a GC
/// twin.)
pub fn recover_and_compare(
    torn: Torn,
    perturb: bool,
    failures: &mut Failures,
) -> Result<Recovered, String> {
    let Torn { mut store, spec, pages, expected } = torn;
    let ps = store.logical_page_size();
    let mut shadow = read_all(&mut *store, pages)?;
    if let Some(expected) = expected {
        failures.add(
            mismatched_pages(&shadow, &expected, ps),
            "page differs from the shadow kept during the run",
        );
    }
    let before = store.stats();
    let chips = store.into_chips();
    let space_amp = live_physical_pages(&chips) as f64 / pages as f64;

    let started = Instant::now();
    let mut store = spec.recover(chips)?;
    let host_ms = started.elapsed().as_secs_f64() * 1e3;
    let cost = store.stats().delta_since(&before);

    if perturb {
        let middle = shadow.len() / 2;
        shadow[middle] ^= 0x01;
    }
    let mut page = vec![0u8; ps];
    let mut differing = 0;
    for (pid, want) in shadow.chunks_exact(ps).enumerate() {
        store.read_page(pid as u64, &mut page).map_err(|e| format!("read_page({pid}): {e}"))?;
        differing += u64::from(page != want);
    }
    failures.add(differing, "page differs after recovery");
    Ok(Recovered {
        store,
        shadow,
        space_amp,
        flash_ms: flash_us(&cost) as f64 / 1e3,
        flash_reads: cost.total().reads,
        host_ms,
    })
}

/// One update operation of the paper (§5.1) against a raw store: read the
/// page, change [`PATCH_LEN`] contiguous bytes, report the change, reflect
/// the page.
pub fn update_op(
    store: &mut dyn PageStore,
    pid: u64,
    offset: usize,
    patch: &[u8],
    page: &mut [u8],
) -> pdl_core::Result<()> {
    store.read_page(pid, page)?;
    page[offset..offset + patch.len()].copy_from_slice(patch);
    store.apply_update(pid, page, &[ChangeRange::new(offset, patch.len())])?;
    store.evict_page(pid, page)
}

/// Crash with unacknowledged writes: update `count` distinct pages without
/// flushing, take the chips (the test, not the OS, discards what was never
/// flushed), recover. Each updated page must equal its pre- or post-image,
/// every other page its flushed image in `shadow`.
pub fn unflushed_crash_check(
    mut store: Box<dyn PageStore>,
    shadow: &[u8],
    spec: &StoreSpec,
    count: u64,
    seed: u64,
    failures: &mut Failures,
) -> Result<(), String> {
    let ps = store.logical_page_size();
    let pages = (shadow.len() / ps) as u64;
    let mut rng = Rng::fork(seed, 0xC8A5);
    let mut post: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut patch = [0u8; PATCH_LEN];
    let mut page = vec![0u8; ps];
    while (post.len() as u64) < count.min(pages) {
        let pid = rng.below(pages);
        if post.contains_key(&pid) {
            continue;
        }
        let offset = rng.below((ps - PATCH_LEN + 1) as u64) as usize;
        rng.fill(&mut patch);
        update_op(&mut *store, pid, offset, &patch, &mut page)
            .map_err(|e| format!("unflushed update of page {pid}: {e}"))?;
        post.insert(pid, page.clone());
    }
    let mut store = spec.recover(store.into_chips())?;
    let (mut torn, mut lost) = (0, 0);
    for pid in 0..pages {
        store.read_page(pid, &mut page).map_err(|e| format!("read_page({pid}): {e}"))?;
        let pre = &shadow[pid as usize * ps..][..ps];
        match post.get(&pid) {
            Some(post) if page != pre && page != *post => torn += 1,
            None if page != pre => lost += 1,
            _ => {}
        }
    }
    failures.add(torn, "unflushed page is neither its pre- nor its post-image after a crash");
    failures.add(lost, "flushed page changed across a crash");
    Ok(())
}
