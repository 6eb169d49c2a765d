//! OPU — the page-based method with **out-place update** and page-level
//! mapping (§3 of the paper).
//!
//! When an updated logical page must be reflected into flash, the whole
//! page is written into a freshly allocated physical page and the previous
//! copy is *set to obsolete* — which itself costs one (spare-area) write
//! operation, so OPU pays **two write operations per update** plus
//! amortised garbage collection. Reading a logical page costs exactly one
//! read operation per frame. The paper uses OPU with page-level mapping as
//! the representative page-based method because it "is known to have good
//! performance even though the method consumes memory excessively".
//!
//! Garbage collection moves a victim's mapped pages, one read each; which
//! pages those are, the allocator's page bitmap says, so stale copies are
//! never read.

use crate::error::CoreError;
use crate::ftl::{
    make_spare, make_spare_preserving, mark_obsolete_lenient, AllocOutcome, BlockManager,
};
use crate::page_store::{ChangeRange, MethodKind, PageStore, StoreOptions};
use crate::Result;
use pdl_flash::{FlashChip, OpContext, PageBuf, PageKind, Ppn};

const NONE: u32 = u32::MAX;

/// The physical pages a frame of `map` points at: OPU's live pages.
fn mapped_pages(map: &[u32], num_pages: u32) -> Vec<bool> {
    let mut live = vec![false; num_pages as usize];
    for &p in map.iter().filter(|p| **p != NONE) {
        live[p as usize] = true;
    }
    live
}

/// Out-place update page store.
pub struct Opu {
    chip: FlashChip,
    opts: StoreOptions,
    /// Frame -> physical page (page-level mapping table).
    map: Vec<u32>,
    alloc: BlockManager,
    ts: u64,
    in_gc: bool,
    // Counters.
    gc_runs: u64,
    relocated_pages: u64,
    bad_blocks: u64,
}

impl Opu {
    /// Create an OPU store over a fresh (or fully erased region of a) chip.
    pub fn new(chip: FlashChip, opts: StoreOptions) -> Result<Opu> {
        opts.validate(&chip)?;
        let g = chip.geometry();
        let frames = opts.num_frames();
        let usable = (g.num_blocks.saturating_sub(opts.reserve_blocks + 1)) as u64
            * g.pages_per_block as u64;
        if frames > usable {
            return Err(CoreError::BadConfig(format!(
                "{frames} frames do not fit: only {usable} pages usable outside the GC reserve"
            )));
        }
        let mut alloc = BlockManager::new(g.num_blocks, g.pages_per_block, opts.reserve_blocks);
        alloc.set_policy(opts.gc_policy);
        Ok(Opu {
            chip,
            opts,
            map: vec![NONE; frames as usize],
            alloc,
            ts: 1,
            in_gc: false,
            gc_runs: 0,
            relocated_pages: 0,
            bad_blocks: 0,
        })
    }

    /// Rebuild an OPU store from chip contents after a crash: one scan over
    /// the spare areas reconstructs the page-level mapping table, keeping
    /// the most recent copy of every frame (by creation time stamp) and
    /// setting stale copies to obsolete. Every written page the table does
    /// not map is dead to the allocator.
    pub fn recover(mut chip: FlashChip, opts: StoreOptions) -> Result<Opu> {
        opts.validate(&chip)?;
        let g = chip.geometry();
        let frames = opts.num_frames() as usize;
        let mut map = vec![NONE; frames];
        let mut frame_ts = vec![0u64; frames];
        let mut written = vec![0u32; g.num_blocks as usize];
        let mut max_ts = 0u64;
        chip.set_context(OpContext::Recovery);
        let scan_t0 = chip.sim_now_us();
        for p in 0..g.num_pages() {
            let ppn = Ppn(p);
            let block = g.block_of(ppn).0 as usize;
            let Some(info) = chip.read_spare(ppn)? else { continue };
            if info.kind == PageKind::Free {
                continue;
            }
            written[block] += 1;
            if info.obsolete {
                continue;
            }
            if info.kind != PageKind::Data {
                return Err(CoreError::Corruption(format!(
                    "OPU recovery found a {:?} page at {ppn}",
                    info.kind
                )));
            }
            max_ts = max_ts.max(info.ts);
            let frame = info.tag as usize;
            // Stale copies may sit in blocks whose erase failed: their
            // spare areas cannot be programmed, but the block is retired
            // below, so the lenient mark suffices.
            if frame >= frames {
                mark_obsolete_lenient(&mut chip, ppn)?;
                continue;
            }
            if map[frame] == NONE || info.ts > frame_ts[frame] {
                if map[frame] != NONE {
                    mark_obsolete_lenient(&mut chip, Ppn(map[frame]))?;
                }
                map[frame] = p;
                frame_ts[frame] = info.ts;
            } else {
                mark_obsolete_lenient(&mut chip, ppn)?;
            }
        }
        crate::page_store::obs_event(
            &mut chip,
            pdl_flash::LatencyClass::RecoveryPhase,
            "recovery",
            "recovery",
            scan_t0,
            0,
            0,
        );
        chip.set_context(OpContext::User);
        let mut alloc = BlockManager::new(g.num_blocks, g.pages_per_block, opts.reserve_blocks);
        alloc.set_policy(opts.gc_policy);
        let live = mapped_pages(&map, g.num_pages());
        alloc.rebuild(&written, |p| live[p.0 as usize]);
        // Retire blocks the chip knows are broken so GC never picks one
        // as a victim (its erase would fail again, forever).
        for b in 0..g.num_blocks {
            if chip.is_broken(pdl_flash::BlockId(b)) {
                alloc.retire_block(pdl_flash::BlockId(b));
            }
        }
        Ok(Opu {
            chip,
            opts,
            map,
            alloc,
            ts: max_ts + 1,
            in_gc: false,
            gc_runs: 0,
            relocated_pages: 0,
            bad_blocks: 0,
        })
    }

    /// Check the allocator's page bitmap against the mapping table (tests
    /// call this between operations): a written page is dead exactly when
    /// no frame maps to it.
    #[doc(hidden)]
    pub fn check_tables(&self) -> std::result::Result<(), String> {
        let live = mapped_pages(&self.map, self.chip.geometry().num_pages());
        self.alloc.check_pages(|p| live[p.0 as usize])
    }

    fn alloc_page(&mut self) -> Result<Ppn> {
        match self.alloc.alloc(self.in_gc)? {
            AllocOutcome::Page(p) => Ok(p),
            AllocOutcome::NeedsGc => {
                debug_assert!(false, "allocation after ensure_capacity must not need GC");
                self.gc_once()?;
                match self.alloc.alloc(self.in_gc)? {
                    AllocOutcome::Page(p) => Ok(p),
                    AllocOutcome::NeedsGc => Err(CoreError::StorageFull),
                }
            }
        }
    }

    /// Run GC until `n` further pages can be allocated without touching the
    /// reserve. Called at operation entry so GC never interleaves with a
    /// half-applied multi-frame write.
    fn ensure_capacity(&mut self, n: u32) -> Result<()> {
        let mut guard = 0u32;
        while self.alloc.normal_capacity() < n as u64 {
            self.gc_once()?;
            guard += 1;
            if guard > 2 * self.alloc.num_blocks() {
                return Err(CoreError::StorageFull);
            }
        }
        Ok(())
    }

    fn gc_once(&mut self) -> Result<()> {
        debug_assert!(!self.in_gc, "nested GC");
        self.in_gc = true;
        self.chip.set_context(OpContext::Gc);
        let t0 = self.chip.sim_now_us();
        let result = self.gc_inner();
        crate::page_store::obs_event(
            &mut self.chip,
            pdl_flash::LatencyClass::GcPause,
            "gc",
            "gc",
            t0,
            0,
            self.gc_runs,
        );
        self.chip.set_context(OpContext::User);
        self.in_gc = false;
        result
    }

    fn gc_inner(&mut self) -> Result<()> {
        let g = self.chip.geometry();
        // Only victims whose relocation (plus slack) fits the free pool:
        // a failed erase must never strand GC mid-relocation.
        let budget = self.alloc.gc_capacity().saturating_sub(0) as u32;
        let victim = self.alloc.pick_victim(budget).ok_or(CoreError::StorageFull)?;
        let written = self.alloc.written_in(victim);
        let mut page = PageBuf::for_chip(&self.chip);
        for idx in 0..written {
            let ppn = g.page_at(victim, idx);
            // Validity is in RAM: a stale copy is skipped unread, and a
            // live one is read once, spare and data together.
            if self.alloc.is_dead(ppn) {
                continue;
            }
            self.chip.read_full(ppn, &mut page)?;
            let Some(info) = page.spare_info().filter(|i| i.kind != PageKind::Free) else {
                continue; // allocated, but the program never happened
            };
            let frame = info.tag as usize;
            let mapped = frame < self.map.len() && self.map[frame] == ppn.0;
            debug_assert!(mapped, "GC found live page {ppn} that no frame maps");
            if !mapped {
                continue;
            }
            // A corrupt page still migrates (GC must free the block),
            // carrying the original checksum below so the damage stays
            // detectable at the next read — OPU has no redundant source
            // to rebuild from. The check counts the detection.
            let _ = self.chip.verify_read(ppn, &page.data);
            let q = self.alloc_page()?;
            let spare = make_spare_preserving(g.spare_size, &info);
            self.chip.program_page(q, &page.data, &spare)?;
            self.map[frame] = q.0;
            self.relocated_pages += 1;
        }
        match self.chip.erase_block(victim) {
            Ok(()) => self.alloc.on_erased(victim),
            // Bad-block management: valid pages were already relocated,
            // so retire the block and let the caller pick another victim
            // — whether its erase failed just now (`EraseFailed`) or
            // before a crash whose recovery rebuilt it as a regular
            // `Used` block (`BadBlock`); without retirement GC would
            // pick the broken block as a victim forever.
            Err(pdl_flash::FlashError::EraseFailed(b) | pdl_flash::FlashError::BadBlock(b)) => {
                self.alloc.retire_block(b);
                self.bad_blocks += 1;
            }
            Err(e) => return Err(e.into()),
        }
        self.gc_runs += 1;
        Ok(())
    }
}

impl PageStore for Opu {
    fn options(&self) -> &StoreOptions {
        &self.opts
    }

    fn read_page(&mut self, pid: u64, out: &mut [u8]) -> Result<()> {
        self.opts.check_pid(pid)?;
        let ds = self.chip.geometry().data_size;
        self.opts.check_page_buf(ds, out)?;
        let k = self.opts.frames_per_page as u64;
        for j in 0..k {
            let frame = (pid * k + j) as usize;
            let slice = &mut out[(j as usize) * ds..(j as usize + 1) * ds];
            if self.map[frame] == NONE {
                slice.fill(0);
            } else {
                match self.chip.read_data_verified(Ppn(self.map[frame]), slice) {
                    Ok(()) => {}
                    // No redundant source: report, never serve.
                    Err(pdl_flash::FlashError::ChecksumMismatch(p)) => {
                        slice.fill(0);
                        return Err(CoreError::PageCorrupt { pid, ppn: p.0 });
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
        Ok(())
    }

    /// Read-ahead: issue the mapped frame reads without waiting.
    fn prefetch(&mut self, pid: u64) -> Result<()> {
        self.opts.check_pid(pid)?;
        let k = self.opts.frames_per_page as u64;
        for j in 0..k {
            let frame = (pid * k + j) as usize;
            if self.map[frame] != NONE {
                self.chip.prefetch_page(Ppn(self.map[frame]))?;
            }
        }
        Ok(())
    }

    fn apply_update(&mut self, _pid: u64, _page: &[u8], _changes: &[ChangeRange]) -> Result<()> {
        Ok(()) // loosely coupled: OPU acts only when the page is reflected
    }

    fn consumes_updates(&self) -> bool {
        false
    }

    fn evict_page(&mut self, pid: u64, page: &[u8]) -> Result<()> {
        self.opts.check_pid(pid)?;
        let ds = self.chip.geometry().data_size;
        self.opts.check_page_buf(ds, page)?;
        let k = self.opts.frames_per_page;
        self.ensure_capacity(k)?;
        let g = self.chip.geometry();
        let ts = self.ts;
        self.ts += 1;
        for j in 0..k as usize {
            let frame = pid as usize * k as usize + j;
            let data = &page[j * ds..(j + 1) * ds];
            let q = self.alloc_page()?;
            let spare = make_spare(g.spare_size, PageKind::Data, frame as u64, ts, data);
            self.chip.program_page(q, data, &spare)?;
            let old = self.map[frame];
            if old != NONE {
                // Setting the original page to obsolete: one write operation.
                mark_obsolete_lenient(&mut self.chip, Ppn(old))?;
                self.alloc.note_obsolete(Ppn(old));
            }
            self.map[frame] = q.0;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        Ok(()) // nothing buffered in memory
    }

    fn chip(&self) -> &FlashChip {
        &self.chip
    }

    fn chip_mut(&mut self) -> &mut FlashChip {
        &mut self.chip
    }

    fn name(&self) -> String {
        MethodKind::Opu.label()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("gc_runs", self.gc_runs),
            ("relocated_pages", self.relocated_pages),
            ("bad_blocks", self.bad_blocks),
        ]
    }

    fn into_chips(self: Box<Self>) -> Vec<FlashChip> {
        vec![self.chip]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_flash::FlashConfig;

    fn store(pages: u64) -> Opu {
        let chip = FlashChip::new(FlashConfig::tiny());
        Opu::new(chip, StoreOptions::new(pages)).unwrap()
    }

    fn page(fill: u8, store: &Opu) -> Vec<u8> {
        vec![fill; store.logical_page_size()]
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = store(8);
        let p = page(0xA7, &s);
        s.write_page(3, &p).unwrap();
        let mut out = page(0, &s);
        s.read_page(3, &mut out).unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn unwritten_pages_read_as_zero() {
        let mut s = store(4);
        let mut out = page(0xFF, &s);
        s.read_page(2, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn update_costs_two_writes_and_read_costs_one() {
        let mut s = store(8);
        let p = page(1, &s);
        s.write_page(0, &p).unwrap();
        let before = s.chip().stats().total();
        let p2 = page(2, &s);
        s.write_page(0, &p2).unwrap();
        let d = s.chip().stats().total() - before;
        // One page program + one obsolete mark.
        assert_eq!(d.writes, 2);
        assert_eq!(d.reads, 0);
        let before = s.chip().stats().total();
        let mut out = page(0, &s);
        s.read_page(0, &mut out).unwrap();
        let d = s.chip().stats().total() - before;
        assert_eq!(d.reads, 1);
        assert_eq!(out, p2);
    }

    #[test]
    fn first_write_has_no_obsolete_cost() {
        let mut s = store(8);
        let before = s.chip().stats().total();
        s.write_page(5, &page(9, &s)).unwrap();
        let d = s.chip().stats().total() - before;
        assert_eq!(d.writes, 1);
    }

    #[test]
    fn sustained_updates_trigger_gc_and_preserve_data() {
        // Tiny chip: 16 blocks x 8 pages = 128 pages; 8 logical pages leave
        // plenty of slack, so GC must reclaim obsolete copies repeatedly.
        let mut s = store(8);
        for round in 0..200u32 {
            let pid = (round % 8) as u64;
            let p = page(round as u8, &s);
            s.write_page(pid, &p).unwrap();
        }
        assert!(s.gc_runs > 0, "GC should have run");
        // Last 8 writes are rounds 192..200.
        for pid in 0..8u64 {
            let mut out = page(0, &s);
            s.read_page(pid, &mut out).unwrap();
            let expect = (192 + pid) as u8;
            assert!(out.iter().all(|&b| b == expect), "pid {pid}");
        }
    }

    #[test]
    fn multi_frame_pages_round_trip() {
        let chip = FlashChip::new(FlashConfig::tiny());
        let mut s = Opu::new(chip, StoreOptions::new(4).with_frames_per_page(2)).unwrap();
        let ds = s.chip().geometry().data_size;
        let mut p = vec![0u8; 2 * ds];
        p[..ds].fill(1);
        p[ds..].fill(2);
        s.write_page(1, &p).unwrap();
        let mut out = vec![0u8; 2 * ds];
        s.read_page(1, &mut out).unwrap();
        assert_eq!(out, p);
        // Two frames -> two reads.
        let before = s.chip().stats().total();
        s.read_page(1, &mut out).unwrap();
        assert_eq!((s.chip().stats().total() - before).reads, 2);
    }

    #[test]
    fn recovery_rebuilds_mapping() {
        let mut s = store(8);
        for pid in 0..8u64 {
            s.write_page(pid, &page(pid as u8, &s)).unwrap();
        }
        for pid in 0..4u64 {
            s.write_page(pid, &page(0x80 | pid as u8, &s)).unwrap();
        }
        let chip = Box::new(s).into_chip();
        let mut r = Opu::recover(chip, StoreOptions::new(8)).unwrap();
        for pid in 0..8u64 {
            let mut out = page(0, &r);
            r.read_page(pid, &mut out).unwrap();
            let expect = if pid < 4 { 0x80 | pid as u8 } else { pid as u8 };
            assert!(out.iter().all(|&b| b == expect), "pid {pid}");
        }
        // Recovery accounting went to the recovery ledger.
        assert!(r.chip().stats().recovery.reads > 0);
        // And the store keeps working after recovery.
        r.write_page(0, &page(0x42, &r)).unwrap();
        let mut out = page(0, &r);
        r.read_page(0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0x42));
    }

    /// Rewrite pages for `ops` operations, three in four among the first
    /// eight of `pages`, checking after each that GC read exactly the
    /// pages it relocated, and the bitmap against the mapping table.
    /// Returns how many operations garbage-collected moving pages, and
    /// how many collected one victim and moved nothing.
    fn gc_churn(s: &mut Opu, pages: u64, ops: u64) -> (u32, u32) {
        let (mut moving, mut all_dead) = (0, 0);
        let mut x = 0x0B5E_u64;
        for round in 0..ops {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pid = if (x >> 40).is_multiple_of(4) { (x >> 33) % pages } else { (x >> 33) % 8 };
            let (runs, moved, reads) = (s.gc_runs, s.relocated_pages, s.chip().stats().gc.reads);
            s.write_page(pid, &page(round as u8, s)).unwrap();
            let moved = s.relocated_pages - moved;
            assert_eq!(
                s.chip().stats().gc.reads - reads,
                moved,
                "GC reads exactly the pages it moves"
            );
            s.check_tables().unwrap();
            match s.gc_runs - runs {
                0 => {}
                1 if moved == 0 => all_dead += 1,
                _ => moving += 1,
            }
        }
        (moving, all_dead)
    }

    #[test]
    fn gc_reads_only_the_pages_it_moves() {
        let mut s = store(32);
        for pid in 0..32 {
            s.write_page(pid, &page(0, &s)).unwrap();
        }
        let (moving, all_dead) = gc_churn(&mut s, 32, 600);
        assert!(moving > 0 && all_dead > 0, "fresh store: {moving} moving, {all_dead} all-dead");
        // The bitmap recovery rebuilds from the mapping table guides GC
        // the same way.
        let mut r = Opu::recover(Box::new(s).into_chip(), StoreOptions::new(32)).unwrap();
        r.check_tables().unwrap();
        let (moving, all_dead) = gc_churn(&mut r, 32, 600);
        assert!(moving > 0 && all_dead > 0, "recovered: {moving} moving, {all_dead} all-dead");
    }

    #[test]
    fn too_many_pages_is_bad_config() {
        let chip = FlashChip::new(FlashConfig::tiny());
        // tiny chip has 128 pages; reserve 3+1 blocks of 8 -> 96 usable.
        assert!(Opu::new(chip, StoreOptions::new(100)).is_err());
    }
}
