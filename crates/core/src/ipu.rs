//! IPU — the page-based method with **in-place update** (§3 of the paper).
//!
//! A logical page always lives at the same physical page (identity
//! mapping). Overwriting page `p1` in block `b1` therefore requires the
//! four-step cycle the paper describes: "(1) read all the pages in `b1`
//! except `p1`; (2) erase `b1`; (3) write `l1` into `p1`; (4) write all the
//! pages read in Step (1) ... in the corresponding pages in `b1`". The
//! scheme "suffers from severe performance problems and is rarely used" —
//! it is implemented here as the paper's worst-case baseline.
//!
//! The only softening is during initial loading: the first write of a page
//! whose physical slot is still erased programs it directly, with no block
//! cycle (any real FTL knows which pages are free).

use crate::error::CoreError;
use crate::ftl::{make_spare, make_spare_preserving};
use crate::page_store::{ChangeRange, MethodKind, PageStore, StoreOptions};
use crate::Result;
use pdl_flash::{FlashChip, PageKind, Ppn};

/// In-place update page store.
pub struct Ipu {
    chip: FlashChip,
    opts: StoreOptions,
    /// Which frames have been programmed (the FTL's free-page knowledge).
    written: Vec<bool>,
    ts: u64,
    // Counters.
    block_cycles: u64,
    direct_programs: u64,
}

impl Ipu {
    pub fn new(chip: FlashChip, opts: StoreOptions) -> Result<Ipu> {
        opts.validate(&chip)?;
        let frames = opts.num_frames();
        if frames > chip.num_pages() as u64 {
            return Err(CoreError::BadConfig(format!(
                "{frames} frames exceed the chip's {} pages",
                chip.num_pages()
            )));
        }
        Ok(Ipu {
            chip,
            opts,
            written: vec![false; frames as usize],
            ts: 1,
            block_cycles: 0,
            direct_programs: 0,
        })
    }

    /// Recover after a crash: the mapping is the identity, so only the
    /// written-frame bitmap is rebuilt by scanning spare areas.
    pub fn recover(mut chip: FlashChip, opts: StoreOptions) -> Result<Ipu> {
        opts.validate(&chip)?;
        let frames = opts.num_frames();
        let mut written = vec![false; frames as usize];
        let mut max_ts = 0u64;
        chip.set_context(pdl_flash::OpContext::Recovery);
        for f in 0..frames {
            if let Some(info) = chip.read_spare(Ppn(f as u32))? {
                if info.kind == PageKind::Data {
                    written[f as usize] = true;
                    max_ts = max_ts.max(info.ts);
                }
            }
        }
        chip.set_context(pdl_flash::OpContext::User);
        Ok(Ipu { chip, opts, written, ts: max_ts + 1, block_cycles: 0, direct_programs: 0 })
    }

    /// Rewrite `block` in place with the target frames replaced by new
    /// data. `targets` maps in-block page index -> new frame data.
    fn block_cycle(
        &mut self,
        block: pdl_flash::BlockId,
        targets: &[(u32, &[u8])],
        ts: u64,
    ) -> Result<()> {
        let g = self.chip.geometry();
        // Step 1: read all (written) pages in the block except the targets.
        let mut buf = pdl_flash::PageBuf::for_chip(&self.chip);
        let mut preserved: Vec<(u32, Vec<u8>, pdl_flash::SpareInfo)> = Vec::new();
        for idx in 0..g.pages_per_block {
            if targets.iter().any(|(t, _)| *t == idx) {
                continue;
            }
            let ppn = g.page_at(block, idx);
            let frame = ppn.0 as usize;
            let frame_written = frame < self.written.len() && self.written[frame];
            if !frame_written {
                continue;
            }
            self.chip.read_full(ppn, &mut buf)?;
            let info = buf
                .spare_info()
                .ok_or_else(|| CoreError::Corruption(format!("unreadable spare at {ppn}")))?;
            // Count the detection; the page is preserved either way, and
            // re-programming it below with its *original* checksum keeps
            // the damage detectable instead of laundering it.
            let _ = self.chip.verify_read(ppn, &buf.data);
            preserved.push((idx, buf.data.clone(), info));
        }
        // Step 2: erase the block.
        self.chip.erase_block(block)?;
        // Step 3: write the updated logical page(s).
        for (idx, data) in targets {
            let ppn = g.page_at(block, *idx);
            let spare = make_spare(g.spare_size, PageKind::Data, ppn.0 as u64, ts, data);
            self.chip.program_page(ppn, data, &spare)?;
        }
        // Step 4: write back the preserved pages, carrying their original
        // spare info (including the stored checksum) forward verbatim.
        for (idx, data, info) in preserved {
            let ppn = g.page_at(block, idx);
            let spare = make_spare_preserving(g.spare_size, &info);
            self.chip.program_page(ppn, &data, &spare)?;
        }
        self.block_cycles += 1;
        Ok(())
    }
}

impl PageStore for Ipu {
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
            if !self.written[frame] {
                slice.fill(0);
            } else {
                // Identity mapping: there is no redundant copy of a frame, so
                // a checksum failure is reported, never repaired or served.
                match self.chip.read_data_verified(Ppn(frame as u32), slice) {
                    Ok(()) => {}
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

    fn apply_update(&mut self, _pid: u64, _page: &[u8], _changes: &[ChangeRange]) -> Result<()> {
        Ok(())
    }

    fn consumes_updates(&self) -> bool {
        false
    }

    fn evict_page(&mut self, pid: u64, page: &[u8]) -> Result<()> {
        self.opts.check_pid(pid)?;
        let g = self.chip.geometry();
        let ds = g.data_size;
        self.opts.check_page_buf(ds, page)?;
        let k = self.opts.frames_per_page as usize;
        let first_frame = pid as usize * k;
        let ts = self.ts;
        self.ts += 1;

        // Group the page's frames by the physical block they live in.
        let mut i = 0;
        while i < k {
            let frame = first_frame + i;
            let block = g.block_of(Ppn(frame as u32));
            let mut group: Vec<(u32, &[u8])> = Vec::new();
            let mut any_written = false;
            while i < k {
                let f = first_frame + i;
                if g.block_of(Ppn(f as u32)) != block {
                    break;
                }
                group.push((g.page_in_block(Ppn(f as u32)), &page[i * ds..(i + 1) * ds]));
                any_written |= self.written[f];
                i += 1;
            }
            if any_written {
                self.block_cycle(block, &group, ts)?;
            } else {
                // Loading path: target slots are still erased.
                for (idx, data) in &group {
                    let ppn = g.page_at(block, *idx);
                    let spare = make_spare(g.spare_size, PageKind::Data, ppn.0 as u64, ts, data);
                    self.chip.program_page(ppn, data, &spare)?;
                    self.direct_programs += 1;
                }
            }
            for (idx, _) in &group {
                self.written[g.page_at(block, *idx).0 as usize] = true;
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        Ok(())
    }

    fn chip(&self) -> &FlashChip {
        &self.chip
    }

    fn chip_mut(&mut self) -> &mut FlashChip {
        &mut self.chip
    }

    fn name(&self) -> String {
        MethodKind::Ipu.label()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("block_cycles", self.block_cycles), ("direct_programs", self.direct_programs)]
    }

    fn into_chips(self: Box<Self>) -> Vec<FlashChip> {
        vec![self.chip]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_flash::FlashConfig;

    fn store(pages: u64) -> Ipu {
        Ipu::new(FlashChip::new(FlashConfig::tiny()), StoreOptions::new(pages)).unwrap()
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = store(16);
        let p = vec![0x3Cu8; s.logical_page_size()];
        s.write_page(7, &p).unwrap();
        let mut out = vec![0u8; p.len()];
        s.read_page(7, &mut out).unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn first_write_is_one_program() {
        let mut s = store(16);
        let p = vec![1u8; s.logical_page_size()];
        let before = s.chip().stats().total();
        s.write_page(0, &p).unwrap();
        let d = s.chip().stats().total() - before;
        assert_eq!(d.writes, 1);
        assert_eq!(d.erases, 0);
    }

    #[test]
    fn overwrite_costs_a_block_cycle() {
        // Tiny geometry: 8 pages per block. Fill block 0 entirely, then
        // overwrite one page: 7 reads + 1 erase + 8 writes.
        let mut s = store(16);
        let ds = s.logical_page_size();
        for pid in 0..8u64 {
            s.write_page(pid, &vec![pid as u8; ds]).unwrap();
        }
        let before = s.chip().stats().total();
        s.write_page(3, &vec![0x99u8; ds]).unwrap();
        let d = s.chip().stats().total() - before;
        assert_eq!(d.reads, 7);
        assert_eq!(d.erases, 1);
        assert_eq!(d.writes, 8);
        // All other pages survive the cycle.
        for pid in 0..8u64 {
            let mut out = vec![0u8; ds];
            s.read_page(pid, &mut out).unwrap();
            let expect = if pid == 3 { 0x99 } else { pid as u8 };
            assert!(out.iter().all(|&b| b == expect), "pid {pid}");
        }
    }

    #[test]
    fn partially_filled_block_cycle_reads_fewer_pages() {
        let mut s = store(16);
        let ds = s.logical_page_size();
        // Only 2 pages of block 0 written.
        s.write_page(0, &vec![1u8; ds]).unwrap();
        s.write_page(1, &vec![2u8; ds]).unwrap();
        let before = s.chip().stats().total();
        s.write_page(0, &vec![3u8; ds]).unwrap();
        let d = s.chip().stats().total() - before;
        assert_eq!(d.reads, 1); // only page 1 needs preserving
        assert_eq!(d.erases, 1);
        assert_eq!(d.writes, 2);
    }

    #[test]
    fn multi_frame_page_in_one_block_is_one_cycle() {
        let chip = FlashChip::new(FlashConfig::tiny());
        let mut s = Ipu::new(chip, StoreOptions::new(4).with_frames_per_page(4)).unwrap();
        let ds = s.chip().geometry().data_size;
        let p1 = vec![1u8; 4 * ds];
        // Fill block 0: pages 0 and 1 (4 frames each).
        s.write_page(0, &p1).unwrap();
        s.write_page(1, &vec![2u8; 4 * ds]).unwrap();
        let before = s.chip().stats().total();
        s.write_page(0, &vec![7u8; 4 * ds]).unwrap();
        let d = s.chip().stats().total() - before;
        // 4 preserved reads + erase + 8 writes, all in one cycle.
        assert_eq!(d.reads, 4);
        assert_eq!(d.erases, 1);
        assert_eq!(d.writes, 8);
        let mut out = vec![0u8; 4 * ds];
        s.read_page(1, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 2));
    }

    #[test]
    fn recovery_restores_written_bitmap() {
        let mut s = store(16);
        let ds = s.logical_page_size();
        s.write_page(2, &vec![0xAB; ds]).unwrap();
        s.write_page(9, &vec![0xCD; ds]).unwrap();
        let chip = Box::new(s).into_chip();
        let mut r = Ipu::recover(chip, StoreOptions::new(16)).unwrap();
        let mut out = vec![0u8; ds];
        r.read_page(2, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0xAB));
        r.read_page(3, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        // Still writable after recovery.
        r.write_page(9, &vec![0xEE; ds]).unwrap();
        r.read_page(9, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0xEE));
    }
}
