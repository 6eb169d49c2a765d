//! The flash chip emulator.
//!
//! State lives in flat byte arrays (one for data areas, one for spare
//! areas) plus per-page program counters and per-block erase counters.
//! Every operation validates NAND semantics and charges its Table-1
//! latency to the current [`OpContext`] ledger.

use crate::error::{FlashError, ProgramArea};
use crate::geometry::{BlockId, FlashConfig, FlashGeometry, FlashTiming, Ppn};
use crate::journal::{JournalOp, JournalTap, PowerLossJournal};
use crate::pipeline::{CmdKind, Pipeline};
use crate::spare::SpareInfo;
use crate::stats::{FlashStats, OpContext, WearSummary};
use crate::Result;
use pdl_obs::{CtxKind, OpKind, Recorder};

/// Map the attribution ledger's context onto the observability layer's.
fn ctx_kind(ctx: OpContext) -> CtxKind {
    match ctx {
        OpContext::User => CtxKind::User,
        OpContext::Gc => CtxKind::Gc,
        OpContext::Recovery => CtxKind::Recovery,
    }
}

/// A reusable buffer holding one page image (data + spare), sized for a
/// particular chip.
#[derive(Clone, Debug)]
pub struct PageBuf {
    pub data: Vec<u8>,
    pub spare: Vec<u8>,
}

impl PageBuf {
    /// Allocate a buffer matching `chip`'s page shape.
    pub fn for_chip(chip: &FlashChip) -> PageBuf {
        let g = chip.geometry();
        PageBuf { data: vec![0u8; g.data_size], spare: vec![0u8; g.spare_size] }
    }

    /// Decode the spare area of the last page read into this buffer.
    pub fn spare_info(&self) -> Option<SpareInfo> {
        SpareInfo::decode(&self.spare)
    }
}

/// An emulated NAND flash chip. See the crate-level documentation.
#[derive(Clone)]
pub struct FlashChip {
    config: FlashConfig,
    /// Flat data areas: page `p` occupies `p*data_size .. (p+1)*data_size`.
    data: Vec<u8>,
    /// Flat spare areas.
    spare: Vec<u8>,
    /// Programs applied to each page's data area since the last erase.
    data_programs: Vec<u8>,
    /// Programs applied to each page's spare area since the last erase.
    spare_programs: Vec<u8>,
    /// Erase count per block (never reset; this is the wear ledger).
    erase_counts: Vec<u64>,
    stats: FlashStats,
    context: OpContext,
    /// Injected power-loss fault: remaining destructive operations before
    /// every further program/erase fails. `None` = disarmed.
    fault_countdown: Option<u64>,
    /// The armed fault disarms itself after its first failure
    /// ([`FlashChip::arm_fault_once`]).
    fault_once: bool,
    /// The power-loss journal every destructive op that passes the fault
    /// gate is appended to ([`FlashChip::attach_journal`]); clones start
    /// detached.
    journal: JournalTap,
    /// Blocks whose erase failed: they accept no further programs.
    broken: Vec<bool>,
    /// Erase-cycle endurance limit; erases beyond it fail (`None` = no
    /// wear-out, the default). The modelled MLC part endures ~100k cycles.
    erase_limit: Option<u64>,
    /// One-shot injected erase failures (deterministic tests).
    forced_erase_failures: Vec<bool>,
    /// The command queue: schedules every operation on the simulated
    /// clock (state mutation stays synchronous; see [`crate::pipeline`]).
    pipeline: Pipeline,
    /// Observability: per-class latency histograms and the span ring.
    /// Disabled by default — one branch per charge, nothing recorded.
    recorder: Recorder,
}

impl FlashChip {
    /// A chip fresh from the factory: every bit is 1.
    pub fn new(config: FlashConfig) -> FlashChip {
        let g = config.geometry;
        let pages = g.num_pages() as usize;
        FlashChip {
            config,
            data: vec![0xFF; pages * g.data_size],
            spare: vec![0xFF; pages * g.spare_size],
            data_programs: vec![0; pages],
            spare_programs: vec![0; pages],
            erase_counts: vec![0; g.num_blocks as usize],
            stats: FlashStats::default(),
            context: OpContext::User,
            fault_countdown: None,
            fault_once: false,
            journal: JournalTap::default(),
            broken: vec![false; g.num_blocks as usize],
            erase_limit: None,
            forced_erase_failures: vec![false; g.num_blocks as usize],
            pipeline: Pipeline::new(config.pipeline, g.pages_per_block),
            recorder: Recorder::disabled(),
        }
    }

    pub fn config(&self) -> &FlashConfig {
        &self.config
    }

    pub fn geometry(&self) -> FlashGeometry {
        self.config.geometry
    }

    pub fn timing(&self) -> FlashTiming {
        self.config.timing
    }

    /// Replace the timing parameters (Experiment 5 sweeps `T_read` and
    /// `T_write` on the same chip).
    pub fn set_timing(&mut self, timing: FlashTiming) {
        self.config.timing = timing;
    }

    /// Raise the data-area NOP budget. Methods that require
    /// sector-programmable flash (IPL appends log sectors into partially
    /// programmed log pages, as in Lee & Moon's prototype) call this; see
    /// DESIGN.md for the modelling rationale.
    pub fn set_nop_data(&mut self, nop: u8) {
        self.config.nop_data = nop;
    }

    pub fn num_pages(&self) -> u32 {
        self.geometry().num_pages()
    }

    // ------------------------------------------------------------------
    // Statistics & context
    // ------------------------------------------------------------------

    pub fn stats(&self) -> FlashStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = FlashStats::default();
        // Re-zero the pipeline's busy clock so the next measurement epoch
        // reports its own critical path.
        self.pipeline.rebase();
        // Warm-up traffic does not belong in the measured distributions.
        self.recorder.clear();
    }

    /// Enable (or disable) observability recording on this chip. Enabled
    /// recording never changes what is measured — only what is retained.
    pub fn set_obs_enabled(&mut self, enabled: bool) {
        if enabled {
            self.recorder.enable(pdl_obs::DEFAULT_SPAN_CAPACITY);
        } else {
            self.recorder.disable();
        }
    }

    /// The chip's recorder (histograms + span ring).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// The simulated clock's current horizon (µs): the time by which
    /// every submitted command has completed. Higher layers bracket
    /// composite activities (a GC cycle, a recovery phase) with this to
    /// place their spans on the same timeline as the flash commands.
    pub fn sim_now_us(&self) -> u64 {
        self.pipeline.horizon()
    }

    /// Set who the following operations are attributed to.
    pub fn set_context(&mut self, ctx: OpContext) {
        self.context = ctx;
    }

    pub fn context(&self) -> OpContext {
        self.context
    }

    /// Erase count of one block.
    pub fn erase_count(&self, block: BlockId) -> u64 {
        self.erase_counts[block.0 as usize]
    }

    /// Wear summary over all blocks.
    pub fn wear_summary(&self) -> WearSummary {
        let min = self.erase_counts.iter().copied().min().unwrap_or(0);
        let max = self.erase_counts.iter().copied().max().unwrap_or(0);
        let total: u64 = self.erase_counts.iter().sum();
        WearSummary {
            min_erases: min,
            max_erases: max,
            total_erases: total,
            num_blocks: self.geometry().num_blocks,
            pipeline: self.stats.pipeline,
            integrity: self.stats.integrity,
        }
    }

    /// Pipeline busy time (µs) since the last stats reset: the makespan
    /// of every command submitted, i.e. the chip's critical path under
    /// the configured queue depth. At queue depth 1 it equals
    /// `stats().total().total_us()` exactly (the serial model).
    pub fn pipeline_busy_us(&self) -> u64 {
        self.pipeline.busy_us()
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Arm a power-loss fault: the next `after_ops` destructive operations
    /// (programs and erases) succeed, then every further one fails with
    /// [`FlashError::PowerLoss`] without changing chip state. Reads keep
    /// working so that post-mortem inspection and recovery are possible
    /// after the host "reboots" and calls [`FlashChip::disarm_fault`].
    pub fn arm_fault(&mut self, after_ops: u64) {
        self.fault_countdown = Some(after_ops);
        self.fault_once = false;
    }

    /// Arm a fault that fires once: the next `after_ops` destructive
    /// operations succeed, the one after fails with
    /// [`FlashError::PowerLoss`], and then the chip works again — for
    /// tests that cannot reach the chip to disarm it (it sits inside a
    /// sharded store inside a database) and need the host to carry on
    /// after a failed operation.
    pub fn arm_fault_once(&mut self, after_ops: u64) {
        self.fault_countdown = Some(after_ops);
        self.fault_once = true;
    }

    pub fn disarm_fault(&mut self) {
        self.fault_countdown = None;
    }

    /// Whether a fault is armed: true from [`FlashChip::arm_fault`] or
    /// [`FlashChip::arm_fault_once`] until [`FlashChip::disarm_fault`], or
    /// until a once-armed fault has fired.
    pub fn fault_armed(&self) -> bool {
        self.fault_countdown.is_some()
    }

    /// Append every destructive op from now on to `journal`, which takes
    /// a copy of the chip as it is now as its start image (see
    /// [`PowerLossJournal`]). It sees exactly the ops
    /// [`FlashChip::arm_fault`] counts. State changed outside the program
    /// and erase calls after this (injected erase failures, corruption)
    /// is not journaled.
    pub fn attach_journal(&mut self, journal: &PowerLossJournal) {
        self.journal = JournalTap::attach(journal, self);
    }

    /// A hash of everything a crash leaves on the chip — data, spare,
    /// program counters, erase counts, broken blocks — and of nothing
    /// else (stats, queue and recorder state are not in it). Test only.
    pub fn image_fingerprint(&self) -> u64 {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut h = DefaultHasher::new();
        (&self.data, &self.spare, &self.data_programs, &self.spare_programs).hash(&mut h);
        (&self.erase_counts, &self.broken).hash(&mut h);
        h.finish()
    }

    /// Set an erase-endurance limit: blocks erased more than `cycles`
    /// times fail to erase (wear-out; the modelled part endures ~100k).
    pub fn set_erase_limit(&mut self, cycles: Option<u64>) {
        self.erase_limit = cycles;
    }

    /// Inject a one-shot erase failure for `block` (deterministic
    /// bad-block tests).
    pub fn fail_next_erase_of(&mut self, block: BlockId) {
        self.forced_erase_failures[block.0 as usize] = true;
    }

    /// Whether `block` has failed an erase and is unusable for programs.
    pub fn is_broken(&self, block: BlockId) -> bool {
        self.broken[block.0 as usize]
    }

    /// Inject a single-page failure: flip bits in the page's data area
    /// while leaving the spare area (and its stored checksum) intact, so
    /// a checksum-verifying read detects the damage. Models bit rot /
    /// partial-page corruption, not a host operation — uncharged and
    /// invisible to NAND semantics (program counters are untouched).
    pub fn corrupt_data(&mut self, ppn: Ppn) -> Result<()> {
        self.check_ppn(ppn)?;
        let dr = self.data_range(ppn);
        // XOR a fixed pattern over a span of the data area: deterministic,
        // guaranteed to change the bytes, and reversible in tests.
        for b in self.data[dr].iter_mut().take(16) {
            *b ^= 0x5A;
        }
        self.pipeline.invalidate_page(ppn.0);
        Ok(())
    }

    /// Inject the spare-side variant of a single-page failure: flip the
    /// stored checksum bytes while leaving the data area and the rest of
    /// the spare metadata intact. The page still decodes, but a
    /// verifying read finds the mismatch.
    pub fn corrupt_spare(&mut self, ppn: Ppn) -> Result<()> {
        self.check_ppn(ppn)?;
        let start = self.spare_range(ppn).start + crate::spare::OFF_CSUM;
        for b in self.spare[start..start + 4].iter_mut() {
            *b ^= 0x5A;
        }
        self.pipeline.invalidate_page(ppn.0);
        Ok(())
    }

    /// Sits after every validity check of a program or erase: the op
    /// either fails on the armed fault or counts, and is journaled.
    fn destructive_op_gate(&mut self, op: impl FnOnce() -> JournalOp) -> Result<()> {
        if let Some(remaining) = self.fault_countdown.as_mut() {
            if *remaining == 0 {
                if self.fault_once {
                    self.fault_countdown = None;
                }
                return Err(FlashError::PowerLoss);
            }
            *remaining -= 1;
        }
        self.journal.record(op);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Charging helpers
    // ------------------------------------------------------------------

    /// Charge and schedule a synchronous page read. If a read-ahead for
    /// the page is in flight, consume its completion instead of charging
    /// a second read (the prefetch already paid for it).
    fn charge_read(&mut self, ppn: Ppn) {
        if let Some(done) = self.pipeline.take_ready(ppn.0) {
            self.stats.pipeline.readahead_hits += 1;
            self.pipeline.wait_until(done, &mut self.stats.pipeline);
            return;
        }
        let t = self.config.timing.t_read_us;
        let block = self.geometry().block_of(ppn).0;
        let c = self.stats.by_context_mut(self.context);
        c.reads += 1;
        c.read_us += t;
        let t0 = self.pipeline.now_us();
        let done =
            self.pipeline.submit(CmdKind::Read, block, ppn.0, t, true, &mut self.stats.pipeline);
        if self.recorder.is_enabled() {
            self.record_op(OpKind::Read, ppn.0, block, t0, done);
        }
    }

    /// Observability hook for one scheduled command: the op-class
    /// histogram sample is the submitter-observed sojourn (queue stall +
    /// scheduling wait + latency); the span is the plane-execution window
    /// the pipeline actually scheduled.
    fn record_op(&mut self, op: OpKind, ppn: u32, block: u32, t0: u64, done: u64) {
        let planes = self.pipeline.plane_count();
        let lane = match op {
            OpKind::Erase => block % planes,
            OpKind::Read | OpKind::Program => ppn % planes,
        };
        let start = self.pipeline.last_start_us();
        self.recorder.op(
            op,
            ctx_kind(self.context),
            lane,
            start,
            done,
            block as u64,
            ppn as u64,
            done.saturating_sub(t0),
        );
    }

    /// Charge and schedule a page program. Programs complete in the
    /// background (the submitter only stalls on a full queue); the
    /// dependency edges keep later reads of the block ordered after it.
    fn charge_write(&mut self, ppn: Ppn) {
        let t = self.config.timing.t_write_us;
        let block = self.geometry().block_of(ppn).0;
        let c = self.stats.by_context_mut(self.context);
        c.writes += 1;
        c.write_us += t;
        // Any prefetched image of this page is stale now.
        self.pipeline.invalidate_page(ppn.0);
        let t0 = self.pipeline.now_us();
        let done = self.pipeline.submit(
            CmdKind::Program,
            block,
            ppn.0,
            t,
            false,
            &mut self.stats.pipeline,
        );
        if self.recorder.is_enabled() {
            self.record_op(OpKind::Program, ppn.0, block, t0, done);
        }
    }

    /// Charge and schedule a block erase. Like programs, erases complete
    /// in the background — at queue depth > 1 GC's erases land in
    /// otherwise-idle slots instead of stalling the foreground operation.
    fn charge_erase(&mut self, block: BlockId) {
        let t = self.config.timing.t_erase_us;
        let c = self.stats.by_context_mut(self.context);
        c.erases += 1;
        c.erase_us += t;
        self.pipeline.invalidate_block(block.0);
        // Erases stripe by block; the page argument is unused for them.
        let t0 = self.pipeline.now_us();
        let done =
            self.pipeline.submit(CmdKind::Erase, block.0, 0, t, false, &mut self.stats.pipeline);
        if self.recorder.is_enabled() {
            self.record_op(OpKind::Erase, 0, block.0, t0, done);
        }
    }

    fn check_ppn(&self, ppn: Ppn) -> Result<()> {
        if self.geometry().contains(ppn) {
            Ok(())
        } else {
            Err(FlashError::PageOutOfRange(ppn))
        }
    }

    fn data_range(&self, ppn: Ppn) -> std::ops::Range<usize> {
        let sz = self.geometry().data_size;
        let p = ppn.0 as usize;
        p * sz..(p + 1) * sz
    }

    fn spare_range(&self, ppn: Ppn) -> std::ops::Range<usize> {
        let sz = self.geometry().spare_size;
        let p = ppn.0 as usize;
        p * sz..(p + 1) * sz
    }

    // ------------------------------------------------------------------
    // Read operations (each charges one T_read: a NAND page read always
    // transfers the whole page, data and spare together)
    // ------------------------------------------------------------------

    /// Read the full page (data + spare) into `buf`. One read operation.
    pub fn read_full(&mut self, ppn: Ppn, buf: &mut PageBuf) -> Result<()> {
        self.check_ppn(ppn)?;
        buf.data.resize(self.geometry().data_size, 0);
        buf.spare.resize(self.geometry().spare_size, 0);
        let dr = self.data_range(ppn);
        buf.data.copy_from_slice(&self.data[dr]);
        let sr = self.spare_range(ppn);
        buf.spare.copy_from_slice(&self.spare[sr]);
        self.charge_read(ppn);
        Ok(())
    }

    /// Read just the data area into `out` (`out.len()` must equal
    /// `data_size`). One read operation.
    pub fn read_data(&mut self, ppn: Ppn, out: &mut [u8]) -> Result<()> {
        self.check_ppn(ppn)?;
        let sz = self.geometry().data_size;
        if out.len() != sz {
            return Err(FlashError::BadBufferSize { expected: sz, got: out.len() });
        }
        let dr = self.data_range(ppn);
        out.copy_from_slice(&self.data[dr]);
        self.charge_read(ppn);
        Ok(())
    }

    /// Read the data area and verify it against the spare-area checksum
    /// written at program time. One read operation (a NAND read streams
    /// data and spare together, so the verification is free).
    ///
    /// `out` is filled either way — on [`FlashError::ChecksumMismatch`]
    /// it holds the corrupt bytes, which a repair path may still inspect
    /// but must never serve. Pages whose spare does not decode, was never
    /// programmed (`Free`), or belongs to an append-only log page
    /// (`IplLog`, whose data area is programmed incrementally after the
    /// spare) carry no meaningful data checksum and are not checked.
    pub fn read_data_verified(&mut self, ppn: Ppn, out: &mut [u8]) -> Result<()> {
        self.read_data(ppn, out)?;
        self.verify_read(ppn, out)
    }

    /// Verify an already-transferred data-area image against the page's
    /// stored spare-area checksum, without charging another read (a NAND
    /// read streams data and spare together — callers of
    /// [`FlashChip::read_full`] use this to get the same detection as
    /// [`FlashChip::read_data_verified`]). Same skip rules as there.
    pub fn verify_read(&mut self, ppn: Ppn, data: &[u8]) -> Result<()> {
        let sr = self.spare_range(ppn);
        let Some(info) = SpareInfo::decode(&self.spare[sr]) else {
            return Ok(());
        };
        if matches!(info.kind, crate::spare::PageKind::Free | crate::spare::PageKind::IplLog) {
            return Ok(());
        }
        if crate::spare::fnv1a32(data) != info.checksum {
            self.stats.integrity.detected_corruptions += 1;
            return Err(FlashError::ChecksumMismatch(ppn));
        }
        Ok(())
    }

    /// Record that a corrupt page was rebuilt byte-for-byte from a
    /// redundant source and re-programmed elsewhere.
    pub fn note_repaired(&mut self) {
        self.stats.integrity.repaired_pages += 1;
    }

    /// Read and decode just the spare area. One read operation: the chip
    /// still streams the whole page, so a caller that needs the data too
    /// (recovery's read pass) reads it with [`FlashChip::read_full`]
    /// instead of paying a second read.
    pub fn read_spare(&mut self, ppn: Ppn) -> Result<Option<SpareInfo>> {
        self.check_ppn(ppn)?;
        let sr = self.spare_range(ppn);
        let info = SpareInfo::decode(&self.spare[sr]);
        self.charge_read(ppn);
        Ok(info)
    }

    /// Issue a read-ahead for `ppn`: charges one read to the current
    /// context and schedules it *without waiting*. A later synchronous
    /// read of the page consumes the completion (a `readahead_hits`
    /// gauge tick) instead of charging and waiting again; a program or
    /// erase touching the page invalidates the prefetched image, and the
    /// later read is charged in full. Idempotent while in flight.
    pub fn prefetch_page(&mut self, ppn: Ppn) -> Result<()> {
        self.check_ppn(ppn)?;
        if self.pipeline.is_ready(ppn.0) {
            return Ok(());
        }
        let t = self.config.timing.t_read_us;
        let block = self.geometry().block_of(ppn).0;
        let c = self.stats.by_context_mut(self.context);
        c.reads += 1;
        c.read_us += t;
        let t0 = self.pipeline.now_us();
        let done =
            self.pipeline.submit(CmdKind::Read, block, ppn.0, t, false, &mut self.stats.pipeline);
        self.pipeline.note_ready(ppn.0, done);
        if self.recorder.is_enabled() {
            self.record_op(OpKind::Read, ppn.0, block, t0, done);
        }
        Ok(())
    }

    /// Retire completed background commands without advancing the clock;
    /// returns the number still in flight.
    pub fn poll(&mut self) -> usize {
        self.pipeline.poll(&mut self.stats.pipeline)
    }

    /// Completion barrier: advance the simulated clock past every
    /// in-flight command (the group-commit leader submits to all shards,
    /// then drains each).
    pub fn drain(&mut self) {
        self.pipeline.drain(&mut self.stats.pipeline);
    }

    // ------------------------------------------------------------------
    // Program operations
    // ------------------------------------------------------------------

    /// Program a full page: data area plus spare area in one operation.
    /// One write operation.
    ///
    /// Enforces NAND semantics: the page's data-area NOP budget must not be
    /// exhausted, and the stored result (`old AND new`) must equal `new` —
    /// i.e. the caller may only clear bits. Violations indicate a bug in
    /// the page-update method and return an error without charging.
    pub fn program_page(&mut self, ppn: Ppn, data: &[u8], spare: &[u8]) -> Result<()> {
        self.check_ppn(ppn)?;
        let g = self.geometry();
        if data.len() != g.data_size {
            return Err(FlashError::BadBufferSize { expected: g.data_size, got: data.len() });
        }
        if spare.len() != g.spare_size {
            return Err(FlashError::BadBufferSize { expected: g.spare_size, got: spare.len() });
        }
        if self.broken[g.block_of(ppn).0 as usize] {
            return Err(FlashError::BadBlock(g.block_of(ppn)));
        }
        let p = ppn.0 as usize;
        if self.data_programs[p] >= self.config.nop_data {
            return Err(FlashError::NopExceeded { ppn, area: ProgramArea::Data });
        }
        if self.spare_programs[p] >= self.config.nop_spare {
            return Err(FlashError::NopExceeded { ppn, area: ProgramArea::Spare });
        }
        // Validate before mutating: all-or-nothing (atomic page program).
        let dr = self.data_range(ppn);
        if let Some(off) = first_conflict(&self.data[dr.clone()], data) {
            return Err(FlashError::ProgramConflict { ppn, byte_offset: off });
        }
        let sr = self.spare_range(ppn);
        if let Some(off) = first_conflict(&self.spare[sr.clone()], spare) {
            return Err(FlashError::ProgramConflict { ppn, byte_offset: off });
        }
        self.destructive_op_gate(|| JournalOp::Page(ppn, data.into(), spare.into()))?;
        and_into(&mut self.data[dr], data);
        and_into(&mut self.spare[sr], spare);
        self.data_programs[p] += 1;
        self.spare_programs[p] += 1;
        self.charge_write(ppn);
        Ok(())
    }

    /// Partial program of the data area (used by IPL to append log sectors
    /// into a log page). One write operation; consumes one unit of the
    /// page's data-area NOP budget.
    pub fn program_partial(&mut self, ppn: Ppn, offset: usize, bytes: &[u8]) -> Result<()> {
        self.check_ppn(ppn)?;
        let g = self.geometry();
        if offset + bytes.len() > g.data_size {
            return Err(FlashError::RangeOutOfPage {
                offset,
                len: bytes.len(),
                area_size: g.data_size,
            });
        }
        if self.broken[g.block_of(ppn).0 as usize] {
            return Err(FlashError::BadBlock(g.block_of(ppn)));
        }
        let p = ppn.0 as usize;
        if self.data_programs[p] >= self.config.nop_data {
            return Err(FlashError::NopExceeded { ppn, area: ProgramArea::Data });
        }
        let base = self.data_range(ppn).start;
        let target = base + offset..base + offset + bytes.len();
        if let Some(off) = first_conflict(&self.data[target.clone()], bytes) {
            return Err(FlashError::ProgramConflict { ppn, byte_offset: offset + off });
        }
        self.destructive_op_gate(|| JournalOp::Partial(ppn, offset, bytes.into()))?;
        and_into(&mut self.data[target], bytes);
        self.data_programs[p] += 1;
        self.charge_write(ppn);
        Ok(())
    }

    /// Partial program of the spare area. One write operation; consumes one
    /// unit of the page's spare-area NOP budget (4 on the modelled chip).
    pub fn program_spare(&mut self, ppn: Ppn, offset: usize, bytes: &[u8]) -> Result<()> {
        self.check_ppn(ppn)?;
        let g = self.geometry();
        if offset + bytes.len() > g.spare_size {
            return Err(FlashError::RangeOutOfPage {
                offset,
                len: bytes.len(),
                area_size: g.spare_size,
            });
        }
        if self.broken[g.block_of(ppn).0 as usize] {
            return Err(FlashError::BadBlock(g.block_of(ppn)));
        }
        let p = ppn.0 as usize;
        if self.spare_programs[p] >= self.config.nop_spare {
            return Err(FlashError::NopExceeded { ppn, area: ProgramArea::Spare });
        }
        let base = self.spare_range(ppn).start;
        let target = base + offset..base + offset + bytes.len();
        if let Some(off) = first_conflict(&self.spare[target.clone()], bytes) {
            return Err(FlashError::ProgramConflict { ppn, byte_offset: offset + off });
        }
        self.destructive_op_gate(|| JournalOp::Spare(ppn, offset, bytes.into()))?;
        and_into(&mut self.spare[target], bytes);
        self.spare_programs[p] += 1;
        self.charge_write(ppn);
        Ok(())
    }

    /// Mark a page obsolete by programming its spare-area obsolete byte.
    /// One write operation — this matches the paper's cost accounting,
    /// where e.g. OPU "requires two write operations: one for writing the
    /// updated page into flash memory and another for setting the original
    /// page to obsolete".
    pub fn mark_obsolete(&mut self, ppn: Ppn) -> Result<()> {
        let (off, patch) = SpareInfo::obsolete_patch();
        self.program_spare(ppn, off, &patch)
    }

    // ------------------------------------------------------------------
    // Erase
    // ------------------------------------------------------------------

    /// Erase a block: every bit of every page becomes 1 and the program
    /// budgets reset. One erase operation. Fails — permanently breaking
    /// the block — when the endurance limit is exceeded or a failure was
    /// injected; the old contents stay readable (bad-block management is
    /// the FTL's job, as the paper's footnote 4 notes).
    pub fn erase_block(&mut self, block: BlockId) -> Result<()> {
        let g = self.geometry();
        if block.0 >= g.num_blocks {
            return Err(FlashError::BlockOutOfRange(block));
        }
        if self.broken[block.0 as usize] {
            return Err(FlashError::BadBlock(block));
        }
        self.destructive_op_gate(|| JournalOp::Erase(block))?;
        let worn_out =
            self.erase_limit.is_some_and(|limit| self.erase_counts[block.0 as usize] >= limit);
        if worn_out || self.forced_erase_failures[block.0 as usize] {
            self.forced_erase_failures[block.0 as usize] = false;
            self.broken[block.0 as usize] = true;
            self.charge_erase(block); // the failed attempt still takes time
            return Err(FlashError::EraseFailed(block));
        }
        let first = g.first_page(block).0 as usize;
        let last = first + g.pages_per_block as usize;
        self.data[first * g.data_size..last * g.data_size].fill(0xFF);
        self.spare[first * g.spare_size..last * g.spare_size].fill(0xFF);
        self.data_programs[first..last].fill(0);
        self.spare_programs[first..last].fill(0);
        self.erase_counts[block.0 as usize] += 1;
        self.charge_erase(block);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Uncharged inspection (for tests and assertions only — never use on a
    // measured path; the measured API is read_full/read_data/read_spare)
    // ------------------------------------------------------------------

    /// Borrow the data area without charging a read. Test/debug only.
    pub fn peek_data(&self, ppn: Ppn) -> &[u8] {
        &self.data[self.data_range(ppn)]
    }

    /// Borrow the spare area without charging a read. Test/debug only.
    pub fn peek_spare(&self, ppn: Ppn) -> &[u8] {
        &self.spare[self.spare_range(ppn)]
    }

    /// Whether the page is fully erased. Test/debug only.
    pub fn is_erased(&self, ppn: Ppn) -> bool {
        self.peek_data(ppn).iter().all(|&b| b == 0xFF)
            && self.peek_spare(ppn).iter().all(|&b| b == 0xFF)
    }

    /// Number of data-area programs since the last erase. Test/debug only.
    pub fn data_program_count(&self, ppn: Ppn) -> u8 {
        self.data_programs[ppn.0 as usize]
    }
}

/// Index of the first byte where programming `new` over `old` would require
/// a 0 -> 1 transition (i.e. `old & new != new`).
///
/// Runs on every program, over the whole 2 KB data area, and almost
/// never finds anything: it ORs `!old & new` over the `u64` words of a
/// 64-byte block — a loop without an exit, which the compiler keeps in
/// vector registers — and drops to [`first_conflict_bytes`] only inside
/// the first offending block and for the `len % 64` tail.
fn first_conflict(old: &[u8], new: &[u8]) -> Option<usize> {
    const BLOCK: usize = 64;
    let len = old.len().min(new.len());
    let mut old_blocks = old[..len].chunks_exact(BLOCK);
    let mut new_blocks = new[..len].chunks_exact(BLOCK);
    for (i, (o, n)) in (&mut old_blocks).zip(&mut new_blocks).enumerate() {
        let set_bits = o.chunks_exact(8).zip(n.chunks_exact(8)).fold(0u64, |acc, (o, n)| {
            let old_word = u64::from_ne_bytes(o.try_into().expect("chunks_exact(8)"));
            let new_word = u64::from_ne_bytes(n.try_into().expect("chunks_exact(8)"));
            acc | !old_word & new_word
        });
        if set_bits != 0 {
            return first_conflict_bytes(o, n).map(|at| i * BLOCK + at);
        }
    }
    let tail = len - old_blocks.remainder().len();
    first_conflict_bytes(old_blocks.remainder(), new_blocks.remainder()).map(|at| tail + at)
}

/// [`first_conflict`] one byte at a time.
fn first_conflict_bytes(old: &[u8], new: &[u8]) -> Option<usize> {
    old.iter().zip(new.iter()).position(|(&o, &n)| !o & n != 0)
}

/// In-place AND: the physical effect of a program operation.
fn and_into(old: &mut [u8], new: &[u8]) {
    for (o, n) in old.iter_mut().zip(new.iter()) {
        *o &= *n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spare::{fnv1a32, PageKind};

    fn chip() -> FlashChip {
        FlashChip::new(FlashConfig::tiny())
    }

    fn image(chip: &FlashChip, fill: u8, kind: PageKind, tag: u64, ts: u64) -> (Vec<u8>, Vec<u8>) {
        let g = chip.geometry();
        let data = vec![fill; g.data_size];
        let mut spare = vec![0xFF; g.spare_size];
        SpareInfo::new(kind, tag, ts, fnv1a32(&data)).encode(&mut spare).unwrap();
        (data, spare)
    }

    #[test]
    fn fresh_chip_is_all_ones() {
        let c = chip();
        for p in 0..c.num_pages() {
            assert!(c.is_erased(Ppn(p)));
        }
        assert_eq!(c.stats().total().total_ops(), 0);
    }

    #[test]
    fn program_then_read_round_trips() {
        let mut c = chip();
        let (data, spare) = image(&c, 0xAB, PageKind::Data, 5, 1);
        c.program_page(Ppn(3), &data, &spare).unwrap();
        let mut buf = PageBuf::for_chip(&c);
        c.read_full(Ppn(3), &mut buf).unwrap();
        assert_eq!(buf.data, data);
        let info = buf.spare_info().unwrap();
        assert_eq!(info.kind, PageKind::Data);
        assert_eq!(info.tag, 5);
        assert_eq!(info.checksum, fnv1a32(&data));
    }

    #[test]
    fn timing_is_charged_per_table_1() {
        let mut c = chip();
        let (data, spare) = image(&c, 0, PageKind::Data, 0, 0);
        c.program_page(Ppn(0), &data, &spare).unwrap();
        let mut out = vec![0u8; c.geometry().data_size];
        c.read_data(Ppn(0), &mut out).unwrap();
        c.erase_block(BlockId(0)).unwrap();
        let t = c.stats().total();
        assert_eq!(t.reads, 1);
        assert_eq!(t.writes, 1);
        assert_eq!(t.erases, 1);
        assert_eq!(t.read_us, 110);
        assert_eq!(t.write_us, 1010);
        assert_eq!(t.erase_us, 1500);
    }

    #[test]
    fn second_full_program_exceeds_mlc_nop() {
        let mut c = chip();
        let (data, spare) = image(&c, 0xF0, PageKind::Data, 1, 1);
        c.program_page(Ppn(0), &data, &spare).unwrap();
        let err = c.program_page(Ppn(0), &data, &spare).unwrap_err();
        assert!(matches!(err, FlashError::NopExceeded { area: ProgramArea::Data, .. }));
    }

    #[test]
    fn erase_resets_nop_budget() {
        let mut c = chip();
        let (data, spare) = image(&c, 0xF0, PageKind::Data, 1, 1);
        c.program_page(Ppn(0), &data, &spare).unwrap();
        c.erase_block(BlockId(0)).unwrap();
        assert!(c.is_erased(Ppn(0)));
        c.program_page(Ppn(0), &data, &spare).unwrap();
        assert_eq!(c.erase_count(BlockId(0)), 1);
    }

    #[test]
    fn program_cannot_set_bits() {
        let mut c = chip();
        let g = c.geometry();
        let zeros = vec![0x00u8; g.data_size];
        let spare = vec![0xFF; g.spare_size];
        c.program_page(Ppn(0), &zeros, &spare).unwrap();
        // Partial program trying to write 0xFF over 0x00 must fail.
        let err = c.program_partial(Ppn(0), 0, &[0xFF]).unwrap_err();
        assert!(matches!(err, FlashError::ProgramConflict { .. } | FlashError::NopExceeded { .. }));
    }

    /// `ProgramConflict { byte_offset }` is part of the chip's contract:
    /// the word-wise check must name the same byte as the byte scan, for
    /// slices at any alignment (partial programs start anywhere).
    #[test]
    fn word_wise_conflict_check_reports_the_byte_scans_offset() {
        // Old image with bit 7 programmed (0) and bit 0 erased (1) in
        // every byte, in backing storage that lets sub-slices start at
        // offsets 0..8.
        let old_backing: Vec<u8> = (0..160u32).map(|i| (i * 37 + 11) as u8 & 0x7F | 0x01).collect();
        for start in 0..8 {
            // Up to two whole 64-byte blocks and a tail.
            for len in 0..=150 {
                let old = &old_backing[start..start + len];
                // A legal program: only clears bits.
                let legal: Vec<u8> = old.iter().map(|&o| o & 0xC3).collect();
                assert_eq!(first_conflict(old, &legal), None, "start {start} len {len}");
                for at in 0..len {
                    // One conflicting byte (sets the bit the old image
                    // has cleared), then a second one further on: the
                    // first must still win.
                    let mut new = legal.clone();
                    new[at] = old[at] | 0x80;
                    assert_eq!(first_conflict(old, &new), Some(at), "start {start} len {len}");
                    assert_eq!(first_conflict(old, &new), first_conflict_bytes(old, &new));
                    if let Some(later) = new.get_mut(at + 9) {
                        *later = 0xFF;
                        assert_eq!(first_conflict(old, &new), Some(at));
                    }
                }
            }
        }
    }

    #[test]
    fn conflict_offsets_survive_every_program_entry_point() {
        let mut c = FlashChip::new(FlashConfig::tiny().with_nop_data(4));
        let g = c.geometry();
        let mut data = vec![0xFFu8; g.data_size];
        data[g.data_size - 3] = 0x0F;
        let mut spare = vec![0xFFu8; g.spare_size];
        spare[13] = 0x0F;
        c.program_page(Ppn(0), &data, &spare).unwrap();
        let erased = (vec![0xFFu8; g.data_size], vec![0xFFu8; g.spare_size]);
        assert_eq!(
            c.program_page(Ppn(0), &erased.0, &spare).unwrap_err(),
            FlashError::ProgramConflict { ppn: Ppn(0), byte_offset: g.data_size - 3 }
        );
        assert_eq!(
            c.program_page(Ppn(0), &data, &erased.1).unwrap_err(),
            FlashError::ProgramConflict { ppn: Ppn(0), byte_offset: 13 }
        );
        // Partial programs report the offset within the area, not within
        // the slice they were handed.
        assert_eq!(
            c.program_partial(Ppn(0), g.data_size - 21, &[0xFF; 21]).unwrap_err(),
            FlashError::ProgramConflict { ppn: Ppn(0), byte_offset: g.data_size - 3 }
        );
        assert_eq!(
            c.program_spare(Ppn(0), 3, &[0xFF; 17]).unwrap_err(),
            FlashError::ProgramConflict { ppn: Ppn(0), byte_offset: 13 }
        );
    }

    #[test]
    fn partial_program_appends_sectors() {
        let mut c = FlashChip::new(FlashConfig::tiny().with_nop_data(4));
        let sector = vec![0x11u8; 64];
        c.program_partial(Ppn(0), 0, &sector).unwrap();
        c.program_partial(Ppn(0), 64, &sector).unwrap();
        c.program_partial(Ppn(0), 128, &sector).unwrap();
        assert_eq!(&c.peek_data(Ppn(0))[..64], &sector[..]);
        assert_eq!(&c.peek_data(Ppn(0))[64..128], &sector[..]);
        assert_eq!(c.peek_data(Ppn(0))[192], 0xFF);
        assert_eq!(c.data_program_count(Ppn(0)), 3);
        c.program_partial(Ppn(0), 192, &sector).unwrap();
        // nop_data = 4: the fourth program still fits.
        assert!(matches!(
            c.program_partial(Ppn(0), 0, &[0x00]).unwrap_err(),
            FlashError::NopExceeded { .. }
        ));
    }

    #[test]
    fn spare_reprogram_budget_is_four() {
        let mut c = chip();
        let (data, spare) = image(&c, 0xCC, PageKind::Data, 1, 1);
        c.program_page(Ppn(0), &data, &spare).unwrap();
        // First program consumed one unit; three more spare programs fit.
        c.program_spare(Ppn(0), 1, &[0x0F]).unwrap();
        c.program_spare(Ppn(0), 1, &[0x03]).unwrap();
        c.program_spare(Ppn(0), 1, &[0x00]).unwrap();
        assert!(matches!(
            c.program_spare(Ppn(0), 1, &[0x00]).unwrap_err(),
            FlashError::NopExceeded { area: ProgramArea::Spare, .. }
        ));
    }

    #[test]
    fn mark_obsolete_is_one_write() {
        let mut c = chip();
        let (data, spare) = image(&c, 0xCC, PageKind::Data, 9, 2);
        c.program_page(Ppn(4), &data, &spare).unwrap();
        let before = c.stats().total();
        c.mark_obsolete(Ppn(4)).unwrap();
        let d = c.stats().total() - before;
        assert_eq!(d.writes, 1);
        assert_eq!(d.write_us, 1010);
        let info = c.read_spare(Ppn(4)).unwrap().unwrap();
        assert!(info.obsolete);
        assert_eq!(info.tag, 9);
    }

    #[test]
    fn context_attribution() {
        let mut c = chip();
        let (data, spare) = image(&c, 0x42, PageKind::Data, 1, 1);
        c.program_page(Ppn(0), &data, &spare).unwrap();
        c.set_context(OpContext::Gc);
        c.erase_block(BlockId(1)).unwrap();
        c.set_context(OpContext::Recovery);
        let _ = c.read_spare(Ppn(0)).unwrap();
        c.set_context(OpContext::User);
        let s = c.stats();
        assert_eq!(s.user.writes, 1);
        assert_eq!(s.gc.erases, 1);
        assert_eq!(s.recovery.reads, 1);
        assert_eq!(s.total().total_ops(), 3);
    }

    #[test]
    fn fault_injection_blocks_destructive_ops_only() {
        let mut c = chip();
        let (data, spare) = image(&c, 0x42, PageKind::Data, 1, 1);
        c.arm_fault(1);
        c.program_page(Ppn(0), &data, &spare).unwrap(); // consumes the budget
        let err = c.erase_block(BlockId(0)).unwrap_err();
        assert_eq!(err, FlashError::PowerLoss);
        // Block was NOT erased (atomicity).
        assert!(!c.is_erased(Ppn(0)));
        // Reads still work for post-mortem inspection.
        let mut buf = PageBuf::for_chip(&c);
        c.read_full(Ppn(0), &mut buf).unwrap();
        assert_eq!(buf.data, data);
        c.disarm_fault();
        c.erase_block(BlockId(0)).unwrap();
        assert!(c.is_erased(Ppn(0)));
        // A one-shot fault fails exactly one operation.
        c.arm_fault_once(0);
        assert_eq!(c.program_page(Ppn(0), &data, &spare).unwrap_err(), FlashError::PowerLoss);
        assert!(!c.fault_armed());
        c.program_page(Ppn(0), &data, &spare).unwrap();
    }

    #[test]
    fn failed_program_charges_nothing() {
        let mut c = chip();
        let short = vec![0u8; 3];
        let spare = vec![0xFF; c.geometry().spare_size];
        assert!(c.program_page(Ppn(0), &short, &spare).is_err());
        assert_eq!(c.stats().total().total_ops(), 0);
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut c = chip();
        let n = c.num_pages();
        let mut buf = PageBuf::for_chip(&c);
        assert!(matches!(c.read_full(Ppn(n), &mut buf), Err(FlashError::PageOutOfRange(_))));
        assert!(matches!(
            c.erase_block(BlockId(c.geometry().num_blocks)),
            Err(FlashError::BlockOutOfRange(_))
        ));
    }

    #[test]
    fn set_timing_changes_charges() {
        let mut c = chip();
        c.set_timing(FlashTiming { t_read_us: 10, t_write_us: 500, t_erase_us: 1500 });
        let mut out = vec![0u8; c.geometry().data_size];
        c.read_data(Ppn(0), &mut out).unwrap();
        assert_eq!(c.stats().total().read_us, 10);
    }

    #[test]
    fn wear_summary_tracks_erases() {
        let mut c = chip();
        c.erase_block(BlockId(0)).unwrap();
        c.erase_block(BlockId(0)).unwrap();
        c.erase_block(BlockId(1)).unwrap();
        let w = c.wear_summary();
        assert_eq!(w.max_erases, 2);
        assert_eq!(w.total_erases, 3);
        assert_eq!(w.min_erases, 0);
    }

    #[test]
    fn depth_one_pipeline_time_equals_serial_sum() {
        let mut c = chip();
        let (data, spare) = image(&c, 0x42, PageKind::Data, 1, 1);
        c.program_page(Ppn(0), &data, &spare).unwrap();
        let mut out = vec![0u8; c.geometry().data_size];
        c.read_data(Ppn(0), &mut out).unwrap();
        c.erase_block(BlockId(1)).unwrap();
        c.drain();
        assert_eq!(c.pipeline_busy_us(), c.stats().total().total_us());
        assert_eq!(c.stats().pipeline.overlapped_erases, 0);
        assert_eq!(c.stats().pipeline.ordering_violations, 0);
    }

    #[test]
    fn prefetch_hit_conserves_read_counts_and_returns_current_data() {
        let mut c = FlashChip::new(FlashConfig::tiny().with_queue_depth(8));
        let (data, spare) = image(&c, 0x42, PageKind::Data, 1, 1);
        c.program_page(Ppn(0), &data, &spare).unwrap();
        c.prefetch_page(Ppn(0)).unwrap();
        c.prefetch_page(Ppn(0)).unwrap(); // idempotent while in flight
        let before = c.stats().total();
        let mut out = vec![0u8; c.geometry().data_size];
        c.read_data(Ppn(0), &mut out).unwrap();
        // The consuming read is free: the prefetch already charged it.
        assert_eq!(c.stats().total().reads, before.reads);
        assert_eq!(c.stats().pipeline.readahead_hits, 1);
        assert_eq!(out, data);
        // A second read is a fresh charge.
        c.read_data(Ppn(0), &mut out).unwrap();
        assert_eq!(c.stats().total().reads, before.reads + 1);
    }

    #[test]
    fn stale_prefetch_is_invalidated_by_program() {
        let mut c = FlashChip::new(FlashConfig::tiny().with_queue_depth(8));
        c.prefetch_page(Ppn(0)).unwrap();
        let (data, spare) = image(&c, 0x42, PageKind::Data, 1, 1);
        c.program_page(Ppn(0), &data, &spare).unwrap();
        let before = c.stats().total();
        let mut out = vec![0u8; c.geometry().data_size];
        c.read_data(Ppn(0), &mut out).unwrap();
        // The prefetched image went stale: the read is charged in full
        // and observes the program's data.
        assert_eq!(c.stats().total().reads, before.reads + 1);
        assert_eq!(c.stats().pipeline.readahead_hits, 0);
        assert_eq!(out, data);
    }

    #[test]
    fn corrupt_data_is_caught_by_verified_read_only() {
        let mut c = chip();
        let (data, spare) = image(&c, 0xAB, PageKind::Data, 5, 1);
        c.program_page(Ppn(3), &data, &spare).unwrap();
        let mut out = vec![0u8; c.geometry().data_size];
        c.read_data_verified(Ppn(3), &mut out).unwrap();
        assert_eq!(out, data);
        c.corrupt_data(Ppn(3)).unwrap();
        // The unverified read silently serves the damaged bytes...
        c.read_data(Ppn(3), &mut out).unwrap();
        assert_ne!(out, data);
        assert_eq!(c.stats().integrity.detected_corruptions, 0);
        // ...the verified read refuses them.
        let err = c.read_data_verified(Ppn(3), &mut out).unwrap_err();
        assert_eq!(err, FlashError::ChecksumMismatch(Ppn(3)));
        assert_eq!(c.stats().integrity.detected_corruptions, 1);
        // Spare metadata survived the injection.
        let info = c.read_spare(Ppn(3)).unwrap().unwrap();
        assert_eq!(info.tag, 5);
        assert_eq!(info.checksum, fnv1a32(&data));
        c.note_repaired();
        assert_eq!(c.wear_summary().integrity.repaired_pages, 1);
    }

    #[test]
    fn corrupt_spare_flips_only_the_checksum() {
        let mut c = chip();
        let (data, spare) = image(&c, 0x77, PageKind::Data, 9, 4);
        c.program_page(Ppn(6), &data, &spare).unwrap();
        c.corrupt_spare(Ppn(6)).unwrap();
        // Data and the rest of the spare metadata are intact...
        let mut out = vec![0u8; c.geometry().data_size];
        c.read_data(Ppn(6), &mut out).unwrap();
        assert_eq!(out, data);
        let info = c.read_spare(Ppn(6)).unwrap().unwrap();
        assert_eq!(info.kind, PageKind::Data);
        assert_eq!(info.tag, 9);
        assert_ne!(info.checksum, fnv1a32(&data));
        // ...so the failure is detected, not mis-decoded.
        let err = c.read_data_verified(Ppn(6), &mut out).unwrap_err();
        assert_eq!(err, FlashError::ChecksumMismatch(Ppn(6)));
    }

    #[test]
    fn verified_read_skips_unchecksummed_pages() {
        let mut c = FlashChip::new(FlashConfig::tiny().with_nop_data(4));
        let mut out = vec![0u8; c.geometry().data_size];
        // Never-programmed page: nothing to verify.
        c.read_data_verified(Ppn(0), &mut out).unwrap();
        // IPL log page: spare written first, data appended later.
        let mut spare = vec![0xFF; c.geometry().spare_size];
        SpareInfo::new(PageKind::IplLog, u64::MAX, 1, fnv1a32(&[])).encode(&mut spare).unwrap();
        c.program_spare(Ppn(1), 0, &spare).unwrap();
        c.program_partial(Ppn(1), 0, &[0x11; 64]).unwrap();
        c.read_data_verified(Ppn(1), &mut out).unwrap();
        assert_eq!(c.stats().integrity.detected_corruptions, 0);
    }

    #[test]
    fn obs_recording_never_perturbs_the_ledger_or_the_clock() {
        // Identical operation sequence with and without the recorder:
        // OpCounts, pipeline counts and busy clock must match exactly.
        let run = |obs: bool| -> (FlashStats, u64) {
            let mut c = chip();
            c.set_obs_enabled(obs);
            let (data, spare) = image(&c, 0x42, PageKind::Data, 1, 1);
            c.program_page(Ppn(0), &data, &spare).unwrap();
            let mut out = vec![0u8; c.geometry().data_size];
            c.read_data(Ppn(0), &mut out).unwrap();
            c.set_context(OpContext::Gc);
            c.erase_block(BlockId(1)).unwrap();
            c.set_context(OpContext::User);
            c.drain();
            (c.stats(), c.pipeline_busy_us())
        };
        let (s_off, t_off) = run(false);
        let (s_on, t_on) = run(true);
        assert_eq!(s_off.total(), s_on.total());
        assert_eq!(s_off.pipeline, s_on.pipeline);
        assert_eq!(t_off, t_on);
        assert_eq!(t_on, s_on.total().total_us(), "QD1 stays the serial sum");
    }

    #[test]
    fn obs_records_attributed_spans_and_sojourns() {
        let mut c = chip();
        c.set_obs_enabled(true);
        let (data, spare) = image(&c, 0x42, PageKind::Data, 1, 1);
        c.program_page(Ppn(0), &data, &spare).unwrap();
        let mut out = vec![0u8; c.geometry().data_size];
        c.read_data(Ppn(0), &mut out).unwrap();
        c.set_context(OpContext::Gc);
        c.erase_block(BlockId(1)).unwrap();
        let snap = c.recorder().snapshot();
        assert_eq!(snap.hist(pdl_obs::LatencyClass::ProgramUser).count(), 1);
        // QD1: the read queued behind the async program — its sojourn is
        // the stall plus its own latency.
        assert_eq!(snap.hist(pdl_obs::LatencyClass::ReadUser).max_us(), 1010 + 110);
        assert_eq!(snap.hist(pdl_obs::LatencyClass::EraseGc).count(), 1);
        assert_eq!(snap.spans.len(), 3);
        assert_eq!(snap.spans[0].name, "program");
        assert_eq!(snap.spans[2].ctx, "gc");
        // Spans tile the serial timeline.
        assert_eq!(snap.spans[0].start_us, 0);
        assert_eq!(snap.spans[1].start_us, 1010);
        assert_eq!(snap.spans[2].start_us, 1010 + 110);
        // reset_stats clears the recorded epoch but keeps recording.
        c.reset_stats();
        let snap = c.recorder().snapshot();
        assert!(snap.enabled);
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn reset_stats_rebases_the_pipeline_clock() {
        let mut c = chip();
        let (data, spare) = image(&c, 0x42, PageKind::Data, 1, 1);
        c.program_page(Ppn(0), &data, &spare).unwrap();
        c.reset_stats();
        assert_eq!(c.pipeline_busy_us(), 0);
        let mut out = vec![0u8; c.geometry().data_size];
        c.read_data(Ppn(0), &mut out).unwrap();
        assert_eq!(c.pipeline_busy_us(), 110);
    }
}
