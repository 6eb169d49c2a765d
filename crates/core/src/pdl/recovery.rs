//! `PDL_RecoveringfromCrash` (§4.5, Figure 11), extended with
//! transaction-aware recovery (`pdl-txn`).
//!
//! After a system failure the physical page mapping table and the valid
//! differential count table are lost; one scan through the physical pages
//! reconstructs both. Creation time stamps stored in base pages and in
//! each differential decide which of several co-existing copies is the
//! most recent (a crash can leave a new base page written but the old one
//! not yet set to obsolete, and likewise for differential pages).
//!
//! The algorithm only *sets useless pages to obsolete* — it never writes
//! data — so it stays correct when the system crashes again during
//! recovery and the scan restarts from the beginning (the paper's
//! repeated-failure guarantee).
//!
//! The same time-stamp versioning covers crashes **mid-migration**:
//! garbage collection relocates a valid base page by programming a copy
//! that *preserves* the original's creation time stamp, so a crash
//! between the copy and the victim's erase leaves two byte-identical
//! twins with equal `(tag, ts)`. The scan keeps whichever it meets first
//! and sets the other to obsolete (the strict `ts >` comparison below),
//! discarding the half-migrated duplicate; compacted differentials are
//! flushed to a fresh differential page *before* the victim is erased,
//! and a crash before that erase leaves two equal-`ts` differential
//! copies resolved the same way.
//!
//! # The transaction pass
//!
//! Recovery now runs in two passes. The first ([`txn_precheck`]) is
//! read-only: it collects, per chip, the set of transactions that appear
//! as *tags* (on differentials or Case-3 base pages) and the set that
//! appear as durable *commit records*. A transaction is **torn** — it
//! crashed between its first staged page and its commit record — exactly
//! when some chip carries its tag but no local record (the commit
//! protocol writes a record to every involved shard, and garbage
//! collection keeps a shard's record alive while anything on that shard
//! still carries the tag). The second pass is the Figure-11 scan with the
//! torn set in hand: tagged base pages of torn transactions are set
//! obsolete, tagged differentials of torn transactions are skipped, and —
//! because the commit batch *deferred* the obsolete marks on the
//! pre-images it superseded — the previous committed state is still on
//! flash and wins the time-stamp resolution. Commit records themselves
//! are re-registered (and counted in the valid-differential table) while
//! any surviving page still carries their tag.
//!
//! Data that only reached the differential write buffer is not recovered,
//! "analogous to the situation where data retained only in the file buffer
//! but not written out to disk ... are not recovered"; durability requires
//! the write-through call ([`crate::PageStore::flush`]) or a transaction
//! commit.
//!
//! The per-page replay logic lives in [`RecoveryTables`] so that the
//! checkpointed fast-recovery path (`checkpoint.rs`, the paper's §4.5
//! future-work extension) can reuse it for its delta scan.

use super::dwb::DiffWriteBuffer;
use super::{Pdl, PdlCounters, PpmtEntry, TxnMap, NONE};
use crate::diff::{Differential, PageRecord, NO_TXN};
use crate::error::CoreError;
use crate::ftl::BlockManager;
use crate::page_store::StoreOptions;
use crate::Result;
use pdl_flash::{BlockId, FlashChip, OpContext, PageKind, Ppn, SpareInfo};
use std::collections::{HashMap, HashSet};

/// Read-ahead window of the sequential recovery scans: how many page
/// reads are kept in flight ahead of the cursor. Sized to fill a deep
/// (16-slot) command queue without monopolising it.
const SCAN_READAHEAD: u32 = 8;

/// The torn-commit verdict builder (first, read-only pass).
///
/// It collects every *tagged* candidate (differential or base page) with
/// its creation time stamp, every commit record, and the newest
/// *committed* time stamp per logical page / frame (untagged data, plus
/// baselines from a loaded checkpoint). [`TxnVerdict::resolve`] then
/// computes which tags are **live** — not dominated by newer committed
/// data under the same time-stamp order the Figure-11 resolution uses —
/// and a transaction is *torn* exactly when it has a live tag on a chip
/// without a local commit record. Dead (superseded) tags are ignored:
/// the running store drops its presence count and may retire the commit
/// record the moment a tag is dominated, and this verdict mirrors that.
#[derive(Clone, Debug, Default)]
pub(crate) struct TxnVerdict {
    frames_per_page: usize,
    records: HashSet<u64>,
    /// `(pid, ts, txn)` of tagged differentials.
    diff_cands: Vec<(u64, u64, u64)>,
    /// `(frame, ts, txn)` of tagged base pages.
    base_cands: Vec<(u64, u64, u64)>,
    /// Newest committed base ts per frame.
    eff_frame: HashMap<u64, u64>,
    /// Newest committed differential ts per pid.
    eff_diff: HashMap<u64, u64>,
}

/// Resolved first-pass result: live tags and local commit records.
#[derive(Clone, Debug, Default)]
pub struct TxnScan {
    pub tagged: HashSet<u64>,
    pub records: HashSet<u64>,
}

impl TxnScan {
    /// Transactions torn on this chip: live-tagged but without a local
    /// commit record. (For a sharded store the torn sets of every shard
    /// are unioned before the second pass.)
    pub fn torn(&self) -> HashSet<u64> {
        self.tagged.difference(&self.records).copied().collect()
    }
}

impl TxnVerdict {
    pub fn new(frames_per_page: usize) -> TxnVerdict {
        TxnVerdict { frames_per_page, ..TxnVerdict::default() }
    }

    pub fn note_committed_base(&mut self, frame: u64, ts: u64) {
        let e = self.eff_frame.entry(frame).or_insert(0);
        *e = (*e).max(ts);
    }

    pub fn note_committed_diff(&mut self, pid: u64, ts: u64) {
        let e = self.eff_diff.entry(pid).or_insert(0);
        *e = (*e).max(ts);
    }

    pub fn note_record(&mut self, txn: u64) {
        self.records.insert(txn);
    }

    /// Feed one non-obsolete page into the verdict.
    pub fn note_page(
        &mut self,
        chip: &mut FlashChip,
        ppn: Ppn,
        info: SpareInfo,
        data_buf: &mut [u8],
    ) -> Result<()> {
        match info.kind {
            PageKind::Base => {
                if info.txn == NO_TXN {
                    self.note_committed_base(info.tag, info.ts);
                } else {
                    self.base_cands.push((info.tag, info.ts, info.txn));
                }
            }
            PageKind::Diff => {
                chip.read_data(ppn, data_buf)?;
                // An unparseable page contributes nothing; the main scan
                // will set it obsolete.
                let Ok(records) = Differential::parse_page(data_buf) else { return Ok(()) };
                for rec in records {
                    match rec {
                        PageRecord::Diff(d) => {
                            if d.txn == NO_TXN {
                                self.note_committed_diff(d.pid, d.ts);
                            } else {
                                self.diff_cands.push((d.pid, d.ts, d.txn));
                            }
                        }
                        PageRecord::Commit(c) => self.note_record(c.txn),
                        // An epoch record proves every member id durably
                        // committed, exactly as per-txn records would.
                        PageRecord::Epoch(e) => {
                            for id in e.ids() {
                                self.note_record(id);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Compute the live tag set. A tagged candidate whose transaction has
    /// a local record counts as committed and joins the domination
    /// baselines (so a committed rewrite kills the tags it superseded);
    /// domination is non-strict — a GC twin with an equal time stamp and
    /// identical content dominates its tagged original.
    pub fn resolve(mut self) -> TxnScan {
        for (frame, ts, txn) in &self.base_cands {
            if self.records.contains(txn) {
                let e = self.eff_frame.entry(*frame).or_insert(0);
                *e = (*e).max(*ts);
            }
        }
        for (pid, ts, txn) in &self.diff_cands {
            if self.records.contains(txn) {
                let e = self.eff_diff.entry(*pid).or_insert(0);
                *e = (*e).max(*ts);
            }
        }
        let k = self.frames_per_page.max(1) as u64;
        let mut tagged = HashSet::new();
        // Only unrecorded transactions can be torn, so only their
        // candidates need a liveness check.
        for (frame, ts, txn) in &self.base_cands {
            if self.records.contains(txn) {
                continue;
            }
            if self.eff_frame.get(frame).copied().unwrap_or(0) < *ts {
                tagged.insert(*txn);
            }
        }
        for (pid, ts, txn) in &self.diff_cands {
            if self.records.contains(txn) {
                continue;
            }
            // A differential is live only while newer than every base
            // frame of its page and newer than any committed differential.
            let base_ts = (0..k)
                .map(|j| self.eff_frame.get(&(pid * k + j)).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            let committed_ts = base_ts.max(self.eff_diff.get(pid).copied().unwrap_or(0));
            if committed_ts < *ts {
                tagged.insert(*txn);
            }
        }
        TxnScan { tagged, records: self.records }
    }
}

/// The read-only transaction pass over a whole chip (outside the
/// checkpoint root region).
pub(crate) fn txn_precheck(chip: &mut FlashChip, opts: &StoreOptions) -> Result<TxnScan> {
    let g = chip.geometry();
    chip.set_context(OpContext::Recovery);
    let t0 = chip.sim_now_us();
    let result = (|| -> Result<TxnScan> {
        let mut verdict = TxnVerdict::new(opts.frames_per_page as usize);
        let mut data_buf = vec![0u8; g.data_size];
        let first = opts.checkpoint_blocks * g.pages_per_block;
        // Sequential read-ahead: keep the next window of pages in flight
        // while the current one is consumed (free at queue depth 1).
        let mut next_pf = first;
        for p in first..g.num_pages() {
            let end = (p + 1 + SCAN_READAHEAD).min(g.num_pages());
            while next_pf < end {
                chip.prefetch_page(Ppn(next_pf))?;
                next_pf += 1;
            }
            let ppn = Ppn(p);
            let Some(info) = chip.read_spare(ppn)? else { continue };
            if info.obsolete {
                continue;
            }
            verdict.note_page(chip, ppn, info, &mut data_buf)?;
        }
        Ok(verdict.resolve())
    })();
    crate::page_store::obs_event(
        chip,
        pdl_flash::LatencyClass::RecoveryPhase,
        "recovery",
        "recovery",
        t0,
        0,
        0, // phase 0: transaction precheck pass
    );
    chip.set_context(OpContext::User);
    result
}

/// Mapping tables under reconstruction, plus the time-stamp bookkeeping
/// Figure 11 relies on and the transaction bookkeeping the torn-commit
/// pass produces.
pub(crate) struct RecoveryTables {
    pub ppmt: Vec<PpmtEntry>,
    pub vdct: Vec<u16>,
    /// ts(bp) per frame.
    pub frame_ts: Vec<u64>,
    /// ts(dp, differential(pid)) per logical page.
    pub diff_ts: Vec<u64>,
    pub written: Vec<u32>,
    pub obsolete: Vec<u32>,
    pub max_ts: u64,
    /// Transactions whose commits are torn: their tagged pages are
    /// discarded by the scan.
    pub uncommitted: HashSet<u64>,
    /// Tag of the winning differential per logical page.
    pub diff_txn: Vec<u64>,
    /// Tag of the winning base page per frame.
    pub base_txn: Vec<u64>,
    /// Live commit-record location per transaction. Pre-populated (and
    /// already counted in `vdct`) by the checkpoint fast path; the full
    /// scan fills it in [`RecoveryTables::finish`].
    pub commit_locs: TxnMap<u32>,
    /// Commit-record copies discovered by the scan, per transaction.
    pub commit_cands: HashMap<u64, Vec<u32>>,
    /// Pages holding at least one commit record (their obsoletion is
    /// decided in [`RecoveryTables::finish`], once record liveness is
    /// known).
    pub has_record: HashSet<u32>,
    /// Diff pages that lost every differential but hold commit records.
    pending_dead: Vec<u32>,
    /// Differential pages whose data failed checksum verification,
    /// with their creation time stamps. They are *not* marked obsolete
    /// (so a repeated recovery re-detects them); [`RecoveryTables::finish`]
    /// poisons every logical page they could have superseded.
    corrupt_diffs: Vec<(u32, u64)>,
    /// Logical pages that must not be served after this recovery: a
    /// corrupt differential page may have held their newest state.
    pub poisoned: HashMap<u64, u32>,
    /// Byte-identical base duplicates (equal tag and time stamp) left by
    /// a crash mid-GC-migration: live ppn -> surviving twin. Seed for the
    /// running store's single-page repair registry.
    pub twins: HashMap<u32, u32>,
    /// Transaction whose structure-root tail record won the root-region
    /// scan: its commit record takes one extra presence ref in
    /// [`RecoveryTables::finish`] so the record outlives tag shedding
    /// until the next checkpoint compacts the root log.
    pub root_ref: Option<u64>,
    frames_per_page: usize,
}

impl RecoveryTables {
    pub fn empty(
        opts: &StoreOptions,
        num_flash_pages: u32,
        num_blocks: u32,
        uncommitted: HashSet<u64>,
    ) -> RecoveryTables {
        let nl = opts.num_logical_pages as usize;
        let k = opts.frames_per_page as usize;
        RecoveryTables {
            ppmt: vec![PpmtEntry::default(); nl],
            vdct: vec![0u16; num_flash_pages as usize],
            frame_ts: vec![0u64; nl * k],
            diff_ts: vec![0u64; nl],
            written: vec![0u32; num_blocks as usize],
            obsolete: vec![0u32; num_blocks as usize],
            max_ts: 0,
            uncommitted,
            diff_txn: vec![NO_TXN; nl],
            base_txn: vec![NO_TXN; nl * k],
            commit_locs: TxnMap::default(),
            commit_cands: HashMap::new(),
            has_record: HashSet::new(),
            pending_dead: Vec::new(),
            corrupt_diffs: Vec::new(),
            poisoned: HashMap::new(),
            twins: HashMap::new(),
            root_ref: None,
            frames_per_page: k,
        }
    }

    fn decrease_vdct(&mut self, chip: &mut FlashChip, dp: u32) -> Result<()> {
        debug_assert!(self.vdct[dp as usize] > 0, "recovery vdct underflow");
        self.vdct[dp as usize] -= 1;
        if self.vdct[dp as usize] == 0 {
            if self.has_record.contains(&dp) {
                // The page may still carry a live commit record; decide in
                // finish(), once record liveness is known.
                self.pending_dead.push(dp);
            } else {
                self.obsolete_diff_page(chip, dp)?;
            }
        }
        Ok(())
    }

    fn obsolete_diff_page(&mut self, chip: &mut FlashChip, dp: u32) -> Result<()> {
        let ppn = Ppn(dp);
        // Idempotent under repeated recovery: check before writing.
        let already = chip.read_spare(ppn)?.map(|i| i.obsolete).unwrap_or(false);
        if !already {
            crate::ftl::mark_obsolete_lenient(chip, ppn)?;
        }
        let block = (dp / chip.geometry().pages_per_block) as usize;
        self.obsolete[block] += 1;
        Ok(())
    }

    fn mark_page_obsolete(&mut self, chip: &mut FlashChip, ppn: Ppn) -> Result<()> {
        let already = chip.read_spare(ppn)?.map(|i| i.obsolete).unwrap_or(false);
        if !already {
            crate::ftl::mark_obsolete_lenient(chip, ppn)?;
        }
        self.obsolete[chip.geometry().block_of(ppn).0 as usize] += 1;
        Ok(())
    }

    /// Replay one non-free, non-obsolete physical page into the tables
    /// (Figure 11's loop body). `data_buf` is a page-sized scratch buffer.
    pub fn apply_page(
        &mut self,
        chip: &mut FlashChip,
        ppn: Ppn,
        info: SpareInfo,
        data_buf: &mut [u8],
    ) -> Result<()> {
        let g = chip.geometry();
        let p = ppn.0;
        let k = self.frames_per_page;
        let nl = self.ppmt.len();
        let num_frames = nl * k;
        self.max_ts = self.max_ts.max(info.ts);
        match info.kind {
            // Case 1: r is a base page.
            PageKind::Base => {
                // Torn transaction: the page never became visible.
                if info.txn != NO_TXN && self.uncommitted.contains(&info.txn) {
                    return self.mark_page_obsolete(chip, ppn);
                }
                let frame = info.tag as usize;
                if frame >= num_frames {
                    return self.mark_page_obsolete(chip, ppn);
                }
                let pid = frame / k;
                let j = frame % k;
                let cur = self.ppmt[pid].base[j];
                // Equal-ts twins arise from GC copies; when compaction
                // shed a committed tag, the untagged twin is the one
                // whose validity is unconditional — prefer it.
                let untagged_twin = info.ts == self.frame_ts[frame]
                    && self.base_txn[frame] != NO_TXN
                    && info.txn == NO_TXN;
                if cur == NONE || info.ts > self.frame_ts[frame] || untagged_twin {
                    // r is a more recent base page.
                    if cur != NONE {
                        let old = Ppn(cur);
                        let already = chip.read_spare(old)?.map(|i| i.obsolete).unwrap_or(false);
                        if !already {
                            crate::ftl::mark_obsolete_lenient(chip, old)?;
                        }
                        self.obsolete[g.block_of(old).0 as usize] += 1;
                        if info.ts == self.frame_ts[frame] {
                            // Equal-ts duplicates are byte-identical GC
                            // copies: the loser stays on flash — free
                            // redundancy for single-page repair.
                            self.twins.insert(p, cur);
                        }
                    }
                    self.ppmt[pid].base[j] = p;
                    self.frame_ts[frame] = info.ts;
                    self.base_txn[frame] = info.txn;
                    // r more recent than differential(pid)? Then the
                    // differential must be obsolete.
                    if self.ppmt[pid].diff != NONE && info.ts > self.diff_ts[pid] {
                        let dp = self.ppmt[pid].diff;
                        self.decrease_vdct(chip, dp)?;
                        self.ppmt[pid].diff = NONE;
                        self.diff_ts[pid] = 0;
                        self.diff_txn[pid] = NO_TXN;
                    }
                } else {
                    // The table already holds a more recent base page.
                    self.mark_page_obsolete(chip, ppn)?;
                    if info.ts == self.frame_ts[frame] && cur != NONE {
                        self.twins.insert(cur, p);
                    }
                }
                Ok(())
            }
            // Case 2: r is a differential page.
            PageKind::Diff => {
                match chip.read_data_verified(ppn, data_buf) {
                    Ok(()) => {}
                    Err(pdl_flash::FlashError::ChecksumMismatch(_)) => {
                        // The records are unreadable, and any logical page
                        // whose newest differential lived here would be
                        // silently stale without one. Deliberately *not*
                        // marked obsolete: a repeated recovery must
                        // re-detect it (the poison set is in-memory only).
                        self.corrupt_diffs.push((p, info.ts));
                        return Ok(());
                    }
                    Err(e) => return Err(e.into()),
                }
                let records = match Differential::parse_page(data_buf) {
                    Ok(r) => r,
                    Err(_) => {
                        // Unparseable: nothing in it can be trusted.
                        return self.mark_page_obsolete(chip, ppn);
                    }
                };
                for rec in records {
                    match rec {
                        PageRecord::Commit(c) => {
                            self.max_ts = self.max_ts.max(c.ts);
                            self.commit_cands.entry(c.txn).or_default().push(p);
                            self.has_record.insert(p);
                        }
                        PageRecord::Epoch(e) => {
                            // Each member behaves as if it had its own
                            // record on this page: a candidate location per
                            // member, sharing the page. finish() then keeps
                            // the page alive while any member is referenced.
                            self.max_ts = self.max_ts.max(e.ts);
                            for id in e.ids() {
                                self.commit_cands.entry(id).or_default().push(p);
                            }
                            self.has_record.insert(p);
                        }
                        PageRecord::Diff(d) => {
                            if d.txn != NO_TXN && self.uncommitted.contains(&d.txn) {
                                // Torn transaction: the differential never
                                // became visible.
                                continue;
                            }
                            let pid = d.pid as usize;
                            if pid >= nl {
                                continue;
                            }
                            self.max_ts = self.max_ts.max(d.ts);
                            let base_ts =
                                (0..k).map(|j| self.frame_ts[pid * k + j]).max().unwrap_or(0);
                            // Same untagged-twin preference as for bases.
                            let untagged_twin = d.ts == self.diff_ts[pid]
                                && self.diff_txn[pid] != NO_TXN
                                && d.txn == NO_TXN;
                            if d.ts > base_ts && (d.ts > self.diff_ts[pid] || untagged_twin) {
                                // d is the most recent differential of pid.
                                if self.ppmt[pid].diff != NONE {
                                    let dp = self.ppmt[pid].diff;
                                    self.decrease_vdct(chip, dp)?;
                                }
                                self.ppmt[pid].diff = p;
                                self.diff_ts[pid] = d.ts;
                                self.diff_txn[pid] = d.txn;
                                self.vdct[p as usize] += 1;
                            }
                        }
                    }
                }
                if self.vdct[p as usize] == 0 {
                    if self.has_record.contains(&p) {
                        self.pending_dead.push(p);
                    } else {
                        // r does not contain any valid differential.
                        self.obsolete_diff_page(chip, ppn.0)?;
                    }
                }
                Ok(())
            }
            // Spilled cold MVCC versions are a flash-resident cache of
            // in-memory retention state; no read view survives a crash, so
            // every spill page is garbage after one.
            PageKind::Spill => self.mark_page_obsolete(chip, ppn),
            other => {
                Err(CoreError::Corruption(format!("PDL recovery found a {other:?} page at {ppn}")))
            }
        }
    }

    /// Post-scan transaction resolution: count the *live* tags per
    /// transaction (winning differentials and base frames), keep one
    /// commit-record copy alive (counted in the valid-differential
    /// table) for every transaction still referenced, and set the
    /// remaining record-only pages obsolete. Returns the presence gauge
    /// the running store resumes with.
    pub fn finish(&mut self, chip: &mut FlashChip) -> Result<TxnMap<u32>> {
        let mut presence: TxnMap<u32> = TxnMap::default();
        for (pid, t) in self.diff_txn.iter().enumerate() {
            if *t != NO_TXN && self.ppmt[pid].diff != NONE {
                *presence.entry(*t).or_insert(0) += 1;
            }
        }
        let k = self.frames_per_page;
        for (frame, t) in self.base_txn.iter().enumerate() {
            if *t != NO_TXN && self.ppmt[frame / k].base[frame % k] != NONE {
                *presence.entry(*t).or_insert(0) += 1;
            }
        }
        // The authoritative structure-root tail record pins its
        // transaction's commit record exactly like a live tag would —
        // added here, before record resolution, so the retention logic
        // below covers it and the pending-dead sweep never obsoletes it.
        if let Some(t) = self.root_ref {
            *presence.entry(t).or_insert(0) += 1;
        }
        // One live record copy per referenced transaction (the lowest
        // surviving physical page, deterministically, so repeated
        // recoveries agree). The checkpoint fast path pre-counts loaded
        // locations, but a copy the delta scan found postdates the
        // checkpoint — the proof was carried forward or compacted since —
        // and the loaded location may by now be marked obsolete inside a
        // block whose fingerprint never changed: the scanned copy takes
        // over and the loaded reference is released below.
        let mut stale: Vec<u32> = Vec::new();
        for t in presence.keys() {
            let loaded = self.commit_locs.get(t).copied();
            let Some(cands) = self.commit_cands.get(t) else {
                if loaded.is_some() {
                    continue;
                }
                // Only committed transactions' tags survive the scan, so
                // a record existed and is gone: serving the page would
                // absorb a lost commit proof.
                return Err(CoreError::Corruption(format!(
                    "live tag without a commit record for txn {t}"
                )));
            };
            let loc = *cands.iter().min().expect("candidate list is never empty");
            self.vdct[loc as usize] += 1;
            self.commit_locs.insert(*t, loc);
            stale.extend(loaded);
        }
        // Loaded proofs nothing references any more (every tag was
        // superseded after the checkpoint) go the same way, so no table
        // entry outlives a page the flash already calls obsolete.
        self.commit_locs.retain(|t, loc| {
            let referenced = presence.contains_key(t);
            if !referenced {
                stale.push(*loc);
            }
            referenced
        });
        stale.sort_unstable();
        for loc in stale {
            self.decrease_vdct(chip, loc)?;
        }
        // Single-page failures: a corrupt differential page with creation
        // time stamp T may have held the newest differential of *any*
        // logical page whose resolved durable state is older than T (the
        // records are unreadable, so which pages is unknowable). Poison
        // every such page — coarse, but sound: availability is lost, wrong
        // bytes are never served. Pages whose resolved state is newer
        // than T cannot have been superseded by anything stored there.
        for (p, pts) in std::mem::take(&mut self.corrupt_diffs) {
            for pid in 0..self.ppmt.len() {
                if self.ppmt[pid].base[0] == NONE {
                    continue;
                }
                let newest = (0..k)
                    .map(|j| self.frame_ts[pid * k + j])
                    .max()
                    .unwrap_or(0)
                    .max(self.diff_ts[pid]);
                if newest < pts {
                    self.poisoned.entry(pid as u64).or_insert(p);
                }
            }
        }
        // Sweep: pages that lost every differential and whose records
        // turned out dead (or duplicates) are useless now.
        for p in std::mem::take(&mut self.pending_dead) {
            if self.vdct[p as usize] > 0 {
                continue; // a chosen record keeps it alive
            }
            let ppn = Ppn(p);
            let already = chip.read_spare(ppn)?.map(|i| i.obsolete).unwrap_or(false);
            if !already {
                crate::ftl::mark_obsolete_lenient(chip, ppn)?;
            }
            self.obsolete[chip.geometry().block_of(ppn).0 as usize] += 1;
        }
        Ok(presence)
    }
}

impl Pdl {
    /// Rebuild a PDL store from chip contents after a crash. When the
    /// store was built with a checkpoint root region
    /// ([`StoreOptions::with_checkpoint_blocks`]), the latest committed
    /// checkpoint is loaded and only blocks changed since are scanned;
    /// otherwise (or when no checkpoint exists) the full Figure-11 scan
    /// runs. The torn-transaction verdict is computed locally: on a
    /// single chip every commit record is local, so tagged-without-record
    /// means torn.
    pub fn recover(chip: FlashChip, opts: StoreOptions, max_diff_size: usize) -> Result<Pdl> {
        Pdl::recover_with_uncommitted(chip, opts, max_diff_size, None)
    }

    /// [`Pdl::recover`] continuing from a [`super::CheckpointDelta`] the
    /// caller already loaded (the sharded engine's precheck loads and
    /// classifies the checkpoint once; the table rebuild replays the same
    /// delta instead of re-reading the checkpoint region).
    pub(crate) fn recover_with_delta(
        mut chip: FlashChip,
        opts: StoreOptions,
        max_diff_size: usize,
        uncommitted: HashSet<u64>,
        delta: super::CheckpointDelta,
    ) -> Result<Pdl> {
        opts.validate(&chip)?;
        let tables = super::checkpoint::replay_delta(&mut chip, delta, uncommitted)?;
        Pdl::from_recovered(chip, opts, max_diff_size, tables)
    }

    /// [`Pdl::recover`] with the torn-transaction set supplied by the
    /// caller — the sharded engine unions every shard's precheck before
    /// any shard resolves, so a transaction torn on one chip is
    /// discarded on all of them.
    pub fn recover_with_uncommitted(
        mut chip: FlashChip,
        opts: StoreOptions,
        max_diff_size: usize,
        uncommitted: Option<HashSet<u64>>,
    ) -> Result<Pdl> {
        opts.validate(&chip)?;
        if opts.checkpoint_blocks > 0 {
            if let Some(tables) =
                super::checkpoint::try_fast_recover(&mut chip, &opts, uncommitted.clone())?
            {
                return Pdl::from_recovered(chip, opts, max_diff_size, tables);
            }
        }
        let uncommitted = match uncommitted {
            Some(u) => u,
            None => txn_precheck(&mut chip, &opts)?.torn(),
        };
        let tables = scan(&mut chip, &opts, uncommitted)?;
        Pdl::from_recovered(chip, opts, max_diff_size, tables)
    }

    pub(crate) fn from_recovered(
        mut chip: FlashChip,
        opts: StoreOptions,
        max_diff_size: usize,
        mut tables: RecoveryTables,
    ) -> Result<Pdl> {
        let g = chip.geometry();
        // Resolve the durable structure roots first: the winning tail
        // record's transaction must be noted before `finish` runs so its
        // commit record is retained (and never swept) by the normal
        // presence machinery.
        let root_state = if opts.checkpoint_blocks >= 2 {
            chip.set_context(OpContext::Recovery);
            let rs = super::checkpoint::load_root_state(&mut chip, &opts, &|t| {
                (tables.commit_locs.contains_key(&t) || tables.commit_cands.contains_key(&t))
                    && !tables.uncommitted.contains(&t)
            });
            chip.set_context(OpContext::User);
            let rs = rs?;
            tables.root_ref = rs.live_txn;
            Some(rs)
        } else {
            None
        };
        let presence = {
            chip.set_context(OpContext::Recovery);
            let t0 = chip.sim_now_us();
            let r = tables.finish(&mut chip);
            crate::page_store::obs_event(
                &mut chip,
                pdl_flash::LatencyClass::RecoveryPhase,
                "recovery",
                "recovery",
                t0,
                0,
                2, // phase 2: table finishing / record resolution
            );
            chip.set_context(OpContext::User);
            r?
        };
        let mut alloc = BlockManager::new(g.num_blocks, g.pages_per_block, opts.reserve_blocks);
        alloc.set_policy(opts.gc_policy);
        for b in 0..opts.checkpoint_blocks {
            alloc.reserve_block(BlockId(b));
        }
        alloc.rebuild(&tables.written, &tables.obsolete);
        // Blocks whose erase failed before the crash are permanently
        // broken on the chip; retire them up front so GC never selects
        // one as a victim (its erase would fail again, forever).
        for b in 0..g.num_blocks {
            if chip.is_broken(BlockId(b)) {
                alloc.retire_block(BlockId(b));
            }
        }
        // The carry queue, oldest transaction first: ids rise with age
        // and the order must not depend on the map's.
        let mut proof_fifo: Vec<u64> = tables.commit_locs.keys().copied().collect();
        proof_fifo.sort_unstable();
        let (ckpt_seq, ckpt_live_half, struct_roots, live_root_txn, root_tail, root_tail_end) =
            match &root_state {
                Some(rs) => {
                    (rs.seq, rs.live_half, rs.roots.clone(), rs.live_txn, rs.tail, rs.tail_end)
                }
                None => (0, None, Default::default(), None, 0, 0),
            };
        let pdl = Pdl {
            opts,
            max_diff_size,
            ppmt: tables.ppmt,
            // Which bytes each recovered differential covers is on flash
            // only: the first staging of every page reads its base.
            spans: super::DiffSpans::unknown(opts.num_logical_pages as usize),
            vdct: tables.vdct,
            dwb: DiffWriteBuffer::new(g.data_size),
            alloc,
            heat: crate::ftl::HeatTable::new(opts.num_logical_pages),
            ts: tables.max_ts + 1,
            in_gc: false,
            ckpt_seq,
            ckpt_live_half,
            struct_roots,
            pending_roots: None,
            live_root_txn,
            root_tail,
            root_tail_end,
            root_tail_used: root_state.as_ref().map(|rs| rs.tail_used).unwrap_or(false),
            diff_txn: tables.diff_txn,
            base_txn: tables.base_txn,
            presence,
            commit_locs: tables.commit_locs,
            proof_fifo: proof_fifo.into(),
            #[cfg(test)]
            carry_disabled: false,
            deferred: Vec::new(),
            batch_pins: HashSet::new(),
            in_txn_batch: false,
            batch_failed: None,
            poisoned: tables.poisoned,
            twins: tables.twins,
            spills: HashMap::new(),
            spill_rev: HashMap::new(),
            next_spill: 0,
            gc_moves: Vec::new(),
            base_buf: vec![0u8; opts.logical_page_size(g.data_size)],
            frame_buf: vec![0u8; g.data_size],
            page_img: vec![0u8; g.data_size],
            counters: PdlCounters::default(),
            chip,
        };
        Ok(pdl)
    }
}

/// The scan of Figure 11: for every physical page (outside the checkpoint
/// root region), read the spare area and update the tables according to
/// the page's type and time stamps. Borrows the chip so a crashed
/// (power-loss) scan can simply be retried. `uncommitted` is the torn
/// transaction set from the precheck pass.
pub(crate) fn scan(
    chip: &mut FlashChip,
    opts: &StoreOptions,
    uncommitted: HashSet<u64>,
) -> Result<RecoveryTables> {
    let g = chip.geometry();
    let mut tables = RecoveryTables::empty(opts, g.num_pages(), g.num_blocks, uncommitted);
    chip.set_context(OpContext::Recovery);
    let t0 = chip.sim_now_us();
    let result = (|| -> Result<()> {
        let mut data_buf = vec![0u8; g.data_size];
        let first = opts.checkpoint_blocks * g.pages_per_block;
        // Figure-11's scan is strictly sequential: issue the next window
        // of page reads while the current page is consumed.
        let mut next_pf = first;
        for p in first..g.num_pages() {
            let end = (p + 1 + SCAN_READAHEAD).min(g.num_pages());
            while next_pf < end {
                chip.prefetch_page(Ppn(next_pf))?;
                next_pf += 1;
            }
            let ppn = Ppn(p);
            let block = g.block_of(ppn).0 as usize;
            let Some(info) = chip.read_spare(ppn)? else { continue };
            if info.kind == PageKind::Free {
                continue;
            }
            tables.written[block] += 1;
            if info.obsolete {
                tables.obsolete[block] += 1;
                continue;
            }
            tables.apply_page(chip, ppn, info, &mut data_buf)?;
        }
        Ok(())
    })();
    crate::page_store::obs_event(
        chip,
        pdl_flash::LatencyClass::RecoveryPhase,
        "recovery",
        "recovery",
        t0,
        0,
        1, // phase 1: the Figure-11 full scan
    );
    chip.set_context(OpContext::User);
    result?;
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::is_power_loss;
    use crate::ftl::GcPolicy;
    use crate::page_store::PageStore;
    use pdl_flash::FlashConfig;

    const MAX_DIFF: usize = 128;

    fn fresh(pages: u64) -> Pdl {
        Pdl::new(FlashChip::new(FlashConfig::tiny()), StoreOptions::new(pages), MAX_DIFF).unwrap()
    }

    fn crash_and_recover(s: Pdl, pages: u64) -> Pdl {
        let chip = Box::new(s).into_chip();
        Pdl::recover(chip, StoreOptions::new(pages), MAX_DIFF).unwrap()
    }

    #[test]
    fn recovers_bases_and_flushed_differentials() {
        let mut s = fresh(8);
        let size = s.logical_page_size();
        let mut truth: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; size]).collect();
        for (pid, t) in truth.iter().enumerate() {
            s.write_page(pid as u64, t).unwrap();
        }
        for pid in 0..4usize {
            truth[pid][10..20].fill(0xEE);
            let p = truth[pid].clone();
            s.write_page(pid as u64, &p).unwrap();
        }
        s.flush().unwrap(); // durability point
        let mut r = crash_and_recover(s, 8);
        for pid in 0..8usize {
            let mut out = vec![0u8; size];
            r.read_page(pid as u64, &mut out).unwrap();
            assert_eq!(out, truth[pid], "pid {pid}");
        }
    }

    #[test]
    fn unflushed_buffer_contents_are_lost_as_specified() {
        let mut s = fresh(4);
        let size = s.logical_page_size();
        let base = vec![1u8; size];
        s.write_page(0, &base).unwrap();
        let mut v2 = base.clone();
        v2[0] = 9;
        s.write_page(0, &v2).unwrap(); // stays in the write buffer
        let mut r = crash_and_recover(s, 4);
        let mut out = vec![0u8; size];
        r.read_page(0, &mut out).unwrap();
        // The update never reached flash: the base survives.
        assert_eq!(out, base);
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut s = fresh(8);
        let size = s.logical_page_size();
        for pid in 0..8u64 {
            s.write_page(pid, &vec![pid as u8; size]).unwrap();
        }
        for pid in 0..8u64 {
            let mut p = vec![pid as u8; size];
            p[0] = 0xAA;
            s.write_page(pid, &p).unwrap();
        }
        s.flush().unwrap();
        let r1 = crash_and_recover(s, 8);
        let stats_after_first = r1.chip().stats().recovery;
        let mut r2 = crash_and_recover(r1, 8);
        // Second recovery performs the same scan but never needs to mark
        // anything obsolete again.
        let second = r2.chip().stats().recovery;
        assert_eq!(second.writes, stats_after_first.writes, "no new obsolete marks");
        for pid in 0..8u64 {
            let mut out = vec![0u8; size];
            r2.read_page(pid, &mut out).unwrap();
            assert_eq!(out[0], 0xAA);
        }
    }

    #[test]
    fn store_keeps_working_after_recovery() {
        let mut s = fresh(8);
        let size = s.logical_page_size();
        for pid in 0..8u64 {
            s.write_page(pid, &vec![pid as u8; size]).unwrap();
        }
        s.flush().unwrap();
        let mut r = crash_and_recover(s, 8);
        // Continue updating enough to force GC after recovery.
        let mut truth: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; size]).collect();
        for round in 0..200u32 {
            let pid = (round % 8) as usize;
            let at = (round as usize * 13) % (size - 8);
            truth[pid][at..at + 8].fill(round as u8);
            let p = truth[pid].clone();
            r.write_page(pid as u64, &p).unwrap();
        }
        for pid in 0..8usize {
            let mut out = vec![0u8; size];
            r.read_page(pid as u64, &mut out).unwrap();
            assert_eq!(out, truth[pid], "pid {pid}");
        }
    }

    #[test]
    fn co_existing_base_pages_resolved_by_timestamp() {
        // Crash between "write new base page" and "set old base obsolete":
        // arm the fault so the obsolete mark fails.
        let mut s = fresh(4);
        let size = s.logical_page_size();
        s.write_page(0, &vec![1u8; size]).unwrap();
        // The next whole-page change is a Case 3 (oversized differential).
        s.chip_mut().arm_fault(1); // allow exactly the base program
        let err = s.write_page(0, &vec![2u8; size]).unwrap_err();
        assert!(is_power_loss(&err));
        s.chip_mut().disarm_fault();
        let mut r = crash_and_recover(s, 4);
        let mut out = vec![0u8; size];
        r.read_page(0, &mut out).unwrap();
        // The new base page carries the newer time stamp and must win.
        assert!(out.iter().all(|&b| b == 2));
    }

    #[test]
    fn repeated_crashes_during_recovery_still_converge() {
        let mut s = fresh(8);
        let size = s.logical_page_size();
        for pid in 0..8u64 {
            s.write_page(pid, &vec![pid as u8; size]).unwrap();
        }
        // Leave work for recovery: crash an eviction between the new base
        // program and the obsolete mark, so a stale copy co-exists.
        s.chip_mut().arm_fault(1);
        let err = s.write_page(3, &vec![0x77u8; size]).unwrap_err();
        assert!(is_power_loss(&err));
        s.chip_mut().disarm_fault();

        let mut chip = Box::new(s).into_chip();
        let opts = StoreOptions::new(8);
        // Crash during recovery repeatedly with growing op budgets; the
        // scan only marks useless pages obsolete, so partial progress
        // persists on the chip and later attempts converge.
        let mut attempts = 0;
        for budget in 0..8u64 {
            chip.arm_fault(budget);
            attempts += 1;
            if scan(&mut chip, &opts, HashSet::new()).is_ok() {
                break;
            }
        }
        chip.disarm_fault();
        assert!(attempts >= 1);
        let mut r = Pdl::recover(chip, opts, MAX_DIFF).unwrap();
        let mut out = vec![0u8; size];
        r.read_page(3, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0x77), "newest base must win after crashes");
        for pid in [0u64, 1, 2, 4, 5, 6, 7] {
            r.read_page(pid, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == pid as u8), "pid {pid}");
        }
    }

    /// A checkpoint loads every live base at its watermark. When GC later
    /// moves a page's differential out of its block (the copy keeps its
    /// older time stamp) and erases that block, fast recovery must still
    /// apply the copy over the loaded base.
    #[test]
    fn a_differential_gc_moved_after_a_checkpoint_outranks_the_loaded_base() {
        // Cost-benefit ages the block in: greedy keeps finding emptier ones.
        let opts =
            StoreOptions::new(8).with_checkpoint_blocks(2).with_gc_policy(GcPolicy::CostBenefit);
        let mut s = Pdl::new(FlashChip::new(FlashConfig::tiny()), opts, MAX_DIFF).unwrap();
        let size = s.logical_page_size();
        let mut truth: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; size]).collect();
        for (pid, t) in truth.iter().enumerate() {
            s.write_page(pid as u64, t).unwrap();
        }
        truth[0][10..20].fill(0xEE);
        s.write_page(0, &truth[0]).unwrap();
        s.checkpoint().unwrap(); // flushes page 0's differential first
        let g = s.chip().geometry();
        let (base, victim) = (g.block_of(Ppn(s.ppmt[0].base[0])), g.block_of(Ppn(s.ppmt[0].diff)));
        let erases = s.chip().erase_count(victim);
        // Churn the other pages' differentials (page 0 is never written
        // again) until GC has emptied and erased the differential's block.
        for round in 1.. {
            assert!(round < 500, "GC never picked the differential's block");
            if s.chip().erase_count(victim) > erases {
                break;
            }
            let pid = 1 + round % 7;
            truth[pid][40..104].fill(round as u8);
            s.write_page(pid as u64, &truth[pid]).unwrap();
        }
        s.flush().unwrap();
        assert_ne!(g.block_of(Ppn(s.ppmt[0].diff)), victim, "GC moved the differential");
        assert_eq!(g.block_of(Ppn(s.ppmt[0].base[0])), base, "the loaded base stays put");
        let mut r = Pdl::recover(Box::new(s).into_chip(), opts, MAX_DIFF).unwrap();
        let mut out = vec![0u8; size];
        for (pid, t) in truth.iter().enumerate() {
            r.read_page(pid as u64, &mut out).unwrap();
            assert_eq!(&out, t, "pid {pid}");
        }
    }

    // ------------------------------------------------------------------
    // pdl-txn: torn-commit recovery
    // ------------------------------------------------------------------

    /// One transaction's pages through [`PageStore::commit_batch`].
    fn commit(s: &mut Pdl, txn: u64, pages: &[(u64, &[u8])]) {
        let pages = pages.iter().map(|&(pid, img)| crate::BatchPage::new(pid, img, txn)).collect();
        s.commit_batch(&crate::CommitBatch { pages, roots: None }).unwrap();
    }

    #[test]
    fn committed_transaction_survives_crash() {
        let mut s = fresh(8);
        let size = s.logical_page_size();
        for pid in 0..4u64 {
            s.write_page(pid, &vec![1u8; size]).unwrap();
        }
        s.flush().unwrap();
        let mut a = vec![1u8; size];
        a[0] = 0xA1;
        let mut b = vec![1u8; size];
        b[9] = 0xB2;
        commit(&mut s, 50, &[(0, &a), (1, &b)]);
        let mut r = crash_and_recover(s, 8);
        assert!(r.txn_committed(50));
        let mut out = vec![0u8; size];
        r.read_page(0, &mut out).unwrap();
        assert_eq!(out, a);
        r.read_page(1, &mut out).unwrap();
        assert_eq!(out, b);
    }

    #[test]
    fn torn_commit_rolls_back_to_pre_images() {
        // Stage two tagged pages (one of them forced through a Case-3
        // base write), flush the stage, and crash before the commit
        // record: recovery must restore both pre-images.
        let mut s = fresh(8);
        let size = s.logical_page_size();
        let pre0 = vec![3u8; size];
        let mut pre1 = vec![4u8; size];
        s.write_page(0, &pre0).unwrap();
        s.write_page(1, &pre1).unwrap();
        pre1[2..6].fill(0x44); // give pid 1 a committed differential too
        s.write_page(1, &pre1).unwrap();
        s.flush().unwrap();
        s.batch_open(2, None).unwrap();
        let mut a = pre0.clone();
        a[5..9].fill(0xAA); // small change: differential
        s.stage_page(0, &a, 60, None).unwrap();
        let b = vec![0xBBu8; size]; // whole-page change: Case-3 tagged base
        s.stage_page(1, &b, 60, None).unwrap();
        s.flush().unwrap();
        // Crash here: no commit record was ever appended.
        let mut r = crash_and_recover(s, 8);
        assert!(!r.txn_committed(60));
        let mut out = vec![0u8; size];
        r.read_page(0, &mut out).unwrap();
        assert_eq!(out, pre0, "pid 0 must roll back");
        r.read_page(1, &mut out).unwrap();
        assert_eq!(out, pre1, "pid 1 must roll back to base + committed differential");
        // And the rolled-back store keeps working.
        r.write_page(0, &vec![9u8; size]).unwrap();
        r.read_page(0, &mut out).unwrap();
        assert_eq!(out, vec![9u8; size]);
    }

    #[test]
    fn commit_record_keeps_tagged_data_valid_across_double_recovery() {
        let mut s = fresh(8);
        let size = s.logical_page_size();
        for pid in 0..4u64 {
            s.write_page(pid, &vec![7u8; size]).unwrap();
        }
        s.flush().unwrap();
        let mut a = vec![7u8; size];
        a[11..15].fill(0xCC);
        commit(&mut s, 77, &[(2, &a)]);
        let r1 = crash_and_recover(s, 8);
        let mut r2 = crash_and_recover(r1, 8);
        let mut out = vec![0u8; size];
        r2.read_page(2, &mut out).unwrap();
        assert_eq!(out, a, "committed tagged differential survives repeated recovery");
    }

    #[test]
    fn precheck_reports_tags_and_records() {
        let mut s = fresh(8);
        let size = s.logical_page_size();
        s.write_page(0, &vec![1u8; size]).unwrap();
        s.write_page(1, &vec![1u8; size]).unwrap();
        s.flush().unwrap();
        // Committed txn 5 and torn txn 6.
        let mut a = vec![1u8; size];
        a[0] = 2;
        commit(&mut s, 5, &[(0, &a)]);
        s.batch_open(1, None).unwrap();
        let mut b = vec![1u8; size];
        b[1] = 3;
        s.stage_page(1, &b, 6, None).unwrap();
        s.flush().unwrap(); // no record: torn
        let opts = *s.options();
        let mut chip = Box::new(s).into_chip();
        let scan = txn_precheck(&mut chip, &opts).unwrap();
        // Only unrecorded live tags matter for the verdict: txn 5 is
        // proven committed by its record, txn 6 is live-tagged without
        // one — torn.
        assert!(scan.tagged.contains(&6));
        assert!(scan.records.contains(&5) && !scan.records.contains(&6));
        assert_eq!(scan.torn(), HashSet::from([6]));
    }
}
