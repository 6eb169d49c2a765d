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
//! Figure 11 then sets every useless page obsolete; this recovery only
//! leaves it out of the recovered tables — the allocator counts every
//! written page the tables hold nothing in as dead — and the next
//! recovery's time stamps rule it out again. Time stamps cannot
//! re-derive a torn transaction, so a page whose every live record is
//! torn is the one page it marks. It never writes data, so it stays
//! correct when the system crashes again during recovery and the scan
//! restarts from the beginning (the paper's repeated-failure guarantee).
//!
//! The same time-stamp versioning covers crashes **mid-migration**:
//! garbage collection relocates a valid base page by programming a copy
//! that *preserves* the original's creation time stamp, so a crash
//! between the copy and the victim's erase leaves two byte-identical
//! twins with equal `(tag, ts)`. The scan keeps whichever it meets first
//! and counts the other obsolete (the strict `ts >` comparison below),
//! discarding the half-migrated duplicate; compacted differentials are
//! flushed to a fresh differential page *before* the victim is erased,
//! and a crash before that erase leaves two equal-`ts` differential
//! copies resolved the same way.
//!
//! # One read pass, then memory
//!
//! Recovery reads each written page once — data and spare come in one
//! NAND read, and a block's scan stops at its first free page — and that
//! is all it reads. The read pass ([`read_census`], obs recovery phase 0)
//! keeps a [`Census`]: for every written, non-obsolete page the spare
//! fields the replay uses, and for a differential page the header of each
//! record on it (the payload stays on flash) and whether its data
//! verified. Everything after it runs over the census:
//!
//! * **The transaction verdict** ([`torn_txns`], over every chip of the
//!   store) collects the transactions that appear in durable *commit
//!   records* and the ones that appear as live *tags* (on differentials or
//!   Case-3 base pages). A transaction is **torn** — it crashed between
//!   its first staged page and its commit record — exactly when some chip
//!   carries a live tag of it and no chip proves it (a commit batch writes
//!   its one record on one chip after every chip's tags, and that record
//!   stays alive while any chip still carries a tag).
//! * **The replay** ([`Census::replay`], phase 1) is Figure 11's loop body
//!   with the torn set in hand: tagged base pages of torn transactions are
//!   set obsolete, tagged differentials of torn transactions are skipped,
//!   and — because the commit batch *deferred* the obsolete marks on the
//!   pre-images it superseded — the previous committed state is still on
//!   flash and wins the time-stamp resolution. Commit records are
//!   re-registered (and counted in the valid-differential table) while any
//!   surviving page still carries their tag; [`RecoveryTables::finish`]
//!   (phase 2) picks the copy.
//!
//! The replay programs nothing. [`RecoveryTables::finish`] marks the torn
//! pages once every page is resolved; each is a census page the read pass
//! met unmarked, so no page is marked twice. A torn differential that
//! shares its page with live records stays on flash unmarked, so the
//! transaction-id floor ([`RecoveryTables::txn_floor`]) exceeds every id
//! the read pass saw: no later commit can reuse a torn id and prove it.
//!
//! A differential page whose data fails its checksum is filed as corrupt
//! by the replay, while the verdict still reads its records from the
//! unverified bytes: a commit record there must not tear a transaction
//! whose other pages are intact. When such a record is the only proof of
//! a live tag, recovery refuses (`Corruption`) — it neither rolls the
//! commit back nor lets unverified bytes prove it.
//!
//! Data that only reached the differential write buffer is not recovered,
//! "analogous to the situation where data retained only in the file buffer
//! but not written out to disk ... are not recovered"; durability requires
//! the write-through call ([`crate::PageStore::flush`]) or a transaction
//! commit.
//!
//! The per-page replay logic lives in [`RecoveryTables`], so the
//! checkpointed fast-recovery path (`checkpoint.rs`, the paper's §4.5
//! future-work extension) replays its delta through the same code.

use super::checkpoint::{RootBase, RootLogState};
use super::dwb::DiffWriteBuffer;
use super::{IdMap, Pdl, PdlCounters, PpmtEntry, NONE};
use crate::diff::{Differential, PageRecord, NO_TXN};
use crate::error::CoreError;
use crate::ftl::BlockManager;
use crate::page_store::StoreOptions;
use crate::shard::each_on_a_thread;
use crate::Result;
use pdl_flash::{BlockId, FlashChip, FlashGeometry, OpContext, PageBuf, PageKind, Ppn, SpareInfo};
use std::collections::{HashMap, HashSet};

/// What recovery needs of one record on a differential page: its header.
#[derive(Clone, Copy, Debug)]
enum RecHead {
    /// A differential of logical page `pid` (saturated at `u32::MAX`, past
    /// every store's page range).
    Diff { pid: u32, ts: u64, txn: u64 },
    /// Commit proof of the `n` transaction ids from `lo`: one run per
    /// range of an epoch record (`n == 0` for a record without ranges).
    Proof { n: u32, lo: u64, ts: u64 },
}

/// A written, non-obsolete page as the read pass found it.
#[derive(Clone, Copy, Debug)]
struct Found {
    ppn: u32,
    kind: PageKind,
    /// Differential page: the data matched the spare-area checksum.
    verified: bool,
    /// Differential page: the records parsed (from the bytes read,
    /// verified or not); their headers follow the previous differential
    /// page's in [`Pages::recs`].
    parsed: bool,
    tag: u64,
    ts: u64,
    txn: u64,
}

// The census of a 64 K-page chip stays a few MB.
const _: () = assert!(std::mem::size_of::<RecHead>() == 24);
const _: () = assert!(std::mem::size_of::<Found>() == 32);

/// The ids a [`RecHead::Proof`] proves committed.
fn proof_ids(n: u32, lo: u64) -> impl Iterator<Item = u64> {
    (0..u64::from(n)).map(move |i| lo + i)
}

/// Append the headers of every record in a differential page's data area
/// to `out`. `false`, with `out` as it was, when the area does not parse —
/// or holds an epoch range of 2³² ids or more, which no store writes.
fn push_headers(out: &mut Vec<RecHead>, data: &[u8]) -> bool {
    let start = out.len();
    let Ok(records) = Differential::parse_page(data) else { return false };
    for rec in records {
        match rec {
            PageRecord::Diff(d) => {
                let pid = u32::try_from(d.pid).unwrap_or(u32::MAX);
                out.push(RecHead::Diff { pid, ts: d.ts, txn: d.txn });
            }
            PageRecord::Epoch(e) => {
                if e.ranges.is_empty() {
                    out.push(RecHead::Proof { n: 0, lo: 0, ts: e.ts });
                }
                for (lo, hi) in e.ranges {
                    let Some(n) = (hi - lo).checked_add(1).and_then(|n| u32::try_from(n).ok())
                    else {
                        out.truncate(start);
                        return false;
                    };
                    out.push(RecHead::Proof { n, lo, ts: e.ts });
                }
            }
        }
    }
    true
}

/// The pages a read pass found, in read order, with the record headers of
/// all differential pages in one flat vector.
#[derive(Default)]
struct Pages {
    found: Vec<Found>,
    recs: Vec<RecHead>,
    /// End of each differential page's headers in `recs`, `found` order.
    ends: Vec<usize>,
}

impl Pages {
    /// Every page with its record headers (empty unless a parsed
    /// differential page).
    fn iter(&self) -> impl Iterator<Item = (&Found, &[RecHead])> + '_ {
        let mut ends = self.ends.iter();
        let mut start = 0;
        self.found.iter().map(move |page| {
            if page.kind != PageKind::Diff {
                return (page, &[][..]);
            }
            let end = *ends.next().expect("one end per differential page");
            let recs = &self.recs[start..end];
            start = end;
            (page, recs)
        })
    }
}

/// The torn-commit verdict over the censuses of every chip of one store:
/// the transactions some chip holds a live tag of and no chip proves
/// (torn = ∪ tagged − ∪ proven).
pub(crate) fn torn_txns(censuses: &[Census]) -> HashSet<u64> {
    let proven: HashSet<u64> = censuses.iter().flat_map(Census::proven).collect();
    censuses.iter().flat_map(|c| c.unproven_tags(&proven)).collect()
}

/// Everything recovery learns from flash, gathered by one read pass
/// (module docs): the tables the replay starts from — empty, or a loaded
/// checkpoint purged of the blocks changed since — every page the pass
/// found, and the checkpoint's structure-root baseline.
pub(crate) struct Census {
    tables: RecoveryTables,
    pages: Pages,
    root_base: RootBase,
}

impl Census {
    pub(super) fn new(tables: RecoveryTables) -> Census {
        Census { tables, pages: Pages::default(), root_base: RootBase::default() }
    }

    /// Read pages `from..` of `block` up to the first free one (blocks
    /// fill sequentially), one read each. `buf` is a page-sized scratch
    /// buffer.
    pub(super) fn read_block(
        &mut self,
        chip: &mut FlashChip,
        block: u32,
        from: u32,
        buf: &mut PageBuf,
    ) -> Result<()> {
        let g = chip.geometry();
        for i in from..g.pages_per_block {
            let ppn = g.page_at(BlockId(block), i);
            chip.read_full(ppn, buf)?;
            let Some(info) = buf.spare_info() else { continue };
            if info.kind == PageKind::Free {
                break;
            }
            self.note(chip, ppn, info, &buf.data)?;
        }
        Ok(())
    }

    /// Count one written page and keep it when it is live, checking a
    /// differential page's `data` against its spare-area checksum.
    fn note(&mut self, chip: &mut FlashChip, ppn: Ppn, info: SpareInfo, data: &[u8]) -> Result<()> {
        let block = chip.geometry().block_of(ppn).0 as usize;
        self.tables.written[block] += 1;
        if info.obsolete {
            return Ok(());
        }
        let mut page = Found {
            ppn: ppn.0,
            kind: info.kind,
            verified: true,
            parsed: true,
            tag: info.tag,
            ts: info.ts,
            txn: info.txn,
        };
        if info.kind == PageKind::Diff {
            // The verdict reads the records even when the bytes fail the
            // checksum; the replay does not.
            page.verified = match chip.verify_read(ppn, data) {
                Ok(()) => true,
                Err(pdl_flash::FlashError::ChecksumMismatch(_)) => false,
                Err(e) => return Err(e.into()),
            };
            page.parsed = push_headers(&mut self.pages.recs, data);
            self.pages.ends.push(self.pages.recs.len());
        }
        self.pages.found.push(page);
        Ok(())
    }

    /// The transactions this census holds a commit record of: the loaded
    /// tables' (a checkpoint is never taken inside a batch) and every
    /// proof on the pages read, verified or not.
    pub(crate) fn proven(&self) -> impl Iterator<Item = u64> + '_ {
        let recs = self.pages.recs.iter().filter_map(|rec| match *rec {
            RecHead::Proof { n, lo, .. } => Some(proof_ids(n, lo)),
            RecHead::Diff { .. } => None,
        });
        self.tables.commit_locs.keys().copied().chain(recs.flatten())
    }

    /// The transactions outside `proven` this census holds a **live** tag
    /// of: one not dominated by newer committed data under the time-stamp
    /// order the replay uses. Dead (superseded) tags are ignored: the
    /// running store drops its presence count and may retire the commit
    /// record the moment a tag is dominated, and this mirrors that.
    fn unproven_tags(&self, proven: &HashSet<u64>) -> HashSet<u64> {
        let t = &self.tables;
        let k = t.frames_per_page;
        let nl = t.ppmt.len();
        let committed = |txn: u64| txn == NO_TXN || proven.contains(&txn);
        // Only unrecorded transactions can be torn, so only their tags
        // need a liveness check; without one there is nothing to judge.
        let unrecorded = |(page, recs): (&Found, &[RecHead])| {
            (page.kind == PageKind::Base && !committed(page.txn))
                || recs.iter().any(|r| matches!(*r, RecHead::Diff { txn, .. } if !committed(txn)))
        };
        if !self.pages.iter().any(unrecorded) {
            return HashSet::new();
        }
        // Newest committed time stamp per frame and per logical page. A
        // tag whose transaction some chip proves counts as committed, so a
        // committed rewrite kills the tags it superseded.
        let mut eff_frame = vec![0u64; nl * k];
        let mut eff_diff = vec![0u64; nl];
        for pid in 0..nl {
            if t.ppmt[pid].diff != NONE {
                eff_diff[pid] = t.diff_ts[pid];
            }
            for j in 0..k {
                if t.ppmt[pid].base[j] != NONE {
                    eff_frame[pid * k + j] = t.frame_ts[pid * k + j];
                }
            }
        }
        let slot = |i: u64| usize::try_from(i).unwrap_or(usize::MAX);
        for (page, recs) in self.pages.iter() {
            if page.kind == PageKind::Base && committed(page.txn) {
                if let Some(e) = eff_frame.get_mut(slot(page.tag)) {
                    *e = (*e).max(page.ts);
                }
            }
            for rec in recs {
                if let RecHead::Diff { pid, ts, txn } = *rec {
                    if let Some(e) = eff_diff.get_mut(pid as usize).filter(|_| committed(txn)) {
                        *e = (*e).max(ts);
                    }
                }
            }
        }
        // Domination is non-strict: a GC twin with an equal time stamp and
        // identical content dominates its tagged original.
        let mut tagged = HashSet::new();
        for (page, recs) in self.pages.iter() {
            if page.kind == PageKind::Base
                && !committed(page.txn)
                && eff_frame.get(slot(page.tag)).copied().unwrap_or(0) < page.ts
            {
                tagged.insert(page.txn);
            }
            for rec in recs {
                let RecHead::Diff { pid, ts, txn } = *rec else { continue };
                if committed(txn) {
                    continue;
                }
                // A differential is live only while newer than every base
                // frame of its page and newer than any committed one.
                let pid = pid as usize;
                let frames = eff_frame.get(pid * k..(pid + 1) * k).unwrap_or_default();
                let newest = frames.iter().copied().chain(eff_diff.get(pid).copied()).max();
                if newest.unwrap_or(0) < ts {
                    tagged.insert(txn);
                }
            }
        }
        tagged
    }

    /// How many census pages carry a tag or commit proof of a `torn`
    /// transaction.
    pub(crate) fn pages_carrying(&self, torn: &HashSet<u64>) -> usize {
        let carries = |(page, recs): &(&Found, &[RecHead])| {
            (page.kind == PageKind::Base && torn.contains(&page.txn))
                || recs.iter().any(|r| match *r {
                    RecHead::Diff { txn, .. } => torn.contains(&txn),
                    RecHead::Proof { n, lo, .. } => proof_ids(n, lo).any(|id| torn.contains(&id)),
                })
        };
        self.pages.iter().filter(carries).count()
    }

    /// Phase 1: replay every page the read pass found into the tables, in
    /// read order, discarding the tags of `uncommitted` (torn)
    /// transactions. It reads and programs nothing, and drops the census
    /// when done.
    pub(crate) fn replay(
        self,
        chip: &mut FlashChip,
        uncommitted: HashSet<u64>,
    ) -> Result<RecoveryTables> {
        let Census { mut tables, pages, .. } = self;
        tables.uncommitted = uncommitted;
        phase(chip, "recovery_replay", 1, |_| {
            pages.iter().try_for_each(|(page, recs)| tables.apply_page(page, recs))
        })?;
        Ok(tables)
    }
}

/// Run recovery phase `id` (`name` in obs traces) on `chip`, its flash
/// operations charged to the recovery context.
fn phase<T>(
    chip: &mut FlashChip,
    name: &'static str,
    id: u64,
    f: impl FnOnce(&mut FlashChip) -> T,
) -> T {
    chip.set_context(OpContext::Recovery);
    let t0 = chip.sim_now_us();
    let out = f(chip);
    let class = pdl_flash::LatencyClass::RecoveryPhase;
    crate::page_store::obs_event(chip, class, name, "recovery", t0, 0, id);
    chip.set_context(OpContext::User);
    out
}

/// Phase 0, recovery's only read pass: the census of the blocks changed
/// since the newest usable checkpoint, carrying that checkpoint's tables,
/// or — when there is none — of every page outside the root region.
pub(crate) fn read_census(chip: &mut FlashChip, opts: &StoreOptions) -> Result<Census> {
    opts.validate(chip)?;
    phase(chip, "recovery_read", 0, |chip| {
        let (root_base, census) = match opts.checkpoint_blocks {
            0 => Default::default(),
            _ => super::checkpoint::load_checkpoint_delta(chip, opts)?,
        };
        let census = census.map(Ok).unwrap_or_else(|| full_scan(chip, opts))?;
        Ok(Census { root_base, ..census })
    })
}

/// The scan of Figure 11: read every written page outside the checkpoint
/// root region, block by block. Borrows the chip, so a crashed recovery
/// can simply be retried.
fn full_scan(chip: &mut FlashChip, opts: &StoreOptions) -> Result<Census> {
    let mut census = Census::new(RecoveryTables::empty(opts, chip.geometry()));
    let mut buf = PageBuf::for_chip(chip);
    for block in opts.checkpoint_blocks..chip.geometry().num_blocks {
        census.read_block(chip, block, 0, &mut buf)?;
    }
    Ok(census)
}

/// Mapping tables under reconstruction, plus the time-stamp bookkeeping
/// Figure 11 relies on and the transaction bookkeeping the verdict feeds.
pub(crate) struct RecoveryTables {
    pub ppmt: Vec<PpmtEntry>,
    pub vdct: Vec<u16>,
    /// ts(bp) per frame.
    pub frame_ts: Vec<u64>,
    /// ts(dp, differential(pid)) per logical page.
    pub diff_ts: Vec<u64>,
    pub written: Vec<u32>,
    pub max_ts: u64,
    /// Above every transaction id on flash: the ids the read pass saw, torn
    /// ones included, and a loaded checkpoint's floor. A torn tag left
    /// unmarked on a page with live records can then never be proven by a
    /// later commit reusing its id.
    pub txn_floor: u64,
    /// Transactions whose commits are torn: their tagged pages are
    /// discarded by the replay.
    pub uncommitted: HashSet<u64>,
    /// Census pages carrying a tag or commit proof of an `uncommitted`
    /// transaction. [`RecoveryTables::finish`] marks the dead ones obsolete:
    /// no time stamp rules them out on a later recovery.
    torn_pages: Vec<u32>,
    /// Tag of the winning differential per logical page.
    pub diff_txn: Vec<u64>,
    /// Tag of the winning base page per frame.
    pub base_txn: Vec<u64>,
    /// Live commit-record location per transaction. Pre-populated (and
    /// already counted in `vdct`) by the checkpoint fast path; the full
    /// scan fills it in [`RecoveryTables::finish`].
    pub commit_locs: IdMap<u32>,
    /// Commit-record copies discovered by the replay, per transaction.
    pub commit_cands: HashMap<u64, Vec<u32>>,
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
    pub fn empty(opts: &StoreOptions, g: FlashGeometry) -> RecoveryTables {
        let nl = opts.num_logical_pages as usize;
        let k = opts.frames_per_page as usize;
        let blocks = g.num_blocks as usize;
        RecoveryTables {
            ppmt: vec![PpmtEntry::default(); nl],
            vdct: vec![0u16; g.num_pages() as usize],
            frame_ts: vec![0u64; nl * k],
            diff_ts: vec![0u64; nl],
            written: vec![0u32; blocks],
            max_ts: 0,
            txn_floor: 1,
            uncommitted: HashSet::new(),
            torn_pages: Vec::new(),
            diff_txn: vec![NO_TXN; nl],
            base_txn: vec![NO_TXN; nl * k],
            commit_locs: IdMap::default(),
            commit_cands: HashMap::new(),
            corrupt_diffs: Vec::new(),
            poisoned: HashMap::new(),
            twins: HashMap::new(),
            root_ref: None,
            frames_per_page: k,
        }
    }

    fn decrease_vdct(&mut self, dp: u32) {
        debug_assert!(self.vdct[dp as usize] > 0, "recovery vdct underflow");
        self.vdct[dp as usize] -= 1;
    }

    /// Raise the id floor past `txn` (nothing for [`NO_TXN`]).
    fn saw_txn(&mut self, txn: u64) {
        if txn != NO_TXN {
            self.txn_floor = self.txn_floor.max(txn.saturating_add(1));
        }
    }

    /// Replay one page the read pass found (Figure 11's loop body); a
    /// differential page comes with its record headers.
    fn apply_page(&mut self, page: &Found, recs: &[RecHead]) -> Result<()> {
        let p = page.ppn;
        let k = self.frames_per_page;
        let nl = self.ppmt.len();
        self.max_ts = self.max_ts.max(page.ts);
        self.saw_txn(page.txn);
        match page.kind {
            // Case 1: r is a base page.
            PageKind::Base => {
                // Torn transaction: the page never became visible.
                if self.uncommitted.contains(&page.txn) {
                    self.torn_pages.push(p);
                    return Ok(());
                }
                let frame = page.tag as usize;
                if frame >= nl * k {
                    return Ok(());
                }
                let pid = frame / k;
                let j = frame % k;
                let cur = self.ppmt[pid].base[j];
                // Equal-ts twins arise from GC copies; when compaction
                // shed a committed tag, the untagged twin is the one
                // whose validity is unconditional — prefer it.
                let untagged_twin = page.ts == self.frame_ts[frame]
                    && self.base_txn[frame] != NO_TXN
                    && page.txn == NO_TXN;
                if cur == NONE || page.ts > self.frame_ts[frame] || untagged_twin {
                    // r is a more recent base page.
                    if cur != NONE && page.ts == self.frame_ts[frame] {
                        // Equal-ts duplicates are byte-identical GC copies:
                        // the loser stays on flash — free redundancy for
                        // single-page repair.
                        self.twins.insert(p, cur);
                    }
                    self.ppmt[pid].base[j] = p;
                    self.frame_ts[frame] = page.ts;
                    self.base_txn[frame] = page.txn;
                    // r more recent than differential(pid)? Then the
                    // differential must be obsolete.
                    if self.ppmt[pid].diff != NONE && page.ts > self.diff_ts[pid] {
                        let dp = self.ppmt[pid].diff;
                        self.decrease_vdct(dp);
                        self.ppmt[pid].diff = NONE;
                        self.diff_ts[pid] = 0;
                        self.diff_txn[pid] = NO_TXN;
                    }
                } else if page.ts == self.frame_ts[frame] && cur != NONE {
                    // The table already holds an equal-ts twin.
                    self.twins.insert(cur, p);
                }
                Ok(())
            }
            // Case 2: r is a differential page.
            PageKind::Diff => {
                if !page.verified {
                    // The records are unreadable, and any logical page
                    // whose newest differential lived here would be
                    // silently stale without one. Deliberately *not*
                    // marked obsolete: a repeated recovery must re-detect
                    // it (the poison set is in-memory only).
                    self.corrupt_diffs.push((p, page.ts));
                    return Ok(());
                }
                if !page.parsed {
                    // Unparseable: nothing in it can be trusted.
                    return Ok(());
                }
                let mut torn = false;
                for rec in recs {
                    match *rec {
                        RecHead::Proof { n, lo, ts } => {
                            // Each proven id behaves as if it had its own
                            // record on this page: a candidate location
                            // per id, sharing the page. finish() then
                            // keeps the page alive while any of them is
                            // referenced.
                            self.max_ts = self.max_ts.max(ts);
                            for id in proof_ids(n, lo) {
                                self.commit_cands.entry(id).or_default().push(p);
                                self.saw_txn(id);
                                torn |= self.uncommitted.contains(&id);
                            }
                        }
                        RecHead::Diff { pid, ts, txn } => {
                            self.saw_txn(txn);
                            if self.uncommitted.contains(&txn) {
                                // Torn transaction: the differential never
                                // became visible.
                                torn = true;
                                continue;
                            }
                            let pid = pid as usize;
                            if pid >= nl {
                                continue;
                            }
                            self.max_ts = self.max_ts.max(ts);
                            let base_ts =
                                (0..k).map(|j| self.frame_ts[pid * k + j]).max().unwrap_or(0);
                            // Same untagged-twin preference as for bases.
                            let untagged_twin = ts == self.diff_ts[pid]
                                && self.diff_txn[pid] != NO_TXN
                                && txn == NO_TXN;
                            if ts > base_ts && (ts > self.diff_ts[pid] || untagged_twin) {
                                // d is the most recent differential of pid.
                                if self.ppmt[pid].diff != NONE {
                                    let dp = self.ppmt[pid].diff;
                                    self.decrease_vdct(dp);
                                }
                                self.ppmt[pid].diff = p;
                                self.diff_ts[pid] = ts;
                                self.diff_txn[pid] = txn;
                                self.vdct[p as usize] += 1;
                            }
                        }
                    }
                }
                if torn {
                    self.torn_pages.push(p);
                }
                Ok(())
            }
            other => Err(CoreError::Corruption(format!(
                "PDL recovery found a {other:?} page at {}",
                Ppn(p)
            ))),
        }
    }

    /// Whether this chip holds a commit record of `txn`: a loaded
    /// location, or a copy on a page the replay verified.
    fn proves(&self, txn: u64) -> bool {
        self.commit_cands.contains_key(&txn) || self.commit_locs.contains_key(&txn)
    }

    /// The *live* tags per transaction after the replay: winning
    /// differentials and base frames, and the authoritative structure-root
    /// record.
    fn presence(&self) -> IdMap<u32> {
        let mut presence: IdMap<u32> = IdMap::default();
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
        presence
    }

    /// Post-scan transaction resolution, given each referenced
    /// transaction's `presence` (its live tags here, plus one per other
    /// chip holding tags of a transaction this chip proves): keep one
    /// commit-record copy alive (counted in the valid-differential table)
    /// for every transaction still referenced, note the ones another chip
    /// proves (`remote`) without a location, count the remaining
    /// record-only pages obsolete, and mark the dead torn pages — the only
    /// programs recovery issues. Returns the presence gauge the running
    /// store resumes with.
    fn finish(
        &mut self,
        chip: &mut FlashChip,
        presence: IdMap<u32>,
        remote: &HashSet<u64>,
    ) -> Result<IdMap<u32>> {
        let k = self.frames_per_page;
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
            if remote.contains(t) {
                self.commit_locs.insert(*t, super::PROOF_REMOTE);
                continue;
            }
            let loaded = self.commit_locs.get(t).copied();
            // Without a copy found by the scan, the loaded location stands
            // (`recover_chips` checked that one of the two exists).
            let Some(cands) = self.commit_cands.get(t) else { continue };
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
        for loc in stale {
            self.decrease_vdct(loc);
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
        for p in std::mem::take(&mut self.torn_pages) {
            if self.vdct[p as usize] == 0 {
                crate::ftl::mark_obsolete_lenient(chip, Ppn(p))?;
            }
        }
        Ok(presence)
    }
}

impl Pdl {
    /// Rebuild a PDL store from chip contents after a crash: the read
    /// pass, the torn-transaction verdict, the replay (module docs). When
    /// the store was built with a checkpoint root region
    /// ([`StoreOptions::with_checkpoint_blocks`]), the latest committed
    /// checkpoint is loaded and only blocks changed since are read;
    /// otherwise (or when no checkpoint exists) every page is.
    pub fn recover(mut chip: FlashChip, opts: StoreOptions, max_diff_size: usize) -> Result<Pdl> {
        let census = read_census(&mut chip, &opts)?;
        let torn = torn_txns(std::slice::from_ref(&census));
        let mut pdl = recover_chips(vec![(chip, opts, census)], max_diff_size, &torn)?;
        Ok(pdl.pop().expect("one chip, one store"))
    }
}

/// Finish the recovery of every chip of one store (shard order), each
/// chip's read pass already run, under the store's verdict (`torn`): replay each
/// census, resolve the structure roots, then each chip's commit records.
/// A chip holding live tags of a transaction another chip proves keeps
/// them under a [`super::PROOF_REMOTE`] entry, and the proving chip — the
/// transaction's home — counts one presence for it. A live tag no chip
/// proves with a readable record is `Corruption`: serving it would absorb
/// a lost commit proof. The replays, and then the finishes, run on a
/// thread per chip.
pub(crate) fn recover_chips(
    parts: Vec<(FlashChip, StoreOptions, Census)>,
    max_diff_size: usize,
    torn: &HashSet<u64>,
) -> Result<Vec<Pdl>> {
    let replayed = each_on_a_thread(parts, |(mut chip, opts, mut census)| {
        let root_base = std::mem::take(&mut census.root_base);
        let tables = census.replay(&mut chip, torn.clone())?;
        Ok((chip, opts, tables, root_base))
    });
    let replayed = replayed.into_iter().collect::<Result<Vec<_>>>()?;
    let n = replayed.len();
    let (mut chips, mut opts, mut tables, mut bases) =
        (Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n), Vec::new());
    for (chip, o, t, base) in replayed {
        chips.push(chip);
        opts.push(o);
        tables.push(t);
        bases.push(base);
    }
    // The durable structure roots: a root record counts when a readable
    // record on some chip proves its transaction. The winner's transaction
    // must be known before records are resolved, so its record is kept.
    let mut roots = Vec::with_capacity(n);
    for ((chip, opts), base) in chips.iter_mut().zip(&opts).zip(bases) {
        let committed = |t: u64| !torn.contains(&t) && tables.iter().any(|r| r.proves(t));
        roots.push(if opts.checkpoint_blocks >= 2 {
            chip.set_context(OpContext::Recovery);
            let rs = super::checkpoint::load_root_state(chip, opts, base, &committed);
            chip.set_context(OpContext::User);
            rs?
        } else {
            RootLogState::default()
        });
    }
    let mut presence = Vec::with_capacity(n);
    for (t, r) in tables.iter_mut().zip(&roots) {
        t.root_ref = r.live_txn;
        presence.push(t.presence());
    }
    let mut remote = vec![HashSet::new(); n];
    for s in 0..n {
        let mut unproven: Vec<u64> =
            presence[s].keys().copied().filter(|&t| !tables[s].proves(t)).collect();
        unproven.sort_unstable();
        for t in unproven {
            let Some(home) = (0..n).find(|&h| h != s && tables[h].proves(t)) else {
                return Err(CoreError::Corruption(format!(
                    "live tag without a commit record for txn {t}"
                )));
            };
            *presence[home].entry(t).or_insert(0) += 1;
            remote[s].insert(t);
        }
    }
    let parts = chips.into_iter().zip(opts).zip(tables).zip(roots).zip(presence).zip(remote);
    let finished = each_on_a_thread(parts.collect(), |(((((chip, opts), t), r), p), remote)| {
        finish_store(chip, opts, max_diff_size, t, r, p, &remote)
    });
    finished.into_iter().collect()
}

/// Phase 2 of one chip's recovery ([`RecoveryTables::finish`]) and the
/// store it resumes.
fn finish_store(
    mut chip: FlashChip,
    opts: StoreOptions,
    max_diff_size: usize,
    mut tables: RecoveryTables,
    roots: RootLogState,
    presence: IdMap<u32>,
    remote: &HashSet<u64>,
) -> Result<Pdl> {
    let g = chip.geometry();
    // Record resolution, poisoning, the torn pages' marks.
    let presence =
        phase(&mut chip, "recovery_finish", 2, |chip| tables.finish(chip, presence, remote))?;
    let mut alloc = BlockManager::new(g.num_blocks, g.pages_per_block, opts.reserve_blocks);
    alloc.set_policy(opts.gc_policy);
    for b in 0..opts.checkpoint_blocks {
        alloc.reserve_block(BlockId(b));
    }
    // Every written page the recovered tables hold nothing in is dead:
    // superseded, torn, a differential page left with no live record, or
    // one whose data failed its checksum.
    let live = super::live_pages(&tables.ppmt, &tables.vdct, opts.frames_per_page as usize);
    alloc.rebuild(&tables.written, |p| live[p.0 as usize]);
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
    let mut proof_fifo: Vec<u64> = tables
        .commit_locs
        .iter()
        .filter(|(_, loc)| **loc != super::PROOF_REMOTE)
        .map(|(t, _)| *t)
        .collect();
    proof_fifo.sort_unstable();
    Ok(Pdl {
        opts,
        max_diff_size,
        ppmt: tables.ppmt,
        // Which bytes each recovered differential covers is on flash
        // only: the first staging of every page reads its base.
        spans: super::DiffSpans::unknown(opts.num_logical_pages as usize),
        vdct: tables.vdct,
        dwb: DiffWriteBuffer::new(g.data_size),
        alloc,
        ts: tables.max_ts + 1,
        in_gc: false,
        ckpt_seq: roots.seq,
        ckpt_live_half: roots.live_half,
        struct_roots: roots.roots,
        pending_roots: None,
        live_root_txn: roots.live_txn,
        root_tail: roots.tail,
        root_tail_end: roots.tail_end,
        root_tail_used: roots.tail_used,
        diff_txn: tables.diff_txn,
        base_txn: tables.base_txn,
        presence,
        commit_locs: tables.commit_locs,
        released: Vec::new(),
        proof_fifo: proof_fifo.into(),
        txn_floor: tables.txn_floor.max(roots.txn_floor),
        #[cfg(test)]
        carry_disabled: false,
        deferred: Vec::new(),
        batch_pins: HashSet::new(),
        in_txn_batch: false,
        batch_failed: None,
        poisoned: tables.poisoned,
        twins: tables.twins,
        gc_moves: Vec::new(),
        base_buf: vec![0u8; opts.logical_page_size(g.data_size)],
        frame_buf: vec![0u8; g.data_size],
        page_img: vec![0u8; g.data_size],
        counters: PdlCounters::default(),
        chip,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::is_power_loss;
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
        let first = r1.chip().stats().recovery;
        let mut r2 = crash_and_recover(r1, 8);
        // Second recovery performs the same reads but never needs to mark
        // anything obsolete again (the ledger is cumulative).
        let second = r2.chip().stats().recovery;
        assert_eq!(second.writes, first.writes, "no new obsolete marks");
        assert_eq!(second.reads - first.reads, first.reads, "the same reads");
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
        // Leave work for recovery: stage a batch (a differential and a
        // Case-3 base) whose commit record never lands, so the verdict
        // drives the only marks recovery programs.
        s.batch_open(2, None).unwrap();
        let mut a = vec![0u8; size];
        a[5..9].fill(0xAA);
        s.stage_page(0, &a, 60, None).unwrap();
        s.stage_page(1, &vec![0xBBu8; size], 60, None).unwrap();
        let torn_base = Ppn(s.ppmt[1].base[0]);
        s.flush().unwrap();

        let opts = *s.options();
        let mut chip = Box::new(s).into_chip();
        let journal = pdl_flash::PowerLossJournal::new();
        chip.attach_journal(&journal);
        let r = Pdl::recover(chip, opts, MAX_DIFF).unwrap();
        let obsolete = |chip: &FlashChip, ppn| {
            SpareInfo::decode(chip.peek_spare(ppn)).is_some_and(|i| i.obsolete)
        };
        assert!(obsolete(r.chip(), torn_base), "the verdict set the torn base obsolete");
        assert_eq!(journal.position(), 2, "torn base, torn differential page");
        drop(r);
        // Power fails before each of recovery's own marks in turn; the
        // marks only ever set useless pages obsolete, so recovering the
        // image again converges on the same state, and a third recovery
        // has nothing left to mark.
        for (g, mut chips) in journal.images().enumerate() {
            let mut r = Pdl::recover(chips.pop().unwrap(), opts, MAX_DIFF).unwrap();
            let mut out = vec![0u8; size];
            for pid in 0..8u64 {
                r.read_page(pid, &mut out).unwrap();
                assert!(out.iter().all(|&b| b == pid as u8), "image {g}, pid {pid}");
            }
            let writes = r.chip().stats().recovery.writes;
            let r = Pdl::recover(Box::new(r).into_chip(), opts, MAX_DIFF).unwrap();
            assert_eq!(r.chip().stats().recovery.writes, writes, "image {g}: third recovery");
        }
    }

    /// One read per written page outside the root region, verdict
    /// included: the spare and a differential page's records come from
    /// the same read. Each block's scan stops at its first free page,
    /// which costs the one read that finds where a block that is not
    /// full ends.
    #[test]
    fn recovery_reads_every_page_once() {
        let mut s = fresh(8);
        let size = s.logical_page_size();
        for pid in 0..8u64 {
            s.write_page(pid, &vec![pid as u8; size]).unwrap();
        }
        for pid in 0..4u64 {
            let mut p = vec![pid as u8; size];
            p[20..30].fill(0xCD);
            s.write_page(pid, &p).unwrap();
        }
        s.flush().unwrap();
        let mut a = vec![5u8; size];
        a[0] = 0xA5;
        commit(&mut s, 50, &[(5, &a), (6, &vec![0xB6u8; size])]);
        s.batch_open(2, None).unwrap();
        let mut b = vec![2u8; size];
        b[9] = 0xB2;
        s.stage_page(2, &b, 51, None).unwrap();
        s.stage_page(7, &vec![0xB7u8; size], 51, None).unwrap();
        s.flush().unwrap(); // no record: torn
        let opts = *s.options();
        let chip = Box::new(s).into_chip();
        let g = chip.geometry();
        let kinds: Vec<PageKind> = (0..g.num_pages())
            .map(|p| SpareInfo::decode(chip.peek_spare(Ppn(p))).expect("decodes").kind)
            .collect();
        let count = |kind| kinds.iter().filter(|&&k| k == kind).count() as u64;
        assert!(count(PageKind::Diff) >= 3, "plain, committed and torn differential pages");
        let written = u64::from(g.num_pages()) - count(PageKind::Free);
        let blocks = kinds.chunks(g.pages_per_block as usize);
        let not_full = blocks.filter(|b| b.contains(&PageKind::Free)).count() as u64;
        assert!(written < u64::from(g.num_pages()) / 2, "most of the chip is erased");
        assert_eq!(chip.stats().recovery.reads, 0);
        let r = Pdl::recover(chip, opts, MAX_DIFF).unwrap();
        assert!(r.txn_committed(50) && !r.txn_committed(51));
        assert_eq!(r.chip().stats().recovery.reads, written + not_full);
    }

    /// The verdict reads a checksum-failed differential page's records
    /// from the unverified bytes; the replay files the page as corrupt. A
    /// commit record there must keep its transaction from being judged
    /// torn: rolling it back would serve the pre-images of its intact
    /// pages. With the page's only proof unreadable, recovery refuses
    /// rather than trust the bytes to prove the commit.
    #[test]
    fn a_corrupt_page_holding_the_only_commit_record_never_rolls_the_commit_back() {
        let mut s = fresh(8);
        let size = s.logical_page_size();
        for pid in 0..4u64 {
            s.write_page(pid, &vec![1u8; size]).unwrap();
        }
        s.flush().unwrap();
        // Page 0 gets a differential, page 1 a Case-3 base page tagged 50;
        // the record shares the differential's page.
        let mut a = vec![1u8; size];
        a[3..9].fill(0xA1);
        commit(&mut s, 50, &[(0, &a), (1, &vec![0xB2u8; size])]);
        let record = Ppn(s.commit_locs[&50]);
        assert_eq!(record.0, s.ppmt[0].diff, "the record rides the differential's page");
        let opts = *s.options();
        let mut chip = Box::new(s).into_chip();
        chip.corrupt_spare(record).unwrap();

        let census = read_census(&mut chip, &opts).unwrap();
        assert!(census.proven().any(|t| t == 50), "the verdict read the unverified record");
        let torn = torn_txns(std::slice::from_ref(&census));
        assert!(torn.is_empty(), "a verified-only census would tear txn 50");
        let Err(err) = recover_chips(vec![(chip, opts, census)], MAX_DIFF, &torn) else {
            panic!("recovery served txn 50 without a readable commit record");
        };
        assert!(
            matches!(&err, CoreError::Corruption(m) if m.contains("without a commit record")),
            "{err}"
        );
    }

    /// A checkpoint loads every live base at its watermark. When GC later
    /// moves a page's differential out of its block (the copy keeps its
    /// older time stamp) and erases that block, fast recovery must still
    /// apply the copy over the loaded base.
    #[test]
    fn a_differential_gc_moved_after_a_checkpoint_outranks_the_loaded_base() {
        // Seven blocks of bases that stay live to the end: when the churn
        // below runs the free pool down to the reserve, the differential's
        // block is the one full block greedy GC can reclaim anything from.
        let opts = StoreOptions::new(56).with_checkpoint_blocks(4);
        let mut s = Pdl::new(FlashChip::new(FlashConfig::tiny()), opts, MAX_DIFF).unwrap();
        let size = s.logical_page_size();
        let mut truth: Vec<Vec<u8>> = (0..56).map(|i| vec![i as u8; size]).collect();
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
        let census = read_census(&mut chip, &opts).unwrap();
        // Only unrecorded live tags matter for the verdict: txn 5 is
        // proven committed by its record, txn 6 is live-tagged without
        // one — torn.
        let proven: HashSet<u64> = census.proven().collect();
        assert!(proven.contains(&5) && !proven.contains(&6));
        assert_eq!(torn_txns(&[census]), HashSet::from([6]));
    }
}
