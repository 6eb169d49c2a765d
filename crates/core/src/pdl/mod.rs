//! PDL — **page-differential logging**, the paper's contribution (§4).
//!
//! A logical page is stored as a *base page* (a whole copy, possibly old)
//! plus at most one *differential* (the byte-wise difference between the
//! base page and the up-to-date page). The method obeys the paper's three
//! design principles:
//!
//! * **writing-difference-only** — only the differential is written when a
//!   page is reflected into flash;
//! * **at-most-one-page writing** — the differential is computed *once*, at
//!   reflection time, regardless of how many times the page was updated in
//!   memory;
//! * **at-most-two-page reading** — recreating a page reads the base page
//!   and at most one differential page.
//!
//! Writing follows Figure 7's three cases: the differential is staged into
//! the one-page *differential write buffer* (Case 1), the buffer is written
//! out first when the differential no longer fits (Case 2), or — when the
//! differential exceeds `Max_Differential_Size` — the logical page itself
//! is written as a new base page (Case 3, where "PDL becomes the same as
//! the page-based method").
//!
//! Garbage collection relocates valid base pages and *compacts* valid
//! differentials into fresh differential pages (§4.1). Which pages are
//! valid is known in RAM — the mapping table and the valid differential
//! count table decide it, and the allocator's page bitmap
//! ([`BlockManager::is_dead`]) records it — so GC skips a victim's
//! dead pages unread and reads each live one once, spare and data
//! together. Crash recovery (§4.5) is in [`recovery`]; it rebuilds the
//! bitmap from the tables it recovers.
//!
//! Computing a differential needs the base page, which Figure 7 reads
//! back from flash. A commit or an eviction can instead hand the store
//! the image it holds for the page ([`crate::BatchPage::held`],
//! [`crate::PageStore::evict_held`]): outside the byte ranges of the
//! page's current differential — which the store keeps in memory
//! ([`spans`]) for every staging — that image *is* the base, so staging
//! compares against it with every byte inside those ranges counted as
//! changed. The differential is then a superset of the exact one and
//! still rebuilds the page. Without a held image
//! ([`crate::PageStore::evict_page`], the paper's path), or with the
//! ranges unknown (after recovery), staging reads the base as the paper
//! does.
//!
//! # Transactional durability (`pdl-txn`)
//!
//! The paper's method is DBMS-independent at the page level, leaving
//! transaction atomicity to the layer above. This store closes that gap
//! with *proof records*: [`crate::PageStore::commit_batch`] tags every
//! staged differential (and Case-3 base page) with the owning transaction
//! id and appends an [`EpochRecord`] proving the commit through the same
//! differential write buffer. The record is the commit point; until it is
//! on flash,
//!
//! * obsolete marks on the superseded pre-images are **deferred** (they
//!   are applied when the batch closes, after the record is durable), and
//! * the blocks holding those pre-images are **pinned** against garbage
//!   collection,
//!
//! so recovery can always roll a torn commit back to the previous
//! committed state by discarding tagged pages whose transaction has no
//! commit record. A batch that errors once opened is never closed — marks
//! stay deferred, pins stay, further batches are refused (`batch_failed`):
//! whether it committed is recovery's call.
//!
//! One sequence commits a batch, on one chip and across the shards of a
//! [`crate::ShardedStore`] alike (`crate::shard::commit_sequence`; one
//! chip is its one-shard case, where the staged differentials and the
//! record leave in one flush). A batch has one commit point: one shard,
//! its *home*, writes the only record of every transaction in the
//! batch, and recovery calls a transaction torn when some shard holds a
//! live tag of it and no shard proves it. Every other shard programs its
//! tags before that record, and holds a [`PROOF_REMOTE`] entry for each
//! transaction whose tag it keeps; when its last such tag dies the id
//! goes onto `released`, and the router hands it on to the home, whose
//! `presence` counts one per foreign shard still holding tags.
//!
//! Proofs stay alive while any non-obsolete page still carries their
//! transaction's tag (the `presence` gauge below), and the tags
//! themselves are shed as GC rewrites committed data, so steady state
//! carries no transactional litter. A 29-byte proof of one transaction
//! must not keep a whole page alive for that long, though, and a commit
//! proof is the one record the store can re-create from memory — so **a
//! proof is carried forward, never read back**: every record flush is
//! mostly padding, and `carry_proofs` widens the commit's own proof
//! record to re-prove the oldest live commits too (`proof_fifo` order, at
//! most [`CARRY_MAX`], never more than fits). When that flush lands,
//! `register_proof` moves each member's `vdct` reference to the new page,
//! and an old page left holding nothing else is set obsolete (the mark
//! deferred to the batch's close: new copy durable before the old is
//! marked) without GC ever reading it.
//! GC compaction re-stages the proofs it meets the same way. Recovery
//! keeps the lowest surviving copy of a duplicated proof, and after a
//! checkpoint prefers a copy the delta scan found over the location the
//! checkpoint recorded.

pub(crate) mod checkpoint;
mod dwb;
mod recovery;
mod spans;

pub(crate) use recovery::{read_census, recover_chips, torn_txns, Census};

use crate::diff::{Differential, EpochRecord, PageRecord, EPOCH_HEADER, NO_TXN, RECORD_HEADER};
use crate::error::CoreError;
use crate::ftl::{
    make_spare, make_spare_preserving, make_spare_txn, mark_obsolete_lenient, AllocOutcome,
    BlockManager,
};
use crate::page_store::{
    ChangeRange, CommitBatch, CommitError, MethodKind, PageStore, StoreOptions, StructRootsSnapshot,
};
use crate::Result;
use dwb::DiffWriteBuffer;
use pdl_flash::{FlashChip, OpContext, PageBuf, PageKind, Ppn, SpareInfo};
use spans::DiffSpans;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

pub(crate) const NONE: u32 = u32::MAX;
pub(crate) const MAX_FRAMES: usize = 8;
/// `commit_locs` values of a proof that is staged in the write buffer and
/// holds no durable location to release: a fresh record whose batch has
/// not flushed yet (the transaction is not committed), and the proof of a
/// committed transaction that GC re-staged out of a victim page. Never
/// seen outside a batch or a GC pass.
const PROOF_FRESH: u32 = u32::MAX;
const PROOF_RESTAGED: u32 = u32::MAX - 1;
/// `commit_locs` value of a transaction another shard of a
/// [`crate::ShardedStore`] proves, while this shard holds a live tag of
/// it: committed, with no location here. Every value at or above this
/// one is a sentinel, never a page.
const PROOF_REMOTE: u32 = u32::MAX - 2;
/// Most live commit proofs one record flush carries forward.
const CARRY_MAX: usize = 16;

/// Hasher for maps keyed by one `u64` the engine issued itself (a
/// transaction id here, a logical page id in `pdl-storage`'s frame
/// cache): one multiply, folded so both the bucket index (low bits) and
/// the control byte (high bits) depend on the whole key. SipHash's
/// protection against chosen keys buys nothing for such ids, and it cost
/// a third of the carried-proof lookups in a commit's serial section and
/// 3 % of a buffer hit.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Not the path a `u64` key takes; correct for any other.
        for &byte in bytes {
            self.write_u64(byte as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        let x = (self.0 ^ id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by a transaction or page id.
pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// One entry of the physical page mapping table: `<base page address,
/// differential page address>` (Figure 6). `NONE` marks absent entries;
/// multi-frame logical pages keep one base address per frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PpmtEntry {
    pub base: [u32; MAX_FRAMES],
    pub diff: u32,
}

impl Default for PpmtEntry {
    fn default() -> Self {
        PpmtEntry { base: [NONE; MAX_FRAMES], diff: NONE }
    }
}

/// The physical pages the mapping tables hold something live in: every
/// mapped base frame, and every differential page with `vdct > 0` (a
/// current differential or a live commit proof).
pub(crate) fn live_pages(ppmt: &[PpmtEntry], vdct: &[u16], frames: usize) -> Vec<bool> {
    let mut live: Vec<bool> = vdct.iter().map(|v| *v > 0).collect();
    for e in ppmt {
        for &p in e.base[..frames].iter().filter(|p| **p != NONE) {
            live[p as usize] = true;
        }
    }
    live
}

/// The valid differential count table the mapping tables imply: per
/// physical page, the logical pages whose differential is mapped there
/// plus the live proofs located there (`proof_locs`, one per transaction).
pub(crate) fn derive_vdct(
    pages: usize,
    ppmt: &[PpmtEntry],
    proof_locs: impl Iterator<Item = u32>,
) -> Vec<u16> {
    let mut vdct = vec![0u16; pages];
    for p in ppmt.iter().map(|e| e.diff).filter(|p| *p != NONE).chain(proof_locs) {
        vdct[p as usize] += 1;
    }
    vdct
}

/// Event counters exposed through [`PageStore::counters`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PdlCounters {
    pub case1: u64,
    pub case2: u64,
    pub case3: u64,
    pub initial_base_writes: u64,
    pub dwb_flushes: u64,
    pub diff_pages_obsoleted: u64,
    pub gc_runs: u64,
    pub compacted_diffs: u64,
    /// Differential pages GC read to compact (the salvaged ones included).
    pub compacted_pages: u64,
    pub relocated_bases: u64,
    pub unchanged_skips: u64,
    pub checkpoints: u64,
    pub bad_blocks: u64,
    /// Transactionally tagged reflections staged (diffs + base frames).
    pub txn_staged: u64,
    /// Commit records appended to the differential stream.
    pub txn_commits: u64,
    /// Commit records kept alive across GC compaction.
    pub commit_records_restaged: u64,
    /// Obsolete marks deferred past a commit record and applied at
    /// batch finalize.
    pub deferred_marks: u64,
    /// Single-page failures rebuilt online from a registered twin.
    pub repaired_pages: u64,
    /// Logical pages poisoned: corrupt with no redundant source left.
    pub poisoned_pages: u64,
    /// Epoch records appended by group commit.
    pub epoch_commits: u64,
    /// Committed ids coalesced into epoch records during compaction.
    pub epoch_coalesced: u64,
    /// Live commit proofs re-proven from memory in a record flush's
    /// padding.
    pub proofs_carried: u64,
    /// Differential pages whose last reference was a carried proof.
    pub proof_pages_released: u64,
    /// Pages staged against a held image instead of their base page
    /// read back from flash.
    pub base_reads_skipped: u64,
}

/// Page-differential logging store.
pub struct Pdl {
    chip: FlashChip,
    opts: StoreOptions,
    /// `Max_Differential_Size`: differentials larger than this (encoded)
    /// are discarded and the page is rewritten as a new base (Case 3).
    max_diff_size: usize,
    /// Physical page mapping table, indexed by logical page id.
    ppmt: Vec<PpmtEntry>,
    /// Byte ranges of each logical page's current differential.
    spans: DiffSpans,
    /// Valid differential count table, indexed by physical page number.
    /// Live commit records count too: a differential page is reclaimable
    /// only once nothing in it gates visibility.
    vdct: Vec<u16>,
    dwb: DiffWriteBuffer,
    alloc: BlockManager,
    ts: u64,
    in_gc: bool,
    /// Checkpoint bookkeeping (see `checkpoint.rs`): last committed
    /// sequence number and which root half holds it.
    ckpt_seq: u64,
    ckpt_live_half: Option<u8>,
    // --- durable structure roots (checkpoint root-region tail log) ----
    /// Newest *committed* structure-root snapshot (what
    /// `PageStore::struct_roots` reports and the next checkpoint
    /// compacts into its payload baseline).
    struct_roots: StructRootsSnapshot,
    /// Root record staged in the open commit batch, promoted to
    /// `struct_roots` when the batch closes (i.e. once its commit record
    /// is durable).
    pending_roots: Option<(u64, StructRootsSnapshot)>,
    /// Transaction whose tail record is authoritative: its commit record
    /// is pinned (one presence ref) until a checkpoint compacts the log.
    live_root_txn: Option<u64>,
    /// Next free ppn for tail records in the live half, and the
    /// exclusive end of that half.
    root_tail: u32,
    root_tail_end: u32,
    /// Records were written into half 0 before any checkpoint existed
    /// (forces the first checkpoint into half 1).
    root_tail_used: bool,
    // --- pdl-txn state ---------------------------------------------------
    /// Transaction of each logical page's current durable differential
    /// ([`NO_TXN`] when untagged or absent).
    diff_txn: Vec<u64>,
    /// Transaction of each live base frame (indexed `pid * k + j`).
    base_txn: Vec<u64>,
    /// Live tagged items (current differentials, staged buffer entries,
    /// live base frames) referencing each transaction: its commit record
    /// must stay durable while > 0. Superseded (dead) tags drop out here
    /// the moment the superseding committed data is durable — recovery's
    /// torn-commit verdict ignores dead tags symmetrically, via the same
    /// time-stamp domination the Figure-11 resolution uses.
    presence: IdMap<u32>,
    /// Physical page holding the live commit record of each transaction
    /// still referenced by live tags ([`PROOF_FRESH`] / [`PROOF_RESTAGED`]
    /// while the only copy that counts is staged, [`PROOF_REMOTE`] when
    /// another shard holds it). A transaction is durably committed
    /// exactly when it has an entry other than [`PROOF_FRESH`].
    commit_locs: IdMap<u32>,
    /// Transactions whose [`PROOF_REMOTE`] entry lost its last tag here:
    /// the sharded router takes them ([`Pdl::take_released`]) and drops
    /// this shard's count at their home.
    released: Vec<u64>,
    /// Live proofs, oldest location first: the order `carry_proofs`
    /// re-proves them in. A superset of `commit_locs`' keys — retired
    /// transactions are pruned when they reach the front.
    proof_fifo: VecDeque<u64>,
    /// Above every transaction id this store has seen on flash (recovery's
    /// read pass, a loaded checkpoint) or recorded since: see
    /// [`PageStore::txn_id_floor`].
    txn_floor: u64,
    /// Test switch: stage no carried proofs (the space bound's baseline).
    #[cfg(test)]
    carry_disabled: bool,
    /// Obsolete marks deferred until the data superseding them is safely
    /// on flash: past the commit record inside a commit batch, past the
    /// compaction flush inside GC.
    deferred: Vec<Ppn>,
    /// Blocks holding the current batch's pre-images: excluded from GC
    /// victim selection until the batch closes.
    batch_pins: HashSet<u32>,
    /// Whether a commit batch is open (`batch_open` .. `batch_close`).
    in_txn_batch: bool,
    /// The error that hit a batch after it was opened (on this shard or
    /// another). The batch stays open for good; `commit_batch` and
    /// `checkpoint` answer with this.
    pub(crate) batch_failed: Option<CoreError>,
    // --- single-page failure handling --------------------------------
    /// Logical pages known corrupt with no redundant source, mapped to
    /// the physical page whose checksum failed. Reads report
    /// [`CoreError::PageCorrupt`] immediately; a full overwrite (which
    /// needs none of the stored state) heals the page and clears the
    /// entry.
    poisoned: HashMap<u64, u32>,
    /// Single-page repair registry: live base ppn -> byte-identical twin
    /// still readable on flash (in a block whose erase failed, or a
    /// recovery duplicate that lost time-stamp resolution).
    twins: HashMap<u32, u32>,
    /// `(old, new)` base relocations of the current GC pass; committed
    /// into `twins` only when the victim's erase fails, leaving the old
    /// copies readable.
    gc_moves: Vec<(u32, u32)>,
    // Workhorse buffers.
    base_buf: Vec<u8>,
    frame_buf: Vec<u8>,
    page_img: Vec<u8>,
    counters: PdlCounters,
}

impl Pdl {
    /// Create a PDL store over a fresh chip.
    pub fn new(chip: FlashChip, opts: StoreOptions, max_diff_size: usize) -> Result<Pdl> {
        opts.validate(&chip)?;
        let g = chip.geometry();
        if max_diff_size == 0 {
            return Err(CoreError::BadConfig("max_diff_size must be > 0".into()));
        }
        if max_diff_size > g.data_size {
            return Err(CoreError::BadConfig(format!(
                "max_diff_size of {max_diff_size} bytes exceeds the {}-byte differential \
                 write buffer (one flash page)",
                g.data_size
            )));
        }
        let frames = opts.num_frames();
        let usable = (g.num_blocks.saturating_sub(opts.reserve_blocks + 1 + opts.checkpoint_blocks))
            as u64
            * g.pages_per_block as u64;
        if frames > usable {
            return Err(CoreError::BadConfig(format!(
                "{frames} base frames do not fit: only {usable} pages usable outside the reserve"
            )));
        }
        let mut alloc = BlockManager::new(g.num_blocks, g.pages_per_block, opts.reserve_blocks);
        alloc.set_policy(opts.gc_policy);
        for b in 0..opts.checkpoint_blocks {
            alloc.reserve_block(pdl_flash::BlockId(b));
        }
        let nl = opts.num_logical_pages as usize;
        let k = opts.frames_per_page as usize;
        Ok(Pdl {
            opts,
            max_diff_size,
            ppmt: vec![PpmtEntry::default(); nl],
            spans: DiffSpans::unknown(nl),
            vdct: vec![0u16; g.num_pages() as usize],
            dwb: DiffWriteBuffer::new(g.data_size),
            alloc,
            ts: 1,
            in_gc: false,
            ckpt_seq: 0,
            ckpt_live_half: None,
            struct_roots: StructRootsSnapshot::default(),
            pending_roots: None,
            live_root_txn: None,
            root_tail: 0,
            root_tail_end: if opts.checkpoint_blocks >= 2 {
                (opts.checkpoint_blocks / 2) * g.pages_per_block
            } else {
                0
            },
            root_tail_used: false,
            diff_txn: vec![NO_TXN; nl],
            base_txn: vec![NO_TXN; nl * k],
            presence: IdMap::default(),
            commit_locs: IdMap::default(),
            released: Vec::new(),
            proof_fifo: VecDeque::new(),
            txn_floor: 1,
            #[cfg(test)]
            carry_disabled: false,
            deferred: Vec::new(),
            batch_pins: HashSet::new(),
            in_txn_batch: false,
            batch_failed: None,
            poisoned: HashMap::new(),
            twins: HashMap::new(),
            gc_moves: Vec::new(),
            base_buf: vec![0u8; opts.logical_page_size(g.data_size)],
            frame_buf: vec![0u8; g.data_size],
            page_img: vec![0u8; g.data_size],
            counters: PdlCounters::default(),
            chip,
        })
    }

    /// Whether `txn`'s commit record is durable (diagnostics and tests).
    pub fn txn_committed(&self, txn: u64) -> bool {
        self.commit_locs.get(&txn).is_some_and(|&loc| loc != PROOF_FRESH)
    }

    /// Cross-check the transaction tables against each other (tests call
    /// this between operations, never inside one): each page's `vdct` is
    /// the differentials mapped to it plus the live proofs located there
    /// (what a checkpoint load derives it from), every proof's page is
    /// alive and some tag still needs it, no proof is left staged outside
    /// a batch, the carry queue knows every proof, every known range
    /// entry matches its page's current differential, and the allocator's
    /// page bitmap calls a written page dead exactly when no base frame,
    /// differential or proof (`vdct > 0`) lives there.
    /// Outside a batch, each transaction's presence is its live tags here.
    #[doc(hidden)]
    pub fn check_tables(&self) -> std::result::Result<(), String> {
        self.check_tables_with(&IdMap::default())
    }

    /// [`Pdl::check_tables`] for a shard whose proofs `foreign[t]` other
    /// shards rely on: outside a batch, the presence of a transaction
    /// proven here is its live tags here plus `foreign[t]`.
    pub(crate) fn check_tables_with(
        &self,
        foreign: &IdMap<u32>,
    ) -> std::result::Result<(), String> {
        let durable = self.commit_locs.values().copied().filter(|l| *l < PROOF_REMOTE);
        let want = derive_vdct(self.vdct.len(), &self.ppmt, durable);
        if let Some(p) = (0..want.len()).find(|&p| want[p] != self.vdct[p]) {
            return Err(format!(
                "page {p}: vdct {} but {} mapped differentials and live proofs",
                self.vdct[p], want[p]
            ));
        }
        let queued: HashSet<u64> = self.proof_fifo.iter().copied().collect();
        for (txn, &loc) in &self.commit_locs {
            if loc < PROOF_REMOTE {
                if self.vdct[loc as usize] == 0 {
                    return Err(format!("proof of txn {txn} sits in dead page {loc}"));
                }
            } else if loc != PROOF_REMOTE && !self.in_txn_batch {
                return Err(format!("proof of txn {txn} left staged outside a batch"));
            }
            if !self.presence.contains_key(txn) {
                return Err(format!("proof of txn {txn} outlived its last tag"));
            }
            if loc != PROOF_REMOTE && !queued.contains(txn) {
                return Err(format!("proof of txn {txn} is missing from the carry queue"));
            }
        }
        if !self.in_txn_batch {
            let mut want = self.tag_counts();
            for (&txn, &n) in foreign {
                if !self.proves(txn) {
                    return Err(format!("{n} shards rely on a proof of txn {txn} not held here"));
                }
                *want.entry(txn).or_insert(0) += n;
            }
            let txns = want.keys().chain(self.presence.keys());
            if let Some(txn) = txns.copied().find(|t| want.get(t) != self.presence.get(t)) {
                return Err(format!(
                    "txn {txn}: presence {:?} but {:?} live tags and foreign shards",
                    self.presence.get(&txn),
                    want.get(&txn)
                ));
            }
        }
        let live = live_pages(&self.ppmt, &self.vdct, self.frames());
        self.alloc.check_pages(|p| live[p.0 as usize])?;
        self.check_spans()
    }

    /// Live tagged items per transaction: mapped differentials and base
    /// frames, buffered differentials, and the root records whose
    /// transaction's proof they pin.
    fn tag_counts(&self) -> IdMap<u32> {
        let k = self.frames();
        let ppmt = &self.ppmt;
        let diffs = self.diff_txn.iter().zip(ppmt).filter(|(_, e)| e.diff != NONE);
        let frames =
            self.base_txn.iter().enumerate().filter(|(f, _)| ppmt[f / k].base[f % k] != NONE);
        let roots = self.live_root_txn.into_iter().chain(self.pending_roots.as_ref().map(|r| r.0));
        let tags = diffs.map(|(t, _)| *t).chain(frames.map(|(_, t)| *t));
        let mut counts = IdMap::default();
        for txn in tags.chain(self.dwb.tags()).chain(roots).filter(|t| *t != NO_TXN) {
            *counts.entry(txn).or_insert(0) += 1;
        }
        counts
    }

    /// Every known range entry is exactly the runs of the page's current
    /// differential: the write buffer's, else the one on flash (read
    /// uncharged). A poisoned page's entry is never consulted.
    fn check_spans(&self) -> std::result::Result<(), String> {
        let ranges = |runs: &[crate::diff::DiffRun]| -> Vec<std::ops::Range<usize>> {
            runs.iter().map(|r| r.offset as usize..r.offset as usize + r.bytes.len()).collect()
        };
        for pid in 0..self.ppmt.len() as u64 {
            let Some(known) = self.spans.get(pid) else { continue };
            if self.poisoned.contains_key(&pid) {
                continue;
            }
            let known: Vec<_> = known.collect();
            let current = match (self.dwb.get(pid), self.ppmt[pid as usize].diff) {
                (Some(d), _) => ranges(&d.runs),
                (None, NONE) => Vec::new(),
                (None, dp) => match Differential::find_in_page(self.chip.peek_data(Ppn(dp)), pid) {
                    Ok(Some(d)) => ranges(&d.runs),
                    found => {
                        return Err(format!("page {pid}: differential page {dp} holds {found:?}"))
                    }
                },
            };
            if known != current {
                return Err(format!(
                    "page {pid}: ranges {known:?} kept, current differential covers {current:?}"
                ));
            }
        }
        Ok(())
    }

    fn next_ts(&mut self) -> u64 {
        let t = self.ts;
        self.ts += 1;
        t
    }

    fn frames(&self) -> usize {
        self.opts.frames_per_page as usize
    }

    /// Pin the block containing `ppn` against GC for the rest of the
    /// open commit batch (it holds a pre-image a torn commit rolls back
    /// to).
    fn pin_block(&mut self, ppn: u32) {
        if self.in_txn_batch {
            self.batch_pins.insert(ppn / self.chip.geometry().pages_per_block);
        }
    }

    // ------------------------------------------------------------------
    // Allocation & capacity
    // ------------------------------------------------------------------

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

    /// Run GC until `n` pages are allocatable in normal mode. Invoked at
    /// operation entry, so GC never interleaves with a half-applied write.
    fn ensure_capacity(&mut self, n: u64) -> Result<()> {
        let mut guard = 0u32;
        while self.alloc.normal_capacity() < n {
            self.gc_once()?;
            guard += 1;
            if guard > 2 * self.alloc.num_blocks() {
                return Err(CoreError::StorageFull);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Transaction presence bookkeeping
    // ------------------------------------------------------------------

    fn presence_inc(&mut self, txn: u64) {
        *self.presence.entry(txn).or_insert(0) += 1;
    }

    /// One tagged item of `txn` is gone. At zero the transaction's commit
    /// record no longer gates anything here: retire it (unless it sits in
    /// `dying_page`, which the caller is already tearing down), or, when
    /// another shard holds it, release this shard's claim on it.
    fn presence_dec(&mut self, txn: u64, dying_page: Option<u32>) -> Result<()> {
        let Some(c) = self.presence.get_mut(&txn) else {
            debug_assert!(false, "presence underflow for txn {txn}");
            return Ok(());
        };
        *c -= 1;
        if *c > 0 {
            return Ok(());
        }
        self.presence.remove(&txn);
        match self.commit_locs.remove(&txn) {
            Some(PROOF_REMOTE) => self.released.push(txn),
            // A staged proof has no location to release; `flush_dwb`
            // drops it when it finds the transaction gone.
            Some(loc) if loc < PROOF_REMOTE && Some(loc) != dying_page => {
                self.decrease_vdct(loc)?
            }
            _ => {}
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Valid differential count table
    // ------------------------------------------------------------------

    /// `decreaseValidDifferentialCount` (Figure 8): decrement and, at zero,
    /// set the differential page to obsolete (one write operation) so it
    /// becomes available for garbage collection.
    fn decrease_vdct(&mut self, dp: u32) -> Result<()> {
        let c = &mut self.vdct[dp as usize];
        debug_assert!(*c > 0, "vdct underflow for page {dp}");
        *c -= 1;
        if *c == 0 {
            self.mark_dead_page(Ppn(dp), true)?;
        }
        Ok(())
    }

    /// `ppn` no longer holds anything valid: account for it and set it
    /// obsolete on flash — immediately, or deferred until the data that
    /// superseded it is durable (the commit record inside a batch, the
    /// compaction flush inside GC).
    fn mark_dead_page(&mut self, ppn: Ppn, diff_page: bool) -> Result<()> {
        if diff_page {
            self.counters.diff_pages_obsoleted += 1;
        }
        self.alloc.note_obsolete(ppn);
        if self.in_txn_batch || self.in_gc {
            self.deferred.push(ppn);
        } else {
            mark_obsolete_lenient(&mut self.chip, ppn)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Differential write buffer flushing
    // ------------------------------------------------------------------

    /// `writingDifferentialWriteBuffer` (Figure 8): write the buffer's
    /// contents into a newly allocated differential page, then update the
    /// physical page mapping table and the valid differential count table.
    ///
    /// Precondition: the caller has ensured one page of allocation
    /// capacity (or is inside GC, which allocates from the reserve).
    fn flush_dwb(&mut self) -> Result<()> {
        if self.dwb.is_empty() {
            return Ok(());
        }
        let g = self.chip.geometry();
        // Step 1: write the buffer into a new differential page q.
        let q = self.alloc_page()?;
        let mut img = std::mem::take(&mut self.page_img);
        self.dwb.serialize_into(&mut img);
        // Every flash page consumes its own creation time stamp — Case-2
        // flushes and explicit write-throughs bump the same counter, so
        // recovery's newest-wins tie-break never sees two pages sharing
        // a ts with a later write.
        let ts = self.next_ts();
        let spare = make_spare(g.spare_size, PageKind::Diff, u64::MAX, ts, &img);
        let programmed = self.chip.program_page(q, &img, &spare);
        self.page_img = img;
        programmed?;
        // Step 2: update ppmt and vdct for every record in the buffer —
        // proofs before differentials, so a tag that dies below releases
        // its proof's *new* location. A proof record counts one vdct
        // reference per registered member: each behaves like its own
        // proof sharing the location, so the page stays alive until the
        // last member's presence drops.
        let (diffs, proofs) = self.dwb.drain();
        let mut refs = diffs.len() as u16;
        for txn in proofs.iter().flat_map(EpochRecord::ids) {
            // The record is durable: this is the commit point.
            refs += u16::from(self.register_proof(txn, q.0)?);
        }
        self.vdct[q.0 as usize] = refs;
        if refs == 0 {
            // Nothing but proofs no tag asks for any more.
            self.mark_dead_page(q, true)?;
        }
        for d in &diffs {
            let pid = d.pid as usize;
            let old_dp = self.ppmt[pid].diff;
            if old_dp != NONE {
                // The superseded differential's tag dies with it.
                let old_txn = self.diff_txn[pid];
                if old_txn != NO_TXN {
                    self.presence_dec(old_txn, None)?;
                }
                self.decrease_vdct(old_dp)?;
            }
            self.ppmt[pid].diff = q.0;
            self.diff_txn[pid] = d.txn;
        }
        self.counters.dwb_flushes += 1;
        Ok(())
    }

    /// `txn`'s proof is durable in `q`: point `commit_locs` at it and
    /// release the location it held before (none for a fresh or
    /// GC-re-staged proof; the obsolete mark of a page this empties is
    /// deferred like any other inside a batch or GC pass, so the new copy
    /// is durable before the old one is marked). Returns whether `q`
    /// gained a reference: not for a transaction that lost its last tag
    /// while the proof sat in the buffer, nor for a second copy in `q`.
    fn register_proof(&mut self, txn: u64, q: u32) -> Result<bool> {
        let Some(loc) = self.commit_locs.get_mut(&txn) else { return Ok(false) };
        let old = std::mem::replace(loc, q);
        if old == PROOF_FRESH {
            if !self.presence.contains_key(&txn) {
                // Every page the transaction staged here was unchanged:
                // no tag will ever ask for this proof.
                self.commit_locs.remove(&txn);
                return Ok(false);
            }
            self.proof_fifo.push_back(txn);
        } else if old == q {
            return Ok(false);
        } else if old < PROOF_REMOTE {
            self.counters.proof_pages_released += u64::from(self.vdct[old as usize] == 1);
            self.decrease_vdct(old)?;
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Base-page writing
    // ------------------------------------------------------------------

    /// `writingNewBasePage` (Figure 8): write the logical page itself as a
    /// new base page, obsolete the old base page and release the old
    /// differential. Also used for the very first write of a page.
    /// Inside a commit batch the new frames carry `txn` in their spare
    /// (per-page commit visibility) and the obsolete marks are deferred.
    ///
    /// Precondition: `ensure_capacity(frames)` done by the caller.
    fn write_new_base(&mut self, pid: u64, page: &[u8], initial: bool, txn: u64) -> Result<()> {
        let g = self.chip.geometry();
        let ds = g.data_size;
        let k = self.frames();
        let ts = self.next_ts();
        let mut new_frames = [NONE; MAX_FRAMES];
        for (j, frame_data) in page.chunks_exact(ds).enumerate() {
            let q = self.alloc_page()?;
            let tag = pid * k as u64 + j as u64;
            let spare = make_spare_txn(g.spare_size, PageKind::Base, tag, ts, txn, frame_data);
            self.chip.program_page(q, frame_data, &spare)?;
            new_frames[j] = q.0;
        }
        // Read the entry only now: GC during allocation may have moved it.
        let old = self.ppmt[pid as usize];
        // Any staged differential is against the old base: discard it.
        if let Some(staged) = self.dwb.remove(pid) {
            if staged.txn != NO_TXN {
                self.presence_dec(staged.txn, None)?;
            }
        }
        for j in 0..k {
            let frame = pid as usize * k + j;
            if old.base[j] != NONE {
                if txn != NO_TXN {
                    self.pin_block(old.base[j]);
                }
                let old_txn = self.base_txn[frame];
                if old_txn != NO_TXN {
                    self.presence_dec(old_txn, None)?;
                }
                self.mark_dead_page(Ppn(old.base[j]), false)?;
            }
            self.base_txn[frame] = txn;
            if txn != NO_TXN {
                self.presence_inc(txn);
                self.counters.txn_staged += 1;
            }
        }
        if old.diff != NONE {
            if txn != NO_TXN {
                self.pin_block(old.diff);
            }
            let old_txn = self.diff_txn[pid as usize];
            if old_txn != NO_TXN {
                self.presence_dec(old_txn, None)?;
            }
            self.decrease_vdct(old.diff)?;
        }
        self.ppmt[pid as usize] = PpmtEntry { base: new_frames, diff: NONE };
        self.spans.set_empty(pid);
        self.diff_txn[pid as usize] = NO_TXN;
        if initial {
            self.counters.initial_base_writes += 1;
        }
        Ok(())
    }

    /// Read `pid`'s base frames into `out`. Every frame is checked
    /// against its spare-area checksum; a failing frame is rebuilt online
    /// from a registered twin when one exists, and otherwise poisons the
    /// page and reports [`CoreError::PageCorrupt`] — corrupt bytes are
    /// never returned. The mapping is re-read per frame because a repair
    /// can trigger GC, which relocates entries.
    fn read_base_into(&mut self, pid: u64, out: &mut [u8]) -> Result<()> {
        let ds = self.chip.geometry().data_size;
        for j in 0..self.frames() {
            let ppn = self.ppmt[pid as usize].base[j];
            debug_assert_ne!(ppn, NONE, "base frames are written together");
            let slice = &mut out[j * ds..(j + 1) * ds];
            match self.chip.read_data_verified(Ppn(ppn), slice) {
                Ok(()) => {}
                Err(pdl_flash::FlashError::ChecksumMismatch(p)) => {
                    if self.repair_base_frame(pid, j)? {
                        slice.copy_from_slice(&self.frame_buf);
                    } else {
                        slice.fill(0);
                        self.poison(pid, p.0);
                        return Err(CoreError::PageCorrupt { pid, ppn: p.0 });
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Online single-page repair: rebuild base frame `j` of `pid` from a
    /// byte-identical twin left on flash by a failed GC erase or a
    /// recovery duplicate. On success the verified-good bytes are left in
    /// `frame_buf`, re-programmed through the normal allocation path, and
    /// the corrupt copy is marked obsolete. Costs two flash reads (twin
    /// spare + data) and one program — no recovery scan.
    fn repair_base_frame(&mut self, pid: u64, j: usize) -> Result<bool> {
        let t0 = self.chip.sim_now_us();
        let repaired = self.repair_base_frame_inner(pid, j);
        if matches!(repaired, Ok(true)) {
            crate::page_store::obs_event(
                &mut self.chip,
                pdl_flash::LatencyClass::RepairDetour,
                "repair",
                "user",
                t0,
                0,
                pid,
            );
        }
        repaired
    }

    fn repair_base_frame_inner(&mut self, pid: u64, j: usize) -> Result<bool> {
        // GC inside `ensure_capacity` may relocate the corrupt frame (its
        // stored checksum travels with it, so it stays detectable) and
        // re-key the twin registry; fetch the mapping only afterwards.
        self.ensure_capacity(1)?;
        let cur = self.ppmt[pid as usize].base[j];
        let Some(&twin) = self.twins.get(&cur) else { return Ok(false) };
        let k = self.frames() as u64;
        let Some(tinfo) = self.chip.read_spare(Ppn(twin))? else { return Ok(false) };
        if tinfo.kind != PageKind::Base || tinfo.tag != pid * k + j as u64 {
            return Ok(false); // registry gone stale: not our frame any more
        }
        let mut buf = std::mem::take(&mut self.frame_buf);
        let read = self.chip.read_data_verified(Ppn(twin), &mut buf);
        self.frame_buf = buf;
        match read {
            Ok(()) => {}
            Err(pdl_flash::FlashError::ChecksumMismatch(_)) => return Ok(false),
            Err(e) => return Err(e.into()),
        }
        let g = self.chip.geometry();
        let q = self.alloc_page()?;
        // The twin passed verification, so the fresh checksum computed
        // here covers known-good bytes; the original creation time stamp
        // and the frame's current visibility tag are carried over.
        let txn = self.base_txn[pid as usize * self.frames() + j];
        let spare =
            make_spare_txn(g.spare_size, PageKind::Base, tinfo.tag, tinfo.ts, txn, &self.frame_buf);
        self.chip.program_page(q, &self.frame_buf, &spare)?;
        self.twins.remove(&cur);
        self.twins.insert(q.0, twin);
        self.mark_dead_page(Ppn(cur), false)?;
        self.ppmt[pid as usize].base[j] = q.0;
        self.chip.note_repaired();
        self.counters.repaired_pages += 1;
        Ok(true)
    }

    /// Record that `pid` is corrupt with no redundant source (the failing
    /// physical page is kept for the error report).
    fn poison(&mut self, pid: u64, ppn: u32) {
        if self.poisoned.insert(pid, ppn).is_none() {
            self.counters.poisoned_pages += 1;
        }
    }

    // ------------------------------------------------------------------
    // Page reflection (Figure 7), shared by `evict_page` and `commit_batch`
    // ------------------------------------------------------------------

    /// `PDL_Writing` (Figure 7), with the differential tagged by `txn`
    /// ([`NO_TXN`] for the plain auto-committed path; a real id only
    /// inside an open commit batch). `held` is the image the store holds
    /// for `pid` right now, when the caller has it
    /// ([`crate::BatchPage::held`], [`PageStore::evict_held`]). Every
    /// staging records the new differential's ranges, so the next one of
    /// the page can take a held image whichever path this one came by.
    pub(crate) fn stage_page(
        &mut self,
        pid: u64,
        page: &[u8],
        txn: u64,
        held: Option<&[u8]>,
    ) -> Result<()> {
        debug_assert!(txn == NO_TXN || self.in_txn_batch, "tagged staging outside a batch");
        self.opts.check_pid(pid)?;
        let ds = self.chip.geometry().data_size;
        self.opts.check_page_buf(ds, page)?;
        if let Some(held) = held {
            self.opts.check_page_buf(ds, held)?;
        }
        let k = self.frames() as u64;
        // Worst case allocations: Case 3 writes k base frames; Case 2
        // writes one differential page.
        self.ensure_capacity(k + 1)?;
        let entry = self.ppmt[pid as usize];
        if entry.base[0] == NONE {
            return self.write_new_base(pid, page, true, txn);
        }
        if self.poisoned.contains_key(&pid) {
            // A full overwrite needs none of the unreadable stored state:
            // write the caller's complete image as a new base, healing
            // the page.
            self.write_new_base(pid, page, false, txn)?;
            self.poisoned.remove(&pid);
            self.counters.case3 += 1;
            return Ok(());
        }
        // Step 1: the base page to compare against. With a held image and
        // the current differential's ranges known, it is built in memory:
        // outside the ranges the held image is the base, and inside them
        // every byte is made to differ from the new image, so the
        // differential covers them whatever the base holds there (a
        // superset of the exact one). Otherwise read the base (charged to
        // the writing step, as in Figure 12(b) where lighter areas of
        // write bars are read time).
        let mut base = std::mem::take(&mut self.base_buf);
        let hinted = match held.and_then(|held| Some((held, self.spans.get(pid)?))) {
            Some((held, ranges)) => {
                base.copy_from_slice(held);
                for r in ranges {
                    for (b, n) in base[r.clone()].iter_mut().zip(&page[r]) {
                        *b = !*n;
                    }
                }
                true
            }
            None => false,
        };
        let read = if hinted {
            self.counters.base_reads_skipped += 1;
            Ok(())
        } else {
            self.read_base_into(pid, &mut base)
        };
        if matches!(read, Err(CoreError::PageCorrupt { .. })) {
            // An unrepairable base frame surfaced during the read (which
            // poisoned the page); the overwrite in hand heals it. Repair
            // attempts may have consumed allocations, so top up first.
            self.base_buf = base;
            self.ensure_capacity(k)?;
            self.write_new_base(pid, page, false, txn)?;
            self.poisoned.remove(&pid);
            self.counters.case3 += 1;
            return Ok(());
        }
        // Step 2: create the differential by comparison — only as far as
        // one that can be kept: past `limit` it is Case 3 and discarded.
        // An unchanged page's empty differential always comes back, for
        // the skip below, even where a tiny `max_diff_size` excludes it.
        let ts = self.next_ts();
        let limit = self.max_diff_size.min(self.dwb.capacity());
        let d = read.map(|()| {
            let within = limit.max(RECORD_HEADER);
            Differential::compute_within(pid, ts, &base, page, self.opts.coalesce_gap, within)
        });
        self.base_buf = base;
        let d = d?.map(|d| d.with_txn(txn));
        #[cfg(debug_assertions)]
        if let (true, Some(d)) = (hinted, &d) {
            self.check_hinted(pid, d, page);
        }
        // A repair inside the base read may have run GC: re-read the
        // mapping entry before relying on it below.
        let entry = self.ppmt[pid as usize];
        if d.as_ref().is_some_and(Differential::is_empty)
            && entry.diff == NONE
            && self.dwb.get(pid).is_none()
        {
            // Nothing changed relative to the stored state, which has no
            // differential.
            self.spans.set_empty(pid);
            self.counters.unchanged_skips += 1;
            return Ok(());
        }
        // Step 3: write the differential into the differential write buffer.
        if let Some(old) = self.dwb.remove(pid) {
            if old.txn != NO_TXN {
                self.presence_dec(old.txn, None)?;
            }
        }
        let Some(d) = d.filter(|d| d.encoded_len() <= limit) else {
            // Case 3: no differential to keep, write a new base page.
            self.counters.case3 += 1;
            return self.write_new_base(pid, page, false, txn);
        };
        let size = d.encoded_len();
        if txn != NO_TXN {
            // The pre-image differential must survive until the commit
            // record is durable.
            if entry.diff != NONE {
                self.pin_block(entry.diff);
            }
            self.presence_inc(txn);
            self.counters.txn_staged += 1;
        }
        if size <= self.dwb.free_space() {
            self.counters.case1 += 1;
        } else {
            // Case 2: flush the buffer first.
            self.counters.case2 += 1;
            self.flush_dwb()?;
        }
        self.spans.set_runs(pid, &d.runs);
        self.dwb.push(d);
        Ok(())
    }

    /// Debug builds check every hinted differential against the base page
    /// actually on flash (read uncharged): applied to it, the differential
    /// must rebuild `page`. A base frame failing its checksum is skipped —
    /// no image in hand makes it readable, and the next read reports it.
    #[cfg(debug_assertions)]
    fn check_hinted(&self, pid: u64, d: &Differential, page: &[u8]) {
        let Some(mut base) = self.peek_base(pid) else { return };
        d.apply(&mut base);
        assert!(base == page, "hinted differential of page {pid} does not rebuild its image");
    }

    /// `pid`'s base page as it is on flash, read without charging the
    /// chip; `None` when a frame fails its checksum.
    #[cfg(any(test, debug_assertions))]
    fn peek_base(&self, pid: u64) -> Option<Vec<u8>> {
        let mut base = Vec::with_capacity(self.base_buf.len());
        for &ppn in &self.ppmt[pid as usize].base[..self.frames()] {
            let data = self.chip.peek_data(Ppn(ppn));
            let info = SpareInfo::decode(self.chip.peek_spare(Ppn(ppn)))?;
            if info.checksum != pdl_flash::fnv1a32(data) {
                return None;
            }
            base.extend_from_slice(data);
        }
        Some(base)
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

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
            self.counters.gc_runs,
        );
        self.chip.set_context(OpContext::User);
        self.in_gc = false;
        result
    }

    fn gc_inner(&mut self) -> Result<()> {
        let g = self.chip.geometry();
        // Only victims whose relocation (plus slack) fits the free pool:
        // a failed erase must never strand GC mid-relocation.
        let budget = self.alloc.gc_capacity().saturating_sub(4) as u32;
        let victim =
            self.alloc.select_victim(budget, &self.batch_pins).ok_or(CoreError::StorageFull)?;
        self.gc_moves.clear();
        let written = self.alloc.written_in(victim);
        let mut staged_from_victim = false;
        let mut page = PageBuf::for_chip(&self.chip);
        for idx in 0..written {
            let ppn = g.page_at(victim, idx);
            // Validity is in RAM: a dead page is skipped unread. The test
            // is made page by page, because moving one page can kill a
            // later one (shedding a committed tag can retire the proof
            // stored there).
            if self.alloc.is_dead(ppn) {
                continue;
            }
            // A live page is read once, spare and data together, and
            // moved from the buffer in hand.
            self.chip.read_full(ppn, &mut page)?;
            let Some(info) = page.spare_info() else { continue };
            match info.kind {
                PageKind::Base => self.relocate_base(ppn, info, &page.data)?,
                PageKind::Diff => staged_from_victim |= self.compact_diff_page(ppn, &page.data)?,
                // Allocated, but the program never happened.
                PageKind::Free => {}
                other => {
                    return Err(CoreError::Corruption(format!(
                        "PDL GC found a {other:?} page at {ppn}"
                    )))
                }
            }
        }
        // Crash safety: compacted differentials must reach flash before
        // their only durable copy is erased with the victim.
        if staged_from_victim && !self.dwb.is_empty() {
            self.flush_dwb()?;
        }
        // Obsolete marks raised during this GC pass were deferred past
        // the compaction flush (the superseding copies are durable only
        // now). Marks aimed at the victim are moot — it is about to be
        // erased — and inside a commit batch everything keeps waiting
        // for the commit record.
        self.deferred.retain(|p| g.block_of(*p) != victim);
        if !self.in_txn_batch {
            for ppn in std::mem::take(&mut self.deferred) {
                mark_obsolete_lenient(&mut self.chip, ppn)?;
                self.counters.deferred_marks += 1;
            }
        }
        // The erase is *submitted*, not waited for: on a chip with queue
        // depth > 1 it completes in an otherwise-idle queue slot while
        // the foreground operation that tripped the GC threshold
        // proceeds (the `overlapped_erases` gauge attributes this).
        // Failure detection stays synchronous — the emulator reports it
        // at submission.
        match self.chip.erase_block(victim) {
            Ok(()) => {
                self.alloc.on_erased(victim);
                // Twin copies living in the erased block are gone.
                self.twins.retain(|_, t| g.block_of(Ppn(*t)) != victim);
            }
            // Bad-block management: everything valid was relocated or
            // compacted, so retire the block and move on — whether its
            // erase failed just now (`EraseFailed`) or before a crash
            // whose recovery rebuilt it as a regular `Used` block
            // (`BadBlock`); without retirement GC would pick the broken
            // block as a victim forever.
            Err(pdl_flash::FlashError::EraseFailed(b) | pdl_flash::FlashError::BadBlock(b)) => {
                self.alloc.retire_block(b);
                self.counters.bad_blocks += 1;
                // The failed erase leaves the victim's contents readable:
                // every base page just relocated out of it now has a
                // byte-identical twin there — free redundancy for online
                // single-page repair.
                for (old, new) in self.gc_moves.drain(..) {
                    self.twins.insert(new, old);
                }
            }
            Err(e) => return Err(e.into()),
        }
        self.gc_moves.clear();
        self.counters.gc_runs += 1;
        Ok(())
    }

    /// Move a valid base page, read into `data`, to a new location,
    /// preserving its creation time stamp so recovery ordering is
    /// unaffected. A commit-visibility tag is shed once its transaction is
    /// durably committed (and the presence that kept the commit record
    /// alive goes with it); an in-flight tag travels with the copy.
    fn relocate_base(&mut self, ppn: Ppn, info: SpareInfo, data: &[u8]) -> Result<()> {
        let k = self.frames() as u64;
        let pid = (info.tag / k) as usize;
        let j = (info.tag % k) as usize;
        let mapped = pid < self.ppmt.len() && self.ppmt[pid].base[j] == ppn.0;
        debug_assert!(mapped, "GC found live base page {ppn} that no frame maps");
        if !mapped {
            return Ok(());
        }
        let g = self.chip.geometry();
        // Detection during migration: count a mismatch, but keep moving
        // the frame — with its *original* stored checksum, so the damage
        // stays detectable at the new location instead of being laundered
        // by the rewrite. (For an intact frame the preserved checksum is
        // identical to a freshly computed one.)
        let corrupt = self.chip.verify_read(ppn, data).is_err();
        let frame = pid * self.frames() + j;
        let txn = if info.txn != NO_TXN && self.txn_committed(info.txn) {
            self.base_txn[frame] = NO_TXN;
            self.presence_dec(info.txn, None)?;
            NO_TXN
        } else {
            info.txn
        };
        let q = self.alloc_page()?;
        let spare = if corrupt {
            make_spare_preserving(g.spare_size, &SpareInfo { txn, ..info })
        } else {
            make_spare_txn(g.spare_size, PageKind::Base, info.tag, info.ts, txn, data)
        };
        self.chip.program_page(q, data, &spare)?;
        self.ppmt[pid].base[j] = q.0;
        // Keep the repair registry pointing at the live copy, and record
        // the move in case the victim's erase fails (old copy becomes a
        // twin).
        if let Some(t) = self.twins.remove(&ppn.0) {
            self.twins.insert(q.0, t);
        }
        self.gc_moves.push((ppn.0, q.0));
        self.counters.relocated_bases += 1;
        Ok(())
    }

    /// Stage proof of commit for `ids` through the write buffer: one
    /// epoch record, or several when its ranges outgrow a page. With
    /// `carry`, the last one also re-proves the oldest live commits that
    /// fit beside them ([`Pdl::carry_proofs`]). Returns whether anything
    /// was staged.
    fn stage_commit_proofs(&mut self, ids: &[u64], carry: bool) -> Result<bool> {
        if ids.is_empty() {
            return Ok(false);
        }
        let ts = self.next_ts();
        let full = EpochRecord::from_ids(ts, ids);
        let ranges_per_rec = ((self.dwb.capacity() - EPOCH_HEADER) / 16).max(1);
        let mut chunks = full.ranges.chunks(ranges_per_rec).peekable();
        while let Some(chunk) = chunks.next() {
            let mut rec = EpochRecord { ts, ranges: chunk.to_vec() };
            if rec.encoded_len() > self.dwb.free_space() {
                if !self.in_gc {
                    self.ensure_capacity(2)?;
                }
                self.flush_dwb()?;
            }
            if carry && chunks.peek().is_none() {
                self.carry_proofs(&mut rec);
            }
            self.dwb.push_proof(rec);
        }
        Ok(true)
    }

    /// Compaction (§4.1): "for differential pages, we move only valid
    /// differentials into a new differential page". Valid differentials are
    /// re-staged through the write buffer; superseded ones die with the
    /// victim. Committed tags are shed on the way; live commit records are
    /// re-staged so they outlive every page still tagged with their
    /// transaction (their `commit_locs` entry reads [`PROOF_RESTAGED`]
    /// until the flush: the victim's count is zeroed here, so there is
    /// nothing left to release). `data` is the page's data area, read by
    /// GC. Returns whether anything was staged.
    fn compact_diff_page(&mut self, ppn: Ppn, data: &[u8]) -> Result<bool> {
        self.counters.compacted_pages += 1;
        let verified = self.chip.verify_read(ppn, data).map_err(CoreError::from);
        let records = match verified.and_then(|()| Differential::parse_page(data)) {
            Ok(r) => r,
            Err(CoreError::Flash(pdl_flash::FlashError::ChecksumMismatch(_))) => {
                return self.salvage_corrupt_diff_page(ppn)
            }
            Err(e) => return Err(e),
        };
        let mut staged = false;
        // Commit proofs found live in this page are coalesced into fresh
        // epoch records at the end of the pass, so long-lived committed
        // tags cost one compact record instead of one record each.
        let mut live_commits: Vec<u64> = Vec::new();
        for rec in &records {
            match rec {
                PageRecord::Diff(d) => {
                    let pid = d.pid as usize;
                    if pid >= self.ppmt.len() || self.ppmt[pid].diff != ppn.0 {
                        continue; // superseded or foreign: not the current differential
                    }
                    if self.dwb.get(d.pid).is_some() {
                        // A newer differential is already staged in memory;
                        // the durable truth moves to the buffer. (A tagged
                        // pre-image can never land here: its block is
                        // pinned for the whole batch.)
                        if self.diff_txn[pid] != NO_TXN {
                            let t = self.diff_txn[pid];
                            self.diff_txn[pid] = NO_TXN;
                            self.presence_dec(t, Some(ppn.0))?;
                        }
                        self.ppmt[pid].diff = NONE;
                        continue;
                    }
                    let d = if d.txn != NO_TXN && self.txn_committed(d.txn) {
                        // Committed: shed the tag (the live reference moves
                        // to the untagged staged copy).
                        self.diff_txn[pid] = NO_TXN;
                        self.presence_dec(d.txn, Some(ppn.0))?;
                        d.clone().with_txn(NO_TXN)
                    } else {
                        // Untagged, or in-flight: the tag (and its live
                        // reference) travels with the staged copy.
                        d.clone()
                    };
                    if d.encoded_len() > self.dwb.free_space() {
                        self.flush_dwb()?;
                    }
                    self.ppmt[pid].diff = NONE; // pending in the buffer until flush
                    self.dwb.push(d);
                    self.counters.compacted_diffs += 1;
                    staged = true;
                }
                PageRecord::Epoch(e) => {
                    // Each member behaves like its own proof sharing this
                    // location.
                    for txn in e.ids() {
                        if self.commit_locs.get(&txn) != Some(&ppn.0) {
                            continue;
                        }
                        if self.presence.get(&txn).copied().unwrap_or(0) > 0 {
                            self.commit_locs.insert(txn, PROOF_RESTAGED);
                            live_commits.push(txn);
                        } else {
                            self.commit_locs.remove(&txn);
                            self.presence.remove(&txn);
                        }
                    }
                }
            }
        }
        if !live_commits.is_empty() {
            self.counters.commit_records_restaged += live_commits.len() as u64;
            if live_commits.len() > 1 {
                self.counters.epoch_coalesced += live_commits.len() as u64;
            }
            staged |= self.stage_commit_proofs(&live_commits, false)?;
        }
        self.vdct[ppn.0 as usize] = 0;
        Ok(staged)
    }

    /// A differential page failed verification during compaction: its
    /// records are unreadable. Every logical page whose only durable
    /// differential lived here is poisoned (the base alone would be
    /// silently stale — knowledge of the loss must outlive the mapping
    /// entry, which is cleared below); pages whose newer differential is
    /// already staged in the write buffer lose nothing. Live commit
    /// records stored here are rewritten from the in-memory tables.
    fn salvage_corrupt_diff_page(&mut self, ppn: Ppn) -> Result<bool> {
        let mut staged = false;
        for pid in 0..self.ppmt.len() {
            if self.ppmt[pid].diff != ppn.0 {
                continue;
            }
            let t = self.diff_txn[pid];
            if t != NO_TXN {
                self.diff_txn[pid] = NO_TXN;
                self.presence_dec(t, Some(ppn.0))?;
            }
            self.ppmt[pid].diff = NONE;
            if self.dwb.get(pid as u64).is_none() {
                self.poison(pid as u64, ppn.0);
            }
        }
        let lost: Vec<u64> =
            self.commit_locs.iter().filter(|(_, l)| **l == ppn.0).map(|(t, _)| *t).collect();
        let mut lost_live: Vec<u64> = Vec::new();
        for txn in lost {
            if self.presence.get(&txn).copied().unwrap_or(0) > 0 {
                // Still gating visibility: re-stage fresh proof.
                self.commit_locs.insert(txn, PROOF_RESTAGED);
                lost_live.push(txn);
            } else {
                self.commit_locs.remove(&txn);
                self.presence.remove(&txn);
            }
        }
        if !lost_live.is_empty() {
            self.counters.commit_records_restaged += lost_live.len() as u64;
            staged |= self.stage_commit_proofs(&lost_live, false)?;
        }
        self.vdct[ppn.0 as usize] = 0;
        Ok(staged)
    }
}

// pdl-txn: the steps of a commit batch, in the order
// `crate::shard::commit_sequence` runs them on one chip and across
// chips: open -> `stage_page`* -> [flush] -> roots -> record -> close.
impl Pdl {
    /// `roots`' record on behalf of `txn`, encoded once per commit for
    /// [`Pdl::root_log_fits`] and [`Pdl::batch_stage_roots`]. `None`
    /// without a root region: roots stay memory-resident.
    pub(crate) fn root_record(&self, roots: &StructRootsSnapshot, txn: u64) -> Option<Vec<u8>> {
        (self.opts.checkpoint_blocks >= 2).then(|| checkpoint::encode_root_record(roots, txn))
    }

    /// Whether a root record of `len` bytes fits the root log's tail.
    pub(crate) fn root_log_fits(&self, len: usize) -> bool {
        let npages = len.div_ceil(self.chip.geometry().data_size) as u32;
        self.root_tail + npages <= self.root_tail_end
    }

    /// Open a batch of at most `pages` logical pages (and a root record of
    /// `record_len` bytes), pre-running garbage collection so the batch
    /// itself rarely triggers it (the pre-image pins keep it safe when it
    /// does). An error here is a rejection: nothing was staged.
    pub(crate) fn batch_open(
        &mut self,
        pages: u64,
        record_len: Option<usize>,
    ) -> std::result::Result<(), CommitError> {
        debug_assert!(!self.in_txn_batch, "one commit batch at a time");
        if record_len.is_some_and(|len| !self.root_log_fits(len)) {
            return Err(CommitError::Rejected(CoreError::StorageFull));
        }
        // Worst case per page: k base frames (Case 3) plus one flushed
        // differential page; plus one page for the commit-record flush
        // and one for any pre-existing buffer content.
        let k = self.frames() as u64;
        self.ensure_capacity(pages.saturating_mul(k + 1) + 2).map_err(CommitError::Rejected)?;
        self.in_txn_batch = true;
        Ok(())
    }

    /// Program `record`, the [`Pdl::root_record`] of `roots`, into the
    /// root log's tail on behalf of `txn`. Recovery's tail scan skips
    /// records of torn transactions, so the record is authoritative
    /// exactly when `txn`'s commit record lands.
    pub(crate) fn batch_stage_roots(
        &mut self,
        roots: &StructRootsSnapshot,
        txn: u64,
        record: &[u8],
    ) -> Result<()> {
        debug_assert!(
            self.in_txn_batch && self.root_log_fits(record.len()),
            "checked by batch_open"
        );
        let g = self.chip.geometry();
        let ts = self.ts.saturating_sub(1);
        let mut img = vec![0xFFu8; g.data_size];
        for chunk in record.chunks(g.data_size) {
            img.fill(0xFF);
            img[..chunk.len()].copy_from_slice(chunk);
            let spare = make_spare(g.spare_size, PageKind::Checkpoint, txn, ts, &img);
            self.chip.program_page(Ppn(self.root_tail), &img, &spare)?;
            self.root_tail += 1;
        }
        if self.ckpt_live_half.is_none() {
            self.root_tail_used = true;
        }
        self.presence_inc(txn);
        self.pending_roots = Some((txn, roots.clone()));
        Ok(())
    }

    /// Append durable proof of commit for `txns` to the write stream: one
    /// *epoch record* (group commit proves a whole batch at once). Each
    /// entry of `foreign` names a transaction one other shard holds tags
    /// of: the proof stays live until that shard releases it too.
    ///
    /// The flush this record rides in is mostly padding, so the record
    /// also carries the oldest live proofs forward ([`Pdl::carry_proofs`]).
    pub(crate) fn batch_record(&mut self, txns: &[u64], foreign: &[u64]) -> Result<()> {
        for &txn in txns {
            self.commit_locs.entry(txn).or_insert(PROOF_FRESH);
            self.txn_floor = self.txn_floor.max(txn + 1);
        }
        for &txn in foreign {
            self.presence_inc(txn);
        }
        self.stage_commit_proofs(txns, true)?;
        self.counters.txn_commits += txns.len() as u64;
        if txns.len() > 1 {
            self.counters.epoch_commits += 1;
        }
        Ok(())
    }

    /// Whether the buffer holds a differential tagged by one of `txns`.
    pub(crate) fn buffers_tag_of(&self, txns: &[u64]) -> bool {
        self.dwb.tags().any(|t| txns.contains(&t))
    }

    /// Those of `txns` this shard holds a live tag of.
    pub(crate) fn tags_held<'a>(&'a self, txns: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
        txns.iter().copied().filter(|t| self.presence.contains_key(t))
    }

    /// Another shard's record proves `txns`, and it is durable: each one
    /// this shard holds a tag of is committed here, with no location.
    pub(crate) fn batch_prove_remote(&mut self, txns: &[u64]) {
        for &txn in txns {
            self.txn_floor = self.txn_floor.max(txn + 1);
            if self.presence.contains_key(&txn) {
                self.commit_locs.insert(txn, PROOF_REMOTE);
            }
        }
    }

    /// Whether this shard holds the proof of `txn` (not another shard).
    pub(crate) fn proves(&self, txn: u64) -> bool {
        self.commit_locs.get(&txn).is_some_and(|&loc| loc != PROOF_REMOTE)
    }

    /// The transactions this shard holds tags of and another shard proves.
    pub(crate) fn remote_txns(&self) -> impl Iterator<Item = u64> + '_ {
        self.commit_locs.iter().filter(|(_, loc)| **loc == PROOF_REMOTE).map(|(t, _)| *t)
    }

    /// The ids whose last tag here died since the last call, each proven
    /// by another shard.
    pub(crate) fn take_released(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.released)
    }

    /// One foreign shard no longer holds a tag of `txn`, which this shard
    /// proves.
    pub(crate) fn release_foreign(&mut self, txn: u64) -> Result<()> {
        self.presence_dec(txn, None)
    }

    /// Re-prove the oldest live commits — at most [`CARRY_MAX`], and no
    /// more than fit the buffer's free bytes beside `rec`, so this never
    /// causes a flush — by adding them to `rec`, the record proving a
    /// commit that is about to be staged. A proof is carried forward,
    /// never read back: when the flush lands, `register_proof` moves each
    /// member's reference off its old page, and a page left holding
    /// nothing but old proofs dies without GC ever reading it.
    fn carry_proofs(&mut self, rec: &mut EpochRecord) {
        #[cfg(test)]
        if self.carry_disabled {
            return;
        }
        // Retired entries are pruned as the scan below reaches them; a
        // run of full buffers never scans, so bound the queue here.
        if self.proof_fifo.len() > 2 * self.commit_locs.len() + 64 {
            let locs = &self.commit_locs;
            self.proof_fifo.retain(|txn| locs.contains_key(txn));
        }
        // Each picked id adds at most one range to `rec`.
        let room = (self.dwb.free_space().saturating_sub(rec.encoded_len()) / 16).min(CARRY_MAX);
        // This runs inside every commit's serial section: the scan
        // allocates nothing, only the widened record does.
        let mut picked = [0u64; CARRY_MAX];
        let mut n = 0;
        let mut staged: Vec<u64> = Vec::new();
        while n < room {
            let Some(txn) = self.proof_fifo.pop_front() else { break };
            match self.commit_locs.get(&txn) {
                None => {} // retired: pruned
                // Staged in this very buffer already (GC moved it here,
                // or it is being committed again under the same id).
                Some(&loc) if loc >= PROOF_RESTAGED => staged.push(txn),
                Some(_) if picked[..n].contains(&txn) => {}
                Some(_) => {
                    picked[n] = txn;
                    n += 1;
                }
            }
        }
        for txn in staged.into_iter().rev() {
            self.proof_fifo.push_front(txn);
        }
        let picked = &picked[..n];
        if picked.is_empty() {
            return;
        }
        self.proof_fifo.extend(picked);
        self.counters.proofs_carried += n as u64;
        let mut ids: Vec<u64> = rec.ids().chain(picked.iter().copied()).collect();
        ids.sort_unstable();
        *rec = EpochRecord::from_sorted_ids(rec.ts, &ids);
    }

    /// Close the open batch, its commit point durable or nothing of it
    /// staged: the superseded pre-images are then garbage on every
    /// timeline and their obsolete marks can go out.
    pub(crate) fn batch_close(&mut self) -> Result<()> {
        for ppn in std::mem::take(&mut self.deferred) {
            mark_obsolete_lenient(&mut self.chip, ppn)?;
            self.counters.deferred_marks += 1;
        }
        // The batch's root record is committed along with it: promote it
        // to the authoritative snapshot and drop the pin on the previous
        // root-publishing transaction's commit record.
        if let Some((txn, snap)) = self.pending_roots.take() {
            self.struct_roots = snap;
            if let Some(old) = self.live_root_txn.replace(txn) {
                self.presence_dec(old, None)?;
            }
        }
        self.batch_pins.clear();
        self.in_txn_batch = false;
        Ok(())
    }
}

impl PageStore for Pdl {
    fn options(&self) -> &StoreOptions {
        &self.opts
    }

    /// `PDL_Reading` (Figure 9): read the base page, find the differential
    /// (write buffer first, then the differential page), and merge.
    fn read_page(&mut self, pid: u64, out: &mut [u8]) -> Result<()> {
        self.opts.check_pid(pid)?;
        let ds = self.chip.geometry().data_size;
        self.opts.check_page_buf(ds, out)?;
        if let Some(&ppn) = self.poisoned.get(&pid) {
            // Known corrupt with no redundant source: report, never
            // serve. A full overwrite clears this state.
            out.fill(0);
            return Err(CoreError::PageCorrupt { pid, ppn });
        }
        if self.ppmt[pid as usize].base[0] == NONE {
            out.fill(0);
            return Ok(());
        }
        // Step 1: read the base page (verified; repairs online).
        self.read_base_into(pid, out)?;
        // Step 2: find the differential. (Re-read the mapping entry: a
        // repair in Step 1 can run GC, which moves differential pages.)
        let entry = self.ppmt[pid as usize];
        if let Some(d) = self.dwb.get(pid) {
            d.apply(out);
            return Ok(());
        }
        if entry.diff != NONE {
            let mut buf = std::mem::take(&mut self.frame_buf);
            let read = self.chip.read_data_verified(Ppn(entry.diff), &mut buf);
            let found =
                read.map_err(CoreError::from).and_then(|()| Differential::find_in_page(&buf, pid));
            self.frame_buf = buf;
            let d = match found {
                Ok(Some(d)) => d,
                Ok(None) => {
                    return Err(CoreError::Corruption(format!(
                        "differential for page {pid} missing from differential page {}",
                        entry.diff
                    )))
                }
                Err(CoreError::Flash(pdl_flash::FlashError::ChecksumMismatch(p))) => {
                    // The page's only durable differential is unreadable
                    // and the base alone is stale: serving it would be
                    // silently wrong. Poison until a full overwrite.
                    self.poison(pid, p.0);
                    out.fill(0);
                    return Err(CoreError::PageCorrupt { pid, ppn: p.0 });
                }
                Err(e) => return Err(e),
            };
            // Step 3: merge the base page with the differential.
            d.apply(out);
        }
        Ok(())
    }

    fn apply_update(&mut self, _pid: u64, _page: &[u8], _changes: &[ChangeRange]) -> Result<()> {
        // Loosely coupled: "when a logical page is simply updated, we just
        // update the logical page in memory without recording the log".
        Ok(())
    }

    fn consumes_updates(&self) -> bool {
        false
    }

    /// `PDL_Writing` (Figure 7).
    fn evict_page(&mut self, pid: u64, page: &[u8]) -> Result<()> {
        self.stage_page(pid, page, NO_TXN, None)
    }

    /// `PDL_Writing` compared against `held` instead of the base page
    /// read back, where the current differential's ranges are known.
    fn evict_held(&mut self, pid: u64, page: &[u8], held: Option<&[u8]>) -> Result<()> {
        self.stage_page(pid, page, NO_TXN, held)
    }

    /// Write-through (§4.5): "when the write-through command is called, PDL
    /// flushes the differential write buffer out into flash memory".
    fn flush(&mut self) -> Result<()> {
        if self.dwb.is_empty() {
            return Ok(());
        }
        self.ensure_capacity(1)?;
        self.flush_dwb()
    }

    /// The commit sequence (`crate::shard::commit_sequence`) as its
    /// one-shard case: the staged differentials and the record leave in
    /// one flush.
    fn commit_batch(&mut self, batch: &CommitBatch<'_>) -> std::result::Result<(), CommitError> {
        crate::shard::commit_sequence(std::slice::from_mut(self), batch)
    }

    fn txn_id_floor(&self) -> u64 {
        // Tags of a batch still open are not recorded yet.
        let tagged = self.presence.keys().max().map_or(1, |m| m + 1);
        self.txn_floor.max(tagged)
    }

    fn checkpoint(&mut self) -> Result<()> {
        Pdl::checkpoint(self)
    }

    fn struct_roots(&self) -> Option<StructRootsSnapshot> {
        if self.opts.checkpoint_blocks < 2 {
            return None;
        }
        Some(self.struct_roots.clone())
    }

    fn chip(&self) -> &FlashChip {
        &self.chip
    }

    fn chip_mut(&mut self) -> &mut FlashChip {
        &mut self.chip
    }

    fn name(&self) -> String {
        MethodKind::Pdl { max_diff_size: self.max_diff_size }.label()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let c = &self.counters;
        // Live differential pages by valid count: what `space_amp` pays
        // for beyond the base pages.
        let live = |range: std::ops::RangeInclusive<u16>| {
            self.vdct.iter().filter(|v| range.contains(v)).count() as u64
        };
        vec![
            ("case1_staged", c.case1),
            ("case2_flush_then_staged", c.case2),
            ("case3_new_base", c.case3),
            ("initial_base_writes", c.initial_base_writes),
            ("dwb_flushes", c.dwb_flushes),
            ("diff_pages_obsoleted", c.diff_pages_obsoleted),
            ("gc_runs", c.gc_runs),
            ("compacted_diffs", c.compacted_diffs),
            ("compacted_pages", c.compacted_pages),
            ("relocated_bases", c.relocated_bases),
            ("unchanged_skips", c.unchanged_skips),
            ("checkpoints", c.checkpoints),
            ("bad_blocks", c.bad_blocks),
            ("txn_staged", c.txn_staged),
            ("txn_commits", c.txn_commits),
            ("commit_records_restaged", c.commit_records_restaged),
            ("deferred_marks", c.deferred_marks),
            ("repaired_pages", c.repaired_pages),
            ("poisoned_pages", c.poisoned_pages),
            ("epoch_commits", c.epoch_commits),
            ("epoch_coalesced", c.epoch_coalesced),
            ("proofs_carried", c.proofs_carried),
            ("proof_pages_released", c.proof_pages_released),
            ("base_reads_skipped", c.base_reads_skipped),
            ("diff_pages_vdct_1", live(1..=1)),
            ("diff_pages_vdct_2_4", live(2..=4)),
            ("diff_pages_vdct_5_plus", live(5..=u16::MAX)),
        ]
    }

    fn into_chips(self: Box<Self>) -> Vec<FlashChip> {
        vec![self.chip]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchPage;
    use pdl_flash::FlashConfig;
    use proptest::prelude::{prop_assert, prop_assert_eq, TestCaseError};

    fn store(pages: u64, max_diff: usize) -> Pdl {
        Pdl::new(FlashChip::new(FlashConfig::tiny()), StoreOptions::new(pages), max_diff).unwrap()
    }

    fn filled(s: &Pdl, fill: u8) -> Vec<u8> {
        vec![fill; s.logical_page_size()]
    }

    #[test]
    fn first_write_is_a_base_page() {
        let mut s = store(8, 64);
        let p = filled(&s, 5);
        let before = s.chip().stats().total();
        s.write_page(2, &p).unwrap();
        let d = s.chip().stats().total() - before;
        assert_eq!(d.writes, 1); // one base-page program, nothing else
        let mut out = filled(&s, 0);
        s.read_page(2, &mut out).unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn small_update_stays_in_write_buffer() {
        let mut s = store(8, 64);
        let mut p = filled(&s, 5);
        s.write_page(0, &p).unwrap();
        let before = s.chip().stats().total();
        p[10] = 99;
        s.write_page(0, &p).unwrap();
        let d = s.chip().stats().total() - before;
        // Case 1: one base read to compute the differential, zero writes.
        assert_eq!(d.reads, 1);
        assert_eq!(d.writes, 0);
        assert_eq!(s.counters.case1, 1);
        // The read path merges from the buffer.
        let mut out = filled(&s, 0);
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn buffer_overflow_flushes_a_differential_page() {
        let mut s = store(8, 256);
        let ds = s.chip().geometry().data_size; // 256 on the tiny chip
        for pid in 0..8u64 {
            s.write_page(pid, &filled(&s, 1)).unwrap();
        }
        // Each differential is ~100 bytes encoded; the tiny 256-byte buffer
        // fits two, so repeated updates force Case 2 flushes.
        let mut flushed = false;
        for round in 0..6u8 {
            for pid in 0..8u64 {
                let mut p = filled(&s, 1);
                let at = (pid as usize * 17 + round as usize * 31) % (ds - 80);
                p[at..at + 80].fill(round + 2);
                s.write_page(pid, &p).unwrap();
                flushed |= s.counters.dwb_flushes > 0;
            }
        }
        assert!(flushed, "expected at least one dwb flush");
        assert!(s.counters.case2 > 0);
    }

    #[test]
    fn read_merges_base_and_flushed_differential() {
        let mut s = store(4, 256);
        let base = filled(&s, 0x11);
        s.write_page(1, &base).unwrap();
        let mut v2 = base.clone();
        v2[20..40].fill(0x22);
        s.write_page(1, &v2).unwrap();
        s.flush().unwrap(); // differential now on flash
        assert!(s.dwb.is_empty());
        let before = s.chip().stats().total();
        let mut out = filled(&s, 0);
        s.read_page(1, &mut out).unwrap();
        let d = s.chip().stats().total() - before;
        assert_eq!(out, v2);
        // At-most-two-page reading: base + differential page.
        assert_eq!(d.reads, 2);
    }

    #[test]
    fn read_without_differential_is_one_read() {
        let mut s = store(4, 256);
        s.write_page(0, &filled(&s, 9)).unwrap();
        let before = s.chip().stats().total();
        let mut out = filled(&s, 0);
        s.read_page(0, &mut out).unwrap();
        assert_eq!((s.chip().stats().total() - before).reads, 1);
    }

    #[test]
    fn oversized_differential_triggers_case3() {
        let mut s = store(4, 64);
        let p = filled(&s, 1);
        s.write_page(0, &p).unwrap();
        // Change far more than 64 bytes.
        let p2 = filled(&s, 2);
        s.write_page(0, &p2).unwrap();
        assert_eq!(s.counters.case3, 1);
        let mut out = filled(&s, 0);
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, p2);
        // No differential page involved afterwards.
        let before = s.chip().stats().total();
        s.read_page(0, &mut out).unwrap();
        assert_eq!((s.chip().stats().total() - before).reads, 1);
    }

    #[test]
    fn unchanged_eviction_is_free() {
        let mut s = store(4, 256);
        let p = filled(&s, 3);
        s.write_page(0, &p).unwrap();
        let before = s.chip().stats().total();
        s.write_page(0, &p).unwrap();
        let d = s.chip().stats().total() - before;
        // One base read to compute the (empty) differential; no writes.
        assert_eq!(d.writes, 0);
        assert_eq!(s.counters.unchanged_skips, 1);
    }

    #[test]
    fn differential_supersedes_older_one_in_buffer() {
        let mut s = store(4, 256);
        let base = filled(&s, 0);
        s.write_page(0, &base).unwrap();
        let mut v1 = base.clone();
        v1[0] = 1;
        s.write_page(0, &v1).unwrap();
        let mut v2 = base.clone();
        v2[0] = 2;
        s.write_page(0, &v2).unwrap();
        assert_eq!(s.dwb.len(), 1, "only the newest differential is buffered");
        let mut out = filled(&s, 0);
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, v2);
    }

    #[test]
    fn sustained_updates_gc_and_preserve_data() {
        let mut s = store(8, 128);
        let ds = s.chip().geometry().data_size;
        let mut truth: Vec<Vec<u8>> =
            (0..8).map(|i| vec![i as u8; s.logical_page_size()]).collect();
        for (pid, t) in truth.iter().enumerate() {
            s.write_page(pid as u64, t).unwrap();
        }
        let mut x: u32 = 12345;
        for round in 0..400u32 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let pid = (x >> 8) as usize % 8;
            let at = (x >> 11) as usize % (ds - 16);
            truth[pid][at..at + 16].fill(round as u8);
            let p = truth[pid].clone();
            s.write_page(pid as u64, &p).unwrap();
        }
        assert!(s.counters.gc_runs > 0, "GC should have run");
        for pid in 0..8usize {
            let mut out = filled(&s, 0);
            s.read_page(pid as u64, &mut out).unwrap();
            assert_eq!(out, truth[pid], "pid {pid}");
        }
    }

    #[test]
    fn multi_frame_logical_pages() {
        let chip = FlashChip::new(FlashConfig::tiny());
        let mut s = Pdl::new(chip, StoreOptions::new(4).with_frames_per_page(2), 128).unwrap();
        let ds = s.chip().geometry().data_size;
        let mut p = vec![0u8; 2 * ds];
        p[..ds].fill(1);
        p[ds..].fill(2);
        s.write_page(0, &p).unwrap();
        // Small cross-frame change -> differential.
        p[ds - 4..ds + 4].fill(9);
        s.write_page(0, &p).unwrap();
        let mut out = vec![0u8; 2 * ds];
        let before = s.chip().stats().total();
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, p);
        // Two base frames + differential still buffered: 2 reads.
        assert_eq!((s.chip().stats().total() - before).reads, 2);
        s.flush().unwrap();
        let before = s.chip().stats().total();
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, p);
        // Two base frames + one differential page.
        assert_eq!((s.chip().stats().total() - before).reads, 3);
    }

    #[test]
    fn write_buffer_survives_reads_until_flush() {
        let mut s = store(4, 256);
        let base = filled(&s, 0);
        s.write_page(0, &base).unwrap();
        let mut v = base.clone();
        v[5] = 5;
        s.write_page(0, &v).unwrap();
        // Reading must not disturb the buffer.
        let mut out = filled(&s, 0);
        s.read_page(0, &mut out).unwrap();
        s.read_page(0, &mut out).unwrap();
        assert_eq!(s.dwb.len(), 1);
        s.flush().unwrap();
        assert!(s.dwb.is_empty());
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, v);
    }

    #[test]
    fn oversized_max_diff_size_is_rejected() {
        let chip = FlashChip::new(FlashConfig::tiny());
        let err = match Pdl::new(chip, StoreOptions::new(4), 2048) {
            Err(e) => e,
            Ok(_) => panic!("2048-byte max_diff_size must not fit a 256-byte page"),
        };
        assert!(matches!(err, CoreError::BadConfig(_)), "{err}");
    }

    #[test]
    fn commit_batch_lands_record_with_differentials() {
        let mut s = store(8, 128);
        for pid in 0..4u64 {
            s.write_page(pid, &filled(&s, 1)).unwrap();
        }
        s.flush().unwrap();
        let txn = 7u64;
        let mut p = filled(&s, 1);
        p[3..9].fill(0xEE);
        let mut p2 = filled(&s, 1);
        p2[40..44].fill(0xDD);
        assert!(!s.txn_committed(txn));
        s.commit_batch(&CommitBatch {
            pages: vec![BatchPage::new(0, &p, txn), BatchPage::new(1, &p2, txn)],
            roots: None,
        })
        .unwrap();
        assert!(s.txn_committed(txn));
        assert_eq!(s.counters.txn_commits, 1);
        let mut out = filled(&s, 0);
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, p);
        s.read_page(1, &mut out).unwrap();
        assert_eq!(out, p2);
    }

    /// The steps the commit sequence runs on a shard that stage-flushes:
    /// the tagged pages land in one flush, the commit record in the next.
    fn commit_in_two_flushes(s: &mut Pdl, txn: u64, pages: &[(u64, &[u8])]) {
        s.batch_open(pages.len() as u64, None).unwrap();
        for &(pid, page) in pages {
            s.stage_page(pid, page, txn, None).unwrap();
        }
        s.flush().unwrap();
        s.batch_record(&[txn], &[]).unwrap();
        s.flush().unwrap();
        s.batch_close().unwrap();
    }

    fn live_diff_pages(s: &Pdl) -> usize {
        s.vdct.iter().filter(|v| **v > 0).count()
    }

    #[test]
    fn tag_dying_in_the_flush_of_its_restaged_proof_releases_the_new_page() {
        let mut s = store(8, 128);
        let mut p = filled(&s, 1);
        for pid in 0..4u64 {
            s.write_page(pid, &p).unwrap();
        }
        s.flush().unwrap();
        // Txn 9's only tag is page 0's differential; its record sits in a
        // page of its own.
        p[3..9].fill(0xEE);
        commit_in_two_flushes(&mut s, 9, &[(0, &p)]);
        let record_page = s.commit_locs[&9];
        assert_ne!(record_page, s.ppmt[0].diff);
        s.check_tables().unwrap();
        // An untagged update of page 0 waits in the buffer: txn 9's tag
        // dies when it is flushed...
        p[40..44].fill(0xDD);
        s.write_page(0, &p).unwrap();
        assert_eq!(s.presence[&9], 1);
        // ...and before that, GC compacts the record's page: the proof is
        // re-staged into the same buffer and the victim's count zeroed.
        s.in_gc = true;
        let data = s.chip.peek_data(Ppn(record_page)).to_vec();
        assert!(s.compact_diff_page(Ppn(record_page), &data).unwrap());
        assert_eq!(s.vdct[record_page as usize], 0);
        s.flush_dwb().unwrap();
        s.in_gc = false;
        for ppn in std::mem::take(&mut s.deferred) {
            mark_obsolete_lenient(&mut s.chip, ppn).unwrap();
        }
        // This hand-driven pass erases no victim: count the compacted
        // page dead, as the erase would have reclaimed it.
        s.alloc.note_obsolete(Ppn(record_page));
        // The dying tag released the proof's new location (not the
        // victim's), and nothing pins the freshly written page but the
        // differential in it.
        assert!(!s.txn_committed(9) && !s.presence.contains_key(&9));
        assert_eq!(s.vdct[record_page as usize], 0);
        assert_eq!(s.vdct[s.ppmt[0].diff as usize], 1);
        s.check_tables().unwrap();
        let mut out = filled(&s, 0);
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn carrying_proofs_reads_nothing_and_releases_their_old_pages() {
        let mut s = store(8, 128);
        let mut p = filled(&s, 1);
        for pid in 0..8u64 {
            s.write_page(pid, &p).unwrap();
        }
        s.flush().unwrap();
        for txn in 1..=6u64 {
            p[txn as usize] = 0xA0 + txn as u8;
            commit_in_two_flushes(&mut s, txn, &[(txn, &p)]);
            s.check_tables().unwrap();
        }
        // Every record flush re-proved all its predecessors, so each
        // earlier record page died when the next one landed.
        assert_eq!(s.counters.proofs_carried, 1 + 2 + 3 + 4 + 5);
        assert_eq!(s.counters.proof_pages_released, 5);
        let record_pages: HashSet<u32> = s.commit_locs.values().copied().collect();
        assert_eq!(record_pages.len(), 1, "six live proofs share the newest record page");
        // The carry itself is memory-only: no flash operation of any kind
        // between staging the fresh record and the flush.
        s.batch_open(1, None).unwrap();
        p[7] = 0xA7;
        s.stage_page(7, &p, 7, None).unwrap();
        s.flush().unwrap();
        let before = s.chip().stats().total();
        s.batch_record(&[7], &[]).unwrap();
        assert_eq!(s.chip().stats().total(), before);
        assert_eq!(s.counters.proofs_carried, 15 + 6);
        s.flush().unwrap();
        s.batch_close().unwrap();
        s.check_tables().unwrap();
        for txn in 1..=7u64 {
            assert!(s.txn_committed(txn), "txn {txn}");
        }
    }

    #[test]
    fn txn_hasher_spreads_sequential_and_strided_ids() {
        // The map picks a bucket from a hash's low bits and tags the entry
        // with its top seven: both must vary over the ids the engine keys
        // maps by — consecutive transactions or pids, every n-th on one
        // shard of n, and strides far past a shard count.
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        for stride in [1u64, 2, 4, 7, 1024, 1 << 32] {
            let hashes: Vec<u64> = (0..1024u64).map(|i| build.hash_one(i * stride)).collect();
            let buckets: HashSet<u64> = hashes.iter().map(|h| h % 1024).collect();
            let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(buckets.len() >= 600, "stride {stride}: {} of 1024 buckets", buckets.len());
            assert_eq!(tags.len(), 128, "stride {stride}");
        }
    }

    /// `commits` durable whole-page rewrites (Case 3: every commit tags a
    /// base page, and its record flush holds nothing else) of
    /// pseudo-random pages; returns (live differential pages, live proofs).
    fn whole_page_commits(carry: bool, commits: u64) -> (usize, usize) {
        const PAGES: u64 = 64;
        let chip = FlashChip::new(FlashConfig::scaled(16));
        let mut s = Pdl::new(chip, StoreOptions::new(PAGES), 256).unwrap();
        s.carry_disabled = !carry;
        for pid in 0..PAGES {
            s.write_page(pid, &filled(&s, pid as u8)).unwrap();
        }
        s.flush().unwrap();
        let mut x = 0x5EEDu64;
        for txn in 1..=commits {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let page = filled(&s, (x >> 24) as u8);
            s.commit_batch(&CommitBatch {
                pages: vec![BatchPage::new((x >> 33) % PAGES, &page, txn)],
                roots: None,
            })
            .unwrap();
        }
        s.check_tables().unwrap();
        assert!(s.counters.gc_runs > 0, "the run must garbage-collect");
        (live_diff_pages(&s), s.commit_locs.len())
    }

    #[test]
    fn record_pages_stay_bounded_by_live_proofs_over_the_carry_width() {
        let (pages, proofs) = whole_page_commits(true, 2_000);
        assert!(proofs >= 32, "the workload must keep proofs alive (got {proofs})");
        assert!(
            pages <= proofs / CARRY_MAX + 8,
            "{pages} live differential pages for {proofs} live proofs"
        );
        let (uncarried, _) = whole_page_commits(false, 2_000);
        assert!(
            uncarried >= 3 * pages,
            "carry must cut live differential pages at least 3x: {uncarried} -> {pages}"
        );
    }

    #[test]
    fn committed_tags_are_shed_by_gc_churn() {
        let mut s = store(8, 128);
        let size = s.logical_page_size();
        for pid in 0..8u64 {
            s.write_page(pid, &vec![pid as u8; size]).unwrap();
        }
        s.flush().unwrap();
        // One tagged commit...
        let mut p = vec![0u8; size];
        p[7] = 7;
        s.commit_batch(&CommitBatch { pages: vec![BatchPage::new(0, &p, 42)], roots: None })
            .unwrap();
        assert!(s.presence.contains_key(&42));
        // ...then heavy untagged churn: compaction strips the tag and
        // eventually retires the commit record and every map entry.
        let mut truth: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; size]).collect();
        truth[0] = p;
        for round in 0..600u32 {
            let pid = (round % 8) as usize;
            let at = (round as usize * 13) % (size - 8);
            truth[pid][at..at + 8].fill(round as u8);
            let q = truth[pid].clone();
            s.write_page(pid as u64, &q).unwrap();
        }
        assert!(s.counters.gc_runs > 0);
        assert!(!s.presence.contains_key(&42), "presence must drain");
        assert!(!s.commit_locs.contains_key(&42));
        for pid in 0..8usize {
            let mut out = vec![0u8; size];
            s.read_page(pid as u64, &mut out).unwrap();
            assert_eq!(out, truth[pid], "pid {pid}");
        }
    }

    #[test]
    fn a_held_image_replaces_the_base_read() {
        let mut s = store(8, 128);
        let mut p = filled(&s, 1);
        s.write_page(0, &p).unwrap();
        s.flush().unwrap();
        for round in 0..3u8 {
            let held = p.clone();
            p[10 + round as usize] = 0xA0 + round;
            let before = s.chip().stats().total();
            let page = BatchPage { held: Some(&held), ..BatchPage::new(0, &p, 1 + round as u64) };
            s.commit_batch(&CommitBatch { pages: vec![page], roots: None }).unwrap();
            let cost = s.chip().stats().total() - before;
            assert_eq!(cost.reads, 0, "round {round}: staged without reading the base");
            s.check_tables().unwrap();
        }
        assert_eq!(s.counters.base_reads_skipped, 3);
        // The first round's differential covers byte 10 only; later rounds
        // keep every byte of the one they supersede.
        assert_eq!(s.spans.get(0).unwrap().collect::<Vec<_>>(), vec![10..13]);
        let mut out = filled(&s, 0);
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, p);
        // After a crash the ranges are unknown: the next commit reads.
        let mut s =
            Pdl::recover(PageStore::into_chip(Box::new(s)), StoreOptions::new(8), 128).unwrap();
        let held = p.clone();
        p[40] = 0xEE;
        let before = s.chip().stats().total();
        let page = BatchPage { held: Some(&held), ..BatchPage::new(0, &p, 9) };
        s.commit_batch(&CommitBatch { pages: vec![page], roots: None }).unwrap();
        assert_eq!((s.chip().stats().total() - before).reads, 1);
        assert_eq!(s.counters.base_reads_skipped, 0);
        s.check_tables().unwrap();
    }

    #[test]
    fn an_eviction_with_a_held_image_reads_nothing_while_the_ranges_are_known() {
        let mut s = store(8, 128);
        let mut p = filled(&s, 1);
        s.write_page(0, &p).unwrap();
        // A plain eviction reads the base and records its differential's
        // ranges for the next staging.
        p[20..24].fill(0xB0);
        s.evict_page(0, &p).unwrap();
        assert_eq!(s.spans.get(0).unwrap().collect::<Vec<_>>(), vec![20..24]);
        for round in 0..3u8 {
            let held = p.clone();
            p[60 + round as usize] = 0xC0 + round;
            let reads = s.chip().stats().user.reads;
            s.evict_held(0, &p, Some(&held)).unwrap();
            assert_eq!(s.chip().stats().user.reads, reads, "round {round}: read the base");
            assert_eq!(s.counters.base_reads_skipped, 1 + u64::from(round));
            s.check_tables().unwrap();
        }
        let mut out = filled(&s, 0);
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, p);
        s.flush().unwrap();
        // After recovery the ranges are unknown: the same eviction reads
        // the base once, and records them again.
        let mut s =
            Pdl::recover(PageStore::into_chip(Box::new(s)), StoreOptions::new(8), 128).unwrap();
        assert!(s.spans.get(0).is_none());
        let held = p.clone();
        p[90] = 0xEE;
        let reads = s.chip().stats().user.reads;
        s.evict_held(0, &p, Some(&held)).unwrap();
        assert_eq!(s.chip().stats().user.reads - reads, 1);
        assert_eq!(s.counters.base_reads_skipped, 0);
        assert!(s.spans.get(0).is_some());
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out, p);
        s.check_tables().unwrap();
    }

    /// A small edit most of the time, a page-wide one (Case 3) now and
    /// then, driven by the generator state `x`.
    fn edit(page: &mut [u8], x: &mut u64) {
        let mut next = || {
            *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (*x >> 33) as usize
        };
        if next() % 10 == 0 {
            let fill = next() as u8;
            page.iter_mut().step_by(2).for_each(|b| *b = fill);
            return;
        }
        for _ in 0..1 + next() % 3 {
            let len = 1 + next() % 20;
            let at = next() % (page.len() - len);
            let fill = next() as u8;
            page[at..at + len].fill(fill);
        }
    }

    /// Run `op` and check what GC read during it: one read per page it
    /// moved — a relocated base or a compacted differential page — and
    /// none for a dead page. Returns what GC did: no run,
    /// runs that moved pages, or one run that moved nothing (its victim
    /// held no live page, and it read nothing).
    fn gc_step(s: &mut Pdl, op: impl FnOnce(&mut Pdl)) -> Gc {
        let (c, reads) = (s.counters, s.chip().stats().gc.reads);
        op(s);
        let moved = (s.counters.relocated_bases - c.relocated_bases)
            + (s.counters.compacted_pages - c.compacted_pages);
        assert_eq!(s.chip().stats().gc.reads - reads, moved, "GC reads exactly the pages it moves");
        s.check_tables().unwrap();
        match s.counters.gc_runs - c.gc_runs {
            0 => Gc::Idle,
            1 if moved == 0 => Gc::AllDead,
            _ => Gc::Moved,
        }
    }

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Gc {
        Idle,
        Moved,
        AllDead,
    }

    /// Mixed traffic over `model`'s pages: commit batches of one to three
    /// edited pages (a page-wide edit, Case 3, now and then) and plain
    /// evictions; then page 0 is rewritten page-wide (Case 3) 24 times, each
    /// copy killing the one before. Returns how many operations
    /// garbage-collected moving pages, and how many collected one victim
    /// that held nothing live.
    fn gc_churn(s: &mut Pdl, model: &mut [Vec<u8>], x: &mut u64, txn: &mut u64) -> (u32, u32) {
        let n = model.len() as u64;
        let next = |x: &mut u64| {
            *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *x >> 33
        };
        let (mut moving, mut all_dead) = (0, 0);
        for round in 0..400 {
            let gc = match next(x) % 16 {
                0..=6 => {
                    let mut pids: Vec<u64> = Vec::new();
                    for _ in 0..1 + next(x) % 3 {
                        let pid = next(x) % n;
                        if !pids.contains(&pid) {
                            edit(&mut model[pid as usize], x);
                            pids.push(pid);
                        }
                    }
                    *txn += 1;
                    let pages = pids.iter().map(|&p| BatchPage::new(p, &model[p as usize], *txn));
                    let batch = CommitBatch { pages: pages.collect(), roots: None };
                    gc_step(s, |s| s.commit_batch(&batch).unwrap())
                }
                _ => {
                    let pid = next(x) % n;
                    edit(&mut model[pid as usize], x);
                    gc_step(s, |s| s.write_page(pid, &model[pid as usize]).unwrap())
                }
            };
            if round % 50 == 0 {
                gc_step(s, |s| s.flush().unwrap());
            }
            moving += u32::from(gc == Gc::Moved);
            all_dead += u32::from(gc == Gc::AllDead);
        }
        for fill in 0..24 {
            model[0].fill(fill);
            let gc = gc_step(s, |s| s.write_page(0, &model[0]).unwrap());
            moving += u32::from(gc == Gc::Moved);
            all_dead += u32::from(gc == Gc::AllDead);
        }
        let mut out = vec![0u8; model[0].len()];
        for (pid, want) in model.iter().enumerate() {
            s.read_page(pid as u64, &mut out).unwrap();
            assert_eq!(&out, want, "page {pid}");
        }
        (moving, all_dead)
    }

    #[test]
    fn gc_reads_only_the_pages_it_moves() {
        // On 16 blocks space is tight: GC collects a block before it is
        // all dead. On 22 it is not.
        for blocks in [16, 22] {
            let geometry =
                pdl_flash::FlashGeometry { num_blocks: blocks, ..FlashConfig::tiny().geometry };
            let chip = FlashChip::new(FlashConfig { geometry, ..FlashConfig::tiny() });
            let opts = StoreOptions::new(32).with_checkpoint_blocks(4);
            let mut s = Pdl::new(chip, opts, 128).unwrap();
            let size = s.logical_page_size();
            let mut model: Vec<Vec<u8>> = (0..32).map(|p| vec![p as u8; size]).collect();
            for (pid, page) in model.iter().enumerate() {
                s.write_page(pid as u64, page).unwrap();
            }
            let (mut x, mut txn) = (0x6C_u64, 0);
            let mut check = |s: &mut Pdl, phase: &str| {
                let (moving, all_dead) = gc_churn(s, &mut model, &mut x, &mut txn);
                assert!(moving > 0, "{blocks} blocks, {phase}: GC must move pages");
                assert!(blocks == 16 || all_dead > 0, "{phase}: no victim held nothing live");
            };
            check(&mut s, "fresh store");
            // The bitmap rebuilt by a full-scan recovery, then by a
            // checkpoint plus a delta scan, guides GC the same way.
            s.flush().unwrap();
            let mut s = Pdl::recover(PageStore::into_chip(Box::new(s)), opts, 128).unwrap();
            s.check_tables().unwrap();
            check(&mut s, "after a full-scan recovery");
            s.checkpoint().unwrap();
            let mut s = Pdl::recover(PageStore::into_chip(Box::new(s)), opts, 128).unwrap();
            s.check_tables().unwrap();
            check(&mut s, "after a checkpoint-delta recovery");
        }
    }

    /// Random commit batches over `pages` logical pages on a chip small
    /// enough to garbage-collect, a random subset of each batch handed in
    /// with its held image, and crashes between batches (`kind % 8 == 0`),
    /// after which every page's ranges are unknown. Checked after every
    /// batch: each held page whose ranges were known skipped its base
    /// read and every other page paid exactly the paper's one, every
    /// page's ranges cover the exact `diff(base, new)`, every page reads
    /// back as the model, and the tables agree with each other.
    fn hinted_commits(
        pages: u64,
        steps: &[(u64, usize, u8)],
    ) -> std::result::Result<(), TestCaseError> {
        let geometry = pdl_flash::FlashGeometry { num_blocks: 20, ..FlashConfig::tiny().geometry };
        let config = FlashConfig { geometry, ..FlashConfig::tiny() };
        let opts = StoreOptions::new(pages);
        let mut s = Pdl::new(FlashChip::new(config), opts, 128).unwrap();
        let size = s.logical_page_size();
        let mut model: Vec<Vec<u8>> = (0..pages).map(|p| vec![p as u8; size]).collect();
        for (pid, page) in model.iter().enumerate() {
            s.write_page(pid as u64, page).unwrap();
        }
        s.flush().unwrap();
        let (mut gc_runs, mut crashes) = (0, 0);
        for (txn, &(seed, n, kind)) in (1..).zip(steps) {
            if kind % 8 == 0 {
                // Every batch committed: the crash loses nothing.
                gc_runs += s.counters.gc_runs;
                crashes += 1;
                s = Pdl::recover(PageStore::into_chip(Box::new(s)), opts, 128).unwrap();
                continue;
            }
            let mut x = seed;
            let mut pids: Vec<u64> = Vec::new();
            while pids.len() < n {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let pid = (x >> 33) % pages;
                if !pids.contains(&pid) {
                    pids.push(pid);
                }
            }
            let held: Vec<Vec<u8>> = pids.iter().map(|&p| model[p as usize].clone()).collect();
            for &pid in &pids {
                edit(&mut model[pid as usize], &mut x);
            }
            let hinted = |i: usize| (seed >> i) & 1 == 1;
            let skips = (0..pids.len()).filter(|&i| hinted(i) && s.spans.get(pids[i]).is_some());
            let skips = skips.count() as u64;
            let batch = CommitBatch {
                pages: (0..pids.len())
                    .map(|i| BatchPage {
                        held: hinted(i).then_some(&held[i][..]),
                        ..BatchPage::new(pids[i], &model[pids[i] as usize], txn)
                    })
                    .collect(),
                roots: None,
            };
            let (skipped, reads) = (s.counters.base_reads_skipped, s.chip().stats().user.reads);
            s.commit_batch(&batch).unwrap();
            prop_assert_eq!(s.counters.base_reads_skipped - skipped, skips, "txn {}", txn);
            let base_reads = s.chip().stats().user.reads - reads;
            prop_assert_eq!(base_reads, pids.len() as u64 - skips, "txn {}: base reads", txn);
            for &pid in &pids {
                // Every run of the exact differential lies inside one range.
                let base = s.peek_base(pid).unwrap();
                let exact = Differential::compute(pid, 0, &base, &model[pid as usize], 8);
                let kept: Vec<_> = s.spans.get(pid).unwrap().collect();
                let covered = exact.runs.iter().all(|r| {
                    let run = r.offset as usize..r.offset as usize + r.bytes.len();
                    kept.iter().any(|k| k.start <= run.start && run.end <= k.end)
                });
                prop_assert!(covered, "txn {}: page {} ranges {:?}", txn, pid, kept);
            }
            let mut out = vec![0u8; size];
            for (pid, want) in model.iter().enumerate() {
                s.read_page(pid as u64, &mut out).unwrap();
                prop_assert_eq!(&out, want, "txn {}: page {}", txn, pid);
            }
            s.check_tables().map_err(TestCaseError::fail)?;
        }
        prop_assert!(gc_runs + s.counters.gc_runs > 0, "the run must garbage-collect");
        prop_assert!(crashes > 0, "the run must crash");
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn hinted_commits_match_the_model_through_gc_and_crashes(
            pages in 32u64..=64,
            steps in proptest::collection::vec(
                (proptest::prelude::any::<u64>(), 1usize..=6, proptest::prelude::any::<u8>()),
                100..160,
            ),
        ) {
            hinted_commits(pages, &steps)?;
        }
    }
}
