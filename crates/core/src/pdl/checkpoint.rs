//! Checkpointed fast recovery — the paper's §4.5 future work:
//!
//! > "To recover the physical page mapping table without scanning all the
//! > physical pages in flash memory, we have to log the changes in the
//! > mapping table into flash memory. We leave this extension as a further
//! > study."
//!
//! Design: a small *root region* (the first `checkpoint_blocks` blocks of
//! the chip) is reserved and excluded from normal allocation and GC. It is
//! split into two halves used alternately, double-buffer style:
//! [`Pdl::checkpoint`] serialises what recovery cannot rebuild — the
//! physical page mapping table, each block's fill level, the transaction
//! tables (per-page tags, live commit-record locations and the
//! transaction-id floor) and the structure roots — plus a per-block
//! *fingerprint*, writes them as payload pages into the idle half, and
//! commits by writing a header page last. A crash mid-checkpoint leaves
//! the previous half's checkpoint intact. The rest is derived at load:
//! every mapped page's time stamp is the header's watermark, and each
//! page's valid differential count is the differentials mapped to it plus
//! the commit records located there.
//!
//! Recovery's read pass ([`load_checkpoint_delta`]) loads the newest
//! committed checkpoint — one header search, each payload page read once,
//! its structure roots handed on to the root-log resolution
//! ([`load_root_state`]) — and then performs a **delta scan**: for each block
//! it reads at most two spare areas (first and last-written page) and
//! compares against the fingerprint. Unchanged blocks are skipped
//! entirely; blocks that grew a tail are read from the old fill level;
//! erased/rewritten blocks are purged from the tables and read in full.
//! What it reads becomes the census the full scan would have built, and
//! the verdict and the replay run over it unchanged. For a fresh
//! checkpoint this turns recovery from one read per *page* into about one
//! read per *block* — a ~`pages_per_block`x reduction.
//!
//! The torn-transaction verdict composes with the delta: a checkpoint is
//! only ever taken outside a commit batch, so every tag it records belongs
//! to a committed transaction whose record location it also records.
//! Anything newer — including a commit torn by the crash — lives in blocks
//! the fingerprints flag as changed, so the verdict runs over the delta
//! census seeded with the loaded tables and record set.

use super::recovery::{Census, RecoveryTables};
use super::{Pdl, NONE};
use crate::codec::{Reader, Sink, Writer};
use crate::diff::NO_TXN;
use crate::error::CoreError;
use crate::ftl::make_spare;
use crate::page_store::{PageStore as _, StoreOptions, StructRootEntry, StructRootsSnapshot};
use crate::Result;
use pdl_flash::{BlockId, FlashChip, FlashGeometry, PageBuf, PageKind, Ppn};

const PAYLOAD_MAGIC: u32 = 0x504C_4B31; // "PLK1"
const HEADER_MAGIC: u32 = 0x504C_4831; // "PLH1"
/// The checkpoint layout's version. A header or payload carrying any other
/// version is no checkpoint: recovery scans in full.
const VERSION: u16 = 5;

/// Structure-root records programmed into the live half's tail (after
/// the header page) between checkpoints; see [`encode_root_record`].
const ROOT_MAGIC: u32 = 0x504C_5231; // "PLR1"
const ROOT_VERSION: u16 = 1;

/// 64-bit FNV-1a over a byte slice (block fingerprints, payload checksum).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Fingerprint of one block: identifies its erase generation by hashing
/// the spare identity of its first and last written pages plus the fill
/// level. 0 = block free.
fn block_fingerprint(chip: &mut FlashChip, block: BlockId, written: u32) -> Result<u64> {
    if written == 0 {
        return Ok(0);
    }
    let g = chip.geometry();
    let first = chip.read_spare(g.page_at(block, 0))?;
    let last = chip.read_spare(g.page_at(block, written - 1))?;
    let mut buf = [0u8; 38];
    let mut w = Writer(&mut buf[..]);
    for info in [first, last] {
        match info {
            Some(i) => {
                w.u8(1);
                w.u64(i.tag);
                w.u64(i.ts);
            }
            None => w.bytes(&[0; 17]),
        }
    }
    w.u32(written);
    Ok(fnv1a64(&buf).max(1)) // 0 is reserved for "free"
}

/// Write a structure-root snapshot (shared by the payload section and the
/// tail records).
fn write_roots<W: Sink>(w: &mut Writer<W>, roots: &StructRootsSnapshot) {
    w.u64(roots.next_pid);
    w.u32(roots.entries.len() as u32);
    for e in &roots.entries {
        w.u64(e.id);
        w.u8(e.kind);
        w.bytes(&[0; 3]);
        w.u32(e.pids.len() as u32);
        for p in &e.pids {
            w.u64(*p);
        }
    }
}

fn read_roots(r: &mut Reader) -> Result<StructRootsSnapshot> {
    let next_pid = r.u64()?;
    let entries = (0..r.u32()?)
        .map(|_| {
            let (id, kind, _pad) = (r.u64()?, r.u8()?, r.take(3)?);
            let pids = (0..r.u32()?).map(|_| r.u64()).collect::<Result<_>>()?;
            Ok(StructRootEntry { id, kind, pids })
        })
        .collect::<Result<_>>()?;
    Ok(StructRootsSnapshot { next_pid, entries })
}

/// Encode one durable structure-root record, staged into `txn`'s commit
/// batch and programmed into the live half's tail. The record is a full
/// snapshot (not a delta) guarded by a trailing FNV-1a checksum, so the
/// tail scan only needs the newest committed one and a torn trailer is
/// detected and skipped.
pub(crate) fn encode_root_record(roots: &StructRootsSnapshot, txn: u64) -> Vec<u8> {
    let mut w = Writer(Vec::new());
    w.u32(ROOT_MAGIC);
    w.u32(0); // the record's length, set once the roots are written
    w.u16(ROOT_VERSION);
    w.u16(0);
    w.u64(txn);
    write_roots(&mut w, roots);
    let total = w.0.len() + 8; // and the checksum
    w.set_u32(4, total as u32);
    let csum = fnv1a64(&w.0);
    w.u64(csum);
    w.0
}

/// Decode a root record previously written by [`encode_root_record`].
/// `bytes` must cover the whole record; returns `None` for anything torn
/// or foreign (bad magic / version / checksum).
pub(crate) fn decode_root_record(bytes: &[u8]) -> Option<(u64, StructRootsSnapshot)> {
    let (body, csum) = bytes.split_at(bytes.len().checked_sub(8)?);
    if Reader::new(csum).u64().ok()? != fnv1a64(body) {
        return None;
    }
    let mut r = Reader::new(body);
    if r.u32().ok()? != ROOT_MAGIC
        || r.u32().ok()? as usize != bytes.len()
        || r.u16().ok()? != ROOT_VERSION
    {
        return None;
    }
    r.take(2).ok()?;
    let txn = r.u64().ok()?;
    let roots = read_roots(&mut r).ok()?;
    r.end().ok()?;
    Some((txn, roots))
}

/// The structure-root log state resolved at recovery: the authoritative
/// snapshot, where the live-half tail resumes, and which transaction's
/// record is currently authoritative (so its commit record stays
/// retained until the next checkpoint compacts the log). The default is
/// a store without a root region.
#[derive(Default)]
pub(crate) struct RootLogState {
    pub seq: u64,
    pub live_half: Option<u8>,
    /// Next free ppn for tail records in the live half.
    pub tail: u32,
    /// Exclusive end of the live half (the log is full at `tail ==
    /// tail_end`).
    pub tail_end: u32,
    /// Records were written into half 0 before any checkpoint committed,
    /// so the first checkpoint must target half 1.
    pub tail_used: bool,
    pub roots: StructRootsSnapshot,
    /// The transaction whose tail record is authoritative (`None` when
    /// the roots come from the checkpoint payload baseline).
    pub live_txn: Option<u64>,
    /// Above every transaction id of a tail record, committed or torn.
    pub txn_floor: u64,
}

/// What recovery's read pass found in the root region: the newest
/// committed checkpoint's header, and the structure roots its payload
/// holds (none when the payload does not verify). The default is a region
/// without a checkpoint.
#[derive(Default)]
pub(crate) struct RootBase {
    header: Option<Header>,
    roots: StructRootsSnapshot,
}

/// Resolve the durable structure roots and tail position from the
/// checkpoint root region: the baseline `base` the read pass found,
/// overridden by the newest *committed* tail record. `is_committed`
/// decides record eligibility from the recovery tables (commit record
/// present, not torn). Read-only, so running it twice — a second recovery
/// — resolves identically.
pub(crate) fn load_root_state(
    chip: &mut FlashChip,
    opts: &StoreOptions,
    base: RootBase,
    is_committed: &dyn Fn(u64) -> bool,
) -> Result<RootLogState> {
    let g = chip.geometry();
    let half_blocks = opts.checkpoint_blocks / 2;
    let (seq, live_half, start, tail_end) = match &base.header {
        Some(h) => {
            let half = if h.base_ppn / g.pages_per_block < half_blocks { 0u8 } else { 1 };
            let end = (half as u32 + 1) * half_blocks * g.pages_per_block;
            (h.seq, Some(half), h.base_ppn + h.payload_pages + 1, end)
        }
        None => (0, None, 0, half_blocks * g.pages_per_block),
    };
    let mut roots = base.roots;

    // Scan the tail: records fill sequentially, so the newest committed
    // one wins and the first free page (or torn trailer) ends the log.
    let mut at = start;
    let mut live_txn = None;
    let mut txn_floor = 1;
    let mut img = vec![0u8; g.data_size];
    while at < tail_end {
        match chip.read_spare(Ppn(at))? {
            Some(info) if info.kind != PageKind::Free => {}
            _ => break,
        }
        let rec = read_root_record(chip, at, tail_end, &mut img)?;
        let Some((npages, txn, snap)) = rec else {
            // Torn trailer: probe past the programmed garbage so new
            // records never land on half-written pages.
            while at < tail_end {
                match chip.read_spare(Ppn(at))? {
                    Some(info) if info.kind != PageKind::Free => at += 1,
                    _ => break,
                }
            }
            break;
        };
        txn_floor = txn_floor.max(txn.saturating_add(1));
        if is_committed(txn) {
            roots = snap;
            live_txn = Some(txn);
        }
        at += npages;
    }

    Ok(RootLogState {
        seq,
        live_half,
        tail: at,
        tail_end,
        tail_used: live_half.is_none() && at > start,
        roots,
        live_txn,
        txn_floor,
    })
}

/// Read one root record starting at `at`; `Ok(None)` means the bytes
/// there are torn or foreign. Returns the record's page count so the
/// caller can advance the scan.
fn read_root_record(
    chip: &mut FlashChip,
    at: u32,
    end: u32,
    img: &mut [u8],
) -> Result<Option<(u32, u64, StructRootsSnapshot)>> {
    let data_size = img.len();
    if chip.read_data(Ppn(at), img).is_err() {
        return Ok(None); // rotten first page: torn record
    }
    let mut head = Reader::new(img);
    let (magic, total) = (head.u32()?, head.u32()? as usize);
    if magic != ROOT_MAGIC || total > (end - at) as usize * data_size {
        return Ok(None);
    }
    let npages = total.div_ceil(data_size) as u32;
    let mut bytes = Vec::with_capacity(npages as usize * data_size);
    bytes.extend_from_slice(img);
    for i in 1..npages {
        if chip.read_data(Ppn(at + i), img).is_err() {
            return Ok(None);
        }
        bytes.extend_from_slice(img);
    }
    bytes.truncate(total);
    Ok(decode_root_record(&bytes).map(|(txn, snap)| (npages, txn, snap)))
}

impl Pdl {
    /// Write a checkpoint of the mapping tables into the root region. The
    /// differential write buffer is flushed first so the tables are
    /// consistent with flash. Requires `StoreOptions::checkpoint_blocks`
    /// of at least 2 (two halves). Not callable inside a commit batch —
    /// the tables would capture uncommitted state.
    pub fn checkpoint(&mut self) -> Result<()> {
        let r = self.opts.checkpoint_blocks;
        if r < 2 {
            return Err(CoreError::BadConfig(
                "checkpointing needs a root region of at least 2 blocks".into(),
            ));
        }
        if let Some(e) = &self.batch_failed {
            return Err(e.clone()); // a failed batch is still open: see `commit_batch`
        }
        if self.in_txn_batch {
            return Err(CoreError::BadConfig(
                "checkpoint inside an open commit batch is not allowed".into(),
            ));
        }
        self.flush()?;

        let g = self.chip.geometry();
        let mut s = self.encode_tables();
        for b in 0..g.num_blocks {
            let fp = if b < r {
                u64::MAX // root region: never delta-scanned
            } else {
                block_fingerprint(&mut self.chip, BlockId(b), self.alloc.written_in(BlockId(b)))?
            };
            s.u64(fp);
        }
        // The registered structure roots ride in the payload,
        // compacting the tail records accumulated since the last
        // checkpoint into the baseline.
        write_roots(&mut s, &self.struct_roots);
        let payload = s.0;
        let watermark = self.ts.saturating_sub(1);

        // Pick the idle half and erase it. Before the first checkpoint
        // the structure-root log grows from page 0 of half 0, so the
        // first checkpoint must land in half 1 to keep those records
        // intact until the header page commits their replacement.
        let half_blocks = r / 2;
        let target_half: u8 = match self.ckpt_live_half {
            Some(0) => 1,
            Some(_) => 0,
            None => u8::from(self.root_tail_used),
        };
        let first_block = target_half as u32 * half_blocks;
        let half_pages = half_blocks * g.pages_per_block;
        let payload_pages = payload.len().div_ceil(g.data_size) as u32;
        if payload_pages + 1 > half_pages {
            return Err(CoreError::BadConfig(format!(
                "checkpoint of {payload_pages} pages does not fit a root half of {half_pages}"
            )));
        }
        for b in first_block..first_block + half_blocks {
            // Skip the erase when the block is already clean.
            if self.chip.read_spare(g.first_page(BlockId(b)))?.map(|i| i.kind)
                != Some(PageKind::Free)
            {
                self.chip.erase_block(BlockId(b))?;
            }
        }

        // Program payload pages, then commit with the header.
        let seq = self.ckpt_seq + 1;
        let base_ppn = first_block * g.pages_per_block;
        let mut img = vec![0xFFu8; g.data_size];
        for (i, chunk) in payload.chunks(g.data_size).enumerate() {
            img.fill(0xFF);
            img[..chunk.len()].copy_from_slice(chunk);
            let spare = make_spare(g.spare_size, PageKind::Checkpoint, seq, watermark, &img);
            self.chip.program_page(Ppn(base_ppn + i as u32), &img, &spare)?;
        }
        img.fill(0xFF);
        let csum = fnv1a64(&payload) as u32;
        let payload_len = payload.len() as u64;
        Header { seq, watermark, base_ppn, payload_pages, payload_len, csum }
            .write(&mut Writer(&mut img[..]));
        let header_ppn = Ppn(base_ppn + payload_pages);
        let spare = make_spare(g.spare_size, PageKind::CheckpointHead, seq, watermark, &img);
        self.chip.program_page(header_ppn, &img, &spare)?;

        self.ckpt_seq = seq;
        self.ckpt_live_half = Some(target_half);
        // The structure-root log restarts after the new header; the tail
        // record retaining the previous root-publishing transaction is
        // superseded by the payload baseline, so its commit-record pin
        // can drop. (Decremented only now that the header is durable: a
        // crash anywhere above leaves the old half — and that pin —
        // authoritative.)
        self.root_tail = base_ppn + payload_pages + 1;
        self.root_tail_end = (target_half as u32 + 1) * half_blocks * g.pages_per_block;
        self.root_tail_used = false;
        if let Some(t) = self.live_root_txn.take() {
            self.presence_dec(t, None)?;
        }
        self.counters.checkpoints += 1;
        Ok(())
    }

    /// The payload's tables section: dims, the mapping table, per-block
    /// fill levels, transaction tables and the txn-id floor. Reads
    /// nothing.
    fn encode_tables(&self) -> Writer<Vec<u8>> {
        let g = self.chip.geometry();
        let nl = self.opts.num_logical_pages as usize;
        let k = self.opts.frames_per_page as usize;
        let mut w = Writer(Vec::with_capacity(64 * 1024));
        w.u32(PAYLOAD_MAGIC);
        w.u16(VERSION);
        w.u16(k as u16);
        w.u64(nl as u64);
        w.u32(g.num_blocks);
        w.u32(g.num_pages());
        for e in &self.ppmt {
            for j in 0..k {
                w.u32(e.base[j]);
            }
            w.u32(e.diff);
        }
        for b in 0..g.num_blocks {
            w.u32(self.alloc.written_in(BlockId(b)));
        }
        // Transaction tables: per-page tags and live commit-record
        // locations. Presence is recomputed at load time, and so is which
        // tags another shard proves, so neither is persisted.
        for t in self.diff_txn.iter().chain(&self.base_txn) {
            w.u64(*t);
        }
        let mut loc_entries: Vec<(&u64, &u32)> =
            self.commit_locs.iter().filter(|(_, p)| **p != super::PROOF_REMOTE).collect();
        w.u32(loc_entries.len() as u32);
        loc_entries.sort_by_key(|(t, _)| **t);
        for (t, p) in loc_entries {
            w.u64(*t);
            w.u32(*p);
        }
        w.u64(self.txn_id_floor());
        w
    }

    /// A digest of the tables a checkpoint records: two recoveries of one
    /// crash image must agree on it. It leaves out what a checkpoint
    /// derives, `vdct` included: [`Pdl::check_tables`] ties that to the
    /// mapping and commit locations digested here.
    #[doc(hidden)]
    pub fn tables_digest(&self) -> u64 {
        fnv1a64(&self.encode_tables().0)
    }
}

/// The record at the start of a header page, which commits a checkpoint.
#[cfg_attr(test, derive(Debug, PartialEq))]
struct Header {
    seq: u64,
    watermark: u64,
    base_ppn: u32,
    payload_pages: u32,
    payload_len: u64,
    csum: u32,
}

impl Header {
    fn write<W: Sink>(&self, w: &mut Writer<W>) {
        w.u32(HEADER_MAGIC);
        w.u16(VERSION);
        w.u16(0);
        w.u64(self.seq);
        w.u64(self.watermark);
        w.u32(self.base_ppn);
        w.u32(self.payload_pages);
        w.u64(self.payload_len);
        w.u32(self.csum);
    }

    /// The header a page's data area starts with; `None` for another
    /// magic or version.
    fn read(data: &[u8]) -> Result<Option<Header>> {
        let mut r = Reader::new(data);
        if r.u32()? != HEADER_MAGIC || r.u16()? != VERSION {
            return Ok(None);
        }
        r.take(2)?;
        Ok(Some(Header {
            seq: r.u64()?,
            watermark: r.u64()?,
            base_ppn: r.u32()?,
            payload_pages: r.u32()?,
            payload_len: r.u64()?,
            csum: r.u32()?,
        }))
    }
}

/// The payload of the checkpoint `header` commits, or `None` when it does
/// not read back whole and verified.
fn read_payload(chip: &mut FlashChip, header: &Header) -> Option<Vec<u8>> {
    let mut payload = Vec::with_capacity(header.payload_len as usize);
    let mut img = vec![0u8; chip.geometry().data_size];
    for i in 0..header.payload_pages {
        chip.read_data(Ppn(header.base_ppn + i), &mut img).ok()?;
        payload.extend_from_slice(&img);
    }
    payload.truncate(header.payload_len as usize);
    let whole = payload.len() == header.payload_len as usize;
    (whole && fnv1a64(&payload) as u32 == header.csum).then_some(payload)
}

/// Find the newest committed checkpoint header in the root region.
fn find_latest_header(chip: &mut FlashChip, opts: &StoreOptions) -> Result<Option<Header>> {
    let g = chip.geometry();
    let r = opts.checkpoint_blocks;
    let mut best: Option<(u64, Ppn)> = None;
    for b in 0..r {
        for i in 0..g.pages_per_block {
            let ppn = g.page_at(BlockId(b), i);
            match chip.read_spare(ppn)? {
                Some(info)
                    if info.kind == PageKind::CheckpointHead
                        && !info.obsolete
                        && best.map(|(s, _)| info.tag > s).unwrap_or(true) =>
                {
                    best = Some((info.tag, ppn));
                }
                Some(info) if info.kind == PageKind::Free => break, // halves fill sequentially
                _ => {}
            }
        }
    }
    let Some((_, ppn)) = best else { return Ok(None) };
    let mut img = vec![0u8; g.data_size];
    chip.read_data(ppn, &mut img)?;
    Header::read(&img)
}

/// The payload's one decoder: the tables it records, seeded into fresh
/// recovery tables with the time stamps they imply — every mapped frame
/// and differential at the header's `watermark`, which every page
/// programmed after the checkpoint exceeds — then the block fingerprints
/// and the structure roots. `None` when its dimensions are not `opts`'.
fn decode_payload(
    payload: &[u8],
    opts: &StoreOptions,
    g: FlashGeometry,
    watermark: u64,
) -> Result<Option<(RecoveryTables, Vec<u64>, StructRootsSnapshot)>> {
    let nl = opts.num_logical_pages as usize;
    let k = opts.frames_per_page as usize;
    let mut r = Reader::new(payload);
    if r.u32()? != PAYLOAD_MAGIC
        || r.u16()? != VERSION
        || r.u16()? as usize != k
        || r.u64()? as usize != nl
        || r.u32()? != g.num_blocks
        || r.u32()? != g.num_pages()
    {
        return Ok(None);
    }
    let mut tables = RecoveryTables::empty(opts, g);
    for pid in 0..nl {
        let e = &mut tables.ppmt[pid];
        for j in 0..k {
            e.base[j] = r.u32()?;
            if e.base[j] != NONE {
                tables.frame_ts[pid * k + j] = watermark;
            }
        }
        e.diff = r.u32()?;
        if e.diff != NONE {
            tables.diff_ts[pid] = watermark;
        }
    }
    for w in tables.written.iter_mut() {
        *w = r.u32()?;
    }
    for t in tables.diff_txn.iter_mut().chain(tables.base_txn.iter_mut()) {
        *t = r.u64()?;
    }
    for _ in 0..r.u32()? {
        let t = r.u64()?;
        tables.commit_locs.insert(t, r.u32()?);
    }
    tables.txn_floor = r.u64()?;
    tables.max_ts = watermark;
    let fingerprints = (0..g.num_blocks).map(|_| r.u64()).collect::<Result<Vec<u64>>>()?;
    Ok(Some((tables, fingerprints, read_roots(&mut r)?)))
}

/// The read pass of fast recovery: load and verify the newest committed
/// checkpoint, classify every block against its fingerprint, purge table
/// entries living in erased/rewritten blocks, derive `vdct` from what is
/// left, and read the changed pages into a census seeded with the loaded
/// tables. The census is `None` when no usable checkpoint exists; the
/// root base is the header found either way, with the payload's structure
/// roots when it verified.
pub(super) fn load_checkpoint_delta(
    chip: &mut FlashChip,
    opts: &StoreOptions,
) -> Result<(RootBase, Option<Census>)> {
    let g = chip.geometry();
    let Some(header) = find_latest_header(chip, opts)? else { return Ok(Default::default()) };
    // A torn or stale checkpoint, or one of other dimensions: fall back.
    let loaded = match read_payload(chip, &header) {
        Some(payload) => decode_payload(&payload, opts, g, header.watermark)?,
        None => None,
    };
    let Some((mut tables, fingerprints, roots)) = loaded else {
        return Ok((RootBase { header: Some(header), ..Default::default() }, None));
    };
    let base = RootBase { header: Some(header), roots };

    // Delta scan: classify each block.
    let r = opts.checkpoint_blocks;
    let mut invalidated: Vec<u32> = Vec::new();
    let mut tail_scan: Vec<(u32, u32)> = Vec::new(); // (block, from-index)
    for b in r..g.num_blocks {
        let ckpt_written = tables.written[b as usize];
        let fp_now = block_fingerprint(chip, BlockId(b), ckpt_written)?;
        if fp_now != fingerprints[b as usize] {
            invalidated.push(b);
        } else if ckpt_written < g.pages_per_block {
            // Same generation: only a grown tail can differ.
            tail_scan.push((b, ckpt_written));
        }
    }

    // Purge table entries referencing invalidated blocks: their pages were
    // relocated (same ts) before the erase, so replay of the changed
    // blocks must be allowed to re-register them.
    let nl = opts.num_logical_pages as usize;
    let k = opts.frames_per_page as usize;
    let in_invalid = |p: u32| invalidated.binary_search(&(p / g.pages_per_block)).is_ok();
    for pid in 0..nl {
        for j in 0..k {
            let b = tables.ppmt[pid].base[j];
            if b != NONE && in_invalid(b) {
                tables.ppmt[pid].base[j] = NONE;
                tables.frame_ts[pid * k + j] = 0;
                tables.base_txn[pid * k + j] = NO_TXN;
            }
        }
        let dp = tables.ppmt[pid].diff;
        if dp != NONE && in_invalid(dp) {
            tables.ppmt[pid].diff = NONE;
            tables.diff_ts[pid] = 0;
            tables.diff_txn[pid] = NO_TXN;
            // GC compacted the differential out of that block before the
            // erase, and the copy kept its creation time stamp — at or
            // below the watermark the loaded base carries. The base is
            // older than the differential it had at the checkpoint, so it
            // must not outrank the copy: rank it below everything.
            tables.frame_ts[pid * k..(pid + 1) * k].fill(0);
        }
    }
    tables.commit_locs.retain(|_, p| !in_invalid(*p));
    for b in &invalidated {
        tables.written[*b as usize] = 0;
    }
    // A checkpoint runs outside any batch, so every count it saw was its
    // page's mapped differentials plus the commit records located there.
    let locs = tables.commit_locs.values().copied();
    tables.vdct = super::derive_vdct(tables.vdct.len(), &tables.ppmt, locs);

    // Invalidated blocks are read in full, grown tails from the old fill
    // level.
    let mut census = Census::new(tables);
    let mut buf = PageBuf::for_chip(chip);
    for b in invalidated {
        census.read_block(chip, b, 0, &mut buf)?;
    }
    for (b, from) in tail_scan {
        census.read_block(chip, b, from, &mut buf)?;
    }
    Ok((base, Some(census)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::round_trips;
    use crate::page_store::{BatchPage, CommitBatch};
    use pdl_flash::FlashConfig;
    use proptest::prelude::*;

    const PAGES: u64 = 200;
    const MAX_DIFF: usize = 256;

    /// A store with a 2-block root region after `commits` one-page
    /// durable commits: differentials and Case-3 bases, tagged and
    /// shed, proofs carried forward and compacted by GC.
    fn committed_store(commits: u64) -> Pdl {
        let opts = StoreOptions::new(PAGES).with_checkpoint_blocks(2);
        let mut s = Pdl::new(FlashChip::new(FlashConfig::scaled(12)), opts, MAX_DIFF).unwrap();
        let size = s.logical_page_size();
        let mut pages: Vec<Vec<u8>> = (0..PAGES).map(|p| vec![p as u8; size]).collect();
        for (pid, page) in pages.iter().enumerate() {
            s.write_page(pid as u64, page).unwrap();
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for txn in 1..=commits {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = &mut pages[(x % PAGES) as usize];
            if x.is_multiple_of(5) {
                page.fill(x as u8); // Case 3: a tagged base page
            } else {
                let at = (x >> 8) as usize % (size - 16);
                page[at..at + 16].fill(x as u8);
            }
            let pages = vec![BatchPage::new(x % PAGES, page, txn)];
            s.commit_batch(&CommitBatch { pages, roots: None }).unwrap();
        }
        s
    }

    /// A checkpoint stores no `vdct` and no time stamps; what recovery
    /// derives from the rest must be exactly what the live store held.
    #[test]
    fn recovery_right_after_a_checkpoint_rebuilds_the_live_tables() {
        let mut s = committed_store(600);
        s.checkpoint().unwrap();
        s.check_tables().unwrap();
        assert!(s.commit_locs.len() > 1, "live proofs");
        assert!(s.diff_txn.iter().any(|t| *t != NO_TXN), "tagged differentials");
        assert!(s.base_txn.iter().any(|t| *t != NO_TXN), "tagged base frames");
        assert!(s.counters.gc_runs > 0 && s.counters.proofs_carried > 0);
        let live = (s.ppmt.clone(), s.vdct.clone(), s.diff_txn.clone(), s.base_txn.clone());
        let locs = s.commit_locs.clone();
        let opts = *s.options();
        let r = Pdl::recover(Box::new(s).into_chip(), opts, MAX_DIFF).unwrap();
        assert!(r.ppmt == live.0, "ppmt");
        assert!(r.vdct == live.1, "vdct, page by page");
        assert!(r.diff_txn == live.2 && r.base_txn == live.3, "tags");
        assert_eq!(r.commit_locs, locs);
        r.check_tables().unwrap();
    }

    /// The read pass finds the checkpoint and reads its payload; the root
    /// log's resolution starts from what that pass found instead of
    /// searching and reading again.
    #[test]
    fn recovery_from_a_fresh_checkpoint_searches_once_and_reads_each_payload_page_once() {
        let mut s = committed_store(100);
        s.checkpoint().unwrap();
        assert_eq!(s.ckpt_live_half, Some(0));
        let g = s.chip().geometry();
        let (header, ppb) = (s.root_tail as usize - 1, g.pages_per_block as usize);
        assert!(header > 1, "a payload of several pages");
        let opts = *s.options();
        let mut chip = Box::new(s).into_chip();
        chip.set_obs_enabled(true);
        let r = Pdl::recover(chip, opts, MAX_DIFF).unwrap();
        let mut reads = vec![0u32; 2 * ppb];
        for span in r.chip().recorder().snapshot().spans {
            if span.name == "read" && (span.id as usize) < reads.len() {
                reads[span.id as usize] += 1;
            }
        }
        let mut want = vec![0u32; 2 * ppb];
        // The header search reads the spare of every page of the live
        // half up to its first free one, and of the idle half's first.
        for w in &mut want[..header + 2] {
            *w += 1;
        }
        want[ppb] += 1;
        // Then the data of each payload page and of the header, once.
        for w in &mut want[..=header] {
            *w += 1;
        }
        // The root-log scan meets the free page after the header.
        want[header + 1] += 1;
        assert_eq!(reads, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn headers_round_trip(
            at in (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()),
            payload in (any::<u64>(), any::<u32>()),
        ) {
            let (seq, watermark, base_ppn, payload_pages) = at;
            let (payload_len, csum) = payload;
            let h = Header { seq, watermark, base_ppn, payload_pages, payload_len, csum };
            let mut w = Writer(Vec::new());
            h.write(&mut w);
            round_trips(&w.0, &h, Header::read)?;
        }
    }
}
