//! The page-differential codec.
//!
//! A *differential* is "the difference between the original page in the
//! flash memory and the up-to-date page in memory" (§1) with the on-flash
//! structure `<physical page ID, creation time stamp, [offset, length,
//! changed data]+>` (§4.2).
//!
//! A differential page's data area holds a sequence of encoded records;
//! unwritten space stays erased (0xFF), so records are length-prefixed
//! with a value that can never be `0xFFFF`. Every differential carries the
//! id of the transaction that produced it, and recovery discards it unless
//! an *epoch record* proves that transaction. An epoch record's inclusive
//! txn-id ranges are built only from ids whose commit is being proven, so
//! a torn transaction whose id falls between two committed ids is never
//! proven committed.
//!
//! ```text
//! record := body_len : u16 LE    (length of everything after this field)
//!           kind     : u8        (0x01 differential, 0x03 epoch record)
//! diff   := pid      : u64 LE    (logical page the differential belongs to)
//!           ts       : u64 LE    (creation time stamp)
//!           txn      : u64 LE    (owning transaction; NO_TXN = none)
//!           run_count: u16 LE
//!           runs     : run*
//! run    := offset : u16 LE, len : u16 LE, bytes[len]
//! epoch  := ts : u64 LE, n_ranges : u16 LE, (lo u64, hi u64)*  (inclusive)
//! ```
//!
//! The crate's `codec` module reads and writes every field. Unlike an
//! update log, which records one update command, a differential always
//! describes the *net* difference against the base page: the paper's
//! example `..aaaaaa.. -> ..bbbbba.. -> ..bcccba..` produces the single
//! differential `bcccb`, not the two logs `bbbbb` and `ccc`.

use crate::codec::{Reader, Sink, Writer};
use crate::error::CoreError;
use crate::Result;

/// Re-export of the "no transaction" sentinel (the erased spare value).
pub use pdl_flash::NO_TXN;

const KIND_DIFF: u8 = 0x01;
const KIND_EPOCH: u8 = 0x03;

/// A contiguous changed byte range: a run of a differential, and IPL's
/// update log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffRun {
    pub offset: u32,
    pub bytes: Vec<u8>,
}

/// Per-run overhead: offset and length fields.
pub(crate) const RUN_HEADER: usize = 2 + 2;

impl DiffRun {
    /// Encoded size of this run: offset + length fields + payload.
    pub(crate) fn encoded_len(&self) -> usize {
        RUN_HEADER + self.bytes.len()
    }
}

/// Write a run list: its count, then each run.
pub(crate) fn write_runs<W: Sink>(w: &mut Writer<W>, runs: &[DiffRun]) {
    w.u16(runs.len() as u16);
    for run in runs {
        w.u16(run.offset as u16);
        w.u16(run.bytes.len() as u16);
        w.bytes(&run.bytes);
    }
}

/// Read a run list [`write_runs`] wrote.
#[inline]
pub(crate) fn read_runs(r: &mut Reader) -> Result<Vec<DiffRun>> {
    (0..r.u16()?)
        .map(|_| {
            let offset = u32::from(r.u16()?);
            let len = usize::from(r.u16()?);
            Ok(DiffRun { offset, bytes: r.take(len)?.to_vec() })
        })
        .collect()
}

/// Copy each run's bytes into `page` at its offset, in order: a later run
/// overwrites an earlier one where they overlap.
pub(crate) fn apply_runs<'a>(runs: impl IntoIterator<Item = &'a DiffRun>, page: &mut [u8]) {
    for run in runs {
        let start = run.offset as usize;
        page[start..start + run.bytes.len()].copy_from_slice(&run.bytes);
    }
}

/// A writer over the first `len` bytes of `out` with a record's length
/// prefix and `kind` byte written, or `BadPageSize` when `out` is shorter.
fn framed(out: &mut [u8], len: usize, kind: u8) -> Result<Writer<&mut [u8]>> {
    if out.len() < len {
        return Err(CoreError::BadPageSize { expected: len, got: out.len() });
    }
    debug_assert!(len - 2 < 0xFFFF, "record body too large");
    let mut w = Writer(&mut out[..len]);
    w.u16((len - 2) as u16);
    w.u8(kind);
    Ok(w)
}

/// A differential of one logical page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Differential {
    pub pid: u64,
    pub ts: u64,
    /// Transaction that produced this differential; [`NO_TXN`] for
    /// auto-committed (non-transactional) reflections. A tagged
    /// differential is only valid after recovery when its transaction's
    /// commit record is durable.
    pub txn: u64,
    pub runs: Vec<DiffRun>,
}

/// An epoch record, the one proof record: proves the durable commit of
/// every transaction id inside its inclusive ranges — the tagged
/// differentials and base pages of those transactions are valid. Ranges
/// are built from explicitly enumerated committed ids, so membership is an
/// exact commit proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochRecord {
    pub ts: u64,
    /// Inclusive `(lo, hi)` txn-id ranges, ascending and non-overlapping.
    pub ranges: Vec<(u64, u64)>,
}

/// Fixed epoch-record overhead: length prefix, kind, ts, range count.
pub(crate) const EPOCH_HEADER: usize = 2 + 1 + 8 + 2;

impl EpochRecord {
    /// Build an epoch record from a set of committed transaction ids,
    /// coalescing adjacent ids into ranges. Duplicates are tolerated.
    pub(crate) fn from_ids(ts: u64, ids: &[u64]) -> EpochRecord {
        let mut sorted: Vec<u64> = ids.to_vec();
        sorted.sort_unstable();
        EpochRecord::from_sorted_ids(ts, &sorted)
    }

    /// [`EpochRecord::from_ids`] for ids already in ascending order.
    pub(crate) fn from_sorted_ids(ts: u64, sorted: &[u64]) -> EpochRecord {
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "ids must be sorted");
        let mut ranges: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
        for &id in sorted {
            match ranges.last_mut() {
                Some((_, hi)) if *hi == id || *hi + 1 == id => *hi = id,
                _ => ranges.push((id, id)),
            }
        }
        EpochRecord { ts, ranges }
    }

    /// True when `txn` is proven committed by this record.
    #[cfg(test)]
    pub(crate) fn contains(&self, txn: u64) -> bool {
        self.ranges
            .binary_search_by(|&(lo, hi)| {
                if txn < lo {
                    std::cmp::Ordering::Greater
                } else if txn > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Every member transaction id, expanded from the ranges.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.ranges.iter().flat_map(|&(lo, hi)| lo..=hi)
    }

    /// Number of member transaction ids.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.ranges.iter().map(|&(lo, hi)| (hi - lo + 1) as usize).sum()
    }

    /// Total encoded size of the record, including the length prefix.
    pub(crate) fn encoded_len(&self) -> usize {
        EPOCH_HEADER + 16 * self.ranges.len()
    }

    /// Encode into `out` (must hold at least `encoded_len()` bytes).
    pub(crate) fn encode(&self, out: &mut [u8]) -> Result<usize> {
        let need = self.encoded_len();
        let mut w = framed(out, need, KIND_EPOCH)?;
        w.u64(self.ts);
        w.u16(self.ranges.len() as u16);
        for &(lo, hi) in &self.ranges {
            w.u64(lo);
            w.u64(hi);
        }
        debug_assert!(w.0.is_empty(), "encoded_len matches the writer");
        Ok(need)
    }
}

/// One record of a differential page's data area.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PageRecord {
    Diff(Differential),
    Epoch(EpochRecord),
}

/// Fixed per-differential overhead: length prefix, kind, pid, ts, txn,
/// run count.
pub(crate) const RECORD_HEADER: usize = 2 + 1 + 8 + 8 + 8 + 2;

impl Differential {
    /// Total encoded size of the record, including the length prefix.
    pub fn encoded_len(&self) -> usize {
        RECORD_HEADER + self.runs.iter().map(DiffRun::encoded_len).sum::<usize>()
    }

    /// Total changed payload bytes (excluding metadata).
    pub fn payload_len(&self) -> usize {
        self.runs.iter().map(|r| r.bytes.len()).sum()
    }

    /// True when the differential records no change.
    pub(crate) fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Tag the differential with its owning transaction.
    pub(crate) fn with_txn(mut self, txn: u64) -> Differential {
        self.txn = txn;
        self
    }

    /// Compute the differential between `base` and `new` (equal lengths).
    ///
    /// Runs separated by at most `coalesce_gap` unchanged bytes are merged
    /// (including the gap bytes): each run costs 4 bytes of metadata, so
    /// small gaps are cheaper to carry than to split on.
    pub fn compute(
        pid: u64,
        ts: u64,
        base: &[u8],
        new: &[u8],
        coalesce_gap: usize,
    ) -> Differential {
        Differential::compute_within(pid, ts, base, new, coalesce_gap, usize::MAX)
            .expect("no differential exceeds an unbounded limit")
    }

    /// [`Differential::compute`], abandoned as soon as the encoded size
    /// passes `limit`: `None` exactly when `compute(..).encoded_len()`
    /// would exceed `limit`. The writer discards such a differential
    /// (Case 3 of `PDL_Writing`), so the rest of the page is not scanned,
    /// and nothing is allocated: run bytes are copied only once the whole
    /// differential is known to fit.
    pub(crate) fn compute_within(
        pid: u64,
        ts: u64,
        base: &[u8],
        new: &[u8],
        coalesce_gap: usize,
        limit: usize,
    ) -> Option<Differential> {
        debug_assert_eq!(base.len(), new.len());
        let mut size = RECORD_HEADER;
        if size > limit {
            return None;
        }
        // The first `KEPT` run boundaries are kept on the stack; a
        // differential with more runs scans past the last kept one again.
        const KEPT: usize = 32;
        let mut kept = [(0usize, 0usize); KEPT];
        let mut count = 0;
        for (start, end) in RunScan::new(base, new, coalesce_gap, 0) {
            size += RUN_HEADER + (end - start);
            if size > limit {
                return None;
            }
            if count < KEPT {
                kept[count] = (start, end);
            }
            count += 1;
        }
        let run = |(start, end): (usize, usize)| DiffRun {
            offset: start as u32,
            bytes: new[start..end].to_vec(),
        };
        let mut runs = Vec::with_capacity(count);
        runs.extend(kept[..count.min(KEPT)].iter().copied().map(run));
        if count > KEPT {
            runs.extend(RunScan::new(base, new, coalesce_gap, kept[KEPT - 1].1).map(run));
        }
        Some(Differential { pid, ts, txn: NO_TXN, runs })
    }

    /// Apply this differential to `page` (the base image), producing the
    /// up-to-date logical page in place.
    pub fn apply(&self, page: &mut [u8]) {
        apply_runs(&self.runs, page);
    }

    /// Encode into `out`, which must have at least `encoded_len()` bytes.
    /// Returns the number of bytes written.
    pub fn encode(&self, out: &mut [u8]) -> Result<usize> {
        let need = self.encoded_len();
        let mut w = framed(out, need, KIND_DIFF)?;
        w.u64(self.pid);
        w.u64(self.ts);
        w.u64(self.txn);
        write_runs(&mut w, &self.runs);
        debug_assert!(w.0.is_empty(), "encoded_len matches the writer");
        Ok(need)
    }

    /// Find the differential for `pid` in a differential page's data area
    /// without materialising the other records (hot read path): records
    /// whose kind or pid does not match are skipped by their length
    /// prefix.
    pub(crate) fn find_in_page(data: &[u8], pid: u64) -> Result<Option<Differential>> {
        for frame in Frames(Reader::new(data)) {
            let (kind, body) = frame?;
            if kind == KIND_DIFF && body.get(..8) == Some(&pid.to_le_bytes()[..]) {
                return decode_diff(body).map(Some);
            }
        }
        Ok(None)
    }

    /// Parse every record in a differential page's data area.
    pub fn parse_page(data: &[u8]) -> Result<Vec<PageRecord>> {
        Frames(Reader::new(data))
            .map(|frame| frame.and_then(|(k, body)| decode_record(k, body)))
            .collect()
    }
}

/// The framing walk over a differential page's data area, shared by every
/// reader: each item is one record's kind byte and its body (what follows
/// the kind byte). The walk ends at erased space — a `0xFFFF` length, or
/// fewer than three bytes left — and after yielding one error for a
/// length that does not fit the area.
struct Frames<'a>(Reader<'a>);

impl<'a> Iterator for Frames<'a> {
    type Item = Result<(u8, &'a [u8])>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.0.remaining() < 3 {
            return None;
        }
        let body_len = self.0.u16().expect("three bytes left");
        if body_len == 0xFFFF {
            self.0 = Reader::new(&[]);
            return None; // erased space: no more records
        }
        match self.0.take(usize::from(body_len)) {
            Ok([kind, body @ ..]) => Some(Ok((*kind, body))),
            _ => {
                self.0 = Reader::new(&[]);
                Some(Err(CoreError::Corruption(format!(
                    "differential record body of {body_len} bytes does not fit"
                ))))
            }
        }
    }
}

/// Decode one framed record (`body` follows the kind byte).
fn decode_record(kind: u8, body: &[u8]) -> Result<PageRecord> {
    match kind {
        KIND_DIFF => decode_diff(body).map(PageRecord::Diff),
        KIND_EPOCH => decode_epoch(body).map(PageRecord::Epoch),
        other => Err(CoreError::Corruption(format!("unknown differential record kind {other:#x}"))),
    }
}

fn decode_diff(body: &[u8]) -> Result<Differential> {
    let mut r = Reader::new(body);
    let (pid, ts, txn) = (r.u64()?, r.u64()?, r.u64()?);
    let runs = read_runs(&mut r)?;
    r.end()?;
    Ok(Differential { pid, ts, txn, runs })
}

fn decode_epoch(body: &[u8]) -> Result<EpochRecord> {
    let mut r = Reader::new(body);
    let ts = r.u64()?;
    let ranges = (0..r.u16()?)
        .map(|_| match (r.u64()?, r.u64()?) {
            (lo, hi) if lo > hi => {
                Err(CoreError::Corruption(format!("epoch record range {lo}..{hi} is inverted")))
            }
            range => Ok(range),
        })
        .collect::<Result<_>>()?;
    r.end()?;
    Ok(EpochRecord { ts, ranges })
}

/// The changed runs `[start, end)` of `new` against `base` (equal
/// lengths) at or after byte `from`, in order: changed bytes, with gaps of
/// up to `coalesce_gap` unchanged bytes bridged.
struct RunScan<'a> {
    base: &'a [u8],
    new: &'a [u8],
    coalesce_gap: usize,
    at: usize,
}

impl<'a> RunScan<'a> {
    fn new(base: &'a [u8], new: &'a [u8], coalesce_gap: usize, from: usize) -> RunScan<'a> {
        RunScan { base, new, coalesce_gap, at: from }
    }
}

impl Iterator for RunScan<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let (base, new) = (self.base, self.new);
        let n = base.len();
        let start = next_difference(base, new, self.at);
        if start >= n {
            self.at = n;
            return None;
        }
        // Extend while changed, bridging gaps of up to `coalesce_gap`
        // unchanged bytes.
        let mut end;
        let mut probe = start + 1;
        loop {
            // Extend over changed bytes.
            probe = next_equal(base, new, probe);
            end = probe;
            // Try to bridge a gap.
            let gap_start = probe;
            while probe < n && probe - gap_start < self.coalesce_gap && base[probe] == new[probe] {
                probe += 1;
            }
            if probe < n && base[probe] != new[probe] && probe > gap_start {
                // Changed data resumes within the gap budget: keep going.
                continue;
            }
            break;
        }
        self.at = end;
        Some((start, end))
    }
}

/// Index of the first byte at or after `from` where `base` and `new`
/// (equal lengths) differ, or that length when the rest is equal. Most of
/// a page is unchanged (2 % changes in the paper's default workload), so
/// the scan steps over equal bytes 32 and then 8 at a time — slice
/// equality, which the compiler turns into wide compares; a loop of `u64`
/// XORs measured slower on an unchanged page — and the XOR of the first
/// unequal word locates the byte.
fn next_difference(base: &[u8], new: &[u8], from: usize) -> usize {
    let n = base.len().min(new.len());
    let mut at = from;
    while at + 32 <= n && base[at..at + 32] == new[at..at + 32] {
        at += 32;
    }
    while at + 8 <= n && base[at..at + 8] == new[at..at + 8] {
        at += 8;
    }
    if at + 8 <= n {
        let word = |b: &[u8]| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
        return at + ((word(base) ^ word(new)).trailing_zeros() / 8) as usize;
    }
    while at < n && base[at] == new[at] {
        at += 1;
    }
    at
}

/// Index of the first byte at or after `from` where `base` and `new`
/// are equal, or their length when every remaining byte differs. A byte
/// loop, but kept out of `compute`'s body: written in place, the
/// compiler put the changed-byte path off the fall-through and a
/// 90 %-changed page cost 1.7× more (`compute_90pct` in the micro bench).
fn next_equal(base: &[u8], new: &[u8], from: usize) -> usize {
    let n = base.len().min(new.len());
    let mut at = from;
    while at < n && base[at] != new[at] {
        at += 1;
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diff_of(base: &[u8], new: &[u8], gap: usize) -> Differential {
        Differential::compute(7, 42, base, new, gap)
    }

    #[test]
    fn identical_pages_have_empty_diff() {
        let page = vec![3u8; 64];
        let d = diff_of(&page, &page, 8);
        assert!(d.is_empty());
        assert_eq!(d.encoded_len(), RECORD_HEADER);
        assert_eq!(d.txn, NO_TXN);
    }

    #[test]
    fn single_change_single_run() {
        let base = vec![0u8; 64];
        let mut new = base.clone();
        new[10..20].fill(9);
        let d = diff_of(&base, &new, 0);
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].offset, 10);
        assert_eq!(d.runs[0].bytes, vec![9u8; 10]);
        assert_eq!(d.payload_len(), 10);
    }

    #[test]
    fn paper_example_net_difference() {
        // ..aaaaaa.. -> ..bbbbba.. -> ..bcccba..: the differential contains
        // only the net change `bcccb` against the original.
        let base = b"xxaaaaaaxx".to_vec();
        let v2 = b"xxbcccbaxx".to_vec();
        let d = diff_of(&base, &v2, 0);
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].offset, 2);
        assert_eq!(d.runs[0].bytes, b"bcccb".to_vec());
    }

    #[test]
    fn gap_coalescing_merges_close_runs() {
        let base = vec![0u8; 32];
        let mut new = base.clone();
        new[4] = 1;
        new[7] = 1; // gap of 2 unchanged bytes
        let split = diff_of(&base, &new, 0);
        assert_eq!(split.runs.len(), 2);
        let merged = diff_of(&base, &new, 2);
        assert_eq!(merged.runs.len(), 1);
        assert_eq!(merged.runs[0].offset, 4);
        assert_eq!(merged.runs[0].bytes.len(), 4);
        // Merged costs less metadata overall.
        assert!(merged.encoded_len() <= split.encoded_len());
    }

    #[test]
    fn apply_reconstructs_new_page() {
        let base: Vec<u8> = (0..=255u8).collect();
        let mut new = base.clone();
        new[3..9].fill(0xAA);
        new[100] = 0;
        new[200..240].fill(0x55);
        for gap in [0, 2, 8, 64] {
            let d = diff_of(&base, &new, gap);
            let mut rebuilt = base.clone();
            d.apply(&mut rebuilt);
            assert_eq!(rebuilt, new, "gap={gap}");
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let base = vec![1u8; 128];
        let mut new = base.clone();
        new[0] = 2;
        new[60..70].fill(3);
        new[127] = 4;
        let d = diff_of(&base, &new, 4).with_txn(17);
        let mut buf = vec![0xFFu8; 256];
        let n = d.encode(&mut buf).unwrap();
        assert_eq!(n, d.encoded_len());
        assert_eq!(Differential::parse_page(&buf[..n]).unwrap(), vec![PageRecord::Diff(d)]);
    }

    #[test]
    fn epoch_record_round_trips() {
        let e = EpochRecord::from_ids(77, &[5, 3, 4, 9, 3, 12, 13]);
        assert_eq!(e.ranges, vec![(3, 5), (9, 9), (12, 13)]);
        assert_eq!(e.len(), 6);
        for id in [3, 4, 5, 9, 12, 13] {
            assert!(e.contains(id), "id {id}");
        }
        for id in [0, 2, 6, 8, 10, 11, 14, u64::MAX] {
            assert!(!e.contains(id), "id {id}");
        }
        assert_eq!(e.ids().collect::<Vec<_>>(), vec![3, 4, 5, 9, 12, 13]);
        let mut buf = vec![0xFFu8; 128];
        let n = e.encode(&mut buf).unwrap();
        assert_eq!(n, e.encoded_len());
        assert_eq!(Differential::parse_page(&buf[..n]).unwrap(), vec![PageRecord::Epoch(e)]);
    }

    #[test]
    fn epoch_never_proves_a_gap_id() {
        // The motivating safety property: a torn transaction whose id
        // falls between two committed ids must not be proven committed.
        let e = EpochRecord::from_ids(1, &[10, 12]);
        assert_eq!(e.ranges, vec![(10, 10), (12, 12)]);
        assert!(!e.contains(11));
    }

    #[test]
    fn epoch_decode_rejects_bad_shapes() {
        let e = EpochRecord::from_ids(1, &[1, 2, 3]);
        let mut buf = vec![0xFFu8; 64];
        let n = e.encode(&mut buf).unwrap();
        // Claim one more range than the body holds.
        let mut wrong = buf.clone();
        wrong[11..13].copy_from_slice(&2u16.to_le_bytes());
        assert!(Differential::parse_page(&wrong[..n]).is_err());
        // Inverted range.
        let mut inverted = buf.clone();
        inverted[EPOCH_HEADER..EPOCH_HEADER + 8].copy_from_slice(&9u64.to_le_bytes());
        assert!(Differential::parse_page(&inverted[..n]).is_err());
    }

    #[test]
    fn parse_page_reads_mixed_records_until_erased() {
        let base = vec![0u8; 64];
        let mut new1 = base.clone();
        new1[5] = 1;
        let mut new2 = base.clone();
        new2[50..60].fill(2);
        let d1 = Differential::compute(1, 10, &base, &new1, 8).with_txn(5);
        let d2 = Differential::compute(2, 11, &base, &new2, 8);
        let e = EpochRecord::from_ids(12, &[5]);
        let mut page = vec![0xFFu8; 512];
        let n1 = d1.encode(&mut page).unwrap();
        let n2 = d2.encode(&mut page[n1..]).unwrap();
        let _n3 = e.encode(&mut page[n1 + n2..]).unwrap();
        let parsed = Differential::parse_page(&page).unwrap();
        assert_eq!(
            parsed,
            vec![PageRecord::Diff(d1.clone()), PageRecord::Diff(d2.clone()), PageRecord::Epoch(e)]
        );
        // find_in_page skips the proof record and the foreign pid.
        assert_eq!(Differential::find_in_page(&page, 2).unwrap(), Some(d2));
        assert_eq!(Differential::find_in_page(&page, 9).unwrap(), None);
    }

    /// Cut anywhere inside a record, a page fails to parse, except where
    /// fewer than three bytes of the record are left: they read as the
    /// erased space ending the page.
    #[test]
    fn decode_rejects_truncated_records() {
        let base = vec![0u8; 64];
        let mut new = base.clone();
        new[5..30].fill(7);
        let d = diff_of(&base, &new, 0);
        let e = EpochRecord::from_ids(3, &[1, 2, 5]);
        let mut buf = vec![0xFFu8; 128];
        let n = d.encode(&mut buf).unwrap();
        let m = e.encode(&mut buf[n..]).unwrap();
        for (start, end) in [(0, n), (n, n + m)] {
            for cut in start..end {
                match Differential::parse_page(&buf[..cut]) {
                    Ok(records) => {
                        assert!(cut - start < 3 && records.len() == (start > 0) as usize)
                    }
                    Err(_) => assert!(cut - start >= 3, "cut at {cut}"),
                }
            }
        }
        for cut in 0..n {
            assert!(!matches!(Differential::find_in_page(&buf[..cut], d.pid), Ok(Some(_))));
        }
        assert_eq!(Differential::parse_page(&buf).unwrap().len(), 2);
    }

    #[test]
    fn decode_rejects_unknown_kinds() {
        // 0x02 was the single-id commit record of codec v2.
        for kind in [0x02, 0x7E] {
            let mut buf = vec![0xFFu8; 32];
            buf[0..2].copy_from_slice(&17u16.to_le_bytes());
            buf[2] = kind;
            assert!(Differential::parse_page(&buf).is_err(), "kind {kind:#x}");
        }
    }

    #[test]
    fn empty_page_parses_to_nothing() {
        let page = vec![0xFFu8; 256];
        assert!(Differential::parse_page(&page).unwrap().is_empty());
    }

    /// `Differential::compute` as it was before the word-wise scan: every
    /// byte visited one at a time. The runs it returns decide the write
    /// buffer's packing and the Case 1/2/3 split, so the fast scan must
    /// reproduce them exactly.
    fn runs_bytewise(base: &[u8], new: &[u8], coalesce_gap: usize) -> Vec<DiffRun> {
        let mut runs = Vec::new();
        let mut i = 0usize;
        let n = base.len();
        while i < n {
            if base[i] == new[i] {
                i += 1;
                continue;
            }
            let start = i;
            let mut end = i + 1;
            let mut probe = end;
            loop {
                while probe < n && base[probe] != new[probe] {
                    probe += 1;
                    end = probe;
                }
                let gap_start = probe;
                while probe < n && probe - gap_start < coalesce_gap && base[probe] == new[probe] {
                    probe += 1;
                }
                if probe < n && base[probe] != new[probe] && probe > gap_start {
                    continue;
                }
                break;
            }
            runs.push(DiffRun { offset: start as u32, bytes: new[start..end].to_vec() });
            i = end;
        }
        runs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Each edit is a changed run, a gap of unchanged bytes and a
        /// second changed run, placed at any byte of any word — so runs
        /// and gaps start, end and straddle 8-byte boundaries in every
        /// phase, with gaps on both sides of `coalesce_gap`. The bounded
        /// form gives up exactly when the result would not fit `limit`,
        /// which lands on both sides of the sizes these edits produce.
        #[test]
        fn compute_matches_the_bytewise_scan(
            page in proptest::collection::vec(any::<u8>(), 2048),
            len in prop_oneof![3 => 0usize..=130, 1 => Just(2048usize)],
            coalesce_gap in 0usize..=16,
            limit in 0usize..=320,
            ends in (any::<bool>(), any::<bool>()),
            edits in proptest::collection::vec(
                (any::<u16>(), 1usize..=20, 0usize..=20, 1usize..=20), 0..6),
        ) {
            let base = &page[..len];
            let mut new = base.to_vec();
            // Complementing a byte always changes it (an overlapping edit
            // that changes it back only moves the run boundaries).
            let change = |new: &mut [u8], from: usize, count: usize| {
                for b in new.iter_mut().skip(from).take(count) {
                    *b = !*b;
                }
            };
            for (at, first, gap, second) in edits {
                let at = at as usize % len.max(1);
                change(&mut new, at, first);
                change(&mut new, at + first + gap, second);
            }
            if ends.0 {
                change(&mut new, 0, 1);
            }
            if ends.1 && len > 0 {
                change(&mut new, len - 1, 1);
            }
            let d = Differential::compute(3, 9, base, &new, coalesce_gap);
            prop_assert_eq!(&d.runs, &runs_bytewise(base, &new, coalesce_gap));
            let mut rebuilt = base.to_vec();
            d.apply(&mut rebuilt);
            prop_assert_eq!(&rebuilt, &new);
            let within = Differential::compute_within(3, 9, base, &new, coalesce_gap, limit);
            prop_assert_eq!(within, (d.encoded_len() <= limit).then_some(d));
        }
    }

    /// Past the run boundaries `compute_within` keeps on the stack, the
    /// rest of the runs are found by scanning again: the result is still
    /// the bytewise scan's, and the limit still cuts at the exact size.
    #[test]
    fn many_runs_match_the_bytewise_scan() {
        let base: Vec<u8> = (0..2048u32).map(|i| (i * 7) as u8).collect();
        for count in [31usize, 32, 33, 100] {
            let mut new = base.clone();
            for r in 0..count {
                // Runs of 1-3 bytes, 20 bytes apart: wider than the gap.
                let at = 5 + r * 20;
                for b in &mut new[at..at + 1 + r % 3] {
                    *b = !*b;
                }
            }
            let d = Differential::compute(3, 9, &base, &new, 8);
            assert_eq!(d.runs.len(), count);
            assert_eq!(d.runs, runs_bytewise(&base, &new, 8));
            let size = d.encoded_len();
            let within = |limit| Differential::compute_within(3, 9, &base, &new, 8, limit);
            assert_eq!(within(size), Some(d), "{count} runs");
            assert_eq!(within(size - 1), None, "{count} runs");
        }
    }

    #[test]
    fn whole_page_change_diff_exceeds_page() {
        // A fully-changed 2048-byte page yields a differential strictly
        // larger than the page itself - the Case 3 trigger.
        let base = vec![0u8; 2048];
        let new = vec![1u8; 2048];
        let d = diff_of(&base, &new, 8);
        assert!(d.encoded_len() > 2048);
        assert_eq!(d.payload_len(), 2048);
    }
}
