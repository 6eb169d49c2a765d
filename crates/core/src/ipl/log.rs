//! Update-log records, log sectors and the per-page log buffer for IPL.
//!
//! "Whenever logical pages are updated, the update logs of multiple logical
//! pages are first collected into a write buffer in memory. When this
//! buffer is full, it is written into a single physical page" (§3). As in
//! Lee & Moon, the in-memory buffer is per logical page and its size is a
//! fixed fraction of the page ("we set the size of log buffer for each
//! logical page to the size of a logical page x 1/16", footnote 13); a
//! full buffer is flushed as one *log sector* into the current log page of
//! the block.
//!
//! An update log is a [`DiffRun`], the `[offset, length, data]` triple a
//! differential carries too. A log sector fills one `sector_size`-byte
//! slot of a log page with a pid and a run list, laid out as `sector` in
//! [`crate::codec`]; a pid of `u64::MAX` marks a slot still erased.

use crate::codec::{Reader, Writer};
use crate::diff::{apply_runs, read_runs, write_runs, DiffRun, RUN_HEADER};
use crate::Result;
use std::collections::VecDeque;

/// Bytes of sector overhead before the runs start: pid and run count.
pub(crate) const SECTOR_HEADER: usize = 8 + 2;

/// Encode a sector image for `pid` from `runs`. The image is
/// `sector_size` bytes with erased (0xFF) tail space.
pub(crate) fn encode_sector(pid: u64, runs: &[DiffRun], sector_size: usize) -> Vec<u8> {
    let mut out = vec![0xFFu8; sector_size];
    let mut w = Writer(&mut out[..]);
    w.u64(pid);
    write_runs(&mut w, runs);
    out
}

/// Decode one sector slot. Returns `None` for an erased slot.
pub(crate) fn decode_sector(bytes: &[u8]) -> Result<Option<(u64, Vec<DiffRun>)>> {
    let mut r = Reader::new(bytes);
    match r.u64()? {
        u64::MAX => Ok(None),
        pid => Ok(Some((pid, read_runs(&mut r)?))),
    }
}

/// The in-memory log buffer of one logical page.
#[derive(Debug, Default)]
pub(crate) struct LogBuf {
    runs: VecDeque<DiffRun>,
    bytes: usize,
}

impl LogBuf {
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total encoded size of the buffered runs.
    #[cfg(test)]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    pub fn append(&mut self, run: DiffRun) {
        self.bytes += run.encoded_len();
        self.runs.push_back(run);
    }

    /// Whether a full sector (payload capacity `cap`) can be packed.
    pub fn has_full_sector(&self, cap: usize) -> bool {
        self.bytes >= cap
    }

    /// Pack up to `cap` payload bytes of runs, splitting the boundary run
    /// if necessary so that flush counts follow the paper's
    /// `ceil(size_of_update_logs / size_of_log_buffer)` model.
    pub fn pack(&mut self, cap: usize) -> Vec<DiffRun> {
        let mut taken = Vec::new();
        let mut used = 0usize;
        while let Some(front) = self.runs.front_mut() {
            let cost = front.encoded_len();
            if used + cost <= cap {
                used += cost;
                taken.push(self.runs.pop_front().expect("front exists"));
            } else {
                let space = cap - used;
                if space > RUN_HEADER {
                    // Split: emit a prefix of the run now. The remainder
                    // keeps its own run header, so recompute below.
                    let n = space - RUN_HEADER;
                    let head: Vec<u8> = front.bytes.drain(..n).collect();
                    taken.push(DiffRun { offset: front.offset, bytes: head });
                    front.offset += n as u32;
                }
                break;
            }
        }
        self.bytes = self.runs.iter().map(DiffRun::encoded_len).sum();
        taken
    }

    /// Drain everything (eviction flush of a partial sector).
    pub fn drain_all(&mut self) -> Vec<DiffRun> {
        self.bytes = 0;
        self.runs.drain(..).collect()
    }

    /// Apply the buffered runs, in order, to a page image.
    pub fn apply_to(&self, page: &mut [u8]) {
        apply_runs(&self.runs, page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(offset: u32, len: usize, fill: u8) -> DiffRun {
        DiffRun { offset, bytes: vec![fill; len] }
    }

    #[test]
    fn sector_round_trip() {
        let records = vec![rec(3, 5, 1), rec(100, 20, 2)];
        let img = encode_sector(42, &records, 128);
        let (pid, back) = decode_sector(&img).unwrap().unwrap();
        assert_eq!(pid, 42);
        assert_eq!(back, records);
    }

    #[test]
    fn erased_sector_decodes_none() {
        let img = vec![0xFFu8; 128];
        assert!(decode_sector(&img).unwrap().is_none());
    }

    #[test]
    fn buffer_accounts_costs() {
        let mut b = LogBuf::default();
        b.append(rec(0, 10, 1));
        assert_eq!(b.bytes(), 14);
        b.append(rec(20, 6, 2));
        assert_eq!(b.bytes(), 24);
        assert!(!b.has_full_sector(25));
        assert!(b.has_full_sector(24));
    }

    #[test]
    fn pack_takes_whole_records_when_they_fit() {
        let mut b = LogBuf::default();
        b.append(rec(0, 10, 1));
        b.append(rec(20, 10, 2));
        let taken = b.pack(28);
        assert_eq!(taken.len(), 2);
        assert!(b.is_empty());
        assert_eq!(b.bytes(), 0);
    }

    #[test]
    fn pack_splits_boundary_record() {
        let mut b = LogBuf::default();
        b.append(rec(0, 100, 7));
        let taken = b.pack(54); // 4 + 50 payload
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].bytes.len(), 50);
        assert_eq!(taken[0].offset, 0);
        // Remainder keeps the tail at the right offset and re-pays the
        // record overhead.
        assert_eq!(b.bytes(), 4 + 50);
        let rest = b.drain_all();
        assert_eq!(rest[0].offset, 50);
        assert_eq!(rest[0].bytes.len(), 50);
    }

    #[test]
    fn split_then_apply_equals_original_update() {
        let mut page = vec![0u8; 256];
        let mut b = LogBuf::default();
        let mut update = vec![0u8; 100];
        for (i, v) in update.iter_mut().enumerate() {
            *v = i as u8;
        }
        b.append(DiffRun { offset: 30, bytes: update.clone() });
        let first = b.pack(54);
        let rest = b.drain_all();
        apply_runs(first.iter().chain(&rest), &mut page);
        assert_eq!(&page[30..130], &update[..]);
    }

    #[test]
    fn apply_to_respects_order() {
        let mut b = LogBuf::default();
        b.append(rec(0, 4, 1));
        b.append(rec(2, 4, 2)); // overlaps; later wins
        let mut page = vec![0u8; 8];
        b.apply_to(&mut page);
        assert_eq!(page, [1, 1, 2, 2, 2, 2, 0, 0]);
    }

    /// Every strict prefix of a sector's pid and runs fails to decode.
    #[test]
    fn decode_rejects_truncation() {
        let runs = vec![rec(0, 30, 9), rec(40, 3, 1)];
        let img = encode_sector(1, &runs, 64);
        let len = SECTOR_HEADER + 4 + 30 + 4 + 3;
        for cut in 0..len {
            assert!(decode_sector(&img[..cut]).is_err(), "cut at {cut}");
        }
        assert_eq!(decode_sector(&img[..len]).unwrap(), Some((1, runs)));
    }
}
