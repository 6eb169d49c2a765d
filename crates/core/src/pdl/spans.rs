//! The byte ranges each logical page's current differential covers.
//!
//! Staging a page computes `diff(base, new)`, and the base is on flash.
//! A caller that holds the image the store holds for the page
//! ([`crate::BatchPage::held`], [`crate::PageStore::evict_held`]) already
//! knows the base everywhere outside the current differential's runs:
//! there the two are the same bytes. So the store keeps those runs per
//! page, wherever the differential lives (write buffer or flash), and
//! `Pdl::stage_page` builds its comparison image from memory instead of
//! reading the base back.
//!
//! Every staging records its differential's runs, whether it had a held
//! image or not, so the next staging of the page can take one. A page's
//! entry is *empty* after a base write (no differential) and *unknown*
//! only after recovery (nothing rebuilds it). Runs are packed
//! `offset << 16 | len` words — a logical page is at most `u16::MAX`
//! bytes — in one append-only arena, so recording a differential's runs
//! allocates nothing per page and writes one index word plus a
//! sequential append; the arena is compacted once garbage outweighs what
//! it held after the last compaction.

use crate::diff::DiffRun;
use std::ops::Range;

/// No entry: the runs must be read from flash.
const UNKNOWN: u32 = u32::MAX;
/// No differential (or one with no runs).
const EMPTY: u32 = u32::MAX - 1;
/// Arena words below which compaction is never worth its page scan.
const COMPACT_MIN: usize = 1 << 12;

pub(crate) struct DiffSpans {
    /// Per logical page: [`UNKNOWN`], [`EMPTY`], or the arena index of a
    /// run count followed by that many packed runs.
    at: Vec<u32>,
    words: Vec<u32>,
    /// Arena words in use right after the last compaction.
    live: usize,
}

impl DiffSpans {
    /// Every page unknown.
    pub fn unknown(pages: usize) -> DiffSpans {
        DiffSpans { at: vec![UNKNOWN; pages], words: Vec::new(), live: 0 }
    }

    /// `pid`'s ranges, ascending and disjoint; `None` when unknown.
    pub fn get(&self, pid: u64) -> Option<impl Iterator<Item = Range<usize>> + '_> {
        let runs = match self.at[pid as usize] {
            UNKNOWN => return None,
            EMPTY => &[][..],
            i => {
                let i = i as usize;
                &self.words[i + 1..][..self.words[i] as usize]
            }
        };
        Some(runs.iter().map(|&w| {
            let (offset, len) = ((w >> 16) as usize, (w & 0xFFFF) as usize);
            offset..offset + len
        }))
    }

    pub fn set_empty(&mut self, pid: u64) {
        self.at[pid as usize] = EMPTY;
    }

    /// `pid`'s current differential now has `runs`.
    pub fn set_runs(&mut self, pid: u64, runs: &[DiffRun]) {
        if runs.is_empty() {
            return self.set_empty(pid);
        }
        if self.words.len() > 2 * self.live + COMPACT_MIN {
            self.compact();
        }
        self.at[pid as usize] = self.words.len() as u32;
        self.words.push(runs.len() as u32);
        self.words.extend(runs.iter().map(|r| r.offset << 16 | r.bytes.len() as u32));
    }

    /// Copy every page's live entry into a fresh arena.
    fn compact(&mut self) {
        let mut words = Vec::with_capacity(self.live + COMPACT_MIN);
        for slot in self.at.iter_mut().filter(|s| **s < EMPTY) {
            let i = *slot as usize;
            *slot = words.len() as u32;
            words.extend_from_slice(&self.words[i..=i + self.words[i] as usize]);
        }
        self.live = words.len();
        self.words = words;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(spans: &[(u32, usize)]) -> Vec<DiffRun> {
        spans.iter().map(|&(offset, len)| DiffRun { offset, bytes: vec![0; len] }).collect()
    }

    fn ranges(s: &DiffSpans, pid: u64) -> Option<Vec<Range<usize>>> {
        s.get(pid).map(Iterator::collect)
    }

    #[test]
    fn entries_start_unknown_and_follow_the_latest_differential() {
        let mut s = DiffSpans::unknown(4);
        assert_eq!(ranges(&s, 2), None);
        s.set_empty(2);
        assert_eq!(ranges(&s, 2), Some(vec![]));
        s.set_runs(2, &runs(&[(0, 3), (100, 65_000)]));
        assert_eq!(ranges(&s, 2), Some(vec![0..3, 100..65_100]));
        s.set_runs(2, &runs(&[(7, 1), (20, 2)]));
        assert_eq!(ranges(&s, 2), Some(vec![7..8, 20..22]));
        s.set_runs(2, &[]);
        assert_eq!(ranges(&s, 2), Some(vec![]));
        assert_eq!(ranges(&s, 3), None);
    }

    #[test]
    fn compaction_keeps_every_live_entry_and_bounds_the_arena() {
        let mut s = DiffSpans::unknown(64);
        for round in 0..20_000u32 {
            let pid = u64::from(round % 64);
            let n = (round % 5) as usize + 1;
            let spans: Vec<(u32, usize)> =
                (0..n).map(|k| (k as u32 * 40, round as usize % 30 + 1)).collect();
            s.set_runs(pid, &runs(&spans));
        }
        assert!(s.live > 0, "the run must compact");
        assert!(s.words.len() <= 2 * s.live + COMPACT_MIN + 6, "{} words", s.words.len());
        for pid in 0..64u64 {
            let last = (0..20_000u32).rev().find(|r| u64::from(r % 64) == pid).unwrap();
            let n = (last % 5) as usize + 1;
            let want: Vec<Range<usize>> =
                (0..n).map(|k| k * 40..k * 40 + last as usize % 30 + 1).collect();
            assert_eq!(ranges(&s, pid), Some(want), "pid {pid}");
        }
    }
}
