//! The differential write buffer (§4.2).
//!
//! "The differential write buffer is used to collect differentials of
//! logical pages into memory and later write them into a differential page
//! in flash memory when it is full. The differential write buffer consists
//! of a single page, and thus, the memory usage is negligible."
//!
//! The buffer holds decoded [`Differential`]s — plus, in the `pdl-txn`
//! extension, [`CommitRecord`]s — and a running account of their encoded
//! size; at flush time they are serialised back-to-back into one
//! differential-page image. At most one differential per logical page is
//! ever buffered (staging a new one first removes the old one —
//! Figure 7, Step 3). Commit records are appended *after* the
//! differentials they cover, so a transaction whose records all fit one
//! page commits atomically with the page program.

use crate::diff::{CommitRecord, Differential, EpochRecord};

/// One buffered record.
#[derive(Debug)]
pub(crate) enum DwbEntry {
    Diff(Differential),
    Commit(CommitRecord),
    Epoch(EpochRecord),
}

impl DwbEntry {
    fn encoded_len(&self) -> usize {
        match self {
            DwbEntry::Diff(d) => d.encoded_len(),
            DwbEntry::Commit(_) => CommitRecord::ENCODED_LEN,
            DwbEntry::Epoch(e) => e.encoded_len(),
        }
    }
}

#[derive(Debug)]
pub(crate) struct DiffWriteBuffer {
    capacity: usize,
    used: usize,
    entries: Vec<DwbEntry>,
}

impl DiffWriteBuffer {
    pub fn new(capacity: usize) -> DiffWriteBuffer {
        DiffWriteBuffer { capacity, used: 0, entries: Vec::new() }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn free_space(&self) -> usize {
        self.capacity - self.used
    }

    /// Number of staged records (diagnostics).
    #[allow(dead_code)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The buffered differential for `pid`, if any (the read path checks
    /// here before going to flash — Figure 9, Step 2).
    pub fn get(&self, pid: u64) -> Option<&Differential> {
        self.entries.iter().find_map(|e| match e {
            DwbEntry::Diff(d) if d.pid == pid => Some(d),
            _ => None,
        })
    }

    /// Whether a buffered differential is tagged by one of `txns`.
    pub fn holds_tag_of(&self, txns: &[u64]) -> bool {
        self.entries.iter().any(|e| matches!(e, DwbEntry::Diff(d) if txns.contains(&d.txn)))
    }

    /// Remove and return the buffered differential for `pid`.
    pub fn remove(&mut self, pid: u64) -> Option<Differential> {
        let idx =
            self.entries.iter().position(|e| matches!(e, DwbEntry::Diff(d) if d.pid == pid))?;
        let e = self.entries.swap_remove(idx);
        self.used -= e.encoded_len();
        match e {
            DwbEntry::Diff(d) => Some(d),
            _ => unreachable!("position matched a differential"),
        }
    }

    /// Stage a differential. The caller must have established that it fits
    /// (`encoded_len() <= free_space()`) and removed any older entry for
    /// the same pid.
    pub fn push(&mut self, d: Differential) {
        debug_assert!(d.encoded_len() <= self.free_space(), "dwb overflow");
        debug_assert!(self.get(d.pid).is_none(), "duplicate pid in dwb");
        self.used += d.encoded_len();
        self.entries.push(DwbEntry::Diff(d));
    }

    /// Stage a commit record. The caller must have established that it
    /// fits.
    pub fn push_commit(&mut self, c: CommitRecord) {
        debug_assert!(CommitRecord::ENCODED_LEN <= self.free_space(), "dwb overflow");
        self.used += CommitRecord::ENCODED_LEN;
        self.entries.push(DwbEntry::Commit(c));
    }

    /// Stage an epoch record (codec v3: one record proving a whole
    /// batch's commits). The caller must have established that it fits.
    pub fn push_epoch(&mut self, e: EpochRecord) {
        debug_assert!(e.encoded_len() <= self.free_space(), "dwb overflow");
        self.used += e.encoded_len();
        self.entries.push(DwbEntry::Epoch(e));
    }

    /// Drain every entry (flush), leaving the buffer empty.
    pub fn drain(&mut self) -> Vec<DwbEntry> {
        self.used = 0;
        std::mem::take(&mut self.entries)
    }

    /// Serialise all entries into a differential-page image (erased bytes
    /// beyond the records). `out` must be exactly `capacity` bytes.
    /// Differentials are written before commit records, preserving the
    /// "commit record follows its differentials" order within the page.
    pub fn serialize_into(&self, out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.capacity);
        out.fill(0xFF);
        let mut at = 0;
        for e in &self.entries {
            if let DwbEntry::Diff(d) = e {
                let n = d.encode(&mut out[at..]).expect("dwb accounting guarantees fit");
                at += n;
            }
        }
        for e in &self.entries {
            if let DwbEntry::Commit(c) = e {
                let n = c.encode(&mut out[at..]).expect("dwb accounting guarantees fit");
                at += n;
            }
        }
        // Epoch records last: like commit records, they must follow every
        // differential they prove within the page.
        for e in &self.entries {
            if let DwbEntry::Epoch(ep) = e {
                let n = ep.encode(&mut out[at..]).expect("dwb accounting guarantees fit");
                at += n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{DiffRun, PageRecord};

    fn diff(pid: u64, payload: usize) -> Differential {
        Differential {
            pid,
            ts: pid + 100,
            txn: pdl_flash::NO_TXN,
            runs: vec![DiffRun { offset: 0, bytes: vec![7u8; payload] }],
        }
    }

    #[test]
    fn accounting_tracks_encoded_size() {
        let mut b = DiffWriteBuffer::new(256);
        assert_eq!(b.free_space(), 256);
        let d = diff(1, 10);
        let n = d.encoded_len();
        b.push(d);
        assert_eq!(b.free_space(), 256 - n);
        assert_eq!(b.len(), 1);
        b.remove(1).unwrap();
        assert_eq!(b.free_space(), 256);
        assert!(b.is_empty());
    }

    #[test]
    fn get_and_remove_by_pid() {
        let mut b = DiffWriteBuffer::new(1024);
        b.push(diff(1, 4));
        b.push(diff(2, 4));
        b.push_commit(CommitRecord { txn: 9, ts: 1 });
        assert_eq!(b.get(2).unwrap().pid, 2);
        assert!(b.get(3).is_none());
        assert_eq!(b.remove(1).unwrap().pid, 1);
        assert!(b.remove(1).is_none());
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn serialize_then_parse_round_trips() {
        let mut b = DiffWriteBuffer::new(512);
        b.push(diff(10, 16));
        b.push_commit(CommitRecord { txn: 3, ts: 7 });
        b.push(diff(11, 32));
        let mut img = vec![0u8; 512];
        b.serialize_into(&mut img);
        let parsed = Differential::parse_page(&img).unwrap();
        assert_eq!(parsed.len(), 3);
        let pids: Vec<u64> = parsed
            .iter()
            .filter_map(|r| match r {
                PageRecord::Diff(d) => Some(d.pid),
                _ => None,
            })
            .collect();
        assert!(pids.contains(&10) && pids.contains(&11));
        // Commit records serialise after every differential.
        assert!(matches!(parsed.last(), Some(PageRecord::Commit(c)) if c.txn == 3));
    }

    #[test]
    fn drain_empties_buffer() {
        let mut b = DiffWriteBuffer::new(512);
        b.push(diff(1, 8));
        b.push(diff(2, 8));
        let all = b.drain();
        assert_eq!(all.len(), 2);
        assert!(b.is_empty());
        assert_eq!(b.free_space(), 512);
    }
}
