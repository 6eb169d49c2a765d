//! The differential write buffer (§4.2).
//!
//! "The differential write buffer is used to collect differentials of
//! logical pages into memory and later write them into a differential page
//! in flash memory when it is full. The differential write buffer consists
//! of a single page, and thus, the memory usage is negligible."
//!
//! The buffer holds decoded [`Differential`]s — plus, in the `pdl-txn`
//! extension, the [`EpochRecord`]s proving commits — and a running
//! account of their encoded size; at flush time they are serialised
//! back-to-back into one differential-page image. At most one
//! differential per logical page is ever buffered (staging a new one
//! first removes the old one — Figure 7, Step 3). Proof records are
//! written *after* every differential, so a transaction whose records all
//! fit one page commits atomically with the page program.

use crate::diff::{Differential, EpochRecord};

#[derive(Debug)]
pub(crate) struct DiffWriteBuffer {
    capacity: usize,
    used: usize,
    diffs: Vec<Differential>,
    proofs: Vec<EpochRecord>,
}

impl DiffWriteBuffer {
    pub fn new(capacity: usize) -> DiffWriteBuffer {
        DiffWriteBuffer { capacity, used: 0, diffs: Vec::new(), proofs: Vec::new() }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn free_space(&self) -> usize {
        self.capacity - self.used
    }

    /// Number of staged records.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.diffs.len() + self.proofs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.diffs.is_empty() && self.proofs.is_empty()
    }

    /// The buffered differential for `pid`, if any (the read path checks
    /// here before going to flash — Figure 9, Step 2).
    pub fn get(&self, pid: u64) -> Option<&Differential> {
        self.diffs.iter().find(|d| d.pid == pid)
    }

    /// The transaction tag of every buffered differential
    /// ([`crate::diff::NO_TXN`] for an untagged one).
    pub fn tags(&self) -> impl Iterator<Item = u64> + '_ {
        self.diffs.iter().map(|d| d.txn)
    }

    /// Remove and return the buffered differential for `pid`.
    pub fn remove(&mut self, pid: u64) -> Option<Differential> {
        let idx = self.diffs.iter().position(|d| d.pid == pid)?;
        let d = self.diffs.swap_remove(idx);
        self.used -= d.encoded_len();
        Some(d)
    }

    /// Stage a differential. The caller must have established that it fits
    /// (`encoded_len() <= free_space()`) and removed any older entry for
    /// the same pid.
    pub fn push(&mut self, d: Differential) {
        debug_assert!(d.encoded_len() <= self.free_space(), "dwb overflow");
        debug_assert!(self.get(d.pid).is_none(), "duplicate pid in dwb");
        self.used += d.encoded_len();
        self.diffs.push(d);
    }

    /// Stage a proof record. The caller must have established that it
    /// fits.
    pub fn push_proof(&mut self, e: EpochRecord) {
        debug_assert!(e.encoded_len() <= self.free_space(), "dwb overflow");
        self.used += e.encoded_len();
        self.proofs.push(e);
    }

    /// Drain every differential and proof record (flush), leaving the
    /// buffer empty.
    pub fn drain(&mut self) -> (Vec<Differential>, Vec<EpochRecord>) {
        self.used = 0;
        (std::mem::take(&mut self.diffs), std::mem::take(&mut self.proofs))
    }

    /// Serialise all entries into a differential-page image (erased bytes
    /// beyond the records). `out` must be exactly `capacity` bytes.
    /// Differentials are written before proof records, preserving the
    /// "proof follows its differentials" order within the page.
    pub fn serialize_into(&self, out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.capacity);
        out.fill(0xFF);
        let mut at = 0;
        for d in &self.diffs {
            at += d.encode(&mut out[at..]).expect("dwb accounting guarantees fit");
        }
        for e in &self.proofs {
            at += e.encode(&mut out[at..]).expect("dwb accounting guarantees fit");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{DiffRun, PageRecord};
    use proptest::prelude::*;

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
        b.push_proof(EpochRecord::from_ids(1, &[9]));
        assert_eq!(b.get(2).unwrap().pid, 2);
        assert!(b.get(3).is_none());
        assert_eq!(b.remove(1).unwrap().pid, 1);
        assert!(b.remove(1).is_none());
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn drain_empties_buffer() {
        let mut b = DiffWriteBuffer::new(512);
        b.push(diff(1, 8));
        b.push(diff(2, 8));
        let (diffs, proofs) = b.drain();
        assert_eq!((diffs.len(), proofs.len()), (2, 0));
        assert!(b.is_empty());
        assert_eq!(b.free_space(), 512);
    }

    /// One staged record: a differential of `pid` (runs 64 bytes apart,
    /// `txn` 0 standing for none) or a proof of the ids `txn..txn + n`
    /// that are not multiples of `stride`.
    type Rec = (bool, u64, u64, (u16, u16, u16));

    fn stage(b: &mut DiffWriteBuffer, (is_diff, pid, txn, (a, n, stride)): Rec) {
        if is_diff {
            if b.get(pid).is_some() {
                return;
            }
            let runs = (0..a % 4)
                .map(|r| DiffRun {
                    offset: u32::from(r) * 64,
                    bytes: vec![r as u8; usize::from(n % 40)],
                })
                .collect();
            let txn = if txn == 0 { pdl_flash::NO_TXN } else { txn };
            let d = Differential { pid, ts: u64::from(a), txn, runs };
            if d.encoded_len() <= b.free_space() {
                b.push(d);
            }
        } else {
            let stride = u64::from(stride % 5) + 2;
            let ids: Vec<u64> =
                (txn..txn + u64::from(n % 40)).filter(|id| id % stride != 0).collect();
            let e = EpochRecord::from_ids(u64::from(a), &ids);
            if e.encoded_len() <= b.free_space() {
                b.push_proof(e);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random mixes of differentials and proof records come back
        /// from the page image exactly — differentials first, in buffer
        /// order, then the proofs; `find_in_page` agrees with
        /// `parse_page` for every pid; and every truncated prefix of the
        /// image parses to an error or to a prefix of the records, never
        /// a panic.
        #[test]
        fn serialize_then_parse_round_trips(
            capacity in 64usize..=1024,
            recs in proptest::collection::vec(
                (any::<bool>(), 0u64..12, 0u64..1000, (any::<u16>(), any::<u16>(), any::<u16>())),
                0..24),
        ) {
            let mut b = DiffWriteBuffer::new(capacity);
            for rec in recs {
                stage(&mut b, rec);
            }
            let mut img = vec![0u8; capacity];
            b.serialize_into(&mut img);
            let parsed = Differential::parse_page(&img).unwrap();
            let want: Vec<PageRecord> = b.diffs.iter().cloned().map(PageRecord::Diff)
                .chain(b.proofs.iter().cloned().map(PageRecord::Epoch))
                .collect();
            prop_assert_eq!(&parsed, &want);
            for pid in 0..13u64 {
                let found = Differential::find_in_page(&img, pid).unwrap();
                prop_assert_eq!(found.as_ref(), b.get(pid));
            }
            for cut in 0..capacity {
                if let Ok(prefix) = Differential::parse_page(&img[..cut]) {
                    prop_assert_eq!(&prefix[..], &want[..prefix.len()]);
                }
                let _ = Differential::find_in_page(&img[..cut], 0);
            }
        }
    }
}
