//! The one codec of every on-flash record: [`Writer`] appends
//! little-endian fields and [`Reader`] reads them back front to back. The
//! records it writes (`x^n` is `n` repetitions of `x`):
//!
//! ```text
//! runs    := n : u16, (offset : u16, len : u16, bytes[len])^n
//! -- a differential page (crate::diff): record^*, then erased (0xFF) space
//! record  := body_len : u16 (what follows; never 0xFFFF), kind : u8, diff | epoch
//! diff    := pid : u64, ts : u64, txn : u64, runs                       kind 0x01
//! epoch   := ts : u64, n : u16, (lo : u64, hi : u64)^n     kind 0x03, lo <= hi
//! -- an IPL log sector (crate::ipl), one slot of a log page
//! sector  := pid : u64 (u64::MAX: the slot is erased), runs
//! -- the root region (crate::pdl::checkpoint)
//! root    := "PLR1" : u32, total : u32, 1 : u16, 0 : u16, txn : u64, roots, fnv : u64
//! roots   := next_pid : u64, n : u32, (id : u64, kind : u8, 0 : u8^3, m : u32, pid : u64^m)^n
//! header  := "PLH1" : u32, 5 : u16, 0 : u16, seq : u64, watermark : u64,
//!            base_ppn : u32, payload_pages : u32, payload_len : u64, csum : u32
//! payload := "PLK1" : u32, 5 : u16, k : u16, P : u64, B : u32, pages : u32,
//!            (base : u32^k, diff : u32)^P, written : u32^B, diff_txn : u64^P,
//!            base_txn : u64^(P*k), n : u32, (txn : u64, ppn : u32)^n,
//!            txn_floor : u64, fingerprint : u64^B, roots
//! ```
//!
//! `total` is the root record's length and `fnv` the FNV-1a of every byte
//! before it; `csum` is the low half of the payload's FNV-1a. A payload
//! covers P logical pages of k frames and B blocks; a block's fingerprint
//! is the FNV-1a of `((1 : u8, tag : u64, ts : u64) | 0 : u8^17)^2,
//! written : u32`: its first and last page's spare identity, and its fill.

use crate::error::CoreError;
use crate::Result;

/// Where a [`Writer`] puts its bytes: the end of a `Vec<u8>`, or the front
/// of a `&mut [u8]` (past its end panics: every caller sizes it first).
pub(crate) trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Sink for &mut [u8] {
    fn put(&mut self, bytes: &[u8]) {
        let (head, rest) = std::mem::take(self).split_at_mut(bytes.len());
        head.copy_from_slice(bytes);
        *self = rest;
    }
}

/// Appends little-endian fields to its [`Sink`].
pub(crate) struct Writer<W>(pub W);

impl<W: Sink> Writer<W> {
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        self.0.put(bytes);
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

impl Writer<Vec<u8>> {
    /// Overwrite the `u32` written at byte `at` (a length known only once
    /// the rest is written).
    pub(crate) fn set_u32(&mut self, at: usize, v: u32) {
        self.0[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// Reads little-endian fields front to back from a borrowed slice. Reading
/// past its end is [`CoreError::Corruption`]; so are bytes left over when
/// the caller asks for an exact end ([`Reader::end`]).
#[derive(Clone, Copy)]
pub(crate) struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader(bytes)
    }

    /// Bytes not read yet.
    pub(crate) fn remaining(&self) -> usize {
        self.0.len()
    }

    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n).ok_or_else(truncated)?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Finish a record that must end here.
    pub(crate) fn end(self) -> Result<()> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(CoreError::Corruption(format!("record has {n} trailing bytes"))),
        }
    }
}

#[cold]
fn truncated() -> CoreError {
    CoreError::Corruption("record truncated".into())
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::diff::{DiffRun, Differential, EpochRecord, PageRecord};
    use crate::ipl::log::{decode_sector, encode_sector, SECTOR_HEADER};
    use crate::pdl::checkpoint::{decode_root_record, encode_root_record};
    use crate::{PageStore, Pdl, StoreOptions, StructRootEntry, StructRootsSnapshot};
    use pdl_flash::{FlashChip, FlashConfig, Ppn};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::fmt::Debug;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One record of each kind from fixed inputs, byte for byte: the
    /// on-flash layout, which no refactor of the codec may change. The
    /// checkpoint header's payload length and checksum pin the payload too.
    #[test]
    fn every_record_kind_keeps_its_bytes() {
        let runs = vec![
            DiffRun { offset: 7, bytes: vec![0xAA, 0xBB] },
            DiffRun { offset: 0x0123, bytes: vec![0xCC] },
        ];
        let d = Differential { pid: 0x0102, ts: 0x0304, txn: 0x0506, runs };
        let mut buf = vec![0xFF; d.encoded_len()];
        assert_eq!(d.encode(&mut buf).unwrap(), buf.len());
        assert_eq!(
            hex(&buf),
            "260001020100000000000004030000000000000605000000000000020007000200aabb23010100cc"
        );

        let e = EpochRecord::from_ids(0x0708, &[3, 4, 5, 9]);
        let mut buf = vec![0xFF; e.encoded_len()];
        assert_eq!(e.encode(&mut buf).unwrap(), buf.len());
        assert_eq!(
            hex(&buf),
            "2b000308070000000000000200030000000000000005000000000000000900000000000000\
             0900000000000000"
        );

        let sector = encode_sector(0x0A0B, &[DiffRun { offset: 5, bytes: vec![1, 2, 3] }], 20);
        assert_eq!(hex(&sector), "0b0a000000000000010005000300010203ffffff");

        let entry = StructRootEntry { id: 2, kind: StructRootEntry::KIND_HEAP, pids: vec![11, 12] };
        let roots = StructRootsSnapshot { next_pid: 40, entries: vec![entry] };
        assert_eq!(
            hex(&encode_root_record(&roots, 0x0C0D)),
            "31524c5048000000010000000d0c000000000000280000000000000001000000020000000000000001\
             000000020000000b000000000000000c0000000000000061abff4085115c18"
        );

        let opts = StoreOptions::new(8).with_checkpoint_blocks(2);
        let mut s = Pdl::new(FlashChip::new(FlashConfig::tiny()), opts, 64).unwrap();
        let size = s.logical_page_size();
        for pid in 0..8u64 {
            s.write_page(pid, &vec![pid as u8; size]).unwrap();
        }
        s.checkpoint().unwrap();
        let ppb = s.chip().geometry().pages_per_block;
        let header = (0..2 * ppb)
            .map(|p| s.chip().peek_data(Ppn(p)))
            .find(|data| data.starts_with(b"1HLP"))
            .expect("a checkpoint header page");
        assert_eq!(
            hex(&header[..44]),
            "31484c5005000000010000000000000008000000000000000000000002000000b00100000000000\
             09ad8ba0c"
        );
    }

    /// `decode` gives `want` back from all of `bytes`, and from every strict
    /// prefix an error or `None`: no record, and no panic.
    pub(crate) fn round_trips<T: PartialEq + Debug>(
        bytes: &[u8],
        want: &T,
        decode: impl Fn(&[u8]) -> crate::Result<Option<T>>,
    ) -> Result<(), TestCaseError> {
        let whole = decode(bytes).unwrap();
        prop_assert_eq!(whole.as_ref(), Some(want));
        for cut in 0..bytes.len() {
            let got = decode(&bytes[..cut]);
            prop_assert!(matches!(got, Err(_) | Ok(None)), "{cut}-byte prefix gave {:?}", got);
        }
        Ok(())
    }

    fn runs() -> impl Strategy<Value = Vec<DiffRun>> {
        let run = (any::<u16>(), vec(any::<u8>(), 0..24));
        vec(run, 0..6).prop_map(|runs| {
            runs.into_iter().map(|(at, bytes)| DiffRun { offset: u32::from(at), bytes }).collect()
        })
    }

    fn roots() -> impl Strategy<Value = StructRootsSnapshot> {
        let entry = (any::<u64>(), any::<u8>(), vec(any::<u64>(), 0..5));
        (any::<u64>(), vec(entry, 0..4)).prop_map(|(next_pid, entries)| StructRootsSnapshot {
            next_pid,
            entries: entries
                .into_iter()
                .map(|(id, kind, pids)| StructRootEntry { id, kind, pids })
                .collect(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn differentials_and_epoch_records_round_trip(
            head in (any::<u64>(), any::<u64>(), any::<u64>()),
            runs in runs(),
            ids in vec(0u64..64, 0..12),
        ) {
            let (pid, ts, txn) = head;
            let d = Differential { pid, ts, txn, runs };
            let mut buf = vec![0xFF; d.encoded_len()];
            d.encode(&mut buf).unwrap();
            round_trips(&buf, &d, |b| Differential::find_in_page(b, pid))?;
            let e = EpochRecord::from_ids(ts, &ids);
            let mut buf = vec![0xFF; e.encoded_len()];
            e.encode(&mut buf).unwrap();
            let last = |b: &[u8]| Differential::parse_page(b).map(|mut records| records.pop());
            round_trips(&buf, &PageRecord::Epoch(e), last)?;
        }

        #[test]
        fn sectors_round_trip(pid in 0..u64::MAX, runs in runs(), erased in 0usize..8) {
            let len = SECTOR_HEADER + runs.iter().map(DiffRun::encoded_len).sum::<usize>();
            let sector = encode_sector(pid, &runs, len + erased);
            prop_assert!(sector[len..].iter().all(|b| *b == 0xFF));
            round_trips(&sector[..len], &(pid, runs), decode_sector)?;
            prop_assert_eq!(decode_sector(&vec![0xFF; len]).unwrap(), None);
        }

        #[test]
        fn root_records_round_trip(roots in roots(), txn in any::<u64>()) {
            let record = encode_root_record(&roots, txn);
            round_trips(&record, &(txn, roots), |b| Ok(decode_root_record(b)))?;
        }
    }
}
