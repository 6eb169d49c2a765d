//! Spare-area codec.
//!
//! The paper stores "auxiliary information such as the valid bit, obsolete
//! bit, bad block identification, and error correction check" in the
//! 64-byte spare area of each page, and PDL additionally stores the page's
//! type, physical page ID and creation time stamp (§4.2).
//!
//! This module defines a shared layout used by every page-update method:
//!
//! ```text
//! byte  0        page kind (programmed once, with the page)
//! byte  1        obsolete marker: 0xFF = valid, 0x00 = obsolete
//! bytes 2..4     reserved (left erased)
//! bytes 4..12    tag: logical page / frame identifier (u64 LE)
//! bytes 12..20   creation time stamp (u64 LE)
//! bytes 20..24   checksum of the data area (u32 LE): lane-interleaved
//!                FNV-1a over 32-bit words ([`fnv1a32`]), stands in for
//!                the ECC the real chip stores here. An error confined
//!                to one 32-bit word is detected with certainty, any
//!                other with probability 1 − 2⁻³²
//! bytes 24..32   owning transaction id (u64 LE) — per-page
//!                commit-visibility metadata in the spirit of Graefe &
//!                Kuno's single-page-failure taxonomy. The erased value
//!                `u64::MAX` ([`NO_TXN`]) means the page is visible
//!                unconditionally; any other value makes the page's
//!                validity contingent on that transaction's durable
//!                commit record (PDL Case-3 base pages written inside a
//!                transaction commit batch carry it)
//! ```
//!
//! All transitions used by the codec only clear bits (1 -> 0), so marking a
//! page obsolete is a legal spare-area partial program — exactly the
//! mechanism the paper describes in footnote 9.

use crate::error::FlashError;
use crate::Result;

/// Number of spare bytes the codec occupies.
pub const SPARE_BYTES_USED: usize = 32;

/// The "no transaction" sentinel: the erased state of the spare txn
/// field, so non-transactional pages need not program it at all.
pub const NO_TXN: u64 = u64::MAX;

const OFF_KIND: usize = 0;
const OFF_OBSOLETE: usize = 1;
const OFF_TAG: usize = 4;
const OFF_TS: usize = 12;
pub(crate) const OFF_CSUM: usize = 20;
const OFF_TXN: usize = 24;

/// What a physical page currently holds.
///
/// Encodings are arbitrary byte values reachable from the erased state
/// (0xFF) by clearing bits; 0xFF itself means "never programmed".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// Erased, never programmed since the last block erase.
    Free,
    /// PDL base page: holds a whole logical page (one frame of it).
    Base,
    /// PDL differential page: holds differentials of many logical pages.
    Diff,
    /// Page-based methods' data page (OPU / IPU).
    Data,
    /// IPL original (data) page.
    IplData,
    /// IPL log page: holds update-log sectors.
    IplLog,
    /// Checkpoint payload page (serialised mapping tables; the paper's
    /// "log the changes in the mapping table" future-work extension).
    Checkpoint,
    /// Checkpoint header page (written last; its presence commits the
    /// checkpoint).
    CheckpointHead,
    /// Marked bad (all bits cleared).
    Bad,
}

impl PageKind {
    fn to_byte(self) -> u8 {
        match self {
            PageKind::Free => 0xFF,
            PageKind::Base => 0xB5,
            PageKind::Diff => 0xD1,
            PageKind::Data => 0xDA,
            PageKind::IplData => 0x1D,
            PageKind::IplLog => 0x10,
            PageKind::Checkpoint => 0xC5,
            PageKind::CheckpointHead => 0xC1,
            PageKind::Bad => 0x00,
        }
    }

    fn from_byte(b: u8) -> Option<PageKind> {
        Some(match b {
            0xFF => PageKind::Free,
            0xB5 => PageKind::Base,
            0xD1 => PageKind::Diff,
            0xDA => PageKind::Data,
            0x1D => PageKind::IplData,
            0x10 => PageKind::IplLog,
            0xC5 => PageKind::Checkpoint,
            0xC1 => PageKind::CheckpointHead,
            0x00 => PageKind::Bad,
            _ => return None,
        })
    }
}

/// Decoded spare-area metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpareInfo {
    pub kind: PageKind,
    /// True once the obsolete bit has been programmed.
    pub obsolete: bool,
    /// Logical page / frame identifier this physical page belongs to.
    /// `u64::MAX` when not applicable (e.g. IPL log pages).
    pub tag: u64,
    /// Creation time stamp (monotonic counter maintained by the method).
    pub ts: u64,
    /// Checksum of the data area at program time: lane-interleaved
    /// FNV-1a over 32-bit words ([`fnv1a32`]).
    pub checksum: u32,
    /// Owning transaction id; [`NO_TXN`] (the erased state) for pages
    /// whose validity is unconditional.
    pub txn: u64,
}

impl SpareInfo {
    /// Metadata for a freshly written page (no owning transaction).
    pub fn new(kind: PageKind, tag: u64, ts: u64, checksum: u32) -> SpareInfo {
        SpareInfo { kind, obsolete: false, tag, ts, checksum, txn: NO_TXN }
    }

    /// Tag the page with the transaction whose commit record gates its
    /// validity.
    pub fn with_txn(mut self, txn: u64) -> SpareInfo {
        self.txn = txn;
        self
    }

    /// Serialise into a spare-area image (`spare.len()` must be at least
    /// [`SPARE_BYTES_USED`]; remaining bytes are left erased).
    pub fn encode(&self, spare: &mut [u8]) -> Result<()> {
        if spare.len() < SPARE_BYTES_USED {
            return Err(FlashError::BadBufferSize { expected: SPARE_BYTES_USED, got: spare.len() });
        }
        spare.fill(0xFF);
        spare[OFF_KIND] = self.kind.to_byte();
        spare[OFF_OBSOLETE] = if self.obsolete { 0x00 } else { 0xFF };
        spare[OFF_TAG..OFF_TAG + 8].copy_from_slice(&self.tag.to_le_bytes());
        spare[OFF_TS..OFF_TS + 8].copy_from_slice(&self.ts.to_le_bytes());
        spare[OFF_CSUM..OFF_CSUM + 4].copy_from_slice(&self.checksum.to_le_bytes());
        spare[OFF_TXN..OFF_TXN + 8].copy_from_slice(&self.txn.to_le_bytes());
        Ok(())
    }

    /// Decode a spare-area image. Unknown kind bytes decode to `None`
    /// (a half-programmed or corrupted page).
    pub fn decode(spare: &[u8]) -> Option<SpareInfo> {
        if spare.len() < SPARE_BYTES_USED {
            return None;
        }
        let kind = PageKind::from_byte(spare[OFF_KIND])?;
        let obsolete = spare[OFF_OBSOLETE] != 0xFF;
        let tag = u64::from_le_bytes(spare[OFF_TAG..OFF_TAG + 8].try_into().unwrap());
        let ts = u64::from_le_bytes(spare[OFF_TS..OFF_TS + 8].try_into().unwrap());
        let checksum = u32::from_le_bytes(spare[OFF_CSUM..OFF_CSUM + 4].try_into().unwrap());
        let txn = u64::from_le_bytes(spare[OFF_TXN..OFF_TXN + 8].try_into().unwrap());
        Some(SpareInfo { kind, obsolete, tag, ts, checksum, txn })
    }

    /// Byte offset and value of the obsolete marker, for use with
    /// [`crate::FlashChip::program_spare`]. Programming this single byte is
    /// how every method "sets a page to obsolete".
    pub fn obsolete_patch() -> (usize, [u8; 1]) {
        (OFF_OBSOLETE, [0x00])
    }
}

const FNV_OFFSET: u32 = 0x811c_9dc5;
const FNV_PRIME: u32 = 0x0100_0193;
/// Independent FNV-1a states the page checksum steps side by side. One
/// state is a serial xor-multiply chain, a byte per multiplier latency
/// (≈ 2.8 µs per 2 KB page); eight states over 32-bit words have no
/// dependency between them, so the compiler steps them in vector
/// registers (≈ 0.2 µs per page, `page_checksum_2k` in the micro bench).
const LANES: usize = 8;

/// One FNV-1a step. For a fixed `x` it is a bijection of `h` (xor, then
/// multiplication by an odd number), and for a fixed `h` an injection of
/// `x` — which is what makes a change confined to one step's input
/// visible in the final value with certainty.
fn fnv_step(h: u32, x: u32) -> u32 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// Page checksum, the stand-in ECC for the data area: lane-interleaved
/// FNV-1a over little-endian 32-bit words.
///
/// Word `i` of the input steps lane `i % 8`, whole 32-byte blocks at a
/// time; the eight lanes are then folded, in order, through the same
/// step into one state, and the `len % 32` trailing bytes step that
/// state one at a time. Every step is a bijection of the state it
/// updates, so an error confined to one aligned 32-bit word (or one
/// trailing byte) always changes the result — the guarantee byte-serial
/// FNV-1a gives per byte; any other error is missed with probability
/// 2⁻³². Words are read with `from_le_bytes`, so the value does not
/// depend on the host's endianness.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut lanes = [FNV_OFFSET; LANES];
    let mut blocks = bytes.chunks_exact(4 * LANES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            let word = u32::from_le_bytes(word.try_into().expect("chunks_exact(4)"));
            *lane = fnv_step(*lane, word);
        }
    }
    let folded = lanes.iter().fold(FNV_OFFSET, |h, &lane| fnv_step(h, lane));
    blocks.remainder().iter().fold(folded, |h, &b| fnv_step(h, b as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let info = SpareInfo::new(PageKind::Base, 42, 1_000_007, 0xDEAD_BEEF);
        let mut spare = vec![0u8; 64];
        info.encode(&mut spare).unwrap();
        let back = SpareInfo::decode(&spare).unwrap();
        assert_eq!(back, info);
        assert_eq!(back.txn, NO_TXN);
        let tagged = info.with_txn(99);
        tagged.encode(&mut spare).unwrap();
        assert_eq!(SpareInfo::decode(&spare).unwrap().txn, 99);
    }

    #[test]
    fn erased_spare_decodes_as_free() {
        let spare = vec![0xFFu8; 64];
        let info = SpareInfo::decode(&spare).unwrap();
        assert_eq!(info.kind, PageKind::Free);
        assert!(!info.obsolete);
        assert_eq!(info.tag, u64::MAX);
        assert_eq!(info.txn, NO_TXN);
    }

    #[test]
    fn obsolete_patch_only_clears_bits() {
        let info = SpareInfo::new(PageKind::Diff, 7, 9, 1);
        let mut spare = vec![0u8; 64];
        info.encode(&mut spare).unwrap();
        let (off, patch) = SpareInfo::obsolete_patch();
        // A program is an AND: result must equal old & new.
        let old = spare[off];
        let new = old & patch[0];
        spare[off] = new;
        let back = SpareInfo::decode(&spare).unwrap();
        assert!(back.obsolete);
        assert_eq!(back.kind, PageKind::Diff);
        assert_eq!(back.tag, 7);
    }

    #[test]
    fn kind_bytes_round_trip() {
        for kind in [
            PageKind::Free,
            PageKind::Base,
            PageKind::Diff,
            PageKind::Data,
            PageKind::IplData,
            PageKind::IplLog,
            PageKind::Checkpoint,
            PageKind::CheckpointHead,
            PageKind::Bad,
        ] {
            assert_eq!(PageKind::from_byte(kind.to_byte()), Some(kind));
        }
        assert_eq!(PageKind::from_byte(0x77), None);
        // Retired kind bytes stay undecodable, so recovery skips such a
        // page as dead.
        assert_eq!(PageKind::from_byte(0xA5), None);
    }

    #[test]
    fn encode_requires_room() {
        let info = SpareInfo::new(PageKind::Data, 1, 2, 3);
        let mut small = vec![0u8; 8];
        assert!(matches!(info.encode(&mut small), Err(FlashError::BadBufferSize { .. })));
    }

    /// Deterministic pseudo-random bytes (xorshift64*), so the checksum
    /// properties below are checked on the same inputs on every run.
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn checksum_detects_every_single_bit_flip_of_a_page() {
        let mut page = noise(2048, 0x9e37_79b9_7f4a_7c15);
        let sum = fnv1a32(&page);
        for bit in 0..page.len() * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(fnv1a32(&page), sum, "flip of bit {bit} undetected");
            page[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(fnv1a32(&page), sum);
    }

    #[test]
    fn checksum_detects_every_single_byte_substitution() {
        // 64 bytes: whole blocks only. 100 bytes: three blocks and a
        // 4-byte serial tail.
        for len in [64usize, 100] {
            let mut input = noise(len, len as u64);
            let sum = fnv1a32(&input);
            for at in 0..len {
                let original = input[at];
                for delta in 1..=255u8 {
                    input[at] = original ^ delta;
                    assert_ne!(fnv1a32(&input), sum, "len {len}: byte {at} ^ {delta:#x}");
                }
                input[at] = original;
            }
        }
    }

    #[test]
    fn checksum_depends_on_length() {
        // Prefixes of one input — zeros (the value FNV's xor ignores),
        // erased bytes and noise — all hash apart, across block and tail
        // boundaries alike.
        for input in [vec![0u8; 131], vec![0xFF; 131], noise(131, 7)] {
            let sums: Vec<u32> = (0..=input.len()).map(|n| fnv1a32(&input[..n])).collect();
            for (a, sa) in sums.iter().enumerate() {
                for (b, sb) in sums.iter().enumerate().skip(a + 1) {
                    assert_ne!(sa, sb, "lengths {a} and {b} collide");
                }
            }
        }
    }

    /// The definition, spelled out with shifts instead of `from_le_bytes`
    /// and with indices instead of iterators.
    fn checksum_by_definition(bytes: &[u8]) -> u32 {
        let mut lanes = [FNV_OFFSET; LANES];
        let whole = bytes.len() / 32 * 32;
        for w in 0..whole / 4 {
            let b = &bytes[4 * w..4 * w + 4];
            let word = b[0] as u32 | (b[1] as u32) << 8 | (b[2] as u32) << 16 | (b[3] as u32) << 24;
            lanes[w % LANES] = (lanes[w % LANES] ^ word).wrapping_mul(FNV_PRIME);
        }
        let mut h = FNV_OFFSET;
        for lane in lanes {
            h = (h ^ lane).wrapping_mul(FNV_PRIME);
        }
        for &b in &bytes[whole..] {
            h = (h ^ b as u32).wrapping_mul(FNV_PRIME);
        }
        h
    }

    #[test]
    fn checksum_is_host_endianness_independent() {
        // Pinned values: a host that read words in its native order would
        // get others on big-endian hardware. Checksums are stored on
        // flash, so the value is part of the on-flash format.
        assert_eq!(fnv1a32(b""), 0x84fe_beed);
        let counting: Vec<u8> = (0..=99u8).collect();
        assert_eq!(fnv1a32(&counting), 0xaca4_1bc9);
        for len in [0usize, 1, 3, 4, 31, 32, 33, 64, 100, 2048] {
            let input = noise(len, 0xC0FFEE + len as u64);
            assert_eq!(fnv1a32(&input), checksum_by_definition(&input), "len {len}");
        }
    }
}
