//! The power-loss journal: every crash image of a workload from one
//! fault-free run.
//!
//! [`FlashChip::arm_fault`]`(g)` lets `g` destructive ops through and
//! fails the next one without changing chip state, so the chip a crash
//! at op `g` leaves behind is the chip as it stood before that op. A
//! journal records those ops instead of failing one. Attach it to a
//! store's chips ([`FlashChip::attach_journal`]), run the workload once,
//! and [`PowerLossJournal::images`] yields image `g` for every
//! `g in 0..=position()`: the chips as they were at attach time with the
//! first `g` journaled ops replayed through the public program and erase
//! calls — what `arm_fault(g)` leaves, without re-running the workload
//! once per `g`.
//!
//! Chips attached to one journal share one op order, so an image is the
//! whole device with power failing on every chip at once. A journal is
//! a test API, like `arm_fault`: a chip without one pays one branch per
//! destructive op.

use crate::chip::FlashChip;
use crate::error::FlashError;
use crate::geometry::{BlockId, Ppn};
use std::sync::{Arc, Mutex, MutexGuard};

/// A destructive op that passed a chip's gate, with its arguments.
#[derive(Clone)]
pub(crate) enum JournalOp {
    Page(Ppn, Box<[u8]>, Box<[u8]>),
    Partial(Ppn, usize, Box<[u8]>),
    Spare(Ppn, usize, Box<[u8]>),
    Erase(BlockId),
}

impl JournalOp {
    fn replay(&self, chip: &mut FlashChip) {
        let result = match self {
            JournalOp::Page(ppn, data, spare) => chip.program_page(*ppn, data, spare),
            JournalOp::Partial(ppn, offset, bytes) => chip.program_partial(*ppn, *offset, bytes),
            JournalOp::Spare(ppn, offset, bytes) => chip.program_spare(*ppn, *offset, bytes),
            JournalOp::Erase(block) => chip.erase_block(*block),
        };
        // The op passed the gate once on an identical chip, so it passes
        // again; an erase that failed then (injected, worn out) fails the
        // same way now.
        if let Err(e) = result {
            assert!(matches!(e, FlashError::EraseFailed(_)), "journal replay diverged: {e}");
        }
    }
}

#[derive(Default)]
struct Log {
    /// Each attached chip as it was when attached, in attach order.
    start: Vec<FlashChip>,
    /// `(index into start, op)` in the order the chips performed them.
    ops: Vec<(usize, JournalOp)>,
}

/// A power-loss journal shared by any number of chips (see the module
/// docs). Cloning the journal clones the handle, not the log.
#[derive(Clone, Default)]
pub struct PowerLossJournal(Arc<Mutex<Log>>);

impl PowerLossJournal {
    pub fn new() -> PowerLossJournal {
        PowerLossJournal::default()
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Destructive ops journaled so far: the image a power loss right
    /// now would leave.
    pub fn position(&self) -> u64 {
        self.log().ops.len() as u64
    }

    /// Images `0..=position()`, each one chip per attached chip in attach
    /// order.
    pub fn images(&self) -> impl Iterator<Item = Vec<FlashChip>> {
        let (mut chips, ops) = {
            let log = self.log();
            (log.start.clone(), log.ops.clone())
        };
        let first = chips.clone();
        std::iter::once(first).chain(ops.into_iter().map(move |(c, op)| {
            op.replay(&mut chips[c]);
            chips.clone()
        }))
    }
}

/// A chip's handle on its journal. A clone of the chip starts detached:
/// crash images and other copies never write to the journal.
#[derive(Default)]
pub(crate) struct JournalTap(Option<(PowerLossJournal, usize)>);

impl Clone for JournalTap {
    fn clone(&self) -> JournalTap {
        JournalTap(None)
    }
}

impl JournalTap {
    /// Journal `chip`'s current state as a start image and tap its ops.
    pub(crate) fn attach(journal: &PowerLossJournal, chip: &FlashChip) -> JournalTap {
        let mut start = chip.clone();
        start.disarm_fault();
        let mut log = journal.log();
        log.start.push(start);
        JournalTap(Some((journal.clone(), log.start.len() - 1)))
    }

    /// Append the op `op` builds; it is built only when a journal listens.
    pub(crate) fn record(&self, op: impl FnOnce() -> JournalOp) {
        if let Some((journal, chip)) = &self.0 {
            journal.log().ops.push((*chip, op()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashConfig;
    use crate::spare::{fnv1a32, PageKind, SpareInfo};

    fn page(chip: &FlashChip, fill: u8) -> (Vec<u8>, Vec<u8>) {
        let g = chip.geometry();
        let data = vec![fill; g.data_size];
        let mut spare = vec![0xFF; g.spare_size];
        SpareInfo::new(PageKind::Data, 1, 1, fnv1a32(&data)).encode(&mut spare).unwrap();
        (data, spare)
    }

    /// A chip whose next erase of block 2 fails. State set outside the
    /// program and erase calls is not journaled, so it is set before
    /// attaching.
    fn chip() -> FlashChip {
        let mut c = FlashChip::new(FlashConfig::tiny().with_nop_data(4));
        c.fail_next_erase_of(BlockId(2));
        c
    }

    /// Ops of every kind up to the first power loss, a failed erase among
    /// them.
    fn workload(c: &mut FlashChip) -> crate::Result<()> {
        let (data, spare) = page(c, 0x3C);
        c.program_page(Ppn(0), &data, &spare)?;
        c.mark_obsolete(Ppn(0))?;
        c.program_partial(Ppn(9), 4, &[0x11; 8])?;
        c.erase_block(BlockId(0))?;
        match c.erase_block(BlockId(2)) {
            Err(FlashError::EraseFailed(_)) => {}
            other => other?,
        }
        c.program_page(Ppn(1), &data, &spare)
    }

    #[test]
    fn images_are_what_arm_fault_leaves() {
        let mut c = chip();
        let journal = PowerLossJournal::new();
        c.attach_journal(&journal);
        workload(&mut c).unwrap();
        assert_eq!(journal.position(), 6);
        let images: Vec<u64> = journal.images().map(|chips| chips[0].image_fingerprint()).collect();
        assert_eq!(images.len(), 7);
        for (g, fingerprint) in images.into_iter().enumerate() {
            let mut c = chip();
            c.arm_fault(g as u64);
            assert_eq!(workload(&mut c).is_err(), g < 6, "image {g}");
            assert_eq!(c.image_fingerprint(), fingerprint, "image {g}");
        }
    }

    #[test]
    fn ops_that_fail_validation_are_not_journaled() {
        let mut c = FlashChip::new(FlashConfig::tiny());
        c.fail_next_erase_of(BlockId(3));
        let journal = PowerLossJournal::new();
        c.attach_journal(&journal);
        let (data, spare) = page(&c, 0x0F);
        c.program_page(Ppn(0), &data, &spare).unwrap();
        c.program_spare(Ppn(5), 0, &[0x00]).unwrap();
        let nop = c.program_page(Ppn(0), &data, &spare);
        assert!(matches!(nop, Err(FlashError::NopExceeded { .. })));
        let conflict = c.program_spare(Ppn(5), 0, &[0xFF]);
        assert!(matches!(conflict, Err(FlashError::ProgramConflict { .. })));
        // A failed erase passed the gate: journaled, and the block breaks.
        assert_eq!(c.erase_block(BlockId(3)), Err(FlashError::EraseFailed(BlockId(3))));
        let bad = c.program_page(Ppn(24), &data, &spare);
        assert_eq!(bad, Err(FlashError::BadBlock(BlockId(3))));
        c.arm_fault(0);
        assert_eq!(c.erase_block(BlockId(4)), Err(FlashError::PowerLoss));
        assert_eq!(journal.position(), 3);
        let last = journal.images().last().unwrap();
        assert!(last[0].is_broken(BlockId(3)));
        assert_eq!(last[0].image_fingerprint(), c.image_fingerprint());
    }

    #[test]
    fn clones_do_not_write_to_the_journal_and_chips_share_one_order() {
        let journal = PowerLossJournal::new();
        let mut a = FlashChip::new(FlashConfig::tiny());
        let mut b = a.clone();
        a.attach_journal(&journal);
        b.attach_journal(&journal);
        let mut copy = a.clone();
        copy.erase_block(BlockId(1)).unwrap();
        assert_eq!(journal.position(), 0);
        b.erase_block(BlockId(5)).unwrap();
        a.erase_block(BlockId(6)).unwrap();
        let erased: Vec<(u64, u64)> = journal
            .images()
            .map(|c| (c[0].wear_summary().total_erases, c[1].wear_summary().total_erases))
            .collect();
        assert_eq!(erased, [(0, 0), (0, 1), (1, 1)]);
    }
}
