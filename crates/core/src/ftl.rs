//! Shared Flash Translation Layer machinery: out-place page allocation,
//! per-block accounting and garbage-collection victim selection.
//!
//! OPU and PDL both write pages *out-place*: an updated page goes to a
//! freshly allocated physical page and the stale copy is marked obsolete.
//! The [`BlockManager`] hands out pages sequentially from one *active*
//! block, keeps `reserve` blocks free so garbage collection can always
//! relocate a victim's valid pages, and picks victims according to the
//! configured [`GcPolicy`]:
//!
//! * [`GcPolicy::Greedy`] — most reclaimable pages (the paper's setup);
//! * [`GcPolicy::WearAware`] — greedy with wear tie-breaking (ablation).
//!
//! Page validity lives here too, in RAM: a *dead bit* per physical page,
//! set when the method reports the page obsolete ([`BlockManager::note_obsolete`])
//! and cleared when its block is erased — the per-page validity bitmap
//! page-mapping FTLs keep for GC (Dayan & Bonnet). GC asks
//! [`BlockManager::is_dead`] instead of reading a victim page's spare area,
//! so it reads only the pages it moves. The on-flash obsolete mark is
//! still programmed (Figure 8), but nothing at run time reads it back.

use crate::error::CoreError;
use crate::Result;
use pdl_flash::{BlockId, Ppn};

/// Lifecycle state of a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockState {
    /// Fully erased, in the free pool.
    Free,
    /// Currently receiving allocations.
    Active,
    /// Fully allocated (or retired after recovery); a GC candidate.
    Used,
    /// Reserved for out-of-band use (checkpoint root region): never
    /// allocated from, never a GC victim.
    Reserved,
    /// Retired after an erase failure (bad-block management): never
    /// allocated from, never a GC victim.
    Bad,
}

/// Outcome of an allocation attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocOutcome {
    Page(Ppn),
    /// The free pool dropped to the reserve: the caller must garbage
    /// collect before retrying with `gc_mode = false`.
    NeedsGc,
}

/// Per-block allocator with GC victim selection, and the
/// in-RAM record of which written pages are dead.
#[derive(Clone, Debug)]
pub struct BlockManager {
    pages_per_block: u32,
    reserve: u32,
    states: Vec<BlockState>,
    free: std::collections::VecDeque<u32>,
    active: Option<(u32, u32)>, // (block, next in-block index)
    /// Pages allocated (and presumed programmed) per block.
    written: Vec<u32>,
    /// Pages marked obsolete per block: the popcount of the block's
    /// bits in `dead`.
    obsolete: Vec<u32>,
    /// One bit per physical page, set while the page is written and
    /// holds nothing live (bit `p % 64` of word `p / 64`).
    dead: Vec<u64>,
    /// Victim-selection policy.
    policy: GcPolicy,
    /// Erase count per block, mirrored here for the wear-aware policy.
    erases: Vec<u64>,
}

/// Garbage-collection victim selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GcPolicy {
    /// Pick the block with the most reclaimable pages (the paper's setup;
    /// it uses the greedy collection of Woodhouse's JFFS).
    #[default]
    Greedy,
    /// Among blocks within 90% of the best reclaimable count, pick the one
    /// erased least often. An ablation, not part of the paper.
    WearAware,
}

impl BlockManager {
    pub fn new(num_blocks: u32, pages_per_block: u32, reserve: u32) -> BlockManager {
        BlockManager {
            pages_per_block,
            reserve,
            states: vec![BlockState::Free; num_blocks as usize],
            free: (0..num_blocks).collect(),
            active: None,
            written: vec![0; num_blocks as usize],
            obsolete: vec![0; num_blocks as usize],
            dead: vec![0; (num_blocks as usize * pages_per_block as usize).div_ceil(64)],
            policy: GcPolicy::Greedy,
            erases: vec![0; num_blocks as usize],
        }
    }

    pub fn set_policy(&mut self, policy: GcPolicy) {
        self.policy = policy;
    }

    /// Permanently remove `block` from the allocatable pool (checkpoint
    /// root region). Must be called before any allocation.
    pub fn reserve_block(&mut self, block: BlockId) {
        debug_assert_eq!(self.states[block.0 as usize], BlockState::Free, "reserve before use");
        self.free.retain(|b| *b != block.0);
        self.states[block.0 as usize] = BlockState::Reserved;
    }

    /// Retire `block` after an erase failure: it keeps whatever stale
    /// content it holds but is never allocated or collected again.
    pub fn retire_block(&mut self, block: BlockId) {
        self.free.retain(|b| *b != block.0);
        if self.active.map(|(ab, _)| ab == block.0).unwrap_or(false) {
            self.active = None;
        }
        self.states[block.0 as usize] = BlockState::Bad;
    }

    pub fn num_blocks(&self) -> u32 {
        self.states.len() as u32
    }

    /// Blocks currently in the free pool (diagnostics).
    #[cfg(test)]
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Pages programmed into `block` since its last erase.
    pub fn written_in(&self, block: BlockId) -> u32 {
        self.written[block.0 as usize]
    }

    /// Pages marked obsolete in `block` (diagnostics).
    #[cfg(test)]
    pub fn obsolete_in(&self, block: BlockId) -> u32 {
        self.obsolete[block.0 as usize]
    }

    /// Valid (live) pages in `block`.
    pub fn valid_in(&self, block: BlockId) -> u32 {
        self.written[block.0 as usize] - self.obsolete[block.0 as usize]
    }

    /// Whether the caller should run garbage collection before the next
    /// regular allocation (diagnostics; methods use [`Self::normal_capacity`]).
    #[cfg(test)]
    pub fn gc_needed(&self) -> bool {
        self.normal_capacity() == 0
    }

    /// Pages left on the active block.
    fn active_remaining(&self) -> u32 {
        match self.active {
            Some((_, next)) => self.pages_per_block - next,
            None => 0,
        }
    }

    /// Pages guaranteed allocatable without dipping into the GC reserve:
    /// the active block's remainder plus whole free blocks beyond the
    /// reserve. Methods call GC until this covers their next multi-page
    /// operation, so GC never interleaves with one.
    pub fn normal_capacity(&self) -> u64 {
        let beyond_reserve = self.free.len().saturating_sub(self.reserve as usize) as u64;
        self.active_remaining() as u64 + beyond_reserve * self.pages_per_block as u64
    }

    /// Pages guaranteed allocatable in GC mode: the free pool plus the
    /// active block's remainder. GC must pick victims whose relocation
    /// fits here, or a failed erase (bad block) could strand it
    /// mid-relocation.
    pub fn gc_capacity(&self) -> u64 {
        self.active_remaining() as u64 + self.free.len() as u64 * self.pages_per_block as u64
    }

    /// Allocate the next physical page. With `gc_mode = false` the free
    /// pool never drops below the reserve; garbage collection itself
    /// passes `gc_mode = true` to use the reserve for relocation.
    pub fn alloc(&mut self, gc_mode: bool) -> Result<AllocOutcome> {
        let (block, next) = match self.active {
            Some(s) => s,
            None => {
                let can_take = if gc_mode {
                    !self.free.is_empty()
                } else {
                    self.free.len() > self.reserve as usize
                };
                if !can_take {
                    // In GC mode the reserve itself ran dry: a sizing bug,
                    // not a normal GC trigger.
                    return if gc_mode {
                        Err(CoreError::StorageFull)
                    } else {
                        Ok(AllocOutcome::NeedsGc)
                    };
                }
                let b = self.free.pop_front().expect("free pool non-empty");
                self.states[b as usize] = BlockState::Active;
                (b, 0)
            }
        };
        let ppn = Ppn(block * self.pages_per_block + next);
        self.written[block as usize] += 1;
        self.active = if next + 1 == self.pages_per_block {
            self.states[block as usize] = BlockState::Used;
            None
        } else {
            Some((block, next + 1))
        };
        Ok(AllocOutcome::Page(ppn))
    }

    /// Record that `ppn` holds nothing live any more: its dead bit is set
    /// and its block's obsolete count rises. Each page dies once per
    /// erase cycle.
    pub fn note_obsolete(&mut self, ppn: Ppn) {
        let b = (ppn.0 / self.pages_per_block) as usize;
        debug_assert!(ppn.0 % self.pages_per_block < self.written[b], "{ppn} was never written");
        debug_assert!(!self.is_dead(ppn), "{ppn} noted obsolete twice");
        self.set_dead(ppn);
    }

    fn set_dead(&mut self, ppn: Ppn) {
        self.dead[ppn.0 as usize / 64] |= 1 << (ppn.0 % 64);
        self.obsolete[(ppn.0 / self.pages_per_block) as usize] += 1;
    }

    /// Whether `ppn` was noted obsolete since its block's last erase. A
    /// written page that is not dead is live: GC moves it.
    pub fn is_dead(&self, ppn: Ppn) -> bool {
        self.dead[ppn.0 as usize / 64] & (1 << (ppn.0 % 64)) != 0
    }

    /// Clear the dead bits of `block`'s pages.
    fn clear_dead(&mut self, block: usize) {
        let first = block * self.pages_per_block as usize;
        for p in first..first + self.pages_per_block as usize {
            self.dead[p / 64] &= !(1 << (p % 64));
        }
    }

    /// Check the page bitmap against the method's tables (tests call this
    /// between operations): every block's obsolete count is the popcount
    /// of its dead bits, no page past a block's fill level is dead, and in
    /// every block that is neither reserved nor retired a written page is
    /// dead exactly when `live` says the tables hold nothing there.
    pub fn check_pages(&self, live: impl Fn(Ppn) -> bool) -> std::result::Result<(), String> {
        for b in 0..self.states.len() {
            let first = b as u32 * self.pages_per_block;
            let written = self.written[b];
            let mut dead = 0;
            for i in 0..self.pages_per_block {
                let ppn = Ppn(first + i);
                let is_dead = self.is_dead(ppn);
                dead += u32::from(is_dead);
                if i >= written {
                    if is_dead {
                        return Err(format!("{ppn} is dead past block {b}'s fill level {written}"));
                    }
                } else if !matches!(self.states[b], BlockState::Reserved | BlockState::Bad)
                    && is_dead == live(ppn)
                {
                    let (bit, tables) = if is_dead { ("dead", "live") } else { ("live", "dead") };
                    return Err(format!(
                        "{ppn} is {bit} in the page bitmap, {tables} in the tables"
                    ));
                }
            }
            if dead != self.obsolete[b] {
                return Err(format!(
                    "block {b} counts {} obsolete pages, its bitmap {dead}",
                    self.obsolete[b]
                ));
            }
        }
        Ok(())
    }

    /// Choose a GC victim: a `Used` block, preferred according to the
    /// configured [`GcPolicy`], whose live pages can be relocated into at
    /// most `max_valid` free pages and which reclaims at least one page
    /// (obsolete pages plus the never-written tail). Returns `None` when
    /// no suitable block exists — the store is genuinely full (or too
    /// broken to proceed).
    pub fn pick_victim(&self, max_valid: u32) -> Option<BlockId> {
        self.select_victim(max_valid, &std::collections::HashSet::new())
    }

    /// [`Self::pick_victim`] restricted to blocks outside `pinned`: an
    /// in-flight transaction commit batch pins the blocks holding its
    /// pre-images (the superseded base pages and differentials whose
    /// obsolete marks are deferred until the commit record is durable) —
    /// erasing one would destroy the only state a crash could roll back
    /// to, and those pages cannot be relocated mid-commit.
    pub fn select_victim(
        &self,
        max_valid: u32,
        pinned: &std::collections::HashSet<u32>,
    ) -> Option<BlockId> {
        let mut best: Option<u32> = None;
        let mut best_reclaim = 0u32;
        let mut best_erases = u64::MAX;
        for b in 0..self.states.len() as u32 {
            if self.states[b as usize] != BlockState::Used || pinned.contains(&b) {
                continue;
            }
            let valid = self.valid_in(BlockId(b));
            if valid > max_valid {
                continue;
            }
            let reclaim = self.pages_per_block - valid;
            if reclaim == 0 {
                continue;
            }
            let better = match self.policy {
                GcPolicy::Greedy => best.is_none() || reclaim > best_reclaim,
                GcPolicy::WearAware => {
                    // Prefer clearly-more-reclaimable blocks; break near
                    // ties by wear.
                    best.is_none()
                        || reclaim * 10 > best_reclaim * 11
                        || (reclaim * 10 >= best_reclaim * 9
                            && self.erases[b as usize] < best_erases)
                }
            };
            if better {
                best = Some(b);
                best_reclaim = reclaim;
                best_erases = self.erases[b as usize];
            }
        }
        best.map(BlockId)
    }

    /// Record that `block` was erased: it returns to the free pool.
    pub fn on_erased(&mut self, block: BlockId) {
        let b = block.0 as usize;
        debug_assert_ne!(self.states[b], BlockState::Free, "double erase of free block");
        debug_assert!(
            self.active.map(|(ab, _)| ab != block.0).unwrap_or(true),
            "erasing the active block"
        );
        self.states[b] = BlockState::Free;
        self.written[b] = 0;
        self.obsolete[b] = 0;
        self.clear_dead(b);
        self.erases[b] += 1;
        self.free.push_back(block.0);
    }

    /// Rebuild allocator state after a crash-recovery scan: per-block
    /// written page counts as found on flash, and the page set `live`
    /// that the recovered tables hold something in. Every other written
    /// page is dead, and each block's obsolete count is their number.
    /// Partially-written blocks become `Used` (their erased tail is
    /// reclaimed by future GC); `Reserved` blocks keep their state.
    pub fn rebuild(&mut self, written: &[u32], live: impl Fn(Ppn) -> bool) {
        assert_eq!(written.len(), self.states.len());
        self.dead.fill(0);
        self.free.clear();
        self.active = None;
        for b in 0..self.states.len() {
            if matches!(self.states[b], BlockState::Reserved | BlockState::Bad) {
                continue;
            }
            self.written[b] = written[b];
            self.obsolete[b] = 0;
            for i in 0..written[b] {
                let ppn = Ppn(b as u32 * self.pages_per_block + i);
                if !live(ppn) {
                    self.set_dead(ppn);
                }
            }
            if written[b] == 0 {
                self.states[b] = BlockState::Free;
                self.free.push_back(b as u32);
            } else {
                self.states[b] = BlockState::Used;
            }
        }
    }

    /// Total live pages across all blocks (diagnostics).
    #[cfg(test)]
    pub fn total_valid(&self) -> u64 {
        (0..self.states.len() as u32).map(|b| self.valid_in(BlockId(b)) as u64).sum()
    }
}

/// Mark a page obsolete, tolerating bad blocks: a page stranded in a
/// block whose erase failed cannot be programmed, but its staleness is
/// harmless (no live table entry points at it, and the block is retired).
pub(crate) fn mark_obsolete_lenient(
    chip: &mut pdl_flash::FlashChip,
    ppn: Ppn,
) -> crate::Result<()> {
    match chip.mark_obsolete(ppn) {
        Ok(()) => Ok(()),
        Err(pdl_flash::FlashError::BadBlock(_)) => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Build a spare-area image for a freshly programmed page.
pub(crate) fn make_spare(
    spare_size: usize,
    kind: pdl_flash::PageKind,
    tag: u64,
    ts: u64,
    data: &[u8],
) -> Vec<u8> {
    make_spare_txn(spare_size, kind, tag, ts, pdl_flash::NO_TXN, data)
}

/// Build a spare-area image for a *migrated* copy of an existing page,
/// carrying the original's metadata — including its stored checksum —
/// forward verbatim (only the obsolete mark is reset).
///
/// GC/merge relocation paths must use this rather than recomputing a
/// checksum over the bytes they just read: recomputing would *launder* a
/// corrupt page (fresh checksum over rotten bytes) and make the damage
/// undetectable forever. Carrying the original checksum keeps a corrupt
/// page detectably corrupt wherever it migrates; for an intact page the
/// result is byte-identical to a fresh checksum.
pub(crate) fn make_spare_preserving(spare_size: usize, info: &pdl_flash::SpareInfo) -> Vec<u8> {
    let mut spare = vec![0xFF; spare_size];
    pdl_flash::SpareInfo { obsolete: false, ..*info }
        .encode(&mut spare)
        .expect("spare area large enough");
    spare
}

/// Build a spare-area image carrying a commit-visibility transaction tag
/// (PDL Case-3 base pages written inside a commit batch).
pub(crate) fn make_spare_txn(
    spare_size: usize,
    kind: pdl_flash::PageKind,
    tag: u64,
    ts: u64,
    txn: u64,
    data: &[u8],
) -> Vec<u8> {
    let mut spare = vec![0xFF; spare_size];
    pdl_flash::SpareInfo::new(kind, tag, ts, pdl_flash::fnv1a32(data))
        .with_txn(txn)
        .encode(&mut spare)
        .expect("spare area large enough");
    spare
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> BlockManager {
        BlockManager::new(8, 4, 2)
    }

    /// A `rebuild` live set in which the first `dead[b]` pages of each
    /// block `b` hold nothing.
    fn live_past(dead: &[u32], pages_per_block: u32) -> impl Fn(Ppn) -> bool + '_ {
        move |p| p.0 % pages_per_block >= dead[(p.0 / pages_per_block) as usize]
    }

    #[test]
    fn allocates_sequentially_within_blocks() {
        let mut m = mgr();
        let mut pages = Vec::new();
        for _ in 0..8 {
            match m.alloc(false).unwrap() {
                AllocOutcome::Page(p) => pages.push(p.0),
                AllocOutcome::NeedsGc => panic!("premature GC"),
            }
        }
        assert_eq!(pages, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(m.written_in(BlockId(0)), 4);
        assert_eq!(m.written_in(BlockId(1)), 4);
    }

    #[test]
    fn reserve_triggers_gc() {
        let mut m = mgr();
        // 8 blocks, reserve 2: 6 blocks = 24 pages allocatable normally.
        for _ in 0..24 {
            assert!(matches!(m.alloc(false).unwrap(), AllocOutcome::Page(_)));
        }
        assert!(matches!(m.alloc(false).unwrap(), AllocOutcome::NeedsGc));
        assert!(m.gc_needed());
        // GC mode can still dip into the reserve.
        assert!(matches!(m.alloc(true).unwrap(), AllocOutcome::Page(_)));
    }

    #[test]
    fn gc_mode_exhaustion_is_storage_full() {
        let mut m = BlockManager::new(2, 2, 1);
        for _ in 0..4 {
            let _ = m.alloc(true).unwrap();
        }
        assert!(matches!(m.alloc(true), Err(CoreError::StorageFull)));
    }

    #[test]
    fn normal_capacity_never_counts_the_reserve() {
        // The one allocation stream is the guaranteed one: normal_capacity
        // counts its active remainder plus whole free blocks beyond the
        // reserve, and never the reserve itself.
        let mut m = BlockManager::new(4, 4, 1);
        assert_eq!(m.normal_capacity(), 3 * 4);
        let _ = m.alloc(false).unwrap();
        assert_eq!(m.normal_capacity(), 3 + 2 * 4);
        for left in (1..=11).rev() {
            assert_eq!(m.normal_capacity(), left);
            assert!(matches!(m.alloc(false).unwrap(), AllocOutcome::Page(_)));
        }
        assert_eq!(m.normal_capacity(), 0);
        assert!(matches!(m.alloc(false).unwrap(), AllocOutcome::NeedsGc));
        // Only the reserve block is left, for GC mode alone.
        assert_eq!(m.gc_capacity(), 4);
    }

    #[test]
    fn gc_mode_reaches_every_page_gc_capacity_counts() {
        // Normal allocation drains the pool down to the reserve; GC mode
        // then spills into the reserve block. Every page gc_capacity
        // counts must be reachable, and the next one is StorageFull.
        let mut m = BlockManager::new(2, 4, 1);
        for _ in 0..4 {
            assert!(matches!(m.alloc(false).unwrap(), AllocOutcome::Page(_)));
        }
        assert!(matches!(m.alloc(false).unwrap(), AllocOutcome::NeedsGc));
        for left in (1..=4).rev() {
            assert_eq!(m.gc_capacity(), left);
            let p = match m.alloc(true).unwrap() {
                AllocOutcome::Page(p) => p,
                other => panic!("GC mode must allocate, got {other:?}"),
            };
            assert_eq!(p.0 / 4, 1, "spilled pages come from the reserve block");
        }
        assert_eq!(m.gc_capacity(), 0);
        assert!(matches!(m.alloc(true), Err(CoreError::StorageFull)));
    }

    #[test]
    fn victim_is_most_reclaimable() {
        let mut m = mgr();
        let mut pages = Vec::new();
        for _ in 0..12 {
            if let AllocOutcome::Page(p) = m.alloc(false).unwrap() {
                pages.push(p);
            }
        }
        // Block 0 gets 1 obsolete page, block 1 gets 3.
        m.note_obsolete(pages[0]);
        m.note_obsolete(pages[4]);
        m.note_obsolete(pages[5]);
        m.note_obsolete(pages[6]);
        assert_eq!(m.pick_victim(u32::MAX), Some(BlockId(1)));
        m.on_erased(BlockId(1));
        assert_eq!(m.valid_in(BlockId(1)), 0);
        assert_eq!(m.pick_victim(u32::MAX), Some(BlockId(0)));
    }

    #[test]
    fn fully_valid_blocks_are_not_victims() {
        let mut m = mgr();
        for _ in 0..4 {
            let _ = m.alloc(false).unwrap();
        }
        // Block 0 fully written, zero obsolete: nothing to reclaim.
        assert_eq!(m.pick_victim(u32::MAX), None);
    }

    #[test]
    fn partially_written_used_blocks_can_be_victims_after_rebuild() {
        let mut m = mgr();
        // Simulate recovery: block 3 half written, block 2 full and half
        // obsolete.
        let mut written = vec![0u32; 8];
        let mut obsolete = vec![0u32; 8];
        written[3] = 2;
        written[2] = 4;
        obsolete[2] = 2;
        m.rebuild(&written, live_past(&obsolete, 4));
        assert_eq!(m.free_blocks(), 6);
        // Block 3 reclaims 2 (tail), block 2 reclaims 2 (obsolete): greedy
        // picks the first best found.
        let v = m.pick_victim(u32::MAX).unwrap();
        assert!(v == BlockId(2) || v == BlockId(3));
    }

    #[test]
    fn erase_returns_block_to_pool() {
        let mut m = BlockManager::new(3, 2, 1);
        for _ in 0..4 {
            let _ = m.alloc(false).unwrap();
        }
        assert!(matches!(m.alloc(false).unwrap(), AllocOutcome::NeedsGc));
        m.note_obsolete(Ppn(0));
        m.note_obsolete(Ppn(1));
        let v = m.pick_victim(u32::MAX).unwrap();
        assert_eq!(v, BlockId(0));
        m.on_erased(v);
        assert!(matches!(m.alloc(false).unwrap(), AllocOutcome::Page(_)));
    }

    #[test]
    fn wear_aware_prefers_less_worn_near_ties() {
        let mut m = BlockManager::new(4, 4, 1);
        m.set_policy(GcPolicy::WearAware);
        let mut written = vec![4u32; 4];
        written[3] = 0;
        let obsolete = vec![2u32; 4];
        m.rebuild(&written, live_past(&obsolete, 4));
        // Wear blocks 0 and 1 heavily.
        m.erases[0] = 10;
        m.erases[1] = 10;
        m.erases[2] = 1;
        assert_eq!(m.pick_victim(u32::MAX), Some(BlockId(2)));
    }

    #[test]
    fn total_valid_tracks_live_pages() {
        let mut m = mgr();
        for _ in 0..6 {
            let _ = m.alloc(false).unwrap();
        }
        m.note_obsolete(Ppn(2));
        assert_eq!(m.total_valid(), 5);
    }

    #[test]
    fn dead_bits_follow_obsolete_notes_erases_and_rebuilds() {
        let mut m = mgr();
        for _ in 0..6 {
            let _ = m.alloc(false).unwrap();
        }
        m.note_obsolete(Ppn(1));
        m.note_obsolete(Ppn(4));
        let dead: Vec<u32> = (0..6).filter(|&p| m.is_dead(Ppn(p))).collect();
        assert_eq!(dead, [1, 4]);
        assert_eq!((m.obsolete_in(BlockId(0)), m.obsolete_in(BlockId(1))), (1, 1));
        m.check_pages(|p| ![1, 4].contains(&p.0)).unwrap();
        // The bitmap disagreeing with the tables either way is reported.
        assert!(m.check_pages(|p| p.0 != 1).is_err());
        assert!(m.check_pages(|p| ![1, 4, 5].contains(&p.0)).is_err());
        m.note_obsolete(Ppn(0));
        m.note_obsolete(Ppn(2));
        m.note_obsolete(Ppn(3));
        m.on_erased(BlockId(0));
        assert!((0..4).all(|p| !m.is_dead(Ppn(p))), "an erase clears its block's bits");
        assert!(m.is_dead(Ppn(4)));
        // Recovery: the tables' live set decides every written page.
        let mut written = vec![0u32; 8];
        written[2] = 3;
        m.rebuild(&written, |p| p.0 == 9);
        let dead: Vec<u32> = (0..32).filter(|&p| m.is_dead(Ppn(p))).collect();
        assert_eq!(dead, [8, 10]);
        assert_eq!(m.obsolete_in(BlockId(2)), 2);
        m.check_pages(|p| p.0 == 9).unwrap();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "noted obsolete twice")]
    fn a_page_dies_once() {
        let mut m = mgr();
        let _ = m.alloc(false).unwrap();
        m.note_obsolete(Ppn(0));
        m.note_obsolete(Ppn(0));
    }
}
