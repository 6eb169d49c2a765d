//! Chip geometry, timing parameters and address types.
//!
//! Defaults reproduce Table 1 of the paper (Samsung K9L8G08U0M 2 Gbyte MLC
//! NAND): 32768 blocks x 64 pages x (2048 + 64) bytes, with
//! `T_read = 110 µs`, `T_write = 1010 µs`, `T_erase = 1500 µs`.

use std::fmt;

/// A physical page number: a global index over every page of the chip.
///
/// Page `p` lives in block `p / pages_per_block` at in-block offset
/// `p % pages_per_block`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ppn(pub u32);

/// A physical block number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Debug for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ppn({})", self.0)
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockId({})", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Structural parameters of the chip (Table 1: `N_block`, `N_page`,
/// `S_data`, `S_spare`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlashGeometry {
    /// Number of erase blocks (`N_block`).
    pub num_blocks: u32,
    /// Pages per block (`N_page`).
    pub pages_per_block: u32,
    /// Bytes in the data area of a page (`S_data`).
    pub data_size: usize,
    /// Bytes in the spare area of a page (`S_spare`).
    pub spare_size: usize,
}

impl FlashGeometry {
    /// Geometry of the Samsung K9L8G08U0M part from Table 1 of the paper:
    /// 32768 blocks x 64 pages x (2048 + 64) bytes = 2 Gbytes.
    pub const PAPER: FlashGeometry =
        FlashGeometry { num_blocks: 32_768, pages_per_block: 64, data_size: 2_048, spare_size: 64 };

    /// Same page/block shape as the paper but with `num_blocks` blocks,
    /// for scaled-down experiments and tests.
    pub const fn scaled(num_blocks: u32) -> FlashGeometry {
        FlashGeometry { num_blocks, pages_per_block: 64, data_size: 2_048, spare_size: 64 }
    }

    /// A deliberately tiny geometry for unit tests (fast to scan
    /// exhaustively).
    pub const fn tiny() -> FlashGeometry {
        FlashGeometry { num_blocks: 16, pages_per_block: 8, data_size: 256, spare_size: 32 }
    }

    /// Total number of pages on the chip.
    pub fn num_pages(&self) -> u32 {
        self.num_blocks * self.pages_per_block
    }

    /// Total data capacity in bytes (`N_block * N_page * S_data`).
    pub fn data_capacity(&self) -> u64 {
        self.num_pages() as u64 * self.data_size as u64
    }

    /// The block containing physical page `ppn`.
    pub fn block_of(&self, ppn: Ppn) -> BlockId {
        BlockId(ppn.0 / self.pages_per_block)
    }

    /// In-block page offset of `ppn`.
    pub fn page_in_block(&self, ppn: Ppn) -> u32 {
        ppn.0 % self.pages_per_block
    }

    /// First physical page of `block`.
    pub fn first_page(&self, block: BlockId) -> Ppn {
        Ppn(block.0 * self.pages_per_block)
    }

    /// Physical page `index` (0-based) within `block`.
    pub fn page_at(&self, block: BlockId, index: u32) -> Ppn {
        debug_assert!(index < self.pages_per_block);
        Ppn(block.0 * self.pages_per_block + index)
    }

    /// Whether `ppn` addresses a page on this chip.
    pub fn contains(&self, ppn: Ppn) -> bool {
        ppn.0 < self.num_pages()
    }
}

/// Access-time parameters of the chip in microseconds (Table 1: `T_read`,
/// `T_write`, `T_erase`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlashTiming {
    /// Time to read one page (µs).
    pub t_read_us: u64,
    /// Time to program one page (µs). Partial (spare-area) programs are
    /// charged the same, matching the paper's accounting where "setting a
    /// page to obsolete" counts as one write operation.
    pub t_write_us: u64,
    /// Time to erase one block (µs).
    pub t_erase_us: u64,
}

impl FlashTiming {
    /// Timing of the Samsung K9L8G08U0M part from Table 1 of the paper.
    pub const PAPER: FlashTiming =
        FlashTiming { t_read_us: 110, t_write_us: 1_010, t_erase_us: 1_500 };
}

impl Default for FlashTiming {
    fn default() -> Self {
        FlashTiming::PAPER
    }
}

/// Full chip configuration: geometry, timing and programming constraints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlashConfig {
    pub geometry: FlashGeometry,
    pub timing: FlashTiming,
    /// Number-of-programs budget for the data area of one page between two
    /// erases. MLC NAND allows a single full program (`NOP = 1`). Methods
    /// that rely on sector-programmable flash (IPL log pages, as in Lee &
    /// Moon's prototype) configure a larger budget; see DESIGN.md.
    pub nop_data: u8,
    /// Number-of-programs budget for the spare area. The paper (footnote 9)
    /// states the spare area "can be repeatedly performed up to four times
    /// without an erase operation".
    pub nop_spare: u8,
}

impl FlashConfig {
    /// The paper's chip, verbatim.
    pub fn paper() -> FlashConfig {
        FlashConfig {
            geometry: FlashGeometry::PAPER,
            timing: FlashTiming::PAPER,
            nop_data: 1,
            nop_spare: 4,
        }
    }

    /// The paper's chip scaled down to `num_blocks` blocks (same page and
    /// block shape, same timing).
    pub fn scaled(num_blocks: u32) -> FlashConfig {
        FlashConfig { geometry: FlashGeometry::scaled(num_blocks), ..FlashConfig::paper() }
    }

    /// Tiny chip for unit tests.
    pub fn tiny() -> FlashConfig {
        FlashConfig { geometry: FlashGeometry::tiny(), ..FlashConfig::paper() }
    }

    /// Builder-style override of the timing parameters (used by
    /// Experiment 5, which sweeps `T_read` and `T_write`).
    pub fn with_timing(mut self, timing: FlashTiming) -> FlashConfig {
        self.timing = timing;
        self
    }

    /// Builder-style override of the data-area NOP budget.
    pub fn with_nop_data(mut self, nop: u8) -> FlashConfig {
        self.nop_data = nop;
        self
    }
}

impl Default for FlashConfig {
    fn default() -> Self {
        FlashConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_matches_table_1() {
        let g = FlashGeometry::PAPER;
        assert_eq!(g.num_blocks, 32_768);
        assert_eq!(g.pages_per_block, 64);
        assert_eq!(g.data_size, 2_048);
        assert_eq!(g.spare_size, 64);
        // S_block = N_page * S_page = 64 * 2112 = 135168 bytes.
        assert_eq!(g.pages_per_block as usize * (g.data_size + g.spare_size), 135_168);
        // N_block * N_page * S_data = 2^15 * 2^6 * 2^11 = 2^32 bytes.
        // (The paper labels the part "2 Gbytes"; Table 1's parameters
        // multiply out to 4 GiB of data area — we follow Table 1 verbatim.)
        assert_eq!(g.data_capacity(), 1u64 << 32);
    }

    #[test]
    fn paper_timing_matches_table_1() {
        let t = FlashTiming::PAPER;
        assert_eq!(t.t_read_us, 110);
        assert_eq!(t.t_write_us, 1_010);
        assert_eq!(t.t_erase_us, 1_500);
    }

    #[test]
    fn address_arithmetic_round_trips() {
        let g = FlashGeometry::tiny();
        for b in 0..g.num_blocks {
            for i in 0..g.pages_per_block {
                let ppn = g.page_at(BlockId(b), i);
                assert_eq!(g.block_of(ppn), BlockId(b));
                assert_eq!(g.page_in_block(ppn), i);
            }
        }
        assert_eq!(g.first_page(BlockId(3)), Ppn(24));
        assert!(g.contains(Ppn(g.num_pages() - 1)));
        assert!(!g.contains(Ppn(g.num_pages())));
    }

    #[test]
    fn scaled_keeps_shape() {
        let c = FlashConfig::scaled(128);
        assert_eq!(c.geometry.num_blocks, 128);
        assert_eq!(c.geometry.pages_per_block, 64);
        assert_eq!(c.geometry.data_size, 2_048);
        assert_eq!(c.timing, FlashTiming::PAPER);
    }
}
