//! Operation counters and simulated-time accounting.
//!
//! Every read/program/erase adds its Table-1 latency to the ledger of the
//! *current context*. The paper amortises garbage-collection cost into the
//! write cost and draws it as the "slashed area" of Figure 12(b); keeping
//! per-context ledgers lets the harness reproduce that decomposition while
//! still reporting combined totals.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Who is currently driving the chip. Set via
/// [`crate::FlashChip::set_context`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OpContext {
    /// Regular reads/writes issued on behalf of the storage system.
    #[default]
    User,
    /// Garbage collection / merge activity.
    Gc,
    /// Crash-recovery scans.
    Recovery,
}

/// Counts and simulated time for one context.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub reads: u64,
    pub writes: u64,
    pub erases: u64,
    pub read_us: u64,
    pub write_us: u64,
    pub erase_us: u64,
}

impl OpCounts {
    /// Total simulated time across the three operation kinds.
    pub fn total_us(&self) -> u64 {
        self.read_us + self.write_us + self.erase_us
    }

    /// Total number of operations.
    pub fn total_ops(&self) -> u64 {
        self.reads + self.writes + self.erases
    }
}

impl Add for OpCounts {
    type Output = OpCounts;
    fn add(self, o: OpCounts) -> OpCounts {
        OpCounts {
            reads: self.reads + o.reads,
            writes: self.writes + o.writes,
            erases: self.erases + o.erases,
            read_us: self.read_us + o.read_us,
            write_us: self.write_us + o.write_us,
            erase_us: self.erase_us + o.erase_us,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, o: OpCounts) {
        *self = *self + o;
    }
}

impl Sub for OpCounts {
    type Output = OpCounts;
    /// Saturating difference, used to compute deltas between snapshots.
    fn sub(self, o: OpCounts) -> OpCounts {
        OpCounts {
            reads: self.reads.saturating_sub(o.reads),
            writes: self.writes.saturating_sub(o.writes),
            erases: self.erases.saturating_sub(o.erases),
            read_us: self.read_us.saturating_sub(o.read_us),
            write_us: self.write_us.saturating_sub(o.write_us),
            erase_us: self.erase_us.saturating_sub(o.erase_us),
        }
    }
}

impl fmt::Display for OpCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reads / {} writes / {} erases ({} us)",
            self.reads,
            self.writes,
            self.erases,
            self.total_us()
        )
    }
}

/// Single-page failure gauges: checksum mismatches caught on the read
/// path and pages rebuilt online from a redundant source (Graefe &
/// Kuno's single-page-failure class).
///
/// Unlike [`OpCounts`], these are not split by [`OpContext`]: a
/// corruption is a property of the media, not of whoever read it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegrityCounts {
    /// Data-area reads whose content no longer matched the spare-area
    /// checksum written at program time.
    pub detected_corruptions: u64,
    /// Corrupt pages rebuilt byte-for-byte from a redundant source
    /// (differential chain, GC twin, checkpoint) and re-programmed.
    pub repaired_pages: u64,
}

impl Add for IntegrityCounts {
    type Output = IntegrityCounts;
    fn add(self, o: IntegrityCounts) -> IntegrityCounts {
        IntegrityCounts {
            detected_corruptions: self.detected_corruptions + o.detected_corruptions,
            repaired_pages: self.repaired_pages + o.repaired_pages,
        }
    }
}

impl AddAssign for IntegrityCounts {
    fn add_assign(&mut self, o: IntegrityCounts) {
        *self = *self + o;
    }
}

impl Sub for IntegrityCounts {
    type Output = IntegrityCounts;
    /// Saturating delta between snapshots.
    fn sub(self, o: IntegrityCounts) -> IntegrityCounts {
        IntegrityCounts {
            detected_corruptions: self.detected_corruptions.saturating_sub(o.detected_corruptions),
            repaired_pages: self.repaired_pages.saturating_sub(o.repaired_pages),
        }
    }
}

impl fmt::Display for IntegrityCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "detected_corruptions={} repaired_pages={}",
            self.detected_corruptions, self.repaired_pages
        )
    }
}

/// The chip's full statistics ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlashStats {
    pub user: OpCounts,
    pub gc: OpCounts,
    pub recovery: OpCounts,
    /// Single-page failure gauges (global; see [`IntegrityCounts`]).
    pub integrity: IntegrityCounts,
}

impl FlashStats {
    /// Sum over all contexts.
    pub fn total(&self) -> OpCounts {
        self.user + self.gc + self.recovery
    }

    /// Ledger for one context.
    pub fn by_context(&self, ctx: OpContext) -> OpCounts {
        match ctx {
            OpContext::User => self.user,
            OpContext::Gc => self.gc,
            OpContext::Recovery => self.recovery,
        }
    }

    pub(crate) fn by_context_mut(&mut self, ctx: OpContext) -> &mut OpCounts {
        match ctx {
            OpContext::User => &mut self.user,
            OpContext::Gc => &mut self.gc,
            OpContext::Recovery => &mut self.recovery,
        }
    }

    /// Write amplification: physical page programs per user-issued page
    /// program (GC migration and obsolete marks inflate it above 1.0).
    /// The headline figure GC policies are compared by — Dayan & Bonnet
    /// report integer-factor gaps between greedy, cost-benefit and
    /// hot/cold-separated policies under skew. 0 when nothing was written.
    pub fn write_amplification(&self) -> f64 {
        if self.user.writes == 0 {
            return 0.0;
        }
        self.total().writes as f64 / self.user.writes as f64
    }

    /// Pages migrated (programmed) by garbage collection / merges.
    pub fn migrated_pages(&self) -> u64 {
        self.gc.writes
    }

    /// Erase operations triggered by garbage collection / merges.
    pub fn gc_erases(&self) -> u64 {
        self.gc.erases
    }

    /// Per-context and total delta against an earlier snapshot.
    pub fn delta_since(&self, earlier: &FlashStats) -> FlashStats {
        FlashStats {
            user: self.user - earlier.user,
            gc: self.gc - earlier.gc,
            recovery: self.recovery - earlier.recovery,
            integrity: self.integrity - earlier.integrity,
        }
    }
}

impl Sub for FlashStats {
    type Output = FlashStats;
    fn sub(self, o: FlashStats) -> FlashStats {
        self.delta_since(&o)
    }
}

impl Add for FlashStats {
    type Output = FlashStats;
    /// Per-context sum, used to aggregate ledgers across shard chips.
    fn add(self, o: FlashStats) -> FlashStats {
        FlashStats {
            user: self.user + o.user,
            gc: self.gc + o.gc,
            recovery: self.recovery + o.recovery,
            integrity: self.integrity + o.integrity,
        }
    }
}

impl AddAssign for FlashStats {
    fn add_assign(&mut self, o: FlashStats) {
        *self = *self + o;
    }
}

/// Wear (erase-count) summary over all blocks, used by the longevity
/// experiment (Figure 17) and the wear-aware GC ablation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WearSummary {
    pub min_erases: u64,
    pub max_erases: u64,
    pub total_erases: u64,
    pub num_blocks: u32,
    /// Single-page failure gauges of the chip(s) summarised, so repair
    /// activity shows up next to the wear it causes.
    pub integrity: IntegrityCounts,
}

impl WearSummary {
    pub fn avg_erases(&self) -> f64 {
        if self.num_blocks == 0 {
            0.0
        } else {
            self.total_erases as f64 / self.num_blocks as f64
        }
    }

    /// Wear spread: the most-erased block's count over the average — 1.0
    /// is perfectly even wear; the gauge the wear-aware and hot/cold GC
    /// policies are judged by. 0 when nothing has been erased.
    pub fn spread(&self) -> f64 {
        let avg = self.avg_erases();
        if avg == 0.0 {
            0.0
        } else {
            self.max_erases as f64 / avg
        }
    }

    /// Fold another chip's wear summary into this one, treating the two
    /// block populations as one (sharded engines report wear over all
    /// their chips this way; an empty summary is the identity).
    pub fn merge(&mut self, other: &WearSummary) {
        self.integrity += other.integrity;
        if other.num_blocks == 0 {
            return;
        }
        if self.num_blocks == 0 {
            let integrity = self.integrity;
            *self = *other;
            self.integrity = integrity;
            return;
        }
        self.min_erases = self.min_erases.min(other.min_erases);
        self.max_erases = self.max_erases.max(other.max_erases);
        self.total_erases += other.total_erases;
        self.num_blocks += other.num_blocks;
    }

    /// Aggregate wear over many chips (see [`WearSummary::merge`]).
    pub fn merged(summaries: impl IntoIterator<Item = WearSummary>) -> WearSummary {
        let mut out = WearSummary::default();
        for s in summaries {
            out.merge(&s);
        }
        out
    }
}

impl fmt::Display for WearSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "erases/block min={} avg={:.1} max={} (total {})",
            self.min_erases,
            self.avg_erases(),
            self.max_erases,
            self.total_erases
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OpCounts {
        OpCounts { reads: 3, writes: 2, erases: 1, read_us: 330, write_us: 2020, erase_us: 1500 }
    }

    #[test]
    fn totals_add_up() {
        let c = sample();
        assert_eq!(c.total_ops(), 6);
        assert_eq!(c.total_us(), 3850);
    }

    #[test]
    fn add_and_sub_are_inverse() {
        let a = sample();
        let b =
            OpCounts { reads: 1, writes: 1, erases: 0, read_us: 110, write_us: 1010, erase_us: 0 };
        assert_eq!((a + b) - b, a);
    }

    #[test]
    fn stats_context_routing() {
        let mut s = FlashStats::default();
        s.by_context_mut(OpContext::Gc).reads = 5;
        assert_eq!(s.gc.reads, 5);
        assert_eq!(s.by_context(OpContext::Gc).reads, 5);
        assert_eq!(s.total().reads, 5);
    }

    #[test]
    fn delta_since_is_per_context() {
        let mut before = FlashStats::default();
        before.user.writes = 2;
        let mut after = before;
        after.user.writes = 7;
        after.gc.erases = 3;
        let d = after.delta_since(&before);
        assert_eq!(d.user.writes, 5);
        assert_eq!(d.gc.erases, 3);
        assert_eq!(d.recovery, OpCounts::default());
    }

    #[test]
    fn wear_summary_average() {
        let w = WearSummary {
            min_erases: 1,
            max_erases: 9,
            total_erases: 40,
            num_blocks: 8,
            ..WearSummary::default()
        };
        assert!((w.avg_erases() - 5.0).abs() < 1e-9);
        assert!((w.spread() - 9.0 / 5.0).abs() < 1e-9);
        assert_eq!(WearSummary::default().spread(), 0.0);
    }

    #[test]
    fn write_amplification_and_gc_gauges() {
        let mut s = FlashStats::default();
        assert_eq!(s.write_amplification(), 0.0);
        s.user.writes = 10;
        s.gc.writes = 5;
        s.gc.erases = 2;
        assert!((s.write_amplification() - 1.5).abs() < 1e-9);
        assert_eq!(s.migrated_pages(), 5);
        assert_eq!(s.gc_erases(), 2);
    }

    #[test]
    fn wear_summary_merge_combines_populations() {
        let a = WearSummary {
            min_erases: 2,
            max_erases: 9,
            total_erases: 40,
            num_blocks: 8,
            ..WearSummary::default()
        };
        let b = WearSummary {
            min_erases: 1,
            max_erases: 5,
            total_erases: 24,
            num_blocks: 4,
            ..WearSummary::default()
        };
        let m = WearSummary::merged([a, b]);
        assert_eq!(m.min_erases, 1);
        assert_eq!(m.max_erases, 9);
        assert_eq!(m.total_erases, 64);
        assert_eq!(m.num_blocks, 12);
        // The empty summary is the identity on both sides.
        assert_eq!(WearSummary::merged([WearSummary::default(), a]), a);
        assert_eq!(WearSummary::merged([a, WearSummary::default()]), a);
    }

    #[test]
    fn integrity_counts_compose() {
        let a = IntegrityCounts { detected_corruptions: 3, repaired_pages: 2 };
        let b = IntegrityCounts { detected_corruptions: 1, repaired_pages: 0 };
        assert_eq!((a + b).detected_corruptions, 4);
        assert_eq!((a + b) - b, a);
        // Threaded through FlashStats deltas and WearSummary merges.
        let s = FlashStats { integrity: a, ..FlashStats::default() };
        assert_eq!(s.delta_since(&FlashStats::default()).integrity, a);
        let mut w = WearSummary { integrity: a, ..WearSummary::default() };
        let other =
            WearSummary { num_blocks: 4, total_erases: 8, integrity: b, ..WearSummary::default() };
        w.merge(&other);
        assert_eq!(w.integrity, a + b);
        assert_eq!(w.num_blocks, 4);
    }

    #[test]
    fn flash_stats_add_is_per_context() {
        let mut a = FlashStats::default();
        a.user.reads = 2;
        a.gc.erases = 1;
        let mut b = FlashStats::default();
        b.user.reads = 3;
        b.recovery.writes = 7;
        let s = a + b;
        assert_eq!(s.user.reads, 5);
        assert_eq!(s.gc.erases, 1);
        assert_eq!(s.recovery.writes, 7);
        let mut c = a;
        c += b;
        assert_eq!(c, s);
    }
}
