//! The per-chip (and per-pool) recorder: a fixed set of latency
//! histograms plus a span ring behind one `enabled` flag.
//!
//! Recording hooks sit on the emulator's hot paths, so the disabled
//! recorder must cost nothing measurable: it allocates no buckets, and
//! every entry point is a branch on [`Recorder::is_enabled`]. Enabling
//! observability never changes what the hooks *measure* — the simulated
//! clock and the operation ledger are computed identically either way.

use crate::hist::LatencyHistogram;
use crate::span::{Span, SpanRing};

/// Operation kind, mirroring the flash command set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Read,
    Program,
    Erase,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Program => "program",
            OpKind::Erase => "erase",
        }
    }
}

/// Attribution context, mirroring the flash `OpContext` ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtxKind {
    User,
    Gc,
    Recovery,
}

impl CtxKind {
    pub fn name(self) -> &'static str {
        match self {
            CtxKind::User => "user",
            CtxKind::Gc => "gc",
            CtxKind::Recovery => "recovery",
        }
    }
}

/// Every latency distribution the engine records: one per op class ×
/// context, plus the end-to-end distributions of the higher layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyClass {
    ReadUser,
    ReadGc,
    ReadRecovery,
    ProgramUser,
    ProgramGc,
    ProgramRecovery,
    EraseUser,
    EraseGc,
    EraseRecovery,
    /// Commit critical path of a solo (unbatched) commit: the simulated
    /// flash time the commit charged its busiest shard.
    CommitSolo,
    /// Same, for a group-commit batch.
    CommitGroup,
    /// GC victim-to-done pause: from victim selection to the erase's
    /// completion on the simulated clock.
    GcPause,
    /// One recovery phase (scan / replay / rebuild), by phase id.
    RecoveryPhase,
    /// Single-page repair detour on the read path.
    RepairDetour,
    /// Host-clock wait for a contended per-page latch during a
    /// structural (B+-tree / heap) mutation. Uncontended acquires record
    /// nothing, so the distribution is the *contention* profile.
    LatchWait,
    /// Host-clock wait of a durable commit in the database's group-commit
    /// queue, from queuing until a leader takes it into a batch: one
    /// sample per durable commit, near zero when no batch was running.
    CommitLockWait,
}

impl LatencyClass {
    pub const COUNT: usize = 16;

    pub const ALL: [LatencyClass; LatencyClass::COUNT] = [
        LatencyClass::ReadUser,
        LatencyClass::ReadGc,
        LatencyClass::ReadRecovery,
        LatencyClass::ProgramUser,
        LatencyClass::ProgramGc,
        LatencyClass::ProgramRecovery,
        LatencyClass::EraseUser,
        LatencyClass::EraseGc,
        LatencyClass::EraseRecovery,
        LatencyClass::CommitSolo,
        LatencyClass::CommitGroup,
        LatencyClass::GcPause,
        LatencyClass::RecoveryPhase,
        LatencyClass::RepairDetour,
        LatencyClass::LatchWait,
        LatencyClass::CommitLockWait,
    ];

    pub fn index(self) -> usize {
        match self {
            LatencyClass::ReadUser => 0,
            LatencyClass::ReadGc => 1,
            LatencyClass::ReadRecovery => 2,
            LatencyClass::ProgramUser => 3,
            LatencyClass::ProgramGc => 4,
            LatencyClass::ProgramRecovery => 5,
            LatencyClass::EraseUser => 6,
            LatencyClass::EraseGc => 7,
            LatencyClass::EraseRecovery => 8,
            LatencyClass::CommitSolo => 9,
            LatencyClass::CommitGroup => 10,
            LatencyClass::GcPause => 11,
            LatencyClass::RecoveryPhase => 12,
            LatencyClass::RepairDetour => 13,
            LatencyClass::LatchWait => 14,
            LatencyClass::CommitLockWait => 15,
        }
    }

    /// Registry / report name of the distribution.
    pub fn name(self) -> &'static str {
        match self {
            LatencyClass::ReadUser => "read_user",
            LatencyClass::ReadGc => "read_gc",
            LatencyClass::ReadRecovery => "read_recovery",
            LatencyClass::ProgramUser => "program_user",
            LatencyClass::ProgramGc => "program_gc",
            LatencyClass::ProgramRecovery => "program_recovery",
            LatencyClass::EraseUser => "erase_user",
            LatencyClass::EraseGc => "erase_gc",
            LatencyClass::EraseRecovery => "erase_recovery",
            LatencyClass::CommitSolo => "commit_solo",
            LatencyClass::CommitGroup => "commit_group",
            LatencyClass::GcPause => "gc_pause",
            LatencyClass::RecoveryPhase => "recovery_phase",
            LatencyClass::RepairDetour => "repair_detour",
            LatencyClass::LatchWait => "latch_wait",
            LatencyClass::CommitLockWait => "commit_lock_wait",
        }
    }

    /// The op-class distribution for one flash command.
    pub fn of_op(op: OpKind, ctx: CtxKind) -> LatencyClass {
        match (op, ctx) {
            (OpKind::Read, CtxKind::User) => LatencyClass::ReadUser,
            (OpKind::Read, CtxKind::Gc) => LatencyClass::ReadGc,
            (OpKind::Read, CtxKind::Recovery) => LatencyClass::ReadRecovery,
            (OpKind::Program, CtxKind::User) => LatencyClass::ProgramUser,
            (OpKind::Program, CtxKind::Gc) => LatencyClass::ProgramGc,
            (OpKind::Program, CtxKind::Recovery) => LatencyClass::ProgramRecovery,
            (OpKind::Erase, CtxKind::User) => LatencyClass::EraseUser,
            (OpKind::Erase, CtxKind::Gc) => LatencyClass::EraseGc,
            (OpKind::Erase, CtxKind::Recovery) => LatencyClass::EraseRecovery,
        }
    }
}

/// Default span-ring capacity of an enabled recorder.
pub const DEFAULT_SPAN_CAPACITY: usize = 32_768;

/// Histograms + span ring behind one flag. Cloneable (chips clone), and
/// cheap when disabled: no buckets, no ring, one branch per hook.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    enabled: bool,
    hists: Vec<LatencyHistogram>,
    spans: SpanRing,
}

impl Recorder {
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// Enable recording with `span_capacity` retained spans (idempotent;
    /// re-enabling keeps existing data).
    pub fn enable(&mut self, span_capacity: usize) {
        if self.enabled {
            return;
        }
        self.enabled = true;
        self.hists = vec![LatencyHistogram::new(); LatencyClass::COUNT];
        self.spans = SpanRing::new(span_capacity);
    }

    /// Disable and drop all recorded data.
    pub fn disable(&mut self) {
        *self = Recorder::disabled();
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Re-zero histograms and spans for a new measurement epoch (keeps
    /// the enabled state). The emulator calls this from its statistics
    /// reset, so warm-up traffic never pollutes the measured phase.
    pub fn clear(&mut self) {
        if !self.enabled {
            return;
        }
        for h in &mut self.hists {
            *h = LatencyHistogram::new();
        }
        self.spans.clear();
    }

    /// Record one latency sample.
    pub fn record(&mut self, class: LatencyClass, us: u64) {
        if !self.enabled {
            return;
        }
        self.hists[class.index()].record(us);
    }

    /// Record one completed span.
    pub fn push_span(&mut self, span: Span) {
        if !self.enabled {
            return;
        }
        self.spans.push(span);
    }

    /// One flash command, fully attributed: records its latency
    /// (`done_us - start_us`) as the op-class sample and the span
    /// `[start_us, done_us)` on lane 0 — a chip runs one command at a
    /// time, so its commands share one lane.
    pub fn op(
        &mut self,
        op: OpKind,
        ctx: CtxKind,
        start_us: u64,
        done_us: u64,
        block: u64,
        id: u64,
    ) {
        if !self.enabled {
            return;
        }
        let dur_us = done_us.saturating_sub(start_us);
        self.hists[LatencyClass::of_op(op, ctx).index()].record(dur_us);
        self.spans.push(Span {
            name: op.name(),
            ctx: ctx.name(),
            lane: 0,
            start_us,
            dur_us,
            block,
            id,
        });
    }

    /// One higher-layer event (GC pause, recovery phase, repair detour,
    /// commit): records `end - start` into `class` and a matching span.
    #[allow(clippy::too_many_arguments)]
    pub fn event(
        &mut self,
        class: LatencyClass,
        name: &'static str,
        ctx: &'static str,
        lane: u32,
        start_us: u64,
        end_us: u64,
        block: u64,
        id: u64,
    ) {
        if !self.enabled {
            return;
        }
        let dur = end_us.saturating_sub(start_us);
        self.hists[class.index()].record(dur);
        self.spans.push(Span { name, ctx, lane, start_us, dur_us: dur, block, id });
    }

    /// Histogram of one class (`None` while disabled).
    pub fn hist(&self, class: LatencyClass) -> Option<&LatencyHistogram> {
        self.hists.get(class.index())
    }

    /// Copy-out of the recorded state.
    pub fn snapshot(&self) -> RecorderSnapshot {
        RecorderSnapshot {
            enabled: self.enabled,
            hists: if self.enabled {
                self.hists.clone()
            } else {
                vec![LatencyHistogram::new(); LatencyClass::COUNT]
            },
            spans: self.spans.to_vec(),
            dropped_spans: self.spans.dropped(),
        }
    }
}

/// A point-in-time copy of a [`Recorder`]: histograms indexed by
/// [`LatencyClass`], spans oldest-first.
#[derive(Clone, Debug)]
pub struct RecorderSnapshot {
    pub enabled: bool,
    pub hists: Vec<LatencyHistogram>,
    pub spans: Vec<Span>,
    pub dropped_spans: u64,
}

impl RecorderSnapshot {
    pub fn hist(&self, class: LatencyClass) -> &LatencyHistogram {
        &self.hists[class.index()]
    }

    /// Merge another snapshot's histograms into this one (spans are
    /// per-track and intentionally not merged — each shard keeps its own
    /// timeline).
    pub fn merge_hists(&mut self, other: &RecorderSnapshot) {
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// Element-wise merge of many snapshots' histograms — the global
    /// distribution over a sharded store.
    pub fn merged(snaps: &[RecorderSnapshot]) -> RecorderSnapshot {
        let mut out = RecorderSnapshot {
            enabled: snaps.iter().any(|s| s.enabled),
            hists: vec![LatencyHistogram::new(); LatencyClass::COUNT],
            spans: Vec::new(),
            dropped_spans: snaps.iter().map(|s| s.dropped_spans).sum(),
        };
        for s in snaps {
            out.merge_hists(s);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        r.record(LatencyClass::ReadUser, 110);
        r.op(OpKind::Read, CtxKind::User, 0, 110, 0, 0);
        r.event(LatencyClass::GcPause, "gc", "gc", 4, 0, 500, 0, 0);
        assert!(!r.is_enabled());
        let s = r.snapshot();
        assert!(s.spans.is_empty());
        assert_eq!(s.hist(LatencyClass::ReadUser).count(), 0);
    }

    #[test]
    fn class_indices_are_a_bijection() {
        for (i, c) in LatencyClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let mut names: Vec<&str> = LatencyClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LatencyClass::COUNT);
    }

    #[test]
    fn op_records_hist_and_span() {
        let mut r = Recorder::disabled();
        r.enable(8);
        r.op(OpKind::Program, CtxKind::Gc, 100, 1110, 7, 42);
        let s = r.snapshot();
        assert_eq!(s.hist(LatencyClass::ProgramGc).count(), 1);
        assert_eq!(s.hist(LatencyClass::ProgramGc).max_us(), 1010);
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.spans[0].name, "program");
        assert_eq!(s.spans[0].ctx, "gc");
        assert_eq!(s.spans[0].lane, 0);
        assert_eq!(s.spans[0].dur_us, 1010);
    }

    #[test]
    fn clear_keeps_enabled_but_zeroes_data() {
        let mut r = Recorder::disabled();
        r.enable(8);
        r.record(LatencyClass::CommitSolo, 2_000);
        r.clear();
        assert!(r.is_enabled());
        assert_eq!(r.snapshot().hist(LatencyClass::CommitSolo).count(), 0);
    }

    #[test]
    fn merged_equals_single_stream() {
        let samples = [110u64, 1_010, 1_500, 110, 9_999];
        let mut global = Recorder::disabled();
        global.enable(8);
        let mut shards = vec![Recorder::disabled(), Recorder::disabled()];
        for s in &mut shards {
            s.enable(8);
        }
        for (i, &v) in samples.iter().enumerate() {
            global.record(LatencyClass::ReadUser, v);
            shards[i % 2].record(LatencyClass::ReadUser, v);
        }
        let snaps: Vec<RecorderSnapshot> = shards.iter().map(|s| s.snapshot()).collect();
        let merged = RecorderSnapshot::merged(&snaps);
        assert_eq!(
            merged.hist(LatencyClass::ReadUser),
            global.snapshot().hist(LatencyClass::ReadUser)
        );
    }
}
