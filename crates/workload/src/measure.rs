//! Measurement results: per-operation cost decomposition matching the
//! paper's figures.

use pdl_flash::{FlashStats, OpCounts};

/// Flash-operation costs attributed to one step of the workload, split
//  into regular and garbage-collection activity.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepCosts {
    /// Regular (non-GC) operations.
    pub regular: OpCounts,
    /// Garbage-collection / merge operations (the "slashed area" of
    /// Figure 12(b)).
    pub gc: OpCounts,
}

impl StepCosts {
    pub fn add_delta(&mut self, delta: FlashStats) {
        self.regular += delta.user;
        self.gc += delta.gc;
    }

    pub fn total(&self) -> OpCounts {
        self.regular + self.gc
    }

    pub fn total_us(&self) -> u64 {
        self.total().total_us()
    }
}

/// Result of a measured workload phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Measurement {
    /// Measured update operations (read-modify-reflect cycles).
    pub cycles: u64,
    /// Read-only operations (mix workloads only).
    pub read_ops: u64,
    /// Costs of the reading step (Figure 12(a)).
    pub read_step: StepCosts,
    /// Costs of the writing step: update notifications + eviction,
    /// including amortised GC (Figure 12(b)).
    pub write_step: StepCosts,
    /// Warm-up cycles executed before measurement started.
    pub warmup_cycles: u64,
    /// Total erases during warm-up (steady-state evidence).
    pub warmup_erases: u64,
}

impl Measurement {
    /// Total operations (cycles + read-only operations).
    pub fn total_ops(&self) -> u64 {
        self.cycles + self.read_ops
    }

    /// I/O time of the reading step per update operation (µs).
    pub fn read_us_per_op(&self) -> f64 {
        self.read_step.total_us() as f64 / self.total_ops().max(1) as f64
    }

    /// I/O time of the writing step per update operation (µs).
    pub fn write_us_per_op(&self) -> f64 {
        self.write_step.total_us() as f64 / self.total_ops().max(1) as f64
    }

    /// Overall I/O time per operation (µs) — the paper's headline metric.
    pub fn overall_us_per_op(&self) -> f64 {
        (self.read_step.total_us() + self.write_step.total_us()) as f64
            / self.total_ops().max(1) as f64
    }

    /// GC share of the writing step per operation (µs).
    pub fn gc_us_per_op(&self) -> f64 {
        (self.read_step.gc.total_us() + self.write_step.gc.total_us()) as f64
            / self.total_ops().max(1) as f64
    }

    /// Erase operations per update operation (Figure 17).
    pub fn erases_per_op(&self) -> f64 {
        (self.read_step.total().erases + self.write_step.total().erases) as f64
            / self.total_ops().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(reads: u64, writes: u64, erases: u64) -> OpCounts {
        OpCounts {
            reads,
            writes,
            erases,
            read_us: reads * 110,
            write_us: writes * 1010,
            erase_us: erases * 1500,
        }
    }

    #[test]
    fn per_op_math() {
        let m = Measurement {
            cycles: 10,
            read_ops: 0,
            read_step: StepCosts { regular: counts(10, 0, 0), gc: OpCounts::default() },
            write_step: StepCosts { regular: counts(0, 20, 0), gc: counts(5, 5, 2) },
            warmup_cycles: 0,
            warmup_erases: 0,
        };
        assert!((m.read_us_per_op() - 110.0).abs() < 1e-9);
        let write_us = (20.0 * 1010.0 + 5.0 * 110.0 + 5.0 * 1010.0 + 2.0 * 1500.0) / 10.0;
        assert!((m.write_us_per_op() - write_us).abs() < 1e-9);
        assert!((m.overall_us_per_op() - (110.0 + write_us)).abs() < 1e-9);
        assert!((m.erases_per_op() - 0.2).abs() < 1e-9);
        let gc_us = (5.0 * 110.0 + 5.0 * 1010.0 + 2.0 * 1500.0) / 10.0;
        assert!((m.gc_us_per_op() - gc_us).abs() < 1e-9);
    }

    #[test]
    fn mix_ops_count_both_kinds() {
        let m = Measurement { cycles: 30, read_ops: 70, ..Measurement::default() };
        assert_eq!(m.total_ops(), 100);
    }
}
