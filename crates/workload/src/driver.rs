//! The experiment driver: load, warm up, measure.

use crate::measure::Measurement;
use crate::mutate::{Placement, UpdateGen};
use pdl_core::{PageStore, Result};

/// Parameters of a pure-update workload (Experiments 1, 2, 3, 5, 6).
#[derive(Clone, Copy, Debug)]
pub struct UpdateConfig {
    /// `%ChangedByOneU_Op`.
    pub pct_changed: f64,
    /// `N_updates_till_write`.
    pub n_updates_till_write: u32,
    /// Measured update operations.
    pub measured_cycles: u64,
    /// Steady-state target: warm up until total erases reach this value...
    pub warmup_erase_target: u64,
    /// ...or this many warm-up cycles, whichever comes first.
    pub warmup_max_cycles: u64,
    /// Phase decoherence: before the regular warm-up, evict every page a
    /// uniform-random number of times in `0..phase_jitter`. PDL's
    /// differential size follows a saw-tooth over a page's eviction count
    /// (empty -> Max_Differential_Size -> Case-3 reset); pages loaded
    /// together are phase-locked and would all hit the expensive phase
    /// simultaneously. The paper's much longer runs decohere naturally;
    /// the jitter reproduces the decohered steady state directly.
    pub phase_jitter: u32,
    /// Where successive update commands land within a page (ablation; the
    /// default models sequential record updates, see [`Placement`]).
    pub placement: Placement,
    /// The page set: `false` picks every page uniformly, `true` under the
    /// 80/20 skew of [`UpdateGen::pick_page_skewed`] (the regime where GC
    /// victim-selection policies diverge).
    pub skewed: bool,
    pub seed: u64,
}

/// Parameters of a mixed read-only/update workload (Experiment 4).
#[derive(Clone, Copy, Debug)]
pub struct MixConfig {
    /// `%UpdateOps`: percentage of operations that are update operations.
    pub pct_update_ops: f64,
    pub update: UpdateConfig,
}

/// Load the initial database: every logical page written once with
/// deterministic content. Resets chip statistics afterwards so loading is
/// not measured (the paper loads before reaching steady state).
pub fn load_database(store: &mut dyn PageStore) -> Result<()> {
    let mut page = vec![0u8; store.logical_page_size()];
    for pid in 0..store.options().num_logical_pages {
        UpdateGen::fill_initial(pid, &mut page);
        store.write_page(pid, &page)?;
    }
    store.flush()?;
    store.reset_stats();
    Ok(())
}

/// One update operation: read the page, apply `n` update commands in
/// memory (notifying the store, as a tightly-coupled storage system
/// would), then reflect the page. Returns the changed page buffer state
/// via `page`.
fn one_cycle(
    store: &mut dyn PageStore,
    gen: &mut UpdateGen,
    page: &mut [u8],
    pid: u64,
    n_updates: u32,
) -> Result<()> {
    store.read_page(pid, page)?;
    for _ in 0..n_updates {
        let changes = gen.apply(pid, page);
        store.apply_update(pid, page, &changes)?;
    }
    store.evict_page(pid, page)
}

/// Warm the store into steady state: run update cycles until the erase
/// target or the cycle cap is reached. Returns (cycles, erases) executed.
fn warm_up(
    store: &mut dyn PageStore,
    gen: &mut UpdateGen,
    page: &mut [u8],
    cfg: &UpdateConfig,
) -> Result<(u64, u64)> {
    let num_pages = store.options().num_logical_pages;
    let mut cycles = 0u64;
    if cfg.phase_jitter > 1 {
        for pid in 0..num_pages {
            let r = gen.pick_page(cfg.phase_jitter as u64) as u32;
            for _ in 0..r {
                one_cycle(store, gen, page, pid, cfg.n_updates_till_write)?;
                cycles += 1;
            }
        }
    }
    loop {
        let erases = store.stats().total().erases;
        if erases >= cfg.warmup_erase_target || cycles >= cfg.warmup_max_cycles {
            return Ok((cycles, erases));
        }
        // Check the target only every batch to keep the loop tight.
        for _ in 0..256 {
            let pid = cfg.pick_page(gen, num_pages);
            one_cycle(store, gen, page, pid, cfg.n_updates_till_write)?;
            cycles += 1;
        }
    }
}

/// Run a pure-update workload to completion: load must already have
/// happened. Returns the per-step measurement.
pub fn run_update_workload(store: &mut dyn PageStore, cfg: &UpdateConfig) -> Result<Measurement> {
    let mut gen = UpdateGen::new(cfg.seed, store.logical_page_size(), cfg.pct_changed)
        .with_placement(cfg.placement);
    let mut page = vec![0u8; store.logical_page_size()];
    let (warmup_cycles, warmup_erases) = warm_up(store, &mut gen, &mut page, cfg)?;

    store.reset_stats();
    let num_pages = store.options().num_logical_pages;
    let mut m = Measurement { warmup_cycles, warmup_erases, ..Measurement::default() };
    for _ in 0..cfg.measured_cycles {
        let pid = cfg.pick_page(&mut gen, num_pages);
        // Reading step.
        let before = store.stats();
        store.read_page(pid, &mut page)?;
        let after_read = store.stats();
        m.read_step.add_delta(after_read.delta_since(&before));
        // Changing + writing step (GC amortised here, as in the paper).
        for _ in 0..cfg.n_updates_till_write {
            let changes = gen.apply(pid, &mut page);
            store.apply_update(pid, &page, &changes)?;
        }
        store.evict_page(pid, &page)?;
        let after_write = store.stats();
        m.write_step.add_delta(after_write.delta_since(&after_read));
        m.cycles += 1;
    }
    Ok(m)
}

/// Run a mixed workload of read-only and update operations (Experiment 4).
/// Warm-up runs pure updates so that read-only operations hit *updated*
/// pages — the paper's "read-only on updated pages" regime.
pub fn run_mix_workload(store: &mut dyn PageStore, cfg: &MixConfig) -> Result<Measurement> {
    let mut gen =
        UpdateGen::new(cfg.update.seed, store.logical_page_size(), cfg.update.pct_changed)
            .with_placement(cfg.update.placement);
    let mut page = vec![0u8; store.logical_page_size()];
    let (warmup_cycles, warmup_erases) = warm_up(store, &mut gen, &mut page, &cfg.update)?;

    store.reset_stats();
    let num_pages = store.options().num_logical_pages;
    let mut m = Measurement { warmup_cycles, warmup_erases, ..Measurement::default() };
    for _ in 0..cfg.update.measured_cycles {
        let pid = cfg.update.pick_page(&mut gen, num_pages);
        if gen.next_is_update(cfg.pct_update_ops) {
            let before = store.stats();
            store.read_page(pid, &mut page)?;
            let after_read = store.stats();
            m.read_step.add_delta(after_read.delta_since(&before));
            for _ in 0..cfg.update.n_updates_till_write {
                let changes = gen.apply(pid, &mut page);
                store.apply_update(pid, &page, &changes)?;
            }
            store.evict_page(pid, &page)?;
            let after_write = store.stats();
            m.write_step.add_delta(after_write.delta_since(&after_read));
            m.cycles += 1;
        } else {
            let before = store.stats();
            store.read_page(pid, &mut page)?;
            let after = store.stats();
            m.read_step.add_delta(after.delta_since(&before));
            m.read_ops += 1;
        }
    }
    Ok(m)
}

/// Reusable default: a config with everything explicit.
impl UpdateConfig {
    pub fn new(pct_changed: f64, n_updates_till_write: u32) -> UpdateConfig {
        UpdateConfig {
            pct_changed,
            n_updates_till_write,
            measured_cycles: 2_000,
            warmup_erase_target: 64,
            warmup_max_cycles: 20_000,
            phase_jitter: 0,
            placement: Placement::RoundRobin,
            skewed: false,
            seed: 0xC0FFEE,
        }
    }

    /// The next page an update (or read-only) operation addresses.
    fn pick_page(&self, gen: &mut UpdateGen, num_pages: u64) -> u64 {
        if self.skewed {
            gen.pick_page_skewed(num_pages)
        } else {
            gen.pick_page(num_pages)
        }
    }

    pub fn with_measured_cycles(mut self, cycles: u64) -> UpdateConfig {
        self.measured_cycles = cycles;
        self
    }

    pub fn with_warmup(mut self, erase_target: u64, max_cycles: u64) -> UpdateConfig {
        self.warmup_erase_target = erase_target;
        self.warmup_max_cycles = max_cycles;
        self
    }

    pub fn with_phase_jitter(mut self, jitter: u32) -> UpdateConfig {
        self.phase_jitter = jitter;
        self
    }

    pub fn with_placement(mut self, placement: Placement) -> UpdateConfig {
        self.placement = placement;
        self
    }

    pub fn with_skew(mut self, skewed: bool) -> UpdateConfig {
        self.skewed = skewed;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> UpdateConfig {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::{build_store, MethodKind, StoreOptions};
    use pdl_flash::{FlashChip, FlashConfig};

    fn quick_store(kind: MethodKind) -> Box<dyn PageStore> {
        // Small paper-geometry chip: 8 blocks x 64 pages x 2 KB.
        let chip = FlashChip::new(FlashConfig::scaled(8));
        let mut store = build_store(chip, kind, StoreOptions::new(200)).unwrap();
        load_database(store.as_mut()).unwrap();
        store
    }

    #[test]
    fn load_resets_stats() {
        let store = quick_store(MethodKind::Opu);
        assert_eq!(store.stats().total().total_ops(), 0);
    }

    #[test]
    fn opu_costs_match_paper_accounting() {
        let mut store = quick_store(MethodKind::Opu);
        let cfg = UpdateConfig::new(2.0, 1).with_measured_cycles(300).with_warmup(16, 2_000);
        let m = run_update_workload(store.as_mut(), &cfg).unwrap();
        assert_eq!(m.cycles, 300);
        // Reading step: exactly one read per cycle, no GC.
        assert!((m.read_us_per_op() - 110.0).abs() < 1e-9, "{}", m.read_us_per_op());
        // Writing step: two writes (program + obsolete) plus amortised GC.
        assert!(m.write_us_per_op() >= 2.0 * 1010.0, "{}", m.write_us_per_op());
        assert!(m.write_step.gc.total_ops() > 0, "steady state must include GC");
    }

    #[test]
    fn pdl_reads_at_most_two_pages() {
        let mut store = quick_store(MethodKind::Pdl { max_diff_size: 2048 });
        let cfg = UpdateConfig::new(2.0, 1).with_measured_cycles(400).with_warmup(16, 3_000);
        let m = run_update_workload(store.as_mut(), &cfg).unwrap();
        // Reading step: between 1 and 2 reads per op, never more.
        let reads_per_op = m.read_step.total().reads as f64 / m.cycles as f64;
        assert!((1.0..=2.0).contains(&reads_per_op), "{reads_per_op}");
    }

    #[test]
    fn ipl_reads_more_pages_than_pdl() {
        let mut ipl = quick_store(MethodKind::Ipl { log_bytes_per_block: 64 * 1024 });
        let mut pdl = quick_store(MethodKind::Pdl { max_diff_size: 256 });
        let cfg = UpdateConfig::new(2.0, 1).with_measured_cycles(400).with_warmup(8, 3_000);
        let mi = run_update_workload(ipl.as_mut(), &cfg).unwrap();
        let mp = run_update_workload(pdl.as_mut(), &cfg).unwrap();
        let ipl_reads = mi.read_step.total().reads as f64 / mi.cycles as f64;
        let pdl_reads = mp.read_step.total().reads as f64 / mp.cycles as f64;
        assert!(
            ipl_reads > pdl_reads,
            "log-based reads ({ipl_reads}) must exceed PDL reads ({pdl_reads})"
        );
        assert!(pdl_reads <= 2.0);
    }

    #[test]
    fn mix_workload_counts_both_operation_kinds() {
        let mut store = quick_store(MethodKind::Opu);
        let cfg = MixConfig {
            pct_update_ops: 50.0,
            update: UpdateConfig::new(2.0, 1).with_measured_cycles(400).with_warmup(4, 1_000),
        };
        let m = run_mix_workload(store.as_mut(), &cfg).unwrap();
        assert_eq!(m.total_ops(), 400);
        assert!(m.cycles > 100 && m.read_ops > 100, "{} vs {}", m.cycles, m.read_ops);
    }

    #[test]
    fn read_only_mix_never_writes() {
        let mut store = quick_store(MethodKind::Pdl { max_diff_size: 256 });
        let cfg = MixConfig {
            pct_update_ops: 0.0,
            update: UpdateConfig::new(2.0, 1).with_measured_cycles(200).with_warmup(4, 1_000),
        };
        let m = run_mix_workload(store.as_mut(), &cfg).unwrap();
        assert_eq!(m.cycles, 0);
        assert_eq!(m.read_ops, 200);
        assert_eq!(m.write_step.total().total_ops(), 0);
    }

    #[test]
    fn workload_is_deterministic() {
        let run = || {
            let mut store = quick_store(MethodKind::Pdl { max_diff_size: 256 });
            let cfg = UpdateConfig::new(2.0, 1).with_measured_cycles(200).with_warmup(4, 500);
            let m = run_update_workload(store.as_mut(), &cfg).unwrap();
            (m.read_step.total(), m.write_step.total())
        };
        assert_eq!(run(), run());
    }
}
