//! The multi-threaded experiment driver: M worker threads issue update
//! operations concurrently against a [`ShardedStore`].
//!
//! Each worker owns its own [`UpdateGen`] stream and page buffer and
//! performs the paper's read—modify—reflect cycle through the store's
//! `*_shared` entry points, which lock only the shard owning the
//! addressed page. Flash costs are attributed per thread from the
//! per-operation [`pdl_flash::FlashStats`] deltas those entry points
//! return, and the per-thread [`Measurement`]s are merged into one result
//! (see [`Measurement::merge`]).
//!
//! Two page-set modes are provided: [`PageSetMode::Disjoint`] gives every
//! worker a private slice of the logical page space (no two threads ever
//! touch the same page — the pure-scaling regime), while
//! [`PageSetMode::Overlapping`] lets every worker address the whole space
//! (threads contend on shard locks and interleave updates to shared
//! pages — the stress regime the smoke tests exercise).

use crate::driver::UpdateConfig;
use crate::measure::Measurement;
use crate::mutate::UpdateGen;
use pdl_core::{PageStore, Result, ShardedStore};

/// Which logical pages each worker may address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PageSetMode {
    /// Worker `w` of `M` owns the strided pid class `{p | p % M == w}`.
    /// The stride matches the store's shard striping, so whenever the
    /// shard count divides the worker count (or vice versa) each worker
    /// confines itself to its own shard subset — the pure-scaling regime.
    Disjoint,
    /// Every worker addresses the whole page space.
    #[default]
    Overlapping,
    /// Every worker addresses the whole page space under an 80/20 skew
    /// (see [`UpdateGen::pick_page_skewed`]): the regime where GC
    /// victim-selection policies diverge by integer factors.
    Skewed,
}

/// Parameters of a multi-threaded pure-update workload.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedConfig {
    /// Number of worker threads (`M`).
    pub threads: usize,
    /// Page-set assignment across workers.
    pub mode: PageSetMode,
    /// The per-cycle parameters; `measured_cycles` is the *total* across
    /// all workers, split evenly.
    pub update: UpdateConfig,
}

impl ThreadedConfig {
    pub fn new(threads: usize, update: UpdateConfig) -> ThreadedConfig {
        ThreadedConfig { threads: threads.max(1), mode: PageSetMode::default(), update }
    }

    pub fn with_mode(mut self, mode: PageSetMode) -> ThreadedConfig {
        self.mode = mode;
        self
    }
}

/// Pick worker `w`'s next pid: the `k`-th page of its page set, `k`
/// uniform over the set.
fn worker_pid(
    mode: PageSetMode,
    num_pages: u64,
    threads: usize,
    w: usize,
    gen: &mut UpdateGen,
) -> u64 {
    match mode {
        PageSetMode::Overlapping => gen.pick_page(num_pages),
        PageSetMode::Skewed => gen.pick_page_skewed(num_pages),
        PageSetMode::Disjoint => {
            let owned = pdl_core::shard_pages(num_pages, threads, w);
            if owned == 0 {
                // More workers than pages: fall back to the whole space.
                gen.pick_page(num_pages)
            } else {
                w as u64 + gen.pick_page(owned) * threads as u64
            }
        }
    }
}

/// One worker's generator stream. Each worker owns one for the whole
/// workload — warm-up batches and the measured phase continue a single
/// stream, as the single-threaded driver does, so per-page differential
/// state keeps advancing instead of replaying the same updates.
fn worker_gen(cfg: &ThreadedConfig, page_size: usize, w: usize) -> UpdateGen {
    UpdateGen::new(
        cfg.update.seed ^ (0x9E37_79B9u64.wrapping_mul(w as u64 + 1)),
        page_size,
        cfg.update.pct_changed,
    )
    .with_placement(cfg.update.placement)
}

/// One worker's measured loop.
fn worker_run(
    store: &ShardedStore,
    cfg: &ThreadedConfig,
    w: usize,
    cycles: u64,
    measured: bool,
    gen: &mut UpdateGen,
) -> Result<Measurement> {
    let page_size = store.logical_page_size();
    let mut page = vec![0u8; page_size];
    let num_pages = store.options().num_logical_pages;
    let mut m = Measurement::default();
    for _ in 0..cycles {
        let pid = worker_pid(cfg.mode, num_pages, cfg.threads, w, gen);
        let read_delta = store.read_page_shared(pid, &mut page)?;
        for _ in 0..cfg.update.n_updates_till_write {
            let changes = gen.apply(pid, &mut page);
            let d = store.apply_update_shared(pid, &page, &changes)?;
            if measured {
                m.write_step.add_delta(d);
            }
        }
        let evict_delta = store.evict_page_shared(pid, &page)?;
        if measured {
            m.read_step.add_delta(read_delta);
            m.write_step.add_delta(evict_delta);
            m.cycles += 1;
        } else {
            m.warmup_cycles += 1;
        }
    }
    Ok(m)
}

/// Fan `total_cycles` update operations out over `cfg.threads` workers and
/// merge their results. `measured` selects whether costs are attributed.
/// Each worker continues its own generator in `gens`.
fn run_workers(
    store: &ShardedStore,
    cfg: &ThreadedConfig,
    total_cycles: u64,
    measured: bool,
    gens: &mut [UpdateGen],
) -> Result<Measurement> {
    let threads = cfg.threads.max(1);
    let per = total_cycles / threads as u64;
    let extra = total_cycles % threads as u64;
    let results: Vec<Result<Measurement>> = std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(w, gen)| {
                let cycles = per + u64::from((w as u64) < extra);
                scope.spawn(move || worker_run(store, cfg, w, cycles, measured, gen))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let mut merged = Measurement::default();
    for r in results {
        merged.merge(&r?);
    }
    Ok(merged)
}

/// Run a multi-threaded pure-update workload: warm the store into steady
/// state (concurrently, same worker layout), reset statistics, then run
/// the measured cycles. The store must already be loaded
/// (e.g. via [`crate::load_database`]).
pub fn run_threaded_update_workload(
    store: &ShardedStore,
    cfg: &ThreadedConfig,
) -> Result<Measurement> {
    let threads = cfg.threads.max(1);
    let page_size = store.logical_page_size();
    // One generator per worker for the whole workload: phase jitter,
    // every warm-up batch and the measured phase continue one stream.
    let mut gens: Vec<UpdateGen> = (0..threads).map(|w| worker_gen(cfg, page_size, w)).collect();
    let mut warmup_cycles = 0u64;

    // Phase decoherence, as in the single-threaded driver: evict every
    // page a uniform-random number of times in 0..phase_jitter so pages
    // loaded together don't march through PDL's differential saw-tooth
    // in lockstep. Worker w jitters the pids congruent to w mod M.
    if cfg.update.phase_jitter > 1 {
        let num_pages = store.options().num_logical_pages;
        let results: Vec<Result<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = gens
                .iter_mut()
                .enumerate()
                .map(|(w, gen)| {
                    scope.spawn(move || {
                        let mut page = vec![0u8; page_size];
                        let mut cycles = 0u64;
                        let mut pid = w as u64;
                        while pid < num_pages {
                            let r = gen.pick_page(cfg.update.phase_jitter as u64);
                            for _ in 0..r {
                                store.read_page_shared(pid, &mut page)?;
                                for _ in 0..cfg.update.n_updates_till_write {
                                    let changes = gen.apply(pid, &mut page);
                                    store.apply_update_shared(pid, &page, &changes)?;
                                }
                                store.evict_page_shared(pid, &page)?;
                                cycles += 1;
                            }
                            pid += threads as u64;
                        }
                        Ok(cycles)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("jitter worker panicked")).collect()
        });
        for r in results {
            warmup_cycles += r?;
        }
    }

    // Warm-up in batches until the erase target or the cycle cap, as the
    // single-threaded driver does — but checking the aggregate gauge only
    // between batches, so workers stay off any global synchronisation.
    let batch = 1024u64.min(cfg.update.warmup_max_cycles.max(1));
    loop {
        let erases = PageStore::stats(store).total().erases;
        let steady = erases >= cfg.update.warmup_erase_target
            && warmup_cycles >= cfg.update.warmup_min_cycles;
        if steady || warmup_cycles >= cfg.update.warmup_max_cycles {
            break;
        }
        let m = run_workers(store, cfg, batch, false, &mut gens)?;
        warmup_cycles += m.warmup_cycles;
    }
    let warmup_erases = PageStore::stats(store).total().erases;

    store.reset_stats_shared();
    let mut m = run_workers(store, cfg, cfg.update.measured_cycles, true, &mut gens)?;
    m.warmup_cycles = warmup_cycles;
    m.warmup_erases = warmup_erases;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::load_database;
    use pdl_core::{MethodKind, PageStore, ShardedStore, StoreOptions};
    use pdl_flash::FlashConfig;

    fn loaded(shards: usize, pages: u64) -> ShardedStore {
        let mut s = ShardedStore::with_uniform_chips(
            FlashConfig::scaled(8),
            shards,
            MethodKind::Pdl { max_diff_size: 256 },
            StoreOptions::new(pages),
        )
        .unwrap();
        load_database(&mut s).unwrap();
        s
    }

    #[test]
    fn threaded_workload_counts_every_cycle() {
        let store = loaded(4, 200);
        let cfg = ThreadedConfig::new(
            4,
            UpdateConfig::new(2.0, 1).with_measured_cycles(403).with_warmup(4, 2_000),
        );
        let m = run_threaded_update_workload(&store, &cfg).unwrap();
        assert_eq!(m.cycles, 403, "uneven split still covers every cycle");
        assert!(m.read_step.total().reads >= m.cycles);
        assert!(m.write_step.total().writes > 0);
        // Attributed per-thread costs cover exactly what the chips saw.
        let chip_total = PageStore::stats(&store).total();
        let attributed = m.read_step.total() + m.write_step.total();
        assert_eq!(attributed, chip_total);
    }

    #[test]
    fn disjoint_mode_partitions_the_page_space() {
        use crate::mutate::UpdateGen;
        for threads in [1usize, 3, 8] {
            let mut seen = vec![None; 100];
            for w in 0..threads {
                let mut gen = UpdateGen::new(w as u64, 64, 2.0);
                for _ in 0..2_000 {
                    let pid = worker_pid(PageSetMode::Disjoint, 100, threads, w, &mut gen);
                    assert!(pid < 100);
                    assert_eq!(pid as usize % threads, w, "strided ownership");
                    match seen[pid as usize] {
                        None => seen[pid as usize] = Some(w),
                        Some(owner) => assert_eq!(owner, w, "page {pid} claimed twice"),
                    }
                }
            }
            // Every worker's sampling covers its whole class eventually.
            assert!(
                seen.iter().filter(|s| s.is_some()).count() == 100,
                "{threads} threads left pages unvisited"
            );
        }
    }

    #[test]
    fn disjoint_workload_is_consistent_after_join() {
        let store = loaded(2, 64);
        let cfg = ThreadedConfig::new(
            4,
            UpdateConfig::new(5.0, 2).with_measured_cycles(200).with_warmup(1, 200),
        )
        .with_mode(PageSetMode::Disjoint);
        let m = run_threaded_update_workload(&store, &cfg).unwrap();
        assert_eq!(m.cycles, 200);
        // Every page still reads back at full size without error.
        let mut out = vec![0u8; store.logical_page_size()];
        for pid in 0..64u64 {
            store.read_page_shared(pid, &mut out).unwrap();
        }
    }
}
