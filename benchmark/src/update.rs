//! `update_2pct` — the paper's Experiment-1 default point: update
//! operations against a raw `PageStore` at 25 % utilisation.

use crate::rng::{Digest, Rng};
use crate::run::{saturating_u32, HostClock, Layers, Measured, Slices, Workload, PROBE_PAIRS};
use crate::stats::percentile;
use crate::store::{flash_us, StoreSpec, Torn, PATCH_LEN};
use crate::trace::{FlashCost, Tracer};
use pdl_core::{ChangeRange, PageStore};
use std::time::Instant;

pub struct Sizes {
    spec: StoreSpec,
    warmup_ops: u64,
    measured_ops: u64,
    /// Guards are relaxed in a smoke run.
    guarded: bool,
}

pub struct Update {
    store: Box<dyn PageStore>,
    spec: StoreSpec,
    /// What every page holds, kept by applying each patch here too.
    shadow: Vec<u8>,
    rng: Rng,
    measured_ops: u64,
    warmup_erases: u64,
    guarded: bool,
}

/// One op's inputs: page, offset and the new bytes.
struct Input {
    pid: u64,
    offset: usize,
    patch: [u8; PATCH_LEN],
}

impl Input {
    fn next(rng: &mut Rng, pages: u64, page_size: usize) -> Input {
        let pid = rng.below(pages);
        let offset = rng.below((page_size - PATCH_LEN + 1) as u64) as usize;
        let mut patch = [0u8; PATCH_LEN];
        rng.fill(&mut patch);
        Input { pid, offset, patch }
    }

    fn fold_into(&self, digest: &mut Digest) {
        digest.fold(self.pid << 16 | self.offset as u64);
        digest.fold(u64::from_le_bytes(self.patch[..8].try_into().expect("8 bytes")));
    }
}

/// Call into the store inside a span, charging it the flash work done.
fn spanned<R>(
    tr: &mut Tracer,
    store: &mut dyn PageStore,
    name: &'static str,
    op_id: u64,
    f: impl FnOnce(&mut dyn PageStore) -> R,
) -> R {
    if !tr.enabled() {
        return f(store);
    }
    let before = store.stats();
    tr.begin(name, op_id);
    let r = f(store);
    tr.end();
    tr.charge(name, FlashCost::between(&before, &store.stats()));
    r
}

impl Workload for Update {
    const NAME: &'static str = "update_2pct";
    const THREADS: usize = 1;
    const CRASH_UPDATES: u64 = 256;
    type Sizes = Sizes;

    fn sizes(seconds: u64, smoke: bool) -> Sizes {
        if smoke {
            // 25 % utilisation of a 32-block chip.
            let spec = StoreSpec {
                shards: 1,
                blocks_per_chip: 32,
                logical_pages: 504,
                checkpoint_blocks: 0,
            };
            return Sizes { spec, warmup_ops: 2_500, measured_ops: 8_000, guarded: false };
        }
        // 25 % utilisation, as in the paper: 8 064 of 32 768 physical pages.
        let spec = StoreSpec {
            shards: 1,
            blocks_per_chip: 512,
            logical_pages: 8_064,
            checkpoint_blocks: 0,
        };
        Sizes { spec, warmup_ops: 500_000, measured_ops: 80_000 * seconds, guarded: true }
    }

    fn setup(sizes: &Sizes, seed: u64) -> Result<Update, String> {
        let mut store = sizes.spec.build()?;
        let ps = store.logical_page_size();
        let pages = sizes.spec.logical_pages;
        let mut rng = Rng::new(seed);
        let mut shadow = vec![0u8; pages as usize * ps];
        rng.fill(&mut shadow);
        for (pid, page) in shadow.chunks_exact(ps).enumerate() {
            store.write_page(pid as u64, page).map_err(|e| format!("load page {pid}: {e}"))?;
        }
        store.flush().map_err(|e| format!("flush after load: {e}"))?;
        store.reset_stats();

        let mut page = vec![0u8; ps];
        for _ in 0..sizes.warmup_ops {
            let input = Input::next(&mut rng, pages, ps);
            crate::store::update_op(&mut *store, input.pid, input.offset, &input.patch, &mut page)
                .map_err(|e| format!("warm-up update of page {}: {e}", input.pid))?;
            shadow[input.pid as usize * ps + input.offset..][..PATCH_LEN]
                .copy_from_slice(&input.patch);
        }
        Ok(Update {
            warmup_erases: store.stats().total().erases,
            store,
            spec: sizes.spec,
            shadow,
            rng,
            measured_ops: sizes.measured_ops,
            guarded: sizes.guarded,
        })
    }

    fn measure(&mut self, tracing: bool) -> Result<Measured, String> {
        let store = &mut *self.store;
        let ps = store.logical_page_size();
        let pages = self.spec.logical_pages;
        let n = self.measured_ops;
        let mut tr = Tracer::new(tracing, 0, Instant::now());
        let mut flash = Vec::with_capacity(n as usize);
        let mut digest = Digest::default();
        let mut pairs = Vec::new();
        let pair_every = (n / PROBE_PAIRS as u64).max(1);
        let mut page = vec![0u8; ps];
        let mut failed_ops = 0;

        let stats_before = store.stats();
        let started = Instant::now();
        let mut slices = Slices::start(n);
        for i in 0..n {
            let input = Input::next(&mut self.rng, pages, ps);
            input.fold_into(&mut digest);
            let sample = tracing && i % pair_every == 0 && pairs.len() < PROBE_PAIRS;
            let mut before = None;
            let flash_before = flash_us(&store.stats());
            let t0 = Instant::now();
            tr.begin("op", i);
            let result = (|| -> pdl_core::Result<()> {
                spanned(&mut tr, store, "core.read_page", i, |s| {
                    s.read_page(input.pid, &mut page)
                })?;
                if sample {
                    before = Some(page.clone());
                }
                page[input.offset..][..PATCH_LEN].copy_from_slice(&input.patch);
                let change = [ChangeRange::new(input.offset, PATCH_LEN)];
                spanned(&mut tr, store, "core.apply_update", i, |s| {
                    s.apply_update(input.pid, &page, &change)
                })?;
                spanned(&mut tr, store, "core.evict_page", i, |s| s.evict_page(input.pid, &page))
            })();
            tr.end();
            let t1 = Instant::now();
            flash.push(saturating_u32(flash_us(&store.stats()) - flash_before));
            slices.op_done(t0, t1);
            match result {
                Ok(()) => {
                    self.shadow[input.pid as usize * ps + input.offset..][..PATCH_LEN]
                        .copy_from_slice(&input.patch);
                    if let Some(before) = before {
                        pairs.push((before, page.clone()));
                    }
                }
                Err(_) => failed_ops += 1,
            }
        }
        let wall = started.elapsed();
        Ok(Measured {
            ops: n,
            failed_ops,
            wall,
            host: HostClock::of(&mut [slices]),
            flash_us: flash,
            flash: store.stats().delta_since(&stats_before),
            pool: None,
            digest: digest.value(),
            tracer: tr,
            pairs,
            conflict_retries: 0,
            rollbacks: 0,
        })
    }

    /// GC must be in steady state before the measured phase and stay busy
    /// through it: 2 erases per block by the end of warm-up, 1 more per
    /// block measured.
    fn guards(&self, m: &Measured) -> Vec<String> {
        let blocks = self.spec.blocks_per_chip as u64;
        let mut violations = Vec::new();
        if self.guarded && self.warmup_erases < 2 * blocks {
            violations.push(format!(
                "warm-up reached {} erases, needs {} (2 per block)",
                self.warmup_erases,
                2 * blocks
            ));
        }
        let measured = m.flash.total().erases;
        if self.guarded && measured < blocks {
            violations.push(format!(
                "measured phase made {measured} erases, needs {blocks} (1 per block)"
            ));
        }
        violations
    }

    fn into_store(mut self) -> Result<Torn, String> {
        self.store.flush().map_err(|e| format!("final flush: {e}"))?;
        Ok(Torn {
            store: self.store,
            spec: self.spec,
            pages: self.spec.logical_pages,
            expected: Some(self.shadow),
        })
    }

    fn layer_metrics(m: &mut Measured, out: &mut Layers) {
        if let Some(read) = m.tracer.agg_mut("core.read_page") {
            let n = read.count.max(1) as f64;
            out.set("core.read_page.host_ns_p50", percentile(&mut read.durations, 50.0) as f64);
            out.set("core.read_page.host_ns_p99", percentile(&mut read.durations, 99.0) as f64);
            out.set("core.read_page.flash_us", read.flash.total_us as f64 / n);
            out.set("core.read_page.flash_reads", read.flash.reads as f64 / n);
        }
        if let Some(apply) = m.tracer.agg_mut("core.apply_update") {
            let p50 = percentile(&mut apply.durations, 50.0);
            out.set("core.apply_update.host_ns_p50", p50 as f64);
        }
        if let Some(evict) = m.tracer.agg_mut("core.evict_page") {
            let n = evict.count.max(1) as f64;
            out.set("core.evict_page.host_ns_p50", percentile(&mut evict.durations, 50.0) as f64);
            out.set("core.evict_page.host_ns_p99", percentile(&mut evict.durations, 99.0) as f64);
            out.set("core.evict_page.flash_us", evict.flash.total_us as f64 / n);
            out.set(
                "core.evict_page.gc_stall_share",
                evict.flash.gc_us as f64 / evict.flash.total_us.max(1) as f64,
            );
        }
    }
}
