//! One benchmark run: set-up, measured phase, checks, metrics. The same
//! code serves the untraced run (end-to-end metrics) and the traced run
//! (per-layer metrics); they differ only in whether the [`Tracer`] records.

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::probe;
use crate::stats::{highest_supported_percentile, median_f64, percentile, quantile_f64};
use crate::store::{
    flash_us, read_all, recover_and_compare, unflushed_crash_check, Failures, Torn,
};
use crate::trace::Tracer;
use pdl_flash::FlashStats;
use pdl_storage::BufferStats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// `(base, new)` page pairs handed to the codec and chip probes.
pub const PROBE_PAIRS: usize = 2_000;

#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured phase the op counts are sized for.
    pub seconds: u64,
    pub trace: bool,
    /// 1/100 of the op counts on a small data set, guards relaxed.
    pub smoke: bool,
    /// Checker self-test: flip one byte of the expectation.
    pub perturb_shadow: bool,
    /// Where the Chrome trace goes (traced runs only).
    pub out_dir: PathBuf,
}

/// Buffer-pool counters over the measured phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolDelta {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub dirty_writebacks: u64,
}

impl PoolDelta {
    pub fn between(before: &BufferStats, after: &BufferStats) -> PoolDelta {
        PoolDelta {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            dirty_writebacks: after.dirty_writebacks - before.dirty_writebacks,
        }
    }
}

/// Slices the measured phase of one load thread is cut into.
const SLICES: usize = 20;

/// Per-op host latencies of one load thread, with the time each of
/// [`SLICES`] equal slices of its ops ended.
pub struct Slices {
    every: usize,
    started: Instant,
    host_ns: Vec<u32>,
    ends: Vec<Instant>,
}

impl Slices {
    pub fn start(ops: u64) -> Slices {
        Slices {
            every: (ops as usize).div_ceil(SLICES).max(1),
            started: Instant::now(),
            host_ns: Vec::with_capacity(ops as usize),
            ends: Vec::with_capacity(SLICES),
        }
    }

    /// One more op ran from `t0` to `t1`.
    pub fn op_done(&mut self, t0: Instant, t1: Instant) {
        self.host_ns.push(saturating_u32((t1 - t0).as_nanos() as u64));
        if self.host_ns.len().is_multiple_of(self.every) {
            self.ends.push(t1);
        }
    }

    /// `(ops per second, median ns, p99 ns)` of each mirrored pair of
    /// slices: the first with the last, the second with the last but one,
    /// and so on (an odd middle slice stands alone).
    fn mirrored_pairs(&mut self) -> Vec<(f64, f64, f64)> {
        let k = self.ends.len();
        let secs = |i: usize| {
            let from = if i == 0 { self.started } else { self.ends[i - 1] };
            (self.ends[i] - from).as_secs_f64()
        };
        let mut pairs = Vec::with_capacity(k.div_ceil(2));
        let mut samples = Vec::with_capacity(2 * self.every);
        for i in 0..k.div_ceil(2) {
            let j = k - 1 - i;
            samples.clear();
            samples.extend_from_slice(&self.host_ns[i * self.every..(i + 1) * self.every]);
            let mut wall = secs(i);
            if j != i {
                samples.extend_from_slice(&self.host_ns[j * self.every..(j + 1) * self.every]);
                wall += secs(j);
            }
            pairs.push((
                samples.len() as f64 / wall,
                percentile(&mut samples, 50.0) as f64,
                percentile(&mut samples, 99.0) as f64,
            ));
        }
        pairs
    }
}

/// Host-clock summary of a measured phase, over all load threads.
///
/// Two things disturb a host-clock number here. The machine is shared, so
/// another tenant slows some stretch of the run — for seconds at a time,
/// and only ever slows it. And the workloads drift: TPC-C's database and
/// the B+-trees grow while they run, so late ops are slower than early
/// ones. So each thread's phase is cut into [`SLICES`] slices, slice `i` is
/// paired with slice `SLICES - 1 - i` — every pair then holds the same share
/// of early and late ops, and the drift cancels inside it — and the run
/// reports the **quartile on the good side** over the pairs: the upper
/// quartile of their throughput, the lower quartile of their median and of
/// their p99 latency. That is what the code costs in the quiet part of the
/// run; a median still moves when interference covers a third of it.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostClock {
    /// Upper-quartile pair rate, summed over the load threads.
    pub ops_per_s: f64,
    /// Lower quartile over all pairs of the pair's median / p99 latency.
    pub p50_us: f64,
    pub p99_us: f64,
    /// Latency samples behind each pair's percentiles, and in all.
    pub samples_per_pair: usize,
    pub samples: usize,
}

impl HostClock {
    pub fn of(threads: &mut [Slices]) -> HostClock {
        let mut clock = HostClock {
            samples_per_pair: threads.first().map_or(0, |t| 2 * t.every),
            samples: threads.iter().map(|t| t.host_ns.len()).sum(),
            ..HostClock::default()
        };
        let (mut p50, mut p99) = (Vec::new(), Vec::new());
        for t in threads {
            let pairs = t.mirrored_pairs();
            if pairs.is_empty() {
                continue;
            }
            let mut rates: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            clock.ops_per_s += quantile_f64(&mut rates, 75.0);
            p50.extend(pairs.iter().map(|p| p.1));
            p99.extend(pairs.iter().map(|p| p.2));
        }
        if !p50.is_empty() {
            clock.p50_us = quantile_f64(&mut p50, 25.0) / 1e3;
            clock.p99_us = quantile_f64(&mut p99, 25.0) / 1e3;
        }
        clock
    }
}

/// What a measured phase hands back.
pub struct Measured {
    pub ops: u64,
    /// Ops that returned `Err` (conflict retries and spec rollbacks are
    /// completed ops, not failures).
    pub failed_ops: u64,
    pub wall: Duration,
    pub host: HostClock,
    /// Simulated flash time charged while each op ran.
    pub flash_us: Vec<u32>,
    pub flash: FlashStats,
    pub pool: Option<PoolDelta>,
    /// Digest of the inputs fed to the library, in order.
    pub digest: u64,
    pub tracer: Tracer,
    /// `(before, after)` page images sampled from the op stream, where the
    /// workload sees page images at all.
    pub pairs: Vec<(Vec<u8>, Vec<u8>)>,
    pub conflict_retries: u64,
    pub rollbacks: u64,
}

/// A workload: how it is set up, what one measured phase does, and which
/// checks it adds to the common ones.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Load threads the workload runs.
    const THREADS: usize;
    /// Unflushed updates of the crash check made on the raw store after the
    /// common recovery check (0: the workload has none).
    const CRASH_UPDATES: u64 = 0;
    type Sizes;

    fn sizes(seconds: u64, smoke: bool) -> Self::Sizes;

    /// Build, load and warm up: everything before the first measured op.
    fn setup(sizes: &Self::Sizes, seed: u64) -> Result<Self, String>;

    fn measure(&mut self, tracing: bool) -> Result<Measured, String>;

    /// Workload-regime guards: what must hold for this run to be the
    /// workload its name says. Returns the violations.
    fn guards(&self, _m: &Measured) -> Vec<String> {
        Vec::new()
    }

    /// The workload's own correctness checks, after the measured phase,
    /// beyond the ones every workload ends with.
    fn check(&mut self, _failures: &mut Failures) -> Result<(), String> {
        Ok(())
    }

    /// Flush and take the store down.
    fn into_store(self) -> Result<Torn, String>;

    /// Fill in the per-layer metrics only this workload's spans provide.
    fn layer_metrics(_m: &mut Measured, _out: &mut Layers) {}
}

/// The per-layer metrics a traced run has measured, by name.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} is not in PER_LAYER");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Latencies are kept as `u32` (ns or simulated us): 4.29 s is far beyond
/// any op, and it halves the memory a run holds.
pub fn saturating_u32(v: u64) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// The result of one run, as printed and as written to a set file.
#[derive(Clone, Debug)]
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub failure_notes: Vec<String>,
    pub guard_violations: Vec<String>,
    /// Free-form lines for the human-readable part of the output.
    pub info: Vec<String>,
}

impl Report {
    /// Checks passed and no op failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_op_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }
}

pub fn run<W: Workload>(cfg: &RunConfig) -> Result<Report, String> {
    let sizes = W::sizes(cfg.seconds, cfg.smoke);
    if cfg.trace {
        run_traced::<W>(&sizes, cfg)
    } else {
        run_untraced::<W>(&sizes, cfg)
    }
}

fn timed_setup<W: Workload>(sizes: &W::Sizes, seed: u64) -> Result<(W, f64), String> {
    let started = Instant::now();
    let live = W::setup(sizes, seed)?;
    Ok((live, started.elapsed().as_secs_f64()))
}

/// Everything after the measured phase that both kinds of run share.
struct Checked {
    failures: Failures,
    guard_violations: Vec<String>,
    space_amp: f64,
    recover_flash_ms: f64,
    recover_flash_reads: u64,
    recover_host_ms: f64,
    /// Logical pages in use at the end of the run.
    pages: u64,
    /// PDL's counters and every page image at the end of the run.
    end_counters: Vec<(&'static str, u64)>,
    end_pages: Vec<u8>,
}

fn check_and_recover<W: Workload>(
    mut live: W,
    m: &Measured,
    cfg: &RunConfig,
) -> Result<Checked, String> {
    let mut failures = Failures::default();
    failures.add(m.failed_ops, "op returned Err");
    let guard_violations = live.guards(m);
    live.check(&mut failures)?;
    let torn = live.into_store()?;
    let (spec, pages) = (torn.spec, torn.pages);
    let end_counters = torn.store.counters();
    let recovered = recover_and_compare(torn, cfg.perturb_shadow, &mut failures)?;
    if W::CRASH_UPDATES > 0 {
        unflushed_crash_check(
            recovered.store,
            &recovered.shadow,
            &spec,
            W::CRASH_UPDATES,
            cfg.seed,
            &mut failures,
        )?;
    }
    Ok(Checked {
        failures,
        guard_violations,
        space_amp: recovered.space_amp,
        recover_flash_ms: recovered.flash_ms,
        recover_flash_reads: recovered.flash_reads,
        recover_host_ms: recovered.host_ms,
        pages,
        end_counters,
        end_pages: recovered.shadow,
    })
}

fn run_untraced<W: Workload>(sizes: &W::Sizes, cfg: &RunConfig) -> Result<Report, String> {
    let (mut live, first_setup_s) = timed_setup::<W>(sizes, cfg.seed)?;
    let mut m = live.measure(false)?;
    let checked = check_and_recover(live, &m, cfg)?;
    let peak_rss_mib = peak_rss_mib()?;

    // The other set-ups are only timed. They come last so that what they
    // allocate and free cannot move the peak read above: with them first,
    // whether the allocator reused their memory moved it by 15 %.
    let mut setup_s = vec![first_setup_s];
    for _ in 1..SETUP_REPEATS {
        let (discarded, s) = timed_setup::<W>(sizes, cfg.seed)?;
        setup_s.push(s);
        drop(discarded);
    }

    let ops = m.ops as f64;
    let values: [f64; 10] = [
        median_f64(&setup_s),
        m.host.ops_per_s,
        m.host.p50_us,
        m.host.p99_us,
        flash_us(&m.flash) as f64 / ops,
        percentile(&mut m.flash_us, 99.0) as f64,
        m.flash.total().erases as f64 * 1e3 / ops,
        checked.space_amp,
        checked.recover_flash_ms,
        peak_rss_mib,
    ];
    let metrics =
        END_TO_END.iter().zip(values).map(|(def, v)| (def.name.to_string(), v, def.unit)).collect();

    let mut info = common_info::<W>(&m, cfg);
    info.push(format!("setup_s samples: {setup_s:.3?}"));
    let supported =
        |n: usize| highest_supported_percentile(n).map_or("none".to_string(), |p| format!("p{p}"));
    info.push(format!(
        "host latency: {} samples, {} per slice pair; highest percentile with >= 10 samples \
         beyond it: {} per pair; total ops / total wall = {:.1} op/s",
        m.host.samples,
        m.host.samples_per_pair,
        supported(m.host.samples_per_pair),
        ops / m.wall.as_secs_f64(),
    ));
    let flash_top = highest_supported_percentile(m.flash_us.len()).unwrap_or(50.0);
    info.push(format!(
        "flash latency: {} samples; {} = {} sim_us",
        m.flash_us.len(),
        supported(m.flash_us.len()),
        percentile(&mut m.flash_us, flash_top)
    ));
    Ok(report::<W>(&m, checked, metrics, info))
}

fn run_traced<W: Workload>(sizes: &W::Sizes, cfg: &RunConfig) -> Result<Report, String> {
    // A twin set-up of the same seed, taken down at the end of warm-up:
    // `Database` gives no access to `PageStore::counters()` or to page
    // images while it runs, so the baseline for the measured-phase deltas
    // comes from here. (`into_store` flushes, so the baseline includes the
    // write-back of the buffer's dirty pages.)
    let mut twin = W::setup(sizes, cfg.seed)?.into_store()?;
    let base_counters = twin.store.counters();
    let page_size = twin.store.logical_page_size();
    let base_pages = read_all(&mut *twin.store, twin.pages)?;
    drop(twin);

    // The same phase with tracing off, for the overhead figure.
    let mut reference = W::setup(sizes, cfg.seed)?;
    let untraced = reference.measure(false)?;
    drop(reference);

    let mut live = W::setup(sizes, cfg.seed)?;
    let mut m = live.measure(true)?;
    let checked = check_and_recover(live, &m, cfg)?;

    let mut out = Layers::default();
    let ops = m.ops as f64;
    let total = m.flash.total();
    out.set("flash.reads_per_op", total.reads as f64 / ops);
    out.set("flash.writes_per_op", total.writes as f64 / ops);
    out.set("flash.user_us_per_op", m.flash.user.total_us() as f64 / ops);
    out.set("flash.gc_us_per_op", m.flash.gc.total_us() as f64 / ops);
    out.set("flash.gc_migrated_per_kop", m.flash.migrated_pages() as f64 * 1e3 / ops);
    out.set("flash.write_amp", m.flash.write_amplification());

    // A counter key that is absent is omitted, not an error.
    let delta = |key: &str| -> Option<f64> {
        let find = |set: &[(&'static str, u64)]| set.iter().find(|(k, _)| *k == key).map(|e| e.1);
        Some(find(&checked.end_counters)?.saturating_sub(find(&base_counters).unwrap_or(0)) as f64)
    };
    let cases = [delta("case1_staged"), delta("case2_flush_then_staged"), delta("case3_new_base")];
    if let [Some(c1), Some(c2), Some(c3)] = cases {
        let all = (c1 + c2 + c3).max(1.0);
        out.set("core.pdl.case1_share", c1 / all);
        out.set("core.pdl.case2_share", c2 / all);
        out.set("core.pdl.case3_share", c3 / all);
    }
    if let Some(v) = delta("dwb_flushes") {
        out.set("core.pdl.dwb_flushes_per_kop", v * 1e3 / ops);
    }
    if let Some(v) = delta("gc_runs") {
        out.set("core.pdl.gc_runs_per_kop", v * 1e3 / ops);
    }

    out.set("core.recover.host_ms", checked.recover_host_ms);
    out.set("core.recover.flash_reads", checked.recover_flash_reads as f64);

    if let Some(pool) = m.pool {
        let accesses = (pool.hits + pool.misses).max(1) as f64;
        out.set("storage.pool.hit_rate", pool.hits as f64 / accesses);
        out.set("storage.pool.misses_per_op", pool.misses as f64 / ops);
        out.set("storage.pool.evictions_per_op", pool.evictions as f64 / ops);
        out.set("storage.pool.dirty_writebacks_per_op", pool.dirty_writebacks as f64 / ops);
    }

    W::layer_metrics(&mut m, &mut out);

    if m.pairs.is_empty() {
        m.pairs = probe::changed_pairs(&base_pages, &checked.end_pages, page_size, PROBE_PAIRS);
    }
    probe::codec(&m.pairs, &mut out);
    probe::chip(&m.pairs, &mut out)?;

    let (untraced_rate, traced_rate) = (untraced.host.ops_per_s, m.host.ops_per_s);
    out.set("bench.trace_overhead_pct", (untraced_rate / traced_rate - 1.0) * 100.0);
    if let Some(op) = m.tracer.agg("op") {
        out.set("bench.driver_self_ns", op.self_ns as f64 / op.count.max(1) as f64);
    }

    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
    let path = cfg.out_dir.join(format!("trace-{}-seed{}.json", W::NAME, cfg.seed));
    let written = (|| -> std::io::Result<usize> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let n = m.tracer.write_chrome_trace(&mut file)?;
        std::io::Write::flush(&mut file)?;
        Ok(n)
    })()
    .map_err(|e| format!("write {}: {e}", path.display()))?;

    let metrics = PER_LAYER
        .iter()
        .map(|def| (def.name.to_string(), out.get(def.name).unwrap_or(0.0), def.unit))
        .collect();
    let mut info = common_info::<W>(&m, cfg);
    info.push(format!(
        "ops/s untraced {untraced_rate:.1}, traced {traced_rate:.1}; {} ops traced",
        m.tracer.agg("op").map_or(0, |a| a.count)
    ));
    info.push(format!("chrome trace: {} ({written} spans)", path.display()));
    Ok(report::<W>(&m, checked, metrics, info))
}

fn common_info<W: Workload>(m: &Measured, cfg: &RunConfig) -> Vec<String> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let why = WORKLOADS.iter().find(|w| w.name == W::NAME).map_or("", |w| w.why);
    let mut info = vec![
        format!("why: {}", why.split_whitespace().collect::<Vec<_>>().join(" ")),
        format!(
            "workload {} seed {} seconds {} trace {} smoke {}",
            W::NAME,
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace),
            cfg.smoke
        ),
        format!("load threads {}; available_parallelism {cores}", W::THREADS),
        format!(
            "measured ops {} in {:.3} s; op-stream digest {:016x}",
            m.ops,
            m.wall.as_secs_f64(),
            m.digest
        ),
        format!(
            "measured phase: {} erases, {} conflict retries, {} spec rollbacks",
            m.flash.total().erases,
            m.conflict_retries,
            m.rollbacks
        ),
    ];
    if cores < W::THREADS {
        info.push(format!("degraded: {} load threads on {cores} cores", W::THREADS));
    }
    info
}

fn report<W: Workload>(
    m: &Measured,
    checked: Checked,
    metrics: Vec<(String, f64, &'static str)>,
    info: Vec<String>,
) -> Report {
    let mut info = info;
    info.push(format!(
        "after the run: {} logical pages in use; recovery took {:.1} host ms",
        checked.pages, checked.recover_host_ms
    ));
    Report {
        workload: W::NAME,
        attempted: m.ops,
        failed: checked.failures.count,
        metrics,
        failure_notes: checked.failures.notes,
        guard_violations: checked.guard_violations,
        info,
    }
}

/// `VmHWM` of this process: the most memory it ever held.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `SLICES` slices of 10 ops; op latency and slice wall time are given
    /// per slice.
    fn slices(latency_ns: impl Fn(usize) -> u64) -> Slices {
        let mut s = Slices::start(10 * SLICES as u64);
        let mut now = s.started;
        for slice in 0..SLICES {
            for _ in 0..10 {
                let t0 = now;
                now += Duration::from_nanos(latency_ns(slice));
                s.op_done(t0, now);
            }
        }
        s
    }

    #[test]
    fn mirrored_pairs_cancel_drift_and_the_median_ignores_a_burst() {
        // Latency drifts from 1 000 to 2 900 ns: every pair averages the same.
        let mut drifting = slices(|i| 1_000 + 100 * i as u64);
        let pairs = drifting.mirrored_pairs();
        assert_eq!(pairs.len(), SLICES / 2);
        for (rate, _, _) in &pairs {
            assert!((rate - 1e9 / 1_950.0).abs() < 1.0, "{rate}");
        }
        let steady = HostClock::of(&mut [slices(|_| 2_000)]);
        assert!((steady.ops_per_s - 500_000.0).abs() < 1.0);
        assert_eq!((steady.p50_us, steady.p99_us), (2.0, 2.0));
        assert_eq!((steady.samples, steady.samples_per_pair), (200, 20));
        // Six slices ten times slower spoil six of the ten pairs and move
        // their median, not the quartile on the good side.
        let burst = |i: usize| if (4..10).contains(&i) { 20_000 } else { 2_000 };
        let bursty = HostClock::of(&mut [slices(burst)]);
        assert!((bursty.ops_per_s - 500_000.0).abs() < 1.0);
        assert_eq!((bursty.p50_us, bursty.p99_us), (2.0, 2.0));
        // Two threads add their rates.
        let two = HostClock::of(&mut [slices(|_| 2_000), slices(|_| 4_000)]);
        assert!((two.ops_per_s - 750_000.0).abs() < 1.0);
    }

    #[test]
    fn a_phase_shorter_than_the_slice_count_still_reports() {
        let mut s = Slices::start(3);
        let mut now = s.started;
        for _ in 0..3 {
            let t0 = now;
            now += Duration::from_nanos(500);
            s.op_done(t0, now);
        }
        let clock = HostClock::of(&mut [s]);
        assert!((clock.ops_per_s - 2e6).abs() < 1.0);
        assert_eq!(clock.p50_us, 0.5);
    }
}
