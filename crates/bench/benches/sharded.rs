//! Sharded-engine throughput: update-operation throughput as the shard
//! count varies under a fixed 4-thread workload. The total flash block
//! budget is held constant across shard counts, so the comparison
//! isolates concurrency.
//!
//! Two throughput figures are reported:
//!
//! * **wall ops/s** — raw wall-clock throughput on *this* machine. It
//!   only shows scaling when the machine has spare cores for the worker
//!   threads (the banner prints the available parallelism).
//! * **bound ops/s** — the machine-independent concurrency bound
//!   `cycles / max-shard-busy-time`: every operation holds exactly its
//!   owning shard's lock, so the busiest shard's total lock-hold time is
//!   the critical path no thread count can compress. One shard
//!   serializes everything behind one lock; N shards divide the critical
//!   path ~N ways — this is the speedup sharding buys, and what wall
//!   clock converges to given >= N cores.
//!
//! Run with `cargo bench -p pdl-bench --bench sharded`; set
//! `PDL_SCALE=quick|default|paper` to choose the scale and
//! `PDL_BENCH_THREADS` to override the worker count.

use pdl_core::{MethodKind, PageStore, ShardedStore, StoreOptions};
use pdl_flash::FlashConfig;
use pdl_workload::{
    db_pages_for, load_database, run_threaded_update_workload, wear_table, Measurement,
    PageSetMode, Scale, Table, ThreadedConfig, UpdateConfig,
};
use std::time::{Duration, Instant};

fn threads_from_env() -> usize {
    std::env::var("PDL_BENCH_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(4)
}

struct Point {
    shards: usize,
    measurement: Measurement,
    wall_secs: f64,
    /// The busiest shard's lock-hold time: the critical path.
    max_busy_secs: f64,
    wear: Vec<pdl_flash::WearSummary>,
}

fn run_config(scale: Scale, shards: usize, threads: usize, mode: PageSetMode) -> Point {
    let kind = MethodKind::Pdl { max_diff_size: 256 };
    let blocks_per_shard = (scale.num_blocks() / shards as u32).max(8);
    let pages = db_pages_for(scale, 1).min(blocks_per_shard as u64 * shards as u64 * 16);
    let mut store = ShardedStore::with_uniform_chips(
        FlashConfig::scaled(blocks_per_shard),
        shards,
        kind,
        StoreOptions::new(pages),
    )
    .expect("store");
    load_database(&mut store).expect("load");

    // Warm into steady state (not timed), then measure a pure run. The
    // phase jitter decoheres PDL's per-page differential saw-tooth, as
    // the single-threaded experiment runner does for buffered methods.
    let warm = ThreadedConfig::new(
        threads,
        UpdateConfig::new(2.0, 1)
            .with_measured_cycles(0)
            .with_warmup(
                scale.warmup_erases_per_block() * scale.num_blocks() as u64 / 4,
                scale.warmup_max_cycles() / 4,
            )
            .with_phase_jitter(110),
    )
    .with_mode(mode);
    run_threaded_update_workload(&store, &warm).expect("warm-up");

    // Wall-clock throughput needs far more cycles than the simulated-time
    // experiments to rise above thread spawn/join noise.
    let measured = ThreadedConfig::new(
        threads,
        UpdateConfig::new(2.0, 1)
            .with_measured_cycles(scale.measured_cycles() * 64)
            .with_warmup(0, 0),
    )
    .with_mode(mode);
    store.reset_busy();
    let started = Instant::now();
    let measurement = run_threaded_update_workload(&store, &measured).expect("measure");
    let wall_secs = started.elapsed().as_secs_f64();
    let max_busy_secs =
        store.per_shard_busy().iter().map(Duration::as_secs_f64).fold(0.0, f64::max);
    let mut wear = Vec::new();
    store.for_each_chip(&mut |c| wear.push(c.wear_summary()));
    Point { shards, measurement, wall_secs, max_busy_secs, wear }
}

fn mode_label(mode: PageSetMode) -> &'static str {
    match mode {
        PageSetMode::Disjoint => "disjoint",
        PageSetMode::Overlapping => "overlapping",
        PageSetMode::Skewed => "skewed 80/20",
    }
}

fn main() {
    let scale = Scale::from_env();
    let threads = threads_from_env();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("# Sharded engine: update-operation throughput");
    println!(
        "method: PDL (256B) | workload: %Changed = 2, N = 1 | threads: {threads} | \
         cores available: {cores} | scale: {} | constant total flash budget",
        scale.label()
    );
    if cores < threads {
        println!(
            "(only {cores} core(s): wall ops/s cannot scale here; \
             the bound ops/s column carries the shard-scaling result)"
        );
    }
    println!();

    for mode in [PageSetMode::Disjoint, PageSetMode::Overlapping] {
        let points: Vec<Point> =
            [1usize, 2, 4].iter().map(|&s| run_config(scale, s, threads, mode)).collect();
        let base_wall = points[0].measurement.cycles as f64 / points[0].wall_secs;
        let base_bound = points[0].measurement.cycles as f64 / points[0].max_busy_secs;
        let mut t = Table::new(
            format!("{} page sets, {threads} threads", mode_label(mode)),
            &[
                "shards",
                "cycles",
                "wall ms",
                "wall ops/s",
                "max-shard busy ms",
                "bound ops/s",
                "speedup",
                "sim us/op",
            ],
        );
        for p in &points {
            let wall_ops = p.measurement.cycles as f64 / p.wall_secs;
            let bound_ops = p.measurement.cycles as f64 / p.max_busy_secs;
            t.row(vec![
                p.shards.to_string(),
                p.measurement.cycles.to_string(),
                format!("{:.0}", p.wall_secs * 1e3),
                format!("{wall_ops:.0} ({:.2}x)", wall_ops / base_wall),
                format!("{:.0}", p.max_busy_secs * 1e3),
                format!("{bound_ops:.0}"),
                format!("{:.2}x", bound_ops / base_bound),
                format!("{:.1}", p.measurement.overall_us_per_op()),
            ]);
        }
        println!("{}", t.render());
        if let Some(p4) = points.iter().find(|p| p.shards == 4) {
            println!(
                "{}",
                wear_table(format!("wear, 4 shards ({})", mode_label(mode)), &p4.wear).render()
            );
        }
    }
}
