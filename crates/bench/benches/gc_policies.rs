//! GC-policy shoot-out: greedy vs cost-benefit vs hot/cold data
//! separation, at 1/2/4 shards, under uniform and skewed (80/20) page
//! sets — the comparison of Dayan & Bonnet's "Garbage Collection
//! Techniques for Flash-Resident Page-Mapping FTLs", transplanted onto
//! the PDL engine.
//!
//! For each configuration the table reports:
//!
//! * **sim us/op** — simulated flash I/O time per update operation;
//! * **WA** — write amplification (total page programs per user page
//!   program; GC migration traffic is the difference from 1.0);
//! * **migrated** — pages programmed by GC during the measured phase
//!   (`FlashStats::migrated_pages`: relocated bases, compacted
//!   differential pages, obsolete marks issued by GC);
//! * **gc erases** — erase operations triggered by GC;
//! * **wear spread** — max-erase-count / avg-erase-count over all blocks.
//!
//! Under the uniform page set the three policies are nearly
//! indistinguishable (every block ages the same way); under the 80/20
//! skew cold blocks stay nearly fully valid, greedy pays to migrate
//! them, and cost-benefit / hot-cold pull ahead — the divergence Dayan &
//! Bonnet's Figures 4-6 show growing with skew.
//!
//! One thread drives every configuration, so stdout depends on the scale
//! alone: at quick scale it is checked in as
//! `crates/bench/golden/gc_policies.quick.txt`.
//!
//! Run with `cargo bench -p pdl-bench --bench gc_policies`; set
//! `PDL_SCALE=quick|default|paper` as usual.

use pdl_core::{GcPolicy, MethodKind, PageStore, ShardedStore, StoreOptions};
use pdl_flash::FlashConfig;
use pdl_workload::{
    db_pages_for, load_database, run_update_workload, Measurement, Scale, Table, UpdateConfig,
};

const POLICIES: [(GcPolicy, &str); 3] = [
    (GcPolicy::Greedy, "greedy"),
    (GcPolicy::CostBenefit, "cost-benefit"),
    (GcPolicy::HotCold, "hot/cold"),
];

struct Point {
    policy: &'static str,
    shards: usize,
    measurement: Measurement,
    write_amp: f64,
    migrated: u64,
    gc_erases: u64,
    wear_spread: f64,
}

fn run_config(
    scale: Scale,
    policy: GcPolicy,
    label: &'static str,
    shards: usize,
    skewed: bool,
) -> Point {
    let kind = MethodKind::Pdl { max_diff_size: 256 };
    let blocks_per_shard = (scale.num_blocks() / shards as u32).max(8);
    // Twice the paper-experiment load (~50% of the frames live, ~60%
    // with steady-state differentials): reclamation pressure high enough
    // that victim selection matters, which is where policies diverge.
    let pages = (2 * db_pages_for(scale, 1)).min(blocks_per_shard as u64 * shards as u64 * 32);
    let mut store = ShardedStore::with_uniform_chips(
        FlashConfig::scaled(blocks_per_shard),
        shards,
        kind,
        StoreOptions::new(pages).with_gc_policy(policy),
    )
    .expect("store");
    load_database(&mut store).expect("load");

    // Warm into steady state (not measured) so the hot/cold heat gauge
    // and the block populations reach their stable regime, then measure.
    let cfg = UpdateConfig::new(2.0, 1)
        .with_measured_cycles(scale.measured_cycles() * 8)
        .with_warmup(
            scale.warmup_erases_per_block() * scale.num_blocks() as u64 / 4,
            scale.warmup_max_cycles() / 4,
        )
        .with_phase_jitter(110)
        .with_skew(skewed);
    let measurement = run_update_workload(&mut store, &cfg).expect("workload");
    // The workload driver resets statistics before its measured cycles,
    // so these figures are measurement-scoped.
    let stats = PageStore::stats(&store);
    Point {
        policy: label,
        shards,
        measurement,
        write_amp: stats.write_amplification(),
        migrated: stats.migrated_pages(),
        gc_erases: stats.gc_erases(),
        wear_spread: PageStore::wear_summary(&store).spread(),
    }
}

fn main() {
    let scale = Scale::from_env();
    println!("# GC policies: greedy vs cost-benefit vs hot/cold (PDL 256B)");
    println!(
        "workload: %Changed = 2, N = 1 | scale: {} | constant total flash budget per shard count",
        scale.label()
    );
    println!();

    for (skewed, page_set) in [(false, "uniform"), (true, "skewed 80/20")] {
        let mut t = Table::new(
            format!("{page_set} page set"),
            &[
                "policy",
                "shards",
                "cycles",
                "sim us/op",
                "WA",
                "migrated",
                "gc erases",
                "wear spread",
            ],
        );
        for (policy, label) in POLICIES {
            for shards in [1usize, 2, 4] {
                eprintln!("... {label} x{shards} ({page_set})");
                let p = run_config(scale, policy, label, shards, skewed);
                t.row(vec![
                    p.policy.to_string(),
                    p.shards.to_string(),
                    p.measurement.cycles.to_string(),
                    format!("{:.1}", p.measurement.overall_us_per_op()),
                    format!("{:.3}", p.write_amp),
                    p.migrated.to_string(),
                    p.gc_erases.to_string(),
                    format!("{:.2}", p.wear_spread),
                ]);
            }
        }
        println!("{}", t.render());
    }
}
