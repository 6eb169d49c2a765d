//! Flash longevity: erase counts and wear distribution under sustained
//! updates — the concern behind the paper's Experiment 6 — plus the
//! wear-aware GC ablation.
//!
//! Run with `cargo run --release --example wear_and_gc`.

use page_differential_logging::prelude::*;
use pdl_flash::WearSummary;
use pdl_workload::{chip_for, db_pages_for};

fn measure(kind: MethodKind, policy: GcPolicy) -> (String, f64, WearSummary) {
    let scale = Scale::Quick;
    let chip = chip_for(scale, FlashTiming::PAPER);
    let opts = StoreOptions::new(db_pages_for(scale, 1)).with_gc_policy(policy);
    let mut store = build_store(chip, kind, opts).expect("store");
    load_database(store.as_mut()).expect("load");
    let cfg = UpdateConfig::new(2.0, 1)
        .with_measured_cycles(2_000)
        .with_warmup(128, 40_000)
        .with_phase_jitter(110);
    let m = run_update_workload(store.as_mut(), &cfg).expect("workload");
    let label = match policy {
        GcPolicy::WearAware => format!("{} + wear-aware GC", store.name()),
        GcPolicy::Greedy => store.name(),
    };
    (label, m.erases_per_op(), store.chip().wear_summary())
}

fn main() {
    println!("erase operations per update operation and wear spread");
    println!("(more erases = shorter flash lifetime; blocks die at ~100k erases)\n");
    println!("{:<26} {:>10} {:>8} {:>8} {:>8}", "method", "erases/op", "min", "avg", "max");
    let mut rows = Vec::new();
    for kind in MethodKind::paper_five() {
        rows.push(measure(kind, GcPolicy::Greedy));
    }
    rows.push(measure(MethodKind::Pdl { max_diff_size: 256 }, GcPolicy::WearAware));
    for (label, erases, wear) in rows {
        println!(
            "{:<26} {:>10.4} {:>8} {:>8.1} {:>8}",
            label,
            erases,
            wear.min_erases,
            wear.avg_erases(),
            wear.max_erases
        );
    }
    println!(
        "\nPaper, Experiment 6: OPU erases most; PDL (256B) 'has good longevity \
         next to IPL (64KB)' — and the wear-aware victim policy narrows the \
         max/avg spread further."
    );
}
