//! Ablation benches for the design choices DESIGN.md §6 calls out:
//!
//! 1. `Max_Differential_Size` beyond the paper's two settings;
//! 2. differential run-coalescing gap (metadata vs payload trade);
//! 3. update placement (sequential records vs uniform vs scattered);
//! 4. GC victim policy: greedy (the paper's) vs wear-aware;
//! 5. durable commit batches on one chip and on two shards.

use pdl_core::{
    BatchPage, CommitBatch, GcPolicy, MethodKind, PageStore, Pdl, ShardedStore, StoreOptions,
};
use pdl_flash::FlashTiming;
use pdl_workload::{
    chip_for, db_pages_for, load_database, run_update_workload, Placement, Scale, Table,
    UpdateConfig,
};

fn base_config(scale: Scale) -> UpdateConfig {
    UpdateConfig::new(2.0, 1)
        .with_measured_cycles(scale.measured_cycles())
        .with_warmup(
            scale.warmup_erases_per_block() * scale.num_blocks() as u64,
            scale.warmup_max_cycles(),
        )
        .with_phase_jitter(110)
        .with_seed(0x0AB1)
}

fn build_pdl(scale: Scale, max_diff: usize, gap: usize, policy: GcPolicy) -> Pdl {
    let chip = chip_for(scale, FlashTiming::PAPER);
    let opts = StoreOptions::new(db_pages_for(scale, 1)).with_coalesce_gap(gap);
    let mut pdl = Pdl::new(chip, opts, max_diff).expect("valid config");
    pdl.set_gc_policy(policy);
    pdl
}

fn run(store: &mut dyn PageStore, cfg: &UpdateConfig) -> (f64, f64, f64) {
    load_database(store).expect("load");
    let m = run_update_workload(store, cfg).expect("workload");
    (m.overall_us_per_op(), m.erases_per_op(), m.gc_us_per_op())
}

fn ablate_max_diff_size(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation 1: Max_Differential_Size sweep (PDL, N=1, %changed=2)",
        &["max_diff", "overall us/op", "erases/op"],
    );
    for max_diff in [64usize, 128, 256, 512, 1024, 2048] {
        let mut pdl = build_pdl(scale, max_diff, 8, GcPolicy::Greedy);
        let (us, erases, _) = run(&mut pdl, &base_config(scale));
        t.row(vec![format!("{max_diff}B"), format!("{us:.1}"), format!("{erases:.4}")]);
    }
    t
}

fn ablate_coalesce_gap(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation 2: differential run-coalescing gap (PDL 2KB)",
        &["gap", "overall us/op"],
    );
    for gap in [0usize, 2, 8, 32, 128] {
        let mut pdl = build_pdl(scale, 2048, gap, GcPolicy::Greedy);
        let (us, _, _) = run(&mut pdl, &base_config(scale));
        t.row(vec![format!("{gap}B"), format!("{us:.1}")]);
    }
    t
}

fn ablate_placement(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation 3: update placement within a page (PDL 2KB vs 256B)",
        &["placement", "PDL(2KB) us/op", "PDL(256B) us/op"],
    );
    for (label, placement) in [
        ("round-robin (paper model)", Placement::RoundRobin),
        ("uniform random", Placement::Uniform),
        ("scattered x4", Placement::Scattered),
    ] {
        let cfg = base_config(scale).with_placement(placement);
        let mut pdl2k = build_pdl(scale, 2048, 8, GcPolicy::Greedy);
        let (us2k, _, _) = run(&mut pdl2k, &cfg);
        let mut pdl256 = build_pdl(scale, 256, 8, GcPolicy::Greedy);
        let (us256, _, _) = run(&mut pdl256, &cfg);
        t.row(vec![label.to_string(), format!("{us2k:.1}"), format!("{us256:.1}")]);
    }
    t
}

fn ablate_gc_policy(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation 4: GC victim policy (PDL 256B): wear spread vs cost",
        &["policy", "overall us/op", "gc us/op", "wear max/avg"],
    );
    for (label, policy) in
        [("greedy (paper)", GcPolicy::Greedy), ("wear-aware", GcPolicy::WearAware)]
    {
        let mut pdl = build_pdl(scale, 256, 8, policy);
        let (us, _, gc_us) = run(&mut pdl, &base_config(scale));
        let wear = pdl.chip().wear_summary();
        let spread =
            if wear.avg_erases() > 0.0 { wear.max_erases as f64 / wear.avg_erases() } else { 0.0 };
        t.row(vec![
            label.to_string(),
            format!("{us:.1}"),
            format!("{gc_us:.1}"),
            format!("{spread:.2}"),
        ]);
    }
    t
}

/// Durable commits through `commit_batch`, enough of them to garbage-
/// collect: each transaction changes 40 bytes (2 %) of four pages, and
/// `batch` transactions with disjoint pages make a batch, on one chip and
/// on two shards of one chip each. One driver thread and a fixed seed:
/// the table is deterministic. Flash time sums every chip's.
fn ablate_commit_batches(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation 5: durable commit batches (PDL 256B, 2% of four pages per transaction)",
        &["store", "batch", "flash us/txn", "programs/txn", "erases"],
    );
    let txns = scale.measured_cycles() * 8;
    for shards in [1usize, 2] {
        for batch in [1u64, 4] {
            let pages = db_pages_for(scale, 1) * shards as u64;
            let opts = StoreOptions::new(pages);
            let chip = || chip_for(scale, FlashTiming::PAPER);
            let mut store: Box<dyn PageStore> = if shards == 1 {
                Box::new(Pdl::new(chip(), opts, 256).expect("valid config"))
            } else {
                let chips = (0..shards).map(|_| chip()).collect();
                let kind = MethodKind::Pdl { max_diff_size: 256 };
                Box::new(ShardedStore::new(chips, kind, opts).expect("valid config"))
            };
            load_database(store.as_mut()).expect("load");
            let size = store.logical_page_size();
            let mut truth = vec![vec![0u8; size]; pages as usize];
            for (pid, page) in truth.iter_mut().enumerate() {
                store.read_page(pid as u64, page).expect("read");
            }
            store.reset_stats();
            let mut x = 0x0AB5_C0DEu64;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for b in 0..txns / batch {
                let mut pids: Vec<u64> = Vec::new();
                while pids.len() < 4 * batch as usize {
                    let pid = next() % pages;
                    if !pids.contains(&pid) {
                        pids.push(pid);
                    }
                }
                for &pid in &pids {
                    let at = next() as usize % (size - 40);
                    let byte = next() as u8;
                    truth[pid as usize][at..at + 40].fill(byte);
                }
                let members = pids.chunks(4).zip(b * batch + 1..);
                let pages = members.flat_map(|(chunk, txn)| {
                    chunk
                        .iter()
                        .map(|&pid| BatchPage::new(pid, &truth[pid as usize], txn))
                        .collect::<Vec<_>>()
                });
                store
                    .commit_batch(&CommitBatch { pages: pages.collect(), roots: None })
                    .expect("commit");
            }
            let ops = store.stats().total();
            let label = if shards == 1 { "1 chip".to_string() } else { format!("{shards} shards") };
            t.row(vec![
                label,
                batch.to_string(),
                format!("{:.1}", ops.total_us() as f64 / txns as f64),
                format!("{:.2}", ops.writes as f64 / txns as f64),
                ops.erases.to_string(),
            ]);
        }
    }
    t
}

fn main() {
    let scale = Scale::from_env();
    println!("# Ablation benches (DESIGN.md §6) — scale: {}\n", scale.label());
    let started = std::time::Instant::now();
    println!("{}", ablate_max_diff_size(scale).render());
    println!("{}", ablate_coalesce_gap(scale).render());
    println!("{}", ablate_placement(scale).render());
    println!("{}", ablate_gc_policy(scale).render());
    println!("{}", ablate_commit_batches(scale).render());
    println!(
        "methods under test elsewhere: {:?}",
        MethodKind::paper_six().iter().map(|k| k.label()).collect::<Vec<_>>()
    );
    println!("(wall time: {:.1?})", started.elapsed());
}
