//! The version-retention ledger under DRAM pressure: one epoch-long
//! scanner holds a read view across an entire readers-vs-writers run
//! while the retention budget is squeezed from unbounded down to 1% of
//! the database size.
//!
//! Before the flash ledger, a view that outlived `snapshot_version_cap`
//! read `SnapshotTooOld` — the cap was a correctness cliff sized by
//! DRAM. With the ledger, cold pre-images migrate to PDL spill pages
//! and `with_page_at` resolves DRAM chain → ledger → flash read, so the
//! budget is a *performance* knob: the epoch view must read its
//! open-time bytes byte-for-byte at every budget, with zero
//! `SnapshotTooOld` anywhere.
//!
//! The cost side is the second acceptance bar: gap-precise eviction
//! spills only versions some active view actually resolves to (≈ one
//! per written page per view gap, not one per commit), so the bound
//! write throughput at a 1% budget must stay within 1.5x of the
//! unbounded run's.
//!
//! Emits `BENCH_retention.json` (`pdl-metrics-v1`), one prefix per
//! budget point, including the `retention.*` gauges `obs_gate`
//! cross-checks.
//!
//! Run with `cargo bench -p pdl-bench --bench retention`; set
//! `PDL_SCALE=quick|default|paper` to choose the workload size.

use pdl_core::{MethodKind, ShardedStore, StoreOptions};
use pdl_flash::FlashConfig;
use pdl_obs::json;
use pdl_storage::{Database, Durability};
use pdl_workload::{
    obs, run_snapshot_read_workload, Scale, SnapshotReadConfig, SnapshotReadResult, Table,
};

const SHARDS: usize = 4;
const PAGES: u64 = 256;
const READERS: usize = 2;
const WRITERS: usize = 4;
const PAGES_PER_TXN: usize = 8;
/// One logical page: the size of every retained version.
const PAGE_BYTES: u64 = 2048;

/// The three DRAM retention budgets, as fractions of the database size
/// (`None` = unbounded: every retained version stays in DRAM).
const BUDGETS: [(&str, Option<u64>); 3] =
    [("unbounded", None), ("pct10", Some(10)), ("pct1", Some(100))];

fn workload_size(scale: Scale) -> (u64, u64) {
    // (scans per reader, txns per writer)
    match scale.label() {
        "quick" => (4, 48),
        "paper" => (48, 768),
        _ => (16, 256),
    }
}

struct BudgetRun {
    result: SnapshotReadResult,
    /// Buffer statistics sampled after the epoch sweep (the workload
    /// result's sample predates it, and the sweep is where the cold
    /// ledger resolves happen).
    stats: pdl_storage::BufferStats,
    /// Epoch-view pages whose post-run bytes diverged from open time.
    mismatches: u64,
    /// GC victim passes that deprioritised ledger-pinned blocks.
    pinned_skips: u64,
    /// Bound write throughput: committed txns per second of the busiest
    /// shard's flash time (the engine's critical path).
    commits_per_sec: f64,
}

fn build_db(budget_bytes: u64) -> Database {
    // Every retained version is one logical page, so a byte budget is a
    // version cap of `budget / page` versions (0 = unbounded).
    let cap = match budget_bytes {
        0 => u32::MAX,
        b => (b / PAGE_BYTES) as u32,
    };
    let opts = StoreOptions::new(PAGES).with_snapshot_version_cap(cap).with_obs(true);
    let store = ShardedStore::with_uniform_chips(
        FlashConfig::scaled(64),
        SHARDS,
        MethodKind::Pdl { max_diff_size: 256 },
        opts,
    )
    .expect("store");
    let db = Database::new(Box::new(store), PAGES as usize / 4).with_durability(Durability::Commit);
    for pid in 0..PAGES {
        let seed: Vec<u8> = (0..16).map(|i| (pid as u8).wrapping_mul(37).wrapping_add(i)).collect();
        db.with_page_mut(pid, |p| p.write(0, &seed)).expect("seed");
    }
    db.flush().expect("seed flush");
    db
}

fn run(
    scale: Scale,
    label: &str,
    budget_bytes: u64,
    reg: &mut pdl_obs::MetricsRegistry,
) -> BudgetRun {
    let (scans, txns) = workload_size(scale);
    let db = build_db(budget_bytes);

    // The epoch view: opened before the first writer commits, held
    // across the whole run. Its oracle is captured through the view
    // itself, before the workload's measurement window opens.
    let view = db.begin_read();
    let oracle: Vec<Vec<u8>> = (0..PAGES)
        .map(|pid| db.with_page_at(&view, pid, |pg| pg.to_vec()).expect("open-time read"))
        .collect();

    let cfg = SnapshotReadConfig {
        pages_per_txn: PAGES_PER_TXN,
        ..SnapshotReadConfig::new(READERS, WRITERS)
    }
    .with_scans(scans)
    .with_txns_per_writer(txns);
    let result = run_snapshot_read_workload(&db, &cfg).expect("workload");

    // Every page the epoch view reads after the run must still carry its
    // open-time bytes — the written groups have long overrun any finite
    // budget, so at the squeezed points these resolve from the flash
    // ledger.
    let mut mismatches = 0u64;
    for pid in 0..PAGES {
        let got = db
            .with_page_at(&view, pid, |pg| pg.to_vec())
            .expect("the ledger must keep the epoch view alive: no SnapshotTooOld");
        if got != oracle[pid as usize] {
            mismatches += 1;
        }
    }
    db.release_read(view);

    let stats = db.buffer_stats();
    let snap = db.obs_snapshot();
    // The sharded store sums its shards' counters.
    let (pinned_skips, spill_supported) = db.with_store(|s| {
        let counters = s.counters();
        let pinned = counters.iter().find(|(name, _)| *name == "retention_pinned_skips");
        (pinned.map_or(0, |(_, v)| *v), s.spill_supported())
    });
    // "Enabled" means engaged: the store can spill *and* a finite budget
    // exists to trip it (`obs_gate` fails an enabled ledger that never
    // resolved a cold version, and the unbounded point never should).
    let ledger_enabled = spill_supported && budget_bytes > 0;
    let commits_per_sec =
        result.committed as f64 / (result.flash_us_max_shard.max(1) as f64 / 1_000_000.0);

    reg.set_u64(&format!("{label}.committed"), result.committed);
    reg.set_u64(&format!("{label}.scans"), result.scans);
    reg.set_u64(&format!("{label}.torn_scans"), result.torn_scans);
    reg.set_u64(&format!("{label}.too_old_retries"), result.too_old_retries);
    reg.set_u64(&format!("{label}.epoch_mismatches"), mismatches);
    reg.set_u64(&format!("{label}.flash_us_max_shard"), result.flash_us_max_shard);
    reg.set_f64(&format!("{label}.bound_commits_per_sec"), commits_per_sec);
    obs::put_buffer_stats(reg, &format!("{label}.buffer"), &stats);
    obs::put_retention_stats(reg, label, &stats, pinned_skips, ledger_enabled);
    obs::put_flash_stats(reg, label, &db.io_stats());
    obs::put_recorder_snapshot(reg, label, &snap);

    BudgetRun { result, stats, mismatches, pinned_skips, commits_per_sec }
}

fn main() {
    let scale = Scale::from_env();
    let db_bytes = PAGES * PAGE_BYTES;
    println!("# Retention-budget sweep: one epoch-long view vs {WRITERS} committing writers");
    println!(
        "method: PDL (256B) x{SHARDS} shards | {PAGES} pages | {READERS} scanners + 1 epoch view \
         | budgets: unbounded, 10%, 1% of {db_bytes}B | scale: {}",
        scale.label()
    );
    println!();

    let mut reg = obs::bench_registry("retention", scale.label());
    let mut runs: Vec<(&str, BudgetRun)> = Vec::new();
    for (label, divisor) in BUDGETS {
        let budget_bytes = divisor.map(|d| db_bytes / d).unwrap_or(0);
        runs.push((label, run(scale, label, budget_bytes, &mut reg)));
    }

    let baseline = runs[0].1.commits_per_sec;
    let mut table = Table::new(
        "epoch view across the whole run, per DRAM budget",
        &[
            "budget",
            "committed",
            "scans",
            "too old",
            "mismatch",
            "spilled",
            "ledger hits",
            "flash resolves",
            "pinned skips",
            "bound commits/s",
            "vs unbounded",
        ],
    );
    for (label, r) in &runs {
        let b = &r.stats;
        table.row(vec![
            label.to_string(),
            r.result.committed.to_string(),
            r.result.scans.to_string(),
            r.result.too_old_retries.to_string(),
            r.mismatches.to_string(),
            b.spilled_versions.to_string(),
            b.ledger_hits.to_string(),
            b.flash_resolves.to_string(),
            r.pinned_skips.to_string(),
            format!("{:.1}", r.commits_per_sec),
            format!("{:.2}x", baseline / r.commits_per_sec.max(f64::MIN_POSITIVE)),
        ]);
    }
    println!("{}", table.render());

    for (label, r) in &runs {
        assert_eq!(
            r.result.too_old_retries, 0,
            "{label}: the ledger must absorb every cap overrun — zero SnapshotTooOld"
        );
        assert_eq!(r.mismatches, 0, "{label}: the epoch view diverged from its open-time bytes");
        assert_eq!(r.result.torn_scans, 0, "{label}: scans must observe atomic commit groups");
        assert_eq!(r.result.buffer.leaked_pids, 0, "{label}: a run may not strand pids");
    }
    let pct1 = &runs.iter().find(|(l, _)| *l == "pct1").expect("pct1 point").1;
    assert!(
        pct1.stats.spilled_versions > 0 && pct1.stats.flash_resolves > 0,
        "the 1% budget must exercise the ledger (spilled={}, resolves={})",
        pct1.stats.spilled_versions,
        pct1.stats.flash_resolves
    );
    let degradation = baseline / pct1.commits_per_sec.max(f64::MIN_POSITIVE);
    println!(
        "1% budget: {degradation:.2}x the unbounded run's bound write throughput \
         (acceptance bar: <= 1.5x), zero SnapshotTooOld at every budget"
    );
    assert!(
        degradation <= 1.5,
        "gap-precise retention must keep the 1%-budget write-throughput degradation <= 1.5x, \
         got {degradation:.2}x"
    );

    let doc = reg.to_json();
    let v = json::parse(&doc).expect("registry emits valid JSON");
    json::validate_metrics(&v).expect("valid pdl-metrics-v1");
    std::fs::write("BENCH_retention.json", &doc).expect("write BENCH_retention.json");
    println!("\nwrote BENCH_retention.json ({} bytes)", doc.len());
}
