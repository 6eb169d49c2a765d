//! Transactional commit throughput (`pdl-txn`): group commit vs solo
//! commits, over 1 / 4 / 16 concurrent writers.
//!
//! Every writer issues multi-page transactions (2 pages each, the
//! TPC-C-style atomic unit) against a sharded PDL store through a
//! [`pdl_storage::Database`] in `Durability::Commit` mode and commits
//! through one of two disciplines:
//!
//! * **solo** — the workload lets one committer at a time into
//!   `Database::commit`, so each transaction pays its own
//!   differential-write-buffer flush and commit-record flush (the
//!   Adaptive-Logging "commit latency first" end of the trade-off);
//! * **group** — the database's group-commit queue batches concurrently
//!   committing transactions, so a whole batch's differentials share
//!   flash pages and its commit records share one flush per shard
//!   (amortizing the flush the way the paper's Case-2 buffer amortizes
//!   page writes).
//!
//! The headline column is **bound tps**: committed transactions per
//! second of *simulated flash time* — on a single-core host the wall
//! clock cannot separate the disciplines, but the flash-op ledger can.
//! At 16 writers group commit must reach >= 1.5x solo (the pdl-txn
//! acceptance bar); the run fails loudly if it does not.
//!
//! Each database runs with the recorder on, so the run also reports the
//! **commit-latency distribution** (simulated-µs p50/p99 per committed
//! transaction, queue and flush stalls included) for each discipline,
//! and emits everything as a unified `BENCH_txn_commit.json`
//! (`pdl-metrics-v1`). The leak gauges (`leaked_pids`, `active_views`)
//! must read 0 after every run.
//!
//! Run with `cargo bench -p pdl-bench --bench txn_commit`; set
//! `PDL_SCALE=quick|default|paper` to choose the transaction count.

use pdl_core::{MethodKind, ShardedStore, StoreOptions};
use pdl_flash::FlashConfig;
use pdl_obs::{json, LatencyClass, RecorderSnapshot};
use pdl_storage::{Database, Durability};
use pdl_workload::{obs, run_txn_commit_workload, Scale, Table, TxnCommitConfig, TxnCommitResult};

const SHARDS: usize = 4;
const PAGES: u64 = 512;

fn txns_per_writer(scale: Scale, writers: usize) -> u64 {
    let total = match scale.label() {
        "quick" => 256,
        "paper" => 16_384,
        _ => 4_096,
    };
    (total / writers as u64).max(8)
}

fn build_db() -> Database {
    let store = ShardedStore::with_uniform_chips(
        FlashConfig::scaled(64),
        SHARDS,
        MethodKind::Pdl { max_diff_size: 256 },
        StoreOptions::new(PAGES).with_obs(true),
    )
    .expect("store");
    let db = Database::new(Box::new(store), 256).with_durability(Durability::Commit);
    for pid in 0..PAGES {
        db.with_page_mut(pid, |p| p.write(0, &[1; 8])).expect("load");
    }
    db.flush().expect("load flush");
    db
}

type StoreCounters = Vec<(&'static str, u64)>;

fn run(
    scale: Scale,
    writers: usize,
    group: bool,
) -> (TxnCommitResult, RecorderSnapshot, StoreCounters) {
    let db = build_db();
    let cfg = TxnCommitConfig::new(writers, txns_per_writer(scale, writers))
        .with_pages_per_txn(2)
        .with_group(group);
    let r = run_txn_commit_workload(&db, &cfg).expect("workload");
    assert_eq!(r.buffer.leaked_pids, 0, "run stranded pids");
    assert_eq!(r.buffer.active_views, 0, "run leaked read views");
    let counters = db.with_store(|s| s.counters());
    (r, db.obs_snapshot(), counters)
}

/// Commit-latency distribution of one run: every committed transaction
/// lands one sample in the solo or group class, whichever its batch
/// actually experienced.
fn commit_hist(snap: &RecorderSnapshot) -> pdl_obs::LatencyHistogram {
    let mut h = snap.hist(LatencyClass::CommitSolo).clone();
    h.merge(snap.hist(LatencyClass::CommitGroup));
    h
}

fn main() {
    let scale = Scale::from_env();
    println!("# Transactional commit throughput: group commit vs solo");
    println!(
        "method: PDL (256B) x{SHARDS} shards | {PAGES} pages | 2 pages/txn | scale: {}",
        scale.label()
    );
    println!();

    let mut table = Table::new(
        "group-commit batch-size sweep",
        &[
            "writers",
            "discipline",
            "txns",
            "writes/txn",
            "sim us/txn",
            "commit p50 us",
            "commit p99 us",
            "bound tps",
            "speedup",
        ],
    );
    let mut space = Table::new(
        "live differential pages by valid count, the proofs carried out of them, and the base \
         reads held images spared",
        &[
            "writers",
            "discipline",
            "vdct 1",
            "vdct 2-4",
            "vdct 5+",
            "proofs carried",
            "proof pages released",
            "base reads skipped",
        ],
    );
    let mut reg = obs::bench_registry("txn_commit", scale.label());
    reg.set_u64("shards", SHARDS as u64);
    reg.set_u64("pages", PAGES);
    let mut ratio_at_16 = 0.0f64;
    for writers in [1usize, 4, 16] {
        let (solo, solo_snap, solo_counters) = run(scale, writers, false);
        let (group, group_snap, group_counters) = run(scale, writers, true);
        let ratio = group.bound_tps() / solo.bound_tps().max(f64::MIN_POSITIVE);
        if writers == 16 {
            ratio_at_16 = ratio;
        }
        for (label, r, snap, counters, speedup) in [
            ("solo", &solo, &solo_snap, &solo_counters, 1.0),
            ("group", &group, &group_snap, &group_counters, ratio),
        ] {
            let commits = commit_hist(snap);
            assert_eq!(
                commits.count(),
                r.committed,
                "{writers}x{label}: every commit lands one latency sample"
            );
            table.row(vec![
                writers.to_string(),
                label.to_string(),
                r.committed.to_string(),
                format!("{:.2}", r.writes as f64 / r.committed.max(1) as f64),
                format!("{:.1}", r.flash_us as f64 / r.committed.max(1) as f64),
                commits.p50_us().to_string(),
                commits.p99_us().to_string(),
                format!("{:.0}", r.bound_tps()),
                format!("{speedup:.2}x"),
            ]);
            let pre = format!("w{writers}.{label}");
            reg.set_u64(&format!("{pre}.committed"), r.committed);
            reg.set_u64(&format!("{pre}.writes"), r.writes);
            reg.set_u64(&format!("{pre}.flash_us"), r.flash_us);
            reg.set_f64(&format!("{pre}.bound_tps"), r.bound_tps());
            obs::put_buffer_stats(&mut reg, &format!("{pre}.buffer"), &r.buffer);
            // `<pre>.commit.solo.*` / `<pre>.commit.group.*` (whichever
            // classes the batches actually hit), the chips' op classes,
            // plus the merged commit view.
            obs::put_recorder_snapshot(&mut reg, &pre, snap);
            reg.set_hist(&format!("{pre}.commit.all"), &commits);
            let mut row = vec![writers.to_string(), label.to_string()];
            row.extend(
                obs::put_space_counters(&mut reg, &pre, counters).iter().map(u64::to_string),
            );
            space.row(row);
        }
    }
    println!("{}", table.render());
    println!("{}", space.render());

    let doc = reg.to_json();
    let parsed = json::parse(&doc).expect("registry emits valid JSON");
    json::validate_metrics(&parsed).expect("registry emits pdl-metrics-v1");
    std::fs::write("BENCH_txn_commit.json", doc).expect("write BENCH_txn_commit.json");
    println!("wrote BENCH_txn_commit.json");
    println!(
        "group commit at 16 writers: {ratio_at_16:.2}x solo throughput \
         (acceptance bar: >= 1.5x)"
    );
    assert!(
        ratio_at_16 >= 1.5,
        "group commit must reach >= 1.5x solo throughput at 16 writers, got {ratio_at_16:.2}x"
    );
}
