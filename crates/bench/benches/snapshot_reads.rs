//! Snapshot-read throughput: MVCC read views vs the locked read path,
//! with 4 scanners racing 4 committing writers.
//!
//! Before the read-view refactor, the only way to take a *consistent*
//! multi-page scan next to committing writers was to serialize: reader
//! and committer share one global lock, so every scan pays for every
//! commit that queues behind it (and vice versa). With MVCC views the
//! scan runs against the per-page version chains and never blocks a
//! commit — the run's critical path collapses from the *total* flash
//! time to the busiest *shard's* flash time.
//!
//! The headline column is **bound scans/s**: completed full-space scans
//! per second of the time the run's serialization structure charges the
//! read path (total flash µs for the locked baseline, max per-shard
//! flash µs for views) — the same machine-independent accounting the
//! sharded and group-commit benches use, since on a one-core host the
//! wall clock cannot separate lock disciplines.
//!
//! Acceptance bar (ISSUE 4): >= 1.5x read throughput for 4 scanners
//! racing 4 writers versus the locked read path. Every scan also
//! verifies it observed each writer's commit group atomically; a torn
//! snapshot fails the run. So does a scan retried on `SnapshotTooOld`:
//! the default `snapshot_version_cap` must keep every view's versions in
//! DRAM for the length of a scan.
//!
//! Run with `cargo bench -p pdl-bench --bench snapshot_reads`; set
//! `PDL_SCALE=quick|default|paper` to choose the workload size.

use pdl_core::{MethodKind, ShardedStore, StoreOptions};
use pdl_flash::FlashConfig;
use pdl_storage::{Database, Durability};
use pdl_workload::{
    run_snapshot_read_workload, Scale, SnapshotReadConfig, SnapshotReadResult, Table,
};

const SHARDS: usize = 4;
const PAGES: u64 = 256;
const READERS: usize = 4;
const WRITERS: usize = 4;
const PAGES_PER_TXN: usize = 8;

fn workload_size(scale: Scale) -> (u64, u64) {
    // (scans per reader, txns per writer)
    match scale.label() {
        "quick" => (4, 48),
        "paper" => (48, 768),
        _ => (16, 256),
    }
}

fn build_db() -> Database {
    let store = ShardedStore::with_uniform_chips(
        FlashConfig::scaled(64),
        SHARDS,
        MethodKind::Pdl { max_diff_size: 256 },
        StoreOptions::new(PAGES),
    )
    .expect("store");
    // A small cache (1/4 of the space) keeps scans faulting into flash,
    // so the read path carries real simulated I/O.
    let db = Database::new(Box::new(store), PAGES as usize / 4).with_durability(Durability::Commit);
    for pid in 0..PAGES {
        db.with_page_mut(pid, |p| p.write(0, &[0; 8])).expect("load");
    }
    db.flush().expect("load flush");
    db
}

fn run(scale: Scale, locked: bool, structure_churn: bool) -> SnapshotReadResult {
    let (scans, txns) = workload_size(scale);
    let db = build_db();
    let cfg = SnapshotReadConfig {
        pages_per_txn: PAGES_PER_TXN,
        ..SnapshotReadConfig::new(READERS, WRITERS)
    }
    .with_scans(scans)
    .with_txns_per_writer(txns)
    .with_locked_baseline(locked)
    .with_structure_churn(structure_churn);
    let r = run_snapshot_read_workload(&db, &cfg).expect("workload");
    assert_eq!(
        r.torn_scans, 0,
        "every scan must observe atomic commit groups \
         (locked={locked}, structure_churn={structure_churn})"
    );
    assert_eq!(
        r.too_old_retries, 0,
        "the version cap must serve every scan (locked={locked}, structure_churn={structure_churn})"
    );
    assert_eq!(r.buffer.active_views, 0, "a run may not leave read views open");
    assert_eq!(r.buffer.leaked_pids, 0, "a run may not strand allocated pids");
    r
}

fn main() {
    let scale = Scale::from_env();
    println!("# Snapshot-read throughput: MVCC read views vs the locked read path");
    println!(
        "method: PDL (256B) x{SHARDS} shards | {PAGES} pages | {READERS} scanners vs {WRITERS} \
         writers x {PAGES_PER_TXN} pages/txn | scale: {}",
        scale.label()
    );
    println!();

    let locked = run(scale, true, false);
    let mvcc = run(scale, false, false);
    // The split-heavy case: every writer transaction also *changes the
    // shape* of a commit-clock-versioned structure (its page list), so
    // scanners must resolve the structure-root log at their view. Zero
    // torn scans is the acceptance bar — a scan pairing its view with the
    // current shape would read pages that did not exist at view time.
    let churn = run(scale, false, true);
    let locked_tp = locked.bound_scans_per_sec(true);
    let mvcc_tp = mvcc.bound_scans_per_sec(false);
    let churn_tp = churn.bound_scans_per_sec(false);
    let ratio = mvcc_tp / locked_tp.max(f64::MIN_POSITIVE);

    let mut table = Table::new(
        "scanners racing committing writers",
        &[
            "read path",
            "scans",
            "txns",
            "torn",
            "too-old retries",
            "version reads",
            "open views",
            "leaked pids",
            "bound time us",
            "bound scans/s",
        ],
    );
    for (label, r, tp, us) in [
        ("locked", &locked, locked_tp, locked.flash_us_total),
        ("views", &mvcc, mvcc_tp, mvcc.flash_us_max_shard),
        ("views + structure_churn", &churn, churn_tp, churn.flash_us_max_shard),
    ] {
        table.row(vec![
            label.to_string(),
            r.scans.to_string(),
            r.committed.to_string(),
            r.torn_scans.to_string(),
            r.too_old_retries.to_string(),
            r.version_reads.to_string(),
            r.buffer.active_views.to_string(),
            r.buffer.leaked_pids.to_string(),
            us.to_string(),
            format!("{tp:.1}"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "read views: {ratio:.2}x the locked read path's bound scan throughput \
         (acceptance bar: >= 1.5x); structure_churn: {} scans, 0 torn",
        churn.scans
    );
    assert!(
        mvcc.version_reads > 0,
        "scans racing writers must have been served from version chains"
    );
    assert!(
        ratio >= 1.5,
        "MVCC views must reach >= 1.5x the locked read path at {READERS} scanners vs {WRITERS} \
         writers, got {ratio:.2}x"
    );
}
