//! Concurrent structural writers (`pdl-struct`): scaling of latch-coupled
//! B+-tree growth with shard count.
//!
//! W writer threads each grow a private registered tree on one shared
//! `&Database`, committing durably every few inserts so split-moved roots
//! flow through the commit-clock structure-root log. Total insert volume
//! is held constant across points, so the headline column — **max shard
//! busy µs**, the simulated flash time of the slowest shard — must
//! *fall* as shards (and writers) are added: structural mutation no
//! longer funnels through one `&mut Database` writer.
//!
//! Acceptance gates (the run fails loudly on any):
//!
//! * 4 shards / 4 writers reach >= 2x the 1-shard / 1-writer throughput
//!   bound (equivalently, at most half the max-shard busy time);
//! * zero ordering violations in the post-quiesce oracle scans;
//! * zero torn snapshots observed by the concurrent reader;
//! * `leaked_pids` and `active_views` both 0 after every run;
//! * commit proofs were carried forward and released record pages
//!   (`proof_pages_released > 0`; the second table shows what the live
//!   differential pages still hold);
//! * commits staged pages from the pool's held images instead of reading
//!   their base pages back (`base_reads_skipped > 0`, same table);
//! * a crash after the run recovers every tree from the checkpointed
//!   structure-root log alone (`recover_structures`, no `attach`).
//!
//! With the recorder on, the run also exports the pool-side latch-wait
//! histogram and the structural span trace
//! (`BENCH_struct_writers_trace.json`, Chrome trace-event format —
//! concurrent split lanes are visible in Perfetto) plus the unified
//! `BENCH_struct_writers.json` (`pdl-metrics-v1`).
//!
//! Run with `cargo bench -p pdl-bench --bench struct_writers`; set
//! `PDL_SCALE=quick|default|paper` to choose the insert volume.

use pdl_core::{MethodKind, ShardedStore, StoreOptions};
use pdl_flash::FlashConfig;
use pdl_obs::json;
use pdl_storage::{Database, Durability};
use pdl_workload::{obs, run_struct_writers_workload, Scale, StructWritersConfig, Table};

const PAGES: u64 = 1024;
const KIND: MethodKind = MethodKind::Pdl { max_diff_size: 256 };

fn options() -> StoreOptions {
    StoreOptions::new(PAGES).with_obs(true).with_checkpoint_blocks(2)
}

fn build_db(shards: usize) -> Database {
    let store = ShardedStore::with_uniform_chips(FlashConfig::scaled(64), shards, KIND, options())
        .expect("store");
    Database::new(Box::new(store), 1024).with_durability(Durability::Commit)
}

fn total_inserts(scale: Scale) -> u64 {
    match scale.label() {
        "quick" => 3_072,
        "paper" => 24_576,
        _ => 6_144,
    }
}

fn run_point(
    scale: Scale,
    shards: usize,
    writers: usize,
) -> (pdl_workload::StructWritersResult, Database) {
    let db = build_db(shards);
    let cfg = StructWritersConfig::new(writers, total_inserts(scale) / writers as u64)
        .with_batch(8)
        .with_snapshots(8);
    let r = run_struct_writers_workload(&db, &cfg).expect("workload");
    assert_eq!(r.ordering_violations, 0, "{shards}s/{writers}w: oracle scan mismatch");
    assert_eq!(r.torn_snapshots, 0, "{shards}s/{writers}w: snapshot tore");
    assert_eq!(r.buffer.leaked_pids, 0, "{shards}s/{writers}w: run stranded pids");
    assert_eq!(r.buffer.active_views, 0, "{shards}s/{writers}w: run leaked read views");
    (r, db)
}

/// Crash the finished database without flushing and rebuild it from the
/// chips: every tree must come back from the checkpointed structure-root
/// log alone (no remembered roots, no `attach`) holding its writer's
/// full committed key sequence.
fn recovery_smoke(db: Database, writers: usize, per_writer: u64) {
    let chips = db.into_store_without_flush().into_chips();
    let store = ShardedStore::recover(chips, KIND, options()).expect("recover");
    let back = Database::new(Box::new(store), 1024).with_durability(Durability::Commit);
    let recovered = back.recover_structures();
    assert_eq!(recovered.len(), writers, "every registered tree must recover");
    for (w, s) in recovered.into_iter().enumerate() {
        let tree = s.into_btree();
        tree.check_invariants(&back).expect("recovered tree invariants");
        assert_eq!(
            tree.len(&back).expect("recovered scan"),
            per_writer as usize,
            "writer {w}: committed inserts must survive the crash"
        );
    }
}

fn main() {
    let scale = Scale::from_env();
    let total = total_inserts(scale);
    println!("# Concurrent structural writers: latch-coupled B+-tree growth");
    println!(
        "method: PDL (256B) | {PAGES} pages | {total} inserts total | batch 8 | scale: {}",
        scale.label()
    );
    println!();

    let mut table = Table::new(
        "shard scaling at constant insert volume",
        &[
            "shards",
            "writers",
            "committed",
            "retries",
            "snapshots",
            "latch waits",
            "max shard busy us",
            "bound ops/s",
            "speedup",
        ],
    );
    let mut space = Table::new(
        "live differential pages by valid count, the proofs carried out of them, and the base \
         reads held images spared",
        &[
            "shards",
            "vdct 1",
            "vdct 2-4",
            "vdct 5+",
            "proofs carried",
            "proof pages released",
            "base reads skipped",
        ],
    );
    let (mut proof_pages_released, mut base_reads_skipped) = (0u64, 0u64);
    let mut reg = obs::bench_registry("struct_writers", scale.label());
    reg.set_u64("pages", PAGES);
    reg.set_u64("total_inserts", total);

    let mut baseline_bound = 0.0f64;
    let mut ratio_at_4 = 0.0f64;
    for (shards, writers) in [(1usize, 1usize), (2, 2), (4, 4)] {
        let (r, db) = run_point(scale, shards, writers);
        let pool_snap = db.pool_obs_snapshot();
        let latch_waits = pool_snap.hist(pdl_obs::LatencyClass::LatchWait).count();
        if shards == 1 {
            baseline_bound = r.bound_ops_per_s();
        }
        let speedup = r.bound_ops_per_s() / baseline_bound.max(f64::MIN_POSITIVE);
        if shards == 4 {
            ratio_at_4 = speedup;
            let trace = db.obs_struct_trace_json();
            let parsed = json::parse(&trace).expect("struct trace is valid JSON");
            json::validate_trace(&parsed).expect("struct trace-event shape");
            std::fs::write("BENCH_struct_writers_trace.json", &trace)
                .expect("write BENCH_struct_writers_trace.json");
        }
        table.row(vec![
            shards.to_string(),
            writers.to_string(),
            r.committed.to_string(),
            r.conflict_retries.to_string(),
            r.snapshots_taken.to_string(),
            latch_waits.to_string(),
            r.max_shard_busy_us().to_string(),
            format!("{:.0}", r.bound_ops_per_s()),
            format!("{speedup:.2}x"),
        ]);
        let pre = format!("s{shards}.w{writers}");
        reg.set_u64(&format!("{pre}.committed"), r.committed);
        reg.set_u64(&format!("{pre}.conflict_retries"), r.conflict_retries);
        reg.set_u64(&format!("{pre}.torn_snapshots"), r.torn_snapshots);
        reg.set_u64(&format!("{pre}.ordering_violations"), r.ordering_violations);
        reg.set_u64(&format!("{pre}.max_shard_busy_us"), r.max_shard_busy_us());
        reg.set_u64(&format!("{pre}.flash_us"), r.flash_us);
        reg.set_f64(&format!("{pre}.bound_ops_per_s"), r.bound_ops_per_s());
        obs::put_buffer_stats(&mut reg, &format!("{pre}.buffer"), &r.buffer);
        obs::put_recorder_snapshot(&mut reg, &pre, &pool_snap);
        let counters = obs::put_space_counters(&mut reg, &pre, &db.with_store(|s| s.counters()));
        proof_pages_released += counters[4];
        base_reads_skipped += counters[5];
        let mut row = vec![shards.to_string()];
        row.extend(counters.iter().map(u64::to_string));
        space.row(row);

        recovery_smoke(db, writers, total / writers as u64);
    }
    println!("{}", table.render());
    println!("{}", space.render());

    let doc = reg.to_json();
    let parsed = json::parse(&doc).expect("registry emits valid JSON");
    json::validate_metrics(&parsed).expect("registry emits pdl-metrics-v1");
    std::fs::write("BENCH_struct_writers.json", doc).expect("write BENCH_struct_writers.json");
    println!("wrote BENCH_struct_writers.json + BENCH_struct_writers_trace.json");
    println!(
        "4 shards / 4 writers: {ratio_at_4:.2}x the single-shard bound \
         (acceptance bar: >= 2x)"
    );
    assert!(
        proof_pages_released > 0,
        "durable commits must carry proofs forward and release their old record pages"
    );
    assert!(
        base_reads_skipped > 0,
        "durable commits must stage from the pool's held images, not only from base reads"
    );
    assert!(
        ratio_at_4 >= 2.0,
        "structural writers must reach >= 2x the single-shard bound at 4 shards, \
         got {ratio_at_4:.2}x"
    );
}
