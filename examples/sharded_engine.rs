//! The sharded concurrent engine end to end: a 4-shard PDL store under
//! one `Database`, 8 writer threads committing durable transactions
//! through its group-commit queue, then a crash (nothing flushed) and
//! parallel per-shard recovery. Exits non-zero unless all 512 pages come
//! back with their last committed image.
//!
//! Run with `cargo run --release --example sharded_engine`.

use page_differential_logging::flash::LatencyClass;
use page_differential_logging::prelude::*;

const PAGES: u64 = 512;
const WRITERS: u64 = 8;
const PAGES_PER_TXN: u64 = 4;

/// What writer `w` stamps into `pid` in its round `round`.
fn stamp(pid: u64, w: u64, round: u64) -> [u8; 16] {
    let mut img = [0u8; 16];
    img[..8].copy_from_slice(&pid.to_le_bytes());
    img[8..].copy_from_slice(&(w << 32 | round).to_le_bytes());
    img
}

fn main() {
    // Four shards, each over its own 16-block chip; one logical page
    // space of 512 pages striped across them (page p -> shard p % 4).
    let kind = MethodKind::Pdl { max_diff_size: 256 };
    let opts = StoreOptions::new(PAGES).with_obs(true);
    let store = ShardedStore::with_uniform_chips(FlashConfig::scaled(16), 4, kind, opts).unwrap();
    println!("engine: {} ({} shards)", PageStore::name(&store), store.num_shards());

    // One buffer pool of 64 frames over all four shards, durable commits.
    let db = Database::new(Box::new(store), 64).with_durability(Durability::Commit);

    // 8 writer threads, each owning the pages p with p % 8 == w (one
    // shard, half of its pages), committing 4 pages per transaction.
    let rounds = PAGES / WRITERS / PAGES_PER_TXN;
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let db = &db;
            scope.spawn(move || {
                for round in 0..rounds * 2 {
                    db.begin().unwrap();
                    for k in 0..PAGES_PER_TXN {
                        let pid = w + WRITERS * ((round * PAGES_PER_TXN + k) % (PAGES / WRITERS));
                        db.with_page_mut(pid, |page| page.write(0, &stamp(pid, w, round))).unwrap();
                    }
                    db.commit().unwrap();
                }
            });
        }
    });
    let commits = WRITERS * rounds * 2;
    let bs = db.buffer_stats();
    println!(
        "{WRITERS} writers, {commits} durable commits: {} hits / {} misses ({:.0}% hit rate)",
        bs.hits,
        bs.misses,
        bs.hit_rate() * 100.0
    );
    let obs = db.obs_snapshot();
    let grouped = obs.hist(LatencyClass::CommitGroup).count();
    let solo = obs.hist(LatencyClass::CommitSolo).count();
    println!("group commit: {grouped} commits rode a group, {solo} committed alone");
    println!("flash (all shards): {}", db.io_stats().total());
    let mut busy = Vec::new();
    db.with_store(|s| s.for_each_chip(&mut |c| busy.push(c.stats().total().total_us())));
    println!("per-shard flash busy time (sim us): {busy:?}");
    assert_eq!(grouped + solo, commits, "every commit lands one latency sample");

    // Crash: drop every cached page and all volatile state, unflushed.
    let chips = db.into_store_without_flush().into_chips();
    println!("crash: engine torn down into {} chips", chips.len());

    // Parallel per-shard recovery, then verify every page.
    let mut recovered = ShardedStore::recover(chips, kind, StoreOptions::new(PAGES)).unwrap();
    let recovery_reads = PageStore::stats(&recovered).recovery.reads;
    let mut page = vec![0u8; recovered.logical_page_size()];
    let mut verified = 0u64;
    for pid in 0..PAGES {
        recovered.read_page(pid, &mut page).unwrap();
        // The second pass over a writer's pages rewrote each of them once
        // more: local page j last in round rounds + j / PAGES_PER_TXN.
        let last_round = rounds + pid / WRITERS / PAGES_PER_TXN;
        if page[..16] == stamp(pid, pid % WRITERS, last_round) {
            verified += 1;
        }
    }
    println!(
        "recovered in parallel: {recovery_reads} recovery reads, {verified}/{PAGES} pages verified"
    );
    assert_eq!(verified, PAGES, "a durable commit was lost across the crash");
}
