//! Concurrent structural writers (`pdl-struct`): W threads grow private
//! B+-trees on one shared [`Database`] through the latch-coupled insert
//! path, committing durably every `batch` inserts so split-moved roots
//! flow through the commit-clock structure-root log.
//!
//! The driver measures the same machine-independent quantity every other
//! experiment in this repo reports — *simulated flash time* — but per
//! **shard**: structural writers on disjoint trees dirty disjoint page
//! sets, so with S shards the per-shard busy time must fall roughly S-ways
//! while a single shard serializes everything. The headline metric is
//! therefore `max(per_shard_busy_us)`, the pipeline bound on the slowest
//! shard.
//!
//! Two correctness gauges ride along and must read zero after any run:
//!
//! * **ordering violations** — after the writers quiesce, each tree is
//!   range-scanned in current state; every writer inserted the dense key
//!   sequence `(w, 0..n)` with value `i`, so any missing, duplicated, or
//!   misplaced entry counts.
//! * **torn snapshots** — a concurrent reader repeatedly freezes a
//!   [`ReadView`](pdl_storage::ReadView) mid-run and scans every tree
//!   through it. Commits are atomic at the commit clock, so each scan
//!   must observe a *dense prefix* of a writer's keys whose length is a
//!   multiple of the commit batch; anything else is a torn snapshot.

use crate::Scale;
use pdl_storage::{BTree, Database, Key, KeyBuf, StorageError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Parameters of a concurrent structural-writer workload.
#[derive(Clone, Copy, Debug)]
pub struct StructWritersConfig {
    /// Concurrent writer threads, one private registered tree each.
    pub writers: usize,
    /// Keys each writer inserts (dense `0..n`, ascending).
    pub inserts_per_writer: u64,
    /// Inserts per durable commit batch.
    pub batch: u64,
    /// Upper bound on mid-run snapshot probes by the reader thread
    /// (`0` disables the reader).
    pub snapshots: u64,
}

impl StructWritersConfig {
    pub fn new(writers: usize, inserts_per_writer: u64) -> StructWritersConfig {
        StructWritersConfig { writers, inserts_per_writer, batch: 16, snapshots: 64 }
    }

    /// Insert count scaled like the other drivers: quick CI runs stay
    /// small, `PDL_SCALE=paper` grows the trees deep enough for
    /// multi-level split chains.
    pub fn scaled(scale: Scale, writers: usize) -> StructWritersConfig {
        let per_writer = match scale.label() {
            "quick" => 384,
            "paper" => 8_192,
            _ => 2_048,
        };
        StructWritersConfig::new(writers, per_writer)
    }

    pub fn with_batch(mut self, batch: u64) -> StructWritersConfig {
        self.batch = batch.max(1);
        self
    }

    pub fn with_snapshots(mut self, snapshots: u64) -> StructWritersConfig {
        self.snapshots = snapshots;
        self
    }
}

/// Result of one structural-writer run.
#[derive(Clone, Debug)]
pub struct StructWritersResult {
    /// Durable commit batches that succeeded.
    pub committed: u64,
    /// Keys inserted (and verified present afterwards).
    pub inserts: u64,
    /// Batches retried after a [`StorageError::TxnConflict`] abort.
    pub conflict_retries: u64,
    /// Snapshot probes the reader completed.
    pub snapshots_taken: u64,
    /// Snapshot probes that saw a non-prefix or mid-batch state.
    pub torn_snapshots: u64,
    /// Post-quiesce scan mismatches (missing/misplaced/duplicated keys).
    pub ordering_violations: u64,
    /// Simulated flash time consumed, per shard (µs, run delta).
    pub per_shard_busy_us: Vec<u64>,
    /// Simulated flash time of the whole run (µs, all shards).
    pub flash_us: u64,
    /// Pool statistics at the end of the run; `leaked_pids` and
    /// `active_views` must both read 0.
    pub buffer: pdl_storage::BufferStats,
    pub wall: Duration,
}

impl StructWritersResult {
    /// The pipeline bound: busy time of the slowest shard. This is the
    /// number that must *fall* as shards are added — the whole point of
    /// latched structural concurrency.
    pub fn max_shard_busy_us(&self) -> u64 {
        self.per_shard_busy_us.iter().copied().max().unwrap_or(0)
    }

    /// Machine-independent throughput bound: inserts per second of the
    /// slowest shard's simulated busy time.
    pub fn bound_ops_per_s(&self) -> f64 {
        let us = self.max_shard_busy_us();
        if us == 0 {
            return 0.0;
        }
        self.inserts as f64 / (us as f64 / 1e6)
    }
}

/// Every chip's pipeline busy time (µs), shard order.
fn per_chip_busy_us(db: &Database) -> Vec<u64> {
    let mut busy = Vec::new();
    db.with_store(|s| s.for_each_chip(&mut |c| busy.push(c.pipeline_busy_us())));
    busy
}

fn key_of(writer: usize, i: u64) -> Key {
    KeyBuf::new().push_u8(writer as u8).push_u64(i).finish()
}

/// Scan `tree` through `s`, verifying it holds exactly the dense prefix
/// `(writer, 0..k)` with value `i` at key `i`. Returns `(k, violations)`.
fn scan_prefix<S: pdl_storage::PageRead>(
    tree: &BTree,
    s: &S,
    writer: usize,
    limit: u64,
) -> pdl_storage::Result<(u64, u64)> {
    let mut next = 0u64;
    let mut violations = 0u64;
    tree.range_at(s, &key_of(writer, 0), &key_of(writer, u64::MAX), |k, v| {
        if *k != key_of(writer, next) || v != next {
            violations += 1;
        }
        next += 1;
        next <= limit
    })?;
    Ok((next, violations))
}

/// Run the workload against `db` (which should be in
/// [`Durability::Commit`](pdl_storage::Durability) mode so commits stage
/// the structure-root log). Trees are created and registered up front in
/// one setup transaction; statistics are deltas over the measured phase.
pub fn run_struct_writers_workload(
    db: &Database,
    cfg: &StructWritersConfig,
) -> pdl_storage::Result<StructWritersResult> {
    let writers = cfg.writers.max(1);
    db.begin()?;
    let trees = (0..writers).map(|_| BTree::create(db)).collect::<pdl_storage::Result<Vec<_>>>()?;
    db.commit()?;

    let io_before = db.io_stats().total();
    let busy_before = per_chip_busy_us(db);
    let started = Instant::now();
    let stop = AtomicBool::new(false);
    let retries = AtomicU64::new(0);
    let committed = AtomicU64::new(0);

    let reader_out = std::sync::Mutex::new((0u64, 0u64)); // (taken, torn)
    let writer_results: Vec<pdl_storage::Result<()>> = std::thread::scope(|scope| {
        let reader = (cfg.snapshots > 0).then(|| {
            let trees = &trees;
            let stop = &stop;
            let out = &reader_out;
            scope.spawn(move || -> pdl_storage::Result<()> {
                let (mut taken, mut torn) = (0u64, 0u64);
                while taken < cfg.snapshots && !stop.load(Ordering::Relaxed) {
                    db.with_read_view(|view| -> pdl_storage::Result<()> {
                        let snap = db.snapshot(view);
                        for (w, tree) in trees.iter().enumerate() {
                            let (seen, bad) = scan_prefix(tree, &snap, w, cfg.inserts_per_writer)?;
                            if bad > 0 || seen % cfg.batch.max(1) != 0 {
                                torn += 1;
                            }
                        }
                        Ok(())
                    })?;
                    taken += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
                *out.lock().unwrap_or_else(|e| e.into_inner()) = (taken, torn);
                Ok(())
            })
        });

        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let tree = &trees[w];
                let retries = &retries;
                let committed = &committed;
                scope.spawn(move || -> pdl_storage::Result<()> {
                    let mut i = 0u64;
                    while i < cfg.inserts_per_writer {
                        let end = (i + cfg.batch).min(cfg.inserts_per_writer);
                        'batch: loop {
                            db.begin()?;
                            for j in i..end {
                                match tree.insert(db, &key_of(w, j), j) {
                                    Ok(()) => {}
                                    Err(StorageError::TxnConflict { .. }) => {
                                        db.abort()?;
                                        retries.fetch_add(1, Ordering::Relaxed);
                                        std::thread::yield_now();
                                        continue 'batch;
                                    }
                                    Err(e) => {
                                        db.abort()?;
                                        return Err(e);
                                    }
                                }
                            }
                            db.commit()?;
                            committed.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        i = end;
                    }
                    Ok(())
                })
            })
            .collect();
        let results = handles.into_iter().map(|h| h.join().expect("writer panicked")).collect();
        stop.store(true, Ordering::Relaxed);
        if let Some(r) = reader {
            r.join().expect("reader panicked").expect("snapshot probe failed");
        }
        results
    });
    for r in writer_results {
        r?;
    }

    // Quiesced oracle check: every tree must hold exactly its writer's
    // dense key sequence, in order, with matching values.
    let mut ordering_violations = 0u64;
    for (w, tree) in trees.iter().enumerate() {
        let (seen, bad) = scan_prefix(tree, db, w, cfg.inserts_per_writer)?;
        ordering_violations += bad + seen.abs_diff(cfg.inserts_per_writer);
        tree.check_invariants(db)?;
    }

    let (snapshots_taken, torn_snapshots) = *reader_out.lock().unwrap_or_else(|e| e.into_inner());
    let busy_after = per_chip_busy_us(db);
    let per_shard_busy_us: Vec<u64> = busy_after
        .iter()
        .zip(busy_before.iter().chain(std::iter::repeat(&0)))
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let io_delta = db.io_stats().total() - io_before;
    Ok(StructWritersResult {
        committed: committed.load(Ordering::Relaxed),
        inserts: writers as u64 * cfg.inserts_per_writer,
        conflict_retries: retries.load(Ordering::Relaxed),
        snapshots_taken,
        torn_snapshots,
        ordering_violations,
        per_shard_busy_us,
        flash_us: io_delta.total_us(),
        buffer: db.buffer_stats(),
        wall: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::{MethodKind, ShardedStore, StoreOptions};
    use pdl_flash::FlashConfig;
    use pdl_storage::Durability;

    fn db(shards: usize) -> Database {
        let store = ShardedStore::with_uniform_chips(
            FlashConfig::scaled(16),
            shards,
            MethodKind::Pdl { max_diff_size: 256 },
            StoreOptions::new(512).with_checkpoint_blocks(2),
        )
        .unwrap();
        Database::new(Box::new(store), 256).with_durability(Durability::Commit)
    }

    #[test]
    fn concurrent_writers_stay_clean() {
        let d = db(2);
        let cfg = StructWritersConfig::new(4, 96).with_batch(8).with_snapshots(16);
        let r = run_struct_writers_workload(&d, &cfg).unwrap();
        assert_eq!(r.inserts, 4 * 96);
        assert_eq!(r.committed, 4 * 96 / 8);
        assert_eq!(r.ordering_violations, 0, "quiesced trees must match the oracle");
        assert_eq!(r.torn_snapshots, 0, "snapshots must land on commit boundaries");
        assert_eq!(r.buffer.leaked_pids, 0, "no pids may strand");
        assert_eq!(r.buffer.active_views, 0, "no views may outlive the run");
        assert!(r.max_shard_busy_us() > 0);
        assert_eq!(r.per_shard_busy_us.len(), 2);
    }

    #[test]
    fn single_writer_baseline_runs() {
        let d = db(1);
        let cfg = StructWritersConfig::new(1, 64).with_batch(16).with_snapshots(0);
        let r = run_struct_writers_workload(&d, &cfg).unwrap();
        assert_eq!(r.committed, 4);
        assert_eq!(r.snapshots_taken, 0);
        assert_eq!(r.ordering_violations, 0);
        assert!(r.bound_ops_per_s() > 0.0);
    }
}
