//! The transactional commit driver (`pdl-txn`): W concurrent writers
//! issue multi-page transactions against a [`Database`] in
//! [`pdl_storage::Durability::Commit`] mode and commit them either
//! through its **group-commit queue** (batches share differential pages
//! and commit-record flushes per shard) or **solo** (the workload lets one
//! committer at a time reach the database, so every batch holds one
//! transaction and pays its own flushes) — the commit-latency versus
//! flash-throughput trade-off Adaptive Logging (Yao et al.) studies at
//! commit time.
//!
//! Throughput is reported against *simulated flash time* (the same
//! machine-independent accounting every experiment in this repo uses):
//! on a single-core host the wall clock cannot separate the two commit
//! disciplines, but the flash-op ledger can — group commit's whole
//! advantage is fewer page programs per committed transaction.

use crate::mutate::UpdateGen;
use pdl_storage::Database;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Parameters of a transactional commit workload.
#[derive(Clone, Copy, Debug)]
pub struct TxnCommitConfig {
    /// Concurrent committing writers.
    pub writers: usize,
    /// Transactions per writer.
    pub txns_per_writer: u64,
    /// Pages each transaction updates (its multi-page atomic unit).
    pub pages_per_txn: usize,
    /// `true` = group commit; `false` = solo commits (the baseline): the
    /// workload serializes `commit()` calls, so no batch has company.
    pub group: bool,
    pub seed: u64,
}

impl TxnCommitConfig {
    pub fn new(writers: usize, txns_per_writer: u64) -> TxnCommitConfig {
        TxnCommitConfig { writers, txns_per_writer, pages_per_txn: 2, group: true, seed: 0x7C9 }
    }

    pub fn with_pages_per_txn(mut self, pages: usize) -> TxnCommitConfig {
        self.pages_per_txn = pages;
        self
    }

    pub fn with_group(mut self, group: bool) -> TxnCommitConfig {
        self.group = group;
        self
    }
}

/// Result of one transactional commit run.
#[derive(Clone, Copy, Debug)]
pub struct TxnCommitResult {
    pub committed: u64,
    /// Flash page programs consumed by the run.
    pub writes: u64,
    /// Simulated flash time consumed by the run (µs).
    pub flash_us: u64,
    /// Buffer statistics sampled at the end of the run. `leaked_pids` and
    /// `active_views` must both read 0 after a clean run — a nonzero
    /// value is a leak, and the benches assert on it.
    pub buffer: pdl_storage::BufferStats,
    pub wall: Duration,
}

impl TxnCommitResult {
    /// Machine-independent throughput: committed transactions per second
    /// of simulated flash time.
    pub fn bound_tps(&self) -> f64 {
        if self.flash_us == 0 {
            return 0.0;
        }
        self.committed as f64 / (self.flash_us as f64 / 1e6)
    }
}

/// Run the workload: every writer owns the strided pid class
/// `{p | p % writers == w}` (no conflicts), updates `pages_per_txn` of
/// its pages per transaction, and commits. Statistics are deltas over
/// the run.
pub fn run_txn_commit_workload(
    db: &Database,
    cfg: &TxnCommitConfig,
) -> pdl_storage::Result<TxnCommitResult> {
    let num_pages = db.with_store(|s| s.options().num_logical_pages);
    let page_size = db.page_size();
    let writers = cfg.writers.max(1);
    let solo = Mutex::new(());
    // Writers start together: a run of a few hundred short transactions
    // is over before the last thread is spawned otherwise, and no two
    // commits would ever meet.
    let start = Barrier::new(writers);
    let before = db.io_stats();
    let started = Instant::now();
    let results: Vec<pdl_storage::Result<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let (solo, start) = (&solo, &start);
                let cfg = *cfg;
                scope.spawn(move || -> pdl_storage::Result<u64> {
                    let mut gen = UpdateGen::new(
                        cfg.seed ^ (0x9E37_79B9u64.wrapping_mul(w as u64 + 1)),
                        page_size,
                        2.0,
                    );
                    let owned = pdl_core::shard_pages(num_pages, writers, w);
                    let mut committed = 0u64;
                    start.wait();
                    for _ in 0..cfg.txns_per_writer {
                        db.begin()?;
                        for k in 0..cfg.pages_per_txn {
                            // The k-th page of this txn, within w's class.
                            let local = (gen.pick_page(owned.max(1)) + k as u64) % owned.max(1);
                            let pid = w as u64 + local * writers as u64;
                            db.with_page_mut(pid, |page| {
                                let len = page.len();
                                let at = (committed as usize * 13 + k * 31) % (len - 8);
                                page.write(at, &[(committed as u8).wrapping_add(k as u8); 8]);
                            })?;
                        }
                        if cfg.group {
                            db.commit()?;
                        } else {
                            let _alone = solo.lock().unwrap_or_else(|e| e.into_inner());
                            db.commit()?;
                        }
                        committed += 1;
                    }
                    Ok(committed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("writer panicked")).collect()
    });
    let mut committed = 0u64;
    for r in results {
        committed += r?;
    }
    let delta = db.io_stats().total() - before.total();
    Ok(TxnCommitResult {
        committed,
        writes: delta.writes,
        flash_us: delta.total_us(),
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

    fn pool(shards: usize, pages: u64) -> Database {
        let store = ShardedStore::with_uniform_chips(
            FlashConfig::scaled(8),
            shards,
            MethodKind::Pdl { max_diff_size: 256 },
            StoreOptions::new(pages),
        )
        .unwrap();
        let db = Database::new(Box::new(store), 256).with_durability(Durability::Commit);
        for pid in 0..pages {
            db.with_page_mut(pid, |p| p.write(0, &[1; 4])).unwrap();
        }
        db.flush().unwrap();
        db
    }

    #[test]
    fn drives_and_counts_commits() {
        let p = pool(2, 64);
        let cfg = TxnCommitConfig::new(4, 5);
        let r = run_txn_commit_workload(&p, &cfg).unwrap();
        assert_eq!(r.committed, 20);
        assert!(r.writes > 0);
        assert!(r.bound_tps() > 0.0);
        assert_eq!(r.buffer.leaked_pids, 0, "no pids may strand in a clean run");
        assert_eq!(r.buffer.active_views, 0, "no views may outlive the run");
    }

    #[test]
    fn group_commit_uses_no_more_writes_than_solo() {
        let run = |group: bool| {
            let p = pool(2, 64);
            let cfg = TxnCommitConfig::new(8, 6).with_group(group);
            run_txn_commit_workload(&p, &cfg).unwrap()
        };
        let grouped = run(true);
        let solo = run(false);
        assert_eq!(grouped.committed, solo.committed);
        assert!(grouped.writes <= solo.writes, "group {} vs solo {}", grouped.writes, solo.writes);
    }
}
