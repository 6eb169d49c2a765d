//! The mixed readers-alongside-writers driver: N snapshot scanners race
//! M committing writers over one [`Database`] (in
//! [`pdl_storage::Durability::Commit`] mode, typically over a sharded
//! store).
//!
//! Each writer owns a contiguous page group spanning every shard and
//! stamps a monotonically increasing round counter into *all* of its
//! pages per transaction (one cross-shard atomic unit). Each scanner
//! sweeps the whole page space and checks, per writer group, that every
//! page carries the same stamp — the witness that the scan observed an
//! atomic prefix of that writer's commit history.
//!
//! Two read disciplines are compared:
//!
//! * **locked** — the pre-MVCC way to get a consistent scan: reader and
//!   committer serialize on one global lock (a scan blocks every commit
//!   and vice versa). Its reader throughput is bounded by the *total*
//!   simulated flash time of the run, because everything funnels through
//!   the lock.
//! * **snapshot** — readers open a [`pdl_storage::ReadView`] and never
//!   take the global lock: commits proceed while scans run, and the
//!   engine's critical path is the busiest *shard*, not the sum. Reader
//!   throughput is bounded by the maximum per-shard flash time — the same
//!   machine-independent accounting the sharded and group-commit
//!   experiments use (on a one-core host the wall clock cannot separate
//!   the disciplines, but the serialization structure can).

use pdl_flash::FlashStats;
use pdl_storage::{Database, PageRead, StorageError, StructId, StructRoot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Parameters of a snapshot-read workload.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotReadConfig {
    /// Concurrent snapshot scanners.
    pub readers: usize,
    /// Concurrent committing writers.
    pub writers: usize,
    /// Full page-space sweeps per reader.
    pub scans_per_reader: u64,
    /// Transactions per writer.
    pub txns_per_writer: u64,
    /// Pages per writer transaction (its contiguous group — contiguous
    /// pids stripe round-robin, so a group of >= shard-count pages spans
    /// every shard and exercises cross-shard snapshot atomicity).
    pub pages_per_txn: usize,
    /// `true` = the pre-MVCC locked read path; `false` = read views.
    pub locked_baseline: bool,
    /// Split-heavy structure churn: each writer transaction *changes the
    /// shape* of a registered structure (its commit-clock-versioned page
    /// list grows each round, collapsing when it fills its group) in
    /// addition to stamping the listed pages. Scanners resolve the list
    /// through the structure-root log at their view and require every
    /// listed page to carry the view's round stamp — a scan that paired
    /// its view with the *current* list would read pages that did not
    /// exist at view time and report torn.
    pub structure_churn: bool,
}

impl SnapshotReadConfig {
    pub fn new(readers: usize, writers: usize) -> SnapshotReadConfig {
        SnapshotReadConfig {
            readers,
            writers,
            scans_per_reader: 8,
            txns_per_writer: 64,
            pages_per_txn: 8,
            locked_baseline: false,
            structure_churn: false,
        }
    }

    pub fn with_scans(mut self, scans: u64) -> SnapshotReadConfig {
        self.scans_per_reader = scans;
        self
    }

    pub fn with_txns_per_writer(mut self, txns: u64) -> SnapshotReadConfig {
        self.txns_per_writer = txns;
        self
    }

    pub fn with_locked_baseline(mut self, locked: bool) -> SnapshotReadConfig {
        self.locked_baseline = locked;
        self
    }

    pub fn with_structure_churn(mut self, churn: bool) -> SnapshotReadConfig {
        self.structure_churn = churn;
        self
    }
}

/// Result of one snapshot-read run.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotReadResult {
    /// Completed consistent scans.
    pub scans: u64,
    /// Committed writer transactions.
    pub committed: u64,
    /// Scans that observed a torn writer group (must be 0).
    pub torn_scans: u64,
    /// Scans retried because the view outlived the version cap.
    pub too_old_retries: u64,
    /// Snapshot reads served from version chains instead of frames.
    pub version_reads: u64,
    /// Total simulated flash time of the run (µs), all shards.
    pub flash_us_total: u64,
    /// Maximum per-shard simulated flash time (µs): the engine's
    /// critical path when nothing global serializes the run.
    pub flash_us_max_shard: u64,
    /// Buffer statistics sampled at the end of the run. `active_views` and
    /// `leaked_pids` must both read 0 after a clean teardown — the
    /// benches assert on them.
    pub buffer: pdl_storage::BufferStats,
    pub wall: Duration,
}

impl SnapshotReadResult {
    /// Machine-independent read throughput: scans per second of the time
    /// the run's serialization structure charges the read path — total
    /// flash time under the global lock, busiest shard under views.
    pub fn bound_scans_per_sec(&self, locked: bool) -> f64 {
        let us = if locked { self.flash_us_total } else { self.flash_us_max_shard };
        if us == 0 {
            return 0.0;
        }
        self.scans as f64 / (us as f64 / 1e6)
    }
}

/// Every chip's flash ledger, shard order.
fn per_chip(db: &Database) -> Vec<FlashStats> {
    let mut chips = Vec::new();
    db.with_store(|s| s.for_each_chip(&mut |c| chips.push(c.stats())));
    chips
}

/// Run the workload. Writer `w` owns pages
/// `[w * pages_per_txn, (w+1) * pages_per_txn)`; pages past
/// `writers * pages_per_txn` are read-only ballast the scanners fault in.
pub fn run_snapshot_read_workload(
    db: &Database,
    cfg: &SnapshotReadConfig,
) -> pdl_storage::Result<SnapshotReadResult> {
    let num_pages = db.with_store(|s| s.options().num_logical_pages);
    let group = cfg.pages_per_txn.max(1) as u64;
    assert!(
        cfg.writers as u64 * group <= num_pages,
        "writer groups ({} x {group}) exceed the page space ({num_pages})",
        cfg.writers
    );
    // Seed every writer group with stamp 0 so scans are consistent from
    // the first round. In structure-churn mode each writer additionally
    // registers its page-list structure, one page long to start.
    let mut struct_ids: Vec<StructId> = Vec::new();
    for w in 0..cfg.writers as u64 {
        db.begin()?;
        for pid in w * group..(w + 1) * group {
            db.with_page_mut(pid, |page| page.write(0, &0u64.to_le_bytes()))?;
        }
        db.commit()?;
        if cfg.structure_churn {
            struct_ids.push(db.register_struct(StructRoot::Heap { pages: vec![w * group] }));
        }
    }
    let struct_ids = &struct_ids;

    let big_lock = Mutex::new(()); // the locked baseline's read path
    let torn = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let chips_before = per_chip(db);
    let cache_before = db.buffer_stats();
    let started = Instant::now();

    let results: Vec<pdl_storage::Result<u64>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..cfg.writers as u64 {
            let big_lock = &big_lock;
            let cfg = *cfg;
            handles.push(scope.spawn(move || -> pdl_storage::Result<u64> {
                let mut committed = 0u64;
                let mut len = 1u64;
                for round in 1..=cfg.txns_per_writer {
                    let _serial = cfg
                        .locked_baseline
                        .then(|| big_lock.lock().unwrap_or_else(|e| e.into_inner()));
                    db.begin()?;
                    if cfg.structure_churn {
                        // Grow (or collapse) the registered page list and
                        // stamp exactly the listed pages; the shape change
                        // and the stamps commit atomically.
                        len = if len == group { 1 } else { len + 1 };
                        let pages: Vec<u64> = (w * group..w * group + len).collect();
                        for &pid in &pages {
                            db.with_page_mut(pid, |page| page.write(0, &round.to_le_bytes()))?;
                        }
                        db.publish_struct(struct_ids[w as usize], StructRoot::Heap { pages });
                    } else {
                        for pid in w * group..(w + 1) * group {
                            db.with_page_mut(pid, |page| page.write(0, &round.to_le_bytes()))?;
                        }
                    }
                    db.commit()?;
                    committed += 1;
                }
                Ok(committed)
            }));
        }
        for _ in 0..cfg.readers {
            let big_lock = &big_lock;
            let torn = &torn;
            let retries = &retries;
            let cfg = *cfg;
            handles.push(scope.spawn(move || -> pdl_storage::Result<u64> {
                let mut scans = 0u64;
                while scans < cfg.scans_per_reader {
                    let outcome = if cfg.locked_baseline {
                        let _serial = big_lock.lock().unwrap_or_else(|e| e.into_inner());
                        if cfg.structure_churn {
                            scan_structs(db, struct_ids, group, num_pages)
                        } else {
                            scan_current(db, cfg.writers as u64, group, num_pages)
                        }
                    } else if cfg.structure_churn {
                        // The leak-proof bracket: the guard releases the
                        // view even on a `?` early return below.
                        db.with_read_view(|view| {
                            scan_structs(&db.snapshot(view), struct_ids, group, num_pages)
                        })
                    } else {
                        db.with_read_view(|view| {
                            scan_snapshot(db, view, cfg.writers as u64, group, num_pages)
                        })
                    };
                    match outcome {
                        Ok(consistent) => {
                            if !consistent {
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                            scans += 1;
                        }
                        Err(StorageError::SnapshotTooOld { .. }) => {
                            // The view outlived the retention cap; retry
                            // with a fresh one.
                            retries.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => return Err(e),
                    }
                }
                Ok(scans)
            }));
        }
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    let mut committed = 0u64;
    let mut scans = 0u64;
    for (i, r) in results.into_iter().enumerate() {
        if i < cfg.writers {
            committed += r?;
        } else {
            scans += r?;
        }
    }
    let per_shard_us: Vec<u64> = per_chip(db)
        .iter()
        .zip(&chips_before)
        .map(|(a, b)| (a.total() - b.total()).total_us())
        .collect();
    Ok(SnapshotReadResult {
        scans,
        committed,
        torn_scans: torn.load(Ordering::Relaxed),
        too_old_retries: retries.load(Ordering::Relaxed),
        version_reads: db.buffer_stats().version_reads - cache_before.version_reads,
        flash_us_total: per_shard_us.iter().sum(),
        flash_us_max_shard: per_shard_us.iter().copied().max().unwrap_or(0),
        buffer: db.buffer_stats(),
        wall: started.elapsed(),
    })
}

/// One full sweep through a [`pdl_storage::ReadView`]; returns whether
/// every writer group was observed atomically.
fn scan_snapshot(
    db: &Database,
    view: &pdl_storage::ReadView,
    writers: u64,
    group: u64,
    num_pages: u64,
) -> pdl_storage::Result<bool> {
    let mut consistent = true;
    for w in 0..writers {
        let mut first = None;
        for pid in w * group..(w + 1) * group {
            let stamp =
                db.with_page_at(view, pid, |pg| u64::from_le_bytes(pg[0..8].try_into().unwrap()))?;
            match first {
                None => first = Some(stamp),
                Some(f) if f != stamp => consistent = false,
                _ => {}
            }
        }
    }
    for pid in writers * group..num_pages {
        db.with_page_at(view, pid, |pg| pg[0])?;
    }
    Ok(consistent)
}

/// The split-heavy sweep, generic over the read discipline: resolve
/// every writer's page-list structure through `s` (a snapshot resolves
/// through the structure-root log *as of the view*; the locked
/// baseline's live reader resolves the current list under the global
/// lock), then require every listed page to carry one uniform round
/// stamp. A resolver that handed back a shape from a different
/// commit-clock point than the page bytes would report torn.
fn scan_structs<S: PageRead>(
    s: &S,
    ids: &[StructId],
    group: u64,
    num_pages: u64,
) -> pdl_storage::Result<bool> {
    let mut consistent = true;
    for id in ids {
        let Some(StructRoot::Heap { pages }) = s.struct_root(*id) else {
            consistent = false;
            continue;
        };
        if pages.is_empty() {
            consistent = false;
            continue;
        }
        let mut first = None;
        for pid in pages {
            let stamp = s.with_page(pid, |pg| u64::from_le_bytes(pg[0..8].try_into().unwrap()))?;
            match first {
                None => first = Some(stamp),
                Some(f) if f != stamp => consistent = false,
                _ => {}
            }
        }
    }
    for pid in ids.len() as u64 * group..num_pages {
        s.with_page(pid, |pg| pg[0])?;
    }
    Ok(consistent)
}

/// The locked baseline's sweep: plain current-state reads (the caller
/// holds the global lock, which is what makes them consistent).
fn scan_current(
    db: &Database,
    writers: u64,
    group: u64,
    num_pages: u64,
) -> pdl_storage::Result<bool> {
    let mut consistent = true;
    for w in 0..writers {
        let mut first = None;
        for pid in w * group..(w + 1) * group {
            let stamp = db.with_page(pid, |pg| u64::from_le_bytes(pg[0..8].try_into().unwrap()))?;
            match first {
                None => first = Some(stamp),
                Some(f) if f != stamp => consistent = false,
                _ => {}
            }
        }
    }
    for pid in writers * group..num_pages {
        db.with_page(pid, |pg| pg[0])?;
    }
    Ok(consistent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::{MethodKind, ShardedStore, StoreOptions};
    use pdl_flash::FlashConfig;
    use pdl_storage::Durability;

    fn pool(shards: usize, pages: u64, capacity: usize) -> Database {
        let store = ShardedStore::with_uniform_chips(
            FlashConfig::scaled(16),
            shards,
            MethodKind::Pdl { max_diff_size: 256 },
            StoreOptions::new(pages),
        )
        .unwrap();
        let db = Database::new(Box::new(store), capacity).with_durability(Durability::Commit);
        for pid in 0..pages {
            db.with_page_mut(pid, |p| p.write(0, &[0; 8])).unwrap();
        }
        db.flush().unwrap();
        db
    }

    #[test]
    fn snapshot_scans_are_never_torn() {
        let p = pool(4, 128, 32);
        let cfg = SnapshotReadConfig::new(2, 2).with_scans(6).with_txns_per_writer(24);
        let r = run_snapshot_read_workload(&p, &cfg).unwrap();
        assert_eq!(r.scans, 12);
        assert_eq!(r.committed, 48);
        assert_eq!(r.torn_scans, 0, "a view must observe atomic commit prefixes");
        assert!(r.flash_us_max_shard > 0);
        assert!(r.flash_us_total >= r.flash_us_max_shard);
        assert_eq!(r.buffer.active_views, 0, "every view must be released");
        assert_eq!(r.buffer.leaked_pids, 0);
    }

    #[test]
    fn structure_churn_scans_resolve_view_time_page_lists() {
        let p = pool(4, 128, 32);
        let cfg = SnapshotReadConfig::new(2, 2)
            .with_scans(6)
            .with_txns_per_writer(24)
            .with_structure_churn(true);
        let r = run_snapshot_read_workload(&p, &cfg).unwrap();
        assert_eq!(r.scans, 12);
        assert_eq!(r.committed, 48);
        assert_eq!(r.torn_scans, 0, "structure shape and page stamps must move atomically");
        // Teardown: the view registry drained and nothing stayed pinned.
        assert_eq!(p.buffer_stats().active_views, 0);
        assert_eq!(p.retained_versions(), 0);
        assert_eq!(p.retained_struct_versions(), 0);
    }

    #[test]
    fn locked_baseline_scans_are_consistent_too() {
        let p = pool(2, 64, 16);
        let cfg = SnapshotReadConfig::new(2, 2)
            .with_scans(4)
            .with_txns_per_writer(12)
            .with_locked_baseline(true);
        let r = run_snapshot_read_workload(&p, &cfg).unwrap();
        assert_eq!(r.torn_scans, 0, "the global lock serializes scans against commits");
        assert_eq!(r.too_old_retries, 0);
    }
}
