//! `writers2` — two writer threads, each growing its own registered B+-tree
//! on one shared `Database` over a 2-shard store, committing durably every
//! 8 inserts. The only workload where locks, latches and the commit
//! protocol are contended.

use crate::rng::{Digest, Rng};
use crate::run::{saturating_u32, HostClock, Layers, Measured, PoolDelta, Slices, Workload};
use crate::stats::percentile;
use crate::store::{Failures, StoreSpec, Torn};
use crate::trace::{FlashCost, Tracer};
use pdl_storage::{BTree, Database, Durability, Key, KeyBuf, StorageError};
use std::time::Instant;

/// Writer threads — the load threads of this workload.
const WRITERS: usize = 2;

/// Inserts per `begin` / `commit`: one op.
const BATCH: usize = 8;

pub struct Sizes {
    spec: StoreSpec,
    frames: usize,
    warmup_batches_per_writer: u64,
    measured_batches_per_writer: u64,
}

/// One writer's input stream and how far it has got.
struct Lane {
    writer: usize,
    rng: Rng,
    /// Keys committed so far; key `i` carries value `i`.
    inserted: u64,
}

impl Lane {
    fn new(seed: u64, writer: usize) -> Lane {
        Lane { writer, rng: Rng::fork(seed, writer as u64 + 1), inserted: 0 }
    }

    /// A pseudo-random 9-byte key: the writer, then 8 random bytes.
    fn next_key(&mut self) -> Key {
        KeyBuf::new().push_u8(self.writer as u8).push_u64(self.rng.next_u64()).finish()
    }
}

pub struct Writers {
    db: Database,
    trees: Vec<BTree>,
    lanes: Vec<Lane>,
    spec: StoreSpec,
    seed: u64,
    measured_batches_per_writer: u64,
}

/// What one writer thread brings back from a phase.
struct LaneResult {
    slices: Slices,
    flash_us: Vec<u32>,
    tracer: Tracer,
    digest: Digest,
    conflict_retries: u64,
    failed_ops: u64,
}

/// Commit `batches` batches from `lane` into `tree`. A batch that meets a
/// `TxnConflict` is aborted and retried with the same keys; any other error
/// fails the op (its keys are skipped).
fn run_lane(
    db: &Database,
    tree: &BTree,
    lane: &mut Lane,
    batches: u64,
    tracing: bool,
    epoch: Instant,
) -> LaneResult {
    let mut out = LaneResult {
        slices: Slices::start(batches),
        flash_us: Vec::with_capacity(batches as usize),
        tracer: Tracer::new(tracing, lane.writer as u32, epoch),
        digest: Digest::default(),
        conflict_retries: 0,
        failed_ops: 0,
    };
    let tr = &mut out.tracer;
    for b in 0..batches {
        let op_id = b * WRITERS as u64 + lane.writer as u64;
        let keys: [Key; BATCH] = std::array::from_fn(|_| lane.next_key());
        for key in &keys {
            out.digest.fold(u64::from_le_bytes(key[1..9].try_into().expect("8 bytes")));
        }
        let flash_before = db.io_stats();
        let t0 = Instant::now();
        tr.begin("op", op_id);
        let result = 'batch: loop {
            tr.begin("storage.begin", op_id);
            let begun = db.begin();
            tr.end();
            if let Err(e) = begun {
                break Err(e);
            }
            for (j, key) in keys.iter().enumerate() {
                tr.begin("storage.btree.insert", op_id);
                let inserted = tree.insert(db, key, lane.inserted + j as u64);
                tr.end();
                match inserted {
                    Ok(()) => {}
                    Err(StorageError::TxnConflict { .. }) => {
                        let _ = db.abort();
                        out.conflict_retries += 1;
                        std::thread::yield_now();
                        continue 'batch;
                    }
                    Err(e) => {
                        let _ = db.abort();
                        break 'batch Err(e);
                    }
                }
            }
            tr.begin("storage.commit", op_id);
            let committed = db.commit();
            tr.end();
            break committed;
        };
        tr.end();
        let t1 = Instant::now();
        out.slices.op_done(t0, t1);
        let cost = FlashCost::between(&flash_before, &db.io_stats());
        out.flash_us.push(saturating_u32(cost.total_us));
        match result {
            Ok(()) => lane.inserted += BATCH as u64,
            Err(_) => out.failed_ops += 1,
        }
    }
    out
}

impl Writers {
    /// Run one phase on all writers at once and join them.
    fn phase(&mut self, batches: u64, tracing: bool) -> Vec<LaneResult> {
        let epoch = Instant::now();
        let db = &self.db;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .zip(&self.trees)
                .map(|(lane, tree)| {
                    scope.spawn(move || run_lane(db, tree, lane, batches, tracing, epoch))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("writer thread panicked")).collect()
        })
    }
}

impl Workload for Writers {
    const NAME: &'static str = "writers2";
    const THREADS: usize = WRITERS;
    type Sizes = Sizes;

    fn sizes(seconds: u64, smoke: bool) -> Sizes {
        if smoke {
            let spec = StoreSpec {
                shards: WRITERS,
                blocks_per_chip: 32,
                logical_pages: 1_024,
                checkpoint_blocks: 2,
            };
            return Sizes {
                spec,
                frames: 1_024,
                warmup_batches_per_writer: 60,
                measured_batches_per_writer: 250,
            };
        }
        let spec = StoreSpec {
            shards: WRITERS,
            blocks_per_chip: 400,
            logical_pages: 16_384,
            checkpoint_blocks: 2,
        };
        Sizes {
            spec,
            // More than the final footprint: nothing is evicted.
            frames: 16_384,
            warmup_batches_per_writer: 6_250,
            measured_batches_per_writer: 2_500 * seconds,
        }
    }

    fn setup(sizes: &Sizes, seed: u64) -> Result<Writers, String> {
        let store = sizes.spec.build()?;
        let db = Database::new(store, sizes.frames).with_durability(Durability::Commit);
        db.begin().map_err(|e| format!("begin: {e}"))?;
        let trees = (0..WRITERS)
            .map(|_| BTree::create(&db))
            .collect::<pdl_storage::Result<Vec<_>>>()
            .map_err(|e| format!("create trees: {e}"))?;
        db.commit().map_err(|e| format!("commit of the empty trees: {e}"))?;
        let mut this = Writers {
            db,
            trees,
            lanes: (0..WRITERS).map(|w| Lane::new(seed, w)).collect(),
            spec: sizes.spec,
            seed,
            measured_batches_per_writer: sizes.measured_batches_per_writer,
        };
        let warmup = this.phase(sizes.warmup_batches_per_writer, false);
        match warmup.iter().map(|r| r.failed_ops).sum::<u64>() {
            0 => Ok(this),
            n => Err(format!("{n} warm-up batches failed")),
        }
    }

    fn measure(&mut self, tracing: bool) -> Result<Measured, String> {
        let batches = self.measured_batches_per_writer;
        let pool_before = self.db.buffer_stats();
        let stats_before = self.db.io_stats();
        let started = Instant::now();
        let results = self.phase(batches, tracing);
        let wall = started.elapsed();
        let flash = self.db.io_stats().delta_since(&stats_before);
        let pool_after = self.db.buffer_stats();

        let mut m = Measured {
            ops: batches * WRITERS as u64,
            failed_ops: 0,
            wall,
            host: HostClock::default(),
            flash_us: Vec::new(),
            flash,
            pool: Some(PoolDelta::between(&pool_before, &pool_after)),
            digest: 0,
            tracer: Tracer::new(tracing, 0, started),
            pairs: Vec::new(),
            conflict_retries: 0,
            rollbacks: 0,
        };
        let mut digest = Digest::default();
        let mut slices = Vec::new();
        for r in results {
            slices.push(r.slices);
            m.failed_ops += r.failed_ops;
            m.conflict_retries += r.conflict_retries;
            m.flash_us.extend(r.flash_us);
            m.tracer.merge(r.tracer);
            digest.merge(r.digest);
        }
        m.host = HostClock::of(&mut slices);
        m.digest = digest.value();
        Ok(m)
    }

    /// Every committed key reads back with its value, and both trees are
    /// well-formed. (Crash recovery of the *structures* under racing
    /// committers is ROADMAP item 1's open bug and is left to its tier-1
    /// sweeps, so that the failure share here stays deterministic.)
    fn check(&mut self, failures: &mut Failures) -> Result<(), String> {
        for (lane, tree) in self.lanes.iter().zip(&self.trees) {
            let mut replay = Lane::new(self.seed, lane.writer);
            let mut missing = 0;
            for i in 0..lane.inserted {
                let key = replay.next_key();
                let got = tree.get(&self.db, &key).map_err(|e| format!("get: {e}"))?;
                missing += u64::from(got != Some(i));
            }
            failures
                .add(missing, format!("writer {}: committed key does not read back", lane.writer));
            if let Err(e) = tree.check_invariants(&self.db) {
                failures.add(1, format!("writer {}: tree invariants: {e}", lane.writer));
            }
        }
        Ok(())
    }

    fn into_store(self) -> Result<Torn, String> {
        self.db.flush().map_err(|e| format!("final flush: {e}"))?;
        let pages = self.db.allocated_pages();
        let store = self.db.into_store().map_err(|e| format!("into_store: {e}"))?;
        Ok(Torn { store, spec: self.spec, pages, expected: None })
    }

    fn layer_metrics(m: &mut Measured, out: &mut Layers) {
        let op_total_ns = m.tracer.agg("op").map_or(0, |a| a.total_ns).max(1) as f64;
        if let Some(begin) = m.tracer.agg_mut("storage.begin") {
            out.set("storage.begin.host_ns_p50", percentile(&mut begin.durations, 50.0) as f64);
        }
        if let Some(insert) = m.tracer.agg_mut("storage.btree.insert") {
            let d = &mut insert.durations;
            out.set("storage.btree.insert.host_us_p50", percentile(d, 50.0) as f64 / 1e3);
            out.set("storage.btree.insert.host_us_p99", percentile(d, 99.0) as f64 / 1e3);
        }
        if let Some(commit) = m.tracer.agg_mut("storage.commit") {
            let d = &mut commit.durations;
            out.set("storage.commit.host_us_p50", percentile(d, 50.0) as f64 / 1e3);
            out.set("storage.commit.host_us_p99", percentile(d, 99.0) as f64 / 1e3);
            // A commit span includes its lock wait: busy and waiting cannot
            // be told apart from outside.
            out.set("storage.commit.time_share", commit.total_ns as f64 / op_total_ns);
        }
        out.set(
            "storage.txn.conflict_retries_per_kop",
            m.conflict_retries as f64 * 1e3 / m.ops as f64,
        );
    }
}
