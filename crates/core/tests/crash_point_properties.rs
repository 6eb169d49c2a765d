//! Crash testing in two tiers:
//!
//! * an **exhaustive crash-point sweep**: a fixed, GC-heavy workload is
//!   first dry-run to count its destructive flash operations (programs,
//!   obsolete marks, erases), then re-run once per destructive-op index
//!   with a power-loss fault armed at exactly that index
//!   ([`pdl_flash::FlashChip::arm_fault`]). Every index is covered, so
//!   crashes *inside* garbage collection — mid-migration, between a
//!   relocation and the victim's erase, between erase and mapping update
//!   — are all exercised deterministically, for each method and for the
//!   GC policies that change data placement (hot/cold runs two active
//!   blocks during migration);
//! * a property test over arbitrary checkpoint placement (checkpoints
//!   must never change recovery semantics);
//! * the same exhaustive sweep over a commit-per-update workload whose
//!   commit proofs are carried forward for generations — on one chip, on
//!   two shards, and across a checkpoint.
//!
//! After recovery, every page must read back as a state the workload
//! could legally have produced (the flushed state, or a committed
//! post-flush update), and a second crash+recovery must agree.

use pdl_core::{
    build_store, is_power_loss, recover_store, CommitBatch, GcPolicy, MethodKind, PageStore, Pdl,
    ShardedStore, StoreOptions,
};
use pdl_flash::{FlashChip, FlashConfig};
use proptest::prelude::*;

const PAGES: u64 = 24;

/// The fixed workload script: `(pid, fill, whole_page)` — a whole-page
/// rewrite (base-page churn: OPU programs, PDL Case 3, IPL multi-sector
/// logs) or a 16-byte run update (differential / log-sector traffic).
/// Deterministic pseudo-random, dense enough on the tiny chip that every
/// method garbage-collects during the post-flush phase.
fn script(len: usize, seed: u64) -> Vec<(u64, u8, bool)> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pid = (x >> 33) % PAGES;
            let fill = (x >> 17) as u8;
            let whole = (x >> 13).is_multiple_of(3); // every third op rewrites the page
            (pid, fill, whole)
        })
        .collect()
}

/// Apply one scripted op to `page` (the in-memory image of its pid).
fn apply_op(page: &mut [u8], fill: u8, whole: bool) {
    if whole {
        page.fill(fill);
    } else {
        let at = (fill as usize * 5) % (page.len() - 16);
        page[at..at + 16].fill(fill ^ 0xA5);
    }
}

struct SweepSetup {
    kind: MethodKind,
    opts: StoreOptions,
    config: FlashConfig,
}

impl SweepSetup {
    fn build(&self) -> Box<dyn PageStore> {
        build_store(FlashChip::new(self.config), self.kind, self.opts).unwrap()
    }

    /// Run phase 1 (load + pre-crash updates + flush); returns the
    /// flushed page states.
    fn phase1(&self, store: &mut dyn PageStore) -> Vec<Vec<u8>> {
        let size = store.logical_page_size();
        let mut flushed: Vec<Vec<u8>> = (0..PAGES).map(|_| vec![0u8; size]).collect();
        for pid in 0..PAGES {
            store.write_page(pid, &flushed[pid as usize]).unwrap();
        }
        for (pid, fill, whole) in script(20, 0x51EE7) {
            apply_op(&mut flushed[pid as usize], fill, whole);
            let p = flushed[pid as usize].clone();
            store.write_page(pid, &p).unwrap();
        }
        store.flush().unwrap();
        flushed
    }
}

/// The exhaustive sweep for one method/policy configuration.
fn sweep(kind: MethodKind, policy: GcPolicy) {
    sweep_on(kind, policy, FlashConfig::tiny());
}

/// The sweep body, parameterized over the chip configuration so the same
/// crash points can be replayed with a deep command queue (crashes with
/// commands still in flight).
fn sweep_on(kind: MethodKind, policy: GcPolicy, config: FlashConfig) {
    let mut opts = StoreOptions::new(PAGES).with_gc_policy(policy);
    // A large GC reserve shrinks the normally-allocatable space, so the
    // out-place methods hit reclamation within a short script instead of
    // needing thousands of operations to fill the chip.
    opts.reserve_blocks = 10;
    let setup = SweepSetup { kind, opts, config };
    // IPL turns a whole-page rewrite into dozens of log-sector programs,
    // so a shorter script already exercises several merges (its GC) while
    // keeping the per-index replay affordable.
    let post_len = if matches!(kind, MethodKind::Ipl { .. }) { 24 } else { 45 };
    let post_script = script(post_len, 0xCAFE);

    // Dry run: count destructive operations of the post-flush phase and
    // prove it garbage-collects (so the sweep covers mid-GC indices).
    // The dry run must replay the *exact* page sequence of the faulted
    // runs below — PDL's differential sizes (and hence its Case 1/2/3
    // program counts) depend on page contents, so any divergence would
    // make the destructive-op count wrong and leave tail indices
    // unswept.
    let mut store = setup.build();
    let mut proto = setup.phase1(store.as_mut());
    let before = store.stats();
    for (pid, fill, whole) in &post_script {
        let pid = *pid as usize;
        let mut page = proto[pid].clone();
        apply_op(&mut page, *fill, *whole);
        store.write_page(pid as u64, &page).unwrap();
        proto[pid] = page;
    }
    let delta = store.stats().delta_since(&before);
    let destructive = delta.total().writes + delta.total().erases;
    assert!(
        delta.gc.total_ops() > 0,
        "{}: the fixed workload must garbage-collect post-flush (got {delta:?})",
        store.name()
    );

    // The sweep: crash after exactly `budget` destructive ops, for every
    // budget (the final budget crashes nowhere — the control run).
    for budget in 0..=destructive {
        let mut store = setup.build();
        let flushed = setup.phase1(store.as_mut());
        let size = flushed[0].len();
        store.chip_mut().arm_fault(budget);
        let mut history: Vec<Vec<Vec<u8>>> = vec![Vec::new(); PAGES as usize];
        for (pid, fill, whole) in &post_script {
            let pid = *pid as usize;
            let mut page = history[pid].last().cloned().unwrap_or_else(|| flushed[pid].clone());
            apply_op(&mut page, *fill, *whole);
            match store.write_page(pid as u64, &page) {
                Ok(()) => history[pid].push(page),
                Err(e) => {
                    assert!(is_power_loss(&e), "budget {budget}: unexpected error: {e}");
                    history[pid].push(page); // may or may not have landed
                    break;
                }
            }
        }

        // Reboot and recover.
        let mut chip = store.into_chip();
        chip.disarm_fault();
        let mut r = recover_store(chip, kind, setup.opts).unwrap();
        let mut out = vec![0u8; size];
        let mut first_states: Vec<Vec<u8>> = Vec::new();
        let ipl = matches!(kind, MethodKind::Ipl { .. });
        for pid in 0..PAGES as usize {
            r.read_page(pid as u64, &mut out).unwrap();
            if history[pid].is_empty() {
                assert_eq!(
                    out,
                    flushed[pid],
                    "{} budget {budget}: page {pid} must equal the flushed state",
                    r.name()
                );
            } else {
                // Touched pages: the flushed state or any state of the
                // post-flush history (out-place writes are page-atomic).
                // IPL is exempt from byte-exactness: its update logs are
                // sector-granular, so a whole-page update interrupted
                // mid-flush legally recovers as a mixture — the paper's
                // §4.5 defers transactional atomicity to the DBMS above.
                let legal = out == flushed[pid] || history[pid].iter().any(|h| h == &out) || ipl;
                assert!(legal, "{} budget {budget}: page {pid} is torn", r.name());
            }
            first_states.push(out.clone());
        }

        // Idempotence: a second crash+recovery yields the same states.
        let chip = r.into_chip();
        let mut r2 = recover_store(chip, kind, setup.opts).unwrap();
        for pid in 0..PAGES as usize {
            r2.read_page(pid as u64, &mut out).unwrap();
            assert_eq!(
                out, first_states[pid],
                "budget {budget}: second recovery diverged on page {pid}"
            );
        }
    }
}

#[test]
fn exhaustive_crash_sweep_opu() {
    sweep(MethodKind::Opu, GcPolicy::Greedy);
}

#[test]
fn exhaustive_crash_sweep_opu_hot_cold() {
    sweep(MethodKind::Opu, GcPolicy::HotCold);
}

#[test]
fn exhaustive_crash_sweep_pdl() {
    sweep(MethodKind::Pdl { max_diff_size: 64 }, GcPolicy::Greedy);
}

#[test]
fn exhaustive_crash_sweep_pdl_cost_benefit() {
    sweep(MethodKind::Pdl { max_diff_size: 64 }, GcPolicy::CostBenefit);
}

#[test]
fn exhaustive_crash_sweep_pdl_hot_cold() {
    sweep(MethodKind::Pdl { max_diff_size: 64 }, GcPolicy::HotCold);
}

/// The PDL sweep replayed with a 16-deep command queue and 4 planes:
/// every crash index now lands with commands potentially still in
/// flight (queued but not drained), and recovery must agree with the
/// synchronous sweep's legality rules anyway.
#[test]
fn exhaustive_crash_sweep_pdl_qd16() {
    sweep_on(
        MethodKind::Pdl { max_diff_size: 64 },
        GcPolicy::Greedy,
        FlashConfig::tiny().with_queue_depth(16).with_planes(4),
    );
}

#[test]
fn exhaustive_crash_sweep_ipl() {
    sweep(MethodKind::Ipl { log_bytes_per_block: 512 }, GcPolicy::Greedy);
}

// ----------------------------------------------------------------------
// pdl-txn: commit-record crash points
// ----------------------------------------------------------------------

/// A TPC-C-style multi-page transaction script: every transaction bumps
/// a counter in the "district" page and rewrites a few pseudo-random
/// "stock/order" pages — the multi-page atomic unit the commit records
/// exist for.
fn txn_script(count: usize) -> Vec<Vec<(u64, u8, bool)>> {
    let mut x = 0x7C0FFEEu64;
    (0..count)
        .map(|i| {
            let mut pages = vec![(0u64, i as u8 + 1, false)]; // the district page
            let n = 2 + (i % 3);
            for _ in 0..n {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let pid = 1 + (x >> 33) % (PAGES - 1);
                let fill = (x >> 17) as u8;
                let whole = (x >> 13).is_multiple_of(4);
                pages.push((pid, fill, whole));
            }
            pages
        })
        .collect()
}

/// The exhaustive commit-record sweep: crash after every destructive
/// flash operation of a transactional workload, recover, and require the
/// visible state to equal the state after some *prefix of committed
/// transactions* — every transaction all-or-nothing, zero torn commits.
#[test]
fn exhaustive_crash_sweep_txn_commits() {
    let kind = MethodKind::Pdl { max_diff_size: 64 };
    let mut opts = StoreOptions::new(PAGES);
    opts.reserve_blocks = 10; // force GC inside the commit batches too
    let txns = txn_script(12);

    let build = || build_store(FlashChip::new(FlashConfig::tiny()), kind, opts).unwrap();
    let load = |store: &mut dyn PageStore| -> Vec<Vec<u8>> {
        let size = store.logical_page_size();
        let initial: Vec<Vec<u8>> = (0..PAGES).map(|p| vec![p as u8; size]).collect();
        for pid in 0..PAGES {
            store.write_page(pid, &initial[pid as usize]).unwrap();
        }
        store.flush().unwrap();
        initial
    };

    // The page states after each committed prefix of the script.
    let mut store = build();
    let size = store.logical_page_size();
    let mut states: Vec<Vec<Vec<u8>>> = vec![load(store.as_mut())];
    for txn_pages in &txns {
        let mut next = states.last().unwrap().clone();
        for (pid, fill, whole) in txn_pages {
            apply_op(&mut next[*pid as usize], *fill, *whole);
        }
        states.push(next);
    }

    // One transaction through `commit_batch`. Returns Err on the
    // injected power loss.
    let run_txn =
        |store: &mut dyn PageStore, states: &[Vec<Vec<u8>>], k: usize| -> pdl_core::Result<()> {
            let txn = k as u64 + 1;
            let pages =
                txns[k].iter().map(|(pid, _, _)| (*pid, &states[k + 1][*pid as usize][..], txn));
            Ok(store.commit_batch(&CommitBatch { pages: pages.collect(), roots: None })?)
        };

    // Dry run: count the destructive operations of the transactional
    // phase (and prove it garbage-collects, so the sweep covers crashes
    // inside GC inside commit batches).
    let mut store = build();
    load(store.as_mut());
    let before = store.stats();
    for k in 0..txns.len() {
        run_txn(store.as_mut(), &states, k).unwrap();
    }
    let delta = store.stats().delta_since(&before);
    assert!(delta.gc.total_ops() > 0, "the txn workload must garbage-collect ({delta:?})");
    let destructive = delta.total().writes + delta.total().erases;

    for budget in 0..=destructive {
        let mut store = build();
        load(store.as_mut());
        store.chip_mut().arm_fault(budget);
        for k in 0..txns.len() {
            match run_txn(store.as_mut(), &states, k) {
                Ok(()) => {}
                Err(e) => {
                    assert!(is_power_loss(&e), "budget {budget}: unexpected error: {e}");
                    break;
                }
            }
        }
        let mut chip = store.into_chip();
        chip.disarm_fault();
        let mut r = recover_store(chip, kind, opts).unwrap();
        let mut out = vec![0u8; size];
        let mut pages_now: Vec<Vec<u8>> = Vec::with_capacity(PAGES as usize);
        for pid in 0..PAGES {
            r.read_page(pid, &mut out).unwrap();
            pages_now.push(out.clone());
        }
        // Zero torn transactions: the whole database must equal the
        // state after some committed prefix.
        let matched = states.iter().position(|s| s == &pages_now);
        assert!(
            matched.is_some(),
            "budget {budget}: recovered state matches no committed prefix — a torn transaction"
        );
        // A second crash + recovery must agree.
        let chip = r.into_chip();
        let mut r2 = recover_store(chip, kind, opts).unwrap();
        for pid in 0..PAGES {
            r2.read_page(pid, &mut out).unwrap();
            assert_eq!(
                out, pages_now[pid as usize],
                "budget {budget}: second recovery diverged on page {pid}"
            );
        }
    }
}

/// The commit-record sweep replayed through **epoch records** (codec v3
/// kind 0x03): transactions are staged in batches of three and proven by
/// one epoch record covering the batch's txn-id range instead of three
/// per-txn records. The verdict at every crash point must agree with
/// what per-txn records certify — a committed prefix of the script —
/// and, because one epoch record lands atomically, the prefix must
/// additionally sit on a batch boundary: an epoch commits all of its
/// batch or none of it.
#[test]
fn exhaustive_crash_sweep_epoch_commits() {
    const BATCH: usize = 3;
    let kind = MethodKind::Pdl { max_diff_size: 64 };
    let mut opts = StoreOptions::new(PAGES);
    // A batch stages ~3x the pages of one transaction before its epoch
    // record lands, so the reserve is a notch smaller than the per-txn
    // sweep's: enough pressure to garbage-collect inside batches without
    // starving a whole batch's reservation.
    opts.reserve_blocks = 8;
    let txns = txn_script(12);
    let batches = txns.len().div_ceil(BATCH);

    let build = || build_store(FlashChip::new(FlashConfig::tiny()), kind, opts).unwrap();
    let load = |store: &mut dyn PageStore| -> Vec<Vec<u8>> {
        let size = store.logical_page_size();
        let initial: Vec<Vec<u8>> = (0..PAGES).map(|p| vec![p as u8; size]).collect();
        for pid in 0..PAGES {
            store.write_page(pid, &initial[pid as usize]).unwrap();
        }
        store.flush().unwrap();
        initial
    };

    let mut store = build();
    let size = store.logical_page_size();
    let mut states: Vec<Vec<Vec<u8>>> = vec![load(store.as_mut())];
    for txn_pages in &txns {
        let mut next = states.last().unwrap().clone();
        for (pid, fill, whole) in txn_pages {
            apply_op(&mut next[*pid as usize], *fill, *whole);
        }
        states.push(next);
    }

    // One *batch* in one `commit_batch`: every member's pages, proven
    // together by a single epoch record.
    let run_batch = |store: &mut dyn PageStore,
                     states: &[Vec<Vec<u8>>],
                     b: usize|
     -> pdl_core::Result<()> {
        let lo = b * BATCH;
        let hi = (lo + BATCH).min(txns.len());
        let pages = (lo..hi).flat_map(|k| {
            let after = &states[k + 1];
            txns[k].iter().map(move |(pid, _, _)| (*pid, &after[*pid as usize][..], k as u64 + 1))
        });
        Ok(store.commit_batch(&CommitBatch { pages: pages.collect(), roots: None })?)
    };

    // Dry run: count destructive ops, prove GC ran inside the batches,
    // and prove the proofs really were epoch records, not a per-txn
    // fallback.
    let mut store = build();
    load(store.as_mut());
    let before = store.stats();
    for b in 0..batches {
        run_batch(store.as_mut(), &states, b).unwrap();
    }
    let delta = store.stats().delta_since(&before);
    assert!(delta.gc.total_ops() > 0, "the epoch workload must garbage-collect ({delta:?})");
    let epochs =
        store.counters().iter().find(|(k, _)| *k == "epoch_commits").map(|(_, v)| *v).unwrap_or(0);
    assert!(epochs >= batches as u64, "every batch must have landed an epoch record");
    let destructive = delta.total().writes + delta.total().erases;

    for budget in 0..=destructive {
        let mut store = build();
        load(store.as_mut());
        store.chip_mut().arm_fault(budget);
        for b in 0..batches {
            match run_batch(store.as_mut(), &states, b) {
                Ok(()) => {}
                Err(e) => {
                    assert!(is_power_loss(&e), "budget {budget}: unexpected error: {e}");
                    break;
                }
            }
        }
        let mut chip = store.into_chip();
        chip.disarm_fault();
        let mut r = recover_store(chip, kind, opts).unwrap();
        let mut out = vec![0u8; size];
        let mut pages_now: Vec<Vec<u8>> = Vec::with_capacity(PAGES as usize);
        for pid in 0..PAGES {
            r.read_page(pid, &mut out).unwrap();
            pages_now.push(out.clone());
        }
        // Same verdict space as per-txn records: some committed prefix...
        let matched = states.iter().position(|s| s == &pages_now);
        assert!(
            matched.is_some(),
            "budget {budget}: recovered state matches no committed prefix — a torn transaction"
        );
        // ...and epoch atomicity on top: the prefix ends on a batch
        // boundary (an epoch record never commits part of its batch).
        let k = matched.unwrap();
        assert!(
            k % BATCH == 0 || k == txns.len(),
            "budget {budget}: prefix of {k} txns splits an epoch batch"
        );
        // A second crash + recovery must agree.
        let chip = r.into_chip();
        let mut r2 = recover_store(chip, kind, opts).unwrap();
        for pid in 0..PAGES {
            r2.read_page(pid, &mut out).unwrap();
            assert_eq!(
                out, pages_now[pid as usize],
                "budget {budget}: second recovery diverged on page {pid}"
            );
        }
    }
}

// ----------------------------------------------------------------------
// pdl-txn: proof carry-forward crash points
// ----------------------------------------------------------------------

/// How the carry sweep drives one PDL engine.
struct CarryRig<S> {
    opts: StoreOptions,
    build: fn(StoreOptions) -> S,
    chips: usize,
    /// Arm chip `c`'s power failure after `budget` destructive ops.
    arm: fn(&mut S, usize, u64),
    /// Destructive operations (programs, marks, erases) per chip so far.
    destructive: fn(&S) -> Vec<u64>,
    /// Power off, disarm, recover.
    reboot: fn(S, StoreOptions) -> S,
    check: fn(&S) -> Result<(), String>,
    /// Take a checkpoint before this transaction (index into the script).
    checkpoint_before: Option<usize>,
}

const CARRY_PAGES: u64 = 12;

/// A commit-per-update script: every transaction rewrites one page whole
/// (Case 3 — its tag sits on a base page and lives until that page is
/// rewritten again, so proofs live long) and every other one also patches
/// a page of the other parity (a tagged differential, and a second shard
/// when there are two).
fn carry_script(count: usize) -> Vec<Vec<(u64, u8, bool)>> {
    let mut x = 0x0CA2_21E5u64;
    (0..count)
        .map(|i| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pid = (x >> 33) % CARRY_PAGES;
            let mut pages = vec![(pid, (x >> 17) as u8, true)];
            if i % 2 == 1 {
                pages.push(((pid + 1 + 2 * ((x >> 40) % 3)) % CARRY_PAGES, (x >> 9) as u8, false));
            }
            pages
        })
        .collect()
}

/// Power fails at every destructive-op index of every chip while commit
/// proofs are being carried forward; each time the recovered state must
/// be a committed prefix of the script (a lost proof would surface as
/// recovery's "live tag without a commit record"), the recovered tables
/// must be consistent, and a second recovery must change nothing.
fn carry_sweep<S: PageStore>(rig: CarryRig<S>) {
    let txns = carry_script(26);
    let load = |store: &mut S| -> Vec<Vec<u8>> {
        let size = store.logical_page_size();
        let initial: Vec<Vec<u8>> = (0..CARRY_PAGES).map(|p| vec![p as u8; size]).collect();
        for pid in 0..CARRY_PAGES {
            store.write_page(pid, &initial[pid as usize]).unwrap();
        }
        store.flush().unwrap();
        initial
    };
    let mut store = (rig.build)(rig.opts);
    let mut states: Vec<Vec<Vec<u8>>> = vec![load(&mut store)];
    for txn_pages in &txns {
        let mut next = states.last().unwrap().clone();
        for (pid, fill, whole) in txn_pages {
            apply_op(&mut next[*pid as usize], *fill, *whole);
        }
        states.push(next);
    }
    // The script up to the first power loss (`Ok(())`: it ran through).
    let run = |store: &mut S| -> pdl_core::Result<()> {
        for (k, txn_pages) in txns.iter().enumerate() {
            if rig.checkpoint_before == Some(k) {
                store.checkpoint()?;
            }
            let txn = k as u64 + 1;
            let pages =
                txn_pages.iter().map(|(pid, _, _)| (*pid, &states[k + 1][*pid as usize][..], txn));
            store.commit_batch(&CommitBatch { pages: pages.collect(), roots: None })?;
        }
        Ok(())
    };

    // Dry run: count each chip's destructive operations, and prove the
    // script garbage-collects and carries proofs for generations.
    let before = (rig.destructive)(&store);
    run(&mut store).unwrap();
    (rig.check)(&store).unwrap();
    let destructive: Vec<u64> =
        (rig.destructive)(&store).iter().zip(&before).map(|(a, b)| a - b).collect();
    let counter =
        |name: &str| store.counters().iter().find(|(k, _)| *k == name).map(|(_, v)| *v).unwrap();
    assert!(counter("gc_runs") > 0, "the carry workload must garbage-collect");
    assert!(
        counter("proofs_carried") >= 3 * counter("txn_commits"),
        "proofs must be carried for at least three generations ({} carried, {} commits)",
        counter("proofs_carried"),
        counter("txn_commits")
    );
    assert!(counter("proof_pages_released") >= 3);

    let read_all = |store: &mut S| -> Vec<Vec<u8>> {
        let mut out = vec![0u8; store.logical_page_size()];
        (0..CARRY_PAGES)
            .map(|pid| {
                store.read_page(pid, &mut out).unwrap();
                out.clone()
            })
            .collect()
    };
    for chip in 0..rig.chips {
        for budget in 0..=destructive[chip] {
            let at = format!("chip {chip} budget {budget}");
            let mut store = (rig.build)(rig.opts);
            load(&mut store);
            (rig.arm)(&mut store, chip, budget);
            if let Err(e) = run(&mut store) {
                assert!(is_power_loss(&e), "{at}: unexpected error: {e}");
            }
            let mut r = (rig.reboot)(store, rig.opts);
            (rig.check)(&r).unwrap_or_else(|e| panic!("{at}: {e}"));
            let pages_now = read_all(&mut r);
            assert!(
                states.contains(&pages_now),
                "{at}: recovered state matches no committed prefix — a torn transaction"
            );
            let mut r2 = (rig.reboot)(r, rig.opts);
            (rig.check)(&r2).unwrap_or_else(|e| panic!("{at}, second recovery: {e}"));
            assert_eq!(read_all(&mut r2), pages_now, "{at}: second recovery diverged");
        }
    }
}

/// `reserve_blocks`: large enough that the script garbage-collects
/// inside its commit batches.
fn carry_opts(reserve_blocks: u32) -> StoreOptions {
    let mut opts = StoreOptions::new(CARRY_PAGES);
    opts.reserve_blocks = reserve_blocks;
    opts
}

fn one_chip_rig(opts: StoreOptions) -> CarryRig<Pdl> {
    CarryRig {
        opts,
        build: |opts| Pdl::new(FlashChip::new(FlashConfig::tiny()), opts, 64).unwrap(),
        chips: 1,
        arm: |store, _, budget| store.chip_mut().arm_fault(budget),
        destructive: |store| {
            let total = store.stats().total();
            vec![total.writes + total.erases]
        },
        reboot: |store, opts| {
            let mut chip = Box::new(store).into_chip();
            chip.disarm_fault();
            Pdl::recover(chip, opts, 64).unwrap()
        },
        check: Pdl::check_tables,
        checkpoint_before: None,
    }
}

#[test]
fn exhaustive_crash_sweep_proof_carry() {
    carry_sweep(one_chip_rig(carry_opts(10)));
}

/// Across a checkpoint: the proofs it records are carried forward
/// afterwards, so the delta scan meets checkpointed locations that are
/// already obsolete inside blocks whose fingerprints never changed.
#[test]
fn exhaustive_crash_sweep_proof_carry_across_a_checkpoint() {
    let rig = one_chip_rig(carry_opts(10).with_checkpoint_blocks(2));
    carry_sweep(CarryRig { checkpoint_before: Some(9), ..rig });
}

/// Two shards through `ShardedStore::commit_batch_shared`, power failing
/// on either chip.
#[test]
fn exhaustive_crash_sweep_proof_carry_two_shards() {
    const KIND: MethodKind = MethodKind::Pdl { max_diff_size: 64 };
    carry_sweep(CarryRig {
        // Each chip holds half the pages: a larger reserve keeps it
        // garbage-collecting within the script.
        opts: carry_opts(12),
        build: |opts| ShardedStore::with_uniform_chips(FlashConfig::tiny(), 2, KIND, opts).unwrap(),
        chips: 2,
        arm: |store, chip, budget| store.with_shard(chip, |st| st.chip_mut().arm_fault(budget)),
        destructive: |store| {
            let per_chip = store.per_shard_stats().into_iter();
            per_chip.map(|st| st.total().writes + st.total().erases).collect()
        },
        reboot: |store, opts| {
            let mut chips = store.into_shard_chips();
            chips.iter_mut().for_each(FlashChip::disarm_fault);
            ShardedStore::recover(chips, KIND, opts).unwrap()
        },
        check: ShardedStore::check_tables,
        checkpoint_before: None,
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// PDL with checkpoints: arbitrary checkpoint placement within the
    /// workload never changes what recovery returns (checkpoints are an
    /// optimisation, not a semantic change).
    #[test]
    fn checkpoints_do_not_change_recovery_semantics(
        writes in proptest::collection::vec((0u64..PAGES, any::<u8>()), 2..25),
        ckpt_at in 0usize..25,
    ) {
        let opts = StoreOptions::new(PAGES).with_checkpoint_blocks(2);
        let chip = FlashChip::new(FlashConfig::tiny());
        let mut store = pdl_core::Pdl::new(chip, opts, 64).unwrap();
        let size = store.logical_page_size();
        let mut truth: Vec<Vec<u8>> = (0..PAGES).map(|_| vec![0u8; size]).collect();
        for pid in 0..PAGES {
            store.write_page(pid, &truth[pid as usize]).unwrap();
        }
        for (i, (pid, fill)) in writes.iter().enumerate() {
            truth[*pid as usize].fill(*fill);
            let p = truth[*pid as usize].clone();
            store.write_page(*pid, &p).unwrap();
            if i == ckpt_at.min(writes.len() - 1) {
                store.checkpoint().unwrap();
            }
        }
        store.flush().unwrap();
        let chip = Box::new(store).into_chip();
        let mut r = pdl_core::Pdl::recover(chip, opts, 64).unwrap();
        let mut out = vec![0u8; size];
        for pid in 0..PAGES as usize {
            r.read_page(pid as u64, &mut out).unwrap();
            prop_assert_eq!(&out, &truth[pid], "page {}", pid);
        }
    }
}
