//! Crash testing in three tiers:
//!
//! * an **exhaustive crash-point sweep**: a fixed, GC-heavy workload runs
//!   once with a [`PowerLossJournal`] on its chip, and recovery is checked
//!   on every crash image the journal hands back — the chip as a power
//!   loss before each destructive flash operation (program, obsolete
//!   mark, erase) would leave it, and after the last. Every index is
//!   covered, so crashes *inside* garbage collection — mid-migration,
//!   between a relocation and the victim's erase, between erase and
//!   mapping update — are all exercised deterministically, for each
//!   method and for the GC policies that change data placement
//!   (hot/cold runs two active blocks during migration);
//! * the same sweep over transactional workloads — per-transaction
//!   commit records, epoch records, and commit proofs carried forward for
//!   generations, on one chip, across a checkpoint and on two shards. Two
//!   shards are swept under both power models: the whole device failing
//!   at once (one journal over both chips) and one chip failing while the
//!   other carries on ([`FlashChip::arm_fault`], one re-run per point);
//! * a property test over arbitrary checkpoint placement (checkpoints
//!   must never change recovery semantics).
//!
//! After recovery, every page must read back as a state the workload
//! could legally have produced (the flushed state, or a committed
//! post-flush update), and a second crash+recovery must agree. PDL's
//! recovery must also leave flash alone on every image: no erase, and no
//! program but the obsolete marks of torn pages. One test keeps the
//! journal honest: its images equal `arm_fault`'s, point for point.

use pdl_core::diff::{Differential, PageRecord};
use pdl_core::{
    build_store, is_power_loss, recover_store, BatchPage, CommitBatch, GcPolicy, MethodKind,
    PageStore, Pdl, ShardedStore, StoreOptions,
};
use pdl_flash::{
    FlashChip, FlashConfig, FlashGeometry, OpCounts, PageKind, PowerLossJournal, Ppn, SpareInfo,
};
use proptest::prelude::*;
use std::collections::HashSet;

const PAGES: u64 = 24;
const PDL: MethodKind = MethodKind::Pdl { max_diff_size: 64 };

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

/// Every page of the store, in pid order.
fn read_all<S: PageStore + ?Sized>(store: &mut S) -> Vec<Vec<u8>> {
    let mut out = vec![0u8; store.logical_page_size()];
    (0..store.options().num_logical_pages)
        .map(|pid| {
            store.read_page(pid, &mut out).unwrap();
            out.clone()
        })
        .collect()
}

/// A journal attached to the store's one chip.
fn journal_on(store: &mut dyn PageStore) -> PowerLossJournal {
    let journal = PowerLossJournal::new();
    store.chip_mut().attach_journal(&journal);
    journal
}

struct SweepSetup {
    kind: MethodKind,
    opts: StoreOptions,
    config: FlashConfig,
}

impl SweepSetup {
    fn new(kind: MethodKind, policy: GcPolicy, config: FlashConfig) -> SweepSetup {
        let mut opts = StoreOptions::new(PAGES).with_gc_policy(policy);
        // A large GC reserve shrinks the normally-allocatable space, so the
        // out-place methods hit reclamation within a short script instead
        // of needing thousands of operations to fill the chip.
        opts.reserve_blocks = 10;
        SweepSetup { kind, opts, config }
    }

    /// A store after phase 1 (load + pre-crash updates + flush), and the
    /// flushed page states.
    fn phase1(&self) -> (Box<dyn PageStore>, Vec<Vec<u8>>) {
        let mut store = build_store(FlashChip::new(self.config), self.kind, self.opts).unwrap();
        let size = store.logical_page_size();
        let mut flushed: Vec<Vec<u8>> = (0..PAGES).map(|_| vec![0u8; size]).collect();
        for pid in 0..PAGES {
            store.write_page(pid, &flushed[pid as usize]).unwrap();
        }
        for (pid, fill, whole) in script(20, 0x51EE7) {
            apply_op(&mut flushed[pid as usize], fill, whole);
            store.write_page(pid, &flushed[pid as usize]).unwrap();
        }
        store.flush().unwrap();
        (store, flushed)
    }

    /// The post-flush writes, `(pid, page)` in order. IPL turns a
    /// whole-page rewrite into dozens of log-sector programs, so a shorter
    /// script already exercises several merges (its GC).
    fn post_flush(&self, flushed: &[Vec<u8>]) -> Vec<(u64, Vec<u8>)> {
        let len = if matches!(self.kind, MethodKind::Ipl { .. }) { 24 } else { 45 };
        let mut pages = flushed.to_vec();
        let writes = script(len, 0xCAFE).into_iter().map(|(pid, fill, whole)| {
            apply_op(&mut pages[pid as usize], fill, whole);
            (pid, pages[pid as usize].clone())
        });
        writes.collect()
    }
}

/// The exhaustive sweep for one method/policy configuration.
fn sweep(kind: MethodKind, policy: GcPolicy) {
    let config = FlashConfig::tiny();
    let setup = SweepSetup::new(kind, policy, config);
    let (mut store, flushed) = setup.phase1();
    let writes = setup.post_flush(&flushed);
    let journal = journal_on(store.as_mut());
    let before = store.stats();
    // The journal position each write began at: a crash at image `g` may
    // or may not have landed any write that began at or before `g`.
    let mut began = Vec::new();
    for (pid, page) in &writes {
        began.push(journal.position());
        store.write_page(*pid, page).unwrap();
    }
    let delta = store.stats().delta_since(&before);
    assert!(
        delta.gc.total_ops() > 0,
        "{}: the fixed workload must garbage-collect post-flush (got {delta:?})",
        store.name()
    );
    assert_eq!(journal.position(), delta.total().writes + delta.total().erases);

    let ipl = matches!(kind, MethodKind::Ipl { .. });
    for (g, chips) in journal.images().enumerate() {
        let mut r: Box<dyn PageStore> = if kind == PDL {
            let rig = one_chip_rig(config, setup.opts);
            Box::new(recover_checked(&rig, chips, &format!("image {g}")))
        } else {
            recover_store(chips.into_iter().next().unwrap(), kind, setup.opts).unwrap()
        };
        let first_states = read_all(r.as_mut());
        for (pid, out) in first_states.iter().enumerate() {
            let history: Vec<&Vec<u8>> = (writes.iter().zip(&began))
                .filter(|((p, _), &at)| *p == pid as u64 && at <= g as u64)
                .map(|((_, page), _)| page)
                .collect();
            // Untouched pages must equal the flushed state; touched ones
            // the flushed state or any state of the post-flush history
            // (out-place writes are page-atomic). IPL is exempt from
            // byte-exactness: its update logs are sector-granular, so a
            // whole-page update interrupted mid-flush legally recovers as
            // a mixture — the paper's §4.5 defers transactional atomicity
            // to the DBMS above.
            let legal = *out == flushed[pid] || history.contains(&out);
            assert!(
                legal || ipl && !history.is_empty(),
                "{} image {g}: page {pid} is torn",
                r.name()
            );
        }
        // Idempotence: a second crash+recovery yields the same states.
        let mut r2 = recover_store(r.into_chip(), kind, setup.opts).unwrap();
        assert_eq!(read_all(r2.as_mut()), first_states, "image {g}: second recovery diverged");
    }
}

#[test]
fn exhaustive_crash_sweep_opu() {
    sweep(MethodKind::Opu, GcPolicy::Greedy);
}

#[test]
fn exhaustive_crash_sweep_opu_wear_aware() {
    sweep(MethodKind::Opu, GcPolicy::WearAware);
}

#[test]
fn exhaustive_crash_sweep_pdl() {
    sweep(PDL, GcPolicy::Greedy);
}

#[test]
fn exhaustive_crash_sweep_pdl_wear_aware() {
    sweep(PDL, GcPolicy::WearAware);
}

#[test]
fn exhaustive_crash_sweep_ipl() {
    sweep(MethodKind::Ipl { log_bytes_per_block: 512 }, GcPolicy::Greedy);
}

// ----------------------------------------------------------------------
// pdl-txn: commit records, epoch records, proof carry-forward
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

const CARRY_PAGES: u64 = 24;

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

/// Transactions of one to three pages each, `batch` to a commit batch,
/// the members of one batch writing disjoint pages (as `Database`
/// batches do: a dirty page has one owner).
fn batched_script(count: usize, batch: usize, seed: u64) -> Vec<Vec<(u64, u8, bool)>> {
    let mut x = seed;
    let mut next = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x
    };
    let mut txns = Vec::with_capacity(count);
    while txns.len() < count {
        let mut taken = HashSet::new();
        for _ in 0..batch.min(count - txns.len()) {
            let n = 1 + (next() >> 40) % 3;
            let mut pages = Vec::new();
            while pages.len() < n as usize {
                let r = next();
                let pid = (r >> 33) % PAGES;
                if taken.insert(pid) {
                    pages.push((pid, (r >> 17) as u8, (r >> 13).is_multiple_of(4)));
                }
            }
            txns.push(pages);
        }
    }
    txns
}

/// A transactional workload: `txns` committed `batch` at a time, each
/// `commit_batch` proven by one record (an epoch record when `batch` >
/// 1). Transaction `k` is txn id `first_id + k`.
struct Commits {
    txns: Vec<Vec<(u64, u8, bool)>>,
    batch: usize,
    first_id: u64,
    /// Take a checkpoint before this transaction.
    checkpoint_before: Option<usize>,
}

impl Commits {
    fn new(txns: Vec<Vec<(u64, u8, bool)>>, batch: usize) -> Commits {
        Commits { txns, batch, first_id: 1, checkpoint_before: None }
    }

    /// Write page `p` filled with `p`, flush, and return the page states
    /// after each committed prefix of the script.
    fn load<S: PageStore + ?Sized>(&self, store: &mut S) -> Vec<Vec<Vec<u8>>> {
        let size = store.logical_page_size();
        let pages = store.options().num_logical_pages;
        let initial: Vec<Vec<u8>> = (0..pages).map(|p| vec![p as u8; size]).collect();
        for pid in 0..pages {
            store.write_page(pid, &initial[pid as usize]).unwrap();
        }
        store.flush().unwrap();
        self.states(initial)
    }

    /// The page states after each committed prefix of the script, from
    /// `initial` on.
    fn states(&self, initial: Vec<Vec<u8>>) -> Vec<Vec<Vec<u8>>> {
        let mut states = vec![initial];
        for txn_pages in &self.txns {
            let mut next = states.last().unwrap().clone();
            for (pid, fill, whole) in txn_pages {
                apply_op(&mut next[*pid as usize], *fill, *whole);
            }
            states.push(next);
        }
        states
    }

    /// The script up to the first error; `returned(n)` after each commit
    /// that returned, `n` transactions committed so far.
    fn run<S: PageStore + ?Sized>(
        &self,
        store: &mut S,
        states: &[Vec<Vec<u8>>],
        mut returned: impl FnMut(usize),
    ) -> pdl_core::Result<()> {
        for (b, members) in self.txns.chunks(self.batch).enumerate() {
            let lo = b * self.batch;
            if self.checkpoint_before == Some(lo) {
                store.checkpoint()?;
            }
            let pages = members.iter().zip(lo..).flat_map(|(txn_pages, k)| {
                let after = &states[k + 1];
                txn_pages.iter().map(move |(pid, _, _)| {
                    BatchPage::new(*pid, &after[*pid as usize], self.first_id + k as u64)
                })
            });
            store.commit_batch(&CommitBatch { pages: pages.collect(), roots: None })?;
            returned(lo + members.len());
        }
        Ok(())
    }
}

/// A callback handed each chip of a store with its shard index.
type ChipFn<'a> = &'a mut dyn FnMut(usize, &mut FlashChip);

/// How a commit sweep drives one PDL engine.
struct Rig<S> {
    config: FlashConfig,
    opts: StoreOptions,
    build: fn(FlashConfig, StoreOptions) -> S,
    /// Hand every chip of the store, in shard order, to the callback.
    each_chip: fn(&mut S, ChipFn),
    recover: fn(Vec<FlashChip>, StoreOptions) -> S,
    check: fn(&S) -> Result<(), String>,
    digest: fn(&S) -> u64,
}

fn one_chip_rig(config: FlashConfig, opts: StoreOptions) -> Rig<Pdl> {
    Rig {
        config,
        opts,
        build: |config, opts| Pdl::new(FlashChip::new(config), opts, 64).unwrap(),
        each_chip: |store, f| f(0, store.chip_mut()),
        recover: |mut chips, opts| Pdl::recover(chips.pop().unwrap(), opts, 64).unwrap(),
        check: Pdl::check_tables,
        digest: Pdl::tables_digest,
    }
}

/// Two shards through `ShardedStore::commit_batch`.
fn two_shard_rig(config: FlashConfig, opts: StoreOptions) -> Rig<ShardedStore> {
    Rig {
        config,
        opts,
        build: |config, opts| ShardedStore::with_uniform_chips(config, 2, PDL, opts).unwrap(),
        each_chip: |store, f| (0..2).for_each(|s| f(s, store.shard_mut(s).chip_mut())),
        recover: |chips, opts| ShardedStore::recover(chips, PDL, opts).unwrap(),
        check: ShardedStore::check_tables,
        digest: ShardedStore::tables_digest,
    }
}

/// The records of every differential page on `chip` not marked
/// obsolete.
fn diff_pages(chip: &FlashChip) -> impl Iterator<Item = Vec<PageRecord>> + '_ {
    (0..chip.num_pages()).map(Ppn).filter_map(|p| {
        let info = SpareInfo::decode(chip.peek_spare(p))?;
        if info.kind != PageKind::Diff || info.obsolete {
            return None;
        }
        Differential::parse_page(chip.peek_data(p)).ok()
    })
}

/// The transactions `recs` prove committed.
fn proven(recs: &[PageRecord]) -> HashSet<u64> {
    let mut ids = HashSet::new();
    for r in recs {
        match r {
            PageRecord::Epoch(e) => ids.extend(e.ids()),
            PageRecord::Diff(_) => {}
        }
    }
    ids
}

/// The transactions tagging a differential in `recs`.
fn tagged(recs: &[PageRecord]) -> impl Iterator<Item = u64> + '_ {
    recs.iter().filter_map(|r| match r {
        PageRecord::Diff(d) => Some(d.txn),
        _ => None,
    })
}

/// Recover the crash image `chips` and check what recovery wrote: no
/// erase, and no program unless a transaction is torn — then at most one
/// obsolete mark per page carrying a torn tag or commit proof. A second
/// recovery of the same image must rebuild the same tables with the same
/// reads.
///
/// Before that, the image itself: no page may hold a commit proof beside
/// a differential of a torn transaction. A record page that lands before
/// a transaction's last record must not carry its differentials — live
/// proofs would keep that page alive past the recovery that judged them
/// torn.
fn recover_checked<S: PageStore>(rig: &Rig<S>, chips: Vec<FlashChip>, at: &str) -> S {
    let (torn, torn_pages) = ShardedStore::torn_pages(&chips, &rig.opts).unwrap();
    for (c, chip) in chips.iter().enumerate() {
        for recs in diff_pages(chip) {
            let torn_tag = tagged(&recs).find(|t| torn.contains(t));
            assert!(
                torn_tag.is_none() || proven(&recs).is_empty(),
                "{at}: chip {c} holds a proof beside a differential of torn txn {torn_tag:?}"
            );
        }
    }
    let before = chips.iter().fold(OpCounts::default(), |sum, c| sum + c.stats().recovery);
    let twin = (rig.recover)(chips.clone(), rig.opts);
    let store = (rig.recover)(chips, rig.opts);
    let cost = store.stats().recovery - before;
    assert_eq!(cost.erases, 0, "{at}: recovery erased");
    if torn.is_empty() {
        assert_eq!(cost.writes, 0, "{at}: recovery programmed with nothing torn");
    } else {
        assert!(cost.writes <= torn_pages, "{at}: {} marks, {torn_pages} torn pages", cost.writes);
    }
    assert_eq!(
        ((rig.digest)(&twin), twin.stats().recovery.reads),
        ((rig.digest)(&store), store.stats().recovery.reads),
        "{at}: two recoveries of one image disagree"
    );
    store
}

/// Where the power fails.
#[derive(Clone, Copy)]
enum Power {
    /// On every chip at once, before each destructive op of the run.
    WholeDevice,
    /// On one chip at each of its destructive-op indices; the other chips
    /// carry on until the error surfaces.
    PerChip,
}

/// Power fails at every destructive-op index while `w` commits. Each time
/// the recovered state must be a committed prefix of the script that
/// keeps every transaction whose commit returned and ends on a batch
/// boundary (a record commits all of its batch or none of it), the
/// recovered tables must be consistent, and a second and a third
/// recovery, each of the one before, must change nothing. `dry_run`
/// checks that the fault-free run exercised what the sweep is for.
fn commit_sweep<S: PageStore>(rig: &Rig<S>, w: &Commits, power: Power, dry_run: impl FnOnce(&S)) {
    let mut store = (rig.build)(rig.config, rig.opts);
    let states = w.load(&mut store);
    let verify =
        |store: S, at: &str, confirmed: usize| verify_prefix(rig, w, &states, store, at, confirmed);
    let journal = PowerLossJournal::new();
    let mut destructive = Vec::new();
    (rig.each_chip)(&mut store, &mut |_, chip| {
        chip.attach_journal(&journal);
        destructive.push(chip.stats().total().writes + chip.stats().total().erases);
    });
    // (journal position, transactions committed) as each commit returned.
    let mut returned = vec![(0, 0)];
    w.run(&mut store, &states, |n| returned.push((journal.position(), n))).unwrap();
    (rig.check)(&store).unwrap();
    dry_run(&store);
    (rig.each_chip)(&mut store, &mut |c, chip| {
        destructive[c] = chip.stats().total().writes + chip.stats().total().erases - destructive[c];
    });

    match power {
        Power::WholeDevice => {
            for (g, chips) in journal.images().enumerate() {
                let confirmed = returned.iter().rev().find(|(at, _)| *at <= g as u64).unwrap().1;
                let at = format!("image {g}");
                verify(recover_checked(rig, chips, &at), &at, confirmed);
            }
        }
        Power::PerChip => {
            let points =
                destructive.iter().enumerate().flat_map(|(c, &n)| (0..=n).map(move |b| (c, b)));
            for (c, budget) in points {
                let at = format!("chip {c} budget {budget}");
                let mut store = (rig.build)(rig.config, rig.opts);
                w.load(&mut store);
                (rig.each_chip)(&mut store, &mut |i, chip| {
                    if i == c {
                        chip.arm_fault(budget)
                    }
                });
                let mut confirmed = 0;
                if let Err(e) = w.run(&mut store, &states, |n| confirmed = n) {
                    assert!(is_power_loss(&e), "{at}: unexpected error: {e}");
                }
                let mut chips = Box::new(store).into_chips();
                chips.iter_mut().for_each(FlashChip::disarm_fault);
                verify(recover_checked(rig, chips, &at), &at, confirmed);
            }
        }
    }
}

/// Check a store recovered while `w` ran: consistent tables, a committed
/// prefix of `states` that keeps every one of the `confirmed` commits and
/// ends on a batch boundary, and two more recoveries in a row that agree
/// with it.
fn verify_prefix<S: PageStore>(
    rig: &Rig<S>,
    w: &Commits,
    states: &[Vec<Vec<u8>>],
    mut store: S,
    at: &str,
    confirmed: usize,
) {
    (rig.check)(&store).unwrap_or_else(|e| panic!("{at}: {e}"));
    let pages_now = read_all(&mut store);
    let k = states.iter().position(|s| *s == pages_now).unwrap_or_else(|| {
        panic!("{at}: recovered state matches no committed prefix — a torn transaction")
    });
    assert!(k >= confirmed, "{at}: {k} transactions recovered, {confirmed} commits returned");
    assert!(k % w.batch == 0 || k == w.txns.len(), "{at}: prefix of {k} splits a batch");
    for nth in ["second", "third"] {
        store = (rig.recover)(Box::new(store).into_chips(), rig.opts);
        (rig.check)(&store).unwrap_or_else(|e| panic!("{at}, {nth} recovery: {e}"));
        assert_eq!(read_all(&mut store), pages_now, "{at}: {nth} recovery diverged");
    }
}

fn counter<S: PageStore>(store: &S, name: &str) -> u64 {
    store.counters().iter().find(|(k, _)| *k == name).map_or(0, |(_, v)| *v)
}

fn opts(pages: u64, reserve_blocks: u32) -> StoreOptions {
    let mut opts = StoreOptions::new(pages);
    opts.reserve_blocks = reserve_blocks;
    opts
}

/// The commit-record sweep: every transaction all-or-nothing, zero torn
/// commits, also when GC runs inside a commit batch.
#[test]
fn exhaustive_crash_sweep_txn_commits() {
    let w = Commits::new(txn_script(48), 1);
    let rig = one_chip_rig(FlashConfig::tiny(), opts(PAGES, 10));
    commit_sweep(&rig, &w, Power::WholeDevice, |store| {
        assert!(store.stats().gc.total_ops() > 0, "the txn workload must garbage-collect");
    });
}

/// The commit-record sweep through **epoch records** (codec v3 kind
/// 0x03): transactions are committed in batches of three, each proven by
/// one epoch record covering the batch's txn-id range. The verdict at
/// every crash point must still be a committed prefix, and, because one
/// epoch record lands atomically, a prefix on a batch boundary.
#[test]
fn exhaustive_crash_sweep_epoch_commits() {
    let w = Commits::new(txn_script(48), 3);
    // A batch stages ~3x the pages of one transaction before its epoch
    // record lands, so the reserve is a notch smaller than the per-txn
    // sweep's: enough pressure to garbage-collect inside batches without
    // starving a whole batch's reservation.
    let rig = one_chip_rig(FlashConfig::tiny(), opts(PAGES, 8));
    let batches = w.txns.len().div_ceil(w.batch) as u64;
    commit_sweep(&rig, &w, Power::WholeDevice, |store| {
        assert!(store.stats().gc.total_ops() > 0, "the epoch workload must garbage-collect");
        let epochs = counter(store, "epoch_commits");
        assert!(epochs >= batches, "every batch must have landed an epoch record ({epochs})");
    });
}

/// The commit-record sweep on two shards, a transaction per batch: most
/// transactions span both shards, and the one record goes to a shard
/// buffering their differentials, which ride the record page instead of a
/// stage flush of their own.
fn txn_sweep_two_shards(power: Power) {
    let w = Commits::new(txn_script(48), 1);
    let rig = two_shard_rig(FlashConfig::tiny(), opts(PAGES, 10));
    // Transaction `k` is id `k + 1`; it spans both shards when its pages
    // have both parities.
    let cross: HashSet<u64> = (1..)
        .zip(&w.txns)
        .filter(|(_, pages)| pages.iter().any(|p| p.0 % 2 == 1))
        .map(|(id, _)| id)
        .collect();
    commit_sweep(&rig, &w, power, |store| {
        assert!(store.stats().gc.total_ops() > 0, "the txn workload must garbage-collect");
        // The skipped stage flush shows on flash: a record page proving a
        // cross-shard transaction beside that transaction's differential.
        let mut skipped = 0;
        store.for_each_chip(&mut |chip| {
            for recs in diff_pages(chip) {
                let proof = proven(&recs);
                skipped += tagged(&recs).filter(|t| cross.contains(t) && proof.contains(t)).count();
            }
        });
        assert!(skipped > 0, "no cross-shard differential rode its record flush");
    });
}

#[test]
fn exhaustive_crash_sweep_txn_commits_two_shards() {
    txn_sweep_two_shards(Power::PerChip);
}

#[test]
fn exhaustive_crash_sweep_txn_commits_two_shards_whole_device() {
    txn_sweep_two_shards(Power::WholeDevice);
}

/// Group commit on two shards: four scripts, with batches of one to four
/// transactions writing disjoint pages. A batch's one record commits all
/// of it on both shards or none of it, at the first recovery and at every
/// later one.
fn batched_sweep_two_shards(power: Power) {
    let rig = two_shard_rig(FlashConfig::tiny(), opts(PAGES, 10));
    for (seed, batch) in [(0x5EED_0001u64, 1), (0x5EED_0002, 2), (0x5EED_0003, 3), (0x5EED_0004, 4)]
    {
        let w = Commits::new(batched_script(24, batch, seed), batch);
        commit_sweep(&rig, &w, power, |store| {
            // One record per batch proves each transaction once.
            assert_eq!(counter(store, "txn_commits"), w.txns.len() as u64);
            let cross = |pages: &Vec<(u64, u8, bool)>| pages.iter().any(|p| p.0 % 2 == 1);
            let spans = w.txns.chunks(batch).filter(|b| b.iter().any(cross)).count();
            assert!(spans > 0 && spans < w.txns.len(), "some batches on one shard, some on two");
        });
    }
}

#[test]
fn exhaustive_crash_sweep_batched_commits_two_shards() {
    batched_sweep_two_shards(Power::PerChip);
}

#[test]
fn exhaustive_crash_sweep_batched_commits_two_shards_whole_device() {
    batched_sweep_two_shards(Power::WholeDevice);
}

/// A torn cross-shard transaction whose tag recovery cannot mark (it
/// shares shard 1's stage page with a live differential) stays torn:
/// batches committed from the id floor up, then power failing anywhere in
/// them, must never prove it, and every id they use is above it.
#[test]
fn a_torn_cross_shard_id_is_never_revived() {
    const TORN: u64 = 50;
    let rig = two_shard_rig(FlashConfig::tiny(), opts(PAGES, 10));
    let mut store = (rig.build)(rig.config, rig.opts);
    let w = Commits::new(batched_script(24, 3, 0x7EA2), 3);
    let mut initial = w.load(&mut store).swap_remove(0);
    // Pid 3's change stays in shard 1's write buffer: live and untagged.
    initial[3][40..48].fill(0x33);
    store.write_page(3, &initial[3]).unwrap();
    // Txn 50 writes pids 0 and 4 (shard 0, which holds the record) and
    // pid 1; power fails on shard 0 before its record lands.
    let torn: Vec<(u64, Vec<u8>)> = [0u64, 4, 1]
        .into_iter()
        .map(|pid| {
            let mut page = initial[pid as usize].clone();
            page[8..12].fill(0xEE);
            (pid, page)
        })
        .collect();
    store.shard_mut(0).chip_mut().arm_fault(0);
    let pages = torn.iter().map(|(pid, page)| BatchPage::new(*pid, page, TORN)).collect();
    assert!(store.commit_batch(&CommitBatch { pages, roots: None }).is_err());
    let mut chips = store.into_shard_chips();
    chips.iter_mut().for_each(FlashChip::disarm_fault);
    let mut store = recover_checked(&rig, chips, "torn txn 50");
    assert_eq!(read_all(&mut store), initial, "txn 50 rolled back");
    assert_eq!(store.stats().recovery.writes, 0, "the shared stage page stays unmarked");

    let floor = store.txn_id_floor();
    assert!(floor > TORN, "id floor {floor}");
    let w = Commits { first_id: floor, ..w };
    let states = w.states(initial);
    let journal = PowerLossJournal::new();
    (0..2).for_each(|s| store.shard_mut(s).chip_mut().attach_journal(&journal));
    let mut returned = vec![(0, 0)];
    w.run(&mut store, &states, |n| returned.push((journal.position(), n))).unwrap();
    for (g, chips) in journal.images().enumerate() {
        let confirmed = returned.iter().rev().find(|(at, _)| *at <= g as u64).unwrap().1;
        let at = format!("image {g} after txn 50 tore");
        let recovered = recover_checked(&rig, chips, &at);
        let ids = recovered.txn_id_floor();
        assert!(ids >= floor + confirmed as u64, "{at}: id floor {ids}");
        verify_prefix(&rig, &w, &states, recovered, &at, confirmed);
    }
}

/// The carry sweeps' chip: the tiny geometry with 24 blocks, room for
/// 24 pages, a 12-block GC reserve and a 4-block checkpoint region.
fn carry_chip() -> FlashConfig {
    let geometry = FlashGeometry { num_blocks: 24, ..FlashGeometry::tiny() };
    FlashConfig { geometry, ..FlashConfig::tiny() }
}

/// Commit proofs carried forward for `generations` record flushes each,
/// on average: a lost proof would surface as recovery's "live tag without
/// a commit record". The reserve is large enough that the script
/// garbage-collects inside its commit batches.
fn carry_sweep<S: PageStore>(
    rig: fn(FlashConfig, StoreOptions) -> Rig<S>,
    opts: StoreOptions,
    checkpoint_before: Option<usize>,
    power: Power,
    generations: u64,
) {
    let rig = rig(carry_chip(), opts);
    let w = Commits { checkpoint_before, ..Commits::new(carry_script(104), 1) };
    commit_sweep(&rig, &w, power, |store| {
        assert!(counter(store, "gc_runs") >= 3, "the carry workload must garbage-collect");
        let (carried, commits) = (counter(store, "proofs_carried"), counter(store, "txn_commits"));
        assert!(
            carried >= generations * commits,
            "proofs must be carried for {generations} generations ({carried} carried, {commits} commits)"
        );
        assert!(counter(store, "proof_pages_released") >= 3);
    });
}

#[test]
fn exhaustive_crash_sweep_proof_carry() {
    carry_sweep(one_chip_rig, opts(CARRY_PAGES, 12), None, Power::WholeDevice, 10);
}

/// Across a checkpoint: the proofs it records are carried forward
/// afterwards, so the delta scan meets checkpointed locations that are
/// already obsolete inside blocks whose fingerprints never changed — and
/// differentials GC moved out of erased blocks since, whose old time
/// stamps must still outrank the base the checkpoint loaded.
#[test]
fn exhaustive_crash_sweep_proof_carry_across_a_checkpoint() {
    let opts = opts(CARRY_PAGES, 12).with_checkpoint_blocks(4);
    carry_sweep(one_chip_rig, opts, Some(36), Power::WholeDevice, 10);
}

/// Two shards, power failing on either chip. Only a batch's one record
/// carries proofs, so a shard carries them in fewer flushes than one chip
/// does: nine generations.
#[test]
fn exhaustive_crash_sweep_proof_carry_two_shards() {
    carry_sweep(two_shard_rig, opts(CARRY_PAGES, 12), None, Power::PerChip, 9);
}

/// Two shards, power failing on both chips at once.
#[test]
fn exhaustive_crash_sweep_proof_carry_two_shards_whole_device() {
    carry_sweep(two_shard_rig, opts(CARRY_PAGES, 12), None, Power::WholeDevice, 9);
}

/// The journal against the replay it replaces: for the PDL plain and
/// commit-record workloads, the chip a fault armed at `g` leaves equals
/// journal image `g`, for every `g`, and the
/// workload outlasts exactly as many budgets as the journal has images.
#[test]
fn journal_images_equal_arm_fault_replays() {
    type Work<'a> = &'a dyn Fn(&mut dyn PageStore) -> pdl_core::Result<()>;
    fn compare(prepare: &dyn Fn() -> Box<dyn PageStore>, work: Work, what: &str) {
        let mut store = prepare();
        let journal = journal_on(store.as_mut());
        work(store.as_mut()).unwrap();
        let images: Vec<u64> = journal.images().map(|c| c[0].image_fingerprint()).collect();
        for (g, image) in images.iter().enumerate() {
            let mut store = prepare();
            store.chip_mut().arm_fault(g as u64);
            let ran_through =
                work(store.as_mut()).inspect_err(|e| assert!(is_power_loss(e))).is_ok();
            assert_eq!(ran_through, g + 1 == images.len(), "{what}: budget {g}");
            assert_eq!(store.chip().image_fingerprint(), *image, "{what}: image {g}");
        }
    }
    let config = FlashConfig::tiny();
    let setup = SweepSetup::new(PDL, GcPolicy::Greedy, config);
    let writes = setup.post_flush(&setup.phase1().1);
    let plain: Work = &|store| writes.iter().try_for_each(|(p, page)| store.write_page(*p, page));
    compare(&|| setup.phase1().0, plain, "plain");

    let w = Commits::new(txn_script(48), 1);
    let build = || build_store(FlashChip::new(config), PDL, opts(PAGES, 10)).unwrap();
    let states = w.load(build().as_mut());
    let prepare = || {
        let mut store = build();
        w.load(store.as_mut());
        store
    };
    compare(&prepare, &|store| w.run(store, &states, |_| {}), "txn");
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
