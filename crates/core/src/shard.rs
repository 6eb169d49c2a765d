//! The sharded engine: [`ShardedStore`] partitions the logical page space
//! across N [`Pdl`] shards, each over its own [`FlashChip`].
//!
//! PDL's invariants are all *per logical page* (a write reflects only the
//! difference of one page; at most one page is programmed per reflection;
//! at most two pages are read to recreate one), so any partition of the
//! page space preserves them — the same argument made for
//! partition-parallel page-mapping FTLs and for partitioned recovery in
//! distributed in-memory databases.
//!
//! Pages are striped round-robin: page `p` lives on shard `p % N` as that
//! shard's local page `p / N`. The mapping is deterministic and
//! stateless, so crash recovery reconstructs it from `(total, N)` alone,
//! and both sequential and uniform-random workloads spread evenly.
//!
//! The store is a plain router: it owns its shards and reaches each one
//! through `&self`/`&mut self`. Concurrency lives one layer up, in
//! `pdl_storage::Database` (buffer hits that never take the store, group
//! commit). A commit batch runs [`commit_sequence`], the one place a
//! commit is sequenced; a single [`Pdl`] runs it as the one-shard case.
//! What the shards buy is overlap: a cross-shard batch issues each phase
//! on every involved shard before draining any, so the phase costs the
//! slowest shard's simulated flash time (the one shard that records does
//! so in a phase of its own, last), and recovery runs every shard's read
//! pass and replay on a thread of its own.

use crate::page_store::{
    note_txn, BatchPage, ChangeRange, CommitBatch, CommitError, MethodKind, PageStore, StoreOptions,
};
use crate::pdl::{read_census, recover_chips, torn_txns, Census, IdMap};
use crate::{error::CoreError, Pdl, Result};
use pdl_flash::{FlashChip, FlashStats};
use std::collections::HashSet;

/// Number of logical pages shard `s` owns when `total` pages are striped
/// across `n` shards.
pub fn shard_pages(total: u64, n: usize, s: usize) -> u64 {
    let (n, s) = (n as u64, s as u64);
    if s >= total {
        0
    } else {
        (total - s).div_ceil(n)
    }
}

/// `f` over each of `items` (one per shard), each on a thread of its own
/// when there are several.
pub(crate) fn each_on_a_thread<T: Send, R: Send>(
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    if items.len() < 2 {
        return items.into_iter().map(f).collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items.into_iter().map(|it| scope.spawn(move || f(it))).collect();
        handles.into_iter().map(|h| h.join().expect("shard thread panicked")).collect()
    })
}

/// Every shard's recovery read pass, each on a thread of its own, and the
/// verdict over all of them: a transaction is torn when some shard holds
/// a live tag of it and no shard proves it.
fn read_censuses(
    chips: &mut [FlashChip],
    opts: &StoreOptions,
) -> Result<(Vec<Census>, HashSet<u64>)> {
    let n = chips.len();
    let read = each_on_a_thread(chips.iter_mut().enumerate().collect(), |(s, chip)| {
        let pages = shard_pages(opts.num_logical_pages, n, s);
        read_census(chip, &StoreOptions { num_logical_pages: pages, ..*opts })
    });
    let censuses = read.into_iter().collect::<Result<Vec<_>>>()?;
    let torn = torn_txns(&censuses);
    Ok((censuses, torn))
}

/// The shard holding striped page `pid`, and its local page id there.
fn locate(shards: &[Pdl], pid: u64) -> Result<(usize, u64)> {
    let n = shards.len() as u64;
    let (s, local) = ((pid % n) as usize, pid / n);
    // `local < shard_pages(total, n, s)` exactly when `pid < total`.
    if local < shards[s].options().num_logical_pages {
        return Ok((s, local));
    }
    let num_pages = shards.iter().map(|p| p.options().num_logical_pages).sum();
    Err(CoreError::PageIdOutOfRange { pid, num_pages })
}

/// The error that hit a commit batch after it was opened, if one did.
fn failed(shards: &[Pdl]) -> Option<&CoreError> {
    shards.iter().find_map(|p| p.batch_failed.as_ref())
}

/// Stop every shard on `e`: the open batch stays open, and the first such
/// error is returned to every later batch and checkpoint.
fn fail(shards: &mut [Pdl], e: CoreError) -> CommitError {
    for p in shards.iter_mut() {
        p.batch_failed.get_or_insert_with(|| e.clone());
    }
    CommitError::Failed(e)
}

/// One phase of a commit batch as **submit-all / drain-all**: issue the
/// phase on every listed shard before waiting on any, then drain each
/// shard's command queue as the phase's completion barrier. Shards are
/// independent chips, so their simulated flash time overlaps — the phase
/// costs the *slowest* shard, not the sum. One chip orders itself: with a
/// single shard there is no barrier to issue.
fn fan_out(
    shards: &mut [Pdl],
    list: &[usize],
    phase: &dyn Fn(usize, &mut Pdl) -> Result<()>,
) -> Result<()> {
    for &s in list {
        phase(s, &mut shards[s])?;
    }
    if shards.len() > 1 {
        for &s in list {
            shards[s].chip_mut().drain();
        }
    }
    Ok(())
}

/// Every shard's checkpoint, then `settle`.
fn checkpoint(shards: &mut [Pdl]) -> Result<()> {
    if let Some(e) = failed(shards) {
        return Err(e.clone());
    }
    shards.iter_mut().try_for_each(Pdl::checkpoint)?;
    settle(shards)
}

/// Hand each transaction a shard released — its last tag there died, and
/// another shard proves it — to that shard, which then holds the proof
/// only for its remaining tag holders. Outside a commit batch only, so
/// the data that killed the tags is durable (committed) before a proof
/// can go; never once the store has failed, since the open batch may yet
/// be judged torn.
fn settle(shards: &mut [Pdl]) -> Result<()> {
    if failed(shards).is_some() {
        return Ok(());
    }
    for s in 0..shards.len() {
        for txn in shards[s].take_released() {
            let mut homes = shards.iter_mut().enumerate();
            let Some((_, home)) = homes.find(|(h, p)| *h != s && p.proves(txn)) else {
                return Err(CoreError::Corruption(format!(
                    "shard {s} released txn {txn}, which no shard proves"
                )));
            };
            home.release_foreign(txn)?;
        }
    }
    Ok(())
}

/// The commit sequence, over the shards striping the batch's pids: the
/// one place a commit is sequenced. [`Pdl`]'s `commit_batch` runs it over
/// one shard, where routing is the identity and no drain is issued, so
/// the batch's differentials and its record leave in one flush.
///
/// A shard is *involved* when it stages pages or (shard 0, which holds
/// the root log) the structure roots; no other shard is touched, and an
/// empty batch touches none. In order:
///
/// 1. route each page to its shard (an out-of-range pid rejects the
///    batch, nothing staged);
/// 2. fold a full root log into a checkpoint of every shard, so no
///    shard's batch straddles one;
/// 3. open every involved shard before any stages, so a shard that
///    cannot make room rejects the batch while nothing needs undoing;
/// 4. stage each shard's pages (tagged, invisible after a crash);
/// 5. stage-flush every buffering shard but the batch's *home*: the
///    first shard that buffers a differential of the batch (so those
///    differentials ride the record's page), else the first involved;
/// 6. stage the roots on shard 0;
/// 7. write one epoch record on the home, proving every transaction of
///    the batch, counting one presence per other shard holding a tag of
///    each;
/// 8. once that record is durable, mark those tags proven elsewhere;
/// 9. close every involved shard;
/// 10. settle the proofs other shards' tags died away from.
///
/// That record is the batch's one commit point. Recovery judges a
/// transaction torn when some shard carries a live tag of it and no shard
/// proves it, so every tag of the batch on another shard is programmed
/// before the record lands: a crash before it leaves no proof anywhere,
/// and the whole batch is torn on every shard, at this recovery and every
/// later one. Closing a shard destroys the pre-images a torn verdict
/// rolls back to, so no shard closes until the record is durable, and a
/// proof is released only after that (`settle`). An error once a shard
/// is open stops every shard (`fail`).
pub(crate) fn commit_sequence(
    shards: &mut [Pdl],
    batch: &CommitBatch<'_>,
) -> std::result::Result<(), CommitError> {
    if let Some(e) = failed(shards) {
        return Err(CommitError::Failed(e.clone()));
    }
    let n = shards.len();
    let mut pages: Vec<Vec<BatchPage>> = vec![Vec::new(); n];
    let mut txns: Vec<Vec<u64>> = vec![Vec::new(); n];
    for p in &batch.pages {
        let (s, local) = locate(shards, p.pid).map_err(CommitError::Rejected)?;
        pages[s].push(BatchPage { pid: local, ..*p });
        note_txn(&mut txns[s], p.txn);
    }
    if let Some((_, txn)) = batch.roots {
        // Shard 0 holds the root log: its record pins the roots'
        // transaction there like a tag.
        note_txn(&mut txns[0], txn);
    }
    let involved: Vec<usize> = (0..n).filter(|&s| !txns[s].is_empty()).collect();
    if involved.is_empty() {
        return Ok(());
    }
    let record = batch.roots.and_then(|(r, txn)| shards[0].root_record(r, txn));
    let record_len = record.as_ref().map(Vec::len);
    if record_len.is_some_and(|len| !shards[0].root_log_fits(len)) {
        checkpoint(shards).map_err(CommitError::Rejected)?;
    }
    for (i, &s) in involved.iter().enumerate() {
        let opened = shards[s].batch_open(pages[s].len() as u64, record_len.filter(|_| s == 0));
        if let Err(rejected) = opened {
            for &o in &involved[..i] {
                shards[o].batch_close().map_err(|e| fail(shards, e))?;
            }
            return Err(rejected);
        }
    }
    let mut staged = || {
        let staging: Vec<usize> =
            involved.iter().copied().filter(|&s| !pages[s].is_empty()).collect();
        fan_out(shards, &staging, &|s, st| {
            pages[s].iter().try_for_each(|p| st.stage_page(p.pid, p.image, p.txn, p.held))
        })?;
        let ids = batch.txns();
        let buffering: Vec<usize> =
            staging.into_iter().filter(|&s| shards[s].buffers_tag_of(&ids)).collect();
        let home = *buffering.first().unwrap_or(&involved[0]);
        let first: Vec<usize> = buffering.into_iter().filter(|&s| s != home).collect();
        fan_out(shards, &first, &|_, st| st.flush())?;
        if let (Some((r, txn)), Some(record)) = (batch.roots, &record) {
            shards[0].batch_stage_roots(r, txn, record)?;
        }
        let others: Vec<usize> = involved.iter().copied().filter(|&s| s != home).collect();
        let foreign: Vec<u64> =
            others.iter().flat_map(|&s| shards[s].tags_held(&txns[s])).collect();
        fan_out(shards, &[home], &|_, st| {
            st.batch_record(&ids, &foreign)?;
            st.flush()
        })?;
        for &s in &others {
            shards[s].batch_prove_remote(&txns[s]);
        }
        fan_out(shards, &involved, &|_, st| st.batch_close())?;
        settle(shards)
    };
    staged().map_err(|e| fail(shards, e))
}

/// A hash-partitioned (striped) page store over N PDL shards.
pub struct ShardedStore {
    shards: Vec<Pdl>,
    opts: StoreOptions,
}

impl ShardedStore {
    /// Build a sharded store of `chips.len()` PDL shards (`kind` must be
    /// [`MethodKind::Pdl`]): chip `i` backs shard `i`, holding every
    /// logical page `p` with `p % N == i`.
    ///
    /// All chips must share the same page data size, and there must be at
    /// least as many logical pages as shards (otherwise a shard would own
    /// an empty page range).
    pub fn new(
        chips: Vec<FlashChip>,
        kind: MethodKind,
        opts: StoreOptions,
    ) -> Result<ShardedStore> {
        Self::build(chips, kind, opts, false)
    }

    /// Rebuild a sharded store from chips that survived a crash. Each
    /// shard's read pass, and then each shard's replay, runs on a thread
    /// of its own.
    pub fn recover(
        chips: Vec<FlashChip>,
        kind: MethodKind,
        opts: StoreOptions,
    ) -> Result<ShardedStore> {
        Self::build(chips, kind, opts, true)
    }

    fn build(
        mut chips: Vec<FlashChip>,
        kind: MethodKind,
        opts: StoreOptions,
        recovering: bool,
    ) -> Result<ShardedStore> {
        let MethodKind::Pdl { max_diff_size } = kind else {
            return Err(CoreError::BadConfig(format!(
                "a sharded store runs PDL shards, not {}",
                kind.label()
            )));
        };
        let n = chips.len();
        if n == 0 {
            return Err(CoreError::BadConfig("a sharded store needs at least one chip".into()));
        }
        if (opts.num_logical_pages as u128) < n as u128 {
            return Err(CoreError::BadConfig(format!(
                "{} logical pages cannot stripe across {} shards",
                opts.num_logical_pages, n
            )));
        }
        let data_size = chips[0].geometry().data_size;
        if chips.iter().any(|c| c.geometry().data_size != data_size) {
            return Err(CoreError::BadConfig(
                "all shard chips must share the same page data size".into(),
            ));
        }

        let total = opts.num_logical_pages;
        let shard_opts =
            |s: usize| StoreOptions { num_logical_pages: shard_pages(total, n, s), ..opts };
        let shards = if recovering {
            // Recovery resolves torn transactions *globally*: a commit is
            // valid when any shard holds its record. So every shard's read
            // pass (checkpoint-aware: under a fresh checkpoint it reads
            // only the blocks changed since) runs first, the verdict comes
            // from all the censuses, and each shard then replays its own
            // census under it: every page is read once.
            let (censuses, torn) = read_censuses(&mut chips, &opts)?;
            let parts = chips.into_iter().zip(censuses).enumerate();
            let parts = parts.map(|(s, (chip, census))| (chip, shard_opts(s), census)).collect();
            recover_chips(parts, max_diff_size, &torn)?
        } else {
            let built =
                each_on_a_thread(chips.into_iter().enumerate().collect(), |(s, mut chip)| {
                    chip.set_obs_enabled(opts.obs);
                    Pdl::new(chip, shard_opts(s), max_diff_size)
                });
            built.into_iter().collect::<Result<Vec<_>>>()?
        };
        Ok(ShardedStore { shards, opts })
    }

    /// The torn-commit verdict recovery reaches on the crash image `chips`
    /// (shard order; one chip is a single store), read from clones so the
    /// image is untouched, and how many of its pages carry a tag or commit
    /// proof of a torn transaction: the most obsolete marks recovery may
    /// program on it.
    #[doc(hidden)]
    pub fn torn_pages(chips: &[FlashChip], opts: &StoreOptions) -> Result<(HashSet<u64>, u64)> {
        let (censuses, torn) = read_censuses(&mut chips.to_vec(), opts)?;
        let pages: usize = censuses.iter().map(|c| c.pages_carrying(&torn)).sum();
        Ok((torn, pages as u64))
    }

    /// Convenience: N identically-configured chips from one config.
    pub fn with_uniform_chips(
        config: pdl_flash::FlashConfig,
        num_shards: usize,
        kind: MethodKind,
        opts: StoreOptions,
    ) -> Result<ShardedStore> {
        let chips = (0..num_shards).map(|_| FlashChip::new(config)).collect();
        ShardedStore::new(chips, kind, opts)
    }

    /// The shard that owns logical page `pid`.
    pub fn shard_of(&self, pid: u64) -> usize {
        (pid % self.shards.len() as u64) as usize
    }

    /// Shard `s`'s store (its pids are shard-local).
    pub fn shard_mut(&mut self, s: usize) -> &mut Pdl {
        &mut self.shards[s]
    }

    /// Per-shard flash statistics, shard order.
    pub fn per_shard_stats(&self) -> Vec<FlashStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// [`Pdl::check_tables`] on every shard, and the tables across shards
    /// (tests call this between operations): a shard holding a tag of a
    /// transaction another shard proves finds exactly one shard holding
    /// that proof live, and the proving shard's presence is its own live
    /// tags plus one per shard holding such tags.
    #[doc(hidden)]
    pub fn check_tables(&self) -> std::result::Result<(), String> {
        let pdls = &self.shards;
        let mut foreign: Vec<IdMap<u32>> = vec![IdMap::default(); pdls.len()];
        for (s, p) in pdls.iter().enumerate() {
            for txn in p.remote_txns() {
                let mut homes = (0..pdls.len()).filter(|&h| pdls[h].proves(txn));
                let (Some(home), None) = (homes.next(), homes.next()) else {
                    return Err(format!("shard {s}: txn {txn} is proven on no shard or several"));
                };
                *foreign[home].entry(txn).or_insert(0) += 1;
            }
        }
        for (s, p) in pdls.iter().enumerate() {
            p.check_tables_with(&foreign[s]).map_err(|e| format!("shard {s}: {e}"))?;
        }
        Ok(())
    }

    /// [`Pdl::tables_digest`] over every shard, shard order, with the
    /// transactions each holds tags of and another shard proves.
    #[doc(hidden)]
    pub fn tables_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for p in &self.shards {
            p.tables_digest().hash(&mut h);
            let mut remote: Vec<u64> = p.remote_txns().collect();
            remote.sort_unstable();
            remote.hash(&mut h);
        }
        h.finish()
    }

    /// Tear down and return every shard's chip, shard order.
    pub fn into_shard_chips(self) -> Vec<FlashChip> {
        self.shards.into_iter().map(|p| Box::new(p).into_chip()).collect()
    }
}

impl PageStore for ShardedStore {
    fn options(&self) -> &StoreOptions {
        &self.opts
    }

    fn read_page(&mut self, pid: u64, out: &mut [u8]) -> Result<()> {
        let (s, local) = locate(&self.shards, pid)?;
        self.shards[s].read_page(local, out)?;
        settle(&mut self.shards)
    }

    fn apply_update(&mut self, pid: u64, page_after: &[u8], changes: &[ChangeRange]) -> Result<()> {
        let (s, local) = locate(&self.shards, pid)?;
        self.shards[s].apply_update(local, page_after, changes)
    }

    fn consumes_updates(&self) -> bool {
        false
    }

    fn evict_page(&mut self, pid: u64, page: &[u8]) -> Result<()> {
        self.evict_held(pid, page, None)
    }

    fn evict_held(&mut self, pid: u64, page: &[u8], held: Option<&[u8]>) -> Result<()> {
        let (s, local) = locate(&self.shards, pid)?;
        self.shards[s].evict_held(local, page, held)?;
        settle(&mut self.shards)
    }

    fn flush(&mut self) -> Result<()> {
        self.shards.iter_mut().try_for_each(|s| s.flush())?;
        settle(&mut self.shards)
    }

    fn prefetch(&mut self, pid: u64) -> Result<()> {
        let (s, local) = locate(&self.shards, pid)?;
        self.shards[s].prefetch(local)
    }

    /// `commit_sequence` over every shard.
    fn commit_batch(&mut self, batch: &CommitBatch<'_>) -> std::result::Result<(), CommitError> {
        commit_sequence(&mut self.shards, batch)
    }

    fn txn_id_floor(&self) -> u64 {
        self.shards.iter().map(|s| s.txn_id_floor()).max().unwrap_or(1)
    }

    fn struct_roots(&self) -> Option<crate::page_store::StructRootsSnapshot> {
        self.shards[0].struct_roots()
    }

    fn checkpoint(&mut self) -> Result<()> {
        checkpoint(&mut self.shards)
    }
    fn chip(&self) -> &FlashChip {
        panic!(
            "ShardedStore spans {} chips and has no single chip; \
             use for_each_chip()/stats()/shard_mut()",
            self.shards.len()
        );
    }

    fn for_each_chip(&self, f: &mut dyn FnMut(&FlashChip)) {
        for shard in &self.shards {
            f(shard.chip());
        }
    }

    fn chip_mut(&mut self) -> &mut FlashChip {
        panic!(
            "ShardedStore spans {} chips and has no single chip; \
             use reset_stats()/shard_mut()",
            self.shards.len()
        );
    }

    fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            shard.reset_stats();
        }
    }

    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn name(&self) -> String {
        format!("Sharded x{} [{}]", self.shards.len(), self.shards[0].name())
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        // Sum per-shard counters by key, preserving shard 0's key order.
        let mut keys: Vec<&'static str> = Vec::new();
        let mut sums: Vec<u64> = Vec::new();
        for shard in &self.shards {
            for (k, v) in shard.counters() {
                match keys.iter().position(|x| *x == k) {
                    Some(i) => sums[i] += v,
                    None => {
                        keys.push(k);
                        sums.push(v);
                    }
                }
            }
        }
        keys.into_iter().zip(sums).collect()
    }

    fn into_chips(self: Box<Self>) -> Vec<FlashChip> {
        self.into_shard_chips()
    }

    fn logical_page_size(&self) -> usize {
        self.shards[0].logical_page_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{Differential, PageRecord};
    use pdl_flash::{FlashConfig, PageKind, PowerLossJournal, Ppn, SpareInfo};

    fn sharded(n: usize, pages: u64) -> ShardedStore {
        ShardedStore::with_uniform_chips(
            FlashConfig::tiny(),
            n,
            MethodKind::Pdl { max_diff_size: 64 },
            StoreOptions::new(pages),
        )
        .unwrap()
    }

    #[test]
    fn shard_pages_partition_the_space() {
        for total in [1u64, 5, 16, 17, 100] {
            for n in 1..=4usize {
                if (total as usize) < n {
                    continue;
                }
                let sum: u64 = (0..n).map(|s| shard_pages(total, n, s)).sum();
                assert_eq!(sum, total, "total {total} over {n} shards");
            }
        }
        assert_eq!(shard_pages(10, 4, 0), 3); // pids 0, 4, 8
        assert_eq!(shard_pages(10, 4, 1), 3); // pids 1, 5, 9
        assert_eq!(shard_pages(10, 4, 2), 2); // pids 2, 6
        assert_eq!(shard_pages(10, 4, 3), 2); // pids 3, 7
    }

    #[test]
    fn striping_routes_and_round_trips() {
        let mut s = sharded(3, 12);
        assert_eq!(s.num_shards(), 3);
        assert_eq!(s.shard_of(7), 1);
        let size = s.logical_page_size();
        for pid in 0..12u64 {
            let page = vec![pid as u8 + 1; size];
            s.write_page(pid, &page).unwrap();
        }
        let mut out = vec![0u8; size];
        for pid in 0..12u64 {
            s.read_page(pid, &mut out).unwrap();
            assert_eq!(out, vec![pid as u8 + 1; size], "pid {pid}");
        }
        assert!(s.read_page(12, &mut out).is_err(), "out-of-range pid");
    }

    #[test]
    fn aggregates_span_all_shards() {
        let mut s = sharded(4, 16);
        let size = s.logical_page_size();
        for pid in 0..16u64 {
            s.write_page(pid, &vec![0xA5; size]).unwrap();
        }
        s.flush().unwrap();
        let stats = PageStore::stats(&s);
        assert!(stats.total().writes >= 16);
        let per: FlashStats =
            s.per_shard_stats().into_iter().fold(FlashStats::default(), |a, b| a + b);
        assert_eq!(stats, per, "aggregate stats are the sum of the shards'");
        let wear = PageStore::wear_summary(&s);
        assert_eq!(wear.num_blocks, 4 * FlashConfig::tiny().geometry.num_blocks);
        PageStore::reset_stats(&mut s);
        assert_eq!(PageStore::stats(&s).total().total_ops(), 0);
        let counters = PageStore::counters(&s);
        assert!(!counters.is_empty(), "PDL shards expose counters");
    }

    #[test]
    fn recover_restores_every_shard() {
        let mut s = sharded(4, 16);
        let size = s.logical_page_size();
        for pid in 0..16u64 {
            s.write_page(pid, &vec![pid as u8; size]).unwrap();
        }
        s.flush().unwrap();
        let chips = s.into_shard_chips();
        assert_eq!(chips.len(), 4);
        let mut back = ShardedStore::recover(
            chips,
            MethodKind::Pdl { max_diff_size: 64 },
            StoreOptions::new(16),
        )
        .unwrap();
        let mut out = vec![0u8; size];
        for pid in 0..16u64 {
            back.read_page(pid, &mut out).unwrap();
            assert_eq!(out, vec![pid as u8; size], "pid {pid}");
        }
    }

    #[test]
    fn single_shard_behaves_like_into_chip() {
        let mut s = sharded(1, 6);
        let size = s.logical_page_size();
        s.write_page(2, &vec![9u8; size]).unwrap();
        s.flush().unwrap();
        let boxed: Box<dyn PageStore> = Box::new(s);
        let chip = boxed.into_chip(); // n == 1: the default into_chip works
        let mut back =
            crate::recover_store(chip, MethodKind::Pdl { max_diff_size: 64 }, StoreOptions::new(6))
                .unwrap();
        let mut out = vec![0u8; size];
        back.read_page(2, &mut out).unwrap();
        assert_eq!(out, vec![9u8; size]);
    }

    #[test]
    fn rejects_bad_configurations() {
        let pdl = MethodKind::Pdl { max_diff_size: 64 };
        assert!(ShardedStore::new(Vec::new(), pdl, StoreOptions::new(4)).is_err());
        // More shards than pages.
        assert!(ShardedStore::with_uniform_chips(
            FlashConfig::tiny(),
            5,
            pdl,
            StoreOptions::new(4)
        )
        .is_err());
        // Every shard runs PDL.
        let chips = || vec![FlashChip::new(FlashConfig::tiny()); 2];
        let opts = StoreOptions::new(8);
        for kind in [MethodKind::Opu, MethodKind::Ipu, MethodKind::Ipl { log_bytes_per_block: 512 }]
        {
            let bad = |r: Result<ShardedStore>| matches!(r, Err(CoreError::BadConfig(_)));
            assert!(bad(ShardedStore::new(chips(), kind, opts)), "{}", kind.label());
            let uniform = ShardedStore::with_uniform_chips(FlashConfig::tiny(), 2, kind, opts);
            assert!(bad(uniform), "{}", kind.label());
            assert!(bad(ShardedStore::recover(chips(), kind, opts)), "{}", kind.label());
        }
    }

    /// A batch naming a pid past the store is rejected before any shard
    /// opens: nothing is programmed, and the store commits on afterwards.
    #[test]
    fn an_out_of_range_pid_rejects_the_batch_and_programs_nothing() {
        let one = Pdl::new(FlashChip::new(FlashConfig::tiny()), StoreOptions::new(8), 64).unwrap();
        let stores: [Box<dyn PageStore>; 2] = [Box::new(one), Box::new(sharded(2, 8))];
        for mut s in stores {
            let page = vec![0x11; s.logical_page_size()];
            for pid in 0..8 {
                s.write_page(pid, &page).unwrap();
            }
            s.flush().unwrap();
            let before = s.stats().total();
            let mut p = page.clone();
            p[3..7].fill(0xEE);
            let pages = vec![BatchPage::new(1, &p, 5), BatchPage::new(8, &p, 5)];
            let err = s.commit_batch(&CommitBatch { pages, roots: None }).unwrap_err();
            assert_eq!(
                err,
                CommitError::Rejected(CoreError::PageIdOutOfRange { pid: 8, num_pages: 8 }),
                "{}",
                s.name()
            );
            assert_eq!(s.stats().total(), before, "{}: nothing programmed or read", s.name());
            let pages = vec![BatchPage::new(1, &p, 6)];
            s.commit_batch(&CommitBatch { pages, roots: None }).unwrap();
            let mut out = vec![0u8; p.len()];
            s.read_page(1, &mut out).unwrap();
            assert_eq!(out, p, "{}", s.name());
        }
    }

    #[test]
    #[should_panic(expected = "no single chip")]
    fn chip_access_panics_on_multi_shard() {
        let s = sharded(2, 8);
        let _ = PageStore::chip(&s);
    }

    /// A two-shard store with every page written and flushed, a journal
    /// on both chips, and the image every page holds.
    fn journaled(pages: u64) -> (ShardedStore, PowerLossJournal, Vec<u8>) {
        let mut s = sharded(2, pages);
        let page = vec![0x11; s.logical_page_size()];
        for pid in 0..pages {
            s.write_page(pid, &page).unwrap();
        }
        s.flush().unwrap();
        let journal = PowerLossJournal::new();
        (0..2).for_each(|sh| s.shard_mut(sh).chip_mut().attach_journal(&journal));
        (s, journal, page)
    }

    /// Commit transaction `txn` writing each `(pid, image)`.
    fn commit(s: &mut ShardedStore, txn: u64, writes: &[(u64, &[u8])]) {
        let pages = writes.iter().map(|&(pid, image)| BatchPage::new(pid, image, txn)).collect();
        s.commit_batch(&CommitBatch { pages, roots: None }).unwrap();
    }

    /// Every page the journal saw programmed, in program order: its
    /// shard and, for a differential page, its records (empty for any
    /// other page).
    fn page_programs(journal: &PowerLossJournal) -> Vec<(usize, Vec<PageRecord>)> {
        let images: Vec<Vec<FlashChip>> = journal.images().collect();
        let mut out = Vec::new();
        for w in images.windows(2) {
            for (sh, (before, after)) in w[0].iter().zip(&w[1]).enumerate() {
                for p in (0..after.num_pages()).map(Ppn) {
                    let kind =
                        |chip: &FlashChip| SpareInfo::decode(chip.peek_spare(p)).map(|i| i.kind);
                    if kind(before) != Some(PageKind::Free) || kind(after) == Some(PageKind::Free) {
                        continue;
                    }
                    let recs = match kind(after) {
                        Some(PageKind::Diff) => {
                            Differential::parse_page(after.peek_data(p)).unwrap()
                        }
                        _ => Vec::new(),
                    };
                    out.push((sh, recs));
                }
            }
        }
        out
    }

    /// Whether `recs` hold a differential tagged `txn` / a proof of `txn`.
    fn tags(recs: &[PageRecord], txn: u64) -> bool {
        recs.iter().any(|r| matches!(r, PageRecord::Diff(d) if d.txn == txn))
    }
    fn proves(recs: &[PageRecord], txn: u64) -> bool {
        recs.iter().any(|r| match r {
            PageRecord::Epoch(e) => e.ids().any(|id| id == txn),
            PageRecord::Diff(_) => false,
        })
    }

    #[test]
    fn a_single_shard_transaction_programs_one_page() {
        let (mut s, journal, page) = journaled(8);
        let mut p = page.clone();
        p[3..7].fill(0xEE);
        commit(&mut s, 5, &[(0, &p), (2, &p)]);
        let programs = page_programs(&journal);
        assert_eq!(programs.len(), 1, "one page: the record with both differentials");
        let (shard, recs) = &programs[0];
        assert_eq!(*shard, 0);
        assert!(tags(recs, 5) && proves(recs, 5));
    }

    #[test]
    fn the_shard_buffering_the_differentials_writes_the_batchs_only_record() {
        let (mut s, journal, page) = journaled(8);
        let mut small = page.clone();
        small[3..7].fill(0xEE);
        let whole = vec![0x22; page.len()];
        // Shard 0: a Case-3 base, programmed while staging. Shard 1: a
        // buffered differential, riding the record: nobody stage-flushes.
        commit(&mut s, 5, &[(0, &whole), (1, &small)]);
        let programs = page_programs(&journal);
        let shards: Vec<usize> = programs.iter().map(|(sh, _)| *sh).collect();
        assert_eq!(shards, [0, 1]);
        assert!(programs[0].1.is_empty(), "shard 0's Case-3 base");
        assert!(tags(&programs[1].1, 5) && proves(&programs[1].1, 5), "shard 1's record");
        s.check_tables().unwrap();
        let mut out = vec![0u8; page.len()];
        for (pid, want) in [(0, &whole), (1, &small)] {
            s.read_page(pid, &mut out).unwrap();
            assert_eq!(&out, want, "pid {pid}");
        }
    }

    /// Shard 1 proves txn 5, whose last other tag is pid 0's Case-3 base
    /// on shard 0. Batch 6, on shard 0 alone, rewrites pid 0 and tears
    /// before its record: the proof must outlive that batch, or recovery
    /// finds txn 5's tag again with no proof and rolls it back too.
    #[test]
    fn a_proof_is_released_only_once_the_batch_killing_its_tags_commits() {
        let mut s = sharded(2, 8);
        let size = s.logical_page_size();
        let base = vec![0x11; size];
        for pid in 0..8 {
            s.write_page(pid, &base).unwrap();
        }
        s.flush().unwrap();
        let whole = vec![0x55; size];
        let mut small = base.clone();
        small[3..7].fill(0x55);
        commit(&mut s, 5, &[(0, &whole), (1, &small)]);
        // An untagged write supersedes txn 5's differential on shard 1.
        small[9..12].fill(0x77);
        s.write_page(1, &small).unwrap();
        s.flush().unwrap();
        s.check_tables().unwrap();
        // Batch 6 programs its base, then power fails before its record.
        s.shard_mut(0).chip_mut().arm_fault(1);
        let six = vec![0x66; size];
        let pages = vec![BatchPage::new(0, &six, 6)];
        assert!(s.commit_batch(&CommitBatch { pages, roots: None }).is_err());
        let mut chips = s.into_shard_chips();
        chips.iter_mut().for_each(FlashChip::disarm_fault);
        let mut r = ShardedStore::recover(
            chips,
            MethodKind::Pdl { max_diff_size: 64 },
            StoreOptions::new(8),
        )
        .unwrap();
        let mut out = vec![0u8; size];
        for (pid, want) in [(0, &whole), (1, &small)] {
            r.read_page(pid, &mut out).unwrap();
            assert_eq!(&out, want, "pid {pid}");
        }
    }

    #[test]
    fn an_empty_batch_programs_nothing() {
        let (mut s, journal, _) = journaled(8);
        s.commit_batch(&CommitBatch { pages: Vec::new(), roots: None }).unwrap();
        assert!(page_programs(&journal).is_empty());
    }

    #[test]
    fn a_second_buffering_shard_stage_flushes_before_the_one_record() {
        let (mut s, journal, page) = journaled(8);
        let mut small = page.clone();
        small[3..7].fill(0xEE);
        let whole = vec![0x22; page.len()];
        // Shard 0: a differential. Shard 1: a Case-3 base and a
        // differential. Both buffer a tag; shard 0 records.
        commit(&mut s, 5, &[(0, &small), (1, &whole), (3, &small)]);
        let programs = page_programs(&journal);
        let shards: Vec<usize> = programs.iter().map(|(sh, _)| *sh).collect();
        // Shard 1's base, its stage flush, then shard 0's record.
        assert_eq!(shards, [1, 1, 0]);
        assert!(programs[0].1.is_empty(), "shard 1's Case-3 base");
        assert!(tags(&programs[1].1, 5) && !proves(&programs[1].1, 5), "shard 1's stage page");
        assert!(tags(&programs[2].1, 5) && proves(&programs[2].1, 5), "shard 0's record");
        s.check_tables().unwrap();
        let mut out = vec![0u8; page.len()];
        for (pid, want) in [(0, &small), (1, &whole), (3, &small)] {
            s.read_page(pid, &mut out).unwrap();
            assert_eq!(&out, want, "pid {pid}");
        }
    }

    /// A shard's checkpoint stores neither the transactions another shard
    /// proves nor the presence it holds for other shards' tags: recovery
    /// right after a checkpoint must rebuild both, and every other table,
    /// from each shard's tags.
    #[test]
    fn recovery_right_after_a_checkpoint_rebuilds_the_live_tables_on_two_shards() {
        const PAGES: u64 = 128;
        let kind = MethodKind::Pdl { max_diff_size: 256 };
        let opts = StoreOptions::new(PAGES).with_checkpoint_blocks(2);
        let mut s =
            ShardedStore::with_uniform_chips(FlashConfig::scaled(12), 2, kind, opts).unwrap();
        let size = s.logical_page_size();
        let mut truth: Vec<Vec<u8>> = (0..PAGES).map(|p| vec![p as u8; size]).collect();
        for (pid, page) in truth.iter().enumerate() {
            s.write_page(pid as u64, page).unwrap();
        }
        // Each transaction rewrites one page whole (a tagged base) and
        // patches one of the other parity: it spans both shards.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for txn in 1..=400u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (a, b) = ((x % PAGES) as usize, ((x >> 20) % (PAGES / 2) * 2) as usize);
            let b = if a % 2 == 0 { b + 1 } else { b };
            truth[a].fill(x as u8);
            let at = (x >> 8) as usize % (size - 16);
            truth[b][at..at + 16].fill(x as u8);
            let pages = vec![
                BatchPage::new(a as u64, &truth[a], txn),
                BatchPage::new(b as u64, &truth[b], txn),
            ];
            s.commit_batch(&CommitBatch { pages, roots: None }).unwrap();
        }
        s.checkpoint().unwrap();
        s.check_tables().unwrap();
        let remote =
            |s: &ShardedStore| s.shards.iter().map(|p| p.remote_txns().count()).sum::<usize>();
        assert!(remote(&s) > 1, "tags of transactions another shard proves");
        let digest = s.tables_digest();
        let mut r = ShardedStore::recover(s.into_shard_chips(), kind, opts).unwrap();
        assert_eq!(r.tables_digest(), digest, "mapping, tags, proofs and remote entries");
        r.check_tables().unwrap();
        let mut out = vec![0u8; size];
        for (pid, page) in truth.iter().enumerate() {
            r.read_page(pid as u64, &mut out).unwrap();
            assert!(out == *page, "pid {pid}");
        }
    }

    #[test]
    fn gc_policy_propagates_to_every_shard() {
        use crate::ftl::GcPolicy;
        const PAGES: usize = 16;
        let mut s = ShardedStore::with_uniform_chips(
            FlashConfig::tiny(),
            2,
            MethodKind::Pdl { max_diff_size: 64 },
            StoreOptions::new(PAGES as u64).with_gc_policy(GcPolicy::WearAware),
        )
        .unwrap();
        assert_eq!(s.options().gc_policy, GcPolicy::WearAware);
        // The real witness: every per-shard store was *constructed* with
        // the policy (each constructor hands opts.gc_policy to its
        // allocator — covered by the method unit tests), not just the
        // facade echoing its own input.
        for shard in 0..s.num_shards() {
            assert_eq!(
                s.shard_mut(shard).options().gc_policy,
                GcPolicy::WearAware,
                "shard {shard}"
            );
        }
        // And the engine stays correct when churned into GC under the
        // policy: a hot 4-page set over write-once cold pages.
        let size = s.logical_page_size();
        let mut truth: Vec<Vec<u8>> = (0..PAGES).map(|i| vec![i as u8; size]).collect();
        for (pid, t) in truth.iter().enumerate() {
            s.write_page(pid as u64, t).unwrap();
        }
        for round in 0..600u32 {
            let pid = (round % 4) as usize;
            let at = (round as usize * 13) % (size - 16);
            truth[pid][at..at + 16].fill(round as u8);
            let p = truth[pid].clone();
            s.write_page(pid as u64, &p).unwrap();
        }
        let counters = PageStore::counters(&s);
        let gc_runs = counters.iter().find(|(k, _)| *k == "gc_runs").map(|(_, v)| *v).unwrap();
        assert!(gc_runs > 0, "churn must have garbage-collected");
        let mut out = vec![0u8; size];
        for pid in 0..PAGES {
            s.read_page(pid as u64, &mut out).unwrap();
            assert_eq!(out, truth[pid], "pid {pid}");
        }
    }
}
