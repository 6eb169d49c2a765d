//! Recovery marks only the pages of torn transactions obsolete. A stale
//! copy is counted obsolete in memory and left on flash as it is, and a
//! torn differential that shares its flash page with a live one cannot be
//! marked at all. What recovery leaves there must stay harmless: the id
//! floor passes every torn id — on one chip, on two shards and across a
//! checkpoint — and GC reclaims a stale copy like any dead page.

use pdl_core::{
    is_power_loss, BatchPage, CommitBatch, CommitError, MethodKind, PageStore, Pdl, ShardedStore,
    StoreOptions,
};
use pdl_flash::{FlashChip, FlashConfig, PageKind, Ppn, SpareInfo};

const PAGES: u64 = 8;
/// Room for a 1000-byte differential: two of them overflow the buffer.
const MAX_DIFF: usize = 1500;

fn recover_one(mut chips: Vec<FlashChip>, opts: StoreOptions) -> Box<dyn PageStore> {
    Box::new(Pdl::recover(chips.remove(0), opts, MAX_DIFF).unwrap())
}

fn recover_two(chips: Vec<FlashChip>, opts: StoreOptions) -> Box<dyn PageStore> {
    let kind = MethodKind::Pdl { max_diff_size: MAX_DIFF };
    Box::new(ShardedStore::recover(chips, kind, opts).unwrap())
}

/// Every page `pid` filled with `pid`, written and flushed; then a few
/// bytes of pid 2 changed and left in the write buffer.
fn loaded(store: &mut dyn PageStore) -> Vec<Vec<u8>> {
    let size = store.logical_page_size();
    let mut truth: Vec<Vec<u8>> = (0..PAGES).map(|i| vec![i as u8; size]).collect();
    for (pid, page) in truth.iter().enumerate() {
        store.write_page(pid as u64, page).unwrap();
    }
    store.flush().unwrap();
    truth[2][40..48].fill(0x22);
    store.write_page(2, &truth[2]).unwrap();
    truth
}

/// Txn 77 changes pid 0 by four bytes and pids 1 and 3 by a thousand
/// each. Staging pid 3 overflows the write buffer, so one flash page gets
/// pid 2's live differential and txn 77's of pids 0 and 1; power fails at
/// the next program, before the commit record. Returns the crashed chip
/// and every page's committed image.
fn torn_beside_a_live_differential(opts: StoreOptions) -> (FlashChip, Vec<Vec<u8>>) {
    let mut s = Pdl::new(FlashChip::new(FlashConfig::scaled(16)), opts, MAX_DIFF).unwrap();
    let truth = loaded(&mut s);
    let mut torn = truth.clone();
    torn[0][5..9].fill(0xAA);
    torn[1][24..1024].fill(0xAB);
    torn[3][24..1024].fill(0xAB);
    let before = s.chip().stats().total().writes;
    s.chip_mut().arm_fault(1);
    let pages = [0, 1, 3].map(|pid| BatchPage::new(pid as u64, &torn[pid], 77)).to_vec();
    let err = s.commit_batch(&CommitBatch { pages, roots: None }).unwrap_err();
    assert!(matches!(err, CommitError::Failed(_)), "{err}");
    assert_eq!(s.chip().stats().total().writes - before, 1, "one buffer flush landed");
    let mut chip = Box::new(s).into_chip();
    chip.disarm_fault();
    (chip, truth)
}

/// Check pid 0 rolled back and the id floor passes 77, then commit 77
/// transactions from the floor up on pids 4 and 6, crash, and recover:
/// every page must read back committed. Reusing torn txn 77 would prove
/// its differential and serve pid 0 torn.
fn commit_from_the_floor(
    mut store: Box<dyn PageStore>,
    mut truth: Vec<Vec<u8>>,
    recover: impl Fn(Vec<FlashChip>) -> Box<dyn PageStore>,
) {
    let mut out = vec![0u8; store.logical_page_size()];
    store.read_page(0, &mut out).unwrap();
    assert_eq!(out, truth[0], "pid 0 rolls back");
    let floor = store.txn_id_floor();
    assert!(floor > 77, "floor {floor}");
    for (i, txn) in (floor..floor + 77).enumerate() {
        let pid = [4, 6][i % 2];
        truth[pid][i] ^= 0x5A;
        let pages = vec![BatchPage::new(pid as u64, &truth[pid], txn)];
        store.commit_batch(&CommitBatch { pages, roots: None }).unwrap();
    }
    let mut back = recover(store.into_chips());
    for (pid, page) in truth.iter().enumerate() {
        back.read_page(pid as u64, &mut out).unwrap();
        assert!(out == *page, "pid {pid} does not read its committed image");
    }
}

#[test]
fn the_id_floor_passes_a_torn_id_left_on_flash() {
    let opts = StoreOptions::new(PAGES);
    let (chip, truth) = torn_beside_a_live_differential(opts);
    let store = Pdl::recover(chip, opts, MAX_DIFF).unwrap();
    assert_eq!(store.chip().stats().recovery.writes, 0, "the shared page stays live");
    commit_from_the_floor(Box::new(store), truth, |chips| recover_one(chips, opts));
}

/// The delta after a checkpoint never re-reads the torn page's unchanged
/// block: the floor rides in the payload.
#[test]
fn the_id_floor_survives_a_checkpoint() {
    let opts = StoreOptions::new(PAGES).with_checkpoint_blocks(2);
    let (chip, truth) = torn_beside_a_live_differential(opts);
    let mut store = Pdl::recover(chip, opts, MAX_DIFF).unwrap();
    store.checkpoint().unwrap();
    let store = recover_one(vec![Box::new(store).into_chip()], opts);
    commit_from_the_floor(store, truth, |chips| recover_one(chips, opts));
}

/// Pids 0, 2, 4 and 6 live on shard 0, which holds txn 77's record. Its
/// changes to pids 4 and 6 overflow shard 0's write buffer, so one flash
/// page gets pid 2's live differential and txn 77's of pids 0 and 4; power
/// fails on both chips one program into the batch, before the record.
#[test]
fn the_id_floor_passes_a_torn_id_left_on_a_shard() {
    let opts = StoreOptions::new(PAGES);
    let kind = MethodKind::Pdl { max_diff_size: MAX_DIFF };
    let mut store =
        ShardedStore::with_uniform_chips(FlashConfig::scaled(16), 2, kind, opts).unwrap();
    let truth = loaded(&mut store);
    let mut torn = truth.clone();
    torn[0][5..9].fill(0xAA);
    torn[1][5..9].fill(0xAA);
    torn[4][24..1024].fill(0xAB);
    torn[6][24..1024].fill(0xAB);
    for s in 0..2 {
        store.shard_mut(s).chip_mut().arm_fault(1);
    }
    let pages = [0, 4, 6, 1].map(|pid| BatchPage::new(pid as u64, &torn[pid], 77)).to_vec();
    let err = store.commit_batch(&CommitBatch { pages, roots: None }).unwrap_err();
    assert!(matches!(err, CommitError::Failed(_)), "{err}");
    let mut chips = store.into_shard_chips();
    chips.iter_mut().for_each(FlashChip::disarm_fault);
    let recovered = recover_two(chips, opts);
    let marks = |store: &dyn PageStore| {
        let mut marks = Vec::new();
        store.for_each_chip(&mut |chip| marks.push(chip.stats().recovery.writes));
        marks
    };
    assert_eq!(marks(recovered.as_ref()), [0, 1], "shard 0's shared page stays live");
    commit_from_the_floor(recovered, truth, |chips| recover_two(chips, opts));
}

/// Crash between a new base page's program and the old copy's obsolete
/// mark: recovery leaves the stale copy unmarked, and GC must skip it and
/// erase its block like any other, leaving a store that recovers again.
#[test]
fn gc_reclaims_a_stale_copy_recovery_left_unmarked() {
    let (opts, max_diff) = (StoreOptions::new(PAGES), 128);
    let mut s = Pdl::new(FlashChip::new(FlashConfig::tiny()), opts, max_diff).unwrap();
    let size = s.logical_page_size();
    let mut truth: Vec<Vec<u8>> = (0..PAGES).map(|i| vec![i as u8; size]).collect();
    for (pid, page) in truth.iter().enumerate() {
        s.write_page(pid as u64, page).unwrap();
    }
    let g = s.chip().geometry();
    let stale = (0..g.num_pages())
        .map(Ppn)
        .find(|&p| {
            SpareInfo::decode(s.chip().peek_spare(p))
                .is_some_and(|i| i.kind == PageKind::Base && i.tag == 3 && !i.obsolete)
        })
        .expect("pid 3's base page");
    s.chip_mut().arm_fault(1);
    truth[3].fill(0x77);
    assert!(is_power_loss(&s.write_page(3, &truth[3]).unwrap_err()));
    let mut chip = Box::new(s).into_chip();
    chip.disarm_fault();

    let mut r = Pdl::recover(chip, opts, max_diff).unwrap();
    assert_eq!(r.chip().stats().recovery.writes, 0, "nothing torn, nothing marked");
    let info = SpareInfo::decode(r.chip().peek_spare(stale)).unwrap();
    assert!(info.kind == PageKind::Base && !info.obsolete, "the stale copy stays unmarked");
    let erases = r.chip().erase_count(g.block_of(stale));
    for round in 0u32.. {
        assert!(round < 2_000, "GC never erased the stale copy's block");
        if r.chip().erase_count(g.block_of(stale)) > erases {
            break;
        }
        let pid = (round % 8) as usize;
        let at = (round as usize * 13) % (size - 8);
        truth[pid][at..at + 8].fill(round as u8);
        r.write_page(pid as u64, &truth[pid]).unwrap();
    }
    r.flush().unwrap();
    r.check_tables().unwrap();
    let mut back = Pdl::recover(Box::new(r).into_chip(), opts, max_diff).unwrap();
    let mut out = vec![0u8; size];
    for (pid, page) in truth.iter().enumerate() {
        back.read_page(pid as u64, &mut out).unwrap();
        assert!(out == *page, "pid {pid} does not read its last image");
    }
}
