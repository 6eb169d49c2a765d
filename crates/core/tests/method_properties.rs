//! Property-based equivalence tests: every page-update method must behave
//! like a simple in-memory array of pages under arbitrary operation
//! sequences — that is the whole point of the PageStore abstraction (the
//! methods differ in *cost*, never in *content*).

use pdl_core::{build_store, recover_store, ChangeRange, MethodKind, PageStore, StoreOptions};
use pdl_flash::{FlashChip, FlashConfig};
use proptest::prelude::*;

const NUM_PAGES: u64 = 10;

fn tiny_kinds() -> Vec<MethodKind> {
    vec![
        MethodKind::Opu,
        MethodKind::Ipu,
        MethodKind::Pdl { max_diff_size: 128 },
        MethodKind::Pdl { max_diff_size: 32 },
        MethodKind::Ipl { log_bytes_per_block: 512 },
        MethodKind::Ipl { log_bytes_per_block: 256 },
    ]
}

/// One step of the abstract workload.
#[derive(Clone, Debug)]
enum Step {
    /// Read a page and compare with the model.
    Read { pid: u64 },
    /// Read-modify-write cycle: `updates` in-memory changes, then evict.
    Update { pid: u64, updates: Vec<(u16, u8, u8)> }, // (offset, len, fill)
    /// Overwrite the whole page (fresh load / full rewrite).
    WriteWhole { pid: u64, fill: u8 },
    /// Write-through flush.
    Flush,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..NUM_PAGES).prop_map(|pid| Step::Read { pid }),
        (0..NUM_PAGES, proptest::collection::vec((0u16..250, 1u8..32, any::<u8>()), 1..5))
            .prop_map(|(pid, updates)| Step::Update { pid, updates }),
        (0..NUM_PAGES, any::<u8>()).prop_map(|(pid, fill)| Step::WriteWhole { pid, fill }),
        Just(Step::Flush),
    ]
}

fn run_steps(
    store: &mut Box<dyn PageStore>,
    model: &mut [Vec<u8>],
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let size = store.logical_page_size();
    let mut out = vec![0u8; size];
    for step in steps {
        match step {
            Step::Read { pid } => {
                store.read_page(*pid, &mut out).unwrap();
                prop_assert_eq!(&out, &model[*pid as usize], "read {} on {}", pid, store.name());
            }
            Step::Update { pid, updates } => {
                let p = *pid as usize;
                store.read_page(*pid, &mut out).unwrap();
                prop_assert_eq!(&out, &model[p], "pre-update read {} on {}", pid, store.name());
                for (offset, len, fill) in updates {
                    let at = *offset as usize % (size - *len as usize);
                    model[p][at..at + *len as usize].fill(*fill);
                    let page = model[p].clone();
                    store
                        .apply_update(*pid, &page, &[ChangeRange::new(at, *len as usize)])
                        .unwrap();
                }
                let page = model[p].clone();
                store.evict_page(*pid, &page).unwrap();
            }
            Step::WriteWhole { pid, fill } => {
                let p = *pid as usize;
                model[p].fill(*fill);
                let page = model[p].clone();
                store.write_page(*pid, &page).unwrap();
            }
            Step::Flush => store.flush().unwrap(),
        }
    }
    // Final sweep.
    for pid in 0..NUM_PAGES {
        store.read_page(pid, &mut out).unwrap();
        prop_assert_eq!(&out, &model[pid as usize], "final read {} on {}", pid, store.name());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All methods produce byte-identical reads for arbitrary workloads.
    #[test]
    fn all_methods_match_the_model(steps in proptest::collection::vec(step_strategy(), 1..60)) {
        for kind in tiny_kinds() {
            let chip = FlashChip::new(FlashConfig::tiny());
            let mut store = build_store(chip, kind, StoreOptions::new(NUM_PAGES)).unwrap();
            let size = store.logical_page_size();
            let mut model: Vec<Vec<u8>> = (0..NUM_PAGES).map(|_| vec![0u8; size]).collect();
            run_steps(&mut store, &mut model, &steps)?;
        }
    }

    /// Multi-frame logical pages (Experiment 2b's configuration) match too.
    #[test]
    fn multi_frame_methods_match_the_model(
        steps in proptest::collection::vec(step_strategy(), 1..40)
    ) {
        for kind in [
            MethodKind::Opu,
            MethodKind::Ipu,
            MethodKind::Pdl { max_diff_size: 256 },
            MethodKind::Ipl { log_bytes_per_block: 512 },
        ] {
            let chip = FlashChip::new(FlashConfig::tiny());
            let opts = StoreOptions::new(NUM_PAGES).with_frames_per_page(2);
            let mut store = build_store(chip, kind, opts).unwrap();
            let size = store.logical_page_size();
            let mut model: Vec<Vec<u8>> = (0..NUM_PAGES).map(|_| vec![0u8; size]).collect();
            run_steps(&mut store, &mut model, &steps)?;
        }
    }

    /// Flush + crash + recover preserves every page for every method.
    #[test]
    fn flushed_state_survives_crash_recovery(
        steps in proptest::collection::vec(step_strategy(), 1..40)
    ) {
        for kind in tiny_kinds() {
            let chip = FlashChip::new(FlashConfig::tiny());
            let mut store = build_store(chip, kind, StoreOptions::new(NUM_PAGES)).unwrap();
            let size = store.logical_page_size();
            let mut model: Vec<Vec<u8>> = (0..NUM_PAGES).map(|_| vec![0u8; size]).collect();
            run_steps(&mut store, &mut model, &steps)?;
            store.flush().unwrap();
            let chip = store.into_chip();
            let mut back = recover_store(chip, kind, StoreOptions::new(NUM_PAGES)).unwrap();
            let mut out = vec![0u8; size];
            for pid in 0..NUM_PAGES {
                back.read_page(pid, &mut out).unwrap();
                prop_assert_eq!(&out, &model[pid as usize],
                    "post-recovery read {} on {}", pid, back.name());
            }
            // The recovered store keeps matching the model under more work.
            run_steps(&mut back, &mut model, &steps)?;
        }
    }

    /// Differential codec: apply(compute(base, new)) == new, for arbitrary
    /// byte pages and coalescing gaps; a tagged differential's encoding
    /// parses back whole, and none of its strict prefixes parses to a
    /// record (the prefix too short to hold a length and a kind reads as
    /// erased space).
    #[test]
    fn diff_compute_apply_inverts(
        base in proptest::collection::vec(any::<u8>(), 64..256),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>(), 1u8..40), 0..8),
        gap in 0usize..16,
        txn in any::<u64>(),
    ) {
        let mut new = base.clone();
        for (at, fill, len) in &edits {
            let at = *at as usize % base.len();
            let end = (at + *len as usize).min(base.len());
            new[at..end].fill(*fill);
        }
        let d = pdl_core::diff::Differential { txn, ..pdl_core::diff::Differential::compute(1, 2, &base, &new, gap) };
        let mut rebuilt = base.clone();
        d.apply(&mut rebuilt);
        prop_assert_eq!(&rebuilt, &new);
        // Encoded round trip.
        let mut buf = vec![0xFFu8; d.encoded_len() + 8];
        prop_assert_eq!(d.encode(&mut buf).unwrap(), d.encoded_len());
        let back = pdl_core::diff::Differential::parse_page(&buf).unwrap();
        for cut in 0..d.encoded_len() {
            match pdl_core::diff::Differential::parse_page(&buf[..cut]) {
                Ok(records) => prop_assert!(cut < 3 && records.is_empty(), "{}-byte prefix", cut),
                Err(_) => prop_assert!(cut >= 3, "{}-byte prefix", cut),
            }
        }
        prop_assert_eq!(back, vec![pdl_core::diff::PageRecord::Diff(d)]);
    }

    /// The differential never misses a changed byte and, with gap 0, never
    /// includes an unchanged byte.
    #[test]
    fn diff_is_exact_with_zero_gap(
        base in proptest::collection::vec(any::<u8>(), 32..128),
        new_seed in proptest::collection::vec(any::<u8>(), 32..128),
    ) {
        let n = base.len().min(new_seed.len());
        let base = &base[..n];
        let new = &new_seed[..n];
        let d = pdl_core::diff::Differential::compute(0, 0, base, new, 0);
        let changed: usize = base.iter().zip(new.iter()).filter(|(a, b)| a != b).count();
        prop_assert_eq!(d.payload_len(), changed);
        let mut rebuilt = base.to_vec();
        d.apply(&mut rebuilt);
        prop_assert_eq!(rebuilt.as_slice(), new);
    }
}
