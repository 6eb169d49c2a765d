//! Property-based tests: the B+-tree must behave like a sorted multimap
//! and heap files like a slab, for arbitrary operation sequences, over
//! multiple page-update methods.

use pdl_core::{build_store, MethodKind, StoreOptions};
use pdl_flash::{FlashChip, FlashConfig};
use pdl_storage::{BTree, Database, HeapFile, KeyBuf, RecordId};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn database(kind: MethodKind) -> Database {
    let mut config = FlashConfig::tiny();
    config.geometry.num_blocks = 64; // 512 pages of 256 bytes
    let store = build_store(FlashChip::new(config), kind, StoreOptions::new(320)).unwrap();
    Database::new(store, 12)
}

#[derive(Clone, Debug)]
enum TreeOp {
    Insert(u16, u16),
    Delete(u16),
    Get(u16),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        3 => (any::<u16>(), any::<u16>()).prop_map(|(k, v)| TreeOp::Insert(k % 512, v)),
        1 => any::<u16>().prop_map(|k| TreeOp::Delete(k % 512)),
        1 => any::<u16>().prop_map(|k| TreeOp::Get(k % 512)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// B+-tree vs BTreeMap<u16, Vec<u16>> (multimap semantics: delete
    /// removes one duplicate).
    #[test]
    fn btree_matches_model(ops in proptest::collection::vec(tree_op(), 1..300)) {
        let d = database(MethodKind::Pdl { max_diff_size: 64 });
        let t = BTree::create(&d).unwrap();
        let mut model: BTreeMap<u16, Vec<u16>> = BTreeMap::new();
        let key = |k: u16| KeyBuf::new().push_u16(k).finish();
        for op in &ops {
            match op {
                TreeOp::Insert(k, v) => {
                    t.insert(&d, &key(*k), *v as u64).unwrap();
                    model.entry(*k).or_default().push(*v);
                }
                TreeOp::Delete(k) => {
                    let got = t.delete(&d, &key(*k)).unwrap();
                    match model.get_mut(k) {
                        Some(vals) if !vals.is_empty() => {
                            let v = got.expect("model has a value");
                            let idx = vals.iter().position(|x| *x as u64 == v)
                                .expect("deleted value must exist in model");
                            vals.remove(idx);
                            if vals.is_empty() {
                                model.remove(k);
                            }
                        }
                        _ => prop_assert!(got.is_none(), "tree deleted a phantom key {k}"),
                    }
                }
                TreeOp::Get(k) => {
                    let got = t.get(&d, &key(*k)).unwrap();
                    match model.get(k) {
                        Some(vals) => {
                            let v = got.expect("model has the key");
                            prop_assert!(vals.iter().any(|x| *x as u64 == v));
                        }
                        None => prop_assert!(got.is_none()),
                    }
                }
            }
        }
        // Full-order sweep.
        let mut expect: Vec<(u16, Vec<u16>)> =
            model.iter().map(|(k, v)| (*k, v.clone())).collect();
        for (_, v) in expect.iter_mut() {
            v.sort_unstable();
        }
        let mut got: BTreeMap<u16, Vec<u16>> = BTreeMap::new();
        t.range(&d, &[0u8; 16], &[0xFF; 16], |k, v| {
            let kk = u16::from_be_bytes([k[0], k[1]]);
            got.entry(kk).or_default().push(v as u16);
            true
        }).unwrap();
        let mut got: Vec<(u16, Vec<u16>)> = got.into_iter().collect();
        for (_, v) in got.iter_mut() {
            v.sort_unstable();
        }
        prop_assert_eq!(got, expect);
        t.check_invariants(&d).unwrap();
    }

    /// Heap files behave like a slab under insert/update/delete, across
    /// methods (PDL with differential pages, plain OPU, and IPL logs).
    #[test]
    fn heap_matches_model(
        ops in proptest::collection::vec((0u8..4, any::<u16>(), 1usize..120), 1..150),
        kind_idx in 0usize..3,
    ) {
        let kind = [
            MethodKind::Opu,
            MethodKind::Pdl { max_diff_size: 64 },
            MethodKind::Ipl { log_bytes_per_block: 512 },
        ][kind_idx];
        let d = database(kind);
        let h = HeapFile::create(&d);
        let mut model: Vec<(RecordId, Vec<u8>)> = Vec::new();
        for (op, sel, len) in &ops {
            match op {
                0 | 3 => {
                    let rec = vec![(*sel % 251) as u8; *len];
                    let rid = h.insert(&d, &rec).unwrap();
                    model.push((rid, rec));
                }
                1 if !model.is_empty() => {
                    let i = *sel as usize % model.len();
                    let (rid, _) = model.remove(i);
                    h.delete(&d, rid).unwrap();
                }
                2 if !model.is_empty() => {
                    let i = *sel as usize % model.len();
                    let rec = vec![(*sel % 7) as u8 + 1; *len];
                    let new_rid = h.update(&d, model[i].0, &rec).unwrap();
                    model[i] = (new_rid, rec);
                }
                _ => {}
            }
        }
        for (rid, expect) in &model {
            let got = h.get(&d, *rid, |b| b.to_vec()).unwrap();
            prop_assert_eq!(&got, expect);
        }
        let mut live = 0usize;
        h.scan(&d, |_, _| live += 1).unwrap();
        prop_assert_eq!(live, model.len());
    }

    /// Buffer-pool pressure does not corrupt data: the same tree contents
    /// must read back under a 2-frame pool and flush/recover cleanly.
    #[test]
    fn tiny_buffer_pool_is_correct(keys in proptest::collection::vec(any::<u16>(), 1..120)) {
        let mut config = FlashConfig::tiny();
        config.geometry.num_blocks = 64;
        let kind = MethodKind::Pdl { max_diff_size: 64 };
        let store = build_store(FlashChip::new(config), kind, StoreOptions::new(320)).unwrap();
        let d = Database::new(store, 2); // brutal pool pressure
        let t = BTree::create(&d).unwrap();
        let key = |k: u16| KeyBuf::new().push_u16(k).finish();
        for (i, k) in keys.iter().enumerate() {
            t.insert(&d, &key(*k), i as u64).unwrap();
        }
        for k in &keys {
            prop_assert!(t.get(&d, &key(*k)).unwrap().is_some());
        }
        d.flush().unwrap();
    }
}

/// Slotted-page model: insert/delete/update against a Vec-backed model,
/// with compaction pressure from fragmentation.
mod slotted_model {
    use super::*;
    use pdl_storage::slotted;

    #[derive(Clone, Debug)]
    pub enum SlotOp {
        Insert(u8, u8), // (len seed, fill)
        Delete(u8),     // index into live set
        Update(u8, u8, u8),
    }

    pub fn op() -> impl Strategy<Value = SlotOp> {
        prop_oneof![
            3 => (any::<u8>(), any::<u8>()).prop_map(|(l, f)| SlotOp::Insert(l, f)),
            1 => any::<u8>().prop_map(SlotOp::Delete),
            2 => (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(i, l, f)| SlotOp::Update(i, l, f)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn slotted_page_matches_model(ops in proptest::collection::vec(op(), 1..120)) {
            let mut data = vec![0u8; 512];
            let mut changes = Vec::new();
            let mut model: Vec<(u16, Vec<u8>)> = Vec::new();
            {
                let mut page = pdl_storage::testing_page_mut(&mut data, &mut changes);
                slotted::init(&mut page);
                for op in &ops {
                    match op {
                        SlotOp::Insert(l, f) => {
                            let rec = vec![*f; (*l as usize % 60) + 1];
                            if let Some(slot) = slotted::insert(&mut page, &rec).unwrap() {
                                model.push((slot, rec));
                            }
                        }
                        SlotOp::Delete(i) if !model.is_empty() => {
                            let idx = *i as usize % model.len();
                            let (slot, _) = model.remove(idx);
                            prop_assert!(slotted::delete(&mut page, slot));
                        }
                        SlotOp::Update(i, l, f) if !model.is_empty() => {
                            let idx = *i as usize % model.len();
                            let rec = vec![*f; (*l as usize % 80) + 1];
                            let slot = model[idx].0;
                            if slotted::update(&mut page, slot, &rec).unwrap() {
                                model[idx].1 = rec;
                            }
                        }
                        _ => {}
                    }
                    // Every live record matches after every operation.
                    for (slot, rec) in &model {
                        prop_assert_eq!(slotted::get(page.as_slice(), *slot), Some(&rec[..]));
                    }
                }
            }
            // Final sweep through the raw page bytes.
            let live: Vec<(u16, &[u8])> = slotted::iter(&data).collect();
            prop_assert_eq!(live.len(), model.len());
            for (slot, rec) in &model {
                prop_assert_eq!(slotted::get(&data, *slot), Some(&rec[..]));
            }
        }
    }
}
