//! Full-stack integration: B+-tree + heap file + buffer pool over every
//! page-update method, under pool pressure, with flush + crash + recovery.

use page_differential_logging::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn kinds() -> Vec<MethodKind> {
    vec![
        MethodKind::Opu,
        MethodKind::Pdl { max_diff_size: 256 },
        MethodKind::Pdl { max_diff_size: 2048 },
        MethodKind::Ipl { log_bytes_per_block: 18 * 1024 },
    ]
}

#[test]
fn btree_and_heap_work_over_every_method_under_pool_pressure() {
    for kind in kinds() {
        let chip = FlashChip::new(FlashConfig::scaled(32));
        let store = build_store(chip, kind, StoreOptions::new(600)).unwrap();
        let db = Database::new(store, 6); // heavy eviction traffic
        let tree = BTree::create(&db).unwrap();
        let heap = HeapFile::create(&db);
        let mut model: BTreeMap<u64, (RecordId, Vec<u8>)> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(0xF00D);

        for i in 0..1_500u64 {
            match rng.gen_range(0..10) {
                0..=5 => {
                    // Insert a record and index it.
                    let rec: Vec<u8> = (0..rng.gen_range(20..200)).map(|_| rng.gen()).collect();
                    let rid = heap.insert(&db, &rec).unwrap();
                    tree.insert(&db, &KeyBuf::new().push_u64(i).finish(), rid.to_u64()).unwrap();
                    model.insert(i, (rid, rec));
                }
                6..=7 if !model.is_empty() => {
                    // Point lookup through the index.
                    let (k, (rid, rec)) = {
                        let n = rng.gen_range(0..model.len());
                        let (k, v) = model.iter().nth(n).unwrap();
                        (*k, v.clone())
                    };
                    let got = tree.get(&db, &KeyBuf::new().push_u64(k).finish()).unwrap().unwrap();
                    assert_eq!(RecordId::from_u64(got), rid, "{}", kind.label());
                    let bytes = heap.get(&db, rid, |b| b.to_vec()).unwrap();
                    assert_eq!(bytes, rec, "{}", kind.label());
                }
                8 if !model.is_empty() => {
                    // Update the record in place.
                    let k = *model.keys().nth(rng.gen_range(0..model.len())).unwrap();
                    let (rid, rec) = model.get(&k).unwrap().clone();
                    let mut rec = rec;
                    if !rec.is_empty() {
                        let at = rng.gen_range(0..rec.len());
                        rec[at] = rec[at].wrapping_add(1);
                    }
                    let new_rid = heap.update(&db, rid, &rec).unwrap();
                    if new_rid != rid {
                        tree.delete_exact(&db, &KeyBuf::new().push_u64(k).finish(), rid.to_u64())
                            .unwrap();
                        tree.insert(&db, &KeyBuf::new().push_u64(k).finish(), new_rid.to_u64())
                            .unwrap();
                    }
                    model.insert(k, (new_rid, rec));
                }
                _ if !model.is_empty() => {
                    // Delete.
                    let k = *model.keys().nth(rng.gen_range(0..model.len())).unwrap();
                    let (rid, _) = model.remove(&k).unwrap();
                    heap.delete(&db, rid).unwrap();
                    tree.delete_exact(&db, &KeyBuf::new().push_u64(k).finish(), rid.to_u64())
                        .unwrap();
                }
                _ => {}
            }
        }

        // Everything still reads correctly through the index.
        for (k, (rid, rec)) in &model {
            let got = tree.get(&db, &KeyBuf::new().push_u64(*k).finish()).unwrap();
            assert_eq!(got, Some(rid.to_u64()), "{} key {k}", kind.label());
            let bytes = heap.get(&db, *rid, |b| b.to_vec()).unwrap();
            assert_eq!(&bytes, rec, "{} key {k}", kind.label());
        }
        assert!(db.buffer_stats().evictions > 0, "pool pressure was real");
        db.flush().unwrap();
    }
}

#[test]
fn flushed_stack_survives_crash_and_recovery() {
    for kind in kinds() {
        let chip = FlashChip::new(FlashConfig::scaled(32));
        let store = build_store(chip, kind, StoreOptions::new(600)).unwrap();
        let db = Database::new(store, 16);
        let tree = BTree::create(&db).unwrap();
        let heap = HeapFile::create(&db);
        let mut expectations = Vec::new();
        for i in 0..400u64 {
            let rec = i.to_le_bytes().repeat(4);
            let rid = heap.insert(&db, &rec).unwrap();
            tree.insert(&db, &KeyBuf::new().push_u64(i).finish(), rid.to_u64()).unwrap();
            expectations.push((i, rid, rec));
        }
        db.flush().unwrap();
        let allocated = db.allocated_pages();
        // These stores keep no root log: remember the roots to re-attach.
        let (root, pages) = (tree.current_root(&db), heap.pages_in(&db));
        let store = db.into_store().unwrap();
        let opts = *store.options();
        let chip = store.into_chip(); // crash: all volatile state gone
        let store = recover_store(chip, kind, opts).unwrap();
        let db = Database::new_with_allocated(store, 16, allocated);
        let (tree, heap) = (BTree::attach(&db, root), HeapFile::attach(&db, pages));
        for (k, rid, rec) in &expectations {
            let got = tree.get(&db, &KeyBuf::new().push_u64(*k).finish()).unwrap();
            assert_eq!(got, Some(rid.to_u64()), "{} key {k}", kind.label());
            let bytes = heap.get(&db, *rid, |b| b.to_vec()).unwrap();
            assert_eq!(&bytes, rec, "{} key {k}", kind.label());
        }
    }
}

#[test]
fn io_accounting_flows_to_the_chip_through_the_whole_stack() {
    let chip = FlashChip::new(FlashConfig::scaled(32));
    let store =
        build_store(chip, MethodKind::Pdl { max_diff_size: 256 }, StoreOptions::new(600)).unwrap();
    let db = Database::new(store, 4);
    let heap = HeapFile::create(&db);
    for i in 0..200u64 {
        // Records big enough that the file spans well beyond the 4-frame
        // pool, so the later scan misses the cache.
        heap.insert(&db, &[i as u8; 100]).unwrap();
    }
    db.flush().unwrap();
    let io = db.io_stats().total();
    assert!(io.writes > 0, "inserts must reach flash via evictions/flush");
    assert_eq!(
        io.total_us(),
        io.read_us + io.write_us + io.erase_us,
        "time decomposition is consistent"
    );
    // A re-scan reads back through the pool (cold cache -> real reads).
    db.reset_io_stats();
    let mut n = 0;
    heap.scan(&db, |_, _| n += 1).unwrap();
    assert_eq!(n, 200);
    assert!(db.io_stats().total().reads > 0);
}
