//! N-writer structural-concurrency oracle: racing latch-coupled writers
//! against a shadow `BTreeMap`.
//!
//! Writers share one `&Database` (durable-commit mode over a sharded PDL
//! store) and mutate registered B+-trees through the crab-walk insert /
//! latch-coupled delete paths while a shadow model records exactly the
//! batches that *committed*. Deliberate aborts — including aborts taken
//! after a batch already forced page splits — and `TxnConflict`
//! abort-and-retry loops run mid-race. After the writers quiesce, every
//! tree must equal its shadow byte for byte, hold its invariants, and
//! the pool must report zero leaked pids and zero live views (aborted
//! split allocations must return to the free list).

use pdl_core::{MethodKind, PageStore, ShardedStore, StoreOptions};
use pdl_flash::FlashConfig;
use pdl_storage::{BTree, Database, Durability, Key, KeyBuf, StorageError};
use std::collections::BTreeMap;
use std::sync::Mutex;

const KIND: MethodKind = MethodKind::Pdl { max_diff_size: 256 };

fn db(shards: usize, pages: u64) -> Database {
    let store = ShardedStore::with_uniform_chips(
        FlashConfig::scaled(16),
        shards,
        KIND,
        StoreOptions::new(pages).with_checkpoint_blocks(2),
    )
    .unwrap();
    Database::new(Box::new(store), 256).with_durability(Durability::Commit)
}

fn key_of(writer: usize, i: u64) -> Key {
    KeyBuf::new().push_u8(writer as u8).push_u64(i).finish()
}

fn min_key() -> Key {
    KeyBuf::new().push_u8(0).push_u64(0).finish()
}

fn max_key() -> Key {
    KeyBuf::new().push_u8(u8::MAX).push_u64(u64::MAX).finish()
}

/// Everything a committed batch did, for replay into the shadow model.
enum Op {
    Put(usize, u64, u64),
    Del(usize, u64),
}

/// One writer's full run against `tree`: `batches` batches of `per_batch`
/// sequential keys, deleting one earlier key per batch, aborting every
/// fourth batch *after* applying it (so any splits it forced must roll
/// back), retrying from scratch on `TxnConflict`. Committed ops are
/// replayed into `shadow` under its lock, keyed `(writer, i)`.
fn drive_writer(
    db: &Database,
    tree: &BTree,
    shadow: &Mutex<BTreeMap<(usize, u64), u64>>,
    writer: usize,
    batches: u64,
    per_batch: u64,
) -> pdl_storage::Result<()> {
    for b in 0..batches {
        let abort_this = b % 4 == 3;
        'retry: loop {
            let mut ops = Vec::new();
            db.begin()?;
            let batch_op = |r: pdl_storage::Result<()>| -> pdl_storage::Result<bool> {
                match r {
                    Ok(()) => Ok(true),
                    Err(StorageError::TxnConflict { .. }) => {
                        db.abort()?;
                        std::thread::yield_now();
                        Ok(false)
                    }
                    Err(e) => {
                        db.abort()?;
                        Err(e)
                    }
                }
            };
            for i in b * per_batch..(b + 1) * per_batch {
                let v = i * 10 + writer as u64;
                if !batch_op(tree.insert(db, &key_of(writer, i), v))? {
                    continue 'retry;
                }
                ops.push(Op::Put(writer, i, v));
            }
            if b > 0 {
                // Delete one key committed by an earlier batch (never one
                // an aborted batch touched).
                let prior = (b - 1) * per_batch;
                if (b - 1) % 4 != 3 {
                    if !batch_op(tree.delete(db, &key_of(writer, prior)).map(|_| ()))? {
                        continue 'retry;
                    }
                    ops.push(Op::Del(writer, prior));
                }
            }
            if abort_this {
                db.abort()?;
            } else {
                db.commit()?;
                let mut m = shadow.lock().unwrap_or_else(|e| e.into_inner());
                for op in ops {
                    match op {
                        Op::Put(w, i, v) => {
                            m.insert((w, i), v);
                        }
                        Op::Del(w, i) => {
                            m.remove(&(w, i));
                        }
                    }
                }
            }
            break;
        }
    }
    Ok(())
}

/// Collect a tree's full contents in key order as `((writer, i), value)`.
fn dump(db: &Database, tree: &BTree) -> Vec<((usize, u64), u64)> {
    let mut out = Vec::new();
    tree.range(db, &min_key(), &max_key(), |k, v| {
        let w = k[0] as usize;
        let i = u64::from_be_bytes(k[1..9].try_into().unwrap());
        out.push(((w, i), v));
        true
    })
    .unwrap();
    out
}

fn check_clean(db: &Database) {
    let stats = db.buffer_stats();
    assert_eq!(stats.leaked_pids, 0, "aborted split allocations must return to the free list");
    assert_eq!(stats.active_views, 0, "no read view may outlive the run");
    // The oracle must have judged commits staged from the pool's held
    // images, not only the paper's base-read path.
    assert!(db.with_store(base_reads_skipped) > 0, "no commit staged from a held image");
}

/// Pages the store staged against a held image instead of a base read.
fn base_reads_skipped(store: &mut dyn PageStore) -> u64 {
    store.counters().iter().find(|(k, _)| *k == "base_reads_skipped").map_or(0, |(_, v)| *v)
}

#[test]
fn n_writers_on_one_shared_tree_match_the_shadow_model() {
    for writers in [2usize, 4, 8] {
        let d = db(2, 512);
        let tree = BTree::create(&d).unwrap();
        let shadow = Mutex::new(BTreeMap::new());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..writers)
                .map(|w| {
                    let (d, tree, shadow) = (&d, &tree, &shadow);
                    scope.spawn(move || drive_writer(d, tree, shadow, w, 12, 8))
                })
                .collect();
            for h in handles {
                h.join().expect("writer panicked").expect("writer failed");
            }
        });
        tree.check_invariants(&d).unwrap();
        let expect: Vec<_> = shadow.into_inner().unwrap().into_iter().collect();
        assert!(!expect.is_empty());
        assert_eq!(dump(&d, &tree), expect, "{writers} writers: tree diverged from shadow");
        check_clean(&d);
    }
}

#[test]
fn private_and_shared_trees_commit_atomically_across_structs() {
    let writers = 4usize;
    let d = db(2, 512);
    let shared = BTree::create(&d).unwrap();
    let privates: Vec<BTree> = (0..writers).map(|_| BTree::create(&d).unwrap()).collect();
    let shared_shadow = Mutex::new(BTreeMap::new());
    let private_shadows: Vec<Mutex<BTreeMap<(usize, u64), u64>>> =
        (0..writers).map(|_| Mutex::new(BTreeMap::new())).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let (d, shared, shared_shadow) = (&d, &shared, &shared_shadow);
                let tree = &privates[w];
                let my_shadow = &private_shadows[w];
                scope.spawn(move || -> pdl_storage::Result<()> {
                    for b in 0..10u64 {
                        'retry: loop {
                            d.begin()?;
                            for i in b * 6..(b + 1) * 6 {
                                let both = tree
                                    .insert(d, &key_of(w, i), i)
                                    .and_then(|()| shared.insert(d, &key_of(w, i), i + 1));
                                match both {
                                    Ok(()) => {}
                                    Err(StorageError::TxnConflict { .. }) => {
                                        d.abort()?;
                                        continue 'retry;
                                    }
                                    Err(e) => {
                                        d.abort()?;
                                        return Err(e);
                                    }
                                }
                            }
                            if b % 3 == 2 {
                                // The batch dirtied *both* trees; the abort
                                // must unwind both or neither shadow is
                                // right.
                                d.abort()?;
                            } else {
                                d.commit()?;
                                let mut s = shared_shadow.lock().unwrap_or_else(|e| e.into_inner());
                                let mut p = my_shadow.lock().unwrap_or_else(|e| e.into_inner());
                                for i in b * 6..(b + 1) * 6 {
                                    s.insert((w, i), i + 1);
                                    p.insert((w, i), i);
                                }
                            }
                            break;
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer panicked").expect("writer failed");
        }
    });

    shared.check_invariants(&d).unwrap();
    let expect: Vec<_> = shared_shadow.into_inner().unwrap().into_iter().collect();
    assert_eq!(dump(&d, &shared), expect, "shared tree diverged");
    for (w, (tree, shadow)) in privates.iter().zip(private_shadows).enumerate() {
        tree.check_invariants(&d).unwrap();
        let expect: Vec<_> = shadow.into_inner().unwrap().into_iter().collect();
        assert_eq!(dump(&d, tree), expect, "private tree of writer {w} diverged");
    }
    check_clean(&d);
}

#[test]
fn aborts_after_forced_splits_leak_nothing_under_race() {
    let d = db(2, 512);
    let tree = BTree::create(&d).unwrap();
    let shadow = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        // Writer 0 commits steadily; writers 1..4 insert split-forcing
        // sequential runs and abort every one of them.
        let committer = {
            let (d, tree, shadow) = (&d, &tree, &shadow);
            scope.spawn(move || drive_writer(d, tree, shadow, 0, 16, 6))
        };
        let aborters: Vec<_> = (1..4usize)
            .map(|w| {
                let (d, tree) = (&d, &tree);
                scope.spawn(move || -> pdl_storage::Result<()> {
                    for round in 0..6u64 {
                        'retry: loop {
                            d.begin()?;
                            for i in 0..80u64 {
                                match tree.insert(d, &key_of(w, round * 1000 + i), i) {
                                    Ok(()) => {}
                                    Err(StorageError::TxnConflict { .. }) => {
                                        d.abort()?;
                                        continue 'retry;
                                    }
                                    Err(e) => {
                                        d.abort()?;
                                        return Err(e);
                                    }
                                }
                            }
                            d.abort()?; // roll back the whole split chain
                            break;
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        committer.join().expect("committer panicked").expect("committer failed");
        for h in aborters {
            h.join().expect("aborter panicked").expect("aborter failed");
        }
    });
    tree.check_invariants(&d).unwrap();
    let expect: Vec<_> = shadow.into_inner().unwrap().into_iter().collect();
    assert_eq!(dump(&d, &tree), expect, "aborted split runs must leave no trace");
    check_clean(&d);
}
