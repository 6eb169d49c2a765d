//! Criterion micro-benchmarks: wall-clock cost of the hot primitives
//! (differential codec, emulator operations, method round trips, one
//! garbage collection, B+-tree operations). These measure *our implementation's* speed, complementing
//! the experiment benches which report *simulated flash* time.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pdl_core::diff::Differential;
use pdl_core::{build_store, BatchPage, CommitBatch, MethodKind, PageStore, StoreOptions};
use pdl_flash::{fnv1a32, FlashChip, FlashConfig, PageKind, Ppn, SpareInfo};
use pdl_storage::{BTree, Database, Durability, KeyBuf};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn bench_diff_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("diff_codec");
    let mut rng = StdRng::seed_from_u64(7);
    let mut base = vec![0u8; 2048];
    rng.fill_bytes(&mut base);
    for pct in [2usize, 20, 90] {
        let mut new = base.clone();
        let len = 2048 * pct / 100;
        let at = rng.gen_range(0..=2048 - len);
        rng.fill_bytes(&mut new[at..at + len]);
        g.bench_function(format!("compute_{pct}pct"), |b| {
            b.iter(|| Differential::compute(1, 2, &base, &new, 8))
        });
        let d = Differential::compute(1, 2, &base, &new, 8);
        let mut buf = vec![0xFFu8; d.encoded_len() + 16];
        g.bench_function(format!("encode_{pct}pct"), |b| b.iter(|| d.encode(&mut buf).unwrap()));
        g.bench_function(format!("apply_{pct}pct"), |b| {
            b.iter_batched(|| base.clone(), |mut page| d.apply(&mut page), BatchSize::SmallInput)
        });
    }
    g.finish();
}

fn bench_flash_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("flash_emulator");
    let config = FlashConfig::scaled(16);
    let data = vec![0xA5u8; 2048];
    let mut spare = vec![0xFFu8; 64];
    SpareInfo::new(PageKind::Data, 1, 1, fnv1a32(&data)).encode(&mut spare).unwrap();
    g.bench_function("program_page", |b| {
        b.iter_batched(
            || FlashChip::new(config),
            |mut chip| chip.program_page(Ppn(0), &data, &spare).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("page_checksum_2k", |b| b.iter(|| fnv1a32(&data)));
    // A program refused at the last data byte: the chip validates before it
    // mutates, so this is the conflict scan of the whole data area and
    // nothing else, repeatable on one page.
    let mut chip = FlashChip::new(config.with_nop_data(2));
    let mut cleared = data.clone();
    cleared[2047] = 0x00;
    chip.program_page(Ppn(1), &cleared, &spare).unwrap();
    g.bench_function("program_conflict_check_2k", |b| {
        b.iter(|| chip.program_page(Ppn(1), &data, &spare).unwrap_err())
    });
    let mut chip = FlashChip::new(config);
    chip.program_page(Ppn(0), &data, &spare).unwrap();
    let mut out = vec![0u8; 2048];
    g.bench_function("read_data", |b| b.iter(|| chip.read_data(Ppn(0), &mut out).unwrap()));
    g.bench_function("read_spare", |b| b.iter(|| chip.read_spare(Ppn(0)).unwrap()));
    g.finish();
}

fn bench_method_round_trips(c: &mut Criterion) {
    let mut g = c.benchmark_group("method_round_trip");
    g.sample_size(20);
    for kind in [
        MethodKind::Opu,
        MethodKind::Pdl { max_diff_size: 256 },
        MethodKind::Ipl { log_bytes_per_block: 18 * 1024 },
    ] {
        let chip = FlashChip::new(FlashConfig::scaled(32));
        let mut store = build_store(chip, kind, StoreOptions::new(400)).unwrap();
        let mut page = vec![0u8; store.logical_page_size()];
        let mut rng = StdRng::seed_from_u64(1);
        for pid in 0..400u64 {
            rng.fill_bytes(&mut page);
            store.write_page(pid, &page).unwrap();
        }
        g.bench_function(format!("update_cycle_{}", store.name()), |b| {
            let mut pid = 0u64;
            b.iter(|| {
                pid = (pid + 17) % 400;
                store.read_page(pid, &mut page).unwrap();
                let at = (pid as usize * 13) % (page.len() - 41);
                rng.fill_bytes(&mut page[at..at + 41]);
                store.apply_update(pid, &page, &[pdl_core::ChangeRange::new(at, 41)]).unwrap();
                store.evict_page(pid, &page).unwrap();
            })
        });
    }
    g.finish();
}

/// Commit staging with and without the held image: one stream of
/// 12-page transactions, a few small edits per page, committed to PDL once
/// with each page's held image (what the buffer pool hands in) and once
/// without — the paper's path, which reads every base page back. The
/// criterion row is host time per transaction; the line under it gives
/// flash reads and simulated µs per transaction.
fn bench_commit_staging(c: &mut Criterion) {
    const PAGES: u64 = 1_024;
    const PER_TXN: usize = 12;
    let mut g = c.benchmark_group("commit_staging");
    g.sample_size(20);
    for held in [true, false] {
        let chip = FlashChip::new(FlashConfig::scaled(64));
        let kind = MethodKind::Pdl { max_diff_size: 256 };
        let mut store = build_store(chip, kind, StoreOptions::new(PAGES)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut pages: Vec<Vec<u8>> = (0..PAGES)
            .map(|_| {
                let mut page = vec![0u8; store.logical_page_size()];
                rng.fill_bytes(&mut page);
                page
            })
            .collect();
        for (pid, page) in pages.iter().enumerate() {
            store.write_page(pid as u64, page).unwrap();
        }
        store.flush().unwrap();
        let before = store.stats().total();
        let mut txns = 0u64;
        let label = if held { "held_image" } else { "base_read" };
        g.bench_function(format!("commit_12_pages_{label}"), |b| {
            b.iter(|| {
                txns += 1;
                let mut pids: Vec<u64> = Vec::with_capacity(PER_TXN);
                while pids.len() < PER_TXN {
                    let pid = rng.gen_range(0..PAGES);
                    if !pids.contains(&pid) {
                        pids.push(pid);
                    }
                }
                let held_images: Vec<Vec<u8>> =
                    pids.iter().map(|&pid| pages[pid as usize].clone()).collect();
                for &pid in &pids {
                    let page = &mut pages[pid as usize];
                    for _ in 0..rng.gen_range(1..=4) {
                        let len = rng.gen_range(4..=24usize);
                        let at = rng.gen_range(0..page.len() - len);
                        rng.fill_bytes(&mut page[at..at + len]);
                    }
                }
                let batch = CommitBatch {
                    pages: pids
                        .iter()
                        .zip(&held_images)
                        .map(|(&pid, image)| BatchPage {
                            held: held.then_some(&image[..]),
                            ..BatchPage::new(pid, &pages[pid as usize], txns)
                        })
                        .collect(),
                    roots: None,
                };
                store.commit_batch(&batch).unwrap()
            })
        });
        let cost = store.stats().total() - before;
        println!(
            "{:<48} {:>12.2} flash reads/txn {:>8.0} sim us/txn",
            format!("commit_staging/{label}"),
            cost.reads as f64 / txns as f64,
            cost.total_us() as f64 / txns as f64
        );
    }
    g.finish();
}

/// One PDL garbage collection, by what its victims hold: rewriting 64
/// pages page-wide in turn (Case 3) leaves whole blocks dead, and 2 %
/// updates of 1 024 random pages leave victims with live base pages and
/// differentials to move. The criterion row is host time per GC, the
/// write that triggered it included; the line under it gives GC flash
/// reads per GC.
fn bench_gc(c: &mut Criterion) {
    let mut g = c.benchmark_group("gc");
    g.sample_size(20);
    for (label, pages, page_wide) in
        [("victim_all_dead", 64u64, true), ("victim_partly_live", 1_024, false)]
    {
        let chip = FlashChip::new(FlashConfig::scaled(32));
        let kind = MethodKind::Pdl { max_diff_size: 256 };
        let mut store = build_store(chip, kind, StoreOptions::new(pages)).unwrap();
        let mut page = vec![0u8; store.logical_page_size()];
        let mut rng = StdRng::seed_from_u64(5);
        for pid in 0..pages {
            store.write_page(pid, &page).unwrap();
        }
        let gc_runs = |s: &dyn PageStore| {
            s.counters().into_iter().find(|(k, _)| *k == "gc_runs").map_or(0, |(_, v)| v)
        };
        let (runs, reads) = (gc_runs(&*store), store.stats().gc.reads);
        let mut next = 0u64;
        g.bench_function(label, |b| {
            b.iter_custom(|iters| {
                let mut spent = Duration::ZERO;
                for _ in 0..iters {
                    let before = gc_runs(&*store);
                    while gc_runs(&*store) == before {
                        let pid = if page_wide {
                            next += 1;
                            page.fill(next as u8);
                            next % pages
                        } else {
                            let pid = rng.gen_range(0..pages);
                            store.read_page(pid, &mut page).unwrap();
                            let at = rng.gen_range(0..page.len() - 41);
                            rng.fill_bytes(&mut page[at..at + 41]);
                            pid
                        };
                        let start = Instant::now();
                        store.write_page(pid, &page).unwrap();
                        let took = start.elapsed();
                        if gc_runs(&*store) > before {
                            spent += took;
                        }
                    }
                }
                spent
            })
        });
        let collections = gc_runs(&*store) - runs;
        let gc_reads = store.stats().gc.reads - reads;
        println!(
            "{:<48} {:>12.2} flash reads/gc ({collections} collections)",
            format!("gc/{label}"),
            gc_reads as f64 / collections as f64
        );
    }
    g.finish();
}

fn bench_btree(c: &mut Criterion) {
    let mut g = c.benchmark_group("btree");
    g.sample_size(20);
    let chip = FlashChip::new(FlashConfig::scaled(64));
    let store = build_store(chip, MethodKind::Opu, StoreOptions::new(1000)).unwrap();
    let db = Database::new(store, 256);
    let tree = BTree::create(&db).unwrap();
    for v in 0..5_000u64 {
        tree.insert(&db, &KeyBuf::new().push_u64(v * 7 % 5_000).finish(), v).unwrap();
    }
    let mut i = 0u64;
    g.bench_function("get_hot", |b| {
        b.iter(|| {
            i = (i + 13) % 5_000;
            tree.get(&db, &KeyBuf::new().push_u64(i).finish()).unwrap()
        })
    });
    // Insert + delete pairs keep the tree size bounded across criterion's
    // millions of warm-up iterations.
    let mut next = 10_000u64;
    g.bench_function("insert_delete", |b| {
        b.iter(|| {
            next += 1;
            let key = KeyBuf::new().push_u64(10_000 + next % 1_000).finish();
            tree.insert(&db, &key, next).unwrap();
            tree.delete(&db, &key).unwrap()
        })
    });
    g.finish();
}

/// What the pool itself costs per operation, at the two sizes the
/// end-to-end benchmark runs it: a commit against 32 768 cached frames
/// (`tpcc_hot`), a miss with 256 (`tpcc_cold`), over clean frames or
/// dirty ones — and what a hit costs, alone and beside a thread that is
/// busy in the store (`writers2`).
fn bench_buffer_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("buffer_pool");
    g.sample_size(20);
    let cached = |pages: u64, frames: usize| {
        let chip = FlashChip::new(FlashConfig::scaled(1024));
        let store = build_store(chip, MethodKind::Opu, StoreOptions::new(pages)).unwrap();
        let db = Database::new(store, frames).with_durability(Durability::Commit);
        for pid in 0..frames as u64 {
            db.with_page(pid, |_| ()).unwrap();
        }
        db
    };
    // A read-only transaction stages nothing: begin + commit is the pool's
    // fixed cost per transaction.
    let db = cached(32_768, 32_768);
    g.bench_function("pool_commit_readonly_32k_frames", |b| {
        b.iter(|| {
            db.begin().unwrap();
            db.commit().unwrap()
        })
    });
    // Cycling through four times as many pages as frames misses every time:
    // pick the victim, read one (never-written) page from the store.
    let db = cached(1_024, 256);
    let mut pid = 0u64;
    g.bench_function("pool_miss_256_frames", |b| {
        b.iter(|| {
            pid = (pid + 1) % 1_024;
            db.with_page(pid, |page| page[0]).unwrap()
        })
    });
    // The same cycle writing every page it touches, each write an
    // auto-committed OPU write: every frame is dirty and none holds an
    // image, the worst case of the clean-first pick (no clean frame
    // anywhere). The row includes the victim's write-back.
    let chip = FlashChip::new(FlashConfig::scaled(1024));
    let db =
        Database::new(build_store(chip, MethodKind::Opu, StoreOptions::new(1_024)).unwrap(), 256);
    let mut pid = 0u64;
    g.bench_function("pool_miss_256_frames_dirty", |b| {
        b.iter(|| {
            pid = (pid + 1) % 1_024;
            db.with_page_mut(pid, |page| page.write_u64(0, pid)).unwrap()
        })
    });
    // Buffer hits, 64 to an iteration (the harness reads the clock twice
    // around each iteration, which costs about what one hit does): a plain
    // read, then — inside an open transaction, as a B+-tree insert makes
    // them — a structural read and a mutation, and the mutation again while
    // a second thread holds the store half of the time, as the other
    // writer's commit protocol does.
    const HITS: u64 = 64;
    let db = cached(1_024, 1_024);
    g.bench_function("pool_hit_read", |b| {
        b.iter(|| (0..HITS).map(|pid| db.with_page(pid, |page| page[0]).unwrap()).max())
    });
    db.begin().unwrap();
    g.bench_function("pool_hit_read_struct", |b| {
        b.iter(|| (0..HITS).map(|pid| db.with_page_struct(pid, |page| page[0]).unwrap()).max())
    });
    let mutate = |b: &mut criterion::Bencher| {
        b.iter(|| {
            for pid in 0..HITS {
                db.with_page_mut(pid, |page| page.write_u64(0, pid)).unwrap();
            }
        })
    };
    g.bench_function("pool_hit_mutate_txn", mutate);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let spin = |us| {
                let from = Instant::now();
                while from.elapsed() < Duration::from_micros(us) {
                    std::hint::spin_loop();
                }
            };
            while !done.load(Ordering::Relaxed) {
                db.with_store(|_| spin(20));
                spin(20);
            }
        });
        g.bench_function("pool_hit_mutate_txn_store_busy", mutate);
        done.store(true, Ordering::Relaxed);
    });
    db.abort().unwrap();
    g.finish();
}

criterion_group!(
    benches,
    bench_diff_codec,
    bench_flash_ops,
    bench_method_round_trips,
    bench_commit_staging,
    bench_gc,
    bench_btree,
    bench_buffer_pool
);
criterion_main!(benches);
