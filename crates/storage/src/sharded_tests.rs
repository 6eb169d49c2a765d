//! `Database` over a `ShardedStore`: one frame cache over every shard.
//! Group commit, read views that see a cross-shard commit whole or not
//! at all, and observability exports that span every chip. (Eviction
//! pressure and free cache hits over two shards are `buffer.rs` tests.)

mod tests {
    use crate::{Database, Durability};
    use pdl_core::{MethodKind, PageStore, ShardedStore, StoreOptions};
    use pdl_flash::FlashConfig;
    use pdl_obs::LatencyClass;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    const KIND: MethodKind = MethodKind::Pdl { max_diff_size: 128 };

    fn store(shards: usize, pages: u64, obs: bool) -> ShardedStore {
        let opts = StoreOptions::new(pages).with_obs(obs);
        ShardedStore::with_uniform_chips(FlashConfig::tiny(), shards, KIND, opts).unwrap()
    }

    fn sharded_db(shards: usize, pages: u64, capacity: usize, obs: bool) -> Database {
        Database::new(Box::new(store(shards, pages, obs)), capacity)
            .with_durability(Durability::Commit)
    }

    fn db(shards: usize, pages: u64, capacity: usize) -> Database {
        sharded_db(shards, pages, capacity, false)
    }

    /// Write `byte` over the first four bytes of `pid` in a transaction of
    /// its own on the calling thread.
    fn commit_one(d: &Database, pid: u64, byte: u8) {
        d.begin().unwrap();
        d.with_page_mut(pid, |page| page.write(0, &[byte; 4])).unwrap();
        d.commit().unwrap();
    }

    fn recover(d: Database, pages: u64) -> ShardedStore {
        let chips = d.into_store_without_flush().into_chips();
        ShardedStore::recover(chips, KIND, StoreOptions::new(pages)).unwrap()
    }

    #[test]
    fn obs_records_solo_and_group_commit_latency() {
        let d = sharded_db(2, 16, 8, true);
        assert!(d.obs_enabled());
        // Solo commit: one writer, nobody to group with.
        commit_one(&d, 0, 1);
        let snap = d.obs_snapshot();
        let solo = snap.hist(LatencyClass::CommitSolo);
        assert_eq!(solo.count(), 1);
        assert!(solo.sum_us() > 0, "a solo commit flushes flash time");
        assert_eq!(snap.hist(LatencyClass::CommitGroup).count(), 0, "no group yet");
        let commits: Vec<_> = snap.spans.iter().filter(|s| s.name == "commit").collect();
        assert_eq!(commits.len(), 1);
        assert_eq!(commits[0].ctx, "solo");
        // The chips' op histograms are folded in with the commit
        // histograms, and the trace renders one track per shard plus the
        // commit track.
        assert!(snap.hist(LatencyClass::ProgramUser).count() > 0, "commit programmed pages");
        let trace = d.obs_trace_json();
        for track in ["\"shard0\"", "\"shard1\"", "\"commit\""] {
            assert!(trace.contains(track), "{track} missing");
        }

        // Racing commits: whether or not any batch absorbs companions,
        // every commit lands exactly one sample in solo or group.
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let d = &d;
                scope.spawn(move || commit_one(d, 8 + w, 7));
            }
        });
        let snap = d.obs_snapshot();
        let total = snap.hist(LatencyClass::CommitSolo).count()
            + snap.hist(LatencyClass::CommitGroup).count();
        assert_eq!(total, 5, "the first solo commit plus one sample per racer");
    }

    #[test]
    fn obs_disabled_records_nothing() {
        let d = db(2, 16, 8);
        assert!(!d.obs_enabled());
        commit_one(&d, 0, 1);
        let snap = d.obs_snapshot();
        assert!(!snap.enabled);
        assert_eq!(snap.spans.len(), 0);
        for class in LatencyClass::ALL {
            assert_eq!(snap.hist(class).count(), 0, "{}", class.name());
        }
    }

    #[test]
    fn obs_exports_span_every_chip_of_a_sharded_store() {
        let d = Database::new(Box::new(store(4, 32, true)), 8);
        for pid in 0..32u64 {
            d.with_page_mut(pid, |page| page.write(0, &[3; 4])).unwrap();
        }
        d.flush().unwrap();
        let snap = d.obs_snapshot();
        assert!(snap.enabled);
        let programs = snap.hist(LatencyClass::ProgramUser).count();
        assert_eq!(programs, d.io_stats().user.writes, "every shard's programs are counted");
        let trace = d.obs_trace_json();
        for s in 0..4 {
            assert!(trace.contains(&format!("\"shard{s}\"")), "shard{s} track missing");
        }
        assert!(!trace.contains("\"commit\""), "no durable commit, no commit track");
    }

    /// Eight committers, one page each, while another thread holds the
    /// store: the first, alone with no other transaction open, leads a
    /// batch of one and waits for the store; the other seven begin only
    /// then, queue behind it and ride one batch.
    #[test]
    fn group_commit_batches_share_flushes() {
        let loaded = || {
            let d = sharded_db(2, 16, 16, true);
            for pid in 0..16u64 {
                d.with_page_mut(pid, |page| page.write(0, &[9; 4])).unwrap();
            }
            d.flush().unwrap();
            d
        };
        let solo = loaded();
        let before = solo.io_stats().total();
        for i in 0..8u64 {
            commit_one(&solo, i, i as u8);
        }
        let solo_writes = (solo.io_stats().total() - before).writes;

        let d = loaded();
        let before = d.io_stats().total();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let d = &d;
            scope.spawn(move || {
                d.with_store(|_| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                })
            });
            entered_rx.recv().unwrap();
            scope.spawn(move || commit_one(d, 0, 0));
            let deadline = Instant::now() + Duration::from_secs(20);
            while !d.batch_running() && Instant::now() < deadline {
                std::thread::yield_now();
            }
            for i in 1..8u64 {
                scope.spawn(move || commit_one(d, i, i as u8));
            }
            while d.queued_commits() < 7 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            let queued = d.queued_commits();
            release_tx.send(()).unwrap();
            assert_eq!(queued, 7, "seven committers queue behind the leader");
        });
        let snap = d.obs_snapshot();
        assert_eq!(snap.hist(LatencyClass::CommitSolo).count(), 1, "the leader's batch of one");
        assert_eq!(snap.hist(LatencyClass::CommitGroup).count(), 7, "one batch of seven");
        let grouped_writes = (d.io_stats().total() - before).writes;
        assert!(
            grouped_writes < solo_writes,
            "a batch shares its flushes (grouped {grouped_writes} vs solo {solo_writes})"
        );
        let mut back = recover(d, 16);
        let mut out = vec![0u8; back.logical_page_size()];
        for pid in 0..8u64 {
            back.read_page(pid, &mut out).unwrap();
            assert_eq!(out[..4], [pid as u8; 4], "pid {pid} after recovery");
        }
    }

    #[test]
    fn concurrent_writers_on_distinct_shards() {
        let d = db(4, 64, 16);
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let d = &d;
                scope.spawn(move || {
                    // Worker w touches only pids with pid % 4 == w: its
                    // own shard.
                    for i in 0..16u64 {
                        let pid = i * 4 + w;
                        d.with_page_mut(pid, |page| page.write(0, &[w as u8 + 1; 8])).unwrap();
                    }
                });
            }
        });
        for pid in 0..64u64 {
            let b = d.with_page(pid, |page| page[0]).unwrap();
            assert_eq!(b as u64, pid % 4 + 1, "pid {pid}");
        }
    }

    #[test]
    fn flush_makes_state_durable_across_recovery() {
        let d = db(2, 16, 4);
        for pid in 0..16u64 {
            d.with_page_mut(pid, |page| page.write(3, &[0xEE])).unwrap();
        }
        d.flush().unwrap();
        let mut back = recover(d, 16);
        let mut out = vec![0u8; back.logical_page_size()];
        for pid in 0..16u64 {
            back.read_page(pid, &mut out).unwrap();
            assert_eq!(out[3], 0xEE, "pid {pid}");
        }
    }

    #[test]
    fn view_hides_a_group_commit_across_shards() {
        let d = db(4, 16, 16);
        for pid in 0..16u64 {
            d.with_page_mut(pid, |page| page.write(0, &[1; 4])).unwrap();
        }
        let view = d.begin_read();
        // One transaction spanning all four shards.
        d.begin().unwrap();
        for pid in 0..4u64 {
            d.with_page_mut(pid, |page| page.write(0, &[9; 4])).unwrap();
        }
        // Mid-flight: the view reads the pending pre-images.
        for pid in 0..4u64 {
            assert_eq!(d.with_page_at(&view, pid, |pg| pg[0]).unwrap(), 1, "pid {pid}");
        }
        d.commit().unwrap();
        // Committed: the view still reads the pre-commit images on every
        // shard; current reads see the commit on every shard.
        for pid in 0..4u64 {
            assert_eq!(d.with_page_at(&view, pid, |pg| pg[0]).unwrap(), 1, "pid {pid}");
            assert_eq!(d.with_page(pid, |pg| pg[0]).unwrap(), 9, "pid {pid}");
        }
        d.release_read(view);
        assert_eq!(d.retained_versions(), 0);
        // A view opened after the commit sees all of it.
        let after = d.begin_read();
        for pid in 0..4u64 {
            assert_eq!(d.with_page_at(&after, pid, |pg| pg[0]).unwrap(), 9, "pid {pid}");
        }
        d.release_read(after);
    }

    #[test]
    fn scanners_race_committing_writers_and_stay_consistent() {
        // 2 snapshot scanners race 2 committing writers; every scan must
        // observe, per writer, one atomic prefix of its commit sequence:
        // all of a writer's pages carry the same round stamp.
        const ROUNDS: u64 = 40;
        const WRITERS: u64 = 2;
        const GROUP: u64 = 4; // pages per writer, contiguous => spans shards
        let d = db(4, WRITERS * GROUP, 16);
        let stamp = |d: &Database, w: u64, round: u64| {
            d.begin().unwrap();
            for k in 0..GROUP {
                d.with_page_mut(w * GROUP + k, |page| page.write(0, &round.to_le_bytes())).unwrap();
            }
            d.commit().unwrap();
        };
        for w in 0..WRITERS {
            stamp(&d, w, 0);
        }
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let d = &d;
                scope.spawn(move || (1..=ROUNDS).for_each(|round| stamp(d, w, round)));
            }
            for _ in 0..2 {
                let d = &d;
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        // Guard-style view: released on drop at the end of
                        // the iteration, leak-proof against panics in the
                        // assertions below.
                        let view = d.read_view();
                        for w in 0..WRITERS {
                            let stamps: Vec<u64> = (0..GROUP)
                                .map(|k| {
                                    d.with_page_at(&view, w * GROUP + k, |pg| {
                                        u64::from_le_bytes(pg[0..8].try_into().unwrap())
                                    })
                                    .unwrap()
                                })
                                .collect();
                            assert!(
                                stamps.iter().all(|s| *s == stamps[0]),
                                "torn snapshot of writer {w}: {stamps:?}"
                            );
                        }
                    }
                });
            }
        });
        assert_eq!(d.retained_versions(), 0, "all views released, chains pruned");
    }

    #[test]
    fn touch_without_write_leaves_no_pending_undo() {
        let d = db(4, 8, 8);
        d.with_page_mut(0, |page| page.write(0, &[1; 4])).unwrap();
        // A transactional touch that never writes must not claim the
        // page: a later auto-committed write (from a thread with no
        // transaction) is legal and must survive the transaction's abort.
        d.begin().unwrap();
        d.with_page_mut(0, |_page| ()).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| d.with_page_mut(0, |page| page.write(0, &[2; 4])).unwrap());
        });
        d.abort().unwrap();
        assert_eq!(
            d.with_page(0, |pg| pg[0]).unwrap(),
            2,
            "abort must not undo a foreign auto-commit"
        );
    }

    #[test]
    fn auto_commit_writes_version_for_open_views() {
        let d = db(2, 8, 8);
        d.with_page_mut(3, |page| page.write(0, &[4; 4])).unwrap();
        let view = d.begin_read();
        d.with_page_mut(3, |page| page.write(0, &[5; 4])).unwrap();
        assert_eq!(d.with_page_at(&view, 3, |pg| pg[0]).unwrap(), 4);
        assert_eq!(d.with_page(3, |pg| pg[0]).unwrap(), 5);
        d.release_read(view);
        assert_eq!(d.retained_versions(), 0);
    }
}
