//! `tpcc_cold` and `tpcc_hot` — the TPC-C mix through
//! `tpcc -> Database -> PageStore -> FlashChip`, once with a buffer of about
//! 1 % of the data and once with a buffer that holds all of it.

use crate::rng::Digest;
use crate::run::{saturating_u32, HostClock, Layers, Measured, PoolDelta, Slices, Workload};
use crate::stats::percentile;
use crate::store::{Failures, StoreSpec, Torn};
use crate::trace::{FlashCost, Tracer};
use pdl_storage::{Database, Durability};
use pdl_tpcc::{load, pick_transaction, run_transaction, TpccDb, TpccRand, TpccScale, TxnKind};
use std::time::Instant;

pub struct Sizes {
    spec: StoreSpec,
    scale: TpccScale,
    frames: usize,
    durability: Durability,
    warmup_txns: u64,
    measured_txns: u64,
    /// Guards are relaxed in a smoke run.
    guarded: bool,
}

/// The database is the same for every `--seed`: the seed draws the
/// transaction stream, not the data it runs against. (Row lengths and with
/// them page fill and tree shape follow the load seed; letting them vary
/// moved host latency by twice the machine's own noise from seed to seed.)
const LOAD_SEED: u64 = 42;

/// Which of the two regimes a [`Tpcc`] run is in.
pub trait Regime {
    const NAME: &'static str;
    /// Buffer frames at full size.
    const FRAMES: usize;
    const DURABILITY: Durability;
    /// Transactions per second of `--seconds`, sized on the 2-core machine
    /// the baseline was taken on.
    const TXNS_PER_SECOND: u64;
    fn guards(pool: &PoolDelta, erases: u64) -> Vec<String>;
}

pub struct Cold;
pub struct Hot;

impl Regime for Cold {
    const NAME: &'static str = "tpcc_cold";
    /// About 1 % of the loaded data, the paper's Figure-18 setting.
    const FRAMES: usize = 256;
    const DURABILITY: Durability = Durability::Relaxed;
    const TXNS_PER_SECOND: u64 = 3_000;

    fn guards(pool: &PoolDelta, erases: u64) -> Vec<String> {
        let mut violations = Vec::new();
        let hit_rate = pool.hits as f64 / (pool.hits + pool.misses).max(1) as f64;
        if hit_rate >= 0.9 {
            violations.push(format!("pool hit rate {hit_rate:.3} is not below 0.9: not cold"));
        }
        if erases == 0 {
            violations.push("no erase in the measured phase".to_string());
        }
        violations
    }
}

impl Regime for Hot {
    const NAME: &'static str = "tpcc_hot";
    /// More than the final footprint, so nothing is ever evicted.
    const FRAMES: usize = 32_768;
    const DURABILITY: Durability = Durability::Commit;
    const TXNS_PER_SECOND: u64 = 4_000;

    fn guards(pool: &PoolDelta, _erases: u64) -> Vec<String> {
        if pool.evictions > 0 {
            vec![format!("{} evictions: the data no longer fits the buffer", pool.evictions)]
        } else {
            Vec::new()
        }
    }
}

pub struct Tpcc<R: Regime> {
    t: TpccDb,
    rand: TpccRand,
    spec: StoreSpec,
    measured_txns: u64,
    guarded: bool,
    /// Since load, warm-up included: what the consistency checks count on.
    committed_new_orders: u64,
    payments: u64,
    regime: std::marker::PhantomData<R>,
}

fn kind_index(kind: TxnKind) -> usize {
    TxnKind::ALL.iter().position(|k| *k == kind).expect("kind is in ALL")
}

/// Span name of each transaction kind, in `TxnKind::ALL` order.
const KIND_SPANS: [&str; 5] =
    ["tpcc.new_order", "tpcc.payment", "tpcc.order_status", "tpcc.delivery", "tpcc.stock_level"];

impl<R: Regime> Tpcc<R> {
    /// Run one transaction of the mix and keep the books the consistency
    /// checks need. `Ok(false)` is NEW-ORDER's 1 % spec rollback.
    fn transaction(&mut self, kind: TxnKind) -> pdl_tpcc::Result<bool> {
        let committed = run_transaction(&mut self.t, &mut self.rand, kind)?;
        match kind {
            TxnKind::NewOrder if committed => self.committed_new_orders += 1,
            TxnKind::Payment => self.payments += 1,
            _ => {}
        }
        Ok(committed)
    }
}

impl<R: Regime> Workload for Tpcc<R> {
    const NAME: &'static str = R::NAME;
    const THREADS: usize = 1;
    type Sizes = Sizes;

    fn sizes(seconds: u64, smoke: bool) -> Sizes {
        if smoke {
            let scale = TpccScale {
                warehouses: 1,
                districts_per_warehouse: 10,
                customers_per_district: 30,
                items: 1_000,
                orders_per_district: 30,
            };
            let spec = StoreSpec {
                shards: 1,
                blocks_per_chip: 24,
                logical_pages: 1_024,
                checkpoint_blocks: 0,
            };
            return Sizes {
                spec,
                scale,
                frames: R::FRAMES / 64,
                durability: R::DURABILITY,
                warmup_txns: 50,
                measured_txns: 10 * R::TXNS_PER_SECOND / 100,
                guarded: false,
            };
        }
        let spec = StoreSpec {
            shards: 1,
            blocks_per_chip: 1_024,
            logical_pages: 40_960,
            checkpoint_blocks: 0,
        };
        Sizes {
            spec,
            scale: TpccScale::scaled(2),
            frames: R::FRAMES,
            durability: R::DURABILITY,
            warmup_txns: 5_000,
            measured_txns: R::TXNS_PER_SECOND * seconds,
            guarded: true,
        }
    }

    fn setup(sizes: &Sizes, seed: u64) -> Result<Self, String> {
        let store = sizes.spec.build()?;
        let db = Database::new(store, sizes.frames).with_durability(sizes.durability);
        let t = load(db, sizes.scale, LOAD_SEED).map_err(|e| format!("load: {e}"))?;
        let mut this = Tpcc {
            t,
            rand: TpccRand::new(seed),
            spec: sizes.spec,
            measured_txns: sizes.measured_txns,
            guarded: sizes.guarded,
            committed_new_orders: 0,
            payments: 0,
            regime: std::marker::PhantomData,
        };
        for i in 0..sizes.warmup_txns {
            let kind = pick_transaction(&mut this.rand);
            this.transaction(kind).map_err(|e| format!("warm-up transaction {i}: {e}"))?;
        }
        Ok(this)
    }

    fn measure(&mut self, tracing: bool) -> Result<Measured, String> {
        let n = self.measured_txns;
        let mut tr = Tracer::new(tracing, 0, Instant::now());
        let mut flash = Vec::with_capacity(n as usize);
        let mut digest = Digest::default();
        let (mut failed_ops, mut rollbacks) = (0, 0);

        let pool_before = self.t.db.buffer_stats();
        let stats_before = self.t.db.io_stats();
        let started = Instant::now();
        let mut slices = Slices::start(n);
        for i in 0..n {
            let flash_before = self.t.db.io_stats();
            let t0 = Instant::now();
            tr.begin("op", i);
            tr.begin("tpcc.pick", i);
            let kind = pick_transaction(&mut self.rand);
            tr.end();
            let span = KIND_SPANS[kind_index(kind)];
            tr.begin(span, i);
            let result = self.transaction(kind);
            tr.end();
            tr.end();
            let t1 = Instant::now();
            slices.op_done(t0, t1);
            let cost = FlashCost::between(&flash_before, &self.t.db.io_stats());
            flash.push(saturating_u32(cost.total_us));
            tr.charge(span, cost);
            digest.fold(kind_index(kind) as u64);
            match result {
                Ok(true) => {}
                Ok(false) => rollbacks += 1,
                Err(_) => failed_ops += 1,
            }
        }
        let wall = started.elapsed();
        Ok(Measured {
            ops: n,
            failed_ops,
            wall,
            host: HostClock::of(&mut [slices]),
            flash_us: flash,
            flash: self.t.db.io_stats().delta_since(&stats_before),
            pool: Some(PoolDelta::between(&pool_before, &self.t.db.buffer_stats())),
            digest: digest.value(),
            tracer: tr,
            pairs: Vec::new(),
            conflict_retries: 0,
            rollbacks,
        })
    }

    fn guards(&self, m: &Measured) -> Vec<String> {
        if !self.guarded {
            return Vec::new();
        }
        R::guards(&m.pool.expect("tpcc runs report pool counters"), m.flash.total().erases)
    }

    /// TPC-C consistency conditions that the mix must preserve.
    fn check(&mut self, failures: &mut Failures) -> Result<(), String> {
        let t = &self.t;
        let scale = t.scale;
        let mut next_o_id_advance = 0u64;
        for w in 1..=scale.warehouses {
            let (_, warehouse) = t.warehouse_row(w).map_err(|e| format!("warehouse {w}: {e}"))?;
            let mut district_ytd_advance = 0.0;
            for d in 1..=scale.districts_per_warehouse as u8 {
                let (_, district) =
                    t.district_row(w, d).map_err(|e| format!("district {w}/{d}: {e}"))?;
                next_o_id_advance += (district.next_o_id - (scale.orders_per_district + 1)) as u64;
                district_ytd_advance += district.ytd - 30_000.0;
            }
            let warehouse_ytd_advance = warehouse.ytd - 300_000.0;
            failures.expect(
                (warehouse_ytd_advance - district_ytd_advance).abs()
                    <= 1e-6 * warehouse_ytd_advance.abs().max(1.0),
                format!(
                    "warehouse {w}: ytd advanced {warehouse_ytd_advance}, its districts' \
                     {district_ytd_advance}"
                ),
            );
        }
        failures.expect(
            next_o_id_advance == self.committed_new_orders,
            format!(
                "district next_o_id advanced {next_o_id_advance}, committed NEW-ORDERs {}",
                self.committed_new_orders
            ),
        );
        let mut history_rows = 0u64;
        t.history.scan(&t.db, |_, _| history_rows += 1).map_err(|e| format!("history: {e}"))?;
        let loaded = (scale.warehouses
            * scale.districts_per_warehouse
            * scale.customers_per_district) as u64;
        failures.expect(
            history_rows == loaded + self.payments,
            format!("{history_rows} HISTORY rows, {loaded} loaded + {} PAYMENTs", self.payments),
        );
        Ok(())
    }

    fn into_store(self) -> Result<Torn, String> {
        self.t.db.flush().map_err(|e| format!("final flush: {e}"))?;
        let pages = self.t.db.allocated_pages();
        let TpccDb { db, .. } = self.t;
        let store = db.into_store().map_err(|e| format!("into_store: {e}"))?;
        Ok(Torn { store, spec: self.spec, pages, expected: None })
    }

    fn layer_metrics(m: &mut Measured, out: &mut Layers) {
        for span in KIND_SPANS {
            let Some(agg) = m.tracer.agg_mut(span) else { continue };
            out.set(
                format!("{span}.host_us_p50"),
                percentile(&mut agg.durations, 50.0) as f64 / 1e3,
            );
            out.set(
                format!("{span}.host_us_p99"),
                percentile(&mut agg.durations, 99.0) as f64 / 1e3,
            );
            out.set(
                format!("{span}.flash_us"),
                agg.flash.total_us as f64 / agg.count.max(1) as f64,
            );
        }
        let new_orders = m.tracer.agg("tpcc.new_order").map_or(0, |a| a.count);
        out.set("tpcc.rollback_share", m.rollbacks as f64 / new_orders.max(1) as f64);
    }
}
