//! # pdl-tpcc — the TPC-C benchmark workload
//!
//! The paper's Experiment 7 runs "the TPC-C benchmark as a real workload"
//! and reports I/O time per transaction as the DBMS buffer size varies
//! from 0.1% to 10% of the database size (Figure 18). This crate
//! implements the TPC-C schema, initial population and the five
//! transactions of the standard mix over the `pdl-storage` engine, so the
//! same workload can be replayed against every page-update method.
//!
//! Scale is configurable ([`TpccScale`]): row layouts are the spec's, row
//! *counts* shrink so the database keeps the paper's ratio to the emulated
//! chip (see DESIGN.md §2).

#![forbid(unsafe_code)]

mod db;
mod error;
mod loader;
mod random;
pub mod schema;
mod txn;

pub use db::{TpccDb, TpccScale};
pub use error::TpccError;
pub use loader::load;
pub use random::TpccRand;
pub use txn::{pick_transaction, run_mix, run_transaction, TxnKind, TxnStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TpccError>;

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::{build_store, MethodKind, StoreOptions};
    use pdl_flash::{FlashChip, FlashConfig};
    use pdl_storage::Database;

    fn tiny_db(kind: MethodKind) -> TpccDb {
        let scale = TpccScale::tiny();
        let pages = scale.estimated_loaded_pages(2048) * 3 + 64;
        let blocks = ((pages * 4) / 64 + 8) as u32;
        let chip = FlashChip::new(FlashConfig::scaled(blocks));
        let store = build_store(chip, kind, StoreOptions::new(pages)).unwrap();
        let db = Database::new(store, 32);
        load(db, scale, 42).unwrap()
    }

    #[test]
    fn loads_and_checks_cardinalities() {
        let t = tiny_db(MethodKind::Opu);
        let scale = t.scale;
        let mut customers = 0;
        t.customer.scan(&t.db, |_, _| customers += 1).unwrap();
        assert_eq!(
            customers,
            (scale.warehouses * scale.districts_per_warehouse * scale.customers_per_district)
                as usize
        );
        let mut stock = 0;
        t.stock.scan(&t.db, |_, _| stock += 1).unwrap();
        assert_eq!(stock, (scale.warehouses * scale.items) as usize);
        let mut orders = 0;
        t.order.scan(&t.db, |_, _| orders += 1).unwrap();
        assert_eq!(
            orders,
            (scale.warehouses * scale.districts_per_warehouse * scale.orders_per_district) as usize
        );
        // ~30% of orders are undelivered.
        let mut new_orders = 0;
        t.new_order.scan(&t.db, |_, _| new_orders += 1).unwrap();
        let expect =
            scale.orders_per_district * 3 / 10 * scale.warehouses * scale.districts_per_warehouse;
        assert_eq!(new_orders as u32, expect);
    }

    #[test]
    fn estimate_bounds_real_load() {
        let t = tiny_db(MethodKind::Opu);
        let est = t.scale.estimated_loaded_pages(2048);
        let actual = t.db.allocated_pages();
        assert!(actual <= est * 2 && est <= actual * 3, "estimate {est} vs actual {actual}");
        // Data is durable and readable after load.
        let (_, w) = t.warehouse_row(1).unwrap();
        assert_eq!(w.w_id, 1);
    }

    #[test]
    fn all_five_transactions_run() {
        let mut t = tiny_db(MethodKind::Pdl { max_diff_size: 256 });
        let mut r = TpccRand::new(7);
        for kind in TxnKind::ALL {
            for _ in 0..5 {
                run_transaction(&mut t, &mut r, kind).unwrap();
            }
        }
    }

    #[test]
    fn new_order_advances_district_counter_and_is_readable() {
        let mut t = tiny_db(MethodKind::Opu);
        let mut r = TpccRand::new(1);
        let before = t.district_row(1, 1).unwrap().1.next_o_id;
        let mut committed = 0;
        for _ in 0..20 {
            if run_transaction(&mut t, &mut r, TxnKind::NewOrder).unwrap() {
                committed += 1;
            }
        }
        // All districts together advanced by the committed count.
        let mut total_after = 0;
        let mut total_before = 0;
        for d in 1..=t.scale.districts_per_warehouse as u8 {
            total_after += t.district_row(1, d).unwrap().1.next_o_id;
            total_before += t.scale.orders_per_district + 1;
        }
        assert_eq!(total_after - total_before, committed);
        let _ = before;
    }

    #[test]
    fn payment_updates_balances_and_ytd() {
        let mut t = tiny_db(MethodKind::Opu);
        let mut r = TpccRand::new(2);
        let w_before = t.warehouse_row(1).unwrap().1.ytd;
        for _ in 0..10 {
            run_transaction(&mut t, &mut r, TxnKind::Payment).unwrap();
        }
        let w_after = t.warehouse_row(1).unwrap().1.ytd;
        assert!(w_after > w_before, "warehouse YTD must grow");
        let mut history = 0;
        t.history.scan(&t.db, |_, _| history += 1).unwrap();
        let loaded =
            t.scale.warehouses * t.scale.districts_per_warehouse * t.scale.customers_per_district;
        assert_eq!(history as u32, loaded + 10);
    }

    #[test]
    fn delivery_drains_new_orders() {
        let mut t = tiny_db(MethodKind::Opu);
        let mut r = TpccRand::new(3);
        let mut before = 0;
        t.new_order.scan(&t.db, |_, _| before += 1).unwrap();
        run_transaction(&mut t, &mut r, TxnKind::Delivery).unwrap();
        let mut after = 0;
        t.new_order.scan(&t.db, |_, _| after += 1).unwrap();
        // One order per district was delivered.
        assert_eq!(before - after, t.scale.districts_per_warehouse as usize);
    }

    #[test]
    fn read_only_transactions_see_a_frozen_snapshot() {
        let mut t = tiny_db(MethodKind::Pdl { max_diff_size: 256 });
        let mut r = TpccRand::new(9);
        // Freeze a view, then commit NEW-ORDERs that advance district
        // counters and insert orders.
        let view = t.db.begin_read();
        let d_before = t.district_row(1, 1).unwrap().1.next_o_id;
        let mut advanced = 0;
        while advanced == 0 {
            for _ in 0..10 {
                if run_transaction(&mut t, &mut r, TxnKind::NewOrder).unwrap() {
                    advanced += 1;
                }
            }
        }
        // Through the snapshot, every district counter is still at its
        // open-time value; current reads see the advances.
        let snap = t.db.snapshot(&view);
        let snap_next = t.district_row_at(&snap, 1, 1).unwrap().1.next_o_id;
        assert_eq!(snap_next, d_before, "view must not see post-open commits");
        let mut totals = (0u32, 0u32);
        for d in 1..=t.scale.districts_per_warehouse as u8 {
            totals.0 += t.district_row_at(&snap, 1, d).unwrap().1.next_o_id;
            totals.1 += t.district_row(1, d).unwrap().1.next_o_id;
        }
        assert_eq!(totals.1 - totals.0, advanced, "current state advanced past the snapshot");
        let _ = snap;
        t.db.release_read(view);
    }

    #[test]
    fn mix_runs_and_counts() {
        let mut t = tiny_db(MethodKind::Ipl { log_bytes_per_block: 18 * 1024 });
        let mut r = TpccRand::new(4);
        let stats = run_mix(&mut t, &mut r, 200).unwrap();
        assert_eq!(stats.total(), 200);
        assert!(stats.new_order > 60, "{stats:?}");
        assert!(stats.payment > 60, "{stats:?}");
        assert!(stats.order_status > 0 && stats.delivery > 0 && stats.stock_level > 0);
        assert!(t.io_time_us() > 0);
    }
}
