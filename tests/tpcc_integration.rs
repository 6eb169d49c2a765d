//! TPC-C integration: run the full mix over the full stack (buffer pool,
//! heap files, B+-trees, page-update method) and verify database
//! consistency afterwards — on every method of Figure 18.

use page_differential_logging::prelude::*;
use pdl_tpcc::{load, run_mix, TpccDb, TpccRand, TpccScale, TxnKind};

fn build_tpcc(kind: MethodKind, buffer_pages: usize) -> TpccDb {
    build_tpcc_with(kind, buffer_pages, Durability::Relaxed)
}

fn build_tpcc_with(kind: MethodKind, buffer_pages: usize, durability: Durability) -> TpccDb {
    let scale = TpccScale::tiny();
    let num_pages = scale.estimated_loaded_pages(2048) * 3 + 512;
    let blocks = ((num_pages * 4).div_ceil(64) + 16) as u32;
    let chip = FlashChip::new(FlashConfig::scaled(blocks));
    let store = build_store(chip, kind, StoreOptions::new(num_pages)).unwrap();
    load(Database::new(store, buffer_pages).with_durability(durability), scale, 0x7CC).unwrap()
}

/// TPC-C consistency condition 1 (clause 3.3.2.1): for every district,
/// D_NEXT_O_ID - 1 equals the maximum O_ID in ORDER.
fn check_district_order_consistency(t: &mut TpccDb) {
    let mut max_o: std::collections::HashMap<(u32, u8), u32> = std::collections::HashMap::new();
    let mut order_count = 0u32;
    t.order
        .scan(&t.db, |_, bytes| {
            let o = pdl_tpcc::schema::Order::decode(bytes);
            let e = max_o.entry((o.w_id, o.d_id)).or_insert(0);
            *e = (*e).max(o.o_id);
            order_count += 1;
        })
        .unwrap();
    assert!(order_count > 0);
    for w in 1..=t.scale.warehouses {
        for d in 1..=t.scale.districts_per_warehouse as u8 {
            let next = t.district_row(w, d).unwrap().1.next_o_id;
            let max = max_o.get(&(w, d)).copied().unwrap_or(0);
            assert_eq!(next, max + 1, "district ({w},{d})");
        }
    }
}

/// Every ORDER has exactly O_OL_CNT order lines (consistency condition 3
/// spirit), checked through the order-line index.
fn check_order_lines(t: &mut TpccDb) {
    let mut orders: Vec<pdl_tpcc::schema::Order> = Vec::new();
    t.order
        .scan(&t.db, |_, bytes| {
            orders.push(pdl_tpcc::schema::Order::decode(bytes));
        })
        .unwrap();
    // Sample a subset to keep the test fast.
    for o in orders.iter().step_by(7) {
        let lo = KeyBuf::new()
            .push_u16(o.w_id as u16)
            .push_u8(o.d_id)
            .push_u32(o.o_id)
            .push_u8(0)
            .finish();
        let hi = KeyBuf::new()
            .push_u16(o.w_id as u16)
            .push_u8(o.d_id)
            .push_u32(o.o_id)
            .push_u8(u8::MAX)
            .finish();
        let mut n = 0;
        t.idx_order_line
            .range(&t.db, &lo, &hi, |_, _| {
                n += 1;
                true
            })
            .unwrap();
        assert_eq!(n, o.ol_cnt as usize, "order ({},{},{})", o.w_id, o.d_id, o.o_id);
    }
}

/// NEW-ORDER rows correspond exactly to undelivered orders.
fn check_new_orders_undelivered(t: &mut TpccDb) {
    let mut new_orders: Vec<pdl_tpcc::schema::NewOrder> = Vec::new();
    t.new_order
        .scan(&t.db, |_, bytes| {
            new_orders.push(pdl_tpcc::schema::NewOrder::decode(bytes));
        })
        .unwrap();
    for no in new_orders.iter().step_by(5) {
        let key =
            KeyBuf::new().push_u16(no.w_id as u16).push_u8(no.d_id).push_u32(no.o_id).finish();
        let rid = t.idx_order.get(&t.db, &key).unwrap().expect("order for new-order");
        let o =
            t.order.get(&t.db, RecordId::from_u64(rid), pdl_tpcc::schema::Order::decode).unwrap();
        assert_eq!(o.carrier_id, 0, "new-order rows must be undelivered");
    }
}

#[test]
fn mix_preserves_consistency_on_pdl() {
    let mut t = build_tpcc(MethodKind::Pdl { max_diff_size: 256 }, 64);
    let mut r = TpccRand::new(1);
    let stats = run_mix(&mut t, &mut r, 400).unwrap();
    assert_eq!(stats.total(), 400);
    check_district_order_consistency(&mut t);
    check_order_lines(&mut t);
    check_new_orders_undelivered(&mut t);
}

#[test]
fn mix_runs_on_every_figure18_method() {
    for kind in MethodKind::paper_five() {
        let mut t = build_tpcc(kind, 32);
        let mut r = TpccRand::new(2);
        let stats = run_mix(&mut t, &mut r, 150).unwrap();
        assert_eq!(stats.total(), 150, "{}", kind.label());
        assert!(t.io_time_us() > 0, "{}", kind.label());
        check_district_order_consistency(&mut t);
    }
}

#[test]
fn tpcc_state_survives_flush_crash_recovery() {
    let kind = MethodKind::Pdl { max_diff_size: 256 };
    let mut t = build_tpcc(kind, 64);
    let mut r = TpccRand::new(3);
    run_mix(&mut t, &mut r, 200).unwrap();

    // Capture a few rows, flush everything, crash, recover, re-open at
    // the remembered roots (this store keeps no root log).
    let w_ytd = t.warehouse_row(1).unwrap().1.ytd;
    let d_next = t.district_row(1, 1).unwrap().1.next_o_id;
    let allocated = t.db.allocated_pages();
    let num_pages = t.db.io_stats(); // just to exercise the accessor
    let _ = num_pages;
    let (scale, roots) = (t.scale, t.roots());
    let store = t.db.into_store().unwrap();
    let opts = *store.options();
    let chip = store.into_chip();
    let store = recover_store(chip, kind, opts).unwrap();
    let mut t =
        TpccDb::open(Database::new_with_allocated(store, 64, allocated), scale, roots).unwrap();

    assert_eq!(t.warehouse_row(1).unwrap().1.ytd, w_ytd);
    assert_eq!(t.district_row(1, 1).unwrap().1.next_o_id, d_next);
    check_district_order_consistency(&mut t);

    // And the database still processes transactions.
    let stats = run_mix(&mut t, &mut r, 50).unwrap();
    assert_eq!(stats.total(), 50);
}

#[test]
fn delivery_eventually_drains_when_no_new_orders_arrive() {
    let mut t = build_tpcc(MethodKind::Opu, 64);
    let mut r = TpccRand::new(4);
    // Count initial new-orders, then run only DELIVERY transactions.
    let mut before = 0u32;
    t.new_order.scan(&t.db, |_, _| before += 1).unwrap();
    for _ in 0..before {
        pdl_tpcc::run_transaction(&mut t, &mut r, TxnKind::Delivery).unwrap();
    }
    let mut after = 0u32;
    t.new_order.scan(&t.db, |_, _| after += 1).unwrap();
    assert_eq!(after, 0, "all initial new-orders deliverable");
    // Delivered orders carry a carrier and stamped lines.
    check_district_order_consistency(&mut t);
}

#[test]
fn durable_commits_survive_an_unflushed_crash() {
    // Durability::Commit: every TPC-C transaction lands a differential
    // commit record, so a crash *without any flush* must still preserve
    // every committed transaction — and roll back nothing but the 1%
    // NEW-ORDER aborts, which check_district_order_consistency would
    // expose if their district bump leaked.
    let kind = MethodKind::Pdl { max_diff_size: 256 };
    let mut t = build_tpcc_with(kind, 64, Durability::Commit);
    let mut r = TpccRand::new(9);
    let stats = run_mix(&mut t, &mut r, 150).unwrap();
    assert_eq!(stats.total(), 150);

    let w_ytd = t.warehouse_row(1).unwrap().1.ytd;
    let d_next = t.district_row(1, 1).unwrap().1.next_o_id;
    let allocated = t.db.allocated_pages();
    // Crash: no flush, the buffer pool's clean state is lost outright.
    // Every transaction committed or aborted, so the committed roots,
    // remembered here, survive the crash with the commit records.
    let (scale, roots) = (t.scale, t.roots());
    let store = t.db.into_store_without_flush();
    let opts = *store.options();
    let chip = store.into_chip();
    let store = recover_store(chip, kind, opts).unwrap();
    let db = Database::new_with_allocated(store, 64, allocated).with_durability(Durability::Commit);
    let mut t = TpccDb::open(db, scale, roots).unwrap();

    assert_eq!(t.warehouse_row(1).unwrap().1.ytd, w_ytd, "committed PAYMENT lost");
    assert_eq!(t.district_row(1, 1).unwrap().1.next_o_id, d_next, "committed NEW-ORDER lost");
    check_district_order_consistency(&mut t);

    // And the recovered database keeps committing durably.
    let stats = run_mix(&mut t, &mut r, 50).unwrap();
    assert_eq!(stats.total(), 50);
    check_district_order_consistency(&mut t);
}
