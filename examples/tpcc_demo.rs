//! Run a small TPC-C database through the full stack (buffer pool, heap
//! files, B+-trees) over two page-update methods and report per-kind I/O.
//!
//! Run with `cargo run --release --example tpcc_demo`.

use page_differential_logging::prelude::*;
use pdl_tpcc::{load, run_transaction, TpccRand, TpccScale, TxnKind};

fn run_for(kind: MethodKind) {
    let scale = TpccScale::scaled(1);
    let est = scale.estimated_loaded_pages(2048);
    let num_pages = est * 2 + 2_048;
    let blocks = ((num_pages * 4).div_ceil(64) + 16) as u32;
    let chip = FlashChip::new(FlashConfig::scaled(blocks));
    let store = build_store(chip, kind, StoreOptions::new(num_pages)).expect("store");
    let label = store.name();
    let db = Database::new(store, 256);
    let mut t = load(db, scale, 2026).expect("load TPC-C");
    println!(
        "\n=== {label}: loaded {} pages ({} warehouse(s), {} items) ===",
        t.db.allocated_pages(),
        scale.warehouses,
        scale.items
    );

    // Use a buffer of 1% of the database, as in the middle of Figure 18's
    // sweep.
    let loaded = t.db.allocated_pages();
    t.db.set_buffer_pages((loaded / 100).max(2) as usize).expect("resize the buffer");

    let mut r = TpccRand::new(99);
    println!("{:<14} {:>8} {:>14}", "transaction", "count", "io us/txn");
    for kind in TxnKind::ALL {
        t.db.reset_io_stats();
        let n = 60;
        for _ in 0..n {
            run_transaction(&mut t, &mut r, kind).expect("txn");
        }
        let io = t.db.io_stats().total();
        println!("{:<14} {:>8} {:>14.0}", kind.name(), n, io.total_us() as f64 / n as f64);
    }
    let b = t.db.buffer_stats();
    println!(
        "buffer: {:.1}% hit rate, {} dirty write-backs",
        b.hit_rate() * 100.0,
        b.dirty_writebacks
    );
}

fn main() {
    for kind in [MethodKind::Pdl { max_diff_size: 256 }, MethodKind::Opu] {
        run_for(kind);
    }
    println!(
        "\nPDL's writing-difference-only principle shows up as lower io/txn on \
         the write-heavy transaction kinds."
    );
}
