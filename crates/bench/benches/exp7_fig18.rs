//! Experiment 7 / Figure 18: the TPC-C benchmark — I/O time per
//! transaction as the DBMS buffer size varies from 0.1% to 10% of the
//! database size.

use pdl_bench::experiments::table1_banner;
use pdl_bench::tpcc_exp::{exp7, tpcc_scale_for, txns_for};
use pdl_workload::Scale;

fn main() {
    let scale = Scale::from_env();
    let t = tpcc_scale_for(scale);
    println!("# Experiment 7 (Figure 18): TPC-C");
    println!("{}", table1_banner(scale));
    println!(
        "TPC-C: {} warehouse(s), {} districts, {} customers/district, {} items, {} txns/point\n",
        t.warehouses,
        t.districts_per_warehouse,
        t.customers_per_district,
        t.items,
        txns_for(scale),
    );
    let started = std::time::Instant::now();
    match exp7(scale) {
        Ok((table, broken)) => {
            println!("{}", table.render());
            println!("(wall time: {:.1?})", started.elapsed());
            for b in &broken {
                eprintln!("Figure 18's ordering broken: {b}");
            }
            if !broken.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("experiment failed: {e}");
            std::process::exit(1);
        }
    }
}
