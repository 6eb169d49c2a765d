//! # page-differential-logging
//!
//! A full reproduction of **"Page-Differential Logging: An Efficient and
//! DBMS-independent Approach for Storing Data into Flash Memory"**
//! (Yi-Reun Kim, Kyu-Young Whang, Il-Yeol Song — SIGMOD 2010), as a Rust
//! workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`flash`] | NAND chip emulator (Table 1 geometry/timing, 1→0 programming, NOP budgets, erase, wear, fault injection) |
//! | [`core`] | the page-update methods: **PDL** (the paper's contribution), OPU, IPU and IPL, over a shared FTL with greedy GC — plus [`core::ShardedStore`], which stripes the page space across N chips |
//! | [`storage`] | DBMS substrate and the one concurrent path: [`storage::Database`], a buffer pool with group commit and read views, plus slotted pages, heap files, B+-tree |
//! | [`tpcc`] | the TPC-C workload of Experiment 7 |
//! | [`workload`] | the synthetic update-operation drivers of Experiments 1–6 and the concurrent `Database` drivers |
//!
//! Every table and figure of the paper's evaluation is regenerated by a
//! bench target in `crates/bench` — see EXPERIMENTS.md.
//!
//! ## Quick start
//!
//! ```
//! use page_differential_logging::prelude::*;
//!
//! // A scaled-down chip with the paper's page/block shape and timing.
//! let chip = FlashChip::new(FlashConfig::scaled(16));
//!
//! // Page-differential logging with Max_Differential_Size = 256 bytes.
//! let mut store = build_store(
//!     chip,
//!     MethodKind::Pdl { max_diff_size: 256 },
//!     StoreOptions::new(256),
//! )
//! .unwrap();
//!
//! // Write, update, read back; the differential write buffer and base
//! // pages are managed underneath.
//! let mut page = vec![0u8; store.logical_page_size()];
//! store.write_page(7, &page).unwrap();
//! page[100..120].fill(0xAB);
//! store.write_page(7, &page).unwrap();
//!
//! let mut out = vec![0u8; page.len()];
//! store.read_page(7, &mut out).unwrap();
//! assert_eq!(out, page);
//!
//! // Simulated flash I/O time, straight from Table 1 latencies.
//! let t = store.chip().stats().total();
//! assert!(t.total_us() > 0);
//! ```

#![forbid(unsafe_code)]

pub use pdl_core as core;
pub use pdl_flash as flash;
pub use pdl_storage as storage;
pub use pdl_tpcc as tpcc;
pub use pdl_workload as workload;

/// The common imports for building and driving page stores.
pub mod prelude {
    pub use pdl_core::{
        build_store, recover_store, shard_pages, ChangeRange, CoreError, GcPolicy, Ipl, Ipu,
        MethodKind, Opu, PageStore, Pdl, ShardedStore, StoreOptions,
    };
    pub use pdl_flash::{
        BlockId, FlashChip, FlashConfig, FlashGeometry, FlashStats, FlashTiming, OpContext,
        PageKind, Ppn, WearSummary,
    };
    pub use pdl_storage::{BTree, Database, Durability, HeapFile, KeyBuf, RecordId, TxnId};
    pub use pdl_workload::{
        load_database, run_mix_workload, run_update_workload, MixConfig, Scale, UpdateConfig,
    };
}
