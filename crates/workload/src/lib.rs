//! # pdl-workload — synthetic workloads and experiment drivers
//!
//! Reproduces the experimental methodology of §5.1 of the paper:
//!
//! * An **update operation** consists of "(1) reading the addressed page;
//!   (2) changing the data in the page; and (3) writing the updated page",
//!   executed directly against the page store so DBMS buffering effects
//!   are excluded.
//! * `N_updates_till_write` is the number of update commands applied to a
//!   logical page in memory between recreating it from flash and
//!   reflecting it back — one *measured* update operation therefore spans
//!   one read-modify-reflect cycle with `N` in-memory changes (this is the
//!   denominator under which OPU's cost is flat in Figure 13).
//! * `%ChangedByOneU_Op` is the fraction of the logical page changed by a
//!   single update command; "the portion of data to be changed is randomly
//!   selected" — a contiguous run at a uniformly random offset.
//! * Mixes of read-only and update operations are driven by `%UpdateOps`
//!   (Experiment 4).
//! * A database is loaded to ~50% space utilisation (as in the paper) and
//!   warmed until "garbage collection is invoked for each block at least
//!   ten times on the average", scaled down by default (see [`Scale`]).

#![forbid(unsafe_code)]

mod driver;
mod measure;
mod mutate;
pub mod obs;
mod readers;
mod report;
mod scale;
mod struct_writers;
mod txn;

pub use driver::{load_database, run_mix_workload, run_update_workload, MixConfig, UpdateConfig};
pub use measure::{Measurement, StepCosts};
pub use mutate::{Placement, UpdateGen};
pub use readers::{run_snapshot_read_workload, SnapshotReadConfig, SnapshotReadResult};
pub use report::{format_us, wear_table, Table};
pub use scale::{chip_for, db_pages_for, Scale};
pub use struct_writers::{run_struct_writers_workload, StructWritersConfig, StructWritersResult};
pub use txn::{run_txn_commit_workload, TxnCommitConfig, TxnCommitResult};
