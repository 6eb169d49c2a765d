//! # pdl-core — page-update methods for flash storage
//!
//! This crate implements the storage methods studied in *Page-Differential
//! Logging: An Efficient and DBMS-independent Approach for Storing Data
//! into Flash Memory* (Kim, Whang, Song — SIGMOD 2010):
//!
//! * [`Pdl`] — **page-differential logging**, the paper's contribution: a
//!   logical page is a base page plus at most one differential, computed
//!   once at eviction time (§4);
//! * [`Opu`] — the page-based baseline with out-place update and
//!   page-level mapping (§3);
//! * [`Ipu`] — the page-based baseline with in-place update (§3);
//! * [`Ipl`] — the log-based baseline, in-page logging (Lee & Moon,
//!   SIGMOD 2007).
//!
//! All methods implement the [`PageStore`] trait over a
//! [`pdl_flash::FlashChip`]; build one with [`build_store`] or recover one
//! from a crashed chip with [`recover_store`].
//!
//! ```
//! use pdl_core::{build_store, MethodKind, StoreOptions};
//! use pdl_flash::{FlashChip, FlashConfig};
//!
//! let chip = FlashChip::new(FlashConfig::tiny());
//! let mut store =
//!     build_store(chip, MethodKind::Pdl { max_diff_size: 64 }, StoreOptions::new(16)).unwrap();
//! let page = vec![7u8; store.logical_page_size()];
//! store.write_page(3, &page).unwrap();
//! let mut out = vec![0u8; page.len()];
//! store.read_page(3, &mut out).unwrap();
//! assert_eq!(out, page);
//! ```

#![forbid(unsafe_code)]

mod codec;
pub mod diff;
mod error;
mod ftl;
mod ipl;
mod ipu;
mod opu;
mod page_store;
mod pdl;
mod shard;

pub use diff::NO_TXN;
pub use error::{is_page_corrupt, is_power_loss, CoreError};
pub use ftl::GcPolicy;
pub use ipl::Ipl;
pub use ipu::Ipu;
pub use opu::Opu;
pub use page_store::{
    BatchPage, ChangeRange, CommitBatch, CommitError, MethodKind, PageStore, StoreOptions,
    StructRootEntry, StructRootsSnapshot,
};
pub use pdl::{IdHasher, IdMap, Pdl};
pub use shard::{shard_pages, ShardedStore};

use pdl_flash::FlashChip;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Build a page store of the requested method over a fresh chip.
pub fn build_store(
    chip: FlashChip,
    kind: MethodKind,
    opts: StoreOptions,
) -> Result<Box<dyn PageStore>> {
    let mut chip = chip;
    chip.set_obs_enabled(opts.obs);
    Ok(match kind {
        MethodKind::Opu => Box::new(Opu::new(chip, opts)?),
        MethodKind::Ipu => Box::new(Ipu::new(chip, opts)?),
        MethodKind::Pdl { max_diff_size } => Box::new(Pdl::new(chip, opts, max_diff_size)?),
        MethodKind::Ipl { log_bytes_per_block } => {
            Box::new(Ipl::new(chip, opts, log_bytes_per_block)?)
        }
    })
}

/// Rebuild a page store of the requested method from a chip that survived
/// a crash (in-memory tables are reconstructed by scanning flash).
pub fn recover_store(
    chip: FlashChip,
    kind: MethodKind,
    opts: StoreOptions,
) -> Result<Box<dyn PageStore>> {
    let mut chip = chip;
    chip.set_obs_enabled(opts.obs);
    Ok(match kind {
        MethodKind::Opu => Box::new(Opu::recover(chip, opts)?),
        MethodKind::Ipu => Box::new(Ipu::recover(chip, opts)?),
        MethodKind::Pdl { max_diff_size } => Box::new(Pdl::recover(chip, opts, max_diff_size)?),
        MethodKind::Ipl { log_bytes_per_block } => {
            Box::new(Ipl::recover(chip, opts, log_bytes_per_block)?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_flash::FlashConfig;

    #[test]
    fn factory_builds_every_method() {
        for kind in MethodKind::paper_six() {
            let kind = match kind {
                // Tiny geometry: shrink the method parameters accordingly.
                MethodKind::Ipl { .. } => MethodKind::Ipl { log_bytes_per_block: 512 },
                MethodKind::Pdl { max_diff_size } => {
                    MethodKind::Pdl { max_diff_size: max_diff_size.min(128) }
                }
                k => k,
            };
            let chip = FlashChip::new(FlashConfig::tiny());
            let mut store = build_store(chip, kind, StoreOptions::new(12)).unwrap();
            let page = vec![0xABu8; store.logical_page_size()];
            store.write_page(1, &page).unwrap();
            let mut out = vec![0u8; page.len()];
            store.read_page(1, &mut out).unwrap();
            assert_eq!(out, page, "{}", store.name());
        }
    }

    #[test]
    fn factory_recovers_every_method() {
        for kind in [
            MethodKind::Opu,
            MethodKind::Ipu,
            MethodKind::Pdl { max_diff_size: 128 },
            MethodKind::Ipl { log_bytes_per_block: 512 },
        ] {
            let chip = FlashChip::new(FlashConfig::tiny());
            let mut store = build_store(chip, kind, StoreOptions::new(12)).unwrap();
            let page = vec![0x5Eu8; store.logical_page_size()];
            store.write_page(2, &page).unwrap();
            store.flush().unwrap();
            let chip = store.into_chip();
            let mut back = recover_store(chip, kind, StoreOptions::new(12)).unwrap();
            let mut out = vec![0u8; page.len()];
            back.read_page(2, &mut out).unwrap();
            assert_eq!(out, page, "{}", back.name());
        }
    }
}
