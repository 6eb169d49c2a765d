//! # pdl-flash — NAND flash chip emulator
//!
//! An in-memory emulator of a NAND flash memory chip, modelled on the
//! Samsung K9L8G08U0M 2 GB MLC part used in the paper *Page-Differential
//! Logging* (Kim, Whang, Song — SIGMOD 2010, Table 1).
//!
//! The emulator reproduces the semantics that make flash storage design
//! interesting:
//!
//! * the chip is an array of **blocks**, each holding a fixed number of
//!   **pages**; every page has a 2048-byte *data area* and a 64-byte
//!   *spare area*;
//! * a **read** returns all bits of a page;
//! * a **program** (write) can only change bits from `1` to `0`; each page
//!   tolerates a bounded number of program operations between erases
//!   (the *NOP* budget — 1 for MLC data areas, 4 for spare areas);
//! * an **erase** works on a whole block and resets every bit to `1`;
//! * read, program and erase have very different latencies
//!   (110 µs / 1010 µs / 1500 µs for the modelled part).
//!
//! Latencies are *accounted*, not slept: each operation adds its cost to a
//! [`FlashStats`] ledger, separated by [`OpContext`] (regular access,
//! garbage collection, recovery) so that experiment harnesses can report
//! I/O time exactly the way the paper does (`the emulator returns the
//! required time in the flash memory`).
//!
//! The emulator also supports **power-loss fault injection**
//! ([`FlashChip::arm_fault`]): after a chosen number of state-changing
//! operations every further program/erase fails with
//! [`FlashError::PowerLoss`], which lets crash-recovery algorithms be
//! tested at every possible interleaving point. Page programming itself is
//! atomic, matching the chip-level guarantee the paper relies on (§4.5).
//! Beside it sits a **power-loss journal** ([`PowerLossJournal`],
//! [`FlashChip::attach_journal`]): it records the same ops `arm_fault`
//! counts during one fault-free run and hands back every crash image
//! from it — the chip that `arm_fault(g)` would leave, for every `g` — so
//! an exhaustive sweep runs its workload once instead of once per crash
//! point. Chips that share a journal share one op order: their images
//! are the whole device losing power at once, where `arm_fault` on one
//! chip lets the others carry on.
//!
//! The chip keeps one **simulated clock** ([`FlashChip::sim_now_us`]): a
//! serial, monotone sum of the Table-1 latency of every charged command.
//! Commands never overlap on it, so a chip's busy time over a
//! measurement epoch is the epoch's ledger total
//! (`stats().total().total_us()`), the paper's I/O time.

#![forbid(unsafe_code)]

mod chip;
mod error;
mod geometry;
mod journal;
mod spare;
mod stats;

pub use chip::{FlashChip, PageBuf};
pub use error::FlashError;
pub use geometry::{BlockId, FlashConfig, FlashGeometry, FlashTiming, Ppn};
pub use journal::PowerLossJournal;
pub use spare::{fnv1a32, PageKind, SpareInfo, NO_TXN, SPARE_BYTES_USED};
pub use stats::{FlashStats, IntegrityCounts, OpContext, OpCounts, WearSummary};

// Observability: chips carry a `pdl_obs::Recorder` (latency histograms +
// span ring), off by default; re-exported so downstream layers name the
// types without a direct pdl-obs dependency.
pub use pdl_obs::{CtxKind, LatencyClass, OpKind, Recorder, RecorderSnapshot, Span};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FlashError>;
