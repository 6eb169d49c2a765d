//! # pdl-obs — deterministic observability over the simulated clock
//!
//! The paper's whole evaluation is a cost decomposition: Table-1
//! latencies summed per operation class, split user vs. GC (Figure 12).
//! This crate turns those end-of-run sums into *distributions* and
//! *timelines*, all keyed to the emulator's simulated clock — so every
//! trace and histogram is bit-for-bit deterministic for a seeded run and
//! assertable in tests, with zero wall-clock noise.
//!
//! Three pieces, deliberately dependency-free (the flash emulator
//! depends on this crate, not the other way around):
//!
//! * [`LatencyHistogram`] — HDR-style log-bucketed histograms over u64
//!   microseconds: power-of-two groups with 16 linear sub-buckets each,
//!   mergeable across shards, exact count/sum/min/max on the side.
//! * [`SpanRing`] / [`Span`] — a bounded ring of completed spans stamped
//!   with the pipeline clock and attributed (lane/plane, block, id), with
//!   [`chrome_trace`] exporting Chrome trace-event JSON for
//!   `chrome://tracing`.
//! * [`MetricsRegistry`] — one insertion-ordered name → value snapshot
//!   with a delta operation and one JSON schema
//!   ([`registry::SCHEMA`]), standardizing every `BENCH_*.json`.
//!
//! The [`Recorder`] bundles a histogram set and a span ring behind a
//! single `enabled` flag; every recording hook in the emulator is a
//! branch on that flag, so a disabled recorder costs one predictable
//! branch and the tier-1 timing claims (queue-depth 1 equals the serial
//! Table-1 sum) are untouched.
//!
//! JSON is written and validated by [`json`] — hand-rolled, because this
//! workspace builds offline without serde.

#![forbid(unsafe_code)]

mod hist;
pub mod json;
mod recorder;
mod registry;
mod span;
mod trace;

pub use hist::{bucket_bounds, bucket_index, LatencyHistogram, NUM_BUCKETS};
pub use recorder::{
    CtxKind, LatencyClass, OpKind, Recorder, RecorderSnapshot, DEFAULT_SPAN_CAPACITY,
};
pub use registry::{MetricValue, MetricsRegistry, SCHEMA};
pub use span::{Span, SpanRing};
pub use trace::{chrome_trace, max_concurrent_lanes, TraceTrack};
