//! # pdl-bench — experiment harness
//!
//! One bench target per table/figure of the paper's evaluation (§5); see
//! `benches/`. The shared machinery lives here so the bench targets stay
//! thin and the shape assertions can run as ordinary tests.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod runner;
pub mod tpcc_exp;

pub use runner::{five_methods, run_point, run_points, six_methods, PointSpec};
