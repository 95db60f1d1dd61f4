//! # wheels-analysis
//!
//! The analysis pipeline: every table and figure of *Performance of
//! Cellular Networks on the Wheels*, regenerated from a
//! [`wheels_xcal::ConsolidatedDb`] produced by `wheels-campaign`.
//!
//! Each `figures::figNN_*` / `figures::tableN_*` module exposes a
//! `compute(&db, ...)` returning a typed result plus a `render()` that
//! prints the same rows/series the paper reports. [`artifacts::ARTIFACTS`]
//! lists every artifact once with its renderer; the `repro` binary in
//! `wheels-bench` and [`report`] both render through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod ecdf;
pub mod figures;
pub mod index;
pub mod map;
pub mod render;
pub mod report;
pub mod stats;

pub use ecdf::Ecdf;
pub use index::AnalysisIndex;
pub use stats::{mean, percentile};
