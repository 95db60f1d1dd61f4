//! # wheels-benchmark
//!
//! One benchmark for the repro pipeline. End-to-end metrics come from the
//! real `repro` binary, run one child at a time with tracing off and
//! timed from outside ([`measure::end_to_end`]). Per-layer metrics come
//! from a separate traced pass that replays the same calls in-process,
//! with a span around every call into a layer's public functions
//! ([`measure::traced`]). End-to-end times are normalized by a
//! calibration kernel run just before each call ([`calibrate`]). See the
//! README for the workloads, metrics and the comparison rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod clock;
pub mod measure;
pub mod procfs;
pub mod run;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;
