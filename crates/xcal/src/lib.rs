//! # wheels-xcal
//!
//! The measurement-and-logging substrate of the replication: what Accuver
//! XCAL Solo, XCAP-M post-processing, and the custom Android loggers did in
//! the paper.
//!
//! §B of the paper describes a genuinely painful pipeline: applications
//! logged timestamps in UTC or local time, XCAL saved `.drm` files with
//! *local-time filenames* but *EDT contents*, the trip crossed four
//! timezones, and thousands of files had to be matched and merged into a
//! consolidated database. We reproduce that pipeline faithfully:
//!
//! * [`timestamp`] — the trip's wall clock and the three timestamp formats.
//! * [`kpi`] — per-500 ms cross-layer KPI samples.
//! * [`signaling`] — control-plane message log (handovers, cell changes).
//! * [`logger`] — the XCAL-style logger attached to a phone during tests.
//! * [`handover_logger`] — the passive ping-based logger phones
//!   (pessimistic coverage view of Fig. 1).
//! * [`sync`] — timestamp-format-aware matching of app logs to XCAL logs.
//! * [`database`] — the consolidated per-test database.
//! * [`export`] — JSON export of the dataset (the paper releases its data).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
pub mod export;
pub mod handover_logger;
pub mod kpi;
pub mod logger;
pub mod signaling;
pub mod sync;
pub mod timestamp;

pub use database::{ConsolidatedDb, TestKind, TestRecord};
pub use handover_logger::{PassiveLogger, PassiveSample};
pub use kpi::KpiSample;
pub use logger::{XcalLog, XcalLogger};
pub use signaling::SignalingMessage;
pub use timestamp::Timestamp;
