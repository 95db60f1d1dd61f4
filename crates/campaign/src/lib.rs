//! # wheels-campaign
//!
//! The measurement campaign orchestrator: reproduces the paper's §3
//! methodology end-to-end inside the simulation.
//!
//! * Three "test phones" (one per operator) run the paper's test suite in
//!   round-robin while the vehicle drives LA → Boston: 30 s nuttcp DL,
//!   30 s nuttcp UL, 20 s ICMP RTT, then the four killer apps.
//! * Three "handover-logger" phones passively ping all day (the
//!   pessimistic coverage view of Fig. 1).
//! * Static baselines run in the 10 major cities facing the best
//!   high-speed-5G cell the operator has there (Fig. 3a), skipping
//!   operator-city combos that never elevate the UE (as the paper did).
//! * Everything is logged through `wheels-xcal` (including the
//!   local-vs-EDT timestamp mess) and assembled into a
//!   [`wheels_xcal::ConsolidatedDb`].
//!
//! [`CampaignConfig::scale`] subsamples round-robin cycles so unit tests
//! and examples can run a miniature campaign in seconds, and `repro` the
//! full-scale one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod driver;
pub mod executor;
pub mod integrity;
pub mod ookla;
pub mod runner;
pub mod scenario;
pub mod static_tests;
pub mod stats;
pub mod wire;

pub use checkpoint::{
    atomic_write, atomic_write_with, write_all_chunked, CheckpointKey, CheckpointWriter,
    LoadedCheckpoints,
};
pub use config::CampaignConfig;
pub use executor::{merge_shard_slots, merge_shards, Shard, WorkUnit};
pub use integrity::{IntegrityReport, ResumeReport, UnitError, UnitReport, UnitStatus};
pub use runner::{Campaign, CampaignError, CampaignOutcome, CheckpointOptions, FleetSummary};
pub use scenario::{LoadScaleSpec, ScenarioSpec, ScenarioWorld, SubscriberSpec};
pub use wheels_fleet::FleetUnitSketch;
pub use stats::Table1;
pub use wheels_netsim::faults::{FaultProfile, ProcessKill};
