//! # wheels-ran
//!
//! Radio-access-network simulator for the *Cellular Networks on the Wheels*
//! replication: the three major US operators, their per-region/per-timezone
//! deployment strategies, serving-cell selection, the traffic-dependent
//! LTE↔5G upgrade policies, cell load, and the handover state machine.
//!
//! This crate is where the paper's headline coverage findings are
//! *mechanistically* produced:
//!
//! * fragmented, operator-diverse 5G coverage (Fig. 2a) — from the
//!   deployment profiles in [`deployment`];
//! * geographic diversity (Fig. 2c) and speed-bin structure (Fig. 2d) —
//!   deployment densities keyed on timezone and region kind;
//! * direction-dependent upgrades and the passive-logger pessimism
//!   (Fig. 1, Fig. 2b) — the [`policy::UpgradePolicy`];
//! * handover rates, durations and throughput impact (Fig. 11, Fig. 12) —
//!   the [`handover`] state machine;
//! * the weak KPI–throughput correlations (Table 2) — the [`load`] process
//!   dominating capacity variance.
//!
//! The top-level type is [`ue::UeRadio`]: one per (phone, operator), stepped
//! along the drive, yielding [`ue::LinkSnapshot`]s that the rest of the
//! workspace consumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod config;
pub mod deployment;
pub mod fleet;
pub mod handover;
pub mod load;
pub mod operator;
pub mod policy;
pub mod selection;
pub mod tuning;
pub mod ue;

pub use cell::{CellDb, CellId, CellSite};
pub use config::LinkConfig;
pub use fleet::{FleetLoad, FleetParams};
pub use handover::{HandoverEvent, HandoverKind};
pub use load::{LoadParams, LoadScale};
pub use operator::Operator;
pub use policy::{TrafficDemand, UpgradePolicy};
pub use tuning::OperatorTuning;
pub use ue::{LinkSnapshot, UeRadio};

/// Traffic direction. The paper analyzes downlink and uplink separately
/// throughout (coverage in Fig. 2b, performance everywhere else).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub enum Direction {
    /// Server → UE.
    Downlink,
    /// UE → server.
    Uplink,
}

impl Direction {
    /// Both directions, downlink first.
    pub const BOTH: [Direction; 2] = [Direction::Downlink, Direction::Uplink];

    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Direction::Downlink => "DL",
            Direction::Uplink => "UL",
        }
    }
}
