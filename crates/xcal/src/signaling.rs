//! Control-plane signaling messages as captured by XCAL.
//!
//! The paper extracts handover and technology information from XCAL's
//! signaling logs (§3, addressing challenge C3). We record the events the
//! analysis needs: handover commands/completions and serving-cell changes.

use serde::Serialize;

use wheels_radio::band::Technology;
use wheels_ran::cell::CellId;
use wheels_ran::handover::{HandoverEvent, HandoverKind};

/// A signaling-log entry.
#[derive(Debug, Clone, Copy, Serialize)]
pub enum SignalingMessage {
    /// RRC reconfiguration commanding a handover.
    HandoverCommand {
        /// Plan time, seconds.
        time_s: f64,
        /// Source cell/technology.
        from_cell: CellId,
        /// Source technology.
        from_tech: Technology,
        /// Target cell.
        to_cell: CellId,
        /// Target technology.
        to_tech: Technology,
        /// Handover kind.
        kind: HandoverKind,
    },
    /// Handover completion (user plane restored).
    HandoverComplete {
        /// Plan time, seconds.
        time_s: f64,
        /// Cell now serving.
        cell: CellId,
        /// Interruption the user plane saw, ms.
        interruption_ms: f64,
    },
    /// Serving cell / technology announcement (periodic or on change).
    ServingCell {
        /// Plan time, seconds.
        time_s: f64,
        /// Serving cell.
        cell: CellId,
        /// Serving technology.
        tech: Technology,
    },
}

impl SignalingMessage {
    /// Timestamp of the message, plan seconds.
    pub fn time_s(&self) -> f64 {
        match self {
            SignalingMessage::HandoverCommand { time_s, .. }
            | SignalingMessage::HandoverComplete { time_s, .. }
            | SignalingMessage::ServingCell { time_s, .. } => *time_s,
        }
    }

    /// The command/complete pair for one executed handover.
    pub fn pair_for(ev: &HandoverEvent) -> [SignalingMessage; 2] {
        [
            SignalingMessage::HandoverCommand {
                time_s: ev.time_s,
                from_cell: ev.from.0,
                from_tech: ev.from.1,
                to_cell: ev.to.0,
                to_tech: ev.to.1,
                kind: ev.kind,
            },
            SignalingMessage::HandoverComplete {
                time_s: ev.time_s + ev.duration_ms / 1_000.0,
                cell: ev.to.0,
                interruption_ms: ev.duration_ms,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> HandoverEvent {
        HandoverEvent {
            time_s: 10.0,
            from: (CellId(1), Technology::LteA),
            to: (CellId(2), Technology::Nr5gMid),
            duration_ms: 60.0,
            kind: HandoverKind::Up4gTo5g,
        }
    }

    #[test]
    fn pair_ordering() {
        let [cmd, done] = SignalingMessage::pair_for(&event());
        assert!(cmd.time_s() < done.time_s());
        assert!((done.time_s() - 10.06).abs() < 1e-9);
    }
}
