//! Handover state machine: A3-style triggering, execution delay, event log.
//!
//! §6 of the paper quantifies handovers during the drive: typically 1–3 per
//! mile (median) with short interruptions (median 49–76 ms depending on
//! operator), a small throughput dip during the HO (Fig. 12 top), and a
//! post-HO throughput that is *higher* than pre-HO 55–60 % of the time.
//!
//! Triggering follows the standard A3 event: a neighbor must exceed the
//! serving cell by a hysteresis margin continuously for a time-to-trigger
//! before the HO executes. Execution blanks the user plane for a lognormal
//! interruption whose median matches the per-operator values in Fig. 11b.

use rand::rngs::SmallRng;
use rand::Rng;

use wheels_radio::band::Technology;

use crate::cell::CellId;
use crate::operator::Operator;

/// Hysteresis margin for the A3 event, dB.
pub const A3_HYSTERESIS_DB: f64 = 3.0;
/// Time-to-trigger for the A3 event, seconds.
pub const A3_TTT_S: f64 = 0.64;

/// Classification of a handover by the technologies involved (Fig. 12
/// breaks ΔT₂ down by these four types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum HandoverKind {
    /// 4G → 4G (LTE/LTE-A to LTE/LTE-A).
    Horizontal4g,
    /// 5G → 5G.
    Horizontal5g,
    /// 4G → 5G (typically improves throughput).
    Up4gTo5g,
    /// 5G → 4G (the type that most often lowers post-HO throughput).
    Down5gTo4g,
}

impl HandoverKind {
    /// Classify from the technologies on each side.
    pub fn classify(from: Technology, to: Technology) -> Self {
        match (from.is_5g(), to.is_5g()) {
            (false, false) => HandoverKind::Horizontal4g,
            (true, true) => HandoverKind::Horizontal5g,
            (false, true) => HandoverKind::Up4gTo5g,
            (true, false) => HandoverKind::Down5gTo4g,
        }
    }

    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            HandoverKind::Horizontal4g => "4G->4G",
            HandoverKind::Horizontal5g => "5G->5G",
            HandoverKind::Up4gTo5g => "4G->5G",
            HandoverKind::Down5gTo4g => "5G->4G",
        }
    }

    /// All four kinds in the paper's order.
    pub const ALL: [HandoverKind; 4] = [
        HandoverKind::Horizontal4g,
        HandoverKind::Horizontal5g,
        HandoverKind::Up4gTo5g,
        HandoverKind::Down5gTo4g,
    ];
}

/// A completed handover, as recorded in the signaling log.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct HandoverEvent {
    /// Time the HO executed, seconds.
    pub time_s: f64,
    /// Source cell and technology.
    pub from: (CellId, Technology),
    /// Target cell and technology.
    pub to: (CellId, Technology),
    /// User-plane interruption, milliseconds.
    pub duration_ms: f64,
    /// Kind (horizontal/vertical).
    pub kind: HandoverKind,
}

/// Median user-plane interruption per operator, ms (Fig. 11b).
pub(crate) fn median_interruption_ms(op: Operator) -> f64 {
    match op {
        Operator::Verizon => 51.0,
        Operator::TMobile => 75.0,
        Operator::Att => 57.0,
    }
}

/// Draw a handover interruption for `op`: lognormal with the operator's
/// median and a shape matching the reported 75th percentiles (σ ≈ 0.48).
pub fn draw_interruption_ms(op: Operator, rng: &mut SmallRng) -> f64 {
    let median = median_interruption_ms(op);
    let sigma = 0.48;
    let z: f64 = {
        let mut s = 0.0;
        for _ in 0..12 {
            s += rng.gen::<f64>();
        }
        s - 6.0
    };
    (median.ln() + sigma * z).exp()
}

/// A3 trigger tracker for one serving link.
#[derive(Debug, Clone, Default)]
pub struct A3Tracker {
    candidate: Option<CellId>,
    since_s: f64,
}

impl A3Tracker {
    /// Feed one measurement instant. Returns `true` when the A3 condition
    /// has held for the time-to-trigger and a handover should execute.
    pub fn observe(
        &mut self,
        t_s: f64,
        serving_rsrp: f64,
        best_other: Option<(CellId, f64)>,
    ) -> bool {
        match best_other {
            Some((cell, rsrp)) if rsrp > serving_rsrp + A3_HYSTERESIS_DB => {
                if self.candidate == Some(cell) {
                    t_s - self.since_s >= A3_TTT_S
                } else {
                    self.candidate = Some(cell);
                    self.since_s = t_s;
                    false
                }
            }
            _ => {
                self.candidate = None;
                false
            }
        }
    }

    /// Reset after a handover executes.
    pub(crate) fn reset(&mut self) {
        self.candidate = None;
        self.since_s = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::sub_rng;

    #[test]
    fn classify_matrix() {
        use Technology::*;
        assert_eq!(
            HandoverKind::classify(Lte, LteA),
            HandoverKind::Horizontal4g
        );
        assert_eq!(
            HandoverKind::classify(Nr5gMid, Nr5gLow),
            HandoverKind::Horizontal5g
        );
        assert_eq!(
            HandoverKind::classify(LteA, Nr5gMid),
            HandoverKind::Up4gTo5g
        );
        assert_eq!(
            HandoverKind::classify(Nr5gMmWave, Lte),
            HandoverKind::Down5gTo4g
        );
    }

    #[test]
    fn interruption_medians_match_fig11b() {
        let mut rng = sub_rng(1, 1);
        for op in Operator::ALL {
            let mut v: Vec<f64> = (0..20_000)
                .map(|_| draw_interruption_ms(op, &mut rng))
                .collect();
            v.sort_by(f64::total_cmp);
            let med = v[v.len() / 2];
            let p75 = v[(v.len() * 3) / 4];
            let target = median_interruption_ms(op);
            assert!((med - target).abs() < target * 0.08, "{op}: median {med}");
            // 75th ≈ median × 1.38 (paper: 53→73, 76→107, 58→74).
            assert!(
                (1.25..1.55).contains(&(p75 / med)),
                "{op}: p75/med {}",
                p75 / med
            );
        }
    }

    #[test]
    fn tmobile_handovers_slowest() {
        assert!(
            median_interruption_ms(Operator::TMobile) > median_interruption_ms(Operator::Verizon)
        );
        assert!(median_interruption_ms(Operator::TMobile) > median_interruption_ms(Operator::Att));
    }

    #[test]
    fn a3_requires_sustained_advantage() {
        let mut a3 = A3Tracker::default();
        let c = CellId(7);
        // Advantage appears at t=0; must not trigger before TTT.
        assert!(!a3.observe(0.0, -95.0, Some((c, -90.0))));
        assert!(!a3.observe(0.3, -95.0, Some((c, -90.0))));
        assert!(a3.observe(0.7, -95.0, Some((c, -90.0))));
    }

    #[test]
    fn a3_resets_when_advantage_lapses() {
        let mut a3 = A3Tracker::default();
        let c = CellId(7);
        assert!(!a3.observe(0.0, -95.0, Some((c, -90.0))));
        // Advantage disappears (within hysteresis) — timer resets.
        assert!(!a3.observe(0.3, -95.0, Some((c, -94.0))));
        assert!(!a3.observe(0.7, -95.0, Some((c, -90.0))));
        assert!(!a3.observe(1.0, -95.0, Some((c, -90.0))));
        assert!(a3.observe(1.4, -95.0, Some((c, -90.0))));
    }

    #[test]
    fn a3_candidate_switch_restarts_timer() {
        let mut a3 = A3Tracker::default();
        assert!(!a3.observe(0.0, -95.0, Some((CellId(1), -90.0))));
        assert!(!a3.observe(0.5, -95.0, Some((CellId(2), -89.0))));
        assert!(!a3.observe(1.0, -95.0, Some((CellId(2), -89.0))));
        assert!(a3.observe(1.2, -95.0, Some((CellId(2), -89.0))));
    }

    #[test]
    fn no_trigger_without_neighbor() {
        let mut a3 = A3Tracker::default();
        assert!(!a3.observe(0.0, -95.0, None));
        assert!(!a3.observe(10.0, -95.0, None));
    }
}
