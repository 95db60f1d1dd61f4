//! Fig. 12: the impact of handovers on throughput.
//!
//! Following §6 exactly (Fig. 11c's timeline): with throughput logged in
//! 500 ms windows T₁..T₅ and a handover inside T₃,
//!
//! * ΔT₁ = T₃ − (T₂+T₄)/2 — the during-HO dip,
//! * ΔT₂ = (T₄+T₅)/2 − (T₁+T₂)/2 — post- minus pre-HO throughput,
//!
//! with ΔT₂ broken down by HO type (4G→4G, 5G→5G, 4G→5G, 5G→4G).

use wheels_ran::handover::HandoverKind;
use wheels_ran::operator::Operator;
use wheels_ran::Direction;
use wheels_xcal::database::{TestKind, TestRecord};

use crate::ecdf::Ecdf;
use crate::index::AnalysisIndex;
use crate::render::{cdf_header, cdf_row};

/// Fig. 12 data per (operator, direction).
#[derive(Debug, Clone)]
pub struct HoImpact {
    /// ΔT₁ distributions.
    pub delta_t1: Vec<(Operator, Direction, Ecdf)>,
    /// ΔT₂ distributions, overall.
    pub delta_t2: Vec<(Operator, Direction, Ecdf)>,
    /// ΔT₂ distributions per HO kind.
    pub delta_t2_by_kind: Vec<(Operator, Direction, HandoverKind, Ecdf)>,
}

/// Extract (ΔT₁, ΔT₂, kind) for each handover in a record.
fn deltas(record: &TestRecord) -> Vec<(f64, f64, HandoverKind)> {
    const W: f64 = 0.5;
    let tput: Vec<Option<f64>> = record
        .kpi
        .iter()
        .map(|k| k.tput_mbps.map(f64::from))
        .collect();
    record
        .handovers
        .iter()
        .filter_map(|h| {
            // Window index of T3 (the window containing the HO).
            let i3 = ((h.time_s - record.start_s) / W).floor() as isize;
            if i3 < 2 || (i3 + 2) as usize >= tput.len() {
                return None; // need T1..T5 inside the test
            }
            let i3 = i3 as usize;
            let t = |i: usize| tput[i];
            let (t1, t2, t3, t4, t5) =
                (t(i3 - 2)?, t(i3 - 1)?, t(i3)?, t(i3 + 1)?, t(i3 + 2)?);
            let d1 = t3 - (t2 + t4) / 2.0;
            let d2 = (t4 + t5) / 2.0 - (t1 + t2) / 2.0;
            Some((d1, d2, h.kind))
        })
        .collect()
}

/// Compute Fig. 12 from the index's record partitions.
pub fn compute(ix: &AnalysisIndex<'_>) -> HoImpact {
    let mut delta_t1 = Vec::new();
    let mut delta_t2 = Vec::new();
    let mut delta_t2_by_kind = Vec::new();
    for &op in ix.ops() {
        for dir in Direction::BOTH {
            let kind = match dir {
                Direction::Downlink => TestKind::ThroughputDl,
                Direction::Uplink => TestKind::ThroughputUl,
            };
            let all: Vec<(f64, f64, HandoverKind)> =
                ix.records(op, kind, false).flat_map(deltas).collect();
            delta_t1.push((op, dir, Ecdf::new(all.iter().map(|d| d.0))));
            delta_t2.push((op, dir, Ecdf::new(all.iter().map(|d| d.1))));
            for hk in HandoverKind::ALL {
                delta_t2_by_kind.push((
                    op,
                    dir,
                    hk,
                    Ecdf::new(all.iter().filter(|d| d.2 == hk).map(|d| d.1)),
                ));
            }
        }
    }
    HoImpact {
        delta_t1,
        delta_t2,
        delta_t2_by_kind,
    }
}

impl HoImpact {
    /// ΔT₁ distribution for one (op, dir).
    pub fn t1_for(&self, op: Operator, dir: Direction) -> &Ecdf {
        &self
            .delta_t1
            .iter()
            .find(|(o, d, _)| *o == op && *d == dir)
            .expect("all combos computed")
            .2
    }

    /// ΔT₂ distribution for one (op, dir).
    pub fn t2_for(&self, op: Operator, dir: Direction) -> &Ecdf {
        &self
            .delta_t2
            .iter()
            .find(|(o, d, _)| *o == op && *d == dir)
            .expect("all combos computed")
            .2
    }

    /// ΔT₂ for one (op, dir, kind).
    #[cfg(test)]
    fn t2_kind_for(&self, op: Operator, dir: Direction, kind: HandoverKind) -> &Ecdf {
        &self
            .delta_t2_by_kind
            .iter()
            .find(|(o, d, k, _)| *o == op && *d == dir && *k == kind)
            .expect("all combos computed")
            .3
    }

    /// Render the figure.
    pub fn render(&self) -> String {
        let mut out = cdf_header("Fig. 12 — ΔT1 (during-HO dip) and ΔT2 (post−pre), Mbps");
        out.push('\n');
        for (op, dir, e) in &self.delta_t1 {
            if e.is_empty() {
                continue;
            }
            out.push_str(&cdf_row(&format!("{} {} dT1", op.code(), dir.label()), e));
            out.push_str(&format!("  [negative: {:.0}%]\n", e.frac_below(0.0) * 100.0));
        }
        for (op, dir, e) in &self.delta_t2 {
            if e.is_empty() {
                continue;
            }
            out.push_str(&cdf_row(&format!("{} {} dT2", op.code(), dir.label()), e));
            out.push_str(&format!(
                "  [post>pre: {:.0}%]\n",
                (1.0 - e.frac_below(0.0)) * 100.0
            ));
        }
        for (op, dir, hk, e) in &self.delta_t2_by_kind {
            if e.len() < 5 {
                continue;
            }
            out.push_str(&cdf_row(
                &format!("{} {} dT2 {}", op.code(), dir.label(), hk.label()),
                e,
            ));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_support::network_ix as small_ix;

    #[test]
    fn throughput_usually_dips_during_ho() {
        // Fig. 12 top: ΔT1 < 0 around 80 % of the time.
        let f = compute(small_ix());
        for op in Operator::ALL {
            let e = f.t1_for(op, Direction::Downlink);
            if e.len() < 30 {
                continue;
            }
            let neg = e.frac_below(0.0);
            assert!(neg > 0.55, "{op}: dT1 negative only {neg}");
        }
    }

    #[test]
    fn post_ho_often_improves() {
        // Fig. 12 bottom: post-HO > pre-HO about 55-60 % of the time.
        let f = compute(small_ix());
        for op in Operator::ALL {
            let e = f.t2_for(op, Direction::Downlink);
            if e.len() < 30 {
                continue;
            }
            let pos = 1.0 - e.frac_below(0.0);
            // Paper: 55-60 %. Our A3-triggered HOs are slightly more
            // "rational" than the real network's (which also does
            // load-balancing and ping-pong HOs), so the rate skews a bit
            // higher — documented in EXPERIMENTS.md.
            assert!(
                (0.30..0.90).contains(&pos),
                "{op}: post-HO improvement rate {pos}"
            );
        }
    }

    #[test]
    fn downgrade_hos_hurt_most() {
        // 5G→4G is the type that most often lowers post-HO throughput.
        let f = compute(small_ix());
        for op in Operator::ALL {
            let down = f.t2_kind_for(op, Direction::Downlink, HandoverKind::Down5gTo4g);
            let up = f.t2_kind_for(op, Direction::Downlink, HandoverKind::Up4gTo5g);
            // ΔT₂ per HO is dominated by the (legitimate) cell-load
            // redraw; the tech-change signal needs volume to emerge, so
            // gate hard and allow a small epsilon.
            if down.len() < 150 || up.len() < 150 {
                continue;
            }
            assert!(
                down.median() < up.median() + 1.0,
                "{op}: down median {} vs up median {}",
                down.median(),
                up.median()
            );
        }
    }

    #[test]
    fn median_dt2_is_small() {
        // §6: "the median throughput difference is very low (0.5-2 Mbps)".
        let f = compute(small_ix());
        for op in Operator::ALL {
            let e = f.t2_for(op, Direction::Downlink);
            if e.len() < 30 {
                continue;
            }
            assert!(e.median().abs() < 12.0, "{op}: dT2 median {}", e.median());
        }
    }
}
