//! Fig. 2: technology coverage as % of miles driven.
//!
//! (a) overall per operator, (b) by traffic direction (backlogged tests
//! only), (c) by timezone, (d) by speed bin.

use wheels_geo::timezone::Timezone;
use wheels_geo::SpeedBin;
use wheels_radio::band::Technology;
use wheels_ran::operator::Operator;
use wheels_ran::Direction;

use super::{share_5g, share_hs5g};
use crate::index::AnalysisIndex;
use crate::render::share_bar;

/// Shares type alias: one entry per technology.
pub type Shares = [(Technology, f64); 5];

/// All four panels of Fig. 2.
#[derive(Debug, Clone)]
pub struct CoverageFig {
    /// (a) overall shares per operator.
    pub overall: Vec<(Operator, Shares)>,
    /// (b) shares by traffic direction per operator.
    pub by_direction: Vec<(Operator, Direction, Shares)>,
    /// (c) shares by timezone per operator.
    pub by_timezone: Vec<(Operator, Timezone, Shares)>,
    /// (d) shares by speed bin per operator.
    pub by_speed: Vec<(Operator, SpeedBin, Shares)>,
}

/// Assemble all four panels from the index's pre-aggregated shares.
pub fn compute(ix: &AnalysisIndex<'_>) -> CoverageFig {
    let overall = ix
        .ops()
        .iter()
        .map(|&op| (op, ix.shares(op).active_all))
        .collect();
    let mut by_direction = Vec::new();
    for &op in ix.ops() {
        for (di, dir) in Direction::BOTH.into_iter().enumerate() {
            by_direction.push((op, dir, ix.shares(op).by_direction[di]));
        }
    }
    let mut by_timezone = Vec::new();
    for &op in ix.ops() {
        for (zi, tz) in Timezone::ALL.into_iter().enumerate() {
            by_timezone.push((op, tz, ix.shares(op).by_timezone[zi]));
        }
    }
    let mut by_speed = Vec::new();
    for &op in ix.ops() {
        for (bi, bin) in SpeedBin::ALL.into_iter().enumerate() {
            by_speed.push((op, bin, ix.shares(op).by_speed[bi]));
        }
    }
    CoverageFig {
        overall,
        by_direction,
        by_timezone,
        by_speed,
    }
}

impl CoverageFig {
    /// Overall shares for one operator.
    pub fn overall_for(&self, op: Operator) -> &Shares {
        &self
            .overall
            .iter()
            .find(|(o, _)| *o == op)
            .expect("all operators computed")
            .1
    }

    /// Shares for one operator and direction.
    #[cfg(test)]
    fn direction_for(&self, op: Operator, dir: Direction) -> &Shares {
        &self
            .by_direction
            .iter()
            .find(|(o, d, _)| *o == op && *d == dir)
            .expect("all combos computed")
            .2
    }

    /// Shares for one operator and speed bin.
    #[cfg(test)]
    fn speed_for(&self, op: Operator, bin: SpeedBin) -> &Shares {
        &self
            .by_speed
            .iter()
            .find(|(o, b, _)| *o == op && *b == bin)
            .expect("all combos computed")
            .2
    }

    /// Render all four panels.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig. 2a — technology coverage (% of miles)\n");
        for (op, shares) in &self.overall {
            let rows: Vec<(&str, f64)> = shares.iter().map(|(t, f)| (t.label(), *f)).collect();
            out.push_str(&share_bar(op.label(), &rows));
            out.push_str(&format!(
                "  [5G total {:.1}%, high-speed {:.1}%]\n",
                share_5g(shares) * 100.0,
                share_hs5g(shares) * 100.0
            ));
        }
        out.push_str("\nFig. 2b — coverage by traffic direction\n");
        for (op, dir, shares) in &self.by_direction {
            let rows: Vec<(&str, f64)> = shares.iter().map(|(t, f)| (t.label(), *f)).collect();
            out.push_str(&share_bar(&format!("{} {}", op.code(), dir.label()), &rows));
            out.push('\n');
        }
        out.push_str("\nFig. 2c — coverage by timezone\n");
        for (op, tz, shares) in &self.by_timezone {
            let rows: Vec<(&str, f64)> = shares.iter().map(|(t, f)| (t.label(), *f)).collect();
            out.push_str(&share_bar(&format!("{} {}", op.code(), tz.label()), &rows));
            out.push('\n');
        }
        out.push_str("\nFig. 2d — coverage by speed bin\n");
        for (op, bin, shares) in &self.by_speed {
            let rows: Vec<(&str, f64)> = shares.iter().map(|(t, f)| (t.label(), *f)).collect();
            out.push_str(&share_bar(&format!("{} {}", op.code(), bin.label()), &rows));
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
    fn tmobile_has_most_5g_verizon_att_low() {
        let f = compute(small_ix());
        let t = share_5g(f.overall_for(Operator::TMobile));
        let v = share_5g(f.overall_for(Operator::Verizon));
        let a = share_5g(f.overall_for(Operator::Att));
        assert!(t > 0.5, "T-Mobile 5G {t}");
        assert!(v < 0.40 && a < 0.40, "V {v} A {a}");
        assert!(t > v + 0.2 && t > a + 0.2);
    }

    #[test]
    fn att_high_speed_5g_is_tiny() {
        let f = compute(small_ix());
        let hs = share_hs5g(f.overall_for(Operator::Att));
        assert!(hs < 0.12, "AT&T high-speed {hs}");
    }

    #[test]
    fn high_speed_5g_higher_in_downlink() {
        // Fig. 2b: for all carriers, high-speed 5G coverage is higher for
        // DL than UL backlogged traffic. Per-operator shares are noisy at
        // fixture scale (coverage patches are km-long, tests are ~0.5 mi),
        // so assert strictly on the pooled shares and loosely per
        // operator.
        let f = compute(small_ix());
        let mut dl_pool = 0.0;
        let mut ul_pool = 0.0;
        for op in Operator::ALL {
            let dl = share_hs5g(f.direction_for(op, Direction::Downlink));
            let ul = share_hs5g(f.direction_for(op, Direction::Uplink));
            assert!(dl + 0.18 > ul, "{op}: DL {dl} vs UL {ul}");
            dl_pool += dl;
            ul_pool += ul;
        }
        assert!(dl_pool > ul_pool, "pooled DL {dl_pool} vs UL {ul_pool}");
    }

    #[test]
    fn high_speed_5g_decreases_with_speed_for_verizon() {
        // Fig. 2d: Verizon ~43% high-speed in the low bin vs ~13% in the
        // high bin.
        let f = compute(small_ix());
        let low = share_hs5g(f.speed_for(Operator::Verizon, SpeedBin::Low));
        let high = share_hs5g(f.speed_for(Operator::Verizon, SpeedBin::High));
        assert!(low > high, "low {low} vs high {high}");
    }

    #[test]
    fn tmobile_keeps_midband_at_speed() {
        let f = compute(small_ix());
        let high = share_hs5g(f.speed_for(Operator::TMobile, SpeedBin::High));
        assert!(high > 0.2, "T-Mobile high-speed at 60+ mph: {high}");
    }

    #[test]
    fn render_has_all_panels() {
        let r = compute(small_ix()).render();
        for panel in ["Fig. 2a", "Fig. 2b", "Fig. 2c", "Fig. 2d"] {
            assert!(r.contains(panel));
        }
    }
}
