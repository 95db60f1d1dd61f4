//! Fig. 8: technology-wise RTT as a function of vehicle speed.
//!
//! Findings reproduced: RTT correlates with speed more than throughput
//! does (for Verizon and T-Mobile), and mmWave points exist essentially
//! only near 0 mph — operators don't elevate ping traffic to mmWave on the
//! move.

use std::sync::Arc;

use wheels_geo::SpeedBin;
use wheels_radio::band::Technology;
use wheels_ran::operator::Operator;

use crate::ecdf::Ecdf;
use crate::index::{AnalysisIndex, EcdfQuery, QueryMetric};
use crate::render::{cdf_header, cdf_row};

/// Per (operator, speed bin, technology) RTT distributions.
#[derive(Debug, Clone)]
pub struct SpeedRtt {
    /// Distribution per cell.
    pub cells: Vec<(Operator, SpeedBin, Technology, Arc<Ecdf>)>,
}

/// Compute Fig. 8 from memoized index queries.
pub fn compute(ix: &AnalysisIndex<'_>) -> SpeedRtt {
    let mut cells = Vec::new();
    for &op in ix.ops() {
        for bin in SpeedBin::ALL {
            for tech in Technology::ALL {
                let e = ix.query(EcdfQuery::metric(op, QueryMetric::Rtt).bin(bin).tech(tech));
                cells.push((op, bin, tech, e));
            }
        }
    }
    SpeedRtt { cells }
}

impl SpeedRtt {
    /// One cell of the breakdown.
    pub fn get(&self, op: Operator, bin: SpeedBin, tech: Technology) -> &Ecdf {
        &self
            .cells
            .iter()
            .find(|(o, b, t, _)| *o == op && *b == bin && *t == tech)
            .expect("all combos computed")
            .3
    }

    /// RTTs pooled over technologies for one (op, bin).
    #[cfg(test)]
    fn pooled_bin(&self, op: Operator, bin: SpeedBin) -> Ecdf {
        Ecdf::new(
            self.cells
                .iter()
                .filter(|(o, b, _, _)| *o == op && *b == bin)
                .flat_map(|(_, _, _, e)| e.samples().iter().copied()),
        )
    }

    /// Render the figure.
    pub fn render(&self) -> String {
        let mut out = cdf_header("Fig. 8 — RTT vs speed, per technology (ms)");
        out.push('\n');
        for (op, bin, tech, e) in &self.cells {
            if e.is_empty() {
                continue;
            }
            out.push_str(&cdf_row(
                &format!("{} {} {}", op.code(), bin.label(), tech.label()),
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
    fn rtt_grows_with_speed_for_verizon() {
        let f = compute(small_ix());
        let low = f.pooled_bin(Operator::Verizon, SpeedBin::Low);
        let high = f.pooled_bin(Operator::Verizon, SpeedBin::High);
        if low.len() > 40 && high.len() > 40 {
            assert!(
                high.percentile(75.0) > low.percentile(75.0) * 0.9,
                "p75 low {} vs high {}",
                low.percentile(75.0),
                high.percentile(75.0)
            );
        }
    }

    #[test]
    fn mmwave_pings_only_near_standstill() {
        // §5.5 / Fig. 8: mmWave RTT points absent except at very low
        // speeds.
        let f = compute(small_ix());
        for op in [Operator::Verizon, Operator::Att] {
            let high = f.get(op, SpeedBin::High, Technology::Nr5gMmWave);
            let mid = f.get(op, SpeedBin::Mid, Technology::Nr5gMmWave);
            assert!(
                high.len() + mid.len() <= 6,
                "{op}: {} mmWave ping samples on the move",
                high.len() + mid.len()
            );
        }
    }

    #[test]
    fn rtts_are_tens_of_ms() {
        let f = compute(small_ix());
        let e = f.pooled_bin(Operator::TMobile, SpeedBin::High);
        if e.len() > 40 {
            assert!((25.0..220.0).contains(&e.median()), "median {}", e.median());
        }
    }
}
