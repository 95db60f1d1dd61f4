//! Fig. 7: technology-wise throughput as a function of vehicle speed.
//!
//! The paper plots 500 ms samples against speed in three bins and finds
//! high mmWave points only at low speed, T-Mobile midband sustaining rates
//! at highway speed, and overall only a weak speed–throughput correlation.

use std::sync::Arc;

use wheels_geo::SpeedBin;
use wheels_radio::band::Technology;
use wheels_ran::operator::Operator;
use wheels_ran::Direction;

use crate::ecdf::Ecdf;
use crate::index::{AnalysisIndex, EcdfQuery, QueryMetric, KPI_SPEED};
use crate::render::{cdf_header, cdf_row};

/// Per (operator, direction, speed bin, technology) sample distributions,
/// plus the raw speed–throughput correlation.
#[derive(Debug, Clone)]
pub struct SpeedTput {
    /// Distribution per cell of the breakdown.
    pub cells: Vec<(Operator, Direction, SpeedBin, Technology, Arc<Ecdf>)>,
    /// Pearson r between speed and throughput per (op, dir).
    pub speed_corr: Vec<(Operator, Direction, f64)>,
}

/// Compute Fig. 7 from memoized index queries. The speed–throughput
/// Pearson r is the same quantity Table 2 reports, so it comes straight
/// from the index's correlation table.
pub fn compute(ix: &AnalysisIndex<'_>) -> SpeedTput {
    let mut cells = Vec::new();
    let mut speed_corr = Vec::new();
    for &op in ix.ops() {
        for dir in Direction::BOTH {
            let metric = match dir {
                Direction::Downlink => QueryMetric::TputDl,
                Direction::Uplink => QueryMetric::TputUl,
            };
            speed_corr.push((op, dir, ix.kpi_correlations(op, dir)[KPI_SPEED]));
            for bin in SpeedBin::ALL {
                for tech in Technology::ALL {
                    let e = ix.query(EcdfQuery::metric(op, metric).bin(bin).tech(tech));
                    cells.push((op, dir, bin, tech, e));
                }
            }
        }
    }
    SpeedTput { cells, speed_corr }
}

impl SpeedTput {
    /// One cell of the breakdown.
    pub fn get(&self, op: Operator, dir: Direction, bin: SpeedBin, tech: Technology) -> &Ecdf {
        &self
            .cells
            .iter()
            .find(|(o, d, b, t, _)| *o == op && *d == dir && *b == bin && *t == tech)
            .expect("all combos computed")
            .4
    }

    /// All samples of one (op, dir, bin) pooled over techs.
    #[cfg(test)]
    fn pooled_bin(&self, op: Operator, dir: Direction, bin: SpeedBin) -> Ecdf {
        Ecdf::new(
            self.cells
                .iter()
                .filter(|(o, d, b, _, _)| *o == op && *d == dir && *b == bin)
                .flat_map(|(_, _, _, _, e)| e.samples().iter().copied()),
        )
    }

    /// Render the figure.
    pub fn render(&self) -> String {
        let mut out = cdf_header("Fig. 7 — throughput vs speed, per technology (Mbps)");
        out.push('\n');
        for (op, dir, bin, tech, e) in &self.cells {
            if e.is_empty() {
                continue;
            }
            out.push_str(&cdf_row(
                &format!(
                    "{} {} {} {}",
                    op.code(),
                    dir.label(),
                    bin.label(),
                    tech.label()
                ),
                e,
            ));
            out.push('\n');
        }
        out.push_str("speed-throughput Pearson r:\n");
        for (op, dir, r) in &self.speed_corr {
            out.push_str(&format!("  {} {}: r = {:+.2}\n", op.code(), dir.label(), r));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_support::network_ix as small_ix;

    #[test]
    fn mmwave_samples_concentrate_at_low_speed() {
        let f = compute(small_ix());
        let low = f.get(
            Operator::Verizon,
            Direction::Downlink,
            SpeedBin::Low,
            Technology::Nr5gMmWave,
        );
        let high = f.get(
            Operator::Verizon,
            Direction::Downlink,
            SpeedBin::High,
            Technology::Nr5gMmWave,
        );
        assert!(
            low.len() > high.len(),
            "mmWave low {} vs high {}",
            low.len(),
            high.len()
        );
    }

    #[test]
    fn speed_correlation_is_weak_negative() {
        // Table 2: speed r between -0.10 and -0.37.
        let f = compute(small_ix());
        for (op, dir, r) in &f.speed_corr {
            assert!(
                (-0.6..0.25).contains(r),
                "{op} {}: r = {r}",
                dir.label()
            );
        }
    }

    #[test]
    fn high_speed_bin_has_most_samples() {
        // §5.5: "This [high-speed] region has the maximum number of points".
        let f = compute(small_ix());
        let mut low = 0;
        let mut high = 0;
        for op in Operator::ALL {
            for dir in Direction::BOTH {
                low += f.pooled_bin(op, dir, SpeedBin::Low).len();
                high += f.pooled_bin(op, dir, SpeedBin::High).len();
            }
        }
        assert!(
            high as f64 > low as f64 * 0.8,
            "high {high} vs low {low}"
        );
    }

    #[test]
    fn tmobile_sustains_rates_on_highway() {
        // §5.5: several 100s of Mbps at 60+ mph for T-Mobile DL.
        let f = compute(small_ix());
        let e = f.pooled_bin(Operator::TMobile, Direction::Downlink, SpeedBin::High);
        // At fixture scale the highway bin has only a few hundred
        // samples; the full-scale run shows several hundred Mbps.
        assert!(e.max() > 55.0, "max {}", e.max());
    }
}
