//! Fig. 10: per-test performance vs % of time connected to high-speed 5G.
//!
//! §5.6's surprise: except for T-Mobile's midband in the downlink, being
//! on high-speed 5G most of a test barely moves the test's mean throughput
//! or RTT.

use wheels_ran::operator::Operator;
use wheels_xcal::database::TestKind;

use crate::index::AnalysisIndex;
use crate::stats::{mean, pearson};

/// Per-test (fraction of time on hs5G, mean metric) scatter per operator.
#[derive(Debug, Clone)]
pub struct Hs5gScatter {
    /// (op, points) for mean DL throughput.
    pub dl: Vec<(Operator, Vec<(f64, f64)>)>,
    /// (op, points) for mean UL throughput.
    pub ul: Vec<(Operator, Vec<(f64, f64)>)>,
    /// (op, points) for mean RTT.
    pub rtt: Vec<(Operator, Vec<(f64, f64)>)>,
}

fn scatter(ix: &AnalysisIndex<'_>, op: Operator, kind: TestKind) -> Vec<(f64, f64)> {
    ix.records(op, kind, false)
        .filter_map(|r| {
            let y = match kind {
                TestKind::Rtt => {
                    if r.rtt_ms.is_empty() {
                        return None;
                    }
                    mean(&r.rtt_ms.iter().map(|&v| v as f64).collect::<Vec<_>>())
                }
                _ => r.mean_tput_mbps()?,
            };
            Some((r.frac_hs5g as f64, y))
        })
        .collect()
}

/// Compute Fig. 10 from the index's record partitions.
pub fn compute(ix: &AnalysisIndex<'_>) -> Hs5gScatter {
    let per = |kind: TestKind| {
        ix.ops()
            .iter()
            .map(|&op| (op, scatter(ix, op, kind)))
            .collect()
    };
    Hs5gScatter {
        dl: per(TestKind::ThroughputDl),
        ul: per(TestKind::ThroughputUl),
        rtt: per(TestKind::Rtt),
    }
}

impl Hs5gScatter {
    /// Correlation between hs5G fraction and the metric for one panel.
    pub fn corr(points: &[(f64, f64)]) -> f64 {
        let x: Vec<f64> = points.iter().map(|p| p.0).collect();
        let y: Vec<f64> = points.iter().map(|p| p.1).collect();
        pearson(&x, &y)
    }

    /// Median metric for tests mostly on hs5G vs mostly off it.
    pub(crate) fn split_medians(points: &[(f64, f64)]) -> (f64, f64) {
        let hi: Vec<f64> = points.iter().filter(|p| p.0 > 0.7).map(|p| p.1).collect();
        let lo: Vec<f64> = points.iter().filter(|p| p.0 < 0.3).map(|p| p.1).collect();
        (crate::stats::median(&hi), crate::stats::median(&lo))
    }

    /// Render the figure as per-operator summaries.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig. 10 — per-test performance vs % time on hs5G\n");
        for (title, list) in [("DL Mbps", &self.dl), ("UL Mbps", &self.ul), ("RTT ms", &self.rtt)] {
            for (op, pts) in list.iter() {
                let (hi, lo) = Self::split_medians(pts);
                out.push_str(&format!(
                    "  {} {title}: n={} r={:+.2} median(hs5G>70%)={:.1} median(hs5G<30%)={:.1}\n",
                    op.code(),
                    pts.len(),
                    Self::corr(pts),
                    hi,
                    lo
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_support::network_ix as small_ix;

    #[test]
    fn panels_have_points() {
        let f = compute(small_ix());
        for (_, pts) in f.dl.iter().chain(f.ul.iter()).chain(f.rtt.iter()) {
            assert!(!pts.is_empty());
        }
    }

    #[test]
    fn tmobile_dl_benefits_most_from_midband() {
        // §5.6: only T-Mobile's midband brings a substantial DL
        // improvement.
        let f = compute(small_ix());
        let t = f
            .dl
            .iter()
            .find(|(o, _)| *o == Operator::TMobile)
            .map(|(_, p)| Hs5gScatter::corr(p))
            .unwrap();
        assert!(t > -0.2, "T-Mobile DL r = {t}");
    }

    #[test]
    fn hs5g_fraction_in_unit_interval() {
        let f = compute(small_ix());
        for (_, pts) in &f.dl {
            for (x, _) in pts {
                assert!((0.0..=1.0).contains(x));
            }
        }
    }
}
