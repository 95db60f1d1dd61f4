//! Fig. 4: driving throughput/RTT CDFs per technology; Verizon edge vs
//! cloud split.

use std::sync::Arc;

use wheels_netsim::server::ServerKind;
use wheels_radio::band::Technology;
use wheels_ran::operator::Operator;

use crate::ecdf::Ecdf;
use crate::index::{AnalysisIndex, EcdfQuery, QueryMetric};
use crate::render::{cdf_header, cdf_row};

/// One CDF series keyed by (operator, technology, server kind).
pub type TechSeries = Vec<(Operator, Technology, ServerKind, Arc<Ecdf>)>;

/// CDFs per (operator, technology, server kind).
#[derive(Debug, Clone)]
pub struct TechPerf {
    /// (op, tech, server kind, DL tput ECDF).
    pub dl: TechSeries,
    /// (op, tech, server kind, UL tput ECDF).
    pub ul: TechSeries,
    /// (op, tech, server kind, RTT ECDF).
    pub rtt: TechSeries,
}

/// Compute Fig. 4 (driving tests only) from memoized index queries.
pub fn compute(ix: &AnalysisIndex<'_>) -> TechPerf {
    let mut dl = Vec::new();
    let mut ul = Vec::new();
    let mut rtt = Vec::new();
    for &op in ix.ops() {
        let kinds: &[ServerKind] = if op.has_edge_servers() {
            &[ServerKind::Cloud, ServerKind::Edge]
        } else {
            &[ServerKind::Cloud]
        };
        for &server in kinds {
            for tech in Technology::ALL {
                let cell = |metric: QueryMetric| {
                    ix.query(EcdfQuery::metric(op, metric).tech(tech).server(server))
                };
                dl.push((op, tech, server, cell(QueryMetric::TputDl)));
                ul.push((op, tech, server, cell(QueryMetric::TputUl)));
                rtt.push((op, tech, server, cell(QueryMetric::Rtt)));
            }
        }
    }
    TechPerf { dl, ul, rtt }
}

impl TechPerf {
    /// Look up one series.
    pub fn get(
        list: &[(Operator, Technology, ServerKind, Arc<Ecdf>)],
        op: Operator,
        tech: Technology,
        server: ServerKind,
    ) -> Option<&Ecdf> {
        list.iter()
            .find(|(o, t, s, _)| *o == op && *t == tech && *s == server)
            .map(|(_, _, _, e)| &**e)
    }

    /// Pool a direction's samples across server kinds for (op, tech).
    #[cfg(test)]
    fn pooled(
        list: &[(Operator, Technology, ServerKind, Arc<Ecdf>)],
        op: Operator,
        tech: Technology,
    ) -> Ecdf {
        Ecdf::new(
            list.iter()
                .filter(|(o, t, _, _)| *o == op && *t == tech)
                .flat_map(|(_, _, _, e)| e.samples().iter().copied()),
        )
    }

    /// Render the figure.
    pub fn render(&self) -> String {
        let mut out = cdf_header("Fig. 4 — per-technology driving performance");
        out.push('\n');
        for (title, list, unit) in [
            ("downlink throughput", &self.dl, "Mbps"),
            ("uplink throughput", &self.ul, "Mbps"),
            ("RTT", &self.rtt, "ms"),
        ] {
            out.push_str(&format!("  [{title}, {unit}]\n"));
            for (op, tech, server, e) in list.iter() {
                if e.is_empty() {
                    continue;
                }
                out.push_str(&cdf_row(
                    &format!("{} {} ({})", op.code(), tech.label(), server.label()),
                    e,
                ));
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_support::network_ix as small_ix;
    use wheels_ran::Direction as Dir;

    #[test]
    fn five_g_outperforms_4g_downlink() {
        let f = compute(small_ix());
        for op in Operator::ALL {
            let lte = TechPerf::pooled(&f.dl, op, Technology::Lte);
            let mid = TechPerf::pooled(&f.dl, op, Technology::Nr5gMid);
            if lte.len() < 30 || mid.len() < 30 {
                continue;
            }
            assert!(
                mid.percentile(75.0) > lte.percentile(75.0),
                "{op}: mid p75 {} vs lte p75 {}",
                mid.percentile(75.0),
                lte.percentile(75.0)
            );
        }
    }

    #[test]
    fn tmobile_midband_reaches_high_rates_with_deep_fades() {
        // §5.2: T-Mobile midband up to 760 Mbps DL but 40 % of samples
        // below 2 Mbps (largest fluctuation).
        let f = compute(small_ix());
        let mid = TechPerf::pooled(&f.dl, Operator::TMobile, Technology::Nr5gMid);
        assert!(mid.max() > 120.0, "max {}", mid.max());
        assert!(mid.frac_below(5.0) > 0.10, "low tail {}", mid.frac_below(5.0));
    }

    #[test]
    fn verizon_edge_rtt_below_cloud() {
        let f = compute(small_ix());
        // Pool RTT over techs for edge vs cloud.
        let pool = |server| {
            Ecdf::new(
                f.rtt
                    .iter()
                    .filter(|(o, _, s, _)| *o == Operator::Verizon && *s == server)
                    .flat_map(|(_, _, _, e)| e.samples().iter().copied()),
            )
        };
        let edge = pool(ServerKind::Edge);
        let cloud = pool(ServerKind::Cloud);
        if edge.len() > 20 && cloud.len() > 20 {
            assert!(
                edge.median() < cloud.median(),
                "edge {} vs cloud {}",
                edge.median(),
                cloud.median()
            );
        }
    }

    #[test]
    fn mmwave_rtt_lowest_for_verizon() {
        let f = compute(small_ix());
        let mm = TechPerf::pooled(&f.rtt, Operator::Verizon, Technology::Nr5gMmWave);
        let lte = TechPerf::pooled(&f.rtt, Operator::Verizon, Technology::Lte);
        if mm.len() > 10 && lte.len() > 10 {
            assert!(mm.median() < lte.median());
        }
    }

    #[test]
    fn directions_defined_for_all() {
        let _ = Dir::BOTH;
        let f = compute(small_ix());
        assert!(!f.dl.is_empty() && !f.ul.is_empty() && !f.rtt.is_empty());
    }
}
