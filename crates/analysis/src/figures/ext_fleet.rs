//! Extension: probe vs population — what a three-phone drive-by panel
//! sees of a live subscriber fleet.
//!
//! When the campaign runs with `--population N`, the hidden load each
//! probe experiences is calibrated by the aggregate demand of `N` seeded
//! subscribers instead of a free-running stochastic process. The fleet's
//! own ground truth — per-(cell, technology, hour) utilization folded
//! into mergeable sketches during the campaign — is available alongside
//! the probe dataset, so for the first time the reproduction can ask the
//! question the paper could not: *how well does the drive-by panel's
//! picture track the network's actual load?* This section compares the
//! probes' operator ranking and 5G time share against the fleet's
//! subscriber-hour shares, and reports the ground-truth load quantiles
//! the probes were sampling from.
//!
//! This is *not* a paper figure — it needs the fleet ground truth, which
//! exists only inside the simulation.

use wheels_campaign::FleetSummary;
use wheels_radio::band::Technology;
use wheels_ran::operator::Operator;
use wheels_ran::Direction;

use crate::index::AnalysisIndex;
use crate::render::pct;

/// One operator's probe-view vs fleet-ground-truth comparison.
#[derive(Debug, Clone)]
pub struct OpFleetRow {
    /// The operator.
    pub op: Operator,
    /// Probe panel: median driving DL throughput, Mbps.
    pub probe_dl_median_mbps: f64,
    /// Probe panel: fraction of driving samples on a 5G technology.
    pub probe_5g_share: f64,
    /// Fleet ground truth: fraction of subscriber-hours on 5G layers.
    pub fleet_5g_share: f64,
    /// Fleet ground truth: total subscriber-hours this operator carried.
    pub fleet_sub_hours: f64,
    /// Fleet ground truth cell-load quantiles (p10/p50/p90 utilization).
    pub load_quantiles: [f64; 3],
}

/// The probe-vs-population extension section.
#[derive(Debug, Clone)]
pub struct ProbeVsFleet {
    /// Panel-total subscriber population (0 = campaign ran fleetless).
    pub population: u64,
    /// Per-operator comparison rows, panel order.
    pub rows: Vec<OpFleetRow>,
}

/// Fraction of `shares` mass on 5G technologies.
fn share_5g(shares: &[(Technology, f64)]) -> f64 {
    shares
        .iter()
        .filter(|(t, _)| t.is_5g())
        .map(|&(_, s)| s)
        .sum()
}

/// Compute the section. `fleet` is the campaign's merged ground truth;
/// `None` (a fleetless run) yields an empty section that renders a
/// pointer at the `--population` flag.
pub fn compute(ix: &AnalysisIndex<'_>, fleet: Option<&FleetSummary>) -> ProbeVsFleet {
    let Some(fleet) = fleet else {
        return ProbeVsFleet {
            population: 0,
            rows: Vec::new(),
        };
    };
    let rows = fleet
        .per_op
        .iter()
        .map(|(op, sketch)| {
            let total_hours = sketch.sub_hours();
            let fleet_5g: f64 = Technology::ALL
                .iter()
                .enumerate()
                .filter(|(_, t)| t.is_5g())
                .map(|(i, _)| sketch.tech_sub_hours(i))
                .sum();
            OpFleetRow {
                op: *op,
                probe_dl_median_mbps: ix.tput_ecdf(*op, Direction::Downlink, false).median(),
                probe_5g_share: share_5g(&ix.shares(*op).active_all),
                fleet_5g_share: if total_hours > 0.0 {
                    fleet_5g / total_hours
                } else {
                    0.0
                },
                fleet_sub_hours: total_hours,
                load_quantiles: [
                    sketch.hist.quantile(0.10),
                    sketch.hist.quantile(0.50),
                    sketch.hist.quantile(0.90),
                ],
            }
        })
        .collect();
    ProbeVsFleet {
        population: fleet.population,
        rows,
    }
}

impl ProbeVsFleet {
    /// Operators ranked best-first by probe median DL throughput.
    pub(crate) fn probe_ranking(&self) -> Vec<Operator> {
        let mut v: Vec<&OpFleetRow> = self.rows.iter().collect();
        v.sort_by(|a, b| b.probe_dl_median_mbps.total_cmp(&a.probe_dl_median_mbps));
        v.into_iter().map(|r| r.op).collect()
    }

    /// Operators ranked best-first by fleet ground truth: lowest median
    /// cell load carries its subscribers with the most headroom.
    pub(crate) fn fleet_ranking(&self) -> Vec<Operator> {
        let mut v: Vec<&OpFleetRow> = self.rows.iter().collect();
        v.sort_by(|a, b| a.load_quantiles[1].total_cmp(&b.load_quantiles[1]));
        v.into_iter().map(|r| r.op).collect()
    }

    /// Fraction of operator pairs the probe ranking orders the same way
    /// as the fleet ranking (1.0 = identical order).
    pub(crate) fn ranking_coverage(&self) -> f64 {
        let probe = self.probe_ranking();
        let fleet = self.fleet_ranking();
        let n = probe.len();
        if n < 2 {
            return 1.0;
        }
        let pos = |ranking: &[Operator], op: Operator| {
            ranking.iter().position(|&o| o == op).expect("op ranked")
        };
        let mut concordant = 0usize;
        let mut pairs = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                pairs += 1;
                let (a, b) = (probe[i], probe[j]);
                if pos(&fleet, a) < pos(&fleet, b) {
                    concordant += 1;
                }
            }
        }
        concordant as f64 / pairs as f64
    }

    /// Render the extension section.
    pub fn render(&self) -> String {
        let title = format!(
            "Extension — probe panel vs subscriber fleet (population {})",
            self.population
        );
        let mut out = format!("{title}\n{}\n", "-".repeat(title.len().min(100)));
        if self.rows.is_empty() {
            out.push_str("  campaign ran without a subscriber fleet (rerun with --population N)\n");
            return out;
        }
        out.push_str(
            "  op           probe p50 DL   probe 5G   fleet 5G   sub-hours   load p10/p50/p90\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<12} {:>9.2} Mbps   {:>7}   {:>7}   {:>9.0}   {:.2}/{:.2}/{:.2}\n",
                r.op.to_string(),
                r.probe_dl_median_mbps,
                pct(r.probe_5g_share),
                pct(r.fleet_5g_share),
                r.fleet_sub_hours,
                r.load_quantiles[0],
                r.load_quantiles[1],
                r.load_quantiles[2],
            ));
        }
        let fmt_ranking = |ops: Vec<Operator>| {
            ops.iter()
                .map(|o| o.to_string())
                .collect::<Vec<_>>()
                .join(" > ")
        };
        out.push_str(&format!(
            "  probe ranking (p50 DL):    {}\n",
            fmt_ranking(self.probe_ranking())
        ));
        out.push_str(&format!(
            "  fleet ranking (least load): {}\n",
            fmt_ranking(self.fleet_ranking())
        ));
        out.push_str(&format!(
            "  ranking coverage: {} of operator pairs ordered consistently\n",
            pct(self.ranking_coverage())
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_support::network_ix;
    use wheels_campaign::FleetUnitSketch;
    use wheels_fleet::CellHourObs;

    fn sketch(util: f64, tech: u8) -> FleetUnitSketch {
        let mut s = FleetUnitSketch::empty();
        s.observe(&CellHourObs {
            cell: 1,
            tech,
            hour_of_day: 12,
            subs: 100,
            active_micro: 100_000_000,
            util,
            span_micro: 1_000_000,
        });
        s
    }

    fn summary(utils: [f64; 3]) -> FleetSummary {
        FleetSummary {
            population: 30_000,
            per_op: Operator::ALL
                .iter()
                .zip(utils)
                .map(|(&op, u)| (op, sketch(u, 3)))
                .collect(),
        }
    }

    #[test]
    fn fleetless_run_renders_pointer() {
        let f = compute(network_ix(), None);
        assert_eq!(f.population, 0);
        assert!(f.render().contains("--population"));
    }

    #[test]
    fn fleet_shares_and_quantiles_come_from_the_sketch() {
        let f = compute(network_ix(), Some(&summary([0.2, 0.5, 0.9])));
        assert_eq!(f.population, 30_000);
        assert_eq!(f.rows.len(), 3);
        for r in &f.rows {
            // All mass on tech slot 3 (Nr5gMid) → 5G share is 1.
            assert!((r.fleet_5g_share - 1.0).abs() < 1e-9);
            assert!(r.fleet_sub_hours > 0.0);
            assert!(r.load_quantiles[0] <= r.load_quantiles[2]);
        }
        // Fleet ranking orders by median load: the 0.2-util operator wins.
        assert_eq!(f.fleet_ranking()[0], Operator::ALL[0]);
        let cov = f.ranking_coverage();
        assert!((0.0..=1.0).contains(&cov));
    }

    #[test]
    fn render_lists_every_operator() {
        let text = compute(network_ix(), Some(&summary([0.3, 0.4, 0.5]))).render();
        for op in Operator::ALL {
            assert!(text.contains(&op.to_string()), "{op} missing from:\n{text}");
        }
        assert!(text.contains("ranking coverage"));
    }
}
