//! One module per paper table/figure. Every module exposes `compute(&db)`
//! (plus parameters where relevant) and a `render()` producing the same
//! rows/series the paper reports.

pub mod ext_fleet;
pub mod ext_multipath;
pub mod fig01_coverage_views;
pub mod fig02_coverage;
pub mod fig03_static_driving;
pub mod fig04_tech_perf;
pub mod fig05_timezones;
pub mod fig06_operator_diversity;
pub mod fig07_speed_tput;
pub mod fig08_speed_rtt;
pub mod fig09_test_stats;
pub mod fig10_hs5g;
pub mod fig11_handovers;
pub mod fig12_ho_impact;
pub mod fig13_ar;
pub mod fig14_cav;
pub mod fig15_video;
pub mod fig16_gaming;
pub mod table2_correlations;
pub mod table3_ookla;

use wheels_radio::band::Technology;
use wheels_xcal::kpi::KpiSample;

/// Distance-weighted technology shares over KPI samples (each 500 ms
/// sample weighs `speed × 0.5 s` meters) — coverage "as a percentage of
/// miles driven", the paper's metric.
pub fn tech_shares<'a>(samples: impl Iterator<Item = &'a KpiSample>) -> [(Technology, f64); 5] {
    let mut meters = [0.0f64; 5];
    for k in samples {
        let idx = Technology::ALL
            .iter()
            .position(|&t| t == k.tech)
            .expect("known technology");
        meters[idx] += k.speed_mps as f64 * 0.5;
    }
    let total: f64 = meters.iter().sum::<f64>().max(1e-9);
    let mut out = [(Technology::Lte, 0.0); 5];
    for (i, t) in Technology::ALL.iter().enumerate() {
        out[i] = (*t, meters[i] / total);
    }
    out
}

/// Sum of the 5G shares in a share array.
pub fn share_5g(shares: &[(Technology, f64); 5]) -> f64 {
    shares.iter().filter(|(t, _)| t.is_5g()).map(|(_, f)| f).sum()
}

/// Sum of the high-speed (mid + mmWave) shares.
pub fn share_hs5g(shares: &[(Technology, f64); 5]) -> f64 {
    shares
        .iter()
        .filter(|(t, _)| t.is_high_speed())
        .map(|(_, f)| f)
        .sum()
}

/// Pair each RTT sample of a test with its covering 500 ms KPI window.
/// RTT tests ping every 200 ms, so window index = floor(i·0.2 / 0.5).
pub fn rtt_with_context(record: &wheels_xcal::TestRecord) -> Vec<(f64, KpiSample)> {
    record
        .rtt_ms
        .iter()
        .enumerate()
        .filter_map(|(i, &rtt)| {
            let w = ((i as f64 * 0.2) / 0.5) as usize;
            record.kpi.get(w).map(|k| (rtt as f64, *k))
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared miniature-campaign fixtures: built once per test binary.
    use std::sync::OnceLock;
    use wheels_campaign::{Campaign, CampaignConfig, ScenarioSpec};
    use wheels_xcal::database::ConsolidatedDb;

    use crate::index::AnalysisIndex;

    static DB: OnceLock<ConsolidatedDb> = OnceLock::new();
    static NET_DB: OnceLock<ConsolidatedDb> = OnceLock::new();
    static IX: OnceLock<AnalysisIndex<'static>> = OnceLock::new();
    static NET_IX: OnceLock<AnalysisIndex<'static>> = OnceLock::new();

    /// A small but complete campaign database (all test kinds, statics,
    /// passive loggers) — used by the app-figure tests.
    pub fn small_db() -> &'static ConsolidatedDb {
        DB.get_or_init(|| {
            let mut cfg = CampaignConfig::full(2026);
            cfg.scale = 0.03;
            cfg.passive_tick_s = 8.0;
            Campaign::from_spec(&ScenarioSpec::paper(), cfg).run(1, None).expect("tolerant run").db
        })
    }

    /// A network-tests-only campaign at much higher cycle density —
    /// coverage/throughput/RTT/handover figures need hundreds of tests
    /// to rise above the km-scale coverage-patch correlation.
    pub fn network_db() -> &'static ConsolidatedDb {
        NET_DB.get_or_init(|| {
            let mut cfg = CampaignConfig::full(2027);
            cfg.scale = 0.22;
            cfg.passive_tick_s = 4.0;
            let mut spec = ScenarioSpec::paper();
            spec.schedule.run_apps = false;
            Campaign::from_spec(&spec, cfg).run(1, None).expect("tolerant run").db
        })
    }

    /// The analysis index over [`small_db`], built once.
    pub fn small_ix() -> &'static AnalysisIndex<'static> {
        IX.get_or_init(|| AnalysisIndex::build(small_db()))
    }

    /// The analysis index over [`network_db`], built once.
    pub fn network_ix() -> &'static AnalysisIndex<'static> {
        NET_IX.get_or_init(|| AnalysisIndex::build(network_db()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_geo::region::RegionKind;
    use wheels_geo::timezone::Timezone;
    use wheels_ran::cell::CellId;

    fn kpi(tech: Technology, speed: f32) -> KpiSample {
        KpiSample {
            time_s: 0.0,
            tput_mbps: None,
            tech,
            cell: CellId(1),
            rsrp_dbm: -100.0,
            sinr_db: 10.0,
            mcs: 10,
            bler: 0.1,
            ca: 1,
            handovers_in_window: 0,
            speed_mps: speed,
            odometer_m: 0.0,
            region: RegionKind::Highway,
            timezone: Timezone::Central,
            in_handover: false,
        }
    }

    #[test]
    fn shares_weighted_by_distance_not_count() {
        // One fast LTE sample (30 m/s) vs three slow midband samples
        // (2 m/s each): LTE carries 15 m, midband 3 m.
        let samples = [kpi(Technology::Lte, 30.0),
            kpi(Technology::Nr5gMid, 2.0),
            kpi(Technology::Nr5gMid, 2.0),
            kpi(Technology::Nr5gMid, 2.0)];
        let shares = tech_shares(samples.iter());
        let lte = shares[0].1;
        assert!((lte - 15.0 / 18.0).abs() < 1e-9, "{lte}");
    }

    #[test]
    fn share_groupings() {
        let samples = [kpi(Technology::Nr5gLow, 10.0), kpi(Technology::Nr5gMid, 10.0)];
        let shares = tech_shares(samples.iter());
        assert!((share_5g(&shares) - 1.0).abs() < 1e-9);
        assert!((share_hs5g(&shares) - 0.5).abs() < 1e-9);
    }
}
