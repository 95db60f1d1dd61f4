//! End-to-end RTT model: wired path + radio access + stochastic spikes.
//!
//! RTT in the paper's data (Fig. 3, Fig. 4, Fig. 8) is
//!
//! * lowest with Verizon mmWave + an edge server (median 18 ms, < 40 ms),
//! * tens of ms for every technology against cloud servers,
//! * heavily right-tailed under driving (maxima of 2–3 s),
//! * higher at higher speeds for Verizon and T-Mobile (Fig. 8).
//!
//! We compose it from: great-circle fiber propagation with a routing
//! inflation factor, a per-technology radio access latency, a
//! signal-quality- and speed-conditioned heavy spike process (RLC/HARQ
//! retransmissions, scheduling stalls), and handover blanking.

use rand::rngs::SmallRng;
use rand::Rng;

use wheels_geo::coord::LatLon;
use wheels_radio::band::Technology;

use crate::server::Server;

/// Effective signal propagation speed in fiber, m/s (≈ 2/3 c).
const FIBER_MPS: f64 = 2.0e8;
/// Multiplier for routing path stretch over great-circle distance.
const ROUTE_STRETCH: f64 = 1.6;
/// Fixed core-network + peering latency, ms (round trip).
const CORE_MS: f64 = 6.0;

/// Per-technology radio access round-trip latency, ms (scheduling grants,
/// HARQ, fronthaul). Matches the ordering in Fig. 4: mmWave < mid < low ≈
/// LTE-A < LTE, with 5G-low slightly worse than LTE-A (the paper calls out
/// that LTE-A beats 5G-low on RTT for Verizon and T-Mobile).
pub fn radio_rtt_ms(tech: Technology) -> f64 {
    match tech {
        Technology::Lte => 32.0,
        Technology::LteA => 24.0,
        Technology::Nr5gLow => 28.0,
        Technology::Nr5gMid => 17.0,
        Technology::Nr5gMmWave => 8.0,
    }
}

/// The stochastic RTT model for one UE.
#[derive(Debug)]
pub struct RttModel {
    rng: SmallRng,
    /// Residual spike state: RTT spikes cluster (a bad patch lasts a few
    /// hundred ms), modelled as a decaying inflation term.
    spike_ms: f64,
    last_t_s: f64,
}

impl RttModel {
    /// Create a model with its own RNG stream.
    pub fn new(rng: SmallRng) -> Self {
        RttModel {
            rng,
            spike_ms: 0.0,
            last_t_s: f64::NEG_INFINITY,
        }
    }

    /// Wired round-trip ms between a UE position and a server.
    pub fn wired_ms(ue: LatLon, server: &Server) -> f64 {
        let d_m = ue.haversine_m(&server.pos);
        let one_way_s = d_m * ROUTE_STRETCH / FIBER_MPS;
        2.0 * one_way_s * 1_000.0 + CORE_MS
    }

    /// Sample an end-to-end RTT in ms at time `t_s`.
    ///
    /// `wired_ms` is the wired leg to the test's server
    /// ([`Self::wired_ms`]); the caller derives it, once per test when the
    /// UE is parked. `sinr_db` and `speed_mps` condition the spike
    /// process; `in_handover` adds the residual interruption.
    pub fn sample_ms(
        &mut self,
        t_s: f64,
        wired_ms: f64,
        tech: Technology,
        sinr_db: f64,
        speed_mps: f64,
        in_handover: bool,
    ) -> f64 {
        let dt = if self.last_t_s.is_finite() {
            (t_s - self.last_t_s).max(0.0)
        } else {
            1.0
        };
        self.last_t_s = t_s;
        // Existing spike decays with ~300 ms time constant.
        self.spike_ms *= (-dt / 0.3).exp();
        // New spike arrivals: more likely at poor SINR and higher speed.
        let quality_penalty = ((6.0 - sinr_db) / 12.0).clamp(0.0, 1.0);
        let speed_penalty = (speed_mps / 31.0).clamp(0.0, 1.0);
        let p_spike = (0.02 + 0.10 * quality_penalty + 0.05 * speed_penalty) * dt.min(1.0);
        if self.rng.gen_bool(p_spike.clamp(0.0, 1.0)) {
            // Exponential spike, occasionally extreme (RLC re-establishment).
            let mean = 90.0 + 500.0 * quality_penalty;
            let e: f64 = -(1.0 - self.rng.gen::<f64>()).ln();
            self.spike_ms += (mean * e).min(2_800.0);
        }
        let base = wired_ms + radio_rtt_ms(tech);
        // Motion inflates the scheduling/HARQ component persistently
        // (CQI staleness, RLC retransmissions): Fig. 8's RTT-speed trend.
        let motion_ms = 28.0 * speed_penalty;
        let jitter = self.rng.gen_range(0.0..8.0);
        let ho = if in_handover { 60.0 } else { 0.0 };
        (base + motion_ms + jitter + self.spike_ms + ho).min(3_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServerKind, CLOUD_OHIO};
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    fn edge_boston() -> Server {
        Server {
            kind: ServerKind::Edge,
            pos: LatLon::new(42.3601, -71.0589),
            name: "Boston",
        }
    }

    #[test]
    fn radio_latency_ordering_matches_fig4() {
        assert!(radio_rtt_ms(Technology::Nr5gMmWave) < radio_rtt_ms(Technology::Nr5gMid));
        assert!(radio_rtt_ms(Technology::Nr5gMid) < radio_rtt_ms(Technology::LteA));
        assert!(radio_rtt_ms(Technology::LteA) < radio_rtt_ms(Technology::Nr5gLow));
        assert!(radio_rtt_ms(Technology::Nr5gLow) < radio_rtt_ms(Technology::Lte));
    }

    #[test]
    fn edge_mmwave_rtt_matches_paper_median() {
        let ue = LatLon::new(42.36, -71.06);
        let median = |server: &Server, seed: u64, n: usize, sinr_db: f64, speed_mps: f64| {
            let mut m = RttModel::new(SmallRng::seed_from_u64(seed));
            let mut v: Vec<f64> = (0..n)
                .map(|i| {
                    let t = i as f64 * 0.2;
                    let wired = RttModel::wired_ms(ue, server);
                    m.sample_ms(t, wired, Technology::Nr5gMmWave, sinr_db, speed_mps, false)
                })
                .collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        // Paper: mmWave + edge median 18 ms, below 40 ms.
        let med = median(&edge_boston(), 7, 4_000, 20.0, 1.0);
        assert!((10.0..32.0).contains(&med), "median {med}");
        // §5.2's Wavelength result: from Boston the selector picks the
        // in-city edge, whose median sits below the Ohio cloud's. Seeded
        // and exact: 20.1 vs 36.7 ms.
        let edge = crate::server::ServerSelector::new().select_for(
            wheels_ran::operator::Operator::Verizon.has_edge_servers(),
            ue,
            wheels_geo::timezone::Timezone::Eastern,
        );
        assert_eq!(edge.kind, ServerKind::Edge);
        let edge_ms = median(&edge, 5, 2_000, 18.0, 2.0);
        let cloud_ms = median(&CLOUD_OHIO, 5, 2_000, 18.0, 2.0);
        assert!(
            edge_ms < cloud_ms,
            "edge {edge_ms} ms vs cloud {cloud_ms} ms"
        );
    }

    #[test]
    fn cross_country_cloud_rtt_tens_of_ms() {
        // Boston UE to the Ohio cloud: ~10 ms wired + radio.
        let ue = LatLon::new(42.36, -71.06);
        let wired = RttModel::wired_ms(ue, &CLOUD_OHIO);
        assert!((10.0..30.0).contains(&wired), "{wired}");
    }

    #[test]
    fn spikes_produce_heavy_tail() {
        let mut m = RttModel::new(rng());
        let wired = RttModel::wired_ms(LatLon::new(41.0, -100.0), &CLOUD_OHIO);
        let mut max: f64 = 0.0;
        for i in 0..40_000 {
            let r = m.sample_ms(i as f64 * 0.2, wired, Technology::Lte, -2.0, 30.0, false);
            max = max.max(r);
        }
        // Paper: maxima of 2-3 s under driving.
        assert!(max > 800.0, "max {max}");
        assert!(max <= 3_000.0);
    }

    #[test]
    fn handover_inflates_rtt() {
        let wired = RttModel::wired_ms(LatLon::new(41.0, -100.0), &CLOUD_OHIO);
        let mut m1 = RttModel::new(rng());
        let mut m2 = RttModel::new(rng());
        let a = m1.sample_ms(0.0, wired, Technology::LteA, 15.0, 10.0, false);
        let b = m2.sample_ms(0.0, wired, Technology::LteA, 15.0, 10.0, true);
        assert!(b > a + 30.0);
    }

    #[test]
    fn bad_signal_spikes_more_often() {
        let count_spiky = |sinr: f64| {
            let mut m = RttModel::new(rng());
            let wired = RttModel::wired_ms(LatLon::new(41.0, -100.0), &CLOUD_OHIO);
            (0..20_000)
                .filter(|&i| {
                    m.sample_ms(i as f64 * 0.2, wired, Technology::Lte, sinr, 25.0, false) > 300.0
                })
                .count()
        };
        assert!(count_spiky(-5.0) > 2 * count_spiky(25.0));
    }
}
