//! Per-(operator, technology, direction) link configurations.
//!
//! These encode each carrier's spectrum holdings and device capabilities as
//! of August 2022 in *effective* terms: the per-component-carrier bandwidth
//! list (TDD uplink shares already folded in), sustained MIMO layers on the
//! move, and L1/L2 overhead. They are calibrated so that peak rates match
//! the static maxima the paper reports in Fig. 3a (e.g. Verizon mmWave DL
//! 3.4 Gbps, AT&T mmWave DL 2.0 Gbps, T-Mobile midband DL 0.8 Gbps, Verizon
//! mmWave UL 350 Mbps) — see DESIGN.md §4.

use std::sync::OnceLock;

use wheels_radio::band::Technology;
use wheels_radio::capacity::CapacityModel;

use crate::operator::Operator;
use crate::Direction;

/// Effective link configuration for one (operator, technology, direction).
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Bandwidth of each aggregatable component carrier, MHz, in activation
    /// order (primary first). `len()` is the max CA order; the paper's "CA"
    /// KPI is how many of these are active.
    pub cc_mhz: Vec<f64>,
    /// Effective spatial layers sustained while driving.
    pub layers: f64,
    /// L1/L2 overhead factor.
    pub overhead: f64,
    /// Effective noise-plus-interference floor for SINR computation, dBm
    /// (per-RE, matching the RSRP convention).
    pub noise_eff_dbm: f64,
}

impl LinkConfig {
    /// Max number of aggregated carriers.
    pub fn max_cc(&self) -> usize {
        self.cc_mhz.len()
    }

    /// Total bandwidth with `cc` carriers active, MHz.
    pub fn bandwidth_mhz(&self, cc: usize) -> f64 {
        self.cc_mhz.iter().take(cc.max(1)).sum()
    }

    /// Capacity model with `cc` carriers active.
    pub fn capacity_model(&self, cc: usize) -> CapacityModel {
        CapacityModel::new(self.bandwidth_mhz(cc), self.layers, self.overhead)
    }

    /// Wideband SINR for a given RSRP under this configuration, dB.
    pub fn sinr_db(&self, rsrp_dbm: f64) -> f64 {
        rsrp_dbm - self.noise_eff_dbm
    }
}

/// Look up the link configuration for an operator/technology/direction.
pub fn link_config(op: Operator, tech: Technology, dir: Direction) -> LinkConfig {
    use Direction::*;
    use Operator::*;
    use Technology::*;
    let (cc_mhz, layers, overhead, noise): (&[f64], f64, f64, f64) = match (op, tech, dir) {
        // ----- Verizon ------------------------------------------------
        (Verizon, Lte, Downlink) => (&[20.0], 2.0, 0.65, -110.0),
        (Verizon, Lte, Uplink) => (&[20.0], 1.0, 0.60, -112.0),
        (Verizon, LteA, Downlink) => (&[20.0, 20.0, 10.0], 2.0, 0.60, -110.0),
        // Verizon rarely aggregates carriers in the uplink (§5.5 "CA").
        (Verizon, LteA, Uplink) => (&[20.0], 1.0, 0.65, -112.0),
        (Verizon, Nr5gLow, Downlink) => (&[20.0, 20.0], 2.0, 0.60, -112.0),
        (Verizon, Nr5gLow, Uplink) => (&[20.0, 10.0], 1.0, 0.60, -113.0),
        (Verizon, Nr5gMid, Downlink) => (&[60.0, 20.0], 2.0, 0.55, -105.0),
        (Verizon, Nr5gMid, Uplink) => (&[15.0, 5.0], 1.0, 0.70, -107.0),
        (Verizon, Nr5gMmWave, Downlink) => (
            &[100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0],
            1.0,
            0.60,
            -95.0,
        ),
        (Verizon, Nr5gMmWave, Uplink) => (&[25.0, 25.0], 1.0, 0.95, -95.0),
        // ----- T-Mobile -----------------------------------------------
        (TMobile, Lte, Downlink) => (&[20.0], 2.0, 0.65, -110.0),
        (TMobile, Lte, Uplink) => (&[20.0], 1.0, 0.60, -112.0),
        (TMobile, LteA, Downlink) => (&[20.0, 20.0], 2.0, 0.70, -110.0),
        (TMobile, LteA, Uplink) => (&[20.0, 5.0], 1.0, 0.60, -112.0),
        (TMobile, Nr5gLow, Downlink) => (&[20.0, 20.0], 2.0, 0.65, -112.0),
        (TMobile, Nr5gLow, Uplink) => (&[20.0, 10.0], 1.0, 0.65, -113.0),
        // n41 100 MHz + LTE anchor; the paper's standout midband service.
        (TMobile, Nr5gMid, Downlink) => (&[100.0, 20.0], 2.0, 0.50, -105.0),
        // UL: TDD share folded in; one NR carrier plus a thin LTE anchor —
        // the anchor is why T-Mobile's UL CA count barely moves throughput
        // (§5.5 "CA").
        (TMobile, Nr5gMid, Uplink) => (&[25.0, 5.0], 1.0, 0.75, -107.0),
        (TMobile, Nr5gMmWave, Downlink) => (&[100.0, 100.0], 1.0, 0.60, -95.0),
        // T-Mobile mmWave UL maxes *below* its midband UL (§5.2 obs. (2)).
        (TMobile, Nr5gMmWave, Uplink) => (&[12.0, 12.0], 1.0, 0.60, -95.0),
        // ----- AT&T ---------------------------------------------------
        (Att, Lte, Downlink) => (&[20.0], 2.0, 0.65, -110.0),
        (Att, Lte, Uplink) => (&[20.0], 1.0, 0.55, -112.0),
        // AT&T's LTE-A is its workhorse: heavy CA (§5.5: CA has the highest
        // DL correlation for AT&T).
        (Att, LteA, Downlink) => (&[20.0, 20.0, 20.0, 10.0], 2.0, 0.60, -110.0),
        (Att, LteA, Uplink) => (&[20.0, 10.0], 1.0, 0.55, -112.0),
        (Att, Nr5gLow, Downlink) => (&[20.0, 20.0], 2.0, 0.60, -112.0),
        (Att, Nr5gLow, Uplink) => (&[20.0, 10.0], 1.0, 0.55, -113.0),
        (Att, Nr5gMid, Downlink) => (&[40.0, 20.0], 2.0, 0.55, -105.0),
        (Att, Nr5gMid, Uplink) => (&[10.0, 5.0], 1.0, 0.60, -107.0),
        (Att, Nr5gMmWave, Downlink) => (&[100.0, 100.0, 100.0, 100.0], 1.0, 0.55, -95.0),
        (Att, Nr5gMmWave, Uplink) => (&[25.0, 25.0], 1.0, 0.60, -95.0),
    };
    LinkConfig {
        cc_mhz: cc_mhz.to_vec(),
        layers,
        overhead,
        noise_eff_dbm: noise,
    }
}

/// All 30 (operator, technology, direction) configurations plus their
/// linear noise floors, materialized once. [`UeRadio::step`] looks two
/// configs up per tick, so the hot path must not re-allocate `cc_mhz` or
/// redo the dB→linear conversion every time.
///
/// [`UeRadio::step`]: crate::ue::UeRadio::step
static CONFIG_TABLE: OnceLock<Vec<(LinkConfig, f64)>> = OnceLock::new();

fn config_table() -> &'static [(LinkConfig, f64)] {
    CONFIG_TABLE.get_or_init(|| {
        let mut v = Vec::with_capacity(30);
        for op in Operator::ALL {
            for tech in Technology::ALL {
                for dir in Direction::BOTH {
                    let cfg = link_config(op, tech, dir);
                    let noise_lin = 10f64.powf(cfg.noise_eff_dbm / 10.0);
                    v.push((cfg, noise_lin));
                }
            }
        }
        v
    })
}

fn config_index(op: Operator, tech: Technology, dir: Direction) -> usize {
    (op as usize * 5 + crate::cell::tech_index(tech)) * 2 + dir as usize
}

/// Borrow the precomputed configuration for an operator/technology/
/// direction — same values as [`link_config`], no per-call allocation.
pub fn link_config_ref(op: Operator, tech: Technology, dir: Direction) -> &'static LinkConfig {
    &config_table()[config_index(op, tech, dir)].0
}

/// The linear noise-plus-interference floor `10^(noise_eff_dbm/10)` for a
/// configuration, precomputed with the exact expression the SINR path uses.
pub fn link_noise_lin(op: Operator, tech: Technology, dir: Direction) -> f64 {
    config_table()[config_index(op, tech, dir)].1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peak_mbps(op: Operator, tech: Technology, dir: Direction) -> f64 {
        let c = link_config(op, tech, dir);
        c.capacity_model(c.max_cc()).capacity(30.0, 0.0, 1.0).mbps
    }

    #[test]
    fn verizon_mmwave_dl_peak_near_3_5_gbps() {
        let p = peak_mbps(
            Operator::Verizon,
            Technology::Nr5gMmWave,
            Direction::Downlink,
        );
        assert!((3_000.0..4_200.0).contains(&p), "{p}");
    }

    #[test]
    fn att_mmwave_dl_peak_near_2_gbps() {
        let p = peak_mbps(Operator::Att, Technology::Nr5gMmWave, Direction::Downlink);
        assert!((1_500.0..2_500.0).contains(&p), "{p}");
    }

    #[test]
    fn tmobile_midband_dl_peak_near_900_mbps() {
        let p = peak_mbps(Operator::TMobile, Technology::Nr5gMid, Direction::Downlink);
        assert!((700.0..1_100.0).contains(&p), "{p}");
    }

    #[test]
    fn verizon_mmwave_ul_peak_near_350_mbps() {
        let p = peak_mbps(Operator::Verizon, Technology::Nr5gMmWave, Direction::Uplink);
        assert!((280.0..430.0).contains(&p), "{p}");
    }

    #[test]
    fn tmobile_mmwave_ul_below_midband_ul() {
        let mm = peak_mbps(Operator::TMobile, Technology::Nr5gMmWave, Direction::Uplink);
        let mid = peak_mbps(Operator::TMobile, Technology::Nr5gMid, Direction::Uplink);
        assert!(mm < mid, "mmWave {mm} vs mid {mid}");
    }

    #[test]
    fn uplink_order_of_magnitude_below_downlink() {
        for op in Operator::ALL {
            let dl = peak_mbps(op, Technology::Nr5gMmWave, Direction::Downlink);
            let ul = peak_mbps(op, Technology::Nr5gMmWave, Direction::Uplink);
            assert!(dl / ul > 4.0, "{op}: dl {dl} ul {ul}");
        }
    }

    #[test]
    fn verizon_ul_ltea_never_aggregates() {
        assert_eq!(
            link_config(Operator::Verizon, Technology::LteA, Direction::Uplink).max_cc(),
            1
        );
    }

    #[test]
    fn att_ltea_dl_aggregates_most() {
        let a = link_config(Operator::Att, Technology::LteA, Direction::Downlink).max_cc();
        let v = link_config(Operator::Verizon, Technology::LteA, Direction::Downlink).max_cc();
        let t = link_config(Operator::TMobile, Technology::LteA, Direction::Downlink).max_cc();
        assert!(a > v && a > t);
    }

    #[test]
    fn bandwidth_accumulates_with_cc() {
        let c = link_config(Operator::Att, Technology::LteA, Direction::Downlink);
        assert!(c.bandwidth_mhz(1) < c.bandwidth_mhz(2));
        assert_eq!(c.bandwidth_mhz(0), c.bandwidth_mhz(1), "at least 1 CC");
        assert_eq!(c.bandwidth_mhz(99), c.bandwidth_mhz(c.max_cc()));
    }

    #[test]
    fn sinr_from_rsrp() {
        let c = link_config(Operator::Verizon, Technology::Lte, Direction::Downlink);
        assert!((c.sinr_db(-90.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn every_combination_defined_and_sane() {
        for op in Operator::ALL {
            for tech in Technology::ALL {
                for dir in Direction::BOTH {
                    let c = link_config(op, tech, dir);
                    assert!(!c.cc_mhz.is_empty());
                    assert!(c.layers >= 1.0);
                    assert!((0.0..=1.0).contains(&c.overhead));
                    assert!((-130.0..-80.0).contains(&c.noise_eff_dbm));
                }
            }
        }
    }

    #[test]
    fn static_table_matches_constructor() {
        for op in Operator::ALL {
            for tech in Technology::ALL {
                for dir in Direction::BOTH {
                    let fresh = link_config(op, tech, dir);
                    let cached = link_config_ref(op, tech, dir);
                    assert_eq!(fresh.cc_mhz, cached.cc_mhz);
                    assert_eq!(fresh.layers.to_bits(), cached.layers.to_bits());
                    assert_eq!(fresh.overhead.to_bits(), cached.overhead.to_bits());
                    assert_eq!(
                        fresh.noise_eff_dbm.to_bits(),
                        cached.noise_eff_dbm.to_bits()
                    );
                    assert_eq!(
                        link_noise_lin(op, tech, dir).to_bits(),
                        10f64.powf(fresh.noise_eff_dbm / 10.0).to_bits()
                    );
                }
            }
        }
    }
}
