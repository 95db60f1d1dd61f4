//! Cross-layer KPI samples: the 500 ms records XCAL logs during tests.
//!
//! Each sample joins the application-layer throughput of a 500 ms window
//! (when a throughput test is running) with the PHY/RRC state — exactly the
//! join the paper's Table 2 correlation analysis runs on.

use serde::Serialize;

use wheels_geo::region::RegionKind;
use wheels_geo::timezone::Timezone;
use wheels_radio::band::Technology;
use wheels_ran::cell::CellId;
use wheels_ran::ue::LinkSnapshot;

/// One 500 ms cross-layer sample.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct KpiSample {
    /// Window end, plan seconds.
    pub time_s: f64,
    /// Application-layer throughput over the window, Mbps (None for
    /// RTT/app tests where no bulk transfer is running).
    pub tput_mbps: Option<f32>,
    /// Serving technology.
    pub tech: Technology,
    /// Serving cell.
    pub cell: CellId,
    /// Primary cell RSRP, dBm.
    pub rsrp_dbm: f32,
    /// Wideband SINR (of the measured direction), dB.
    pub sinr_db: f32,
    /// Primary cell MCS (of the measured direction).
    pub mcs: u8,
    /// Residual BLER.
    pub bler: f32,
    /// Aggregated carriers (of the measured direction).
    pub ca: u8,
    /// Handovers that executed within this window.
    pub handovers_in_window: u8,
    /// Vehicle speed, m/s.
    pub speed_mps: f32,
    /// Odometer, meters.
    pub odometer_m: f64,
    /// Region kind.
    pub region: RegionKind,
    /// Timezone.
    pub timezone: Timezone,
    /// Whether any part of the window was inside a handover interruption.
    pub in_handover: bool,
}

impl KpiSample {
    /// Build a sample from a link snapshot for the downlink direction.
    pub fn from_snapshot_dl(s: &LinkSnapshot, tput_mbps: Option<f32>, hos: u8) -> Self {
        Self::build(s, tput_mbps, hos, s.sinr_dl_db, s.mcs_dl, s.ca_dl)
    }

    /// Build a sample from a link snapshot for the uplink direction.
    pub fn from_snapshot_ul(s: &LinkSnapshot, tput_mbps: Option<f32>, hos: u8) -> Self {
        Self::build(s, tput_mbps, hos, s.sinr_ul_db, s.mcs_ul, s.ca_ul)
    }

    fn build(
        s: &LinkSnapshot,
        tput_mbps: Option<f32>,
        hos: u8,
        sinr: f64,
        mcs: u8,
        ca: u8,
    ) -> Self {
        KpiSample {
            time_s: s.time_s,
            tput_mbps,
            tech: s.tech,
            cell: s.cell,
            rsrp_dbm: s.rsrp_dbm as f32,
            sinr_db: sinr as f32,
            mcs,
            bler: s.bler as f32,
            ca,
            handovers_in_window: hos,
            speed_mps: s.speed_mps as f32,
            odometer_m: s.odometer_m,
            region: s.region,
            timezone: s.timezone,
            in_handover: s.in_handover,
        }
    }

    /// Speed in mph (the unit of the paper's figures).
    pub fn speed_mph(&self) -> f64 {
        wheels_geo::mps_to_mph(self.speed_mps as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> LinkSnapshot {
        LinkSnapshot {
            time_s: 100.0,
            odometer_m: 5_000.0,
            speed_mps: 26.8,
            region: RegionKind::Highway,
            timezone: Timezone::Pacific,
            tech: Technology::Nr5gMid,
            cell: CellId(42),
            outage: false,
            rsrp_dbm: -95.0,
            sinr_dl_db: 12.0,
            sinr_ul_db: 10.0,
            mcs_dl: 15,
            mcs_ul: 12,
            bler: 0.09,
            ca_dl: 2,
            ca_ul: 1,
            cap_dl_mbps: 120.0,
            cap_ul_mbps: 30.0,
            in_handover: false,
            handover: None,
        }
    }

    #[test]
    fn dl_sample_uses_dl_kpis() {
        let k = KpiSample::from_snapshot_dl(&snapshot(), Some(88.0), 1);
        assert_eq!(k.mcs, 15);
        assert_eq!(k.ca, 2);
        assert_eq!(k.sinr_db, 12.0);
        assert_eq!(k.tput_mbps, Some(88.0));
        assert_eq!(k.handovers_in_window, 1);
    }

    #[test]
    fn ul_sample_uses_ul_kpis() {
        let k = KpiSample::from_snapshot_ul(&snapshot(), None, 0);
        assert_eq!(k.mcs, 12);
        assert_eq!(k.ca, 1);
        assert_eq!(k.sinr_db, 10.0);
        assert!(k.tput_mbps.is_none());
    }

    #[test]
    fn speed_converts_to_mph() {
        let k = KpiSample::from_snapshot_dl(&snapshot(), None, 0);
        assert!((k.speed_mph() - 59.95).abs() < 0.1);
    }

    #[test]
    fn serializes_to_json() {
        let k = KpiSample::from_snapshot_dl(&snapshot(), Some(10.0), 0);
        let j = serde_json::to_string(&k).unwrap();
        assert!(j.contains("\"Nr5gMid\""));
    }
}
