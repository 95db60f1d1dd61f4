//! The passive "handover-logger" phones.
//!
//! §3: three unrooted phones ran a custom Android app sending 38-byte ICMP
//! pings every 200 ms (just enough to keep the radio awake) and logging
//! GPS, cell IDs and cellular technology. §4.1's finding: this *passive*
//! view is far more pessimistic than the XCAL view during backlogged tests,
//! because operators do not elevate a UE to 5G under negligible traffic —
//! the disparity shown in Fig. 1.

use serde::{Deserialize, Serialize};

use wheels_radio::band::Technology;
use wheels_ran::cell::CellId;
use wheels_ran::ue::LinkSnapshot;

/// One passive-logger record.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PassiveSample {
    /// Plan time, seconds.
    pub time_s: f64,
    /// Serving cell.
    pub cell: CellId,
    /// Serving technology as the Android API reports it.
    pub tech: Technology,
    /// Odometer, meters (derived from GPS during post-processing).
    pub odometer_m: f64,
    /// Speed, m/s.
    pub speed_mps: f32,
    /// Longitude, degrees (for map rendering à la Fig. 1).
    pub lon: f32,
}

/// The full passive log of one operator across the trip.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PassiveLogger {
    samples: Vec<PassiveSample>,
}

impl PassiveLogger {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A log holding exactly `samples`, which must be in time order (a
    /// checkpoint restores a log this way).
    pub fn from_samples(samples: Vec<PassiveSample>) -> Self {
        PassiveLogger { samples }
    }

    /// Record one tick (typically 1 s cadence).
    pub fn log(&mut self, s: &LinkSnapshot, lon: f64) {
        self.samples.push(PassiveSample {
            time_s: s.time_s,
            cell: s.cell,
            tech: s.tech,
            odometer_m: s.odometer_m,
            speed_mps: s.speed_mps as f32,
            lon: lon as f32,
        });
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[PassiveSample] {
        &self.samples
    }

    /// Discard every sample after plan time `t_s`, as if the logger app
    /// crashed then and nobody noticed until the end of the day. Returns
    /// the number of samples lost.
    pub fn truncate_after(&mut self, t_s: f64) -> usize {
        let before = self.samples.len();
        self.samples.retain(|s| s.time_s <= t_s);
        before - self.samples.len()
    }

    /// Discard samples inside the closed window `[w0_s, w1_s]` — a modem
    /// detach: the radio was gone, so nothing was logged. Returns the
    /// number of samples lost.
    pub fn drop_window(&mut self, w0_s: f64, w1_s: f64) -> usize {
        let before = self.samples.len();
        self.samples.retain(|s| s.time_s < w0_s || s.time_s > w1_s);
        before - self.samples.len()
    }

    /// Distance-weighted technology shares (fraction of miles on each
    /// technology), matching how the paper computes coverage.
    pub fn tech_shares(&self) -> [(Technology, f64); 5] {
        let mut meters = [0.0f64; 5];
        for w in self.samples.windows(2) {
            let (Some(a), Some(b)) = (w.first(), w.get(1)) else {
                continue;
            };
            let d = (b.odometer_m - a.odometer_m).max(0.0);
            let i = Technology::ALL
                .iter()
                .position(|&t| t == a.tech)
                // lint:allow(D7): Technology::ALL enumerates every variant, so the position always exists
                .expect("known technology");
            if let Some(m) = meters.get_mut(i) {
                *m += d;
            }
        }
        let total: f64 = meters.iter().sum::<f64>().max(1e-9);
        let mut out = [(Technology::Lte, 0.0); 5];
        for (slot, (t, m)) in out.iter_mut().zip(Technology::ALL.iter().zip(&meters)) {
            *slot = (*t, m / total);
        }
        out
    }

    /// Number of cell changes observed (the passive logger's proxy for
    /// handovers — Table 1's handover counts come from these phones).
    pub fn cell_changes(&self) -> usize {
        self.samples
            .windows(2)
            .filter(|w| {
                w.first()
                    .zip(w.get(1))
                    .map_or(false, |(a, b)| a.cell != b.cell)
            })
            .count()
    }

    /// Number of distinct cells seen.
    pub fn unique_cells(&self) -> usize {
        let mut cells: Vec<u32> = self.samples.iter().map(|s| s.cell.0).collect();
        cells.sort_unstable();
        cells.dedup();
        cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_geo::region::RegionKind;
    use wheels_geo::timezone::Timezone;

    fn snap(t: f64, od: f64, cell: u32, tech: Technology) -> LinkSnapshot {
        LinkSnapshot {
            time_s: t,
            odometer_m: od,
            speed_mps: 20.0,
            region: RegionKind::Highway,
            timezone: Timezone::Central,
            tech,
            cell: CellId(cell),
            outage: false,
            rsrp_dbm: -100.0,
            sinr_dl_db: 10.0,
            sinr_ul_db: 8.0,
            mcs_dl: 10,
            mcs_ul: 8,
            bler: 0.1,
            ca_dl: 1,
            ca_ul: 1,
            cap_dl_mbps: 50.0,
            cap_ul_mbps: 10.0,
            in_handover: false,
            handover: None,
        }
    }

    #[test]
    fn tech_shares_distance_weighted() {
        let mut log = PassiveLogger::new();
        // 1 km on LTE, 3 km on LTE-A.
        log.log(&snap(0.0, 0.0, 1, Technology::Lte), -100.0);
        log.log(&snap(60.0, 1_000.0, 2, Technology::LteA), -100.0);
        log.log(&snap(240.0, 4_000.0, 2, Technology::LteA), -100.0);
        let shares = log.tech_shares();
        assert!((shares[0].1 - 0.25).abs() < 1e-9);
        assert!((shares[1].1 - 0.75).abs() < 1e-9);
    }

    #[test]
    fn counts_cell_changes_and_unique_cells() {
        let mut log = PassiveLogger::new();
        for (i, cell) in [1u32, 1, 2, 2, 3, 1].iter().enumerate() {
            log.log(&snap(i as f64, i as f64 * 100.0, *cell, Technology::Lte), -100.0);
        }
        assert_eq!(log.cell_changes(), 3);
        assert_eq!(log.unique_cells(), 3);
    }

    #[test]
    fn truncate_and_window_drop_count_losses() {
        let mut log = PassiveLogger::new();
        for i in 0..10 {
            log.log(&snap(i as f64, i as f64 * 100.0, 1, Technology::Lte), -100.0);
        }
        assert_eq!(log.drop_window(3.0, 5.0), 3, "samples at t = 3, 4, 5");
        assert_eq!(log.samples().len(), 7);
        assert_eq!(log.truncate_after(6.5), 3, "samples at t = 7, 8, 9");
        assert_eq!(log.samples().len(), 4);
        assert_eq!(log.truncate_after(100.0), 0);
    }

    #[test]
    fn empty_log_is_safe() {
        let log = PassiveLogger::new();
        assert_eq!(log.cell_changes(), 0);
        assert_eq!(log.unique_cells(), 0);
        let shares = log.tech_shares();
        assert!(shares.iter().all(|(_, f)| *f == 0.0));
    }
}
