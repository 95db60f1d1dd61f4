//! Cellular technologies and frequency bands.
//!
//! The paper distinguishes five technologies throughout: LTE, LTE-A,
//! 5G-low (sub-1 GHz NR), 5G-mid (2.5–4 GHz NR) and 5G-mmWave (24–40 GHz
//! NR). §5.4 further groups 5G-mid and 5G-mmWave as "high-throughput (HT)"
//! and the rest as "low-throughput (LT)" technologies.

use std::fmt;

/// A cellular radio technology as reported by XCAL / Android APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub enum Technology {
    /// Plain LTE (single carrier).
    Lte,
    /// LTE-Advanced (carrier aggregation, 256QAM, 4x4 MIMO).
    LteA,
    /// 5G NR low band (e.g. n5/n71, 600–850 MHz).
    Nr5gLow,
    /// 5G NR mid band (e.g. n41/n77, 2.5–3.7 GHz).
    Nr5gMid,
    /// 5G NR mmWave (e.g. n260/n261, 28/39 GHz).
    Nr5gMmWave,
}

impl Technology {
    /// All technologies, slowest-first (the order used in the paper's
    /// stacked coverage bars).
    pub const ALL: [Technology; 5] = [
        Technology::Lte,
        Technology::LteA,
        Technology::Nr5gLow,
        Technology::Nr5gMid,
        Technology::Nr5gMmWave,
    ];

    /// Is this a 5G NR technology?
    pub fn is_5g(self) -> bool {
        matches!(
            self,
            Technology::Nr5gLow | Technology::Nr5gMid | Technology::Nr5gMmWave
        )
    }

    /// "High-throughput" per §5.4: 5G midband or mmWave.
    pub fn is_high_speed(self) -> bool {
        matches!(self, Technology::Nr5gMid | Technology::Nr5gMmWave)
    }

    /// Label as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Technology::Lte => "LTE",
            Technology::LteA => "LTE-A",
            Technology::Nr5gLow => "5G-low",
            Technology::Nr5gMid => "5G-mid",
            Technology::Nr5gMmWave => "5G-mmWave",
        }
    }

    /// Representative band for propagation modelling.
    pub fn band(self) -> Band {
        match self {
            Technology::Lte | Technology::LteA => Band::new(1_900.0),
            Technology::Nr5gLow => Band::new(850.0),
            Technology::Nr5gMid => Band::new(2_600.0),
            Technology::Nr5gMmWave => Band::new(28_000.0),
        }
    }

    /// Typical inter-site distance multiplier: how much denser this layer
    /// must be deployed than macro LTE for usable coverage. mmWave cells
    /// cover ~150-300 m; low-band macro cells cover km.
    pub fn nominal_range_m(self) -> f64 {
        match self {
            Technology::Lte | Technology::LteA => 6_000.0,
            Technology::Nr5gLow => 7_000.0,
            Technology::Nr5gMid => 2_500.0,
            Technology::Nr5gMmWave => 280.0,
        }
    }
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A frequency band, characterized by its center frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Center frequency, MHz.
    pub center_mhz: f64,
}

impl Band {
    /// Create a band at the given center frequency (MHz).
    pub fn new(center_mhz: f64) -> Self {
        debug_assert!(center_mhz > 0.0);
        Band { center_mhz }
    }

    /// Is this a mmWave band (≥ 24 GHz)?
    pub fn is_mmwave(self) -> bool {
        self.center_mhz >= 24_000.0
    }

    /// Free-space path loss at 1 m reference distance, dB:
    /// `20·log10(4π·d0·f/c)` with d0 = 1 m.
    pub fn fspl_1m_db(self) -> f64 {
        // 20 log10(4*pi/c) + 20 log10(f_hz) = -147.55 + 20 log10(f_hz)
        20.0 * (self.center_mhz * 1e6).log10() - 147.55
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_speed_grouping_matches_section_5_4() {
        assert!(!Technology::Lte.is_high_speed());
        assert!(!Technology::LteA.is_high_speed());
        assert!(!Technology::Nr5gLow.is_high_speed());
        assert!(Technology::Nr5gMid.is_high_speed());
        assert!(Technology::Nr5gMmWave.is_high_speed());
    }

    #[test]
    fn five_g_grouping() {
        assert!(!Technology::LteA.is_5g());
        assert!(Technology::Nr5gLow.is_5g());
    }

    #[test]
    fn fspl_28ghz_at_1m_about_61_db() {
        let b = Band::new(28_000.0);
        assert!((b.fspl_1m_db() - 61.4).abs() < 0.5, "{}", b.fspl_1m_db());
    }

    #[test]
    fn fspl_increases_with_frequency() {
        assert!(Band::new(28_000.0).fspl_1m_db() > Band::new(850.0).fspl_1m_db());
    }

    #[test]
    fn ranges_ordered_mmwave_shortest() {
        assert!(Technology::Nr5gMmWave.nominal_range_m() < Technology::Nr5gMid.nominal_range_m());
        assert!(Technology::Nr5gMid.nominal_range_m() < Technology::Lte.nominal_range_m());
    }

    #[test]
    fn mmwave_band_detection() {
        assert!(Technology::Nr5gMmWave.band().is_mmwave());
        assert!(!Technology::Nr5gMid.band().is_mmwave());
    }
}
