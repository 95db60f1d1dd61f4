//! mmWave beamforming profiles and the Verizon RSRP paradox.
//!
//! §5.5 (RSRP discussion): *"the RSRP for 5G mmWave ... is low for most
//! samples in the case of Verizon (-80 to -110 dBm) ... but high in the case
//! of AT&T (-70 to -90 dBm). The reason ... lies in the different beamwidths
//! of the phased arrays used by the two operators. In most of the cities,
//! Verizon uses a smaller number of wider beams compared to AT&T, which
//! result in lower gain, and hence, lower RSRP."*
//!
//! A phased array's boresight gain scales inversely with beam solid angle:
//! halving the beamwidth buys ~3 dB. We model a profile by its number of
//! beams covering a 120° sector; the gain difference between profiles is
//! what shifts the logged RSRP without shifting capacity much (capacity is
//! limited by bandwidth and load, not the last few dB of SNR at short
//! mmWave ranges) — reproducing Verizon's near-zero DL RSRP–throughput
//! correlation in Table 2.

/// A mmWave beam configuration for one operator.
#[derive(Debug, Clone, Copy)]
pub struct BeamProfile {
    /// Number of beams covering a 120° sector.
    pub beams_per_sector: u32,
    /// Peak boresight gain of each beam, dBi.
    pub boresight_gain_dbi: f64,
}

impl BeamProfile {
    /// A wide-beam profile (few beams, lower gain) — Verizon-like.
    pub fn wide() -> Self {
        BeamProfile {
            beams_per_sector: 8,
            boresight_gain_dbi: 21.0,
        }
    }

    /// A narrow-beam profile (many beams, higher gain) — AT&T-like.
    pub fn narrow() -> Self {
        BeamProfile {
            beams_per_sector: 32,
            boresight_gain_dbi: 27.0,
        }
    }

    /// Effective beam gain towards a UE whose angular offset from the best
    /// beam's boresight is `offset_frac` of a half-beamwidth (0 = centered,
    /// 1 = at the crossover to the next beam). Parabolic main-lobe rolloff
    /// with 3 dB at the crossover, the standard approximation.
    #[cfg(test)]
    fn gain_dbi(&self, offset_frac: f64) -> f64 {
        let x = offset_frac.clamp(0.0, 1.0);
        self.boresight_gain_dbi - 3.0 * x * x
    }

    /// Average gain over a beam (UE uniformly distributed in angle): the
    /// value that matters for the RSRP distribution a drive test logs.
    pub fn mean_gain_dbi(&self) -> f64 {
        // Integral of (G0 - 3x^2) over x in [0,1] = G0 - 1.
        self.boresight_gain_dbi - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_beams_have_higher_gain() {
        assert!(BeamProfile::narrow().mean_gain_dbi() > BeamProfile::wide().mean_gain_dbi() + 4.0);
    }

    #[test]
    fn narrow_beams_are_narrower() {
        // The sector splits evenly among the beams.
        assert!(BeamProfile::narrow().beams_per_sector > BeamProfile::wide().beams_per_sector);
    }

    #[test]
    fn gain_max_at_boresight() {
        let p = BeamProfile::wide();
        assert!(p.gain_dbi(0.0) > p.gain_dbi(0.5));
        assert!(p.gain_dbi(0.5) > p.gain_dbi(1.0));
    }

    #[test]
    fn crossover_loss_is_3db() {
        let p = BeamProfile::narrow();
        assert!((p.gain_dbi(0.0) - p.gain_dbi(1.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn paradox_magnitude_about_6_db() {
        // The paper reports Verizon ~-80..-110 vs AT&T ~-70..-90: a ~10 dB
        // shift. Beam gain supplies ~6 dB of it (the rest comes from site
        // placement differences in `wheels-ran`).
        let d = BeamProfile::narrow().mean_gain_dbi() - BeamProfile::wide().mean_gain_dbi();
        assert!((5.0..8.0).contains(&d), "{d}");
    }
}
