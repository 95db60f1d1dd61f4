//! Log-distance path loss with band- and clutter-dependent exponents.
//!
//! `PL(d) = FSPL(1 m) + 10·n·log10(d) + clutter`, the standard log-distance
//! model. The exponent `n` grows with clutter (urban canyons) and is higher
//! for mmWave beyond its LOS range because blockage dominates.

use std::sync::OnceLock;

use crate::band::Band;

/// Constants of the cheap `log10` lower bound behind
/// [`PathLossModel::loss_lb_db`]: a rounded-down `log10(2)` and a 64-entry
/// rounded-down table of `log10(1 + k/64)`.
#[derive(Debug)]
pub struct Log10Lb {
    log10_2_lo: f64,
    table: [f64; 64],
}

impl Log10Lb {
    /// The process-wide constants, built on first use. A candidate scan
    /// fetches them once per span, not once per cell.
    pub fn get() -> &'static Log10Lb {
        static CONSTS: OnceLock<Log10Lb> = OnceLock::new();
        CONSTS.get_or_init(|| {
            // The 1e-12 nudges make both pieces strict lower bounds
            // regardless of libm's rounding direction (its error is ~1 ulp
            // ≈ 1e-16 here).
            let log10_2_lo = 2f64.log10() - 1e-12;
            let mut table = [0.0; 64];
            for (k, t) in table.iter_mut().enumerate() {
                *t = (1.0 + k as f64 / 64.0).log10() - 1e-12;
            }
            Log10Lb { log10_2_lo, table }
        })
    }
}

/// A log-distance path-loss model for one band in one clutter environment.
#[derive(Debug, Clone, Copy)]
pub struct PathLossModel {
    /// Path-loss exponent.
    exponent: f64,
    /// Additional fixed clutter loss, dB.
    clutter_db: f64,
    /// FSPL at the 1 m reference, dB — cached so the per-cell hot path
    /// does not recompute the carrier log10 on every lookup.
    fspl_1m_db: f64,
    /// `10·n`, the left prefix of the log-distance term, cached for the
    /// same reason (left-associative, so the product is bit-identical).
    exp10: f64,
}

impl PathLossModel {
    /// Build a model for `band` with a clutter factor in `[0, 1]`
    /// (0 = open rural, 1 = dense urban core).
    pub fn new(band: Band, clutter: f64) -> Self {
        let clutter = clutter.clamp(0.0, 1.0);
        // Exponent 2.1 (near free space, rural low band) to 3.6 (urban).
        // mmWave gets an extra blockage penalty in clutter.
        let base_exp = 2.1 + 1.5 * clutter;
        let exponent = if band.is_mmwave() {
            base_exp + 0.5 * clutter
        } else {
            base_exp
        };
        let clutter_db = if band.is_mmwave() {
            6.0 * clutter
        } else {
            3.0 * clutter
        };
        PathLossModel {
            exponent,
            clutter_db,
            fspl_1m_db: band.fspl_1m_db(),
            exp10: 10.0 * exponent,
        }
    }

    /// Path loss at distance `d_m` meters, dB. Distances below 1 m clamp to
    /// the 1 m reference.
    pub fn loss_db(&self, d_m: f64) -> f64 {
        let d = d_m.max(1.0);
        self.fspl_1m_db + self.exp10 * d.log10() + self.clutter_db
    }

    /// The path-loss exponent in use.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Sound lower bound on `loss_db(d)` for `d = sqrt(d2_m2)`, computed
    /// without `sqrt` or `log10` (exponent bits + a mantissa table).
    ///
    /// Guarantee: the returned value is strictly below what
    /// [`PathLossModel::loss_db`] computes for that distance, including
    /// every floating-point rounding on either side (a 1e-6 dB margin
    /// absorbs them; the structural slack from the 6-bit mantissa table is
    /// ≤ `0.0034·exp10` ≈ 0.15 dB). Candidate scans use it to skip the
    /// exact evaluation for cells that provably cannot reach the top two.
    ///
    /// Returns `f64::NEG_INFINITY` (a vacuous bound) when `d² < 4`, where
    /// the exponent decomposition would need the sub-1 m clamp handled.
    ///
    /// `lb` is [`Log10Lb::get`], passed in so a scan reads it once.
    pub fn loss_lb_db(&self, lb: &Log10Lb, d2_m2: f64) -> f64 {
        if !(d2_m2 >= 4.0) {
            return f64::NEG_INFINITY;
        }
        let bits = d2_m2.to_bits();
        let e = ((bits >> 52) & 0x7FF) as i64 - 1023;
        let k = ((bits >> 46) & 0x3F) as usize;
        // log10(d) = log10(d²)/2, bounded below piece by piece.
        let lb_log10_d = 0.5 * ((e as f64) * lb.log10_2_lo + lb.table[k]);
        self.fspl_1m_db + self.exp10 * lb_log10_d + self.clutter_db - 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_monotone_in_distance() {
        let m = PathLossModel::new(Band::new(1_900.0), 0.5);
        let mut last = 0.0;
        for d in [1.0, 10.0, 100.0, 1_000.0, 10_000.0] {
            let l = m.loss_db(d);
            assert!(l > last);
            last = l;
        }
    }

    #[test]
    fn clamps_below_reference() {
        let m = PathLossModel::new(Band::new(1_900.0), 0.0);
        assert_eq!(m.loss_db(0.1), m.loss_db(1.0));
    }

    #[test]
    fn mmwave_lossier_than_midband_at_same_distance() {
        let mm = PathLossModel::new(Band::new(28_000.0), 0.8);
        let mid = PathLossModel::new(Band::new(2_600.0), 0.8);
        assert!(mm.loss_db(200.0) > mid.loss_db(200.0) + 15.0);
    }

    #[test]
    fn urban_lossier_than_rural() {
        let b = Band::new(1_900.0);
        let urban = PathLossModel::new(b, 1.0);
        let rural = PathLossModel::new(b, 0.0);
        assert!(urban.loss_db(2_000.0) > rural.loss_db(2_000.0) + 10.0);
    }

    #[test]
    fn loss_lb_is_a_sound_tight_bound() {
        // The bound must sit strictly below the exact loss everywhere, and
        // within the documented ~0.16 dB structural slack.
        for clutter in [0.0, 0.3, 0.7, 1.0] {
            for band in [Band::new(700.0), Band::new(2_600.0), Band::new(28_000.0)] {
                let m = PathLossModel::new(band, clutter);
                let mut d = 2.0;
                while d < 40_000.0 {
                    let exact = m.loss_db(d);
                    let lb = m.loss_lb_db(Log10Lb::get(), d * d);
                    assert!(lb < exact, "lb {lb} !< exact {exact} at d={d}");
                    assert!(exact - lb < 0.2, "slack {} at d={d}", exact - lb);
                    d *= 1.0173;
                }
            }
        }
    }

    #[test]
    fn loss_lb_vacuous_below_two_meters() {
        let m = PathLossModel::new(Band::new(1_900.0), 0.5);
        assert_eq!(m.loss_lb_db(Log10Lb::get(), 3.9), f64::NEG_INFINITY);
        assert_eq!(m.loss_lb_db(Log10Lb::get(), 0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn plausible_macro_cell_budget() {
        // A 1.9 GHz macro cell at 3 km in suburban clutter. RSRP is a
        // per-resource-element quantity: ~63 dBm channel EIRP spread over
        // ~1200 subcarriers is ~32 dBm per RE. That should land RSRP in the
        // -90..-115 dBm range typical of drive-test data.
        let m = PathLossModel::new(Band::new(1_900.0), 0.4);
        let rsrp = 32.0 - m.loss_db(3_000.0);
        assert!((-120.0..-85.0).contains(&rsrp), "rsrp = {rsrp}");
    }
}
