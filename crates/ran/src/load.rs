//! Cell load / scheduler-share process.
//!
//! The fraction of a cell's airtime a single UE gets depends on how many
//! other users the cell is serving, their channel quality, and backhaul —
//! none of which a drive-by UE observes. This hidden load is the dominant
//! source of throughput variance in the paper's data and the reason no
//! logged KPI correlates strongly with throughput (Table 2), including the
//! "surprisingly low" throughput seen even on high-speed 5G (§5.6).
//!
//! Model: log-share follows an AR(1) (OU) process with ~25 s decorrelation
//! around an operator/context mean, re-drawn on handover (a new cell has
//! unrelated load), plus occasional deep-congestion episodes that produce
//! the paper's heavy low-throughput tail (35 % of samples < 5 Mbps).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wheels_radio::shadowing::{gauss, RhoMemo};

/// Parameters of the load-share process.
#[derive(Debug, Clone, Copy)]
pub struct LoadParams {
    /// Median share of cell capacity the UE gets (0, 1].
    pub median_share: f64,
    /// Std-dev of the log-share.
    pub sigma: f64,
    /// Decorrelation time, seconds.
    pub tau_s: f64,
    /// Probability per second of entering a deep-congestion episode.
    pub congestion_rate: f64,
    /// Multiplier applied during congestion episodes.
    pub congestion_factor: f64,
    /// Congestion episode duration range, seconds.
    pub congestion_s: (f64, f64),
}

/// Multiplicative overrides for [`LoadParams`], exposed through the
/// scenario layer's operator tuning. Like the deployment multipliers in
/// [`crate::tuning::OperatorTuning`], the neutral scale (every factor
/// 1.0) is an exact no-op: `x * 1.0 == x` bit-for-bit in IEEE-754, and
/// every scaled field is re-clamped to a range it already occupied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadScale {
    /// Multiplier on the median scheduler share.
    pub median_scale: f64,
    /// Multiplier on the log-share standard deviation.
    pub sigma_scale: f64,
    /// Multiplier on the deep-congestion arrival rate.
    pub congestion_scale: f64,
}

impl LoadScale {
    /// The identity scale: every factor 1.0 (exact no-op).
    pub const NEUTRAL: LoadScale = LoadScale {
        median_scale: 1.0,
        sigma_scale: 1.0,
        congestion_scale: 1.0,
    };
}

impl Default for LoadScale {
    fn default() -> Self {
        Self::NEUTRAL
    }
}

impl LoadParams {
    /// Typical driving conditions: cells shared with many users.
    pub fn driving() -> Self {
        LoadParams {
            median_share: 0.34,
            sigma: 0.85,
            tau_s: 25.0,
            congestion_rate: 1.0 / 180.0,
            congestion_factor: 0.12,
            congestion_s: (5.0, 40.0),
        }
    }

    /// Static tests right next to the BS, often off-peak: better share.
    pub fn static_urban() -> Self {
        LoadParams {
            median_share: 0.58,
            sigma: 0.62,
            tau_s: 25.0,
            congestion_rate: 1.0 / 300.0,
            congestion_factor: 0.10,
            congestion_s: (5.0, 30.0),
        }
    }

    /// Apply a [`LoadScale`], re-clamping every field to its operating
    /// range. With [`LoadScale::NEUTRAL`] the result is bit-identical to
    /// `self` (multiply by 1.0, clamp over a range the value already
    /// occupies).
    pub fn scaled(&self, s: &LoadScale) -> LoadParams {
        LoadParams {
            median_share: (self.median_share * s.median_scale).clamp(0.005, 1.0),
            sigma: (self.sigma * s.sigma_scale).clamp(0.0, 3.0),
            congestion_rate: (self.congestion_rate * s.congestion_scale).clamp(0.0, 1.0),
            ..*self
        }
    }
}

/// The evolving load-share state for one (UE, direction).
#[derive(Debug, Clone)]
pub struct LoadProcess {
    params: LoadParams,
    /// Current log-share deviation from the mean.
    x: f64,
    last_t: f64,
    congested_until: f64,
    rng: SmallRng,
    /// AR(1) coefficients for the last `dt`: the 0.1 s cadence repeats
    /// almost every step, so `exp` and `sqrt` run only when it changes.
    memo: RhoMemo,
}

impl LoadProcess {
    /// Create a process; the initial state is drawn from the stationary
    /// distribution.
    pub fn new(params: LoadParams, seed: u64) -> Self {
        // lint:allow(D4): cell seed is derived from the UE's
        // netsim::rng stream; the salt splits the load sub-stream
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03);
        let x = gauss(&mut rng) * params.sigma;
        LoadProcess {
            params,
            x,
            last_t: f64::NEG_INFINITY,
            congested_until: f64::NEG_INFINITY,
            rng,
            memo: RhoMemo::default(),
        }
    }

    /// Advance to time `t` (seconds, non-decreasing) and return the share
    /// in (0, 1].
    pub fn share_at(&mut self, t: f64) -> f64 {
        if self.last_t == f64::NEG_INFINITY {
            self.last_t = t;
        }
        let dt = (t - self.last_t).max(0.0);
        if dt > 0.0 {
            // `k = sqrt(1 − ρ²)·σ` is the left prefix of the innovation
            // term, so the memoized product rounds exactly as the inline one.
            let (rho, k) = self.memo.coeffs(dt, self.params.tau_s, self.params.sigma);
            self.x = rho * self.x + k * gauss(&mut self.rng);
            // Congestion arrivals.
            if t > self.congested_until {
                let p = (self.params.congestion_rate * dt).clamp(0.0, 1.0);
                if self.rng.gen_bool(p) {
                    let d = self
                        .rng
                        .gen_range(self.params.congestion_s.0..self.params.congestion_s.1);
                    self.congested_until = t + d;
                }
            }
            self.last_t = t;
        }
        let mut share = self.params.median_share * self.x.exp();
        if t <= self.congested_until {
            share *= self.params.congestion_factor;
        }
        share.clamp(0.005, 1.0)
    }

    /// Handover: the new cell's load is unrelated to the old one's.
    pub(crate) fn redraw(&mut self) {
        self.x = gauss(&mut self.rng) * self.params.sigma;
    }

    /// The configured parameters.
    pub fn params(&self) -> &LoadParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_stays_in_bounds() {
        let mut p = LoadProcess::new(LoadParams::driving(), 1);
        for i in 0..10_000 {
            let s = p.share_at(i as f64 * 0.5);
            assert!((0.005..=1.0).contains(&s));
        }
    }

    #[test]
    fn median_roughly_matches() {
        let mut p = LoadProcess::new(LoadParams::driving(), 2);
        let mut v: Vec<f64> = (0..40_000)
            .map(|i| p.share_at(i as f64 * 30.0)) // decorrelated samples
            .collect();
        v.sort_by(f64::total_cmp);
        let med = v[v.len() / 2];
        assert!((0.22..0.45).contains(&med), "median {med}");
    }

    #[test]
    fn correlated_at_short_lags() {
        let mut p = LoadProcess::new(LoadParams::driving(), 3);
        let a = p.share_at(1_000.0);
        let b = p.share_at(1_000.5);
        assert!((a.ln() - b.ln()).abs() < 1.0);
    }

    #[test]
    fn redraw_changes_state() {
        let mut p = LoadProcess::new(LoadParams::driving(), 4);
        let a = p.share_at(10.0);
        p.redraw();
        let b = p.share_at(10.0);
        // Not guaranteed different in principle, but astronomically likely.
        assert_ne!(a, b);
    }

    #[test]
    fn congestion_episodes_occur() {
        let mut p = LoadProcess::new(LoadParams::driving(), 5);
        let mut min_share: f64 = 1.0;
        for i in 0..20_000 {
            min_share = min_share.min(p.share_at(i as f64));
        }
        assert!(min_share < 0.05, "never saw deep congestion: {min_share}");
    }

    #[test]
    fn neutral_scale_is_bit_exact() {
        for base in [LoadParams::driving(), LoadParams::static_urban()] {
            let scaled = base.scaled(&LoadScale::NEUTRAL);
            assert_eq!(scaled.median_share.to_bits(), base.median_share.to_bits());
            assert_eq!(scaled.sigma.to_bits(), base.sigma.to_bits());
            assert_eq!(scaled.tau_s.to_bits(), base.tau_s.to_bits());
            assert_eq!(
                scaled.congestion_rate.to_bits(),
                base.congestion_rate.to_bits()
            );
            assert_eq!(
                scaled.congestion_factor.to_bits(),
                base.congestion_factor.to_bits()
            );
        }
    }

    #[test]
    fn scaled_params_move_and_clamp() {
        let base = LoadParams::driving();
        let heavy = base.scaled(&LoadScale {
            median_scale: 0.5,
            sigma_scale: 1.2,
            congestion_scale: 1000.0,
        });
        assert!(heavy.median_share < base.median_share);
        assert!(heavy.sigma > base.sigma);
        assert_eq!(heavy.congestion_rate, 1.0);
        let floor = base.scaled(&LoadScale {
            median_scale: 0.0,
            sigma_scale: 1.0,
            congestion_scale: 1.0,
        });
        assert_eq!(floor.median_share, 0.005);
    }

    #[test]
    fn static_params_have_higher_median() {
        assert!(LoadParams::static_urban().median_share > LoadParams::driving().median_share);
    }

    /// `share_at` with the AR(1) coefficients computed inline on every
    /// call, as before they were memoized.
    fn unmemoized_share_at(p: &mut LoadProcess, t: f64) -> f64 {
        if p.last_t == f64::NEG_INFINITY {
            p.last_t = t;
        }
        let dt = (t - p.last_t).max(0.0);
        if dt > 0.0 {
            let rho = (-dt / p.params.tau_s).exp();
            p.x = rho * p.x + (1.0 - rho * rho).sqrt() * p.params.sigma * gauss(&mut p.rng);
            if t > p.congested_until {
                let prob = (p.params.congestion_rate * dt).clamp(0.0, 1.0);
                if p.rng.gen_bool(prob) {
                    let (lo, hi) = p.params.congestion_s;
                    p.congested_until = t + p.rng.gen_range(lo..hi);
                }
            }
            p.last_t = t;
        }
        let mut share = p.params.median_share * p.x.exp();
        if t <= p.congested_until {
            share *= p.params.congestion_factor;
        }
        share.clamp(0.005, 1.0)
    }

    #[test]
    fn coefficient_memo_is_bit_identical_to_inline_formula() {
        // Zero, repeated and changing dt, a handover redraw, and a long
        // run at the 0.1 s cadence: every share and the hidden state
        // match the unmemoized formula bit for bit.
        for params in [LoadParams::driving(), LoadParams::static_urban()] {
            let mut memo = LoadProcess::new(params, 21);
            let mut inline = LoadProcess::new(params, 21);
            let mut t = 100.0;
            let mut schedule = vec![0.0, 0.0, 0.1, 0.1, 0.1, 0.25, 0.0, 0.1, 7.0, 0.1, 0.3];
            schedule.extend(std::iter::repeat_n(0.1, 3_000));
            for (i, dt) in schedule.into_iter().enumerate() {
                t += dt;
                let (a, b) = (memo.share_at(t), unmemoized_share_at(&mut inline, t));
                assert_eq!(a.to_bits(), b.to_bits(), "step {i} at t={t}");
                assert_eq!(memo.x.to_bits(), inline.x.to_bits(), "state at step {i}");
                if i % 500 == 7 {
                    memo.redraw();
                    inline.redraw();
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let mut a = LoadProcess::new(LoadParams::driving(), 9);
        let mut b = LoadProcess::new(LoadParams::driving(), 9);
        for i in 0..100 {
            assert_eq!(a.share_at(i as f64), b.share_at(i as f64));
        }
    }
}
