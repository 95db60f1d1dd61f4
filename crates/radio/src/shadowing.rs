//! Spatially correlated log-normal shadowing (Gudmundson model).
//!
//! Drive-test RSRP wobbles smoothly as the vehicle moves: obstructions come
//! and go over tens to hundreds of meters. We model shadowing as a
//! first-order autoregressive Gaussian process over *odometer distance*:
//!
//! `S(d + Δ) = ρ·S(d) + sqrt(1 − ρ²)·σ·Z`, with `ρ = exp(−Δ/D_corr)`.
//!
//! Each (cell, UE) pair gets an independent field seeded from the pair's
//! identity, so the process is deterministic and can be evaluated lazily at
//! whatever odometer positions the simulation visits (monotonically).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cache for the AR(1) advance coefficients `ρ = exp(−Δ/D_corr)` and
/// `k = sqrt(1 − ρ²)·σ`, keyed on the exact bit patterns of the inputs.
///
/// Many shadowing fields advance by the same Δ in one simulation tick
/// (every cell in the audible window is queried at the same odometer each
/// step), so the `exp`/`sqrt` pair can be shared across fields with equal
/// (Δ, D_corr, σ). Keying on bit patterns keeps [`ShadowBank::visit_span`]
/// bit-identical to [`ShadowingField::at`]: a memo hit replays exactly the
/// values a miss would compute, and the advance `ρ·S + sqrt(1−ρ²)·σ·Z`
/// evaluates left-associatively, so hoisting `k` changes no rounding.
///
/// Any AR(1) process of that form can share it: the cell-load process
/// (`wheels_ran::load`) advances over time with Δ = dt and D_corr = τ.
#[derive(Debug, Clone)]
pub struct RhoMemo {
    delta_m: f64,
    corr_dist_m: f64,
    sigma_db: f64,
    rho: f64,
    k: f64,
}

impl Default for RhoMemo {
    fn default() -> Self {
        // NaN never bit-matches a real Δ, so the first lookup always fills.
        RhoMemo {
            delta_m: f64::NAN,
            corr_dist_m: f64::NAN,
            sigma_db: f64::NAN,
            rho: 0.0,
            k: 0.0,
        }
    }
}

impl RhoMemo {
    /// `(ρ, k)` for an advance by `delta_m` with decorrelation distance
    /// `corr_dist_m` and std-dev `sigma_db`, recomputed only when an input
    /// differs bit for bit from the last call's.
    #[inline]
    pub fn coeffs(&mut self, delta_m: f64, corr_dist_m: f64, sigma_db: f64) -> (f64, f64) {
        if self.delta_m.to_bits() != delta_m.to_bits()
            || self.corr_dist_m.to_bits() != corr_dist_m.to_bits()
            || self.sigma_db.to_bits() != sigma_db.to_bits()
        {
            self.delta_m = delta_m;
            self.corr_dist_m = corr_dist_m;
            self.sigma_db = sigma_db;
            self.rho = (-delta_m / corr_dist_m).exp();
            self.k = (1.0 - self.rho * self.rho).sqrt() * sigma_db;
        }
        (self.rho, self.k)
    }
}

/// A lazily evaluated AR(1) shadowing process over distance.
#[derive(Debug, Clone)]
pub struct ShadowingField {
    sigma_db: f64,
    corr_dist_m: f64,
    rng: SmallRng,
    last_d_m: f64,
    last_value_db: f64,
    initialized: bool,
}

impl ShadowingField {
    /// Create a field with std-dev `sigma_db` and decorrelation distance
    /// `corr_dist_m`, seeded deterministically.
    pub fn new(sigma_db: f64, corr_dist_m: f64, seed: u64) -> Self {
        assert!(sigma_db >= 0.0 && corr_dist_m > 0.0);
        ShadowingField {
            sigma_db,
            corr_dist_m,
            // lint:allow(D4): field seed is (UE seed ^ cell id) with the
            // UE seed netsim::rng-derived; the multiplier only decorrelates
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(0xA24B_AED4_963E_E407)),
            last_d_m: 0.0,
            last_value_db: 0.0,
            initialized: false,
        }
    }

    /// Shadowing in dB at odometer distance `d_m`.
    ///
    /// Must be called with non-decreasing `d_m` (the vehicle only moves
    /// forward); a repeated distance returns the same value.
    pub fn at(&mut self, d_m: f64) -> f64 {
        if !self.initialized {
            self.initialized = true;
            self.last_d_m = d_m;
            self.last_value_db = self.gauss() * self.sigma_db;
            return self.last_value_db;
        }
        let delta = d_m - self.last_d_m;
        debug_assert!(delta >= -1e-9, "shadowing evaluated backwards: {delta}");
        if delta <= 0.0 {
            return self.last_value_db;
        }
        let rho = (-delta / self.corr_dist_m).exp();
        self.last_value_db =
            rho * self.last_value_db + (1.0 - rho * rho).sqrt() * self.sigma_db * self.gauss();
        self.last_d_m = d_m;
        self.last_value_db
    }

    /// Approximate standard normal via sum of uniforms (Irwin–Hall with
    /// n = 12): cheap, deterministic, tails adequate for shadowing.
    fn gauss(&mut self) -> f64 {
        gauss(&mut self.rng)
    }
}

/// A bank of many [`ShadowingField`]-equivalent processes sharing one
/// (σ, D_corr), stored struct-of-arrays and advanced span-at-a-time.
///
/// The per-tick candidate scan advances every audible cell's field at the
/// same odometer. The bank keeps generator state, last distance, and last
/// value in dense position-indexed arrays so one [`ShadowBank::visit_span`]
/// call walks a contiguous window with no per-field lookup, sharing the AR
/// coefficients through a [`RhoMemo`] and handing each value straight to
/// the caller's scorer (no second walk over a returned buffer). Each field
/// consumes its own stream
/// in its own order, so every value is bit-identical to a standalone
/// [`ShadowingField`] fed the same seed and distance sequence (a test pins
/// this).
#[derive(Debug, Clone)]
pub struct ShadowBank {
    sigma_db: f64,
    corr_dist_m: f64,
    rng: Vec<SmallRng>,
    last_d_m: Vec<f64>,
    val: Vec<f64>,
    live: Vec<bool>,
    memo: RhoMemo,
}

impl ShadowBank {
    /// A bank with the given marginal std-dev and decorrelation distance.
    pub fn new(sigma_db: f64, corr_dist_m: f64) -> Self {
        assert!(sigma_db >= 0.0 && corr_dist_m > 0.0);
        ShadowBank {
            sigma_db,
            corr_dist_m,
            rng: Vec::new(),
            last_d_m: Vec::new(),
            val: Vec::new(),
            live: Vec::new(),
            memo: RhoMemo::default(),
        }
    }

    fn ensure_len(&mut self, len: usize) {
        if self.live.len() < len {
            // Placeholder generators; a slot's real generator is seeded the
            // first time the slot goes live.
            // lint:allow(D4): inert placeholder, overwritten before any draw
            self.rng.resize_with(len, || SmallRng::seed_from_u64(0));
            self.last_d_m.resize(len, 0.0);
            self.val.resize(len, 0.0);
            self.live.resize(len, false);
        }
    }

    /// Advance the fields at `positions` to odometer `d_m`, handing each
    /// position and its value to `visit` in position order. `seed_of`
    /// supplies the field seed for a position the first time it goes live
    /// (same derivation a standalone [`ShadowingField::new`] would
    /// receive). Every position is advanced whether or not `visit` uses
    /// its value, so each field's stream stays where a per-tick
    /// [`ShadowingField::at`] would leave it.
    #[inline]
    pub fn visit_span(
        &mut self,
        positions: std::ops::Range<usize>,
        d_m: f64,
        mut seed_of: impl FnMut(usize) -> u64,
        mut visit: impl FnMut(usize, f64),
    ) {
        self.ensure_len(positions.end);
        for pos in positions {
            let v = self.advance_field(pos, d_m, &mut seed_of);
            visit(pos, v);
        }
    }

    /// Advance the single field at `pos` to `d_m` and return its value:
    /// the per-position step of [`Self::visit_span`].
    pub fn advance_one(&mut self, pos: usize, d_m: f64, seed: u64) -> f64 {
        self.ensure_len(pos + 1);
        self.advance_field(pos, d_m, |_| seed)
    }

    /// The AR(1) step of one field; `pos` must be in bounds.
    #[inline(always)]
    fn advance_field(&mut self, pos: usize, d_m: f64, seed_of: impl FnOnce(usize) -> u64) -> f64 {
        if !self.live[pos] {
            self.live[pos] = true;
            let seed = seed_of(pos).wrapping_mul(0xA24B_AED4_963E_E407);
            // lint:allow(D4): same (UE seed ^ cell id) derivation and
            // decorrelating multiplier as ShadowingField::new
            self.rng[pos] = SmallRng::seed_from_u64(seed);
            let v = gauss(&mut self.rng[pos]) * self.sigma_db;
            self.val[pos] = v;
            self.last_d_m[pos] = d_m;
            return v;
        }
        let delta = d_m - self.last_d_m[pos];
        debug_assert!(delta >= -1e-9, "shadowing evaluated backwards");
        if delta <= 0.0 {
            return self.val[pos];
        }
        let (rho, k) = self.memo.coeffs(delta, self.corr_dist_m, self.sigma_db);
        let v = rho * self.val[pos] + k * gauss(&mut self.rng[pos]);
        self.val[pos] = v;
        self.last_d_m[pos] = d_m;
        v
    }

    /// Whether the field at `pos` is live.
    pub fn is_live(&self, pos: usize) -> bool {
        self.live.get(pos).copied().unwrap_or(false)
    }

    /// The distance a live field at `pos` was last advanced to (`None`
    /// if not live). Advancing it to that distance or less draws nothing.
    pub fn last_advanced_m(&self, pos: usize) -> Option<f64> {
        self.is_live(pos).then(|| self.last_d_m[pos])
    }

    /// Number of live fields.
    pub fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Deactivate every live field last advanced before `min_d_m`.
    pub fn retire_before(&mut self, min_d_m: f64) {
        for (pos, l) in self.live.iter_mut().enumerate() {
            if *l && self.last_d_m[pos] < min_d_m {
                *l = false;
            }
        }
    }
}

/// Approximate standard normal via sum of 12 uniforms (Irwin–Hall): the
/// one kernel every shadowing field and load process draws through.
pub fn gauss(rng: &mut SmallRng) -> f64 {
    let mut s = 0.0;
    for _ in 0..12 {
        s += rng.gen::<f64>();
    }
    s - 6.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marginal_statistics() {
        let mut f = ShadowingField::new(6.0, 50.0, 99);
        let mut vals = Vec::new();
        let mut d = 0.0;
        for _ in 0..20_000 {
            d += 100.0; // well beyond decorrelation -> near-iid samples
            vals.push(f.at(d));
        }
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.3, "mean {mean}");
        assert!((var.sqrt() - 6.0).abs() < 0.5, "std {}", var.sqrt());
    }

    #[test]
    fn nearby_samples_correlated() {
        let mut f = ShadowingField::new(6.0, 100.0, 7);
        let a = f.at(1_000.0);
        let b = f.at(1_001.0); // 1 m later: almost identical
        assert!((a - b).abs() < 2.0);
    }

    #[test]
    fn repeated_distance_stable() {
        let mut f = ShadowingField::new(6.0, 100.0, 7);
        let a = f.at(500.0);
        let b = f.at(500.0);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut f1 = ShadowingField::new(6.0, 100.0, 1234);
        let mut f2 = ShadowingField::new(6.0, 100.0, 1234);
        for d in [0.0, 10.0, 200.0, 5_000.0] {
            assert_eq!(f1.at(d), f2.at(d));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut f1 = ShadowingField::new(6.0, 100.0, 1);
        let mut f2 = ShadowingField::new(6.0, 100.0, 2);
        assert_ne!(f1.at(100.0), f2.at(100.0));
    }

    /// The values one `visit_span` call hands out, in visiting order.
    fn span_values(
        bank: &mut ShadowBank,
        positions: std::ops::Range<usize>,
        d: f64,
        seed_of: impl FnMut(usize) -> u64,
    ) -> Vec<f64> {
        let start = positions.start;
        let mut got = Vec::new();
        bank.visit_span(positions, d, seed_of, |pos, v| {
            assert_eq!(pos, start + got.len(), "positions visited in order");
            got.push(v);
        });
        got
    }

    #[test]
    fn bank_bit_identical_to_standalone_fields() {
        // A bank advancing a drifting window of fields must reproduce each
        // standalone field exactly: same seeds, same distance sequence,
        // same bits — inits, repeats, and batched advances alike.
        let seed_of = |pos: usize| 1000 + pos as u64 * 7;
        let mut bank = ShadowBank::new(5.5, 90.0);
        let mut reference: Vec<ShadowingField> = (0..40)
            .map(|p| ShadowingField::new(5.5, 90.0, seed_of(p)))
            .collect();
        let mut d = 0.0;
        for step in 0..400usize {
            d += 2.3;
            // Window slides forward one position every 20 steps.
            let lo = step / 20;
            let hi = (lo + 12).min(40);
            let got = span_values(&mut bank, lo..hi, d, seed_of);
            for (j, pos) in (lo..hi).enumerate() {
                let want = reference[pos].at(d);
                assert_eq!(want.to_bits(), got[j].to_bits(), "pos {pos} step {step}");
            }
            // Occasionally re-query the same distance (repeat path).
            if step % 7 == 0 {
                let again = span_values(&mut bank, lo..hi, d, seed_of);
                assert_eq!(got, again);
            }
        }

        // Mixed schedule through the shared coefficient memo: repeated
        // step, zero step, step change, and a big jump, so memo hits,
        // misses and repeats all replay the standalone bits.
        let mut bank = ShadowBank::new(6.0, 60.0);
        let mut reference: Vec<ShadowingField> = (0..6)
            .map(|p| ShadowingField::new(6.0, 60.0, seed_of(p)))
            .collect();
        for d in [0.0, 2.5, 5.0, 7.5, 7.5, 8.0, 500.0, 502.5, 505.0] {
            let got = span_values(&mut bank, 0..6, d, seed_of);
            for (pos, g) in got.iter().enumerate() {
                let want = reference[pos].at(d);
                assert_eq!(want.to_bits(), g.to_bits(), "pos {pos} d={d}");
            }
        }
    }

    #[test]
    fn bank_retire_before_drops_stale_fields() {
        let mut bank = ShadowBank::new(6.0, 60.0);
        bank.visit_span(0..10, 100.0, |p| p as u64, |_, _| {});
        bank.visit_span(5..15, 900.0, |p| p as u64, |_, _| {});
        bank.retire_before(500.0);
        assert_eq!(bank.live_count(), 10, "positions 5..15 stay live");
        assert!(!bank.is_live(0) && bank.is_live(5) && bank.is_live(14));
    }

    #[test]
    fn empirical_autocorrelation_decays() {
        // Samples 10 m apart should correlate far more than samples 500 m
        // apart, for a 100 m decorrelation distance.
        let corr_at = |step: f64| {
            let mut f = ShadowingField::new(6.0, 100.0, 42);
            let mut prev = f.at(0.0);
            let mut num = 0.0;
            let mut den = 0.0;
            let mut d = 0.0;
            for _ in 0..50_000 {
                d += step;
                let v = f.at(d);
                num += prev * v;
                den += v * v;
                prev = v;
            }
            num / den
        };
        let near = corr_at(10.0);
        let far = corr_at(500.0);
        assert!(near > 0.8, "near {near}");
        assert!(far < 0.2, "far {far}");
    }
}
