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

use std::collections::VecDeque;
use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Cache for the AR(1) advance coefficients `ρ = exp(−Δ/D_corr)` and
/// `k = sqrt(1 − ρ²)·σ`, keyed on the exact bit patterns of the inputs.
///
/// Many shadowing fields advance by the same Δ in one simulation tick
/// (every cell in the audible window is advanced to the same odometer),
/// so the `exp`/`sqrt` pair can be shared across fields with equal
/// (Δ, D_corr, σ). Keying on bit patterns keeps a [`ShadowBank`]
/// bit-identical to the per-field formula `ρ·S + sqrt(1−ρ²)·σ·Z`: a memo
/// hit replays exactly the values a miss would compute, and the advance
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

/// A window move not yet applied: `(odometer, lo, hi)`.
type Move = (f64, usize, usize);

/// A bank of AR(1) shadowing fields sharing one (σ, D_corr), stored
/// struct-of-arrays and indexed by position, advanced lazily as a sliding
/// window of positions moves forward.
///
/// The per-tick candidate scan moves each layer's audible window with the
/// odometer, but reads a layer only when a decision needs it. So the bank
/// splits the advance in two. [`ShadowBank::defer`] records the tick's
/// window move `(odometer, lo, hi)` in a trail and draws nothing;
/// [`ShadowBank::catch_up`] replays the trail before a read, tick by tick,
/// and lends the window's values back as a slice of the bank's own
/// storage (nothing is allocated).
///
/// The replay visits each pending tick in order and advances the
/// positions of that tick's window that are still in the current one, so
/// a tick's fields share one [`RhoMemo`] lookup. A window only moves
/// forward, so a field below the current `lo` can never be read again;
/// its remaining draws are never made, and the trail drops moves that lie
/// wholly below `lo`. Every field that is read has been advanced to the
/// same odometers in the same order as a field advanced eagerly on every
/// tick, each from its own stream, so every value read has the eager
/// value's bits (the proptests pin this).
#[derive(Debug, Clone)]
pub struct ShadowBank {
    sigma_db: f64,
    corr_dist_m: f64,
    rng: Vec<SmallRng>,
    last_d_m: Vec<f64>,
    val: Vec<f64>,
    live: Vec<bool>,
    memo: RhoMemo,
    /// The last window deferred.
    window: Move,
    /// Moves deferred since the last catch-up, oldest first.
    trail: VecDeque<Move>,
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
            window: (f64::NEG_INFINITY, 0, 0),
            trail: VecDeque::new(),
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

    /// Record that the window is `positions` at odometer `d_m`. Draws
    /// nothing: the fields advance when [`Self::catch_up`] next runs.
    ///
    /// The odometer and both window edges must never decrease: a field
    /// below the window is skipped from then on. Deferring a move twice
    /// is harmless, since its replay draws nothing the second time.
    #[inline]
    pub fn defer(&mut self, positions: Range<usize>, d_m: f64) {
        let (lo, hi) = (positions.start, positions.end);
        let (last_d, last_lo, last_hi) = self.window;
        debug_assert!(
            d_m >= last_d && lo >= last_lo && hi >= last_hi,
            "shadowing window moved backwards: ({last_d}, {last_lo}..{last_hi}) -> ({d_m}, {lo}..{hi})"
        );
        self.window = (d_m, lo, hi);
        while self.trail.front().is_some_and(|&(_, _, h)| h <= lo) {
            self.trail.pop_front();
        }
        self.trail.push_back((d_m, lo, hi));
    }

    /// Apply every deferred move, oldest first, to the positions still in
    /// the current window, and return their values, `&val[window]`.
    /// `seed_of` supplies the field seed for a position the first time it
    /// goes live (the `(UE seed ^ cell id)` derivation of the caller).
    #[inline]
    pub fn catch_up(&mut self, mut seed_of: impl FnMut(usize) -> u64) -> &[f64] {
        let (_, lo, hi) = self.window;
        self.ensure_len(hi);
        while let Some((d_m, from, to)) = self.trail.pop_front() {
            for pos in from.max(lo)..to {
                self.advance_field(pos, d_m, &mut seed_of);
            }
        }
        &self.val[lo..hi]
    }

    /// The positions of the last window deferred.
    pub fn window(&self) -> Range<usize> {
        self.window.1..self.window.2
    }

    /// The AR(1) step of one field; `pos` must be in bounds.
    #[inline(always)]
    fn advance_field(&mut self, pos: usize, d_m: f64, seed_of: impl FnOnce(usize) -> u64) {
        if !self.live[pos] {
            self.live[pos] = true;
            let seed = seed_of(pos).wrapping_mul(0xA24B_AED4_963E_E407);
            // lint:allow(D4): field seed is (UE seed ^ cell id) with the UE
            // seed netsim::rng-derived; the multiplier only decorrelates
            self.rng[pos] = SmallRng::seed_from_u64(seed);
            self.val[pos] = gauss(&mut self.rng[pos]) * self.sigma_db;
            self.last_d_m[pos] = d_m;
            return;
        }
        let delta = d_m - self.last_d_m[pos];
        if delta <= 0.0 {
            return;
        }
        let (rho, k) = self.memo.coeffs(delta, self.corr_dist_m, self.sigma_db);
        self.val[pos] = rho * self.val[pos] + k * gauss(&mut self.rng[pos]);
        self.last_d_m[pos] = d_m;
    }

    /// The distance the field at `pos` was last advanced to (`None` if it
    /// has never been drawn).
    pub fn last_advanced_m(&self, pos: usize) -> Option<f64> {
        (self.live.get(pos) == Some(&true)).then(|| self.last_d_m[pos])
    }
}

/// Approximate standard normal via sum of 12 uniforms (Irwin–Hall): the
/// one kernel every shadowing field, load process and fleet weight draws
/// through.
///
/// Each uniform is `k·2⁻⁵³` with `k = next_u64() >> 11`, an integer below
/// 2⁵³ that converts to `f64` exactly. The kernel sums the `k` and scales
/// once at the end instead of scaling each draw. Multiplying by a power of
/// two is exact in the normal range and commutes with round-to-nearest,
/// so every partial sum is the scaled-down partial sum of the per-draw
/// formulation, `Σ rng.gen::<f64>()` in the same draw order, and the
/// result is the same double (a test pins this over 10⁶ draws).
pub fn gauss(rng: &mut SmallRng) -> f64 {
    let mut s = 0.0;
    for _ in 0..12 {
        s += (rng.next_u64() >> 11) as f64;
    }
    s * (1.0 / (1u64 << 53) as f64) - 6.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One field of a one-position bank, read at each distance it is given.
    fn field(sigma_db: f64, corr_dist_m: f64, seed: u64) -> impl FnMut(f64) -> f64 {
        let mut bank = ShadowBank::new(sigma_db, corr_dist_m);
        move |d_m| {
            bank.defer(0..1, d_m);
            bank.catch_up(|_| seed)[0]
        }
    }

    #[test]
    fn marginal_statistics() {
        let mut f = field(6.0, 50.0, 99);
        let mut vals = Vec::new();
        let mut d = 0.0;
        for _ in 0..20_000 {
            d += 100.0; // well beyond decorrelation -> near-iid samples
            vals.push(f(d));
        }
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.3, "mean {mean}");
        assert!((var.sqrt() - 6.0).abs() < 0.5, "std {}", var.sqrt());
    }

    #[test]
    fn nearby_samples_correlated() {
        let mut f = field(6.0, 100.0, 7);
        let a = f(1_000.0);
        let b = f(1_001.0); // 1 m later: almost identical
        assert!((a - b).abs() < 2.0);
    }

    #[test]
    fn repeated_distance_stable() {
        let mut f = field(6.0, 100.0, 7);
        let a = f(500.0);
        let b = f(500.0);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut f1 = field(6.0, 100.0, 1234);
        let mut f2 = field(6.0, 100.0, 1234);
        for d in [0.0, 10.0, 200.0, 5_000.0] {
            assert_eq!(f1(d), f2(d));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut f1 = field(6.0, 100.0, 1);
        let mut f2 = field(6.0, 100.0, 2);
        assert_ne!(f1(100.0), f2(100.0));
    }

    #[test]
    fn a_field_that_left_the_window_is_never_drawn_again() {
        let seed_of = |pos: usize| 500 + pos as u64;
        let mut bank = ShadowBank::new(6.0, 60.0);
        bank.defer(0..4, 10.0);
        bank.catch_up(seed_of);
        // The window slides past positions 0..4 over ticks no read sees:
        // the moves at 20 m and 30 m covered positions 2 and 3, but they
        // have left the window by the time it is read.
        bank.defer(2..6, 20.0);
        bank.defer(4..8, 30.0);
        assert_eq!(bank.catch_up(seed_of).len(), 4);
        for pos in 0..4 {
            assert_eq!(bank.last_advanced_m(pos), Some(10.0), "pos {pos}");
        }
        // Positions 4 and 5 went live at 20 m and were advanced to 30 m,
        // as an eager advance would have left them.
        let eager = |pos: usize| {
            let mut f = field(6.0, 60.0, seed_of(pos));
            f(20.0);
            f(30.0)
        };
        for pos in 4..6 {
            assert_eq!(bank.last_advanced_m(pos), Some(30.0));
            assert_eq!(bank.val[pos].to_bits(), eager(pos).to_bits(), "pos {pos}");
        }
        // An unread bank keeps only the moves that still reach its window.
        let mut unread = ShadowBank::new(6.0, 60.0);
        for tick in 0..100_000usize {
            let lo = tick / 10;
            unread.defer(lo..lo + 20, tick as f64);
        }
        assert!(unread.trail.len() <= 200, "trail of {}", unread.trail.len());
        assert_eq!(unread.last_advanced_m(0), None);
    }

    #[test]
    fn gauss_matches_per_draw_uniform_sum() {
        // The one-scale kernel must return the bits of the per-draw
        // formulation: twelve `gen::<f64>()` uniforms summed in draw
        // order, minus 6. 10⁶ normals over 1000 seeds.
        use rand::Rng;
        let per_draw = |rng: &mut SmallRng| {
            let mut s = 0.0;
            for _ in 0..12 {
                s += rng.gen::<f64>();
            }
            s - 6.0
        };
        for seed in 0..1_000u64 {
            // lint:allow(D4): fixed test seeds, compared stream to stream
            let mut kernel = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut reference = kernel.clone();
            for draw in 0..1_000 {
                let (got, want) = (gauss(&mut kernel), per_draw(&mut reference));
                assert_eq!(got.to_bits(), want.to_bits(), "seed {seed} draw {draw}");
            }
        }
    }

    #[test]
    fn empirical_autocorrelation_decays() {
        // Samples 10 m apart should correlate far more than samples 500 m
        // apart, for a 100 m decorrelation distance.
        let corr_at = |step: f64| {
            let mut f = field(6.0, 100.0, 42);
            let mut prev = f(0.0);
            let mut num = 0.0;
            let mut den = 0.0;
            let mut d = 0.0;
            for _ in 0..50_000 {
                d += step;
                let v = f(d);
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
