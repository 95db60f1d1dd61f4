//! Property tests for the PHY primitives.

use proptest::prelude::*;

use wheels_radio::band::{Band, Technology};
use wheels_radio::bler::bler_from_sinr;
use wheels_radio::capacity::CapacityModel;
use wheels_radio::mcs::{mcs_from_sinr, spectral_efficiency, MAX_MCS};
use wheels_radio::pathloss::PathLossModel;
use wheels_radio::shadowing::{ShadowBank, ShadowingField};
use wheels_radio::{db_to_linear, linear_to_db};

proptest! {
    #[test]
    fn db_roundtrip(db in -60.0f64..60.0) {
        prop_assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-9);
    }

    #[test]
    fn pathloss_monotone_in_distance(f in 600.0f64..40_000.0, clutter in 0.0f64..1.0,
                                     d1 in 1.0f64..50_000.0, d2 in 1.0f64..50_000.0) {
        let m = PathLossModel::new(Band::new(f), clutter);
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(m.loss_db(near) <= m.loss_db(far) + 1e-9);
    }

    #[test]
    fn pathloss_monotone_in_clutter(f in 600.0f64..40_000.0, d in 10.0f64..20_000.0,
                                    c1 in 0.0f64..1.0, c2 in 0.0f64..1.0) {
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        let a = PathLossModel::new(Band::new(f), lo).loss_db(d);
        let b = PathLossModel::new(Band::new(f), hi).loss_db(d);
        prop_assert!(a <= b + 1e-9);
    }

    #[test]
    fn capacity_never_exceeds_shannon(bw in 5.0f64..800.0, layers in 1.0f64..4.0,
                                      overhead in 0.3f64..1.0, sinr in -10.0f64..40.0,
                                      bler in 0.0f64..0.5, share in 0.0f64..1.0) {
        let m = CapacityModel::new(bw, layers, overhead);
        let c = m.capacity(sinr, bler, share);
        prop_assert!(c.mbps <= m.shannon_mbps(sinr) + 1e-9);
        prop_assert!(c.mcs <= MAX_MCS);
    }

    #[test]
    fn capacity_monotone_in_share(bw in 5.0f64..800.0, sinr in -10.0f64..40.0,
                                  s1 in 0.0f64..1.0, s2 in 0.0f64..1.0) {
        let m = CapacityModel::new(bw, 2.0, 0.8);
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        prop_assert!(m.capacity(sinr, 0.1, lo).mbps <= m.capacity(sinr, 0.1, hi).mbps + 1e-9);
    }

    #[test]
    fn mcs_and_efficiency_monotone(s1 in -30.0f64..50.0, s2 in -30.0f64..50.0) {
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let (m_lo, m_hi) = (mcs_from_sinr(lo), mcs_from_sinr(hi));
        prop_assert!(m_lo <= m_hi);
        prop_assert!(spectral_efficiency(m_lo) <= spectral_efficiency(m_hi));
    }

    #[test]
    fn bler_bounded_and_monotone(sinr in -20.0f64..40.0, speed in 0.0f64..50.0) {
        let b = bler_from_sinr(sinr, speed);
        prop_assert!((0.0..=0.9).contains(&b));
        // More speed can never reduce BLER.
        prop_assert!(bler_from_sinr(sinr, speed + 5.0) + 1e-12 >= b);
    }

    #[test]
    fn shadowing_deterministic_and_bounded(seed in 0u64..1_000, sigma in 0.5f64..10.0,
                                           steps in prop::collection::vec(0.1f64..500.0, 1..50)) {
        let mut f1 = ShadowingField::new(sigma, 80.0, seed);
        let mut f2 = ShadowingField::new(sigma, 80.0, seed);
        let mut d = 0.0;
        for step in steps {
            d += step;
            let a = f1.at(d);
            let b = f2.at(d);
            prop_assert_eq!(a, b);
            // Irwin-Hall(12) is bounded by ±6σ.
            prop_assert!(a.abs() <= 6.0 * sigma + 1e-9);
        }
    }

    #[test]
    fn capacity_monotone_in_sinr(bw in 5.0f64..800.0, layers in 1.0f64..4.0,
                                 overhead in 0.3f64..1.0, bler in 0.0f64..0.5,
                                 share in 0.05f64..1.0,
                                 s1 in -15.0f64..45.0, s2 in -15.0f64..45.0) {
        // Within one MCS table, more SINR can never yield less capacity:
        // the MCS index is a non-decreasing step function of SINR and each
        // step maps to a higher spectral efficiency.
        let m = CapacityModel::new(bw, layers, overhead);
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let (c_lo, c_hi) = (m.capacity(lo, bler, share), m.capacity(hi, bler, share));
        prop_assert!(c_lo.mcs <= c_hi.mcs);
        prop_assert!(c_lo.mbps <= c_hi.mbps + 1e-9);
    }

    #[test]
    fn shadowing_autocorrelation_bounded(seed in 0u64..1_000, sigma in 0.5f64..10.0,
                                         corr in 20.0f64..200.0,
                                         steps in prop::collection::vec(0.1f64..500.0, 2..50)) {
        // AR(1): S(d+Δ) = ρ·S(d) + sqrt(1−ρ²)·σ·Z with ρ = exp(−Δ/D_corr)
        // and Z Irwin–Hall(12)-bounded by ±6. The innovation — how far the
        // new value strays from the decayed old one — is therefore bounded
        // by 6·sqrt(1−ρ²)·σ at every step, which is the testable face of
        // "autocorrelation ρ per Δ".
        let mut f = ShadowingField::new(sigma, corr, seed);
        let mut d = 0.0;
        let mut prev = f.at(d);
        for step in steps {
            d += step;
            let cur = f.at(d);
            let rho = (-step / corr).exp();
            let bound = 6.0 * (1.0 - rho * rho).sqrt() * sigma;
            prop_assert!((cur - rho * prev).abs() <= bound + 1e-9,
                         "innovation {} exceeds bound {}", (cur - rho * prev).abs(), bound);
            prev = cur;
        }
    }

    #[test]
    fn shadowing_span_matches_per_tick(seed in 0u64..1_000, sigma in 0.5f64..10.0,
                                       start in 0.0f64..10_000.0, width in 1usize..8,
                                       steps in prop::collection::vec(
                                           (prop_oneof![Just(0.0), Just(2.5), 0.01f64..100.0],
                                            1usize..4),
                                           1..48)) {
        // The bank's fused span advance must be bit-identical to standalone
        // per-field `at` calls over any distance schedule: zero Δ (the
        // repeat path), runs of one Δ (coefficient memo hits) and step
        // changes (misses), with every field of the span at one odometer.
        let seed_of = |pos: usize| seed ^ pos as u64;
        let mut bank = ShadowBank::new(sigma, 80.0);
        let mut reference: Vec<ShadowingField> = (0..width)
            .map(|p| ShadowingField::new(sigma, 80.0, seed_of(p)))
            .collect();
        let mut d = start;
        let mut tick = 0usize;
        for (step, repeat) in steps {
            for _ in 0..repeat {
                d += step;
                let mut got = Vec::with_capacity(width);
                bank.visit_span(0..width, d, seed_of, |pos, v| got.push((pos, v)));
                prop_assert_eq!(got.len(), width);
                for ((pos, g), field) in got.into_iter().zip(reference.iter_mut()) {
                    prop_assert_eq!(g.to_bits(), field.at(d).to_bits(),
                                    "pos {} diverged at tick {}", pos, tick);
                }
                // The single-field path a serving-cell lookup takes is
                // the same step: a repeat at `d` replays the span's value.
                let probe = tick % width;
                prop_assert_eq!(bank.advance_one(probe, d, seed_of(probe)).to_bits(),
                                reference[probe].at(d).to_bits());
                tick += 1;
            }
        }
    }

    #[test]
    fn every_technology_has_consistent_metadata(idx in 0usize..5) {
        let t = Technology::ALL[idx];
        prop_assert!(t.nominal_range_m() > 0.0);
        prop_assert!(t.band().fspl_1m_db() > 20.0);
        if t.is_high_speed() {
            prop_assert!(t.is_5g());
        }
    }
}
