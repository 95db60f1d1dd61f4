//! # wheels-radio
//!
//! Physical-layer primitives for the *Cellular Networks on the Wheels*
//! replication: radio technologies and bands, path loss, spatially
//! correlated shadowing, mmWave beam models, SINR → MCS / spectral-efficiency
//! / BLER link maps, and carrier-aggregation capacity.
//!
//! The paper logs five KPIs per 500 ms interval via XCAL (Table 2): primary
//! cell RSRP, primary cell MCS, carrier aggregation, primary cell BLER, and
//! handovers. This crate produces the first four from first principles so
//! that the correlation structure in Table 2 *emerges* (weak positive RSRP
//! and MCS correlations, near-zero BLER, Verizon's mmWave RSRP paradox)
//! instead of being sampled from the paper's numbers.
//!
//! Conventions: power in dBm, gains/losses in dB, distances in meters,
//! bandwidth in MHz, capacity in Mbps. All randomness is caller-seeded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod band;
pub mod beam;
pub mod bler;
pub mod capacity;
pub mod mcs;
pub mod pathloss;
pub mod shadowing;

pub use band::{Band, Technology};
pub use beam::BeamProfile;
pub use bler::bler_from_sinr;
pub use capacity::{CapacityModel, LinkCapacity};
pub use mcs::{spectral_efficiency, MAX_MCS};
pub use pathloss::PathLossModel;

/// Convert a dB value to a linear power ratio.
#[inline]
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Convert a linear power ratio to dB.
#[inline]
pub fn linear_to_db(lin: f64) -> f64 {
    10.0 * lin.log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_roundtrip() {
        for db in [-30.0, -3.0, 0.0, 3.0, 10.0, 30.0] {
            assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-9);
        }
    }

    #[test]
    fn three_db_doubles() {
        assert!((db_to_linear(3.0103) - 2.0).abs() < 1e-3);
    }
}
