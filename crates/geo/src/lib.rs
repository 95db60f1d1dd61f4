//! # wheels-geo
//!
//! Geographic substrate for the *Cellular Networks on the Wheels* replication.
//!
//! The original study drove 5,711+ km from Los Angeles to Boston over 8 days
//! (2022-08-08 → 2022-08-15), crossing 14 states, 10 major cities and 4 time
//! zones. Every result in the paper is organized along geographic axes:
//! timezone (Fig. 2c, Fig. 5), region type / vehicle speed (Fig. 2d, Fig. 7,
//! Fig. 8), and distance driven (coverage as % of miles, handovers per mile).
//!
//! This crate provides that skeleton:
//!
//! * [`coord`] — WGS-84 coordinates, haversine distance, bearings.
//! * [`timezone`] — the four US timezones and the longitudes where the trip
//!   crossed them.
//! * [`region`] — urban / suburban / highway classification (the paper uses
//!   vehicle speed bins as a proxy for exactly this).
//! * [`cities`] — the waypoint cities of the trip, with which ones hosted
//!   static baseline tests and Verizon Wavelength edge servers.
//! * [`route`] — a polyline route with odometer arithmetic (position at a
//!   given driven distance, region/timezone lookup along the way).
//! * [`trip`] — the 8-day drive plan: a deterministic speed process that maps
//!   simulation time to odometer distance, speed, and position.
//!
//! Everything here is deterministic: the only randomness is a caller-provided
//! seed used by the speed process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cities;
pub mod coord;
pub mod region;
pub mod route;
pub mod timezone;
pub mod trip;

pub use cities::{City, CityId};
pub use coord::LatLon;
pub use region::RegionKind;
pub use route::{Route, RouteHint, RoutePoint};
pub use timezone::Timezone;
pub use trip::{DayPlan, DrivePlan, DriveState, SpeedProfile};

/// Meters per mile; the paper reports speeds in mph and distances in miles
/// for several figures.
pub const METERS_PER_MILE: f64 = 1609.344;

/// Convert meters/second to miles/hour.
#[inline]
pub fn mps_to_mph(mps: f64) -> f64 {
    mps * 3600.0 / METERS_PER_MILE
}

/// Convert miles/hour to meters/second.
#[inline]
pub fn mph_to_mps(mph: f64) -> f64 {
    mph * METERS_PER_MILE / 3600.0
}

/// Speed bins used throughout the paper (Fig. 2d, Fig. 7, Fig. 8):
/// low (0–20 mph), mid (20–60 mph) and high (60+ mph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub enum SpeedBin {
    /// 0–20 mph: city driving, stop lights, downtown cores.
    Low,
    /// 20–60 mph: suburban arterials, in-between areas.
    Mid,
    /// 60+ mph: inter-state highways.
    High,
}

impl SpeedBin {
    /// Classify a speed in miles/hour into the paper's three bins.
    pub fn from_mph(mph: f64) -> Self {
        if mph < 20.0 {
            SpeedBin::Low
        } else if mph < 60.0 {
            SpeedBin::Mid
        } else {
            SpeedBin::High
        }
    }

    /// All bins, in display order.
    pub const ALL: [SpeedBin; 3] = [SpeedBin::Low, SpeedBin::Mid, SpeedBin::High];

    /// Human-readable label matching the paper's axis labels.
    pub fn label(self) -> &'static str {
        match self {
            SpeedBin::Low => "0-20 mph",
            SpeedBin::Mid => "20-60 mph",
            SpeedBin::High => "60+ mph",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_bin_boundaries() {
        assert_eq!(SpeedBin::from_mph(0.0), SpeedBin::Low);
        assert_eq!(SpeedBin::from_mph(19.99), SpeedBin::Low);
        assert_eq!(SpeedBin::from_mph(20.0), SpeedBin::Mid);
        assert_eq!(SpeedBin::from_mph(59.99), SpeedBin::Mid);
        assert_eq!(SpeedBin::from_mph(60.0), SpeedBin::High);
        assert_eq!(SpeedBin::from_mph(85.0), SpeedBin::High);
    }

    #[test]
    fn unit_conversions_roundtrip() {
        for mph in [0.0, 5.0, 20.0, 60.0, 75.5] {
            let back = mps_to_mph(mph_to_mps(mph));
            assert!((back - mph).abs() < 1e-9, "{mph} -> {back}");
        }
    }

    #[test]
    fn sixty_mph_is_about_26_8_mps() {
        assert!((mph_to_mps(60.0) - 26.8224).abs() < 1e-3);
    }
}
