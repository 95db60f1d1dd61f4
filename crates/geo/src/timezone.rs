//! The four US timezones crossed by the trip.
//!
//! The paper breaks down coverage (Fig. 2c) and throughput (Fig. 5) by
//! timezone, and the log-synchronization pipeline (§B) must convert between
//! UTC, local time, and EDT (the timezone XCAL stamped its file contents in).
//!
//! Real timezone boundaries follow state lines; along the I-15/I-80/I-90
//! corridor of this trip they are well approximated by longitude thresholds,
//! which is what we use. The thresholds below are where the *trip* crossed
//! the boundaries (Nevada/Utah border area, North Platte NE area, and the
//! Indiana line), not general-purpose boundaries.

use std::fmt;

/// A US timezone, with the DST-adjusted UTC offset in effect during the trip
/// (August 2022, so daylight saving time everywhere along the route).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub enum Timezone {
    /// UTC-7 in August (PDT). Los Angeles, Las Vegas.
    Pacific,
    /// UTC-6 in August (MDT). Salt Lake City, Denver.
    Mountain,
    /// UTC-5 in August (CDT). Omaha, Chicago.
    Central,
    /// UTC-4 in August (EDT). Indianapolis, Cleveland, Rochester, Boston.
    Eastern,
}

impl Timezone {
    /// All four timezones in west-to-east (trip) order.
    pub const ALL: [Timezone; 4] = [
        Timezone::Pacific,
        Timezone::Mountain,
        Timezone::Central,
        Timezone::Eastern,
    ];

    /// UTC offset in hours during the trip (August 2022, DST in effect).
    pub fn utc_offset_hours(self) -> i32 {
        match self {
            Timezone::Pacific => -7,
            Timezone::Mountain => -6,
            Timezone::Central => -5,
            Timezone::Eastern => -4,
        }
    }

    /// Offset relative to EDT in hours — XCAL's `.drm` file *contents* were
    /// stamped in EDT regardless of where the vehicle was (§B), so the log
    /// synchronizer repeatedly needs this conversion.
    pub fn offset_from_eastern_hours(self) -> i32 {
        self.utc_offset_hours() - Timezone::Eastern.utc_offset_hours()
    }

    /// Classify a longitude (degrees east) into the timezone the trip was in
    /// at that longitude. Thresholds follow where this route crossed the
    /// boundaries: the NV/AZ–UT line (~-114.05°), near North Platte NE
    /// (~-101.0°), and the Indiana line (~-87.5°).
    pub fn from_longitude(lon: f64) -> Self {
        if lon < -114.05 {
            Timezone::Pacific
        } else if lon < -101.0 {
            Timezone::Mountain
        } else if lon < -87.52 {
            Timezone::Central
        } else {
            Timezone::Eastern
        }
    }

    /// Short label used in figures ("Pacific", ...).
    pub fn label(self) -> &'static str {
        match self {
            Timezone::Pacific => "Pacific",
            Timezone::Mountain => "Mountain",
            Timezone::Central => "Central",
            Timezone::Eastern => "Eastern",
        }
    }

    /// IANA-style abbreviation in effect during the trip.
    pub fn abbreviation(self) -> &'static str {
        match self {
            Timezone::Pacific => "PDT",
            Timezone::Mountain => "MDT",
            Timezone::Central => "CDT",
            Timezone::Eastern => "EDT",
        }
    }
}

impl fmt::Display for Timezone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_match_august_2022() {
        assert_eq!(Timezone::Pacific.utc_offset_hours(), -7);
        assert_eq!(Timezone::Mountain.utc_offset_hours(), -6);
        assert_eq!(Timezone::Central.utc_offset_hours(), -5);
        assert_eq!(Timezone::Eastern.utc_offset_hours(), -4);
    }

    #[test]
    fn city_longitudes_classify_correctly() {
        assert_eq!(Timezone::from_longitude(-118.24), Timezone::Pacific); // LA
        assert_eq!(Timezone::from_longitude(-115.14), Timezone::Pacific); // Las Vegas
        assert_eq!(Timezone::from_longitude(-111.89), Timezone::Mountain); // SLC
        assert_eq!(Timezone::from_longitude(-104.99), Timezone::Mountain); // Denver
        assert_eq!(Timezone::from_longitude(-95.94), Timezone::Central); // Omaha
        assert_eq!(Timezone::from_longitude(-87.63), Timezone::Central); // Chicago
        assert_eq!(Timezone::from_longitude(-86.16), Timezone::Eastern); // Indy
        assert_eq!(Timezone::from_longitude(-71.06), Timezone::Eastern); // Boston
    }

    #[test]
    fn eastern_offset_zero_from_itself() {
        assert_eq!(Timezone::Eastern.offset_from_eastern_hours(), 0);
        assert_eq!(Timezone::Pacific.offset_from_eastern_hours(), -3);
    }

    #[test]
    fn ordering_is_west_to_east() {
        let mut sorted = Timezone::ALL;
        sorted.sort();
        assert_eq!(sorted, Timezone::ALL);
    }
}
