//! WGS-84 coordinates and great-circle geometry.
//!
//! The measurement apps in the paper log GPS positions; coverage is reported
//! per mile driven and handovers are normalized by distance. All distance
//! arithmetic in the workspace goes through [`LatLon::haversine_m`].

/// Mean Earth radius in meters (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A WGS-84 latitude/longitude pair, degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatLon {
    /// Latitude in degrees, positive north. Valid range [-90, 90].
    pub lat: f64,
    /// Longitude in degrees, positive east. Valid range [-180, 180].
    pub lon: f64,
}

impl LatLon {
    /// Create a coordinate. Panics (debug) if outside the valid ranges —
    /// route data is static, so a bad coordinate is a programming error.
    pub fn new(lat: f64, lon: f64) -> Self {
        debug_assert!((-90.0..=90.0).contains(&lat), "latitude {lat} out of range");
        debug_assert!(
            (-180.0..=180.0).contains(&lon),
            "longitude {lon} out of range"
        );
        Self { lat, lon }
    }

    /// Great-circle distance to `other` in meters (haversine formula).
    pub fn haversine_m(&self, other: &LatLon) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Initial bearing from `self` towards `other`, degrees clockwise from
    /// north in [0, 360).
    pub fn bearing_deg(&self, other: &LatLon) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlon = lon2 - lon1;
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        let b = y.atan2(x).to_degrees();
        (b + 360.0) % 360.0
    }

    /// Linear interpolation between two coordinates, `t` in [0, 1].
    ///
    /// For the segment lengths on this route (tens of km) the error versus a
    /// true great-circle interpolation is far below cell-placement noise, so
    /// the simple form is used — simplicity over cleverness.
    pub(crate) fn lerp(&self, other: &LatLon, t: f64) -> LatLon {
        let t = t.clamp(0.0, 1.0);
        LatLon {
            lat: self.lat + (other.lat - self.lat) * t,
            lon: self.lon + (other.lon - self.lon) * t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn la() -> LatLon {
        LatLon::new(34.0522, -118.2437)
    }
    fn boston() -> LatLon {
        LatLon::new(42.3601, -71.0589)
    }

    #[test]
    fn haversine_zero_for_same_point() {
        assert_eq!(la().haversine_m(&la()), 0.0);
    }

    #[test]
    fn haversine_la_boston_about_4170_km() {
        let d = la().haversine_m(&boston());
        // Great-circle LA–Boston is ~4,180 km.
        assert!((4_100_000.0..4_250_000.0).contains(&d), "{d}");
    }

    #[test]
    fn haversine_symmetric() {
        assert!((la().haversine_m(&boston()) - boston().haversine_m(&la())).abs() < 1e-6);
    }

    #[test]
    fn bearing_eastward_trip() {
        let b = la().bearing_deg(&boston());
        // Roughly ENE.
        assert!((40.0..90.0).contains(&b), "{b}");
    }

    #[test]
    fn lerp_endpoints() {
        let a = la();
        let b = boston();
        let p0 = a.lerp(&b, 0.0);
        let p1 = a.lerp(&b, 1.0);
        assert!((p0.lat - a.lat).abs() < 1e-12 && (p0.lon - a.lon).abs() < 1e-12);
        assert!((p1.lat - b.lat).abs() < 1e-12 && (p1.lon - b.lon).abs() < 1e-12);
    }

    #[test]
    fn lerp_clamps() {
        let a = la();
        let b = boston();
        let p = a.lerp(&b, 2.0);
        assert!((p.lat - b.lat).abs() < 1e-12);
    }

    #[test]
    fn midpoint_distance_split() {
        let a = la();
        let b = boston();
        let m = a.lerp(&b, 0.5);
        let d1 = a.haversine_m(&m);
        let d2 = m.haversine_m(&b);
        let total = a.haversine_m(&b);
        // Lerp midpoint is not the geodesic midpoint, but must be close for
        // our purposes (< 1% asymmetry over this baseline).
        assert!(((d1 + d2) - total) / total < 0.01);
        assert!((d1 - d2).abs() / total < 0.05);
    }
}
