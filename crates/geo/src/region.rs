//! Region classification: urban core / urban / suburban / highway.
//!
//! §5.5 of the paper: *"the low speed coverage samples are mostly from cities
//! whereas the high speed ones are from the inter-state highways"* and the
//! mid-speed region is *"sub-urban areas in-between cities/towns and
//! inter-state highways"*. Deployment density and technology mix in
//! `wheels-ran` key off this classification, which in turn shapes the speed
//! profile in [`crate::trip`] — that is how the paper's speed-bin results
//! (Fig. 2d, Fig. 7) emerge.

/// Kind of area the vehicle is driving through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub enum RegionKind {
    /// Downtown core of a major city: densest deployments, mmWave candidate
    /// sites, stop-and-go traffic.
    UrbanCore,
    /// Urban area of a city outside the core.
    Urban,
    /// Suburban / exurban areas between cities and interstates — the paper
    /// finds these have the *sparsest* 5G deployments.
    Suburban,
    /// Inter-state highway through open country.
    Highway,
}

impl RegionKind {
    /// All regions, densest-deployment first.
    pub const ALL: [RegionKind; 4] = [
        RegionKind::UrbanCore,
        RegionKind::Urban,
        RegionKind::Suburban,
        RegionKind::Highway,
    ];

    /// Typical free-flow speed in mph for the region, used as the mean of the
    /// speed process (before stops/noise).
    pub(crate) fn freeflow_mph(self) -> f64 {
        match self {
            RegionKind::UrbanCore => 12.0,
            RegionKind::Urban => 28.0,
            RegionKind::Suburban => 45.0,
            RegionKind::Highway => 70.0,
        }
    }

    /// Is this region inside a city (urban core or urban)?
    pub fn is_city(self) -> bool {
        matches!(self, RegionKind::UrbanCore | RegionKind::Urban)
    }

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            RegionKind::UrbanCore => "urban-core",
            RegionKind::Urban => "urban",
            RegionKind::Suburban => "suburban",
            RegionKind::Highway => "highway",
        }
    }

    /// Classify a point by its distance (meters) to the nearest city center,
    /// given that city's urban radius scaling factor (major cities are
    /// physically larger).
    ///
    /// * within `6 km × scale` of a center → urban core,
    /// * within `15 km × scale` → urban,
    /// * within `30 km × scale` → suburban,
    /// * else → highway.
    pub fn classify(distance_to_city_m: f64, city_scale: f64) -> Self {
        let d = distance_to_city_m;
        if d <= 6_000.0 * city_scale {
            RegionKind::UrbanCore
        } else if d <= 15_000.0 * city_scale {
            RegionKind::Urban
        } else if d <= 30_000.0 * city_scale {
            RegionKind::Suburban
        } else {
            RegionKind::Highway
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_monotonic_in_distance() {
        let mut last = RegionKind::UrbanCore;
        for d in [0.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0, 200_000.0] {
            let r = RegionKind::classify(d, 1.0);
            assert!(r >= last, "region must not get denser with distance");
            last = r;
        }
    }

    #[test]
    fn classify_respects_scale() {
        // 10 km from a small town is suburban-ish; from a metro it's urban.
        assert_eq!(RegionKind::classify(10_000.0, 0.5), RegionKind::Suburban);
        assert_eq!(RegionKind::classify(10_000.0, 1.5), RegionKind::Urban);
    }

    #[test]
    fn freeflow_speeds_ordered() {
        assert!(RegionKind::UrbanCore.freeflow_mph() < RegionKind::Urban.freeflow_mph());
        assert!(RegionKind::Urban.freeflow_mph() < RegionKind::Suburban.freeflow_mph());
        assert!(RegionKind::Suburban.freeflow_mph() < RegionKind::Highway.freeflow_mph());
    }

    #[test]
    fn city_predicate() {
        assert!(RegionKind::UrbanCore.is_city());
        assert!(RegionKind::Urban.is_city());
        assert!(!RegionKind::Suburban.is_city());
        assert!(!RegionKind::Highway.is_city());
    }
}
