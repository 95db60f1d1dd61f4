//! Property tests for the geographic substrate.

use proptest::prelude::*;

use wheels_geo::coord::{LatLon, EARTH_RADIUS_M};
use wheels_geo::region::RegionKind;
use wheels_geo::route::Route;
use wheels_geo::timezone::Timezone;
use wheels_geo::trip::DrivePlan;
use wheels_geo::{mph_to_mps, mps_to_mph, SpeedBin};

/// Plans are expensive to generate; cache the four seeds the tests use.
fn cached_plan(seed: u64) -> &'static DrivePlan {
    use std::sync::OnceLock;
    static PLANS: OnceLock<Vec<DrivePlan>> = OnceLock::new();
    &PLANS.get_or_init(|| (0..4).map(DrivePlan::cross_country).collect())[seed as usize % 4]
}

/// Destination point at `distance_m` along `bearing_deg` from `from`: the
/// direct geodesic problem on the sphere, an independent check on
/// [`LatLon::haversine_m`].
fn destination(from: LatLon, bearing_deg: f64, distance_m: f64) -> LatLon {
    let lat1 = from.lat.to_radians();
    let lon1 = from.lon.to_radians();
    let brg = bearing_deg.to_radians();
    let dr = distance_m / EARTH_RADIUS_M;
    let lat2 = (lat1.sin() * dr.cos() + lat1.cos() * dr.sin() * brg.cos()).asin();
    let lon2 = lon1 + (brg.sin() * dr.sin() * lat1.cos()).atan2(dr.cos() - lat1.sin() * lat2.sin());
    LatLon::new(
        lat2.to_degrees(),
        ((lon2.to_degrees() + 540.0) % 360.0) - 180.0,
    )
}

proptest! {
    #[test]
    fn bearing_in_range(lat1 in -80.0f64..80.0, lon1 in -179.0f64..179.0,
                        lat2 in -80.0f64..80.0, lon2 in -179.0f64..179.0) {
        let a = LatLon::new(lat1, lon1);
        let b = LatLon::new(lat2, lon2);
        let brg = a.bearing_deg(&b);
        prop_assert!((0.0..360.0).contains(&brg));
    }

    #[test]
    fn destination_distance_consistent(lat in -70.0f64..70.0, lon in -170.0f64..170.0,
                                       brg in 0.0f64..360.0, d in 1.0f64..500_000.0) {
        let a = LatLon::new(lat, lon);
        let b = destination(a, brg, d);
        let back = a.haversine_m(&b);
        prop_assert!((back - d).abs() < d * 0.01 + 1.0, "{back} vs {d}");
    }

    #[test]
    fn speed_conversion_roundtrip(mph in 0.0f64..200.0) {
        prop_assert!((mps_to_mph(mph_to_mps(mph)) - mph).abs() < 1e-9);
    }

    #[test]
    fn speed_bins_partition(mph in 0.0f64..200.0) {
        // Every speed lands in exactly one bin, and bins are ordered.
        let bin = SpeedBin::from_mph(mph);
        match bin {
            SpeedBin::Low => prop_assert!(mph < 20.0),
            SpeedBin::Mid => prop_assert!((20.0..60.0).contains(&mph)),
            SpeedBin::High => prop_assert!(mph >= 60.0),
        }
    }

    #[test]
    fn region_classification_total(d in 0.0f64..500_000.0, scale in 0.1f64..2.0) {
        // classify() is total and returns a known region.
        let r = RegionKind::classify(d, scale);
        prop_assert!(RegionKind::ALL.contains(&r));
    }

    #[test]
    fn timezone_monotone_in_longitude(lon1 in -125.0f64..-65.0, lon2 in -125.0f64..-65.0) {
        let (w, e) = if lon1 <= lon2 { (lon1, lon2) } else { (lon2, lon1) };
        prop_assert!(Timezone::from_longitude(w) <= Timezone::from_longitude(e));
    }

    #[test]
    fn route_odometer_monotone(seeds in prop::collection::vec(0.0f64..5_711_000.0, 2..20)) {
        let route = Route::cross_country();
        let mut ods: Vec<f64> = seeds;
        ods.sort_by(f64::total_cmp);
        for w in ods.windows(2) {
            let a = route.point_at(w[0]);
            let b = route.point_at(w[1]);
            prop_assert!(b.odometer_m >= a.odometer_m);
        }
    }

    #[test]
    fn drive_plan_state_total_and_bounded(seed in 0u64..64, t in 0.0f64..9.0*86_400.0) {
        let plan = cached_plan(seed);
        let s = plan.state_at(t);
        prop_assert!(s.odometer_m >= 0.0);
        prop_assert!(s.odometer_m <= plan.route().total_m() + 1.0);
        prop_assert!(s.speed_mps >= 0.0);
        prop_assert!((0..8).contains(&s.day));
    }

    #[test]
    fn time_at_odometer_inverts_state_at(seed in 0u64..4, od in 0.0f64..5_700_000.0) {
        let plan = cached_plan(seed);
        if let Some(t) = plan.time_at_odometer(od) {
            let s = plan.state_at(t);
            // Within one second of driving (≤ ~40 m).
            prop_assert!(s.odometer_m + 45.0 >= od, "{} vs {}", s.odometer_m, od);
        }
    }
}
