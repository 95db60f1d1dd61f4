//! The route polyline and odometer arithmetic.
//!
//! A [`Route`] is a polyline through the waypoints of [`crate::cities`],
//! parameterized by *odometer distance* — meters of road actually driven.
//! Roads are longer than great-circle chords, so each segment's odometer
//! length is its geometric length times a road-curvature factor, calibrated
//! so that the full cross-country route totals the paper's reported
//! 5,711 km (Table 1).

use crate::cities::{City, CityId, ROUTE_CITIES};
use crate::coord::LatLon;
use crate::region::RegionKind;
use crate::timezone::Timezone;

/// Total driven distance reported in Table 1 of the paper, meters.
pub const PAPER_TOTAL_M: f64 = 5_711_000.0;

/// A point on the route at a given odometer distance.
#[derive(Debug, Clone, Copy)]
pub struct RoutePoint {
    /// Odometer distance from the start, meters.
    pub odometer_m: f64,
    /// Position.
    pub pos: LatLon,
    /// Direction of travel, degrees clockwise from north.
    pub bearing_deg: f64,
}

/// Remembered search positions for odometer lookups on one [`Route`].
///
/// Callers that walk the odometer (mostly forward) thread one hint
/// through successive `*_hinted` lookups, which then check the remembered
/// bracket and its successor before binary-searching. A hint only ever
/// short-circuits a search whose answer it has verified, so any hint —
/// fresh, stale, or from another route — yields the same result as the
/// plain lookup.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteHint {
    /// Last segment index returned.
    seg: usize,
    /// Last city insertion point (`partition_point` over city odometers).
    city: usize,
}

#[derive(Debug, Clone)]
struct Segment {
    from: LatLon,
    to: LatLon,
    /// Odometer distance at the segment start.
    start_m: f64,
    /// Odometer length of this segment (geometric × road factor).
    len_m: f64,
    bearing_deg: f64,
}

/// A drivable route: polyline + odometer parameterization + geography
/// lookups (region kind, timezone, nearest city).
#[derive(Debug, Clone)]
pub struct Route {
    segments: Vec<Segment>,
    cities: Vec<City>,
    /// Odometer distance of each city (closest approach), meters.
    city_odometer_m: Vec<f64>,
    total_m: f64,
    road_factor: f64,
}

impl Route {
    /// The cross-country LA → Boston route of the paper, calibrated to
    /// 5,711 km of odometer distance.
    pub fn cross_country() -> Self {
        Self::from_cities(ROUTE_CITIES.to_vec(), Some(PAPER_TOTAL_M))
    }

    /// Build a route through `cities` in order. If `target_total_m` is given,
    /// odometer lengths are scaled so the total matches (road curvature);
    /// otherwise geometric lengths are used unchanged.
    ///
    /// # Panics
    /// Panics if fewer than two cities are given.
    pub fn from_cities(cities: Vec<City>, target_total_m: Option<f64>) -> Self {
        assert!(cities.len() >= 2, "a route needs at least two waypoints");
        let geom_total: f64 = cities
            .windows(2)
            .map(|w| w[0].center.haversine_m(&w[1].center))
            .sum();
        assert!(geom_total > 0.0, "route has zero length");
        let road_factor = target_total_m.map_or(1.0, |t| t / geom_total);

        let mut segments = Vec::with_capacity(cities.len() - 1);
        let mut city_odometer_m = Vec::with_capacity(cities.len());
        let mut cursor = 0.0;
        city_odometer_m.push(0.0);
        for w in cities.windows(2) {
            let from = w[0].center;
            let to = w[1].center;
            let len = from.haversine_m(&to) * road_factor;
            segments.push(Segment {
                from,
                to,
                start_m: cursor,
                len_m: len,
                bearing_deg: from.bearing_deg(&to),
            });
            cursor += len;
            city_odometer_m.push(cursor);
        }
        Route {
            segments,
            cities,
            city_odometer_m,
            total_m: cursor,
            road_factor,
        }
    }

    /// Total odometer length, meters.
    pub fn total_m(&self) -> f64 {
        self.total_m
    }

    /// Road-curvature factor applied to geometric segment lengths.
    pub fn road_factor(&self) -> f64 {
        self.road_factor
    }

    /// The waypoint cities, in route order.
    pub fn cities(&self) -> &[City] {
        &self.cities
    }

    /// Odometer distance at which the route passes city `id`.
    pub fn city_odometer_m(&self, id: CityId) -> f64 {
        self.city_odometer_m[id.0]
    }

    /// Position and bearing at odometer distance `od_m` (clamped to the
    /// route's extent).
    pub fn point_at(&self, od_m: f64) -> RoutePoint {
        self.point_at_hinted(od_m, &mut RouteHint::default())
    }

    /// [`Self::point_at`] starting its segment search from `hint`, which
    /// is re-seated to this query's segment.
    pub fn point_at_hinted(&self, od_m: f64, hint: &mut RouteHint) -> RoutePoint {
        let od = od_m.clamp(0.0, self.total_m);
        let idx = self.segment_index(od, hint);
        let seg = &self.segments[idx];
        let t = if seg.len_m > 0.0 {
            (od - seg.start_m) / seg.len_m
        } else {
            0.0
        };
        RoutePoint {
            odometer_m: od,
            pos: seg.from.lerp(&seg.to, t),
            bearing_deg: seg.bearing_deg,
        }
    }

    /// Index of the segment holding `od`. The hinted segment and its
    /// successor are tried first; either is accepted only when `od` lies
    /// strictly inside its bracket, so ties with a segment start and NaN
    /// fall through to the binary search and the result never depends on
    /// the hint.
    fn segment_index(&self, od: f64, hint: &mut RouteHint) -> usize {
        let segs = &self.segments;
        let inside = |i: usize| {
            segs.get(i).is_some_and(|s| s.start_m < od)
                && segs.get(i + 1).is_none_or(|n| od < n.start_m)
        };
        if inside(hint.seg) {
            return hint.seg;
        }
        if inside(hint.seg + 1) {
            hint.seg += 1;
            return hint.seg;
        }
        let idx = match segs.binary_search_by(|s| s.start_m.total_cmp(&od)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => (i - 1).min(segs.len() - 1),
        };
        hint.seg = idx;
        idx
    }

    /// Nearest city (by odometer, which matches "distance along the drive")
    /// and the odometer gap to its closest approach, in meters, scaled by
    /// the city's urban-radius factor for region classification. The
    /// search starts from `hint`, which is re-seated to this query's
    /// insertion point.
    pub fn nearest_city_hinted(&self, od_m: f64, hint: &mut RouteHint) -> (CityId, f64) {
        // `city_odometer_m` is non-decreasing, so the nearest city is one
        // of the two flanking the insertion point. On an exact midpoint
        // tie the earlier city wins, matching the linear scan this replaces.
        let cods = &self.city_odometer_m;
        // The hinted insertion point `i` (and then `i + 1`) is accepted
        // only when `cods[i - 1] < od_m < cods[i]` holds strictly (an end
        // side is open); a tie or NaN runs the partition search.
        let inside = |i: usize| {
            i <= cods.len() && (i == 0 || cods[i - 1] < od_m) && (i == cods.len() || od_m < cods[i])
        };
        let i = if inside(hint.city) {
            hint.city
        } else if inside(hint.city + 1) {
            hint.city + 1
        } else {
            cods.partition_point(|&c| c < od_m)
        };
        hint.city = i;
        let best = if i == 0 {
            0
        } else if i == cods.len() {
            cods.len() - 1
        } else if od_m - cods[i - 1] <= cods[i] - od_m {
            i - 1
        } else {
            i
        };
        (CityId(best), (od_m - cods[best]).abs())
    }

    /// Region kind at odometer distance `od_m`.
    ///
    /// Uses odometer distance to the nearest waypoint city, scaled by the
    /// city's size factor; this matches the intuition that a drive *through*
    /// a metro spends more road-miles in its urban area.
    pub fn region_at(&self, od_m: f64) -> RegionKind {
        self.region_at_hinted(od_m, &mut RouteHint::default())
    }

    /// [`Self::region_at`] with a search hint (see [`RouteHint`]).
    pub fn region_at_hinted(&self, od_m: f64, hint: &mut RouteHint) -> RegionKind {
        let (id, gap) = self.nearest_city_hinted(od_m, hint);
        RegionKind::classify(gap, self.cities[id.0].scale)
    }

    /// Timezone at odometer distance `od_m`.
    pub fn timezone_at(&self, od_m: f64) -> Timezone {
        self.timezone_at_hinted(od_m, &mut RouteHint::default())
    }

    /// [`Self::timezone_at`] with a search hint (see [`RouteHint`]).
    pub fn timezone_at_hinted(&self, od_m: f64, hint: &mut RouteHint) -> Timezone {
        Timezone::from_longitude(self.point_at_hinted(od_m, hint).pos.lon)
    }

    /// Fraction of the route (by odometer) in each region kind, computed by
    /// sampling every `step_m` meters. Used for calibration checks.
    pub fn region_mix(&self, step_m: f64) -> [(RegionKind, f64); 4] {
        let mut counts = [0usize; 4];
        let mut n = 0usize;
        let mut od = 0.0;
        while od < self.total_m {
            let r = self.region_at(od);
            let i = RegionKind::ALL
                .iter()
                .position(|&k| k == r)
                .expect("known region");
            counts[i] += 1;
            n += 1;
            od += step_m;
        }
        let mut out = [(RegionKind::UrbanCore, 0.0); 4];
        for (i, k) in RegionKind::ALL.iter().enumerate() {
            out[i] = (*k, counts[i] as f64 / n.max(1) as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_country_total_matches_table1() {
        let r = Route::cross_country();
        assert!((r.total_m() - PAPER_TOTAL_M).abs() < 1.0, "{}", r.total_m());
    }

    #[test]
    fn road_factor_is_plausible() {
        // Roads are 5-40% longer than great-circle chords.
        let r = Route::cross_country();
        assert!(
            (1.02..1.45).contains(&r.road_factor()),
            "{}",
            r.road_factor()
        );
    }

    #[test]
    fn point_at_start_is_la_and_end_is_boston() {
        let r = Route::cross_country();
        let start = r.point_at(0.0).pos;
        let end = r.point_at(r.total_m()).pos;
        assert!(start.haversine_m(&ROUTE_CITIES[0].center) < 1.0);
        assert!(end.haversine_m(&ROUTE_CITIES.last().unwrap().center) < 1.0);
    }

    #[test]
    fn point_at_clamps_out_of_range() {
        let r = Route::cross_country();
        let before = r.point_at(-5_000.0);
        let after = r.point_at(r.total_m() + 5_000.0);
        assert_eq!(before.odometer_m, 0.0);
        assert_eq!(after.odometer_m, r.total_m());
    }

    #[test]
    fn odometer_monotone_in_position() {
        // Walking the odometer moves the position continuously: consecutive
        // samples 1 km apart should be < 2 km apart geometrically.
        let r = Route::cross_country();
        let mut prev = r.point_at(0.0).pos;
        let mut od = 1_000.0;
        while od < r.total_m() {
            let p = r.point_at(od).pos;
            let d = prev.haversine_m(&p);
            assert!(d < 2_000.0, "jump of {d} m at odometer {od}");
            prev = p;
            od += 1_000.0;
        }
    }

    #[test]
    fn city_centers_are_urban_core() {
        let r = Route::cross_country();
        for (i, c) in r.cities().iter().enumerate() {
            if c.major {
                let od = r.city_odometer_m(CityId(i));
                assert_eq!(
                    r.region_at(od),
                    RegionKind::UrbanCore,
                    "{} center should be urban core",
                    c.name
                );
            }
        }
    }

    #[test]
    fn region_mix_is_mostly_highway() {
        // A cross-country drive is dominated by interstates; cities are a
        // minority of route miles.
        let r = Route::cross_country();
        let mix = r.region_mix(2_000.0);
        let highway = mix
            .iter()
            .find(|(k, _)| *k == RegionKind::Highway)
            .unwrap()
            .1;
        assert!(highway > 0.35, "highway fraction {highway}");
        let urban_core = mix
            .iter()
            .find(|(k, _)| *k == RegionKind::UrbanCore)
            .unwrap()
            .1;
        assert!(urban_core < 0.25, "urban-core fraction {urban_core}");
    }

    #[test]
    fn timezones_partition_route_in_order() {
        let r = Route::cross_country();
        let mut last = Timezone::Pacific;
        let mut od = 0.0;
        while od <= r.total_m() {
            let tz = r.timezone_at(od);
            assert!(tz >= last, "timezone went backwards at {od}");
            last = tz;
            od += 10_000.0;
        }
        assert_eq!(last, Timezone::Eastern);
    }

    #[test]
    fn cities_appear_at_increasing_odometer() {
        let r = Route::cross_country();
        for w in (0..r.cities().len()).collect::<Vec<_>>().windows(2) {
            assert!(r.city_odometer_m(CityId(w[0])) < r.city_odometer_m(CityId(w[1])));
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_city_route_panics() {
        let _ = Route::from_cities(vec![ROUTE_CITIES[0].clone()], None);
    }

    #[test]
    fn nearest_city_matches_linear_scan() {
        let r = Route::cross_country();
        let linear = |od_m: f64| {
            let mut best = (CityId(0), f64::INFINITY);
            for (i, &cod) in r.city_odometer_m.iter().enumerate() {
                let d = (od_m - cod).abs();
                if d < best.1 {
                    best = (CityId(i), d);
                }
            }
            best
        };
        let mut od = -10_000.0;
        while od < r.total_m() + 20_000.0 {
            let (li, ld) = linear(od);
            let (bi, bd) = r.nearest_city_hinted(od, &mut RouteHint::default());
            assert_eq!(li, bi, "city id at od {od}");
            assert_eq!(ld.to_bits(), bd.to_bits(), "distance at od {od}");
            od += 997.0;
        }
        // Exact midpoint ties must pick the earlier city (first-wins).
        let mid = (r.city_odometer_m[0] + r.city_odometer_m[1]) / 2.0;
        if (mid - r.city_odometer_m[0]) == (r.city_odometer_m[1] - mid) {
            assert_eq!(
                r.nearest_city_hinted(mid, &mut RouteHint::default()).0,
                CityId(0)
            );
        }
    }
}
