//! The 8-day drive plan: a deterministic speed process over the route.
//!
//! The study drove 2022-08-08 → 2022-08-15 (8 driving days). We model each
//! day as starting at 08:00 nominal time and driving until the day's target
//! city is reached. Vehicle speed follows an Ornstein-Uhlenbeck process
//! around the region's free-flow speed, with stop events (traffic lights,
//! congestion) in urban areas. This produces the speed mix behind the
//! paper's speed-bin figures: low speeds in cities, 60+ mph on interstates,
//! a mid-speed band in suburban transitions.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::coord::LatLon;
use crate::mph_to_mps;
use crate::region::RegionKind;
use crate::route::{Route, RouteHint};
use crate::timezone::Timezone;

/// Seconds per nominal day in the plan's time base.
pub const DAY_S: u64 = 86_400;
/// Nominal local start-of-driving each day, seconds after midnight.
pub const DAY_START_S: u64 = 8 * 3_600;

/// Tunables of the vehicle speed process.
#[derive(Debug, Clone)]
pub struct SpeedProfile {
    /// OU mean-reversion rate, 1/s. Higher = speed hugs free-flow tighter.
    pub ou_theta: f64,
    /// OU noise std-dev in mph per sqrt(second).
    pub ou_sigma_mph: f64,
    /// Probability per meter of hitting a stop (light/congestion) in city
    /// regions.
    pub city_stop_per_m: f64,
    /// Stop duration range, seconds.
    pub stop_s: (f64, f64),
    /// Hard speed cap, mph.
    pub max_mph: f64,
}

impl Default for SpeedProfile {
    fn default() -> Self {
        SpeedProfile {
            ou_theta: 0.05,
            ou_sigma_mph: 2.2,
            city_stop_per_m: 1.0 / 900.0,
            stop_s: (12.0, 70.0),
            max_mph: 82.0,
        }
    }
}

/// One driving day: which odometer span it covers and when it starts.
#[derive(Debug, Clone)]
pub struct DayPlan {
    /// Day index, 0-based (0 = 2022-08-08).
    pub day: usize,
    /// Odometer at the morning start, meters.
    pub start_odometer_m: f64,
    /// Odometer at the overnight stop, meters.
    pub end_odometer_m: f64,
    /// Plan-time of the morning start, seconds (day*86400 + 08:00).
    pub start_time_s: u64,
    /// Plan-time when the overnight stop was reached, seconds.
    pub end_time_s: u64,
    /// Name of the overnight city.
    pub overnight_city: &'static str,
}

/// Instantaneous state of the vehicle at some plan-time.
#[derive(Debug, Clone, Copy)]
pub struct DriveState {
    /// Plan time, seconds.
    pub time_s: f64,
    /// Odometer, meters.
    pub odometer_m: f64,
    /// Speed, m/s.
    pub speed_mps: f64,
    /// Position.
    pub pos: LatLon,
    /// Travel bearing, degrees.
    pub bearing_deg: f64,
    /// Region kind at this point.
    pub region: RegionKind,
    /// Timezone at this point.
    pub timezone: Timezone,
    /// Day index (0-based).
    pub day: usize,
    /// True while the vehicle is on the road (between a day's start and end).
    pub driving: bool,
}

/// The full 8-day trajectory: per-second odometer/speed samples per day.
#[derive(Debug, Clone)]
pub struct DrivePlan {
    route: Route,
    days: Vec<DayPlan>,
    /// Per-day: odometer at each whole second from the day start.
    day_odometer: Vec<Vec<f64>>,
    /// Per-day: speed (m/s) at each whole second from the day start.
    day_speed: Vec<Vec<f32>>,
}

/// Overnight stops of the cross-country trip, by city name. The drive starts
/// in Los Angeles; each entry is where a day ends.
pub const OVERNIGHT_CITIES: [&str; 8] = [
    "Las Vegas",
    "Salt Lake City",
    "Denver",
    "Omaha",
    "Chicago",
    "Indianapolis",
    "Cleveland",
    "Boston",
];

impl DrivePlan {
    /// Generate the cross-country 8-day plan with the default speed profile.
    pub fn cross_country(seed: u64) -> Self {
        Self::generate(Route::cross_country(), &SpeedProfile::default(), seed)
    }

    /// Generate a plan for `route`, splitting days at [`OVERNIGHT_CITIES`]
    /// (cities not present on the route are skipped; the final day always
    /// ends at the route's end).
    pub fn generate(route: Route, profile: &SpeedProfile, seed: u64) -> Self {
        Self::generate_with_stops(route, profile, &OVERNIGHT_CITIES, seed)
    }

    /// Generate a plan for `route`, splitting days at the named overnight
    /// stops (cities not present on the route are skipped; the final day
    /// always ends at the route's end).
    pub fn generate_with_stops(
        route: Route,
        profile: &SpeedProfile,
        overnights: &[&str],
        seed: u64,
    ) -> Self {
        // lint:allow(D4): trip seed comes from scenario compilation /
        // campaign config; the salt splits the drive-plan sub-stream
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        // Resolve overnight odometer marks present on this route.
        let mut marks: Vec<(f64, &'static str)> = Vec::new();
        for &name in overnights {
            if let Some((i, c)) = route
                .cities()
                .iter()
                .enumerate()
                .find(|(_, c)| c.name == name)
            {
                marks.push((route.city_odometer_m(crate::cities::CityId(i)), c.name));
            }
        }
        let end_name = route.cities().last().expect("route has cities").name;
        if marks.last().map(|(od, _)| *od) != Some(route.total_m()) {
            marks.push((route.total_m(), end_name));
        }
        marks.dedup_by(|a, b| (a.0 - b.0).abs() < 1.0);

        let mut days = Vec::new();
        let mut day_odometer = Vec::new();
        let mut day_speed = Vec::new();
        let mut od = 0.0_f64;
        let mut hint = RouteHint::default();
        for (day, (end_od, name)) in marks.into_iter().enumerate() {
            let start_time_s = day as u64 * DAY_S + DAY_START_S;
            let start_od = od;
            let mut ods = Vec::with_capacity(50_000);
            let mut sps = Vec::with_capacity(50_000);
            let mut v = 0.0_f64; // start parked
            let mut stop_left = 0.0_f64;
            ods.push(od);
            sps.push(0.0);
            while od < end_od {
                let region = route.region_at_hinted(od, &mut hint);
                let mu = mph_to_mps(region.freeflow_mph());
                if stop_left > 0.0 {
                    stop_left -= 1.0;
                    v = 0.0;
                } else {
                    let z: f64 = rng.gen_range(-1.0..1.0) * 1.732; // uniform, var 1
                    v += profile.ou_theta * (mu - v) + mph_to_mps(profile.ou_sigma_mph) * z;
                    v = v.clamp(0.0, mph_to_mps(profile.max_mph));
                    if region.is_city() {
                        let p = profile.city_stop_per_m * v;
                        if rng.gen_bool(p.clamp(0.0, 1.0)) {
                            stop_left = rng.gen_range(profile.stop_s.0..profile.stop_s.1);
                        }
                    }
                }
                od = (od + v).min(end_od);
                ods.push(od);
                sps.push(v as f32);
                // Safety valve: a day of driving never exceeds 16h.
                if ods.len() as u64 > 16 * 3_600 {
                    od = end_od;
                    *ods.last_mut().expect("nonempty") = od;
                    break;
                }
            }
            let end_time_s = start_time_s + (ods.len() as u64 - 1);
            days.push(DayPlan {
                day,
                start_odometer_m: start_od,
                end_odometer_m: end_od,
                start_time_s,
                end_time_s,
                overnight_city: name,
            });
            day_odometer.push(ods);
            day_speed.push(sps);
        }
        DrivePlan {
            route,
            days,
            day_odometer,
            day_speed,
        }
    }

    /// The underlying route.
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// The day plans in order.
    pub fn days(&self) -> &[DayPlan] {
        &self.days
    }

    /// Total time spent driving across all days, seconds.
    pub fn total_driving_s(&self) -> u64 {
        self.days
            .iter()
            .map(|d| d.end_time_s - d.start_time_s)
            .sum()
    }

    /// End of the whole plan (last day's arrival), plan seconds.
    pub fn end_time_s(&self) -> u64 {
        self.days.last().map_or(0, |d| d.end_time_s)
    }

    /// Day index / odometer / speed / driving flag at plan-time `t` (already
    /// clamped non-negative). Shared hot-path core of [`Self::state_at`] and
    /// [`Self::pos_at`].
    fn locate(&self, t: f64) -> (usize, f64, f64, bool) {
        // Find the day whose window contains t, or the nearest earlier day:
        // the last day with start_time_s <= t (day starts are increasing).
        let day_idx = self
            .days
            .partition_point(|d| d.start_time_s as f64 <= t)
            .saturating_sub(1);
        let d = &self.days[day_idx];
        let ods = &self.day_odometer[day_idx];
        let sps = &self.day_speed[day_idx];
        let rel = t - d.start_time_s as f64;
        let (odometer, speed, driving) = if rel < 0.0 {
            (d.start_odometer_m, 0.0, false)
        } else if rel as usize + 1 >= ods.len() {
            (d.end_odometer_m, 0.0, false)
        } else {
            let i = rel as usize;
            let frac = rel - i as f64;
            let od = ods[i] + (ods[i + 1] - ods[i]) * frac;
            (od, sps[i] as f64, true)
        };
        (day_idx, odometer, speed, driving)
    }

    /// Vehicle state at plan-time `t_s`. Outside driving windows the vehicle
    /// is parked at the previous day's overnight stop (`driving == false`).
    pub fn state_at(&self, t_s: f64) -> DriveState {
        self.state_at_hinted(t_s, &mut RouteHint::default())
    }

    /// [`Self::state_at`] with a route search hint, for callers stepping
    /// through (mostly increasing) plan time.
    pub fn state_at_hinted(&self, t_s: f64, hint: &mut RouteHint) -> DriveState {
        let t = t_s.max(0.0);
        let (day_idx, odometer, speed, driving) = self.locate(t);
        let pt = self.route.point_at_hinted(odometer, hint);
        DriveState {
            time_s: t,
            odometer_m: odometer,
            speed_mps: speed,
            pos: pt.pos,
            bearing_deg: pt.bearing_deg,
            region: self.route.region_at_hinted(odometer, hint),
            timezone: Timezone::from_longitude(pt.pos.lon),
            day: day_idx,
            driving,
        }
    }

    /// Position only at plan-time `t_s`: skips the region / timezone lookups
    /// of [`Self::state_at`]. For per-tick app-layer samplers that only need
    /// geometry; the returned position is bit-identical to
    /// `state_at(t_s).pos`.
    pub fn pos_at(&self, t_s: f64) -> LatLon {
        self.pos_at_hinted(t_s, &mut RouteHint::default())
    }

    /// [`Self::pos_at`] with a route search hint.
    pub fn pos_at_hinted(&self, t_s: f64, hint: &mut RouteHint) -> LatLon {
        let t = t_s.max(0.0);
        let (_, odometer, _, _) = self.locate(t);
        self.route.point_at_hinted(odometer, hint).pos
    }

    /// Odometer distance covered in the plan-time window `[t0, t1]`, meters.
    pub fn distance_in_window_m(&self, t0: f64, t1: f64) -> f64 {
        (self.state_at(t1).odometer_m - self.state_at(t0).odometer_m).max(0.0)
    }

    /// First plan-time at which the vehicle reaches odometer `od_m`
    /// (`None` if beyond the route).
    pub fn time_at_odometer(&self, od_m: f64) -> Option<f64> {
        for (day_idx, d) in self.days.iter().enumerate() {
            if od_m > d.end_odometer_m {
                continue;
            }
            if od_m < d.start_odometer_m {
                return Some(d.start_time_s as f64);
            }
            let ods = &self.day_odometer[day_idx];
            let i = ods.partition_point(|&o| o < od_m);
            return Some(d.start_time_s as f64 + i.min(ods.len() - 1) as f64);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mps_to_mph;
    use crate::SpeedBin;

    fn plan() -> DrivePlan {
        DrivePlan::cross_country(7)
    }

    #[test]
    fn eight_days() {
        let p = plan();
        assert_eq!(p.days().len(), 8);
        assert_eq!(p.days()[0].overnight_city, "Las Vegas");
        assert_eq!(p.days()[7].overnight_city, "Boston");
    }

    #[test]
    fn days_cover_route_contiguously() {
        let p = plan();
        let mut od = 0.0;
        for d in p.days() {
            assert!((d.start_odometer_m - od).abs() < 1.0);
            assert!(d.end_odometer_m > d.start_odometer_m);
            od = d.end_odometer_m;
        }
        assert!((od - p.route().total_m()).abs() < 1.0);
    }

    #[test]
    fn total_driving_time_is_plausible() {
        // 5,711 km at a ~45-65 mph overall average => roughly 55-95 hours.
        let p = plan();
        let h = p.total_driving_s() as f64 / 3_600.0;
        assert!((55.0..100.0).contains(&h), "driving hours = {h}");
    }

    #[test]
    fn odometer_is_monotone_within_days() {
        let p = plan();
        for ods in &p.day_odometer {
            for w in ods.windows(2) {
                assert!(w[1] >= w[0]);
            }
        }
    }

    #[test]
    fn parked_overnight() {
        let p = plan();
        let d0 = &p.days()[0];
        let s = p.state_at(d0.end_time_s as f64 + 3_600.0);
        assert!(!s.driving);
        assert_eq!(s.speed_mps, 0.0);
        assert!((s.odometer_m - d0.end_odometer_m).abs() < 1.0);
    }

    #[test]
    fn speed_never_exceeds_cap() {
        let p = plan();
        let cap = mph_to_mps(SpeedProfile::default().max_mph) as f32 + 0.01;
        for sps in &p.day_speed {
            for &v in sps {
                assert!(v <= cap);
            }
        }
    }

    #[test]
    fn speed_bins_all_populated_and_highway_dominates() {
        let p = plan();
        let mut counts = [0usize; 3];
        for sps in &p.day_speed {
            for &v in sps {
                match SpeedBin::from_mph(mps_to_mph(v as f64)) {
                    SpeedBin::Low => counts[0] += 1,
                    SpeedBin::Mid => counts[1] += 1,
                    SpeedBin::High => counts[2] += 1,
                }
            }
        }
        let total: usize = counts.iter().sum();
        assert!(counts.iter().all(|&c| c > 0));
        // §5.5: "This [high-speed] region has the maximum number of points".
        assert!(
            counts[2] > counts[0] && counts[2] > counts[1],
            "{counts:?} of {total}"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = DrivePlan::cross_country(42);
        let b = DrivePlan::cross_country(42);
        assert_eq!(a.total_driving_s(), b.total_driving_s());
        let sa = a.state_at(100_000.0);
        let sb = b.state_at(100_000.0);
        assert_eq!(sa.odometer_m, sb.odometer_m);
        assert_eq!(sa.speed_mps, sb.speed_mps);
    }

    #[test]
    fn different_seeds_differ() {
        let a = DrivePlan::cross_country(1);
        let b = DrivePlan::cross_country(2);
        assert_ne!(a.total_driving_s(), b.total_driving_s());
    }

    #[test]
    fn state_interpolates_continuously() {
        let p = plan();
        let t0 = p.days()[0].start_time_s as f64 + 1_000.0;
        let a = p.state_at(t0);
        let b = p.state_at(t0 + 0.5);
        let c = p.state_at(t0 + 1.0);
        assert!(a.odometer_m <= b.odometer_m && b.odometer_m <= c.odometer_m);
    }

    #[test]
    fn pos_at_matches_state_at() {
        let p = plan();
        let mut t = -10.0;
        while t < p.end_time_s() as f64 + 7_200.0 {
            let s = p.state_at(t);
            let pos = p.pos_at(t);
            assert_eq!(s.pos.lat.to_bits(), pos.lat.to_bits(), "lat at t={t}");
            assert_eq!(s.pos.lon.to_bits(), pos.lon.to_bits(), "lon at t={t}");
            t += 1_237.5;
        }
    }

    #[test]
    fn day_lookup_handles_window_edges() {
        let p = plan();
        for d in p.days() {
            // Just before a day's start the vehicle is parked at the prior
            // day's stop; exactly at the start it is that day's state.
            let before = p.state_at(d.start_time_s as f64 - 0.5);
            assert!(!before.driving);
            let at = p.state_at(d.start_time_s as f64);
            assert_eq!(at.day, d.day);
            assert!((at.odometer_m - d.start_odometer_m).abs() < 1.0);
        }
        // Far before the first day: clamps to day 0's morning position.
        let early = p.state_at(0.0);
        assert_eq!(early.day, 0);
        assert!(!early.driving);
    }

    #[test]
    fn distance_in_window_accumulates() {
        let p = plan();
        let t0 = p.days()[0].start_time_s as f64;
        let d1 = p.distance_in_window_m(t0, t0 + 600.0);
        let d2 = p.distance_in_window_m(t0, t0 + 1_200.0);
        assert!(d2 >= d1);
        assert!(d1 > 0.0);
    }
}
