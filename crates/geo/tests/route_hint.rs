//! Hinted route lookups equal the plain ones bit for bit.
//!
//! One [`RouteHint`] is carried across each whole query sequence —
//! monotone, backwards or in random order — and every hinted answer must
//! match the plain lookup (which starts from a fresh hint). Query points
//! include every segment start and city odometer exactly (the tie case),
//! midpoints, both route ends, points beyond them, negative values and
//! NaN. Routes: the cross-country route, every registered scenario route,
//! and a route that repeats a city, whose zero-length segment duplicates
//! a segment start.

use std::sync::OnceLock;

use proptest::prelude::*;

use wheels_campaign::scenario::ScenarioSpec;
use wheels_geo::cities::{CityId, ROUTE_CITIES};
use wheels_geo::route::{Route, RouteHint, RoutePoint};
use wheels_geo::trip::{DrivePlan, DriveState, SpeedProfile};

/// Every route under test, with a drive plan over it.
fn plans() -> &'static [DrivePlan] {
    static PLANS: OnceLock<Vec<DrivePlan>> = OnceLock::new();
    PLANS.get_or_init(|| {
        let mut plans = vec![DrivePlan::cross_country(7)];
        plans.extend(ScenarioSpec::registry().iter().map(|s| s.build(7).plan));
        let c = &ROUTE_CITIES;
        let repeated = Route::from_cities(
            vec![c[0].clone(), c[1].clone(), c[1].clone(), c[2].clone()],
            None,
        );
        plans.push(DrivePlan::generate_with_stops(
            repeated,
            &SpeedProfile::default(),
            &[c[1].name],
            7,
        ));
        plans
    })
}

/// Odometer points worth hitting exactly on `route`: every city odometer
/// (which includes every segment start), midpoints between them, the
/// ends, beyond the ends, and NaN.
fn special_odometers(route: &Route) -> Vec<f64> {
    let cods: Vec<f64> = (0..route.cities().len())
        .map(|i| route.city_odometer_m(CityId(i)))
        .collect();
    let mut out = cods.clone();
    out.extend(cods.windows(2).map(|w| (w[0] + w[1]) / 2.0));
    let total = route.total_m();
    out.extend([0.0, -0.0, total, total + 1_000.0, -1_000.0, f64::NAN]);
    out
}

/// Plan times worth hitting exactly: day starts and ends, midpoints,
/// before the first day, after the last, and NaN.
fn special_times(plan: &DrivePlan) -> Vec<f64> {
    let mut out = Vec::new();
    for d in plan.days() {
        let (s, e) = (d.start_time_s as f64, d.end_time_s as f64);
        out.extend([s, e, (s + e) / 2.0, s + 0.5]);
    }
    let end = plan.end_time_s() as f64;
    out.extend([0.0, end + 3_600.0, -5.0, f64::NAN]);
    out
}

/// Build a query sequence: each pick is either an index into `special`
/// or a fraction of `span` (slightly beyond both ends), then ordered by
/// `order` (0 = monotone, 1 = backwards, else as drawn).
fn sequence(special: &[f64], span: f64, picks: &[(bool, usize, f64)], order: u8) -> Vec<f64> {
    let mut qs: Vec<f64> = picks
        .iter()
        .map(|&(exact, i, frac)| {
            if exact {
                special[i % special.len()]
            } else {
                frac * span
            }
        })
        .collect();
    match order {
        0 => qs.sort_by(f64::total_cmp),
        1 => qs.sort_by(|a, b| b.total_cmp(a)),
        _ => {}
    }
    qs
}

fn point_bits(p: RoutePoint) -> [u64; 4] {
    [
        p.odometer_m.to_bits(),
        p.pos.lat.to_bits(),
        p.pos.lon.to_bits(),
        p.bearing_deg.to_bits(),
    ]
}

fn state_bits(s: &DriveState) -> ([u64; 6], String, usize, bool) {
    (
        [
            s.time_s.to_bits(),
            s.odometer_m.to_bits(),
            s.speed_mps.to_bits(),
            s.pos.lat.to_bits(),
            s.pos.lon.to_bits(),
            s.bearing_deg.to_bits(),
        ],
        format!("{:?}/{:?}", s.region, s.timezone),
        s.day,
        s.driving,
    )
}

fn picks() -> impl Strategy<Value = Vec<(bool, usize, f64)>> {
    prop::collection::vec((any::<bool>(), 0usize..1_000, -0.05f64..1.05), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hinted_route_lookups_equal_plain(route_i in 0usize..8, order in 0u8..3, picks in picks()) {
        let route = plans()[route_i % plans().len()].route();
        let qs = sequence(&special_odometers(route), route.total_m(), &picks, order);
        let mut hint = RouteHint::default();
        for od in qs {
            prop_assert_eq!(
                point_bits(route.point_at_hinted(od, &mut hint)),
                point_bits(route.point_at(od)),
                "point_at({})", od
            );
            let (hi, hd) = route.nearest_city_hinted(od, &mut hint);
            let (pi, pd) = route.nearest_city(od);
            prop_assert_eq!((hi, hd.to_bits()), (pi, pd.to_bits()), "nearest_city({})", od);
            prop_assert_eq!(route.region_at_hinted(od, &mut hint), route.region_at(od));
            prop_assert_eq!(route.timezone_at_hinted(od, &mut hint), route.timezone_at(od));
        }
    }

    #[test]
    fn hinted_plan_lookups_equal_plain(route_i in 0usize..8, order in 0u8..3, picks in picks()) {
        let plan = &plans()[route_i % plans().len()];
        let span = plan.end_time_s() as f64;
        let qs = sequence(&special_times(plan), span, &picks, order);
        let mut hint = RouteHint::default();
        for t in qs {
            prop_assert_eq!(
                state_bits(&plan.state_at_hinted(t, &mut hint)),
                state_bits(&plan.state_at(t)),
                "state_at({})", t
            );
            let (h, p) = (plan.pos_at_hinted(t, &mut hint), plan.pos_at(t));
            prop_assert_eq!(
                (h.lat.to_bits(), h.lon.to_bits()),
                (p.lat.to_bits(), p.lon.to_bits()),
                "pos_at({})", t
            );
        }
    }
}

#[test]
fn repeated_city_route_has_a_duplicate_segment_start() {
    // The tie case the proptests rely on: a zero-length segment.
    let route = plans().last().expect("plans").route();
    assert_eq!(
        route.city_odometer_m(CityId(1)).to_bits(),
        route.city_odometer_m(CityId(2)).to_bits()
    );
}

#[test]
fn every_special_point_in_every_order_matches() {
    // Deterministic sweep of the exact points alone, in all three orders.
    for plan in plans() {
        let route = plan.route();
        let special = special_odometers(route);
        let mut seqs = vec![special.clone(), special.clone(), special];
        seqs[0].sort_by(f64::total_cmp);
        seqs[1].sort_by(|a, b| b.total_cmp(a));
        for qs in seqs {
            let mut hint = RouteHint::default();
            for od in qs {
                assert_eq!(
                    point_bits(route.point_at_hinted(od, &mut hint)),
                    point_bits(route.point_at(od)),
                    "point_at({od})"
                );
                let (hi, hd) = route.nearest_city_hinted(od, &mut hint);
                let (pi, pd) = route.nearest_city(od);
                assert_eq!((hi, hd.to_bits()), (pi, pd.to_bits()), "nearest_city({od})");
            }
        }
    }
}
