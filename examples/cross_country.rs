//! Inspect the simulated world: the LA → Boston route, the 8-day drive
//! plan, and each operator's cell deployment along it.
//!
//! ```text
//! cargo run --release --example cross_country
//! ```

use wheels::geo::cities::CityId;
use wheels::geo::region::RegionKind;
use wheels::geo::trip::DrivePlan;
use wheels::radio::band::Technology;
use wheels::ran::deployment::build_ops;
use wheels::ran::tuning::OperatorTuning;
use wheels::ran::Operator;

fn main() {
    println!("== the simulated cross-country world ==\n");
    let plan = DrivePlan::cross_country(7);
    let route = plan.route();

    println!(
        "Route: {:.0} km through {} waypoints (road factor {:.2})",
        route.total_m() / 1_000.0,
        route.cities().len(),
        route.road_factor()
    );
    let mix = route.region_mix(1_000.0);
    print!("Region mix by route-miles:");
    for (kind, frac) in mix {
        print!(" {}={:.0}%", kind.label(), frac * 100.0);
    }
    println!("\n");

    println!("Drive plan (8 days):");
    for d in plan.days() {
        let km = (d.end_odometer_m - d.start_odometer_m) / 1_000.0;
        let h = (d.end_time_s - d.start_time_s) as f64 / 3_600.0;
        println!(
            "  day {}: {:>5.0} km in {:>4.1} h -> overnight in {}",
            d.day + 1,
            km,
            h,
            d.overnight_city
        );
    }
    println!(
        "  total driving time: {:.1} h\n",
        plan.total_driving_s() as f64 / 3_600.0
    );

    println!("Cell deployments along the route:");
    let dbs = build_ops(route, 7, &Operator::ALL.map(|op| (op, OperatorTuning::NEUTRAL)));
    for (i, op) in Operator::ALL.iter().enumerate() {
        print!("  {:<9}", op.label());
        for tech in Technology::ALL {
            print!(" {}={:<5}", tech.label(), dbs[i].layer_len(tech));
        }
        println!(" (total {})", dbs[i].len());
    }

    println!("\nWhat the drive looks like around each major city:");
    for (i, c) in route.cities().iter().enumerate() {
        if !c.major {
            continue;
        }
        let od = route.city_odometer_m(CityId(i));
        let t = plan.time_at_odometer(od);
        let regions: Vec<RegionKind> = [-20_000.0, 0.0, 20_000.0]
            .iter()
            .map(|d| route.region_at(od + d))
            .collect();
        println!(
            "  {:<15} odometer {:>6.0} km, reached at t={:>7.0}s, approach {:?}",
            c.name,
            od / 1_000.0,
            t.unwrap_or(0.0),
            regions
        );
    }
}
