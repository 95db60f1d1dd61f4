//! The deployment tile plan is derived once per route and read by every
//! (operator, technology) pass of the world build. It must hold, at every
//! tile of every registered route, exactly the region and timezone a
//! pass walking the route for itself would look up.

use wheels_campaign::ScenarioSpec;
use wheels_geo::trip::DrivePlan;
use wheels_ran::deployment::tile_plan;

#[test]
fn tile_plan_matches_plain_lookups_on_every_registry_route() {
    let mut plans = vec![DrivePlan::cross_country(7)];
    plans.extend(ScenarioSpec::registry().iter().map(|s| s.build(7).plan));
    for plan in &plans {
        let route = plan.route();
        let tiles = tile_plan(route);
        let mut od = 0.0;
        let mut n = 0;
        while od < route.total_m() {
            let want = (route.region_at(od), route.timezone_at(od));
            assert_eq!(tiles.get(n), Some(&want), "tile {n} at {od} m");
            od += 250.0;
            n += 1;
        }
        assert_eq!(tiles.len(), n, "tiles past the route's end");
    }
}
