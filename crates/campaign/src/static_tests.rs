//! Static city baselines (Fig. 3a).
//!
//! §5.1: *"In each city, we tried to find a 5G-mmWave BS for each operator
//! and performed the static measurements facing the BS. In cases we failed
//! to find a mmWave BS, we measured the 5G mid-band performance. We
//! omitted the static tests for those operator-city combinations for which
//! we were not able to get 5G-mmWave or mid-band connectivity."*

use wheels_geo::route::Route;
use wheels_radio::band::Technology;
use wheels_ran::cell::CellDb;

/// Search radius around the city-center odometer for a static test site.
pub const CITY_SEARCH_M: f64 = 8_000.0;

/// Find the static test site for one operator in one city: the nearest
/// mmWave cell, falling back to midband; `None` if the operator has no
/// high-speed 5G there (the combo is skipped, as in the paper).
pub(crate) fn find_static_site(db: &CellDb, city_od_m: f64) -> Option<(f64, Technology)> {
    for tech in [Technology::Nr5gMmWave, Technology::Nr5gMid] {
        let best = db
            .cells_near(tech, city_od_m, CITY_SEARCH_M)
            .iter()
            .min_by(|a, b| {
                (a.odometer_m - city_od_m)
                    .abs()
                    .total_cmp(&(b.odometer_m - city_od_m).abs())
            });
        if let Some(c) = best {
            return Some((c.odometer_m, tech));
        }
    }
    None
}

/// All static sites for one operator across the major cities of `route`:
/// `(city name, site odometer, technology)`.
pub(crate) fn static_sites(db: &CellDb, route: &Route) -> Vec<(&'static str, f64, Technology)> {
    route
        .cities()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.major)
        .filter_map(|(i, c)| {
            let od = route.city_odometer_m(wheels_geo::cities::CityId(i));
            find_static_site(db, od).map(|(site_od, tech)| (c.name, site_od, tech))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_ran::deployment::build_cells;
    use wheels_ran::operator::Operator;

    #[test]
    fn verizon_gets_mmwave_in_most_cities() {
        let route = Route::cross_country();
        let db = build_cells(&route, Operator::Verizon, 7, 0);
        let sites = static_sites(&db, &route);
        assert!(sites.len() >= 7, "only {} cities with sites", sites.len());
        let mmwave = sites
            .iter()
            .filter(|(_, _, t)| *t == Technology::Nr5gMmWave)
            .count();
        assert!(mmwave >= 5, "Verizon mmWave in only {mmwave} cities");
    }

    #[test]
    fn tmobile_mostly_midband() {
        let route = Route::cross_country();
        let db = build_cells(&route, Operator::TMobile, 7, 0);
        let sites = static_sites(&db, &route);
        assert!(sites.len() >= 8);
        let mid = sites
            .iter()
            .filter(|(_, _, t)| *t == Technology::Nr5gMid)
            .count();
        assert!(mid > sites.len() / 2, "T-Mobile should be midband-heavy");
    }

    #[test]
    fn empty_db_yields_no_sites() {
        let route = Route::cross_country();
        let db = CellDb::new(Operator::Att, vec![]);
        assert!(static_sites(&db, &route).is_empty());
    }
}
