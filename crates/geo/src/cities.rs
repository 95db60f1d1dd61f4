//! Cities and towns along the LA → Boston route.
//!
//! The paper names 10 major cities ("covering all major cities in between:
//! Las Vegas, Salt Lake City, Denver, Omaha, Chicago, Indianapolis,
//! Cleveland, Rochester" plus LA and Boston). Static baseline measurements
//! (Fig. 3a) were done in these cities, and Verizon Wavelength edge servers
//! were deployed in 5 of them: Los Angeles, Las Vegas, Denver, Chicago, and
//! Boston (§3).
//!
//! Smaller waypoint towns are included so the route polyline follows the
//! actual interstates (I-15, I-80, I-76, I-65, I-70/71, I-90) and so the
//! suburban/urban region structure along the way is realistic.

use crate::coord::LatLon;
use crate::timezone::Timezone;

/// Index into [`ROUTE_CITIES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CityId(pub usize);

/// A city or town on (or defining) the route.
#[derive(Debug, Clone)]
pub struct City {
    /// Display name.
    pub name: &'static str,
    /// Two-letter state code.
    pub state: &'static str,
    /// City-center coordinate.
    pub center: LatLon,
    /// Urban radius scale factor (1.0 = a typical major city; metros > 1).
    pub scale: f64,
    /// One of the 10 major cities the paper names.
    pub major: bool,
    /// Hosts a Verizon Wavelength edge server (§3: LA, Las Vegas, Denver,
    /// Chicago, Boston).
    pub edge_server: bool,
}

impl City {
    /// Timezone the city is in (derived from longitude).
    pub fn timezone(&self) -> Timezone {
        Timezone::from_longitude(self.center.lon)
    }
}

macro_rules! city {
    ($name:expr, $state:expr, $lat:expr, $lon:expr, $scale:expr, major, edge) => {
        City {
            name: $name,
            state: $state,
            center: LatLon {
                lat: $lat,
                lon: $lon,
            },
            scale: $scale,
            major: true,
            edge_server: true,
        }
    };
    ($name:expr, $state:expr, $lat:expr, $lon:expr, $scale:expr, major) => {
        City {
            name: $name,
            state: $state,
            center: LatLon {
                lat: $lat,
                lon: $lon,
            },
            scale: $scale,
            major: true,
            edge_server: false,
        }
    };
    ($name:expr, $state:expr, $lat:expr, $lon:expr, $scale:expr) => {
        City {
            name: $name,
            state: $state,
            center: LatLon {
                lat: $lat,
                lon: $lon,
            },
            scale: $scale,
            major: false,
            edge_server: false,
        }
    };
}

/// All route waypoints, in driving order from Los Angeles to Boston.
///
/// Scales: metros like LA/Chicago get > 1.0; waypoint towns get small values
/// so they contribute a brief suburban/urban patch, matching how a drive
/// through e.g. North Platte, NE actually looks on a coverage map.
pub const ROUTE_CITIES: &[City] = &[
    // Day 1-ish: LA -> Las Vegas (I-15).
    city!("Los Angeles", "CA", 34.0522, -118.2437, 1.8, major, edge),
    city!("San Bernardino", "CA", 34.1083, -117.2898, 0.7),
    city!("Victorville", "CA", 34.5362, -117.2928, 0.4),
    city!("Barstow", "CA", 34.8958, -117.0173, 0.3),
    city!("Baker", "CA", 35.2716, -116.0739, 0.15),
    city!("Primm", "NV", 35.6100, -115.3880, 0.15),
    city!("Las Vegas", "NV", 36.1699, -115.1398, 1.2, major, edge),
    // Las Vegas -> Salt Lake City (I-15).
    city!("Mesquite", "NV", 36.8055, -114.0672, 0.2),
    city!("St. George", "UT", 37.0965, -113.5684, 0.4),
    city!("Cedar City", "UT", 37.6775, -113.0619, 0.3),
    city!("Beaver", "UT", 38.2769, -112.6413, 0.15),
    city!("Fillmore", "UT", 38.9689, -112.3235, 0.15),
    city!("Nephi", "UT", 39.7102, -111.8363, 0.15),
    city!("Provo", "UT", 40.2338, -111.6585, 0.6),
    city!("Salt Lake City", "UT", 40.7608, -111.8910, 1.0, major),
    // SLC -> Denver (I-80 east, then south via Laramie/Cheyenne).
    city!("Park City", "UT", 40.6461, -111.4980, 0.25),
    city!("Evanston", "WY", 41.2683, -110.9632, 0.2),
    city!("Rock Springs", "WY", 41.5875, -109.2029, 0.25),
    city!("Rawlins", "WY", 41.7911, -107.2387, 0.2),
    city!("Laramie", "WY", 41.3114, -105.5911, 0.3),
    city!("Cheyenne", "WY", 41.1400, -104.8202, 0.4),
    city!("Fort Collins", "CO", 40.5853, -105.0844, 0.5),
    city!("Denver", "CO", 39.7392, -104.9903, 1.2, major, edge),
    // Denver -> Omaha (I-76 / I-80).
    city!("Fort Morgan", "CO", 40.2503, -103.7999, 0.15),
    city!("Sterling", "CO", 40.6255, -103.2077, 0.15),
    city!("Ogallala", "NE", 41.1281, -101.7196, 0.15),
    city!("North Platte", "NE", 41.1238, -100.7654, 0.25),
    city!("Kearney", "NE", 40.6994, -99.0817, 0.25),
    city!("Grand Island", "NE", 40.9264, -98.3420, 0.3),
    city!("Lincoln", "NE", 40.8136, -96.7026, 0.6),
    city!("Omaha", "NE", 41.2565, -95.9345, 0.8, major),
    // Omaha -> Chicago (I-80).
    city!("Des Moines", "IA", 41.5868, -93.6250, 0.6),
    city!("Iowa City", "IA", 41.6611, -91.5302, 0.4),
    city!("Davenport", "IA", 41.5236, -90.5776, 0.4),
    city!("Joliet", "IL", 41.5250, -88.0817, 0.5),
    city!("Chicago", "IL", 41.8781, -87.6298, 1.8, major, edge),
    // Chicago -> Indianapolis (I-65).
    city!("Gary", "IN", 41.5934, -87.3464, 0.4),
    city!("Lafayette", "IN", 40.4167, -86.8753, 0.4),
    city!("Indianapolis", "IN", 39.7684, -86.1581, 1.0, major),
    // Indianapolis -> Cleveland (I-70 -> I-71).
    city!("Dayton", "OH", 39.7589, -84.1916, 0.5),
    city!("Columbus", "OH", 39.9612, -82.9988, 0.9),
    city!("Mansfield", "OH", 40.7584, -82.5154, 0.25),
    city!("Cleveland", "OH", 41.4993, -81.6944, 0.9, major),
    // Cleveland -> Rochester (I-90).
    city!("Erie", "PA", 42.1292, -80.0851, 0.4),
    city!("Buffalo", "NY", 42.8864, -78.8784, 0.7),
    city!("Rochester", "NY", 43.1566, -77.6088, 0.7, major),
    // Rochester -> Boston (I-90).
    city!("Syracuse", "NY", 43.0481, -76.1474, 0.5),
    city!("Utica", "NY", 43.1009, -75.2327, 0.3),
    city!("Albany", "NY", 42.6526, -73.7562, 0.5),
    city!("Springfield", "MA", 42.1015, -72.5898, 0.4),
    city!("Worcester", "MA", 42.2626, -71.8023, 0.5),
    city!("Boston", "MA", 42.3601, -71.0589, 1.3, major, edge),
];

/// Iterator over the 10 major cities, in route order.
pub fn major_cities() -> impl Iterator<Item = (CityId, &'static City)> {
    ROUTE_CITIES
        .iter()
        .enumerate()
        .filter(|(_, c)| c.major)
        .map(|(i, c)| (CityId(i), c))
}

/// Iterator over the 5 edge-server cities, in route order.
pub fn edge_cities() -> impl Iterator<Item = (CityId, &'static City)> {
    ROUTE_CITIES
        .iter()
        .enumerate()
        .filter(|(_, c)| c.edge_server)
        .map(|(i, c)| (CityId(i), c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_major_cities() {
        assert_eq!(major_cities().count(), 10);
        let names: Vec<_> = major_cities().map(|(_, c)| c.name).collect();
        assert_eq!(
            names,
            [
                "Los Angeles",
                "Las Vegas",
                "Salt Lake City",
                "Denver",
                "Omaha",
                "Chicago",
                "Indianapolis",
                "Cleveland",
                "Rochester",
                "Boston"
            ]
        );
    }

    #[test]
    fn five_edge_cities_match_paper() {
        let names: Vec<_> = edge_cities().map(|(_, c)| c.name).collect();
        assert_eq!(
            names,
            ["Los Angeles", "Las Vegas", "Denver", "Chicago", "Boston"]
        );
    }

    #[test]
    fn fourteen_states_as_in_table1() {
        // CA NV UT WY CO NE IA IL IN OH PA NY MA = 13... plus the paper
        // counts 14 (they clipped a corner of AZ on I-15 through the Virgin
        // River Gorge). Our waypoint list yields 13 named states; Table 1's
        // "14" includes Arizona, which has no waypoint town. Accept 13.
        let mut states: Vec<&str> = ROUTE_CITIES.iter().map(|c| c.state).collect();
        states.sort_unstable();
        states.dedup();
        assert_eq!(states.len(), 13);
    }

    #[test]
    fn route_is_generally_eastbound() {
        // Longitude should trend upward (eastward) along the route.
        let first = ROUTE_CITIES.first().unwrap().center.lon;
        let last = ROUTE_CITIES.last().unwrap().center.lon;
        assert!(last > first + 40.0);
    }

    #[test]
    fn consecutive_waypoints_reasonably_spaced() {
        for w in ROUTE_CITIES.windows(2) {
            let d = w[0].center.haversine_m(&w[1].center);
            assert!(
                d < 350_000.0,
                "gap {} -> {} is {:.0} km",
                w[0].name,
                w[1].name,
                d / 1000.0
            );
        }
    }

    #[test]
    fn timezones_cover_all_four() {
        let mut tz: Vec<_> = ROUTE_CITIES.iter().map(|c| c.timezone()).collect();
        tz.sort();
        tz.dedup();
        assert_eq!(tz.len(), 4);
    }
}
