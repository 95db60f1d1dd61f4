//! Measurement servers: AWS EC2 cloud instances and Verizon Wavelength
//! edge servers.
//!
//! §3 of the paper: *"we deployed multiple AWS EC2 instances – two in
//! California for the tests done in the Pacific and Mountain time zones,
//! and two in Ohio for the tests done in Central and Eastern time zones.
//! Additionally ... 5 Amazon Wavelength edge servers in Los Angeles, Las
//! Vegas, Denver, Chicago, and Boston. ... For tests over the Verizon
//! network, we used the deployed Wavelength server in each of these five
//! cities and the cloud servers in the rest of the trip."*

use wheels_geo::cities::edge_cities;
use wheels_geo::coord::LatLon;
use wheels_geo::timezone::Timezone;
use wheels_ran::operator::Operator;

/// Cloud datacenter vs in-network edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum ServerKind {
    /// AWS EC2 (us-west California / us-east Ohio).
    Cloud,
    /// Amazon Wavelength inside Verizon's network.
    Edge,
}

impl ServerKind {
    /// Label used in figures ("cloud" / "edge").
    pub fn label(self) -> &'static str {
        match self {
            ServerKind::Cloud => "cloud",
            ServerKind::Edge => "edge",
        }
    }
}

/// A measurement server endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Server {
    /// Cloud or edge.
    pub kind: ServerKind,
    /// Physical location (datacenter site).
    pub pos: LatLon,
    /// Human-readable site name.
    pub name: &'static str,
}

/// AWS us-west-1-ish site used for Pacific/Mountain tests.
pub const CLOUD_CALIFORNIA: Server = Server {
    kind: ServerKind::Cloud,
    pos: LatLon {
        lat: 37.35,
        lon: -121.95,
    },
    name: "EC2 California",
};

/// AWS us-east-2 (Ohio) site used for Central/Eastern tests.
pub const CLOUD_OHIO: Server = Server {
    kind: ServerKind::Cloud,
    pos: LatLon {
        lat: 39.96,
        lon: -83.0,
    },
    name: "EC2 Ohio",
};

/// Radius around a Wavelength city within which the edge server is used.
pub const EDGE_RADIUS_M: f64 = 60_000.0;

/// Chooses the server for a test, per the paper's §3 rules. The fleet is
/// data: clouds, a timezone→cloud mapping, and edge sites with a service
/// radius — so scenario specs can describe any server deployment.
#[derive(Debug, Clone)]
pub struct ServerSelector {
    clouds: Vec<Server>,
    /// Index into `clouds` per [`Timezone::ALL`] entry.
    cloud_by_tz: Vec<usize>,
    edge_sites: Vec<(LatLon, &'static str)>,
    edge_radius_m: f64,
}

impl ServerSelector {
    /// Build the selector with the paper fleet: CA/OH clouds split at the
    /// Mountain/Central boundary and the five Wavelength cities from the
    /// route.
    pub fn new() -> Self {
        Self::from_parts(
            vec![CLOUD_CALIFORNIA, CLOUD_OHIO],
            vec![0, 0, 1, 1],
            edge_cities().map(|(_, c)| (c.center, c.name)).collect(),
            EDGE_RADIUS_M,
        )
    }

    /// Build a selector from explicit fleet data.
    ///
    /// # Panics
    /// Panics if `cloud_by_tz` does not name one valid cloud index per
    /// entry of [`Timezone::ALL`].
    pub fn from_parts(
        clouds: Vec<Server>,
        cloud_by_tz: Vec<usize>,
        edge_sites: Vec<(LatLon, &'static str)>,
        edge_radius_m: f64,
    ) -> Self {
        assert_eq!(
            cloud_by_tz.len(),
            Timezone::ALL.len(),
            "one cloud per timezone required"
        );
        assert!(
            cloud_by_tz.iter().all(|&i| i < clouds.len()),
            "cloud_by_tz index out of range"
        );
        ServerSelector {
            clouds,
            cloud_by_tz,
            edge_sites,
            edge_radius_m,
        }
    }

    /// The cloud server used from a given timezone.
    pub fn cloud_for(&self, tz: Timezone) -> Server {
        let zi = Timezone::ALL
            .iter()
            .position(|&z| z == tz)
            .expect("known timezone");
        self.clouds[self.cloud_by_tz[zi]]
    }

    /// Select the server for a test by `op` at position `pos` in timezone
    /// `tz`: the in-city Wavelength edge for Verizon near one of the five
    /// edge cities, otherwise the timezone's cloud server.
    pub fn select(&self, op: Operator, pos: LatLon, tz: Timezone) -> Server {
        self.select_for(op.has_edge_servers(), pos, tz)
    }

    /// [`ServerSelector::select`] with the edge entitlement passed
    /// explicitly (scenario specs may override the per-operator default).
    pub fn select_for(&self, has_edge: bool, pos: LatLon, tz: Timezone) -> Server {
        if has_edge {
            if let Some((center, name)) = self
                .edge_sites
                .iter()
                .find(|(c, _)| c.haversine_m(&pos) <= self.edge_radius_m)
            {
                return Server {
                    kind: ServerKind::Edge,
                    pos: *center,
                    name,
                };
            }
        }
        self.cloud_for(tz)
    }
}

impl Default for ServerSelector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn la() -> LatLon {
        LatLon::new(34.0522, -118.2437)
    }
    fn rural_nebraska() -> LatLon {
        LatLon::new(41.0, -100.0)
    }

    #[test]
    fn five_edge_sites() {
        assert_eq!(ServerSelector::new().edge_sites.len(), 5);
    }

    #[test]
    fn verizon_in_la_gets_edge() {
        let s = ServerSelector::new();
        let srv = s.select(Operator::Verizon, la(), Timezone::Pacific);
        assert_eq!(srv.kind, ServerKind::Edge);
        assert_eq!(srv.name, "Los Angeles");
    }

    #[test]
    fn tmobile_in_la_gets_cloud() {
        let s = ServerSelector::new();
        let srv = s.select(Operator::TMobile, la(), Timezone::Pacific);
        assert_eq!(srv.kind, ServerKind::Cloud);
        assert_eq!(srv.name, "EC2 California");
    }

    #[test]
    fn verizon_in_nebraska_gets_cloud_ohio() {
        let s = ServerSelector::new();
        let srv = s.select(Operator::Verizon, rural_nebraska(), Timezone::Central);
        assert_eq!(srv.kind, ServerKind::Cloud);
        assert_eq!(srv.name, "EC2 Ohio");
    }

    #[test]
    fn cloud_follows_timezone_split() {
        let s = ServerSelector::new();
        assert_eq!(s.cloud_for(Timezone::Pacific).name, "EC2 California");
        assert_eq!(s.cloud_for(Timezone::Mountain).name, "EC2 California");
        assert_eq!(s.cloud_for(Timezone::Central).name, "EC2 Ohio");
        assert_eq!(s.cloud_for(Timezone::Eastern).name, "EC2 Ohio");
    }
}
