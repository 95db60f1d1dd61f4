//! Declarative scenario layer: the world a campaign runs in, as data.
//!
//! A [`ScenarioSpec`] captures everything the campaign used to hard-wire:
//! the route waypoints, the day plan and speed profile, the operator
//! panel with per-technology deployment tuning, the measurement-server
//! fleet, and the test round-robin schedule. Specs are plain serde
//! values, so worlds can be shipped as JSON files and run with
//! `repro --scenario FILE.json`.
//!
//! The paper's world is [`ScenarioSpec::paper`], built field-by-field
//! from the calibrated constants of the route, trip, RAN, and server
//! crates; it is the world every campaign runs in unless another spec is
//! given, and the smoke-scale golden digests pin its output. Operator
//! behavior is expressed as a *slot* (one of the three calibrated
//! parameter families: `verizon`, `tmobile`, `att`) plus multiplicative
//! per-technology scales on coverage, cell spacing, and upgrade-policy
//! promotion — the neutral scale 1.0 is an exact IEEE-754 no-op, so the
//! paper spec runs the calibrated tables unchanged without duplicating
//! every one of them into the spec.

use wheels_geo::cities::{City, ROUTE_CITIES};
use wheels_geo::coord::LatLon;
use wheels_geo::route::{Route, PAPER_TOTAL_M};
use wheels_geo::timezone::Timezone;
use wheels_geo::trip::{DrivePlan, SpeedProfile, OVERNIGHT_CITIES};
use wheels_netsim::server::{
    Server, ServerKind, ServerSelector, CLOUD_CALIFORNIA, CLOUD_OHIO, EDGE_RADIUS_M,
};
use wheels_radio::band::Technology;
use wheels_ran::fleet::FleetParams;
use wheels_ran::load::LoadScale;
use wheels_ran::operator::Operator;
use wheels_ran::tuning::OperatorTuning;
use wheels_xcal::database::TestKind;

/// One waypoint city of a scenario route.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CitySpec {
    /// Display name (unique on the route; overnight stops refer to it).
    pub name: String,
    /// Two-letter state code.
    pub state: String,
    /// City-center latitude, degrees.
    pub lat: f64,
    /// City-center longitude, degrees.
    pub lon: f64,
    /// Urban radius scale factor (1.0 = a typical major city).
    pub scale: f64,
    /// Counts as a major city (static baselines, Table 1).
    pub major: bool,
    /// Hosts an edge server.
    pub edge: bool,
}

/// The route: an ordered city polyline plus an optional odometer target.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RouteSpec {
    /// Waypoints in driving order (at least two).
    pub cities: Vec<CitySpec>,
    /// Calibrate segment lengths so the route totals this many meters
    /// (road curvature); `None` keeps geometric lengths.
    pub target_total_m: Option<f64>,
}

/// Day plan and vehicle speed process.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TripSpec {
    /// OU mean-reversion rate, 1/s.
    pub ou_theta: f64,
    /// OU noise std-dev, mph per sqrt(second).
    pub ou_sigma_mph: f64,
    /// Probability per meter of a stop event in city regions.
    pub city_stop_per_m: f64,
    /// Stop duration range, seconds.
    pub stop_s: (f64, f64),
    /// Hard speed cap, mph.
    pub max_mph: f64,
    /// Overnight stops by city name, in order; each splits a driving day.
    /// Names absent from the route are skipped, and the final day always
    /// ends at the route's end.
    pub overnight_cities: Vec<String>,
}

/// Per-technology multiplicative tuning of one operator (absent
/// technologies stay neutral).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TechScale {
    /// Technology key — a [`Technology::label`] string
    /// (`"LTE"`, `"LTE-A"`, `"5G-low"`, `"5G-mid"`, `"5G-mmWave"`).
    pub tech: String,
    /// Multiplier on the layer's route-coverage fraction.
    pub coverage: f64,
    /// Multiplier on cell spacing (larger = sparser deployment).
    pub spacing: f64,
    /// Multiplier on the upgrade-policy promotion probability.
    pub promotion: f64,
}

/// Multiplicative overrides on an operator's hidden load process (see
/// [`wheels_ran::load::LoadScale`]); every factor 1.0 is an exact no-op.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LoadScaleSpec {
    /// Multiplier on the median scheduler share.
    pub median: f64,
    /// Multiplier on the log-share standard deviation.
    pub sigma: f64,
    /// Multiplier on the deep-congestion arrival rate.
    pub congestion: f64,
}

/// The synthetic subscriber population living on the scenario's cells —
/// the fleet axis. `population: 0` (or an absent `subscribers` field) is
/// a strict no-op: no fleet state is built and every probe sees the
/// unmodified hidden load process.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SubscriberSpec {
    /// Total subscribers across the operator panel (the designed
    /// envelope is 10^3..=10^6), apportioned evenly over operators.
    pub population: u64,
    /// Demand-mix fraction of video-dominated subscribers.
    pub mix_video: f64,
    /// Demand-mix fraction of web-browsing subscribers.
    pub mix_web: f64,
    /// Demand-mix fraction of background-only subscribers.
    pub mix_background: f64,
    /// Optional 24-entry hour-of-day activity profile in [0, 1]; `None`
    /// takes the built-in busy-hour curve.
    pub diurnal: Option<Vec<f64>>,
    /// Optional log-normal σ of the per-cell attachment weights; `None`
    /// takes the default spatial clustering (0.6).
    pub attach_sigma: Option<f64>,
}

impl SubscriberSpec {
    /// A population with the default demand mix and diurnal profile.
    pub fn with_population(population: u64) -> Self {
        SubscriberSpec {
            population,
            mix_video: 0.55,
            mix_web: 0.35,
            mix_background: 0.10,
            diurnal: None,
            attach_sigma: None,
        }
    }

    /// Compile into the RAN's fleet parameters (population is the panel
    /// total here; the campaign apportions it per operator).
    pub fn fleet_params(&self) -> FleetParams {
        let mix = (self.mix_video + self.mix_web + self.mix_background).max(1e-9);
        let mut p = FleetParams {
            population: self.population,
            demand_per_sub_mbps: wheels_ran::fleet::demand_per_sub_mbps(
                self.mix_video / mix,
                self.mix_web / mix,
                self.mix_background / mix,
            ),
            ..FleetParams::default()
        };
        if let Some(d) = &self.diurnal {
            for (slot, v) in p.diurnal.iter_mut().zip(d) {
                *slot = *v;
            }
        }
        if let Some(sig) = self.attach_sigma {
            p.attach_sigma = sig;
        }
        p
    }
}

/// One operator of the scenario panel.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OperatorSpec {
    /// Calibrated parameter family to reuse: `"verizon"`, `"tmobile"`,
    /// or `"att"` (link configurations, beams, handover distribution).
    pub slot: String,
    /// Deployment/policy tuning; an empty list is the slot verbatim.
    pub scales: Vec<TechScale>,
    /// Whether this operator's tests may use edge servers; `None` takes
    /// the slot's default (only Verizon in the paper).
    pub edge_servers: Option<bool>,
    /// Declarative congestion tuning of the hidden load process; `None`
    /// is the neutral (exact no-op) scale.
    pub load: Option<LoadScaleSpec>,
}

/// One cloud datacenter of the server fleet.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CloudSpec {
    /// Site name (appears in records and figures).
    pub name: String,
    /// Datacenter latitude, degrees.
    pub lat: f64,
    /// Datacenter longitude, degrees.
    pub lon: f64,
}

/// The measurement-server fleet. Edge sites are the route cities flagged
/// [`CitySpec::edge`]; clouds are explicit.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FleetSpec {
    /// Cloud datacenters (at least one).
    pub clouds: Vec<CloudSpec>,
    /// Index into `clouds` per timezone, [`Timezone::ALL`] order.
    pub cloud_by_tz: Vec<usize>,
    /// Radius around an edge city within which the edge server is used,
    /// meters.
    pub edge_radius_m: f64,
}

/// The test round-robin: durations and which suites run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScheduleSpec {
    /// Bulk-transfer test duration, seconds (each direction).
    pub tput_s: f64,
    /// Ping test duration, seconds.
    pub rtt_s: f64,
    /// AR/CAV offload test duration, seconds (each variant).
    pub app_offload_s: f64,
    /// Video streaming session duration, seconds.
    pub video_s: f64,
    /// Cloud gaming session duration, seconds.
    pub game_s: f64,
    /// Include the killer-app tests in the round-robin.
    pub run_apps: bool,
    /// Run the static city baselines.
    pub run_static: bool,
    /// Run the passive handover-logger phones.
    pub run_passive: bool,
}

impl ScheduleSpec {
    /// Length of one `kind` session, seconds.
    pub fn session_s(&self, kind: TestKind) -> f64 {
        match kind {
            TestKind::ThroughputDl | TestKind::ThroughputUl => self.tput_s,
            TestKind::Rtt => self.rtt_s,
            TestKind::AppAr | TestKind::AppCav => self.app_offload_s,
            TestKind::AppVideo => self.video_s,
            TestKind::AppGaming => self.game_s,
        }
    }
}

/// The longest single test session a schedule may ask for, seconds. A
/// static unit plays every session of its cycle, so an unbounded session
/// length is an unbounded unit; the paper's longest session is 180 s.
pub const MAX_SESSION_S: f64 = 3600.0;

/// The longest drive a route may describe, meters: its odometer length
/// (`route.target_total_m`, or the great-circle length without one). The
/// world build walks every 250 m tile once per operator and technology,
/// so an unbounded route is an unbounded build; 20 000 km is about 3.5×
/// the paper's 5 711 km.
pub const MAX_ROUTE_M: f64 = 20_000_000.0;

/// The largest road factor (`route.target_total_m` over the route's
/// great-circle length) a route may ask for; the registry's worlds use
/// 1.12 (paper) to 1.94 (metro-loop).
pub const MAX_ROAD_FACTOR: f64 = 3.0;

/// A complete declarative world: route, trip, operators, servers,
/// schedule. See the module docs for the identity guarantee of
/// [`ScenarioSpec::paper`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioSpec {
    /// Registry name (`repro --scenario NAME`).
    pub name: String,
    /// One-line description for `repro --list`.
    pub description: String,
    /// Route waypoints.
    pub route: RouteSpec,
    /// Day plan and speed process.
    pub trip: TripSpec,
    /// Operator panel (at least one).
    pub operators: Vec<OperatorSpec>,
    /// Server fleet.
    pub fleet: FleetSpec,
    /// Round-robin schedule.
    pub schedule: ScheduleSpec,
    /// Synthetic subscriber population (the fleet axis); `None` or
    /// `population: 0` is a strict no-op on the probe dataset.
    pub subscribers: Option<SubscriberSpec>,
}

/// A compiled scenario: the concrete world objects a campaign needs.
#[derive(Debug)]
pub struct ScenarioWorld {
    /// The drive plan (owns the route).
    pub plan: DrivePlan,
    /// The operator panel: slot, deployment tuning, edge entitlement.
    pub ops: Vec<(Operator, OperatorTuning, bool)>,
    /// The server selector.
    pub selector: ServerSelector,
    /// The round-robin schedule, as the spec declares it.
    pub schedule: ScheduleSpec,
    /// Compiled subscriber-fleet template (panel-total population), when
    /// the spec declares a non-zero population.
    pub subscribers: Option<FleetParams>,
}

/// Intern a string into a `&'static str`, deduplicating so repeated
/// builds of the same scenario don't grow the leak set.
fn intern(s: &str) -> &'static str {
    // lint:allow(D2): identity intern pool — membership get/insert only,
    // never iterated, so hash order cannot reach any output
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    // lint:allow(D7): a poisoned lock means another thread already panicked; there is no degraded mode to offer
    let mut set = pool.lock().expect("intern pool poisoned");
    if let Some(&hit) = set.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// `lat`/`lon` lie on the globe: latitude in [-90, 90], longitude in
/// [-180, 180] degrees (NaN fails both).
fn check_lat_lon(what: &str, lat: f64, lon: f64) -> Result<(), String> {
    if (-90.0..=90.0).contains(&lat) && (-180.0..=180.0).contains(&lon) {
        Ok(())
    } else {
        Err(format!(
            "{what} lies off the globe: lat {lat} must be in [-90, 90], lon {lon} in [-180, 180]"
        ))
    }
}

fn tech_by_key(key: &str) -> Option<Technology> {
    Technology::ALL.into_iter().find(|t| t.label() == key)
}

fn tech_pos(tech: Technology) -> usize {
    Technology::ALL
        .iter()
        .position(|&t| t == tech)
        // lint:allow(D7): Technology::ALL enumerates every variant, so the position always exists
        .expect("known technology")
}

impl ScenarioSpec {
    /// The paper's world, expressed as data: every field is copied from
    /// the calibrated constant it describes, and every operator tuning is
    /// neutral.
    pub fn paper() -> Self {
        let profile = SpeedProfile::default();
        ScenarioSpec {
            name: "paper".to_string(),
            description: "LA->Boston 8-day cross-country drive, 3 operators (the paper's world)"
                .to_string(),
            route: RouteSpec {
                cities: ROUTE_CITIES
                    .iter()
                    .map(|c| CitySpec {
                        name: c.name.to_string(),
                        state: c.state.to_string(),
                        lat: c.center.lat,
                        lon: c.center.lon,
                        scale: c.scale,
                        major: c.major,
                        edge: c.edge_server,
                    })
                    .collect(),
                target_total_m: Some(PAPER_TOTAL_M),
            },
            trip: TripSpec {
                ou_theta: profile.ou_theta,
                ou_sigma_mph: profile.ou_sigma_mph,
                city_stop_per_m: profile.city_stop_per_m,
                stop_s: profile.stop_s,
                max_mph: profile.max_mph,
                overnight_cities: OVERNIGHT_CITIES.iter().map(|s| s.to_string()).collect(),
            },
            operators: Operator::ALL
                .iter()
                .map(|op| OperatorSpec {
                    slot: op.slot_key().to_string(),
                    scales: Vec::new(),
                    edge_servers: None,
                    load: None,
                })
                .collect(),
            fleet: FleetSpec {
                clouds: [CLOUD_CALIFORNIA, CLOUD_OHIO]
                    .iter()
                    .map(|s| CloudSpec {
                        name: s.name.to_string(),
                        lat: s.pos.lat,
                        lon: s.pos.lon,
                    })
                    .collect(),
                cloud_by_tz: vec![0, 0, 1, 1],
                edge_radius_m: EDGE_RADIUS_M,
            },
            schedule: ScheduleSpec {
                tput_s: 30.0,
                rtt_s: 20.0,
                app_offload_s: 20.0,
                video_s: 180.0,
                game_s: 60.0,
                run_apps: true,
                run_static: true,
                run_passive: true,
            },
            subscribers: None,
        }
    }

    /// A sustained-high-speed rail corridor: two operators on a sparse
    /// mid-band deployment, no city stop-and-go, one long driving day.
    pub fn rail_corridor() -> Self {
        let city = |name: &str, state: &str, lat: f64, lon: f64, scale: f64, major, edge| CitySpec {
            name: name.to_string(),
            state: state.to_string(),
            lat,
            lon,
            scale,
            major,
            edge,
        };
        ScenarioSpec {
            name: "rail-corridor".to_string(),
            description: "Sustained 100+ km/h corridor, 2 operators, sparse mid-band, no mmWave"
                .to_string(),
            route: RouteSpec {
                cities: vec![
                    city("Seattle", "WA", 47.6062, -122.3321, 1.2, true, true),
                    city("Tacoma", "WA", 47.2529, -122.4443, 0.5, false, false),
                    city("Olympia", "WA", 47.0379, -122.9007, 0.3, false, false),
                    city("Kelso", "WA", 46.1460, -122.9082, 0.15, false, false),
                    city("Vancouver", "WA", 45.6387, -122.6615, 0.5, false, false),
                    city("Portland", "OR", 45.5152, -122.6784, 1.0, true, false),
                    city("Salem", "OR", 44.9429, -123.0351, 0.4, false, false),
                    city("Albany", "OR", 44.6365, -123.1059, 0.2, false, false),
                    city("Eugene", "OR", 44.0521, -123.0868, 0.6, true, false),
                ],
                target_total_m: Some(550_000.0),
            },
            trip: TripSpec {
                ou_theta: 0.08,
                ou_sigma_mph: 1.4,
                // A rail corridor has no traffic lights: stops are rare.
                city_stop_per_m: 1.0 / 40_000.0,
                stop_s: (45.0, 120.0),
                max_mph: 110.0,
                overnight_cities: vec!["Portland".to_string(), "Eugene".to_string()],
            },
            operators: vec![
                OperatorSpec {
                    slot: "tmobile".to_string(),
                    // Mid-band-only, sparser than the paper's T-Mobile:
                    // no mmWave, thinner LTE-A, wider tower spacing.
                    scales: vec![
                        TechScale {
                            tech: "5G-mmWave".to_string(),
                            coverage: 0.0,
                            spacing: 1.0,
                            promotion: 1.0,
                        },
                        TechScale {
                            tech: "5G-mid".to_string(),
                            coverage: 0.75,
                            spacing: 1.6,
                            promotion: 0.9,
                        },
                        TechScale {
                            tech: "LTE-A".to_string(),
                            coverage: 0.8,
                            spacing: 1.3,
                            promotion: 1.0,
                        },
                    ],
                    edge_servers: None,
                    load: None,
                },
                OperatorSpec {
                    slot: "att".to_string(),
                    scales: vec![
                        TechScale {
                            tech: "5G-mmWave".to_string(),
                            coverage: 0.0,
                            spacing: 1.0,
                            promotion: 1.0,
                        },
                        TechScale {
                            tech: "5G-low".to_string(),
                            coverage: 0.9,
                            spacing: 1.4,
                            promotion: 1.1,
                        },
                    ],
                    edge_servers: Some(true),
                    load: None,
                },
            ],
            fleet: FleetSpec {
                clouds: vec![CloudSpec {
                    name: "EC2 Oregon".to_string(),
                    lat: 45.84,
                    lon: -119.7,
                }],
                cloud_by_tz: vec![0, 0, 0, 0],
                edge_radius_m: 40_000.0,
            },
            schedule: ScheduleSpec {
                tput_s: 30.0,
                rtt_s: 20.0,
                app_offload_s: 20.0,
                video_s: 120.0,
                game_s: 60.0,
                run_apps: true,
                run_static: true,
                run_passive: true,
            },
            subscribers: None,
        }
    }

    /// A dense urban loop: three operators with aggressive mmWave
    /// build-out, low vehicle speeds, frequent stops, edge everywhere.
    pub fn metro_loop() -> Self {
        let city = |name: &str, state: &str, lat: f64, lon: f64, scale: f64, edge| CitySpec {
            name: name.to_string(),
            state: state.to_string(),
            lat,
            lon,
            scale,
            major: true,
            edge,
        };
        ScenarioSpec {
            name: "metro-loop".to_string(),
            description: "Dense urban mmWave loop, 3 operators, low speed, edge in every borough"
                .to_string(),
            route: RouteSpec {
                cities: vec![
                    city("Downtown", "NY", 40.7128, -74.0060, 1.6, true),
                    city("Midtown", "NY", 40.7549, -73.9840, 1.6, true),
                    city("Uptown", "NY", 40.8116, -73.9465, 1.2, false),
                    city("Bronx Hub", "NY", 40.8448, -73.8648, 1.0, true),
                    city("Queens Plaza", "NY", 40.7498, -73.9375, 1.2, false),
                    city("Brooklyn Center", "NY", 40.6782, -73.9442, 1.4, true),
                    city("Harbor Point", "NY", 40.7003, -74.0140, 1.0, false),
                ],
                target_total_m: Some(90_000.0),
            },
            trip: TripSpec {
                ou_theta: 0.06,
                ou_sigma_mph: 2.8,
                // Dense signals: a stop every few hundred meters.
                city_stop_per_m: 1.0 / 350.0,
                stop_s: (10.0, 45.0),
                max_mph: 45.0,
                overnight_cities: vec!["Brooklyn Center".to_string()],
            },
            operators: vec![
                OperatorSpec {
                    slot: "verizon".to_string(),
                    scales: vec![
                        TechScale {
                            tech: "5G-mmWave".to_string(),
                            coverage: 1.8,
                            spacing: 0.6,
                            promotion: 1.4,
                        },
                        TechScale {
                            tech: "5G-mid".to_string(),
                            coverage: 1.3,
                            spacing: 0.8,
                            promotion: 1.2,
                        },
                    ],
                    edge_servers: Some(true),
                    load: None,
                },
                OperatorSpec {
                    slot: "tmobile".to_string(),
                    scales: vec![
                        TechScale {
                            tech: "5G-mmWave".to_string(),
                            coverage: 2.5,
                            spacing: 0.7,
                            promotion: 1.3,
                        },
                    ],
                    edge_servers: Some(true),
                    load: None,
                },
                OperatorSpec {
                    slot: "att".to_string(),
                    scales: vec![
                        TechScale {
                            tech: "5G-mmWave".to_string(),
                            coverage: 3.0,
                            spacing: 0.8,
                            promotion: 1.5,
                        },
                        TechScale {
                            tech: "5G-mid".to_string(),
                            coverage: 1.2,
                            spacing: 0.9,
                            promotion: 1.2,
                        },
                    ],
                    edge_servers: Some(true),
                    load: None,
                },
            ],
            fleet: FleetSpec {
                clouds: vec![CloudSpec {
                    name: "EC2 Virginia".to_string(),
                    lat: 38.94,
                    lon: -77.45,
                }],
                cloud_by_tz: vec![0, 0, 0, 0],
                edge_radius_m: 15_000.0,
            },
            schedule: ScheduleSpec {
                tput_s: 30.0,
                rtt_s: 20.0,
                app_offload_s: 20.0,
                video_s: 180.0,
                game_s: 60.0,
                run_apps: true,
                run_static: true,
                run_passive: true,
            },
            subscribers: None,
        }
    }

    /// Every registered scenario, paper first.
    pub fn registry() -> Vec<ScenarioSpec> {
        vec![Self::paper(), Self::rail_corridor(), Self::metro_loop()]
    }

    /// Look a registered scenario up by name.
    pub fn find(name: &str) -> Option<ScenarioSpec> {
        Self::registry().into_iter().find(|s| s.name == name)
    }

    /// Check the spec is internally consistent; returns the first problem
    /// found.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name is empty".to_string());
        }
        if self.route.cities.len() < 2 {
            return Err(format!(
                "route needs at least two cities, got {}",
                self.route.cities.len()
            ));
        }
        for c in &self.route.cities {
            if !(c.lat.is_finite() && c.lon.is_finite() && c.scale.is_finite() && c.scale > 0.0) {
                return Err(format!("city {:?} has non-finite or non-positive fields", c.name));
            }
            check_lat_lon(&format!("city {:?}", c.name), c.lat, c.lon)?;
        }
        // `Route::from_cities` sums the same haversine legs and rejects
        // a zero total: catch it here, as a usage error.
        let at = |c: &CitySpec| LatLon { lat: c.lat, lon: c.lon };
        let cities = &self.route.cities;
        let geom_m: f64 = cities
            .iter()
            .zip(cities.iter().skip(1))
            .map(|(a, b)| at(a).haversine_m(&at(b)))
            .sum();
        if geom_m <= 0.0 {
            return Err("route has zero length: every city shares one coordinate".to_string());
        }
        // The odometer stretches every leg by `target / geometric`: below
        // 1 a road would be shorter than the great circle, and above 3 it
        // winds further than any registered world (paper 1.02-1.45,
        // metro-loop 1.94).
        if let Some(t) = self.route.target_total_m {
            let factor = t / geom_m;
            if !(1.0..=MAX_ROAD_FACTOR).contains(&factor) {
                return Err(format!(
                    "target_total_m {t} m is {factor:.3}x the route's {geom_m:.0} m geometric \
                     length; the road factor must lie in [1, {MAX_ROAD_FACTOR}]"
                ));
            }
        }
        let total_m = self.route.target_total_m.unwrap_or(geom_m);
        if total_m > MAX_ROUTE_M {
            return Err(format!(
                "route length {total_m:.0} m exceeds the {MAX_ROUTE_M:.0} m limit on one drive"
            ));
        }
        if self.trip.overnight_cities.is_empty() {
            return Err("trip needs at least one overnight city".to_string());
        }
        for name in &self.trip.overnight_cities {
            if !self.route.cities.iter().any(|c| &c.name == name) {
                return Err(format!("overnight city {name:?} is not on the route"));
            }
        }
        let (stop_lo, stop_hi) = self.trip.stop_s;
        if !(stop_lo < stop_hi && stop_lo >= 0.0 && stop_hi.is_finite()) {
            return Err(format!("stop_s range {:?} is invalid", self.trip.stop_s));
        }
        for (label, v) in [
            ("ou_theta", self.trip.ou_theta),
            ("ou_sigma_mph", self.trip.ou_sigma_mph),
            ("city_stop_per_m", self.trip.city_stop_per_m),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("trip {label} must be finite and >= 0, got {v}"));
            }
        }
        if !(self.trip.max_mph.is_finite() && self.trip.max_mph > 0.0) {
            return Err(format!("max_mph must be positive, got {}", self.trip.max_mph));
        }
        if self.operators.is_empty() {
            return Err("scenario needs at least one operator".to_string());
        }
        for o in &self.operators {
            if Operator::from_slot(&o.slot).is_none() {
                return Err(format!(
                    "unknown operator slot {:?} (verizon|tmobile|att)",
                    o.slot
                ));
            }
            for s in &o.scales {
                if tech_by_key(&s.tech).is_none() {
                    return Err(format!("unknown technology key {:?}", s.tech));
                }
                if !(s.coverage.is_finite() && s.coverage >= 0.0)
                    || !(s.spacing.is_finite() && s.spacing > 0.0)
                    || !(s.promotion.is_finite() && s.promotion >= 0.0)
                {
                    return Err(format!("scales for {:?} out of range", s.tech));
                }
            }
            if let Some(l) = &o.load {
                if !(l.median.is_finite() && l.median > 0.0)
                    || !(l.sigma.is_finite() && l.sigma >= 0.0)
                    || !(l.congestion.is_finite() && l.congestion >= 0.0)
                {
                    return Err(format!("load scale for slot {:?} out of range", o.slot));
                }
            }
        }
        let mut slots: Vec<&str> = self.operators.iter().map(|o| o.slot.as_str()).collect();
        slots.sort_unstable();
        slots.dedup();
        if slots.len() != self.operators.len() {
            return Err("operator slots must be distinct".to_string());
        }
        if self.fleet.clouds.is_empty() {
            return Err("fleet needs at least one cloud".to_string());
        }
        for c in &self.fleet.clouds {
            check_lat_lon(&format!("cloud {:?}", c.name), c.lat, c.lon)?;
        }
        if self.fleet.cloud_by_tz.len() != Timezone::ALL.len() {
            return Err(format!(
                "cloud_by_tz needs one entry per timezone ({}), got {}",
                Timezone::ALL.len(),
                self.fleet.cloud_by_tz.len()
            ));
        }
        if let Some(&bad) = self
            .fleet
            .cloud_by_tz
            .iter()
            .find(|&&i| i >= self.fleet.clouds.len())
        {
            return Err(format!("cloud_by_tz index {bad} out of range"));
        }
        if !(self.fleet.edge_radius_m.is_finite() && self.fleet.edge_radius_m >= 0.0) {
            return Err(format!(
                "edge_radius_m must be non-negative, got {}",
                self.fleet.edge_radius_m
            ));
        }
        let s = &self.schedule;
        for (label, v) in [
            ("tput_s", s.tput_s),
            ("rtt_s", s.rtt_s),
            ("app_offload_s", s.app_offload_s),
            ("video_s", s.video_s),
            ("game_s", s.game_s),
        ] {
            if !(v.is_finite() && v > 0.0 && v <= MAX_SESSION_S) {
                return Err(format!(
                    "schedule {label} must lie in (0, {MAX_SESSION_S}] seconds, got {v}"
                ));
            }
        }
        if let Some(sub) = &self.subscribers {
            if sub.population > 100_000_000 {
                return Err(format!(
                    "population {} is beyond the designed envelope (<= 1e8)",
                    sub.population
                ));
            }
            for (label, v) in [
                ("mix_video", sub.mix_video),
                ("mix_web", sub.mix_web),
                ("mix_background", sub.mix_background),
            ] {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(format!("subscribers.{label} must be >= 0, got {v}"));
                }
            }
            if sub.mix_video + sub.mix_web + sub.mix_background <= 0.0 {
                return Err("subscriber demand mix sums to zero".to_string());
            }
            if let Some(d) = &sub.diurnal {
                if d.len() != 24 {
                    return Err(format!("diurnal profile needs 24 entries, got {}", d.len()));
                }
                if d.iter().any(|v| !(v.is_finite() && (0.0..=1.0).contains(v))) {
                    return Err("diurnal entries must lie in [0, 1]".to_string());
                }
                if d.iter().all(|&v| v == 0.0) {
                    return Err("diurnal profile is identically zero".to_string());
                }
            }
            if let Some(sig) = sub.attach_sigma {
                if !(sig.is_finite() && (0.0..=3.0).contains(&sig)) {
                    return Err(format!("attach_sigma must lie in [0, 3], got {sig}"));
                }
            }
        }
        Ok(())
    }

    /// Compile the spec into concrete world objects for `seed`.
    ///
    /// # Panics
    /// Panics on an invalid spec; call [`ScenarioSpec::validate`] first
    /// when the spec comes from outside.
    pub fn build(&self, seed: u64) -> ScenarioWorld {
        let cities: Vec<City> = self
            .route
            .cities
            .iter()
            .map(|c| City {
                name: intern(&c.name),
                state: intern(&c.state),
                center: LatLon { lat: c.lat, lon: c.lon },
                scale: c.scale,
                major: c.major,
                edge_server: c.edge,
            })
            .collect();
        let route = Route::from_cities(cities, self.route.target_total_m);
        let profile = SpeedProfile {
            ou_theta: self.trip.ou_theta,
            ou_sigma_mph: self.trip.ou_sigma_mph,
            city_stop_per_m: self.trip.city_stop_per_m,
            stop_s: self.trip.stop_s,
            max_mph: self.trip.max_mph,
        };
        let overnights: Vec<&str> = self.trip.overnight_cities.iter().map(|s| s.as_str()).collect();
        let edge_sites: Vec<(LatLon, &'static str)> = route
            .cities()
            .iter()
            .filter(|c| c.edge_server)
            .map(|c| (c.center, c.name))
            .collect();
        let plan = DrivePlan::generate_with_stops(route, &profile, &overnights, seed);
        let ops = self
            .operators
            .iter()
            .map(|o| {
                // lint:allow(D7): build() is only reachable after validate(), which rejects unknown slots
                let op = Operator::from_slot(&o.slot).expect("validated operator slot");
                let mut tuning = OperatorTuning::NEUTRAL;
                for s in &o.scales {
                    // lint:allow(D7): validate() rejects unknown technology keys before build() runs
                    let ti = tech_pos(tech_by_key(&s.tech).expect("validated technology key"));
                    if let Some(c) = tuning.coverage_scale.get_mut(ti) {
                        *c = s.coverage;
                    }
                    if let Some(c) = tuning.spacing_scale.get_mut(ti) {
                        *c = s.spacing;
                    }
                    if let Some(c) = tuning.promotion_scale.get_mut(ti) {
                        *c = s.promotion;
                    }
                }
                if let Some(l) = &o.load {
                    tuning.load = LoadScale {
                        median_scale: l.median,
                        sigma_scale: l.sigma,
                        congestion_scale: l.congestion,
                    };
                }
                (op, tuning, o.edge_servers.unwrap_or(op.has_edge_servers()))
            })
            .collect();
        let clouds: Vec<Server> = self
            .fleet
            .clouds
            .iter()
            .map(|c| Server {
                kind: ServerKind::Cloud,
                pos: LatLon { lat: c.lat, lon: c.lon },
                name: intern(&c.name),
            })
            .collect();
        let selector = ServerSelector::from_parts(
            clouds,
            self.fleet.cloud_by_tz.clone(),
            edge_sites,
            self.fleet.edge_radius_m,
        );
        ScenarioWorld {
            plan,
            ops,
            selector,
            schedule: self.schedule.clone(),
            subscribers: self
                .subscribers
                .as_ref()
                .filter(|s| s.population > 0)
                .map(SubscriberSpec::fleet_params),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_scenario_validates() {
        for spec in ScenarioSpec::registry() {
            spec.validate().unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn registry_names_are_distinct_and_paper_first() {
        let names: Vec<String> = ScenarioSpec::registry().into_iter().map(|s| s.name).collect();
        assert_eq!(names[0], "paper");
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn paper_spec_is_neutral() {
        let spec = ScenarioSpec::paper();
        let world = spec.build(7);
        assert_eq!(world.plan.days().len(), 8);
        for (op, tuning, edge) in &world.ops {
            assert_eq!(*tuning, OperatorTuning::NEUTRAL);
            assert_eq!(*edge, op.has_edge_servers());
        }
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let mut s = ScenarioSpec::paper();
        s.operators.clear();
        assert!(s.validate().is_err());

        let mut s = ScenarioSpec::paper();
        s.route.cities.truncate(1);
        assert!(s.validate().is_err());

        let mut s = ScenarioSpec::paper();
        s.trip.overnight_cities = vec!["Atlantis".to_string()];
        assert!(s.validate().is_err());

        let mut s = ScenarioSpec::paper();
        s.operators[0].slot = "sprint".to_string();
        assert!(s.validate().is_err());

        let mut s = ScenarioSpec::paper();
        s.fleet.cloud_by_tz = vec![0];
        assert!(s.validate().is_err());

        let mut s = ScenarioSpec::paper();
        s.operators[1].slot = s.operators[0].slot.clone();
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_a_zero_length_route() {
        // Every city on one coordinate: finite fields, but nothing to
        // drive. `Route::from_cities` would panic on it.
        let mut s = ScenarioSpec::metro_loop();
        let (lat, lon) = (s.route.cities[0].lat, s.route.cities[0].lon);
        for c in &mut s.route.cities {
            c.lat = lat;
            c.lon = lon;
        }
        let err = s.validate().expect_err("zero-length route accepted");
        assert!(err.contains("zero length"), "{err}");
        // One city moved off the shared coordinate makes it drivable, but
        // a 1.7 km route stretched to metro-loop's 90 km odometer is not
        // a road; at its geometric length it is.
        s.route.cities[1].lon += 0.01;
        let err = s.validate().expect_err("53x road factor accepted");
        assert!(err.contains("road factor"), "{err}");
        s.route.target_total_m = None;
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn validate_bounds_sessions_and_coordinates() {
        for spec in ScenarioSpec::registry() {
            assert_eq!(spec.validate(), Ok(()), "{}", spec.name);
        }
        for v in [1e12, f64::INFINITY, f64::NAN, 0.0, MAX_SESSION_S + 1.0] {
            let mut s = ScenarioSpec::paper();
            s.schedule.video_s = v;
            let err = s.validate().expect_err("unbounded session accepted");
            assert!(err.contains("video_s"), "{err}");
        }
        let mut s = ScenarioSpec::paper();
        s.schedule.game_s = MAX_SESSION_S;
        assert_eq!(s.validate(), Ok(()), "the cap itself is allowed");

        for (lat, lon) in [(1000.0, 0.0), (-90.5, 0.0), (0.0, 180.5), (0.0, -1e9)] {
            let mut s = ScenarioSpec::paper();
            s.route.cities[1].lat = lat;
            s.route.cities[1].lon = lon;
            let err = s.validate().expect_err("off-globe city accepted");
            assert!(err.contains("off the globe"), "{err}");
            let mut s = ScenarioSpec::paper();
            s.fleet.clouds[0].lat = lat;
            s.fleet.clouds[0].lon = lon;
            let err = s.validate().expect_err("off-globe cloud accepted");
            assert!(err.contains("off the globe"), "{err}");
        }

        let at = |c: &CitySpec| LatLon { lat: c.lat, lon: c.lon };
        let cities = &ScenarioSpec::paper().route.cities;
        let geom_m: f64 = cities.windows(2).map(|w| at(&w[0]).haversine_m(&at(&w[1]))).sum();
        for t in [1e12, 3.01 * geom_m, 0.99 * geom_m, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut s = ScenarioSpec::paper();
            s.route.target_total_m = Some(t);
            let err = s.validate().expect_err("unbounded road factor accepted");
            assert!(err.contains("road factor"), "{err}");
        }
        for t in [geom_m, 2.99 * geom_m] {
            let mut s = ScenarioSpec::paper();
            s.route.target_total_m = Some(t);
            assert_eq!(s.validate(), Ok(()), "road factor {} rejected", t / geom_m);
        }

        // The drive's total length is capped with or without a target:
        // a city on the far side of the globe makes the great-circle
        // route alone about 33 000 km.
        let mut s = ScenarioSpec::paper();
        s.route.target_total_m = None;
        s.route.cities[1].lat = -40.0;
        s.route.cities[1].lon = 100.0;
        let err = s.validate().expect_err("20 000+ km route accepted");
        assert!(err.contains("route length"), "{err}");
        let mut s = ScenarioSpec::paper();
        s.route.target_total_m = Some(MAX_ROUTE_M + 1.0);
        assert!(s.validate().is_err(), "a target past the cap accepted");

        let mut s = ScenarioSpec::paper();
        s.trip.ou_sigma_mph = f64::NAN;
        assert!(s.validate().is_err(), "non-finite trip parameter accepted");
        let mut s = ScenarioSpec::paper();
        s.trip.stop_s.1 = f64::INFINITY;
        assert!(s.validate().is_err(), "unbounded stop accepted");
    }

    #[test]
    fn non_paper_worlds_build() {
        for spec in [ScenarioSpec::rail_corridor(), ScenarioSpec::metro_loop()] {
            let world = spec.build(42);
            assert!(!world.plan.days().is_empty(), "{}", spec.name);
            assert!(!world.ops.is_empty(), "{}", spec.name);
        }
    }

    #[test]
    fn intern_deduplicates() {
        let a = intern("scenario-intern-test");
        let b = intern("scenario-intern-test");
        assert!(std::ptr::eq(a, b));
    }
}
