//! Per-operator cell deployment along the route.
//!
//! §4.2 of the paper: coverage is "disappointingly low and highly
//! fragmented", with "very diverse deployment strategies" per operator and
//! even per region for the same operator. We encode each operator's
//! strategy as a [`LayerPlan`] per (technology, region, timezone):
//!
//! * a *coverage fraction* — what share of route-miles the layer is
//!   deployed along, realized as contiguous patches (Markov persistence, so
//!   coverage is fragmented, not salt-and-pepper);
//! * a *cell spacing* within covered stretches;
//! * lateral offsets and per-RE EIRP for the link budget.
//!
//! The numbers are calibrated to land the paper's Fig. 2 shares: T-Mobile
//! ~68 % 5G / ~38 % high-speed (midband even on highways, strongest in the
//! Pacific zone); Verizon ~20 % 5G with the only real mmWave footprint
//! (downtown cores) and more 5G in the eastern half; AT&T ~20 % 5G, almost
//! no high-speed 5G (~3 %), weakest in Mountain/Central, but the best
//! LTE-A.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wheels_geo::region::RegionKind;
use wheels_geo::route::{Route, RouteHint};
use wheels_geo::timezone::Timezone;
use wheels_radio::band::Technology;

use crate::cell::{CellDb, CellId, CellSite};
use crate::operator::Operator;
use crate::tuning::OperatorTuning;

/// Deployment plan of one technology layer in one (region, timezone)
/// context.
#[derive(Debug, Clone, Copy)]
pub struct LayerPlan {
    /// Fraction of route-miles the layer is deployed along, [0, 1].
    pub coverage: f64,
    /// Cell spacing within covered stretches, meters.
    pub spacing_m: f64,
    /// Mean contiguous patch length, meters (fragmentation scale).
    pub patch_len_m: f64,
}

/// Timezone multiplier applied to a base coverage value, clamped to [0, 1].
fn tz_scaled(base: f64, factor: f64) -> f64 {
    (base * factor).clamp(0.0, 1.0)
}

/// The deployment plan for `op`'s `tech` layer in a given context.
///
/// This function is the codified version of the paper's §4.2 narrative; see
/// module docs. Regions: the denser the region, the denser (and more
/// likely) the deployment — except T-Mobile midband, which is deployed
/// along highways too.
pub fn layer_plan(op: Operator, tech: Technology, region: RegionKind, tz: Timezone) -> LayerPlan {
    use Operator::*;
    use RegionKind::*;
    use Technology::*;
    use Timezone::*;

    // Base spacings by region for macro layers (m).
    let macro_spacing = match region {
        UrbanCore => 1_200.0,
        Urban => 1_800.0,
        Suburban => 2_500.0,
        Highway => 3_400.0,
    };
    let mid_spacing = match region {
        UrbanCore => 900.0,
        Urban => 1_300.0,
        Suburban => 1_800.0,
        Highway => 2_200.0,
    };

    match (op, tech) {
        // ---- LTE: ubiquitous anchors for everyone -------------------
        (_, Lte) => LayerPlan {
            coverage: 1.0,
            spacing_m: macro_spacing,
            patch_len_m: 50_000.0,
        },
        // ---- LTE-A ---------------------------------------------------
        (Verizon, LteA) => LayerPlan {
            coverage: 0.62,
            spacing_m: macro_spacing,
            patch_len_m: 30_000.0,
        },
        (TMobile, LteA) => LayerPlan {
            coverage: 0.55,
            spacing_m: macro_spacing,
            patch_len_m: 30_000.0,
        },
        // AT&T: "a much larger percentage of LTE-A vs. LTE".
        (Att, LteA) => LayerPlan {
            coverage: 0.85,
            spacing_m: macro_spacing,
            patch_len_m: 40_000.0,
        },
        // ---- 5G low band ----------------------------------------------
        (Verizon, Nr5gLow) => {
            let base = match region {
                UrbanCore | Urban => 0.25,
                Suburban => 0.10,
                Highway => 0.03,
            };
            // Verizon's 5G skews east (Fig. 2c).
            let f = match tz {
                Pacific => 1.0,
                Mountain => 0.6,
                Central => 1.4,
                Eastern => 1.5,
            };
            LayerPlan {
                coverage: tz_scaled(base, f),
                spacing_m: macro_spacing,
                patch_len_m: 12_000.0,
            }
        }
        (TMobile, Nr5gLow) => LayerPlan {
            // n71 wide but far from wall-to-wall along interstates.
            coverage: 0.45,
            spacing_m: macro_spacing,
            patch_len_m: 40_000.0,
        },
        (Att, Nr5gLow) => {
            let base = match region {
                UrbanCore | Urban => 0.40,
                Suburban => 0.20,
                Highway => 0.15,
            };
            // AT&T: very low 5G in Mountain and Central (Fig. 2c).
            let f = match tz {
                Pacific => 1.2,
                Mountain => 0.30,
                Central => 0.45,
                Eastern => 1.2,
            };
            LayerPlan {
                coverage: tz_scaled(base, f),
                spacing_m: macro_spacing,
                patch_len_m: 15_000.0,
            }
        }
        // ---- 5G mid band ----------------------------------------------
        (Verizon, Nr5gMid) => {
            let base = match region {
                UrbanCore => 0.50,
                Urban => 0.30,
                Suburban => 0.08,
                Highway => 0.04,
            };
            let f = match tz {
                Pacific => 1.0,
                Mountain => 0.5,
                Central => 1.4,
                Eastern => 1.5,
            };
            LayerPlan {
                coverage: tz_scaled(base, f),
                spacing_m: mid_spacing,
                patch_len_m: 6_000.0,
            }
        }
        (TMobile, Nr5gMid) => {
            // The only carrier with real highway midband (Fig. 2d).
            let base = match region {
                UrbanCore => 0.75,
                Urban => 0.60,
                Suburban => 0.38,
                Highway => 0.34,
            };
            // Strongest in the Pacific zone (Fig. 2c).
            let f = match tz {
                Pacific => 1.25,
                Mountain => 0.70,
                Central => 0.95,
                Eastern => 0.95,
            };
            LayerPlan {
                coverage: tz_scaled(base, f),
                spacing_m: mid_spacing,
                patch_len_m: 10_000.0,
            }
        }
        (Att, Nr5gMid) => {
            let base = match region {
                UrbanCore => 0.25,
                Urban => 0.12,
                Suburban => 0.03,
                Highway => 0.02,
            };
            let f = match tz {
                Pacific => 1.2,
                Mountain => 0.3,
                Central => 0.3,
                Eastern => 1.2,
            };
            LayerPlan {
                coverage: tz_scaled(base, f),
                spacing_m: mid_spacing,
                patch_len_m: 4_000.0,
            }
        }
        // ---- 5G mmWave -------------------------------------------------
        (Verizon, Nr5gMmWave) => {
            // "Verizon has prioritized ... mmWave (in downtown areas of
            // major cities)".
            let base = match region {
                UrbanCore => 0.60,
                Urban => 0.10,
                Suburban | Highway => 0.0,
            };
            LayerPlan {
                coverage: base,
                spacing_m: 230.0,
                patch_len_m: 1_500.0,
            }
        }
        (TMobile, Nr5gMmWave) => {
            let base = if region == UrbanCore { 0.003 } else { 0.0 };
            LayerPlan {
                coverage: base,
                spacing_m: 230.0,
                patch_len_m: 800.0,
            }
        }
        (Att, Nr5gMmWave) => {
            // Thin on route-miles, but present downtown: the paper's
            // static tests found AT&T mmWave in most major cities.
            let base = match region {
                UrbanCore => 0.30,
                Urban => 0.015,
                Suburban | Highway => 0.0,
            };
            LayerPlan {
                coverage: base,
                spacing_m: 230.0,
                patch_len_m: 1_000.0,
            }
        }
    }
}

/// Per-RE EIRP for a cell of `op`/`tech`, dBm. Macro layers sit around
/// 32 dBm per RE; mmWave folds the operator's beamforming gain in, which is
/// how the Verizon-vs-AT&T RSRP offset of §5.5 enters the link budget.
pub(crate) fn eirp_re_dbm(op: Operator, tech: Technology, rng: &mut SmallRng) -> f64 {
    let base = match tech {
        Technology::Lte | Technology::LteA => 32.0,
        Technology::Nr5gLow => 33.0,
        Technology::Nr5gMid => 32.0,
        Technology::Nr5gMmWave => 16.0 + op.mmwave_beams().mean_gain_dbi(),
    };
    base + rng.gen_range(-1.5..1.5)
}

/// [`layer_plan`] with a scenario tuning applied: coverage and spacing are
/// scaled per technology. The neutral tuning reproduces `layer_plan`
/// bit-for-bit (`x * 1.0 == x`, and clamping a value already in [0, 1] is
/// the identity).
pub(crate) fn layer_plan_tuned(
    op: Operator,
    tech: Technology,
    region: RegionKind,
    tz: Timezone,
    tuning: &OperatorTuning,
) -> LayerPlan {
    let base = layer_plan(op, tech, region, tz);
    LayerPlan {
        coverage: (base.coverage * tuning.coverage(tech)).clamp(0.0, 1.0),
        spacing_m: base.spacing_m * tuning.spacing(tech),
        patch_len_m: base.patch_len_m,
    }
}

/// Length of one deployment tile, meters: the granularity at which the
/// coverage Markov chain re-draws and cells are placed.
const TILE_M: f64 = 250.0;

/// The deployment context (region, timezone) of every [`TILE_M`] tile of
/// `route`, in odometer order: tile `i` starts where `i` additions of
/// `od += 250.0` from 0 land.
///
/// The context depends on the route alone, so it is derived once per
/// route and read by every (operator, technology) pass of the build,
/// each of which walks the same odometer sequence itself.
pub fn tile_plan(route: &Route) -> Vec<(RegionKind, Timezone)> {
    let mut tiles = Vec::with_capacity((route.total_m() / TILE_M).ceil().max(0.0) as usize);
    let mut hint = RouteHint::default();
    let mut od = 0.0;
    while od < route.total_m() {
        let region = route.region_at_hinted(od, &mut hint);
        tiles.push((region, route.timezone_at_hinted(od, &mut hint)));
        od += TILE_M;
    }
    tiles
}

/// Generate the full cell database for one operator along `route`.
///
/// Deterministic in `(op, seed)`. Cell ids are unique within the returned
/// database; combine operators with distinct seeds and id offsets via
/// [`build_ops`].
pub fn build_cells(route: &Route, op: Operator, seed: u64, id_offset: u32) -> CellDb {
    let tiles = tile_plan(route);
    build_cells_on(&tiles, op, seed, id_offset, &OperatorTuning::NEUTRAL)
}

/// [`build_cells`] over a precomputed [`tile_plan`], with scenario tuning
/// applied to every layer plan.
fn build_cells_on(
    tiles: &[(RegionKind, Timezone)],
    op: Operator,
    seed: u64,
    id_offset: u32,
    tuning: &OperatorTuning,
) -> CellDb {
    // lint:allow(D4): deployment seed arrives from scenario compilation
    // (slot-keyed); the salt only splits per-operator sub-streams
    let mut rng = SmallRng::seed_from_u64(seed ^ (op as u64).wrapping_mul(0x9E37_79B9));
    let mut sites = Vec::new();
    let mut next_id = id_offset;
    for tech in Technology::ALL {
        let mut covered = false;
        let mut state_valid = false;
        let mut dist_since_cell = f64::INFINITY;
        let mut next_spacing = 0.0;
        let mut od = 0.0;
        for &(region, tz) in tiles {
            let plan = layer_plan_tuned(op, tech, region, tz, tuning);
            // Markov patch persistence: re-draw the coverage state with
            // probability tile/patch_len, else keep it.
            let redraw = !state_valid || rng.gen_bool((TILE_M / plan.patch_len_m).clamp(0.0, 1.0));
            if redraw {
                covered = rng.gen_bool(plan.coverage.clamp(0.0, 1.0));
                state_valid = true;
            }
            if covered && plan.spacing_m.is_finite() {
                dist_since_cell += TILE_M;
                if dist_since_cell >= next_spacing {
                    let lateral_max = match tech {
                        Technology::Nr5gMmWave => 110.0,
                        _ => {
                            if region.is_city() {
                                350.0
                            } else {
                                700.0
                            }
                        }
                    };
                    sites.push(CellSite {
                        id: CellId(next_id),
                        op,
                        tech,
                        odometer_m: od + rng.gen_range(0.0..TILE_M),
                        lateral_m: rng.gen_range(lateral_max * 0.1..lateral_max),
                        eirp_re_dbm: eirp_re_dbm(op, tech, &mut rng),
                    });
                    next_id += 1;
                    dist_since_cell = 0.0;
                    next_spacing = plan.spacing_m * rng.gen_range(0.7..1.3);
                }
            } else {
                dist_since_cell = f64::INFINITY;
                next_spacing = 0.0;
            }
            od += TILE_M;
        }
    }
    CellDb::new(op, sites)
}

/// Build the cell databases of an arbitrary operator set with per-operator
/// tuning, over one shared [`tile_plan`] of `route`. Seeds and id offsets
/// are keyed on the operator *slot* (not the list position), so a subset
/// scenario sees exactly the deployment the full panel would. Cell-id
/// ranges are disjoint across operators.
pub fn build_ops(route: &Route, seed: u64, ops: &[(Operator, OperatorTuning)]) -> Vec<CellDb> {
    let tiles = tile_plan(route);
    ops.iter()
        .map(|(op, tuning)| {
            build_cells_on(
                &tiles,
                *op,
                seed.wrapping_add(*op as u64),
                *op as u32 * 1_000_000,
                tuning,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three-operator panel with neutral tunings.
    fn neutral_panel(route: &Route, seed: u64) -> Vec<CellDb> {
        let ops = Operator::ALL.map(|op| (op, OperatorTuning::NEUTRAL));
        build_ops(route, seed, &ops)
    }

    fn route() -> Route {
        Route::cross_country()
    }

    #[test]
    fn lte_everywhere_for_everyone() {
        for op in Operator::ALL {
            for region in RegionKind::ALL {
                for tz in Timezone::ALL {
                    assert!(layer_plan(op, Technology::Lte, region, tz).coverage >= 1.0);
                }
            }
        }
    }

    #[test]
    fn tmobile_midband_on_highways_others_not() {
        let t = layer_plan(
            Operator::TMobile,
            Technology::Nr5gMid,
            RegionKind::Highway,
            Timezone::Central,
        );
        let v = layer_plan(
            Operator::Verizon,
            Technology::Nr5gMid,
            RegionKind::Highway,
            Timezone::Central,
        );
        let a = layer_plan(
            Operator::Att,
            Technology::Nr5gMid,
            RegionKind::Highway,
            Timezone::Central,
        );
        assert!(t.coverage > 0.28);
        assert!(v.coverage < 0.15);
        assert!(a.coverage < 0.05);
    }

    #[test]
    fn mmwave_only_in_cities() {
        for op in Operator::ALL {
            for tz in Timezone::ALL {
                let hw = layer_plan(op, Technology::Nr5gMmWave, RegionKind::Highway, tz);
                assert_eq!(hw.coverage, 0.0, "{op} deploys mmWave on highways");
            }
        }
    }

    #[test]
    fn verizon_leads_mmwave() {
        let v = layer_plan(
            Operator::Verizon,
            Technology::Nr5gMmWave,
            RegionKind::UrbanCore,
            Timezone::Eastern,
        );
        let a = layer_plan(
            Operator::Att,
            Technology::Nr5gMmWave,
            RegionKind::UrbanCore,
            Timezone::Eastern,
        );
        let t = layer_plan(
            Operator::TMobile,
            Technology::Nr5gMmWave,
            RegionKind::UrbanCore,
            Timezone::Eastern,
        );
        assert!(v.coverage > a.coverage && v.coverage > t.coverage);
    }

    #[test]
    fn att_weak_in_mountain_central() {
        for tech in [Technology::Nr5gLow, Technology::Nr5gMid] {
            for region in [RegionKind::Urban, RegionKind::Highway] {
                let m = layer_plan(Operator::Att, tech, region, Timezone::Mountain);
                let e = layer_plan(Operator::Att, tech, region, Timezone::Eastern);
                assert!(m.coverage < e.coverage, "{tech} {region:?}");
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let r = route();
        let a = build_cells(&r, Operator::Verizon, 42, 0);
        let b = build_cells(&r, Operator::Verizon, 42, 0);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn cell_counts_in_table1_ballpark() {
        // Table 1: 3,020 (V) / 4,038 (T) / 3,150 (A) unique cells
        // *connected*; the deployed database must be at least that dense
        // but same order of magnitude.
        let r = route();
        for (op, lo, hi) in [
            (Operator::Verizon, 2_000, 9_000),
            (Operator::TMobile, 3_000, 12_000),
            (Operator::Att, 2_000, 9_000),
        ] {
            let db = build_cells(&r, op, 7, 0);
            let n = db.len();
            assert!((lo..hi).contains(&n), "{op}: {n} cells");
        }
    }

    #[test]
    fn tmobile_has_most_midband_cells() {
        let r = route();
        let dbs = neutral_panel(&r, 7);
        let mid = |db: &CellDb| db.layer_len(Technology::Nr5gMid);
        assert!(mid(&dbs[1]) > 2 * mid(&dbs[0]));
        assert!(mid(&dbs[1]) > 5 * mid(&dbs[2]));
    }

    #[test]
    fn verizon_has_most_mmwave_cells() {
        let r = route();
        let dbs = neutral_panel(&r, 7);
        let mm = |db: &CellDb| db.layer_len(Technology::Nr5gMmWave);
        assert!(mm(&dbs[0]) > mm(&dbs[1]));
        assert!(mm(&dbs[0]) > mm(&dbs[2]));
    }

    #[test]
    fn ids_disjoint_across_operators() {
        let r = route();
        let dbs = neutral_panel(&r, 7);
        // id ranges offset by 1M per operator; sizes far below 1M.
        for db in &dbs {
            assert!(db.len() < 1_000_000);
        }
    }
}
