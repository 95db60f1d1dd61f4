//! Serving-cell candidate evaluation: RSRP with path loss, shadowing and
//! neighbor interference.
//!
//! For each technology layer this module answers: what is the best cell at
//! the UE's current position, how strong is it, and how strong is the
//! runner-up (which doubles as the dominant interferer for SINR)?

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wheels_geo::region::RegionKind;
use wheels_radio::band::Technology;
use wheels_radio::pathloss::{Log10Lb, PathLossModel};
use wheels_radio::shadowing::ShadowBank;

use crate::cell::{tech_index, CellDb, CellId};

/// Clutter factor for a region kind, feeding [`PathLossModel`].
pub fn clutter(region: RegionKind) -> f64 {
    match region {
        RegionKind::UrbanCore => 0.9,
        RegionKind::Urban => 0.7,
        RegionKind::Suburban => 0.4,
        RegionKind::Highway => 0.15,
    }
}

/// Minimum RSRP (dBm) for a layer to be considered available. High bands
/// need more signal to be useful.
pub fn min_rsrp_dbm(tech: Technology) -> f64 {
    match tech {
        Technology::Lte => -118.0,
        Technology::LteA => -115.0,
        Technology::Nr5gLow => -118.0,
        Technology::Nr5gMid => -110.0,
        Technology::Nr5gMmWave => -105.0,
    }
}

/// The best cell of a layer at a location.
#[derive(Debug, Clone, Copy)]
pub struct LayerCandidate {
    /// Best cell id.
    pub cell: CellId,
    /// Its RSRP, dBm.
    pub rsrp_dbm: f64,
    /// RSRP of the second-best cell, dBm (dominant interferer), if any.
    pub second_rsrp_dbm: Option<f64>,
    /// Id of the second-best cell (load-balancing handover target).
    pub second_cell: Option<CellId>,
}

/// Shadowing parameters (σ dB, decorrelation distance m) per technology.
/// mmWave shadowing is harsher and changes faster (blockage).
pub fn shadow_params(tech: Technology) -> (f64, f64) {
    match tech {
        Technology::Nr5gMmWave => (7.0, 25.0),
        Technology::Nr5gMid => (6.0, 60.0),
        _ => (5.5, 90.0),
    }
}

/// Per-UE store of shadowing fields, one per cell actually evaluated.
///
/// Fields are seeded from (UE seed, cell id) so every UE sees its own
/// deterministic shadowing realization per cell, evaluated monotonically in
/// odometer distance as the vehicle advances. Storage is one
/// position-indexed [`ShadowBank`] per technology layer (the caller passes
/// the cell's position in its layer's sorted array), so the per-tick scan
/// advances the whole audible window in one batched call.
#[derive(Debug)]
pub struct ShadowStore {
    seed: u64,
    banks: [ShadowBank; 5],
    steps_since_prune: u32,
}

impl ShadowStore {
    /// Create a store for one UE.
    pub fn new(seed: u64) -> Self {
        ShadowStore {
            seed,
            banks: Technology::ALL.map(|t| {
                let (sigma, corr) = shadow_params(t);
                ShadowBank::new(sigma, corr)
            }),
            steps_since_prune: 0,
        }
    }

    /// Advance the fields for the cells at layer positions `positions`
    /// (ids indexed by position) to odometer `od_m`, handing each position
    /// and its value to `visit` in position order.
    #[inline]
    pub fn visit_span(
        &mut self,
        tech: Technology,
        positions: std::ops::Range<usize>,
        ids: &[CellId],
        od_m: f64,
        visit: impl FnMut(usize, f64),
    ) {
        let ue_seed = self.seed;
        self.banks[tech_index(tech)].visit_span(
            positions,
            od_m,
            |pos| field_seed(ue_seed, ids[pos]),
            visit,
        );
    }

    /// Shadowing in dB for the cell at layer position `pos` (with id
    /// `cell`, which seeds the field) at odometer `od_m`.
    pub fn shadow_at(&mut self, tech: Technology, pos: usize, cell: CellId, od_m: f64) -> f64 {
        self.banks[tech_index(tech)].advance_one(pos, od_m, field_seed(self.seed, cell))
    }

    /// The odometer the field at layer position `pos` of `tech` was last
    /// advanced to, if it is live.
    #[cfg(test)]
    pub(crate) fn last_advanced_m(&self, tech: Technology, pos: usize) -> Option<f64> {
        self.banks[tech_index(tech)].last_advanced_m(pos)
    }

    /// Drop fields for cells left far behind; call occasionally.
    ///
    /// Every cell within radio range of the vehicle is re-queried on every
    /// step, so a field's `last_od_m` tracks the vehicle as long as its cell
    /// is reachable; once a cell falls out of its layer's query window the
    /// (non-decreasing) odometer guarantees it can never re-enter. Dropping
    /// fields last touched more than `keep_window_m` behind `od_m` is thus
    /// byte-identical to never pruning, provided `keep_window_m` exceeds
    /// every layer's query window (max `nominal_range_m() * 2.0` = 14 km).
    pub fn maybe_prune(&mut self, od_m: f64, keep_window_m: f64) {
        self.steps_since_prune += 1;
        if self.steps_since_prune < 2_000 {
            return;
        }
        self.steps_since_prune = 0;
        for bank in &mut self.banks {
            bank.retire_before(od_m - keep_window_m);
        }
    }

    /// Number of live shadowing fields (diagnostics).
    pub fn len(&self) -> usize {
        self.banks.iter().map(ShadowBank::live_count).sum()
    }

    /// Whether the store holds no fields yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Seed of the shadowing field between one UE and one cell.
fn field_seed(ue_seed: u64, cell: CellId) -> u64 {
    ue_seed ^ u64::from(cell.0).wrapping_mul(0xFF51_AFD7_ED55_8CCD)
}

/// Evaluate the best candidate on `tech`'s layer at odometer `od_m`.
///
/// Returns `None` if no cell is in range or the best is below the layer's
/// availability threshold.
pub fn evaluate_layer(
    db: &CellDb,
    tech: Technology,
    od_m: f64,
    region: RegionKind,
    clutter_scale: f64,
    shadows: &mut ShadowStore,
) -> Option<LayerCandidate> {
    let pl = PathLossModel::new(tech.band(), layer_clutter(tech, region, clutter_scale));
    evaluate_layer_with(db, tech, od_m, &pl, shadows)
}

/// Effective clutter factor of one layer at one region: what
/// [`evaluate_layer`] feeds [`PathLossModel::new`]. Exposed so per-UE
/// callers can cache the model while the region is unchanged.
pub fn layer_clutter(tech: Technology, region: RegionKind, clutter_scale: f64) -> f64 {
    if tech == Technology::Nr5gMmWave {
        // mmWave cells are deployed for street-level LOS; effective clutter
        // is far below the macro environment's.
        clutter(region) * 0.25 * clutter_scale
    } else {
        clutter(region) * clutter_scale
    }
}

/// [`evaluate_layer`] with a caller-supplied path-loss model (cached per
/// layer while the clutter environment is unchanged — the hot path).
pub fn evaluate_layer_with(
    db: &CellDb,
    tech: Technology,
    od_m: f64,
    pl: &PathLossModel,
    shadows: &mut ShadowStore,
) -> Option<LayerCandidate> {
    let window = tech.nominal_range_m() * 1.6;
    let range = db.window_range(tech, od_m, window);
    evaluate_layer_span(db, tech, range, od_m, pl, shadows)
}

/// [`evaluate_layer_with`] with the audible window already located —
/// per-UE steppers track it incrementally with a
/// [`crate::cell::WindowCursor`] instead of re-running the binary
/// searches every tick. `range` must equal what
/// [`CellDb::window_range`] returns for `tech`'s window at `od_m`.
pub fn evaluate_layer_span(
    db: &CellDb,
    tech: Technology,
    range: std::ops::Range<usize>,
    od_m: f64,
    pl: &PathLossModel,
    shadows: &mut ShadowStore,
) -> Option<LayerCandidate> {
    if range.is_empty() {
        return None;
    }
    let layer = db.layer(tech);
    let (ids, ods, lat_sq, eirp) = (
        layer.ids(),
        layer.od_m(),
        layer.lat_sq_m2(),
        layer.eirp_re_dbm(),
    );
    let lb = Log10Lb::get();
    let mut best: Option<(CellId, f64)> = None;
    let mut second: Option<(CellId, f64)> = None;
    // One pass: the bank advances each audible cell's field and hands its
    // value straight to the scorer. The advance is unconditional for every
    // audible cell — skipped from scoring or not — or the per-field RNG
    // streams shift.
    shadows.visit_span(tech, range, ids, od_m, |i, shv| {
        let along = od_m - ods[i];
        let d2 = along * along + lat_sq[i];
        if let Some((_, s)) = second {
            // Contender skip: `loss_lb_db` is strictly below the exact
            // loss, so `ub` strictly exceeds the exact RSRP; a cell with
            // `ub <= second` can change neither best nor second (ties do
            // not displace the incumbent), and its RSRP is never output.
            let ub = eirp[i] - pl.loss_lb_db(lb, d2) + shv;
            if ub <= s {
                return;
            }
        }
        let rsrp = eirp[i] - pl.loss_db(d2.sqrt()) + shv;
        match best {
            None => best = Some((ids[i], rsrp)),
            Some((b_id, b)) if rsrp > b => {
                second = Some((b_id, b));
                best = Some((ids[i], rsrp));
            }
            Some(_) => {
                if second.is_none_or(|(_, s)| rsrp > s) {
                    second = Some((ids[i], rsrp));
                }
            }
        }
    });
    let (cell, rsrp_dbm) = best.expect("nonempty cell list yields a best");
    if rsrp_dbm < min_rsrp_dbm(tech) {
        return None;
    }
    Some(LayerCandidate {
        cell,
        rsrp_dbm,
        second_rsrp_dbm: second.map(|(_, r)| r),
        second_cell: second.map(|(id, _)| id),
    })
}

/// Wideband SINR (dB) for a candidate: signal over thermal floor plus the
/// dominant interferer discounted by an activity factor.
pub fn sinr_db(
    cand: &LayerCandidate,
    tech: Technology,
    noise_eff_dbm: f64,
    rng: &mut SmallRng,
) -> f64 {
    sinr_db_with_interf(
        cand.rsrp_dbm,
        10f64.powf(noise_eff_dbm / 10.0),
        interference_lin(cand.second_rsrp_dbm, tech),
        draw_fade_db(rng),
    )
}

/// Draw the small fast-fading residual (dB) a SINR evaluation adds.
pub fn draw_fade_db(rng: &mut SmallRng) -> f64 {
    rng.gen_range(-1.5..1.5)
}

/// Linear power of the dominant interferer at RSRP `second_rsrp_dbm`,
/// discounted by `tech`'s activity factor: `10^((s − activity)/10)`, or
/// 0 with no interferer. It depends on neither direction nor noise, so a
/// step computes it once for its DL and UL SINR.
pub fn interference_lin(second_rsrp_dbm: Option<f64>, tech: Technology) -> f64 {
    let activity_db = match tech {
        // Beamformed mmWave neighbors rarely point at you.
        Technology::Nr5gMmWave => 12.0,
        _ => 3.0,
    };
    second_rsrp_dbm.map_or(0.0, |s| 10f64.powf((s - activity_db) / 10.0))
}

/// [`sinr_db`]'s arithmetic on precomputed powers: serving `rsrp_dbm`
/// over the linear noise floor `noise_lin` — constant per (operator,
/// technology, direction), see [`crate::config::link_noise_lin`] — plus
/// the linear interference `interf_lin` (see [`interference_lin`]), with
/// the fading residual `fade_db` already drawn (see [`draw_fade_db`]).
pub fn sinr_db_with_interf(rsrp_dbm: f64, noise_lin: f64, interf_lin: f64, fade_db: f64) -> f64 {
    let denom_dbm = 10.0 * (noise_lin + interf_lin).log10();
    rsrp_dbm - denom_dbm + fade_db
}

/// Deterministic helper to build a per-purpose RNG from a UE seed.
pub fn sub_rng(seed: u64, salt: u64) -> SmallRng {
    // lint:allow(D4): the UE seed is netsim::rng-derived upstream; this
    // helper only splits per-purpose sub-streams off it
    SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellSite;
    use crate::operator::Operator;

    fn db_with(cells: Vec<(u32, Technology, f64, f64)>) -> CellDb {
        CellDb::new(
            Operator::Verizon,
            cells
                .into_iter()
                .map(|(id, tech, od, lat)| CellSite {
                    id: CellId(id),
                    op: Operator::Verizon,
                    tech,
                    odometer_m: od,
                    lateral_m: lat,
                    eirp_re_dbm: 32.0,
                })
                .collect(),
        )
    }

    #[test]
    fn nearest_cell_wins_without_shadowing_luck() {
        let db = db_with(vec![
            (1, Technology::Lte, 1_000.0, 100.0),
            (2, Technology::Lte, 6_000.0, 100.0),
        ]);
        let mut sh = ShadowStore::new(1);
        let c = evaluate_layer(&db, Technology::Lte, 1_200.0, RegionKind::Suburban, 1.0, &mut sh)
            .expect("cell in range");
        assert_eq!(c.cell, CellId(1));
        assert!(c.second_rsrp_dbm.is_some());
        assert!(c.rsrp_dbm > c.second_rsrp_dbm.unwrap());
    }

    #[test]
    fn empty_layer_gives_none() {
        let db = db_with(vec![(1, Technology::Lte, 1_000.0, 100.0)]);
        let mut sh = ShadowStore::new(1);
        assert!(evaluate_layer(
            &db,
            Technology::Nr5gMmWave,
            1_000.0,
            RegionKind::UrbanCore,
            1.0,
            &mut sh
        )
        .is_none());
    }

    #[test]
    fn out_of_range_mmwave_unavailable() {
        let db = db_with(vec![(1, Technology::Nr5gMmWave, 0.0, 50.0)]);
        let mut sh = ShadowStore::new(1);
        // 2 km from a mmWave cell: far outside its ~280 m range.
        assert!(evaluate_layer(
            &db,
            Technology::Nr5gMmWave,
            2_000.0,
            RegionKind::UrbanCore,
            1.0,
            &mut sh
        )
        .is_none());
    }

    #[test]
    fn mmwave_rsrp_in_papers_range() {
        // At 80-250 m from a mmWave cell, RSRP should land in the -70..-110
        // dBm window the paper describes.
        let db = db_with(vec![(1, Technology::Nr5gMmWave, 0.0, 40.0)]);
        let mut sh = ShadowStore::new(2);
        for od in [80.0, 150.0, 230.0] {
            if let Some(c) =
                evaluate_layer(&db, Technology::Nr5gMmWave, od, RegionKind::UrbanCore, 1.0, &mut sh)
            {
                // eirp 32 here is a generic macro value; real mmWave eirp is
                // set by deployment::eirp_re_dbm. Just check monotonic decay
                // and plausible magnitude.
                assert!((-115.0..-55.0).contains(&c.rsrp_dbm), "{}", c.rsrp_dbm);
            }
        }
    }

    #[test]
    fn lte_macro_rsrp_plausible_at_2km() {
        let db = db_with(vec![(1, Technology::Lte, 0.0, 200.0)]);
        let mut sh = ShadowStore::new(3);
        let c = evaluate_layer(&db, Technology::Lte, 2_000.0, RegionKind::Suburban, 1.0, &mut sh)
            .expect("in range");
        assert!((-115.0..-75.0).contains(&c.rsrp_dbm), "{}", c.rsrp_dbm);
    }

    #[test]
    fn sinr_reduced_by_strong_interferer() {
        let mut rng = sub_rng(1, 2);
        let strong_interf = LayerCandidate {
            cell: CellId(1),
            rsrp_dbm: -90.0,
            second_rsrp_dbm: Some(-92.0),
            second_cell: Some(CellId(2)),
        };
        let weak_interf = LayerCandidate {
            cell: CellId(1),
            rsrp_dbm: -90.0,
            second_rsrp_dbm: Some(-115.0),
            second_cell: Some(CellId(2)),
        };
        let s1 = sinr_db(&strong_interf, Technology::Lte, -110.0, &mut rng);
        let s2 = sinr_db(&weak_interf, Technology::Lte, -110.0, &mut rng);
        assert!(s1 < s2 - 5.0, "{s1} vs {s2}");
    }

    #[test]
    fn cell_edge_sinr_is_low() {
        let mut rng = sub_rng(4, 4);
        let edge = LayerCandidate {
            cell: CellId(1),
            rsrp_dbm: -100.0,
            second_rsrp_dbm: Some(-101.0),
            second_cell: Some(CellId(2)),
        };
        let s = sinr_db(&edge, Technology::Lte, -110.0, &mut rng);
        assert!(s < 8.0, "{s}");
    }

    #[test]
    fn shared_interference_matches_two_call_sinr() {
        // The step computes the interference power once for both
        // directions; each SINR must equal the per-direction call that
        // derived it from the candidate itself, bit for bit.
        let per_call = |rsrp: f64, second: Option<f64>, tech, noise_lin: f64, fade: f64| {
            let activity_db = match tech {
                Technology::Nr5gMmWave => 12.0,
                _ => 3.0,
            };
            let interf_lin = second.map_or(0.0, |s: f64| 10f64.powf((s - activity_db) / 10.0));
            let denom_dbm = 10.0 * (noise_lin + interf_lin).log10();
            rsrp - denom_dbm + fade
        };
        let mut rng = sub_rng(6, 6);
        for tech in Technology::ALL {
            let (noise_dl, noise_ul) = (10f64.powf(-11.3), 10f64.powf(-10.7));
            for _ in 0..500 {
                let rsrp = rng.gen_range(-125.0..-60.0);
                let second = rng.gen_bool(0.8).then(|| rng.gen_range(-130.0..-60.0));
                let (fade_dl, fade_ul) = (draw_fade_db(&mut rng), draw_fade_db(&mut rng));
                let interf = interference_lin(second, tech);
                let dl = sinr_db_with_interf(rsrp, noise_dl, interf, fade_dl);
                let ul = sinr_db_with_interf(rsrp, noise_ul, interf, fade_ul);
                let want_dl = per_call(rsrp, second, tech, noise_dl, fade_dl);
                let want_ul = per_call(rsrp, second, tech, noise_ul, fade_ul);
                assert_eq!(dl.to_bits(), want_dl.to_bits(), "{tech:?} DL");
                assert_eq!(ul.to_bits(), want_ul.to_bits(), "{tech:?} UL");
            }
        }
    }

    #[test]
    fn shadow_store_prunes_cells_left_behind() {
        let mut sh = ShadowStore::new(5);
        for i in 0..600 {
            let _ = sh.shadow_at(Technology::Lte, i as usize, CellId(i), i as f64 * 100.0);
        }
        for _ in 0..2_001 {
            sh.maybe_prune(1_000_000.0, 10_000.0);
        }
        assert!(sh.is_empty(), "all cells lie ~940+ km behind the window");
    }

    #[test]
    fn shadow_store_prune_keeps_window() {
        let mut sh = ShadowStore::new(5);
        for i in 0..600 {
            let _ = sh.shadow_at(Technology::Lte, i as usize, CellId(i), i as f64 * 100.0);
        }
        // Vehicle at 59.9 km; a 10 km window keeps cells touched at ≥ 49.9 km
        // (inclusive): positions 499..=599.
        for _ in 0..2_001 {
            sh.maybe_prune(59_900.0, 10_000.0);
        }
        assert_eq!(sh.len(), 101);
    }

    #[test]
    fn shadow_store_prune_is_transparent() {
        // A pruned store must return exactly the values an unpruned store
        // does: fields are only dropped once their cell can no longer be
        // queried, and re-derivation never happens for live cells.
        let run = |keep_window_m: f64| {
            let mut sh = ShadowStore::new(9);
            let mut vals = Vec::new();
            for step in 0..30_000u32 {
                let od = step as f64 * 2.0; // 60 km of travel
                // Query the cells "in range": one per km, ±6 km around us.
                let center = (od / 1_000.0) as i64;
                for c in (center - 6).max(0)..=center + 6 {
                    vals.push(sh.shadow_at(Technology::Lte, c as usize, CellId(c as u32), od));
                }
                sh.maybe_prune(od, keep_window_m);
            }
            (vals, sh.len())
        };
        let (pruned, live) = run(20_000.0);
        let (unpruned, all) = run(f64::INFINITY);
        assert_eq!(pruned, unpruned);
        assert!(live < all, "prune never dropped anything ({live} vs {all})");
    }

    #[test]
    fn rescan_at_unchanged_odometer_is_identical_and_draws_nothing() {
        // The premise of `UeRadio::step`'s scan reuse while the UE stands
        // still: a second scan at the same odometer returns the same
        // candidates bit for bit and leaves every RNG stream where it was.
        let tech = Technology::Lte;
        let db = db_with(
            (0..12)
                .map(|i| (i, tech, f64::from(i) * 900.0, 150.0 + f64::from(i) * 20.0))
                .collect(),
        );
        let pl = PathLossModel::new(tech.band(), layer_clutter(tech, RegionKind::Suburban, 1.0));
        let window = tech.nominal_range_m() * 1.6;
        let od = 4_321.0;
        let range = db.window_range(tech, od, window);
        assert!(range.len() > 2, "the scan must see several cells");
        let bits = |c: Option<LayerCandidate>| {
            c.map(|c| {
                (
                    c.cell,
                    c.rsrp_dbm.to_bits(),
                    c.second_cell,
                    c.second_rsrp_dbm.map(f64::to_bits),
                )
            })
        };
        let mut twice = ShadowStore::new(8);
        let mut once = ShadowStore::new(8);
        for sh in [&mut twice, &mut once] {
            // Live fields partway along their streams, as on a drive.
            let earlier = od - 55.0;
            let r = db.window_range(tech, earlier, window);
            evaluate_layer_span(&db, tech, r, earlier, &pl, sh);
        }
        let first = evaluate_layer_span(&db, tech, range.clone(), od, &pl, &mut twice);
        let second = evaluate_layer_span(&db, tech, range.clone(), od, &pl, &mut twice);
        let single = evaluate_layer_span(&db, tech, range.clone(), od, &pl, &mut once);
        assert!(first.is_some());
        assert_eq!(bits(first), bits(second));
        assert_eq!(bits(first), bits(single));
        // Had the second scan drawn, `twice`'s streams would now be ahead
        // of `once`'s and the next advance would differ.
        let ids = db.layer(tech).ids();
        let ahead = od + 37.0;
        let mut a = Vec::new();
        twice.visit_span(tech, range.clone(), ids, ahead, |_, v| a.push(v.to_bits()));
        let mut b = Vec::new();
        once.visit_span(tech, range, ids, ahead, |_, v| b.push(v.to_bits()));
        assert_eq!(a, b);
    }

    #[test]
    fn shadow_at_deterministic_for_same_cell_identity() {
        // The field realization depends on (UE seed, cell id) and the query
        // distances — never on the layer position used to address it.
        let mut a = ShadowStore::new(77);
        let mut b = ShadowStore::new(77);
        let mut d = 0.0;
        for _ in 0..200 {
            d += 5.0;
            let va = a.shadow_at(Technology::Nr5gMid, 3, CellId(1234), d);
            let vb = b.shadow_at(Technology::Nr5gMid, 9, CellId(1234), d);
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }
}
