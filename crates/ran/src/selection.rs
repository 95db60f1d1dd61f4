//! Serving-cell candidate evaluation: RSRP with path loss, shadowing and
//! neighbor interference.
//!
//! For each technology layer this module answers: what is the best cell at
//! the UE's current position, how strong is it, and how strong is the
//! runner-up (which doubles as the dominant interferer for SINR)?

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wheels_geo::region::RegionKind;
use wheels_radio::band::Technology;
use wheels_radio::pathloss::{Log10Lb, PathLossModel};
use wheels_radio::shadowing::ShadowBank;

use crate::cell::{tech_index, CellDb, CellId, LayerCells};

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
/// the cell's position in its layer's sorted array). Each tick records
/// every layer's audible window ([`ShadowStore::defer`]), and a layer's
/// fields advance only when it is read ([`ShadowStore::catch_up`]).
#[derive(Debug)]
pub struct ShadowStore {
    seed: u64,
    banks: [ShadowBank; 5],
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
        }
    }

    /// Record that `tech`'s audible window is the layer positions
    /// `positions` at odometer `od_m`. Draws nothing.
    #[inline]
    pub fn defer(&mut self, tech: Technology, positions: Range<usize>, od_m: f64) {
        self.banks[tech_index(tech)].defer(positions, od_m);
    }

    /// Advance `tech`'s fields through every window deferred since its
    /// last read (ids indexed by layer position seed them) and return the
    /// current window's first position and values, one per position.
    #[inline]
    pub fn catch_up(&mut self, tech: Technology, ids: &[CellId]) -> (usize, &[f64]) {
        let ue_seed = self.seed;
        let bank = &mut self.banks[tech_index(tech)];
        let lo = bank.window().start;
        (lo, bank.catch_up(|pos| field_seed(ue_seed, ids[pos])))
    }

    /// Shadowing in dB for the cell at layer position `pos` of `tech`,
    /// which must lie in the layer's current window, caught up first.
    pub fn shadow_at(&mut self, tech: Technology, pos: usize, ids: &[CellId]) -> f64 {
        let (lo, shadow_db) = self.catch_up(tech, ids);
        shadow_db[pos - lo]
    }

    /// The odometer the field at layer position `pos` of `tech` was last
    /// advanced to, if it was ever drawn.
    #[cfg(test)]
    pub(crate) fn last_advanced_m(&self, tech: Technology, pos: usize) -> Option<f64> {
        self.banks[tech_index(tech)].last_advanced_m(pos)
    }
}

/// Seed of the shadowing field between one UE and one cell.
fn field_seed(ue_seed: u64, cell: CellId) -> u64 {
    ue_seed ^ u64::from(cell.0).wrapping_mul(0xFF51_AFD7_ED55_8CCD)
}

/// Effective clutter factor of one layer at one region: what a scan's
/// [`PathLossModel::new`] takes. Per-UE callers cache the model while the
/// region is unchanged.
pub fn layer_clutter(tech: Technology, region: RegionKind, clutter_scale: f64) -> f64 {
    if tech == Technology::Nr5gMmWave {
        // mmWave cells are deployed for street-level LOS; effective clutter
        // is far below the macro environment's.
        clutter(region) * 0.25 * clutter_scale
    } else {
        clutter(region) * clutter_scale
    }
}

/// A scored cell: its layer position and RSRP, dBm.
type Scored = (usize, f64);

/// The best and runner-up cells of one scan, best first.
type Top2 = [Option<Scored>; 2];

/// Evaluate the best candidate on `tech`'s layer at odometer `od_m`.
///
/// The audible window is the one last deferred for `tech` in `shadows`
/// ([`ShadowStore::defer`]): it must be what [`CellDb::window_range`]
/// returns for `tech`'s window (`nominal_range_m() * 1.6`) at `od_m`.
/// Per-UE steppers track it incrementally with a
/// [`crate::cell::WindowCursor`]. `pl` is the layer's path-loss model at
/// the current clutter. `prime` holds the layer positions of the last
/// scan's best and runner-up; they are scored first, and the scan leaves
/// this scan's pair there.
///
/// Returns `None` if no cell is in range or the best is below the layer's
/// availability threshold.
///
/// Two passes over the window. Pass 1 catches the layer's shadowing
/// fields up to `od_m` through every window deferred since the layer was
/// last read ([`ShadowStore::catch_up`]). Pass 2 scores the cells against
/// the shadowing values, the primed pair first (see [`score_span`]).
pub fn evaluate_layer_span(
    db: &CellDb,
    tech: Technology,
    od_m: f64,
    pl: &PathLossModel,
    shadows: &mut ShadowStore,
    prime: &mut [Option<usize>; 2],
) -> Option<LayerCandidate> {
    let layer = db.layer(tech);
    let (lo, shadow_db) = shadows.catch_up(tech, layer.ids());
    if shadow_db.is_empty() {
        return None;
    }
    let top = score_span(layer, lo, od_m, pl, shadow_db, *prime);
    *prime = top.map(|c| c.map(|(pos, _)| pos));
    candidate(tech, layer.ids(), top)
}

/// Pass 2 of [`evaluate_layer_span`]: the top two cells of the window
/// `lo..lo + shadow_db.len()` under the order RSRP descending, then layer
/// position ascending. `shadow_db[j]` is the shadowing of position
/// `lo + j`.
///
/// The positions in `prime` that lie inside the window are scored first,
/// then the rest of the window in position order. Scoring a good pair
/// first fills the runner-up early, so the contender skip below spares
/// most of the window its exact path loss.
///
/// The result does not depend on the visiting order. Each cell is
/// inserted under the explicit total order, so the pair kept is the top
/// two of the cells scored whatever order they came in. The order is the
/// one an in-order scan with strict `>` comparisons yields, where a tie
/// does not displace the incumbent: among equal RSRPs the lower position
/// wins. A skipped cell's RSRP lies strictly below the runner-up's, so it
/// could never have entered the pair.
fn score_span(
    layer: &LayerCells,
    lo: usize,
    od_m: f64,
    pl: &PathLossModel,
    shadow_db: &[f64],
    prime: [Option<usize>; 2],
) -> Top2 {
    let (ods, lat_sq, eirp) = (layer.od_m(), layer.lat_sq_m2(), layer.eirp_re_dbm());
    let lb = Log10Lb::get();
    let hi = lo + shadow_db.len();
    let p0 = prime[0].filter(|&p| lo <= p && p < hi);
    let p1 = prime[1].filter(|&p| lo <= p && p < hi && Some(p) != p0);
    let mut top: Top2 = [None, None];
    let mut score = |i: usize, shv: f64| {
        let along = od_m - ods[i];
        let d2 = along * along + lat_sq[i];
        if let Some((_, s)) = top[1] {
            // Contender skip: `loss_lb_db` is strictly below the exact
            // loss, so `ub` strictly exceeds the exact RSRP; a cell with
            // `ub <= second` ranks below the runner-up and its RSRP is
            // never output.
            let ub = eirp[i] - pl.loss_lb_db(lb, d2) + shv;
            if ub <= s {
                return;
            }
        }
        let c = (i, eirp[i] - pl.loss_db(d2.sqrt()) + shv);
        if top[0].is_none_or(|b| ranks_above(c, b)) {
            top = [Some(c), top[0]];
        } else if top[1].is_none_or(|s| ranks_above(c, s)) {
            top[1] = Some(c);
        }
    };
    for p in [p0, p1].into_iter().flatten() {
        score(p, shadow_db[p - lo]);
    }
    for (i, &shv) in (lo..).zip(shadow_db) {
        if Some(i) != p0 && Some(i) != p1 {
            score(i, shv);
        }
    }
    top
}

/// Whether `a` ranks above `b`: higher RSRP, or equal RSRP at a lower
/// layer position.
#[inline(always)]
fn ranks_above(a: Scored, b: Scored) -> bool {
    a.1 > b.1 || (a.1 == b.1 && a.0 < b.0)
}

/// The candidate a scan's top two make: `None` if the window was empty or
/// the best is below `tech`'s availability threshold.
fn candidate(tech: Technology, ids: &[CellId], top: Top2) -> Option<LayerCandidate> {
    let (best, rsrp_dbm) = top[0]?;
    if rsrp_dbm < min_rsrp_dbm(tech) {
        return None;
    }
    Some(LayerCandidate {
        cell: ids[best],
        rsrp_dbm,
        second_rsrp_dbm: top[1].map(|(_, r)| r),
        second_cell: top[1].map(|(pos, _)| ids[pos]),
    })
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

/// Wideband SINR (dB) on precomputed powers: serving `rsrp_dbm` over the
/// linear noise floor `noise_lin` — constant per (operator, technology,
/// direction), see [`crate::config::link_noise_lin`] — plus the dominant
/// interferer's linear power `interf_lin`, already discounted by its
/// activity factor (see [`interference_lin`]), with the fading residual
/// `fade_db` already drawn (see [`draw_fade_db`]).
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
    use proptest::prelude::*;

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

    /// One unprimed scan of `tech`'s audible window at `od_m`.
    fn scan(
        db: &CellDb,
        tech: Technology,
        od_m: f64,
        region: RegionKind,
        sh: &mut ShadowStore,
    ) -> Option<LayerCandidate> {
        let pl = PathLossModel::new(tech.band(), layer_clutter(tech, region, 1.0));
        sh.defer(
            tech,
            db.window_range(tech, od_m, tech.nominal_range_m() * 1.6),
            od_m,
        );
        evaluate_layer_span(db, tech, od_m, &pl, sh, &mut [None; 2])
    }

    /// SINR of a candidate over an effective noise floor, with the fading
    /// residual drawn from `rng`.
    fn sinr_of(
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

    #[test]
    fn nearest_cell_wins_without_shadowing_luck() {
        let db = db_with(vec![
            (1, Technology::Lte, 1_000.0, 100.0),
            (2, Technology::Lte, 6_000.0, 100.0),
        ]);
        let mut sh = ShadowStore::new(1);
        let c = scan(&db, Technology::Lte, 1_200.0, RegionKind::Suburban, &mut sh)
            .expect("cell in range");
        assert_eq!(c.cell, CellId(1));
        assert!(c.second_rsrp_dbm.is_some());
        assert!(c.rsrp_dbm > c.second_rsrp_dbm.unwrap());
    }

    #[test]
    fn empty_layer_gives_none() {
        let db = db_with(vec![(1, Technology::Lte, 1_000.0, 100.0)]);
        let mut sh = ShadowStore::new(1);
        assert!(scan(
            &db,
            Technology::Nr5gMmWave,
            1_000.0,
            RegionKind::UrbanCore,
            &mut sh
        )
        .is_none());
    }

    #[test]
    fn out_of_range_mmwave_unavailable() {
        let db = db_with(vec![(1, Technology::Nr5gMmWave, 0.0, 50.0)]);
        let mut sh = ShadowStore::new(1);
        // 2 km from a mmWave cell: far outside its ~280 m range.
        assert!(scan(
            &db,
            Technology::Nr5gMmWave,
            2_000.0,
            RegionKind::UrbanCore,
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
            if let Some(c) = scan(
                &db,
                Technology::Nr5gMmWave,
                od,
                RegionKind::UrbanCore,
                &mut sh,
            ) {
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
        let c =
            scan(&db, Technology::Lte, 2_000.0, RegionKind::Suburban, &mut sh).expect("in range");
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
        let s1 = sinr_of(&strong_interf, Technology::Lte, -110.0, &mut rng);
        let s2 = sinr_of(&weak_interf, Technology::Lte, -110.0, &mut rng);
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
        let s = sinr_of(&edge, Technology::Lte, -110.0, &mut rng);
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
        let mut twice = ShadowStore::new(8);
        let mut once = ShadowStore::new(8);
        for sh in [&mut twice, &mut once] {
            // Live fields partway along their streams, as on a drive.
            let earlier = od - 55.0;
            sh.defer(tech, db.window_range(tech, earlier, window), earlier);
            evaluate_layer_span(&db, tech, earlier, &pl, sh, &mut [None; 2]);
        }
        let (mut prime_twice, mut prime_once) = ([None; 2], [None; 2]);
        twice.defer(tech, range.clone(), od);
        let first = evaluate_layer_span(&db, tech, od, &pl, &mut twice, &mut prime_twice);
        // A rescan defers the same move again, as a region change at an
        // unchanged odometer does.
        twice.defer(tech, range.clone(), od);
        let second = evaluate_layer_span(&db, tech, od, &pl, &mut twice, &mut prime_twice);
        once.defer(tech, range.clone(), od);
        let single = evaluate_layer_span(&db, tech, od, &pl, &mut once, &mut prime_once);
        assert!(first.is_some());
        assert_eq!(cand_bits(first), cand_bits(second));
        assert_eq!(cand_bits(first), cand_bits(single));
        // Had the second scan drawn, `twice`'s streams would now be ahead
        // of `once`'s and the next advance would differ.
        let ids = db.layer(tech).ids();
        let ahead = od + 37.0;
        let advance = |sh: &mut ShadowStore| {
            sh.defer(tech, range.clone(), ahead);
            sh.catch_up(tech, ids).1.to_vec()
        };
        assert_eq!(advance(&mut twice), advance(&mut once));
    }

    #[test]
    fn shadow_at_deterministic_for_same_cell_identity() {
        // The field realization depends on (UE seed, cell id) and the query
        // distances — never on the layer position used to address it.
        let ids_of = |pos: usize| {
            let mut ids = vec![CellId(0); 12];
            ids[pos] = CellId(1234);
            ids
        };
        let (ids_a, ids_b) = (ids_of(3), ids_of(9));
        let mut a = ShadowStore::new(77);
        let mut b = ShadowStore::new(77);
        let mut d = 0.0;
        for _ in 0..200 {
            d += 5.0;
            a.defer(Technology::Nr5gMid, 3..4, d);
            b.defer(Technology::Nr5gMid, 9..10, d);
            let va = a.shadow_at(Technology::Nr5gMid, 3, &ids_a);
            let vb = b.shadow_at(Technology::Nr5gMid, 9, &ids_b);
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    /// The in-order scorer: one pass over `range` in position order with
    /// strict `>` comparisons, so a tie never displaces the incumbent. The
    /// primed scan must agree with it bit for bit, whatever its primes.
    fn in_order_scan(
        layer: &LayerCells,
        range: Range<usize>,
        od_m: f64,
        pl: &PathLossModel,
        shadow_db: &[f64],
    ) -> Top2 {
        let (ods, lat_sq, eirp) = (layer.od_m(), layer.lat_sq_m2(), layer.eirp_re_dbm());
        let lb = Log10Lb::get();
        let mut best: Option<Scored> = None;
        let mut second: Option<Scored> = None;
        for i in range.clone() {
            let shv = shadow_db[i - range.start];
            let along = od_m - ods[i];
            let d2 = along * along + lat_sq[i];
            if let Some((_, s)) = second {
                let ub = eirp[i] - pl.loss_lb_db(lb, d2) + shv;
                if ub <= s {
                    continue;
                }
            }
            let rsrp = eirp[i] - pl.loss_db(d2.sqrt()) + shv;
            match best {
                None => best = Some((i, rsrp)),
                Some((b_pos, b)) if rsrp > b => {
                    second = Some((b_pos, b));
                    best = Some((i, rsrp));
                }
                Some(_) => {
                    if second.is_none_or(|(_, s)| rsrp > s) {
                        second = Some((i, rsrp));
                    }
                }
            }
        }
        [best, second]
    }

    /// A candidate's fields as comparable bits.
    type CandBits = Option<(CellId, u64, Option<CellId>, Option<u64>)>;

    fn cand_bits(c: Option<LayerCandidate>) -> CandBits {
        c.map(|c| {
            (
                c.cell,
                c.rsrp_dbm.to_bits(),
                c.second_cell,
                c.second_rsrp_dbm.map(f64::to_bits),
            )
        })
    }

    fn top_bits(top: Top2) -> [Option<(usize, u64)>; 2] {
        top.map(|c| c.map(|(pos, r)| (pos, r.to_bits())))
    }

    /// A layer of `tech` cells on a 100 m odometer grid, each given as
    /// (grid step, lateral index, EIRP index). Few distinct values, so
    /// exact RSRP ties are common: equal EIRP, lateral offset and
    /// shadowing at mirrored grid steps give equal RSRP.
    fn grid_db(tech: Technology, cells: &[(u32, usize, usize)]) -> CellDb {
        CellDb::new(
            Operator::Verizon,
            cells
                .iter()
                .enumerate()
                .map(|(id, &(k, lat, eirp))| CellSite {
                    id: CellId(id as u32),
                    op: Operator::Verizon,
                    tech,
                    odometer_m: f64::from(k) * 100.0,
                    lateral_m: [40.0, 120.0, 300.0][lat],
                    eirp_re_dbm: [30.0, 32.0][eirp],
                })
                .collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]
        #[test]
        fn primed_scan_matches_in_order_scorer(
            tech_i in 0usize..5,
            cells in prop::collection::vec((0u32..24, 0usize..3, 0usize..2), 1..40),
            od_k in 0u32..24,
            lo in 0usize..40,
            width in 0usize..40,
            shadows in prop::collection::vec(
                prop_oneof![Just(-3.0), Just(0.0), Just(2.5), -15.0f64..15.0], 40..41),
            p0 in prop::option::of(0usize..48),
            p1 in prop::option::of(0usize..48),
            same in any::<bool>(),
        ) {
            // Random windows of a random layer, random shadowing (often
            // tied), and random primes: `None`, stale, outside the window,
            // or both equal. Pass 2 is fed the shadowing directly.
            let tech = Technology::ALL[tech_i];
            let db = grid_db(tech, &cells);
            let layer = db.layer(tech);
            let n = layer.len();
            let lo = lo % (n + 1);
            let range = lo..(lo + width).min(n);
            let od = f64::from(od_k) * 100.0;
            let pl = PathLossModel::new(tech.band(), layer_clutter(tech, RegionKind::Urban, 1.0));
            let shadow_db = &shadows[..range.len()];
            let prime = [p0, if same { p0 } else { p1 }];
            let got = score_span(layer, range.start, od, &pl, shadow_db, prime);
            let want = in_order_scan(layer, range, od, &pl, shadow_db);
            prop_assert_eq!(top_bits(got), top_bits(want), "prime {:?}", prime);
            prop_assert_eq!(
                cand_bits(candidate(tech, layer.ids(), got)),
                cand_bits(candidate(tech, layer.ids(), want))
            );
        }
    }

    #[test]
    fn exact_tie_keeps_the_lower_position_under_any_prime() {
        // Two cells at equal EIRP, lateral offset and distance (mirrored
        // about the UE) with equal shadowing tie exactly. The lower layer
        // position is best, in any visiting order.
        let tech = Technology::Lte;
        let db = grid_db(tech, &[(8, 1, 1), (12, 1, 1)]);
        let layer = db.layer(tech);
        let pl = PathLossModel::new(tech.band(), layer_clutter(tech, RegionKind::Suburban, 1.0));
        let od = 1_000.0;
        let shadow_db = [1.5, 1.5];
        let want = in_order_scan(layer, 0..2, od, &pl, &shadow_db);
        let (b, s) = (want[0].unwrap(), want[1].unwrap());
        assert_eq!((b.0, s.0), (0, 1));
        assert_eq!(b.1.to_bits(), s.1.to_bits(), "an exact tie");
        for prime in [
            [None, None],
            [Some(1), Some(0)],
            [Some(1), None],
            [Some(1), Some(1)],
            [Some(0), Some(1)],
            [Some(5), Some(1)],
        ] {
            let got = score_span(layer, 0, od, &pl, &shadow_db, prime);
            assert_eq!(top_bits(got), top_bits(want), "prime {prime:?}");
        }
    }

    #[test]
    fn primed_drive_matches_in_order_scan() {
        // A drive through dense layers, each scan primed by the one
        // before: every candidate matches the in-order scorer run on a
        // twin store advanced through the same windows, so the primes
        // change neither the draws nor the result. The primes must carry
        // the last best and runner-up.
        let mut sites = Vec::new();
        for (t, tech) in Technology::ALL.into_iter().enumerate() {
            let spacing = tech.nominal_range_m() * 0.35;
            for k in 0..((40_000.0 / spacing) as u32) {
                sites.push(CellSite {
                    id: CellId(t as u32 * 100_000 + k),
                    op: Operator::Verizon,
                    tech,
                    odometer_m: f64::from(k) * spacing + 17.0 * f64::from(k % 5),
                    lateral_m: 30.0 + f64::from((k * 37) % 400),
                    eirp_re_dbm: 28.0 + f64::from(k % 3),
                })
            }
        }
        let db = CellDb::new(Operator::Verizon, sites);
        let mut primed = ShadowStore::new(21);
        let mut twin = ShadowStore::new(21);
        let mut primes = [[None; 2]; 5];
        let mut found = 0;
        let mut od = 0.0;
        while od < 40_000.0 {
            od += 7.25;
            for (i, tech) in Technology::ALL.into_iter().enumerate() {
                let pl =
                    PathLossModel::new(tech.band(), layer_clutter(tech, RegionKind::Urban, 1.0));
                let range = db.window_range(tech, od, tech.nominal_range_m() * 1.6);
                primed.defer(tech, range.clone(), od);
                let got = evaluate_layer_span(&db, tech, od, &pl, &mut primed, &mut primes[i]);
                if range.is_empty() {
                    assert!(got.is_none());
                    continue;
                }
                let layer = db.layer(tech);
                twin.defer(tech, range.clone(), od);
                let (_, shadow_db) = twin.catch_up(tech, layer.ids());
                let want = in_order_scan(layer, range, od, &pl, shadow_db);
                assert_eq!(
                    primes[i],
                    want.map(|c| c.map(|(pos, _)| pos)),
                    "{tech:?} at {od}"
                );
                assert_eq!(
                    cand_bits(got),
                    cand_bits(candidate(tech, layer.ids(), want))
                );
                found += usize::from(got.is_some());
            }
        }
        assert!(found > 10_000, "the drive must find cells ({found})");
    }
}
