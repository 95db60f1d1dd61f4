//! Cell sites and the per-operator cell database.
//!
//! Cells are indexed by their closest-approach odometer position along the
//! route, one sorted layer per technology, so the simulator can query
//! "which cells can I hear at odometer X" with a binary search. Table 1 of
//! the paper counts 3,020 / 4,038 / 3,150 unique cells connected for
//! Verizon / T-Mobile / AT&T — our deployment generator produces databases
//! of comparable density.

use wheels_radio::band::Technology;

use crate::operator::Operator;

/// Globally unique cell identifier (unique across operators and layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub struct CellId(pub u32);

/// One cell site (one sector of one gNB/eNB on one layer).
#[derive(Debug, Clone, Copy)]
pub struct CellSite {
    /// Unique id.
    pub id: CellId,
    /// Owning operator.
    pub op: Operator,
    /// Radio technology of this layer.
    pub tech: Technology,
    /// Odometer position of the site's closest approach to the road, m.
    pub odometer_m: f64,
    /// Lateral offset from the road, m (towers are rarely on the shoulder).
    pub lateral_m: f64,
    /// Per-resource-element EIRP, dBm (channel EIRP normalized per RE, the
    /// quantity RSRP budgets use).
    pub eirp_re_dbm: f64,
}

impl CellSite {
    /// 3-D-ish distance from a UE at odometer `od_m`, meters.
    pub fn distance_m(&self, od_m: f64) -> f64 {
        let along = od_m - self.odometer_m;
        (along * along + self.lateral_m * self.lateral_m).sqrt()
    }
}

/// One technology layer's cells in struct-of-arrays form, sorted by
/// odometer.
///
/// The per-tick candidate evaluation streams over a window of cells
/// computing `eirp - loss(distance) + shadow` for each; splitting the hot
/// fields into parallel arrays keeps that loop's working set dense (the
/// distance/loss arithmetic touches 24 bytes per cell instead of a whole
/// [`CellSite`]) and lets the caller address per-cell side state (shadowing
/// fields) by layer position instead of by id lookup.
#[derive(Debug, Clone, Default)]
pub struct LayerCells {
    sites: Vec<CellSite>,
    ids: Vec<CellId>,
    od_m: Vec<f64>,
    /// Squared lateral offset, m² (precomputed factor of the distance).
    lat_sq_m2: Vec<f64>,
    eirp_re_dbm: Vec<f64>,
}

impl LayerCells {
    fn push(&mut self, s: CellSite) {
        self.sites.push(s);
        self.ids.push(s.id);
        self.od_m.push(s.odometer_m);
        self.lat_sq_m2.push(s.lateral_m * s.lateral_m);
        self.eirp_re_dbm.push(s.eirp_re_dbm);
    }

    /// Number of cells on this layer.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when the layer has no cells.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The full sites, odometer order.
    pub fn sites(&self) -> &[CellSite] {
        &self.sites
    }

    /// Cell ids by layer position.
    pub fn ids(&self) -> &[CellId] {
        &self.ids
    }

    /// Closest-approach odometers by layer position, meters.
    pub fn od_m(&self) -> &[f64] {
        &self.od_m
    }

    /// Squared lateral offsets by layer position, m².
    pub fn lat_sq_m2(&self) -> &[f64] {
        &self.lat_sq_m2
    }

    /// Per-RE EIRPs by layer position, dBm.
    pub fn eirp_re_dbm(&self) -> &[f64] {
        &self.eirp_re_dbm
    }
}

/// All cells of one operator, organized per technology layer and sorted by
/// odometer.
#[derive(Debug, Clone)]
pub struct CellDb {
    op: Operator,
    /// One layer per technology (index = position in `Technology::ALL`).
    layers: [LayerCells; 5],
}

impl CellDb {
    /// Build a database from an unsorted site list.
    ///
    /// # Panics
    /// Panics if any site belongs to a different operator.
    pub fn new(op: Operator, mut sites: Vec<CellSite>) -> Self {
        assert!(
            sites.iter().all(|s| s.op == op),
            "site list contains foreign operator"
        );
        sites.sort_by(|a, b| a.odometer_m.total_cmp(&b.odometer_m));
        let mut layers: [LayerCells; 5] = Default::default();
        for s in sites {
            let li = tech_index(s.tech);
            layers[li].push(s);
        }
        CellDb { op, layers }
    }

    /// The operator this database belongs to.
    pub fn op(&self) -> Operator {
        self.op
    }

    /// Total number of cells across all layers.
    pub fn len(&self) -> usize {
        self.layers.iter().map(LayerCells::len).sum()
    }

    /// True if no cells at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of cells on one technology layer.
    pub fn layer_len(&self, tech: Technology) -> usize {
        self.layers[tech_index(tech)].len()
    }

    /// One technology layer's cells in columnar form.
    pub fn layer(&self, tech: Technology) -> &LayerCells {
        &self.layers[tech_index(tech)]
    }

    /// Positions (into [`CellDb::layer`]) of `tech` cells whose closest
    /// approach lies within `window_m` of `od_m`.
    pub fn window_range(
        &self,
        tech: Technology,
        od_m: f64,
        window_m: f64,
    ) -> std::ops::Range<usize> {
        let od = &self.layers[tech_index(tech)].od_m;
        let lo = od.partition_point(|&o| o < od_m - window_m);
        let hi = od.partition_point(|&o| o <= od_m + window_m);
        lo..hi
    }

    /// Cells of `tech` whose closest approach lies within `window_m` of
    /// `od_m`, in odometer order.
    pub fn cells_near(&self, tech: Technology, od_m: f64, window_m: f64) -> &[CellSite] {
        &self.layers[tech_index(tech)].sites[self.window_range(tech, od_m, window_m)]
    }

    /// The strongest candidate of `tech` near `od_m` by plain distance
    /// (before shadowing): used for availability pre-checks.
    pub fn nearest_cell(&self, tech: Technology, od_m: f64) -> Option<&CellSite> {
        let window = tech.nominal_range_m() * 2.0;
        self.cells_near(tech, od_m, window)
            .iter()
            .min_by(|a, b| a.distance_m(od_m).total_cmp(&b.distance_m(od_m)))
    }
}

/// Incrementally tracked query window over one layer's odometer-sorted
/// positions.
///
/// [`CellDb::window_range`] answers each query with two binary searches;
/// a UE stepping monotonically along the route asks nearly the same
/// question every tick, so a cursor that only ever slides its `lo`/`hi`
/// bounds forward answers in O(cells entered/left) instead. The bounds it
/// produces are exactly `window_range`'s (a test pins this): `lo` is the
/// first position with `od >= od_m - window_m`, `hi` the first with
/// `od > od_m + window_m`, and sliding forward from any correct earlier
/// answer lands on the same positions as the binary searches because both
/// bounds are non-decreasing in `od_m`. A query below the previous
/// odometer falls back to the exact binary searches.
#[derive(Debug, Clone, Copy)]
pub struct WindowCursor {
    lo: usize,
    hi: usize,
    last_od_m: f64,
}

impl Default for WindowCursor {
    fn default() -> Self {
        WindowCursor {
            lo: 0,
            hi: 0,
            last_od_m: f64::NEG_INFINITY,
        }
    }
}

impl WindowCursor {
    /// Positions in `ods` (sorted ascending) within `window_m` of `od_m`.
    /// Identical to [`CellDb::window_range`] on the same slice.
    ///
    /// The sliding fast path requires `od_m - window_m` and
    /// `od_m + window_m` to be non-decreasing across calls; with a fixed
    /// `window_m` (one cursor per layer, each layer's window is a
    /// constant) the odometer check below covers both.
    pub fn range(&mut self, ods: &[f64], od_m: f64, window_m: f64) -> std::ops::Range<usize> {
        let lo_bound = od_m - window_m;
        let hi_bound = od_m + window_m;
        if od_m < self.last_od_m {
            self.lo = ods.partition_point(|&o| o < lo_bound);
            self.hi = ods.partition_point(|&o| o <= hi_bound);
        } else {
            while self.lo < ods.len() && ods[self.lo] < lo_bound {
                self.lo += 1;
            }
            while self.hi < ods.len() && ods[self.hi] <= hi_bound {
                self.hi += 1;
            }
        }
        self.last_od_m = od_m;
        self.lo..self.hi
    }
}

/// Index of a technology in [`Technology::ALL`].
///
/// `Technology::ALL` lists the variants in declaration order, so the
/// discriminant IS the index — no scan (this sits on the per-tick hot
/// path via [`CellDb::cells_near`]). A test pins the correspondence.
pub fn tech_index(tech: Technology) -> usize {
    tech as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(id: u32, tech: Technology, od: f64) -> CellSite {
        CellSite {
            id: CellId(id),
            op: Operator::Verizon,
            tech,
            odometer_m: od,
            lateral_m: 100.0,
            eirp_re_dbm: 30.0,
        }
    }

    #[test]
    fn tech_index_matches_all_order() {
        for (i, &t) in Technology::ALL.iter().enumerate() {
            assert_eq!(tech_index(t), i, "{t:?}");
        }
    }

    #[test]
    fn cells_near_returns_window() {
        let db = CellDb::new(
            Operator::Verizon,
            vec![
                site(1, Technology::Lte, 1_000.0),
                site(2, Technology::Lte, 5_000.0),
                site(3, Technology::Lte, 9_000.0),
                site(4, Technology::Nr5gMid, 5_100.0),
            ],
        );
        let near = db.cells_near(Technology::Lte, 5_000.0, 2_000.0);
        assert_eq!(near.len(), 1);
        assert_eq!(near[0].id, CellId(2));
        let wide = db.cells_near(Technology::Lte, 5_000.0, 5_000.0);
        assert_eq!(wide.len(), 3);
        // Different layer is not mixed in.
        assert_eq!(
            db.cells_near(Technology::Nr5gMid, 5_000.0, 2_000.0).len(),
            1
        );
    }

    #[test]
    fn nearest_cell_picks_closest() {
        let db = CellDb::new(
            Operator::Verizon,
            vec![
                site(1, Technology::Lte, 1_000.0),
                site(2, Technology::Lte, 4_000.0),
            ],
        );
        assert_eq!(
            db.nearest_cell(Technology::Lte, 3_500.0).unwrap().id,
            CellId(2)
        );
    }

    #[test]
    fn nearest_cell_none_when_layer_empty() {
        let db = CellDb::new(Operator::Verizon, vec![site(1, Technology::Lte, 0.0)]);
        assert!(db.nearest_cell(Technology::Nr5gMmWave, 0.0).is_none());
    }

    #[test]
    fn distance_includes_lateral() {
        let s = site(1, Technology::Lte, 1_000.0);
        assert!((s.distance_m(1_000.0) - 100.0).abs() < 1e-9);
        let d = s.distance_m(1_300.0);
        assert!((d - (300.0f64 * 300.0 + 100.0 * 100.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn window_cursor_matches_binary_search() {
        let sites: Vec<CellSite> = (0..400)
            .map(|i| site(i, Technology::Lte, (i as f64 * 37.0) % 30_000.0))
            .collect();
        let db = CellDb::new(Operator::Verizon, sites);
        let ods = db.layer(Technology::Lte).od_m();
        let mut cur = WindowCursor::default();
        // Monotone sweep, then a regression, then resume: all must match.
        let mut queries: Vec<f64> = (0..600).map(|i| i as f64 * 55.0).collect();
        queries.push(4_000.0); // backwards jump -> exact recompute path
        queries.extend((0..100).map(|i| 4_000.0 + i as f64 * 91.0));
        for od in queries {
            assert_eq!(
                cur.range(ods, od, 2_500.0),
                db.window_range(Technology::Lte, od, 2_500.0),
                "at od {od}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "foreign operator")]
    fn foreign_operator_rejected() {
        let mut s = site(1, Technology::Lte, 0.0);
        s.op = Operator::Att;
        let _ = CellDb::new(Operator::Verizon, vec![s]);
    }
}
