//! Fleet-scale subscriber populations driving live cell load.
//!
//! The paper's six probes measure an opaque network; [`crate::load`]
//! models everyone else on the cell as a hidden stochastic process. The
//! fleet closes that loop: a seeded synthetic population attaches to the
//! operator's cells, and its aggregate demand *calibrates* the load share
//! each probe sees — the stochastic fluctuation shape stays, but its
//! level is set by actual demand, so load and upgrade policy react to how
//! many subscribers a cell carries at that hour.
//!
//! Everything here is a pure function of `(operator, world, fleet seed)`:
//! subscribers attach per cell with one seeded log-normal draw keyed by
//! the cell id (order-free, so any work-unit split sees identical
//! populations), demand follows a 24-hour diurnal profile, and per-unit
//! observation folds into the integer-domain sketches of `wheels-fleet`.
//! No per-subscriber state is ever stored: memory is O(cells).

use wheels_fleet::{CellHourObs, FleetUnitSketch, MICRO};
use wheels_radio::band::Technology;
use wheels_radio::shadowing::gauss;

use crate::cell::{CellDb, CellId};
use crate::config::link_config_ref;
use crate::operator::Operator;
use crate::selection::sub_rng;
use crate::Direction;

/// Default 24-hour activity profile (fraction of subscribers active per
/// local hour), shaped like the classic cellular busy-hour curve: a
/// night trough, a morning ramp, and an evening peak.
pub const DEFAULT_DIURNAL: [f64; 24] = [
    0.25, 0.18, 0.14, 0.12, 0.12, 0.15, 0.25, 0.45, 0.65, 0.75, 0.80, 0.85, 0.90, 0.88, 0.85,
    0.82, 0.85, 0.95, 1.00, 0.95, 0.85, 0.70, 0.50, 0.35,
];

/// Busy-hour demand of an active video-dominated subscriber, Mbps.
pub const DEMAND_VIDEO_MBPS: f64 = 3.0;
/// Busy-hour demand of an active web-browsing subscriber, Mbps.
pub const DEMAND_WEB_MBPS: f64 = 0.5;
/// Busy-hour demand of a background-only subscriber, Mbps.
pub const DEMAND_BACKGROUND_MBPS: f64 = 0.05;

/// Blend the per-class demand rates by a (video, web, background) mix.
pub fn demand_per_sub_mbps(video: f64, web: f64, background: f64) -> f64 {
    video * DEMAND_VIDEO_MBPS + web * DEMAND_WEB_MBPS + background * DEMAND_BACKGROUND_MBPS
}

/// Nominal SINR (dB) at which a cell's reference capacity is evaluated
/// when converting aggregate demand into utilization.
const REF_SINR_DB: f64 = 18.0;

/// How strongly a fully-utilized technology layer discourages the
/// upgrade policy from promoting onto it.
const PROMO_CONGESTION_WEIGHT: f64 = 0.6;

/// Relative attachment preference per technology layer (device mix:
/// everyone has LTE, few devices camp on mmWave), [`Technology::ALL`]
/// order.
const ATTACH_TECH_WEIGHT: [f64; 5] = [1.0, 0.9, 0.5, 0.35, 0.03];

/// Parameters of one operator's subscriber fleet.
#[derive(Debug, Clone)]
pub struct FleetParams {
    /// Subscribers attached to this operator.
    pub population: u64,
    /// Mean busy-hour demand per active subscriber, Mbps (see
    /// [`demand_per_sub_mbps`]).
    pub demand_per_sub_mbps: f64,
    /// 24-hour activity profile (fraction active per hour of day).
    pub diurnal: [f64; 24],
    /// Log-normal σ of the per-cell attachment weights (spatial
    /// clustering strength).
    pub attach_sigma: f64,
}

impl Default for FleetParams {
    fn default() -> Self {
        FleetParams {
            population: 0,
            demand_per_sub_mbps: demand_per_sub_mbps(0.55, 0.35, 0.10),
            diurnal: DEFAULT_DIURNAL,
            attach_sigma: 0.6,
        }
    }
}

/// One cell's share of the fleet (indexed by cell id offset).
#[derive(Debug, Clone, Copy)]
struct CellSlot {
    tech: u8,
    subs: u64,
    /// Utilization at diurnal peak 1.0: `subs × demand / ref-capacity`.
    base_util: f64,
}

/// The compiled, immutable fleet state for one operator: per-cell
/// subscriber counts and base utilization, plus per-technology
/// aggregates. Shared read-only (`Arc`) by every probe of the operator.
#[derive(Debug)]
pub struct FleetLoad {
    op: Operator,
    population: u64,
    min_id: u32,
    slots: Vec<Option<CellSlot>>,
    diurnal: [f64; 24],
    /// Mean base utilization per technology layer, [`Technology::ALL`]
    /// order (drives the promotion-policy congestion response).
    tech_base_util: [f64; 5],
}

fn hour_of_day(t_s: f64) -> usize {
    ((t_s / 3600.0).floor() as i64).rem_euclid(24) as usize
}

impl FleetLoad {
    /// Compile the fleet for one operator's deployment. `seed` must come
    /// from the campaign's `DOMAIN_FLEET` stream keyed by the operator,
    /// so per-cell draws are independent of any work-unit split.
    pub fn build(op: Operator, db: &CellDb, params: &FleetParams, seed: u64) -> FleetLoad {
        // One seeded log-normal weight per cell, keyed by cell id alone:
        // attachment is a function of the world, not of evaluation order.
        let mut entries: Vec<(u32, u8, f64)> = Vec::new();
        for (ti, tech) in Technology::ALL.iter().enumerate() {
            let layer = db.layer(*tech);
            for &id in layer.ids() {
                let mut rng = sub_rng(seed, id.0 as u64);
                let w = ATTACH_TECH_WEIGHT[ti] * (params.attach_sigma * gauss(&mut rng)).exp();
                entries.push((id.0, ti as u8, w));
            }
        }
        entries.sort_unstable_by_key(|e| e.0);

        let total_w: f64 = entries.iter().map(|e| e.2).sum();
        let mut subs = vec![0u64; entries.len()];
        if params.population > 0 && total_w > 0.0 {
            // Largest-remainder apportionment: Σ subs == population
            // exactly, deterministically (remainder ties break on the
            // lower cell id).
            let mut assigned = 0u64;
            let mut fracs: Vec<(f64, usize)> = Vec::with_capacity(entries.len());
            for (i, e) in entries.iter().enumerate() {
                let quota = params.population as f64 * e.2 / total_w;
                let base = quota.floor() as u64;
                subs[i] = base;
                assigned += base;
                fracs.push((quota - base as f64, i));
            }
            fracs.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let leftover = params.population.saturating_sub(assigned);
            for k in 0..leftover as usize {
                subs[fracs[k % fracs.len()].1] += 1;
            }
        }

        let mut ref_cap = [0.0f64; 5];
        for (ti, tech) in Technology::ALL.iter().enumerate() {
            let c = link_config_ref(op, *tech, Direction::Downlink);
            ref_cap[ti] = c
                .capacity_model(c.max_cc())
                .capacity(REF_SINR_DB, 0.0, 1.0)
                .mbps
                .max(1.0);
        }

        let min_id = entries.first().map(|e| e.0).unwrap_or(0);
        let max_id = entries.last().map(|e| e.0).unwrap_or(0);
        let mut slots: Vec<Option<CellSlot>> =
            vec![None; (max_id - min_id) as usize + usize::from(!entries.is_empty())];
        let mut tech_util_sum = [0.0f64; 5];
        let mut tech_cells = [0u64; 5];
        for (i, &(id, tech, _)) in entries.iter().enumerate() {
            let base_util =
                subs[i] as f64 * params.demand_per_sub_mbps / ref_cap[tech as usize];
            slots[(id - min_id) as usize] = Some(CellSlot { tech, subs: subs[i], base_util });
            tech_util_sum[tech as usize] += base_util;
            tech_cells[tech as usize] += 1;
        }
        let mut tech_base_util = [0.0f64; 5];
        for ti in 0..5 {
            if tech_cells[ti] > 0 {
                tech_base_util[ti] = tech_util_sum[ti] / tech_cells[ti] as f64;
            }
        }

        FleetLoad { op, population: params.population, min_id, slots, diurnal: params.diurnal, tech_base_util }
    }

    /// The operator this fleet is attached to.
    pub fn op(&self) -> Operator {
        self.op
    }

    /// Subscribers attached to this operator.
    pub fn population(&self) -> u64 {
        self.population
    }

    fn slot(&self, cell: CellId) -> Option<&CellSlot> {
        let i = cell.0.checked_sub(self.min_id)? as usize;
        self.slots.get(i)?.as_ref()
    }

    /// Demand-driven utilization of a cell at time `t_s` (0 for unknown
    /// cells, e.g. during outage sentinels).
    pub fn util_at(&self, cell: CellId, t_s: f64) -> f64 {
        match self.slot(cell) {
            Some(s) => s.base_util * self.diurnal[hour_of_day(t_s)],
            None => 0.0,
        }
    }

    /// Multiplier that calibrates a probe's hidden load share to this
    /// cell's live demand: the stochastic process keeps its fluctuation
    /// shape, but its median is moved from `median_share` to the
    /// demand-implied target `1 / (1 + util)` (empty cell → the probe
    /// gets nearly everything; overloaded cell → starved).
    pub fn share_factor(&self, cell: CellId, t_s: f64, median_share: f64) -> f64 {
        let target = 1.0 / (1.0 + self.util_at(cell, t_s));
        target / median_share.max(1e-6)
    }

    /// Multiplier on the upgrade policy's promotion probability: a
    /// congested technology layer attracts fewer promotions.
    pub fn promo_factor(&self, tech: Technology, t_s: f64) -> f64 {
        let ti = crate::cell::tech_index(tech);
        let c = (self.tech_base_util[ti] * self.diurnal[hour_of_day(t_s)]).min(1.0);
        1.0 - PROMO_CONGESTION_WEIGHT * c
    }

    /// Fold the whole fleet's activity over `[start_s, end_s)` into a
    /// sketch, one observation per (cell × absolute hour slice). A work
    /// unit's span is fixed by its key, so the unit produces the same
    /// sketch bytes at any `--jobs`, and merging per-unit sketches in
    /// canonical unit order is byte-reproducible. (Disjoint spans that
    /// meet at an hour boundary additionally merge to exactly the
    /// single-fold union; mid-hour cuts may differ by one fixed-point
    /// ulp from a single fold, which production never performs.)
    pub fn fold_span(&self, start_s: f64, end_s: f64, sketch: &mut FleetUnitSketch) {
        if end_s <= start_s {
            return;
        }
        sketch.population = sketch.population.max(self.population);
        let h0 = (start_s / 3600.0).floor() as i64;
        let h1 = (end_s / 3600.0).ceil() as i64;
        for (off, slot) in self.slots.iter().enumerate() {
            let Some(s) = slot else { continue };
            for h in h0..h1 {
                let hs = h as f64 * 3600.0;
                let overlap = (end_s.min(hs + 3600.0) - start_s.max(hs)).max(0.0);
                if overlap <= 0.0 {
                    continue;
                }
                let hod = h.rem_euclid(24) as usize;
                let d = self.diurnal[hod];
                let span_hours = overlap / 3600.0;
                sketch.observe(&CellHourObs {
                    cell: self.min_id + off as u32,
                    tech: s.tech,
                    hour_of_day: hod as u8,
                    subs: s.subs,
                    active_micro: (s.subs as f64 * d * span_hours * MICRO as f64).round()
                        as u64,
                    util: s.base_util * d,
                    span_micro: (span_hours * MICRO as f64).round() as u64,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellSite;

    fn db(op: Operator, n_per_layer: u32) -> CellDb {
        let mut sites = Vec::new();
        let mut id = 100u32;
        for tech in Technology::ALL {
            for k in 0..n_per_layer {
                sites.push(CellSite {
                    id: CellId(id),
                    op,
                    tech,
                    odometer_m: k as f64 * 2_000.0,
                    lateral_m: 150.0,
                    eirp_re_dbm: 60.0,
                });
                id += 1;
            }
        }
        CellDb::new(op, sites)
    }

    fn params(population: u64) -> FleetParams {
        FleetParams { population, ..FleetParams::default() }
    }

    #[test]
    fn population_is_conserved_exactly() {
        let db = db(Operator::Verizon, 7);
        for pop in [1u64, 3, 1_000, 12_345] {
            let f = FleetLoad::build(Operator::Verizon, &db, &params(pop), 99);
            let total: u64 = f
                .slots
                .iter()
                .filter_map(|s| s.as_ref().map(|c| c.subs))
                .sum();
            assert_eq!(total, pop);
        }
    }

    #[test]
    fn attachment_is_independent_of_seed_only_through_cells() {
        let db = db(Operator::Att, 5);
        let a = FleetLoad::build(Operator::Att, &db, &params(5_000), 7);
        let b = FleetLoad::build(Operator::Att, &db, &params(5_000), 7);
        for (x, y) in a.slots.iter().zip(&b.slots) {
            assert_eq!(x.map(|c| c.subs), y.map(|c| c.subs));
        }
        let c = FleetLoad::build(Operator::Att, &db, &params(5_000), 8);
        let same: usize = a
            .slots
            .iter()
            .zip(&c.slots)
            .filter(|(x, y)| x.map(|s| s.subs) == y.map(|s| s.subs))
            .count();
        assert!(same < a.slots.len(), "different fleet seed changed nothing");
    }

    #[test]
    fn share_factor_moves_with_demand() {
        let db = db(Operator::TMobile, 4);
        let heavy = FleetLoad::build(Operator::TMobile, &db, &params(4_000_000), 3);
        let light = FleetLoad::build(Operator::TMobile, &db, &params(10), 3);
        let cell = CellId(100);
        let t = 18.5 * 3600.0; // evening peak
        let median = 0.34;
        assert!(heavy.share_factor(cell, t, median) < light.share_factor(cell, t, median));
        // An essentially empty network hands the probe ~full capacity.
        assert!(light.share_factor(cell, t, median) > 2.0);
    }

    #[test]
    fn diurnal_shapes_utilization() {
        let db = db(Operator::Verizon, 4);
        let f = FleetLoad::build(Operator::Verizon, &db, &params(2_000_000), 3);
        let cell = CellId(101);
        let night = f.util_at(cell, 3.0 * 3600.0);
        let peak = f.util_at(cell, 18.0 * 3600.0);
        assert!(peak > night, "peak {peak} night {night}");
    }

    #[test]
    fn promo_factor_penalizes_congested_layers() {
        let db = db(Operator::Att, 4);
        let heavy = FleetLoad::build(Operator::Att, &db, &params(20_000_000), 3);
        let p = heavy.promo_factor(Technology::Lte, 18.0 * 3600.0);
        assert!(p < 1.0);
        assert!(p >= 1.0 - PROMO_CONGESTION_WEIGHT - 1e-12);
        let empty = FleetLoad::build(Operator::Att, &db, &params(0), 3);
        assert_eq!(empty.promo_factor(Technology::Lte, 18.0 * 3600.0), 1.0);
    }

    #[test]
    fn fold_span_partitions_exactly() {
        let db = db(Operator::Verizon, 6);
        let f = FleetLoad::build(Operator::Verizon, &db, &params(10_000), 5);
        // The cut is hour-aligned, as campaign drive days are whole units.
        let (a, b, c) = (10_000.0, 13.0 * 3600.0, 90_000.0);
        let mut whole = FleetUnitSketch::empty();
        f.fold_span(a, c, &mut whole);
        let mut left = FleetUnitSketch::empty();
        f.fold_span(a, b, &mut left);
        let mut right = FleetUnitSketch::empty();
        f.fold_span(b, c, &mut right);
        left.merge(&right);
        assert_eq!(left, whole);
        assert!(whole.sub_hours() > 0.0);
    }
}
