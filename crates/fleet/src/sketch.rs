//! Mergeable fixed-size summaries of subscriber-population load.
//!
//! ## Design rules
//!
//! * **Integer domain.** Every accumulator is a `u64`. Real-valued
//!   observations (utilization, fractional hour spans) are converted to
//!   fixed point exactly once, inside [`CellHourObs`] construction or
//!   [`FleetUnitSketch::observe`], by a pure function of the observation
//!   alone. Merging never touches floating point, so it is exactly
//!   associative and commutative.
//! * **Fixed shape.** A sketch's size depends only on the number of cells
//!   an operator deploys — never on the population — so memory stays
//!   bounded at 10^6 subscribers.
//! * **Render-time floats.** Means and quantiles are derived from the
//!   merged integers only when a report is rendered.
//!
//! Fixed-point conventions: `*_micro` fields carry millionths (1e-6),
//! `*_milli` fields thousandths (1e-3). Utilization is clamped to
//! [`UTIL_CLAMP`] before conversion so a pathological overload cannot
//! overflow the accumulators.

use serde::Serialize;

/// Number of fixed histogram bins over utilization `[0, 1]`.
pub const LOAD_BINS: usize = 32;
/// Number of technology slots (mirrors `Technology::ALL`).
pub const TECH_SLOTS: usize = 5;
/// Hours in the diurnal cycle.
pub const HOURS_PER_DAY: usize = 24;
/// Flattened per-(tech × hour-of-day) slot count. The vendored serde has
/// no fixed-size-array impls, so the table is a length-checked `Vec`.
pub const TECH_HOUR_SLOTS: usize = TECH_SLOTS * HOURS_PER_DAY;
/// Fixed-point scale for `*_micro` fields.
pub const MICRO: u64 = 1_000_000;
/// Utilization ceiling before fixed-point conversion.
pub const UTIL_CLAMP: f64 = 8.0;

/// Histogram bin index for a utilization value: 32 linear bins over
/// `[0, 1]`, with everything at or above 1 (overload) in the last bin.
/// A pure function of the value, so binning is order-independent.
pub fn load_bin(util: f64) -> usize {
    let u = util.clamp(0.0, 1.0);
    ((u * LOAD_BINS as f64) as usize).min(LOAD_BINS - 1)
}

/// Accumulator for one (technology × hour-of-day) slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TechHourAcc {
    /// Active subscriber-hours × 1e6.
    pub sub_hours_micro: u64,
    /// Σ over cell-hour observations of `min(util, UTIL_CLAMP)` × 1e3,
    /// weighted by the observed span.
    pub util_milli_hours: u64,
    /// Observed cell-hours × 1e6 (the weight behind `util_milli_hours`).
    pub cell_hours_micro: u64,
}

impl TechHourAcc {
    /// Fold another accumulator into this one (exact integer adds).
    pub fn merge(&mut self, other: &TechHourAcc) {
        self.sub_hours_micro += other.sub_hours_micro;
        self.util_milli_hours += other.util_milli_hours;
        self.cell_hours_micro += other.cell_hours_micro;
    }
}

/// Per-cell accumulator: who lives on the cell and how loaded it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CellAcc {
    /// Cell identifier (the RAN's `CellId` payload).
    pub cell: u32,
    /// Technology slot index (`Technology::ALL` order).
    pub tech: u8,
    /// Subscribers attached to the cell. The attachment process is a
    /// function of the world seed alone, so every unit that sees the cell
    /// reports the same count — merge takes the max, which is then also
    /// idempotent.
    pub subs: u64,
    /// Σ `min(util, UTIL_CLAMP)` × 1e3, span-weighted.
    pub util_milli_hours: u64,
    /// Observed hours × 1e6.
    pub hours_micro: u64,
}

/// One cell-hour observation, already converted to fixed point. The
/// conversion is a pure function of the inputs, so two units observing
/// disjoint hour spans of the same cell contribute exactly additive
/// integers.
#[derive(Debug, Clone, Copy)]
pub struct CellHourObs {
    /// Cell identifier.
    pub cell: u32,
    /// Technology slot index.
    pub tech: u8,
    /// Hour of day, `0..24`.
    pub hour_of_day: u8,
    /// Subscribers attached to the cell.
    pub subs: u64,
    /// Active subscriber-hours contributed by this observation, × 1e6.
    pub active_micro: u64,
    /// Utilization over the observed span (pre-clamp).
    pub util: f64,
    /// Observed span as a fraction of an hour, × 1e6.
    pub span_micro: u64,
}

impl CellHourObs {
    /// Span-weighted utilization in milli units — the single
    /// float→integer conversion for this observation.
    fn util_milli_span(&self) -> u64 {
        let u = self.util.clamp(0.0, UTIL_CLAMP);
        (u * 1e3 * (self.span_micro as f64 / MICRO as f64)).round() as u64
    }
}

/// Fixed-bin histogram of utilization, weighted by observed span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LoadHistogram {
    /// `LOAD_BINS` counters of span-micro weight.
    pub bins: Vec<u64>,
}

impl Default for LoadHistogram {
    fn default() -> Self {
        LoadHistogram {
            bins: vec![0; LOAD_BINS],
        }
    }
}

impl LoadHistogram {
    /// Empty histogram (merge identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `weight` to the bin holding `util`.
    pub fn observe(&mut self, util: f64, weight: u64) {
        self.bins[load_bin(util)] += weight;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LoadHistogram) {
        for (b, o) in self.bins.iter_mut().zip(&other.bins) {
            *b += o;
        }
    }

    /// Total weight across all bins.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Quantile `q` in `[0, 1]` as a bin-midpoint utilization
    /// (render-time only; 0 for an empty histogram).
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, b) in self.bins.iter().enumerate() {
            cum += b;
            if cum >= target {
                return (i as f64 + 0.5) / LOAD_BINS as f64;
            }
        }
        1.0
    }
}

/// The streaming summary one campaign work unit produces for one
/// operator's population, mergeable with any other unit's sketch of the
/// same operator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FleetUnitSketch {
    /// Subscribers attached to this operator (max-merged; every unit
    /// derives the same value from the world seed).
    pub population: u64,
    /// Total active subscriber-hours × 1e6 across the observed span.
    pub sub_hours_micro: u64,
    /// Flattened `tech * 24 + hour_of_day` accumulators,
    /// `TECH_HOUR_SLOTS` long.
    pub tech_hour: Vec<TechHourAcc>,
    /// Per-cell accumulators, sorted by ascending cell id.
    pub cells: Vec<CellAcc>,
    /// Span-weighted utilization histogram over cell-hours.
    pub hist: LoadHistogram,
}

impl Default for FleetUnitSketch {
    fn default() -> Self {
        Self::empty()
    }
}

impl FleetUnitSketch {
    /// The merge identity: observes nothing.
    pub fn empty() -> Self {
        FleetUnitSketch {
            population: 0,
            sub_hours_micro: 0,
            tech_hour: vec![TechHourAcc::default(); TECH_HOUR_SLOTS],
            cells: Vec::new(),
            hist: LoadHistogram::new(),
        }
    }

    /// Has this sketch observed anything at all?
    pub fn is_empty(&self) -> bool {
        self.population == 0 && self.sub_hours_micro == 0 && self.cells.is_empty()
    }

    /// Fold one cell-hour observation into the sketch. `cells` stays
    /// sorted: observations for one unit arrive cell-major in id order,
    /// so the common case is an append or an update of the last entry.
    pub fn observe(&mut self, obs: &CellHourObs) {
        let util_milli_span = obs.util_milli_span();
        self.sub_hours_micro += obs.active_micro;
        let slot = obs.tech as usize * HOURS_PER_DAY + obs.hour_of_day as usize;
        let th = &mut self.tech_hour[slot];
        th.sub_hours_micro += obs.active_micro;
        th.util_milli_hours += util_milli_span;
        th.cell_hours_micro += obs.span_micro;
        self.hist.observe(obs.util, obs.span_micro);

        let pos = match self.cells.binary_search_by_key(&obs.cell, |c| c.cell) {
            Ok(i) => i,
            Err(i) => {
                self.cells.insert(
                    i,
                    CellAcc {
                        cell: obs.cell,
                        tech: obs.tech,
                        subs: obs.subs,
                        util_milli_hours: 0,
                        hours_micro: 0,
                    },
                );
                i
            }
        };
        let c = &mut self.cells[pos];
        c.subs = c.subs.max(obs.subs);
        c.util_milli_hours += util_milli_span;
        c.hours_micro += obs.span_micro;
    }

    /// Fold another sketch of the same operator into this one. All
    /// accumulators are exact `u64` adds (`population`/`subs` are
    /// max-merged, see [`CellAcc::subs`]), so the operation is
    /// associative and commutative, with [`FleetUnitSketch::empty`] as
    /// identity.
    pub fn merge(&mut self, other: &FleetUnitSketch) {
        self.population = self.population.max(other.population);
        self.sub_hours_micro += other.sub_hours_micro;
        for (a, b) in self.tech_hour.iter_mut().zip(&other.tech_hour) {
            a.merge(b);
        }
        self.hist.merge(&other.hist);

        // Merge-union of two id-sorted cell lists.
        let mut merged = Vec::with_capacity(self.cells.len().max(other.cells.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.cells.len() && j < other.cells.len() {
            let (a, b) = (self.cells[i], other.cells[j]);
            if a.cell < b.cell {
                merged.push(a);
                i += 1;
            } else if b.cell < a.cell {
                merged.push(b);
                j += 1;
            } else {
                merged.push(CellAcc {
                    cell: a.cell,
                    tech: a.tech,
                    subs: a.subs.max(b.subs),
                    util_milli_hours: a.util_milli_hours + b.util_milli_hours,
                    hours_micro: a.hours_micro + b.hours_micro,
                });
                i += 1;
                j += 1;
            }
        }
        merged.extend_from_slice(&self.cells[i..]);
        merged.extend_from_slice(&other.cells[j..]);
        self.cells = merged;
    }

    /// Total active subscriber-hours (render-time).
    pub fn sub_hours(&self) -> f64 {
        self.sub_hours_micro as f64 / MICRO as f64
    }

    /// Active subscriber-hours attributed to one technology slot
    /// (render-time).
    pub fn tech_sub_hours(&self, tech: usize) -> f64 {
        self.tech_hour[tech * HOURS_PER_DAY..(tech + 1) * HOURS_PER_DAY]
            .iter()
            .map(|a| a.sub_hours_micro)
            .sum::<u64>() as f64
            / MICRO as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(cell: u32, hour: u8, util: f64) -> CellHourObs {
        CellHourObs {
            cell,
            tech: (cell % TECH_SLOTS as u32) as u8,
            hour_of_day: hour,
            subs: 40 + cell as u64,
            active_micro: 37_000_000 + cell as u64,
            util,
            span_micro: MICRO,
        }
    }

    #[test]
    fn empty_is_merge_identity() {
        let mut s = FleetUnitSketch::empty();
        s.observe(&obs(3, 7, 0.4));
        s.observe(&obs(9, 8, 1.7));
        let mut left = FleetUnitSketch::empty();
        left.merge(&s);
        let mut right = s.clone();
        right.merge(&FleetUnitSketch::empty());
        assert_eq!(left, s);
        assert_eq!(right, s);
    }

    #[test]
    fn observe_then_merge_equals_observe_all() {
        let all: Vec<CellHourObs> = (0..40)
            .map(|i| obs(i % 7, (i % 24) as u8, i as f64 / 13.0))
            .collect();
        let mut whole = FleetUnitSketch::empty();
        for o in &all {
            whole.observe(o);
        }
        for split in [1usize, 13, 39] {
            let (left, right) = all.split_at(split);
            let mut a = FleetUnitSketch::empty();
            for o in left {
                a.observe(o);
            }
            let mut b = FleetUnitSketch::empty();
            for o in right {
                b.observe(o);
            }
            a.merge(&b);
            assert_eq!(a, whole, "split at {split}");
        }
    }

    #[test]
    fn histogram_quantiles_bracket_the_mass() {
        let mut h = LoadHistogram::new();
        for i in 0..100 {
            h.observe(i as f64 / 100.0, 1);
        }
        assert!(h.quantile(0.0) < h.quantile(0.5));
        assert!(h.quantile(0.5) < h.quantile(0.99));
        assert!((h.quantile(0.5) - 0.5).abs() < 0.05);
        assert_eq!(LoadHistogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn overload_lands_in_last_bin() {
        assert_eq!(load_bin(7.5), LOAD_BINS - 1);
        assert_eq!(load_bin(1.0), LOAD_BINS - 1);
        assert_eq!(load_bin(0.0), 0);
        assert_eq!(load_bin(-0.5), 0);
    }
}
