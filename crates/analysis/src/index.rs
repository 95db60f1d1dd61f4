//! One-pass columnar analysis index over a [`ConsolidatedDb`].
//!
//! Every figure and table used to re-scan `db.records` and re-sort raw
//! samples on each `compute()` call. The [`AnalysisIndex`] does that work
//! once: it partitions the test records by
//! `(operator × test kind × static/driving)`, lays the driving KPI
//! samples out as columns per `(operator × direction)`, pre-sorts the
//! canonical metric columns (throughput, RTT, RSRP, SINR, speed) into
//! memoized [`Ecdf`]s, and pre-aggregates the distance-weighted
//! technology shares and concurrent-test pairings. Figures consume the
//! index through typed accessors and never touch (let alone sort) the raw
//! sample streams again.
//!
//! Heterogeneous slice queries (filter by technology, server kind,
//! timezone, or speed bin — the long tail of Fig. 4/5/7/8 cells) go
//! through `AnalysisIndex::query`, a lazily filled memo table. The
//! memoized value is a pure function of the query key (the backing
//! columns are immutable and [`Ecdf::new`] sorts, so fill order is
//! irrelevant), which keeps report generation byte-identical no matter
//! how many worker threads race on the cache.

use std::collections::BTreeMap;
// lint:allow(D2): keyed lookups and a memo cache only; the one iterated
// hash map (`by_time` below) has its keys sorted before use, and the
// iterated pairing map is the ordered `pairs` BTreeMap
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use wheels_geo::timezone::Timezone;
use wheels_geo::SpeedBin;
use wheels_netsim::server::ServerKind;
use wheels_radio::band::Technology;
use wheels_ran::operator::Operator;
use wheels_ran::Direction;
use wheels_xcal::database::{ConsolidatedDb, TestKind, TestRecord};

use crate::ecdf::Ecdf;
use crate::figures::rtt_with_context;
use crate::stats::pearson;

/// Distance-weighted technology shares, one entry per technology (the
/// same shape [`crate::figures::tech_shares`] produces).
pub type Shares = [(Technology, f64); 5];

/// Pre-aggregated coverage shares for one operator (Fig. 1 / Fig. 2).
#[derive(Debug, Clone)]
pub struct OpShares {
    /// Passive handover-logger shares (zeros when no passive log).
    pub passive: Shares,
    /// Active shares over all driving tests (any kind).
    pub active_all: Shares,
    /// Shares over driving throughput tests, per direction.
    pub by_direction: [Shares; 2],
    /// Shares over all driving tests, per timezone ([`Timezone::ALL`] order).
    pub by_timezone: [Shares; 4],
    /// Shares over all driving tests, per speed bin ([`SpeedBin::ALL`] order).
    pub by_speed: [Shares; 3],
}

/// The six Table 2 KPI columns, in the paper's column order.
pub const KPI_COLUMNS: usize = 6;

/// Index of the vehicle-speed column in `AnalysisIndex::kpi_correlations`
/// (Fig. 7 reports the same Pearson r as Table 2's speed column).
pub const KPI_SPEED: usize = 4;

/// Canonical pre-sorted metric slices the index memoizes eagerly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slice {
    /// 500 ms throughput samples of one `(op, direction, static?)` cell.
    Tput {
        /// Operator.
        op: Operator,
        /// Traffic direction.
        dir: Direction,
        /// Static city baselines (true) or driving tests (false).
        is_static: bool,
    },
    /// Raw ping RTTs of one `(op, static?)` cell.
    Rtt {
        /// Operator.
        op: Operator,
        /// Static city baselines (true) or driving tests (false).
        is_static: bool,
    },
    /// RSRP of driving throughput samples for `(op, direction)`.
    Rsrp {
        /// Operator.
        op: Operator,
        /// Traffic direction.
        dir: Direction,
    },
    /// SINR of driving throughput samples for `(op, direction)`.
    Sinr {
        /// Operator.
        op: Operator,
        /// Traffic direction.
        dir: Direction,
    },
    /// Vehicle speed (mph) of driving throughput samples.
    Speed {
        /// Operator.
        op: Operator,
        /// Traffic direction.
        dir: Direction,
    },
}

/// Which metric a memoized `AnalysisIndex::query` draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryMetric {
    /// Driving downlink throughput samples, Mbps.
    TputDl,
    /// Driving uplink throughput samples, Mbps.
    TputUl,
    /// Driving RTT samples (paired with their KPI window), ms.
    Rtt,
}

/// A memoized ECDF query: one metric, optionally filtered. `None` filters
/// match everything, so `EcdfQuery::metric(op, m)` is the whole column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EcdfQuery {
    /// Operator.
    pub op: Operator,
    /// Metric column.
    pub metric: QueryMetric,
    /// Keep only samples served by this technology.
    pub tech: Option<Technology>,
    /// Keep only samples of tests against this server kind.
    pub server: Option<ServerKind>,
    /// Keep only samples taken in this timezone.
    pub tz: Option<Timezone>,
    /// Keep only samples in this vehicle-speed bin.
    pub bin: Option<SpeedBin>,
}

impl EcdfQuery {
    /// An unfiltered query over one metric column.
    pub(crate) fn metric(op: Operator, metric: QueryMetric) -> Self {
        EcdfQuery {
            op,
            metric,
            tech: None,
            server: None,
            tz: None,
            bin: None,
        }
    }

    /// Restrict to one technology.
    pub fn tech(mut self, tech: Technology) -> Self {
        self.tech = Some(tech);
        self
    }

    /// Restrict to one server kind.
    pub fn server(mut self, server: ServerKind) -> Self {
        self.server = Some(server);
        self
    }

    /// Restrict to one timezone.
    pub fn tz(mut self, tz: Timezone) -> Self {
        self.tz = Some(tz);
        self
    }

    /// Restrict to one speed bin.
    pub fn bin(mut self, bin: SpeedBin) -> Self {
        self.bin = Some(bin);
        self
    }
}

/// Column-major view of the driving throughput-test KPI samples of one
/// `(operator, direction)`: row i is the i-th sample in database order.
#[derive(Debug, Default)]
struct KpiColumns {
    /// Throughput, Mbps; NaN encodes "no bulk transfer in this window".
    tput: Vec<f64>,
    tech: Vec<Technology>,
    server: Vec<ServerKind>,
    tz: Vec<Timezone>,
    speed_mph: Vec<f64>,
    rsrp_dbm: Vec<f32>,
    sinr_db: Vec<f32>,
    mcs: Vec<u8>,
    ca: Vec<u8>,
    bler: Vec<f32>,
    hos: Vec<u8>,
}

/// Column-major view of the driving RTT samples of one operator, each
/// paired with its covering 500 ms KPI window.
#[derive(Debug, Default)]
struct RttColumns {
    rtt_ms: Vec<f64>,
    tech: Vec<Technology>,
    server: Vec<ServerKind>,
    speed_mph: Vec<f64>,
}

struct ShareAcc {
    passive: Shares,
    active_all: [f64; 5],
    by_direction: [[f64; 5]; 2],
    by_timezone: [[f64; 5]; 4],
    by_speed: [[f64; 5]; 3],
}

fn zero_shares() -> Shares {
    let mut s = [(Technology::Lte, 0.0); 5];
    for (i, t) in Technology::ALL.iter().enumerate() {
        s[i].0 = *t;
    }
    s
}

fn normalize(meters: &[f64; 5]) -> Shares {
    let total: f64 = meters.iter().sum::<f64>().max(1e-9);
    let mut out = zero_shares();
    for i in 0..5 {
        out[i].1 = meters[i] / total;
    }
    out
}

fn tech_idx(t: Technology) -> usize {
    Technology::ALL
        .iter()
        .position(|&x| x == t)
        .expect("known technology")
}

fn dir_idx(dir: Direction) -> usize {
    match dir {
        Direction::Downlink => 0,
        Direction::Uplink => 1,
    }
}

fn tz_idx(tz: Timezone) -> usize {
    Timezone::ALL
        .iter()
        .position(|&z| z == tz)
        .expect("known timezone")
}

fn bin_idx(bin: SpeedBin) -> usize {
    SpeedBin::ALL
        .iter()
        .position(|&b| b == bin)
        .expect("known speed bin")
}

/// The direction of a throughput test kind, if it is one.
fn tput_dir(kind: TestKind) -> Option<Direction> {
    kind.direction()
}

/// The columnar analysis index. Build once with
/// [`AnalysisIndex::build`], then hand `&AnalysisIndex` to every figure.
pub struct AnalysisIndex<'a> {
    db: &'a ConsolidatedDb,
    /// The operator panel, defining per-operator column/row order.
    ops: Vec<Operator>,
    /// Record indices per (op, kind, is_static), in database order.
    parts: HashMap<(Operator, TestKind, bool), Vec<u32>>,
    /// Driving throughput-test KPI columns, indexed `op_index * 2 + dir_idx`.
    tput: Vec<KpiColumns>,
    /// Driving RTT columns, indexed by `op_index`.
    rtt: Vec<RttColumns>,
    /// Coverage-share aggregations, [`AnalysisIndex::ops`] order.
    shares: Vec<OpShares>,
    /// Eagerly memoized canonical ECDFs.
    canon: HashMap<Slice, Arc<Ecdf>>,
    /// Table 2 Pearson r per (op, dir): [RSRP, MCS, CA, BLER, speed, HO].
    corr: HashMap<(Operator, Direction), [f64; KPI_COLUMNS]>,
    /// Concurrent throughput tests keyed by (op, rounded start), per
    /// direction (Fig. 6). Last record wins on key collisions, matching
    /// the previous per-figure construction. Ordered so Fig. 6 can
    /// iterate it directly without leaking hash order.
    pairs: [BTreeMap<(Operator, i64), u32>; 2],
    /// Concurrent all-operator test groups per direction (MPTCP what-if):
    /// record indices in [`AnalysisIndex::ops`] order, sorted by start
    /// time.
    triples: [Vec<Vec<u32>>; 2],
    /// Lazily memoized heterogeneous slice queries.
    cache: Mutex<HashMap<EcdfQuery, Arc<Ecdf>>>,
}

impl<'a> AnalysisIndex<'a> {
    /// Build the index for the paper's three-operator panel.
    pub fn build(db: &'a ConsolidatedDb) -> AnalysisIndex<'a> {
        Self::build_for(db, Operator::ALL.to_vec())
    }

    /// Build the index for an explicit operator panel, with one pass over
    /// the records (plus one sort per canonical metric column). Figures
    /// iterate [`AnalysisIndex::ops`], so the panel defines every
    /// per-operator row they render.
    pub fn build_for(db: &'a ConsolidatedDb, ops: Vec<Operator>) -> AnalysisIndex<'a> {
        let op_idx = |op: Operator| -> usize {
            ops.iter().position(|&o| o == op).expect("operator in panel")
        };
        let mut parts: HashMap<(Operator, TestKind, bool), Vec<u32>> = HashMap::new();
        let mut tput: Vec<KpiColumns> = (0..ops.len() * 2)
            .map(|_| KpiColumns::default())
            .collect();
        let mut rtt: Vec<RttColumns> = (0..ops.len())
            .map(|_| RttColumns::default())
            .collect();
        let mut acc: Vec<ShareAcc> = ops
            .iter()
            .map(|&op| ShareAcc {
                passive: db
                    .passive_for(op)
                    .map(|p| p.tech_shares())
                    .unwrap_or([(Technology::Lte, 0.0); 5]),
                active_all: [0.0; 5],
                by_direction: [[0.0; 5]; 2],
                by_timezone: [[0.0; 5]; 4],
                by_speed: [[0.0; 5]; 3],
            })
            .collect();
        let mut pairs: [BTreeMap<(Operator, i64), u32>; 2] = [BTreeMap::new(), BTreeMap::new()];
        let mut by_time: [HashMap<i64, Vec<u32>>; 2] = [HashMap::new(), HashMap::new()];

        for (ri, r) in db.records.iter().enumerate() {
            let ri = ri as u32;
            parts
                .entry((r.op, r.kind, r.is_static))
                .or_default()
                .push(ri);
            if r.is_static {
                continue;
            }
            let oi = op_idx(r.op);
            let dir = tput_dir(r.kind);
            // Coverage shares: every driving sample weighs speed × 0.5 s
            // meters, accumulated in database order (same summation order
            // as the per-figure scans this index replaces).
            for k in &r.kpi {
                let ti = tech_idx(k.tech);
                let m = k.speed_mps as f64 * 0.5;
                let a = &mut acc[oi];
                a.active_all[ti] += m;
                a.by_timezone[tz_idx(k.timezone)][ti] += m;
                a.by_speed[bin_idx(SpeedBin::from_mph(k.speed_mph()))][ti] += m;
                if let Some(d) = dir {
                    a.by_direction[dir_idx(d)][ti] += m;
                }
            }
            if let Some(d) = dir {
                let cols = &mut tput[oi * 2 + dir_idx(d)];
                for k in &r.kpi {
                    cols.tput.push(k.tput_mbps.map_or(f64::NAN, f64::from));
                    cols.tech.push(k.tech);
                    cols.server.push(r.server_kind);
                    cols.tz.push(k.timezone);
                    cols.speed_mph.push(k.speed_mph());
                    cols.rsrp_dbm.push(k.rsrp_dbm);
                    cols.sinr_db.push(k.sinr_db);
                    cols.mcs.push(k.mcs);
                    cols.ca.push(k.ca);
                    cols.bler.push(k.bler);
                    cols.hos.push(k.handovers_in_window);
                }
                let di = dir_idx(d);
                let t = r.start_s.round() as i64;
                pairs[di].insert((r.op, t), ri);
                by_time[di].entry(t).or_default().push(ri);
            }
            if r.kind == TestKind::Rtt {
                let cols = &mut rtt[oi];
                for (v, k) in rtt_with_context(r) {
                    cols.rtt_ms.push(v);
                    cols.tech.push(k.tech);
                    cols.server.push(r.server_kind);
                    cols.speed_mph.push(k.speed_mph());
                }
            }
        }

        let shares = acc
            .into_iter()
            .map(|a| OpShares {
                passive: a.passive,
                active_all: normalize(&a.active_all),
                by_direction: [normalize(&a.by_direction[0]), normalize(&a.by_direction[1])],
                by_timezone: [
                    normalize(&a.by_timezone[0]),
                    normalize(&a.by_timezone[1]),
                    normalize(&a.by_timezone[2]),
                    normalize(&a.by_timezone[3]),
                ],
                by_speed: [
                    normalize(&a.by_speed[0]),
                    normalize(&a.by_speed[1]),
                    normalize(&a.by_speed[2]),
                ],
            })
            .collect();

        // Concurrent groups: exactly one test per panel operator at a
        // rounded start time, ordered by start time for determinism.
        let mut triples: [Vec<Vec<u32>>; 2] = [Vec::new(), Vec::new()];
        for di in 0..2 {
            let mut times: Vec<i64> = by_time[di].keys().copied().collect();
            times.sort_unstable();
            for t in times {
                let group = &by_time[di][&t];
                if group.len() != ops.len() {
                    continue;
                }
                let mut sorted = group.clone();
                sorted.sort_by_key(|&ri| op_idx(db.records[ri as usize].op));
                triples[di].push(sorted);
            }
        }

        let mut ix = AnalysisIndex {
            db,
            ops,
            parts,
            tput,
            rtt,
            shares,
            canon: HashMap::new(),
            corr: HashMap::new(),
            pairs,
            triples,
            cache: Mutex::new(HashMap::new()),
        };
        ix.build_canonical();
        ix.build_correlations();
        ix
    }

    /// Position of one operator in the panel.
    fn op_index(&self, op: Operator) -> usize {
        self.ops
            .iter()
            .position(|&o| o == op)
            .expect("operator in panel")
    }

    /// Pre-sort the canonical metric columns into memoized ECDFs.
    fn build_canonical(&mut self) {
        let mut canon = HashMap::new();
        let sorted_ecdf = |mut v: Vec<f64>| {
            v.retain(|x| x.is_finite());
            v.sort_by(f64::total_cmp);
            Arc::new(Ecdf::from_sorted(v))
        };
        for oi in 0..self.ops.len() {
            let op = self.ops[oi];
            for dir in Direction::BOTH {
                let cols = &self.tput[oi * 2 + dir_idx(dir)];
                canon.insert(
                    Slice::Tput {
                        op,
                        dir,
                        is_static: false,
                    },
                    sorted_ecdf(cols.tput.clone()),
                );
                canon.insert(
                    Slice::Rsrp { op, dir },
                    sorted_ecdf(cols.rsrp_dbm.iter().map(|&v| v as f64).collect()),
                );
                canon.insert(
                    Slice::Sinr { op, dir },
                    sorted_ecdf(cols.sinr_db.iter().map(|&v| v as f64).collect()),
                );
                canon.insert(
                    Slice::Speed { op, dir },
                    sorted_ecdf(cols.speed_mph.clone()),
                );
                let kind = match dir {
                    Direction::Downlink => TestKind::ThroughputDl,
                    Direction::Uplink => TestKind::ThroughputUl,
                };
                canon.insert(
                    Slice::Tput {
                        op,
                        dir,
                        is_static: true,
                    },
                    sorted_ecdf(
                        self.records(op, kind, true)
                            .flat_map(|r| r.tput_samples())
                            .collect(),
                    ),
                );
            }
            for is_static in [false, true] {
                let samples: Vec<f64> = if is_static {
                    self.records(op, TestKind::Rtt, true)
                        .flat_map(|r| r.rtt_ms.iter().map(|&v| v as f64))
                        .collect()
                } else {
                    // Driving RTTs come straight from the records too: the
                    // columnar RTT table drops samples without a covering
                    // KPI window, Fig. 3 keeps them.
                    self.records(op, TestKind::Rtt, false)
                        .flat_map(|r| r.rtt_ms.iter().map(|&v| v as f64))
                        .collect()
                };
                canon.insert(Slice::Rtt { op, is_static }, sorted_ecdf(samples));
            }
        }
        self.canon = canon;
    }

    /// Table 2's Pearson correlations, computed once from the columns.
    fn build_correlations(&mut self) {
        let mut corr = HashMap::new();
        for oi in 0..self.ops.len() {
            let op = self.ops[oi];
            for dir in Direction::BOTH {
                let cols = &self.tput[oi * 2 + dir_idx(dir)];
                let keep: Vec<usize> = (0..cols.tput.len())
                    .filter(|&i| cols.tput[i].is_finite())
                    .collect();
                let tput: Vec<f64> = keep.iter().map(|&i| cols.tput[i]).collect();
                let mut rs = [0.0; KPI_COLUMNS];
                let columns: [Vec<f64>; KPI_COLUMNS] = [
                    keep.iter().map(|&i| cols.rsrp_dbm[i] as f64).collect(),
                    keep.iter().map(|&i| cols.mcs[i] as f64).collect(),
                    keep.iter().map(|&i| cols.ca[i] as f64).collect(),
                    keep.iter().map(|&i| cols.bler[i] as f64).collect(),
                    keep.iter().map(|&i| cols.speed_mph[i]).collect(),
                    keep.iter().map(|&i| cols.hos[i] as f64).collect(),
                ];
                for (j, x) in columns.iter().enumerate() {
                    rs[j] = pearson(x, &tput);
                }
                corr.insert((op, dir), rs);
            }
        }
        self.corr = corr;
    }

    /// The underlying database (coverage maps need odometer-resolution
    /// samples the columns don't carry).
    pub fn db(&self) -> &'a ConsolidatedDb {
        self.db
    }

    /// The operator panel this index was built for; figures iterate this
    /// instead of hard-wiring [`Operator::ALL`].
    pub fn ops(&self) -> &[Operator] {
        &self.ops
    }

    /// Records of one `(op, kind, static?)` partition, in database order.
    pub fn records(
        &self,
        op: Operator,
        kind: TestKind,
        is_static: bool,
    ) -> impl Iterator<Item = &'a TestRecord> + '_ {
        self.parts
            .get(&(op, kind, is_static))
            .into_iter()
            .flatten()
            .map(move |&ri| &self.db.records[ri as usize])
    }

    /// One record by its database index (for pairing-map lookups).
    pub fn record(&self, ri: u32) -> &'a TestRecord {
        &self.db.records[ri as usize]
    }

    /// Canonical throughput ECDF of one `(op, direction, static?)` cell.
    pub(crate) fn tput_ecdf(&self, op: Operator, dir: Direction, is_static: bool) -> Arc<Ecdf> {
        Arc::clone(&self.canon[&Slice::Tput { op, dir, is_static }])
    }

    /// Canonical RTT ECDF of one `(op, static?)` cell.
    pub(crate) fn rtt_ecdf(&self, op: Operator, is_static: bool) -> Arc<Ecdf> {
        Arc::clone(&self.canon[&Slice::Rtt { op, is_static }])
    }

    /// Pre-aggregated coverage shares for one operator.
    pub fn shares(&self, op: Operator) -> &OpShares {
        &self.shares[self.op_index(op)]
    }

    /// Table 2 row: Pearson r of throughput vs [RSRP, MCS, CA, BLER,
    /// speed, handovers] for one `(op, direction)`.
    pub(crate) fn kpi_correlations(&self, op: Operator, dir: Direction) -> [f64; KPI_COLUMNS] {
        self.corr[&(op, dir)]
    }

    /// Concurrent driving throughput tests keyed by `(op, rounded start
    /// second)` for one direction (Fig. 6 pairing). Iteration order is
    /// the key order, so consumers may fold over it deterministically.
    pub(crate) fn concurrent_map(&self, dir: Direction) -> &BTreeMap<(Operator, i64), u32> {
        &self.pairs[dir_idx(dir)]
    }

    /// Concurrent all-operator test groups for one direction, record
    /// indices in [`AnalysisIndex::ops`] order.
    pub(crate) fn concurrent_triples(&self, dir: Direction) -> &[Vec<u32>] {
        &self.triples[dir_idx(dir)]
    }

    /// Memoized ECDF over one filtered metric column. The first call for
    /// a key scans the column once and caches; later calls are a map hit.
    pub(crate) fn query(&self, q: EcdfQuery) -> Arc<Ecdf> {
        if let Some(hit) = self.cache.lock().expect("query cache poisoned").get(&q) {
            return Arc::clone(hit);
        }
        // Compute outside the lock: the result is a pure function of the
        // key, so a racing fill computes the same value.
        let e = Arc::new(self.scan(q));
        let mut cache = self.cache.lock().expect("query cache poisoned");
        Arc::clone(cache.entry(q).or_insert(e))
    }

    fn scan(&self, q: EcdfQuery) -> Ecdf {
        match q.metric {
            QueryMetric::TputDl | QueryMetric::TputUl => {
                let dir = if q.metric == QueryMetric::TputDl {
                    Direction::Downlink
                } else {
                    Direction::Uplink
                };
                let cols = &self.tput[self.op_index(q.op) * 2 + dir_idx(dir)];
                Ecdf::new((0..cols.tput.len()).filter_map(|i| {
                    let v = cols.tput[i];
                    if !v.is_finite()
                        || q.tech.is_some_and(|t| cols.tech[i] != t)
                        || q.server.is_some_and(|s| cols.server[i] != s)
                        || q.tz.is_some_and(|z| cols.tz[i] != z)
                        || q.bin
                            .is_some_and(|b| SpeedBin::from_mph(cols.speed_mph[i]) != b)
                    {
                        return None;
                    }
                    Some(v)
                }))
            }
            QueryMetric::Rtt => {
                let cols = &self.rtt[self.op_index(q.op)];
                Ecdf::new((0..cols.rtt_ms.len()).filter_map(|i| {
                    if q.tech.is_some_and(|t| cols.tech[i] != t)
                        || q.server.is_some_and(|s| cols.server[i] != s)
                        || q.bin
                            .is_some_and(|b| SpeedBin::from_mph(cols.speed_mph[i]) != b)
                    {
                        return None;
                    }
                    Some(cols.rtt_ms[i])
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_support::{network_db, network_ix};

    #[test]
    fn canonical_tput_matches_raw_scan() {
        let db = network_db();
        let ix = network_ix();
        for &op in &Operator::ALL {
            for (dir, kind) in [
                (Direction::Downlink, TestKind::ThroughputDl),
                (Direction::Uplink, TestKind::ThroughputUl),
            ] {
                for is_static in [false, true] {
                    let want = Ecdf::new(
                        db.records
                            .iter()
                            .filter(|r| r.op == op && r.kind == kind && r.is_static == is_static)
                            .flat_map(|r| r.tput_samples()),
                    );
                    let got = ix.tput_ecdf(op, dir, is_static);
                    assert_eq!(want.samples(), got.samples(), "{op} {dir:?} {is_static}");
                }
            }
        }
    }

    #[test]
    fn canonical_rtt_matches_raw_scan() {
        let db = network_db();
        let ix = network_ix();
        for &op in &Operator::ALL {
            for is_static in [false, true] {
                let want = Ecdf::new(
                    db.records
                        .iter()
                        .filter(|r| {
                            r.op == op && r.kind == TestKind::Rtt && r.is_static == is_static
                        })
                        .flat_map(|r| r.rtt_ms.iter().map(|&v| v as f64)),
                );
                let got = ix.rtt_ecdf(op, is_static);
                assert_eq!(want.samples(), got.samples(), "{op} {is_static}");
            }
        }
    }

    #[test]
    fn query_filters_match_raw_scan() {
        let db = network_db();
        let ix = network_ix();
        let op = Operator::TMobile;
        let tech = Technology::Nr5gMid;
        let want = Ecdf::new(
            db.records
                .iter()
                .filter(|r| r.op == op && !r.is_static && r.kind == TestKind::ThroughputDl)
                .flat_map(|r| r.kpi.iter())
                .filter(|k| k.tech == tech)
                .filter_map(|k| k.tput_mbps.map(f64::from)),
        );
        let got = ix.query(EcdfQuery::metric(op, QueryMetric::TputDl).tech(tech));
        assert_eq!(want.samples(), got.samples());
    }

    #[test]
    fn query_is_memoized() {
        let ix = AnalysisIndex::build(network_db());
        let q = EcdfQuery::metric(Operator::Verizon, QueryMetric::Rtt).bin(SpeedBin::High);
        let a = ix.query(q);
        let b = ix.query(q);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
    }

    #[test]
    fn shares_match_per_figure_scan() {
        let db = network_db();
        let ix = network_ix();
        for &op in &Operator::ALL {
            let want = crate::figures::tech_shares(
                db.records
                    .iter()
                    .filter(|r| r.op == op && !r.is_static)
                    .flat_map(|r| r.kpi.iter()),
            );
            assert_eq!(want, ix.shares(op).active_all, "{op}");
        }
    }

    #[test]
    fn partitions_preserve_database_order() {
        let db = network_db();
        let ix = network_ix();
        let want: Vec<u32> = db
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.op == Operator::Att && r.kind == TestKind::ThroughputUl && !r.is_static
            })
            .map(|(i, _)| i as u32)
            .collect();
        let got: Vec<u32> = ix
            .records(Operator::Att, TestKind::ThroughputUl, false)
            .map(|r| {
                db.records
                    .iter()
                    .position(|x| std::ptr::eq(x, r))
                    .expect("record from db") as u32
            })
            .collect();
        assert_eq!(want, got);
    }

    #[test]
    fn triples_are_complete_and_op_ordered() {
        let ix = network_ix();
        for dir in Direction::BOTH {
            for t in ix.concurrent_triples(dir) {
                let ops: Vec<Operator> = t.iter().map(|&ri| ix.record(ri).op).collect();
                assert_eq!(ops, ix.ops().to_vec());
            }
            assert!(!ix.concurrent_triples(dir).is_empty());
        }
    }
}
