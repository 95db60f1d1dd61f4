//! The consolidated per-test database.
//!
//! §B: the post-processing pipeline "loads all the segregated XCAL files
//! ... and creates a consolidated database, which includes both the XCAL
//! and the app layer data". Every figure and table in the paper is a query
//! over this database; `wheels-analysis` consumes it.

use serde::Serialize;

use wheels_geo::timezone::Timezone;
use wheels_ran::handover::HandoverEvent;
use wheels_ran::operator::Operator;
use wheels_ran::Direction;
use wheels_netsim::server::ServerKind;

use crate::handover_logger::PassiveLogger;
use crate::kpi::KpiSample;

/// The kind of test a record holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TestKind {
    /// nuttcp downlink bulk transfer (30 s).
    ThroughputDl,
    /// nuttcp uplink bulk transfer (30 s).
    ThroughputUl,
    /// ICMP ping test (20 s).
    Rtt,
    /// Edge-assisted AR offload run (20 s).
    AppAr,
    /// Edge-assisted CAV offload run (20 s).
    AppCav,
    /// 360° video streaming session (180 s).
    AppVideo,
    /// Cloud gaming session (60 s).
    AppGaming,
}

impl TestKind {
    /// All kinds, round-robin order.
    pub const ALL: [TestKind; 7] = [
        TestKind::ThroughputDl,
        TestKind::ThroughputUl,
        TestKind::Rtt,
        TestKind::AppAr,
        TestKind::AppCav,
        TestKind::AppVideo,
        TestKind::AppGaming,
    ];

    /// Short label (used in XCAL file names).
    pub fn label(self) -> &'static str {
        match self {
            TestKind::ThroughputDl => "DL",
            TestKind::ThroughputUl => "UL",
            TestKind::Rtt => "RTT",
            TestKind::AppAr => "AR",
            TestKind::AppCav => "CAV",
            TestKind::AppVideo => "VIDEO",
            TestKind::AppGaming => "GAME",
        }
    }

    /// Measured traffic direction for throughput tests.
    pub fn direction(self) -> Option<Direction> {
        match self {
            TestKind::ThroughputDl => Some(Direction::Downlink),
            TestKind::ThroughputUl => Some(Direction::Uplink),
            _ => None,
        }
    }
}

/// Per-run application QoE metrics (fields used depend on the app).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct AppMetrics {
    /// Frame compression enabled (AR/CAV).
    pub compressed: Option<bool>,
    /// Mean end-to-end offload latency, ms (AR/CAV).
    pub e2e_ms_mean: Option<f32>,
    /// Median end-to-end offload latency, ms (AR/CAV).
    pub e2e_ms_median: Option<f32>,
    /// Offloaded frames per second (AR/CAV).
    pub offload_fps: Option<f32>,
    /// Object-detection accuracy, mAP % (AR).
    pub map_accuracy: Option<f32>,
    /// Average per-run QoE (360° video, Yin et al. formula).
    pub qoe: Option<f32>,
    /// Average video bitrate, Mbps (360° video).
    pub avg_bitrate_mbps: Option<f32>,
    /// Rebuffering time as a fraction of playback (360° video).
    pub rebuffer_frac: Option<f32>,
    /// Sending bitrate, Mbps (cloud gaming).
    pub send_bitrate_mbps: Option<f32>,
    /// Network latency, ms (cloud gaming).
    pub net_latency_ms: Option<f32>,
    /// Frame drop rate, fraction (cloud gaming).
    pub frame_drop_frac: Option<f32>,
}

/// One test's consolidated record.
#[derive(Debug, Clone, Serialize)]
pub struct TestRecord {
    /// Unique id.
    pub id: u32,
    /// Operator under test.
    pub op: Operator,
    /// Test kind.
    pub kind: TestKind,
    /// Start, plan seconds.
    pub start_s: f64,
    /// Duration, seconds.
    pub duration_s: f64,
    /// Server kind used.
    pub server_kind: ServerKind,
    /// Server site name.
    pub server_name: String,
    /// True for the static city baselines (Fig. 3a).
    pub is_static: bool,
    /// Odometer at start, meters.
    pub start_odometer_m: f64,
    /// Odometer at end, meters.
    pub end_odometer_m: f64,
    /// Timezone at the test location.
    pub timezone: Timezone,
    /// Fraction of test time connected to high-speed 5G (mid/mmWave).
    pub frac_hs5g: f32,
    /// 500 ms KPI samples.
    pub kpi: Vec<KpiSample>,
    /// Ping RTTs, ms (RTT tests only).
    pub rtt_ms: Vec<f32>,
    /// Handovers during the test.
    pub handovers: Vec<HandoverEvent>,
    /// App QoE metrics (app tests only).
    pub app: Option<AppMetrics>,
}

impl TestRecord {
    /// Distance driven during the test, miles.
    pub fn distance_miles(&self) -> f64 {
        (self.end_odometer_m - self.start_odometer_m).max(0.0) / wheels_geo::METERS_PER_MILE
    }

    /// Handovers per mile (None when the vehicle moved less than a tenth
    /// of a mile — normalizing a 30 s stop-light test by meters of creep
    /// produces absurd rates, so such tests are excluded as the paper's
    /// per-mile statistics implicitly do).
    pub fn handovers_per_mile(&self) -> Option<f64> {
        let miles = self.distance_miles();
        if miles < 0.1 {
            None
        } else {
            Some(self.handovers.len() as f64 / miles)
        }
    }

    /// Truncate the record's logged streams at plan time `t_s`, as if the
    /// XCAL probe died at that instant: KPI samples and handovers stamped
    /// after `t_s` are gone, and the (unstamped) ping series keeps only
    /// the fraction of samples collected before the crash. The scheduled
    /// `start_s`/`duration_s` are untouched — the test *ran*, its log is
    /// just short. Returns the number of KPI samples lost.
    pub fn truncate_streams_at(&mut self, t_s: f64) -> usize {
        let before = self.kpi.len();
        self.kpi.retain(|k| k.time_s <= t_s);
        self.handovers.retain(|h| h.time_s <= t_s);
        if !self.rtt_ms.is_empty() && self.duration_s > 0.0 {
            let frac = ((t_s - self.start_s) / self.duration_s).clamp(0.0, 1.0);
            let keep = (self.rtt_ms.len() as f64 * frac).floor() as usize;
            self.rtt_ms.truncate(keep);
        }
        before - self.kpi.len()
    }

    /// True if the test's `[start_s, start_s + duration_s]` span overlaps
    /// the closed window `[w0_s, w1_s]` (used to decide which tests a
    /// modem-detach window kills).
    pub fn overlaps_window(&self, w0_s: f64, w1_s: f64) -> bool {
        self.start_s <= w1_s && self.start_s + self.duration_s >= w0_s
    }

    /// Throughput samples (Mbps) of this record, if any.
    pub fn tput_samples(&self) -> impl Iterator<Item = f64> + '_ {
        self.kpi.iter().filter_map(|k| k.tput_mbps.map(f64::from))
    }

    /// Mean throughput of the test, Mbps.
    pub fn mean_tput_mbps(&self) -> Option<f64> {
        let (n, sum) = self
            .tput_samples()
            .fold((0usize, 0.0f64), |(n, sum), v| (n + 1, sum + v));
        (n > 0).then(|| sum / n as f64)
    }
}

/// The consolidated database of the whole campaign.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ConsolidatedDb {
    /// Every test of the campaign, in time order.
    pub records: Vec<TestRecord>,
    /// Passive handover-logger data per operator.
    pub passive: Vec<(Operator, PassiveLogger)>,
}

impl ConsolidatedDb {
    /// Records for one operator and test kind.
    pub fn by_op_kind(
        &self,
        op: Operator,
        kind: TestKind,
    ) -> impl Iterator<Item = &TestRecord> + '_ {
        self.records
            .iter()
            .filter(move |r| r.op == op && r.kind == kind)
    }

    /// Driving (non-static) records of one operator and kind.
    pub fn driving(&self, op: Operator, kind: TestKind) -> impl Iterator<Item = &TestRecord> + '_ {
        self.by_op_kind(op, kind).filter(|r| !r.is_static)
    }

    /// Static baseline records of one operator and kind.
    pub fn static_runs(
        &self,
        op: Operator,
        kind: TestKind,
    ) -> impl Iterator<Item = &TestRecord> + '_ {
        self.by_op_kind(op, kind).filter(|r| r.is_static)
    }

    /// All driving throughput KPI samples for (operator, direction).
    pub fn tput_kpi(&self, op: Operator, dir: Direction) -> impl Iterator<Item = &KpiSample> + '_ {
        let kind = match dir {
            Direction::Downlink => TestKind::ThroughputDl,
            Direction::Uplink => TestKind::ThroughputUl,
        };
        self.driving(op, kind).flat_map(|r| r.kpi.iter())
    }

    /// The passive log for one operator, if present.
    pub fn passive_for(&self, op: Operator) -> Option<&PassiveLogger> {
        self.passive.iter().find(|(o, _)| *o == op).map(|(_, l)| l)
    }

    /// Total number of handovers recorded in tests for one operator.
    pub fn handover_count(&self, op: Operator) -> usize {
        self.records
            .iter()
            .filter(|r| r.op == op)
            .map(|r| r.handovers.len())
            .sum()
    }

    /// Distinct serving cells seen in tests for one operator.
    pub fn unique_cells(&self, op: Operator) -> usize {
        let mut cells: Vec<u32> = self
            .records
            .iter()
            .filter(|r| r.op == op)
            .flat_map(|r| r.kpi.iter().map(|k| k.cell.0))
            .collect();
        cells.sort_unstable();
        cells.dedup();
        cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_geo::region::RegionKind;
    use wheels_radio::band::Technology;
    use wheels_ran::cell::CellId;

    fn kpi(t: f64, tput: Option<f32>, cell: u32) -> KpiSample {
        KpiSample {
            time_s: t,
            tput_mbps: tput,
            tech: Technology::LteA,
            cell: CellId(cell),
            rsrp_dbm: -100.0,
            sinr_db: 10.0,
            mcs: 10,
            bler: 0.1,
            ca: 2,
            handovers_in_window: 0,
            speed_mps: 30.0,
            odometer_m: 0.0,
            region: RegionKind::Highway,
            timezone: Timezone::Central,
            in_handover: false,
        }
    }

    fn record(id: u32, op: Operator, kind: TestKind, is_static: bool) -> TestRecord {
        TestRecord {
            id,
            op,
            kind,
            start_s: id as f64 * 100.0,
            duration_s: 30.0,
            server_kind: ServerKind::Cloud,
            server_name: "EC2 Ohio".into(),
            is_static,
            start_odometer_m: 0.0,
            end_odometer_m: 1_609.344,
            timezone: Timezone::Central,
            frac_hs5g: 0.0,
            kpi: vec![kpi(0.0, Some(10.0), 1), kpi(0.5, Some(20.0), 2)],
            rtt_ms: vec![],
            handovers: vec![],
            app: None,
        }
    }

    #[test]
    fn filters_by_op_kind_and_static() {
        let db = ConsolidatedDb {
            records: vec![
                record(0, Operator::Verizon, TestKind::ThroughputDl, false),
                record(1, Operator::Verizon, TestKind::ThroughputDl, true),
                record(2, Operator::Att, TestKind::ThroughputDl, false),
                record(3, Operator::Verizon, TestKind::Rtt, false),
            ],
            passive: vec![],
        };
        assert_eq!(db.by_op_kind(Operator::Verizon, TestKind::ThroughputDl).count(), 2);
        assert_eq!(db.driving(Operator::Verizon, TestKind::ThroughputDl).count(), 1);
        assert_eq!(db.static_runs(Operator::Verizon, TestKind::ThroughputDl).count(), 1);
        assert_eq!(db.tput_kpi(Operator::Verizon, Direction::Downlink).count(), 2);
    }

    #[test]
    fn distance_and_handover_rates() {
        let r = record(0, Operator::TMobile, TestKind::ThroughputDl, false);
        assert!((r.distance_miles() - 1.0).abs() < 1e-9);
        assert_eq!(r.handovers_per_mile(), Some(0.0));
        assert!((r.mean_tput_mbps().unwrap() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn unique_cells_deduplicated() {
        let db = ConsolidatedDb {
            records: vec![
                record(0, Operator::Verizon, TestKind::ThroughputDl, false),
                record(1, Operator::Verizon, TestKind::ThroughputUl, false),
            ],
            passive: vec![],
        };
        // Both records contain cells {1, 2}.
        assert_eq!(db.unique_cells(Operator::Verizon), 2);
    }

    #[test]
    fn truncate_streams_drops_late_data_only() {
        let mut r = record(0, Operator::Verizon, TestKind::Rtt, false);
        // record(): start_s = 0, duration 30, kpi at t = 0.0 and 0.5.
        r.rtt_ms = vec![10.0; 100];
        let lost = r.truncate_streams_at(0.25);
        assert_eq!(lost, 1, "one of two KPI samples is after t=0.25");
        assert_eq!(r.kpi.len(), 1);
        // 0.25/30 of the ping series survives: floor(100 * 1/120) = 0.
        assert!(r.rtt_ms.is_empty());
        assert_eq!(r.start_s, 0.0);
        assert_eq!(r.duration_s, 30.0);
    }

    #[test]
    fn truncate_after_end_is_a_noop() {
        let mut r = record(0, Operator::Verizon, TestKind::Rtt, false);
        r.rtt_ms = vec![10.0; 100];
        assert_eq!(r.truncate_streams_at(1e9), 0);
        assert_eq!(r.kpi.len(), 2);
        assert_eq!(r.rtt_ms.len(), 100);
    }

    #[test]
    fn window_overlap_is_inclusive() {
        let r = record(0, Operator::Att, TestKind::ThroughputDl, false);
        // Span [0, 30].
        assert!(r.overlaps_window(30.0, 40.0));
        assert!(r.overlaps_window(-5.0, 0.0));
        assert!(r.overlaps_window(10.0, 20.0));
        assert!(!r.overlaps_window(30.1, 40.0));
    }

    #[test]
    fn zero_distance_gives_no_rate() {
        let mut r = record(0, Operator::Att, TestKind::ThroughputDl, true);
        r.end_odometer_m = r.start_odometer_m;
        assert_eq!(r.handovers_per_mile(), None);
    }
}
