//! The campaign runner: executes the paper's §3 methodology.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wheels_apps::ar::ArApp;
use wheels_apps::cav::CavApp;
use wheels_apps::gaming::GamingSession;
use wheels_apps::offload::OffloadSummary;
use wheels_apps::video::VideoSession;
use wheels_geo::route::RouteHint;
use wheels_geo::trip::DrivePlan;
use wheels_netsim::bulk::{BulkTransferTest, ThroughputSample};
use wheels_netsim::ping::{PingLinkState, RttTest};
use wheels_netsim::rtt::RttModel;
use wheels_netsim::server::{Server, ServerSelector};
use wheels_fleet::FleetUnitSketch;
use wheels_ran::cell::CellDb;
use wheels_ran::deployment::build_ops;
use wheels_ran::fleet::{FleetLoad, FleetParams};
use wheels_ran::handover::HandoverEvent;
use wheels_ran::load::LoadParams;
use wheels_ran::operator::Operator;
use wheels_ran::tuning::OperatorTuning;
use wheels_ran::policy::TrafficDemand;
use wheels_ran::ue::{LinkSnapshot, ServingRadio, UeParams, UeRadio};
use wheels_ran::Direction;
use wheels_xcal::database::{AppMetrics, ConsolidatedDb, TestKind, TestRecord};
use wheels_xcal::handover_logger::{PassiveLogger, PassiveSample};
use wheels_xcal::kpi::KpiSample;
use wheels_xcal::logger::{XcalLog, XcalLogger};
use wheels_xcal::sync::{AppLog, AppStampFormat};

use wheels_netsim::rng;

use crate::checkpoint::{self, CheckpointKey, CheckpointWriter, LoadedCheckpoints, LogScan};
use crate::config::CampaignConfig;
use crate::driver::{demand_for, tcp_base_rtt_s, AppLinkAdapter, LinkDriver};
use crate::executor::{merge_shard_slots, Shard, UnitOutcome, WorkUnit};
use crate::integrity::{IntegrityReport, ResumeReport, UnitStatus};
use crate::scenario::{ScenarioSpec, ScheduleSpec};
use wheels_netsim::faults::ProcessKill;

/// The paper's §3 round-robin: one phone's test cycle, in order. Each
/// entry is a test kind and, for the AR/CAV offload runs, whether frames
/// are sent compressed (the flag is ignored by the other kinds). The
/// first [`NETWORK_SESSIONS`] entries are the network tests; the app
/// suite follows them.
pub(crate) const SESSIONS: &[(TestKind, bool)] = &[
    (TestKind::ThroughputDl, false),
    (TestKind::ThroughputUl, false),
    (TestKind::Rtt, false),
    (TestKind::AppAr, true),
    (TestKind::AppAr, false),
    (TestKind::AppCav, true),
    (TestKind::AppCav, false),
    (TestKind::AppVideo, false),
    (TestKind::AppGaming, false),
];

/// The cycle with the app suite off: DL, UL and ping.
pub(crate) const NETWORK_SESSIONS: &[(TestKind, bool)] = SESSIONS.split_at(3).0;

/// One phone: a UE plus its RTT model.
struct Phone {
    op: Operator,
    ue: UeRadio,
    rtt: RttModel,
    /// Recycled snapshot storage, threaded through every test this phone
    /// runs (each [`LinkDriver`] adopts it; `finish` hands it back).
    snap_scratch: Vec<LinkSnapshot>,
}

impl Phone {
    fn new(op: Operator, db: Arc<CellDb>, params: UeParams, seed: u64) -> Self {
        Phone {
            op,
            ue: UeRadio::new(op, db, params, seed),
            // lint:allow(D4): `seed` is the unit's netsim::rng-derived
            // phone-stream seed; the salt splits off the RTT sub-stream
            rtt: RttModel::new(SmallRng::seed_from_u64(seed ^ 0x5EED_0FF1)),
            snap_scratch: Vec::new(),
        }
    }
}

/// The full result of a campaign run: the merged dataset plus the
/// per-unit integrity (data-completeness) report.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The consolidated dataset — with gaps where units were lost.
    pub db: ConsolidatedDb,
    /// Per-unit completeness accounting, canonical schedule order.
    pub integrity: IntegrityReport,
    /// Resume accounting when [`Campaign::run`] resumed from a checkpoint
    /// log ([`CheckpointOptions::resume`]): how many units were restored
    /// versus recomputed and what the checkpoint scan rejected. `None`
    /// for runs without a checkpoint and for fresh checkpointed runs.
    /// (The copy in [`IntegrityReport::resume`] is exported only when
    /// the scan saw damage; this one is always present on resumed runs,
    /// for the CLI.)
    pub resume: Option<ResumeReport>,
    /// Merged fleet ground truth, `None` when the campaign ran without a
    /// subscriber population.
    pub fleet: Option<FleetSummary>,
}

/// The fleet's ground-truth load summary for a whole campaign: the
/// panel-total population plus one merged sketch per operator, canonical
/// panel order. Per-unit sketches fold in canonical unit order, so the
/// summary is byte-identical at any `--jobs` and across crash + resume.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Panel-total subscriber population.
    pub population: u64,
    /// Per-operator merged sketches, panel order.
    pub per_op: Vec<(Operator, FleetUnitSketch)>,
}

/// How [`Campaign::run`] should treat the checkpoint directory.
#[derive(Debug)]
pub struct CheckpointOptions {
    /// Directory holding the checkpoint log (created if missing).
    pub dir: std::path::PathBuf,
    /// Restore valid records before running (`false` = fresh run; any
    /// existing log is truncated).
    pub resume: bool,
    /// Chaos hook: simulate a process death after the k-th durable unit
    /// commit. Test/CI machinery — `None` in normal operation.
    pub kill: Option<ProcessKill>,
    /// The log scan [`resume`](Self::resume) started; the run that
    /// resumes takes it.
    scan: Mutex<Option<JoinHandle<std::io::Result<LogScan>>>>,
}

impl CheckpointOptions {
    /// A fresh checkpointed run writing to `dir`.
    pub fn fresh(dir: impl Into<std::path::PathBuf>) -> Self {
        CheckpointOptions {
            dir: dir.into(),
            resume: false,
            kill: None,
            scan: Mutex::new(None),
        }
    }

    /// Resume from (and keep appending to) the log in `dir`. The log is
    /// opened now, and read, digest-checked and decoded on a thread of
    /// its own, so that work overlaps whatever the caller does before
    /// [`Campaign::run`] — `repro` builds the world.
    pub fn resume(dir: impl Into<std::path::PathBuf>) -> Self {
        let dir = dir.into();
        let log = LogScan::open(&dir);
        let scan = std::thread::spawn(move || LogScan::read(log?));
        CheckpointOptions {
            dir,
            resume: true,
            kill: None,
            scan: Mutex::new(Some(scan)),
        }
    }

    /// The scan [`resume`](Self::resume) started. A second run with the
    /// same options finds it taken and scans the log as it is now.
    fn take_scan(&self) -> std::io::Result<LogScan> {
        match self.scan.lock().take() {
            Some(scan) => scan
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("the checkpoint scan panicked"))),
            None => LogScan::read(LogScan::open(&self.dir)?),
        }
    }

    /// Install the kill-point chaos hook.
    pub fn with_kill(mut self, kill: ProcessKill) -> Self {
        self.kill = Some(kill);
        self
    }
}

impl Drop for CheckpointOptions {
    /// A scan no run took is joined, never detached; its result is
    /// dropped with it.
    fn drop(&mut self) {
        if let Some(scan) = self.scan.get_mut().take() {
            let _ = scan.join();
        }
    }
}

/// Why a campaign run returned no outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// Fail-fast abort: a unit was lost and
    /// [`CampaignConfig::fail_fast`] is set.
    Aborted {
        /// The first lost unit, canonical schedule order.
        unit: String,
        /// Its terminal error.
        error: String,
    },
    /// A checkpoint or output write could not be made durable.
    Io {
        /// What was being written.
        context: String,
        /// The underlying I/O error, stringified.
        error: String,
    },
    /// The [`ProcessKill`] chaos hook fired mid-run. Completed units are
    /// durable in the checkpoint log; resume to finish the campaign.
    Killed {
        /// Durable unit commits when the hook fired.
        committed: usize,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Aborted { unit, error } => {
                write!(f, "campaign aborted (fail-fast): unit {unit} lost — {error}")
            }
            CampaignError::Io { context, error } => {
                write!(f, "campaign I/O failure ({context}): {error}")
            }
            CampaignError::Killed { committed } => {
                write!(
                    f,
                    "campaign killed after {committed} durable unit commits (resume to finish)"
                )
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// Optional side products of a run (for log-sync verification).
#[derive(Debug, Default)]
pub struct CampaignLogs {
    /// XCAL logs, one per test.
    pub xcal: Vec<XcalLog>,
    /// App-side logs, one per test, in the same order.
    pub app: Vec<AppLog>,
}

/// One operator's share of the world, [`Campaign::ops`] order.
pub(crate) struct OpSlot {
    pub(crate) db: Arc<CellDb>,
    /// Deployment tuning (load scales).
    tuning: OperatorTuning,
    /// Edge-server entitlement.
    edge: bool,
    /// Fleet load model; `None` when the campaign has no subscriber
    /// population.
    fleet: Option<Arc<FleetLoad>>,
}

/// The campaign: world construction + test execution.
///
/// All fields are immutable after construction (the cell databases sit
/// behind `Arc`), so a `Campaign` is `Sync` and its work units can run on
/// any number of worker threads — see [`crate::executor`].
pub struct Campaign {
    pub(crate) cfg: CampaignConfig,
    pub(crate) plan: DrivePlan,
    /// The operator panel, in schedule order.
    pub(crate) ops: Vec<Operator>,
    /// Per-operator world state, [`Campaign::ops`] order.
    panel: Vec<OpSlot>,
    pub(crate) selector: ServerSelector,
    pub(crate) sched: ScheduleSpec,
    /// Hash of the world definition (scenario spec + output-affecting
    /// config), stamped on every checkpoint record — see
    /// [`checkpoint::world_hash`].
    pub(crate) world_hash: u64,
}

impl Campaign {
    /// Build the world a [`ScenarioSpec`] describes: its route, drive
    /// plan, operator panel (cell deployments and fleet), server fleet,
    /// and schedule. [`ScenarioSpec::paper`] is the paper's world.
    ///
    /// # Panics
    /// Panics on an invalid spec; call [`ScenarioSpec::validate`] first
    /// when the spec comes from outside.
    pub fn from_spec(spec: &ScenarioSpec, cfg: CampaignConfig) -> Self {
        let world = spec.build(cfg.seed);
        let tuned: Vec<_> = world.ops.iter().map(|&(op, tuning, _)| (op, tuning)).collect();
        let dbs = build_ops(world.plan.route(), cfg.seed, &tuned);
        let world_hash = checkpoint::world_hash(spec, &cfg);
        let ops: Vec<Operator> = world.ops.iter().map(|&(op, _, _)| op).collect();
        let fleet = build_fleet(&cfg, world.subscribers, &ops, &dbs);
        let panel = world
            .ops
            .iter()
            .zip(dbs)
            .zip(fleet)
            .map(|((&(_, tuning, edge), db), fleet)| OpSlot {
                db: Arc::new(db),
                tuning,
                edge,
                fleet,
            })
            .collect();
        Campaign {
            cfg,
            plan: world.plan,
            ops,
            panel,
            selector: world.selector,
            sched: world.schedule,
            world_hash,
        }
    }

    /// The drive plan in use.
    pub fn plan(&self) -> &DrivePlan {
        &self.plan
    }

    /// The operator panel, in schedule order.
    pub fn ops(&self) -> &[Operator] {
        &self.ops
    }

    /// Whether the scenario runs the app suite.
    pub(crate) fn apps_enabled(&self) -> bool {
        self.sched.run_apps
    }

    /// One operator's share of the world.
    pub(crate) fn slot(&self, op: Operator) -> &OpSlot {
        self.ops
            .iter()
            .zip(&self.panel)
            .find_map(|(&o, slot)| (o == op).then_some(slot))
            // lint:allow(D7): every work unit is generated from self.ops, so the operator is always on the panel
            .expect("operator in panel")
    }

    /// Execute the campaign on `jobs` worker threads, returning the
    /// dataset *and* the per-unit integrity report.
    ///
    /// The output is byte-identical for every `jobs` value: units run
    /// with per-unit derived RNG streams and merge in canonical unit
    /// order (see `tests/parallel_equivalence.rs`). Lost units leave gaps
    /// in the dataset — unless [`CampaignConfig::fail_fast`] is set, in
    /// which case the run fails with [`CampaignError::Aborted`] naming
    /// the first lost unit in canonical order.
    ///
    /// With `checkpoint` set, every completed unit is appended to
    /// `dir/`[`checkpoint::LOG_NAME`] and fsynced before it counts as
    /// done. If the process dies (or the [`CheckpointOptions::kill`]
    /// chaos hook fires), a later run with [`CheckpointOptions::resume`]
    /// restores every valid record, recomputes only what is missing or
    /// corrupt, and returns an outcome **byte-identical** to an
    /// uninterrupted run — unit outputs are pure functions of `(config,
    /// unit)`, so where the work happened leaves no trace in the dataset.
    /// Fresh runs truncate any existing log. A resume restores from the
    /// scan its options started when they were made. Resumed runs first
    /// compact the log (corrupt, foreign, and torn-tail bytes are healed out
    /// atomically) and account for the damage in
    /// [`CampaignOutcome::resume`] and, when records were actually
    /// rejected, in [`IntegrityReport::resume`].
    pub fn run(
        &self,
        jobs: usize,
        checkpoint: Option<&CheckpointOptions>,
    ) -> Result<CampaignOutcome, CampaignError> {
        let units = self.plan_units();
        let mut restored = BTreeMap::new();
        let mut resume = None;
        let mut writer = None;
        if let Some(opts) = checkpoint {
            if opts.resume {
                let (saved, report) = self.restore(&units, opts)?;
                restored = saved;
                resume = Some(report);
            }
            writer = Some(
                CheckpointWriter::open(&opts.dir, self.checkpoint_key(), !opts.resume)
                    .map_err(io_err(format!("opening checkpoint log in {}", opts.dir.display())))?,
            );
        }
        let kill = checkpoint.and_then(|o| o.kill.as_ref());
        let outcomes = self.execute_units(&units, jobs, restored, writer.as_ref(), kill)?;
        let mut outcome = self.fold_outcomes(&units, outcomes);
        if let Some(r) = resume {
            // Export the accounting only when the scan rejected records:
            // a clean resume's integrity report must stay byte-identical
            // to the uninterrupted run's (CI `cmp`s them).
            if r.saw_damage() {
                outcome.integrity.resume = Some(r.clone());
            }
            outcome.resume = Some(r);
        }
        if self.cfg.fail_fast {
            if let Some(u) = outcome.integrity.units.iter().find(|u| u.status == UnitStatus::Lost) {
                return Err(CampaignError::Aborted {
                    unit: u.unit.clone(),
                    error: u.error.clone().unwrap_or_else(|| "unknown".into()),
                });
            }
        }
        Ok(outcome)
    }

    /// Load and compact the checkpoint log in `dir`, returning the
    /// restorable outcomes of scheduled `units` (keyed by
    /// [`WorkUnit::fault_words`]) and the scan's accounting.
    fn restore(
        &self,
        units: &[WorkUnit],
        opts: &CheckpointOptions,
    ) -> Result<(BTreeMap<[u64; 3], UnitOutcome>, ResumeReport), CampaignError> {
        let dir = opts.dir.as_path();
        let scan = opts
            .take_scan()
            .map_err(io_err(format!("scanning checkpoints in {}", dir.display())))?;
        let loaded = LoadedCheckpoints::from_scan(scan, self.checkpoint_key());
        loaded
            .compact_to(dir)
            .map_err(io_err(format!("compacting checkpoint log in {}", dir.display())))?;
        let scheduled: BTreeSet<[u64; 3]> = units.iter().map(|u| u.fault_words()).collect();
        let mut restored = BTreeMap::new();
        let mut foreign = loaded.foreign_records;
        let mut notes = loaded.notes;
        for (words, ck) in loaded.units {
            if scheduled.contains(&words) {
                restored.insert(words, ck.into_outcome());
            } else {
                // Matching key but no such unit: treat as foreign.
                foreign += 1;
                notes.push(format!("record for unscheduled unit {words:?}; ignored"));
            }
        }
        let report = ResumeReport {
            restored_units: restored.len(),
            recomputed_units: units.len() - restored.len(),
            corrupt_records: loaded.corrupt_records,
            foreign_records: foreign,
            notes,
        };
        Ok((restored, report))
    }

    /// Fold per-unit outcomes (canonical order) into the merged dataset
    /// and integrity report. Restored and freshly computed outcomes fold
    /// identically — this is where resume regains byte-identity.
    fn fold_outcomes(&self, units: &[WorkUnit], outcomes: Vec<UnitOutcome>) -> CampaignOutcome {
        let mut slots = Vec::with_capacity(outcomes.len());
        let mut reports = Vec::with_capacity(outcomes.len());
        // Fleet sketches, canonical unit order (`outcomes` is in `units`
        // order regardless of worker scheduling).
        let mut sketches = Vec::new();
        for (unit, mut o) in units.iter().zip(outcomes) {
            if let Some(sketch) = o.shard.as_mut().and_then(|s| s.fleet.take()) {
                sketches.push((unit.op(), sketch));
            }
            slots.push(o.shard);
            reports.push(o.report);
        }
        let fleets: Vec<&FleetLoad> =
            self.panel.iter().filter_map(|s| s.fleet.as_deref()).collect();
        let fleet = (!fleets.is_empty()).then(|| FleetSummary {
            population: fleets.iter().map(|f| f.population()).sum(),
            per_op: self
                .ops
                .iter()
                .map(|&op| {
                    let mut acc = FleetUnitSketch::empty();
                    for (_, s) in sketches.iter().filter(|(o, _)| *o == op) {
                        acc.merge(s);
                    }
                    (op, acc)
                })
                .collect(),
        });
        CampaignOutcome {
            db: merge_shard_slots(slots),
            integrity: IntegrityReport {
                profile: self.cfg.fault_profile.label().to_string(),
                seed: self.cfg.seed,
                max_retries: self.cfg.max_retries,
                units: reports,
                resume: None,
            },
            resume: None,
            fleet,
        }
    }

    /// The identity stamped on this campaign's checkpoint records: a
    /// record is restorable only if its world hash, seed, and scale all
    /// match — anything else is another run's data.
    pub fn checkpoint_key(&self) -> CheckpointKey {
        CheckpointKey {
            world_hash: self.world_hash,
            seed: self.cfg.seed,
            scale_bits: self.cfg.scale.to_bits(),
        }
    }

    /// Reconstruct what the two logging sides (XCAL and the apps) would
    /// have produced for each record of `db`, in final (merged) record
    /// order — for log-sync verification (costs extra memory; use at
    /// reduced scale).
    pub fn build_logs(&self, db: &ConsolidatedDb) -> CampaignLogs {
        let mut logs = CampaignLogs::default();
        for record in &db.records {
            let mut xl = XcalLogger::start(record.op, record.kind.label(), record.start_s);
            for k in &record.kpi {
                xl.log_sample(*k);
            }
            for h in &record.handovers {
                xl.log_handover(h);
            }
            logs.xcal.push(xl.finish(record.timezone));
            // Apps alternate stamp formats, like the paper's mixed tooling.
            let fmt = if record.id.is_multiple_of(2) {
                AppStampFormat::Utc
            } else {
                AppStampFormat::Local(record.timezone)
            };
            logs.app.push(AppLog::stamped(
                record.kind.label(),
                record.op,
                record.start_s,
                fmt,
            ));
        }
        logs
    }

    /// Run one work unit's payload to a shard. Deterministic in
    /// `(config, unit)`: every stream is derived from the campaign seed
    /// and the unit key. Fault injection and panic handling sit above
    /// this, in [`Campaign::run_unit`](crate::executor) — the payload
    /// itself never knows whether the world is hostile.
    ///
    /// Public so benchmarks and diagnostics can run one unit in isolation;
    /// campaign execution goes through the supervised path.
    pub fn run_unit_payload(&self, unit: &WorkUnit) -> Shard {
        match *unit {
            WorkUnit::Drive { op, day } => self.run_drive_day(op, day),
            WorkUnit::Static { op, site_od } => self.run_static_site(op, site_od),
            WorkUnit::Passive { op } => Shard {
                records: Vec::new(),
                passive: Some((op, self.run_passive(op))),
                fleet: None,
            },
        }
    }

    /// One operator's round-robin cycles over one drive day.
    fn run_drive_day(&self, op: Operator, day_idx: usize) -> Shard {
        let mut records = Vec::new();
        let slot = self.slot(op);
        let mut phone = Phone::new(
            op,
            Arc::clone(&slot.db),
            UeParams {
                load: LoadParams::driving().scaled(&slot.tuning.load),
                fleet: slot.fleet.clone(),
                ..Default::default()
            },
            rng::derive_seed(self.cfg.seed, rng::DOMAIN_PHONE, &[op as u64, day_idx as u64]),
        );
        // The three phones sit in the same vehicle and run the same
        // round-robin simultaneously (§3), so the cycle-skip stream is
        // keyed by day only, NOT by operator — Fig. 6 compares operators
        // on concurrently collected samples, and all three Drive units of
        // a day replay the identical skip sequence.
        let mut cycle_rng = rng::stream(self.cfg.seed, rng::DOMAIN_CYCLE, &[day_idx as u64]);
        let cycle_len = self.cycle_duration_s();
        let sessions = self.sessions();
        // Total lookup: a day index past the plan yields an empty shard
        // (the work-unit generator only emits in-plan indices).
        let (day_start_s, day_end_s) = match self.plan.days().get(day_idx) {
            Some(day) => (day.start_time_s as f64, day.end_time_s as f64),
            None => (0.0, 0.0),
        };
        let mut t = day_start_s + 60.0;
        while t + cycle_len < day_end_s {
            if cycle_rng.gen::<f64>() < self.cfg.scale {
                t = self.run_sessions(&mut phone, t, sessions, None, &mut records);
            } else {
                t += cycle_len;
            }
        }
        // The drive unit is the fleet's accounting unit: it folds the
        // operator's ground-truth load over the day's span (static and
        // passive units fold nothing, so campaign totals count each
        // subscriber-hour exactly once).
        let fleet = slot.fleet.as_ref().map(|f| {
            let mut sketch = FleetUnitSketch::empty();
            f.fold_span(day_start_s, day_end_s, &mut sketch);
            sketch
        });
        Shard {
            records,
            passive: None,
            fleet,
        }
    }

    /// Length of one full round-robin cycle including gaps, seconds. The
    /// drive units lay their cycle slots on this expression; it is not a
    /// sum over the session table because that sum rounds differently for
    /// non-integer session lengths, which would move every slot.
    pub fn cycle_duration_s(&self) -> f64 {
        let g = self.cfg.gap_s;
        let s = &self.sched;
        let net = s.tput_s + g + s.tput_s + g + s.rtt_s + g;
        if self.apps_enabled() {
            net + 4.0 * (s.app_offload_s + g) + s.video_s + g + s.game_s + g
        } else {
            net
        }
    }

    /// The sessions one cycle runs: the whole table, or its network
    /// tests alone when the app suite is off.
    fn sessions(&self) -> &'static [(TestKind, bool)] {
        if self.apps_enabled() {
            SESSIONS
        } else {
            NETWORK_SESSIONS
        }
    }

    /// Run `sessions` back to back from `t`, each starting a gap after
    /// the previous one ends; returns the time after the last gap.
    fn run_sessions(
        &self,
        phone: &mut Phone,
        mut t: f64,
        sessions: &[(TestKind, bool)],
        static_od: Option<f64>,
        records: &mut Vec<TestRecord>,
    ) -> f64 {
        for &(kind, compressed) in sessions {
            // Shard-local ids; final ids are reassigned at merge time.
            let r = self.run_test(phone, records.len() as u32, t, kind, compressed, static_od);
            t = r.start_s + r.duration_s + self.cfg.gap_s;
            records.push(r);
        }
        t
    }

    fn server_for(&self, op: Operator, t0: f64, static_od: Option<f64>) -> Server {
        let (pos, tz) = match static_od {
            Some(od) => (
                self.plan.route().point_at(od).pos,
                self.plan.route().timezone_at(od),
            ),
            None => {
                let state = self.plan.state_at(t0);
                (state.pos, state.timezone)
            }
        };
        self.selector.select_for(self.slot(op).edge, pos, tz)
    }

    /// One test of the round-robin on `phone`, starting at `t0`: a
    /// `kind` session (`compressed` selects the AR/CAV variant), driving
    /// or parked at odometer `static_od`. The link driver runs on the
    /// phone's recycled snapshot buffer and hands it back afterwards.
    fn run_test(
        &self,
        phone: &mut Phone,
        id: u32,
        t0: f64,
        kind: TestKind,
        compressed: bool,
        static_od: Option<f64>,
    ) -> TestRecord {
        let duration_s = self.sched.session_s(kind);
        let server = self.server_for(phone.op, t0, static_od);
        let demand = demand_for(kind);
        let tick_s = self.cfg.snapshot_tick_s;
        let scratch = std::mem::take(&mut phone.snap_scratch);
        let mut driver = match static_od {
            Some(od) => LinkDriver::static_at(&mut phone.ue, &self.plan, demand, tick_s, od),
            None => LinkDriver::driving(&mut phone.ue, &self.plan, demand, tick_s),
        }
        .reusing(scratch);
        let mut tput = None;
        let mut rtt_ms = Vec::new();
        let app = match kind {
            TestKind::ThroughputDl | TestKind::ThroughputUl => {
                let dir = kind.direction();
                let test = BulkTransferTest {
                    duration_s,
                    ..Default::default()
                };
                tput = Some(test.run(t0, |t| {
                    let s = driver.at(t);
                    let pos = driver.pos_at(t);
                    let cap = match dir {
                        Some(Direction::Uplink) => s.cap_ul_mbps,
                        _ => s.cap_dl_mbps,
                    };
                    (cap, tcp_base_rtt_s(&s, pos, &server))
                }));
                None
            }
            TestKind::Rtt => {
                let test = RttTest {
                    duration_s,
                    ..Default::default()
                };
                let samples = test.run(t0, &server, &mut phone.rtt, |t| {
                    let s = driver.at(t);
                    PingLinkState {
                        pos: driver.pos_at(t),
                        tech: s.tech,
                        sinr_db: s.sinr_dl_db,
                        speed_mps: s.speed_mps,
                        in_handover: s.in_handover,
                    }
                });
                rtt_ms = samples.iter().map(|s| s.rtt_ms as f32).collect();
                None
            }
            TestKind::AppAr => {
                let mut link = AppLinkAdapter::new(&mut driver, &mut phone.rtt, server);
                let r = ArApp::default().run(t0, compressed, &mut link);
                Some(AppMetrics {
                    map_accuracy: Some(r.map_accuracy as f32),
                    ..offload_metrics(compressed, &r.offload)
                })
            }
            TestKind::AppCav => {
                let mut link = AppLinkAdapter::new(&mut driver, &mut phone.rtt, server);
                let r = CavApp::default().run(t0, compressed, &mut link);
                Some(offload_metrics(compressed, &r.offload))
            }
            TestKind::AppVideo => {
                let mut link = AppLinkAdapter::new(&mut driver, &mut phone.rtt, server);
                let r = VideoSession { duration_s }.run(t0, &mut link);
                Some(AppMetrics {
                    qoe: Some(r.qoe as f32),
                    avg_bitrate_mbps: Some(r.avg_bitrate_mbps as f32),
                    rebuffer_frac: Some(r.rebuffer_frac as f32),
                    ..Default::default()
                })
            }
            TestKind::AppGaming => {
                let mut link = AppLinkAdapter::new(&mut driver, &mut phone.rtt, server);
                let r = GamingSession { duration_s }.run(t0, &mut link);
                Some(AppMetrics {
                    send_bitrate_mbps: Some(r.send_bitrate_mbps as f32),
                    net_latency_ms: Some(r.net_latency_ms as f32),
                    frame_drop_frac: Some(r.frame_drop_frac as f32),
                    ..Default::default()
                })
            }
        };
        let (snaps, hos) = (&driver.snapshots, &driver.handovers);
        let kpi = kpi_windows(snaps, hos, t0, duration_s, tput.as_deref(), kind);
        let (start_od, end_od, tz) = match static_od {
            Some(od) => (od, od, self.plan.route().timezone_at(od)),
            None => {
                let s0 = self.plan.state_at(t0);
                (
                    s0.odometer_m,
                    self.plan.state_at(t0 + duration_s).odometer_m,
                    s0.timezone,
                )
            }
        };
        let record = TestRecord {
            id,
            op: phone.op,
            kind,
            start_s: t0,
            duration_s,
            server_kind: server.kind,
            server_name: server.name.to_string(),
            is_static: static_od.is_some(),
            start_odometer_m: start_od,
            end_odometer_m: end_od,
            timezone: tz,
            frac_hs5g: driver.frac_hs5g() as f32,
            kpi,
            rtt_ms,
            handovers: driver.handovers,
            app,
        };
        phone.snap_scratch = driver.snapshots;
        phone.snap_scratch.clear();
        record
    }

    /// One operator's static baseline at one city site. Retries get
    /// fresh UEs (walking around looking for the beam, as the authors
    /// did); each attempt's streams are keyed by `(op, site, attempt)`.
    fn run_static_site(&self, op: Operator, site_od: f64) -> Shard {
        let slot = self.slot(op);
        let mut records = Vec::new();
        // Test while passing/parked near the city.
        let t_base = self
            .plan
            .time_at_odometer(site_od)
            .unwrap_or_else(|| {
                self.plan
                    .days()
                    .first()
                    .map_or(0.0, |d| d.start_time_s as f64)
            });
        for attempt in 0..3u64 {
            let seed = rng::derive_seed(
                self.cfg.seed,
                rng::DOMAIN_STATIC,
                &[op as u64, site_od as u64, attempt],
            );
            let mut phone = Phone::new(
                op,
                Arc::clone(&slot.db),
                UeParams {
                    load: LoadParams::static_urban().scaled(&slot.tuning.load),
                    clutter_scale: 0.25,
                    fleet: slot.fleet.clone(),
                    ..Default::default()
                },
                seed,
            );
            // The cycle's DL test doubles as a probe that the operator
            // actually elevates us; the rest of the cycle follows it.
            let probe =
                self.run_test(&mut phone, 0, t_base, TestKind::ThroughputDl, false, Some(site_od));
            if probe.frac_hs5g < 0.6 {
                continue;
            }
            let t = probe.start_s + probe.duration_s + self.cfg.gap_s;
            records.push(probe);
            let rest = self.sessions().get(1..).unwrap_or_default();
            self.run_sessions(&mut phone, t, rest, Some(site_od), &mut records);
            break;
        }
        Shard {
            records,
            passive: None,
            fleet: None,
        }
    }

    /// The passive handover-logger phone for one operator.
    fn run_passive(&self, op: Operator) -> PassiveLogger {
        let slot = self.slot(op);
        let mut ue = ServingRadio::new(UeRadio::new(
            op,
            Arc::clone(&slot.db),
            UeParams {
                load: LoadParams::driving().scaled(&slot.tuning.load),
                fleet: slot.fleet.clone(),
                ..Default::default()
            },
            rng::derive_seed(self.cfg.seed, rng::DOMAIN_PASSIVE, &[op as u64]),
        ));
        let mut log = PassiveLogger::new();
        let mut hint = RouteHint::default();
        for day in self.plan.days() {
            let mut t = day.start_time_s as f64;
            while t < day.end_time_s as f64 {
                let state = self.plan.state_at_hinted(t, &mut hint);
                let step = ue.step(t, &state, TrafficDemand::Ping);
                log.log(PassiveSample {
                    time_s: t,
                    cell: step.cell,
                    tech: step.tech,
                    odometer_m: state.odometer_m,
                    speed_mps: state.speed_mps as f32,
                    lon: state.pos.lon as f32,
                });
                t += self.cfg.passive_tick_s;
            }
        }
        log
    }
}

/// Map an I/O error on a checkpoint step to [`CampaignError::Io`].
pub(crate) fn io_err(context: String) -> impl FnOnce(std::io::Error) -> CampaignError {
    move |e| CampaignError::Io {
        context,
        error: e.to_string(),
    }
}

/// Compile the effective fleet template — the scenario's `subscribers`
/// axis overridden by [`CampaignConfig::population`] — into per-operator
/// load models. The panel total is apportioned evenly with the remainder
/// going to earlier slots (so the sum is exact), and each operator's
/// attachment stream is derived from the campaign seed under
/// [`rng::DOMAIN_FLEET`]. Returns all `None` (the strict no-op path)
/// when the effective population is zero.
fn build_fleet(
    cfg: &CampaignConfig,
    template: Option<FleetParams>,
    ops: &[Operator],
    dbs: &[CellDb],
) -> Vec<Option<Arc<FleetLoad>>> {
    let params = match cfg.population {
        Some(0) => None,
        Some(n) => {
            let mut p = template.unwrap_or_default();
            p.population = n;
            Some(p)
        }
        None => template.filter(|p| p.population > 0),
    };
    let Some(params) = params else {
        return ops.iter().map(|_| None).collect();
    };
    let n = ops.len() as u64;
    let base = params.population / n;
    let rem = params.population % n;
    ops.iter()
        .zip(dbs)
        .enumerate()
        .map(|(i, (&op, db))| {
            let mut p = params.clone();
            p.population = base + u64::from((i as u64) < rem);
            let seed = rng::derive_seed(cfg.seed, rng::DOMAIN_FLEET, &[op as u64]);
            Some(Arc::new(FleetLoad::build(op, db, &p, seed)))
        })
        .collect()
}

/// The metrics an AR or CAV offload run shares.
fn offload_metrics(compressed: bool, o: &OffloadSummary) -> AppMetrics {
    AppMetrics {
        compressed: Some(compressed),
        e2e_ms_mean: Some(o.e2e_mean_ms as f32),
        e2e_ms_median: Some(o.e2e_median_ms as f32),
        offload_fps: Some(o.offload_fps as f32),
        ..Default::default()
    }
}

/// Downsample raw snapshots into 500 ms KPI windows, joining throughput
/// samples and counting handovers per window.
fn kpi_windows(
    snapshots: &[LinkSnapshot],
    handovers: &[HandoverEvent],
    t0: f64,
    duration_s: f64,
    tput: Option<&[ThroughputSample]>,
    kind: TestKind,
) -> Vec<KpiSample> {
    const WINDOW_S: f64 = 0.5;
    let n = (duration_s / WINDOW_S).round() as usize;
    let mut out = Vec::with_capacity(n);
    let mut snap_i = 0usize;
    for w in 0..n {
        let w_end = t0 + (w + 1) as f64 * WINDOW_S;
        // Last snapshot at or before the window end.
        while snapshots
            .get(snap_i + 1)
            .map_or(false, |s| s.time_s <= w_end)
        {
            snap_i += 1;
        }
        let Some(snap) = snapshots.get(snap_i) else {
            break;
        };
        let hos = handovers
            .iter()
            .filter(|h| h.time_s > w_end - WINDOW_S && h.time_s <= w_end)
            .count() as u8;
        let tput_mbps = tput.and_then(|t| {
            t.iter()
                .find(|s| (s.time_s - w_end).abs() < WINDOW_S / 2.0)
                .map(|s| s.mbps as f32)
        });
        let sample = match kind.direction() {
            Some(Direction::Uplink) => KpiSample::from_snapshot_ul(snap, tput_mbps, hos),
            _ => KpiSample::from_snapshot_dl(snap, tput_mbps, hos),
        };
        out.push(KpiSample {
            time_s: w_end,
            ..sample
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's world with only the network tests' drive units.
    fn drive_only() -> ScenarioSpec {
        let mut spec = ScenarioSpec::paper();
        spec.schedule.run_apps = false;
        spec.schedule.run_static = false;
        spec.schedule.run_passive = false;
        spec
    }

    fn tiny_campaign() -> Campaign {
        let mut cfg = CampaignConfig::quick(42);
        cfg.scale = 0.01;
        Campaign::from_spec(&drive_only(), cfg)
    }

    fn run_db(campaign: &Campaign) -> ConsolidatedDb {
        campaign.run(1, None).expect("tolerant run").db
    }

    #[test]
    fn tiny_run_produces_records() {
        let db = run_db(&tiny_campaign());
        assert!(!db.records.is_empty());
        // Every operator gets tests.
        for op in Operator::ALL {
            assert!(
                db.records.iter().any(|r| r.op == op),
                "no records for {op}"
            );
        }
    }

    #[test]
    fn tput_records_have_60_kpi_windows_with_throughput() {
        let db = run_db(&tiny_campaign());
        let r = db
            .records
            .iter()
            .find(|r| r.kind == TestKind::ThroughputDl)
            .expect("at least one DL test");
        assert_eq!(r.kpi.len(), 60);
        let with_tput = r.kpi.iter().filter(|k| k.tput_mbps.is_some()).count();
        assert!(with_tput >= 55, "{with_tput}");
    }

    #[test]
    fn rtt_records_have_100_samples() {
        let db = run_db(&tiny_campaign());
        let r = db
            .records
            .iter()
            .find(|r| r.kind == TestKind::Rtt)
            .expect("at least one RTT test");
        assert_eq!(r.rtt_ms.len(), 100);
        assert!(r.kpi.iter().all(|k| k.tput_mbps.is_none()));
    }

    #[test]
    fn deterministic_runs() {
        let a = run_db(&tiny_campaign());
        let b = run_db(&tiny_campaign());
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.start_s, y.start_s);
            assert_eq!(x.mean_tput_mbps(), y.mean_tput_mbps());
        }
    }

    #[test]
    fn static_suite_produces_high_speed_baselines() {
        let mut cfg = CampaignConfig::quick(7);
        cfg.scale = 0.0; // static only
        let mut spec = ScenarioSpec::paper();
        spec.schedule.run_apps = false;
        spec.schedule.run_passive = false;
        let db = run_db(&Campaign::from_spec(&spec, cfg));
        let statics: Vec<_> = db.records.iter().filter(|r| r.is_static).collect();
        assert!(statics.len() >= 10, "{} static records", statics.len());
        for r in &statics {
            assert!(r.frac_hs5g >= 0.0);
        }
        // Accepted DL baselines are high-speed by construction.
        let dl: Vec<_> = statics
            .iter()
            .filter(|r| r.kind == TestKind::ThroughputDl)
            .collect();
        assert!(dl.iter().all(|r| r.frac_hs5g >= 0.6));
    }

    #[test]
    fn logs_match_via_correct_sync() {
        let mut cfg = CampaignConfig::quick(9);
        cfg.scale = 0.005;
        let campaign = Campaign::from_spec(&drive_only(), cfg);
        let db = run_db(&campaign);
        let logs = campaign.build_logs(&db);
        assert_eq!(logs.xcal.len(), db.records.len());
        let matches = wheels_xcal::sync::match_logs(&logs.app, &logs.xcal);
        for (i, m) in matches.iter().enumerate() {
            assert_eq!(*m, Some(i), "app log {i} mismatched");
        }
    }
}
