//! Deterministic parallel campaign execution, supervised.
//!
//! The campaign is split into independent [`WorkUnit`]s — one per
//! `(operator, drive day)`, `(operator, static site)`, and passive-logger
//! operator. Every random stream a unit consumes is derived from the
//! campaign seed and the unit's key (see [`wheels_netsim::rng`]), so a
//! unit's output is a pure function of `(config, unit)` and is identical
//! whether units run on one thread or many. Workers pull unit indexes
//! from a shared atomic counter (dynamic load balancing), write each
//! unit's outcome into its slot, and [`merge_shards`] folds the shards
//! back together in canonical unit order — which makes
//! [`Campaign::run`] byte-identical for every worker count.
//!
//! Dispatch order and merge order are separate. The pool hands units
//! out longest kind first (passive loggers span every plan day, a drive
//! unit one day, a static site one test cycle), canonical within each
//! kind, so no worker is left idling behind a long unit handed out
//! last. Slots, merge, checkpoint restore and the single-worker
//! (`jobs <= 1`) schedule all keep canonical order, so outputs never see
//! the dispatch order.
//!
//! Checkpointed runs group-commit: workers encode each finished unit's
//! record and queue it for one committer thread, which appends whatever
//! is waiting and makes it durable with one `sync_data` per batch, so no
//! worker sits on disk I/O.
//!
//! Units run under a supervisor ([`Campaign::run_unit_supervised`]): the
//! configured [`FaultPlan`] may abort an attempt (server outage, timeout
//! overrun) or degrade its output (probe crash, modem detach), panics are
//! caught at the unit boundary, and failed attempts retry with bounded
//! *simulated-clock* backoff — pure accounting, no wall-clock, so the
//! determinism guarantee holds under injection too. A unit that exhausts
//! its retries is marked [`UnitStatus::Lost`] and the campaign carries
//! on without it, the way the paper's dataset carries gaps instead of
//! missing days.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use parking_lot::Mutex;

use wheels_fleet::FleetUnitSketch;
use wheels_netsim::faults::{Fault, FaultPlan, ProcessKill};
use wheels_ran::operator::Operator;
use wheels_xcal::database::{ConsolidatedDb, TestRecord};
use wheels_xcal::handover_logger::PassiveLogger;

use crate::checkpoint::CheckpointWriter;
use crate::integrity::{UnitError, UnitReport, UnitStatus};
use crate::runner::{io_err, Campaign, CampaignError};
use crate::static_tests::static_sites;

/// One independent slice of the campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkUnit {
    /// One operator's round-robin test cycles over one drive day.
    Drive {
        /// The phone's operator.
        op: Operator,
        /// Index into the drive plan's days.
        day: usize,
    },
    /// One operator's static city baseline at one site.
    Static {
        /// The phone's operator.
        op: Operator,
        /// Route odometer of the site, meters.
        site_od: f64,
    },
    /// One operator's all-day passive handover logger.
    Passive {
        /// The logger phone's operator.
        op: Operator,
    },
}

impl WorkUnit {
    /// The unit's fault-plan key: a kind tag plus the unit coordinates,
    /// unique across the schedule (site odometers are distinct reals, so
    /// their bit patterns are distinct words).
    pub fn fault_words(&self) -> [u64; 3] {
        match *self {
            WorkUnit::Drive { op, day } => [1, op as u64, day as u64],
            WorkUnit::Static { op, site_od } => [2, op as u64, site_od.to_bits()],
            WorkUnit::Passive { op } => [3, op as u64, 0],
        }
    }

    /// The unit's operator.
    pub fn op(&self) -> Operator {
        match *self {
            WorkUnit::Drive { op, .. }
            | WorkUnit::Static { op, .. }
            | WorkUnit::Passive { op } => op,
        }
    }

    /// Where the unit's kind sits in the pool's dispatch order: the
    /// longest kind first. Taken from the unit alone, never from timing.
    fn dispatch_rank(&self) -> u8 {
        match self {
            WorkUnit::Passive { .. } => 0,
            WorkUnit::Drive { .. } => 1,
            WorkUnit::Static { .. } => 2,
        }
    }

    /// Human-readable unit key for integrity reports.
    pub fn label(&self) -> String {
        match *self {
            WorkUnit::Drive { op, day } => format!("drive/{op}/day{day}"),
            WorkUnit::Static { op, site_od } => format!("static/{op}/od{site_od:.0}"),
            WorkUnit::Passive { op } => format!("passive/{op}"),
        }
    }
}

/// The output of one [`WorkUnit`]: records carry shard-local ids
/// (`0..n` in generation order) until [`merge_shards`] reassigns them.
#[derive(Debug, Default)]
pub struct Shard {
    /// Test records produced by the unit.
    pub records: Vec<TestRecord>,
    /// Passive logger output (passive units only).
    pub passive: Option<(Operator, PassiveLogger)>,
    /// Streaming fleet-load summary folded over the unit's time span
    /// (drive units of fleet-enabled campaigns only).
    pub fleet: Option<FleetUnitSketch>,
}

/// A supervised unit's result: the shard (absent for lost units) plus its
/// integrity record.
#[derive(Debug)]
pub struct UnitOutcome {
    /// The unit's data, if any attempt completed.
    pub shard: Option<Shard>,
    /// What happened getting it.
    pub report: UnitReport,
}

impl UnitOutcome {
    /// The outcome of a slot that was never filled: the unit is `Lost`
    /// with a [`UnitError::MissingSlot`] cause — surfaced explicitly
    /// instead of panicking the collection.
    fn missing_slot(label: String) -> Self {
        let mut report = UnitReport::new(label);
        report.status = UnitStatus::Lost;
        report.error = Some(UnitError::MissingSlot.to_string());
        UnitOutcome {
            shard: None,
            report,
        }
    }
}

impl Campaign {
    /// The canonical unit schedule: drive units (operator-major,
    /// day-minor), then static sites, then passive loggers. Merge order —
    /// and therefore the exported dataset — is defined by this sequence,
    /// never by worker completion order.
    pub fn plan_units(&self) -> Vec<WorkUnit> {
        let mut units = Vec::new();
        for &op in &self.ops {
            for day in 0..self.plan.days().len() {
                units.push(WorkUnit::Drive { op, day });
            }
        }
        if self.sched.run_static {
            for &op in &self.ops {
                for (_city, site_od, _tech) in static_sites(&self.slot(op).db, self.plan.route()) {
                    units.push(WorkUnit::Static { op, site_od });
                }
            }
        }
        if self.sched.run_passive {
            for &op in &self.ops {
                units.push(WorkUnit::Passive { op });
            }
        }
        units
    }

    /// One attempt at a unit. An abortive injected fault (server outage,
    /// timeout overrun) kills the attempt before it produces data; the
    /// payload itself runs under `catch_unwind`, so a panicking work unit
    /// surfaces as a typed [`UnitError`] instead of tearing down the
    /// campaign.
    pub(crate) fn run_unit(
        &self,
        unit: &WorkUnit,
        fault: Option<Fault>,
    ) -> Result<Shard, UnitError> {
        match fault {
            Some(Fault::ServerOutage { outage_s }) => {
                return Err(UnitError::ServerUnreachable { outage_s })
            }
            Some(Fault::TimeoutOverrun { overrun_s }) => {
                return Err(UnitError::TimeoutOverrun { overrun_s })
            }
            _ => {}
        }
        catch_unwind(AssertUnwindSafe(|| self.run_unit_payload(unit)))
            .map_err(|payload| UnitError::Panicked {
                message: panic_message(payload),
            })
    }

    /// Run one unit under the supervisor: retry abortive failures with
    /// bounded simulated-clock backoff, apply degrading faults to the
    /// surviving payload, and settle on an `Ok`/`Degraded`/`Lost` status.
    pub(crate) fn run_unit_supervised(&self, unit: &WorkUnit, plan: &FaultPlan) -> UnitOutcome {
        let words = unit.fault_words();
        let max_attempts = self.cfg.max_retries.saturating_add(1);
        let mut report = UnitReport::new(unit.label());
        let mut last_err: Option<UnitError> = None;
        for attempt in 0..max_attempts {
            report.attempts = attempt + 1;
            let fault = plan.fault_for(&words, attempt);
            if let Some(f) = &fault {
                report.faults.push(f.label().to_string());
            }
            match self.run_unit(unit, fault) {
                Ok(mut shard) => {
                    if let Some(f) = fault {
                        apply_degrading_fault(&f, &mut shard, &mut report);
                    }
                    report.records_kept = shard.records.len();
                    report.status = if report.lost_anything() {
                        UnitStatus::Degraded
                    } else {
                        UnitStatus::Ok
                    };
                    return UnitOutcome {
                        shard: Some(shard),
                        report,
                    };
                }
                Err(e) => {
                    if attempt + 1 < max_attempts {
                        report.backoff_s += plan.backoff_s(&words, attempt);
                    }
                    last_err = Some(e);
                }
            }
        }
        report.status = UnitStatus::Lost;
        report.error = last_err.map(|e| e.to_string());
        UnitOutcome {
            shard: None,
            report,
        }
    }

    /// Run `units` under supervision, returning one outcome per unit in
    /// canonical unit order, regardless of which units were restored and
    /// which workers ran the rest.
    ///
    /// A scoped pool of `jobs` workers (at least one) drains a shared
    /// index queue: in [`dispatch_order`] when there are several, so a
    /// slow unit (a passive logger, a full drive day) starts early and
    /// never serializes the tail of the schedule, and in canonical order
    /// when there is one. A slot left empty after execution becomes an
    /// explicit [`UnitError::MissingSlot`] loss, never a panic.
    ///
    /// `restored` holds outcomes recovered from a checkpoint log, keyed by
    /// [`WorkUnit::fault_words`]: matching units are *not* re-run (and not
    /// re-committed — their records are already durable). With a
    /// `checkpoint` writer, each worker encodes every outcome it computes
    /// and hands the record to one committer thread over a bounded queue
    /// ([`commit_batches`]), then takes its next unit; the committer makes
    /// records durable a batch at a time. This returns only once the
    /// committer has drained the queue and synced, so every unit counts
    /// as done only after its record is. A commit failure interrupts the
    /// run with [`CampaignError::Io`] rather than silently continuing with
    /// a checkpoint stream that lies. `kill` is the chaos hook (it needs a
    /// writer): it observes every durable commit and, when it fires, the
    /// run stops with [`CampaignError::Killed`] exactly as if the process
    /// had died after the k-th record — except in-process, so tests can
    /// sweep kill points deterministically.
    pub(crate) fn execute_units(
        &self,
        units: &[WorkUnit],
        jobs: usize,
        mut restored: BTreeMap<[u64; 3], UnitOutcome>,
        checkpoint: Option<&CheckpointWriter>,
        kill: Option<&ProcessKill>,
    ) -> Result<Vec<UnitOutcome>, CampaignError> {
        let plan = FaultPlan::new(self.cfg.seed, self.cfg.fault_profile);
        let workers = jobs.min(units.len()).max(1);
        let order = if workers > 1 {
            dispatch_order(units)
        } else {
            (0..units.len()).collect()
        };
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<UnitOutcome>>> = units
            .iter()
            .map(|unit| Mutex::new(restored.remove(&unit.fault_words())))
            .collect();
        let dead = AtomicBool::new(false);
        let work = |queue: Option<SyncSender<(usize, Vec<u8>)>>| loop {
            if dead.load(Ordering::SeqCst) {
                break;
            }
            let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            let Some(unit) = units.get(i) else { break };
            // In range whenever `units.get(i)` is: one slot per unit.
            let Some(slot) = slots.get(i) else { break };
            if slot.lock().is_some() {
                continue; // restored from a checkpoint
            }
            let outcome = self.run_unit_supervised(unit, &plan);
            let record = checkpoint.map(|w| w.record(unit, &outcome));
            *slot.lock() = Some(outcome);
            if let (Some(queue), Some(record)) = (&queue, record) {
                if queue.send((i, record)).is_err() {
                    break; // the committer stopped: killed or failed
                }
            }
        };
        std::thread::scope(|scope| {
            let (queue, committer) = match checkpoint {
                Some(writer) => {
                    let (tx, rx) = sync_channel(workers);
                    let dead = &dead;
                    let committer = scope.spawn(move || {
                        let r = commit_batches(writer, units, &rx, workers, kill);
                        if r.is_err() {
                            dead.store(true, Ordering::SeqCst);
                        }
                        // Dropping the receiver wakes any worker blocked
                        // on a full queue.
                        drop(rx);
                        r
                    });
                    (Some(tx), Some(committer))
                }
                None => (None, None),
            };
            let work = &work;
            for _ in 0..workers {
                let queue = queue.clone();
                scope.spawn(move || work(queue));
            }
            // The committer's queue closes once every worker has exited.
            drop(queue);
            committer.map_or(Ok(()), |c| {
                c.join().unwrap_or_else(|payload| {
                    Err(CampaignError::Io {
                        context: "checkpoint committer".to_string(),
                        error: panic_message(payload),
                    })
                })
            })
        })?;
        Ok(slots
            .into_iter()
            .zip(units)
            .map(|(slot, unit)| match slot.into_inner() {
                Some(outcome) => outcome,
                None => UnitOutcome::missing_slot(unit.label()),
            })
            .collect())
    }
}

/// The committer: append the records the workers queue, a batch at a
/// time, with one `sync_data` per batch. A batch is every record waiting
/// when the committer gets to it, at most `max_batch` of them and never
/// more than `kill` lets commit before it fires, so a kill leaves exactly
/// its kill point's records durable. Only after the sync does the batch
/// count as committed and pass through the kill hook. Returns once every
/// sender has hung up and the last batch is durable, or at the first
/// failed append (naming the batch's first unit) or fired kill; either
/// way nothing more is written.
fn commit_batches(
    writer: &CheckpointWriter,
    units: &[WorkUnit],
    queue: &Receiver<(usize, Vec<u8>)>,
    max_batch: usize,
    kill: Option<&ProcessKill>,
) -> Result<(), CampaignError> {
    let killed = |k: &ProcessKill| CampaignError::Killed {
        committed: k.committed(),
    };
    let mut batch: Vec<(usize, Vec<u8>)> = Vec::with_capacity(max_batch);
    while let Ok(first) = queue.recv() {
        let room = kill.map_or(max_batch, |k| {
            k.kill_point().saturating_sub(k.committed()).min(max_batch)
        });
        if let (0, Some(k)) = (room, kill) {
            return Err(killed(k));
        }
        batch.push(first);
        while batch.len() < room {
            let Ok(rec) = queue.try_recv() else { break };
            batch.push(rec);
        }
        if let Err(e) = writer.append(batch.iter().map(|(_, rec)| rec.as_slice())) {
            let first = batch.first().and_then(|&(i, _)| units.get(i));
            let label = first.map(WorkUnit::label).unwrap_or_default();
            let more = match batch.len() {
                1 => String::new(),
                n => format!(" and {} more units", n - 1),
            };
            return Err(io_err(format!("checkpoint commit for {label}{more}"))(e));
        }
        for _ in batch.drain(..) {
            if let Some(k) = kill.filter(|k| k.on_commit()) {
                return Err(killed(k));
            }
        }
    }
    Ok(())
}

/// The order in which the worker pool hands out `units`: indexes into
/// `units`, longest kind first ([`WorkUnit::dispatch_rank`]), canonical
/// within each kind. Only the pool uses it; outcomes still land in
/// canonical slots.
fn dispatch_order(units: &[WorkUnit]) -> Vec<usize> {
    // (rank, canonical index) pairs are distinct, so the sort is total.
    let mut keyed: Vec<(u8, usize)> = units.iter().map(WorkUnit::dispatch_rank).zip(0..).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The time span `[min start, max end]` covered by a shard's data, or
/// `None` for an empty shard.
fn shard_span(shard: &Shard) -> Option<(f64, f64)> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for r in &shard.records {
        lo = lo.min(r.start_s);
        hi = hi.max(r.start_s + r.duration_s);
    }
    if let Some((_, log)) = &shard.passive {
        if let (Some(first), Some(last)) = (log.samples().first(), log.samples().last()) {
            lo = lo.min(first.time_s);
            hi = hi.max(last.time_s);
        }
    }
    (lo < hi).then_some((lo, hi))
}

/// Apply a non-abortive fault to a completed shard, charging the losses
/// to `report`. Pure in `(fault, shard)`, so parallel and sequential runs
/// degrade identically.
fn apply_degrading_fault(fault: &Fault, shard: &mut Shard, report: &mut UnitReport) {
    let Some((span0, span1)) = shard_span(shard) else {
        return;
    };
    let span = span1 - span0;
    match *fault {
        Fault::ProbeCrash { survive_frac } => {
            let t_crash = span0 + survive_frac * span;
            let before = shard.records.len();
            shard.records.retain(|r| r.start_s < t_crash);
            report.records_lost += before - shard.records.len();
            for r in &mut shard.records {
                report.kpi_samples_lost += r.truncate_streams_at(t_crash);
            }
            let kept: usize = shard.records.iter().map(|r| r.kpi.len()).sum();
            if report.kpi_samples_lost > 0 {
                report.truncated_kpi_frac =
                    report.kpi_samples_lost as f64 / (report.kpi_samples_lost + kept) as f64;
            }
            if let Some((_, log)) = &mut shard.passive {
                report.passive_samples_lost += log.truncate_after(t_crash);
            }
        }
        Fault::ModemDetach {
            start_frac,
            len_frac,
        } => {
            let w0 = span0 + start_frac * span;
            let w1 = (w0 + len_frac * span).min(span1);
            let before = shard.records.len();
            shard.records.retain(|r| !r.overlaps_window(w0, w1));
            report.records_lost += before - shard.records.len();
            if let Some((_, log)) = &mut shard.passive {
                report.passive_samples_lost += log.drop_window(w0, w1);
            }
        }
        // Abortive faults never reach a completed shard.
        Fault::ServerOutage { .. } | Fault::TimeoutOverrun { .. } => {}
    }
}

/// Fold per-unit shards (in canonical unit order) into one database.
///
/// Records are stably sorted by start time — ties keep unit order, so the
/// result is deterministic — and ids are reassigned `0..n` in final order.
/// Passive logs keep their unit (operator) order. The sort is total
/// (`f64::total_cmp`): a non-finite timestamp sorts deterministically
/// instead of panicking the merge.
pub fn merge_shards(shards: Vec<Shard>) -> ConsolidatedDb {
    let mut records: Vec<TestRecord> =
        Vec::with_capacity(shards.iter().map(|s| s.records.len()).sum());
    let mut passive = Vec::new();
    for shard in shards {
        records.extend(shard.records);
        if let Some(p) = shard.passive {
            passive.push(p);
        }
    }
    records.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
    for (i, r) in records.iter_mut().enumerate() {
        r.id = i as u32;
    }
    ConsolidatedDb { records, passive }
}

/// [`merge_shards`] over supervised slots: lost units (`None`) contribute
/// nothing, surviving shards merge exactly as before — the dataset simply
/// has a gap where the unit's data would have been.
pub fn merge_shard_slots(slots: Vec<Option<Shard>>) -> ConsolidatedDb {
    merge_shards(slots.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use crate::runner::CheckpointOptions;
    use crate::scenario::ScenarioSpec;
    use wheels_netsim::faults::FaultProfile;

    fn tiny(seed: u64, profile: FaultProfile) -> Campaign {
        let mut cfg = CampaignConfig::quick(seed);
        cfg.scale = 0.01;
        cfg.fault_profile = profile;
        Campaign::from_spec(&drive_only(), cfg)
    }

    /// The paper's world with only the network tests' drive units.
    fn drive_only() -> ScenarioSpec {
        let mut spec = ScenarioSpec::paper();
        spec.schedule.run_apps = false;
        spec.schedule.run_static = false;
        spec.schedule.run_passive = false;
        spec
    }

    #[test]
    fn unit_keys_are_unique_across_the_schedule() {
        let campaign = tiny(42, FaultProfile::None);
        let units = campaign.plan_units();
        let mut words: Vec<[u64; 3]> = units.iter().map(WorkUnit::fault_words).collect();
        let mut labels: Vec<String> = units.iter().map(WorkUnit::label).collect();
        words.sort_unstable();
        words.dedup();
        labels.sort();
        labels.dedup();
        assert_eq!(words.len(), units.len(), "fault_words collide");
        assert_eq!(labels.len(), units.len(), "labels collide");
    }

    #[test]
    fn pool_dispatches_longest_kind_first_canonical_within_kind() {
        let mut cfg = CampaignConfig::quick(42);
        cfg.scale = 0.01;
        let mut spec = ScenarioSpec::paper();
        spec.schedule.run_apps = false;
        let campaign = Campaign::from_spec(&spec, cfg);
        let units = campaign.plan_units();
        let order = dispatch_order(&units);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..units.len()).collect::<Vec<_>>(),
            "not a permutation"
        );
        let kinds: Vec<u8> = order.iter().map(|&i| units[i].dispatch_rank()).collect();
        for kind in 0..3 {
            assert!(kinds.contains(&kind), "schedule lacks unit kind {kind}");
        }
        for (a, b) in order.iter().zip(&order[1..]) {
            let (ka, kb) = (units[*a].dispatch_rank(), units[*b].dispatch_rank());
            assert!(
                ka < kb || (ka == kb && a < b),
                "{} before {}",
                units[*a].label(),
                units[*b].label()
            );
        }
    }

    #[test]
    fn none_profile_is_all_ok() {
        let campaign = tiny(42, FaultProfile::None);
        let outcome = campaign.run(1, None).expect("no fail-fast");
        assert!(!outcome.db.records.is_empty());
        assert!(outcome
            .integrity
            .units
            .iter()
            .all(|u| u.status == UnitStatus::Ok && u.attempts == 1 && u.faults.is_empty()));
    }

    #[test]
    fn harsh_profile_survives_and_accounts_for_losses() {
        let campaign = tiny(42, FaultProfile::Harsh);
        let outcome = campaign.run(1, None).expect("tolerant by default");
        let report = &outcome.integrity;
        assert_eq!(report.units.len(), campaign.plan_units().len());
        assert!(
            report.degraded_count() + report.lost_count() > 0,
            "harsh profile injected nothing: {}",
            report.summary()
        );
        // Degraded units actually lost something; clean units didn't.
        for u in &report.units {
            match u.status {
                UnitStatus::Degraded => assert!(u.lost_anything(), "{:?}", u),
                UnitStatus::Ok => assert!(!u.lost_anything(), "{:?}", u),
                UnitStatus::Lost => assert!(u.error.is_some(), "{:?}", u),
            }
        }
    }

    #[test]
    fn zero_retries_plus_fail_fast_aborts_deterministically() {
        let mut cfg = CampaignConfig::quick(42);
        cfg.scale = 0.01;
        cfg.fault_profile = FaultProfile::Harsh;
        cfg.max_retries = 0;
        cfg.fail_fast = true;
        let campaign = Campaign::from_spec(&drive_only(), cfg);
        // With no retry budget under harsh faults, some of the 24 drive
        // units is statistically certain to abort its only attempt.
        let a = campaign.run(1, None).expect_err("must abort");
        assert!(matches!(a, CampaignError::Aborted { .. }), "{a}");
        let b = campaign.run(4, None).expect_err("must abort");
        assert_eq!(a, b, "fail-fast abort must not depend on job count");
        // Unit tests have no CARGO_TARGET_TMPDIR; use the target dir.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/checkpoint-unit-tests/fail-fast");
        let _ = std::fs::remove_dir_all(&dir);
        let c = campaign
            .run(4, Some(&CheckpointOptions::fresh(&dir)))
            .expect_err("must abort");
        assert_eq!(a, c, "fail-fast abort must not depend on the checkpoint path");
    }

    #[test]
    fn retries_are_bounded_by_budget() {
        let campaign = tiny(11, FaultProfile::Harsh);
        let outcome = campaign.run(1, None).expect("tolerant");
        for u in &outcome.integrity.units {
            assert!(u.attempts >= 1 && u.attempts <= campaign.cfg.max_retries + 1);
            if u.attempts == 1 {
                assert_eq!(u.backoff_s, 0.0, "no retry, no backoff: {u:?}");
            }
        }
    }

    #[test]
    fn merge_tolerates_missing_shards() {
        let campaign = tiny(42, FaultProfile::None);
        let units = campaign.plan_units();
        let shards: Vec<Option<Shard>> = units
            .iter()
            .enumerate()
            .map(|(i, u)| (i % 2 == 0).then(|| campaign.run_unit_payload(u)))
            .collect();
        let db = merge_shard_slots(shards);
        for (i, r) in db.records.iter().enumerate() {
            assert_eq!(r.id, i as u32);
        }
        for pair in db.records.windows(2) {
            assert!(pair[0].start_s <= pair[1].start_s);
        }
    }

    #[test]
    fn merge_never_panics_on_non_finite_times() {
        let campaign = tiny(42, FaultProfile::None);
        let units = campaign.plan_units();
        let mut shard = campaign.run_unit_payload(&units[0]);
        assert!(shard.records.len() >= 2, "need records to poison");
        shard.records[0].start_s = f64::NAN;
        shard.records[1].start_s = f64::INFINITY;
        let db = merge_shards(vec![shard]);
        for (i, r) in db.records.iter().enumerate() {
            assert_eq!(r.id, i as u32);
        }
    }
}
