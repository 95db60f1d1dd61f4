//! App sessions run for the lengths the scenario schedule sets, in the
//! order of the runner's one session table.
//!
//! rail-corridor schedules 120 s video sessions. A session that ran the
//! app's default 180 s would keep sampling the phone 60 s into the next
//! test, which then steps the same UE backwards in time and odometer. In
//! a debug build the shadowing bank's "evaluated backwards" assertion
//! turns that into a panic, which `fail_fast` surfaces as an aborted
//! campaign (seeds 4 and 6 hit it at smoke scale). The record-level
//! check below catches the overrun in any build: a test's handovers must
//! fall inside its own window, and a phone's next test must not start
//! before its previous one ends.
//!
//! AR and CAV runs last their scenario's `app_offload_s` too: with a 5 s
//! offload session a 20 s run would sample 15 s into the next test, with
//! the same backwards step and the same debug-build panic. The
//! record-window check below holds every record of every registry world,
//! and of the paper spec at a 5 s offload session, to its own window.
//!
//! Every phone walks the §3 cycle (its first three tests with the app
//! suite off) back to back, one gap between tests; the second check
//! holds each unit's records to that order, written out below
//! independently of the runner, and to `Campaign::cycle_duration_s`.

use std::collections::BTreeMap;

use wheels_campaign::{Campaign, CampaignConfig, ScenarioSpec, WorkUnit};
use wheels_xcal::TestKind;

/// The paper's §3 cycle: DL, UL, ping, then AR and CAV offload with and
/// without compression, 360° video and cloud gaming. The flag is the
/// record's `compressed` (false where the kind has none).
const CYCLE: [(TestKind, bool); 9] = [
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

/// Smoke scale, as in `golden_campaign.rs`, with lost units fatal.
fn smoke_config(seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::full(seed);
    cfg.scale = 0.02;
    cfg.passive_tick_s = 10.0;
    cfg.fail_fast = true;
    cfg
}

#[test]
fn rail_corridor_sessions_never_overlap_the_next_test() {
    let spec = ScenarioSpec::find("rail-corridor").expect("registered scenario");
    for seed in [4, 6] {
        let outcome = Campaign::from_spec(&spec, smoke_config(seed))
            .run(1, None)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // One phone per drive shard (operator, day) and per static site.
        // Drive days do not overlap in time, so one operator's drive
        // records in merged (start-time) order are its shards' records
        // back to back; a static site's phone is keyed by its odometer.
        let mut last_end: BTreeMap<(String, u64), f64> = BTreeMap::new();
        for r in &outcome.db.records {
            let phone = (
                r.op.to_string(),
                if r.is_static {
                    r.start_odometer_m.to_bits()
                } else {
                    u64::MAX
                },
            );
            let end = r.start_s + r.duration_s;
            for h in &r.handovers {
                assert!(
                    h.time_s <= end,
                    "seed {seed}: record {} ({:?}) logged a handover {:.1} s after its end",
                    r.id,
                    r.kind,
                    h.time_s - end
                );
            }
            if let Some(prev_end) = last_end.insert(phone, end) {
                assert!(
                    r.start_s >= prev_end,
                    "seed {seed}: record {} ({:?}) starts {:.1} s before its phone's previous test ends",
                    r.id,
                    r.kind,
                    prev_end - r.start_s
                );
            }
        }
    }
}

#[test]
fn every_record_stays_inside_its_own_window() {
    let mut short_offload = ScenarioSpec::paper();
    short_offload.schedule.app_offload_s = 5.0;
    let mut specs = ScenarioSpec::registry();
    specs.push(short_offload);
    for spec in specs {
        let offload_s = spec.schedule.app_offload_s;
        let at = format!("{} (offload {offload_s} s)", spec.name);
        // fail_fast: a worker panic (the debug build's "shadowing
        // evaluated backwards") aborts the campaign instead of degrading.
        let outcome = Campaign::from_spec(&spec, smoke_config(11))
            .run(1, None)
            .unwrap_or_else(|e| panic!("{at}: {e}"));
        let mut offload_records = 0;
        for r in &outcome.db.records {
            let (start, end) = (r.start_s, r.start_s + r.duration_s);
            let inside = |t: f64| (start..=end).contains(&t);
            for k in &r.kpi {
                assert!(
                    inside(k.time_s),
                    "{at}: record {} ({:?}) has a KPI sample at {:.1} s outside [{start:.1}, {end:.1}]",
                    r.id,
                    r.kind,
                    k.time_s
                );
            }
            for h in &r.handovers {
                assert!(
                    inside(h.time_s),
                    "{at}: record {} ({:?}) logged a handover at {:.1} s outside [{start:.1}, {end:.1}]",
                    r.id,
                    r.kind,
                    h.time_s
                );
            }
            if matches!(r.kind, TestKind::AppAr | TestKind::AppCav) {
                assert_eq!(r.duration_s, offload_s, "{at}: record {}", r.id);
                offload_records += 1;
            }
        }
        assert!(offload_records > 0, "{at}: no AR/CAV record ran");
    }
}

#[test]
fn every_phone_walks_the_session_table_back_to_back() {
    for (name, seeds) in [("rail-corridor", &[4, 6][..]), ("paper", &[11])] {
        for &seed in seeds {
            for run_apps in [true, false] {
                let mut spec = ScenarioSpec::find(name).expect("registered scenario");
                spec.schedule.run_apps = run_apps;
                let cfg = smoke_config(seed);
                let gap_s = cfg.gap_s;
                let campaign = Campaign::from_spec(&spec, cfg);
                let table = if run_apps { &CYCLE[..] } else { &CYCLE[..3] };
                let cycle_s = campaign.cycle_duration_s();
                let (mut cycles, mut statics) = (0, 0);
                for unit in campaign.plan_units() {
                    let is_drive = matches!(unit, WorkUnit::Drive { .. });
                    if matches!(unit, WorkUnit::Passive { .. }) {
                        continue;
                    }
                    let at = format!("{name} seed {seed} apps {run_apps} {}", unit.label());
                    let records = campaign.run_unit_payload(&unit).records;
                    assert_eq!(records.len() % table.len(), 0, "{at}: a cut cycle");
                    if !is_drive {
                        // A static site runs one cycle, or none if no
                        // attempt was elevated.
                        assert!(records.len() <= table.len(), "{at}: {}", records.len());
                        statics += usize::from(!records.is_empty());
                    }
                    for cycle in records.chunks(table.len()) {
                        for (i, (r, &(kind, compressed))) in cycle.iter().zip(table).enumerate() {
                            let flag = r.app.and_then(|a| a.compressed).unwrap_or(false);
                            assert_eq!((r.kind, flag), (kind, compressed), "{at}: session {i}");
                            if let Some(prev) = i.checked_sub(1).map(|p| &cycle[p]) {
                                assert_eq!(
                                    r.start_s,
                                    prev.start_s + prev.duration_s + gap_s,
                                    "{at}: session {i} is not one gap after the previous test"
                                );
                            }
                        }
                        let (first, last) = (&cycle[0], &cycle[cycle.len() - 1]);
                        let span = last.start_s + last.duration_s + gap_s - first.start_s;
                        assert_eq!(span, cycle_s, "{at}: a cycle spans {span} s");
                        cycles += usize::from(is_drive);
                    }
                }
                assert!(
                    cycles > 0 && statics > 0,
                    "{name} seed {seed}: {cycles} drive cycles, {statics} static sites"
                );
            }
        }
    }
}
