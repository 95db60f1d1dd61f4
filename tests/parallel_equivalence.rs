//! The parallel executor's core guarantee: `run(n, ..)` produces a
//! byte-identical exported dataset for every worker count, at every seed.
//!
//! Work units derive their RNG streams from `(campaign_seed, unit key)`
//! and shards merge in canonical unit order, so thread count and
//! completion order must not leak into the output. These tests prove it
//! on the exported JSON — the strongest equality the dataset has.

use wheels_campaign::{Campaign, CampaignConfig, FaultProfile, ScenarioSpec, UnitStatus};
use wheels_xcal::export::to_json;

/// A miniature campaign exercising every unit kind: drive cycles,
/// static city baselines, and passive loggers.
fn mini(seed: u64) -> Campaign {
    mini_faulted(seed, FaultProfile::None)
}

/// [`mini`] under an apparatus fault profile.
fn mini_faulted(seed: u64, profile: FaultProfile) -> Campaign {
    let mut cfg = CampaignConfig::quick(seed);
    cfg.scale = 0.004;
    cfg.passive_tick_s = 120.0;
    cfg.fault_profile = profile;
    let mut spec = ScenarioSpec::paper();
    spec.schedule.run_apps = false;
    Campaign::from_spec(&spec, cfg)
}

/// The exported dataset of `campaign` run on `jobs` workers.
fn export(campaign: &Campaign, jobs: usize) -> String {
    to_json(&campaign.run(jobs, None).expect("tolerant run").db).expect("export")
}

#[test]
fn sequential_equals_parallel_at_every_worker_count() {
    for seed in [11, 42] {
        let campaign = mini(seed);
        let baseline = export(&campaign, 1);
        assert!(!baseline.is_empty());
        for jobs in [1, 2, 4] {
            let parallel = export(&campaign, jobs);
            assert_eq!(
                baseline, parallel,
                "seed {seed}: jobs={jobs} diverged from sequential run"
            );
        }
    }
}

#[test]
fn parallel_covers_every_unit_kind() {
    let campaign = mini(11);
    let db = campaign.run(4, None).expect("tolerant run").db;
    assert!(db.records.iter().any(|r| !r.is_static), "no drive records");
    assert!(db.records.iter().any(|r| r.is_static), "no static records");
    assert_eq!(db.passive.len(), 3, "one passive log per operator");
}

#[test]
fn merged_ids_are_strictly_increasing_and_time_sorted() {
    let db = mini(42).run(2, None).expect("tolerant run").db;
    for (i, r) in db.records.iter().enumerate() {
        assert_eq!(r.id, i as u32, "ids are 0..n in final order");
    }
    for pair in db.records.windows(2) {
        assert!(
            pair[0].start_s <= pair[1].start_s,
            "records sorted by start time"
        );
    }
}

#[test]
fn oversubscribed_workers_are_harmless() {
    // More workers than units: extra workers find the queue drained.
    let campaign = mini(42);
    assert_eq!(export(&campaign, 64), export(&campaign, 1));
}

#[test]
fn fault_injected_runs_are_byte_identical_at_every_worker_count() {
    // The determinism guarantee must survive injection: faults are keyed
    // by (seed, unit, attempt), never by worker or completion order, so
    // the export AND the integrity report match byte for byte.
    for profile in [FaultProfile::Paper, FaultProfile::Harsh] {
        for seed in [11, 42] {
            let campaign = mini_faulted(seed, profile);
            let base = campaign.run(1, None).expect("tolerant by default");
            let base_json = to_json(&base.db).expect("export");
            let base_report =
                serde_json::to_string_pretty(&base.integrity).expect("report export");
            for jobs in [2, 4, 64] {
                let par = campaign.run(jobs, None).expect("tolerant");
                assert_eq!(
                    base_json,
                    to_json(&par.db).expect("export"),
                    "{} seed {seed}: jobs={jobs} dataset diverged",
                    profile.label()
                );
                assert_eq!(
                    base_report,
                    serde_json::to_string_pretty(&par.integrity).expect("report export"),
                    "{} seed {seed}: jobs={jobs} integrity report diverged",
                    profile.label()
                );
            }
        }
    }
}

#[test]
fn harsh_profile_degrades_but_completes() {
    for seed in [11, 42] {
        let outcome = mini_faulted(seed, FaultProfile::Harsh)
            .run(1, None)
            .expect("tolerant by default");
        let hit = outcome
            .integrity
            .units
            .iter()
            .filter(|u| u.status != UnitStatus::Ok)
            .count();
        assert!(hit > 0, "seed {seed}: harsh profile left every unit clean");
        assert!(
            !outcome.db.records.is_empty(),
            "seed {seed}: campaign produced no data at all"
        );
    }
}

#[test]
fn fault_profiles_change_the_dataset_none_does_not() {
    let seed = 42;
    let clean = mini(seed).run(1, None).expect("no faults");
    assert!(
        clean.integrity.units.iter().all(|u| u.status == UnitStatus::Ok && u.faults.is_empty()),
        "fault machinery must be a no-op when off"
    );
    let harsh = export(&mini_faulted(seed, FaultProfile::Harsh), 1);
    assert_ne!(
        to_json(&clean.db).expect("export"),
        harsh,
        "harsh faults should visibly cost data"
    );
}
