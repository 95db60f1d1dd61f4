//! Fleet-axis gates: the `population: 0` strict no-op, `--jobs`
//! byte-identity of fleet-enabled campaigns, and the checkpoint
//! compatibility contract — a pre-fleet checkpoint log hashes to a
//! different world and must be rejected as foreign with accurate resume
//! accounting, never silently restored into a fleet run.

use std::fs;
use std::path::PathBuf;

use wheels_campaign::checkpoint::world_hash;
use wheels_campaign::{
    Campaign, CampaignConfig, CheckpointOptions, ScenarioSpec, SubscriberSpec,
};
use wheels_xcal::export;

/// Tiny but fully representative config: all three unit kinds run.
fn tiny(seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::quick(seed);
    cfg.scale = 0.02;
    cfg.passive_tick_s = 30.0;
    cfg
}

/// The paper's world with the app suite off.
fn paper(cfg: CampaignConfig) -> Campaign {
    let mut spec = ScenarioSpec::paper();
    spec.schedule.run_apps = false;
    Campaign::from_spec(&spec, cfg)
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn population_zero_is_a_strict_noop() {
    let base = paper(tiny(11)).run(1, None).expect("completes");
    let mut cfg = tiny(11);
    cfg.population = Some(0);
    let zero = paper(cfg).run(1, None).expect("completes");
    assert!(base.fleet.is_none() && zero.fleet.is_none());
    assert_eq!(
        export::to_json(&base.db).expect("serializes"),
        export::to_json(&zero.db).expect("serializes"),
    );
}

#[test]
fn fleet_runs_are_byte_identical_across_jobs() {
    let mut cfg = tiny(42);
    cfg.population = Some(2_000);
    let campaign = paper(cfg);
    let a = campaign.run(1, None).expect("completes");
    let b = campaign.run(3, None).expect("completes");
    let fa = a.fleet.expect("fleet summary present");
    let fb = b.fleet.expect("fleet summary present");
    assert_eq!(fa.population, 2_000);
    assert_eq!(fa, fb, "fleet summary must not depend on worker count");
    assert!(fa.per_op.iter().any(|(_, s)| !s.is_empty()));
    assert_eq!(
        export::to_json(&a.db).expect("serializes"),
        export::to_json(&b.db).expect("serializes"),
    );
}

#[test]
fn fleet_calibration_changes_the_dataset() {
    // The no-op guard is strict at population 0 — and only there: an
    // actual fleet must visibly re-anchor the load the probes see.
    let base = paper(tiny(7)).run(1, None).expect("completes");
    let mut cfg = tiny(7);
    cfg.population = Some(2_000_000);
    let loaded = paper(cfg).run(1, None).expect("completes");
    assert_ne!(
        export::to_json(&base.db).expect("serializes"),
        export::to_json(&loaded.db).expect("serializes"),
        "a two-million-subscriber fleet left no trace in the dataset"
    );
}

#[test]
fn world_hash_folds_the_fleet_axis() {
    let spec = ScenarioSpec::paper();
    let cfg = tiny(11);
    let h0 = world_hash(&spec, &cfg);

    // The config population knob is part of the world identity, and
    // `Some(0)` keys a different checkpoint stream than `None` even
    // though both produce the fleetless dataset.
    let mut with_pop = cfg.clone();
    with_pop.population = Some(10_000);
    assert_ne!(h0, world_hash(&spec, &with_pop));
    let mut zero = cfg.clone();
    zero.population = Some(0);
    assert_ne!(h0, world_hash(&spec, &zero));

    // The scenario subscribers axis is part of the hashed spec JSON.
    let mut fleet_spec = ScenarioSpec::paper();
    fleet_spec.subscribers = Some(SubscriberSpec::with_population(10_000));
    assert_ne!(h0, world_hash(&fleet_spec, &cfg));

    // Why a genuine pre-fleet log is necessarily foreign: the hashed
    // spec JSON now carries the fleet axis keys, which pre-fleet JSON
    // did not have.
    let json = serde_json::to_string(&spec).expect("spec serializes");
    assert!(json.contains("\"subscribers\""));
    assert!(json.contains("\"load\""));
}

#[test]
fn pre_fleet_style_checkpoint_log_is_rejected_as_foreign() {
    // Emulate resuming a fleet campaign on top of a log written by a
    // world without the fleet axis: same seed and scale, different
    // world hash. Every record must be rejected as foreign, everything
    // recomputed, and the accounting must say exactly that.
    let dir = scratch("pre-fleet-foreign");
    let fleetless = paper(tiny(11));
    let written = fleetless
        .run(1, Some(&CheckpointOptions::fresh(&dir)))
        .expect("fleetless checkpointed run completes");
    assert!(written.resume.is_none());
    let unit_count = fleetless.plan_units().len();

    let mut cfg = tiny(11);
    cfg.population = Some(2_000);
    let fleet = paper(cfg);
    assert_ne!(
        fleetless.checkpoint_key().world_hash,
        fleet.checkpoint_key().world_hash,
        "fleet axis must change the world hash"
    );
    let resumed = fleet
        .run(1, Some(&CheckpointOptions::resume(&dir)))
        .expect("resume over a foreign log completes");
    let r = resumed.resume.as_ref().expect("resume accounting present");
    assert_eq!(r.restored_units, 0, "foreign records must not restore");
    assert_eq!(r.recomputed_units, unit_count);
    assert_eq!(r.foreign_records, unit_count, "every old record is foreign");
    assert_eq!(r.corrupt_records, 0);

    // And the recomputed run is byte-identical to a cold fleet run.
    let mut cold_cfg = tiny(11);
    cold_cfg.population = Some(2_000);
    let cold = paper(cold_cfg).run(1, None).expect("completes");
    assert_eq!(
        export::to_json(&cold.db).expect("serializes"),
        export::to_json(&resumed.db).expect("serializes"),
    );
    assert_eq!(cold.fleet, resumed.fleet);
}

#[test]
fn fleet_sketches_survive_crash_and_resume() {
    use wheels_campaign::{CampaignError, ProcessKill};
    let dir = scratch("fleet-crash-resume");
    let mut cfg = tiny(42);
    cfg.population = Some(2_000);
    let campaign = paper(cfg);
    let golden = campaign.run(1, None).expect("completes");

    let kill = CheckpointOptions::fresh(&dir).with_kill(ProcessKill::after_units(3));
    match campaign.run(1, Some(&kill)) {
        Err(CampaignError::Killed { committed }) => assert_eq!(committed, 3),
        other => panic!("expected the kill hook to fire, got {other:?}"),
    }
    let resumed = campaign
        .run(1, Some(&CheckpointOptions::resume(&dir)))
        .expect("resume completes");
    let r = resumed.resume.as_ref().expect("resume accounting present");
    assert_eq!(r.restored_units, 3);
    assert_eq!(
        golden.fleet, resumed.fleet,
        "fleet summary must be identical across crash + resume"
    );
    assert_eq!(
        export::to_json(&golden.db).expect("serializes"),
        export::to_json(&resumed.db).expect("serializes"),
    );
}
