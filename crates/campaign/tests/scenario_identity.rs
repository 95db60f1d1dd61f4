//! Specs must survive a JSON round trip without changing the campaign
//! they describe.

use wheels_campaign::{Campaign, CampaignConfig, ScenarioSpec};

#[test]
fn specs_survive_json_round_trip() {
    for spec in ScenarioSpec::registry() {
        let json = serde_json::to_string(&spec).expect("spec serializes");
        let back: ScenarioSpec = serde_json::from_str(&json).expect("spec deserializes");
        assert_eq!(spec, back, "{} changed across the round trip", spec.name);
        back.validate().expect("round-tripped spec validates");
    }
}

#[test]
fn round_tripped_spec_runs_identical_campaign() {
    // The property behind `--scenario FILE.json`: a spec that went
    // through JSON drives the exact same campaign as the original.
    for mut spec in ScenarioSpec::registry() {
        spec.schedule.run_apps = false;
        let json = serde_json::to_string(&spec).expect("spec serializes");
        let back: ScenarioSpec = serde_json::from_str(&json).expect("spec deserializes");
        let mut cfg = CampaignConfig::quick(9);
        cfg.scale = 0.01;
        cfg.passive_tick_s = 30.0;
        let a = Campaign::from_spec(&spec, cfg.clone()).run(1, None).expect("tolerant run");
        let b = Campaign::from_spec(&back, cfg).run(1, None).expect("tolerant run");
        let a = wheels_xcal::export::to_json(&a.db).expect("original serializes");
        let b = wheels_xcal::export::to_json(&b.db).expect("round-tripped serializes");
        assert!(a == b, "{}: round-tripped spec ran a different campaign", spec.name);
    }
}
