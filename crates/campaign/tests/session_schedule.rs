//! App sessions run for the lengths the scenario schedule sets.
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

use std::collections::BTreeMap;

use wheels_campaign::{Campaign, CampaignConfig, ScenarioSpec};

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
