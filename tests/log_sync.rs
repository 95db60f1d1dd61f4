//! §B end to end: the campaign's app logs pair with its XCAL logs across
//! timezones and timestamp formats — and the naive matcher demonstrably
//! fails west of Eastern time.
//!
//! Note: `CampaignLogs` vectors are in execution order (app[i] belongs to
//! xcal[i]); the consolidated database is time-sorted, so tests work on
//! the logs alone.

use wheels::campaign::runner::CampaignLogs;
use wheels::campaign::{Campaign, CampaignConfig, ScenarioSpec};
use wheels::xcal::logger::XcalLog;
use wheels::xcal::sync::{match_logs, match_logs_naive};
use wheels::xcal::timestamp::Timestamp;

fn logs() -> CampaignLogs {
    let mut cfg = CampaignConfig::quick(8);
    cfg.scale = 0.015;
    let mut spec = ScenarioSpec::paper();
    spec.schedule.run_apps = false;
    spec.schedule.run_static = false;
    spec.schedule.run_passive = false;
    let campaign = Campaign::from_spec(&spec, cfg);
    let db = campaign.run(1, None).expect("tolerant run").db;
    campaign.build_logs(&db)
}

/// Hours the XCAL filename stamp lags the (EDT) content stamp — 0 in the
/// Eastern zone, negative further west.
fn filename_offset_hours(x: &XcalLog) -> i64 {
    let stem = x.file_name.strip_suffix(".drm").unwrap();
    let mut parts = stem.rsplitn(3, '_');
    let hms = parts.next().unwrap();
    let day = parts.next().unwrap();
    let mut h = hms.split('-');
    let s = format!(
        "2022-08-{} {}:{}:{}.000",
        day,
        h.next().unwrap(),
        h.next().unwrap(),
        h.next().unwrap()
    );
    let file_as_edt = Timestamp::parse_edt(&s).unwrap().plan_s;
    let content = Timestamp::parse_edt(&x.content_start_edt).unwrap().plan_s;
    ((file_as_edt - content) / 3_600.0).round() as i64
}

#[test]
fn campaign_logs_sync_perfectly_with_correct_matcher() {
    let logs = logs();
    assert!(logs.xcal.len() > 30, "need tests across multiple timezones");
    // The campaign crosses timezones (the hard part of §B): the filename
    // stamps lag the EDT contents by 0 to -3 hours along the way.
    let mut offsets: Vec<i64> = logs.xcal.iter().map(filename_offset_hours).collect();
    offsets.sort_unstable();
    offsets.dedup();
    assert!(offsets.len() >= 3, "only {offsets:?} timezone offsets seen");

    let matches = match_logs(&logs.app, &logs.xcal);
    for (i, m) in matches.iter().enumerate() {
        assert_eq!(*m, Some(i), "app log {i} paired wrongly");
    }
}

#[test]
fn naive_matcher_loses_western_logs() {
    let logs = logs();
    let naive = match_logs_naive(&logs.app, &logs.xcal);
    let mut wrong_west = 0usize;
    let mut west = 0usize;
    for (i, x) in logs.xcal.iter().enumerate() {
        if filename_offset_hours(x) != 0 {
            west += 1;
            if naive[i] != Some(i) {
                wrong_west += 1;
            }
        } else {
            // In EDT the filename stamp happens to be correct.
            assert_eq!(naive[i], Some(i), "naive matcher should work in EDT");
        }
    }
    assert!(west > 10);
    assert!(
        wrong_west as f64 > west as f64 * 0.9,
        "naive matching should fail for ~all western logs: {wrong_west}/{west}"
    );
}
