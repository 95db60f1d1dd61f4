//! The `repro` binary's command line, end to end: a bad command line
//! exits 2 with the usage before any campaign runs, and `--help` exits 0
//! without one. `repro` and `dataset` both end quietly when their stdout
//! reader has gone away. A campaign announces itself with "running campaign" on
//! stderr, so its absence shows nothing ran.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// `args` exits 2, names `why` and prints the usage on stderr, and runs
/// no campaign.
fn assert_usage_error(args: &[&str], why: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(why), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    assert!(!stderr.contains("running campaign"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
}

#[test]
fn an_unknown_experiment_id_is_a_usage_error() {
    assert_usage_error(
        &["--scale", "smoke", "fig99"],
        "unknown experiment id \"fig99\"",
    );
    assert_usage_error(&["--scale", "smoke", "table1", "fig99"], "fig99");
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    assert_usage_error(
        &["--scale", "smoke", "--sede", "3", "table1"],
        "unknown flag --sede",
    );
}

#[test]
fn a_missing_or_bad_value_is_a_usage_error() {
    assert_usage_error(
        &["--scale", "smoke", "table1", "--seed"],
        "--seed needs a value",
    );
    assert_usage_error(
        &["--scale", "smoke", "--seed", "x", "table1"],
        "--seed needs a number",
    );
    assert_usage_error(&["--scale", "bogus", "table1"], "unknown scale");
    assert_usage_error(
        &["--scale", "smoke", "--jobs", "0", "table1"],
        "--jobs needs",
    );
    assert_usage_error(
        &["--fault-profile", "bogus", "table1"],
        "unknown fault profile",
    );
    assert_usage_error(&["--resume", "table1"], "need --checkpoint-dir");
}

#[test]
fn no_experiment_ids_is_a_usage_error() {
    assert_usage_error(&["--scale", "smoke"], "no experiment ids");
}

#[test]
fn help_prints_the_usage_and_runs_nothing() {
    // No --scale: without the early exit this would be a full-scale run.
    let out = repro(&["--help", "table1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("running campaign"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: repro"), "{stdout}");
    assert!(stdout.contains("ext-fleet"), "{stdout}");
}

#[test]
fn a_repeated_id_prints_once_where_first_named() {
    for (ids, title) in [
        (&["all", "all"][..], "Table 1 — driving dataset statistics"),
        (&["fig2", "table5", "fig2"], "Fig. 2a — technology coverage"),
        (&["fig2", "fig2"], "Fig. 2a — technology coverage"),
    ] {
        let out = repro(&[&["--scale", "smoke", "--seed", "3"], ids].concat());
        assert_eq!(out.status.code(), Some(0), "{ids:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with(title), "{ids:?}:\n{stdout}");
        assert_eq!(stdout.matches(title).count(), 1, "{ids:?}:\n{stdout}");
    }
}

/// Run `bin args` with its stdout on a pipe whose read end is already
/// closed, as `repro --list | head -0` leaves it.
fn into_closed_pipe(bin: &str, args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(bin)
        .args(args)
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .output()
        .expect("repro runs")
}

#[test]
fn a_closed_stdout_ends_quietly() {
    let repro = env!("CARGO_BIN_EXE_repro");
    for (bin, args) in [
        (repro, &["--list"][..]),
        (repro, &["--help"]),
        (repro, &["--scenario-dump"]),
        (repro, &["--scale", "smoke", "--seed", "3", "table4", "table5"]),
        (env!("CARGO_BIN_EXE_dataset"), &["--help"]),
    ] {
        let out = into_closed_pipe(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "{bin} {args:?} panicked: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("Broken pipe"), "{bin} {args:?}: {stderr}");
    }
}

#[test]
fn a_closed_stdout_still_writes_the_timings_file() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("closed-pipe-timings.json");
    let _ = std::fs::remove_file(&path);
    let file = path.to_string_lossy();
    let out = into_closed_pipe(env!("CARGO_BIN_EXE_repro"), &["--scale", "smoke", "--timings-json", &file, "table1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let timings = std::fs::read_to_string(&path).expect("timings file written");
    assert!(timings.contains("\"campaign_s\""), "{timings}");
}

/// A scenario file holding the paper's world with `edit` applied.
fn scenario_file(name: &str, edit: impl FnOnce(&mut wheels_campaign::ScenarioSpec)) -> String {
    let mut spec = wheels_campaign::ScenarioSpec::paper();
    edit(&mut spec);
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let json = serde_json::to_string_pretty(&spec).expect("spec serializes");
    std::fs::write(&path, json).expect("write scenario file");
    path.to_string_lossy().into_owned()
}

#[test]
fn an_unbounded_scenario_is_rejected_before_any_campaign() {
    let long_video = scenario_file("long-video.json", |s| s.schedule.video_s = 1e12);
    let off_globe = scenario_file("off-globe.json", |s| s.route.cities[0].lat = 1000.0);
    let long_road = scenario_file("long-road.json", |s| s.route.target_total_m = Some(1e12));
    // No target, so the odometer is the great-circle length: a city on
    // the far side of the globe makes that about 33 000 km.
    let long_drive = scenario_file("long-drive.json", |s| {
        s.route.target_total_m = None;
        s.route.cities[1].lat = -40.0;
        s.route.cities[1].lon = 100.0;
    });
    for (file, why) in [
        (&long_video, "video_s"),
        (&off_globe, "off the globe"),
        (&long_road, "road factor"),
        (&long_drive, "route length"),
    ] {
        let out = repro(&["--scale", "smoke", "--scenario", file, "table1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{file}: {stderr}");
        assert!(stderr.contains("invalid scenario"), "{file}: {stderr}");
        assert!(stderr.contains(why), "{file}: {stderr}");
        assert!(!stderr.contains("running campaign"), "{file}: {stderr}");
    }
}
