//! The `repro` binary's command line, end to end: a bad command line
//! exits 2 with the usage before any campaign runs, and `--help` exits 0
//! without one. A campaign announces itself with "running campaign" on
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
