//! Fixture-corpus tests: every rule D1–D9 fires exactly on its `bad/`
//! file (with the expected rule ID and nothing else), and every
//! `allowed/` file lints clean. The same corpus backs the runtime
//! `wheels-lint --fixtures` self-check; this test pins it into
//! `cargo test`.

use std::path::{Path, PathBuf};

use wheels_lint::{check_fixtures, lint_fixture, Rule};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn lint_fixture_at(rel: &str) -> Vec<wheels_lint::Finding> {
    lint_fixture(&fixtures_dir().join(rel)).expect("fixture readable")
}

#[test]
fn every_rule_has_a_bad_fixture() {
    for rule in Rule::ALL {
        let prefix = rule.id().to_lowercase();
        let dir = fixtures_dir().join("bad");
        let found = std::fs::read_dir(&dir)
            .expect("bad/ exists")
            .filter_map(|e| e.ok())
            .any(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with(&format!("{prefix}_"))
            });
        assert!(found, "no bad/ fixture for rule {rule}");
    }
}

#[test]
fn bad_fixtures_fire_their_rule_and_only_it() {
    for rule in Rule::ALL {
        let dir = fixtures_dir().join("bad");
        for entry in std::fs::read_dir(&dir).expect("bad/ exists") {
            let path = entry.expect("entry").path();
            let name = path.file_name().unwrap().to_string_lossy().to_string();
            if !name.starts_with(&format!("{}_", rule.id().to_lowercase())) {
                continue;
            }
            let findings = lint_fixture(&path).expect("readable");
            let unsuppressed: Vec<_> = findings.iter().filter(|f| f.is_unsuppressed()).collect();
            assert!(
                !unsuppressed.is_empty(),
                "{name}: expected {rule} findings, got none"
            );
            for f in &unsuppressed {
                assert_eq!(
                    f.rule, rule,
                    "{name}: stray {} at line {}: {}",
                    f.rule, f.line, f.message
                );
            }
        }
    }
}

#[test]
fn bad_d1_fixture_fires_in_every_sink() {
    // One finding per ordering sink in the file: sort_by, the wrapped
    // sort_by, max_by, min_by, binary_search_by.
    let findings = lint_fixture_at("bad/d1_sort_partial_cmp.rs");
    assert_eq!(findings.len(), 5, "{findings:#?}");
}

#[test]
fn allowed_fixtures_are_clean() {
    let dir = fixtures_dir().join("allowed");
    for entry in std::fs::read_dir(&dir).expect("allowed/ exists") {
        let path = entry.expect("entry").path();
        let findings = lint_fixture(&path).expect("readable");
        let bad: Vec<_> = findings.iter().filter(|f| f.is_unsuppressed()).collect();
        assert!(
            bad.is_empty(),
            "{}: unexpected findings: {bad:#?}",
            path.display()
        );
    }
}

#[test]
fn allowed_suppressions_are_recorded_not_dropped() {
    // The allowed D4 fixture still *detects* the bare constructor — it
    // is suppressed with a reason, not invisible.
    let findings = lint_fixture_at("allowed/d4_derived_streams.rs");
    let suppressed: Vec<_> = findings.iter().filter(|f| !f.is_unsuppressed()).collect();
    assert_eq!(suppressed.len(), 1, "{findings:#?}");
    assert!(suppressed[0]
        .suppressed
        .as_deref()
        .unwrap()
        .contains("pre-derived"));
}

#[test]
fn runtime_self_check_agrees() {
    let results = check_fixtures(&fixtures_dir()).expect("fixtures readable");
    assert!(results.len() >= 10, "corpus went missing? {results:#?}");
    let failed: Vec<_> = results.iter().filter(|r| r.error.is_some()).collect();
    assert!(failed.is_empty(), "{failed:#?}");
}
