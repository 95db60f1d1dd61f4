//! Golden-report equivalence: the full `repro all`-style report at smoke
//! scale must match a committed snapshot byte-for-byte, and the parallel
//! generator must agree with the sequential one.
//!
//! Regenerate the snapshots after an intentional output change with
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p wheels-analysis --test golden_report
//! ```
//!
//! and commit the updated files under `tests/golden/`.

use wheels_analysis::{report, AnalysisIndex};
use wheels_campaign::{Campaign, CampaignConfig, ScenarioSpec};

/// Smoke-scale campaign (mirrors `ReproScale::Smoke` in wheels-bench,
/// which this crate cannot depend on).
fn smoke_campaign(seed: u64) -> Campaign {
    let mut cfg = CampaignConfig::full(seed);
    cfg.scale = 0.02;
    cfg.passive_tick_s = 10.0;
    Campaign::from_spec(&ScenarioSpec::paper(), cfg)
}

fn check_seed(seed: u64) {
    let campaign = smoke_campaign(seed);
    let db = campaign.run(1, None).expect("tolerant run").db;
    let ix = AnalysisIndex::build(&db);
    let route = campaign.plan().route();

    let sequential = report::generate_jobs(&ix, route, 1);
    for jobs in [4, 19] {
        assert_eq!(
            sequential,
            report::generate_jobs(&ix, route, jobs),
            "seed {seed}: parallel report differs at {jobs} jobs"
        );
    }

    let golden_path = format!(
        "{}/tests/golden/report_smoke_seed{seed}.md",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&golden_path, &sequential).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {golden_path}: {e} (run with GOLDEN_REGEN=1 to create)"));
    assert_eq!(
        sequential, golden,
        "seed {seed}: report drifted from committed snapshot; if the change \
         is intentional, regenerate with GOLDEN_REGEN=1"
    );
}

#[test]
fn golden_report_seed_11() {
    check_seed(11);
}

#[test]
fn golden_report_seed_42() {
    check_seed(42);
}
