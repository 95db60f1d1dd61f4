//! Integration test: the paper's headline findings hold on a
//! reduced-scale campaign, end to end (world → campaign → database →
//! analysis).

use std::sync::OnceLock;

use wheels::analysis::figures::{
    fig01_coverage_views, fig02_coverage, fig03_static_driving, fig11_handovers, share_5g,
    share_hs5g, table2_correlations,
};
use wheels::analysis::AnalysisIndex;
use wheels::campaign::{Campaign, CampaignConfig, ScenarioSpec};
use wheels::ran::{Direction, Operator};
use wheels::xcal::database::ConsolidatedDb;

fn db() -> &'static ConsolidatedDb {
    static DB: OnceLock<ConsolidatedDb> = OnceLock::new();
    DB.get_or_init(|| {
        let mut cfg = CampaignConfig::quick(314);
        cfg.scale = 0.12;
        cfg.passive_tick_s = 6.0;
        let mut spec = ScenarioSpec::paper();
        spec.schedule.run_apps = false;
        Campaign::from_spec(&spec, cfg).run(1, None).expect("tolerant run").db
    })
}

fn ix() -> &'static AnalysisIndex<'static> {
    static IX: OnceLock<AnalysisIndex<'static>> = OnceLock::new();
    IX.get_or_init(|| AnalysisIndex::build(db()))
}

#[test]
fn finding_coverage_order_tmobile_first() {
    // §4.2: T-Mobile ~68 % 5G; Verizon and AT&T ~18-22 %.
    let f = fig02_coverage::compute(ix());
    let t = share_5g(f.overall_for(Operator::TMobile));
    let v = share_5g(f.overall_for(Operator::Verizon));
    let a = share_5g(f.overall_for(Operator::Att));
    assert!(t > 0.45, "T-Mobile 5G {t}");
    assert!((0.05..0.40).contains(&v), "Verizon 5G {v}");
    assert!((0.05..0.40).contains(&a), "AT&T 5G {a}");
}

#[test]
fn finding_att_has_no_high_speed_5g() {
    // §4.2: high-speed 5G "as low as 3% (AT&T)".
    let f = fig02_coverage::compute(ix());
    assert!(share_hs5g(f.overall_for(Operator::Att)) < 0.10);
}

#[test]
fn finding_passive_probing_understates_coverage() {
    // §4.1 / Fig. 1.
    let v = fig01_coverage_views::compute(ix());
    for op in Operator::ALL {
        let (passive, active) = v.gap_for(op).unwrap();
        assert!(passive < active + 0.03, "{op}: {passive} vs {active}");
    }
}

#[test]
fn finding_driving_collapses_throughput() {
    // §5.1: driving medians are a few % of static ones.
    let f = fig03_static_driving::compute(ix());
    for op in Operator::ALL {
        let p = f.for_op(op);
        if p.static_dl.is_empty() {
            continue;
        }
        assert!(p.driving_dl.median() < p.static_dl.median() * 0.25, "{op}");
    }
}

#[test]
fn finding_low_throughput_tail() {
    // §5.1: ~35 % of driving samples below 5 Mbps.
    let f = fig03_static_driving::compute(ix());
    let frac = f.frac_driving_below_5mbps();
    assert!((0.15..0.60).contains(&frac), "{frac}");
}

#[test]
fn finding_no_kpi_dominates_throughput() {
    // Table 2.
    let t = table2_correlations::compute(ix());
    for (op, dir, kpi, r) in &t.entries {
        assert!(r.abs() < 0.8, "{op} {} {}: {r}", dir.label(), kpi.label());
    }
}

#[test]
fn finding_handovers_rare_and_brief() {
    // Fig. 11.
    let f = fig11_handovers::compute(ix());
    for op in Operator::ALL {
        let rate = f.per_mile_for(op, Direction::Downlink);
        let dur = f.duration_for(op, Direction::Downlink);
        if rate.len() > 30 {
            assert!(rate.median() < 8.0, "{op}: {} HOs/mile", rate.median());
        }
        if dur.len() > 30 {
            assert!(
                (30.0..110.0).contains(&dur.median()),
                "{op}: HO duration median {}",
                dur.median()
            );
        }
    }
}

#[test]
fn finding_table1_statistics_in_paper_ballpark() {
    let d = db();
    let cfg = CampaignConfig::quick(314);
    let campaign = Campaign::from_spec(&ScenarioSpec::paper(), cfg);
    let t1 = wheels::campaign::stats::Table1::compute(d, campaign.plan().route());
    assert!((t1.distance_km - 5_711.0).abs() < 2.0);
    assert_eq!(t1.timezones, 4);
    // Passive-logger handover counts land near Table 1's 2.5-4.1k.
    for (i, &h) in t1.handovers.iter().enumerate() {
        assert!((800..12_000).contains(&h), "op {i}: {h} handovers");
    }
    // T-Mobile hands over the most (densest midband layer churn).
    assert!(t1.handovers[1] > t1.handovers[0]);
    assert!(t1.handovers[1] > t1.handovers[2]);
}
