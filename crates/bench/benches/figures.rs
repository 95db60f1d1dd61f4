//! One bench per table/figure: measures the analysis pass that
//! regenerates the artifact from the consolidated database, and prints the
//! artifact once so the bench log doubles as a reduced-scale report.
//!
//! (The full-scale artifacts come from `--bin repro`; see EXPERIMENTS.md.)

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::OnceLock;

use wheels_analysis::figures as figs;
use wheels_analysis::AnalysisIndex;
use wheels_bench::ReproScale;
use wheels_campaign::{Campaign, ScenarioSpec};
use wheels_campaign::stats::Table1;
use wheels_xcal::database::ConsolidatedDb;

/// The paper's world at smoke scale, and its dataset.
fn smoke(seed: u64) -> (Campaign, ConsolidatedDb) {
    let campaign = Campaign::from_spec(&ScenarioSpec::paper(), ReproScale::Smoke.config(seed));
    let db = campaign.run(1, None).expect("tolerant run").db;
    (campaign, db)
}

fn db() -> &'static (Campaign, ConsolidatedDb) {
    static DB: OnceLock<(Campaign, ConsolidatedDb)> = OnceLock::new();
    DB.get_or_init(|| smoke(2026))
}

fn ix() -> &'static AnalysisIndex<'static> {
    static IX: OnceLock<AnalysisIndex<'static>> = OnceLock::new();
    IX.get_or_init(|| AnalysisIndex::build(&db().1))
}

macro_rules! fig_bench {
    ($fn_name:ident, $bench_name:expr, $module:ident) => {
        fn $fn_name(c: &mut Criterion) {
            let index = ix();
            // Print the reduced-scale artifact once for the bench log.
            eprintln!("{}", figs::$module::compute(index).render());
            c.bench_function($bench_name, |b| {
                b.iter(|| black_box(figs::$module::compute(index)))
            });
        }
    };
}

fn bench_campaign(c: &mut Criterion) {
    // The campaign run itself, at smoke scale (one sample per iteration is
    // already seconds of simulated tests).
    let mut g = c.benchmark_group("campaign");
    g.sample_size(10);
    g.bench_function("run_smoke_scale", |b| {
        b.iter(|| black_box(smoke(7)))
    });
    g.finish();
}

fn bench_table1(c: &mut Criterion) {
    let (campaign, database) = db();
    eprintln!("{}", Table1::compute(database, campaign.plan().route()).render());
    c.bench_function("table1", |b| {
        b.iter(|| black_box(Table1::compute(database, campaign.plan().route())))
    });
}

fig_bench!(bench_fig1, "fig1_coverage_views", fig01_coverage_views);
fig_bench!(bench_fig2, "fig2_coverage", fig02_coverage);
fig_bench!(bench_fig3, "fig3_static_vs_driving", fig03_static_driving);
fig_bench!(bench_fig4, "fig4_tech_perf", fig04_tech_perf);
fig_bench!(bench_fig5, "fig5_timezones", fig05_timezones);
fig_bench!(bench_fig6, "fig6_operator_diversity", fig06_operator_diversity);
fig_bench!(bench_fig7, "fig7_speed_tput", fig07_speed_tput);
fig_bench!(bench_fig8, "fig8_speed_rtt", fig08_speed_rtt);
fig_bench!(bench_table2, "table2_correlations", table2_correlations);
fig_bench!(bench_fig9, "fig9_test_stats", fig09_test_stats);
fig_bench!(bench_fig10, "fig10_hs5g", fig10_hs5g);
fig_bench!(bench_table3, "table3_ookla", table3_ookla);
fig_bench!(bench_fig11, "fig11_handovers", fig11_handovers);
fig_bench!(bench_fig12, "fig12_ho_impact", fig12_ho_impact);
fig_bench!(bench_fig13, "fig13_ar", fig13_ar);
fig_bench!(bench_fig14, "fig14_cav", fig14_cav);
fig_bench!(bench_fig15, "fig15_video", fig15_video);
fig_bench!(bench_fig16, "fig16_gaming", fig16_gaming);

criterion_group!(
    benches,
    bench_campaign,
    bench_table1,
    bench_fig1,
    bench_fig2,
    bench_fig3,
    bench_fig4,
    bench_fig5,
    bench_fig6,
    bench_fig7,
    bench_fig8,
    bench_table2,
    bench_fig9,
    bench_fig10,
    bench_table3,
    bench_fig11,
    bench_fig12,
    bench_fig13,
    bench_fig14,
    bench_fig15,
    bench_fig16
);
criterion_main!(benches);
