//! The artifact table: every id `repro` understands, listed once, with
//! its `--list` blurb, its report-section title and its renderer.
//! `repro` and [`crate::report`] both walk [`ARTIFACTS`] and fan the
//! renderers out through `wheels_xcal::export::ordered_stream`, which
//! hands the texts on in order, so no output depends on the worker count.

use wheels_campaign::stats::Table1;
use wheels_campaign::FleetSummary;
use wheels_geo::route::Route;

use crate::figures as figs;
use crate::index::AnalysisIndex;
use crate::map::render_fig1_maps_for;

/// What an entry is, which decides when `repro` renders it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A table or figure of the paper; `repro all` renders every one.
    Paper,
    /// The full markdown report of every section.
    Report,
    /// An experiment beyond the paper, rendered only when named.
    Extension,
}

/// What a renderer reads.
pub struct ArtifactCtx<'a> {
    /// The analysis index of the campaign.
    pub ix: &'a AnalysisIndex<'a>,
    /// The campaign's route.
    pub route: &'a Route,
    /// The campaign's subscriber-fleet ground truth, if it ran one.
    pub fleet: Option<&'a FleetSummary>,
    /// The scenario's AR/CAV run length, seconds (Table 4).
    pub app_offload_s: f64,
    /// Worker threads for the report's sections.
    pub jobs: usize,
}

/// One artifact.
pub struct Artifact {
    /// The id `repro` takes ("fig3", "table2", ...).
    pub id: &'static str,
    /// The one-line description `repro --list` prints.
    pub blurb: &'static str,
    /// When `repro` renders it.
    pub kind: Kind,
    /// Its heading in the full report; `None` keeps it out.
    pub section: Option<&'static str>,
    /// Render the artifact's text.
    pub render: fn(&ArtifactCtx<'_>) -> String,
}

/// Every artifact, in output order: the 21 paper artifacts in paper
/// order, the report, then the extensions.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        id: "table1",
        blurb: "driving dataset statistics",
        kind: Kind::Paper,
        section: None,
        render: |c| {
            let table = Table1::compute_for(c.ix.db(), c.route, c.ix.ops());
            format!("Table 1 — driving dataset statistics\n{}", table.render())
        },
    },
    Artifact {
        id: "fig1",
        blurb: "passive vs active coverage views + route maps",
        kind: Kind::Paper,
        section: Some("Fig. 1 — passive vs active coverage views"),
        render: |c| {
            let views = figs::fig01_coverage_views::compute(c.ix).render();
            let maps = render_fig1_maps_for(c.ix.db(), c.route.total_m(), 96, c.ix.ops());
            format!("{views}\n{maps}")
        },
    },
    Artifact {
        id: "fig2",
        blurb: "technology coverage shares",
        kind: Kind::Paper,
        section: Some("Fig. 2 — technology coverage"),
        render: |c| figs::fig02_coverage::compute(c.ix).render(),
    },
    Artifact {
        id: "fig3",
        blurb: "static vs driving performance CDFs",
        kind: Kind::Paper,
        section: Some("Fig. 3 — static vs driving performance"),
        render: |c| figs::fig03_static_driving::compute(c.ix).render(),
    },
    Artifact {
        id: "fig4",
        blurb: "per-technology performance",
        kind: Kind::Paper,
        section: Some("Fig. 4 — per-technology performance"),
        render: |c| figs::fig04_tech_perf::compute(c.ix).render(),
    },
    Artifact {
        id: "fig5",
        blurb: "throughput by timezone",
        kind: Kind::Paper,
        section: Some("Fig. 5 — throughput by timezone"),
        render: |c| figs::fig05_timezones::compute(c.ix).render(),
    },
    Artifact {
        id: "fig6",
        blurb: "operator-pair throughput diversity",
        kind: Kind::Paper,
        section: Some("Fig. 6 — operator diversity"),
        render: |c| figs::fig06_operator_diversity::compute(c.ix).render(),
    },
    Artifact {
        id: "fig7",
        blurb: "throughput vs vehicle speed",
        kind: Kind::Paper,
        section: Some("Fig. 7 — throughput vs speed"),
        render: |c| figs::fig07_speed_tput::compute(c.ix).render(),
    },
    Artifact {
        id: "fig8",
        blurb: "RTT vs vehicle speed",
        kind: Kind::Paper,
        section: Some("Fig. 8 — RTT vs speed"),
        render: |c| figs::fig08_speed_rtt::compute(c.ix).render(),
    },
    Artifact {
        id: "table2",
        blurb: "KPI-throughput Pearson correlations",
        kind: Kind::Paper,
        section: Some("Table 2 — KPI correlations"),
        render: |c| figs::table2_correlations::compute(c.ix).render(),
    },
    Artifact {
        id: "fig9",
        blurb: "per-test mean/stddev statistics",
        kind: Kind::Paper,
        section: Some("Fig. 9 — per-test statistics"),
        render: |c| figs::fig09_test_stats::compute(c.ix).render(),
    },
    Artifact {
        id: "fig10",
        blurb: "performance vs time on high-speed 5G",
        kind: Kind::Paper,
        section: Some("Fig. 10 — performance vs hs5G time"),
        render: |c| figs::fig10_hs5g::compute(c.ix).render(),
    },
    Artifact {
        id: "table3",
        blurb: "Ookla Q3 2022 comparison",
        kind: Kind::Paper,
        section: Some("Table 3 — Ookla comparison"),
        render: |c| figs::table3_ookla::compute(c.ix).render(),
    },
    Artifact {
        id: "fig11",
        blurb: "handover rates and durations",
        kind: Kind::Paper,
        section: Some("Fig. 11 — handover statistics"),
        render: |c| figs::fig11_handovers::compute(c.ix).render(),
    },
    Artifact {
        id: "fig12",
        blurb: "throughput impact of handovers",
        kind: Kind::Paper,
        section: Some("Fig. 12 — handover impact"),
        render: |c| figs::fig12_ho_impact::compute(c.ix).render(),
    },
    Artifact {
        id: "table4",
        blurb: "AR/CAV offload configuration",
        kind: Kind::Paper,
        section: None,
        render: |c| {
            let table = wheels_apps::config::render_table4(c.app_offload_s);
            format!("Table 4 — AR/CAV configuration\n{table}")
        },
    },
    Artifact {
        id: "table5",
        blurb: "mAP vs E2E latency table",
        kind: Kind::Paper,
        section: None,
        render: |_| wheels_apps::map_table::render_table5(),
    },
    Artifact {
        id: "fig13",
        blurb: "AR offloading results",
        kind: Kind::Paper,
        section: Some("Fig. 13/18/19 — AR"),
        render: |c| figs::fig13_ar::compute(c.ix).render(),
    },
    Artifact {
        id: "fig14",
        blurb: "CAV offloading results",
        kind: Kind::Paper,
        section: Some("Fig. 14/20 — CAV"),
        render: |c| figs::fig14_cav::compute(c.ix).render(),
    },
    Artifact {
        id: "fig15",
        blurb: "360° video streaming results",
        kind: Kind::Paper,
        section: Some("Fig. 15/21 — 360° video"),
        render: |c| figs::fig15_video::compute(c.ix).render(),
    },
    Artifact {
        id: "fig16",
        blurb: "cloud gaming results",
        kind: Kind::Paper,
        section: Some("Fig. 16/22 — cloud gaming"),
        render: |c| figs::fig16_gaming::compute(c.ix).render(),
    },
    Artifact {
        id: "report",
        blurb: "full markdown report (all artifacts + maps)",
        kind: Kind::Report,
        section: None,
        render: |c| crate::report::generate_jobs(c.ix, c.route, c.jobs),
    },
    Artifact {
        id: "ext-mptcp",
        blurb: "MPTCP multi-operator what-if (extension)",
        kind: Kind::Extension,
        section: Some("Extension — MPTCP over three operators"),
        render: |c| figs::ext_multipath::compute(c.ix).render(),
    },
    Artifact {
        id: "ext-fleet",
        blurb: "probe panel vs subscriber-fleet ground truth (extension)",
        kind: Kind::Extension,
        section: None,
        render: |c| figs::ext_fleet::compute(c.ix, c.fleet).render(),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_support::network_ix;

    #[test]
    fn table_holds_21_paper_artifacts_a_report_and_2_extensions() {
        let count = |kind| ARTIFACTS.iter().filter(|a| a.kind == kind).count();
        // 16 figures + 5 tables.
        assert_eq!(count(Kind::Paper), 21);
        assert_eq!(count(Kind::Report), 1);
        assert_eq!(count(Kind::Extension), 2);
        // Paper artifacts first, then the report, then the extensions.
        let kinds: Vec<Kind> = ARTIFACTS.iter().map(|a| a.kind).collect();
        assert!(kinds.is_sorted_by_key(|&k| k as u8), "{kinds:?}");
    }

    #[test]
    fn ids_are_unique() {
        for (i, a) in ARTIFACTS.iter().enumerate() {
            assert!(
                ARTIFACTS[..i].iter().all(|b| b.id != a.id),
                "{} listed twice",
                a.id
            );
            assert!(!a.blurb.is_empty(), "{} has no blurb", a.id);
        }
        // `repro` reads `all` and anything starting with `-` before ids.
        assert!(
            ARTIFACTS
                .iter()
                .all(|a| a.id != "all" && !a.id.starts_with('-')),
            "an id `repro` cannot take"
        );
    }

    #[test]
    fn section_titles_follow_the_committed_report_order() {
        let titles: Vec<&str> = ARTIFACTS.iter().filter_map(|a| a.section).collect();
        let report = include_str!("../tests/golden/report_smoke_seed11.md");
        let headings: Vec<&str> = report
            .lines()
            .filter_map(|l| l.strip_prefix("## "))
            .collect();
        assert_eq!(titles.len(), 19);
        assert_eq!(titles, headings);
    }

    #[test]
    fn every_entry_renders_text() {
        let route = Route::cross_country();
        let ctx = ArtifactCtx {
            ix: network_ix(),
            route: &route,
            fleet: None,
            app_offload_s: 20.0,
            jobs: 2,
        };
        for a in ARTIFACTS {
            assert!(
                !(a.render)(&ctx).trim().is_empty(),
                "{} renders nothing",
                a.id
            );
        }
    }
}
