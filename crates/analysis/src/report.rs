//! One-call full report: every artifact of [`ARTIFACTS`] that has a
//! section title, rendered into one markdown document. The sections fan
//! out through `ordered_stream`, so the bytes never depend on the job
//! count.

use std::convert::Infallible;

use wheels_geo::route::Route;
use wheels_xcal::export::ordered_stream;

use crate::artifacts::{ArtifactCtx, ARTIFACTS};
use crate::index::AnalysisIndex;

/// The full report as one markdown string, generated with `jobs` worker
/// threads over a shared index. Byte-identical for every job count.
pub fn generate_jobs(ix: &AnalysisIndex<'_>, route: &Route, jobs: usize) -> String {
    let ctx = ArtifactCtx {
        ix,
        route,
        // No section reads the fleet or the offload run length; a NaN
        // would show in any text that printed it.
        fleet: None,
        app_offload_s: f64::NAN,
        jobs,
    };
    let sections: Vec<_> = ARTIFACTS
        .iter()
        .filter_map(|a| Some((a.section?, a.render)))
        .collect();
    let mut out = String::from("# Campaign report\n\n");
    let Ok(()) = ordered_stream(
        sections.len(),
        jobs,
        |i| {
            let (title, render) = sections[i];
            format!("## {title}\n\n```\n{}\n```\n\n", render(&ctx).trim_end())
        },
        |section| {
            out.push_str(&section);
            Ok::<(), Infallible>(())
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_support::network_ix;

    #[test]
    fn report_contains_every_artifact() {
        let ix = network_ix();
        let route = Route::cross_country();
        let ctx = ArtifactCtx {
            ix,
            route: &route,
            fleet: None,
            app_offload_s: f64::NAN,
            jobs: 1,
        };
        let report = generate_jobs(ix, &route, 1);
        let mut sections = report.split("\n## ").skip(1);
        for a in ARTIFACTS.iter().filter(|a| a.section.is_some()) {
            let section = sections.next().expect("one section per titled entry");
            let (title, body) = section.split_once("\n\n```\n").expect("fenced body");
            assert_eq!(Some(title), a.section);
            let body = body.trim_end().strip_suffix("\n```").expect("closed fence");
            assert!(!body.trim().is_empty(), "{} is empty", a.id);
            assert_eq!(body, (a.render)(&ctx).trim_end(), "{}", a.id);
        }
        assert!(sections.next().is_none(), "a section with no entry");
        for title in ["Fig. 2", "Table 2", "Fig. 12", "MPTCP"] {
            assert!(report.contains(title), "missing {title}");
        }
    }

    #[test]
    fn parallel_report_is_byte_identical() {
        let ix = network_ix();
        let route = Route::cross_country();
        let sequential = generate_jobs(ix, &route, 1);
        for jobs in [2, 4, 19] {
            assert_eq!(
                sequential,
                generate_jobs(ix, &route, jobs),
                "report differs at {jobs} jobs"
            );
        }
    }
}
