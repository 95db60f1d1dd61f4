//! # wheels
//!
//! Facade crate of the *Performance of Cellular Networks on the Wheels*
//! replication workspace. Re-exports every sub-crate under a short name
//! and offers a couple of one-call entry points.
//!
//! ```no_run
//! use wheels::campaign::{Campaign, CampaignConfig, ScenarioSpec};
//!
//! // A miniature version of the paper's 8-day campaign:
//! let campaign = Campaign::from_spec(&ScenarioSpec::paper(), CampaignConfig::quick(42));
//! let db = campaign.run(1, None).expect("tolerant run").db;
//! println!("{} tests", db.records.len());
//! ```
//!
//! See `examples/` for runnable scenarios and `wheels-bench`'s `repro`
//! binary for the full table/figure reproduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wheels_analysis as analysis;
pub use wheels_apps as apps;
pub use wheels_campaign as campaign;
pub use wheels_geo as geo;
pub use wheels_netsim as netsim;
pub use wheels_radio as radio;
pub use wheels_ran as ran;
pub use wheels_xcal as xcal;

use wheels_campaign::{Campaign, CampaignConfig, ScenarioSpec};
use wheels_xcal::database::ConsolidatedDb;

/// Run a miniature campaign (all test kinds, statics, passive loggers)
/// and return its consolidated database. Takes a few seconds.
pub fn quick_campaign(seed: u64) -> ConsolidatedDb {
    run_paper(seed, true)
}

/// Run a miniature network-tests-only campaign (no apps): the fastest way
/// to get a dataset with throughput/RTT/handover records.
pub fn quick_network_campaign(seed: u64) -> ConsolidatedDb {
    run_paper(seed, false)
}

/// Run the paper's world at [`CampaignConfig::quick`] scale on one
/// thread, with or without the app suite. Without fail-fast or a
/// checkpoint log the run tolerates every lost unit, so it cannot fail.
fn run_paper(seed: u64, run_apps: bool) -> ConsolidatedDb {
    let mut spec = ScenarioSpec::paper();
    spec.schedule.run_apps = run_apps;
    Campaign::from_spec(&spec, CampaignConfig::quick(seed))
        .run(1, None)
        .expect("tolerant run")
        .db
}
