//! # wheels
//!
//! Facade crate of the *Performance of Cellular Networks on the Wheels*
//! replication workspace. Re-exports every sub-crate under a short name;
//! a campaign runs through `Campaign::from_spec` and `Campaign::run`:
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
