//! # wheels-bench
//!
//! The reproduction harness behind the `repro` binary:
//! `cargo run --release -p wheels-bench --bin repro -- <id|all>` runs the
//! campaign (full scale by default) and prints every table and figure of
//! the paper. `repro all` emits the complete report used to fill
//! EXPERIMENTS.md. Timings come from the `benchmark/` package, which
//! drives this binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use wheels_campaign::CampaignConfig;

/// Scale presets for the repro binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReproScale {
    /// Full 8-day campaign (the paper's scale).
    Full,
    /// ~1/4 density: same shape, faster.
    Quarter,
    /// Miniature: smoke-test the plumbing.
    Smoke,
}

impl ReproScale {
    /// The preset a `--scale` value names: `full`, `quarter` or `smoke`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "full" => Some(ReproScale::Full),
            "quarter" => Some(ReproScale::Quarter),
            "smoke" => Some(ReproScale::Smoke),
            _ => None,
        }
    }

    /// The campaign config for this preset.
    pub fn config(self, seed: u64) -> CampaignConfig {
        let mut cfg = CampaignConfig::full(seed);
        match self {
            ReproScale::Full => {}
            ReproScale::Quarter => cfg.scale = 0.25,
            ReproScale::Smoke => {
                cfg.scale = 0.02;
                cfg.passive_tick_s = 10.0;
            }
        }
        cfg
    }
}

/// The experiment ids the repro binary understands, in paper order.
pub const EXPERIMENTS: &[&str] = &[
    "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table2", "fig9",
    "fig10", "table3", "fig11", "fig12", "table4", "table5", "fig13", "fig14", "fig15", "fig16",
];

/// Extension experiments beyond the paper's artifacts (run with
/// `repro ext-mptcp`, not included in `all`).
pub const EXTENSIONS: &[&str] = &["ext-mptcp", "ext-fleet"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_list_covers_every_artifact() {
        // 16 figures + 5 tables = 21 artifacts.
        assert_eq!(EXPERIMENTS.len(), 21);
    }
}
