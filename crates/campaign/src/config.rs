//! Campaign configuration.

use wheels_netsim::faults::FaultProfile;

/// Tunable parameters of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed: drives the drive plan, deployments, UEs, loggers.
    pub seed: u64,
    /// Fraction of round-robin cycles executed (1.0 = the full 8-day
    /// campaign; smaller values skip cycles but keep their time slots, so
    /// the surviving tests still span the whole route).
    pub scale: f64,
    /// Passive logger cadence, seconds.
    pub passive_tick_s: f64,
    /// UE link-snapshot cadence during tests, seconds.
    pub snapshot_tick_s: f64,
    /// Idle gap between consecutive tests, seconds.
    pub gap_s: f64,
    /// Apparatus fault injection profile (default
    /// [`FaultProfile::None`]: the machinery is a strict no-op and the
    /// output is bit-identical to a build without it).
    pub fault_profile: FaultProfile,
    /// Supervisor retry budget per work unit: a unit whose attempts all
    /// abort is marked `Lost` after `max_retries + 1` tries.
    pub max_retries: u32,
    /// Panel-total subscriber population override. `None` defers to the
    /// scenario's `subscribers` axis; `Some(0)` forces the fleet off;
    /// `Some(n)` overrides (or enables, with default demand mix) a fleet
    /// of `n` subscribers. `None`/0 is a strict no-op: the run is
    /// byte-identical to a build without the fleet subsystem.
    pub population: Option<u64>,
    /// Abort the whole campaign if any unit ends `Lost`: `Campaign::run`
    /// then fails with `CampaignError::Aborted`, at any worker count and
    /// with or without a checkpoint log.
    pub fail_fast: bool,
}

impl Default for CampaignConfig {
    /// The full paper-scale configuration at seed 0; the named
    /// constructors are overrides of this baseline.
    fn default() -> Self {
        CampaignConfig {
            seed: 0,
            scale: 1.0,
            passive_tick_s: 1.0,
            snapshot_tick_s: 0.1,
            gap_s: 4.0,
            fault_profile: FaultProfile::None,
            max_retries: 2,
            fail_fast: false,
            population: None,
        }
    }
}

impl CampaignConfig {
    /// The full 8-day campaign at paper scale.
    pub fn full(seed: u64) -> Self {
        CampaignConfig {
            seed,
            ..Self::default()
        }
    }

    /// A miniature campaign for tests/examples: ~4 % of cycles, coarser
    /// passive cadence.
    pub fn quick(seed: u64) -> Self {
        CampaignConfig {
            scale: 0.04,
            passive_tick_s: 5.0,
            ..Self::full(seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_is_full_scale() {
        let c = CampaignConfig::full(1);
        assert_eq!(c.scale, 1.0);
    }

    #[test]
    fn quick_is_subsampled() {
        let c = CampaignConfig::quick(1);
        assert!(c.scale < 0.2);
    }

    #[test]
    fn faults_are_off_by_default() {
        for c in [CampaignConfig::full(1), CampaignConfig::quick(1)] {
            assert_eq!(c.fault_profile, FaultProfile::None);
            assert_eq!(c.max_retries, 2);
            assert!(!c.fail_fast);
        }
    }
}
