//! Operator service-elevation (upgrade) policies.
//!
//! A central methodological finding of the paper (§4.1 / challenge C3):
//! *"operators often deploy complex policies in deciding whether to elevate
//! a UE's service from LTE to 5G ... UEs often fall back to LTE or do not
//! switch to 5G in the absence of heavy traffic"*, and (§4.2 / Fig. 2b)
//! *"operators are more likely to upgrade a UE's service to high-speed 5G in
//! the presence of backlogged downlink traffic, while they tend to prefer
//! 5G-low or 4G for backlogged uplink traffic."*
//!
//! [`UpgradePolicy`] encodes this as per-(operator, target-technology,
//! demand) promotion probabilities, evaluated at sticky intervals. The
//! passive handover-logger (38-byte pings every 200 ms) presents
//! [`TrafficDemand::Ping`], the throughput tests present
//! [`TrafficDemand::Backlog`] — the gap between the two is exactly what
//! makes Fig. 1's two coverage views disagree.

use wheels_radio::band::Technology;

use crate::operator::Operator;
use crate::Direction;

/// What the UE's traffic looks like to the network's elevation logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficDemand {
    /// Radio kept alive but effectively no traffic.
    Idle,
    /// Light ICMP keep-alive traffic (the handover-logger, RTT tests).
    Ping,
    /// A saturating transfer in one direction (throughput tests, app
    /// uploads/downloads).
    Backlog(Direction),
}

/// Promotion-probability policy. Probabilities are per *policy evaluation*
/// (roughly every 8–15 s), not per tick.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpgradePolicy;

impl UpgradePolicy {
    /// Probability that `op` elevates a UE to `target` under `demand`,
    /// given the layer is available at this location.
    ///
    /// LTE/LTE-A are anchors, not elevation targets: they return 1.0
    /// (always allowed).
    pub fn promotion_prob(&self, op: Operator, target: Technology, demand: TrafficDemand) -> f64 {
        use Operator::*;
        use Technology::*;
        match target {
            Lte | LteA => 1.0,
            Nr5gLow => match demand {
                TrafficDemand::Idle => match op {
                    Verizon => 0.15,
                    TMobile => 0.40,
                    // Fig. 1d: the AT&T handover-logger saw *only*
                    // LTE/LTE-A across the whole country.
                    Att => 0.01,
                },
                TrafficDemand::Ping => match op {
                    Verizon => 0.25,
                    TMobile => 0.55,
                    Att => 0.02,
                },
                TrafficDemand::Backlog(Direction::Downlink) => match op {
                    Verizon => 0.70,
                    TMobile => 0.85,
                    Att => 0.80,
                },
                TrafficDemand::Backlog(Direction::Uplink) => match op {
                    Verizon => 0.60,
                    TMobile => 0.80,
                    Att => 0.75,
                },
            },
            Nr5gMid => match demand {
                TrafficDemand::Idle => match op {
                    Verizon => 0.08,
                    TMobile => 0.25,
                    Att => 0.02,
                },
                TrafficDemand::Ping => match op {
                    Verizon => 0.15,
                    TMobile => 0.35,
                    Att => 0.05,
                },
                TrafficDemand::Backlog(Direction::Downlink) => match op {
                    Verizon => 0.85,
                    TMobile => 0.88,
                    Att => 0.70,
                },
                TrafficDemand::Backlog(Direction::Uplink) => match op {
                    Verizon => 0.45,
                    TMobile => 0.65,
                    Att => 0.35,
                },
            },
            Nr5gMmWave => match demand {
                // §5.5 / Fig. 8: essentially no mmWave under ping traffic
                // except when (nearly) stationary — the caller gates this
                // further on speed.
                TrafficDemand::Idle => 0.01,
                TrafficDemand::Ping => match op {
                    Verizon => 0.06,
                    TMobile => 0.02,
                    Att => 0.04,
                },
                TrafficDemand::Backlog(Direction::Downlink) => match op {
                    Verizon => 0.85,
                    TMobile => 0.50,
                    Att => 0.70,
                },
                TrafficDemand::Backlog(Direction::Uplink) => match op {
                    Verizon => 0.55,
                    TMobile => 0.45,
                    Att => 0.35,
                },
            },
        }
    }

    /// Elevation preference order: fastest first.
    pub const PREFERENCE: [Technology; 3] = [
        Technology::Nr5gMmWave,
        Technology::Nr5gMid,
        Technology::Nr5gLow,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_always_allowed() {
        let p = UpgradePolicy;
        for op in Operator::ALL {
            assert_eq!(
                p.promotion_prob(op, Technology::Lte, TrafficDemand::Idle),
                1.0
            );
            assert_eq!(
                p.promotion_prob(op, Technology::LteA, TrafficDemand::Ping),
                1.0
            );
        }
    }

    #[test]
    fn dl_backlog_promotes_high_speed_more_than_ul() {
        // Fig. 2b: high-speed 5G coverage higher for DL for all carriers.
        let p = UpgradePolicy;
        for op in Operator::ALL {
            for tech in [Technology::Nr5gMid, Technology::Nr5gMmWave] {
                let dl = p.promotion_prob(op, tech, TrafficDemand::Backlog(Direction::Downlink));
                let ul = p.promotion_prob(op, tech, TrafficDemand::Backlog(Direction::Uplink));
                assert!(dl > ul, "{op} {tech}");
            }
        }
    }

    #[test]
    fn ping_promotes_far_less_than_backlog() {
        // Fig. 1: passive logging sees mostly LTE.
        let p = UpgradePolicy;
        for op in Operator::ALL {
            for tech in UpgradePolicy::PREFERENCE {
                let ping = p.promotion_prob(op, tech, TrafficDemand::Ping);
                let dl = p.promotion_prob(op, tech, TrafficDemand::Backlog(Direction::Downlink));
                assert!(dl > ping, "{op} {tech}: ping {ping} dl {dl}");
                if tech.is_high_speed() {
                    assert!(dl >= 2.0 * ping, "{op} {tech}: ping {ping} dl {dl}");
                }
            }
        }
    }

    #[test]
    fn att_passive_is_essentially_lte_only() {
        let p = UpgradePolicy;
        for tech in UpgradePolicy::PREFERENCE {
            assert!(p.promotion_prob(Operator::Att, tech, TrafficDemand::Ping) <= 0.05);
        }
    }

    #[test]
    fn probabilities_are_probabilities() {
        let p = UpgradePolicy;
        for op in Operator::ALL {
            for tech in Technology::ALL {
                for demand in [
                    TrafficDemand::Idle,
                    TrafficDemand::Ping,
                    TrafficDemand::Backlog(Direction::Downlink),
                    TrafficDemand::Backlog(Direction::Uplink),
                ] {
                    let pr = p.promotion_prob(op, tech, demand);
                    assert!((0.0..=1.0).contains(&pr));
                }
            }
        }
    }
}
