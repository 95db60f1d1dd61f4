//! The edge-assisted CAV benchmark app (§7.1.2, §C).
//!
//! Offloads 10 FPS LIDAR point clouds (2 MB raw, 38 KB compressed) for
//! cooperative perception. The paper's headline: today's networks cannot
//! hit the 100 ms E2E budget such pipelines need — the best observed E2E
//! across the whole trip was 148 ms.

use crate::config::{OffloadConfig, CAV_CONFIG};
use crate::offload::{OffloadRun, OffloadSummary};
use crate::AppLink;

/// E2E latency budget for accurate cooperative view reconstruction, ms
/// (§7.1.2, citing the AVR/AutoCast line of work).
pub const CAV_DEADLINE_MS: f64 = 100.0;

/// Result of one CAV run.
#[derive(Debug, Clone)]
pub struct CavResult {
    /// The underlying offload summary.
    pub offload: OffloadSummary,
    /// Fraction of offloaded frames meeting the 100 ms budget.
    pub deadline_hit_frac: f64,
}

/// The CAV app.
#[derive(Debug, Clone, Copy)]
pub struct CavApp {
    /// Configuration (defaults to Table 4's CAV column).
    pub config: OffloadConfig,
}

impl Default for CavApp {
    fn default() -> Self {
        CavApp { config: CAV_CONFIG }
    }
}

impl CavApp {
    /// Run once for `run_s` seconds starting at `t0_s`, with or without
    /// point-cloud compression.
    pub fn run(
        &self,
        t0_s: f64,
        run_s: f64,
        compressed: bool,
        link: &mut dyn AppLink,
    ) -> CavResult {
        let offload = OffloadRun {
            config: self.config,
            compressed,
            run_s,
        }
        .execute(t0_s, link);
        let hits = offload
            .frames
            .iter()
            .filter(|f| f.e2e_ms <= CAV_DEADLINE_MS)
            .count();
        let deadline_hit_frac = if offload.frames.is_empty() {
            0.0
        } else {
            hits as f64 / offload.frames.len() as f64
        };
        CavResult {
            offload,
            deadline_hit_frac,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstantLink, LinkObs};

    #[test]
    fn even_ideal_5g_misses_the_100ms_budget_with_compression() {
        // §7.1.2: compression costs 34.8 + 19.1 ms, inference 44 ms —
        // 97.9 ms before a single network bit; the budget is unreachable.
        let r = CavApp::default().run(
            0.0,
            20.0,
            true,
            &mut ConstantLink {
                obs: LinkObs {
                    dl_mbps: 2_000.0,
                    ul_mbps: 400.0,
                    rtt_ms: 15.0,
                    in_handover: false,
                },
            },
        );
        assert_eq!(r.deadline_hit_frac, 0.0);
        assert!(r.offload.e2e_median_ms > 100.0);
    }

    #[test]
    fn uncompressed_needs_390_mbps_uplink() {
        // §7.1.2: 2000 KB in 41 ms needs ~390 Mbps. Check the arithmetic
        // falls out of our pipeline: at 390 Mbps + 15 ms RTT + 44 ms
        // inference, E2E ≈ 100 ms.
        let r = CavApp::default().run(
            0.0,
            20.0,
            false,
            &mut ConstantLink {
                obs: LinkObs {
                    dl_mbps: 2_000.0,
                    ul_mbps: 390.0,
                    rtt_ms: 15.0,
                    in_handover: false,
                },
            },
        );
        assert!((95.0..110.0).contains(&r.offload.e2e_median_ms), "{}", r.offload.e2e_median_ms);
    }

    #[test]
    fn compression_reduces_driving_e2e_about_8x() {
        // §7.1.2: "reducing the median E2E latency by 8X".
        let mut link = ConstantLink::poor();
        let with = CavApp::default().run(0.0, 20.0, true, &mut link);
        let without = CavApp::default().run(0.0, 20.0, false, &mut link);
        let ratio = without.offload.e2e_median_ms / with.offload.e2e_median_ms;
        assert!((4.0..20.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn driving_median_e2e_in_papers_range() {
        // Paper: median 269 ms (compressed) while driving.
        let r = CavApp::default().run(0.0, 20.0, true, &mut ConstantLink::poor());
        assert!((150.0..450.0).contains(&r.offload.e2e_median_ms), "{}", r.offload.e2e_median_ms);
    }
}
