//! The edge-assisted AR benchmark app (§7.1.1, §C).
//!
//! Offloads 30 FPS camera frames for DNN object detection; an on-device
//! local tracker moves stale bounding boxes forward between server
//! results, so accuracy degrades gracefully with E2E latency (Table 5).

use crate::config::{OffloadConfig, AR_CONFIG};
use crate::map_table::map_for_latency_ms;
use crate::offload::{OffloadRun, OffloadSummary};
use crate::AppLink;

/// Result of one AR run.
#[derive(Debug, Clone)]
pub struct ArResult {
    /// The underlying offload summary.
    pub offload: OffloadSummary,
    /// Object-detection accuracy, mAP % (mean over frames via Table 5).
    pub map_accuracy: f64,
}

/// The AR app.
#[derive(Debug, Clone, Copy)]
pub struct ArApp {
    /// Configuration (defaults to Table 4's AR column).
    pub config: OffloadConfig,
}

impl Default for ArApp {
    fn default() -> Self {
        ArApp { config: AR_CONFIG }
    }
}

impl ArApp {
    /// Run once for `run_s` seconds starting at `t0_s`, with or without
    /// frame compression.
    pub fn run(&self, t0_s: f64, run_s: f64, compressed: bool, link: &mut dyn AppLink) -> ArResult {
        let offload = OffloadRun {
            config: self.config,
            compressed,
            run_s,
        }
        .execute(t0_s, link);
        // Per-frame accuracy via Table 5, averaged — the tracker produces a
        // result for *every* source frame, its quality set by how stale the
        // latest server result is.
        let map_accuracy = if offload.frames.is_empty() {
            // No frame ever completed: tracker flies blind at the floor.
            map_for_latency_ms(10_000.0, self.config.fps, compressed)
        } else {
            offload
                .frames
                .iter()
                .map(|f| map_for_latency_ms(f.e2e_ms, self.config.fps, compressed))
                .sum::<f64>()
                / offload.frames.len() as f64
        };
        ArResult {
            offload,
            map_accuracy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstantLink;

    #[test]
    fn best_static_accuracy_ballpark() {
        // Paper: best static achieves mAP 36.5 at E2E 68 ms.
        let r = ArApp::default().run(0.0, 20.0, true, &mut ConstantLink::good());
        assert!((33.0..38.5).contains(&r.map_accuracy), "{}", r.map_accuracy);
    }

    #[test]
    fn driving_accuracy_lower() {
        let good = ArApp::default().run(0.0, 20.0, true, &mut ConstantLink::good());
        let poor = ArApp::default().run(0.0, 20.0, true, &mut ConstantLink::poor());
        assert!(poor.map_accuracy < good.map_accuracy - 2.0);
        // Paper driving median mAP ≈ 30 with compression.
        assert!((20.0..33.0).contains(&poor.map_accuracy), "{}", poor.map_accuracy);
    }

    #[test]
    fn compression_helps_on_weak_links() {
        let with = ArApp::default().run(0.0, 20.0, true, &mut ConstantLink::poor());
        let without = ArApp::default().run(0.0, 20.0, false, &mut ConstantLink::poor());
        assert!(with.offload.e2e_median_ms < without.offload.e2e_median_ms);
        assert!(with.map_accuracy > without.map_accuracy);
    }

    #[test]
    fn accuracy_never_exceeds_table_max() {
        let r = ArApp::default().run(
            0.0,
            20.0,
            true,
            &mut ConstantLink {
                obs: crate::LinkObs {
                    dl_mbps: 10_000.0,
                    ul_mbps: 10_000.0,
                    rtt_ms: 0.1,
                    in_handover: false,
                },
            },
        );
        assert!(r.map_accuracy <= 38.45 + 1e-9);
    }
}
