//! The best-effort frame-offloading pipeline shared by the AR and CAV apps.
//!
//! §C.1: the Android app "offloads pre-recorded frames to an edge GPU
//! server in a best-effort manner" — i.e. the next frame is picked up at
//! the first capture instant after the previous offload completes; frames
//! arriving while the pipeline is busy are skipped (the local tracker
//! covers for them).
//!
//! Per-frame E2E latency = compression + uplink transfer + uplink
//! propagation (RTT/2) + server inference (+ decompression for compressed
//! frames, server side) + downlink result propagation (RTT/2). The result
//! payload (bounding boxes) is negligible against the uplink frame.

use crate::config::OffloadConfig;
use crate::{AppLink, LinkObs};

/// Outcome of one offloaded frame.
#[derive(Debug, Clone, Copy)]
pub struct FrameOutcome {
    /// Capture time of the frame, s (absolute).
    pub capture_s: f64,
    /// End-to-end latency, ms.
    pub e2e_ms: f64,
}

/// Summary of one offloading run.
#[derive(Debug, Clone)]
pub struct OffloadSummary {
    /// Whether compression was enabled.
    pub compressed: bool,
    /// Per-frame outcomes, in order.
    pub frames: Vec<FrameOutcome>,
    /// Frames offloaded per second of run.
    pub offload_fps: f64,
    /// Mean E2E, ms.
    pub e2e_mean_ms: f64,
    /// Median E2E, ms.
    pub e2e_median_ms: f64,
    /// Handovers observed during the run (sampled per frame).
    pub handover_frames: usize,
}

/// One offloading run over a link.
#[derive(Debug, Clone, Copy)]
pub struct OffloadRun {
    /// App configuration (Table 4 column).
    pub config: OffloadConfig,
    /// Whether to compress frames before upload.
    pub compressed: bool,
    /// Length of the run, seconds: frames are captured in
    /// `[t0_s, t0_s + run_s)`.
    pub run_s: f64,
}

impl OffloadRun {
    /// Execute the run starting at absolute time `t0_s`.
    pub fn execute(&self, t0_s: f64, link: &mut dyn AppLink) -> OffloadSummary {
        let cfg = &self.config;
        let period_s = cfg.frame_period_ms() / 1_000.0;
        let frame_bits = cfg.frame_bytes(self.compressed) * 8.0;
        let mut frames = Vec::new();
        let mut handover_frames = 0;
        // Pipeline becomes free at `free_at`; the next frame offloaded is
        // the first capture at or after that instant.
        let mut free_at = t0_s;
        let end = t0_s + self.run_s;
        loop {
            // Next capture instant >= free_at, aligned to the frame clock.
            let k = ((free_at - t0_s) / period_s).ceil().max(0.0);
            let capture = t0_s + k * period_s;
            if capture >= end {
                break;
            }
            let obs = link.sample(capture);
            if obs.in_handover {
                handover_frames += 1;
            }
            let e2e_ms = Self::frame_e2e_ms(cfg, self.compressed, frame_bits, &obs);
            frames.push(FrameOutcome {
                capture_s: capture,
                e2e_ms,
            });
            free_at = capture + e2e_ms / 1_000.0;
        }
        let mut e2e: Vec<f64> = frames.iter().map(|f| f.e2e_ms).collect();
        e2e.sort_by(f64::total_cmp);
        let mean = if e2e.is_empty() {
            0.0
        } else {
            e2e.iter().sum::<f64>() / e2e.len() as f64
        };
        let median = e2e.get(e2e.len() / 2).copied().unwrap_or(0.0);
        OffloadSummary {
            compressed: self.compressed,
            offload_fps: frames.len() as f64 / self.run_s,
            e2e_mean_ms: mean,
            e2e_median_ms: median,
            handover_frames,
            frames,
        }
    }

    /// E2E latency of one frame under the observed link.
    fn frame_e2e_ms(cfg: &OffloadConfig, compressed: bool, frame_bits: f64, obs: &LinkObs) -> f64 {
        // A handover blanks the uplink for roughly its interruption; fold
        // it in as a very low effective rate rather than a special case.
        let ul_mbps = if obs.in_handover {
            (obs.ul_mbps * 0.05).max(0.05)
        } else {
            obs.ul_mbps.max(0.05)
        };
        let upload_ms = frame_bits / (ul_mbps * 1e6) * 1_000.0;
        let compress_ms = if compressed { cfg.compression_ms } else { 0.0 };
        let decompress_ms = if compressed { cfg.decompression_ms } else { 0.0 };
        compress_ms + upload_ms + obs.rtt_ms + cfg.inference_ms + decompress_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AR_CONFIG, CAV_CONFIG};
    use crate::ConstantLink;

    #[test]
    fn good_link_ar_matches_best_static_ballpark() {
        // Paper best static: E2E 68 ms, 12.5 FPS offloaded.
        let run = OffloadRun {
            config: AR_CONFIG,
            compressed: true,
            run_s: 20.0,
        };
        let s = run.execute(0.0, &mut ConstantLink::good());
        assert!((40.0..90.0).contains(&s.e2e_mean_ms), "{}", s.e2e_mean_ms);
        assert!((10.0..20.0).contains(&s.offload_fps), "{}", s.offload_fps);
    }

    #[test]
    fn poor_link_degrades_ar() {
        let run = OffloadRun {
            config: AR_CONFIG,
            compressed: true,
            run_s: 20.0,
        };
        let s = run.execute(0.0, &mut ConstantLink::poor());
        // ~50 KB over 3 Mbps ≈ 137 ms upload + 90 RTT + 32 pipeline.
        assert!(s.e2e_median_ms > 180.0, "{}", s.e2e_median_ms);
        assert!(s.offload_fps < 6.0, "{}", s.offload_fps);
    }

    #[test]
    fn compression_off_is_slower_for_cav() {
        let e2e_median_ms = |config, compressed| {
            let mut link = ConstantLink::poor();
            let run = OffloadRun {
                config,
                compressed,
                run_s: 20.0,
            };
            run.execute(0.0, &mut link).e2e_median_ms
        };
        let (with, without) = (e2e_median_ms(CAV_CONFIG, true), e2e_median_ms(CAV_CONFIG, false));
        // 2000 KB vs 38 KB over 3 Mbps: ~5 s vs ~0.25 s; ratio ~8x at the
        // paper's driving medians.
        assert!(without > 4.0 * with, "{without} vs {with}");
        // §7.1 holds for AR too: raw 1344 ms vs compressed 259 ms.
        let (with, without) = (e2e_median_ms(AR_CONFIG, true), e2e_median_ms(AR_CONFIG, false));
        assert!(without > with, "AR raw {without} ms vs compressed {with} ms");
    }

    #[test]
    fn offload_fps_never_exceeds_source_fps() {
        let run = OffloadRun {
            config: AR_CONFIG,
            compressed: true,
            run_s: 20.0,
        };
        let mut link = ConstantLink {
            obs: crate::LinkObs {
                dl_mbps: 1_000.0,
                ul_mbps: 1_000.0,
                rtt_ms: 0.1,
                in_handover: false,
            },
        };
        let s = run.execute(0.0, &mut link);
        assert!(s.offload_fps <= AR_CONFIG.fps + 1e-9);
    }

    #[test]
    fn frames_are_capture_aligned() {
        let run = OffloadRun {
            config: AR_CONFIG,
            compressed: true,
            run_s: 20.0,
        };
        let s = run.execute(10.0, &mut ConstantLink::good());
        let period = AR_CONFIG.frame_period_ms() / 1_000.0;
        for f in &s.frames {
            let k = (f.capture_s - 10.0) / period;
            assert!((k - k.round()).abs() < 1e-6, "misaligned at {}", f.capture_s);
        }
    }

    #[test]
    fn handover_frames_counted_and_slow() {
        struct HoLink;
        impl AppLink for HoLink {
            fn sample(&mut self, t_s: f64) -> crate::LinkObs {
                crate::LinkObs {
                    dl_mbps: 100.0,
                    ul_mbps: 50.0,
                    rtt_ms: 30.0,
                    in_handover: (2.0..2.5).contains(&(t_s % 10.0)),
                }
            }
        }
        let run = OffloadRun {
            config: AR_CONFIG,
            compressed: true,
            run_s: 20.0,
        };
        let s = run.execute(0.0, &mut HoLink);
        assert!(s.handover_frames > 0);
        let max = s.frames.iter().map(|f| f.e2e_ms).fold(0.0, f64::max);
        let median = s.e2e_median_ms;
        assert!(max > 2.0 * median, "HO frames should stick out: {max} vs {median}");
    }
}
