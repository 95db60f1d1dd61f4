//! Property tests for the killer-app models.

use proptest::prelude::*;

use wheels_apps::ar::ArApp;
use wheels_apps::cav::CavApp;
use wheels_apps::config::{AR_CONFIG, CAV_CONFIG};
use wheels_apps::gaming::GamingSession;
use wheels_apps::map_table::map_for_latency;
use wheels_apps::offload::OffloadRun;
use wheels_apps::video::qoe::{session_qoe, ChunkScore};
use wheels_apps::video::{VideoSession, BITRATES_MBPS};
use wheels_apps::{ConstantLink, LinkObs};

fn arb_link() -> impl Strategy<Value = ConstantLink> {
    (0.5f64..1_000.0, 0.2f64..300.0, 5.0f64..300.0).prop_map(|(dl, ul, rtt)| ConstantLink {
        obs: LinkObs {
            dl_mbps: dl,
            ul_mbps: ul,
            rtt_ms: rtt,
            in_handover: false,
        },
    })
}

proptest! {
    #[test]
    fn map_table_bounded(ft in 0.0f64..100.0, comp in any::<bool>()) {
        let m = map_for_latency(ft, comp);
        prop_assert!((13.0..=38.45).contains(&m));
    }

    #[test]
    fn offload_fps_bounded_by_source(mut link in arb_link(), comp in any::<bool>()) {
        for cfg in [AR_CONFIG, CAV_CONFIG] {
            let s = OffloadRun { config: cfg, compressed: comp, run_s: 20.0 }.execute(0.0, &mut link);
            prop_assert!(s.offload_fps <= cfg.fps + 1e-9);
            prop_assert!(s.offload_fps >= 0.0);
            // E2E at least the fixed pipeline cost.
            let floor = if comp {
                cfg.compression_ms + cfg.inference_ms + cfg.decompression_ms
            } else {
                cfg.inference_ms
            };
            for f in &s.frames {
                prop_assert!(f.e2e_ms >= floor - 1e-9);
            }
        }
    }

    #[test]
    fn ar_accuracy_within_table(mut link in arb_link(), comp in any::<bool>()) {
        let r = ArApp::default().run(0.0, 20.0, comp, &mut link);
        prop_assert!((13.0..=38.46).contains(&r.map_accuracy));
    }

    #[test]
    fn cav_deadline_fraction_valid(mut link in arb_link()) {
        let r = CavApp::default().run(0.0, 20.0, true, &mut link);
        prop_assert!((0.0..=1.0).contains(&r.deadline_hit_frac));
    }

    #[test]
    fn faster_uplink_never_hurts_offload(ul1 in 1.0f64..100.0, ul2 in 1.0f64..100.0) {
        let (slow, fast) = if ul1 <= ul2 { (ul1, ul2) } else { (ul2, ul1) };
        let mk = |ul| ConstantLink {
            obs: LinkObs { dl_mbps: 100.0, ul_mbps: ul, rtt_ms: 50.0, in_handover: false },
        };
        let a = ArApp::default().run(0.0, 20.0, true, &mut mk(slow));
        let b = ArApp::default().run(0.0, 20.0, true, &mut mk(fast));
        prop_assert!(b.offload.e2e_median_ms <= a.offload.e2e_median_ms + 1e-6);
    }

    #[test]
    fn video_invariants(mut link in arb_link()) {
        let s = VideoSession { duration_s: 60.0 }.run(0.0, &mut link);
        prop_assert!(s.qoe <= 100.0 + 1e-9);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&s.rebuffer_frac));
        prop_assert!(s.avg_bitrate_mbps <= 100.0 + 1e-9);
        prop_assert!(s.switches <= s.chunks);
        for c in &s.per_chunk {
            prop_assert!(BITRATES_MBPS.contains(&c.bitrate_mbps));
        }
    }

    #[test]
    fn qoe_formula_matches_manual(bitrates in prop::collection::vec(0usize..4, 1..50),
                                  stalls in prop::collection::vec(0.0f64..3.0, 1..50)) {
        let n = bitrates.len().min(stalls.len());
        let chunks: Vec<ChunkScore> = (0..n)
            .map(|i| ChunkScore {
                bitrate_mbps: BITRATES_MBPS[bitrates[i]],
                prev_bitrate_mbps: if i == 0 { None } else { Some(BITRATES_MBPS[bitrates[i - 1]]) },
                rebuffer_s: stalls[i],
            })
            .collect();
        let mut manual = 0.0;
        for (i, c) in chunks.iter().enumerate() {
            let switch = if i == 0 { 0.0 } else { (c.bitrate_mbps - chunks[i - 1].bitrate_mbps).abs() };
            manual += c.bitrate_mbps - switch - 100.0 * c.rebuffer_s;
        }
        manual /= n as f64;
        prop_assert!((session_qoe(&chunks) - manual).abs() < 1e-9);
    }

    #[test]
    fn gaming_invariants(mut link in arb_link()) {
        let s = GamingSession { duration_s: 20.0 }.run(0.0, &mut link);
        prop_assert!(s.send_bitrate_mbps <= 100.0 + 1e-9);
        prop_assert!(s.send_bitrate_mbps >= 1.0 - 1e-9);
        prop_assert!((0.0..=1.0).contains(&s.frame_drop_frac));
        prop_assert!(s.effective_fps <= 60.0 + 1e-9);
        prop_assert!(s.net_latency_ms >= link.obs.rtt_ms - 1e-6);
    }
}
