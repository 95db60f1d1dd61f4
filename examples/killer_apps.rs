//! The four "5G killer apps" over three contrasting links.
//!
//! Runs AR, CAV, 360° video and cloud gaming over (a) a best-case static
//! mmWave+edge link, (b) a typical driving link, and (c) a struggling
//! rural link, and prints the QoE comparison the paper's §7 is about.
//!
//! ```text
//! cargo run --release --example killer_apps
//! ```

use wheels::apps::ar::ArApp;
use wheels::apps::cav::CavApp;
use wheels::apps::gaming::GamingSession;
use wheels::apps::video::VideoSession;
use wheels::apps::{AppLink, ConstantLink, LinkObs};

/// A driving-like link: capacity wanders, occasional handover blanking.
struct DrivingLink;

impl AppLink for DrivingLink {
    fn sample(&mut self, t_s: f64) -> LinkObs {
        // Deterministic pseudo-variation: three interleaved cycles.
        let slow = ((t_s / 47.0).sin() + 1.2) / 2.2; // 0.09..1
        let fast = ((t_s / 7.3).sin() + 1.5) / 2.5; // 0.2..1
        let in_handover = (t_s % 41.0) < 0.07;
        LinkObs {
            dl_mbps: 4.0 + 160.0 * slow * fast,
            ul_mbps: 1.5 + 30.0 * slow * fast,
            rtt_ms: 45.0 + 120.0 * (1.0 - fast),
            in_handover,
        }
    }
}

fn main() {
    println!("== killer apps under three network conditions ==\n");
    type LinkFactory = Box<dyn Fn() -> Box<dyn AppLink>>;
    let scenarios: Vec<(&str, LinkFactory)> = vec![
        (
            "static mmWave+edge",
            Box::new(|| Box::new(ConstantLink::good()) as Box<dyn AppLink>),
        ),
        (
            "driving (typical) ",
            Box::new(|| Box::new(DrivingLink) as Box<dyn AppLink>),
        ),
        (
            "driving (poor)    ",
            Box::new(|| Box::new(ConstantLink::poor()) as Box<dyn AppLink>),
        ),
    ];

    println!("-- AR (30 FPS camera offload, compressed frames) --");
    for (name, mk) in &scenarios {
        let mut link = mk();
        let r = ArApp::default().run(0.0, 20.0, true, link.as_mut());
        println!(
            "  {name}: E2E {:>5.0} ms | {:>4.1} FPS offloaded | mAP {:>4.1}%",
            r.offload.e2e_median_ms, r.offload.offload_fps, r.map_accuracy
        );
    }

    println!("\n-- CAV (10 FPS LIDAR offload, compressed point clouds) --");
    for (name, mk) in &scenarios {
        let mut link = mk();
        let r = CavApp::default().run(0.0, 20.0, true, link.as_mut());
        println!(
            "  {name}: E2E {:>5.0} ms | deadline(100ms) hit {:>3.0}%",
            r.offload.e2e_median_ms,
            r.deadline_hit_frac * 100.0
        );
    }

    println!("\n-- 360° video (BBA, ladder 5/10/50/100 Mbps) --");
    for (name, mk) in &scenarios {
        let mut link = mk();
        let s = VideoSession::default().run(0.0, link.as_mut());
        println!(
            "  {name}: QoE {:>7.1} | bitrate {:>5.1} Mbps | rebuffer {:>4.1}%",
            s.qoe,
            s.avg_bitrate_mbps,
            s.rebuffer_frac * 100.0
        );
    }

    println!("\n-- cloud gaming (Steam-Remote-Play-style adapter) --");
    for (name, mk) in &scenarios {
        let mut link = mk();
        let s = GamingSession::default().run(0.0, link.as_mut());
        println!(
            "  {name}: bitrate {:>5.1} Mbps | latency {:>5.0} ms | drops {:>4.2}%",
            s.send_bitrate_mbps,
            s.net_latency_ms,
            s.frame_drop_frac * 100.0
        );
    }
    println!("\n(§7's finding: driving QoE is poor for all four apps, and even");
    println!(" 100% high-speed-5G time doesn't fix it — run the full repro to see.)");
}
