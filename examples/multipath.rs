//! The MPTCP what-if (§8 recommendation 2): replay concurrent three-operator
//! throughput tests under a multipath flow and measure the gain over the
//! best single operator.
//!
//! ```text
//! cargo run --release --example multipath
//! ```

use wheels::analysis::figures::ext_multipath;
use wheels::analysis::AnalysisIndex;
use wheels::campaign::{Campaign, CampaignConfig, ScenarioSpec};
use wheels::netsim::mptcp::{MptcpMode, MultipathFlow};
use wheels::ran::Direction;

fn main() {
    println!("== multipath over three operators ==\n");

    // A controlled demo first: complementary sawtooth paths.
    let caps = |t: f64| -> [f64; 3] {
        match ((t / 10.0) as u64) % 3 {
            0 => [80.0, 8.0, 15.0],
            1 => [8.0, 80.0, 15.0],
            _ => [15.0, 8.0, 80.0],
        }
    };
    for mode in [MptcpMode::Aggregate, MptcpMode::BestPath] {
        let mut flow = MultipathFlow::new(3, mode);
        let mut t = 0.0;
        while t < 60.0 {
            flow.tick(t, 0.02, &caps(t), &[0.05, 0.06, 0.055]);
            t += 0.02;
        }
        println!(
            "  sawtooth demo, {:?}: {:.1} Mbps (single paths average ~34 Mbps)",
            mode,
            wheels::netsim::bps_to_mbps(flow.total_delivered_bytes() / 60.0)
        );
    }

    // Then the real what-if over a simulated campaign.
    println!("\nrunning a reduced campaign for concurrent test triples...");
    let mut cfg = CampaignConfig::quick(33);
    cfg.scale = 0.12;
    let mut spec = ScenarioSpec::paper();
    spec.schedule.run_apps = false;
    spec.schedule.run_static = false;
    spec.schedule.run_passive = false;
    let campaign = Campaign::from_spec(&spec, cfg);
    let db = campaign.run(1, None).expect("tolerant run").db;
    let whatif = ext_multipath::compute(&AnalysisIndex::build(&db));
    println!("{}", whatif.render());

    let (agg, best) = whatif.gains(Direction::Downlink);
    println!(
        "DL: an MPTCP phone would have beaten the best single carrier by {:.1}x (median), {:.1}x (p90)",
        agg.median(),
        agg.percentile(90.0)
    );
    let _ = best;
    println!("\n§8's recommendation 2, quantified.");
}
