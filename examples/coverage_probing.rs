//! The Fig. 1 methodology lesson, reproduced directly: passive ping-based
//! coverage logging vs active backlogged probing.
//!
//! Drives one simulated hour per operator twice — once with the
//! handover-logger's 38-byte pings, once with a saturating downlink — and
//! prints the technology split each probing style observes.
//!
//! ```text
//! cargo run --release --example coverage_probing
//! ```

use std::sync::Arc;

use wheels::geo::trip::DrivePlan;
use wheels::radio::band::Technology;
use wheels::ran::deployment::build_ops;
use wheels::ran::policy::TrafficDemand;
use wheels::ran::tuning::OperatorTuning;
use wheels::ran::ue::{UeParams, UeRadio};
use wheels::ran::{Direction, Operator};

fn main() {
    println!("== passive vs active coverage probing (Fig. 1) ==\n");
    let plan = DrivePlan::cross_country(7);
    let dbs = build_ops(plan.route(), 7, &Operator::ALL.map(|op| (op, OperatorTuning::NEUTRAL)));
    // A representative afternoon: day 3, two hours into driving
    // (Wyoming/Utah highway into suburbs).
    let t0 = plan.days()[2].start_time_s as f64 + 2.0 * 3_600.0;
    let horizon = 3_600.0;

    for (i, op) in Operator::ALL.iter().enumerate() {
        println!("{}:", op.label());
        for (label, demand) in [
            ("passive ping   ", TrafficDemand::Ping),
            ("DL backlog     ", TrafficDemand::Backlog(Direction::Downlink)),
            ("UL backlog     ", TrafficDemand::Backlog(Direction::Uplink)),
        ] {
            let mut ue = UeRadio::new(
                *op,
                Arc::new(dbs[i].clone()),
                UeParams::default(),
                1234 + i as u64,
            );
            let mut meters = [0.0f64; 5];
            let mut t = t0;
            while t < t0 + horizon {
                let state = plan.state_at(t);
                let snap = ue.step(t, &state, demand);
                let idx = Technology::ALL.iter().position(|&x| x == snap.tech).unwrap();
                meters[idx] += state.speed_mps; // 1 s per step
                t += 1.0;
            }
            let total: f64 = meters.iter().sum::<f64>().max(1e-9);
            print!("  {label}");
            for (j, tech) in Technology::ALL.iter().enumerate() {
                if meters[j] / total > 0.005 {
                    print!(" {}={:.0}%", tech.label(), meters[j] / total * 100.0);
                }
            }
            println!();
        }
        println!();
    }
    println!("Lesson (§4.1): passive logging under light traffic understates 5G");
    println!("coverage because operators only elevate UEs under real demand.");
}
