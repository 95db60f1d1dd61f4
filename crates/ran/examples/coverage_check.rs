//! Calibration tool: distance-weighted technology shares and raw link
//! capacities under a continuous DL backlog, per operator.
//!
//! Used to tune the deployment profiles in `wheels_ran::deployment`
//! against the paper's Fig. 2a targets (T-Mobile ~68 % 5G / 38 %
//! high-speed; Verizon and AT&T ~20 % 5G; AT&T ~3 % high-speed).
//!
//! ```text
//! cargo run --release -p wheels-ran --example coverage_check
//! ```
use std::sync::Arc;
use wheels_geo::trip::DrivePlan;
use wheels_radio::band::Technology;
use wheels_ran::deployment::build_ops;
use wheels_ran::policy::TrafficDemand;
use wheels_ran::tuning::OperatorTuning;
use wheels_ran::ue::{UeParams, UeRadio};
use wheels_ran::{Direction, Operator};

fn main() {
    let plan = DrivePlan::cross_country(11);
    let dbs = build_ops(
        plan.route(),
        11,
        &Operator::ALL.map(|op| (op, OperatorTuning::NEUTRAL)),
    );
    for (i, op) in Operator::ALL.iter().enumerate() {
        let db = Arc::new(dbs[i].clone());
        let mut ue = UeRadio::new(*op, db, UeParams::default(), 42 + i as u64);
        let mut counts = [0usize; 6];
        let mut dl_caps = Vec::new();
        let mut ul_caps = Vec::new();
        for day in plan.days() {
            let mut t = day.start_time_s as f64;
            while t < day.end_time_s as f64 {
                let s = ue.step(
                    t,
                    &plan.state_at(t),
                    TrafficDemand::Backlog(Direction::Downlink),
                );
                let idx = Technology::ALL.iter().position(|&x| x == s.tech).unwrap();
                let meters = (s.speed_mps * 2.0) as usize; // distance weight
                if s.outage {
                    counts[5] += meters;
                } else {
                    counts[idx] += meters;
                }
                dl_caps.push(s.cap_dl_mbps);
                ul_caps.push(s.cap_ul_mbps);
                t += 2.0;
            }
        }
        let n: usize = counts.iter().sum();
        print!("{:9}", op.label());
        for (j, tech) in Technology::ALL.iter().enumerate() {
            print!(
                " {}={:5.1}%",
                tech.label(),
                100.0 * counts[j] as f64 / n as f64
            );
        }
        println!(" outage={:4.1}%", 100.0 * counts[5] as f64 / n as f64);
        dl_caps.sort_by(f64::total_cmp);
        ul_caps.sort_by(f64::total_cmp);
        let q = |v: &Vec<f64>, p: f64| v[(v.len() as f64 * p) as usize];
        println!(
            "   DL cap: p25={:6.1} med={:6.1} p75={:6.1} p95={:7.1} max={:7.1} | <5Mbps {:4.1}%",
            q(&dl_caps, 0.25),
            q(&dl_caps, 0.5),
            q(&dl_caps, 0.75),
            q(&dl_caps, 0.95),
            dl_caps.last().unwrap(),
            100.0 * dl_caps.iter().filter(|&&c| c < 5.0).count() as f64 / dl_caps.len() as f64
        );
        println!(
            "   UL cap: p25={:6.1} med={:6.1} p75={:6.1} p95={:7.1} max={:7.1}",
            q(&ul_caps, 0.25),
            q(&ul_caps, 0.5),
            q(&ul_caps, 0.75),
            q(&ul_caps, 0.95),
            ul_caps.last().unwrap()
        );
    }
}
