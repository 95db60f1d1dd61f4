//! Operator diversity and the multi-connectivity argument (§5.4).
//!
//! Runs concurrent throughput tests across the three carriers and asks:
//! how often would a multi-operator (MPTCP-style) phone have beaten each
//! single carrier?
//!
//! ```text
//! cargo run --release --example operator_diversity
//! ```

use std::collections::BTreeMap;

use wheels::analysis::figures::fig06_operator_diversity::{self, PAIRS};
use wheels::analysis::AnalysisIndex;
use wheels::campaign::{Campaign, CampaignConfig, ScenarioSpec};
use wheels::ran::{Direction, Operator};
use wheels::xcal::database::TestKind;

fn main() {
    println!("== operator diversity (Fig. 6) ==\n");
    let mut cfg = CampaignConfig::quick(21);
    cfg.scale = 0.15;
    let mut spec = ScenarioSpec::paper();
    spec.schedule.run_apps = false;
    spec.schedule.run_static = false;
    let campaign = Campaign::from_spec(&spec, cfg);
    let db = campaign.run(1, None).expect("tolerant run").db;

    let f = fig06_operator_diversity::compute(&AnalysisIndex::build(&db));
    for pair in PAIRS {
        for dir in Direction::BOTH {
            let d = f.get(pair, dir);
            if d.all.is_empty() {
                continue;
            }
            println!(
                "{}-{} {}: median diff {:+.1} Mbps, {} wins {:.0}% of concurrent samples",
                pair.0.code(),
                pair.1.code(),
                dir.label(),
                d.all.median(),
                pair.0.code(),
                (1.0 - d.all.frac_below(0.0)) * 100.0
            );
            for (bin, frac) in d.bin_fractions() {
                if frac > 0.001 {
                    println!("    {:<6} {:>5.1}% of samples", bin.label(), frac * 100.0);
                }
            }
        }
    }

    // The multi-connectivity thought experiment: best-of-three throughput.
    // BTreeMap, not HashMap: gain_vs sums floats in iteration order.
    let mut by_time: BTreeMap<i64, Vec<(Operator, f64)>> = BTreeMap::new();
    for r in db
        .records
        .iter()
        .filter(|r| !r.is_static && r.kind == TestKind::ThroughputDl)
    {
        if let Some(m) = r.mean_tput_mbps() {
            by_time.entry(r.start_s.round() as i64).or_default().push((r.op, m));
        }
    }
    let mut gain_vs: BTreeMap<Operator, (f64, usize)> = BTreeMap::new();
    for tests in by_time.values().filter(|v| v.len() == 3) {
        let best = tests.iter().map(|(_, m)| *m).fold(0.0, f64::max);
        for (op, m) in tests {
            let e = gain_vs.entry(*op).or_insert((0.0, 0));
            e.0 += best / m.max(0.1);
            e.1 += 1;
        }
    }
    println!("\nBest-of-three (multi-connectivity upper bound) vs each single carrier:");
    for op in Operator::ALL {
        if let Some((sum, n)) = gain_vs.get(&op) {
            println!(
                "  vs {:<9} mean gain {:>4.1}x over {} concurrent DL tests",
                op.label(),
                sum / *n as f64,
                n
            );
        }
    }
    println!("\n§5.4's recommendation: aggregate links across operators (MPTCP).");
}
