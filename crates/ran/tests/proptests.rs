//! Property tests for the RAN simulator.

use std::sync::Arc;
use std::sync::OnceLock;

use proptest::prelude::*;

use wheels_geo::region::RegionKind;
use wheels_geo::timezone::Timezone;
use wheels_geo::trip::DrivePlan;
use wheels_radio::band::Technology;
use wheels_ran::cell::CellDb;
use wheels_ran::config::link_config;
use wheels_ran::deployment::{build_cells, layer_plan};
use wheels_ran::handover::{draw_interruption_ms, A3Tracker, HandoverKind, A3_HYSTERESIS_DB};
use wheels_ran::load::{LoadParams, LoadProcess};
use wheels_ran::policy::{TrafficDemand, UpgradePolicy};
use wheels_ran::selection::sub_rng;
use wheels_ran::tuning::OperatorTuning;
use wheels_ran::ue::{UeParams, UeRadio};
use wheels_ran::{CellId, Direction, Operator};

fn world() -> &'static (DrivePlan, Vec<CellDb>) {
    static W: OnceLock<(DrivePlan, Vec<CellDb>)> = OnceLock::new();
    W.get_or_init(|| {
        let plan = DrivePlan::cross_country(3);
        let ops = Operator::ALL.map(|op| (op, OperatorTuning::NEUTRAL));
        let dbs = wheels_ran::deployment::build_ops(plan.route(), 3, &ops);
        (plan, dbs)
    })
}

fn arb_op() -> impl Strategy<Value = Operator> {
    (0usize..3).prop_map(|i| Operator::ALL[i])
}

fn arb_demand() -> impl Strategy<Value = TrafficDemand> {
    prop_oneof![
        Just(TrafficDemand::Idle),
        Just(TrafficDemand::Ping),
        Just(TrafficDemand::Backlog(Direction::Downlink)),
        Just(TrafficDemand::Backlog(Direction::Uplink)),
    ]
}

proptest! {
    // Cell building and UE stepping are comparatively heavy; a few dozen
    // cases give the same coverage as proptest's default 256 here.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn layer_plans_always_valid(op in arb_op(), tech_i in 0usize..5, reg_i in 0usize..4, tz_i in 0usize..4) {
        let p = layer_plan(op, Technology::ALL[tech_i], RegionKind::ALL[reg_i], Timezone::ALL[tz_i]);
        prop_assert!((0.0..=1.0).contains(&p.coverage));
        prop_assert!(p.spacing_m > 0.0);
        prop_assert!(p.patch_len_m > 0.0);
    }

    #[test]
    fn deployment_deterministic(op in arb_op(), seed in 0u64..32) {
        let (plan, _) = world();
        let a = build_cells(plan.route(), op, seed, 0);
        let b = build_cells(plan.route(), op, seed, 0);
        prop_assert_eq!(a.len(), b.len());
        for tech in Technology::ALL {
            prop_assert_eq!(a.layer_len(tech), b.layer_len(tech));
        }
    }

    #[test]
    fn promotion_probabilities_valid(op in arb_op(), tech_i in 0usize..5, demand in arb_demand()) {
        let p = UpgradePolicy.promotion_prob(op, Technology::ALL[tech_i], demand);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn interruption_draws_positive_and_sane(op in arb_op(), seed in 0u64..1_000) {
        let mut rng = sub_rng(seed, 3);
        for _ in 0..32 {
            let d = draw_interruption_ms(op, &mut rng);
            prop_assert!(d > 0.0);
            prop_assert!(d < 2_000.0, "{d}");
        }
    }

    #[test]
    fn a3_never_fires_within_hysteresis(serving in -120.0f64..-60.0, steps in 1usize..60) {
        let mut a3 = A3Tracker::default();
        for i in 0..steps {
            let neighbor = serving + A3_HYSTERESIS_DB - 0.01;
            prop_assert!(!a3.observe(i as f64 * 0.1, serving, Some((CellId(9), neighbor))));
        }
    }

    #[test]
    fn handover_kind_classification_consistent(a in 0usize..5, b in 0usize..5) {
        let from = Technology::ALL[a];
        let to = Technology::ALL[b];
        let kind = HandoverKind::classify(from, to);
        match kind {
            HandoverKind::Horizontal4g => prop_assert!(!from.is_5g() && !to.is_5g()),
            HandoverKind::Horizontal5g => prop_assert!(from.is_5g() && to.is_5g()),
            HandoverKind::Up4gTo5g => prop_assert!(!from.is_5g() && to.is_5g()),
            HandoverKind::Down5gTo4g => prop_assert!(from.is_5g() && !to.is_5g()),
        }
    }

    #[test]
    fn load_share_always_in_bounds(seed in 0u64..500, steps in prop::collection::vec(0.1f64..60.0, 1..60)) {
        let mut p = LoadProcess::new(LoadParams::driving(), seed);
        let mut t = 0.0;
        for dt in steps {
            t += dt;
            let s = p.share_at(t);
            prop_assert!((0.005..=1.0).contains(&s));
        }
    }

    #[test]
    fn link_configs_physical(op in arb_op(), tech_i in 0usize..5, dl in any::<bool>()) {
        let dir = if dl { Direction::Downlink } else { Direction::Uplink };
        let c = link_config(op, Technology::ALL[tech_i], dir);
        prop_assert!(c.max_cc() >= 1);
        prop_assert!(c.bandwidth_mhz(1) > 0.0);
        prop_assert!(c.bandwidth_mhz(c.max_cc()) >= c.bandwidth_mhz(1));
        // SINR mapping is affine in RSRP.
        prop_assert!((c.sinr_db(-90.0) - c.sinr_db(-100.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ue_snapshots_always_sane(op in arb_op(), seed in 0u64..16, demand in arb_demand()) {
        let (plan, dbs) = world();
        let idx = Operator::ALL.iter().position(|&o| o == op).unwrap();
        let mut ue = UeRadio::new(op, Arc::new(dbs[idx].clone()), UeParams::default(), seed);
        let t0 = plan.days()[1].start_time_s as f64;
        for i in 0..200 {
            let t = t0 + i as f64 * 0.5;
            let s = ue.step(t, &plan.state_at(t), demand);
            prop_assert!(s.cap_dl_mbps >= 0.0 && s.cap_dl_mbps.is_finite());
            prop_assert!(s.cap_ul_mbps >= 0.0 && s.cap_ul_mbps.is_finite());
            prop_assert!((0.0..=0.9).contains(&s.bler));
            prop_assert!(s.ca_dl >= 1 && s.ca_ul >= 1);
            prop_assert!(s.rsrp_dbm < -20.0);
            if let Some(h) = s.handover {
                prop_assert!(h.duration_ms > 0.0);
                prop_assert!(h.from.0 != h.to.0 || h.from.1 != h.to.1);
            }
        }
    }
}
