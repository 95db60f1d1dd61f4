//! Reproducibility: a campaign is a pure function of (config, seed).

use wheels::campaign::{Campaign, CampaignConfig, ScenarioSpec};
use wheels::xcal::database::ConsolidatedDb;

fn mini(seed: u64) -> ConsolidatedDb {
    let mut cfg = CampaignConfig::quick(seed);
    cfg.scale = 0.01;
    cfg.passive_tick_s = 30.0;
    let mut spec = ScenarioSpec::paper();
    spec.schedule.run_apps = false;
    spec.schedule.run_static = false;
    Campaign::from_spec(&spec, cfg).run(1, None).expect("tolerant run").db
}

#[test]
fn same_seed_same_dataset() {
    let a = mini(77);
    let b = mini(77);
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.op, y.op);
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.start_s, y.start_s);
        assert_eq!(x.kpi.len(), y.kpi.len());
        assert_eq!(x.handovers.len(), y.handovers.len());
        for (ka, kb) in x.kpi.iter().zip(&y.kpi) {
            assert_eq!(ka.tput_mbps, kb.tput_mbps);
            assert_eq!(ka.rsrp_dbm, kb.rsrp_dbm);
            assert_eq!(ka.cell, kb.cell);
        }
        for (ha, hb) in x.handovers.iter().zip(&y.handovers) {
            assert_eq!(ha.time_s, hb.time_s);
            assert_eq!(ha.duration_ms, hb.duration_ms);
        }
    }
    // Passive loggers too.
    for ((opa, pa), (opb, pb)) in a.passive.iter().zip(&b.passive) {
        assert_eq!(opa, opb);
        assert_eq!(pa.cell_changes(), pb.cell_changes());
        assert_eq!(pa.unique_cells(), pb.unique_cells());
    }
}

#[test]
fn different_seed_different_dataset() {
    let a = mini(1);
    let b = mini(2);
    // World (route length) identical; measurements differ.
    let ta: Vec<_> = a.records.iter().filter_map(|r| r.mean_tput_mbps()).collect();
    let tb: Vec<_> = b.records.iter().filter_map(|r| r.mean_tput_mbps()).collect();
    assert_ne!(ta, tb);
}

#[test]
fn json_export_is_byte_stable() {
    let a = wheels::xcal::export::to_json(&mini(9)).unwrap();
    let b = wheels::xcal::export::to_json(&mini(9)).unwrap();
    assert_eq!(a, b);
}

/// Seed sweep: every seed reproduces itself byte-for-byte, and no two
/// seeds collide on the exported dataset.
#[test]
fn seed_sweep_reproducible_and_distinct() {
    let seeds = [3u64, 17, 42, 1_000_003, u64::MAX - 5];
    let exports: Vec<String> = seeds
        .iter()
        .map(|&s| wheels::xcal::export::to_json(&mini(s)).unwrap())
        .collect();
    for (i, &seed) in seeds.iter().enumerate() {
        let again = wheels::xcal::export::to_json(&mini(seed)).unwrap();
        assert_eq!(exports[i], again, "seed {seed} not byte-identical on rerun");
    }
    for i in 0..seeds.len() {
        for j in i + 1..seeds.len() {
            assert_ne!(
                exports[i], exports[j],
                "seeds {} and {} produced identical datasets",
                seeds[i], seeds[j]
            );
        }
    }
}
