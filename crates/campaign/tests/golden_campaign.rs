//! Golden campaign digests: the hot-path regression tripwire.
//!
//! The campaign inner loop is under continuous optimization, and every
//! transformation there must be a *pure* speedup — same exported bytes,
//! faster. ci.sh's byte gates compare runs of one binary with each other
//! (jobs 1 vs 4, crash vs resume), so they cannot see a change that moves
//! every run alike; this test pins a digest of the smoke-scale export of
//! the paper's world at two seeds, and of registry worlds that exercise
//! paths the paper world leaves cold (metro-loop's frequent stops keep the
//! UE parked for many ticks; rail-corridor's schedule departs from the
//! paper's session lengths), so a behavior change across commits is
//! caught at `cargo test` speed, pointing at the exact world and seed
//! that moved.
//!
//! When a change is *intended* to alter output (a model change, not an
//! optimization), refresh the pins with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p wheels-campaign --test golden_campaign
//! ```
//!
//! and say so in the commit message — a digest refresh in an
//! "optimization" commit is a red flag by construction.

use std::fmt::Write as _;
use std::path::PathBuf;

use wheels_campaign::{Campaign, CampaignConfig, ScenarioSpec};

/// A pinned world: registry scenario name, golden file, seeds.
struct World {
    scenario: &'static str,
    file: &'static str,
    seeds: &'static [u64],
}

const PAPER: World = World {
    scenario: "paper",
    file: "smoke_digests.txt",
    seeds: &[11, 42],
};

const METRO_LOOP: World = World {
    scenario: "metro-loop",
    file: "smoke_digests_metro_loop.txt",
    seeds: &[11],
};

const RAIL_CORRIDOR: World = World {
    scenario: "rail-corridor",
    file: "smoke_digests_rail_corridor.txt",
    seeds: &[11],
};

/// Smoke-scale config, mirroring `ReproScale::Smoke` in `wheels-bench`
/// (which depends on this crate, so the constants are restated here; the
/// ci.sh byte gate runs the real binary and keeps them honest).
fn smoke_config(seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::full(seed);
    cfg.scale = 0.02;
    cfg.passive_tick_s = 10.0;
    cfg
}

/// FNV-1a over the export bytes: dependency-free and stable across
/// platforms — digest equality here means byte equality of the export.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn current_digests(world: &World) -> String {
    let spec = ScenarioSpec::find(world.scenario).expect("registered scenario");
    let mut out = String::new();
    for &seed in world.seeds {
        let campaign = Campaign::from_spec(&spec, smoke_config(seed));
        let outcome = campaign.run(1, None).expect("tolerant run");
        let json = wheels_xcal::export::to_json(&outcome.db).expect("export serializes");
        writeln!(out, "{seed} {:016x}", fnv1a(json.as_bytes())).unwrap();
    }
    out
}

#[test]
fn smoke_export_digests_match_golden() {
    check_world(&PAPER);
}

#[test]
fn metro_loop_smoke_digests_match_golden() {
    check_world(&METRO_LOOP);
}

#[test]
fn rail_corridor_smoke_digests_match_golden() {
    check_world(&RAIL_CORRIDOR);
}

fn check_world(world: &World) {
    let got = current_digests(world);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(world.file);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_REGEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{} smoke export digests diverged from {} — if this change is an \
         intended output change, refresh with GOLDEN_REGEN=1; if it is an \
         optimization, it is not pure",
        world.scenario,
        path.display()
    );
}
