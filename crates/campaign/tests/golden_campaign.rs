//! Golden campaign digests: the hot-path regression tripwire.
//!
//! The campaign inner loop is under continuous optimization, and every
//! transformation there must be a *pure* speedup — same exported bytes,
//! faster. ci.sh's byte gates compare runs of one binary with each other
//! (jobs 1 vs 4, crash vs resume), so they cannot see a change that moves
//! every run alike; this test pins a digest of the smoke-scale export of
//! the paper's world and of registry worlds that exercise paths the paper
//! world leaves cold (metro-loop's frequent stops keep the UE parked for
//! many ticks; rail-corridor's schedule departs from the paper's session
//! lengths), each at seeds 11, 42 and 77, so a behavior change across
//! commits is caught at `cargo test` speed, pointing at the exact world
//! and seed that moved. The streamed export (`write_json` at jobs 1 and 4, the
//! path `repro --export` runs) must match the same pinned digest. The
//! checkpoint log of one smoke run is pinned the same way, and so are the
//! `.drm` files of that run, so a change to either binary format is a
//! visible decision too.
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

// FNV-1a is dependency-free and stable across platforms: digest equality
// here means byte equality of the pinned bytes.
use wheels_campaign::checkpoint::{fnv1a64, LOG_NAME};
use wheels_campaign::{drm, Campaign, CampaignConfig, CheckpointOptions, ScenarioSpec};

/// A pinned world: registry scenario name, golden file, seeds.
struct World {
    scenario: &'static str,
    file: &'static str,
    seeds: &'static [u64],
}

const PAPER: World = World {
    scenario: "paper",
    file: "smoke_digests.txt",
    seeds: &[11, 42, 77],
};

const METRO_LOOP: World = World {
    scenario: "metro-loop",
    file: "smoke_digests_metro_loop.txt",
    seeds: &[11, 42, 77],
};

const RAIL_CORRIDOR: World = World {
    scenario: "rail-corridor",
    file: "smoke_digests_rail_corridor.txt",
    seeds: &[11, 42, 77],
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

fn current_digests(world: &World) -> String {
    let spec = ScenarioSpec::find(world.scenario).expect("registered scenario");
    let mut out = String::new();
    for &seed in world.seeds {
        let campaign = Campaign::from_spec(&spec, smoke_config(seed));
        let outcome = campaign.run(1, None).expect("tolerant run");
        let json = wheels_xcal::export::to_json(&outcome.db).expect("export serializes");
        let digest = fnv1a64(json.as_bytes());
        // The streamed export `repro --export` writes must pin to the
        // same digest as the whole-document one.
        for jobs in [1, 4] {
            let mut streamed = Vec::with_capacity(json.len());
            wheels_xcal::export::write_json(&outcome.db, jobs, &mut streamed)
                .expect("export streams");
            assert_eq!(
                fnv1a64(&streamed),
                digest,
                "{} seed {seed}: write_json at jobs {jobs} differs from to_json",
                world.scenario
            );
        }
        writeln!(out, "{seed} {digest:016x}").unwrap();
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

/// The checkpoint log of a fresh smoke run of the paper world at seed 11
/// on one worker: workers commit in completion order, so only a
/// one-worker log has a fixed byte order.
#[test]
fn smoke_checkpoint_log_digest_matches_golden() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden-checkpoint-log");
    let campaign = Campaign::from_spec(&ScenarioSpec::paper(), smoke_config(11));
    campaign
        .run(1, Some(&CheckpointOptions::fresh(&dir)))
        .expect("checkpointed run completes");
    let log = std::fs::read(dir.join(LOG_NAME)).expect("log written");
    let got = format!("11 {:016x} {}\n", fnv1a64(&log), log.len());
    check_golden("checkpoint log", "smoke_checkpoint_log.txt", got);
}

/// The `.drm` files of the same smoke run: every record's DRM2 encoding,
/// concatenated in record order.
#[test]
fn smoke_drm_digest_matches_golden() {
    let campaign = Campaign::from_spec(&ScenarioSpec::paper(), smoke_config(11));
    let db = campaign.run(1, None).expect("tolerant run").db;
    let files: Vec<u8> = db
        .records
        .iter()
        .flat_map(|r| drm::encode(&drm::log_for(r)))
        .collect();
    let got = format!("11 {:016x} {}\n", fnv1a64(&files), files.len());
    check_golden("drm", "smoke_drm.txt", got);
}

fn check_world(world: &World) {
    check_golden(world.scenario, world.file, current_digests(world));
}

fn check_golden(what: &str, file: &str, got: String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
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
        "{what} smoke digests diverged from {} — if this change is an \
         intended output change, refresh with GOLDEN_REGEN=1; if it is an \
         optimization, it is not pure",
        path.display()
    );
}
