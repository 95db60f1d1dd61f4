//! The workloads: which `repro` calls each one makes, derived from the
//! benchmark's seed.
//!
//! Each workload stresses a different layer and bypasses the others (see
//! the README for why each was chosen):
//!
//! * `paper-export` — the paper's campaign with the dataset export;
//!   drive units and the serializer dominate, no checkpoints.
//! * `checkpoint-resume` — checkpointed campaigns, each followed by
//!   `--resume` from its complete log; the only workload that touches
//!   checkpoints.
//! * `sweep-smoke` — runs over three scenarios; fixed per-campaign costs
//!   dominate, no export and no checkpoints.
//!
//! Every call runs at smoke scale (well under a second), and each workload
//! spreads over several consecutive seeds. Short calls let a run repeat
//! each one often enough for its best time to be stable on a host whose
//! speed swings; several seeds average out how much work one seed's world
//! happens to hold.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::{Path, PathBuf};

use wheels_bench::ReproScale;
use wheels_campaign::{Campaign, ScenarioSpec};

use crate::clock::Clock;

/// Workload names, in the order the README and `BENCHMARK.json` list them.
pub const WORKLOADS: [&str; 3] = ["paper-export", "checkpoint-resume", "sweep-smoke"];

/// The scenarios `sweep-smoke` visits, every one registered in the
/// scenario registry.
const SCENARIOS: [&str; 3] = ["paper", "rail-corridor", "metro-loop"];

/// Consecutive seeds `paper-export` runs.
const PAPER_SEEDS: u64 = 8;

/// Consecutive seeds `checkpoint-resume` runs.
const RESUME_SEEDS: u64 = 6;

/// Seeds per scenario in `sweep-smoke`.
const SWEEP_SEEDS: u64 = 8;

/// What a `repro` call does besides rendering its artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Campaign and artifacts only.
    Plain,
    /// Also export the dataset (`--export`).
    Export,
    /// Checkpoint every unit to a fresh log (`--checkpoint-dir`).
    CheckpointFresh,
    /// Restore every unit from that log (`--checkpoint-dir --resume`).
    CheckpointResume,
}

/// One `repro` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    /// `--scenario NAME`; `None` runs `repro`'s default paper world.
    pub scenario: Option<&'static str>,
    /// `--scale`.
    pub scale: ReproScale,
    /// `--seed`.
    pub seed: u64,
    /// Export or checkpoint step.
    pub step: Step,
    /// The artifact ids `repro` renders: `all` or `table1`.
    pub artifacts: &'static str,
}

impl Call {
    fn new(scenario: Option<&'static str>, scale: ReproScale, seed: u64, step: Step) -> Self {
        let artifacts = match step {
            Step::CheckpointFresh | Step::CheckpointResume => "table1",
            Step::Plain | Step::Export => "all",
        };
        Call {
            scenario,
            scale,
            seed,
            step,
            artifacts,
        }
    }

    /// The registered scenario this call's world is compiled from.
    pub fn scenario_name(&self) -> &'static str {
        self.scenario.unwrap_or("paper")
    }

    /// `scenario:scale:seed:step`, the form in which a traced call is
    /// handed to a child process; [`Call::from_token`] reverses it.
    pub fn token(&self) -> String {
        let step = match self.step {
            Step::Plain => "plain",
            Step::Export => "export",
            Step::CheckpointFresh => "fresh",
            Step::CheckpointResume => "resume",
        };
        let scenario = self.scenario.unwrap_or("-");
        format!("{scenario}:{}:{}:{step}", scale_arg(self.scale), self.seed)
    }

    /// Parse a [`Call::token`].
    pub fn from_token(token: &str) -> Option<Call> {
        let [scenario, scale, seed, step] = token.split(':').collect::<Vec<_>>()[..] else {
            return None;
        };
        let scenario = match scenario {
            "-" => None,
            name => Some(SCENARIOS.into_iter().find(|s| *s == name)?),
        };
        let scale = match scale {
            "full" => ReproScale::Full,
            "quarter" => ReproScale::Quarter,
            "smoke" => ReproScale::Smoke,
            _ => return None,
        };
        let step = match step {
            "plain" => Step::Plain,
            "export" => Step::Export,
            "fresh" => Step::CheckpointFresh,
            "resume" => Step::CheckpointResume,
            _ => return None,
        };
        Some(Call::new(scenario, scale, seed.parse().ok()?, step))
    }

    /// Build this call's world in-process, as `repro` does before its
    /// campaign.
    pub fn world(&self) -> Result<Campaign, String> {
        let name = self.scenario_name();
        let spec = ScenarioSpec::find(name).ok_or_else(|| format!("unknown scenario {name}"))?;
        Ok(Campaign::from_spec(&spec, self.scale.config(self.seed)))
    }

    /// The checkpoint directory of this call's world under `scratch`, one
    /// per seed so a workload's fresh runs never meet each other's logs.
    pub fn checkpoint_dir(&self, scratch: &Path) -> PathBuf {
        scratch.join(format!("ck-{}", self.seed))
    }
}

/// `repro --scale` spelling of a scale.
pub fn scale_arg(scale: ReproScale) -> &'static str {
    match scale {
        ReproScale::Full => "full",
        ReproScale::Quarter => "quarter",
        ReproScale::Smoke => "smoke",
    }
}

/// The calls of workload `name` at seed `seed`, in the order they run;
/// `None` for an unknown name.
pub fn calls(name: &str, seed: u64) -> Option<Vec<Call>> {
    let seeds = |n: u64| seed..seed.saturating_add(n);
    let smoke = ReproScale::Smoke;
    match name {
        "paper-export" => Some(
            seeds(PAPER_SEEDS)
                .map(|s| Call::new(None, smoke, s, Step::Export))
                .collect(),
        ),
        "checkpoint-resume" => Some(
            seeds(RESUME_SEEDS)
                .flat_map(|s| {
                    [Step::CheckpointFresh, Step::CheckpointResume]
                        .map(|step| Call::new(None, smoke, s, step))
                })
                .collect(),
        ),
        "sweep-smoke" => Some(
            seeds(SWEEP_SEEDS)
                .flat_map(|s| SCENARIOS.map(|sc| Call::new(Some(sc), smoke, s, Step::Plain)))
                .collect(),
        ),
        _ => None,
    }
}

/// The distinct worlds (scenario, scale, seed) `calls` run, in first-use
/// order.
pub fn worlds(calls: &[Call]) -> Vec<&Call> {
    let mut seen = BTreeSet::new();
    calls
        .iter()
        .filter(|c| seen.insert((c.scenario_name(), scale_arg(c.scale), c.seed)))
        .collect()
}

/// One set-up sample: each of `worlds` built once in-process, untraced.
/// Returns the build time of each world, in seconds.
pub fn setup_sample(worlds: &[&Call]) -> Result<Vec<f64>, String> {
    worlds
        .iter()
        .map(|call| {
            let clock = Clock::start();
            let world = black_box(call.world()?);
            let s = clock.seconds();
            // Tear-down is not set-up: drop outside the timed region.
            drop(world);
            Ok(s)
        })
        .collect()
}
