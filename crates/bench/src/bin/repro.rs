//! Regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p wheels-bench --bin repro -- all
//! cargo run --release -p wheels-bench --bin repro -- fig3 table2
//! cargo run --release -p wheels-bench --bin repro -- --scale quarter all
//! cargo run --release -p wheels-bench --bin repro -- --export dataset.json all
//! cargo run --release -p wheels-bench --bin repro -- --jobs 4 --fig-jobs 4 all
//! cargo run --release -p wheels-bench --bin repro -- --fault-profile harsh table1
//! cargo run --release -p wheels-bench --bin repro -- --timings all
//! cargo run --release -p wheels-bench --bin repro -- --scenario rail-corridor all
//! cargo run --release -p wheels-bench --bin repro -- --scenario my_world.json fig2
//! cargo run --release -p wheels-bench --bin repro -- --scenario paper --scenario-dump
//! cargo run --release -p wheels-bench --bin repro -- --list
//! ```
//!
//! `--scenario NAME|FILE.json` runs the campaign in a declarative world
//! from the scenario registry (or a JSON spec file) instead of the
//! paper's world; `--scenario paper` is the default, so it is
//! byte-identical to omitting the flag. `--scenario-dump` prints the
//! active scenario's JSON and exits; `--list` prints every artifact id
//! and registered scenario.
//!
//! `--jobs N` runs the campaign's work units on N worker threads;
//! `--fig-jobs N` fans figure/table rendering out the same way, and
//! `--export-jobs N` renders the dataset's fragments on N workers while
//! this thread writes them to the file in order, a bounded window at a
//! time (no whole-document buffer). The dataset (and every figure) is
//! byte-identical to the sequential run at any job count.
//!
//! `--population N` seeds a panel-total fleet of N subscribers whose
//! aggregate demand drives the cell load every probe experiences
//! (`--population 0` or omitting the flag is the strict fleetless
//! baseline — byte-identical output). The fleet's ground truth is
//! rendered by the `ext-fleet` artifact.
//!
//! `--timings` prints a phase breakdown (campaign / index build / figures
//! / export, the export split into render and publish) to stderr;
//! `--timings-json FILE` writes the same breakdown as JSON, one canonical
//! record shape (`export_s` is `export_render_s + export_publish_s`); the
//! benchmark reads its `campaign_s`, `export_s` and `kpi_samples`.
//!
//! The whole command line is checked before anything runs: an unknown
//! flag or artifact id, or a missing or bad value, prints the usage to
//! stderr and exits 2; `--help` prints it to stdout and exits 0.
//!
//! `--fault-profile none|paper|harsh` injects deterministic apparatus
//! faults (probe crashes, server outages, modem detaches, timeouts); the
//! supervisor retries failed units up to `--max-retries N` times and then
//! degrades instead of aborting — unless `--fail-fast` is given, in which
//! case a lost unit ends the run with a nonzero exit. With `--export
//! FILE`, the per-unit integrity report lands in `FILE.integrity.json`.
//!
//! `--checkpoint-dir DIR` makes the campaign crash-safe: every completed
//! work unit is appended (and fsynced) to `DIR/checkpoint.log` before it
//! counts as done. If the process dies mid-campaign, rerun with `--resume`:
//! valid checkpoints are restored, only missing or corrupt units are
//! recomputed, and the output — export, integrity report, stdout — is
//! byte-identical to an uninterrupted run. `--kill-after K` is the chaos
//! hook behind the CI crash-resume gate: it aborts the run (exit 137,
//! like a SIGKILL) after the K-th durable unit commit.
//!
//! Every file this binary writes (export JSON, integrity report, timings
//! JSON, checkpoints) goes through an atomic temp-file + fsync + rename
//! write — no crash can leave a torn output under a final name.

use std::collections::BTreeSet;
use std::convert::Infallible;
// lint:allow(D3): --timings instrumentation; wall-clock phase
// durations are reported to stderr/JSON and never reach sim state
use std::time::{Duration, Instant};

use wheels_analysis::artifacts::{Artifact, ArtifactCtx, Kind, ARTIFACTS};
use wheels_analysis::AnalysisIndex;
use wheels_bench::{emit, ReproScale};
use wheels_campaign::{
    atomic_write, atomic_write_with, Campaign, CampaignConfig, CampaignError, CheckpointOptions,
    FaultProfile, ProcessKill, ScenarioSpec,
};

/// Write `bytes` to `path` atomically, or exit 1 with the error on
/// stderr — an output file either appears whole or not at all.
fn write_or_die(path: &str, bytes: &[u8]) {
    if let Err(e) = atomic_write(std::path::Path::new(path), bytes) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Resolve `--scenario NAME|FILE.json`: registry names first, then a JSON
/// spec file. The spec is validated either way.
fn load_scenario(arg: &str) -> ScenarioSpec {
    let spec = if let Some(spec) = ScenarioSpec::find(arg) {
        spec
    } else if std::path::Path::new(arg).exists() {
        let text = std::fs::read_to_string(arg).unwrap_or_else(|e| {
            eprintln!("cannot read scenario file {arg}: {e}");
            std::process::exit(2);
        });
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse scenario file {arg}: {e}");
            std::process::exit(2);
        })
    } else {
        eprintln!(
            "unknown scenario {arg:?}: not a registered name ({}) and not a file",
            ScenarioSpec::registry()
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>()
                .join("|")
        );
        std::process::exit(2);
    };
    if let Err(e) = spec.validate() {
        eprintln!("invalid scenario {arg}: {e}");
        std::process::exit(2);
    }
    spec
}

/// `repro --list`: every artifact id and registered scenario.
fn list_text() -> String {
    let mut text = String::from("artifacts:\n");
    for a in ARTIFACTS {
        text += &format!("  {:<10} {}\n", a.id, a.blurb);
    }
    text += "scenarios (use with --scenario NAME):\n";
    for s in ScenarioSpec::registry() {
        text += &format!("  {:<14} {}\n", s.name, s.description);
    }
    text
}

const USAGE: &str = "usage: repro [--scale full|quarter|smoke] [--seed N] [--jobs N] \
                     [--population N] \
                     [--fig-jobs N] [--export-jobs N] [--timings] [--timings-json FILE] \
                     [--fault-profile none|paper|harsh] [--max-retries N] [--fail-fast] \
                     [--checkpoint-dir DIR] [--resume] [--kill-after K] \
                     [--scenario NAME|FILE.json] [--scenario-dump] [--list] [--help] \
                     [--export FILE] <id...|all>";

/// The usage text, with every artifact id.
fn usage() -> String {
    let ids: Vec<&str> = ARTIFACTS.iter().map(|a| a.id).collect();
    format!("{USAGE}\nids: {}", ids.join(" "))
}

/// What the command line asks for.
struct Args {
    scale: ReproScale,
    seed: u64,
    jobs: usize,
    fig_jobs: usize,
    export_jobs: usize,
    timings: bool,
    timings_json: Option<String>,
    /// The fault and fleet flags; overlaid on the scale preset's config.
    flags: CampaignConfig,
    export: Option<String>,
    checkpoint_dir: Option<String>,
    resume: bool,
    kill_after: Option<usize>,
    scenario: Option<String>,
    scenario_dump: bool,
    list: bool,
    /// Each requested artifact once, in the order first named.
    wanted: Vec<&'static Artifact>,
}

/// Parse the whole command line before anything runs; `Ok(None)` is
/// `--help`. An unknown flag, an unknown artifact id, or a missing or
/// unparsable value is an error.
fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let mut a = Args {
        scale: ReproScale::Full,
        seed: 2026,
        jobs: 1,
        fig_jobs: 1,
        export_jobs: 1,
        timings: false,
        timings_json: None,
        flags: CampaignConfig::default(),
        export: None,
        checkpoint_dir: None,
        resume: false,
        kill_after: None,
        scenario: None,
        scenario_dump: false,
        list: false,
        wanted: Vec::new(),
    };
    let workers = |n: &str, flag: &str| {
        n.parse()
            .ok()
            .filter(|&n: &usize| n >= 1)
            .ok_or(format!("{flag} needs a positive worker count"))
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or(format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--help" => return Ok(None),
            "--list" => a.list = true,
            "--scenario" => a.scenario = Some(value()?.to_string()),
            "--scenario-dump" => a.scenario_dump = true,
            "--scale" => {
                let name = value()?;
                a.scale = ReproScale::parse(name)
                    .ok_or(format!("unknown scale {name:?} (full|quarter|smoke)"))?;
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs a number")?,
            "--jobs" => a.jobs = workers(value()?, arg)?,
            "--fig-jobs" => a.fig_jobs = workers(value()?, arg)?,
            "--export-jobs" => a.export_jobs = workers(value()?, arg)?,
            "--timings" => a.timings = true,
            "--timings-json" => a.timings_json = Some(value()?.to_string()),
            "--fault-profile" => {
                a.flags.fault_profile = FaultProfile::parse(value()?)
                    .ok_or("unknown fault profile (none|paper|harsh)")?;
            }
            "--max-retries" => {
                a.flags.max_retries = value()?
                    .parse()
                    .map_err(|_| "--max-retries needs a non-negative count")?;
            }
            "--fail-fast" => a.flags.fail_fast = true,
            "--population" => {
                a.flags.population = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--population needs a subscriber count")?,
                );
            }
            "--checkpoint-dir" => a.checkpoint_dir = Some(value()?.to_string()),
            "--resume" => a.resume = true,
            "--kill-after" => {
                a.kill_after = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--kill-after needs a unit count")?,
                );
            }
            "--export" => a.export = Some(value()?.to_string()),
            "all" => a
                .wanted
                .extend(ARTIFACTS.iter().filter(|x| x.kind == Kind::Paper)),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            id => match ARTIFACTS.iter().find(|x| x.id == id) {
                Some(x) => a.wanted.push(x),
                None => return Err(format!("unknown experiment id {id:?}")),
            },
        }
    }
    let mut named = BTreeSet::new();
    a.wanted.retain(|x| named.insert(x.id));
    if (a.resume || a.kill_after.is_some()) && a.checkpoint_dir.is_none() {
        return Err("--resume and --kill-after need --checkpoint-dir DIR".to_string());
    }
    Ok(Some(a))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        scale,
        seed,
        jobs,
        fig_jobs,
        export_jobs,
        timings,
        timings_json,
        flags,
        export,
        checkpoint_dir,
        resume,
        kill_after,
        scenario,
        scenario_dump,
        list,
        wanted,
    } = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            emit(&format!("{}\n", usage()));
            return;
        }
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            std::process::exit(2);
        }
    };
    if list {
        emit(&list_text());
        return;
    }
    let scenario = scenario.as_deref().map(load_scenario);
    if scenario_dump {
        let spec = scenario.clone().unwrap_or_else(ScenarioSpec::paper);
        emit(&format!(
            "{}\n",
            // lint:allow(D7): ScenarioSpec derives Serialize with no fallible fields; to_string_pretty cannot fail
            serde_json::to_string_pretty(&spec).expect("scenario serializes")
        ));
        return;
    }
    if wanted.is_empty() {
        eprintln!("no experiment ids\n{}", usage());
        std::process::exit(2);
    }

    let cfg = CampaignConfig {
        fault_profile: flags.fault_profile,
        max_retries: flags.max_retries,
        fail_fast: flags.fail_fast,
        population: flags.population,
        ..scale.config(seed)
    };
    eprintln!(
        "running campaign (scale {scale:?}, seed {seed}, jobs {jobs}, faults {}{})...",
        cfg.fault_profile.label(),
        scenario
            .as_ref()
            .map(|s| format!(", scenario {}", s.name))
            .unwrap_or_default()
    );
    let spec = scenario.unwrap_or_else(ScenarioSpec::paper);
    let t0 = Instant::now(); // lint:allow(D3): phase timing, reported only

    // A resume's log scan starts with its options, beside the world build.
    let checkpoint = checkpoint_dir.as_ref().map(|dir| {
        let opts = if resume {
            CheckpointOptions::resume(dir)
        } else {
            CheckpointOptions::fresh(dir)
        };
        match kill_after {
            Some(k) => opts.with_kill(ProcessKill::after_units(k)),
            None => opts,
        }
    });
    let campaign = Campaign::from_spec(&spec, cfg);
    let outcome = match campaign.run(jobs, checkpoint.as_ref()) {
        Ok(outcome) => outcome,
        Err(CampaignError::Killed { committed }) => {
            // The chaos hook "killed the process": exit the way a
            // SIGKILLed process would, with the completed units durable
            // in the checkpoint log and nothing exported.
            eprintln!(
                "killed after {committed} durable unit commits \
                 (checkpoints in {}; rerun with --resume)",
                checkpoint_dir.unwrap_or_default()
            );
            std::process::exit(137);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    if let Some(r) = &outcome.resume {
        eprintln!(
            "resume: {} units restored from checkpoints, {} recomputed \
             ({} corrupt, {} foreign records rejected)",
            r.restored_units, r.recomputed_units, r.corrupt_records, r.foreign_records
        );
        for note in &r.notes {
            eprintln!("resume note: {note}");
        }
    }
    let fleet = outcome.fleet;
    let db = outcome.db;
    let integrity = outcome.integrity;
    let campaign_elapsed = t0.elapsed();
    let kpi_samples = db.records.iter().map(|r| r.kpi.len()).sum::<usize>();
    let fleet_population = fleet.as_ref().map_or(0, |f| f.population);
    let subscriber_hours: f64 = fleet
        .as_ref()
        .map_or(0.0, |f| f.per_op.iter().map(|(_, s)| s.sub_hours()).sum());
    eprintln!(
        "campaign done in {:.1?}: {} test records, {} KPI samples",
        campaign_elapsed,
        db.records.len(),
        kpi_samples
    );
    eprintln!("{}", integrity.summary());

    let t1 = Instant::now(); // lint:allow(D3): phase timing, reported only
    let ix = AnalysisIndex::build_for(&db, campaign.ops().to_vec());
    let index_elapsed = t1.elapsed();

    // The export phase is render (write_json into the temp file's
    // buffer) plus publish (temp file creation, flush, fsync, rename,
    // directory fsync and the integrity report).
    let t2 = Instant::now(); // lint:allow(D3): phase timing, reported only
    let mut export_elapsed = Duration::ZERO;
    let mut render_elapsed = Duration::ZERO;
    if let Some(path) = export {
        let written = atomic_write_with(std::path::Path::new(&path), |w| {
            let render_start = t2.elapsed();
            let rendered = wheels_xcal::export::write_json(&db, export_jobs, w);
            render_elapsed = t2.elapsed() - render_start;
            rendered
        });
        if let Err(e) = written {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        let report =
            // lint:allow(D7): IntegrityReport's hand-written Serialize writes plain maps and numbers; it cannot fail
            serde_json::to_string_pretty(&integrity).expect("integrity report serializes");
        let report_path = format!("{path}.integrity.json");
        write_or_die(&report_path, report.as_bytes());
        eprintln!("dataset exported to {path}, integrity report to {report_path}");
        export_elapsed = t2.elapsed();
    }
    let publish_elapsed = export_elapsed.saturating_sub(render_elapsed);

    // Render the requested artifacts on `fig_jobs` workers and print
    // each once every artifact before it is out: stdout bytes are
    // identical at any --fig-jobs value.
    let t3 = Instant::now(); // lint:allow(D3): phase timing, reported only
    let ctx = ArtifactCtx {
        ix: &ix,
        route: campaign.plan().route(),
        fleet: fleet.as_ref(),
        app_offload_s: campaign.schedule().app_offload_s,
        jobs: fig_jobs,
    };
    let Ok(()) = wheels_xcal::export::ordered_stream(
        wanted.len(),
        fig_jobs,
        |i| wanted.get(i).map_or_else(String::new, |a| (a.render)(&ctx)),
        |text| {
            emit(&format!("{text}\n"));
            Ok::<(), Infallible>(())
        },
    );
    let figures_elapsed = t3.elapsed();

    if timings {
        eprintln!(
            "timings: campaign {:.3}s, index build {:.3}s, figures {:.3}s ({} ids, {} fig jobs), \
             export {:.3}s (render {:.3}s, publish {:.3}s)",
            campaign_elapsed.as_secs_f64(),
            index_elapsed.as_secs_f64(),
            figures_elapsed.as_secs_f64(),
            wanted.len(),
            fig_jobs,
            export_elapsed.as_secs_f64(),
            render_elapsed.as_secs_f64(),
            publish_elapsed.as_secs_f64(),
        );
        if fleet_population > 0 {
            eprintln!(
                "fleet: {fleet_population} subscribers, {subscriber_hours:.0} subscriber-hours \
                 ({:.0}/s)",
                subscriber_hours / campaign_elapsed.as_secs_f64()
            );
        }
    }
    if let Some(path) = timings_json {
        let total = campaign_elapsed + index_elapsed + figures_elapsed + export_elapsed;
        let json = format!(
            "{{\n  \"scale\": \"{scale:?}\",\n  \"seed\": {seed},\n  \"jobs\": {jobs},\n  \"fig_jobs\": {fig_jobs},\n  \"export_jobs\": {export_jobs},\n  \"population\": {fleet_population},\n  \"artifacts\": {},\n  \"campaign_s\": {:.6},\n  \"kpi_samples\": {kpi_samples},\n  \"samples_per_s\": {:.1},\n  \"subscriber_hours_per_s\": {:.1},\n  \"index_build_s\": {:.6},\n  \"figures_s\": {:.6},\n  \"export_s\": {:.6},\n  \"export_render_s\": {:.6},\n  \"export_publish_s\": {:.6},\n  \"total_s\": {:.6}\n}}\n",
            wanted.len(),
            campaign_elapsed.as_secs_f64(),
            kpi_samples as f64 / campaign_elapsed.as_secs_f64(),
            subscriber_hours / campaign_elapsed.as_secs_f64(),
            index_elapsed.as_secs_f64(),
            figures_elapsed.as_secs_f64(),
            export_elapsed.as_secs_f64(),
            render_elapsed.as_secs_f64(),
            publish_elapsed.as_secs_f64(),
            total.as_secs_f64(),
        );
        write_or_die(&path, json.as_bytes());
        eprintln!("timings written to {path}");
    }
}
