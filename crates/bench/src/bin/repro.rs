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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
// lint:allow(D3): --timings instrumentation; wall-clock phase
// durations are reported to stderr/JSON and never reach sim state
use std::time::{Duration, Instant};

use wheels_analysis::figures as figs;
use wheels_analysis::AnalysisIndex;
use wheels_bench::{emit, ReproScale, EXPERIMENTS, EXTENSIONS};
use wheels_campaign::stats::Table1;
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
    for id in EXPERIMENTS {
        text += &format!("  {id:<10} {}\n", artifact_blurb(id));
    }
    text += &format!(
        "  {:<10} full markdown report (all artifacts + maps)\n",
        "report"
    );
    for id in EXTENSIONS {
        text += &format!("  {id:<10} {}\n", artifact_blurb(id));
    }
    text += "scenarios (use with --scenario NAME):\n";
    for s in ScenarioSpec::registry() {
        text += &format!("  {:<14} {}\n", s.name, s.description);
    }
    text
}

fn artifact_blurb(id: &str) -> &'static str {
    match id {
        "table1" => "driving dataset statistics",
        "fig1" => "passive vs active coverage views + route maps",
        "fig2" => "technology coverage shares",
        "fig3" => "static vs driving performance CDFs",
        "fig4" => "per-technology performance",
        "fig5" => "throughput by timezone",
        "fig6" => "operator-pair throughput diversity",
        "fig7" => "throughput vs vehicle speed",
        "fig8" => "RTT vs vehicle speed",
        "table2" => "KPI-throughput Pearson correlations",
        "fig9" => "per-test mean/stddev statistics",
        "fig10" => "performance vs time on high-speed 5G",
        "table3" => "Ookla Q3 2022 comparison",
        "fig11" => "handover rates and durations",
        "fig12" => "throughput impact of handovers",
        "table4" => "AR/CAV offload configuration",
        "table5" => "mAP vs E2E latency table",
        "fig13" => "AR offloading results",
        "fig14" => "CAV offloading results",
        "fig15" => "360° video streaming results",
        "fig16" => "cloud gaming results",
        "ext-mptcp" => "MPTCP multi-operator what-if (extension)",
        "ext-fleet" => "probe panel vs subscriber-fleet ground truth (extension)",
        _ => "",
    }
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
    format!(
        "{USAGE}\nids: {} report {}",
        EXPERIMENTS.join(" "),
        EXTENSIONS.join(" ")
    )
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
    wanted: Vec<String>,
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
            "all" => a.wanted.extend(EXPERIMENTS.iter().map(|s| s.to_string())),
            id if id == "report" || EXPERIMENTS.contains(&id) || EXTENSIONS.contains(&id) => {
                a.wanted.push(id.to_string());
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            id => return Err(format!("unknown experiment id {id:?}")),
        }
    }
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
        mut wanted,
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
    wanted.dedup();

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

    // Render the requested artifacts on `fig_jobs` workers with the same
    // atomic-counter queue as the campaign executor, then print in request
    // order — stdout bytes are identical at any --fig-jobs value.
    let t3 = Instant::now(); // lint:allow(D3): phase timing, reported only
    let slots: Vec<Mutex<Option<String>>> = wanted.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = fig_jobs.min(wanted.len()).max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let (Some(id), Some(slot)) = (wanted.get(i), slots.get(i)) else {
                    break;
                };
                let text = render_one(id, &campaign, &ix, fleet.as_ref(), fig_jobs);
                // lint:allow(D7): a poisoned slot means a sibling render worker already panicked; propagate
                *slot.lock().expect("render slot poisoned") = Some(text);
            });
        }
    });
    let figures_elapsed = t3.elapsed();

    for slot in slots {
        let text = slot
            .into_inner()
            // lint:allow(D7): a poisoned slot means a render worker panicked; propagate
            .expect("render slot poisoned")
            // lint:allow(D7): the worker queue covers every index exactly once before the scope joins
            .expect("every artifact rendered");
        emit(&format!("{text}\n"));
    }

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

fn render_one(
    id: &str,
    campaign: &Campaign,
    ix: &AnalysisIndex<'_>,
    fleet: Option<&wheels_campaign::FleetSummary>,
    fig_jobs: usize,
) -> String {
    let db = ix.db();
    match id {
        "table1" => format!(
            "Table 1 — driving dataset statistics\n{}",
            Table1::compute_for(db, campaign.plan().route(), campaign.ops()).render()
        ),
        "fig1" => format!(
            "{}\n{}",
            figs::fig01_coverage_views::compute(ix).render(),
            wheels_analysis::map::render_fig1_maps_for(
                db,
                campaign.plan().route().total_m(),
                96,
                campaign.ops()
            )
        ),
        "fig2" => figs::fig02_coverage::compute(ix).render(),
        "fig3" => figs::fig03_static_driving::compute(ix).render(),
        "fig4" => figs::fig04_tech_perf::compute(ix).render(),
        "fig5" => figs::fig05_timezones::compute(ix).render(),
        "fig6" => figs::fig06_operator_diversity::compute(ix).render(),
        "fig7" => figs::fig07_speed_tput::compute(ix).render(),
        "fig8" => figs::fig08_speed_rtt::compute(ix).render(),
        "table2" => figs::table2_correlations::compute(ix).render(),
        "fig9" => figs::fig09_test_stats::compute(ix).render(),
        "fig10" => figs::fig10_hs5g::compute(ix).render(),
        "table3" => figs::table3_ookla::compute(ix).render(),
        "fig11" => figs::fig11_handovers::compute(ix).render(),
        "fig12" => figs::fig12_ho_impact::compute(ix).render(),
        "table4" => format!(
            "Table 4 — AR/CAV configuration\n{}",
            wheels_apps::config::render_table4()
        ),
        "table5" => render_table5(),
        "fig13" => figs::fig13_ar::compute(ix).render(),
        "fig14" => figs::fig14_cav::compute(ix).render(),
        "fig15" => figs::fig15_video::compute(ix).render(),
        "fig16" => figs::fig16_gaming::compute(ix).render(),
        "ext-mptcp" => figs::ext_multipath::compute(ix).render(),
        "ext-fleet" => figs::ext_fleet::compute(ix, fleet).render(),
        "report" => {
            wheels_analysis::report::generate_jobs(ix, campaign.plan().route(), fig_jobs)
        }
        other => format!("unknown experiment id: {other}"),
    }
}

fn render_table5() -> String {
    use wheels_apps::map_table::{MAP_NO_COMPRESSION, MAP_WITH_COMPRESSION};
    let mut s = String::from(
        "Table 5 — mAP vs E2E latency (frame times)\nbin   mAP w/o comp   mAP w/ comp\n",
    );
    let rows = MAP_NO_COMPRESSION.iter().zip(MAP_WITH_COMPRESSION.iter());
    for (i, (without, with)) in rows.enumerate() {
        s.push_str(&format!(
            "{:>2}-{:<2}   {:>8.2}      {:>8.2}\n",
            i,
            i + 1,
            without,
            with
        ));
    }
    s
}
