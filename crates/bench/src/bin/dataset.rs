//! Generate and export the dataset (the paper publishes its dataset and
//! scripts; this is ours).
//!
//! ```text
//! cargo run --release -p wheels-bench --bin dataset -- --out data/ --scale quarter
//! ```
//!
//! Writes:
//! * `dataset.json` — the full consolidated database;
//! * `throughput.csv` — one row per 500 ms throughput sample;
//! * `drm/XCAL_*.drm` — per-test binary XCAL logs (round-trip verified);
//! * `summary.txt` — Table-1-style statistics.
//!
//! A bad command line prints the usage and exits 2 before any campaign
//! runs; a failed write or `.drm` self-check exits 1.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::exit;

use wheels_bench::{emit, ReproScale};
use wheels_campaign::stats::Table1;
use wheels_campaign::{atomic_write, atomic_write_with, drm, Campaign, ScenarioSpec};
use wheels_xcal::export;

const USAGE: &str = "usage: dataset [--out DIR] [--scale full|quarter|smoke] [--seed N] [--help]";

/// What the command line asks for.
struct Args {
    out: PathBuf,
    scale: ReproScale,
    seed: u64,
}

/// Parse the command line; `Ok(None)` is `--help`.
fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let mut parsed = Args {
        out: PathBuf::from("dataset_out"),
        scale: ReproScale::Smoke,
        seed: 2026,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--help" => return Ok(None),
            "--out" => parsed.out = PathBuf::from(value()?),
            "--scale" => {
                let name = value()?;
                parsed.scale = ReproScale::parse(name)
                    .ok_or(format!("unknown scale {name:?} (full|quarter|smoke)"))?;
            }
            "--seed" => {
                let n = value()?;
                parsed.seed = n
                    .parse()
                    .map_err(|_| format!("--seed needs a number, got {n:?}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Some(parsed))
}

/// Print `msg` and exit 1.
fn die(msg: String) -> ! {
    eprintln!("{msg}");
    exit(1);
}

/// Atomic write or exit 1 — a dataset file either appears whole or not
/// at all, even if this process dies mid-export.
fn write_or_die(path: &Path, bytes: &[u8]) {
    if let Err(e) = atomic_write(path, bytes) {
        die(format!("cannot write {}: {e}", path.display()));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { out, scale, seed } = match parse_args(&args) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            emit(&format!("{USAGE}\n"));
            return;
        }
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            exit(2);
        }
    };

    eprintln!("running campaign at {scale:?} (seed {seed})...");
    let campaign = Campaign::from_spec(&ScenarioSpec::paper(), scale.config(seed));
    let db = match campaign.run(1, None) {
        Ok(outcome) => outcome.db,
        Err(e) => die(e.to_string()),
    };
    let drm_dir = out.join("drm");
    if let Err(e) = fs::create_dir_all(&drm_dir) {
        die(format!("cannot create {}: {e}", drm_dir.display()));
    }

    // JSON, streamed fragment by fragment into the atomic temp file — no
    // whole-file buffer even at full scale.
    let json_path = out.join("dataset.json");
    if let Err(e) = atomic_write_with(&json_path, |w| export::write_json(&db, 1, w)) {
        die(format!("cannot write {}: {e}", json_path.display()));
    }
    let json_bytes = fs::metadata(&json_path).map_or(0, |m| m.len());
    eprintln!("wrote dataset.json ({} MB)", json_bytes / 1_000_000);

    // CSV, same streaming discipline (write_tput_csv buffers internally).
    let csv_path = out.join("throughput.csv");
    if let Err(e) = atomic_write_with(&csv_path, |w| export::write_tput_csv(&db, w)) {
        die(format!("cannot write {}: {e}", csv_path.display()));
    }
    let rows = db
        .records
        .iter()
        .flat_map(|r| &r.kpi)
        .filter(|k| k.tput_mbps.is_some())
        .count();
    eprintln!("wrote throughput.csv ({rows} rows)");

    // Binary .drm files, each checked to decode back to its own bytes.
    let mut drm_bytes = 0usize;
    for r in &db.records {
        let log = drm::log_for(r);
        let bytes = drm::encode(&log);
        match drm::decode(&bytes) {
            Ok(back) if drm::encode(&back) == bytes => {}
            Ok(_) => die(format!(
                "{}: .drm round trip changed the log",
                log.file_name
            )),
            Err(e) => die(format!("{}: .drm self-check failed: {e}", log.file_name)),
        }
        // Disambiguate concurrent per-operator files with the test id.
        let name = format!("{:06}_{}", r.id, log.file_name);
        drm_bytes += bytes.len();
        write_or_die(&drm_dir.join(name), &bytes);
    }
    eprintln!(
        "wrote {} .drm files ({} MB), all round-trip verified",
        db.records.len(),
        drm_bytes / 1_000_000
    );

    // Summary.
    let t1 = Table1::compute(&db, campaign.plan().route());
    write_or_die(&out.join("summary.txt"), t1.render().as_bytes());
    eprintln!("wrote summary.txt");
    emit(&format!("{}\n", t1.render()));
}
