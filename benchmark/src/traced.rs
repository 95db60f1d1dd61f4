//! The traced pass: a workload's calls replayed sequentially by the
//! benchmark's own code, with a span around every call into a layer's
//! public functions. End-to-end numbers never come from here; this pass
//! only says where the time goes.
//!
//! Each call is replayed in a fresh process, as `repro` runs each call in
//! a fresh process: replaying a checkpointed run and its `--resume` in
//! one process measured the resume's checkpoint load about 1.6x slower
//! than `repro` does, because the allocator's state after freeing the
//! first run's dataset carried over into the second.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};
use wheels_analysis::{report, AnalysisIndex};
use wheels_campaign::checkpoint::LOG_NAME;
use wheels_campaign::executor::UnitOutcome;
use wheels_campaign::{
    atomic_write_with, merge_shards, write_all_chunked, Campaign, CheckpointWriter,
    LoadedCheckpoints, Shard, Table1, UnitReport, UnitStatus, WorkUnit,
};

use crate::clock::Clock;
use crate::stats::Summary;
use crate::trace::{self_by_name, Span, Tracer};
use crate::workload::{Call, Step};

/// Counts one traced call produced, beside its spans.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CallCounts {
    /// KPI samples in the merged dataset; must equal `repro`'s count.
    pub kpi_samples: u64,
    /// KPI samples produced by drive units.
    pub drive_kpi_samples: u64,
    /// Passive-logger samples produced by passive units.
    pub passive_samples: u64,
    /// Checkpoint log size after a fresh checkpointed call, bytes.
    pub log_bytes: u64,
    /// Serialized export size, bytes.
    pub export_bytes: u64,
}

fn unit_layer(unit: &WorkUnit) -> &'static str {
    match unit {
        WorkUnit::Drive { .. } => "units.drive",
        WorkUnit::Static { .. } => "units.static",
        WorkUnit::Passive { .. } => "units.passive",
    }
}

/// Run every unit of `campaign` sequentially, committing each to
/// `writer` when there is one, as the supervised executor does for a
/// fault-free campaign.
fn run_units(
    tr: &mut Tracer,
    campaign: &Campaign,
    writer: Option<&CheckpointWriter>,
    counts: &mut CallCounts,
) -> io::Result<Vec<Shard>> {
    let units = campaign.plan_units();
    let mut shards = Vec::with_capacity(units.len());
    for unit in &units {
        let shard = tr.span(unit_layer(unit), |_| campaign.run_unit_payload(unit));
        match unit {
            WorkUnit::Drive { .. } => {
                counts.drive_kpi_samples += shard
                    .records
                    .iter()
                    .map(|r| r.kpi.len() as u64)
                    .sum::<u64>()
            }
            WorkUnit::Passive { .. } => {
                counts.passive_samples += shard
                    .passive
                    .as_ref()
                    .map_or(0, |(_, log)| log.samples().len() as u64)
            }
            WorkUnit::Static { .. } => {}
        }
        let Some(writer) = writer else {
            shards.push(shard);
            continue;
        };
        let mut report = UnitReport::new(unit.label());
        report.status = UnitStatus::Ok;
        report.attempts = 1;
        report.records_kept = shard.records.len();
        let outcome = UnitOutcome {
            shard: Some(shard),
            report,
        };
        tr.span("checkpoint.commit", |_| writer.commit(unit, &outcome))?;
        shards.extend(outcome.shard);
    }
    Ok(shards)
}

/// Restore every unit of `campaign` from the checkpoint log in `dir`, as
/// `repro --resume` does after a complete run.
fn restore_units(tr: &mut Tracer, campaign: &Campaign, dir: &Path) -> io::Result<Vec<Shard>> {
    let key = campaign.checkpoint_key();
    let loaded = tr.span("checkpoint.load", |_| LoadedCheckpoints::load(dir, key))?;
    tr.span("checkpoint.compact", |_| loaded.compact_to(dir))?;
    CheckpointWriter::open(dir, key, false)?;
    let mut restored: BTreeMap<[u64; 3], UnitOutcome> = loaded
        .units
        .into_iter()
        .map(|(words, ck)| (words, ck.into_outcome()))
        .collect();
    campaign
        .plan_units()
        .iter()
        .map(|unit| {
            restored
                .remove(&unit.fault_words())
                .and_then(|o| o.shard)
                .ok_or_else(|| io::Error::other(format!("checkpoint log lacks {}", unit.label())))
        })
        .collect()
}

/// What a traced call hands back to the benchmark: its counts and its
/// spans, timed from the start of the call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CallTrace {
    /// Counts the call produced.
    pub counts: CallCounts,
    /// Spans of the call, ids from 0.
    pub spans: Vec<Span>,
}

/// Replay one `repro` call in this process, traced. Checkpoint logs and
/// exports go to `scratch`.
pub fn trace_call(call: &Call, scratch: &Path) -> io::Result<CallTrace> {
    let mut tr = Tracer::new(Clock::start(), "");
    let counts = traced_call(&mut tr, call, scratch)?;
    Ok(CallTrace {
        counts,
        spans: tr.into_spans(),
    })
}

fn traced_call(tr: &mut Tracer, call: &Call, scratch: &Path) -> io::Result<CallCounts> {
    tr.span("call", |tr| {
        let campaign = tr
            .span("world.build", |_| call.world())
            .map_err(io::Error::other)?;
        let ck_dir = call.checkpoint_dir(scratch);
        let mut counts = CallCounts::default();
        let shards = match call.step {
            Step::CheckpointResume => {
                let shards = restore_units(tr, &campaign, &ck_dir)?;
                fs::remove_dir_all(&ck_dir)?;
                shards
            }
            Step::CheckpointFresh => {
                let writer = CheckpointWriter::open(&ck_dir, campaign.checkpoint_key(), true)?;
                let shards = run_units(tr, &campaign, Some(&writer), &mut counts)?;
                counts.log_bytes = fs::metadata(ck_dir.join(LOG_NAME))?.len();
                shards
            }
            Step::Plain | Step::Export => run_units(tr, &campaign, None, &mut counts)?,
        };
        let db = tr.span("merge", |_| merge_shards(shards));
        counts.kpi_samples = db.records.iter().map(|r| r.kpi.len() as u64).sum();
        let ix = tr.span("analysis.index", |_| {
            AnalysisIndex::build_for(&db, campaign.ops().to_vec())
        });
        tr.span("analysis.figures", |_| {
            black_box(match call.artifacts {
                "table1" => {
                    Table1::compute_for(&db, campaign.plan().route(), campaign.ops()).render()
                }
                _ => report::generate_jobs(&ix, campaign.plan().route(), 1),
            })
        });
        if call.step == Step::Export {
            let parts = tr.span("export.serialize", |_| {
                wheels_xcal::export::to_json_parts(&db, 1)
            });
            counts.export_bytes = parts.iter().map(|p| p.len() as u64).sum();
            let path = scratch.join("traced-export.json");
            tr.span("export.write", |_| {
                atomic_write_with(&path, |w| {
                    parts
                        .iter()
                        .try_for_each(|p| write_all_chunked(w, p.as_bytes()))
                })
            })?;
            fs::remove_file(&path)?;
        }
        Ok(counts)
    })
}

/// Which end-to-end metric, on which workload, each per-layer metric is
/// expected to move. The README renders this table; a metric may move
/// several.
pub const LAYER_MOVES: &[(&str, &str, &str)] = &[
    ("world.build_s", "setup_s", "paper-export"),
    ("world.build_s", "setup_s", "checkpoint-resume"),
    ("world.build_s", "setup_s", "sweep-smoke"),
    ("world.build_s", "wall_s", "sweep-smoke"),
    ("units.drive.busy_s", "campaign_s", "paper-export"),
    ("units.drive.busy_s", "cpu_s", "paper-export"),
    ("units.drive.busy_s", "wall_s", "paper-export"),
    ("units.drive.busy_s", "campaign_s", "checkpoint-resume"),
    ("units.drive.busy_s", "campaign_s", "sweep-smoke"),
    ("units.drive.n", "campaign_s", "paper-export"),
    ("units.drive.p50_s", "campaign_s", "paper-export"),
    ("units.drive.max_s", "campaign_s", "checkpoint-resume"),
    ("units.drive.kpi_samples", "campaign_s", "paper-export"),
    ("units.drive.us_per_kpi", "cpu_s", "paper-export"),
    ("units.static.busy_s", "campaign_s", "sweep-smoke"),
    ("units.static.busy_s", "campaign_s", "checkpoint-resume"),
    ("units.static.busy_s", "campaign_s", "paper-export"),
    ("units.static.n", "campaign_s", "sweep-smoke"),
    ("units.passive.busy_s", "campaign_s", "sweep-smoke"),
    ("units.passive.busy_s", "campaign_s", "checkpoint-resume"),
    ("units.passive.busy_s", "campaign_s", "paper-export"),
    ("units.passive.n", "campaign_s", "sweep-smoke"),
    ("units.passive.samples", "campaign_s", "checkpoint-resume"),
    ("units.parallel_eff", "campaign_s", "checkpoint-resume"),
    ("merge.busy_s", "campaign_s", "paper-export"),
    ("checkpoint.log_mb", "campaign_s", "checkpoint-resume"),
    ("checkpoint.log_mb", "peak_rss_mb", "checkpoint-resume"),
    ("checkpoint.commit_share", "campaign_s", "checkpoint-resume"),
    (
        "checkpoint.commit_mb_per_s",
        "campaign_s",
        "checkpoint-resume",
    ),
    ("checkpoint.load_share", "campaign_s", "checkpoint-resume"),
    ("checkpoint.load_share", "peak_rss_mb", "checkpoint-resume"),
    (
        "checkpoint.load_mb_per_s",
        "campaign_s",
        "checkpoint-resume",
    ),
    (
        "checkpoint.compact_share",
        "campaign_s",
        "checkpoint-resume",
    ),
    ("analysis.index_s", "wall_s", "sweep-smoke"),
    ("analysis.figures_s", "wall_s", "sweep-smoke"),
    ("export.mb", "wall_s", "paper-export"),
    ("export.mb", "peak_rss_mb", "paper-export"),
    ("export.serialize_share", "wall_s", "paper-export"),
    ("export.serialize_mb_per_s", "cpu_s", "paper-export"),
    ("export.write_share", "wall_s", "paper-export"),
    ("export.write_mb_per_s", "wall_s", "paper-export"),
    ("trace.cpu_ratio", "cpu_s", "paper-export"),
];

/// What the untraced run of the same calls contributes to the per-layer
/// metrics.
#[derive(Debug, Clone, Copy)]
pub struct Untraced {
    /// CPU seconds of all the workload's calls.
    pub cpu_s: f64,
    /// Campaign phase of the calls that run units (not `--resume`).
    pub unit_campaign_s: f64,
    /// `--jobs` of those calls.
    pub jobs: usize,
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer values of one traced pass: its spans, the counts its calls
/// produced, the CPU seconds it took, and the untraced run it mirrors.
pub fn pass_metrics(
    spans: &[Span],
    counts: &[CallCounts],
    pass_cpu_s: f64,
    untraced: Untraced,
) -> Vec<(&'static str, &'static str, f64)> {
    let by_name = self_by_name(spans);
    let self_s = |name: &str| by_name.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e9);
    let count = |name: &str| by_name.get(name).map_or(0.0, |&(_, n)| n as f64);
    let total_s: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum();
    let drive: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "units.drive")
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect();
    let drive_summary = Summary::of(&drive);
    let sum = |f: fn(&CallCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let drive_kpi = sum(|c| c.drive_kpi_samples);
    let log_mb = sum(|c| c.log_bytes) / 1e6;
    let export_mb = sum(|c| c.export_bytes) / 1e6;
    let unit_busy = self_s("units.drive") + self_s("units.static") + self_s("units.passive");
    vec![
        ("world.build_s", "s", self_s("world.build")),
        ("units.drive.busy_s", "s", self_s("units.drive")),
        ("units.drive.n", "count", count("units.drive")),
        (
            "units.drive.p50_s",
            "s",
            drive_summary.map_or(0.0, |s| s.median),
        ),
        (
            "units.drive.max_s",
            "s",
            drive.iter().copied().fold(0.0, f64::max),
        ),
        ("units.drive.kpi_samples", "count", drive_kpi),
        (
            "units.drive.us_per_kpi",
            "us",
            ratio(self_s("units.drive") * 1e6, drive_kpi),
        ),
        ("units.static.busy_s", "s", self_s("units.static")),
        ("units.static.n", "count", count("units.static")),
        ("units.passive.busy_s", "s", self_s("units.passive")),
        ("units.passive.n", "count", count("units.passive")),
        ("units.passive.samples", "count", sum(|c| c.passive_samples)),
        (
            "units.parallel_eff",
            "ratio",
            ratio(unit_busy, untraced.jobs as f64 * untraced.unit_campaign_s),
        ),
        ("merge.busy_s", "s", self_s("merge")),
        ("checkpoint.log_mb", "MB", log_mb),
        (
            "checkpoint.commit_share",
            "ratio",
            ratio(self_s("checkpoint.commit"), total_s),
        ),
        (
            "checkpoint.commit_mb_per_s",
            "MB/s",
            ratio(log_mb, self_s("checkpoint.commit")),
        ),
        (
            "checkpoint.load_share",
            "ratio",
            ratio(self_s("checkpoint.load"), total_s),
        ),
        (
            "checkpoint.load_mb_per_s",
            "MB/s",
            ratio(log_mb, self_s("checkpoint.load")),
        ),
        (
            "checkpoint.compact_share",
            "ratio",
            ratio(self_s("checkpoint.compact"), total_s),
        ),
        ("analysis.index_s", "s", self_s("analysis.index")),
        ("analysis.figures_s", "s", self_s("analysis.figures")),
        ("export.mb", "MB", export_mb),
        (
            "export.serialize_share",
            "ratio",
            ratio(self_s("export.serialize"), total_s),
        ),
        (
            "export.serialize_mb_per_s",
            "MB/s",
            ratio(export_mb, self_s("export.serialize")),
        ),
        (
            "export.write_share",
            "ratio",
            ratio(self_s("export.write"), total_s),
        ),
        (
            "export.write_mb_per_s",
            "MB/s",
            ratio(export_mb, self_s("export.write")),
        ),
        (
            "trace.cpu_ratio",
            "ratio",
            ratio(pass_cpu_s, untraced.cpu_s),
        ),
    ]
}
