//! The two kinds of benchmark run: end-to-end (tracing off, `repro`
//! timed from outside) and traced (per-layer numbers from the
//! benchmark's own replay of the same calls).

use std::io;

use crate::calibrate::normalized;
use crate::clock::Clock;
use crate::run::{run_kernel, run_rep, run_traced_call, CallRun, Env, FNV_BASIS};
use crate::stats::Summary;
use crate::trace::Span;
use crate::traced::{pass_metrics, Untraced};
use crate::workload::{setup_sample, worlds, Call, Step};

/// Measured repetitions per run, at least; more run while the run's
/// measuring time lasts.
pub const MIN_REPS: usize = 3;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value reported: the mean of the samples for an end-to-end call
    /// time, their median otherwise.
    pub value: f64,
    /// Summary over repetitions or traced passes.
    pub summary: Summary,
}

/// Output checks: how many were made and which failed.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// A description of each failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Failed checks.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The metrics `BENCHMARK.json` lists for this kind of run.
    pub metrics: Vec<Metric>,
    /// Further phase splits that exist only on some workloads.
    pub extra: Vec<Metric>,
    /// Output identity (digests, counts), printed but not compared
    /// across commits.
    pub identity: Vec<(&'static str, String)>,
    /// Output checks.
    pub checks: Checks,
    /// Spans of every traced pass (traced runs only).
    pub spans: Vec<Span>,
}

/// A metric reported as the median of `samples`; `None` without samples.
fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Option<Metric> {
    Summary::of(samples).map(|summary| Metric {
        name,
        unit,
        value: summary.median,
        summary,
    })
}

/// A time in seconds reported as the mean of `samples`; `None` without
/// samples.
fn mean_of(name: &'static str, samples: &[f64]) -> Option<Metric> {
    Summary::of(samples).map(|summary| Metric {
        name,
        unit: "s",
        value: samples.iter().sum::<f64>() / samples.len() as f64,
        summary,
    })
}

/// Check that every call exited 0 and that each `--resume` printed what
/// the fresh run before it printed.
fn check_exits(calls: &[Call], runs: &[CallRun], rep: &str, checks: &mut Checks) {
    for (i, (call, run)) in calls.iter().zip(runs).enumerate() {
        checks.check(run.exit_ok, || {
            format!("{rep}: call {i} ({call:?}) exited nonzero")
        });
        if call.step == Step::CheckpointResume {
            let fresh = i.checked_sub(1).and_then(|j| runs.get(j));
            checks.check(
                fresh.is_some_and(|f| f.stdout_digest == run.stdout_digest),
                || format!("{rep}: --resume stdout differs from the fresh run's"),
            );
        }
    }
}

/// Fold the per-call digests of a repetition into one.
fn combined(runs: &[CallRun], digest: impl Fn(&CallRun) -> Option<u64>) -> Option<u64> {
    let digests: Vec<u64> = runs.iter().filter_map(digest).collect();
    (!digests.is_empty()).then(|| {
        digests
            .iter()
            .fold(FNV_BASIS, |h, d| crate::run::fnv1a(h, &d.to_le_bytes()))
    })
}

/// Per repetition, the sum of `value` over the calls `keep` selects; empty
/// when it selects none.
fn per_rep(
    reps: &[Vec<CallRun>],
    calls: &[Call],
    keep: impl Fn(&Call) -> bool,
    value: impl Fn(&CallRun) -> f64,
) -> Vec<f64> {
    if !calls.iter().any(&keep) {
        return Vec::new();
    }
    reps.iter()
        .map(|runs| {
            calls
                .iter()
                .zip(runs)
                .filter(|(c, _)| keep(c))
                .map(|(_, r)| value(r))
                .sum()
        })
        .collect()
}

/// One set-up sample, normalized: the calibration kernel on one thread, as
/// the worlds are built on one, then every world built once.
fn setup_sample_s(env: &Env, worlds: &[&Call]) -> io::Result<f64> {
    let kernel_s = run_kernel(env, 1)?;
    let builds = setup_sample(worlds).map_err(io::Error::other)?;
    Ok(normalized(builds.iter().sum(), kernel_s))
}

/// End-to-end run with tracing off: one discarded warm-up repetition,
/// then repetitions until `seconds` have been measured (at least
/// [`MIN_REPS`]). The workload's worlds are built in-process before every
/// repetition, warm-up included, so set-up samples spread over the run
/// like the others. Every repetition's outputs must match the warm-up's
/// byte for byte.
///
/// Every time is normalized by the calibration kernel run just before it
/// ([`normalized`]) and summed over the repetition's calls (or worlds).
/// A call-time metric is the mean of these sums over the repetitions:
/// after normalization the noise left is symmetric and light-tailed, and
/// the mean is steadier than the median over a handful of repetitions.
/// `setup_s` is the median of its samples, one more than the repetitions.
/// Raw wall time and the kernel's own time are reported beside the
/// metrics.
pub fn end_to_end(env: &Env, calls: &[Call], seconds: f64) -> io::Result<Report> {
    let mut report = Report::default();
    let worlds = worlds(calls);
    let mut setup = vec![setup_sample_s(env, &worlds)?];
    let warm = run_rep(env, calls)?;
    check_exits(calls, &warm, "warm-up", &mut report.checks);
    let clock = Clock::start();
    let mut reps: Vec<Vec<CallRun>> = Vec::new();
    while reps.len() < MIN_REPS || clock.seconds() < seconds {
        setup.push(setup_sample_s(env, &worlds)?);
        let runs = run_rep(env, calls)?;
        let rep = format!("repetition {}", reps.len() + 1);
        check_exits(calls, &runs, &rep, &mut report.checks);
        for (i, (run, first)) in runs.iter().zip(&warm).enumerate() {
            report
                .checks
                .check(run.stdout_digest == first.stdout_digest, || {
                    format!("{rep}: call {i} stdout differs from the warm-up's")
                });
            if first.export_digest.is_some() {
                report
                    .checks
                    .check(run.export_digest == first.export_digest, || {
                        format!("{rep}: call {i} export differs from the warm-up's")
                    });
            }
        }
        reps.push(runs);
    }
    let all = |_: &Call| true;
    let peak: Vec<f64> = reps
        .iter()
        .map(|r| r.iter().map(|c| c.peak_rss_mb).fold(0.0, f64::max))
        .collect();
    let time = |keep: &dyn Fn(&Call) -> bool, value: fn(&CallRun) -> f64| {
        per_rep(&reps, calls, keep, |r| normalized(value(r), r.kernel_s))
    };
    report.metrics = [
        mean_of("wall_s", &time(&all, |r| r.wall_s)),
        mean_of("cpu_s", &time(&all, |r| r.cpu_s)),
        median_of("peak_rss_mb", "MB", &peak),
        median_of("setup_s", "s", &setup),
        mean_of("campaign_s", &time(&all, |r| r.campaign_s)),
    ]
    .into_iter()
    .flatten()
    .collect();
    let export = |c: &Call| c.step == Step::Export;
    let resume = |c: &Call| c.step == Step::CheckpointResume;
    let kernel: Vec<f64> = reps.iter().flatten().map(|r| r.kernel_s).collect();
    report.extra = [
        mean_of("export_s", &time(&export, |r| r.export_s)),
        mean_of("restore_s", &time(&resume, |r| r.campaign_s)),
        mean_of("raw_wall_s", &per_rep(&reps, calls, all, |r| r.wall_s)),
        median_of("kernel_s", "s", &kernel),
    ]
    .into_iter()
    .flatten()
    .collect();
    let fmt = |d: Option<u64>| d.map_or_else(|| "none".to_string(), |d| format!("{d:016x}"));
    report.identity = vec![
        (
            "stdout_fnv",
            fmt(combined(&warm, |r| Some(r.stdout_digest))),
        ),
        ("export_fnv", fmt(combined(&warm, |r| r.export_digest))),
        (
            "kpi_samples",
            warm.iter().map(|r| r.kpi_samples).sum::<u64>().to_string(),
        ),
    ];
    Ok(report)
}

/// Traced run: the workload once through `repro` untraced (the
/// comparison base and a warm-up), then traced passes until `seconds`
/// have been measured (at least one). Each traced call's dataset must
/// hold exactly as many KPI samples as `repro`'s did for the same world.
pub fn traced(env: &Env, calls: &[Call], workload: &str, seconds: f64) -> io::Result<Report> {
    let mut report = Report::default();
    let untraced_runs = run_rep(env, calls)?;
    check_exits(calls, &untraced_runs, "untraced run", &mut report.checks);
    let untraced = Untraced {
        cpu_s: untraced_runs.iter().map(|r| r.cpu_s).sum(),
        unit_campaign_s: untraced_runs
            .iter()
            .zip(calls)
            .filter(|(_, c)| c.step != Step::CheckpointResume)
            .map(|(r, _)| r.campaign_s)
            .sum(),
        jobs: env.jobs,
    };
    let clock = Clock::start();
    let mut passes: Vec<Vec<(&'static str, &'static str, f64)>> = Vec::new();
    while passes.is_empty() || clock.seconds() < seconds {
        env.reset_scratch()?;
        let first_span = report.spans.len();
        let mut counts = Vec::with_capacity(calls.len());
        let mut cpu_s = 0.0;
        for call in calls {
            // Child spans are timed from the child's start; shift them onto
            // this run's clock and renumber them after the spans so far.
            let offset_ns = clock.now_ns();
            let (trace, call_cpu_s) = run_traced_call(env, call)?;
            let base = report.spans.len();
            report.spans.extend(trace.spans.into_iter().map(|s| Span {
                id: s.id + base,
                parent: s.parent.map(|p| p + base),
                workload: workload.to_string(),
                start_ns: s.start_ns + offset_ns,
                end_ns: s.end_ns + offset_ns,
                ..s
            }));
            counts.push(trace.counts);
            cpu_s += call_cpu_s;
        }
        env.reset_scratch()?;
        let pass = passes.len() + 1;
        for (i, (c, r)) in counts.iter().zip(&untraced_runs).enumerate() {
            report.checks.check(c.kpi_samples == r.kpi_samples, || {
                format!(
                    "traced pass {pass}: call {i} has {} KPI samples, repro had {}",
                    c.kpi_samples, r.kpi_samples
                )
            });
        }
        let spans = report.spans.get(first_span..).unwrap_or_default();
        passes.push(pass_metrics(spans, &counts, cpu_s, untraced));
    }
    let Some(first) = passes.first() else {
        return Ok(report);
    };
    report.metrics = first
        .iter()
        .enumerate()
        .filter_map(|(k, &(name, unit, _))| {
            let values: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.get(k).map(|m| m.2))
                .collect();
            median_of(name, unit, &values)
        })
        .collect();
    report.identity = vec![(
        "kpi_samples",
        untraced_runs
            .iter()
            .map(|r| r.kpi_samples)
            .sum::<u64>()
            .to_string(),
    )];
    Ok(report)
}
