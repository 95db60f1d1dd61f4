//! Run one workload of the benchmark and print its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper-export --seed 11 --seconds 25 --trace 0 [--out DIR]
//! ```
//!
//! Prints one line per metric (`workload metric value unit [q1, q3] n=…`),
//! identity and check lines, and as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones. With
//! `--out DIR` it also writes `DIR/<workload>.results.json` or
//! `DIR/<workload>.trace.json`. Exits 1 if an output check fails and 2 on
//! a usage or I/O error.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::{Num, Serialize, Value};

use wheels_benchmark::calibrate;
use wheels_benchmark::measure::{self, Metric, Report};
use wheels_benchmark::run::{build_repro, Env};
use wheels_benchmark::trace::self_by_name;
use wheels_benchmark::traced::{trace_call, LAYER_MOVES};
use wheels_benchmark::workload::{self, Call, WORKLOADS};

const USAGE: &str = "usage: wheels-benchmark --workload NAME [--seed N] [--seconds S] \
[--trace 0|1] [--out DIR]";

/// Parallelism of every `repro` call: the machine's, capped at 4.
const MAX_JOBS: usize = 4;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    /// Internal: replay one call traced and print its trace (see
    /// `run::run_traced_call`).
    traced_call: Option<String>,
    scratch: Option<PathBuf>,
    /// Internal: run the calibration kernel on this many threads and print
    /// its time (see `run::run_kernel`).
    kernel: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: 11,
        seconds: 25.0,
        trace: false,
        out: None,
        traced_call: None,
        scratch: None,
        kernel: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = WORKLOADS.into_iter().find(|w| *w == name).ok_or_else(|| {
                    format!("unknown workload {name:?} ({})", WORKLOADS.join("|"))
                })?;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--traced-call" => args.traced_call = Some(value()?),
            "--scratch" => args.scratch = Some(PathBuf::from(value()?)),
            "--kernel" => {
                args.kernel = Some(value()?.parse().map_err(|e| format!("--kernel: {e}"))?)
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() && args.traced_call.is_none() && args.kernel.is_none() {
        return Err(format!("--workload is required ({})", WORKLOADS.join("|")));
    }
    Ok(args)
}

fn num(x: f64) -> Value {
    Value::Num(Num::F64(x))
}

fn int(x: u64) -> Value {
    Value::Num(Num::U64(x))
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn metric_json(m: &Metric) -> Value {
    obj(vec![
        ("name", text(m.name)),
        ("unit", text(m.unit)),
        ("value", num(m.value)),
        ("median", num(m.summary.median)),
        ("q1", num(m.summary.q1)),
        ("q3", num(m.summary.q3)),
        ("n", int(m.summary.n as u64)),
    ])
}

/// The full record `--out` writes.
fn record(args: &Args, jobs: usize, report: &Report) -> Value {
    let mut pairs = vec![
        ("workload", text(args.workload)),
        ("seed", int(args.seed)),
        ("seconds", num(args.seconds)),
        ("jobs", int(jobs as u64)),
        (
            "metrics",
            Value::Array(report.metrics.iter().map(metric_json).collect()),
        ),
        (
            "extra",
            Value::Array(report.extra.iter().map(metric_json).collect()),
        ),
        (
            "identity",
            obj(report.identity.iter().map(|(k, v)| (*k, text(v))).collect()),
        ),
        (
            "checks",
            obj(vec![
                ("attempted", int(report.checks.attempted)),
                ("failed", int(report.checks.failed())),
                (
                    "failures",
                    Value::Array(report.checks.failures.iter().map(|f| text(f)).collect()),
                ),
            ]),
        ),
    ];
    if args.trace {
        let self_s = self_by_name(&report.spans)
            .into_iter()
            .map(|(name, (ns, _))| (name, num(ns as f64 / 1e9)))
            .collect();
        let moves = LAYER_MOVES.iter().map(|&(m, e2e, w)| {
            obj(vec![
                ("metric", text(m)),
                ("moves", text(e2e)),
                ("on", text(w)),
            ])
        });
        pairs.push(("self_s", obj(self_s)));
        pairs.push(("moves", Value::Array(moves.collect())));
        pairs.push(("spans", report.spans.to_value()));
    }
    obj(pairs)
}

fn write_record(dir: &Path, args: &Args, jobs: usize, report: &Report) -> Result<(), String> {
    let kind = if args.trace { "trace" } else { "results" };
    let path = dir.join(format!("{}.{kind}.json", args.workload));
    let json = serde_json::to_string_pretty(&record(args, jobs, report))
        .map_err(|e| format!("encoding {}: {e}", path.display()))?;
    std::fs::create_dir_all(dir)
        .and_then(|()| wheels_campaign::atomic_write(&path, json.as_bytes()))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The child side of a traced call: replay it and print its trace as one
/// JSON line.
fn traced_call(token: &str, scratch: Option<&Path>) -> Result<ExitCode, String> {
    let call = Call::from_token(token).ok_or_else(|| format!("bad traced call {token:?}"))?;
    let scratch = scratch.ok_or("--traced-call needs --scratch")?;
    let trace = trace_call(&call, scratch).map_err(|e| format!("traced call {token}: {e}"))?;
    let json = serde_json::to_string(&trace).map_err(|e| format!("encoding the trace: {e}"))?;
    println!("{json}");
    Ok(ExitCode::SUCCESS)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if let Some(threads) = args.kernel {
        println!("{}", calibrate::kernel(threads));
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(token) = &args.traced_call {
        return traced_call(token, args.scratch.as_deref());
    }
    let calls = workload::calls(args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let jobs = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_JOBS);
    // `repro` is built beside this executable: <target>/release/.
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("no target directory above {}", exe.display()))?;
    let repro = build_repro(&target).map_err(|e| e.to_string())?;
    let env = Env {
        repro,
        benchmark: exe,
        scratch: target.join("benchmark-scratch"),
        jobs,
    };
    let report = if args.trace {
        measure::traced(&env, &calls, args.workload, args.seconds)
    } else {
        measure::end_to_end(&env, &calls, args.seconds)
    };
    let cleanup = std::fs::remove_dir_all(&env.scratch);
    let report = report.map_err(|e| format!("{}: {e}", args.workload))?;
    cleanup.map_err(|e| format!("removing {}: {e}", env.scratch.display()))?;
    if let Some(dir) = &args.out {
        write_record(dir, &args, jobs, &report)?;
    }

    let w = args.workload;
    for m in report.metrics.iter().chain(&report.extra) {
        let s = m.summary;
        println!(
            "{w} {} {} {} [{}, {}] n={}",
            m.name, m.value, m.unit, s.q1, s.q3, s.n
        );
    }
    for (key, value) in &report.identity {
        println!("{w} identity {key}={value}");
    }
    let checks = &report.checks;
    println!(
        "{w} checks attempted={} failed={} fail_rate={}",
        checks.attempted,
        checks.failed(),
        checks.failed() as f64 / checks.attempted.max(1) as f64
    );
    for f in &checks.failures {
        eprintln!("{w} check failed: {f}");
    }
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name,
                obj(vec![("value", num(m.value)), ("unit", text(m.unit))]),
            )
        })
        .collect();
    let last = obj(vec![
        ("correct", Value::Bool(checks.failures.is_empty())),
        ("attempted", int(checks.attempted)),
        ("failed", int(checks.failed())),
        ("metrics", obj(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&last).map_err(|e| format!("encoding the result: {e}"))?
    );
    Ok(if checks.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wheels-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
