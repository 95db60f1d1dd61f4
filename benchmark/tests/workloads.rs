//! `BENCHMARK.json` against the benchmark's own definitions, and every
//! workload run once at smoke scale through the real measuring code.

use std::path::{Path, PathBuf};

use serde::Value;
use wheels_benchmark::measure::{self, Metric};
use wheels_benchmark::run::{build_repro, Env};
use wheels_benchmark::traced::LAYER_MOVES;
use wheels_benchmark::workload::{calls, WORKLOADS};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn pairs(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(pairs) => pairs,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    pairs(v)
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

fn keys(v: &Value) -> Vec<&str> {
    pairs(v).iter().map(|(k, _)| k.as_str()).collect()
}

fn list(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn string(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    serde::Deserialize::from_value(v).expect("a number")
}

/// `(name, unit)` of every metric in one of the metric lists.
fn metric_list(json: &Value, list_key: &str) -> Vec<(String, String)> {
    list(get(json, list_key))
        .iter()
        .map(|m| {
            (
                string(get(m, "name")).to_string(),
                string(get(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_follows_the_schema() {
    let json = benchmark_json();
    assert_eq!(
        keys(&json),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = list(get(&json, "paths")).iter().map(string).collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = list(get(&json, "command")).iter().map(string).collect();
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in &command {
        assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
        if arg.contains('/') {
            assert!(
                arg.starts_with("benchmark/"),
                "{arg} is outside the benchmark's paths"
            );
        }
    }
    let run_seconds = number(get(&json, "run_seconds"));
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));

    let workloads = list(get(&json, "workloads"));
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads.iter().map(|w| string(get(w, "name"))).collect();
    assert_eq!(
        names, WORKLOADS,
        "BENCHMARK.json and the code list the same workloads"
    );
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = string(get(w, "why"));
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let e2e = list(get(&json, "end_to_end"));
    let per_layer = list(get(&json, "per_layer"));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut all_names: Vec<&str> = names.clone();
    for m in e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = number(get(m, "bound"));
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    for m in e2e.iter().chain(per_layer) {
        let unit = string(get(m, "unit"));
        assert!(!unit.is_empty() && unit.len() <= 16, "{m:?}");
        assert!(
            ["lower", "higher"].contains(&string(get(m, "better"))),
            "{m:?}"
        );
        all_names.push(string(get(m, "name")));
    }
    for n in &all_names {
        assert!(is_name(n), "bad name {n:?}");
    }
    let mut unique = all_names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), all_names.len(), "names are used once");
    let setup = e2e
        .iter()
        .find(|m| string(get(m, "name")) == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (string(get(setup, "unit")), string(get(setup, "better"))),
        ("s", "lower")
    );
}

#[test]
fn every_layer_metric_names_what_it_moves() {
    let json = benchmark_json();
    let e2e: Vec<String> = metric_list(&json, "end_to_end")
        .into_iter()
        .map(|m| m.0)
        .collect();
    let per_layer: Vec<String> = metric_list(&json, "per_layer")
        .into_iter()
        .map(|m| m.0)
        .collect();
    for name in &per_layer {
        assert!(
            LAYER_MOVES.iter().any(|(m, _, _)| m == name),
            "{name} moves nothing"
        );
    }
    for (m, moves, on) in LAYER_MOVES {
        assert!(
            per_layer.iter().any(|p| p == m),
            "{m} is not a per-layer metric"
        );
        assert!(
            e2e.iter().any(|e| e == moves),
            "{m} moves unknown metric {moves}"
        );
        assert!(WORKLOADS.contains(on), "{m} moves on unknown workload {on}");
    }
}

fn assert_metrics(got: &[Metric], want: &[(String, String)], what: &str) {
    let got_names: Vec<(String, String)> = got
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(
        got_names, want,
        "{what}: emitted metrics differ from BENCHMARK.json"
    );
    for m in got {
        assert!(
            m.summary.median.is_finite() && m.summary.median >= 0.0,
            "{what}: {m:?}"
        );
    }
}

/// Each workload cut to the calls of its first seed, so the test stays
/// short; the cut is made here, not by a CLI flag.
#[test]
fn every_workload_runs_through_the_measuring_code() {
    let json = benchmark_json();
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let target = tmp
        .parent()
        .expect("the test scratch directory sits in the target directory");
    let env = Env {
        repro: build_repro(target).expect("repro builds"),
        benchmark: PathBuf::from(env!("CARGO_BIN_EXE_wheels-benchmark")),
        scratch: tmp.join("smoke-scratch"),
        jobs: 2,
    };
    for w in WORKLOADS {
        let mut calls = calls(w, 3).expect("known workload");
        calls.retain(|c| c.seed == 3);
        let report = measure::end_to_end(&env, &calls, 0.0).expect("end-to-end run");
        assert!(report.checks.attempted > 0);
        assert_eq!(report.checks.failures, Vec::<String>::new(), "{w}");
        assert_metrics(&report.metrics, &metric_list(&json, "end_to_end"), w);
        for m in &report.metrics {
            let s = m.summary;
            assert!(m.value > 0.0, "{w}: {m:?} reads 0");
            assert!(s.q1 <= s.median && s.median <= s.q3, "{w}: {m:?}");
            if m.unit != "s" {
                assert_eq!(m.value, s.median, "{w}: {m:?}");
            }
            let reps = measure::MIN_REPS + usize::from(m.name == "setup_s");
            assert_eq!(s.n, reps, "{w}: {m:?}");
        }
        let extra = |name: &str| {
            report
                .extra
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.summary.median)
                .unwrap_or_else(|| panic!("{w}: no {name}"))
        };
        assert!(extra("kernel_s") > 0.0 && extra("raw_wall_s") > 0.0, "{w}");

        let report = measure::traced(&env, &calls, w, 0.0).expect("traced run");
        assert_eq!(report.checks.failures, Vec::<String>::new(), "{w}");
        assert_metrics(&report.metrics, &metric_list(&json, "per_layer"), w);
        let ids: Vec<usize> = report.spans.iter().map(|s| s.id).collect();
        assert_eq!(
            ids,
            (0..report.spans.len()).collect::<Vec<_>>(),
            "{w}: span ids"
        );
        assert!(report.spans.iter().all(|s| s.workload == w));
    }
}
