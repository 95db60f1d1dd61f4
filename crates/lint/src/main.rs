//! `wheels-lint` CLI.
//!
//! ```text
//! wheels-lint [--fixtures] [--json] [--json-out FILE] [PATH ...]
//! ```
//!
//! Default paths: [`SWEEP`] (`crates/ src/ examples/ tests/
//! benchmark/`, those that exist). The policy is compiled in
//! (`crates/lint/src/policy.rs`); paths in reports are relative to the
//! current directory — run from the workspace root, as `ci.sh` does.
//!
//! Exit codes: `0` clean, `1` unsuppressed findings (or fixture
//! self-check failure), `2` usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;
// lint:allow(D3): the lint wall-time report measures the linter itself, never simulation state
use std::time::Instant;

use wheels_lint::{check_fixtures, lint_paths, render_report, Finding, LintConfig, SWEEP};

const USAGE: &str = "usage: wheels-lint [--fixtures] [--json] [--json-out FILE] [PATH ...]\n\
  PATH              files or directories to lint\n\
                    (default: crates/ src/ examples/ tests/ benchmark/)\n\
  --json            print the full run report (all findings) as JSON\n\
  --json-out FILE   additionally write the run report to FILE (e.g. LINT_report.json)\n\
  --fixtures        self-check: every fixtures/bad file must fire its rule,\n\
                    every fixtures/allowed file must be clean";

struct Args {
    fixtures: bool,
    json: bool,
    json_out: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        fixtures: false,
        json: false,
        json_out: None,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fixtures" => args.fixtures = true,
            "--json" => args.json = true,
            "--json-out" => args.json_out = Some(it.next().map(PathBuf::from).ok_or_else(usage)?),
            "--help" | "-h" => return Err(usage()),
            p if p.starts_with('-') => {
                eprintln!("unknown flag: {p}");
                return Err(usage());
            }
            p => args.paths.push(PathBuf::from(p)),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };

    if args.fixtures {
        return run_fixtures();
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut paths = args.paths.clone();
    if paths.is_empty() {
        paths.extend(SWEEP.iter().map(PathBuf::from).filter(|p| p.exists()));
    }

    // lint:allow(D3): wall time is printed for the CI log, never fed into analysis
    let t0 = Instant::now();
    let (findings, files) = match lint_paths(&paths, Some(&cwd), &LintConfig::workspace()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::from(2);
        }
    };
    let wall_ms = t0.elapsed().as_millis();

    let report = render_report(&findings, files, wall_ms);
    if args.json {
        println!("{report}");
    }
    if let Some(out) = &args.json_out {
        // lint:allow(D6): the lint report is a CI artifact, not campaign output the byte gates compare
        if let Err(e) = std::fs::write(out, &report) {
            eprintln!("lint: writing {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }

    let failing: Vec<&Finding> = findings.iter().filter(|f| f.is_unsuppressed()).collect();
    if !args.json {
        for f in &failing {
            println!("{f}");
        }
    }
    eprintln!(
        "lint: {files} files, {} findings ({} suppressed, {} failing) in {wall_ms} ms",
        findings.len(),
        findings.len() - failing.len(),
        failing.len(),
    );
    if failing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_fixtures() -> ExitCode {
    let dir = PathBuf::from("crates/lint/fixtures");
    match check_fixtures(&dir) {
        Ok(results) => {
            let mut bad = 0;
            for r in &results {
                if let Some(err) = &r.error {
                    eprintln!("fixture {}: {err}", r.file.display());
                    bad += 1;
                }
            }
            eprintln!("lint fixtures: {} checked, {} failed", results.len(), bad);
            if bad == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("lint: fixtures: {e}");
            ExitCode::from(2)
        }
    }
}
