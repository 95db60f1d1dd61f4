//! Golden `repro` stdout: every artifact `repro` prints, and its `--list`
//! and `--help` text, pinned as an FNV-1a digest and a length. The
//! report snapshot (`wheels-analysis`'s `golden_report.rs`) pins only the
//! `report` document; this pins the rest of what `repro` writes, so a
//! drift in a title line, a table outside the report or the id list is
//! caught at `cargo test` speed. The artifact run must also print the
//! same bytes at `--fig-jobs` 1 and 3.
//!
//! Refresh the pins after an intended output change with
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p wheels-bench --test golden_stdout
//! ```

use std::path::PathBuf;
use std::process::Command;

use wheels_campaign::checkpoint::fnv1a64;

/// Every artifact id once, the report and both extensions; a nonzero
/// population so `ext-fleet` renders a fleet.
const ARTIFACT_RUN: &[&str] = &[
    "--scale",
    "smoke",
    "--seed",
    "11",
    "--population",
    "200",
    "all",
    "report",
    "ext-mptcp",
    "ext-fleet",
];

/// The stdout of a successful `repro args` run.
fn stdout_of(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn pin(name: &str, bytes: &[u8]) -> String {
    format!("{name} {:016x} {}\n", fnv1a64(bytes), bytes.len())
}

#[test]
fn repro_stdout_matches_golden() {
    let run = |fig_jobs: &str| stdout_of(&[&["--fig-jobs", fig_jobs], ARTIFACT_RUN].concat());
    let artifacts = run("1");
    assert!(
        artifacts == run("3"),
        "repro stdout differs between --fig-jobs 1 and 3"
    );
    let got = pin("artifacts", &artifacts)
        + &pin("list", &stdout_of(&["--list"]))
        + &pin("help", &stdout_of(&["--help"]));

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/repro_stdout.txt");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &got).expect("write golden pins");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (run with GOLDEN_REGEN=1 to create it)",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "repro stdout drifted from {}; if the change is intended, refresh \
         with GOLDEN_REGEN=1",
        path.display()
    );
}
