//! # wheels-bench
//!
//! The reproduction harness behind the `repro` binary:
//! `cargo run --release -p wheels-bench --bin repro -- <id|all>` runs the
//! campaign (full scale by default) and prints every table and figure of
//! the paper; the artifact ids are `wheels_analysis::artifacts::ARTIFACTS`.
//! Timings come from the `benchmark/` package, which drives this binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};

use wheels_campaign::CampaignConfig;

/// Set once stdout's reader has gone away; later stdout text is dropped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Write `text` to stdout, the one path every stdout byte of `repro` and
/// `dataset` takes. A reader that went away (`repro --list | head -2`)
/// is not an error: the rest of stdout is dropped quietly, and the run
/// still writes the files it was asked for and exits 0. Any other stdout
/// failure prints a message and exits 1.
pub fn emit(text: &str) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
            return;
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// Scale presets for the repro binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReproScale {
    /// Full 8-day campaign (the paper's scale).
    Full,
    /// ~1/4 density: same shape, faster.
    Quarter,
    /// Miniature: smoke-test the plumbing.
    Smoke,
}

impl ReproScale {
    /// The preset a `--scale` value names: `full`, `quarter` or `smoke`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "full" => Some(ReproScale::Full),
            "quarter" => Some(ReproScale::Quarter),
            "smoke" => Some(ReproScale::Smoke),
            _ => None,
        }
    }

    /// The campaign config for this preset.
    pub fn config(self, seed: u64) -> CampaignConfig {
        let mut cfg = CampaignConfig::full(seed);
        match self {
            ReproScale::Full => {}
            ReproScale::Quarter => cfg.scale = 0.25,
            ReproScale::Smoke => {
                cfg.scale = 0.02;
                cfg.passive_tick_s = 10.0;
            }
        }
        cfg
    }
}
