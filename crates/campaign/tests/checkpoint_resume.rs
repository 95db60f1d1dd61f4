//! Crash-safe campaign resume: the byte-identity contract.
//!
//! The checkpoint subsystem promises that an interrupted-then-resumed
//! campaign is indistinguishable *at the byte level* from one that never
//! crashed: same export JSON, same integrity report. These tests enforce
//! the promise three ways:
//!
//! 1. a kill-point sweep at the acceptance seeds {11, 42} — for every
//!    strided kill point k, run fresh with a [`ProcessKill`] chaos hook,
//!    observe the interrupt, resume, and `assert_eq!` the bytes against a
//!    cold (never-checkpointed) golden run;
//! 2. targeted corruption — bit-flipped payload, foreign seed header, and
//!    a torn tail must each be rejected, recomputed, and *accounted* in
//!    the resume report, while the dataset still comes out golden;
//! 3. a proptest that resume after an **arbitrary** completed-unit prefix
//!    of the log (cut at record boundaries) reproduces the golden bytes;
//!
//! and a log in the older JSON-payload format is recomputed, not
//! restored, with the same golden bytes out.
//!
//! The campaign here is deliberately tiny (network-only, 2% scale,
//! coarse passive tick): each run is a few hundred milliseconds, so the
//! sweep stays affordable on a single-core CI box.

use std::fs;
use std::path::PathBuf;

use wheels_campaign::checkpoint::{fnv1a64, record_spans, HEADER_LEN, LOG_NAME};
use wheels_campaign::{
    Campaign, CampaignConfig, CampaignError, CheckpointOptions, LoadedCheckpoints, ProcessKill,
    ScenarioSpec,
};
use wheels_xcal::export;

const SEEDS: [u64; 2] = [11, 42];

/// Tiny but fully representative paper campaign: all three unit kinds
/// (drive, static, passive) are scheduled; only the app layer is off.
fn tiny(seed: u64) -> Campaign {
    let mut cfg = CampaignConfig::quick_network_only(seed);
    cfg.scale = 0.02;
    cfg.passive_tick_s = 30.0;
    Campaign::from_spec(&ScenarioSpec::paper(), cfg)
}

/// Fresh scratch dir under the cargo-provided tmp root.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

struct Golden {
    export: String,
    integrity: String,
    units: usize,
}

/// Cold run: no checkpointing anywhere near it.
fn golden(seed: u64) -> Golden {
    let campaign = tiny(seed);
    let outcome = campaign.run(1, None).expect("tiny campaign completes");
    Golden {
        export: export::to_json(&outcome.db).expect("export serializes"),
        integrity: serde_json::to_string_pretty(&outcome.integrity)
            .expect("integrity serializes"),
        units: campaign.plan_units().len(),
    }
}

fn export_bytes(outcome: &wheels_campaign::CampaignOutcome) -> (String, String) {
    (
        export::to_json(&outcome.db).expect("export serializes"),
        serde_json::to_string_pretty(&outcome.integrity).expect("integrity serializes"),
    )
}

/// A checkpointed-but-uninterrupted run is already byte-identical to a
/// plain run: checkpointing must be observationally free.
#[test]
fn fresh_checkpointed_run_matches_supervised() {
    let g = golden(11);
    let dir = scratch("fresh-matches");
    let campaign = tiny(11);
    let outcome = campaign
        .run(1, Some(&CheckpointOptions::fresh(&dir)))
        .expect("checkpointed run completes");
    let (exp, integ) = export_bytes(&outcome);
    assert_eq!(exp, g.export);
    assert_eq!(integ, g.integrity);
    assert!(outcome.resume.is_none(), "fresh run carries no resume report");
    // And the log holds exactly one record per scheduled unit.
    let log = fs::read(dir.join(LOG_NAME)).expect("log exists");
    assert_eq!(record_spans(&log).len(), g.units);
}

/// The acceptance sweep: kill after k durable commits for a stride of k
/// across the whole schedule (plus both edges), resume, and demand the
/// golden bytes back — at both acceptance seeds.
#[test]
fn kill_sweep_resume_reproduces_golden_bytes() {
    for seed in SEEDS {
        let g = golden(seed);
        let n = g.units;
        assert!(n >= 4, "sweep needs a non-trivial schedule, got {n} units");
        let mut kill_points: Vec<usize> = (1..n).step_by((n / 5).max(1)).collect();
        if !kill_points.contains(&(n - 1)) {
            kill_points.push(n - 1); // crash with exactly one unit left
        }
        kill_points.push(n); // crash after the final commit: resume is a pure replay
        for &k in &kill_points {
            let dir = scratch(&format!("sweep-{seed}-{k}"));
            let campaign = tiny(seed);
            let kill = CheckpointOptions::fresh(&dir).with_kill(ProcessKill::after_units(k));
            let killed = campaign.run(1, Some(&kill));
            match killed {
                Err(CampaignError::Killed { committed }) => {
                    assert_eq!(committed, k, "seed {seed}: sequential kill is exact")
                }
                other => panic!(
                    "seed {seed} kill point {k}: expected Killed, got ok={}",
                    other.is_ok()
                ),
            }
            let resumed = campaign
                .run(1, Some(&CheckpointOptions::resume(&dir)))
                .expect("resume completes");
            let (exp, integ) = export_bytes(&resumed);
            assert_eq!(exp, g.export, "seed {seed} kill point {k}: export bytes");
            assert_eq!(integ, g.integrity, "seed {seed} kill point {k}: integrity bytes");
            let r = resumed.resume.expect("resumed run reports accounting");
            assert_eq!(r.restored_units, k);
            assert_eq!(r.recomputed_units, n - k);
            assert_eq!(r.corrupt_records, 0, "clean kill leaves no torn records");
            assert_eq!(r.foreign_records, 0);
        }
    }
}

/// Parallel spot check: crash under jobs=4, resume under jobs=4 — the
/// merge is canonical, so worker count leaves no trace in the bytes.
#[test]
fn parallel_kill_and_resume_match_sequential_golden() {
    let seed = 42;
    let g = golden(seed);
    let k = g.units / 2;
    let dir = scratch("parallel-kill");
    let campaign = tiny(seed);
    let kill = CheckpointOptions::fresh(&dir).with_kill(ProcessKill::after_units(k));
    let killed = campaign.run(4, Some(&kill));
    match killed {
        Err(CampaignError::Killed { committed }) => {
            // Workers already past the commit gate may land extra units.
            assert!(committed >= k, "at least k units are durable")
        }
        other => panic!("expected Killed, got ok={}", other.is_ok()),
    }
    let resumed = campaign
        .run(4, Some(&CheckpointOptions::resume(&dir)))
        .expect("resume completes");
    let (exp, integ) = export_bytes(&resumed);
    assert_eq!(exp, g.export);
    assert_eq!(integ, g.integrity);
}

/// Corruption drill: damage three records three different ways and make
/// sure each is rejected, recomputed, and visible in the accounting —
/// while the dataset still comes out byte-identical to the golden.
#[test]
fn corrupt_records_are_rejected_recomputed_and_reported() {
    let seed = 11;
    let g = golden(seed);
    let dir = scratch("corrupt");
    let campaign = tiny(seed);
    campaign
        .run(1, Some(&CheckpointOptions::fresh(&dir)))
        .expect("clean run completes");
    let log_path = dir.join(LOG_NAME);
    let mut bytes = fs::read(&log_path).expect("log exists");
    let spans = record_spans(&bytes);
    assert_eq!(spans.len(), g.units);
    assert!(spans.len() >= 3, "need three records to damage");

    // (a) Bit-flip one payload byte of the first record: digest mismatch.
    bytes[spans[0].start + HEADER_LEN + 10] ^= 0x01;
    // (b) Rewrite the second record's seed header word: valid frame,
    //     wrong run — a foreign record, not a corrupt one.
    let seed_off = spans[1].start + 16;
    bytes[seed_off..seed_off + 8].copy_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
    // (c) Tear the last record mid-header, as a crash during append would.
    let last = spans.last().unwrap().clone();
    bytes.truncate(last.start + HEADER_LEN / 2);
    fs::write(&log_path, &bytes).expect("plant damage");

    let resumed = campaign
        .run(1, Some(&CheckpointOptions::resume(&dir)))
        .expect("resume completes despite damage");
    let exp = export::to_json(&resumed.db).expect("export serializes");
    assert_eq!(exp, g.export, "damaged units recomputed to golden bytes");

    let r = resumed.resume.expect("accounting present");
    assert_eq!(r.corrupt_records, 2, "bit-flip + torn tail");
    assert_eq!(r.foreign_records, 1, "seed-mismatched record");
    assert_eq!(r.restored_units, g.units - 3);
    assert_eq!(r.recomputed_units, 3);
    assert!(!r.notes.is_empty(), "scan explains what it rejected");

    // Damage is surfaced in the *exported* integrity report too…
    let exported = resumed
        .integrity
        .resume
        .as_ref()
        .expect("damage promotes resume accounting into the integrity export");
    assert!(exported.saw_damage());
    // …and stripping that block leaves a report byte-identical to golden.
    let mut cleaned = resumed.integrity.clone();
    cleaned.resume = None;
    let cleaned_json =
        serde_json::to_string_pretty(&cleaned).expect("integrity serializes");
    assert_eq!(cleaned_json, g.integrity);

    // The resume compacted the log: damage is healed out on disk, and the
    // survivors plus recomputed units frame cleanly.
    let healed = fs::read(&log_path).expect("log exists");
    assert_eq!(record_spans(&healed).len(), g.units);
}

/// A log written before payloads were binary: every record framed with
/// the `WHL_CKP1` magic around a JSON payload, as older builds wrote it.
/// The scan counts the first such record corrupt and stops there, the
/// resume recomputes every unit and heals the file, and the export is the
/// golden one.
#[test]
fn json_era_log_is_recomputed_not_restored() {
    const MAGIC_JSON: u64 = 0x57484C5F_434B5031;
    let seed = 11;
    let g = golden(seed);
    let dir = scratch("json-era");
    let campaign = tiny(seed);
    campaign
        .run(1, Some(&CheckpointOptions::fresh(&dir)))
        .expect("clean run completes");
    let log_path = dir.join(LOG_NAME);
    let bytes = fs::read(&log_path).expect("log exists");
    let loaded = LoadedCheckpoints::load(&dir, campaign.checkpoint_key()).expect("scans");
    let spans = record_spans(&bytes);
    assert_eq!(loaded.units.len(), spans.len());
    let mut old = Vec::new();
    for (span, (_, ck)) in spans.iter().zip(&loaded.units) {
        let json = serde_json::to_string(ck).expect("serializes");
        let mut header = bytes[span.start..span.start + HEADER_LEN].to_vec();
        header[..8].copy_from_slice(&MAGIC_JSON.to_le_bytes());
        header[56..64].copy_from_slice(&(json.len() as u64).to_le_bytes());
        header[64..].copy_from_slice(&fnv1a64(json.as_bytes()).to_le_bytes());
        old.extend_from_slice(&header);
        old.extend_from_slice(json.as_bytes());
    }
    fs::write(&log_path, &old).expect("plant the old log");

    let resumed = campaign
        .run(1, Some(&CheckpointOptions::resume(&dir)))
        .expect("resume completes");
    let exp = export::to_json(&resumed.db).expect("export serializes");
    assert_eq!(exp, g.export, "every unit recomputed to golden bytes");
    let r = resumed.resume.as_ref().expect("accounting present");
    assert_eq!((r.restored_units, r.recomputed_units), (0, g.units));
    assert_eq!((r.corrupt_records, r.foreign_records), (1, 0));
    assert!(r.notes[0].contains("WHL_CKP1"), "{:?}", r.notes);
    let mut cleaned = resumed.integrity.clone();
    cleaned.resume = None;
    assert_eq!(
        serde_json::to_string_pretty(&cleaned).expect("integrity serializes"),
        g.integrity
    );

    // Compaction dropped the old records; the log now holds the
    // recomputed units in the current format and nothing else.
    let healed = LoadedCheckpoints::load(&dir, campaign.checkpoint_key()).expect("rescans");
    assert_eq!(healed.units.len(), g.units);
    assert_eq!(healed.corrupt_records + healed.foreign_records, 0);
}

/// Resuming a fully complete log is a pure replay: nothing recomputed,
/// nothing rejected, golden bytes out.
#[test]
fn resume_of_complete_log_recomputes_nothing() {
    let seed = 42;
    let g = golden(seed);
    let dir = scratch("complete-replay");
    let campaign = tiny(seed);
    campaign
        .run(1, Some(&CheckpointOptions::fresh(&dir)))
        .expect("clean run completes");
    let resumed = campaign
        .run(1, Some(&CheckpointOptions::resume(&dir)))
        .expect("replay completes");
    let (exp, integ) = export_bytes(&resumed);
    assert_eq!(exp, g.export);
    assert_eq!(integ, g.integrity);
    let r = resumed.resume.expect("accounting present");
    assert_eq!(r.restored_units, g.units);
    assert_eq!(r.recomputed_units, 0);
}

mod prefix_proptest {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    struct Setup {
        export: String,
        integrity: String,
        log: Vec<u8>,
        spans: Vec<std::ops::Range<usize>>,
    }

    /// One full checkpointed run, shared across proptest cases: the log
    /// bytes are the universe every prefix is cut from.
    fn setup() -> &'static Setup {
        static S: OnceLock<Setup> = OnceLock::new();
        S.get_or_init(|| {
            let seed = 42;
            let dir = scratch("prefix-universe");
            let campaign = tiny(seed);
            let outcome = campaign
                .run(1, Some(&CheckpointOptions::fresh(&dir)))
                .expect("universe run completes");
            let (export, integrity) = export_bytes(&outcome);
            let log = fs::read(dir.join(LOG_NAME)).expect("log exists");
            let spans = record_spans(&log);
            Setup { export, integrity, log, spans }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Resume after an arbitrary completed-unit prefix of the log is
        /// byte-identical to a cold run — the core crash-safety theorem,
        /// sampled across prefix lengths (0 = empty log included).
        #[test]
        fn resume_from_any_completed_prefix_is_byte_identical(frac in 0.0f64..1.0) {
            let s = setup();
            let n = s.spans.len();
            let keep = ((n + 1) as f64 * frac) as usize % (n + 1);
            let cut = if keep == 0 { 0 } else { s.spans[keep - 1].end };
            let dir = scratch(&format!("prefix-{keep}"));
            fs::write(dir.join(LOG_NAME), &s.log[..cut]).expect("plant prefix");
            let campaign = tiny(42);
            let resumed = campaign
                .run(1, Some(&CheckpointOptions::resume(&dir)))
                .expect("prefix resume completes");
            let (exp, integ) = export_bytes(&resumed);
            prop_assert_eq!(exp, s.export.clone());
            prop_assert_eq!(integ, s.integrity.clone());
            let r = resumed.resume.expect("accounting present");
            prop_assert_eq!(r.restored_units, keep);
            prop_assert_eq!(r.recomputed_units, n - keep);
        }
    }
}
