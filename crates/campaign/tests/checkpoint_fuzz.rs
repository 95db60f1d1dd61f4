//! Fuzzing the checkpoint scanner.
//!
//! `LoadedCheckpoints::load` reads whatever a crash, a disk or an
//! operator left in `checkpoint.log`. These properties feed it logs built
//! two ways and demand that it never panics and accounts for every
//! record exactly once:
//!
//! * **re-framed records** — real binary payloads, some mutated (cut
//!   short, an enum tag out of range, a `bool`/`Option` byte other than
//!   0 or 1, a length prefix beyond the remaining bytes, invalid UTF-8 in
//!   a string, trailing bytes, byte soup) and framed again with a *valid*
//!   digest, so only the decoder can reject them; plus foreign-key and
//!   digest-mismatch records and an optional torn tail. Each framed
//!   record counts exactly once as restored, corrupt or foreign, and a
//!   compaction leaves only the restored ones — also when one kind of
//!   damage, or a unit committed twice, is all there is to heal;
//! * **byte soup** — arbitrary bytes, alone or after valid records.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use wheels_campaign::checkpoint::{
    fnv1a64, record_spans, CheckpointKey, UnitCheckpoint, HEADER_LEN, LOG_NAME, MAGIC,
};
use wheels_campaign::executor::UnitOutcome;
use wheels_campaign::wire;
use wheels_campaign::{
    Campaign, CampaignConfig, LoadedCheckpoints, ScenarioSpec, UnitReport, UnitStatus, WorkUnit,
};
use wheels_ran::operator::Operator;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const KEY: CheckpointKey = CheckpointKey {
    world_hash: 0x5EED,
    seed: 11,
    scale_bits: 0x3F94_7AE1_47AE_147B,
};

/// One framed record: the 72-byte header, then the payload.
fn frame(key: CheckpointKey, words: [u64; 3], payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(HEADER_LEN + payload.len());
    for w in [
        MAGIC,
        key.world_hash,
        key.seed,
        key.scale_bits,
        words[0],
        words[1],
        words[2],
        payload.len() as u64,
        fnv1a64(payload),
    ] {
        rec.extend_from_slice(&w.to_le_bytes());
    }
    rec.extend_from_slice(payload);
    rec
}

/// A real checkpoint payload and where its fields sit. The layout is
/// `has_shard` (1 byte), then the report — its unit label as a `u64`
/// length and the bytes, its status tag, … — then the records' `u64`
/// length, …, and last the fleet `Option` tag.
struct Payload {
    bytes: Vec<u8>,
    /// Offset of the records' length prefix.
    records_at: usize,
}

impl Payload {
    /// Length of the unit label, whose bytes start at offset 9.
    fn label_len(&self) -> usize {
        u64::from_le_bytes(self.bytes[1..9].try_into().expect("8 bytes")) as usize
    }
}

/// Real checkpoint payloads: a drive unit with records, a passive unit
/// with its log, and a lost unit with no shard.
fn payloads() -> &'static [Payload; 3] {
    static P: OnceLock<[Payload; 3]> = OnceLock::new();
    P.get_or_init(|| {
        let mut cfg = CampaignConfig::quick_network_only(5);
        cfg.scale = 0.02;
        cfg.passive_tick_s = 120.0;
        let campaign = Campaign::from_spec(&ScenarioSpec::paper(), cfg);
        let ok = |unit: WorkUnit| {
            let mut report = UnitReport::new(unit.label());
            report.status = UnitStatus::Ok;
            report.attempts = 1;
            UnitOutcome {
                shard: Some(campaign.run_unit_payload(&unit)),
                report,
            }
        };
        let drive = ok(WorkUnit::Drive {
            op: Operator::Verizon,
            day: 0,
        });
        let passive = ok(WorkUnit::Passive { op: Operator::Att });
        let mut lost = UnitReport::new("drive/AT&T/day1".into());
        lost.attempts = 3;
        lost.error = Some("server unreachable".into());
        let lost = UnitOutcome {
            shard: None,
            report: lost,
        };
        [drive, passive, lost].map(|o| {
            let ck = UnitCheckpoint::from_outcome(&o);
            let p = Payload {
                bytes: wire::encode(&ck),
                records_at: 1 + wire::encode(&ck.report).len(),
            };
            assert!(p.label_len() > 0, "the label holds a byte to corrupt");
            assert_eq!(p.bytes.last(), Some(&0), "the fleet tag is the last byte");
            p
        })
    })
}

/// How a framed record is made.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Valid,
    Truncated,
    BadEnumTag,
    BadFlag,
    Overlong,
    BadUtf8,
    Trailing,
    Soup,
    Foreign,
    BadDigest,
}

const KINDS: [Kind; 10] = [
    Kind::Valid,
    Kind::Truncated,
    Kind::BadEnumTag,
    Kind::BadFlag,
    Kind::Overlong,
    Kind::BadUtf8,
    Kind::Trailing,
    Kind::Soup,
    Kind::Foreign,
    Kind::BadDigest,
];

/// A payload mutated so that it no longer decodes as a `UnitCheckpoint`.
fn mutate(kind: Kind, payload: &Payload, rng: &mut SmallRng) -> Vec<u8> {
    let mut p = payload.bytes.clone();
    let label_at = 9;
    match kind {
        Kind::Truncated => p.truncate(rng.gen_range(0..p.len())),
        // `UnitStatus` has three variants.
        Kind::BadEnumTag => p[label_at + payload.label_len()] = rng.gen_range(3..=255),
        Kind::BadFlag => {
            // `has_shard` or the fleet `Option` tag.
            let at = if rng.gen() { 0 } else { p.len() - 1 };
            p[at] = rng.gen_range(2..=255);
        }
        Kind::Overlong => {
            // The unit label's prefix or the records' prefix.
            let at = if rng.gen() { 1 } else { payload.records_at };
            let remaining = (p.len() - at - 8) as u64;
            let len = match rng.gen_range(0..3) {
                0 => u64::MAX,
                1 => remaining + 1,
                _ => rng.gen_range(remaining + 1..=u64::MAX),
            };
            p[at..at + 8].copy_from_slice(&len.to_le_bytes());
        }
        // A stray continuation byte or a byte UTF-8 never uses, as the
        // label's first byte.
        Kind::BadUtf8 => {
            p[label_at] = if rng.gen() {
                rng.gen_range(0x80..=0xbf)
            } else {
                rng.gen_range(0xf8..=0xff)
            }
        }
        Kind::Trailing => p.extend((0..rng.gen_range(1..16)).map(|_| rng.gen::<u8>())),
        Kind::Soup => {
            let n = rng.gen_range(0..300);
            return (0..n).map(|_| rng.gen()).collect();
        }
        Kind::Valid | Kind::Foreign | Kind::BadDigest => {}
    }
    p
}

/// The note fragments a record of `kind` may be rejected with. A cut can
/// land inside a value or just after a length prefix, which then claims
/// more bytes than are left.
fn rejection(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::Valid => &[],
        Kind::Truncated => &["bytes short of", "exceeds the payload"],
        Kind::BadEnumTag => &["is no UnitStatus"],
        Kind::BadFlag => &["is no bool", "is no Option"],
        Kind::Overlong => &["exceeds the payload"],
        Kind::BadUtf8 => &["is not UTF-8"],
        Kind::Trailing => &["trailing bytes"],
        Kind::Soup => &["undecodable payload"],
        Kind::Foreign => &["foreign record"],
        Kind::BadDigest => &["digest mismatch"],
    }
}

/// Framed records with distinct unit keys, and an optional torn tail.
struct Log {
    records: Vec<(Kind, Vec<u8>)>,
    tail: Vec<u8>,
}

struct ArbLog;

impl Strategy for ArbLog {
    type Value = Log;
    fn generate(&self, rng: &mut SmallRng) -> Log {
        let payloads = payloads();
        let records = (0..rng.gen_range(1..10))
            .map(|i| {
                let kind = KINDS[rng.gen_range(0..KINDS.len())];
                let payload = &payloads[rng.gen_range(0..payloads.len())];
                let words = [1, 0, i];
                let rec = match kind {
                    Kind::Foreign => {
                        frame(CheckpointKey { seed: 12, ..KEY }, words, &payload.bytes)
                    }
                    Kind::BadDigest => {
                        let mut rec = frame(KEY, words, &payload.bytes);
                        let at = rng.gen_range(HEADER_LEN..rec.len());
                        rec[at] ^= 1 << rng.gen_range(0..8);
                        rec
                    }
                    _ => frame(KEY, words, &mutate(kind, payload, rng)),
                };
                (kind, rec)
            })
            .collect();
        // A torn record: a prefix of a real one, or random bytes.
        let tail = match rng.gen_range(0..4) {
            0 => {
                let rec = frame(KEY, [9, 9, 9], &payloads[2].bytes);
                rec[..rng.gen_range(1..rec.len())].to_vec()
            }
            1 => (0..rng.gen_range(1..200)).map(|_| rng.gen()).collect(),
            _ => Vec::new(),
        };
        Log { records, tail }
    }
}

/// Load a log of `records` then `tail`, check that every framed record
/// counted exactly once, compact it, and check that exactly the restored
/// records remain.
fn check(records: &[&(Kind, Vec<u8>)], tail: &[u8]) {
    let mut bytes: Vec<u8> = records.iter().flat_map(|(_, rec)| rec.clone()).collect();
    bytes.extend_from_slice(tail);
    let (dir, loaded) = load("framed", &bytes);
    let count = |k: Kind| records.iter().filter(|(x, _)| *x == k).count();
    let foreign = count(Kind::Foreign);
    let restored = count(Kind::Valid);
    let corrupt = records.len() - foreign - restored + usize::from(!tail.is_empty());
    assert_eq!(loaded.units.len(), restored, "{:?}", loaded.notes);
    assert_eq!(loaded.foreign_records, foreign, "{:?}", loaded.notes);
    assert_eq!(loaded.corrupt_records, corrupt, "{:?}", loaded.notes);
    assert_eq!(loaded.notes.len(), foreign + corrupt);
    // The restored units, in log order, by their last unit-key word.
    let valid: Vec<u64> = records
        .iter()
        .filter(|(k, _)| *k == Kind::Valid)
        .map(|(_, rec)| u64::from_le_bytes(rec[48..56].try_into().expect("8 bytes")))
        .collect();
    let restored_at: Vec<u64> = loaded.units.iter().map(|(w, _)| w[2]).collect();
    assert_eq!(restored_at, valid);
    // Each damaged record is rejected for the reason its damage implies.
    let damaged = records.iter().filter(|(k, _)| *k != Kind::Valid);
    for ((kind, _), note) in damaged.zip(&loaded.notes) {
        assert!(
            rejection(*kind).iter().any(|why| note.contains(why)),
            "{kind:?} rejected as: {note}"
        );
    }

    // Compaction keeps exactly the restored records; a log with nothing
    // to heal is left byte for byte as it was.
    loaded.compact_to(&dir).expect("compacts");
    let healed = fs::read(dir.join(LOG_NAME)).expect("log exists");
    if foreign + corrupt == 0 {
        assert_eq!(healed, bytes);
    }
    assert_eq!(record_spans(&healed).len(), restored);
    let again = LoadedCheckpoints::load(&dir, KEY).expect("reloads");
    assert_eq!(again.units.len(), restored);
    assert_eq!(again.corrupt_records + again.foreign_records, 0);
}

/// Arbitrary bytes: no structure at all.
struct Soup;

impl Strategy for Soup {
    type Value = Vec<u8>;
    fn generate(&self, rng: &mut SmallRng) -> Vec<u8> {
        let n = rng.gen_range(0..600);
        (0..n).map(|_| rng.gen()).collect()
    }
}

fn load(name: &str, bytes: &[u8]) -> (PathBuf, LoadedCheckpoints) {
    let dir = scratch(name);
    fs::write(dir.join(LOG_NAME), bytes).expect("plant log");
    let loaded = LoadedCheckpoints::load(&dir, KEY).expect("the scan never fails on content");
    (dir, loaded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_framed_record_counts_exactly_once(log in ArbLog) {
        let all: Vec<_> = log.records.iter().collect();
        check(&all, &log.tail);
        // Each kind of damage alone, with no torn tail, must still make
        // the compaction heal the log.
        for damage in KINDS.iter().filter(|&&k| k != Kind::Valid) {
            let some: Vec<_> = log
                .records
                .iter()
                .filter(|(k, _)| k == damage || *k == Kind::Valid)
                .collect();
            check(&some, &[]);
        }
        // A unit committed twice restores once, and compaction drops the
        // superseded copy.
        let valid: Vec<_> = log.records.iter().filter(|(k, _)| *k == Kind::Valid).collect();
        let twice: Vec<u8> = valid.iter().chain(&valid).flat_map(|(_, rec)| rec.clone()).collect();
        let (dir, loaded) = load("twice", &twice);
        prop_assert_eq!(loaded.units.len(), valid.len());
        prop_assert_eq!(loaded.corrupt_records + loaded.foreign_records, 0);
        loaded.compact_to(&dir).expect("compacts");
        let healed = fs::read(dir.join(LOG_NAME)).expect("log exists");
        prop_assert_eq!(record_spans(&healed).len(), valid.len());
    }

    #[test]
    fn byte_soup_never_panics(soup in Soup, valid in 0usize..3) {
        // Valid records first, then the soup: the records restore, and the
        // soup (which frames as nothing) is one corrupt remainder.
        let mut bytes = Vec::new();
        for i in 0..valid {
            bytes.extend_from_slice(&frame(KEY, [3, i as u64, 0], &payloads()[1].bytes));
        }
        bytes.extend_from_slice(&soup);
        let (_, loaded) = load("soup", &bytes);
        let framed = record_spans(&bytes).len();
        let rest = usize::from(record_spans(&bytes).last().map_or(0, |s| s.end) < bytes.len());
        prop_assert_eq!(
            loaded.units.len() + loaded.corrupt_records + loaded.foreign_records,
            framed + rest,
            "{:?}",
            loaded.notes
        );
        prop_assert_eq!(loaded.units.len(), valid);
    }
}
