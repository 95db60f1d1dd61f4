//! Durable shard checkpoints and atomic output writes.
//!
//! Long campaigns die for boring reasons — OOM kills, disk hiccups,
//! impatient operators — and before this module a death threw away every
//! completed `(operator, day)` shard and could leave a half-written
//! export on disk. Crowd-sourced measurement fleets (AmiGos, the
//! "What is LTE actually used for?" pipeline) survive unreliable runners
//! with exactly two disciplines, both implemented here:
//!
//! 1. **Checkpoint every completed unit durably.** The supervised
//!    executor appends one self-describing record per finished work unit
//!    to `<dir>/checkpoint.log`: a fixed 72-byte header (magic, world
//!    hash, seed, scale bits, unit key, payload length, FNV-1a digest)
//!    followed by the [`UnitCheckpoint`] in the positional binary
//!    encoding of [`crate::wire`]. Records are appended in batches, each
//!    fsynced once before its units count as committed, so a crash can
//!    tear at most the batch being written — and a torn or bit-rotted
//!    record is detected by its digest, dropped, and simply recomputed on
//!    resume.
//! 2. **Never write an output in place.** [`atomic_write`] stages bytes
//!    in a temp file in the destination directory, fsyncs, and renames —
//!    readers see either the old bytes or the new bytes, never a torn
//!    file. Every export the workspace produces routes through it
//!    (enforced by lint rule D6).
//!
//! Resume ([`LoadedCheckpoints::load`] + `repro --resume`) restores every
//! valid record whose key matches the run, recomputes the rest, and —
//! because every unit's output is a pure function of `(config, unit)` —
//! merges into a final export **byte-identical** to an uninterrupted run.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::Path;

use parking_lot::Mutex;
use serde::Serialize;

use wheels_fleet::FleetUnitSketch;
use wheels_ran::operator::Operator;
use wheels_xcal::database::TestRecord;
use wheels_xcal::handover_logger::PassiveLogger;

use crate::config::CampaignConfig;
use crate::executor::{Shard, UnitOutcome, WorkUnit};
use crate::integrity::UnitReport;
use crate::scenario::ScenarioSpec;
use crate::wire;

/// Record-header magic: `WHL_CKP2` as a big-endian word, so a hexdump of
/// the log starts with something legible. The digit is the payload
/// format: `WHL_CKP1` logs carried JSON payloads and are rejected, so
/// their units are recomputed.
pub const MAGIC: u64 = 0x57484C5F_434B5032;

/// The magic of the JSON-payload records older builds wrote, named only
/// so the scan can say why it stopped.
const MAGIC_JSON: u64 = 0x57484C5F_434B5031;

/// Header length: 9 little-endian `u64` words (magic, world hash, seed,
/// scale bits, 3 unit-key words, payload length, payload digest).
pub const HEADER_LEN: usize = 72;

/// The checkpoint log's file name inside the checkpoint directory.
pub const LOG_NAME: &str = "checkpoint.log";

/// FNV-1a over `bytes`: dependency-free, stable across platforms, and
/// plenty for detecting torn writes and bit rot (this is an integrity
/// check against accidents, not an authentication tag).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// [`fnv1a64`] of every slice of `parts`, in order. One chain is bound
/// by the multiply's latency, not its throughput, so four independent
/// chains run interleaved in one loop, about 3.5 times the bytes per
/// second of one. Parts are handed to the four lanes longest first and a
/// finished lane takes the next part, so the lanes stay busy.
pub(crate) fn fnv1a64_each(parts: &[&[u8]]) -> Vec<u64> {
    let mut out = vec![FNV_OFFSET; parts.len()];
    // Sorted shortest first, so `pop` hands out the longest.
    let mut queue: Vec<(usize, &[u8])> = parts.iter().copied().enumerate().collect();
    queue.sort_by_key(|&(i, p)| (p.len(), std::cmp::Reverse(i)));
    // (part index, chain state, bytes still to hash)
    let mut lanes: Vec<(usize, u64, &[u8])> = Vec::with_capacity(4);
    loop {
        while lanes.len() < 4 {
            let Some((i, part)) = queue.pop() else { break };
            lanes.push((i, FNV_OFFSET, part));
        }
        let Some(&first) = lanes.first() else { break };
        // Fewer than four parts left: idle lanes repeat the first one's
        // work and their results are dropped.
        let lane = |k: usize| lanes.get(k).copied().unwrap_or(first);
        let ((_, mut h0, a), (_, mut h1, b), (_, mut h2, c), (_, mut h3, d)) =
            (lane(0), lane(1), lane(2), lane(3));
        for (((&x0, &x1), &x2), &x3) in a.iter().zip(b).zip(c).zip(d) {
            h0 = (h0 ^ u64::from(x0)).wrapping_mul(FNV_PRIME);
            h1 = (h1 ^ u64::from(x1)).wrapping_mul(FNV_PRIME);
            h2 = (h2 ^ u64::from(x2)).wrapping_mul(FNV_PRIME);
            h3 = (h3 ^ u64::from(x3)).wrapping_mul(FNV_PRIME);
        }
        // Every lane advanced by the shortest one's bytes, which ends at
        // least one part per round.
        let n = a.len().min(b.len()).min(c.len()).min(d.len());
        for (lane, h) in lanes.iter_mut().zip([h0, h1, h2, h3]) {
            lane.1 = h;
            lane.2 = lane.2.get(n..).unwrap_or_default();
        }
        lanes.retain(|&(i, h, rest)| {
            if !rest.is_empty() {
                return true;
            }
            if let Some(slot) = out.get_mut(i) {
                *slot = h;
            }
            false
        });
    }
    out
}

/// Write `bytes` to `path` atomically: stage in a temp file in the same
/// directory, flush + fsync, rename over the destination, then fsync the
/// directory so the rename itself survives a power cut. A reader (or a
/// crash) can observe the old contents or the new contents — never a
/// torn mixture, and never a half-written file under the final name.
///
/// The temp name is derived from the destination (`.<name>.tmp`), so two
/// processes atomically writing the same path race on the rename — last
/// writer wins with both outcomes intact, which is the POSIX contract.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with(path, |w| write_all_chunked(w, bytes))
}

/// `write_all` in bounded (4 MiB) chunks. A single hundreds-of-MB
/// `write(2)` can hit a pathological kernel slow path (observed ~25×
/// slower than chunked writes of the same bytes on tmpfs); bounded
/// chunks sidestep it at no cost for small writes.
pub fn write_all_chunked<W: Write>(w: &mut W, bytes: &[u8]) -> io::Result<()> {
    for chunk in bytes.chunks(4 << 20) {
        w.write_all(chunk)?;
    }
    Ok(())
}

/// Streaming form of [`atomic_write`]: `emit` produces the file contents
/// incrementally into a buffered temp-file writer, so callers holding the
/// output as multiple fragments (or generating it on the fly) publish it
/// atomically without first concatenating a second whole-file buffer.
/// Same crash contract as [`atomic_write`]; if `emit` fails the temp file
/// is removed and the destination is untouched.
pub fn atomic_write_with<F>(path: &Path, emit: F) -> io::Result<()>
where
    F: FnOnce(&mut io::BufWriter<File>) -> io::Result<()>,
{
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("atomic_write: path {path:?} has no file name"),
        )
    })?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let tmp = dir.join(format!(".{}.tmp", file_name.to_string_lossy()));
    let staged = (|| {
        // lint:allow(D6): this IS the atomic_write implementation — the
        // temp file is fsynced and renamed before anyone can see it
        let mut w = io::BufWriter::new(File::create(&tmp)?);
        emit(&mut w)?;
        w.flush()?;
        w.get_ref().sync_all()
    })();
    if let Err(e) = staged {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    fs::rename(&tmp, path)?;
    if let Ok(d) = File::open(dir) {
        // Directory fsync is advisory (fails on some filesystems); the
        // rename above is already atomic for readers either way.
        let _ = d.sync_all();
    }
    Ok(())
}

/// The identity of a checkpoint stream: records from a different world,
/// seed, or scale are *foreign* and must never be restored into this run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointKey {
    /// Hash of everything that defines the world besides seed and scale:
    /// the scenario spec JSON plus the output-affecting config knobs.
    pub world_hash: u64,
    /// Campaign seed.
    pub seed: u64,
    /// `CampaignConfig::scale` bit pattern (exact, not rounded).
    pub scale_bits: u64,
}

/// Hash the output-defining identity of a campaign: the scenario spec's
/// canonical JSON plus every config knob (other than seed and scale,
/// which key the checkpoint stream separately) that changes the dataset.
pub fn world_hash(spec: &ScenarioSpec, cfg: &CampaignConfig) -> u64 {
    let json = serde_json::to_string(spec).unwrap_or_default();
    let mut h = fnv1a64(json.as_bytes());
    let mut absorb = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    // Three words once held the config's suite switches, always on
    // (`1`) in a run that ran every suite; the switches live only in the
    // spec now, whose JSON is hashed above. Absorbing the same words
    // keeps every existing log's key, so those logs still restore.
    for _ in 0..3 {
        absorb(1);
    }
    absorb(cfg.passive_tick_s.to_bits());
    absorb(cfg.snapshot_tick_s.to_bits());
    absorb(cfg.gap_s.to_bits());
    absorb(u64::from(cfg.max_retries));
    // The population override is part of the world: two absorbs so
    // `None` cannot collide with any `Some(n)`.
    absorb(u64::from(cfg.population.is_some()));
    absorb(cfg.population.unwrap_or(0));
    h = fnv1a64(cfg.fault_profile.label().as_bytes()) ^ h.rotate_left(17);
    h
}

/// One work unit's durable outcome: everything needed to reconstruct its
/// [`UnitOutcome`] without re-running it.
#[derive(Debug, Clone, Serialize)]
pub struct UnitCheckpoint {
    /// Whether the unit produced a shard (`false` = `Lost` with no data;
    /// distinguishes a lost unit from one that completed empty).
    pub has_shard: bool,
    /// The unit's integrity record.
    pub report: UnitReport,
    /// The shard's test records (empty when `has_shard` is false).
    pub records: Vec<TestRecord>,
    /// The shard's passive-logger output, if any.
    pub passive: Option<(Operator, PassiveLogger)>,
    /// The shard's fleet-load sketch (drive units of fleet-enabled
    /// campaigns).
    pub fleet: Option<FleetUnitSketch>,
}

impl UnitCheckpoint {
    /// An owned copy of a supervised outcome's checkpoint. The log is
    /// written from the borrowed outcome instead; tests compare the two.
    pub fn from_outcome(outcome: &UnitOutcome) -> Self {
        match &outcome.shard {
            Some(shard) => UnitCheckpoint {
                has_shard: true,
                report: outcome.report.clone(),
                records: shard.records.clone(),
                passive: shard.passive.clone(),
                fleet: shard.fleet.clone(),
            },
            None => UnitCheckpoint {
                has_shard: false,
                report: outcome.report.clone(),
                records: Vec::new(),
                passive: None,
                fleet: None,
            },
        }
    }

    /// Reconstruct the outcome this record captured.
    pub fn into_outcome(self) -> UnitOutcome {
        UnitOutcome {
            shard: self.has_shard.then(|| Shard {
                records: self.records,
                passive: self.passive,
                fleet: self.fleet,
            }),
            report: self.report,
        }
    }
}

/// Append the payload of `outcome`'s checkpoint to `out`: the bytes
/// `UnitCheckpoint::from_outcome(outcome)` encodes to, without the clone.
fn put_outcome(outcome: &UnitOutcome, out: &mut Vec<u8>) {
    let UnitOutcome { shard, report } = outcome;
    match shard {
        Some(Shard {
            records,
            passive,
            fleet,
        }) => wire::put_checkpoint(true, report, records, passive.as_ref(), fleet.as_ref(), out),
        None => wire::put_checkpoint(false, report, &[], None, None, out),
    }
}

/// Append-only checkpoint writer for one run. The supervised executor
/// encodes records on its workers (`record`) and makes them durable on
/// one committer thread, a batch at a time (`append`); a batch is written
/// under the file lock, so records never interleave, and it counts as
/// committed only once its `sync_data` returns.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: Mutex<File>,
    key: CheckpointKey,
}

impl CheckpointWriter {
    /// Open (append) or create the log in `dir`. With `fresh` set, an
    /// existing log is truncated first — a non-resume run must not
    /// inherit records, even byte-valid ones, from a previous run.
    pub fn open(dir: &Path, key: CheckpointKey, fresh: bool) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(!fresh)
            .write(true)
            .truncate(fresh)
            .open(dir.join(LOG_NAME))?;
        Ok(CheckpointWriter {
            file: Mutex::new(file),
            key,
        })
    }

    /// The stream identity this writer stamps on every record.
    pub fn key(&self) -> CheckpointKey {
        self.key
    }

    /// Encode one unit's record: the 72-byte header, then the payload.
    /// One buffer: the payload is encoded after a reserved header, which
    /// is filled in once the payload's length and digest are known.
    pub(crate) fn record(&self, unit: &WorkUnit, outcome: &UnitOutcome) -> Vec<u8> {
        let mut rec = vec![0u8; HEADER_LEN];
        put_outcome(outcome, &mut rec);
        let payload = rec.get(HEADER_LEN..).unwrap_or_default();
        let (payload_len, digest) = (payload.len() as u64, fnv1a64(payload));
        let [unit_a, unit_b, unit_c] = unit.fault_words();
        let header = [
            MAGIC,
            self.key.world_hash,
            self.key.seed,
            self.key.scale_bits,
            unit_a,
            unit_b,
            unit_c,
            payload_len,
            digest,
        ];
        for (slot, w) in rec.chunks_exact_mut(8).zip(header) {
            slot.copy_from_slice(&w.to_le_bytes());
        }
        rec
    }

    /// Append a batch of whole records and make it durable with one
    /// `sync_data`: when this returns `Ok`, every record in the batch
    /// survives any process death; on an error none of them counts as
    /// committed.
    pub(crate) fn append<'a>(&self, records: impl IntoIterator<Item = &'a [u8]>) -> io::Result<()> {
        let f = self.file.lock();
        for rec in records {
            (&*f).write_all(rec)?;
        }
        f.sync_data()
    }

    /// Append one unit's outcome durably: a batch of one record, fully
    /// written and fsynced before this returns.
    pub fn commit(&self, unit: &WorkUnit, outcome: &UnitOutcome) -> io::Result<()> {
        self.append([self.record(unit, outcome).as_slice()])
    }
}

/// Frame the well-formed prefix of a checkpoint log: byte ranges of the
/// records whose headers parse and whose payloads fit. Digest and key
/// validity are *not* checked — this is the framing layer tests and
/// tooling use to cut a log at a record boundary.
pub fn record_spans(bytes: &[u8]) -> Vec<Range<usize>> {
    frame(bytes).0.into_iter().map(|(_, span)| span).collect()
}

/// One framed record: its nine header words and its byte range.
type Frame = ([u64; 9], Range<usize>);

/// The framing under [`record_spans`] and [`LogScan::read`]:
/// each well-formed record's header words and byte range, in log order,
/// up to the first record too torn to frame (a truncated header or
/// payload, or a bad magic), plus a note saying why the framing stopped
/// there when it stopped before the end.
fn frame(bytes: &[u8]) -> (Vec<Frame>, Option<String>) {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(header) = read_header(bytes, pos) else {
            return (
                frames,
                Some(format!("truncated header at byte {pos} (crash tail)")),
            );
        };
        let [magic, .., payload_len, _digest] = header;
        if magic != MAGIC {
            let note = if magic == MAGIC_JSON {
                format!("JSON-payload (WHL_CKP1) record at byte {pos}; dropping remainder")
            } else {
                format!("bad record magic at byte {pos}; dropping remainder")
            };
            return (frames, Some(note));
        }
        let end = match usize::try_from(payload_len)
            .ok()
            .and_then(|n| pos.checked_add(HEADER_LEN)?.checked_add(n))
        {
            Some(e) if e <= bytes.len() => e,
            _ => {
                let note = format!(
                    "truncated record at byte {pos} ({payload_len} payload bytes promised)"
                );
                return (frames, Some(note));
            }
        };
        frames.push((header, pos..end));
        pos = end;
    }
    (frames, None)
}

/// Read the little-endian `u64` at `bytes[at..at + 8]`. Total: returns
/// `None` instead of panicking when fewer than eight bytes remain, so
/// the loader loops stay panic-free even if a length guard drifts.
fn le_word(bytes: &[u8], at: usize) -> Option<u64> {
    let end = at.checked_add(8)?;
    let chunk: [u8; 8] = bytes.get(at..end)?.try_into().ok()?;
    Some(u64::from_le_bytes(chunk))
}

/// Read the nine-word record header starting at `pos`, or `None` when
/// fewer than `HEADER_LEN` bytes remain (crash tail).
fn read_header(bytes: &[u8], pos: usize) -> Option<[u64; 9]> {
    let mut hdr = [0u64; 9];
    for (i, h) in hdr.iter_mut().enumerate() {
        *h = le_word(bytes, pos.checked_add(8 * i)?)?;
    }
    Some(hdr)
}

/// A checkpoint log read, framed, digest-checked and decoded, before any
/// run's key is applied to it ([`LoadedCheckpoints::from_scan`]). That
/// is the whole cost of a resume's scan, and it needs no key, so
/// [`crate::CheckpointOptions::resume`] starts it on a thread of its own
/// before the world is built.
#[derive(Debug, Default)]
pub(crate) struct LogScan {
    /// The log as read.
    bytes: Vec<u8>,
    /// Every framed record, log order.
    records: Vec<ScannedRecord>,
    /// Why the framing stopped before the end of the log, if it did.
    torn: Option<String>,
}

/// One framed record of a [`LogScan`].
#[derive(Debug)]
struct ScannedRecord {
    key: CheckpointKey,
    words: [u64; 3],
    span: Range<usize>,
    body: Body,
}

/// What a framed record's payload turned out to be.
#[derive(Debug)]
enum Body {
    DigestMismatch,
    Undecodable(String),
    Decoded(Box<UnitCheckpoint>),
}

impl LogScan {
    /// Open `<dir>/checkpoint.log` for a scan; `None` when there is no
    /// log, which scans as empty.
    pub(crate) fn open(dir: &Path) -> io::Result<Option<File>> {
        match File::open(dir.join(LOG_NAME)) {
            Ok(f) => Ok(Some(f)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Read the log `file` holds into one buffer and check it record by
    /// record: a record whose header frames is kept with its payload
    /// decoded straight from its bytes ([`wire::decode`]), or marked as
    /// failing its digest or its decode. A record too torn to frame (bad
    /// magic, truncated tail) ends the scan — everything after it is
    /// unreachable. The digests are checked four chains at a time
    /// ([`fnv1a64_each`]): the sooner the scan is done, the sooner the
    /// log's buffer is freed, and it runs while the world is built.
    pub(crate) fn read(file: Option<File>) -> io::Result<Self> {
        let mut scan = LogScan::default();
        let Some(mut file) = file else {
            return Ok(scan);
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (frames, torn) = frame(&bytes);
        let payloads: Vec<&[u8]> = frames
            .iter()
            .map(|(_, span)| {
                bytes
                    .get(span.start + HEADER_LEN..span.end)
                    .unwrap_or_default()
            })
            .collect();
        let digests = fnv1a64_each(&payloads);
        for (((header, span), payload), actual) in frames.into_iter().zip(payloads).zip(digests) {
            let [_, world_hash, seed, scale_bits, unit_a, unit_b, unit_c, _, digest] = header;
            let body = if actual != digest {
                Body::DigestMismatch
            } else {
                match wire::decode::<UnitCheckpoint>(payload) {
                    Ok(ck) => Body::Decoded(Box::new(ck)),
                    Err(e) => Body::Undecodable(e.to_string()),
                }
            };
            scan.records.push(ScannedRecord {
                key: CheckpointKey {
                    world_hash,
                    seed,
                    scale_bits,
                },
                words: [unit_a, unit_b, unit_c],
                span,
                body,
            });
        }
        scan.torn = torn;
        // Compaction keeps or drops a log of distinct, decodable records
        // under one key whole, and then needs none of its bytes: free them
        // now instead of holding them until a run applies its key.
        let mut units = std::collections::BTreeSet::new();
        let whole = scan.torn.is_none()
            && scan.records.iter().all(|r| {
                matches!(r.body, Body::Decoded(_))
                    && scan.records.first().is_some_and(|first| first.key == r.key)
                    && units.insert(r.words)
            });
        if !whole {
            scan.bytes = bytes;
        }
        Ok(scan)
    }
}

/// The result of scanning a checkpoint log for one run's records.
#[derive(Debug, Default)]
pub struct LoadedCheckpoints {
    /// Valid records keyed by unit key words; duplicate commits of the
    /// same unit keep the last (they are byte-identical anyway — unit
    /// output is pure).
    pub units: Vec<([u64; 3], UnitCheckpoint)>,
    /// Records rejected as corrupt: torn header/payload, digest
    /// mismatch, or undecodable payload. Each is recomputed on resume.
    pub corrupt_records: usize,
    /// Byte-valid records stamped with a different world/seed/scale —
    /// ignored, never restored into this run.
    pub foreign_records: usize,
    /// Human-readable notes, one per rejected record, scan order.
    pub notes: Vec<String>,
    /// What [`LoadedCheckpoints::compact_to`] writes: the log as read and
    /// the byte ranges of its surviving records in unit-key order. `None`
    /// when the log already holds exactly its surviving records.
    rewrite: Option<(Vec<u8>, Vec<Range<usize>>)>,
}

impl LoadedCheckpoints {
    /// Scan `<dir>/checkpoint.log` and keep every record
    /// that (a) frames correctly, (b) passes its payload digest, (c) is
    /// stamped with `key`, and (d) decodes. A missing log is an empty
    /// load, not an error. Corruption is never fatal: a record with a
    /// broken digest is skipped using its length field, and a record too
    /// torn to frame (bad magic, truncated tail) ends the scan —
    /// everything after it is unreachable and will be recomputed.
    pub fn load(dir: &Path, key: CheckpointKey) -> io::Result<Self> {
        Ok(Self::from_scan(LogScan::read(LogScan::open(dir)?)?, key))
    }

    /// Keep the records of `scan` that are stamped with `key` and passed
    /// their checks, as [`load`](Self::load) describes. When the scan
    /// rejected or superseded a record, the log's buffer is kept for
    /// [`compact_to`](Self::compact_to), which writes the surviving
    /// records out of it; otherwise it is freed before this returns.
    pub(crate) fn from_scan(scan: LogScan, key: CheckpointKey) -> Self {
        let mut out = LoadedCheckpoints::default();
        // Last valid record per unit wins: (unit words) -> index in
        // `out.units` plus the record's byte range for compaction.
        let mut by_unit: std::collections::BTreeMap<[u64; 3], (usize, Range<usize>)> =
            std::collections::BTreeMap::new();
        let mut superseded = false;
        for ScannedRecord {
            key: rec_key,
            words,
            span,
            body,
        } in scan.records
        {
            let pos = span.start;
            let ck = match body {
                Body::DigestMismatch => {
                    out.corrupt_records += 1;
                    out.notes.push(format!(
                        "digest mismatch at byte {pos} (unit key {words:?}); record dropped"
                    ));
                    continue;
                }
                _ if rec_key != key => {
                    out.foreign_records += 1;
                    out.notes.push(format!(
                        "foreign record at byte {pos}: world/seed/scale {:#x}/{}/{:#x} \
                         does not match this run",
                        rec_key.world_hash, rec_key.seed, rec_key.scale_bits
                    ));
                    continue;
                }
                Body::Undecodable(e) => {
                    out.corrupt_records += 1;
                    out.notes
                        .push(format!("undecodable payload at byte {pos}: {e}"));
                    continue;
                }
                Body::Decoded(ck) => *ck,
            };
            match by_unit.get(&words) {
                Some(&(idx, _)) => {
                    // idx was recorded alongside the push below, so
                    // `get_mut` always hits; total either way.
                    if let Some(unit) = out.units.get_mut(idx) {
                        unit.1 = ck;
                    }
                    by_unit.insert(words, (idx, span));
                    superseded = true;
                }
                None => {
                    by_unit.insert(words, (out.units.len(), span));
                    out.units.push((words, ck));
                }
            }
        }
        if let Some(note) = scan.torn {
            out.corrupt_records += 1;
            out.notes.push(note);
        }
        // A log with nothing rejected (a torn tail counts as corrupt) and
        // nothing superseded already is its surviving records.
        if out.corrupt_records > 0 || out.foreign_records > 0 || superseded {
            // Unit-key order: the BTreeMap gives a canonical order
            // independent of commit order.
            let survivors = by_unit.into_values().map(|(_, span)| span).collect();
            out.rewrite = Some((scan.bytes, survivors));
        }
        out
    }

    /// Rewrite the log in `dir` — the directory it was loaded from — as
    /// exactly the surviving records, atomically. Resume calls this
    /// before appending: it heals digest-failed, foreign and superseded
    /// records out of the file and — crucially — removes a torn tail, so
    /// records appended *after* a real SIGKILL stay reachable by the next
    /// scan instead of hiding behind unparseable bytes. The records are
    /// streamed from the buffer the scan read. When the scan
    /// found nothing to heal, the file already holds exactly its
    /// surviving records and is left untouched.
    pub fn compact_to(&self, dir: &Path) -> io::Result<()> {
        let Some((log, survivors)) = &self.rewrite else {
            return Ok(());
        };
        fs::create_dir_all(dir)?;
        atomic_write_with(&dir.join(LOG_NAME), |w| {
            for span in survivors {
                if let Some(record) = log.get(span.clone()) {
                    w.write_all(record)?;
                }
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::UnitStatus;
    use crate::runner::Campaign;
    use wheels_netsim::faults::FaultProfile;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        // CARGO_TARGET_TMPDIR only exists for integration tests; unit
        // tests get a scratch area under the workspace target dir.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/checkpoint-unit-tests")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    fn key() -> CheckpointKey {
        CheckpointKey {
            world_hash: 0xABCD,
            seed: 42,
            scale_bits: 1.0f64.to_bits(),
        }
    }

    fn lost_outcome(label: &str) -> UnitOutcome {
        let mut report = UnitReport::new(label.to_string());
        report.status = UnitStatus::Lost;
        report.attempts = 3;
        report.error = Some("server unreachable".into());
        UnitOutcome {
            shard: None,
            report,
        }
    }

    fn ok_outcome(label: &str) -> UnitOutcome {
        let mut report = UnitReport::new(label.to_string());
        report.status = UnitStatus::Ok;
        report.attempts = 1;
        UnitOutcome {
            shard: Some(Shard::default()),
            report,
        }
    }

    #[test]
    fn atomic_write_replaces_without_leftover_tmp() {
        let dir = tmp_dir("atomic_write");
        let path = dir.join("out.json");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["out.json".to_string()], "no tmp residue");
    }

    #[test]
    fn failed_streamed_export_leaves_no_file_behind() {
        // The export pipeline's sink fails mid-document: the error comes
        // back out of atomic_write_with, and neither the destination nor
        // its `.<name>.tmp` staging file remains.
        let dir = tmp_dir("atomic_write_stream_fail");
        let path = dir.join("out.json");
        for jobs in [1, 3] {
            let mut budget = 10_000usize;
            let r = atomic_write_with(&path, |w| {
                wheels_xcal::export::ordered_stream(
                    40,
                    jobs,
                    |i| format!("{i:>999}\n"),
                    |frag| {
                        budget = budget.checked_sub(frag.len()).ok_or_else(|| {
                            io::Error::new(io::ErrorKind::StorageFull, "disk full")
                        })?;
                        w.write_all(frag.as_bytes())
                    },
                )
            });
            let err = r.unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::StorageFull, "jobs={jobs}");
            let residue = fs::read_dir(&dir).unwrap().count();
            assert_eq!(residue, 0, "jobs={jobs}: files left behind");
        }
    }

    #[test]
    fn atomic_write_rejects_pathless_target() {
        assert!(atomic_write(Path::new("/"), b"x").is_err());
    }

    #[test]
    fn fnv_digest_is_the_reference_vector() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn interleaved_digests_match_one_chain_each() {
        // Lengths around the lane count and the refill points: empty
        // parts, equal lengths, one long part among short ones.
        let bytes: Vec<u8> = (0..5000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let lens: [&[usize]; 7] = [
            &[],
            &[0],
            &[7],
            &[3, 3, 3, 3],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8],
            &[4000, 1, 2, 3, 0, 17, 900, 900, 31],
            &[100, 5000, 100, 100, 100, 2500, 0, 2500],
        ];
        for lens in lens {
            let parts: Vec<&[u8]> = lens
                .iter()
                .enumerate()
                .map(|(i, &n)| &bytes[i..i + n.min(bytes.len() - i)])
                .collect();
            let one: Vec<u64> = parts.iter().map(|p| fnv1a64(p)).collect();
            assert_eq!(fnv1a64_each(&parts), one, "lengths {lens:?}");
        }
    }

    #[test]
    fn commit_then_load_roundtrips_outcomes() {
        let dir = tmp_dir("roundtrip");
        let w = CheckpointWriter::open(&dir, key(), true).unwrap();
        let u0 = WorkUnit::Drive {
            op: Operator::Verizon,
            day: 0,
        };
        let u1 = WorkUnit::Passive {
            op: Operator::Att,
        };
        w.commit(&u0, &ok_outcome("drive/Verizon/day0")).unwrap();
        w.commit(&u1, &lost_outcome("passive/AT&T")).unwrap();
        let load = LoadedCheckpoints::load(&dir, key()).unwrap();
        assert_eq!(load.units.len(), 2);
        assert_eq!(load.corrupt_records, 0);
        assert_eq!(load.foreign_records, 0);
        let restored: Vec<UnitOutcome> = load
            .units
            .into_iter()
            .map(|(_, ck)| ck.into_outcome())
            .collect();
        let lost = restored
            .iter()
            .find(|o| o.report.unit.starts_with("passive"))
            .unwrap();
        assert!(lost.shard.is_none(), "lost unit restores as shardless");
        assert_eq!(lost.report.status, UnitStatus::Lost);
        let ok = restored
            .iter()
            .find(|o| o.report.unit.starts_with("drive"))
            .unwrap();
        assert!(ok.shard.is_some(), "ok unit restores its (empty) shard");
    }

    #[test]
    fn wrong_key_records_are_foreign_not_restored() {
        let dir = tmp_dir("foreign");
        let w = CheckpointWriter::open(&dir, key(), true).unwrap();
        let unit = WorkUnit::Drive {
            op: Operator::TMobile,
            day: 1,
        };
        w.commit(&unit, &ok_outcome("drive/T-Mobile/day1")).unwrap();
        let other = CheckpointKey {
            seed: 43,
            ..key()
        };
        let load = LoadedCheckpoints::load(&dir, other).unwrap();
        assert!(load.units.is_empty());
        assert_eq!(load.foreign_records, 1);
        assert_eq!(load.corrupt_records, 0);
    }

    #[test]
    fn torn_tail_and_bitflip_are_rejected_separately() {
        let dir = tmp_dir("corrupt");
        let w = CheckpointWriter::open(&dir, key(), true).unwrap();
        for day in 0..3 {
            let unit = WorkUnit::Drive {
                op: Operator::Verizon,
                day,
            };
            w.commit(&unit, &ok_outcome(&format!("drive/Verizon/day{day}")))
                .unwrap();
        }
        let log = dir.join(LOG_NAME);
        let mut bytes = fs::read(&log).unwrap();
        let spans = record_spans(&bytes);
        assert_eq!(spans.len(), 3);
        // Bit-flip one payload byte of record 1; truncate inside record 2.
        bytes[spans[1].start + HEADER_LEN + 4] ^= 0x40;
        bytes.truncate(spans[2].start + HEADER_LEN + 3);
        fs::write(&log, &bytes).unwrap();
        let load = LoadedCheckpoints::load(&dir, key()).unwrap();
        assert_eq!(load.units.len(), 1, "only record 0 survives");
        assert_eq!(load.corrupt_records, 2, "{:?}", load.notes);
        assert!(load.notes.iter().any(|n| n.contains("digest mismatch")));
        assert!(load.notes.iter().any(|n| n.contains("truncated")));
    }

    #[test]
    fn compact_heals_the_log() {
        let dir = tmp_dir("compact");
        let w = CheckpointWriter::open(&dir, key(), true).unwrap();
        for day in 0..2 {
            let unit = WorkUnit::Drive {
                op: Operator::Att,
                day,
            };
            w.commit(&unit, &ok_outcome(&format!("drive/AT&T/day{day}")))
                .unwrap();
        }
        let log = dir.join(LOG_NAME);
        let mut bytes = fs::read(&log).unwrap();
        let spans = record_spans(&bytes);
        bytes.truncate(spans[1].start + 10); // torn tail
        fs::write(&log, &bytes).unwrap();
        let load = LoadedCheckpoints::load(&dir, key()).unwrap();
        assert_eq!(load.units.len(), 1);
        load.compact_to(&dir).unwrap();
        let healed = LoadedCheckpoints::load(&dir, key()).unwrap();
        assert_eq!(healed.units.len(), 1);
        assert_eq!(healed.corrupt_records, 0, "compaction removed the tear");
    }

    #[test]
    fn fresh_open_truncates_resume_open_appends() {
        let dir = tmp_dir("fresh");
        let unit = WorkUnit::Passive {
            op: Operator::Verizon,
        };
        let w = CheckpointWriter::open(&dir, key(), true).unwrap();
        w.commit(&unit, &ok_outcome("passive/Verizon")).unwrap();
        drop(w);
        let w = CheckpointWriter::open(&dir, key(), false).unwrap();
        let unit2 = WorkUnit::Passive {
            op: Operator::Att,
        };
        w.commit(&unit2, &ok_outcome("passive/AT&T")).unwrap();
        drop(w);
        assert_eq!(
            LoadedCheckpoints::load(&dir, key()).unwrap().units.len(),
            2,
            "append keeps prior records"
        );
        let w = CheckpointWriter::open(&dir, key(), true).unwrap();
        drop(w);
        assert_eq!(
            LoadedCheckpoints::load(&dir, key()).unwrap().units.len(),
            0,
            "fresh truncates"
        );
    }

    /// Every supervised outcome of a tiny campaign of `scenario`.
    fn real_outcomes(
        scenario: &str,
        faults: FaultProfile,
        population: Option<u64>,
    ) -> Vec<UnitOutcome> {
        let mut cfg = CampaignConfig::quick(11);
        cfg.scale = 0.02;
        cfg.passive_tick_s = 60.0;
        cfg.fault_profile = faults;
        cfg.population = population;
        let spec = ScenarioSpec::find(scenario).expect("registered scenario");
        let campaign = Campaign::from_spec(&spec, cfg);
        let units = campaign.plan_units();
        campaign
            .execute_units(&units, 1, Default::default(), None, None)
            .expect("no checkpoint and no kill hook, so nothing interrupts")
    }

    #[test]
    fn real_outcomes_roundtrip_through_the_codec() {
        let worlds = [
            ("paper", FaultProfile::None, None),
            ("paper", FaultProfile::Harsh, None),
            ("rail-corridor", FaultProfile::None, None),
            ("rail-corridor", FaultProfile::Harsh, None),
            ("metro-loop", FaultProfile::None, None),
            ("metro-loop", FaultProfile::Harsh, None),
            ("paper", FaultProfile::None, Some(10_000)),
        ];
        let (mut lost, mut degraded_passive, mut truncated, mut fleet, mut apps) = (0, 0, 0, 0, 0);
        for (scenario, faults, population) in worlds {
            for o in real_outcomes(scenario, faults, population) {
                let owned = UnitCheckpoint::from_outcome(&o);
                let mut borrowed = Vec::new();
                put_outcome(&o, &mut borrowed);
                assert_eq!(borrowed, wire::encode(&owned), "{}", o.report.unit);
                let back: UnitCheckpoint = wire::decode(&borrowed).expect("decodes");
                assert_eq!(
                    serde_json::to_string(&back).expect("serializes"),
                    serde_json::to_string(&owned).expect("serializes"),
                    "{scenario} {faults:?} {}",
                    o.report.unit
                );
                lost += usize::from(o.report.status == UnitStatus::Lost);
                degraded_passive += usize::from(o.report.passive_samples_lost > 0);
                truncated += usize::from(o.report.kpi_samples_lost > 0);
                let shard = o.shard.as_ref();
                fleet += usize::from(shard.is_some_and(|s| s.fleet.is_some()));
                apps += shard.map_or(0, |s| s.records.iter().filter(|r| r.app.is_some()).count());
            }
        }
        for (what, n) in [
            ("lost units", lost),
            ("degraded passive logs", degraded_passive),
            ("truncated KPI streams", truncated),
            ("fleet sketches", fleet),
            ("app metrics", apps),
        ] {
            assert!(n > 0, "no {what} among the outcomes");
        }
    }

    #[test]
    fn world_hash_separates_configs_and_specs() {
        let spec = ScenarioSpec::paper();
        let cfg = CampaignConfig::quick(1);
        let base = world_hash(&spec, &cfg);
        let mut apps_off = spec.clone();
        apps_off.schedule.run_apps = false;
        assert_ne!(base, world_hash(&apps_off, &cfg));
        let mut gap = cfg.clone();
        gap.gap_s += 1.0;
        assert_ne!(base, world_hash(&spec, &gap));
        let mut seed_only = cfg.clone();
        seed_only.seed += 1;
        assert_eq!(
            base,
            world_hash(&spec, &seed_only),
            "seed keys the stream separately, not via the world hash"
        );
        let mut other_spec = spec.clone();
        other_spec.name = "other".into();
        assert_ne!(base, world_hash(&other_spec, &cfg));
    }
}
