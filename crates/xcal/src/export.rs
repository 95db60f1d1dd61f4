//! Dataset export.
//!
//! The paper publishes its dataset and scripts; we export the consolidated
//! database as JSON (full fidelity) and a compact CSV of throughput
//! samples for spreadsheet-style analysis.
//!
//! The JSON export is one ordered pipeline. A fragment plan cuts the
//! pretty document into pieces of about 1 MiB: envelope text, chunks of
//! `records`, and per-operator chunks of passive samples.
//! [`ordered_stream`] renders the pieces on `jobs` workers and hands them
//! to a sink in plan order, holding at most [`WINDOW_PER_JOB`]` × jobs`
//! of them at a time, so the memory in flight depends on `jobs`, not on
//! the size of the dataset. [`write_json`] streams into a writer;
//! [`to_json_parts`] collects the same pieces.

use std::convert::Infallible;
use std::io::{self, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use serde::ser::JsonWriter;
use serde::Serialize;

use crate::database::{ConsolidatedDb, TestRecord};
use crate::handover_logger::PassiveSample;

/// Target size of one export fragment, bytes.
const FRAGMENT_BYTES: usize = 1 << 20;

/// How many fragments each worker may run ahead of the writer: with
/// `jobs` workers, fragment `i` starts rendering only once fewer than
/// `WINDOW_PER_JOB * jobs` fragments before it are still unwritten.
pub const WINDOW_PER_JOB: usize = 2;

/// Estimated pretty-printed bytes of a test record apart from its KPI
/// samples, of one KPI sample, and of one passive sample. The plan cuts
/// fragments by these estimates; the bytes themselves never depend on
/// them.
const RECORD_BYTES: usize = 1_000;
const KPI_BYTES: usize = 470;
const SAMPLE_BYTES: usize = 223;

/// Serialize the full database to pretty JSON.
pub fn to_json(db: &ConsolidatedDb) -> serde_json::Result<String> {
    serde_json::to_string_pretty(db)
}

/// Stream the full database as pretty JSON into `w`, rendering fragments
/// on `jobs` workers. The bytes equal [`to_json`] at any `jobs`, and no
/// more than a window of fragments is held at once.
pub fn write_json<W: Write>(db: &ConsolidatedDb, jobs: usize, w: &mut W) -> io::Result<()> {
    let plan = Plan::new(db, FRAGMENT_BYTES);
    ordered_stream(
        plan.len(),
        jobs,
        |i| plan.render(i),
        |frag| w.write_all(frag.as_bytes()),
    )
}

/// Serialize the full database to pretty JSON as an ordered list of
/// fragments whose concatenation is byte-identical to [`to_json`]: the
/// fragments of [`write_json`], collected instead of written.
pub fn to_json_parts(db: &ConsolidatedDb, jobs: usize) -> Vec<String> {
    let plan = Plan::new(db, FRAGMENT_BYTES);
    let mut parts = Vec::with_capacity(plan.len());
    let Ok(()) = ordered_stream(
        plan.len(),
        jobs,
        |i| plan.render(i),
        |frag| {
            parts.push(frag);
            Ok::<(), Infallible>(())
        },
    );
    parts
}

/// Render fragments `0..n` with `render` on `jobs` scoped workers and
/// pass each to `sink` on the calling thread, in index order.
///
/// Workers claim indices from an atomic counter and park finished
/// fragments in a ring of `window = WINDOW_PER_JOB * jobs` slots;
/// fragment `i` is not started until fragment `i - window` is written.
/// With `jobs <= 1` everything runs inline, with no threads.
///
/// The first `sink` error stops the workers and is returned once they
/// have joined. A panic in `render` (or `sink`) stops the line too, so
/// neither side waits for a fragment that will never come, and the call
/// panics.
pub fn ordered_stream<R, S, E>(n: usize, jobs: usize, render: R, mut sink: S) -> Result<(), E>
where
    R: Fn(usize) -> String + Sync,
    S: FnMut(String) -> Result<(), E>,
{
    let jobs = jobs.clamp(1, n.max(1));
    if jobs == 1 {
        return (0..n).try_for_each(|i| sink(render(i)));
    }
    let window = WINDOW_PER_JOB * jobs;
    let line = Line {
        state: Mutex::new(LineState {
            written: 0,
            slots: (0..window).map(|_| None).collect(),
            stopped: false,
        }),
        changed: Condvar::new(),
    };
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let _stop = StopOnPanic(&line);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n || !line.wait_for_room(i, window) {
                        break;
                    }
                    let frag = render(i);
                    line.put(i % window, frag);
                }
            });
        }
        let _stop = StopOnPanic(&line);
        for i in 0..n {
            // None: a worker panicked; the scope re-raises it on return.
            let Some(frag) = line.take(i % window) else {
                break;
            };
            if let Err(e) = sink(frag) {
                line.stop();
                return Err(e);
            }
            line.advance(i + 1);
        }
        Ok(())
    })
}

/// The shared state of one [`ordered_stream`] call.
struct Line {
    state: Mutex<LineState>,
    changed: Condvar,
}

struct LineState {
    /// Fragments handed to the sink so far.
    written: usize,
    /// Fragment `i` waits in slot `i % window` until the writer takes it.
    slots: Vec<Option<String>>,
    /// Set on a sink error or a panic on either side.
    stopped: bool,
}

impl Line {
    fn lock(&self) -> MutexGuard<'_, LineState> {
        // No code panics while holding the lock, and a stopped line is
        // all a poisoned one could mean.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until fragment `i` falls inside the window; false if the
    /// line stopped first.
    fn wait_for_room(&self, i: usize, window: usize) -> bool {
        let state = self
            .changed
            .wait_while(self.lock(), |s| !s.stopped && i >= s.written + window)
            .unwrap_or_else(PoisonError::into_inner);
        !state.stopped
    }

    fn put(&self, slot: usize, frag: String) {
        if let Some(s) = self.lock().slots.get_mut(slot) {
            *s = Some(frag);
        }
        self.changed.notify_all();
    }

    /// Block until `slot` holds a fragment and take it; None if the line
    /// stopped first.
    fn take(&self, slot: usize) -> Option<String> {
        let mut state = self
            .changed
            .wait_while(self.lock(), |s| {
                !s.stopped && s.slots.get(slot).is_some_and(Option::is_none)
            })
            .unwrap_or_else(PoisonError::into_inner);
        state.slots.get_mut(slot).and_then(Option::take)
    }

    fn advance(&self, written: usize) {
        self.lock().written = written;
        self.changed.notify_all();
    }

    fn stop(&self) {
        self.lock().stopped = true;
        self.changed.notify_all();
    }
}

/// Stops the line if its thread unwinds.
struct StopOnPanic<'a>(&'a Line);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
}

/// One piece of the pretty document, in output order.
#[derive(Debug, PartialEq)]
enum Fragment {
    /// Envelope text: brackets, keys, and each passive log's operator.
    Text(String),
    /// `records[range]`, as elements of the top-level `"records"` array.
    Records(Range<usize>),
    /// Samples `range` of the passive log `db.passive[log]`.
    Samples { log: usize, range: Range<usize> },
}

/// The fragment plan of one database: the document is the concatenation
/// of its fragments, rendered in order.
struct Plan<'a> {
    db: &'a ConsolidatedDb,
    /// Render capacity of one data fragment, bytes.
    budget: usize,
    fragments: Vec<Fragment>,
}

impl<'a> Plan<'a> {
    /// Cut `db` into fragments of about `budget` estimated bytes each.
    fn new(db: &'a ConsolidatedDb, budget: usize) -> Self {
        let mut plan = Plan {
            db,
            budget,
            fragments: Vec::new(),
        };
        if db.records.is_empty() {
            plan.text("{\n  \"records\": [],");
        } else {
            plan.text("{\n  \"records\": [");
            let (mut lo, mut bytes) = (0, 0);
            for (i, r) in db.records.iter().enumerate() {
                bytes += RECORD_BYTES + KPI_BYTES * r.kpi.len();
                if bytes >= budget {
                    plan.fragments.push(Fragment::Records(lo..i + 1));
                    (lo, bytes) = (i + 1, 0);
                }
            }
            if lo < db.records.len() {
                plan.fragments.push(Fragment::Records(lo..db.records.len()));
            }
            plan.text("\n  ],");
        }
        plan.text("\n  \"passive\": ");
        if db.passive.is_empty() {
            plan.text("[]");
        } else {
            let per_fragment = (budget / SAMPLE_BYTES).max(1);
            for (log, (op, logger)) in db.passive.iter().enumerate() {
                plan.text(if log == 0 {
                    "[\n    [\n      "
                } else {
                    ",\n    [\n      "
                });
                let mut w = JsonWriter::append_to(String::new(), Some(2), 3);
                op.stream(&mut w);
                plan.text(&w.finish());
                plan.text(",\n      {\n        \"samples\": ");
                let n = logger.samples().len();
                if n == 0 {
                    plan.text("[]");
                } else {
                    plan.text("[");
                    for lo in (0..n).step_by(per_fragment) {
                        let range = lo..(lo + per_fragment).min(n);
                        plan.fragments.push(Fragment::Samples { log, range });
                    }
                    plan.text("\n        ]");
                }
                plan.text("\n      }\n    ]");
            }
            plan.text("\n  ]");
        }
        plan.text("\n}");
        plan
    }

    /// Append envelope text, merging it into a preceding text fragment.
    fn text(&mut self, s: &str) {
        match self.fragments.last_mut() {
            Some(Fragment::Text(t)) => t.push_str(s),
            _ => self.fragments.push(Fragment::Text(s.to_owned())),
        }
    }

    fn len(&self) -> usize {
        self.fragments.len()
    }

    /// The text of fragment `i` (empty past the end of the plan).
    fn render(&self, i: usize) -> String {
        let mut buf = String::new();
        match self.fragments.get(i) {
            Some(Fragment::Text(t)) => buf.push_str(t),
            Some(Fragment::Records(range)) => {
                buf.reserve(self.budget + self.budget / 4);
                // In range by construction.
                let records = self.db.records.get(range.clone()).unwrap_or_default();
                records_fragment(records, range.start, &mut buf);
            }
            Some(Fragment::Samples { log, range }) => {
                buf.reserve(self.budget + self.budget / 4);
                let samples = self
                    .db
                    .passive
                    .get(*log)
                    .map_or(&[][..], |(_, l)| l.samples());
                // In range by construction.
                let samples = samples.get(range.clone()).unwrap_or_default();
                samples_fragment(samples, range.start, &mut buf);
            }
            None => {}
        }
        buf
    }
}

/// Pretty-print `records` as the interior of the top-level `"records"`
/// array into `buf`: each element at depth 2, preceded by `,` unless it
/// is the global first record (`global_start` is the index of
/// `records[0]`).
fn records_fragment(records: &[TestRecord], global_start: usize, buf: &mut String) {
    for (k, r) in records.iter().enumerate() {
        if global_start + k > 0 {
            buf.push(',');
        }
        buf.push_str("\n    ");
        let mut w = JsonWriter::append_to(std::mem::take(buf), Some(2), 2);
        r.stream(&mut w);
        *buf = w.finish();
    }
}

/// Pretty-print passive `samples` as the interior of a log's `"samples"`
/// array into `buf`: each element at depth 5, preceded by `,` unless it
/// is the log's first sample (`global_start` is the index of
/// `samples[0]` in the log).
fn samples_fragment(samples: &[PassiveSample], global_start: usize, buf: &mut String) {
    for (k, s) in samples.iter().enumerate() {
        if global_start + k > 0 {
            buf.push(',');
        }
        buf.push_str("\n          ");
        let mut w = JsonWriter::append_to(std::mem::take(buf), Some(2), 5);
        s.stream(&mut w);
        *buf = w.finish();
    }
}

/// CSV header for the throughput-sample export.
pub const CSV_HEADER: &str =
    "test_id,op,kind,static,time_s,tput_mbps,tech,rsrp_dbm,mcs,bler,ca,speed_mph,timezone,region,handovers";

/// Write all throughput samples as CSV rows.
///
/// Rows are formatted into one reused `String` and pushed through a
/// `BufWriter`, so per-sample cost is formatting only — no per-row
/// allocation and no per-row syscall even when `w` is unbuffered.
pub fn write_tput_csv<W: Write>(db: &ConsolidatedDb, w: W) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(w);
    writeln!(w, "{CSV_HEADER}")?;
    let mut row = String::with_capacity(160);
    for r in &db.records {
        write_record_rows(r, &mut w, &mut row)?;
    }
    w.flush()
}

fn write_record_rows<W: Write>(
    r: &TestRecord,
    w: &mut std::io::BufWriter<W>,
    row: &mut String,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    for k in &r.kpi {
        let Some(tput) = k.tput_mbps else { continue };
        row.clear();
        writeln!(
            row,
            "{},{},{},{},{:.3},{:.4},{},{:.1},{},{:.3},{},{:.1},{},{},{}",
            r.id,
            r.op.code(),
            r.kind.label(),
            u8::from(r.is_static),
            k.time_s,
            tput,
            k.tech.label(),
            k.rsrp_dbm,
            k.mcs,
            k.bler,
            k.ca,
            k.speed_mph(),
            k.timezone.label(),
            k.region.label(),
            k.handovers_in_window,
        )
        // lint:allow(D7): write! into a String only fails on fmt::Error, which String's Write never returns
        .expect("formatting into a String is infallible");
        w.write_all(row.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TestKind;
    use crate::handover_logger::PassiveLogger;
    use crate::kpi::KpiSample;
    use wheels_geo::region::RegionKind;
    use wheels_geo::timezone::Timezone;
    use wheels_netsim::server::ServerKind;
    use wheels_radio::band::Technology;
    use wheels_ran::cell::CellId;
    use wheels_ran::operator::Operator;

    fn tiny_db() -> ConsolidatedDb {
        ConsolidatedDb {
            records: vec![TestRecord {
                id: 7,
                op: Operator::TMobile,
                kind: TestKind::ThroughputDl,
                start_s: 0.0,
                duration_s: 30.0,
                server_kind: ServerKind::Cloud,
                server_name: "EC2 Ohio".into(),
                is_static: false,
                start_odometer_m: 0.0,
                end_odometer_m: 100.0,
                timezone: Timezone::Central,
                frac_hs5g: 0.5,
                kpi: vec![KpiSample {
                    time_s: 0.5,
                    tput_mbps: Some(42.5),
                    tech: Technology::Nr5gMid,
                    cell: CellId(9),
                    rsrp_dbm: -90.0,
                    sinr_db: 15.0,
                    mcs: 20,
                    bler: 0.08,
                    ca: 2,
                    handovers_in_window: 0,
                    speed_mps: 30.0,
                    odometer_m: 10.0,
                    region: RegionKind::Highway,
                    timezone: Timezone::Central,
                    in_handover: false,
                }],
                rtt_ms: vec![],
                handovers: vec![],
                app: None,
            }],
            passive: vec![],
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let db = tiny_db();
        let mut buf = Vec::new();
        write_tput_csv(&db, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("7,T,DL,0,"));
        assert!(lines[1].contains("5G-mid"));
    }

    /// `tiny_db` with `n` records, each a copy of its one record with
    /// its own id and sample time.
    fn with_records(n: usize) -> ConsolidatedDb {
        let mut db = tiny_db();
        let proto = db.records[0].clone();
        db.records = (0..n)
            .map(|k| {
                let mut r = proto.clone();
                r.id = 7 + k as u32;
                r.kpi[0].time_s = k as f64 * 0.25;
                r
            })
            .collect();
        db
    }

    /// A passive log of `n` samples with distinct, non-integral values.
    fn passive_log(n: usize) -> PassiveLogger {
        PassiveLogger::from_samples(
            (0..n)
                .map(|k| PassiveSample {
                    time_s: k as f64 * 1.5 + 0.25,
                    cell: CellId(k as u32),
                    tech: Technology::Nr5gMid,
                    odometer_m: k as f64 * 33.3,
                    speed_mps: 12.5,
                    lon: -97.1 + k as f32 * 0.01,
                })
                .collect(),
        )
    }

    /// Every stream of `db` — [`write_json`], [`to_json_parts`] and the
    /// plan cut at `budget` — must equal [`to_json`] at every job count.
    fn assert_streams_match(db: &ConsolidatedDb, budget: usize) {
        let whole = to_json(db).unwrap();
        let plan = Plan::new(db, budget);
        for jobs in [1, 2, 3, 7] {
            let mut out = Vec::new();
            write_json(db, jobs, &mut out).unwrap();
            assert_eq!(
                String::from_utf8(out).unwrap(),
                whole,
                "write_json jobs={jobs}"
            );
            assert_eq!(to_json_parts(db, jobs).concat(), whole, "parts jobs={jobs}");
            let mut small = String::new();
            let Ok(()) = ordered_stream(
                plan.len(),
                jobs,
                |i| plan.render(i),
                |frag| {
                    small.push_str(&frag);
                    Ok::<(), Infallible>(())
                },
            );
            assert_eq!(small, whole, "budget {budget} jobs={jobs}");
        }
    }

    /// A budget that closes a fragment after exactly `RECORDS_PER` of the
    /// one-sample test records.
    const RECORDS_PER: usize = 3;
    const BUDGET: usize = RECORDS_PER * (RECORD_BYTES + KPI_BYTES);
    const SAMPLES_PER: usize = BUDGET / SAMPLE_BYTES;

    #[test]
    fn parts_concat_matches_to_json_at_any_job_count() {
        // Several records so multi-chunk partitions are exercised
        // (including jobs > fragments, which clamps).
        let mut db = with_records(5);
        db.passive.push((Operator::Verizon, Default::default()));
        assert_streams_match(&db, BUDGET);
        assert_streams_match(&db, FRAGMENT_BYTES);
    }

    #[test]
    fn parts_handle_empty_records() {
        let mut db = tiny_db();
        db.records.clear();
        assert_streams_match(&db, BUDGET);
        db.passive
            .push((Operator::Att, passive_log(SAMPLES_PER + 1)));
        assert_streams_match(&db, BUDGET);
    }

    #[test]
    fn streams_match_without_passive_logs_or_samples() {
        // No passive loggers at all.
        assert_streams_match(&with_records(4), BUDGET);
        // A logger with zero samples between two with samples.
        let mut db = with_records(2);
        db.passive = vec![
            (Operator::Verizon, passive_log(2)),
            (Operator::TMobile, PassiveLogger::new()),
            (Operator::Att, passive_log(SAMPLES_PER)),
        ];
        assert_streams_match(&db, BUDGET);
        // Nothing at all.
        assert_streams_match(&ConsolidatedDb::default(), BUDGET);
    }

    #[test]
    fn streams_match_with_an_empty_kpi_vector() {
        let mut db = with_records(RECORDS_PER + 1);
        db.records[0].kpi.clear();
        db.records[RECORDS_PER].kpi.clear();
        db.passive.push((Operator::Verizon, passive_log(3)));
        assert_streams_match(&db, BUDGET);
    }

    #[test]
    fn streams_match_at_fragment_boundaries() {
        let plan_of = |records, samples| {
            let mut db = with_records(records);
            db.passive.push((Operator::TMobile, passive_log(samples)));
            db
        };
        // The test budget cuts where the constants say it does.
        let db = plan_of(RECORDS_PER, SAMPLES_PER);
        let plan = Plan::new(&db, BUDGET);
        assert_eq!(
            plan.fragments.get(1),
            Some(&Fragment::Records(0..RECORDS_PER))
        );
        assert_eq!(
            plan.fragments.get(3),
            Some(&Fragment::Samples {
                log: 0,
                range: 0..SAMPLES_PER
            })
        );
        assert_eq!(plan.len(), 5, "{:?}", plan.fragments);
        for fragments in [1, 2, 3] {
            for delta in [-1isize, 0, 1] {
                let records = (fragments * RECORDS_PER).saturating_add_signed(delta);
                let samples = (fragments * SAMPLES_PER).saturating_add_signed(delta);
                assert_streams_match(&plan_of(records, samples), BUDGET);
            }
        }
    }

    #[test]
    fn data_fragments_render_near_the_budget() {
        // Records shaped like a campaign's (60 KPI samples each) and a
        // long passive log: every full fragment lands within ±50 % of
        // FRAGMENT_BYTES, so the estimates stay honest.
        let mut db = with_records(120);
        for r in &mut db.records {
            let k = r.kpi[0];
            r.kpi = (0..60)
                .map(|t| KpiSample {
                    time_s: t as f64 * 0.5 + 0.25,
                    ..k
                })
                .collect();
        }
        db.passive.push((Operator::Verizon, passive_log(20_000)));
        let plan = Plan::new(&db, FRAGMENT_BYTES);
        let sizes: Vec<(bool, usize)> = (0..plan.len())
            .filter(|&i| !matches!(plan.fragments[i], Fragment::Text(_)))
            .map(|i| {
                (
                    matches!(plan.fragments[i], Fragment::Records(_)),
                    plan.render(i).len(),
                )
            })
            .collect();
        for kind in [true, false] {
            let run: Vec<usize> = sizes.iter().filter(|s| s.0 == kind).map(|s| s.1).collect();
            assert!(run.len() >= 2, "{sizes:?}");
            for &len in &run[..run.len() - 1] {
                assert!(
                    (FRAGMENT_BYTES / 2..FRAGMENT_BYTES * 3 / 2).contains(&len),
                    "{sizes:?}"
                );
            }
        }
    }

    #[test]
    fn csv_skips_samples_without_throughput() {
        let mut db = tiny_db();
        db.records[0].kpi[0].tput_mbps = None;
        let mut buf = Vec::new();
        write_tput_csv(&db, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 1);
    }
}
