//! Property tests for the tree-free JSON decoder.
//!
//! `serde_json::from_str` reads JSON text straight into the target type
//! (see `serde::de`). The one type production decodes is the scenario
//! spec (`repro --scenario FILE.json`); every other workspace type only
//! serializes. These properties pin the decoding rules on scenario specs
//! and on test-local mirrors of the types the workspace writes as JSON —
//! KPI samples, test records, checkpoint payloads and integrity reports:
//!
//! 1. every generated value survives serialize → decode → serialize,
//!    compact and pretty, and `from_value` agrees with `from_str`;
//! 2. object keys may come in any order;
//! 3. unknown keys are ignored, but their values must still be valid JSON;
//! 4. a missing `Option` field decodes as `None`, a missing required field
//!    is an error;
//! 5. a repeated key keeps its first value;
//! 6. nesting deeper than 128 levels is rejected, inside skipped values too;
//! 7. tuple structs and tuple variants accept trailing extra elements,
//!    tuples do not;
//! 8. an integrity report as written (no `resume` key when it is `None`)
//!    decodes, and so does an explicit `"resume":null`;
//! 9. parsing into a `Value` and writing it back is byte-stable;
//! 10. a raw identifier (`r#type`) is the key or tag `type`, both ways.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Num, Serialize, Value};

use wheels_campaign::checkpoint::UnitCheckpoint;
use wheels_campaign::{
    Campaign, CampaignConfig, IntegrityReport, ResumeReport, ScenarioSpec, Shard, UnitReport,
    UnitStatus, WorkUnit,
};
use wheels_geo::region::RegionKind;
use wheels_geo::timezone::Timezone;
use wheels_netsim::server::ServerKind;
use wheels_radio::band::Technology;
use wheels_ran::cell::CellId;
use wheels_ran::handover::{HandoverEvent, HandoverKind};
use wheels_ran::operator::Operator;
use wheels_xcal::database::{AppMetrics, TestKind, TestRecord};
use wheels_xcal::kpi::KpiSample;

/// Strings that force every escape class, plus multi-byte UTF-8.
const STRINGS: &[&str] = &[
    "",
    "plain",
    "quote\"inside",
    "back\\slash",
    "line\nbreak\ttab",
    "control\u{1}\u{1f}",
    "unicode héllo → 😀 𝄞",
    "/slash",
];

fn pick<T: Copy>(rng: &mut SmallRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

fn text(rng: &mut SmallRng) -> String {
    pick(rng, STRINGS).to_string()
}

fn maybe<T>(rng: &mut SmallRng, f: impl FnOnce(&mut SmallRng) -> T) -> Option<T> {
    rng.gen_bool(0.7).then(|| f(rng))
}

/// A float with an awkward decimal form: integral, tiny, huge or plain.
fn float(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..4) {
        0 => rng.gen_range(-1.0e6..1.0e6),
        1 => rng.gen_range(-100i64..100) as f64,
        2 => rng.gen_range(-1.0e18..1.0e18),
        _ => rng.gen_range(-1.0e-6..1.0e-6),
    }
}

fn float32(rng: &mut SmallRng) -> f32 {
    float(rng) as f32
}

fn kpi(rng: &mut SmallRng) -> KpiSample {
    KpiSample {
        time_s: float(rng),
        tput_mbps: maybe(rng, float32),
        tech: pick(rng, &Technology::ALL),
        cell: CellId(rng.gen()),
        rsrp_dbm: float32(rng),
        sinr_db: float32(rng),
        mcs: rng.gen(),
        bler: float32(rng),
        ca: rng.gen(),
        handovers_in_window: rng.gen(),
        speed_mps: float32(rng),
        odometer_m: float(rng),
        region: pick(rng, &RegionKind::ALL),
        timezone: pick(rng, &Timezone::ALL),
        in_handover: rng.gen(),
    }
}

fn handover(rng: &mut SmallRng) -> HandoverEvent {
    HandoverEvent {
        time_s: float(rng),
        from: (CellId(rng.gen()), pick(rng, &Technology::ALL)),
        to: (CellId(rng.gen()), pick(rng, &Technology::ALL)),
        duration_ms: float(rng),
        kind: pick(rng, &HandoverKind::ALL),
    }
}

fn app(rng: &mut SmallRng) -> AppMetrics {
    AppMetrics {
        compressed: maybe(rng, |r| r.gen()),
        e2e_ms_mean: maybe(rng, float32),
        qoe: maybe(rng, float32),
        frame_drop_frac: maybe(rng, float32),
        ..AppMetrics::default()
    }
}

fn record(rng: &mut SmallRng) -> TestRecord {
    let n_kpi = rng.gen_range(0..4);
    let n_rtt = rng.gen_range(0..4);
    let n_ho = rng.gen_range(0..3);
    TestRecord {
        id: rng.gen(),
        op: pick(rng, &Operator::ALL),
        kind: pick(rng, &TestKind::ALL),
        start_s: float(rng),
        duration_s: float(rng),
        server_kind: pick(rng, &[ServerKind::Cloud, ServerKind::Edge]),
        server_name: text(rng),
        is_static: rng.gen(),
        start_odometer_m: float(rng),
        end_odometer_m: float(rng),
        timezone: pick(rng, &Timezone::ALL),
        frac_hs5g: float32(rng),
        kpi: (0..n_kpi).map(|_| kpi(rng)).collect(),
        rtt_ms: (0..n_rtt).map(|_| float32(rng)).collect(),
        handovers: (0..n_ho).map(|_| handover(rng)).collect(),
        app: maybe(rng, app),
    }
}

fn unit_report(rng: &mut SmallRng) -> UnitReport {
    let mut r = UnitReport::new(text(rng));
    r.status = pick(
        rng,
        &[UnitStatus::Ok, UnitStatus::Degraded, UnitStatus::Lost],
    );
    r.attempts = rng.gen();
    r.faults = (0..rng.gen_range(0..3)).map(|_| text(rng)).collect();
    r.records_kept = rng.gen_range(0..10_000);
    r.kpi_samples_lost = rng.gen_range(0..10_000);
    r.truncated_kpi_frac = float(rng);
    r.backoff_s = float(rng);
    r.error = maybe(rng, text);
    r
}

/// Real shards of a small fleet-enabled campaign: a drive unit (records
/// and a fleet sketch) and a passive unit (a passive log). Generated
/// checkpoints take their passive logs and sketches from here.
fn shards() -> &'static (Shard, Shard) {
    static SHARDS: OnceLock<(Shard, Shard)> = OnceLock::new();
    SHARDS.get_or_init(|| {
        let mut cfg = CampaignConfig::quick(7);
        cfg.scale = 0.02;
        cfg.passive_tick_s = 60.0;
        cfg.population = Some(1_000);
        let campaign = Campaign::from_spec(&ScenarioSpec::paper(), cfg);
        let drive = campaign.run_unit_payload(&WorkUnit::Drive {
            op: Operator::TMobile,
            day: 0,
        });
        let passive = campaign.run_unit_payload(&WorkUnit::Passive { op: Operator::Att });
        assert!(
            drive.fleet.is_some(),
            "the drive unit sketches its fleet load"
        );
        assert!(passive.passive.is_some(), "the passive unit logs");
        (drive, passive)
    })
}

fn checkpoint(rng: &mut SmallRng) -> UnitCheckpoint {
    let (drive, passive) = shards();
    let mut records: Vec<TestRecord> = (0..rng.gen_range(0..3)).map(|_| record(rng)).collect();
    if rng.gen_bool(0.3) {
        let real = &drive.records;
        records.extend(real.iter().take(rng.gen_range(0..3)).cloned());
    }
    UnitCheckpoint {
        has_shard: rng.gen(),
        report: unit_report(rng),
        records,
        passive: if rng.gen_bool(0.3) {
            passive.passive.clone()
        } else {
            None
        },
        fleet: if rng.gen_bool(0.3) {
            drive.fleet.clone()
        } else {
            None
        },
    }
}

fn spec(rng: &mut SmallRng) -> ScenarioSpec {
    let registry = ScenarioSpec::registry();
    let mut s = registry[rng.gen_range(0..registry.len())].clone();
    s.name = text(rng);
    s.description = text(rng);
    s.trip.ou_theta = float(rng);
    s.trip.stop_s = (float(rng), float(rng));
    s.route.target_total_m = maybe(rng, float);
    if let Some(city) = s.route.cities.first_mut() {
        city.name = text(rng);
        city.lat = float(rng);
    }
    if let Some(subs) = s.subscribers.as_mut() {
        subs.diurnal = maybe(rng, |r| (0..24).map(|_| float(r)).collect());
        subs.attach_sigma = maybe(rng, float);
    }
    s
}

fn report(rng: &mut SmallRng) -> IntegrityReport {
    IntegrityReport {
        profile: text(rng),
        seed: rng.gen(),
        max_retries: rng.gen(),
        units: (0..rng.gen_range(0..4)).map(|_| unit_report(rng)).collect(),
        resume: maybe(rng, |r| ResumeReport {
            restored_units: r.gen_range(0..100),
            recomputed_units: r.gen_range(0..100),
            corrupt_records: r.gen_range(0..100),
            foreign_records: r.gen_range(0..100),
            notes: (0..r.gen_range(0..3)).map(|_| text(r)).collect(),
        }),
    }
}

/// A strategy drawing from a plain generator function.
struct Gen<T>(fn(&mut SmallRng) -> T);

impl<T> Strategy for Gen<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        (self.0)(rng)
    }
}

/// A generated value together with its JSON tree after `edit` changed
/// the tree; `edit` gets the generator to draw its choices from.
struct Edited<T> {
    value: fn(&mut SmallRng) -> T,
    edit: fn(&mut Value, &mut SmallRng),
}

impl<T: Serialize> Strategy for Edited<T> {
    type Value = (T, Value);
    fn generate(&self, rng: &mut SmallRng) -> (T, Value) {
        let v = (self.value)(rng);
        let mut tree = v.to_value();
        (self.edit)(&mut tree, rng);
        (v, tree)
    }
}

fn compact<T: Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

/// Decode `json` as `T` and write it back compactly.
fn redecode<T: Serialize + Deserialize>(json: &str) -> Result<String, serde::Error> {
    serde_json::from_str::<T>(json).map(|v| compact(&v))
}

/// `v`, serialized compact or pretty or as a tree, decodes as `M`, and
/// `M` writes `want` back.
fn assert_decodes_as<M: Serialize + Deserialize>(v: &impl Serialize, want: &str) {
    assert_eq!(redecode::<M>(&compact(v)).expect("compact decodes"), want);
    let p = serde_json::to_string_pretty(v).expect("serializes");
    assert_eq!(redecode::<M>(&p).expect("pretty decodes"), want);
    let via_tree = M::from_value(&v.to_value()).expect("tree decodes");
    assert_eq!(compact(&via_tree), want);
}

/// Serialize → decode as `M` → serialize is byte-stable in both layouts,
/// and decoding the value's tree with `from_value` gives the same value.
fn assert_roundtrip_as<M: Serialize + Deserialize>(v: &impl Serialize) {
    assert_decodes_as::<M>(v, &compact(v));
}

/// What the [`Integrity`] mirror writes for `r`: a derived encoder has
/// no way to omit a `None` field, so it writes `"resume":null`.
fn mirrored(r: &IntegrityReport) -> String {
    let c = compact(r);
    match r.resume {
        Some(_) => c,
        None => format!("{},\"resume\":null}}", c.trim_end_matches('}')),
    }
}

/// An edit of one object's key/value pairs.
type PairsEdit = dyn Fn(&mut Vec<(String, Value)>, &mut SmallRng);

/// Apply `f` to every object of the tree with at least two keys. Those
/// are structs; one-key objects may be enum tags, which must keep
/// exactly their one key.
fn each_struct(v: &mut Value, rng: &mut SmallRng, f: &PairsEdit) {
    match v {
        Value::Array(items) => items.iter_mut().for_each(|i| each_struct(i, rng, f)),
        Value::Object(pairs) => {
            pairs.iter_mut().for_each(|(_, i)| each_struct(i, rng, f));
            if pairs.len() >= 2 {
                f(pairs, rng);
            }
        }
        _ => {}
    }
}

fn shuffle_keys(v: &mut Value, rng: &mut SmallRng) {
    each_struct(v, rng, &|pairs, rng| {
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_range(0..=i));
        }
    });
}

/// A valid JSON value of any shape, unrelated to the fields around it.
fn junk(rng: &mut SmallRng) -> Value {
    let num = |t: &str| Value::Num(Num::Raw(t.to_string()));
    match rng.gen_range(0..5) {
        0 => Value::Null,
        1 => num(pick(rng, &["0", "-1.5e300", "12345678901234567890123"])),
        2 => Value::Str(text(rng)),
        3 => Value::Array(vec![
            num("1"),
            Value::Object(vec![("k".into(), Value::Bool(true))]),
        ]),
        _ => Value::Object(vec![(
            "__nested".into(),
            Value::Array(vec![Value::Str(text(rng))]),
        )]),
    }
}

fn add_unknown_keys(v: &mut Value, rng: &mut SmallRng) {
    each_struct(v, rng, &|pairs, rng| {
        let at = rng.gen_range(0..=pairs.len());
        pairs.insert(at, (format!("__unknown{}", text(rng)), junk(rng)));
    });
}

/// Repeat a random key of every struct after its first occurrence, with
/// a value of the wrong shape: first-wins must never decode it.
fn add_duplicate_keys(v: &mut Value, rng: &mut SmallRng) {
    each_struct(v, rng, &|pairs, rng| {
        let i = rng.gen_range(0..pairs.len());
        let key = pairs[i].0.clone();
        let at = rng.gen_range(i + 1..=pairs.len());
        pairs.insert(at, (key, junk(rng)));
    });
}

fn no_edit(_: &mut Value, _: &mut SmallRng) {}

fn keys(v: &Value) -> Vec<String> {
    match v {
        Value::Object(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn without(v: &Value, key: &str) -> Value {
    match v {
        Value::Object(pairs) => {
            Value::Object(pairs.iter().filter(|(k, _)| k != key).cloned().collect())
        }
        other => panic!("expected an object, got {other:?}"),
    }
}

fn with_first(v: &Value, key: &str, first: Value) -> Value {
    match v {
        Value::Object(pairs) => {
            let mut out = vec![(key.to_string(), first)];
            out.extend(pairs.iter().cloned());
            Value::Object(out)
        }
        other => panic!("expected an object, got {other:?}"),
    }
}

/// `n` nested arrays around a `0`: the `0` sits `n` levels below the
/// value's own level.
fn nested(n: usize) -> String {
    format!("{}0{}", "[".repeat(n), "]".repeat(n))
}

/// Test-local mirrors of the types the workspace writes as JSON: the
/// same field names and number types, each enum as its variant name.
/// The passive log and the fleet sketch of a checkpoint stay JSON trees.
#[derive(Debug, Serialize, Deserialize)]
struct Kpi {
    time_s: f64,
    tput_mbps: Option<f32>,
    tech: String,
    cell: u32,
    rsrp_dbm: f32,
    sinr_db: f32,
    mcs: u8,
    bler: f32,
    ca: u8,
    handovers_in_window: u8,
    speed_mps: f32,
    odometer_m: f64,
    region: String,
    timezone: String,
    in_handover: bool,
}

#[derive(Debug, Serialize, Deserialize)]
struct Handover {
    time_s: f64,
    from: (u32, String),
    to: (u32, String),
    duration_ms: f64,
    kind: String,
}

#[derive(Debug, Serialize, Deserialize)]
struct App {
    compressed: Option<bool>,
    e2e_ms_mean: Option<f32>,
    e2e_ms_median: Option<f32>,
    offload_fps: Option<f32>,
    map_accuracy: Option<f32>,
    qoe: Option<f32>,
    avg_bitrate_mbps: Option<f32>,
    rebuffer_frac: Option<f32>,
    send_bitrate_mbps: Option<f32>,
    net_latency_ms: Option<f32>,
    frame_drop_frac: Option<f32>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Record {
    id: u32,
    op: String,
    kind: String,
    start_s: f64,
    duration_s: f64,
    server_kind: String,
    server_name: String,
    is_static: bool,
    start_odometer_m: f64,
    end_odometer_m: f64,
    timezone: String,
    frac_hs5g: f32,
    kpi: Vec<Kpi>,
    rtt_ms: Vec<f32>,
    handovers: Vec<Handover>,
    app: Option<App>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Unit {
    unit: String,
    status: String,
    attempts: u32,
    faults: Vec<String>,
    records_kept: usize,
    records_lost: usize,
    kpi_samples_lost: usize,
    truncated_kpi_frac: f64,
    passive_samples_lost: usize,
    backoff_s: f64,
    error: Option<String>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Resume {
    restored_units: usize,
    recomputed_units: usize,
    corrupt_records: usize,
    foreign_records: usize,
    notes: Vec<String>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Integrity {
    profile: String,
    seed: u64,
    max_retries: u32,
    units: Vec<Unit>,
    resume: Option<Resume>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Checkpoint {
    has_shard: bool,
    report: Unit,
    records: Vec<Record>,
    passive: Option<(String, Value)>,
    fleet: Option<Value>,
}

/// A tuple struct and an enum with every variant shape.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Triple(u32, f64, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Point,
    Pair(u8, u8),
    Wrapped(Triple),
    Named { a: u8, b: Option<String> },
}

/// Raw identifiers as keys and tags: their JSON names drop the `r#`.
#[allow(non_camel_case_types)]
#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum RawTag {
    r#enum,
    r#struct { r#type: u8 },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct RawKeys {
    r#type: u8,
    r#match: Vec<RawTag>,
}

/// Raw number tokens whose text a float would not print back the same.
const TOKENS: &[&str] = &[
    "0",
    "-0",
    "1.50",
    "1e5",
    "1E+05",
    "-2.5e-3",
    "00",
    "12345678901234567890123",
];

fn raw_tree(rng: &mut SmallRng, depth: u32) -> Value {
    match rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::Num(Num::Raw(pick(rng, TOKENS).to_string())),
        3 => Value::Str(text(rng)),
        4 => Value::Array(
            (0..rng.gen_range(0..4))
                .map(|_| raw_tree(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_range(0..4))
                .map(|i| (format!("{}{i}", text(rng)), raw_tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kpi_samples_roundtrip(v in Gen(kpi)) {
        assert_roundtrip_as::<Kpi>(&v);
    }

    #[test]
    fn test_records_roundtrip(v in Gen(record)) {
        assert_roundtrip_as::<Record>(&v);
    }

    #[test]
    fn unit_checkpoints_roundtrip(v in Gen(checkpoint)) {
        assert_roundtrip_as::<Checkpoint>(&v);
    }

    #[test]
    fn scenario_specs_roundtrip(v in Gen(spec)) {
        assert_roundtrip_as::<ScenarioSpec>(&v);
        let back: ScenarioSpec = serde_json::from_str(&compact(&v)).expect("decodes");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn integrity_reports_roundtrip(v in Gen(report)) {
        assert_decodes_as::<Integrity>(&v, &mirrored(&v));
    }

    #[test]
    fn shuffled_key_order_decodes_the_same(
        (v, tree) in Edited { value: spec, edit: shuffle_keys },
    ) {
        let back: ScenarioSpec = serde_json::from_str(&compact(&tree)).expect("decodes");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn unknown_keys_are_ignored(
        (v, tree) in Edited { value: spec, edit: add_unknown_keys },
    ) {
        let back: ScenarioSpec = serde_json::from_str(&compact(&tree)).expect("decodes");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn unknown_values_are_still_syntax_checked((v, tree) in Edited { value: kpi, edit: no_edit }) {
        let body = compact(&tree);
        let rest = body.strip_prefix('{').expect("an object");
        for bad in ["[1,]", "tru", "\"open", "{\"k\" 1}", "1.2.3", "-", "1e+", "\"\\ud800\""] {
            let json = format!("{{\"__unknown\":{bad},{rest}");
            prop_assert!(serde_json::from_str::<Kpi>(&json).is_err(), "{json}");
        }
        let json = format!("{{\"__unknown\":[1,{{\"k\":null}}],{rest}");
        prop_assert_eq!(redecode::<Kpi>(&json).expect("decodes"), compact(&v));
    }

    #[test]
    fn missing_option_field_is_none_missing_required_is_an_error(
        (v, tree) in Edited { value: kpi, edit: no_edit },
    ) {
        let back: Kpi = serde_json::from_str(&compact(&without(&tree, "tput_mbps")))
            .expect("an absent Option field decodes");
        prop_assert_eq!(back.tput_mbps, None);
        prop_assert_eq!(back.time_s.to_bits(), v.time_s.to_bits());
        for key in keys(&tree).iter().filter(|k| *k != "tput_mbps") {
            let json = compact(&without(&tree, key));
            prop_assert!(serde_json::from_str::<Kpi>(&json).is_err(), "without {key}");
        }
    }

    #[test]
    fn duplicate_keys_keep_the_first_value(
        (v, tree) in Edited { value: spec, edit: add_duplicate_keys },
    ) {
        let back: ScenarioSpec = serde_json::from_str(&compact(&tree)).expect("decodes");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn a_duplicate_before_the_original_wins(
        (v, tree) in Edited { value: kpi, edit: no_edit },
        mcs in any::<u8>(),
    ) {
        let json = compact(&with_first(&tree, "mcs", mcs.to_value()));
        let back: Kpi = serde_json::from_str(&json).expect("decodes");
        prop_assert_eq!(back.mcs, mcs);
        prop_assert_eq!(back.odometer_m.to_bits(), v.odometer_m.to_bits());
    }

    #[test]
    fn nesting_deeper_than_128_is_rejected(n in 100usize..160) {
        // As a document: the `0` sits at level n.
        prop_assert_eq!(serde_json::from_str::<Value>(&nested(n)).is_ok(), n <= 128);
        let empty = format!("{}{}", "[".repeat(n), "]".repeat(n));
        prop_assert_eq!(serde_json::from_str::<Value>(&empty).is_ok(), n <= 129);
        // Skipped under an unknown key of a top-level struct: level n + 1.
        let tail = compact(&kpi_at_zero()).split_off(1);
        let json = format!("{{\"__unknown\":{},{tail}", nested(n));
        prop_assert_eq!(serde_json::from_str::<Kpi>(&json).is_ok(), n < 128);
        // Under a KPI sample inside a test record's `kpi` array: level n + 3.
        let rec = compact(&record_with_one_kpi());
        let json = rec.replacen("\"kpi\":[{", &format!("\"kpi\":[{{\"__unknown\":{},", nested(n)), 1);
        prop_assert_eq!(serde_json::from_str::<Record>(&json).is_ok(), n < 126);
    }

    #[test]
    fn tuple_structs_take_trailing_elements_tuples_do_not(
        a in any::<u32>(),
        b in -1.0e9f64..1.0e9,
        extra in prop::collection::vec(Gen(junk), 1..4),
    ) {
        let extra: String = extra.iter().map(|v| format!(",{}", compact(v))).collect();
        let triple = Triple(a, b, "t".into());
        let base = compact(&triple);
        let longer = format!("{}{extra}]", base.trim_end_matches(']'));
        prop_assert_eq!(serde_json::from_str::<Triple>(&longer).expect("decodes"), triple);
        let pair = format!("{{\"Pair\":[{},{}{extra}]}}", a % 256, b.abs() as u8);
        prop_assert_eq!(
            serde_json::from_str::<Shape>(&pair).expect("decodes"),
            Shape::Pair((a % 256) as u8, b.abs() as u8)
        );
        let tuple = format!("[{a},{}{extra}]", compact(&b));
        prop_assert!(serde_json::from_str::<(u32, f64)>(&tuple).is_err());
        prop_assert!(serde_json::from_str::<(u32, f64)>(&format!("[{a}]")).is_err());
        prop_assert!(serde_json::from_str::<Triple>(&format!("[{a},{}]", compact(&b))).is_err());
        prop_assert_eq!(
            serde_json::from_str::<(u32, f64)>(&format!("[{a},{}]", compact(&b))).expect("decodes"),
            (a, b)
        );
    }

    #[test]
    fn pre_checkpoint_integrity_reports_still_load(v in Gen(report)) {
        let legacy = IntegrityReport { resume: None, ..v };
        let json = serde_json::to_string_pretty(&legacy).expect("serializes");
        prop_assert!(!json.contains("\"resume\""), "{json}");
        let back: Integrity = serde_json::from_str(&json).expect("decodes");
        prop_assert!(back.resume.is_none());
        let null = mirrored(&legacy);
        prop_assert_eq!(compact(&back), null.clone());
        prop_assert_eq!(redecode::<Integrity>(&null).expect("decodes"), null);
    }

    #[test]
    fn value_parse_serialize_is_byte_stable(v in Gen(|rng| raw_tree(rng, 4))) {
        let c = compact(&v);
        let p = serde_json::to_string_pretty(&v).expect("serializes");
        let from_pretty: Value = serde_json::from_str(&p).expect("pretty parses");
        prop_assert_eq!(compact(&from_pretty), c.clone());
        let from_compact: Value = serde_json::from_str(&c).expect("compact parses");
        prop_assert_eq!(serde_json::to_string_pretty(&from_compact).expect("serializes"), p);
        prop_assert_eq!(from_compact, v);
    }
}

fn kpi_at_zero() -> KpiSample {
    KpiSample {
        time_s: 0.0,
        tput_mbps: None,
        tech: Technology::Lte,
        cell: CellId(0),
        rsrp_dbm: 0.0,
        sinr_db: 0.0,
        mcs: 0,
        bler: 0.0,
        ca: 0,
        handovers_in_window: 0,
        speed_mps: 0.0,
        odometer_m: 0.0,
        region: RegionKind::Highway,
        timezone: Timezone::Pacific,
        in_handover: false,
    }
}

fn record_with_one_kpi() -> TestRecord {
    TestRecord {
        id: 1,
        op: Operator::Verizon,
        kind: TestKind::ThroughputDl,
        start_s: 0.0,
        duration_s: 30.0,
        server_kind: ServerKind::Cloud,
        server_name: "s".into(),
        is_static: false,
        start_odometer_m: 0.0,
        end_odometer_m: 1.0,
        timezone: Timezone::Pacific,
        frac_hs5g: 0.0,
        kpi: vec![kpi_at_zero()],
        rtt_ms: vec![],
        handovers: vec![],
        app: None,
    }
}

#[test]
fn raw_identifiers_roundtrip_without_their_prefix() {
    let v = RawKeys {
        r#type: 3,
        r#match: vec![RawTag::r#enum, RawTag::r#struct { r#type: 4 }],
    };
    let text = compact(&v);
    assert_eq!(
        text,
        "{\"type\":3,\"match\":[\"enum\",{\"struct\":{\"type\":4}}]}"
    );
    assert_eq!(serde_json::from_str::<RawKeys>(&text).expect("decodes"), v);
    let shuffled = "{\"match\":[],\"type\":7}";
    assert_eq!(
        serde_json::from_str::<RawKeys>(shuffled)
            .expect("decodes")
            .r#type,
        7
    );
    assert!(serde_json::from_str::<RawKeys>("{\"r#type\":3,\"match\":[]}").is_err());
}

#[test]
fn enum_variants_of_every_shape_roundtrip() {
    for v in [
        Shape::Point,
        Shape::Pair(1, 2),
        Shape::Wrapped(Triple(3, -0.5, "w\n".into())),
        Shape::Named { a: 4, b: None },
        Shape::Named {
            a: 5,
            b: Some("é".into()),
        },
    ] {
        assert_eq!(
            serde_json::from_str::<Shape>(&compact(&v)).expect("decodes"),
            v
        );
    }
    // A unit variant in the object form ignores its payload.
    assert_eq!(
        serde_json::from_str::<Shape>("{\"Point\":[1]}").expect("decodes"),
        Shape::Point
    );
    for bad in [
        "\"Bogus\"",
        "\"Pair\"",
        "{}",
        "{\"Pair\":[1,2],\"Point\":null}",
        "{\"Named\":{\"b\":\"x\"}}",
        "[\"Point\"]",
    ] {
        assert!(
            serde_json::from_str::<Shape>(bad).is_err(),
            "{bad} should not decode"
        );
    }
}
