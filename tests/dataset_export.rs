//! Dataset export checks: the paper publishes its dataset; ours must
//! parse back as JSON with every record intact and produce coherent CSV.

use serde::{Serialize, Value};
use wheels::campaign::{Campaign, CampaignConfig, ScenarioSpec};
use wheels::xcal::database::ConsolidatedDb;
use wheels::xcal::export;

fn mini() -> ConsolidatedDb {
    let mut cfg = CampaignConfig::quick(55);
    cfg.scale = 0.008;
    cfg.passive_tick_s = 60.0;
    let mut spec = ScenarioSpec::paper();
    spec.schedule.run_static = false;
    Campaign::from_spec(&spec, cfg).run(1, None).expect("tolerant run").db
}

/// The value under `key` of a JSON object.
fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(pairs) => pairs
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
            .unwrap_or_else(|| panic!("no key {key}")),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// The elements of a JSON array.
fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn json<T: Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap()
}

#[test]
fn json_roundtrip_preserves_everything() {
    let db = mini();
    let tree: Value = serde_json::from_str(&export::to_json(&db).unwrap()).unwrap();
    let records = items(get(&tree, "records"));
    assert_eq!(db.records.len(), records.len());
    for (a, b) in db.records.iter().zip(records) {
        assert_eq!(json(&a.id), json(get(b, "id")));
        assert_eq!(json(&a.kind), json(get(b, "kind")));
        assert_eq!(a.kpi.len(), items(get(b, "kpi")).len());
        assert_eq!(json(&a.rtt_ms), json(get(b, "rtt_ms")));
        assert_eq!(a.handovers.len(), items(get(b, "handovers")).len());
        let compressed = match get(b, "app") {
            Value::Null => None,
            app => Some(json(get(app, "compressed"))),
        };
        assert_eq!(a.app.map(|m| json(&m.compressed)), compressed);
    }
    assert_eq!(db.passive.len(), items(get(&tree, "passive")).len());
}

#[test]
fn csv_rows_match_throughput_sample_count() {
    let db = mini();
    let expected: usize = db
        .records
        .iter()
        .flat_map(|r| r.kpi.iter())
        .filter(|k| k.tput_mbps.is_some())
        .count();
    let mut buf = Vec::new();
    export::write_tput_csv(&db, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert_eq!(text.lines().count(), expected + 1, "header + one row per sample");
    // Every row has the full column count.
    let cols = export::CSV_HEADER.split(',').count();
    for line in text.lines().skip(1) {
        assert_eq!(line.split(',').count(), cols, "{line}");
    }
}

#[test]
fn app_metrics_present_in_export() {
    let db = mini();
    let json = export::to_json(&db).unwrap();
    assert!(json.contains("qoe"), "video metrics exported");
    assert!(json.contains("map_accuracy"), "AR metrics exported");
}
