//! Export-pipeline benchmarks.
//!
//! The dataset export is the dominant post-campaign phase (the paper
//! publishes its dataset, so this is a first-class artifact, not a debug
//! dump). These benches pin the three layers of the streaming
//! serializer: whole-database `to_json`, the sharded `to_json_parts`
//! fan-out, and the CSV writer. The ci.sh bench stage records the end-to-end number
//! (`export_s` in BENCH_campaign.json); these isolate where it goes.
//!
//! Run with `cargo bench --bench export`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use wheels_bench::ReproScale;
use wheels_campaign::{Campaign, ScenarioSpec};
use wheels_xcal::database::ConsolidatedDb;
use wheels_xcal::export;

/// One smoke-scale database, shared across every bench in the group
/// (campaign setup dwarfs any single measurement otherwise).
fn smoke_db() -> ConsolidatedDb {
    let campaign = Campaign::from_spec(&ScenarioSpec::paper(), ReproScale::Smoke.config(11));
    campaign.run(1, None).expect("tolerant run").db
}

fn benches(c: &mut Criterion) {
    let db = smoke_db();
    // These iterations serialize ~50 MB each; a small sample count keeps
    // the group's wall time sane without losing the ~10x signal.
    let mut g = c.benchmark_group("export");
    g.sample_size(10);

    // The streamed serializer: derive-generated `stream` emission straight
    // into one buffer. This is what `repro --export` runs.
    g.bench_function("to_json_streamed_smoke", |b| {
        b.iter(|| black_box(export::to_json(&db).expect("database serializes").len()))
    });

    // The sharded fragment fan-out (byte-identity is proven by tests;
    // this measures the slot/scope overhead and any parallel win).
    g.bench_function("to_json_parts_smoke_j1", |b| {
        b.iter(|| {
            let parts = export::to_json_parts(&db, 1);
            black_box(parts.iter().map(String::len).sum::<usize>())
        })
    });
    g.bench_function("to_json_parts_smoke_j4", |b| {
        b.iter(|| {
            let parts = export::to_json_parts(&db, 4);
            black_box(parts.iter().map(String::len).sum::<usize>())
        })
    });

    // The CSV throughput-sample export (buffered writer, reused row buffer).
    g.bench_function("write_tput_csv_smoke", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(1 << 20);
            export::write_tput_csv(&db, &mut buf).expect("csv write");
            black_box(buf.len())
        })
    });
    g.finish();
}

criterion_group!(export_benches, benches);
criterion_main!(export_benches);
