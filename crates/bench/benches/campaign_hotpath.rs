//! Campaign hot-path microbenchmarks.
//!
//! These cover the exact per-sample work the campaign inner loop performs,
//! from the cheapest leaf (SINR→MCS→capacity) up to one full (operator,
//! day) work unit — the unit ci.sh times at quarter scale. Together with
//! the golden-digest test in `wheels-campaign` they form the contract for
//! hot-path changes: the benches here must get faster (or hold), while the
//! goldens prove the exported bytes did not move.
//!
//! Run with `cargo bench --bench campaign_hotpath`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use wheels_campaign::{Campaign, CampaignConfig, ScenarioSpec, WorkUnit};
use wheels_netsim::bbr::Bbr;
use wheels_netsim::cubic::Cubic;
use wheels_netsim::event::EventQueue;
use wheels_netsim::tcp::FluidTcp;
use wheels_radio::capacity::CapacityModel;
use wheels_radio::mcs::mcs_from_sinr;
use wheels_radio::shadowing::{RhoMemo, ShadowingField};
use wheels_ran::Operator;

/// SINR → MCS index → link capacity: runs once per snapshot per direction.
fn bench_sinr_to_capacity(c: &mut Criterion) {
    let model = CapacityModel::new(100.0, 4.0, 0.25);
    c.bench_function("hotpath/sinr_mcs_capacity", |b| {
        let mut sinr = -8.0;
        b.iter(|| {
            sinr += 0.37;
            if sinr > 32.0 {
                sinr = -8.0;
            }
            let mcs = mcs_from_sinr(sinr);
            black_box((mcs, model.capacity(sinr, 0.05, 0.7)))
        })
    });
}

/// Correlated shadowing: the single-sample advance and the batched span
/// fill the eval loop uses. The span variant amortizes the rho lookup and
/// is what `ShadowBank::advance_span` calls per audible cell.
fn bench_shadowing(c: &mut Criterion) {
    c.bench_function("hotpath/shadowing_advance_1m", |b| {
        let mut field = ShadowingField::new(4.0, 50.0, 7);
        let mut memo = RhoMemo::default();
        let mut d = 0.0;
        b.iter(|| {
            d += 1.0;
            black_box(field.at_memo(d, &mut memo))
        })
    });
    c.bench_function("hotpath/shadowing_fill_span_64", |b| {
        let mut field = ShadowingField::new(4.0, 50.0, 7);
        let mut buf = [0.0f64; 64];
        let mut d = 0.0;
        b.iter(|| {
            d += 64.0;
            field.fill_span(d, 1.0, &mut buf);
            black_box(buf[63])
        })
    });
}

/// CUBIC and BBR fluid steppers at the bulk-transfer tick rate (20 ms).
fn bench_cc_steppers(c: &mut Criterion) {
    c.bench_function("hotpath/cubic_tick_20ms", |b| {
        let mut flow = FluidTcp::new(Box::new(Cubic::new()));
        let mut t = 0.0;
        b.iter(|| {
            t += 0.02;
            black_box(flow.tick(t, 0.02, 180.0, 0.05))
        })
    });
    c.bench_function("hotpath/bbr_tick_20ms", |b| {
        let mut flow = FluidTcp::new(Box::new(Bbr::new()));
        let mut t = 0.0;
        b.iter(|| {
            t += 0.02;
            black_box(flow.tick(t, 0.02, 180.0, 0.05))
        })
    });
}

/// Event-loop push/pop with the allocation reused across "work units"
/// via [`EventQueue::clear`].
fn bench_event_loop(c: &mut Criterion) {
    c.bench_function("hotpath/event_push_pop", |b| {
        let mut q = EventQueue::with_capacity(64);
        let mut t = 0.0;
        b.iter(|| {
            t += 1.0;
            q.schedule(t + 10.0, 1u32);
            q.schedule(t + 5.0, 2u32);
            black_box(q.pop())
        })
    });
    c.bench_function("hotpath/event_unit_reuse_32", |b| {
        let mut q = EventQueue::with_capacity(32);
        b.iter(|| {
            q.clear();
            for i in 0..32u32 {
                q.schedule(f64::from(i % 7), i);
            }
            let mut acc = 0u32;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
}

/// One end-to-end (operator, day) drive unit at smoke scale — the whole
/// stack: drive plan interpolation, UE eval loop, shadowing, TCP flows,
/// apps, snapshot collection. This is the number the quarter-scale ci.sh
/// stage tracks, scaled down to bench-loop size.
fn bench_work_unit(c: &mut Criterion) {
    let mut cfg = CampaignConfig::full(42);
    cfg.scale = 0.02;
    cfg.passive_tick_s = 10.0;
    let campaign = Campaign::from_spec(&ScenarioSpec::paper(), cfg);
    let unit = WorkUnit::Drive {
        op: Operator::TMobile,
        day: 0,
    };
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(10);
    group.bench_function("drive_unit_smoke_tmobile_day0", |b| {
        b.iter(|| black_box(campaign.run_unit_payload(&unit)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sinr_to_capacity,
    bench_shadowing,
    bench_cc_steppers,
    bench_event_loop,
    bench_work_unit
);
criterion_main!(benches);
