//! Scaling of the parallel campaign executor.
//!
//! Times the identical campaign at 1/2/4/8 workers. The dataset is
//! byte-identical at every worker count (proven by
//! `tests/parallel_equivalence.rs`), so the only thing that may change
//! here is wall-clock time. Speedup is bounded by the machine's core
//! count — on a single-core runner all worker counts time alike, which
//! is itself a useful sanity check that the scheduler adds no overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wheels_bench::ReproScale;
use wheels_campaign::{Campaign, ScenarioSpec};

fn bench_worker_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel");
    g.sample_size(10);
    for jobs in [1usize, 2, 4, 8] {
        g.bench_function(format!("run_smoke_jobs_{jobs}").as_str(), |b| {
            b.iter(|| {
                let campaign =
                    Campaign::from_spec(&ScenarioSpec::paper(), ReproScale::Smoke.config(7));
                black_box(campaign.run(jobs, None).expect("tolerant run"))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_worker_scaling);
criterion_main!(benches);
