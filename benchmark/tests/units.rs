//! Unit tests of the benchmark's statistics, calibration, span
//! accounting, `/proc` parsers, digests and call tokens.

use wheels_bench::ReproScale;
use wheels_benchmark::calibrate::{kernel, normalized, REFERENCE_S};
use wheels_benchmark::clock::Clock;
use wheels_benchmark::procfs::{parse_children_ticks, parse_vm_hwm_kb};
use wheels_benchmark::run::{fnv1a, FNV_BASIS};
use wheels_benchmark::stats::Summary;
use wheels_benchmark::trace::{self_by_name, self_times, Span, Tracer};
use wheels_benchmark::workload::{calls, worlds, Call, Step, WORKLOADS};

fn summary(samples: &[f64]) -> (f64, f64, f64, usize) {
    let s = Summary::of(samples).expect("samples");
    (s.median, s.q1, s.q3, s.n)
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values: Python's statistics.median and
    // statistics.quantiles(data, n=4).
    assert_eq!(summary(&[7.0]), (7.0, 7.0, 7.0, 1));
    assert_eq!(summary(&[1.0, 2.0]), (1.5, 0.75, 2.25, 2));
    assert_eq!(summary(&[3.0, 1.0, 2.0]), (2.0, 1.0, 3.0, 3));
    assert_eq!(summary(&[4.0, 1.0, 3.0, 2.0]), (2.5, 1.25, 3.75, 4));
    assert_eq!(summary(&[1.0, 2.0, 3.0, 4.0, 5.0]), (3.0, 1.5, 4.5, 5));
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(summary(&ten), (5.5, 2.75, 8.25, 10));
    assert_eq!(
        summary(&[2.5, 0.5, 9.0, 4.0, 1.5, 7.0]),
        (3.25, 1.25, 7.5, 6)
    );
    assert_eq!(Summary::of(&[]), None);
}

#[test]
fn normalized_times_scale_to_the_reference_kernel_time() {
    assert_eq!(normalized(2.0, REFERENCE_S), 2.0);
    assert_eq!(normalized(2.0, 2.0 * REFERENCE_S), 1.0);
    assert_eq!(normalized(2.0, 0.5 * REFERENCE_S), 4.0);
    for threads in [1, 2] {
        assert!(kernel(threads) > 0.0);
    }
}

fn span(id: usize, parent: Option<usize>, name: &str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: name.to_string(),
        workload: "w".to_string(),
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    // call [0, 100) > unit [10, 40) > commit [20, 30); merge [50, 60).
    let spans = vec![
        span(0, None, "call", 0, 100),
        span(1, Some(0), "unit", 10, 40),
        span(2, Some(1), "commit", 20, 30),
        span(3, Some(0), "merge", 50, 60),
    ];
    assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    let by_name = self_by_name(&spans);
    assert_eq!(by_name.get("unit"), Some(&(20, 1)));
    assert_eq!(by_name.get("call"), Some(&(60, 1)));
}

#[test]
fn overlapping_children_count_once_and_are_clipped() {
    // Children overlap each other ([10, 50) and [30, 70)) and one runs past
    // the parent's end ([90, 130) is clipped to [90, 100)).
    let spans = vec![
        span(0, None, "call", 0, 100),
        span(1, Some(0), "a", 10, 50),
        span(2, Some(0), "b", 30, 70),
        span(3, Some(0), "c", 90, 130),
    ];
    assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    // A child fully inside another child adds nothing.
    let nested = vec![
        span(0, None, "call", 0, 100),
        span(1, Some(0), "a", 10, 90),
        span(2, Some(0), "b", 20, 30),
    ];
    assert_eq!(self_times(&nested)[0], 20);
}

#[test]
fn tracer_nests_spans_under_the_open_one() {
    let mut tr = Tracer::new(Clock::start(), "w");
    let out = tr.span("call", |tr| {
        tr.span("a", |tr| tr.span("b", |_| 1)) + tr.span("c", |_| 2)
    });
    assert_eq!(out, 3);
    let spans = tr.into_spans();
    let shape: Vec<(usize, Option<usize>, &str)> = spans
        .iter()
        .map(|s| (s.id, s.parent, s.name.as_str()))
        .collect();
    assert_eq!(
        shape,
        vec![
            (0, None, "call"),
            (1, Some(0), "a"),
            (2, Some(1), "b"),
            (3, Some(0), "c")
        ]
    );
    for s in &spans {
        assert!(s.start_ns <= s.end_ns);
        if let Some(p) = s.parent {
            assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
        }
    }
}

#[test]
fn stat_parser_counts_fields_after_the_command_name() {
    // The command name holds spaces and parentheses; utime..cstime are
    // fields 14..17 = 11, 22, 33, 44, so the children's time is 33 + 44.
    let line = "4242 (my (odd) prog) S 1 4242 4242 0 -1 4194304 100 0 0 0 11 22 33 44 20 0 1 0 \
                1000 2000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n";
    assert_eq!(parse_children_ticks(line), Some(77));
    assert_eq!(parse_children_ticks("4242 (trunc) S 1 2 3"), None);
    assert_eq!(parse_children_ticks("no parenthesis here"), None);
}

#[test]
fn vm_hwm_parser_reads_kb() {
    let status = "Name:\trepro\nVmPeak:\t 1300000 kB\nVmHWM:\t 1204372 kB\nVmRSS:\t 900000 kB\n";
    assert_eq!(parse_vm_hwm_kb(status), Some(1_204_372));
    // A zombie's status has no memory lines.
    assert_eq!(parse_vm_hwm_kb("Name:\trepro\nState:\tZ (zombie)\n"), None);
    assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
}

#[test]
fn fnv1a_matches_the_reference_vectors() {
    assert_eq!(fnv1a(FNV_BASIS, b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(FNV_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
    // Streaming in pieces equals hashing the whole.
    assert_eq!(
        fnv1a(fnv1a(FNV_BASIS, b"foo"), b"bar"),
        fnv1a(FNV_BASIS, b"foobar")
    );
}

#[test]
fn call_tokens_round_trip_for_every_workload() {
    for w in WORKLOADS {
        for call in calls(w, 11).expect("known workload") {
            assert_eq!(Call::from_token(&call.token()).as_ref(), Some(&call), "{w}");
        }
    }
    for bad in [
        "",
        "paper:full:1",
        "nowhere:full:1:plain",
        "-:huge:1:plain",
        "-:full:x:plain",
    ] {
        assert_eq!(Call::from_token(bad), None, "{bad:?}");
    }
}

#[test]
fn workloads_derive_their_calls_from_the_seed() {
    let seeds =
        |w: &str| -> Vec<u64> { calls(w, 5).expect("known").iter().map(|c| c.seed).collect() };
    assert_eq!(seeds("paper-export"), (5..13).collect::<Vec<_>>());
    assert_eq!(
        seeds("checkpoint-resume"),
        [5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10]
    );
    let sweep = calls("sweep-smoke", 5).expect("known");
    assert_eq!(sweep.len(), 24);
    assert_eq!(sweep.first().map(|c| c.seed), Some(5));
    assert_eq!(sweep.last().map(|c| c.seed), Some(12));
    assert_ne!(calls("sweep-smoke", 6), Some(sweep));
    assert_eq!(calls("no-such-workload", 5), None);
    for (w, distinct) in WORKLOADS.into_iter().zip([8, 6, 24]) {
        let calls = calls(w, 5).expect("known");
        assert!(calls.iter().all(|c| c.scale == ReproScale::Smoke), "{w}");
        assert_eq!(worlds(&calls).len(), distinct, "{w}");
    }
}

#[test]
fn each_resume_follows_the_fresh_run_of_its_own_world() {
    let calls = calls("checkpoint-resume", 5).expect("known");
    for pair in calls.chunks(2) {
        let [fresh, resume] = pair else {
            panic!("calls come in pairs")
        };
        assert_eq!(
            (fresh.step, resume.step),
            (Step::CheckpointFresh, Step::CheckpointResume)
        );
        assert_eq!(fresh.seed, resume.seed);
        let scratch = std::path::Path::new("scratch");
        assert_eq!(
            fresh.checkpoint_dir(scratch),
            resume.checkpoint_dir(scratch)
        );
    }
    assert_eq!(worlds(&calls).len(), 6);
}
