//! Failure paths of the export's ordered pipeline,
//! [`wheels_xcal::export::ordered_stream`]: its window bound, a failing
//! sink, and a panicking renderer or sink. Every call runs on a helper
//! thread with a deadline, so a hang fails the test instead of stalling
//! the suite.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use wheels_xcal::export::{ordered_stream, WINDOW_PER_JOB};

/// Generous: every call here finishes in milliseconds.
const DEADLINE: Duration = Duration::from_secs(60);

/// Run `f` on its own thread; fail if it neither returns nor panics
/// within [`DEADLINE`]. Returns `f`'s result, or `Err` if it panicked.
fn within_deadline<T: Send + 'static>(
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::Result<T> {
    let (done, finished) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let out = f();
        let _ = done.send(());
        out
    });
    // A panic drops `done` unsent, which also ends the wait.
    if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(DEADLINE) {
        panic!("ordered_stream hung");
    }
    handle.join()
}

fn fragment(i: usize) -> String {
    format!("<{i}>")
}

fn expected(n: usize) -> String {
    (0..n).map(fragment).collect()
}

#[test]
fn unwritten_fragments_never_exceed_the_window() {
    for jobs in [1, 2, 3, 4, 8] {
        let n = 120;
        let (out, max_live) = within_deadline(move || {
            // Fragments rendered or rendering but not yet written.
            let live = AtomicUsize::new(0);
            let max_live = AtomicUsize::new(0);
            let mut out = String::new();
            let r: Result<(), io::Error> = ordered_stream(
                n,
                jobs,
                |i| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    max_live.fetch_max(now, Ordering::SeqCst);
                    fragment(i)
                },
                |frag| {
                    // A slow sink: unbounded workers would race far ahead.
                    std::thread::sleep(Duration::from_micros(200));
                    out.push_str(&frag);
                    live.fetch_sub(1, Ordering::SeqCst);
                    Ok(())
                },
            );
            r.unwrap();
            (out, max_live.into_inner())
        })
        .unwrap();
        assert_eq!(out, expected(n), "jobs={jobs}");
        assert!(
            max_live <= WINDOW_PER_JOB * jobs,
            "jobs={jobs}: {max_live} fragments in flight"
        );
    }
}

#[test]
fn a_failing_sink_returns_its_error_and_stops_the_workers() {
    for jobs in [1, 2, 3, 4] {
        let n = 1_000;
        let (err, rendered) = within_deadline(move || {
            let rendered = AtomicUsize::new(0);
            let mut written = 0usize;
            let r = ordered_stream(
                n,
                jobs,
                |i| {
                    rendered.fetch_add(1, Ordering::SeqCst);
                    fragment(i)
                },
                |frag| {
                    written += frag.len();
                    if written > 100 {
                        return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
                    }
                    Ok(())
                },
            );
            (r.unwrap_err(), rendered.into_inner())
        })
        .unwrap();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull, "jobs={jobs}");
        assert_eq!(err.to_string(), "disk full");
        // The sink fails on fragment 27 ("<0>".."<9>" are 3 bytes,
        // "<10>".. 4); nothing past the window after it was rendered.
        assert!(
            rendered <= 28 + WINDOW_PER_JOB * jobs,
            "jobs={jobs}: {rendered} fragments rendered after the failure"
        );
    }
}

#[test]
fn a_panicking_renderer_panics_the_call_without_hanging() {
    for jobs in [1, 2, 3, 4] {
        for k in [0, 5, 49] {
            let r = within_deadline(move || {
                let mut out = String::new();
                let r: Result<(), io::Error> = ordered_stream(
                    50,
                    jobs,
                    |i| {
                        assert!(i != k, "render failure at fragment {i}");
                        fragment(i)
                    },
                    |frag| {
                        out.push_str(&frag);
                        Ok(())
                    },
                );
                (r, out)
            });
            assert!(r.is_err(), "jobs={jobs} k={k}: the call returned normally");
        }
    }
}

#[test]
fn a_panicking_sink_panics_the_call_without_hanging() {
    for jobs in [1, 2, 4] {
        let r = within_deadline(move || {
            let r: Result<(), io::Error> = ordered_stream(200, jobs, fragment, |frag| {
                assert!(frag != "<7>", "sink failure");
                Ok(())
            });
            r
        });
        assert!(r.is_err(), "jobs={jobs}: the call returned normally");
    }
}
