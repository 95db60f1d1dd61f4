//! The calibration kernel: a fixed piece of work, frozen with the
//! benchmark, whose time tracks how fast the host runs the pipeline right
//! now.
//!
//! On a shared host the same `repro` call swings by up to half between
//! stretches of seconds to minutes, and a slow stretch can outlast a whole
//! run. The swings come from memory-bound work slowing down (a pure
//! arithmetic loop holds steady through them), so the kernel does what the
//! pipeline does most: it allocates many short float vectors and computes
//! into them. The benchmark runs it in a fresh process, as `repro` runs,
//! just before every timed call and divides the call's times by it (see
//! [`normalized`]).

use std::hint::black_box;

use crate::clock::Clock;

/// Vector allocations in each phase of the kernel, per thread.
pub const ITERS_PER_PHASE: u64 = 60_000;

/// The kernel time that normalized times are scaled to: a normalized time
/// is what the call would have taken had the kernel taken this long. The
/// kernel takes about this long on an idle 2-vCPU x86-64 VM.
pub const REFERENCE_S: f64 = 0.05;

/// `x` scaled from a host on which the kernel took `kernel_s` to one on
/// which it takes [`REFERENCE_S`].
pub fn normalized(x: f64, kernel_s: f64) -> f64 {
    x * REFERENCE_S / kernel_s
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `iters` vectors of 1–64 sines each; a quarter of them stay alive until
/// the end, like records kept in a shard.
fn work(iters: u64, seed: u64) -> usize {
    let mut x = seed;
    let mut kept: Vec<Vec<f64>> = Vec::new();
    for i in 0..iters {
        let n = xorshift(&mut x) % 64 + 1;
        let v: Vec<f64> = (0..n).map(|k| (k as f64 * 0.5).sin()).collect();
        if i % 4 == 0 {
            kept.push(v);
        }
    }
    kept.len()
}

/// Run the kernel and return its wall time in seconds: one phase on one
/// thread, then one on `threads` threads, each doing the phase's work.
///
/// A call runs serial steps (process start, world build, merge, analysis)
/// and parallel ones (units, export) on as many threads as it has jobs. So
/// does the kernel, so that it feels a host that lends fewer CPUs than it
/// shows about as much as a call does. A kernel run wholly on `threads`
/// threads doubled its time when one of two vCPUs went missing while calls
/// slowed far less.
pub fn kernel(threads: u64) -> f64 {
    let clock = Clock::start();
    // Seed 0 would keep xorshift at 0.
    black_box(work(ITERS_PER_PHASE, 1));
    std::thread::scope(|s| {
        for t in 0..threads.max(1) {
            s.spawn(move || black_box(work(ITERS_PER_PHASE, t + 2)));
        }
    });
    clock.seconds()
}
