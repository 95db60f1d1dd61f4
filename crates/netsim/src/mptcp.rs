//! Multipath TCP over multiple operators — the paper's recommendation 2.
//!
//! §5.4 / §8: *"performance under driving can benefit significantly from
//! multi-connectivity solutions, e.g., over Multipath TCP, that can
//! aggregate links from multiple operators"* — the RAVEN/CableLabs line of
//! work. This module implements that future-work feature: a multipath
//! flow with one congestion-controlled subflow per operator and two
//! schedulers:
//!
//! * [`MptcpMode::Aggregate`] — all subflows backlogged simultaneously
//!   (bandwidth aggregation, the file-transfer use case);
//! * [`MptcpMode::BestPath`] — only the currently-best subflow carries
//!   traffic, re-evaluated continuously (the latency-sensitive use case:
//!   avoids blocking on a stalled path).

use crate::cubic::Cubic;
use crate::tcp::{FluidTcp, TickOutcome};

/// Scheduler used by a [`MultipathFlow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MptcpMode {
    /// Saturate every subflow; aggregate goodput is the sum.
    Aggregate,
    /// Send on the one subflow with the highest smoothed delivery rate.
    BestPath,
}

/// Result of one multipath tick.
#[derive(Debug, Clone, Copy)]
pub struct MptcpTick {
    /// Total bytes delivered across subflows this tick.
    pub delivered_bytes: f64,
    /// Lowest subflow RTT this tick, seconds.
    pub min_rtt_s: f64,
    /// Index of the subflow that delivered the most this tick.
    pub best_path: usize,
}

/// A multipath flow: one [`FluidTcp`] subflow per path (per operator).
pub struct MultipathFlow {
    subflows: Vec<FluidTcp>,
    mode: MptcpMode,
    /// Smoothed per-path delivery rate, bytes/s (BestPath scheduler state).
    rate_est: Vec<f64>,
    active: usize,
}

impl MultipathFlow {
    /// Create a flow with `paths` CUBIC subflows.
    ///
    /// # Panics
    /// Panics if `paths == 0`.
    pub fn new(paths: usize, mode: MptcpMode) -> Self {
        assert!(paths > 0, "a multipath flow needs at least one path");
        MultipathFlow {
            subflows: (0..paths)
                .map(|_| FluidTcp::new(Box::new(Cubic::new())))
                .collect(),
            mode,
            rate_est: vec![0.0; paths],
            active: 0,
        }
    }

    /// Number of subflows.
    pub fn paths(&self) -> usize {
        self.subflows.len()
    }

    /// Advance all subflows by `dt_s`. `caps_mbps[i]` and `rtts_s[i]` are
    /// path i's capacity and base RTT.
    ///
    /// # Panics
    /// Panics if the slice lengths don't match the path count.
    pub fn tick(&mut self, now_s: f64, dt_s: f64, caps_mbps: &[f64], rtts_s: &[f64]) -> MptcpTick {
        assert_eq!(caps_mbps.len(), self.subflows.len());
        assert_eq!(rtts_s.len(), self.subflows.len());
        let mut delivered = 0.0;
        let mut min_rtt = f64::INFINITY;
        let mut best = 0usize;
        let mut best_bytes = -1.0f64;
        match self.mode {
            MptcpMode::Aggregate => {
                for (i, f) in self.subflows.iter_mut().enumerate() {
                    let out: TickOutcome = f.tick(now_s, dt_s, caps_mbps[i], rtts_s[i]);
                    delivered += out.delivered_bytes;
                    min_rtt = min_rtt.min(out.rtt_s);
                    if out.delivered_bytes > best_bytes {
                        best_bytes = out.delivered_bytes;
                        best = i;
                    }
                }
            }
            MptcpMode::BestPath => {
                // Update estimates with tiny probe traffic on idle paths
                // (modelled as rate decay plus the path's raw capacity
                // signal), full traffic on the active path.
                for (i, f) in self.subflows.iter_mut().enumerate() {
                    if i == self.active {
                        let out = f.tick(now_s, dt_s, caps_mbps[i], rtts_s[i]);
                        delivered += out.delivered_bytes;
                        min_rtt = min_rtt.min(out.rtt_s);
                        self.rate_est[i] =
                            0.9 * self.rate_est[i] + 0.1 * (out.delivered_bytes / dt_s);
                    } else {
                        // Thin probes observe capacity without moving data.
                        self.rate_est[i] =
                            0.95 * self.rate_est[i] + 0.05 * crate::mbps_to_bps(caps_mbps[i]);
                    }
                }
                best = self
                    .rate_est
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                // Switch only on a clear (20 %) advantage to avoid flapping.
                if best != self.active
                    && self.rate_est[best] > 1.2 * self.rate_est[self.active].max(1.0)
                {
                    self.active = best;
                }
                best = self.active;
            }
        }
        MptcpTick {
            delivered_bytes: delivered,
            min_rtt_s: if min_rtt.is_finite() {
                min_rtt
            } else {
                rtts_s[0]
            },
            best_path: best,
        }
    }

    /// Total bytes delivered across all subflows.
    pub fn total_delivered_bytes(&self) -> f64 {
        self.subflows
            .iter()
            .map(|f| f.total_delivered_bytes())
            .sum()
    }
}

impl std::fmt::Debug for MultipathFlow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultipathFlow")
            .field("paths", &self.subflows.len())
            .field("mode", &self.mode)
            .field("active", &self.active)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mode: MptcpMode, caps: impl Fn(f64) -> [f64; 3], secs: f64) -> f64 {
        let mut flow = MultipathFlow::new(3, mode);
        let dt = 0.02;
        let mut t = 0.0;
        while t < secs {
            let c = caps(t);
            flow.tick(t, dt, &c, &[0.05, 0.06, 0.055]);
            t += dt;
        }
        crate::bps_to_mbps(flow.total_delivered_bytes() / secs)
    }

    #[test]
    fn aggregate_approaches_sum_of_paths() {
        let avg = run(MptcpMode::Aggregate, |_| [40.0, 25.0, 15.0], 30.0);
        assert!((62.0..81.0).contains(&avg), "{avg}");
    }

    #[test]
    fn aggregate_beats_every_single_path() {
        let agg = run(MptcpMode::Aggregate, |_| [40.0, 25.0, 15.0], 30.0);
        assert!(agg > 40.0, "{agg}");
    }

    #[test]
    fn best_path_tracks_the_winner() {
        // Paths alternate which one is good; best-path should stay near
        // the envelope (minus switching lag), far above the average path.
        let caps = |t: f64| {
            if ((t / 10.0) as u64).is_multiple_of(2) {
                [60.0, 3.0, 3.0]
            } else {
                [3.0, 60.0, 3.0]
            }
        };
        let best = run(MptcpMode::BestPath, caps, 60.0);
        assert!(best > 25.0, "{best}");
    }

    #[test]
    fn best_path_survives_a_dead_path() {
        // One path blacks out entirely; the flow must not stall.
        let caps = |t: f64| {
            if t > 5.0 {
                [0.0, 20.0, 10.0]
            } else {
                [50.0, 20.0, 10.0]
            }
        };
        let got = run(MptcpMode::BestPath, caps, 30.0);
        assert!(got > 10.0, "{got}");
    }

    #[test]
    fn single_path_mptcp_equals_plain_tcp() {
        let mut mp = MultipathFlow::new(1, MptcpMode::Aggregate);
        let mut tcp = FluidTcp::new(Box::new(Cubic::new()));
        let dt = 0.02;
        let mut t = 0.0;
        while t < 10.0 {
            mp.tick(t, dt, &[30.0], &[0.05]);
            tcp.tick(t, dt, 30.0, 0.05);
            t += dt;
        }
        let a = mp.total_delivered_bytes();
        let b = tcp.total_delivered_bytes();
        assert!((a - b).abs() < 1.0, "{a} vs {b}");
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn zero_paths_rejected() {
        let _ = MultipathFlow::new(0, MptcpMode::Aggregate);
    }

    #[test]
    #[should_panic]
    fn mismatched_caps_rejected() {
        let mut f = MultipathFlow::new(2, MptcpMode::Aggregate);
        f.tick(0.0, 0.02, &[10.0], &[0.05, 0.05]);
    }
}
