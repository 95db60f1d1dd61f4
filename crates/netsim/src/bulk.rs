//! The nuttcp-style bulk transfer test.
//!
//! §5: *"we used nuttcp with the default TCP congestion control algorithm,
//! CUBIC, to generate downlink and uplink backlogged traffic ... with a
//! single TCP connection ... Each test lasted for 30-35 s and logged
//! throughput every 500 ms."*
//!
//! [`BulkTransferTest`] drives a [`FluidTcp`] flow over a caller-supplied
//! link (capacity + base RTT as functions of time) and returns the 500 ms
//! application-layer throughput samples XCAL would log.

use crate::cubic::Cubic;
use crate::tcp::{CongestionControl, FluidTcp};

/// One 500 ms application-layer throughput sample.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputSample {
    /// End of the sample window, seconds (absolute).
    pub time_s: f64,
    /// Mean throughput over the window, Mbps.
    pub mbps: f64,
}

/// Configuration of a bulk transfer test.
#[derive(Debug, Clone, Copy)]
pub struct BulkTransferTest {
    /// Test duration, seconds (paper: 30–35 s).
    pub duration_s: f64,
    /// Throughput sampling period, seconds (paper: 0.5 s).
    pub sample_s: f64,
    /// Simulation tick, seconds.
    pub tick_s: f64,
}

impl Default for BulkTransferTest {
    fn default() -> Self {
        BulkTransferTest {
            duration_s: 30.0,
            sample_s: 0.5,
            tick_s: 0.02,
        }
    }
}

impl BulkTransferTest {
    /// Run the test starting at absolute time `t0_s` with the default CUBIC
    /// controller. `link` maps absolute time to `(capacity_mbps,
    /// base_rtt_s)`.
    pub fn run(&self, t0_s: f64, link: impl FnMut(f64) -> (f64, f64)) -> Vec<ThroughputSample> {
        self.run_with(t0_s, Box::new(Cubic::new()), link)
    }

    /// Run with an explicit congestion controller (for the CUBIC-vs-Reno
    /// ablation).
    pub(crate) fn run_with(
        &self,
        t0_s: f64,
        cc: Box<dyn CongestionControl + Send>,
        mut link: impl FnMut(f64) -> (f64, f64),
    ) -> Vec<ThroughputSample> {
        assert!(self.tick_s > 0.0 && self.sample_s >= self.tick_s);
        let mut flow = FluidTcp::new(cc);
        let mut samples = Vec::with_capacity((self.duration_s / self.sample_s) as usize + 1);
        let mut window_bytes = 0.0;
        let mut window_start = 0.0_f64;
        let mut t = 0.0_f64;
        while t < self.duration_s {
            let (cap, rtt) = link(t0_s + t);
            let out = flow.tick(t0_s + t, self.tick_s, cap, rtt);
            window_bytes += out.delivered_bytes;
            t += self.tick_s;
            if t - window_start >= self.sample_s - 1e-9 {
                samples.push(ThroughputSample {
                    time_s: t0_s + t,
                    mbps: crate::bps_to_mbps(window_bytes / (t - window_start)),
                });
                window_bytes = 0.0;
                window_start = t;
            }
        }
        samples
    }

    /// Mean throughput over a full run, Mbps.
    #[cfg(test)]
    pub(crate) fn mean_mbps(samples: &[ThroughputSample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        samples.iter().map(|s| s.mbps).sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_60_samples_for_30s() {
        let t = BulkTransferTest::default();
        let samples = t.run(0.0, |_| (50.0, 0.05));
        assert_eq!(samples.len(), 60);
    }

    #[test]
    fn steady_link_yields_near_capacity() {
        let t = BulkTransferTest::default();
        let samples = t.run(100.0, |_| (50.0, 0.05));
        let mean = BulkTransferTest::mean_mbps(&samples);
        assert!((38.0..51.0).contains(&mean), "{mean}");
        // Later samples (post slow-start) should be at capacity.
        let tail = &samples[20..];
        let tail_mean = tail.iter().map(|s| s.mbps).sum::<f64>() / tail.len() as f64;
        assert!(tail_mean > 44.0, "{tail_mean}");
    }

    #[test]
    fn capacity_drop_shows_in_samples() {
        let t = BulkTransferTest::default();
        let samples = t.run(0.0, |time| {
            if time < 15.0 {
                (100.0, 0.05)
            } else {
                (5.0, 0.05)
            }
        });
        let early = samples[10].mbps;
        let late = samples[55].mbps;
        assert!(early > 50.0, "{early}");
        assert!(late < 10.0, "{late}");
    }

    #[test]
    fn blackout_zeroes_samples() {
        let t = BulkTransferTest::default();
        let samples = t.run(0.0, |time| {
            if (10.0..12.0).contains(&time) {
                (0.0, 0.05)
            } else {
                (20.0, 0.05)
            }
        });
        let during: Vec<_> = samples
            .iter()
            .filter(|s| (10.6..11.9).contains(&s.time_s))
            .collect();
        assert!(!during.is_empty());
        assert!(during.iter().all(|s| s.mbps < 1.0), "{during:?}");
    }

    #[test]
    fn sample_timestamps_are_absolute() {
        let t = BulkTransferTest::default();
        let samples = t.run(1_000.0, |_| (10.0, 0.05));
        assert!(samples[0].time_s > 1_000.0);
        assert!(samples.last().unwrap().time_s <= 1_030.0 + 1e-6);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(BulkTransferTest::mean_mbps(&[]), 0.0);
    }
}
