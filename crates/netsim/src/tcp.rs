//! Fluid TCP over a time-varying bottleneck with a droptail buffer.
//!
//! The paper measures single-connection nuttcp/CUBIC throughput sampled at
//! 500 ms (§5). At that timescale a packet-level simulation adds nothing
//! but cost, so we use the standard fluid abstraction: a congestion window
//! paced over the smoothed RTT into a bottleneck queue served at the RAN's
//! instantaneous capacity. Queue overflow triggers a congestion-control
//! loss event (at most once per RTT); a capacity blackout long enough to
//! stall delivery triggers an RTO.

/// TCP maximum segment size used for window accounting, bytes.
pub const MSS: f64 = 1_448.0;

/// Initial congestion window, bytes (RFC 6928: 10 segments).
pub const INIT_CWND: f64 = 10.0 * MSS;

/// A congestion-control algorithm driving a [`FluidTcp`] flow.
pub trait CongestionControl {
    /// Current congestion window, bytes.
    fn cwnd_bytes(&self) -> f64;
    /// `acked` bytes were delivered at time `now_s` with RTT `rtt_s`.
    fn on_ack(&mut self, now_s: f64, acked_bytes: f64, rtt_s: f64);
    /// A loss event (triple-dup-ack equivalent) at `now_s`.
    fn on_loss(&mut self, now_s: f64);
    /// A retransmission timeout at `now_s`.
    fn on_timeout(&mut self, now_s: f64);
    /// Algorithm name ("cubic", "reno").
    fn name(&self) -> &'static str;
}

/// Result of advancing a flow by one tick.
#[derive(Debug, Clone, Copy)]
pub struct TickOutcome {
    /// Bytes delivered to the application in this tick.
    pub delivered_bytes: f64,
    /// Current RTT including queueing delay, seconds.
    pub rtt_s: f64,
    /// Whether a loss event fired in this tick.
    pub lost: bool,
}

/// A single backlogged TCP flow (sender always has data).
pub struct FluidTcp {
    cc: Box<dyn CongestionControl + Send>,
    queue_bytes: f64,
    total_delivered: f64,
    last_loss_s: f64,
    blackout_since: Option<f64>,
    srtt_s: f64,
}

/// Bottleneck buffer depth in seconds of drain time at current capacity —
/// cellular gear is famously bufferbloated.
const BUFFER_DRAIN_S: f64 = 0.8;
/// Minimum buffer, bytes (even tiny links have real buffers).
const MIN_BUFFER_BYTES: f64 = 96_000.0;
/// Maximum buffer, bytes: gigabit-class links have time-shallow buffers
/// (a 0.8 s drain at 3.5 Gbps would be 350 MB — no real eNB carries that,
/// and it would make CUBIC's post-loss recovery take minutes).
const MAX_BUFFER_BYTES: f64 = 12_000_000.0;
/// Capacity below this is treated as a blackout (handover blanking).
const BLACKOUT_MBPS: f64 = 1e-3;
/// Blackout longer than this triggers an RTO.
const RTO_S: f64 = 1.5;

impl FluidTcp {
    /// Create a flow driven by the given congestion controller.
    pub fn new(cc: Box<dyn CongestionControl + Send>) -> Self {
        FluidTcp {
            cc,
            queue_bytes: 0.0,
            total_delivered: 0.0,
            last_loss_s: f64::NEG_INFINITY,
            blackout_since: None,
            srtt_s: 0.05,
        }
    }

    /// Advance the flow by `dt_s` at time `now_s`, with the bottleneck
    /// serving `capacity_mbps` and a propagation RTT of `base_rtt_s`.
    pub fn tick(
        &mut self,
        now_s: f64,
        dt_s: f64,
        capacity_mbps: f64,
        base_rtt_s: f64,
    ) -> TickOutcome {
        debug_assert!(dt_s > 0.0);
        if capacity_mbps <= BLACKOUT_MBPS {
            let since = *self.blackout_since.get_or_insert(now_s);
            if now_s - since >= RTO_S {
                self.cc.on_timeout(now_s);
                self.blackout_since = Some(now_s); // back off repeatedly
            }
            return TickOutcome {
                delivered_bytes: 0.0,
                rtt_s: base_rtt_s + 1.0,
                lost: false,
            };
        }
        self.blackout_since = None;

        let cap_bps = crate::mbps_to_bps(capacity_mbps);
        let qmax = (cap_bps * BUFFER_DRAIN_S).clamp(MIN_BUFFER_BYTES, MAX_BUFFER_BYTES);
        let rtt = base_rtt_s + self.queue_bytes / cap_bps;
        self.srtt_s = 0.9 * self.srtt_s + 0.1 * rtt;

        let send_rate = self.cc.cwnd_bytes() / self.srtt_s;
        let arrivals = send_rate * dt_s;
        let service = cap_bps * dt_s;
        let delivered = (self.queue_bytes + arrivals).min(service);
        self.queue_bytes = (self.queue_bytes + arrivals - delivered).max(0.0);

        let mut lost = false;
        if self.queue_bytes > qmax {
            self.queue_bytes = qmax;
            if now_s - self.last_loss_s > self.srtt_s {
                self.cc.on_loss(now_s);
                self.last_loss_s = now_s;
                lost = true;
            }
        }
        if delivered > 0.0 {
            self.cc.on_ack(now_s, delivered, rtt);
        }
        self.total_delivered += delivered;
        TickOutcome {
            delivered_bytes: delivered,
            rtt_s: rtt,
            lost,
        }
    }

    /// Total bytes delivered so far.
    pub fn total_delivered_bytes(&self) -> f64 {
        self.total_delivered
    }

    /// Current queueing backlog, bytes.
    pub fn queue_bytes(&self) -> f64 {
        self.queue_bytes
    }

    /// Smoothed RTT estimate, seconds.
    pub fn srtt_s(&self) -> f64 {
        self.srtt_s
    }

    /// Name of the congestion controller in use.
    pub fn cc_name(&self) -> &'static str {
        self.cc.name()
    }
}

impl std::fmt::Debug for FluidTcp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FluidTcp")
            .field("cc", &self.cc.name())
            .field("queue_bytes", &self.queue_bytes)
            .field("srtt_s", &self.srtt_s)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cubic::Cubic;
    use crate::reno::Reno;

    fn run_steady(cc: Box<dyn CongestionControl + Send>, cap_mbps: f64, secs: f64) -> f64 {
        let mut flow = FluidTcp::new(cc);
        let dt = 0.02;
        let mut t = 0.0;
        while t < secs {
            flow.tick(t, dt, cap_mbps, 0.05);
            t += dt;
        }
        crate::bps_to_mbps(flow.total_delivered_bytes() / secs)
    }

    #[test]
    fn cubic_fills_steady_link() {
        // 30 s at 100 Mbps: should achieve most of the capacity.
        let avg = run_steady(Box::new(Cubic::new()), 100.0, 30.0);
        assert!((80.0..=100.5).contains(&avg), "avg {avg}");
    }

    #[test]
    fn reno_fills_small_link() {
        let avg = run_steady(Box::new(Reno::new()), 10.0, 30.0);
        assert!((8.0..=10.1).contains(&avg), "avg {avg}");
    }

    #[test]
    fn cubic_beats_reno_on_fat_long_pipe() {
        // The motivation for CUBIC: high BDP recovery. Vary capacity to
        // force repeated loss/recovery cycles.
        let run_varying = |cc: Box<dyn CongestionControl + Send>| {
            let mut flow = FluidTcp::new(cc);
            let dt = 0.02;
            let mut t: f64 = 0.0;
            while t < 60.0 {
                let cap = if ((t / 5.0) as u64).is_multiple_of(2) { 600.0 } else { 150.0 };
                flow.tick(t, dt, cap, 0.08);
                t += dt;
            }
            flow.total_delivered_bytes()
        };
        let cubic = run_varying(Box::<Cubic>::default());
        let reno = run_varying(Box::<Reno>::default());
        assert!(cubic > reno, "cubic {cubic} vs reno {reno}");

        // A driving-like sawtooth through the bulk-transfer test: 6 s
        // phases of 650 / 40 / 260 Mbps at 0.12 s RTT, deep fades between
        // high-BDP stretches. Seeded and exact: CUBIC 246.8, Reno 223.5
        // (BBR 315.6) Mbps.
        let sawtooth = |t: f64| {
            let cap = match (t / 6.0) as u64 % 3 {
                0 => 650.0,
                1 => 40.0,
                _ => 260.0,
            };
            (cap, 0.12)
        };
        let mean = |cc: Box<dyn CongestionControl + Send>| {
            let test = crate::bulk::BulkTransferTest::default();
            crate::bulk::BulkTransferTest::mean_mbps(&test.run_with(0.0, cc, sawtooth))
        };
        let cubic = mean(Box::<Cubic>::default());
        let reno = mean(Box::<Reno>::default());
        assert!(cubic > reno, "sawtooth: cubic {cubic} vs reno {reno} Mbps");
    }

    #[test]
    fn blackout_stalls_then_rto() {
        let mut flow = FluidTcp::new(Box::new(Cubic::new()));
        let dt = 0.02;
        let mut t = 0.0;
        while t < 5.0 {
            flow.tick(t, dt, 50.0, 0.05);
            t += dt;
        }
        let cwnd_before = flow.cc.cwnd_bytes();
        while t < 8.0 {
            let out = flow.tick(t, dt, 0.0, 0.05);
            assert_eq!(out.delivered_bytes, 0.0);
            t += dt;
        }
        assert!(flow.cc.cwnd_bytes() < cwnd_before, "RTO should shrink cwnd");
    }

    #[test]
    fn queueing_delay_bounded_by_buffer() {
        let mut flow = FluidTcp::new(Box::new(Cubic::new()));
        let dt = 0.02;
        let mut t = 0.0;
        let mut max_rtt: f64 = 0.0;
        while t < 20.0 {
            let out = flow.tick(t, dt, 20.0, 0.05);
            max_rtt = max_rtt.max(out.rtt_s);
            t += dt;
        }
        // base 50 ms + at most ~800 ms of buffer.
        assert!(max_rtt < 1.0, "{max_rtt}");
        assert!(max_rtt > 0.2, "bufferbloat should appear: {max_rtt}");
    }

    #[test]
    fn losses_occur_under_saturation() {
        let mut flow = FluidTcp::new(Box::new(Cubic::new()));
        let dt = 0.02;
        let mut t = 0.0;
        let mut losses = 0;
        while t < 30.0 {
            if flow.tick(t, dt, 25.0, 0.05).lost {
                losses += 1;
            }
            t += dt;
        }
        assert!(losses >= 1, "a backlogged flow must hit the buffer limit");
    }
}
