//! A simplified BBR(v1) congestion controller.
//!
//! Included as an ablation companion to CUBIC/Reno: the paper measures the
//! nuttcp default (CUBIC) over a bufferbloated cellular bottleneck, and a
//! model-based controller is the obvious "what if" — BBR does not fill the
//! 0.8 s buffer, so its RTTs stay near the propagation floor while its
//! throughput stays at the estimated bottleneck rate.
//!
//! Simplifications vs RFC-draft BBR: windowed-max bandwidth and
//! windowed-min RTT filters, an 8-phase pacing-gain cycle approximated at
//! ack granularity, loss-blind (true to BBRv1), RTO resets the model.

use crate::tcp::{CongestionControl, INIT_CWND, MSS};

/// Bandwidth filter window, seconds.
const BW_WINDOW_S: f64 = 10.0;
/// RTT filter window, seconds.
const RTT_WINDOW_S: f64 = 10.0;
/// Pacing-gain cycle (PROBE_BW).
const GAIN_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];

/// The simplified BBR state.
#[derive(Debug, Clone)]
pub struct Bbr {
    /// (time, bytes/s) bandwidth samples for the windowed max.
    bw_samples: Vec<(f64, f64)>,
    /// (time, rtt) samples for the windowed min.
    rtt_samples: Vec<(f64, f64)>,
    last_ack_s: Option<f64>,
    phase: usize,
    phase_start_s: f64,
    /// In startup until the bandwidth estimate plateaus.
    startup: bool,
    last_bw_bps: f64,
    plateau_rounds: u32,
    cwnd: f64,
}

impl Bbr {
    /// A fresh flow in startup.
    pub fn new() -> Self {
        Bbr {
            bw_samples: Vec::new(),
            rtt_samples: Vec::new(),
            last_ack_s: None,
            phase: 0,
            phase_start_s: 0.0,
            startup: true,
            last_bw_bps: 0.0,
            plateau_rounds: 0,
            cwnd: INIT_CWND,
        }
    }

    /// Current bottleneck-bandwidth estimate, bytes/s.
    pub(crate) fn btl_bw_bps(&self) -> f64 {
        self.bw_samples
            .iter()
            .map(|s| s.1)
            .fold(0.0, f64::max)
            .max(INIT_CWND / 0.1)
    }

    /// Current min-RTT estimate, seconds.
    pub(crate) fn rtt_min_s(&self) -> f64 {
        self.rtt_samples
            .iter()
            .map(|s| s.1)
            .fold(f64::INFINITY, f64::min)
            .clamp(1e-3, 10.0)
    }

    fn prune(&mut self, now_s: f64) {
        self.bw_samples.retain(|s| now_s - s.0 <= BW_WINDOW_S);
        self.rtt_samples.retain(|s| now_s - s.0 <= RTT_WINDOW_S);
    }
}

impl Default for Bbr {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Bbr {
    fn cwnd_bytes(&self) -> f64 {
        self.cwnd
    }

    fn on_ack(&mut self, now_s: f64, acked_bytes: f64, rtt_s: f64) {
        // Delivery-rate sample from inter-ack spacing.
        if let Some(last) = self.last_ack_s {
            let dt = (now_s - last).max(1e-6);
            self.bw_samples.push((now_s, acked_bytes / dt));
        }
        self.last_ack_s = Some(now_s);
        self.rtt_samples.push((now_s, rtt_s));
        self.prune(now_s);

        let bw = self.btl_bw_bps();
        let rtt_min = self.rtt_min_s();
        if self.startup {
            // Startup: exponential growth until the bw estimate stops
            // improving for 3 rounds.
            self.cwnd += acked_bytes;
            if bw < self.last_bw_bps * 1.25 {
                self.plateau_rounds += 1;
                if self.plateau_rounds >= 3 {
                    self.startup = false;
                    self.phase_start_s = now_s;
                }
            } else {
                self.plateau_rounds = 0;
                self.last_bw_bps = bw;
            }
            return;
        }
        // PROBE_BW: advance the gain cycle once per min-RTT.
        if now_s - self.phase_start_s >= rtt_min {
            self.phase = (self.phase + 1) % GAIN_CYCLE.len();
            self.phase_start_s = now_s;
        }
        let gain = GAIN_CYCLE[self.phase];
        self.cwnd = (gain * 2.0 * bw * rtt_min).max(4.0 * MSS);
    }

    fn on_loss(&mut self, _now_s: f64) {
        // BBRv1 is loss-blind by design.
    }

    fn on_timeout(&mut self, _now_s: f64) {
        // Model invalid: restart.
        self.bw_samples.clear();
        self.startup = true;
        self.plateau_rounds = 0;
        self.last_bw_bps = 0.0;
        self.cwnd = INIT_CWND;
    }

    fn name(&self) -> &'static str {
        "bbr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::FluidTcp;

    fn run(cap_mbps: f64, secs: f64) -> (f64, f64) {
        let mut flow = FluidTcp::new(Box::new(Bbr::new()));
        let dt = 0.02;
        let mut t = 0.0;
        let mut max_rtt: f64 = 0.0;
        while t < secs {
            let out = flow.tick(t, dt, cap_mbps, 0.05);
            max_rtt = max_rtt.max(out.rtt_s);
            t += dt;
        }
        (
            crate::bps_to_mbps(flow.total_delivered_bytes() / secs),
            max_rtt,
        )
    }

    #[test]
    fn fills_a_steady_link() {
        let (avg, _) = run(50.0, 30.0);
        assert!((38.0..50.5).contains(&avg), "{avg}");
    }

    #[test]
    fn keeps_queues_far_shallower_than_cubic() {
        let (_, bbr_rtt) = run(20.0, 30.0);
        // CUBIC fills the 0.8 s buffer; BBR must stay well below it.
        let mut cubic = FluidTcp::new(Box::new(crate::cubic::Cubic::new()));
        let mut cubic_rtt: f64 = 0.0;
        let mut t = 0.0;
        while t < 30.0 {
            cubic_rtt = cubic_rtt.max(cubic.tick(t, 0.02, 20.0, 0.05).rtt_s);
            t += 0.02;
        }
        assert!(
            bbr_rtt < cubic_rtt * 0.6,
            "bbr {bbr_rtt} vs cubic {cubic_rtt}"
        );
    }

    #[test]
    fn timeout_resets_model() {
        let mut b = Bbr::new();
        for i in 0..100 {
            b.on_ack(i as f64 * 0.05, 50_000.0, 0.05);
        }
        assert!(!b.startup);
        b.on_timeout(5.0);
        assert!(b.startup);
        assert_eq!(b.cwnd_bytes(), INIT_CWND);
    }

    #[test]
    fn loss_blind() {
        let mut b = Bbr::new();
        for i in 0..100 {
            b.on_ack(i as f64 * 0.05, 50_000.0, 0.05);
        }
        let before = b.cwnd_bytes();
        b.on_loss(5.0);
        assert_eq!(b.cwnd_bytes(), before);
    }

    #[test]
    fn estimates_track_the_link() {
        let mut flow = FluidTcp::new(Box::new(Bbr::new()));
        let mut t = 0.0;
        while t < 20.0 {
            flow.tick(t, 0.02, 40.0, 0.06);
            t += 0.02;
        }
        // Smoke: delivered roughly matches 40 Mbps after startup.
        let avg = crate::bps_to_mbps(flow.total_delivered_bytes() / 20.0);
        assert!(avg > 28.0, "{avg}");
    }
}
