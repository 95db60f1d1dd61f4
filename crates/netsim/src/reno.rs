//! TCP Reno (NewReno-style AIMD), the baseline congestion controller for
//! the CUBIC-vs-Reno ablation test (`tcp::cubic_beats_reno_on_fat_long_pipe`).

use crate::tcp::{CongestionControl, INIT_CWND, MSS};

/// Classic AIMD: +1 MSS/RTT in congestion avoidance, ×0.5 on loss.
#[derive(Debug, Clone)]
pub struct Reno {
    cwnd: f64,
    ssthresh: f64,
}

impl Reno {
    /// A fresh flow in slow start.
    pub fn new() -> Self {
        Reno {
            cwnd: INIT_CWND,
            ssthresh: f64::INFINITY,
        }
    }
}

impl Default for Reno {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Reno {
    fn cwnd_bytes(&self) -> f64 {
        self.cwnd
    }

    fn on_ack(&mut self, _now_s: f64, acked_bytes: f64, _rtt_s: f64) {
        if self.cwnd < self.ssthresh {
            self.cwnd += acked_bytes;
        } else {
            self.cwnd += MSS * (acked_bytes / self.cwnd);
        }
    }

    fn on_loss(&mut self, _now_s: f64) {
        self.cwnd = (self.cwnd / 2.0).max(2.0 * MSS);
        self.ssthresh = self.cwnd;
    }

    fn on_timeout(&mut self, _now_s: f64) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * MSS);
        self.cwnd = INIT_CWND;
    }

    fn name(&self) -> &'static str {
        "reno"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_then_linear() {
        let mut r = Reno::new();
        let w0 = r.cwnd_bytes();
        r.on_ack(0.0, w0, 0.05);
        assert!((r.cwnd_bytes() - 2.0 * w0).abs() < 1.0);
        r.on_loss(0.1);
        let w = r.cwnd_bytes();
        // One full window of acks in CA adds ~1 MSS.
        r.on_ack(0.2, w, 0.05);
        assert!((r.cwnd_bytes() - (w + MSS)).abs() < 1.0);
    }

    #[test]
    fn loss_halves() {
        let mut r = Reno::new();
        r.on_ack(0.0, 100.0 * MSS, 0.05);
        let before = r.cwnd_bytes();
        r.on_loss(0.1);
        assert!((r.cwnd_bytes() - before / 2.0).abs() < 1.0);
    }

    #[test]
    fn timeout_resets() {
        let mut r = Reno::new();
        r.on_ack(0.0, 100.0 * MSS, 0.05);
        r.on_timeout(0.1);
        assert!((r.cwnd_bytes() - INIT_CWND).abs() < 1e-9);
    }

    #[test]
    fn floor_at_two_segments() {
        let mut r = Reno::new();
        for _ in 0..64 {
            r.on_loss(0.0);
        }
        assert!(r.cwnd_bytes() >= 2.0 * MSS);
    }
}
