//! The Steam-Remote-Play-style bitrate adapter.
//!
//! §E.1: *"the maximum target value that can be set by the bitrate adapter
//! is 100 Mbps"*. The adapter tracks an EWMA capacity estimate, targets a
//! conservative fraction of it, backs off multiplicatively when the
//! encoder queue is non-empty, and probes upward slowly when the channel
//! has headroom.

/// Hard cap on the target bitrate, Mbps (§E.1).
pub const MAX_BITRATE_MBPS: f64 = 100.0;
/// Floor: the encoder can't go below this and still produce video.
pub const MIN_BITRATE_MBPS: f64 = 1.0;

/// EWMA-driven AIMD bitrate adapter.
#[derive(Debug, Clone, Copy)]
pub struct BitrateAdapter {
    est_mbps: f64,
    bitrate_mbps: f64,
}

impl Default for BitrateAdapter {
    fn default() -> Self {
        BitrateAdapter {
            est_mbps: 10.0,
            bitrate_mbps: 10.0,
        }
    }
}

impl BitrateAdapter {
    /// One adaptation step: observe channel capacity and whether the send
    /// queue is backed up; returns the new target bitrate (Mbps).
    pub(crate) fn update(&mut self, cap_mbps: f64, queue_backed_up: bool) -> f64 {
        self.est_mbps = 0.8 * self.est_mbps + 0.2 * cap_mbps;
        if queue_backed_up {
            // Multiplicative decrease below the estimate.
            self.bitrate_mbps = (self.est_mbps * 0.7).min(self.bitrate_mbps * 0.8);
        } else if self.bitrate_mbps < self.est_mbps * 0.85 {
            // Additive probe towards the headroom.
            self.bitrate_mbps += (self.est_mbps * 0.85 - self.bitrate_mbps) * 0.3;
        }
        self.bitrate_mbps = self.bitrate_mbps.clamp(MIN_BITRATE_MBPS, MAX_BITRATE_MBPS);
        self.bitrate_mbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_cap_on_fat_channel() {
        let mut a = BitrateAdapter::default();
        let mut b = 0.0;
        for _ in 0..200 {
            b = a.update(500.0, false);
        }
        assert!((b - MAX_BITRATE_MBPS).abs() < 1e-6, "{b}");
    }

    #[test]
    fn settles_below_capacity_on_thin_channel() {
        let mut a = BitrateAdapter::default();
        let mut b = 0.0;
        for _ in 0..200 {
            b = a.update(20.0, false);
        }
        assert!((12.0..20.0).contains(&b), "{b}");
    }

    #[test]
    fn backs_off_when_queued() {
        let mut a = BitrateAdapter::default();
        for _ in 0..100 {
            a.update(50.0, false);
        }
        let before = a.bitrate_mbps;
        a.update(50.0, true);
        assert!(a.bitrate_mbps < before);
    }

    #[test]
    fn never_below_floor() {
        let mut a = BitrateAdapter::default();
        for _ in 0..100 {
            a.update(0.0, true);
        }
        assert!(a.bitrate_mbps >= MIN_BITRATE_MBPS);
    }
}
