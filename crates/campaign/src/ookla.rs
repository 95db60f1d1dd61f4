//! Table 3: comparison against Ookla SpeedTest's Q3 2022 US report.
//!
//! The Speedtest column is *published* data (the paper cites Ookla's
//! Q3 2022 US market report); the "Our Data" column is the median of our
//! per-test means (the same statistic as Fig. 9). §5.6 explains why the
//! two differ: SpeedTest users are mostly static, the app picks nearby
//! servers, and it opens multiple TCP connections to measure peak
//! bandwidth.

use wheels_ran::operator::Operator;

/// Published medians from the Ookla Q3 2022 US report as cited in Table 3:
/// (downlink Mbps, uplink Mbps, RTT ms).
pub fn ookla_q3_2022(op: Operator) -> (f64, f64, f64) {
    match op {
        Operator::Verizon => (58.64, 8.30, 59.0),
        Operator::TMobile => (116.14, 10.91, 60.0),
        Operator::Att => (57.94, 7.55, 61.0),
    }
}

/// One row of Table 3.
#[derive(Debug, Clone, Copy)]
pub struct Table3Row {
    /// Operator.
    pub op: Operator,
    /// Our median per-test DL mean, Mbps.
    pub our_dl_mbps: f64,
    /// Published DL median, Mbps.
    pub speedtest_dl_mbps: f64,
    /// Our median per-test UL mean, Mbps.
    pub our_ul_mbps: f64,
    /// Published UL median, Mbps.
    pub speedtest_ul_mbps: f64,
    /// Our median per-test RTT mean, ms.
    pub our_rtt_ms: f64,
    /// Published RTT median, ms.
    pub speedtest_rtt_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_values_match_table3() {
        assert_eq!(ookla_q3_2022(Operator::Verizon).0, 58.64);
        assert_eq!(ookla_q3_2022(Operator::TMobile).0, 116.14);
        assert_eq!(ookla_q3_2022(Operator::Att).2, 61.0);
    }
}
