//! The XCAL-style per-test logger.
//!
//! One [`XcalLogger`] is attached to a phone for the duration of one test.
//! It accumulates 500 ms KPI samples and signaling messages, and finishes
//! into an [`XcalLog`] whose *filename* carries a local-time stamp while
//! its *contents* are stamped in EDT — the exact mismatch §B of the paper
//! describes (and which [`crate::sync`] must untangle).

use wheels_geo::timezone::Timezone;
use wheels_ran::handover::HandoverEvent;
use wheels_ran::operator::Operator;

use crate::kpi::KpiSample;
use crate::signaling::SignalingMessage;
use crate::timestamp::Timestamp;

/// A finished XCAL log "file".
#[derive(Debug, Clone)]
pub struct XcalLog {
    /// Simulated `.drm` filename: stamped with the *local* time at the
    /// test's start (the misleading part).
    pub file_name: String,
    /// Start time as it appears *inside* the file: an EDT string.
    pub content_start_edt: String,
    /// The operator the probe was attached to.
    pub op: Operator,
    /// Start of the test, plan seconds (ground truth, for verification).
    pub start_plan_s: f64,
    /// KPI samples.
    pub samples: Vec<KpiSample>,
    /// Signaling messages.
    pub messages: Vec<SignalingMessage>,
}

/// Logger attached to a phone for one test.
#[derive(Debug)]
pub struct XcalLogger {
    op: Operator,
    test_label: &'static str,
    start_plan_s: f64,
    samples: Vec<KpiSample>,
    messages: Vec<SignalingMessage>,
}

impl XcalLogger {
    /// Start logging a test at `start_plan_s`.
    pub fn start(op: Operator, test_label: &'static str, start_plan_s: f64) -> Self {
        XcalLogger {
            op,
            test_label,
            start_plan_s,
            samples: Vec::new(),
            messages: Vec::new(),
        }
    }

    /// Record a 500 ms KPI sample.
    pub fn log_sample(&mut self, sample: KpiSample) {
        debug_assert!(sample.time_s >= self.start_plan_s - 1e-6);
        self.samples.push(sample);
    }

    /// Record a handover (as its command/complete signaling pair).
    pub fn log_handover(&mut self, ev: &HandoverEvent) {
        let [a, b] = SignalingMessage::pair_for(ev);
        self.messages.push(a);
        self.messages.push(b);
    }

    /// Finish the log. `local_tz` is the vehicle's timezone at the test
    /// start — used for the (misleading) filename stamp.
    pub fn finish(self, local_tz: Timezone) -> XcalLog {
        let ts = Timestamp::from_plan_s(self.start_plan_s);
        let local = ts.as_local(local_tz);
        let file_name = format!(
            "XCAL_{}_{}_{:02}_{:02}-{:02}-{:02}.drm",
            self.op.code(),
            self.test_label,
            local.day,
            local.hour,
            local.min,
            local.sec
        );
        XcalLog {
            file_name,
            content_start_edt: ts.as_edt().to_string(),
            op: self.op,
            start_plan_s: self.start_plan_s,
            samples: self.samples,
            messages: self.messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_radio::band::Technology;
    use wheels_ran::cell::CellId;
    use wheels_ran::handover::HandoverKind;

    #[test]
    fn filename_uses_local_time_contents_use_edt() {
        // A test at plan 0 (midnight EDT) started in LA: the filename says
        // Aug 7 21:00, the contents say Aug 8 00:00.
        let log = XcalLogger::start(Operator::Verizon, "DL", 0.0).finish(Timezone::Pacific);
        assert!(log.file_name.contains("07_21-00-00"), "{}", log.file_name);
        assert!(log.content_start_edt.starts_with("2022-08-08 00:00:00"));
    }

    #[test]
    fn handover_logs_two_messages() {
        let mut l = XcalLogger::start(Operator::Att, "UL", 100.0);
        l.log_handover(&HandoverEvent {
            time_s: 105.0,
            from: (CellId(1), Technology::Lte),
            to: (CellId(2), Technology::Lte),
            duration_ms: 50.0,
            kind: HandoverKind::Horizontal4g,
        });
        let log = l.finish(Timezone::Central);
        assert_eq!(log.messages.len(), 2);
    }

    #[test]
    fn filename_carries_operator_code() {
        let log = XcalLogger::start(Operator::TMobile, "RTT", 3_600.0).finish(Timezone::Eastern);
        assert!(log.file_name.starts_with("XCAL_T_RTT_"));
    }
}
