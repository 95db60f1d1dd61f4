//! The binary `.drm` codec for XCAL logs.
//!
//! The real XCAL Solo writes proprietary binary `.drm` files that only the
//! licensed XCAP-M software can parse — §B calls the resulting manual
//! post-processing "a major challenge". We implement the equivalent
//! substrate, so the pipeline (capture → binary file → parse →
//! consolidate) exists end to end. The body is the checkpoint codec's
//! encoding of the [`XcalLog`], framed by a magic and a digest:
//!
//! ```text
//! magic   "DRM2"                                4 bytes
//! body    wire::encode(&XcalLog)                n bytes
//! digest  fnv1a64(magic ‖ body), little-endian  8 bytes
//! ```
//!
//! Decoding is total: it never panics, rejects trailing bytes, and gives
//! back a log whose encoding equals the original's bit for bit.

use std::fmt;

use wheels_xcal::database::TestRecord;
use wheels_xcal::logger::{XcalLog, XcalLogger};

use crate::checkpoint::fnv1a64;
use crate::wire::{self, Wire, WireError};

/// File magic.
pub const MAGIC: &[u8; 4] = b"DRM2";

/// Bytes of a file around its body: magic and digest.
const FRAME_LEN: usize = MAGIC.len() + 8;

/// Why a `.drm` file did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrmError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The digest does not match the bytes before it.
    BadDigest,
    /// The file is too short for its frame, or its body is not an
    /// encoded log.
    Wire(WireError),
}

impl fmt::Display for DrmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrmError::BadMagic => write!(f, "bad magic"),
            DrmError::BadDigest => write!(f, "digest mismatch"),
            DrmError::Wire(e) => write!(f, "bad body: {e}"),
        }
    }
}

impl std::error::Error for DrmError {}

/// The XCAL log of one test: its KPI samples, and each handover as a
/// command/complete signaling pair.
pub fn log_for(record: &TestRecord) -> XcalLog {
    let mut logger = XcalLogger::start(record.op, record.kind.label(), record.start_s);
    for k in &record.kpi {
        logger.log_sample(*k);
    }
    for h in &record.handovers {
        logger.log_handover(h);
    }
    logger.finish(record.timezone)
}

/// Encode a log into `.drm` bytes.
pub fn encode(log: &XcalLog) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    log.put(&mut out);
    let digest = fnv1a64(&out);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// Decode `.drm` bytes back into a log.
pub fn decode(bytes: &[u8]) -> Result<XcalLog, DrmError> {
    let Some((signed, digest)) = bytes
        .split_last_chunk::<8>()
        .filter(|(signed, _)| signed.len() >= MAGIC.len())
    else {
        return Err(DrmError::Wire(WireError::Truncated {
            at: 0,
            need: FRAME_LEN - bytes.len(),
        }));
    };
    let body = signed.strip_prefix(MAGIC).ok_or(DrmError::BadMagic)?;
    if fnv1a64(signed) != u64::from_le_bytes(*digest) {
        return Err(DrmError::BadDigest);
    }
    wire::decode(body).map_err(DrmError::Wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_geo::region::RegionKind;
    use wheels_geo::timezone::Timezone;
    use wheels_radio::band::Technology;
    use wheels_ran::cell::CellId;
    use wheels_ran::handover::{HandoverEvent, HandoverKind};
    use wheels_ran::operator::Operator;
    use wheels_xcal::kpi::KpiSample;

    fn sample(t: f64, tput: Option<f32>) -> KpiSample {
        KpiSample {
            time_s: t,
            tput_mbps: tput,
            tech: Technology::Nr5gMid,
            cell: CellId(777),
            rsrp_dbm: -93.5,
            sinr_db: 11.25,
            mcs: 17,
            bler: 0.085,
            ca: 2,
            handovers_in_window: 1,
            speed_mps: 28.5,
            odometer_m: 123_456.75,
            region: RegionKind::Suburban,
            timezone: Timezone::Central,
            in_handover: false,
        }
    }

    fn make_log() -> XcalLog {
        let mut l = XcalLogger::start(Operator::TMobile, "DL", 12_345.0);
        l.log_sample(sample(12_345.5, Some(42.5)));
        l.log_sample(sample(12_346.0, None));
        l.log_handover(&HandoverEvent {
            time_s: 12_346.2,
            from: (CellId(777), Technology::Nr5gMid),
            to: (CellId(778), Technology::LteA),
            duration_ms: 61.5,
            kind: HandoverKind::Down5gTo4g,
        });
        l.finish(Timezone::Central)
    }

    /// Decode the log's file and check the result encodes to the same
    /// bytes as the original.
    fn assert_exact_roundtrip(log: &XcalLog) {
        let back = decode(&encode(log)).expect("own encoding decodes");
        assert_eq!(wire::encode(&back), wire::encode(log));
    }

    #[test]
    fn roundtrip_is_exact() {
        assert_exact_roundtrip(&make_log());
    }

    #[test]
    fn long_file_name_roundtrips() {
        // Longer than a u16 length prefix can hold.
        let mut log = make_log();
        log.file_name = "x".repeat(70_000);
        assert_exact_roundtrip(&log);
    }

    #[test]
    fn nan_throughput_stays_some() {
        let mut log = make_log();
        log.samples[0].tput_mbps = Some(f32::NAN);
        assert_exact_roundtrip(&log);
        let back = decode(&encode(&log)).expect("decodes");
        assert!(back.samples[0].tput_mbps.is_some_and(f32::is_nan));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&make_log());
        bytes[0] = b'X';
        assert_eq!(decode(&bytes).unwrap_err(), DrmError::BadMagic);
    }

    #[test]
    fn corruption_caught_by_digest() {
        let mut bytes = encode(&make_log());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert_eq!(decode(&bytes).unwrap_err(), DrmError::BadDigest);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let log = make_log();
        let mut bytes = MAGIC.to_vec();
        bytes.extend(wire::encode(&log));
        bytes.push(0);
        let digest = fnv1a64(&bytes);
        bytes.extend_from_slice(&digest.to_le_bytes());
        assert_eq!(
            decode(&bytes).unwrap_err(),
            DrmError::Wire(WireError::Trailing { count: 1 })
        );
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode(&make_log());
        assert_eq!(
            decode(&bytes[..6]).unwrap_err(),
            DrmError::Wire(WireError::Truncated { at: 0, need: 6 })
        );
        // Truncation inside the body also breaks the digest.
        assert_eq!(
            decode(&bytes[..bytes.len() - 10]).unwrap_err(),
            DrmError::BadDigest
        );
    }

    #[test]
    fn empty_log_roundtrips() {
        let log = XcalLogger::start(Operator::Att, "RTT", 0.0).finish(Timezone::Pacific);
        assert_exact_roundtrip(&log);
    }
}
