//! Property tests for the `.drm` codec under arbitrary content: every
//! log round-trips bit-exactly, every single-bit flip is rejected, and
//! no input makes the decoder panic.

use proptest::prelude::*;

use wheels_campaign::{drm, wire};
use wheels_geo::region::RegionKind;
use wheels_geo::timezone::Timezone;
use wheels_radio::band::Technology;
use wheels_ran::cell::CellId;
use wheels_ran::handover::{HandoverEvent, HandoverKind};
use wheels_ran::operator::Operator;
use wheels_xcal::kpi::KpiSample;
use wheels_xcal::logger::{XcalLog, XcalLogger};

/// Any one of `all`.
fn pick<T: Copy>(all: &'static [T]) -> impl Strategy<Value = T> {
    (0..all.len()).prop_map(move |i| all[i])
}

/// Any `f32` bit pattern, NaN payloads and `-0.0` included.
fn arb_f32() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

fn arb_sample() -> impl Strategy<Value = KpiSample> {
    (
        0.0f64..700_000.0,
        prop::option::of(arb_f32()),
        pick(&Technology::ALL),
        any::<u32>(),
        (arb_f32(), -20.0f32..45.0),
        (any::<u8>(), 0.0f32..0.9, any::<u8>(), any::<u8>()),
        (
            0.0f32..40.0,
            0.0f64..5_711_000.0,
            pick(&RegionKind::ALL),
            pick(&Timezone::ALL),
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                time_s,
                tput,
                tech,
                cell,
                (rsrp, sinr),
                (mcs, bler, ca, hos),
                (speed, od, reg, tz, ho),
            )| {
                KpiSample {
                    time_s,
                    tput_mbps: tput,
                    tech,
                    cell: CellId(cell),
                    rsrp_dbm: rsrp,
                    sinr_db: sinr,
                    mcs,
                    bler,
                    ca,
                    handovers_in_window: hos,
                    speed_mps: speed,
                    odometer_m: od,
                    region: reg,
                    timezone: tz,
                    in_handover: ho,
                }
            },
        )
}

fn arb_handover() -> impl Strategy<Value = HandoverEvent> {
    (
        0.0f64..600_000.0,
        (any::<u32>(), pick(&Technology::ALL)),
        (any::<u32>(), pick(&Technology::ALL)),
        1.0f64..500.0,
        pick(&HandoverKind::ALL),
    )
        .prop_map(|(time_s, from, to, duration_ms, kind)| HandoverEvent {
            time_s,
            from: (CellId(from.0), from.1),
            to: (CellId(to.0), to.1),
            duration_ms,
            kind,
        })
}

fn small_log() -> XcalLog {
    let mut logger = XcalLogger::start(Operator::Verizon, "UL", 1_000.0);
    logger.log_handover(&HandoverEvent {
        time_s: 1_001.0,
        from: (CellId(1), Technology::Lte),
        to: (CellId(2), Technology::Nr5gMid),
        duration_ms: 40.0,
        kind: HandoverKind::Up4gTo5g,
    });
    logger.finish(Timezone::Central)
}

proptest! {
    #[test]
    fn drm_roundtrips_arbitrary_logs(
        op in pick(&Operator::ALL),
        tz in pick(&Timezone::ALL),
        start in 0.0f64..600_000.0,
        samples in prop::collection::vec(arb_sample(), 0..40),
        hos in prop::collection::vec(arb_handover(), 0..8),
    ) {
        let mut logger = XcalLogger::start(op, "DL", start);
        for mut s in samples {
            s.time_s = s.time_s.max(start);
            logger.log_sample(s);
        }
        for h in &hos {
            logger.log_handover(h);
        }
        let log = logger.finish(tz);
        let back = drm::decode(&drm::encode(&log)).unwrap();
        prop_assert_eq!(wire::encode(&back), wire::encode(&log));
    }

    #[test]
    fn drm_rejects_random_bit_flips(
        flip_at in 0usize..400,
        flip_bit in 0u8..8,
    ) {
        let mut bytes = drm::encode(&small_log());
        let idx = flip_at % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        // The magic check catches a flip in the magic, the digest any
        // other: decode must never panic and never silently accept.
        prop_assert!(drm::decode(&bytes).is_err());
    }

    #[test]
    fn drm_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = drm::decode(&data);
        // Garbage behind a valid magic and digest reaches the body
        // decoder, which must reject it without panicking too.
        let mut framed = drm::MAGIC.to_vec();
        framed.extend_from_slice(&data);
        let digest = wheels_campaign::checkpoint::fnv1a64(&framed);
        framed.extend_from_slice(&digest.to_le_bytes());
        let _ = drm::decode(&framed);
    }
}
