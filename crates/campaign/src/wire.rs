//! Positional binary codec for checkpoint payloads and `.drm` files.
//!
//! A checkpoint payload is only ever read back by the build that wrote
//! it — a record from any other world is rejected by its header before
//! the payload is looked at — so it needs no field names, no schema
//! evolution and no text. The same encoding of an [`XcalLog`] is the
//! body of a `.drm` file (see [`crate::drm`]). Every value is written in
//! declaration order:
//!
//! * integers as fixed-width little-endian (`usize` as a `u64`);
//! * floats as their `to_bits()` pattern, little-endian, so they
//!   round-trip exactly, `-0.0` and NaN payloads included;
//! * `bool`, `Option` and fieldless enums as one tag byte;
//! * `String` and `Vec` as a `u64` length prefix, then the bytes or the
//!   elements.
//!
//! The decoder is total. It reads through `.get()` only, checks every
//! length prefix against the bytes that remain before it allocates,
//! checks each string's UTF-8 on its own, and [`decode`] rejects a
//! payload it does not consume exactly. The impls for the campaign's
//! types come from two macros: the encoder destructures every field and
//! the decoder builds a full struct literal, so adding a field to a
//! covered type is a compile error here, not a checkpoint that silently
//! drops it.

use std::fmt;

use wheels_fleet::{CellAcc, FleetUnitSketch, LoadHistogram, TechHourAcc};
use wheels_geo::{RegionKind, Timezone};
use wheels_netsim::server::ServerKind;
use wheels_radio::band::Technology;
use wheels_ran::cell::CellId;
use wheels_ran::handover::{HandoverEvent, HandoverKind};
use wheels_ran::operator::Operator;
use wheels_xcal::database::{AppMetrics, TestKind, TestRecord};
use wheels_xcal::handover_logger::{PassiveLogger, PassiveSample};
use wheels_xcal::kpi::KpiSample;
use wheels_xcal::logger::XcalLog;
use wheels_xcal::signaling::SignalingMessage;

use crate::checkpoint::UnitCheckpoint;
use crate::integrity::{UnitReport, UnitStatus};

/// Why a payload did not decode. Every offset is a byte position in the
/// payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended `need` bytes short of the value at `at`.
    Truncated {
        /// Where the value starts.
        at: usize,
        /// Bytes missing.
        need: usize,
    },
    /// The tag byte at `at` names no value of `what`.
    BadTag {
        /// Where the tag is.
        at: usize,
        /// The type being decoded.
        what: &'static str,
        /// The byte found.
        tag: u8,
    },
    /// The length prefix or count at `at` is larger than the remaining
    /// bytes can hold, or than a `usize`.
    TooLarge {
        /// Where the prefix is.
        at: usize,
        /// The value found.
        value: u64,
    },
    /// The string at `at` is not UTF-8.
    Utf8 {
        /// Where the string's bytes start.
        at: usize,
    },
    /// `count` bytes were left after the value was decoded.
    Trailing {
        /// Bytes left over.
        count: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { at, need } => {
                write!(
                    f,
                    "payload ends {need} bytes short of the value at byte {at}"
                )
            }
            WireError::BadTag { at, what, tag } => {
                write!(f, "tag {tag} at byte {at} is no {what}")
            }
            WireError::TooLarge { at, value } => {
                write!(f, "length {value} at byte {at} exceeds the payload")
            }
            WireError::Utf8 { at } => write!(f, "string at byte {at} is not UTF-8"),
            WireError::Trailing { count } => write!(f, "{count} trailing bytes"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over a payload being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// The next `N` bytes.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let Some((head, tail)) = self.rest.split_first_chunk::<N>() else {
            return Err(WireError::Truncated {
                at: self.at,
                need: N - self.rest.len(),
            });
        };
        self.rest = tail;
        self.at += N;
        Ok(*head)
    }

    /// The next `n` bytes, borrowed.
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (Some(head), Some(tail)) = (self.rest.get(..n), self.rest.get(n..)) else {
            return Err(WireError::Truncated {
                at: self.at,
                need: n - self.rest.len(),
            });
        };
        self.rest = tail;
        self.at += n;
        Ok(head)
    }

    /// The next tag byte and its position.
    fn tag(&mut self) -> Result<(usize, u8), WireError> {
        let at = self.at;
        let [tag] = self.array()?;
        Ok((at, tag))
    }

    /// A length prefix for items of at least `min_item` bytes each,
    /// checked against the remaining bytes before anything is allocated.
    fn len_prefix(&mut self, min_item: usize) -> Result<usize, WireError> {
        let at = self.at;
        let value = u64::take(self)?;
        match usize::try_from(value) {
            Ok(n) if n <= self.rest.len() / min_item.max(1) => Ok(n),
            _ => Err(WireError::TooLarge { at, value }),
        }
    }
}

/// A value with a positional binary encoding.
pub trait Wire: Sized {
    /// The fewest bytes any encoding of `Self` takes. A length prefix is
    /// checked against it, so a corrupt prefix cannot reserve more
    /// elements than the remaining bytes could hold.
    const MIN_LEN: usize;

    /// Append the encoding of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Decode one value from the cursor.
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encode `value` into a fresh buffer.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Decode a `T` that takes up exactly `bytes`.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader { rest: bytes, at: 0 };
    let value = T::take(&mut r)?;
    match r.rest.len() {
        0 => Ok(value),
        count => Err(WireError::Trailing { count }),
    }
}

/// Encode a borrowed `Option`: what `Option<T>::put` writes.
fn put_option<T: Wire>(value: Option<&T>, out: &mut Vec<u8>) {
    match value {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            v.put(out);
        }
    }
}

/// Encode a slice: what `Vec<T>::put` writes.
fn put_slice<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u64).put(out);
    for item in items {
        item.put(out);
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.array().map(<$t>::from_le_bytes)
            }
        }
    )*};
}

wire_int!(u8, u32, u64);

macro_rules! wire_float {
    ($($t:ty as $bits:ty),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) {
                self.to_bits().put(out);
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
                <$bits>::take(r).map(<$t>::from_bits)
            }
        }
    )*};
}

wire_float!(f32 as u32, f64 as u64);

impl Wire for usize {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.at;
        let value = u64::take(r)?;
        usize::try_from(value).map_err(|_| WireError::TooLarge { at, value })
    }
}

impl Wire for bool {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.tag()? {
            (_, 0) => Ok(false),
            (_, 1) => Ok(true),
            (at, tag) => Err(WireError::BadTag {
                at,
                what: "bool",
                tag,
            }),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_option(self.as_ref(), out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.tag()? {
            (_, 0) => Ok(None),
            (_, 1) => T::take(r).map(Some),
            (at, tag) => Err(WireError::BadTag {
                at,
                what: "Option",
                tag,
            }),
        }
    }
}

impl Wire for String {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.len_prefix(1)?;
        let at = r.at;
        let bytes = r.bytes(n)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| WireError::Utf8 { at })
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        put_slice(self, out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.len_prefix(T::MIN_LEN)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::take(r)?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::take(r)?, B::take(r)?))
    }
}

/// `Wire` for a struct with named fields, listed with their types in
/// declaration order. That order is the wire order.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident: $fty:ty),* $(,)? }) => {
        impl Wire for $ty {
            const MIN_LEN: usize = 0 $(+ <$fty as Wire>::MIN_LEN)*;
            fn put(&self, out: &mut Vec<u8>) {
                let $ty { $($field),* } = self;
                $(<$fty as Wire>::put($field, out);)*
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($ty { $($field: <$fty as Wire>::take(r)?),* })
            }
        }
    };
}

/// `Wire` for a fieldless enum: each variant with its tag byte.
macro_rules! wire_enum {
    ($ty:ident { $($variant:ident = $tag:literal),* $(,)? }) => {
        impl Wire for $ty {
            const MIN_LEN: usize = 1;
            fn put(&self, out: &mut Vec<u8>) {
                out.push(match self { $($ty::$variant => $tag),* });
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
                match r.tag()? {
                    $((_, $tag) => Ok($ty::$variant),)*
                    (at, tag) => Err(WireError::BadTag { at, what: stringify!($ty), tag }),
                }
            }
        }
    };
}

wire_enum!(Operator { Verizon = 0, TMobile = 1, Att = 2 });
wire_enum!(TestKind {
    ThroughputDl = 0,
    ThroughputUl = 1,
    Rtt = 2,
    AppAr = 3,
    AppCav = 4,
    AppVideo = 5,
    AppGaming = 6,
});
wire_enum!(ServerKind { Cloud = 0, Edge = 1 });
wire_enum!(Timezone { Pacific = 0, Mountain = 1, Central = 2, Eastern = 3 });
wire_enum!(RegionKind { UrbanCore = 0, Urban = 1, Suburban = 2, Highway = 3 });
wire_enum!(Technology {
    Lte = 0,
    LteA = 1,
    Nr5gLow = 2,
    Nr5gMid = 3,
    Nr5gMmWave = 4,
});
wire_enum!(HandoverKind {
    Horizontal4g = 0,
    Horizontal5g = 1,
    Up4gTo5g = 2,
    Down5gTo4g = 3,
});
wire_enum!(UnitStatus { Ok = 0, Degraded = 1, Lost = 2 });

impl Wire for CellId {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        let CellId(id) = self;
        id.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u32::take(r).map(CellId)
    }
}

wire_struct!(KpiSample {
    time_s: f64,
    tput_mbps: Option<f32>,
    tech: Technology,
    cell: CellId,
    rsrp_dbm: f32,
    sinr_db: f32,
    mcs: u8,
    bler: f32,
    ca: u8,
    handovers_in_window: u8,
    speed_mps: f32,
    odometer_m: f64,
    region: RegionKind,
    timezone: Timezone,
    in_handover: bool,
});

/// One tag byte per variant, then the variant's fields in declaration
/// order.
impl Wire for SignalingMessage {
    const MIN_LEN: usize = 1 + f64::MIN_LEN + CellId::MIN_LEN + Technology::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            SignalingMessage::HandoverCommand {
                time_s,
                from_cell,
                from_tech,
                to_cell,
                to_tech,
                kind,
            } => {
                out.push(0);
                time_s.put(out);
                from_cell.put(out);
                from_tech.put(out);
                to_cell.put(out);
                to_tech.put(out);
                kind.put(out);
            }
            SignalingMessage::HandoverComplete {
                time_s,
                cell,
                interruption_ms,
            } => {
                out.push(1);
                time_s.put(out);
                cell.put(out);
                interruption_ms.put(out);
            }
            SignalingMessage::ServingCell { time_s, cell, tech } => {
                out.push(2);
                time_s.put(out);
                cell.put(out);
                tech.put(out);
            }
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.tag()? {
            (_, 0) => Ok(SignalingMessage::HandoverCommand {
                time_s: Wire::take(r)?,
                from_cell: Wire::take(r)?,
                from_tech: Wire::take(r)?,
                to_cell: Wire::take(r)?,
                to_tech: Wire::take(r)?,
                kind: Wire::take(r)?,
            }),
            (_, 1) => Ok(SignalingMessage::HandoverComplete {
                time_s: Wire::take(r)?,
                cell: Wire::take(r)?,
                interruption_ms: Wire::take(r)?,
            }),
            (_, 2) => Ok(SignalingMessage::ServingCell {
                time_s: Wire::take(r)?,
                cell: Wire::take(r)?,
                tech: Wire::take(r)?,
            }),
            (at, tag) => Err(WireError::BadTag {
                at,
                what: "SignalingMessage",
                tag,
            }),
        }
    }
}

wire_struct!(XcalLog {
    file_name: String,
    content_start_edt: String,
    op: Operator,
    start_plan_s: f64,
    samples: Vec<KpiSample>,
    messages: Vec<SignalingMessage>,
});

wire_struct!(AppMetrics {
    compressed: Option<bool>,
    e2e_ms_mean: Option<f32>,
    e2e_ms_median: Option<f32>,
    offload_fps: Option<f32>,
    map_accuracy: Option<f32>,
    qoe: Option<f32>,
    avg_bitrate_mbps: Option<f32>,
    rebuffer_frac: Option<f32>,
    send_bitrate_mbps: Option<f32>,
    net_latency_ms: Option<f32>,
    frame_drop_frac: Option<f32>,
});

wire_struct!(HandoverEvent {
    time_s: f64,
    from: (CellId, Technology),
    to: (CellId, Technology),
    duration_ms: f64,
    kind: HandoverKind,
});

wire_struct!(TestRecord {
    id: u32,
    op: Operator,
    kind: TestKind,
    start_s: f64,
    duration_s: f64,
    server_kind: ServerKind,
    server_name: String,
    is_static: bool,
    start_odometer_m: f64,
    end_odometer_m: f64,
    timezone: Timezone,
    frac_hs5g: f32,
    kpi: Vec<KpiSample>,
    rtt_ms: Vec<f32>,
    handovers: Vec<HandoverEvent>,
    app: Option<AppMetrics>,
});

wire_struct!(PassiveSample {
    time_s: f64,
    cell: CellId,
    tech: Technology,
    odometer_m: f64,
    speed_mps: f32,
    lon: f32,
});

impl Wire for PassiveLogger {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        put_slice(self.samples(), out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Vec::take(r).map(PassiveLogger::from_samples)
    }
}

wire_struct!(TechHourAcc {
    sub_hours_micro: u64,
    util_milli_hours: u64,
    cell_hours_micro: u64,
});

wire_struct!(CellAcc {
    cell: u32,
    tech: u8,
    subs: u64,
    util_milli_hours: u64,
    hours_micro: u64,
});

wire_struct!(LoadHistogram { bins: Vec<u64> });

wire_struct!(FleetUnitSketch {
    population: u64,
    sub_hours_micro: u64,
    tech_hour: Vec<TechHourAcc>,
    cells: Vec<CellAcc>,
    hist: LoadHistogram,
});

wire_struct!(UnitReport {
    unit: String,
    status: UnitStatus,
    attempts: u32,
    faults: Vec<String>,
    records_kept: usize,
    records_lost: usize,
    kpi_samples_lost: usize,
    truncated_kpi_frac: f64,
    passive_samples_lost: usize,
    backoff_s: f64,
    error: Option<String>,
});

/// The one encoder of a checkpoint's fields, in [`UnitCheckpoint`]'s
/// order. Owned checkpoints and borrowed outcomes both go through it, so
/// the commit path cannot drift from the decoder.
pub(crate) fn put_checkpoint(
    has_shard: bool,
    report: &UnitReport,
    records: &[TestRecord],
    passive: Option<&(Operator, PassiveLogger)>,
    fleet: Option<&FleetUnitSketch>,
    out: &mut Vec<u8>,
) {
    has_shard.put(out);
    report.put(out);
    put_slice(records, out);
    put_option(passive, out);
    put_option(fleet, out);
}

impl Wire for UnitCheckpoint {
    const MIN_LEN: usize = bool::MIN_LEN
        + UnitReport::MIN_LEN
        + Vec::<TestRecord>::MIN_LEN
        + Option::<(Operator, PassiveLogger)>::MIN_LEN
        + Option::<FleetUnitSketch>::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        let UnitCheckpoint {
            has_shard,
            report,
            records,
            passive,
            fleet,
        } = self;
        put_checkpoint(
            *has_shard,
            report,
            records,
            passive.as_ref(),
            fleet.as_ref(),
            out,
        );
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(UnitCheckpoint {
            has_shard: Wire::take(r)?,
            report: Wire::take(r)?,
            records: Wire::take(r)?,
            passive: Wire::take(r)?,
            fleet: Wire::take(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire>(v: &T) -> T {
        decode(&encode(v)).expect("decodes")
    }

    #[test]
    fn floats_keep_their_bits() {
        for x in [
            0.0f64,
            -0.0,
            1.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(roundtrip(&x).to_bits(), x.to_bits());
        }
        let nan = f32::from_bits(0x7fc0_1234);
        assert_eq!(roundtrip(&nan).to_bits(), nan.to_bits());
        assert_eq!(roundtrip(&-0.0f32).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn layout_is_positional_little_endian() {
        let v: (Option<u32>, String) = (Some(0x0102_0304), "hé".into());
        assert_eq!(
            encode(&v),
            [1, 4, 3, 2, 1, 3, 0, 0, 0, 0, 0, 0, 0, b'h', 0xc3, 0xa9]
        );
        assert_eq!(roundtrip(&v), v);
        assert_eq!(
            encode(&vec![Operator::Att, Operator::Verizon]),
            [2, 0, 0, 0, 0, 0, 0, 0, 2, 0]
        );
    }

    #[test]
    fn every_enum_tag_roundtrips() {
        for op in Operator::ALL {
            assert_eq!(roundtrip(&op), op);
        }
        for kind in TestKind::ALL {
            assert_eq!(roundtrip(&kind), kind);
        }
        for tech in Technology::ALL {
            assert_eq!(roundtrip(&tech), tech);
        }
        for kind in HandoverKind::ALL {
            assert_eq!(roundtrip(&kind), kind);
        }
        for tz in Timezone::ALL {
            assert_eq!(roundtrip(&tz), tz);
        }
        for region in RegionKind::ALL {
            assert_eq!(roundtrip(&region), region);
        }
        for s in [UnitStatus::Ok, UnitStatus::Degraded, UnitStatus::Lost] {
            assert_eq!(roundtrip(&s), s);
        }
        for k in [ServerKind::Cloud, ServerKind::Edge] {
            assert_eq!(roundtrip(&k), k);
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert_eq!(
            decode::<u64>(&[1, 2, 3]),
            Err(WireError::Truncated { at: 0, need: 5 })
        );
        assert_eq!(
            decode::<Operator>(&[3]),
            Err(WireError::BadTag {
                at: 0,
                what: "Operator",
                tag: 3
            })
        );
        assert_eq!(
            decode::<Option<bool>>(&[1, 2]),
            Err(WireError::BadTag {
                at: 1,
                what: "bool",
                tag: 2
            })
        );
        assert_eq!(
            decode::<bool>(&[0, 0]),
            Err(WireError::Trailing { count: 1 })
        );
        let mut overlong = u64::MAX.to_le_bytes().to_vec();
        overlong.push(0);
        assert_eq!(
            decode::<String>(&overlong),
            Err(WireError::TooLarge {
                at: 0,
                value: u64::MAX
            })
        );
        assert_eq!(
            decode::<String>(&[1, 0, 0, 0, 0, 0, 0, 0, 0xff]),
            Err(WireError::Utf8 { at: 8 })
        );
    }

    #[test]
    fn length_prefix_is_bounded_by_element_size() {
        // A KPI sample takes at least 44 bytes, so three cannot fit in
        // 40, whatever they hold: the prefix is refused before any
        // element is decoded.
        assert_eq!(KpiSample::MIN_LEN, 44);
        let mut bytes = 3u64.to_le_bytes().to_vec();
        bytes.resize(48, 0);
        assert_eq!(
            decode::<Vec<KpiSample>>(&bytes).err(),
            Some(WireError::TooLarge { at: 0, value: 3 })
        );
    }
}
