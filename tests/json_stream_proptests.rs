//! Property tests for the streaming JSON writer.
//!
//! The export byte-equivalence gates in ci.sh pin the serializer on the
//! one document shape the campaign produces; these properties pin it on
//! arbitrary [`Value`] trees instead: serialize → parse → serialize is
//! byte-stable (parsed numbers re-emit their original token via
//! `Num::Raw`, strings survive escaping, container layout is
//! reproduced), compact and pretty.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Num, Value};

/// Generates an arbitrary `Value` tree, bounded in depth and fan-out.
///
/// Leaves cover every scalar the writer distinguishes: null, bools,
/// finite floats of both widths (integral and not), integers at their
/// extremes, and strings that force every escape class (quotes,
/// backslashes, control bytes, multi-byte UTF-8).
struct ArbValue {
    depth: u32,
}

const STRING_POOL: &[&str] = &[
    "",
    "plain",
    "key with spaces",
    "quote\"inside",
    "back\\slash",
    "line\nbreak\ttab",
    "control\u{1}\u{1f}",
    "unicode héllo → 😀 𝄞",
    "\u{8}\u{c}\r mix",
];

impl Strategy for ArbValue {
    type Value = Value;

    fn generate(&self, rng: &mut SmallRng) -> Value {
        let scalar_only = self.depth == 0;
        let pick = if scalar_only {
            rng.gen_range(0..6)
        } else {
            rng.gen_range(0..8)
        };
        match pick {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_range(0..2) == 0),
            2 => {
                let x: f64 = match rng.gen_range(0..4) {
                    0 => rng.gen_range(-1.0e6..1.0e6),
                    1 => rng.gen_range(-100i64..100) as f64, // integral: x.0 layout
                    2 => rng.gen_range(-1.0e18..1.0e18),     // beyond the {:.1} guard
                    _ => rng.gen_range(-1.0e-6..1.0e-6),
                };
                Value::Num(Num::F64(x))
            }
            3 => {
                let x: f32 = if rng.gen_range(0..2) == 0 {
                    rng.gen_range(-1.0e6f32..1.0e6)
                } else {
                    rng.gen_range(-50i32..50) as f32
                };
                Value::Num(Num::F32(x))
            }
            4 => {
                if rng.gen_range(0..2) == 0 {
                    Value::Num(Num::U64(rng.gen()))
                } else {
                    Value::Num(Num::I64(rng.gen::<u64>() as i64))
                }
            }
            5 => Value::Str(STRING_POOL[rng.gen_range(0..STRING_POOL.len())].to_string()),
            6 => {
                let n = rng.gen_range(0..5);
                let child = ArbValue {
                    depth: self.depth - 1,
                };
                Value::Array((0..n).map(|_| child.generate(rng)).collect())
            }
            _ => {
                let n = rng.gen_range(0..5);
                let child = ArbValue {
                    depth: self.depth - 1,
                };
                Value::Object(
                    (0..n)
                        .map(|i| {
                            let key = format!(
                                "{}{i}",
                                STRING_POOL[rng.gen_range(0..STRING_POOL.len())]
                            );
                            (key, child.generate(rng))
                        })
                        .collect(),
                )
            }
        }
    }
}

proptest! {
    #[test]
    fn serialize_parse_serialize_is_byte_stable_pretty(v in ArbValue { depth: 4 }) {
        let first = serde_json::to_string_pretty(&v).expect("value serializes");
        let back: Value = serde_json::from_str(&first).expect("own output parses");
        let second = serde_json::to_string_pretty(&back).expect("reparse serializes");
        prop_assert_eq!(&first, &second);
    }

    #[test]
    fn serialize_parse_serialize_is_byte_stable_compact(v in ArbValue { depth: 4 }) {
        let first = serde_json::to_string(&v).expect("value serializes");
        let back: Value = serde_json::from_str(&first).expect("own output parses");
        let second = serde_json::to_string(&back).expect("reparse serializes");
        prop_assert_eq!(&first, &second);
    }
}
