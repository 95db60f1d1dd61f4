//! The float formatter against its oracle.
//!
//! `serde::ser::write_float` prints floats without `core::fmt`. Its
//! contract is the old output: `format!("{x:.1}")` on the integral path
//! (`|x| < 1e15` and no fraction), `format!("{x}")` everywhere else, and
//! `null` for non-finite values. These tests hold it to that over random
//! bit patterns of both widths, hand-picked edge cases, and a strided
//! sweep of the `f32` patterns; the full `f32` sweep is `#[ignore]`d
//! (`cargo test --release --test float_format_proptests -- --ignored`).

use std::fmt::{Display, Write as _};

use proptest::prelude::*;
use serde::ser::{write_float, JsonFloat};

/// The token the formatter must produce for `x`.
fn oracle<T: JsonFloat + Display>(x: T, is_finite: bool, out: &mut String) {
    out.clear();
    if !is_finite {
        out.push_str("null");
    } else if x.json_integer().is_some() {
        write!(out, "{x:.1}").unwrap();
    } else {
        write!(out, "{x}").unwrap();
    }
}

fn check_f64(x: f64, want: &mut String, got: &mut String) {
    oracle(x, x.is_finite(), want);
    got.clear();
    write_float(got, x);
    assert_eq!(got, want, "f64 bits {:#018x}", x.to_bits());
}

fn check_f32(x: f32, want: &mut String, got: &mut String) {
    oracle(x, x.is_finite(), want);
    got.clear();
    write_float(got, x);
    assert_eq!(got, want, "f32 bits {:#010x}", x.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200_000))]

    #[test]
    fn f64_matches_display_on_random_bit_patterns(bits in any::<u64>()) {
        check_f64(f64::from_bits(bits), &mut String::new(), &mut String::new());
    }

    #[test]
    fn f32_matches_display_on_random_bit_patterns(bits in any::<u32>()) {
        check_f32(f32::from_bits(bits), &mut String::new(), &mut String::new());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]

    /// Random bit patterns are mostly huge or tiny; the export's values
    /// are small measurements. Draw those too: a few significant digits
    /// at a modest scale, then the nearest float of each width.
    #[test]
    fn measurement_scale_values_match_display(
        digits in 0u64..100_000_000,
        scale in 0u32..12,
        negative in any::<bool>(),
    ) {
        let x = digits as f64 / 10f64.powi(scale as i32);
        let x = if negative { -x } else { x };
        let (mut want, mut got) = (String::new(), String::new());
        check_f64(x, &mut want, &mut got);
        check_f32(x as f32, &mut want, &mut got);
    }
}

#[test]
fn f64_edge_cases_match_display() {
    let (mut want, mut got) = (String::new(), String::new());
    let mut cases = vec![
        0.0,
        -0.0,
        f64::from_bits(1),                     // smallest subnormal
        f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        0.1,
        0.2,
        0.3,
        1.0 / 3.0,
        2.0 / 3.0,
        1e23,
        9007199254740992.0,
        // Around the integral path's 1e15 cut.
        1e15,
        -1e15,
        999_999_999_999_999.0,
        999_999_999_999_999.9,
        1e15 + 0.5,
        // Exact ties between two shortest candidates round up
        // (`…624.25` prints `…624.3`).
        2f64.powi(50) + 0.25,
        2f64.powi(50) + 0.75,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    for p in -323..=308 {
        let x: f64 = format!("1e{p}").parse().unwrap();
        cases.extend([
            x,
            f64::from_bits(x.to_bits() + 1),
            f64::from_bits(x.to_bits() - 1),
        ]);
    }
    for e in -1074..=1023i64 {
        // 2^e from its bits: a normal biased exponent, or one subnormal bit.
        let x = match e {
            -1022.. => f64::from_bits(((e + 1023) as u64) << 52),
            _ => f64::from_bits(1 << (e + 1074)),
        };
        cases.extend([
            x,
            f64::from_bits(x.to_bits() + 1),
            f64::from_bits(x.to_bits() - 1),
        ]);
    }
    for x in cases {
        check_f64(x, &mut want, &mut got);
        check_f64(-x, &mut want, &mut got);
    }
}

#[test]
fn f32_edge_cases_match_display() {
    let (mut want, mut got) = (String::new(), String::new());
    let mut cases = vec![
        0.0,
        -0.0,
        f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        0.1,
        0.3,
        16_777_216.0,
        16_777_218.0,
        1e15,
        2f32.powi(21) + 0.25,
        2f32.powi(21) + 0.75,
        f32::INFINITY,
        f32::NAN,
    ];
    for p in -45..=38 {
        let x: f32 = format!("1e{p}").parse().unwrap();
        cases.extend([
            x,
            f32::from_bits(x.to_bits() + 1),
            f32::from_bits(x.to_bits() - 1),
        ]);
    }
    for x in cases {
        check_f32(x, &mut want, &mut got);
        check_f32(-x, &mut want, &mut got);
    }
}

#[test]
fn f32_values_needing_nine_digits() {
    let (mut want, mut got) = (String::new(), String::new());
    for (bits, token) in [
        (0x4120_000b, "10.0000105"),
        (0x4120_1efd, "10.0075655"),
        (
            0x0000_0001,
            "0.000000000000000000000000000000000000000000001",
        ),
        (
            0x007f_ffff,
            "0.000000000000000000000000000000000000011754942",
        ),
        (0x7f7f_ffff, "340282350000000000000000000000000000000"),
    ] {
        let x = f32::from_bits(bits);
        check_f32(x, &mut want, &mut got);
        assert_eq!(got, token);
    }
}

/// Every `f32` pattern `k · STRIDE`: about 10.3 M of the 2^32, both signs,
/// every exponent. 419 is prime, so the sweep walks every low-bit residue.
#[test]
fn f32_strided_sweep_matches_display() {
    const STRIDE: u64 = 419;
    let (mut want, mut got) = (String::new(), String::new());
    let mut bits = 0u64;
    while bits <= u64::from(u32::MAX) {
        check_f32(f32::from_bits(bits as u32), &mut want, &mut got);
        bits += STRIDE;
    }
}

#[test]
#[ignore = "all 2^32 patterns: minutes in release"]
fn f32_exhaustive_sweep_matches_display() {
    let (mut want, mut got) = (String::new(), String::new());
    for bits in 0..=u32::MAX {
        check_f32(f32::from_bits(bits), &mut want, &mut got);
    }
}
