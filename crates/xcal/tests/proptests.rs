//! Property tests for the logging substrate's timestamps.

use proptest::prelude::*;

use wheels_geo::timezone::Timezone;
use wheels_xcal::timestamp::Timestamp;

proptest! {
    #[test]
    fn timestamp_formats_roundtrip(plan_s in -3600.0f64..9.0*86_400.0, tz_i in 0usize..4) {
        // Negative plan times occur for pre-dawn Pacific stamps.
        let tz = Timezone::ALL[tz_i];
        let t = Timestamp::from_plan_s(plan_s);
        let local = Timestamp::parse_local(&t.as_local(tz).to_string(), tz).unwrap();
        prop_assert!((local.plan_s - plan_s).abs() < 0.002);
        let edt = Timestamp::parse_edt(&t.as_edt().to_string()).unwrap();
        prop_assert!((edt.plan_s - plan_s).abs() < 0.002);
    }

    #[test]
    fn cross_format_misparse_shifts_by_whole_hours(plan_s in 4.0*3600.0f64..86_400.0) {
        let t = Timestamp::from_plan_s(plan_s);
        let wrong = Timestamp::parse_edt(&t.as_utc().to_string()).unwrap();
        let shift_h = (wrong.plan_s - plan_s) / 3_600.0;
        prop_assert!((shift_h - 4.0).abs() < 1e-6);
    }
}
