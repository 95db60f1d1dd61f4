//! Property tests for the sketch merge laws the campaign relies on:
//! associativity, identity, determinism under arbitrary shard splits,
//! and agreement with an exact (per-observation) reference at small
//! populations where the exact computation is affordable.

use proptest::prelude::*;

use wheels_fleet::{
    load_bin, CellHourObs, FleetUnitSketch, LOAD_BINS, MICRO, TECH_SLOTS, UTIL_CLAMP,
};

/// An arbitrary stream of cell-hour observations, the raw material every
/// work unit folds. Values cover the full operating envelope including
/// overload (`util > 1`) and fractional spans.
fn arb_obs() -> impl Strategy<Value = CellHourObs> {
    (
        0u32..48,
        0u8..TECH_SLOTS as u8,
        0u8..24,
        0u64..5_000,
        0u64..2 * MICRO,
        0.0f64..1.5,
        1u64..=MICRO,
    )
        .prop_map(
            |(cell, tech, hour_of_day, subs, active_micro, util, span_micro)| CellHourObs {
                cell,
                tech,
                hour_of_day,
                subs,
                active_micro,
                util,
                span_micro,
            },
        )
}

fn fold(observations: &[CellHourObs]) -> FleetUnitSketch {
    let mut s = FleetUnitSketch::empty();
    for o in observations {
        s.observe(o);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c) for arbitrary observation groups.
    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(arb_obs(), 0..30),
        b in prop::collection::vec(arb_obs(), 0..30),
        c in prop::collection::vec(arb_obs(), 0..30),
    ) {
        let (sa, sb, sc) = (fold(&a), fold(&b), fold(&c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// The empty sketch is a two-sided identity.
    #[test]
    fn empty_is_identity(a in prop::collection::vec(arb_obs(), 0..40)) {
        let s = fold(&a);
        let mut left = FleetUnitSketch::empty();
        left.merge(&s);
        let mut right = s.clone();
        right.merge(&FleetUnitSketch::empty());
        prop_assert_eq!(&left, &s);
        prop_assert_eq!(&right, &s);
    }

    /// Splitting one observation stream into arbitrary contiguous shards
    /// and merging the per-shard sketches reproduces the single-shard
    /// sketch exactly — the `--jobs` independence theorem in miniature.
    #[test]
    fn any_shard_split_merges_to_the_whole(
        all in prop::collection::vec(arb_obs(), 1..80),
        cuts in prop::collection::vec(0usize..80, 0..6),
    ) {
        let whole = fold(&all);
        let mut bounds: Vec<usize> =
            cuts.iter().map(|c| c % (all.len() + 1)).collect();
        bounds.push(0);
        bounds.push(all.len());
        bounds.sort_unstable();
        let mut merged = FleetUnitSketch::empty();
        for w in bounds.windows(2) {
            merged.merge(&fold(&all[w[0]..w[1]]));
        }
        prop_assert_eq!(merged, whole);
    }

    /// Sketch totals agree with an exact per-observation reference at
    /// small populations: subscriber-hours match to fixed-point
    /// resolution and histogram mass is conserved bin by bin.
    #[test]
    fn sketch_matches_exact_reference(all in prop::collection::vec(arb_obs(), 0..60)) {
        let s = fold(&all);
        let exact_sub_hours: u64 = all.iter().map(|o| o.active_micro).sum();
        prop_assert_eq!(s.sub_hours_micro, exact_sub_hours);

        let mut exact_bins = vec![0u64; LOAD_BINS];
        for o in &all {
            exact_bins[load_bin(o.util)] += o.span_micro;
        }
        prop_assert_eq!(&s.hist.bins, &exact_bins);

        // Per-cell hour mass is conserved, and every utilization the
        // sketch accumulated stayed within the clamp envelope.
        for cell in &s.cells {
            let exact_hours: u64 = all
                .iter()
                .filter(|o| o.cell == cell.cell)
                .map(|o| o.span_micro)
                .sum();
            prop_assert_eq!(cell.hours_micro, exact_hours);
            let max_milli =
                (UTIL_CLAMP * 1e3 * (cell.hours_micro as f64 / MICRO as f64)).ceil() as u64;
            prop_assert!(cell.util_milli_hours <= max_milli + 1);
        }
    }
}
