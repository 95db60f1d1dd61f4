//! ASCII coverage maps along the route — the textual analogue of Fig. 1's
//! per-operator coverage maps.
//!
//! The route is split into equal odometer bins; each bin is drawn as one
//! character for the technology that covered the most distance within it:
//!
//! | char | technology |
//! |---|---|
//! | `.` | LTE |
//! | `-` | LTE-A |
//! | `l` | 5G-low |
//! | `M` | 5G-mid |
//! | `W` | 5G-mmWave |
//! | ` ` | no samples in the bin |

use wheels_radio::band::Technology;
use wheels_ran::operator::Operator;
use wheels_xcal::database::ConsolidatedDb;
use wheels_xcal::handover_logger::PassiveLogger;
use wheels_xcal::kpi::KpiSample;

/// Character used for a technology.
pub fn tech_char(t: Technology) -> char {
    match t {
        Technology::Lte => '.',
        Technology::LteA => '-',
        Technology::Nr5gLow => 'l',
        Technology::Nr5gMid => 'M',
        Technology::Nr5gMmWave => 'W',
    }
}

fn dominant(meters: &[f64; 5]) -> Option<Technology> {
    let (idx, &m) = meters
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("five technologies");
    (m > 0.0).then(|| Technology::ALL[idx])
}

/// Build a coverage map of `width` characters from KPI samples.
pub fn map_from_kpi<'a>(
    samples: impl Iterator<Item = &'a KpiSample>,
    total_m: f64,
    width: usize,
) -> String {
    assert!(width > 0 && total_m > 0.0);
    let mut bins = vec![[0.0f64; 5]; width];
    for k in samples {
        let b = ((k.odometer_m / total_m) * width as f64) as usize;
        let b = b.min(width - 1);
        let t = Technology::ALL
            .iter()
            .position(|&x| x == k.tech)
            .expect("known technology");
        bins[b][t] += k.speed_mps as f64 * 0.5;
    }
    bins.iter()
        .map(|m| dominant(m).map_or(' ', tech_char))
        .collect()
}

/// Build a coverage map from a passive handover-logger trace.
pub fn map_from_passive(log: &PassiveLogger, total_m: f64, width: usize) -> String {
    assert!(width > 0 && total_m > 0.0);
    let mut bins = vec![[0.0f64; 5]; width];
    for w in log.samples().windows(2) {
        let d = (w[1].odometer_m - w[0].odometer_m).max(0.0);
        let b = ((w[0].odometer_m / total_m) * width as f64) as usize;
        let b = b.min(width - 1);
        let t = Technology::ALL
            .iter()
            .position(|&x| x == w[0].tech)
            .expect("known technology");
        bins[b][t] += d;
    }
    bins.iter()
        .map(|m| dominant(m).map_or(' ', tech_char))
        .collect()
}

/// Render the Fig. 1 comparison for an explicit operator panel: for each
/// operator, the passive map above the active (test-time) map.
pub fn render_fig1_maps_for(
    db: &ConsolidatedDb,
    total_m: f64,
    width: usize,
    ops: &[Operator],
) -> String {
    let mut out = String::from(
        "Route coverage maps (LA → Boston; . LTE, - LTE-A, l 5G-low, M 5G-mid, W mmWave)\n",
    );
    for &op in ops {
        if let Some(p) = db.passive_for(op) {
            out.push_str(&format!(
                "{:>9} passive |{}|\n",
                op.label(),
                map_from_passive(p, total_m, width)
            ));
        }
        let active = map_from_kpi(
            db.records
                .iter()
                .filter(|r| r.op == op && !r.is_static)
                .flat_map(|r| r.kpi.iter()),
            total_m,
            width,
        );
        out.push_str(&format!("{:>9} active  |{active}|\n\n", op.label()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_support::network_db;

    const TOTAL: f64 = 5_711_000.0;

    #[test]
    fn chars_distinct() {
        let mut chars: Vec<char> = Technology::ALL.iter().map(|&t| tech_char(t)).collect();
        chars.sort_unstable();
        chars.dedup();
        assert_eq!(chars.len(), 5);
    }

    #[test]
    fn maps_have_requested_width() {
        let db = network_db();
        let m = render_fig1_maps_for(db, TOTAL, 72, &Operator::ALL);
        for line in m.lines().filter(|l| l.contains('|')) {
            let inner = line.split('|').nth(1).expect("map body");
            assert_eq!(inner.chars().count(), 72, "{line}");
        }
    }

    #[test]
    fn att_passive_map_has_no_5g() {
        // Fig. 1d: AT&T passive shows LTE/LTE-A only.
        let db = network_db();
        let p = db.passive_for(Operator::Att).expect("passive log present");
        let map = map_from_passive(p, TOTAL, 100);
        assert!(!map.contains('M') && !map.contains('W'), "{map}");
    }

    #[test]
    fn tmobile_active_map_shows_midband() {
        let db = network_db();
        let map = map_from_kpi(
            db.records
                .iter()
                .filter(|r| r.op == Operator::TMobile && !r.is_static)
                .flat_map(|r| r.kpi.iter()),
            TOTAL,
            100,
        );
        assert!(map.contains('M'), "{map}");
    }

    #[test]
    fn empty_samples_give_blank_map() {
        let map = map_from_kpi(std::iter::empty(), TOTAL, 20);
        assert_eq!(map, " ".repeat(20));
    }
}
