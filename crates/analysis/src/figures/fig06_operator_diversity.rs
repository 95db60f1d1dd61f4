//! Fig. 6: operator-wise throughput difference for tests done in parallel.
//!
//! The three phones run the round-robin simultaneously, so tests of the
//! same kind with the same start time are concurrent. For each operator
//! pair we compute per-500 ms throughput differences and break them into
//! technology bins: HT = high-throughput (5G mid/mmWave), LT = everything
//! else (§5.4).

use std::collections::BTreeMap;

use wheels_ran::operator::Operator;
use wheels_ran::Direction;

use crate::ecdf::Ecdf;
use crate::index::AnalysisIndex;
use crate::render::{cdf_header, cdf_row};

/// Technology bin of a concurrent sample pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TechBin {
    /// Both operators on high-throughput technologies.
    HtHt,
    /// First operator HT, second LT.
    HtLt,
    /// First operator LT, second HT.
    LtHt,
    /// Both on low-throughput technologies.
    LtLt,
}

impl TechBin {
    /// All bins in the paper's order.
    pub const ALL: [TechBin; 4] = [TechBin::HtHt, TechBin::HtLt, TechBin::LtHt, TechBin::LtLt];

    /// Label.
    pub fn label(self) -> &'static str {
        match self {
            TechBin::HtHt => "HT-HT",
            TechBin::HtLt => "HT-LT",
            TechBin::LtHt => "LT-HT",
            TechBin::LtLt => "LT-LT",
        }
    }
}

/// The operator pairs in the paper's presentation order.
pub const PAIRS: [(Operator, Operator); 3] = [
    (Operator::Verizon, Operator::TMobile),
    (Operator::TMobile, Operator::Att),
    (Operator::Att, Operator::Verizon),
];

/// Cyclically adjacent operator pairs of a panel: each operator against
/// the next, wrapping around. For the paper panel this reproduces
/// [`PAIRS`]; a two-operator panel yields the single pair.
pub(crate) fn panel_pairs(ops: &[Operator]) -> Vec<(Operator, Operator)> {
    match ops.len() {
        0 | 1 => Vec::new(),
        2 => vec![(ops[0], ops[1])],
        n => (0..n).map(|i| (ops[i], ops[(i + 1) % n])).collect(),
    }
}

/// Results for one (pair, direction).
#[derive(Debug, Clone)]
pub struct PairDiff {
    /// The two operators (diff = first − second).
    pub pair: (Operator, Operator),
    /// Direction.
    pub dir: Direction,
    /// All concurrent throughput differences, Mbps.
    pub all: Ecdf,
    /// Differences per technology bin.
    pub by_bin: Vec<(TechBin, Ecdf)>,
}

impl PairDiff {
    /// Fraction of samples in each bin.
    pub fn bin_fractions(&self) -> Vec<(TechBin, f64)> {
        let total: usize = self.by_bin.iter().map(|(_, e)| e.len()).sum();
        self.by_bin
            .iter()
            .map(|(b, e)| (*b, e.len() as f64 / total.max(1) as f64))
            .collect()
    }
}

/// Fig. 6 data.
#[derive(Debug, Clone)]
pub struct OperatorDiversity {
    /// One entry per (pair, direction).
    pub diffs: Vec<PairDiff>,
}

/// Compute Fig. 6 from the index's concurrent-test pairing maps.
pub fn compute(ix: &AnalysisIndex<'_>) -> OperatorDiversity {
    let mut diffs = Vec::new();
    for dir in Direction::BOTH {
        let by_time = ix.concurrent_map(dir);
        for pair in panel_pairs(ix.ops()) {
            let mut all = Vec::new();
            let mut bins: BTreeMap<TechBin, Vec<f64>> = BTreeMap::new();
            for ((op, t), &ra) in by_time {
                if *op != pair.0 {
                    continue;
                }
                let Some(&rb) = by_time.get(&(pair.1, *t)) else {
                    continue;
                };
                let (ra, rb) = (ix.record(ra), ix.record(rb));
                for (ka, kb) in ra.kpi.iter().zip(rb.kpi.iter()) {
                    let (Some(ta), Some(tb)) = (ka.tput_mbps, kb.tput_mbps) else {
                        continue;
                    };
                    let d = ta as f64 - tb as f64;
                    all.push(d);
                    let bin = match (ka.tech.is_high_speed(), kb.tech.is_high_speed()) {
                        (true, true) => TechBin::HtHt,
                        (true, false) => TechBin::HtLt,
                        (false, true) => TechBin::LtHt,
                        (false, false) => TechBin::LtLt,
                    };
                    bins.entry(bin).or_default().push(d);
                }
            }
            diffs.push(PairDiff {
                pair,
                dir,
                all: Ecdf::new(all),
                by_bin: TechBin::ALL
                    .iter()
                    .map(|&b| (b, Ecdf::new(bins.remove(&b).unwrap_or_default())))
                    .collect(),
            });
        }
    }
    OperatorDiversity { diffs }
}

impl OperatorDiversity {
    /// Look up one (pair, direction).
    pub fn get(&self, pair: (Operator, Operator), dir: Direction) -> &PairDiff {
        self.diffs
            .iter()
            .find(|d| d.pair == pair && d.dir == dir)
            .expect("all combos computed")
    }

    /// Render the figure.
    pub fn render(&self) -> String {
        let mut out = cdf_header("Fig. 6 — operator-pair throughput differences (Mbps)");
        out.push('\n');
        for d in &self.diffs {
            let label = format!(
                "{}-{} {}",
                d.pair.0.code(),
                d.pair.1.code(),
                d.dir.label()
            );
            out.push_str(&cdf_row(&label, &d.all));
            out.push('\n');
            for (bin, frac) in d.bin_fractions() {
                out.push_str(&format!("    {}: {:.1}% of samples", bin.label(), frac * 100.0));
                let e = &d.by_bin.iter().find(|(b, _)| *b == bin).expect("bin exists").1;
                if !e.is_empty() {
                    out.push_str(&format!(
                        " (median diff {:+.1}, first-op wins {:.0}%)",
                        e.median(),
                        (1.0 - e.frac_below(0.0)) * 100.0
                    ));
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_support::network_ix as small_ix;

    #[test]
    fn concurrent_pairs_exist() {
        let f = compute(small_ix());
        for d in &f.diffs {
            assert!(
                d.all.len() > 30,
                "{:?} {:?}: only {} concurrent samples",
                d.pair,
                d.dir,
                d.all.len()
            );
        }
    }

    #[test]
    fn htht_bin_is_rare() {
        // §5.4: the HT-HT bin contributes 0.3-10 % of samples.
        let f = compute(small_ix());
        let d = f.get((Operator::Att, Operator::Verizon), Direction::Uplink);
        let htht = d
            .bin_fractions()
            .into_iter()
            .find(|(b, _)| *b == TechBin::HtHt)
            .unwrap()
            .1;
        assert!(htht < 0.25, "HT-HT fraction {htht}");
    }

    #[test]
    fn diversity_spans_zero() {
        // Performance at a location is diverse: differences take both
        // signs (the multi-connectivity motivation).
        let f = compute(small_ix());
        for d in &f.diffs {
            if d.all.len() < 100 {
                continue;
            }
            let below = d.all.frac_below(0.0);
            assert!(
                (0.10..0.90).contains(&below),
                "{:?} {:?}: one-sided ({below})",
                d.pair,
                d.dir
            );
        }
    }

    #[test]
    fn ht_side_usually_wins_downlink() {
        // When one op is HT and the other LT in DL, the HT side should
        // win most (but not all — §5.4's interesting exception) samples.
        let f = compute(small_ix());
        let d = f.get((Operator::Verizon, Operator::TMobile), Direction::Downlink);
        let htlt = &d.by_bin.iter().find(|(b, _)| *b == TechBin::HtLt).unwrap().1;
        if htlt.len() > 50 {
            let win = 1.0 - htlt.frac_below(0.0);
            assert!(win > 0.5, "HT first-op win rate {win}");
        }
    }
}
