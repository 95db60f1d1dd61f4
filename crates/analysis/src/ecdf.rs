//! Empirical CDFs — the paper's figures are almost all CDF plots.

use crate::stats::percentile_sorted;

/// An empirical CDF over f64 samples.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples (non-finite values are dropped).
    pub fn new(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|v| v.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        Ecdf { sorted }
    }

    /// Build from a column that is already sorted ascending (e.g. a
    /// pre-sorted [`crate::index::AnalysisIndex`] metric column) — no
    /// re-sort, no copy.
    pub(crate) fn from_sorted(sorted: Vec<f64>) -> Self {
        debug_assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]) && sorted.iter().all(|v| v.is_finite()),
            "from_sorted needs finite ascending samples"
        );
        Ecdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn frac_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.partition_point(|&v| v <= x) as f64 / self.sorted.len() as f64
    }

    /// Value at percentile `p` (0–100).
    pub fn percentile(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted, p)
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Minimum sample (0 if empty).
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Maximum sample (0 if empty).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// A compact five-number-plus summary: (p10, p25, p50, p75, p90, max).
    pub fn summary(&self) -> [f64; 6] {
        [
            self.percentile(10.0),
            self.percentile(25.0),
            self.percentile(50.0),
            self.percentile(75.0),
            self.percentile(90.0),
            self.max(),
        ]
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frac_below_basics() {
        let e = Ecdf::new([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.frac_below(0.5), 0.0);
        assert_eq!(e.frac_below(2.0), 0.5);
        assert_eq!(e.frac_below(10.0), 1.0);
    }

    #[test]
    fn percentiles_and_extremes() {
        let e = Ecdf::new((1..=100).map(|i| i as f64));
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 100.0);
        assert!((e.median() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn drops_non_finite() {
        let e = Ecdf::new([1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn empty_is_safe() {
        let e = Ecdf::new([]);
        assert!(e.is_empty());
        assert_eq!(e.median(), 0.0);
    }

    #[test]
    fn summary_ordered() {
        let e = Ecdf::new((0..1000).map(|i| (i as f64).sin() * 50.0 + 50.0));
        let s = e.summary();
        for w in s.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
    }
}
