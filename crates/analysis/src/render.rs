//! Text rendering helpers for figures and tables.

use crate::ecdf::Ecdf;

/// Render a row of an ECDF summary: label + p10/p25/p50/p75/p90/max.
pub(crate) fn cdf_row(label: &str, e: &Ecdf) -> String {
    if e.is_empty() {
        return format!("{label:<28} (no samples)");
    }
    let s = e.summary();
    format!(
        "{label:<28} n={:<6} p10={:>8.2} p25={:>8.2} p50={:>8.2} p75={:>8.2} p90={:>8.2} max={:>9.2}",
        e.len(),
        s[0],
        s[1],
        s[2],
        s[3],
        s[4],
        s[5]
    )
}

/// Header matching [`cdf_row`] columns.
pub(crate) fn cdf_header(title: &str) -> String {
    format!("{title}\n{}", "-".repeat(title.len().min(100)))
}

/// Render a percentage with one decimal.
pub(crate) fn pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

/// A fixed-width stacked-bar-style line for coverage shares.
pub(crate) fn share_bar(label: &str, shares: &[(&str, f64)]) -> String {
    let mut s = format!("{label:<12}");
    for (name, frac) in shares {
        s.push_str(&format!(" {name}={:>5.1}%", frac * 100.0));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_row_contains_stats() {
        let e = Ecdf::new((1..=100).map(|i| i as f64));
        let r = cdf_row("test", &e);
        assert!(r.contains("n=100"));
        assert!(r.contains("p50="));
    }

    #[test]
    fn empty_cdf_row() {
        assert!(cdf_row("x", &Ecdf::new([])).contains("no samples"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.685), "68.5%");
    }

    #[test]
    fn share_bar_lists_all() {
        let s = share_bar("Verizon", &[("LTE", 0.2), ("5G", 0.8)]);
        assert!(s.contains("LTE= 20.0%"));
        assert!(s.contains("5G= 80.0%"));
    }
}
