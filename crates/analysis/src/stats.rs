//! Basic statistics: mean, standard deviation, percentiles, Pearson's r.

/// Arithmetic mean (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Population standard deviation (0 for fewer than 2 samples).
pub(crate) fn std_dev(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = mean(v);
    (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
}

/// `p`-th percentile (0 ≤ p ≤ 100) with linear interpolation.
/// Returns 0 for an empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile_sorted(&s, p)
}

/// `p`-th percentile of an already sorted slice.
pub(crate) fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Pearson's correlation coefficient between paired samples.
/// Returns 0 when either side has no variance or fewer than 2 pairs.
pub(crate) fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson needs paired samples");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let mx = mean(x);
    let my = mean(y);
    let mut num = 0.0;
    let mut dx2 = 0.0;
    let mut dy2 = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        num += dx * dy;
        dx2 += dx * dx;
        dy2 += dy * dy;
    }
    if dx2 <= 0.0 || dy2 <= 0.0 {
        return 0.0;
    }
    num / (dx2 * dy2).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&v, 25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_value() {
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let yn = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &yn) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_uncorrelated_near_zero() {
        let x: Vec<f64> = (0..1000).map(|i| i as f64 * 7.0 % 13.0).collect();
        let y: Vec<f64> = (0..1000).map(|i| i as f64 * 11.0 % 17.0).collect();
        assert!(pearson(&x, &y).abs() < 0.15);
    }

    #[test]
    fn pearson_degenerate_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "paired")]
    fn pearson_mismatched_panics() {
        pearson(&[1.0], &[1.0, 2.0]);
    }
}
