//! Median and quartiles of repeated measurements.

/// The median and quartiles of `n` samples. Quartiles follow Python's
/// `statistics.quantiles(data, n=4)` (its default "exclusive" method), so
/// spreads computed here and by a Python reader of the results agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle sample, or the mean of the two middle samples.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarize `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let median = match n {
            0 => return None,
            _ if n % 2 == 1 => s[n / 2],
            _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
        };
        if n == 1 {
            return Some(Summary {
                median,
                q1: median,
                q3: median,
                n,
            });
        }
        // Python's exact integer arithmetic; with two samples the clamp
        // makes `delta` negative, which extrapolates as Python does.
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
        };
        Some(Summary {
            median,
            q1: quartile(1),
            q3: quartile(3),
            n,
        })
    }
}
