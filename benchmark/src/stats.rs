//! Order statistics and the regression-bound arithmetic.

/// Sorts a sample in place (timings are never NaN).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
}

/// Nearest-rank percentile of a **sorted** sample; NaN when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; NaN when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Run-to-run spread of a metric: the distance between the first and
/// third quartile as a share of the median (the driver's statistic,
/// Python's `statistics.quantiles(values, n=4)`, exclusive method).
/// Fewer than four values give `(max - min) / median`; fewer than two
/// give 0.
pub fn rel_spread(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    let med = median(&v);
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    if n < 4 {
        return (v[n - 1] - v[0]) / med.abs();
    }
    let q = |k: f64| {
        // Exclusive quantile: position k*(n+1)/4 in 1-based ranks.
        let pos = k * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        v[lo - 1] + (pos - lo as f64).max(0.0) * (v[hi - 1] - v[lo - 1])
    };
    (q(3.0) - q(1.0)) / med.abs()
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By how much `new` is worse than `base`, as a share of `base`
/// (negative = better).
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 75.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((rel_spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(rel_spread(&[5.0]), 0.0);
        assert!((rel_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(100.0, 107.0, Better::Lower) - 0.07).abs() < 1e-12);
        assert!((worsening(100.0, 93.0, Better::Higher) - 0.07).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, Better::Lower) < 0.0);
    }
}
