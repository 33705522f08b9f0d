//! Order statistics over measured samples.

/// Sorts a sample ascending (NaN-free by construction: every sample is a
/// measured duration or count).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Nearest-rank quantile `q` (0 < q ≤ 1) of an ascending sample; `NaN` for
/// an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending sample (the mean of the two middle values when
/// the count is even).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `NaN` for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The tail statistic reported as `p99`: the 99th percentile when at least
/// ten samples lie beyond it (n ≥ 1000), otherwise the sample maximum, which
/// bounds the 99th percentile from above. Returns the value and the label
/// of what was taken.
pub fn p99_or_max(sorted: &[f64]) -> (f64, &'static str) {
    if sorted.len() >= 1000 {
        (quantile(sorted, 0.99), "p99")
    } else {
        (sorted.last().copied().unwrap_or(f64::NAN), "max")
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs = sorted((1..=100).map(f64::from).collect());
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(median(&xs), 50.5);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn tail_falls_back_to_max_below_a_thousand_samples() {
        let small = sorted(vec![1.0, 5.0, 3.0]);
        assert_eq!(p99_or_max(&small), (5.0, "max"));
        let big = sorted((1..=1000).map(f64::from).collect());
        assert_eq!(p99_or_max(&big), (990.0, "p99"));
    }
}
