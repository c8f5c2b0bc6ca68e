//! Summary statistics the benchmark reports: medians, tail percentiles that
//! refuse to speak without enough samples, and geometric means.

/// Median of `xs` (mean of the two middle values for an even count); `NaN`
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples a percentile `p` (in `(0, 1)`) needs: at least ten samples must
/// lie beyond it, so p99 needs 1000.
pub fn samples_needed(p: f64) -> usize {
    (10.0 / (1.0 - p)).round() as usize
}

/// The `p`-quantile of `xs` by nearest rank, or `None` when fewer than
/// [`samples_needed`] samples back it — a p99 over 200 requests would be the
/// second-slowest request, not a tail.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if !(0.0..1.0).contains(&p) || xs.is_empty() || xs.len() < samples_needed(p) {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Geometric mean of positive values; `NaN` when empty or any value is not
/// positive.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_is_right_on_known_inputs() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[364.0]) - 364.0).abs() < 1e-9);
        // Each pairing counts equally: one huge ratio does not swamp the rest.
        assert!((geomean(&[1000.0, 0.001, 5.0]) - 5f64.powf(1.0 / 3.0)).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[2.0, 0.0]).is_nan());
        assert!(geomean(&[2.0, -1.0]).is_nan());
    }

    #[test]
    fn p99_is_refused_below_1000_samples() {
        assert_eq!(samples_needed(0.99), 1000);
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        // The median needs only twenty.
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
    }
}
