//! Order statistics over measured samples.

/// The median (mean of the two middle values for an even count); `0.0`
/// for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `values`; `0.0` for no
/// samples. Nearest rank never interpolates, so it is a value that was
/// actually observed.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples strictly above the nearest-rank `q`-quantile's rank: a
/// percentile is reported only when at least ten samples lie beyond it.
pub fn beyond(count: usize, q: f64) -> usize {
    let rank = ((q * count as f64).ceil() as usize).clamp(1, count.max(1));
    count.saturating_sub(rank)
}

/// `part / whole`, or `0.0` when `whole` is zero.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(100, 0.99), 1);
    }
}
