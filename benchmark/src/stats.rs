//! Order statistics over timing samples.

/// Nearest-rank quantile `q` ∈ [0, 1] of `values` (NaN-free). The median
/// of an even count averages the two middle values. NaN when there are no
/// values, so an unmeasured metric cannot pass for a measured one.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if q == 0.5 && sorted.len().is_multiple_of(2) {
        let hi = sorted.len() / 2;
        return (sorted[hi - 1] + sorted[hi]) / 2.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Mebibytes in a byte count.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert!(median(&[]).is_nan());
    }
}
