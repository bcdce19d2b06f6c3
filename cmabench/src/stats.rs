//! Order statistics over measured samples.

/// Sorted copy of `values` (NaN-free input assumed: every sample is a
/// measured duration or a finite ratio).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) with linear interpolation between the
/// closest ranks, as `numpy.percentile` computes it by default.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let v = sorted(values);
    let rank = p * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of strictly positive values; `None` for an empty sample.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), None);
    }
}
