//! The few statistics the benchmark reports.

/// Median of a sample (0 for an empty one). Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The `p`-th percentile (`0 < p < 100`) of a sample, or `None` when
/// fewer than ten samples lie beyond it: a tail read off two or three
/// points is noise, so the caller reports a lower percentile or none.
/// Sorts in place.
pub fn percentile(values: &mut [f64], p: f64) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    let rank = (values.len() as f64 * p / 100.0).ceil() as usize;
    if rank == 0 || values.len() - rank.min(values.len()) < 10 {
        return None;
    }
    Some(values[rank - 1])
}

/// Coefficient of variation (standard deviation ÷ mean; 0 for fewer
/// than two samples).
pub fn cv(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), Some(990.0));
        // 999 of 1000 leaves one sample beyond p99.9.
        assert_eq!(percentile(&mut v, 99.9), None);
        let mut small: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut small, 99.0), None);
        assert_eq!(percentile(&mut small, 90.0), Some(90.0));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn cv_of_constant_and_spread_samples() {
        assert_eq!(cv(&[5.0, 5.0, 5.0]), 0.0);
        assert!((cv(&[9.0, 10.0, 11.0]) - 0.1).abs() < 1e-12);
        assert_eq!(cv(&[1.0]), 0.0);
    }
}
