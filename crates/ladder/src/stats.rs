//! Medians, percentiles and the spread measure the benchmark contract
//! uses, on plain `f64` slices.

/// Sorts `values` ascending (NaN-free input).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings and counts are never NaN"));
    v
}

/// The `p`-th percentile (`0.0..=100.0`) by linear interpolation between
/// closest ranks; `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let last = v.len().checked_sub(1)?;
    let rank = p.clamp(0.0, 100.0) / 100.0 * last as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The median; 0 for an empty slice (a layer that did no work).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// The arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of p90 / p95 / p99 / p99.9 that still has at least ten
/// samples beyond it among `n` samples — the only tail worth reporting.
pub fn highest_valid_tail(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per thousand) — integers, so that
    // 10,000 samples have exactly ten beyond p99.9.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)]
        .into_iter()
        .find(|&(_, beyond_per_mille)| n * beyond_per_mille >= 10_000)
        .map(|(p, _)| p)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the "exclusive" method). Needs at least two values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quartile = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let mid = (v[(n - 1) / 2] + v[n / 2]) / 2.0;
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 90.0), Some(91.0));
        assert_eq!(percentile(&v, 100.0), Some(101.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_valid_tail(99), None);
        assert_eq!(highest_valid_tail(100), Some(90.0));
        assert_eq!(highest_valid_tail(200), Some(95.0));
        assert_eq!(highest_valid_tail(1_000), Some(99.0));
        assert_eq!(highest_valid_tail(9_999), Some(99.0));
        assert_eq!(highest_valid_tail(10_000), Some(99.9));
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
        assert!((quartile_spread(&[13.0, 10.0, 11.0]).unwrap() - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }
}
