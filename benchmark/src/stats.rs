//! Order statistics for latency samples.

/// The percentiles a report may quote, in rising order.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`LADDER`] that still has at least ten samples
/// beyond it among `n` — the highest one worth quoting. `None` below 20
/// samples, where not even the median qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&p| beyond(n, p) >= 10)
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Nearest-rank position (1-based) of the `p`-th percentile among `n`.
fn rank(n: usize, p: f64) -> usize {
    // In hundredths of a percent, so 99.9 % of 10 000 is exactly 9 990.
    let per_10k = (p * 100.0).round() as usize;
    (n * per_10k).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank `p`-th percentile of `samples` (reordered in place).
/// Panics on an empty slice: every caller measures at least one op.
pub fn percentile<T: Ord + Copy>(samples: &mut [T], p: f64) -> T {
    assert!(!samples.is_empty(), "percentile of no samples");
    let k = rank(samples.len(), p) - 1;
    *samples.select_nth_unstable(k).1
}

/// Nearest-rank `p`-th percentile of a small set of floats (reordered in
/// place): the quartiles over slice pairs.
pub fn quantile_f64(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    values.sort_by(f64::total_cmp);
    values[rank(values.len(), p) - 1]
}

/// Median of a small set of floats (the set-up repeats).
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_p99_pick_the_nearest_rank() {
        let mut odd: Vec<u32> = vec![9, 1, 5, 3, 7];
        assert_eq!(percentile(&mut odd, 50.0), 5);
        let mut even: Vec<u32> = vec![4, 1, 3, 2];
        assert_eq!(percentile(&mut even, 50.0), 2, "nearest rank takes the lower middle");
        let mut thousand: Vec<u32> = (1..=1000).rev().collect();
        assert_eq!(percentile(&mut thousand, 50.0), 500);
        assert_eq!(percentile(&mut thousand, 99.0), 990);
        assert_eq!(percentile(&mut thousand, 100.0), 1000);
        let mut one = [42u32];
        assert_eq!(percentile(&mut one, 99.0), 42);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(1_500_000), Some(99.99));
    }

    #[test]
    fn float_quartiles_are_symmetric() {
        let mut ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quantile_f64(&mut ten, 25.0), 3.0, "third smallest");
        assert_eq!(quantile_f64(&mut ten, 75.0), 8.0, "third largest");
        assert_eq!(quantile_f64(&mut [5.0], 25.0), 5.0);
    }

    #[test]
    fn float_median() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[7.5]), 7.5);
    }
}
