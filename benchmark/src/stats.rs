//! Medians, quartiles and tail percentiles.

/// A percentile is only reported when at least this many samples lie
/// beyond it — below that the "tail" is a handful of outliers, not a
/// distribution.
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for no samples (a layer that never ran).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method)
/// so spreads printed here match the ones the acceptance driver takes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median — the spread the
/// bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `per_mille`/1000 quantile (nearest rank), or `None` when fewer
/// than [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn tail_percentile(values: &[f64], per_mille: usize) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = (per_mille * n).div_ceil(1000).clamp(1, n);
    (n - rank >= MIN_SAMPLES_BEYOND).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // python3 -c "import statistics as s; print(s.quantiles([1,2,3,4,5,6,7,8,9,10], n=4))"
        // -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // s.quantiles([5.3, 5.1, 5.2, 5.0], n=4) -> [5.025, 5.15, 5.275]
        let (q1, q2, q3) = quartiles(&[5.3, 5.1, 5.2, 5.0]);
        assert!((q1 - 5.025).abs() < 1e-12 && (q2 - 5.15).abs() < 1e-12);
        assert!((q3 - 5.275).abs() < 1e-12);
        // s.quantiles([1, 2, 4], n=4) -> [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 2.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(spread(&[]), 0.0);
    }

    #[test]
    fn p999_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        // rank 9990 leaves exactly ten samples beyond it.
        assert_eq!(tail_percentile(&v, 999), Some(9990.0));
        let short: Vec<f64> = (1..=9_999).map(f64::from).collect();
        assert_eq!(tail_percentile(&short, 999), None);
        assert_eq!(tail_percentile(&v, 500), Some(5000.0));
        assert_eq!(tail_percentile(&[], 500), None);
    }
}
