//! Order statistics the benchmark reports: medians, nearest-rank
//! percentiles, the "highest percentile with at least ten samples
//! beyond it" picker, and the relative inter-quartile spread the A/A
//! mode and the regression bounds are built on.

/// Percentiles a timing may be reported at, lowest first, as exact
/// fractions (p50, p90, p95, p99, p99.9).
const TAIL_CANDIDATES: &[(usize, usize)] = &[(1, 2), (9, 10), (19, 20), (99, 100), (999, 1000)];

/// A tail percentile is only trustworthy when this many samples lie
/// beyond it.
const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle elements for even
/// counts); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (in `0.0..=1.0`) of an ascending slice;
/// `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest candidate percentile that still has at least ten of `n`
/// samples beyond it, or `None` when not even the median does.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .find(|(num, den)| n * (den - num) / den >= MIN_SAMPLES_BEYOND)
        .map(|(num, den)| *num as f64 / *den as f64)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is
/// what the pipeline computes over its runs. `0.0` below two values or
/// for a zero median.
pub fn rel_iqr(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let med = median(&v);
    if m < 2 || med == 0.0 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)).abs() / med.abs()
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
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn picker_wants_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.50));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(199), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn rel_iqr_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((rel_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
        assert!((rel_iqr(&[13.0, 10.0, 11.0]) - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(rel_iqr(&[7.0]), 0.0);
    }
}
