//! Order statistics used by every reported timing.
//!
//! Percentiles use the nearest-rank rule: the `q`-quantile of `n` sorted
//! samples is the sample at 1-based rank `ceil(q·n)`. A percentile is only
//! *supported* when at least [`MIN_BEYOND`] samples lie above its rank, so
//! a p99 over 300 samples (three samples beyond it) is refused rather than
//! reported as if it meant something.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a timing may be reported at, highest first.
pub const LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// 1-based nearest rank of the `q`-quantile among `n` samples (0 when
/// `n == 0`).
pub fn rank(q: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    // The epsilon keeps exact products such as 0.99 × 1000 from rounding
    // up a rank through binary representation error.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the `q`-quantile's rank.
pub fn beyond(q: f64, n: usize) -> usize {
    n - rank(q, n)
}

/// Is the `q`-quantile of `n` samples backed by enough samples above it?
pub fn supported(q: f64, n: usize) -> bool {
    n > 0 && beyond(q, n) >= MIN_BEYOND
}

/// The highest percentile of [`LADDER`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().find(|&q| supported(q, n))
}

/// The `q`-quantile of ascending `sorted` by nearest rank; `None` when
/// empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let r = rank(q, sorted.len());
    (r > 0).then(|| sorted[r - 1])
}

/// Sort a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of `values` by nearest rank (the lower middle for even counts);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_rule() {
        assert_eq!(rank(0.5, 0), 0);
        assert_eq!(rank(0.5, 1), 1);
        assert_eq!(rank(0.5, 4), 2);
        assert_eq!(rank(0.99, 100), 99);
        assert_eq!(rank(0.999, 100), 100);
        assert_eq!(rank(0.0, 5), 1, "rank never drops below the first sample");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        // p99 of n samples sits at rank ceil(0.99 n): 1000 samples leave
        // exactly 10 beyond it, 999 leave 9.
        assert_eq!(beyond(0.99, 1000), 10);
        assert!(supported(0.99, 1000));
        assert!(!supported(0.99, 999));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(999), Some(0.95));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }
}
