//! Order statistics for the benchmark's reports.
//!
//! A timing is reported as its median, and a tail percentile only when at
//! least ten samples lie beyond it; the sample count travels with every
//! number so a reader can judge it.

/// Sort a sample in place (total order, so a stray NaN sorts last instead
/// of panicking).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.total_cmp(b));
}

/// The `q`-quantile of an ascending sample, linearly interpolated between
/// the two nearest ranks. Panics on an empty sample: every caller times at
/// least one operation.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    sort(&mut s);
    quantile(&s, 0.5)
}

/// Whether a sample of `n` has at least ten samples beyond its
/// `q`-quantile (with a whisker of slack: `1.0 - 0.9` is not exactly a
/// tenth in binary).
pub fn supports(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= 10.0 - 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.95), 95.0);
        assert_eq!(quantile(&s, 0.0), 0.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(!supports(199, 0.95));
        assert!(supports(200, 0.95));
        assert!(!supports(99, 0.90) && supports(100, 0.90));
        assert!(supports(1000, 0.99) && !supports(1000, 0.999));
    }
}
