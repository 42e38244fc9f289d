//! Order statistics over measured samples.

/// The tail percentiles a timing may be reported at, highest first, in
/// thousandths (999 = p99.9).
const TAIL_PERMILLE: [u32; 5] = [999, 990, 900, 750, 500];

/// Whether the `permille` percentile of `n` samples has at least ten
/// samples beyond it, the least a reported tail may rest on.
pub fn supports(n: usize, permille: u32) -> bool {
    n as u64 * (1000 - permille as u64) >= 10_000
}

/// The highest reportable tail percentile for `n` samples (in thousandths),
/// or `None` below 20 samples, where not even the median has ten beyond it.
pub fn highest_supported(n: usize) -> Option<u32> {
    TAIL_PERMILLE.into_iter().find(|&q| supports(n, q))
}

/// [`highest_supported`] as a number for the stamp line (0 when none).
pub fn top_permille(n: usize) -> f64 {
    highest_supported(n).map_or(0.0, f64::from)
}

/// Nearest-rank percentile (`permille` in thousandths) of unsorted samples;
/// `NaN` when there are none.
pub fn percentile(samples: &[f64], permille: u32) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() as u64 * permille as u64)
        .div_ceil(1000)
        .max(1);
    sorted[rank as usize - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 500)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert!(supports(1000, 990));
        assert!(!supports(999, 990));
        assert!(supports(100, 900));
        assert!(!supports(99, 900));
        assert!(supports(20, 500));
        assert!(!supports(19, 500));
    }

    #[test]
    fn highest_supported_tail_follows_the_sample_count() {
        assert_eq!(highest_supported(10_000), Some(999));
        assert_eq!(highest_supported(9_999), Some(990));
        assert_eq!(highest_supported(1_000), Some(990));
        assert_eq!(highest_supported(999), Some(900));
        assert_eq!(highest_supported(100), Some(900));
        assert_eq!(highest_supported(99), Some(750));
        assert_eq!(highest_supported(40), Some(750));
        assert_eq!(highest_supported(39), Some(500));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 500), 50.0);
        assert_eq!(percentile(&samples, 900), 90.0);
        assert_eq!(percentile(&samples, 990), 99.0);
        assert_eq!(percentile(&samples, 999), 100.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert!(median(&[]).is_nan());
    }
}
