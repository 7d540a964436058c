//! Summary statistics of timing samples.

/// Percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to be reported as the
/// tail.
pub const MIN_BEYOND: usize = 10;

/// Median of the samples (mean of the two middle ones for an even count);
/// 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of the samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    sorted[rank(sorted.len(), p) - 1]
}

/// The tail: the highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples above its rank, as `(percentile, value)`. Fewer
/// than 20 samples leave no such percentile; the median is reported then.
/// No samples give `(0, 0)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let p = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - rank(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0);
    (p, percentile(samples, p))
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Reversed, so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 97 queries (table2-cold): p90 has rank 88 and only 9 beyond, so
        // the tail is p75, rank 73, with 24 beyond.
        assert_eq!(tail(&one_to(97)), (75.0, 73.0));
        // 100 samples: p90 has exactly 10 beyond.
        assert_eq!(tail(&one_to(100)), (90.0, 90.0));
        // 1000 samples: p99 has 10 beyond, p99.9 only 1.
        assert_eq!(tail(&one_to(1000)), (99.0, 990.0));
        // 20 samples: the median has exactly 10 beyond.
        assert_eq!(tail(&one_to(20)), (50.0, 10.0));
    }

    #[test]
    fn small_and_empty_samples() {
        assert_eq!(tail(&one_to(5)), (50.0, 3.0));
        assert_eq!(tail(&[]), (0.0, 0.0));
        assert_eq!(percentile(&one_to(4), 100.0), 4.0);
    }
}
