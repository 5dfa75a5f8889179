//! Order statistics, run-to-run spread and span self-time: the pure
//! arithmetic every workload and `compare` share.

/// The `p`-th percentile (0 < p ≤ 100) as an exact order statistic
/// (nearest rank): the smallest sample with at least `p` % of the samples at
/// or below it. No interpolation and no histogram buckets.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // 99.9 % of 10 000 is 9990, not the 9990.000000000002 the product gives.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest of the usual upper percentiles that still has at least ten
/// samples beyond it; `None` when even p75 has fewer, and then only the
/// median is worth reporting.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n >= rank(n.max(1), p) + 10)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The usual median: the mean of the middle pair when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives, so
/// the number is the one the acceptance check computes. `None` below four
/// samples.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    let m = samples.len();
    if m < 4 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(samples).abs())
}

/// A span's own time: its duration minus the part of it that its child
/// spans cover. Children may overlap each other and may stick out of the
/// parent; covered time is counted once and only inside the parent.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (start, end) = span;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = start;
    for (s, e) in clipped {
        if e > cursor {
            covered += e - s.max(cursor);
            cursor = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn upper_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13, 20], n=4) == [10.25, 12.0, 18.25]
        let spread = quartile_spread(&[20.0, 10.0, 13.0, 11.0]).unwrap();
        assert!((spread - 8.0 / 12.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn self_time_subtracts_covered_time_once() {
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children, one sticking out of the parent.
        assert_eq!(
            self_time((0.0, 10.0), &[(2.0, 6.0), (4.0, 8.0), (9.0, 12.0)]),
            3.0
        );
        // A child that covers everything leaves nothing.
        assert_eq!(self_time((2.0, 4.0), &[(0.0, 9.0)]), 0.0);
    }
}
