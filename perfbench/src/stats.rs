//! Order statistics over nanosecond latency samples, reported as f64
//! microseconds (never truncated to whole µs).

/// A summary of one set of latency samples.
#[derive(Clone, Debug, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub n: usize,
    /// Median, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// Samples strictly above the 99.9th-percentile rank.
    pub beyond_p999: usize,
}

/// Nearest-rank percentile of sorted samples: the smallest sample with
/// at least `q` of all samples at or below it.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

/// Summarise `samples_ns` (sorted in place).
pub fn summarize(samples_ns: &mut [u64]) -> LatencySummary {
    let n = samples_ns.len();
    if n == 0 {
        return LatencySummary::default();
    }
    samples_ns.sort_unstable();
    let us = |q: f64| samples_ns[rank(n, q)] as f64 / 1e3;
    LatencySummary {
        n,
        p50_us: us(0.5),
        p99_us: us(0.99),
        p999_us: us(0.999),
        beyond_p999: n - 1 - rank(n, 0.999),
    }
}

/// Median of a list of values (mean of the middle pair for even
/// lengths); 0 for an empty list.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty list.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `values[q]` by nearest rank over an unsorted f64 list; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s: Vec<u64> = (1..=1000).map(|i| i * 1000).collect();
        let sum = summarize(&mut s);
        assert_eq!(sum.p50_us, 500.0);
        assert_eq!(sum.p99_us, 990.0);
        assert_eq!(sum.p999_us, 999.0);
        assert_eq!(sum.beyond_p999, 1);
    }

    #[test]
    fn sub_microsecond_samples_keep_their_digits() {
        let mut s = vec![1_234u64, 1_500, 900];
        assert_eq!(summarize(&mut s).p50_us, 1.234);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
