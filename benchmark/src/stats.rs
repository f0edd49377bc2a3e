//! The benchmark's own ruler: percentiles and medians.
//!
//! Deliberately not any of the repo's three `quantile` routines, so that
//! unifying those later cannot move the numbers this benchmark reports.

/// Nearest-rank `q`-quantile of an ascending sample (0 when empty).
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Interquartile mean of an ascending sample: the mean of its middle half
/// (0 when empty). Like the median it ignores both tails, but it still
/// moves when the sample is quantised — mesh latencies are whole multiples
/// of the 1-s step and their median reads 12 s on nearly every seed.
pub fn interquartile_mean(sorted: &[u64]) -> f64 {
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    ratio(middle.iter().sum::<u64>() as f64, middle.len() as f64)
}

/// Median of a wall-clock sample: the mean of the two middle values when
/// the count is even, so two repetitions do not report their maximum.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile (linear interpolation
/// between the closest ranks), the run-to-run spread of a sample. Two
/// samples give half their range; from five on, the extremes drop out.
pub fn interquartile_range(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let position = q * (sorted.len() - 1) as f64;
        let (below, above) = (position.floor() as usize, position.ceil() as usize);
        sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
    };
    if sorted.is_empty() {
        0.0
    } else {
        at(0.75) - at(0.25)
    }
}

/// Simulated milliseconds as seconds.
pub fn sim_s(ms: u64) -> f64 {
    ms as f64 / 1_000.0
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 0.50), 50);
        assert_eq!(percentile(&sample, 0.95), 95);
        assert_eq!(percentile(&sample, 1.0), 100);
        assert_eq!(percentile(&sample, 0.0), 1);
        assert_eq!(percentile::<u64>(&[], 0.5), 0);
        assert_eq!(percentile(&[7u64], 0.95), 7);
    }

    #[test]
    fn interquartile_mean_drops_both_tails() {
        assert_eq!(interquartile_mean(&[1, 2, 3, 4, 5, 6, 7, 1_000]), 4.5);
        assert_eq!(interquartile_mean(&[12, 12, 12, 18]), 12.0);
        assert_eq!(interquartile_mean(&[5]), 5.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn interquartile_range_ignores_one_outlier_in_five() {
        assert_eq!(interquartile_range(&[1.0, 2.0, 3.0, 4.0, 100.0]), 2.0);
        assert_eq!(interquartile_range(&[10.0, 12.0]), 1.0);
        assert_eq!(interquartile_range(&[7.0]), 0.0);
        assert_eq!(interquartile_range(&[]), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
