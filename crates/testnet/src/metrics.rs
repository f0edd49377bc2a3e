//! Measurement collection and summary statistics.

use serde::{Deserialize, Serialize};

/// Summary statistics in the format of the paper's Table I.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Mean (µ).
    pub mean: f64,
    /// Standard deviation (σ).
    pub stddev: f64,
}

impl Summary {
    /// Computes the summary of `values` (empty input gives all-zero stats).
    ///
    /// NaN samples are discarded rather than poisoning the sort — a single
    /// 0/0 latency ratio must not abort a day-long benchmark run.
    pub fn of(values: &[f64]) -> Self {
        let sorted = sorted_finite(values);
        if sorted.is_empty() {
            return Self {
                count: 0,
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                max: 0.0,
                mean: 0.0,
                stddev: 0.0,
            };
        }
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let variance =
            sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / sorted.len() as f64;
        Self {
            count: sorted.len(),
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.50),
            q3: quantile_sorted(&sorted, 0.75),
            max: *sorted.last().expect("non-empty"),
            mean,
            stddev: variance.sqrt(),
        }
    }
}

/// Sorts a sample with NaN entries removed (total order, never panics).
fn sorted_finite(values: &[f64]) -> Vec<f64> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The `q`-quantile (0.0–1.0) of pre-sorted values, linearly interpolated.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    if low == high {
        sorted[low]
    } else {
        let fraction = position - low as f64;
        sorted[low] * (1.0 - fraction) + sorted[high] * fraction
    }
}

/// The `q`-quantile of unsorted values, linearly interpolated between the
/// two nearest ranks. NaN samples are discarded.
///
/// This stays interpolating, unlike telemetry's nearest-rank rule: Table I's
/// quartiles and the Fig. 2 CDF rows are pinned on it.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted_finite(values), q)
}

/// Fraction of `values` at or below `threshold` (for CDF claims like
/// "96 % took less than a minute").
pub fn fraction_below(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|v| **v <= threshold).count() as f64 / values.len() as f64
}

/// An empirical CDF as (value, cumulative fraction) points — the series
/// plotted in the paper's figures.
pub fn cdf(values: &[f64]) -> Vec<(f64, f64)> {
    let sorted = sorted_finite(values);
    let n = sorted.len();
    sorted.into_iter().enumerate().map(|(i, v)| (v, (i + 1) as f64 / n as f64)).collect()
}

/// Pearson correlation coefficient of two equal-length samples.
///
/// Used for the paper's §V-C observation that validator cost and latency
/// are uncorrelated (r ≈ 0.007).
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "correlation needs paired samples");
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mean_x) * (y - mean_y);
        var_x += (x - mean_x) * (x - mean_x);
        var_y += (y - mean_y) * (y - mean_y);
    }
    if var_x == 0.0 || var_y == 0.0 {
        return 0.0;
    }
    cov / (var_x.sqrt() * var_y.sqrt())
}

/// One end-to-end packet send (Fig. 2 / Fig. 3).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SendRecord {
    /// ICS-04 sequence number.
    pub sequence: u64,
    /// When the SendPacket transaction executed on the host.
    pub sent_ms: u64,
    /// When the FinalisedBlock containing it was emitted.
    pub finalised_ms: Option<u64>,
    /// The send transaction's fee in lamports.
    pub fee_lamports: u64,
    /// Whether the client paid via a bundle (Fig. 3's upper cluster).
    pub used_bundle: bool,
}

/// One validator signature submission (Table I).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SignRecord {
    /// Index into the validator profile table.
    pub validator: usize,
    /// Signed height.
    pub height: u64,
    /// Block generation time.
    pub block_ms: u64,
    /// Signature transaction execution time.
    pub signed_ms: u64,
    /// Fee paid for the signature transaction, in lamports.
    pub fee_lamports: u64,
}

impl SignRecord {
    /// Block-to-signature latency in seconds (Table I's metric).
    pub fn latency_s(&self) -> f64 {
        (self.signed_ms.saturating_sub(self.block_ms)) as f64 / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.max, 5.0);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.stddev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        assert!((quantile(&[0.0, 10.0], 0.5) - 5.0).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn nan_samples_are_discarded_not_fatal() {
        let s = Summary::of(&[f64::NAN, 1.0, 2.0, 3.0, f64::NAN]);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((quantile(&[f64::NAN, 4.0], 0.5) - 4.0).abs() < 1e-12);
        let points = cdf(&[2.0, f64::NAN, 1.0]);
        assert_eq!(points.len(), 2);
        assert!((points.last().unwrap().1 - 1.0).abs() < 1e-12);
        let all_nan = Summary::of(&[f64::NAN]);
        assert_eq!(all_nan.count, 0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let points = cdf(&[3.0, 1.0, 2.0]);
        assert_eq!(points.len(), 3);
        assert!(points.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert!((points.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_below_counts_inclusive() {
        assert!((fraction_below(&[1.0, 2.0, 3.0, 4.0], 2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn correlation_of_independent_and_identical() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((correlation(&xs, &xs) - 1.0).abs() < 1e-12);
        let ys = [4.0, 3.0, 2.0, 1.0];
        assert!((correlation(&xs, &ys) + 1.0).abs() < 1e-12);
        let flat = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(correlation(&xs, &flat), 0.0);
    }
}
