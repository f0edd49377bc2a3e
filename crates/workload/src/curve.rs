//! Arrival-rate curves: the time-varying intensity of the traffic
//! process, expressed as a dimensionless multiplier over the configured
//! base rate.

use serde::{Deserialize, Serialize};

/// The shape of a workload's arrival intensity over simulated time.
///
/// A curve maps a timestamp to a multiplier applied to the base rate
/// (`1 / mean_gap_ms`); the generator samples arrivals from the resulting
/// non-homogeneous Poisson process by thinning. All shapes are pure
/// functions of time, so the same configuration always produces the same
/// intensity profile.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "shape", rename_all = "snake_case")]
pub enum ArrivalCurve {
    /// A homogeneous Poisson process: the multiplier is 1 everywhere.
    Steady,
    /// A sinusoidal day/night cycle between `trough` and `peak`,
    /// peaking every `period_ms` at offset `peak_at_ms` — the shape of
    /// organic user traffic across time zones.
    Diurnal {
        /// Multiplier at the daily peak (≥ `trough`).
        peak: f64,
        /// Multiplier at the nightly trough.
        trough: f64,
        /// Cycle length (24 h for a natural day/night rhythm).
        period_ms: u64,
        /// Time of the first peak within the cycle.
        #[serde(default)]
        peak_at_ms: u64,
    },
    /// A flash crowd: baseline 1, a linear ramp to `peak` starting at
    /// `at_ms` over `ramp_ms`, then exponential decay back to baseline
    /// with time constant `decay_ms` — a viral event or market move.
    FlashCrowd {
        /// When the crowd starts arriving.
        at_ms: u64,
        /// Ramp-up length.
        ramp_ms: u64,
        /// Multiplier at the spike top.
        peak: f64,
        /// Exponential decay time constant after the top.
        decay_ms: u64,
    },
    /// An airdrop storm: a square wave of `surge` for `duration_ms`
    /// starting at `at_ms` — everyone claiming in the same window, the
    /// regime where queues actually build.
    AirdropStorm {
        /// Claim window opening.
        at_ms: u64,
        /// Claim window length.
        duration_ms: u64,
        /// Multiplier inside the window.
        surge: f64,
    },
}

impl Default for ArrivalCurve {
    /// A homogeneous process — the shape scenario files get when they
    /// omit `curve` entirely.
    fn default() -> Self {
        Self::Steady
    }
}

impl ArrivalCurve {
    /// The shape's short label — the serde tag, stable across runs, used
    /// for per-shape metric names (`traffic.<label>.outbound`).
    pub fn label(&self) -> &'static str {
        match self {
            Self::Steady => "steady",
            Self::Diurnal { .. } => "diurnal",
            Self::FlashCrowd { .. } => "flash_crowd",
            Self::AirdropStorm { .. } => "airdrop_storm",
        }
    }

    /// The rate multiplier at `now_ms`.
    pub fn multiplier(&self, now_ms: u64) -> f64 {
        match *self {
            Self::Steady => 1.0,
            Self::Diurnal { peak, trough, period_ms, peak_at_ms } => {
                let period = period_ms.max(1) as f64;
                let phase = (now_ms as f64 - peak_at_ms as f64) / period;
                let wave = 0.5 * (1.0 + (2.0 * core::f64::consts::PI * phase).cos());
                trough + (peak - trough) * wave
            }
            Self::FlashCrowd { at_ms, ramp_ms, peak, decay_ms } => {
                if now_ms < at_ms {
                    return 1.0;
                }
                let top_ms = at_ms + ramp_ms;
                if now_ms < top_ms {
                    let progress = (now_ms - at_ms) as f64 / ramp_ms.max(1) as f64;
                    1.0 + (peak - 1.0) * progress
                } else {
                    let elapsed = (now_ms - top_ms) as f64 / decay_ms.max(1) as f64;
                    1.0 + (peak - 1.0) * (-elapsed).exp()
                }
            }
            Self::AirdropStorm { at_ms, duration_ms, surge } => {
                if (at_ms..at_ms.saturating_add(duration_ms)).contains(&now_ms) {
                    surge
                } else {
                    1.0
                }
            }
        }
    }

    /// A tight upper bound on [`ArrivalCurve::multiplier`] over all time —
    /// the majorising rate the thinning sampler draws candidates at.
    pub fn max_multiplier(&self) -> f64 {
        match *self {
            Self::Steady => 1.0,
            Self::Diurnal { peak, trough, .. } => peak.max(trough),
            Self::FlashCrowd { peak, .. } => peak.max(1.0),
            Self::AirdropStorm { surge, .. } => surge.max(1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_crypto::time::DAY_MS;

    #[test]
    fn steady_is_flat() {
        for t in [0, 1_000, DAY_MS] {
            assert_eq!(ArrivalCurve::Steady.multiplier(t), 1.0);
        }
    }

    #[test]
    fn diurnal_peaks_and_troughs() {
        let curve =
            ArrivalCurve::Diurnal { peak: 3.0, trough: 0.5, period_ms: DAY_MS, peak_at_ms: 0 };
        assert!((curve.multiplier(0) - 3.0).abs() < 1e-9);
        assert!((curve.multiplier(DAY_MS / 2) - 0.5).abs() < 1e-9);
        assert!((curve.multiplier(DAY_MS) - 3.0).abs() < 1e-9);
        assert!(curve.max_multiplier() >= curve.multiplier(DAY_MS / 3));
    }

    #[test]
    fn flash_crowd_ramps_then_decays() {
        let curve =
            ArrivalCurve::FlashCrowd { at_ms: 1_000, ramp_ms: 1_000, peak: 10.0, decay_ms: 2_000 };
        assert_eq!(curve.multiplier(0), 1.0);
        assert!((curve.multiplier(1_500) - 5.5).abs() < 1e-9, "half-way up the ramp");
        assert!((curve.multiplier(2_000) - 10.0).abs() < 1e-9, "spike top");
        let late = curve.multiplier(20_000);
        assert!(late > 1.0 && late < 1.01, "decays toward baseline, got {late}");
    }

    #[test]
    fn airdrop_storm_is_a_square_wave() {
        let curve = ArrivalCurve::AirdropStorm { at_ms: 5_000, duration_ms: 1_000, surge: 50.0 };
        assert_eq!(curve.multiplier(4_999), 1.0);
        assert_eq!(curve.multiplier(5_000), 50.0);
        assert_eq!(curve.multiplier(5_999), 50.0);
        assert_eq!(curve.multiplier(6_000), 1.0);
    }

    #[test]
    fn multiplier_never_exceeds_bound() {
        let curves = [
            ArrivalCurve::Steady,
            ArrivalCurve::Diurnal { peak: 4.0, trough: 0.2, period_ms: DAY_MS, peak_at_ms: 7 },
            ArrivalCurve::FlashCrowd { at_ms: 100, ramp_ms: 300, peak: 25.0, decay_ms: 900 },
            ArrivalCurve::AirdropStorm { at_ms: 50, duration_ms: 400, surge: 80.0 },
        ];
        for curve in curves {
            let bound = curve.max_multiplier();
            for t in (0..DAY_MS).step_by(60_000) {
                assert!(curve.multiplier(t) <= bound + 1e-12);
            }
        }
    }
}
