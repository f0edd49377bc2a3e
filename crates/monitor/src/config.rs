//! Tuning knobs of the monitoring subsystem.

use serde::{Deserialize, Serialize};
use sim_crypto::time::{DAY_MS, HOUR_MS, MINUTE_MS};

/// Every threshold and cadence of the standard detector battery.
///
/// Two profiles ship with the crate: [`MonitorConfig::paper`] (SLOs sized
/// to the deployment's Poisson traffic, where hours-long gaps between
/// packets are normal) and [`MonitorConfig::small`] (minutes-scale SLOs
/// for the fast test configuration). Both are plain serde data — a run
/// can persist the exact thresholds its alerts were judged against.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Detector evaluation cadence.
    pub cadence_ms: u64,
    /// An alert must stay unhealthy this long before it fires
    /// (pending → firing debounce).
    pub debounce_ms: u64,
    /// A firing alert must stay healthy this long before it resolves
    /// (hold-down).
    pub hold_down_ms: u64,
    /// Head gauges (`guest.head`, `cp.head`) must advance at least this
    /// often — the client-staleness watchdog's finality SLO.
    pub head_staleness_slo_ms: u64,
    /// Light-client height gauges must advance at least this often.
    /// Sized above the workload's longest normal packet gap, since client
    /// updates are demand-driven.
    pub client_staleness_slo_ms: u64,
    /// An unacknowledged packet lifecycle older than this is stuck.
    pub stuck_packet_slo_ms: u64,
    /// Rolling window of the latency-regression detector (which watches
    /// the p95).
    pub latency_window_ms: u64,
    /// Calibration period: the baseline quantile is frozen from the
    /// histogram at this instant.
    pub calibration_ms: u64,
    /// The window quantile must exceed `baseline × factor` to count as a
    /// regression.
    pub latency_factor: f64,
    /// Minimum observations in the window before the latency detector
    /// may fire (thin windows are noise).
    pub min_window_observations: u64,
    /// Rolling window of the fee/CU-spike detector.
    pub fee_window_ms: u64,
    /// The window fee rate must exceed `baseline × factor` to count as a
    /// spike.
    pub fee_factor: f64,
    /// Minimum lamports spent inside the window before the fee detector
    /// may fire.
    pub fee_min_delta: u64,
    /// Burn-rate estimation window of the relayer-balance runway
    /// estimator.
    pub runway_window_ms: u64,
    /// Projected runway below this fires the runway alert.
    pub runway_slo_ms: u64,
}

impl MonitorConfig {
    /// SLOs for the paper deployment profile ([`MonitorConfig::paper`]
    /// pairs with `TestnetConfig::paper()`): the guest chain produces
    /// blocks on demand with healthy head gaps of up to ~an hour, so the
    /// head SLO sits at 90 min — above every normal gap, yet still an
    /// order of magnitude under the §V-C outage.
    pub fn paper() -> Self {
        Self {
            cadence_ms: MINUTE_MS,
            debounce_ms: 10 * MINUTE_MS,
            hold_down_ms: 30 * MINUTE_MS,
            head_staleness_slo_ms: 90 * MINUTE_MS,
            client_staleness_slo_ms: 12 * HOUR_MS,
            stuck_packet_slo_ms: 6 * HOUR_MS,
            latency_window_ms: 6 * HOUR_MS,
            calibration_ms: DAY_MS,
            latency_factor: 3.0,
            min_window_observations: 10,
            fee_window_ms: 6 * HOUR_MS,
            fee_factor: 3.0,
            fee_min_delta: 100_000,
            runway_window_ms: DAY_MS,
            runway_slo_ms: 3 * DAY_MS,
        }
    }

    /// Minutes-scale SLOs for the fast test profile
    /// (`TestnetConfig::small()`: packets every 1–2 minutes, second-scale
    /// finality).
    pub fn small() -> Self {
        Self {
            cadence_ms: 30 * 1_000,
            debounce_ms: 5 * MINUTE_MS,
            hold_down_ms: 10 * MINUTE_MS,
            head_staleness_slo_ms: 20 * MINUTE_MS,
            client_staleness_slo_ms: 40 * MINUTE_MS,
            stuck_packet_slo_ms: HOUR_MS,
            latency_window_ms: 2 * HOUR_MS,
            calibration_ms: 6 * HOUR_MS,
            latency_factor: 3.0,
            min_window_observations: 10,
            fee_window_ms: 2 * HOUR_MS,
            fee_factor: 3.0,
            fee_min_delta: 50_000,
            runway_window_ms: 6 * HOUR_MS,
            runway_slo_ms: 12 * HOUR_MS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_round_trip_through_json() {
        for config in [MonitorConfig::paper(), MonitorConfig::small()] {
            let json = serde_json::to_string(&config).unwrap();
            let back: MonitorConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, config);
        }
    }

    #[test]
    fn paper_slos_detect_the_day11_outage_quickly() {
        let config = MonitorConfig::paper();
        // The §V-C outage stalled finality for ~10 h; the watchdog's
        // worst-case detection latency must sit far inside that.
        let worst_case_mttd =
            config.head_staleness_slo_ms + config.debounce_ms + 2 * config.cadence_ms;
        assert!(worst_case_mttd < 35_940_000 / 5, "{worst_case_mttd} ms is not ≪ 10 h");
    }
}
