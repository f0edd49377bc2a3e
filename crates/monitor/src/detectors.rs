//! The standard detector battery.
//!
//! A [`Detector`] is a pure streaming function of the telemetry state: at
//! each evaluation tick it reports which of its targets look unhealthy
//! *right now*. Detectors never journal anything themselves — the
//! [`AlertBook`](crate::AlertBook) owns debounce, hold-down and the
//! journaled lifecycle. All state a detector keeps (rate histories,
//! histogram snapshots, frozen baselines) is derived from telemetry reads
//! on the simulated clock, so re-running the same seed reproduces every
//! finding byte for byte.

use std::collections::VecDeque;

use telemetry::{Histogram, Telemetry};

use crate::alerts::Finding;
use crate::config::MonitorConfig;

/// A streaming health detector evaluated on the shared sim clock.
pub trait Detector {
    /// Stable detector name; becomes the alert's `detector` field.
    fn name(&self) -> &'static str;
    /// Returns the currently-unhealthy targets. An empty vector means
    /// everything this detector watches looks healthy at `now_ms`.
    fn evaluate(&mut self, now_ms: u64, telemetry: &Telemetry) -> Vec<Finding>;
}

// ---------------------------------------------------------------------------
// client/chain staleness

/// Watchdog over head and light-client height gauges: a tracked gauge
/// that has not taken a new value for longer than its SLO is stale.
///
/// Covers both halves of the paper's liveness story: a frozen
/// `guest.head` means host finality stalled (§V-C validator outage),
/// while frozen `client.*` heights with an advancing head mean relaying
/// broke down.
pub struct StalenessDetector {
    name: &'static str,
    /// `(gauge, slo_ms)` pairs, evaluated in the given order.
    targets: Vec<(String, u64)>,
}

impl StalenessDetector {
    /// A watchdog named `client.staleness` over the given gauges.
    pub fn new(targets: Vec<(String, u64)>) -> Self {
        Self::named("client.staleness", targets)
    }

    /// Same watchdog under a custom detector name (the mesh uses
    /// `chain.staleness` for per-chain head gauges).
    pub fn named(name: &'static str, targets: Vec<(String, u64)>) -> Self {
        Self { name, targets }
    }
}

impl Detector for StalenessDetector {
    fn name(&self) -> &'static str {
        self.name
    }

    fn evaluate(&mut self, now_ms: u64, telemetry: &Telemetry) -> Vec<Finding> {
        let mut findings = Vec::new();
        for (gauge, slo_ms) in &self.targets {
            // A gauge that was never written is "not yet wired", not
            // stale: firing on it would alert on every cold start.
            let Some((changed_ms, value)) = telemetry.gauge_last_change(gauge) else {
                continue;
            };
            let age_ms = now_ms.saturating_sub(changed_ms);
            if age_ms >= *slo_ms {
                findings.push(Finding::new(
                    gauge.clone(),
                    format!("stuck at {value} for {age_ms} ms (slo {slo_ms} ms)"),
                ));
            }
        }
        findings
    }
}

// ---------------------------------------------------------------------------
// stuck packets

/// Flags packet lifecycles that opened more than `slo_ms` ago and have
/// neither acknowledged nor timed out.
pub struct StuckPacketDetector {
    slo_ms: u64,
}

impl StuckPacketDetector {
    /// Detector with the given age SLO.
    pub fn new(slo_ms: u64) -> Self {
        Self { slo_ms }
    }
}

impl Detector for StuckPacketDetector {
    fn name(&self) -> &'static str {
        "packet.stuck"
    }

    fn evaluate(&mut self, now_ms: u64, telemetry: &Telemetry) -> Vec<Finding> {
        telemetry
            .open_packet_traces(now_ms, self.slo_ms)
            .into_iter()
            .map(|open| {
                let age_ms = now_ms.saturating_sub(open.first_ms);
                Finding {
                    target: format!("{}/{}#{}", open.origin, open.channel, open.sequence),
                    details: format!("open for {age_ms} ms (slo {} ms)", self.slo_ms),
                    traces: vec![open.trace],
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// latency regression

/// The quantile the latency-regression detector watches (its findings
/// read "p95").
const LATENCY_QUANTILE: f64 = 0.95;

/// Compares a rolling window of a latency histogram's p95 against a
/// baseline p95 frozen after the calibration period.
///
/// The detector snapshots the cumulative histogram each tick and uses
/// [`Histogram::diff`] to recover the observations that landed inside
/// the window — no per-observation storage needed.
pub struct LatencyRegressionDetector {
    name: &'static str,
    histogram: String,
    window_ms: u64,
    calibration_ms: u64,
    factor: f64,
    min_observations: u64,
    baseline: Option<f64>,
    snapshots: VecDeque<(u64, Histogram)>,
}

impl LatencyRegressionDetector {
    /// Detector over the named telemetry histogram, reported as
    /// `latency.regression`.
    pub fn new(histogram: impl Into<String>, config: &MonitorConfig) -> Self {
        Self::named("latency.regression", histogram, config)
    }

    /// Same regression logic under a custom detector name, so per-stage
    /// and per-app instances (`latency.regression.stage`,
    /// `app.latency.regression`, …) alert under distinct identities.
    pub fn named(name: &'static str, histogram: impl Into<String>, config: &MonitorConfig) -> Self {
        Self {
            name,
            histogram: histogram.into(),
            window_ms: config.latency_window_ms,
            calibration_ms: config.calibration_ms,
            factor: config.latency_factor,
            min_observations: config.min_window_observations,
            baseline: None,
            snapshots: VecDeque::new(),
        }
    }

    /// Drops snapshots older than needed: one snapshot at or before the
    /// window start is kept as the subtraction point.
    fn prune(&mut self, now_ms: u64) {
        let start = now_ms.saturating_sub(self.window_ms);
        while self.snapshots.len() >= 2 && self.snapshots[1].0 <= start {
            self.snapshots.pop_front();
        }
    }
}

impl Detector for LatencyRegressionDetector {
    fn name(&self) -> &'static str {
        self.name
    }

    fn evaluate(&mut self, now_ms: u64, telemetry: &Telemetry) -> Vec<Finding> {
        let Some(current) = telemetry.histogram(&self.histogram) else {
            return Vec::new();
        };
        if self.baseline.is_none()
            && now_ms >= self.calibration_ms
            && current.count >= self.min_observations
        {
            self.baseline = Some(current.quantile(LATENCY_QUANTILE));
        }
        let mut findings = Vec::new();
        if let Some(baseline) = self.baseline {
            if baseline > 0.0 {
                let start = now_ms.saturating_sub(self.window_ms);
                let anchor = self
                    .snapshots
                    .iter()
                    .take_while(|(at, _)| *at <= start)
                    .last()
                    .map(|(_, snapshot)| snapshot);
                if let Some(window) = anchor.and_then(|anchor| current.diff(anchor)) {
                    if window.count >= self.min_observations {
                        let observed = window.quantile(LATENCY_QUANTILE);
                        if observed > baseline * self.factor {
                            findings.push(Finding::new(
                                self.histogram.clone(),
                                format!(
                                    "p{:02.0} {observed} ms over last {} ms vs baseline \
                                     {baseline} ms (factor {})",
                                    LATENCY_QUANTILE * 100.0,
                                    self.window_ms,
                                    self.factor,
                                ),
                            ));
                        }
                    }
                }
            }
        }
        self.snapshots.push_back((now_ms, current));
        self.prune(now_ms);
        findings
    }
}

// ---------------------------------------------------------------------------
// fee / compute-unit spike

/// Flags a counter whose rate over the rolling window exceeds the
/// calibration-period average by more than `factor`.
///
/// Pointed at `fees.relayer` it catches spikes in the relay operator's
/// own spend; via [`RateSpikeDetector::named`] the same logic watches
/// anomaly counters whose healthy baseline is zero (chunk duplicates,
/// resubmissions), where any sustained burst above the floor fires.
pub struct RateSpikeDetector {
    name: &'static str,
    counter: String,
    window_ms: u64,
    calibration_ms: u64,
    factor: f64,
    min_delta: u64,
    baseline_rate: Option<f64>,
    samples: VecDeque<(u64, u64)>,
}

impl RateSpikeDetector {
    /// The `fee.spike` detector over the named telemetry counter.
    pub fn new(counter: impl Into<String>, config: &MonitorConfig) -> Self {
        Self::named("fee.spike", counter, config.fee_min_delta, config)
    }

    /// Same spike logic under a custom alert name and window floor.
    pub fn named(
        name: &'static str,
        counter: impl Into<String>,
        min_delta: u64,
        config: &MonitorConfig,
    ) -> Self {
        Self {
            name,
            counter: counter.into(),
            window_ms: config.fee_window_ms,
            calibration_ms: config.calibration_ms,
            factor: config.fee_factor,
            min_delta,
            baseline_rate: None,
            samples: VecDeque::new(),
        }
    }

    fn prune(&mut self, now_ms: u64) {
        let start = now_ms.saturating_sub(self.window_ms);
        while self.samples.len() >= 2 && self.samples[1].0 <= start {
            self.samples.pop_front();
        }
    }
}

impl Detector for RateSpikeDetector {
    fn name(&self) -> &'static str {
        self.name
    }

    fn evaluate(&mut self, now_ms: u64, telemetry: &Telemetry) -> Vec<Finding> {
        let value = telemetry.counter(&self.counter);
        if self.baseline_rate.is_none() && now_ms >= self.calibration_ms && now_ms > 0 {
            self.baseline_rate = Some(value as f64 / now_ms as f64);
        }
        let mut findings = Vec::new();
        if let Some(baseline_rate) = self.baseline_rate {
            let start = now_ms.saturating_sub(self.window_ms);
            let anchor = self.samples.iter().take_while(|(at, _)| *at <= start).last().copied();
            if let Some((anchor_ms, anchor_value)) = anchor {
                let span_ms = now_ms.saturating_sub(anchor_ms);
                let delta = value.saturating_sub(anchor_value);
                if span_ms > 0 && delta >= self.min_delta {
                    let rate = delta as f64 / span_ms as f64;
                    if rate > baseline_rate * self.factor {
                        findings.push(Finding::new(
                            self.counter.clone(),
                            format!(
                                "+{delta} over last {span_ms} ms ({rate:.3}/ms vs baseline \
                                 {baseline_rate:.3}/ms, factor {})",
                                self.factor,
                            ),
                        ));
                    }
                }
            }
        }
        self.samples.push_back((now_ms, value));
        self.prune(now_ms);
        findings
    }
}

// ---------------------------------------------------------------------------
// relayer balance runway

/// Projects how long the relayer's fee-payer balance lasts at the
/// current burn rate and alerts when the runway drops below the SLO.
pub struct RunwayDetector {
    gauge: String,
    window_ms: u64,
    slo_ms: u64,
}

impl RunwayDetector {
    /// Detector over the named balance gauge (lamports).
    pub fn new(gauge: impl Into<String>, config: &MonitorConfig) -> Self {
        Self {
            gauge: gauge.into(),
            window_ms: config.runway_window_ms,
            slo_ms: config.runway_slo_ms,
        }
    }
}

impl Detector for RunwayDetector {
    fn name(&self) -> &'static str {
        "relayer.runway"
    }

    fn evaluate(&mut self, now_ms: u64, telemetry: &Telemetry) -> Vec<Finding> {
        if now_ms < self.window_ms {
            return Vec::new(); // need one full window of burn history
        }
        let Some(balance) = telemetry.gauge_value_at(&self.gauge, now_ms) else {
            return Vec::new();
        };
        let Some(earlier) = telemetry.gauge_value_at(&self.gauge, now_ms - self.window_ms) else {
            return Vec::new();
        };
        let burn = earlier - balance;
        if burn <= 0.0 {
            return Vec::new(); // topped up or idle: infinite runway
        }
        let runway_ms = balance / (burn / self.window_ms as f64);
        if runway_ms < self.slo_ms as f64 {
            return vec![Finding::new(
                self.gauge.clone(),
                format!(
                    "runway {:.0} ms at current burn ({burn} lamports per {} ms, balance \
                     {balance}); slo {} ms",
                    runway_ms, self.window_ms, self.slo_ms,
                ),
            )];
        }
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// conservation

/// Alerts whenever a conservation gauge is above zero. The gauges are
/// published from the conservation audits of `chaos::invariants`, which
/// are zero on every honest run at every instant:
///
/// * `supply.drift` — voucher units in circulation beyond the escrow
///   backing them (counterfeit mint, the paper's §V-B attack scenario);
/// * `fee.conservation` — escrowed ICS-29 fee units the fee middleware
///   cannot account for (`escrowed ≠ paid + refunded + pending`, or the
///   fee-escrow balance off the pending sum): leaked or double-spent fees.
pub struct ConservationDetector {
    name: &'static str,
    /// What one unit of the gauge counts, completing the finding's detail.
    units: &'static str,
    gauges: Vec<String>,
}

impl ConservationDetector {
    /// The `supply.drift` detector over the given voucher-drift gauges.
    pub fn supply_drift(gauges: Vec<String>) -> Self {
        Self { name: "supply.drift", units: "unbacked voucher units in circulation", gauges }
    }

    /// The `fee.conservation` detector over the given fee-imbalance gauges.
    pub fn fee_conservation(gauges: Vec<String>) -> Self {
        Self { name: "fee.conservation", units: "escrowed fee units unaccounted for", gauges }
    }
}

impl Detector for ConservationDetector {
    fn name(&self) -> &'static str {
        self.name
    }

    fn evaluate(&mut self, _now_ms: u64, telemetry: &Telemetry) -> Vec<Finding> {
        let mut findings = Vec::new();
        for gauge in &self.gauges {
            let Some(value) = telemetry.gauge(gauge) else { continue };
            if value > 0.0 {
                findings.push(Finding::new(gauge.clone(), format!("{value} {}", self.units)));
            }
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fee_conservation_fires_on_any_imbalance() {
        let telemetry = Telemetry::recording();
        let mut detector =
            ConservationDetector::fee_conservation(vec!["mesh.fees.imbalance".into()]);
        assert!(detector.evaluate(0, &telemetry).is_empty(), "unwired gauges ignored");
        telemetry.gauge_set_at(10, "mesh.fees.imbalance", 0.0);
        assert!(detector.evaluate(10, &telemetry).is_empty());
        telemetry.gauge_set_at(20, "mesh.fees.imbalance", 7.0);
        let findings = detector.evaluate(20, &telemetry);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].target, "mesh.fees.imbalance");
        assert_eq!(findings[0].details, "7 escrowed fee units unaccounted for");
        assert_eq!(detector.name(), "fee.conservation");
    }

    #[test]
    fn staleness_fires_only_past_the_slo_and_ignores_unwired_gauges() {
        let telemetry = Telemetry::recording();
        let mut detector =
            StalenessDetector::new(vec![("guest.head".into(), 1_000), ("cp.head".into(), 1_000)]);
        telemetry.gauge_set_at(0, "guest.head", 5.0);
        assert!(detector.evaluate(500, &telemetry).is_empty());
        let findings = detector.evaluate(1_000, &telemetry);
        assert_eq!(findings.len(), 1, "cp.head was never written and must not fire");
        assert_eq!(findings[0].target, "guest.head");
        // A fresh write clears it.
        telemetry.gauge_set_at(1_200, "guest.head", 6.0);
        assert!(detector.evaluate(1_500, &telemetry).is_empty());
    }

    #[test]
    fn latency_regression_needs_calibration_then_catches_a_slowdown() {
        let telemetry = Telemetry::recording();
        telemetry.register_histogram("lat", &[10.0, 100.0, 1_000.0]).unwrap();
        let mut config = MonitorConfig::small();
        config.calibration_ms = 1_000;
        config.latency_window_ms = 1_000;
        config.min_window_observations = 5;
        let mut detector = LatencyRegressionDetector::new("lat", &config);

        for _ in 0..20 {
            telemetry.observe("lat", 5.0); // baseline p95 = 10 ms bucket
        }
        assert!(detector.evaluate(0, &telemetry).is_empty(), "pre-calibration");
        assert!(detector.evaluate(1_000, &telemetry).is_empty(), "baseline frozen here");

        for _ in 0..20 {
            telemetry.observe("lat", 500.0); // regression: p95 = 1000 ms bucket
        }
        let findings = detector.evaluate(2_000, &telemetry);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].target, "lat");

        // Window rolls past the slow burst: healthy again.
        assert!(detector.evaluate(3_500, &telemetry).is_empty());
    }

    #[test]
    fn rate_spike_compares_window_rate_to_calibration_average() {
        let telemetry = Telemetry::recording();
        let mut config = MonitorConfig::small();
        config.calibration_ms = 1_000;
        config.fee_window_ms = 1_000;
        config.fee_factor = 3.0;
        config.fee_min_delta = 10;
        let mut detector = RateSpikeDetector::new("host.fees.lamports", &config);

        telemetry.counter_add("host.fees.lamports", 100); // 0.1/ms over calibration
        assert!(detector.evaluate(0, &telemetry).is_empty());
        assert!(detector.evaluate(1_000, &telemetry).is_empty(), "baseline frozen here");
        telemetry.counter_add("host.fees.lamports", 50); // 0.05/ms: quiet
        assert!(detector.evaluate(2_000, &telemetry).is_empty());
        telemetry.counter_add("host.fees.lamports", 900); // 0.9/ms > 3 × 0.1/ms
        let findings = detector.evaluate(3_000, &telemetry);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].target, "host.fees.lamports");
    }

    #[test]
    fn runway_projects_burn_rate_against_slo() {
        let telemetry = Telemetry::recording();
        let mut config = MonitorConfig::small();
        config.runway_window_ms = 1_000;
        config.runway_slo_ms = 10_000;
        let mut detector = RunwayDetector::new("relayer.payer.balance", &config);

        telemetry.gauge_set_at(0, "relayer.payer.balance", 1_000_000.0);
        assert!(detector.evaluate(500, &telemetry).is_empty(), "window not full yet");
        // Burn 100 over the window: runway = 999_900 / 0.1 ≈ 10⁷ ms — fine.
        telemetry.gauge_set_at(900, "relayer.payer.balance", 999_900.0);
        assert!(detector.evaluate(1_000, &telemetry).is_empty());
        // Crash the balance: burn 900_000 per window, runway ≈ 110 ms < slo.
        telemetry.gauge_set_at(1_900, "relayer.payer.balance", 99_900.0);
        let findings = detector.evaluate(2_000, &telemetry);
        assert_eq!(findings.len(), 1);
        // Top-up heals it immediately.
        telemetry.gauge_set_at(2_100, "relayer.payer.balance", 10_000_000.0);
        assert!(detector.evaluate(3_000, &telemetry).is_empty());
    }

    #[test]
    fn supply_drift_fires_on_any_positive_drift() {
        let telemetry = Telemetry::recording();
        let mut detector = ConservationDetector::supply_drift(vec![
            "supply.drift".into(),
            "mesh.supply.drift".into(),
        ]);
        assert!(detector.evaluate(0, &telemetry).is_empty(), "unwired gauges ignored");
        telemetry.gauge_set_at(10, "supply.drift", 0.0);
        assert!(detector.evaluate(10, &telemetry).is_empty());
        telemetry.gauge_set_at(20, "supply.drift", 250.0);
        let findings = detector.evaluate(20, &telemetry);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].target, "supply.drift");
        assert_eq!(findings[0].details, "250 unbacked voucher units in circulation");
        assert_eq!(detector.name(), "supply.drift");
    }
}
