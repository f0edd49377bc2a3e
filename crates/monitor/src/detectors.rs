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
//!
//! A detector is built on its sink: its constructor takes the run's
//! [`Telemetry`] and makes there the handles it reads through, so it can
//! only ever read the sink it was built on.

use std::collections::VecDeque;

use telemetry::{CounterHandle, GaugeHandle, Histogram, HistogramHandle, Telemetry};

use crate::alerts::Finding;
use crate::config::MonitorConfig;

/// A streaming health detector evaluated on the shared sim clock, over
/// the sink it was built on.
pub trait Detector {
    /// Stable detector name; becomes the alert's `detector` field.
    fn name(&self) -> &'static str;
    /// Returns the currently-unhealthy targets. An empty vector means
    /// everything this detector watches looks healthy at `now_ms`.
    fn evaluate(&mut self, now_ms: u64) -> Vec<Finding>;
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
    /// `(gauge, slo_ms, handle)`, evaluated in the given order.
    targets: Vec<(String, u64, GaugeHandle)>,
}

impl StalenessDetector {
    /// A watchdog alerting as `name` over the given `(gauge, slo_ms)` pairs
    /// of `telemetry` (`client.staleness` in the standard battery; the mesh
    /// uses `chain.staleness` for per-chain head gauges).
    pub fn new(telemetry: &Telemetry, name: &'static str, targets: Vec<(String, u64)>) -> Self {
        let targets = targets
            .into_iter()
            .map(|(gauge, slo_ms)| {
                let handle = telemetry.gauge_handle(gauge.as_str());
                (gauge, slo_ms, handle)
            })
            .collect();
        Self { name, targets }
    }
}

impl Detector for StalenessDetector {
    fn name(&self) -> &'static str {
        self.name
    }

    fn evaluate(&mut self, now_ms: u64) -> Vec<Finding> {
        let mut findings = Vec::new();
        for (gauge, slo_ms, handle) in &self.targets {
            // A gauge that was never written is "not yet wired", not
            // stale: firing on it would alert on every cold start.
            let Some((changed_ms, value)) = handle.last_change() else {
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
    telemetry: Telemetry,
    slo_ms: u64,
}

impl StuckPacketDetector {
    /// Detector over the packet traces of `telemetry`, with the given age
    /// SLO.
    pub fn new(telemetry: &Telemetry, slo_ms: u64) -> Self {
        Self { telemetry: telemetry.clone(), slo_ms }
    }
}

impl Detector for StuckPacketDetector {
    fn name(&self) -> &'static str {
        "packet.stuck"
    }

    fn evaluate(&mut self, now_ms: u64) -> Vec<Finding> {
        self.telemetry
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
/// The detector snapshots the cumulative histogram at each tick on which
/// it moved and uses [`Histogram::diff`] to recover the observations that
/// landed inside the window — no per-observation storage needed. The
/// latest snapshot at or before the window start holds the histogram as
/// it stood then, so skipping the unchanged ticks loses nothing.
pub struct LatencyRegressionDetector {
    name: &'static str,
    histogram: String,
    handle: HistogramHandle,
    window_ms: u64,
    calibration_ms: u64,
    factor: f64,
    min_observations: u64,
    baseline: Option<f64>,
    snapshots: VecDeque<(u64, Histogram)>,
}

impl LatencyRegressionDetector {
    /// Detector over the named histogram of `telemetry`, alerting as `name`
    /// (`latency.regression`, or a per-stage or per-app name such as
    /// `app.latency.regression`, so those lenses alert under distinct
    /// identities).
    pub fn new(
        telemetry: &Telemetry,
        name: &'static str,
        histogram: impl Into<String>,
        config: &MonitorConfig,
    ) -> Self {
        let histogram = histogram.into();
        Self {
            name,
            handle: telemetry.histogram_handle(histogram.as_str()),
            histogram,
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

    fn evaluate(&mut self, now_ms: u64) -> Vec<Finding> {
        // Only an observation changes the histogram, and each one moves a
        // tally; copy it out only when the tallies moved since the last
        // snapshot.
        let Some((count, nan_count)) = self.handle.tallies() else {
            return Vec::new();
        };
        let moved = match self.snapshots.back() {
            Some((_, last)) => (last.count, last.nan_count) != (count, nan_count),
            None => true,
        };
        let fresh = moved.then(|| self.handle.snapshot().expect("just tallied"));
        let current = match &fresh {
            Some(fresh) => fresh,
            None => &self.snapshots.back().expect("unmoved since a snapshot").1,
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
                    .map(|(_, snapshot)| snapshot)
                    // The window holds `current.count - anchor.count`
                    // observations; too few, and there is nothing to diff.
                    .filter(|anchor| {
                        current.count.saturating_sub(anchor.count) >= self.min_observations
                    });
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
        if let Some(fresh) = fresh {
            self.snapshots.push_back((now_ms, fresh));
        }
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
/// own spend; under other names the same logic watches
/// anomaly counters whose healthy baseline is zero (chunk duplicates,
/// resubmissions), where any sustained burst above the floor fires.
pub struct RateSpikeDetector {
    name: &'static str,
    counter: String,
    handle: CounterHandle,
    window_ms: u64,
    calibration_ms: u64,
    factor: f64,
    min_delta: u64,
    baseline_rate: Option<f64>,
    samples: VecDeque<(u64, u64)>,
}

impl RateSpikeDetector {
    /// Detector over the named counter of `telemetry`, alerting as `name`
    /// once a window's increase reaches `min_delta` (`fee.spike` with
    /// [`MonitorConfig::fee_min_delta`] over the relayer's fees).
    pub fn new(
        telemetry: &Telemetry,
        name: &'static str,
        counter: impl Into<String>,
        min_delta: u64,
        config: &MonitorConfig,
    ) -> Self {
        let counter = counter.into();
        Self {
            name,
            handle: telemetry.counter_handle(counter.as_str()),
            counter,
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

    fn evaluate(&mut self, now_ms: u64) -> Vec<Finding> {
        let value = self.handle.get();
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
    handle: GaugeHandle,
    window_ms: u64,
    slo_ms: u64,
}

impl RunwayDetector {
    /// Detector over the named balance gauge (lamports) of `telemetry`.
    pub fn new(telemetry: &Telemetry, gauge: impl Into<String>, config: &MonitorConfig) -> Self {
        let gauge = gauge.into();
        Self {
            handle: telemetry.gauge_handle(gauge.as_str()),
            gauge,
            window_ms: config.runway_window_ms,
            slo_ms: config.runway_slo_ms,
        }
    }
}

impl Detector for RunwayDetector {
    fn name(&self) -> &'static str {
        "relayer.runway"
    }

    fn evaluate(&mut self, now_ms: u64) -> Vec<Finding> {
        if now_ms < self.window_ms {
            return Vec::new(); // need one full window of burn history
        }
        let Some(balance) = self.handle.value_at(now_ms) else {
            return Vec::new();
        };
        let Some(earlier) = self.handle.value_at(now_ms - self.window_ms) else {
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
    gauges: Vec<(String, GaugeHandle)>,
}

impl ConservationDetector {
    /// The `supply.drift` detector over the given voucher-drift gauges of
    /// `telemetry`.
    pub fn supply_drift(telemetry: &Telemetry, gauges: Vec<String>) -> Self {
        Self::over(telemetry, "supply.drift", "unbacked voucher units in circulation", gauges)
    }

    /// The `fee.conservation` detector over the given fee-imbalance gauges
    /// of `telemetry`.
    pub fn fee_conservation(telemetry: &Telemetry, gauges: Vec<String>) -> Self {
        Self::over(telemetry, "fee.conservation", "escrowed fee units unaccounted for", gauges)
    }

    fn over(
        telemetry: &Telemetry,
        name: &'static str,
        units: &'static str,
        gauges: Vec<String>,
    ) -> Self {
        let gauges = gauges
            .into_iter()
            .map(|gauge| {
                let handle = telemetry.gauge_handle(gauge.as_str());
                (gauge, handle)
            })
            .collect();
        Self { name, units, gauges }
    }
}

impl Detector for ConservationDetector {
    fn name(&self) -> &'static str {
        self.name
    }

    fn evaluate(&mut self, _now_ms: u64) -> Vec<Finding> {
        let mut findings = Vec::new();
        for (gauge, handle) in &self.gauges {
            let Some(value) = handle.get() else { continue };
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
            ConservationDetector::fee_conservation(&telemetry, vec!["mesh.fees.imbalance".into()]);
        assert!(detector.evaluate(0).is_empty(), "unwired gauges ignored");
        telemetry.gauge_set_at(10, "mesh.fees.imbalance", 0.0);
        assert!(detector.evaluate(10).is_empty());
        telemetry.gauge_set_at(20, "mesh.fees.imbalance", 7.0);
        let findings = detector.evaluate(20);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].target, "mesh.fees.imbalance");
        assert_eq!(findings[0].details, "7 escrowed fee units unaccounted for");
        assert_eq!(detector.name(), "fee.conservation");
    }

    #[test]
    fn staleness_fires_only_past_the_slo_and_ignores_unwired_gauges() {
        let telemetry = Telemetry::recording();
        let targets = vec![("guest.head".into(), 1_000), ("cp.head".into(), 1_000)];
        let mut detector = StalenessDetector::new(&telemetry, "client.staleness", targets);
        telemetry.gauge_set_at(0, "guest.head", 5.0);
        assert!(detector.evaluate(500).is_empty());
        let findings = detector.evaluate(1_000);
        assert_eq!(findings.len(), 1, "cp.head was never written and must not fire");
        assert_eq!(findings[0].target, "guest.head");
        // A fresh write clears it.
        telemetry.gauge_set_at(1_200, "guest.head", 6.0);
        assert!(detector.evaluate(1_500).is_empty());
    }

    #[test]
    fn latency_regression_needs_calibration_then_catches_a_slowdown() {
        let telemetry = Telemetry::recording();
        telemetry.register_histogram("lat", &[10.0, 100.0, 1_000.0]).unwrap();
        let mut config = MonitorConfig::small();
        config.calibration_ms = 1_000;
        config.latency_window_ms = 1_000;
        config.min_window_observations = 5;
        let mut detector =
            LatencyRegressionDetector::new(&telemetry, "latency.regression", "lat", &config);

        for _ in 0..20 {
            telemetry.observe("lat", 5.0); // baseline p95 = 10 ms bucket
        }
        assert!(detector.evaluate(0).is_empty(), "pre-calibration");
        assert!(detector.evaluate(1_000).is_empty(), "baseline frozen here");

        for _ in 0..20 {
            telemetry.observe("lat", 500.0); // regression: p95 = 1000 ms bucket
        }
        let findings = detector.evaluate(2_000);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].target, "lat");

        // Window rolls past the slow burst: healthy again.
        assert!(detector.evaluate(3_500).is_empty());
    }

    /// The latency detector as it was before it kept only the snapshots on
    /// which the histogram moved: a copy and a diff at every evaluation.
    /// Kept as the oracle for [`LatencyRegressionDetector`].
    struct KeepEverySnapshot {
        histogram: String,
        window_ms: u64,
        calibration_ms: u64,
        factor: f64,
        min_observations: u64,
        baseline: Option<f64>,
        snapshots: VecDeque<(u64, Histogram)>,
    }

    impl KeepEverySnapshot {
        fn new(histogram: &str, config: &MonitorConfig) -> Self {
            Self {
                histogram: histogram.into(),
                window_ms: config.latency_window_ms,
                calibration_ms: config.calibration_ms,
                factor: config.latency_factor,
                min_observations: config.min_window_observations,
                baseline: None,
                snapshots: VecDeque::new(),
            }
        }

        fn evaluate(&mut self, now_ms: u64, telemetry: &Telemetry) -> Vec<Finding> {
            // A fresh handle per evaluation: a search of the name index.
            let Some(current) = telemetry.histogram_handle(self.histogram.as_str()).snapshot()
            else {
                return Vec::new();
            };
            if self.baseline.is_none()
                && now_ms >= self.calibration_ms
                && current.count >= self.min_observations
            {
                self.baseline = Some(current.quantile(LATENCY_QUANTILE));
            }
            let mut findings = Vec::new();
            if let Some(baseline) = self.baseline.filter(|baseline| *baseline > 0.0) {
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
            self.snapshots.push_back((now_ms, current));
            let start = now_ms.saturating_sub(self.window_ms);
            while self.snapshots.len() >= 2 && self.snapshots[1].0 <= start {
                self.snapshots.pop_front();
            }
            findings
        }
    }

    #[test]
    fn latency_regression_matches_the_keep_every_snapshot_oracle() {
        // (window, min observations): a window of many ticks, an empty
        // window, and one shorter than a tick with no floor at all.
        for (window_ms, min_observations) in [(3_000, 5), (0, 0), (250, 0), (1_000, 1)] {
            let telemetry = Telemetry::recording();
            telemetry.register_histogram("lat", &[10.0, 50.0, 100.0, 500.0, 1_000.0]).unwrap();
            let mut config = MonitorConfig::small();
            config.calibration_ms = 5_000;
            config.latency_window_ms = window_ms;
            config.min_window_observations = min_observations;
            config.latency_factor = 2.0;
            let mut detector =
                LatencyRegressionDetector::new(&telemetry, "latency.regression", "lat", &config);
            let mut oracle = KeepEverySnapshot::new("lat", &config);
            let (mut fired, mut quiet) = (0, 0);
            let mut state = 0x2545_F491_4F6C_DD1Du64 ^ window_ms;
            let mut draw = |below: u64| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 33) % below
            };
            // Quiet stretches of up to 40 ticks between bursts of
            // observations, some NaN; after calibration the bursts turn slow
            // and fast again. The first ticks see no histogram.
            let (mut quiet_for, mut slow) = (3, false);
            for tick in 0..4_000u64 {
                let now_ms = tick * 100 + draw(7);
                if quiet_for > 0 {
                    quiet_for -= 1;
                    quiet += 1;
                } else {
                    if now_ms > config.calibration_ms && draw(8) == 0 {
                        slow = !slow;
                    }
                    for _ in 0..draw(6) {
                        let value = match draw(20) {
                            0 => f64::NAN,
                            _ if slow => 200.0 + draw(1_500) as f64,
                            _ => 1.0 + draw(30) as f64,
                        };
                        telemetry.observe("lat", value);
                    }
                    if draw(5) == 0 {
                        quiet_for = draw(40);
                    }
                }
                let expected = oracle.evaluate(now_ms, &telemetry);
                fired += usize::from(!expected.is_empty());
                assert_eq!(detector.evaluate(now_ms), expected, "tick {tick}");
            }
            assert!(fired > 0 && quiet > 100, "window {window_ms}: {fired} fired, {quiet} quiet");
            assert!(detector.snapshots.len() <= oracle.snapshots.len());
        }
    }

    /// The four detectors that read a gauge or a counter at every
    /// evaluation, as they were when each read searched the registry by
    /// name: the oracle for the handles they make when built. Each read
    /// goes through a fresh handle, which searches the name index.
    struct ByName {
        staleness: Vec<(String, u64)>,
        spike: RateSpikeDetector,
        runway: (String, u64, u64),
        conservation: Vec<String>,
    }

    impl ByName {
        fn evaluate(&mut self, now_ms: u64, telemetry: &Telemetry) -> [Vec<Finding>; 4] {
            let mut stale = Vec::new();
            for (gauge, slo_ms) in &self.staleness {
                let Some((changed_ms, value)) =
                    telemetry.gauge_handle(gauge.as_str()).last_change()
                else {
                    continue;
                };
                let age_ms = now_ms.saturating_sub(changed_ms);
                if age_ms >= *slo_ms {
                    stale.push(Finding::new(
                        gauge.clone(),
                        format!("stuck at {value} for {age_ms} ms (slo {slo_ms} ms)"),
                    ));
                }
            }

            let spike = &mut self.spike;
            let value = telemetry.counter(&spike.counter);
            if spike.baseline_rate.is_none() && now_ms >= spike.calibration_ms && now_ms > 0 {
                spike.baseline_rate = Some(value as f64 / now_ms as f64);
            }
            let mut spiked = Vec::new();
            if let Some(baseline_rate) = spike.baseline_rate {
                let start = now_ms.saturating_sub(spike.window_ms);
                let anchor = spike.samples.iter().take_while(|(at, _)| *at <= start).last();
                if let Some(&(anchor_ms, anchor_value)) = anchor {
                    let span_ms = now_ms.saturating_sub(anchor_ms);
                    let delta = value.saturating_sub(anchor_value);
                    if span_ms > 0 && delta >= spike.min_delta {
                        let rate = delta as f64 / span_ms as f64;
                        if rate > baseline_rate * spike.factor {
                            spiked.push(Finding::new(
                                spike.counter.clone(),
                                format!(
                                    "+{delta} over last {span_ms} ms ({rate:.3}/ms vs baseline \
                                     {baseline_rate:.3}/ms, factor {})",
                                    spike.factor,
                                ),
                            ));
                        }
                    }
                }
            }
            spike.samples.push_back((now_ms, value));
            spike.prune(now_ms);

            let (gauge, window_ms, slo_ms) = &self.runway;
            let runway = (|| {
                if now_ms < *window_ms {
                    return None;
                }
                let balance = telemetry.gauge_handle(gauge.as_str()).value_at(now_ms)?;
                let earlier =
                    telemetry.gauge_handle(gauge.as_str()).value_at(now_ms - window_ms)?;
                let burn = earlier - balance;
                let runway_ms = balance / (burn / *window_ms as f64);
                (burn > 0.0 && runway_ms < *slo_ms as f64).then(|| {
                    Finding::new(
                        gauge.clone(),
                        format!(
                            "runway {runway_ms:.0} ms at current burn ({burn} lamports per \
                             {window_ms} ms, balance {balance}); slo {slo_ms} ms",
                        ),
                    )
                })
            })();

            let mut unbalanced = Vec::new();
            for gauge in &self.conservation {
                let Some(value) = telemetry.gauge_handle(gauge.as_str()).get() else { continue };
                if value > 0.0 {
                    let details = format!("{value} unbacked voucher units in circulation");
                    unbalanced.push(Finding::new(gauge.clone(), details));
                }
            }
            [stale, spiked, runway.into_iter().collect(), unbalanced]
        }
    }

    #[test]
    fn metric_handles_match_the_by_name_oracle() {
        let mut config = MonitorConfig::small();
        config.calibration_ms = 20_000;
        config.fee_window_ms = 5_000;
        config.fee_factor = 3.0;
        config.runway_window_ms = 5_000;
        config.runway_slo_ms = 60_000;
        // Each detector watches a metric written from the start, one first
        // written halfway through, and one never written; other names keep
        // arriving, so a missed name is searched for again.
        for (metric, first_write_ms) in [("early", 0), ("late", 150_000), ("never", u64::MAX)] {
            let telemetry = Telemetry::recording();
            let [head, fees, balance, drift] =
                ["head", "fees", "balance", "drift"].map(|kind| format!("{metric}.{kind}"));
            let staleness = vec![(head.clone(), 8_000), ("other.head".to_string(), 8_000)];
            let conservation = vec![drift.clone(), "other.drift".to_string()];
            let mut detectors = (
                StalenessDetector::new(&telemetry, "client.staleness", staleness.clone()),
                RateSpikeDetector::new(&telemetry, "fee.spike", fees.clone(), 10, &config),
                RunwayDetector::new(&telemetry, balance.clone(), &config),
                ConservationDetector::supply_drift(&telemetry, conservation.clone()),
            );
            let mut oracle = ByName {
                staleness,
                spike: RateSpikeDetector::new(&telemetry, "fee.spike", fees.clone(), 10, &config),
                runway: (balance.clone(), config.runway_window_ms, config.runway_slo_ms),
                conservation,
            };
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ first_write_ms;
            let mut draw = |below: u64| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 33) % below
            };
            let (mut fired, mut lamports) = ([0; 4], 1e9);
            for tick in 0..3_000u64 {
                let now_ms = tick * 100 + draw(50);
                let phase = (now_ms / 30_000) % 4; // quiet, busy, spiking, draining
                if draw(40) == 0 {
                    telemetry.counter_add(&format!("noise.{}", draw(300)), 1);
                }
                if now_ms >= first_write_ms && phase != 0 {
                    if draw(3) == 0 {
                        telemetry.gauge_set_at(now_ms, &head, (now_ms / 10_000) as f64);
                    }
                    telemetry.counter_add(&fees, if phase == 2 { 20 + draw(30) } else { draw(2) });
                    lamports -= if phase == 3 { 5e6 } else { draw(100) as f64 };
                    telemetry.gauge_set_at(now_ms, &balance, lamports);
                    if lamports < 1e8 {
                        lamports = 1e9; // top-up
                    }
                    let unbacked = if phase == 2 && draw(2) == 0 { draw(5) } else { 0 };
                    telemetry.gauge_set(&drift, unbacked as f64);
                }
                let expected = oracle.evaluate(now_ms, &telemetry);
                let got = [
                    detectors.0.evaluate(now_ms),
                    detectors.1.evaluate(now_ms),
                    detectors.2.evaluate(now_ms),
                    detectors.3.evaluate(now_ms),
                ];
                for (count, findings) in fired.iter_mut().zip(&expected) {
                    *count += usize::from(!findings.is_empty());
                }
                assert_eq!(got, expected, "{metric} tick {tick}");
            }
            match metric {
                "never" => assert_eq!(fired, [0; 4]),
                _ => assert!(fired.iter().all(|count| *count > 0), "{metric}: {fired:?}"),
            }
        }
    }

    #[test]
    fn rate_spike_compares_window_rate_to_calibration_average() {
        let telemetry = Telemetry::recording();
        let mut config = MonitorConfig::small();
        config.calibration_ms = 1_000;
        config.fee_window_ms = 1_000;
        config.fee_factor = 3.0;
        config.fee_min_delta = 10;
        let mut detector = RateSpikeDetector::new(
            &telemetry,
            "fee.spike",
            "host.fees.lamports",
            config.fee_min_delta,
            &config,
        );

        telemetry.counter_add("host.fees.lamports", 100); // 0.1/ms over calibration
        assert!(detector.evaluate(0).is_empty());
        assert!(detector.evaluate(1_000).is_empty(), "baseline frozen here");
        telemetry.counter_add("host.fees.lamports", 50); // 0.05/ms: quiet
        assert!(detector.evaluate(2_000).is_empty());
        telemetry.counter_add("host.fees.lamports", 900); // 0.9/ms > 3 × 0.1/ms
        let findings = detector.evaluate(3_000);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].target, "host.fees.lamports");
    }

    #[test]
    fn runway_projects_burn_rate_against_slo() {
        let telemetry = Telemetry::recording();
        let mut config = MonitorConfig::small();
        config.runway_window_ms = 1_000;
        config.runway_slo_ms = 10_000;
        let mut detector = RunwayDetector::new(&telemetry, "relayer.payer.balance", &config);

        telemetry.gauge_set_at(0, "relayer.payer.balance", 1_000_000.0);
        assert!(detector.evaluate(500).is_empty(), "window not full yet");
        // Burn 100 over the window: runway = 999_900 / 0.1 ≈ 10⁷ ms — fine.
        telemetry.gauge_set_at(900, "relayer.payer.balance", 999_900.0);
        assert!(detector.evaluate(1_000).is_empty());
        // Crash the balance: burn 900_000 per window, runway ≈ 110 ms < slo.
        telemetry.gauge_set_at(1_900, "relayer.payer.balance", 99_900.0);
        let findings = detector.evaluate(2_000);
        assert_eq!(findings.len(), 1);
        // Top-up heals it immediately.
        telemetry.gauge_set_at(2_100, "relayer.payer.balance", 10_000_000.0);
        assert!(detector.evaluate(3_000).is_empty());
    }

    #[test]
    fn supply_drift_fires_on_any_positive_drift() {
        let telemetry = Telemetry::recording();
        let mut detector = ConservationDetector::supply_drift(
            &telemetry,
            vec!["supply.drift".into(), "mesh.supply.drift".into()],
        );
        assert!(detector.evaluate(0).is_empty(), "unwired gauges ignored");
        telemetry.gauge_set_at(10, "supply.drift", 0.0);
        assert!(detector.evaluate(10).is_empty());
        telemetry.gauge_set_at(20, "supply.drift", 250.0);
        let findings = detector.evaluate(20);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].target, "supply.drift");
        assert_eq!(findings[0].details, "250 unbacked voucher units in circulation");
        assert_eq!(detector.name(), "supply.drift");
    }
}
