//! The [`Monitor`]: a detector battery driven on the sim clock.

use telemetry::Telemetry;

use crate::alerts::{AlertBook, AlertRecord, Finding};
use crate::config::MonitorConfig;
use crate::detectors::{
    ConservationDetector, Detector, LatencyRegressionDetector, RateSpikeDetector, RunwayDetector,
    StalenessDetector, StuckPacketDetector,
};

/// An online health monitor: a fixed battery of [`Detector`]s evaluated
/// at a configured cadence, feeding one shared [`AlertBook`].
///
/// Everything is deterministic — the monitor never reads a wall clock;
/// the harness hands it simulated time, and all detector inputs come
/// from the run's own [`Telemetry`]: the sink the monitor and each of its
/// detectors were built on, which also journals the alerts.
pub struct Monitor {
    config: MonitorConfig,
    telemetry: Telemetry,
    detectors: Vec<Box<dyn Detector>>,
    book: AlertBook,
    next_eval_ms: u64,
}

impl Monitor {
    /// An empty monitor (no detectors yet) on `telemetry`, with the
    /// config's debounce and hold-down. Its detectors are built on the same
    /// sink.
    pub fn new(telemetry: &Telemetry, config: MonitorConfig) -> Self {
        let book = AlertBook::new(config.debounce_ms, config.hold_down_ms);
        let telemetry = telemetry.clone();
        Self { config, telemetry, detectors: Vec::new(), book, next_eval_ms: 0 }
    }

    /// The standard guest-deployment battery over the telemetry names the
    /// testnet harness publishes: head/client staleness, stuck packets,
    /// latency regression over both send-to-finality and relayer-job
    /// latency, relayer fee spikes, fee-payer runway and ICS-20 supply
    /// drift, all on `telemetry`.
    pub fn standard(telemetry: &Telemetry, config: MonitorConfig) -> Self {
        let staleness = vec![
            ("guest.head".into(), config.head_staleness_slo_ms),
            ("cp.head".into(), config.head_staleness_slo_ms),
            ("client.guest_on_cp".into(), config.client_staleness_slo_ms),
            ("client.cp_on_guest".into(), config.client_staleness_slo_ms),
        ];
        let regression = |name, histogram: &str| {
            LatencyRegressionDetector::new(telemetry, name, histogram, &config)
        };
        let spike = |name, counter: &str, min_delta| {
            RateSpikeDetector::new(telemetry, name, counter, min_delta, &config)
        };
        let mut monitor = Self::new(telemetry, config.clone());
        monitor
            .push(StalenessDetector::new(telemetry, "client.staleness", staleness))
            .push(StuckPacketDetector::new(telemetry, config.stuck_packet_slo_ms))
            // Two latency lenses under one alert name: the paper's headline
            // health signal (how long a SendPacket waits for guest
            // finality) and the relayer's own job spans. Same-named
            // detectors share one reconcile pass, so their targets never
            // resolve each other.
            .push(regression("latency.regression", "send.finality_ms"))
            .push(regression("latency.regression", "relayer.job.latency_ms"))
            // The relayer's own spend, not the host's total fee intake —
            // client bundle tips dwarf chunk fees, so a change in relay
            // costs is only visible in `fees.relayer`.
            .push(spike("fee.spike", "fees.relayer", config.fee_min_delta))
            // Delivery-path anomaly counters: healthy runs tick these
            // rarely (a resubmit for a congested mempool), so a sustained
            // burst — RPC at-least-once retries, inclusion failures —
            // fires without needing a fee-visible cost.
            .push(spike("relayer.retries", "relayer.chunks.duplicated", 10))
            .push(spike("relayer.retries", "relayer.chunks.resubmitted", 10))
            // On-chain job failures (a reordered chunk makes the staged
            // calldata finalise wrong, the program rejects it, the job
            // re-queues the instruction): near-zero when healthy, a
            // sustained burst under chunk-stream corruption.
            .push(spike("relayer.retries", "relayer.tx.retries", 10))
            // Host-RPC inclusion health: a missed inclusion requeues the tx
            // for a later slot, so it never shows up in relayer retries or
            // job latency — but the chain counts every miss, and a healthy
            // host counts none.
            .push(spike("host.inclusion", "host.inclusion_failures", 50))
            .push(RunwayDetector::new(telemetry, "relayer.payer.balance", &config))
            .push(ConservationDetector::supply_drift(telemetry, vec!["supply.drift".into()]));
        // Per-stage and per-kind regression lenses, each family under its
        // own detector name so a per-kind firing is attributable at a
        // glance (and the aggregate `latency.regression` lens keeps its
        // historical meaning). The kind suffixes mirror the relayer's
        // `JobKind::ALL` per-kind histograms.
        monitor.push(regression("stage.latency.regression", "stage.mempool_wait_ms"));
        for kind in
            ["client_update", "recv_packet", "ack_packet", "timeout_packet", "generate_block"]
        {
            monitor.push(regression(
                "relayer.job.regression",
                &format!("relayer.job.{kind}.latency_ms"),
            ));
        }
        monitor
    }

    /// Adds a detector to the battery (evaluation order = insertion
    /// order).
    pub fn push(&mut self, detector: impl Detector + 'static) -> &mut Self {
        self.detectors.push(Box::new(detector));
        self
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Runs the battery if an evaluation is due at `now_ms`; no-op
    /// otherwise. Call once per harness step — the monitor self-paces to
    /// `cadence_ms`.
    ///
    /// Detectors sharing a name (e.g. two latency lenses both reporting
    /// as `latency.regression`) are reconciled together: the book sees
    /// their combined findings, so one lens's healthy verdict cannot
    /// resolve the other's firing target.
    pub fn tick(&mut self, now_ms: u64) {
        if now_ms < self.next_eval_ms {
            return;
        }
        self.next_eval_ms = now_ms + self.config.cadence_ms;
        let mut names: Vec<&'static str> = Vec::new();
        let mut grouped: Vec<Vec<Finding>> = Vec::new();
        for detector in &mut self.detectors {
            let findings = detector.evaluate(now_ms);
            match names.iter().position(|n| *n == detector.name()) {
                Some(i) => grouped[i].extend(findings),
                None => {
                    names.push(detector.name());
                    grouped.push(findings);
                }
            }
        }
        for (name, findings) in names.iter().zip(&grouped) {
            self.book.reconcile(now_ms, &self.telemetry, name, findings);
        }
    }

    /// Every alert that fired so far, in fire order.
    pub fn alert_records(&self) -> &[AlertRecord] {
        self.book.records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_self_paces_to_the_cadence() {
        use std::cell::Cell;
        use std::rc::Rc;

        struct CountingDetector(Rc<Cell<u64>>);
        impl Detector for CountingDetector {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn evaluate(&mut self, _now_ms: u64) -> Vec<crate::Finding> {
                self.0.set(self.0.get() + 1);
                Vec::new()
            }
        }

        let telemetry = Telemetry::recording();
        let mut config = MonitorConfig::small();
        config.cadence_ms = 1_000;
        let evaluations = Rc::new(Cell::new(0));
        let mut monitor = Monitor::new(&telemetry, config);
        monitor.push(CountingDetector(Rc::clone(&evaluations)));
        for now in (0..10_000).step_by(100) {
            monitor.tick(now);
        }
        // 10 s of 100 ms steps at a 1 s cadence: evaluated exactly 10×.
        assert_eq!(evaluations.get(), 10);
    }

    #[test]
    fn same_named_detectors_reconcile_together() {
        struct FixedTarget(&'static str, bool);
        impl Detector for FixedTarget {
            fn name(&self) -> &'static str {
                "latency.regression"
            }
            fn evaluate(&mut self, _now_ms: u64) -> Vec<crate::Finding> {
                if self.1 {
                    vec![crate::Finding::new(self.0, "unhealthy")]
                } else {
                    Vec::new()
                }
            }
        }

        let telemetry = Telemetry::recording();
        let mut config = MonitorConfig::small();
        config.cadence_ms = 1_000;
        config.debounce_ms = 0;
        config.hold_down_ms = 2_000;
        let mut monitor = Monitor::new(&telemetry, config);
        // One lens fires on its target, the other stays healthy. Without
        // grouped reconciliation the healthy lens would start resolving
        // the firing target on every tick.
        monitor.push(FixedTarget("histogram.a", true));
        monitor.push(FixedTarget("histogram.b", false));
        for now in 0..10u64 {
            monitor.tick(now * 1_000);
        }
        let records = monitor.alert_records();
        assert_eq!(records.len(), 1, "{records:?}");
        assert_eq!(records[0].target, "histogram.a");
        assert_eq!(records[0].resolved_ms, None, "stays firing across ticks");
        assert_eq!(monitor.book.firing_count(), 1);
    }

    #[test]
    fn standard_battery_fires_staleness_end_to_end() {
        let telemetry = Telemetry::recording();
        let mut config = MonitorConfig::small();
        config.cadence_ms = 60_000;
        config.debounce_ms = 120_000;
        config.head_staleness_slo_ms = 300_000;
        let mut monitor = Monitor::standard(&telemetry, config);

        // guest head advances for 10 min, then freezes.
        for minute in 0..10u64 {
            telemetry.gauge_set_at(minute * 60_000, "guest.head", minute as f64);
        }
        for minute in 0..40u64 {
            monitor.tick(minute * 60_000);
        }
        let records = monitor.alert_records();
        assert_eq!(records.len(), 1, "exactly the guest.head staleness alert: {records:?}");
        assert_eq!(records[0].detector, "client.staleness");
        assert_eq!(records[0].target, "guest.head");
        // Last change at 9 min, SLO 5 min → pending at 14 min, debounce
        // 2 min → fires at 16 min.
        assert_eq!(records[0].pending_ms, 14 * 60_000);
        assert_eq!(records[0].fired_ms, 16 * 60_000);
        assert_eq!(monitor.book.firing_count(), 1);
    }
}
