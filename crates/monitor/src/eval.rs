//! Chaos-scored detection quality.
//!
//! The evaluation harness cross-references the [`FaultEvent`]s a
//! [`ChaosPlan`] injected against the alerts the monitor actually fired
//! and scores each fault kind on three axes:
//!
//! * **recall** — of the injected fault windows, how many did a relevant
//!   detector catch (alert fired inside the window plus a grace period)?
//! * **precision** — of the relevant detectors' alerts, how many landed
//!   inside some injected window (as opposed to false alarms during
//!   healthy operation)?
//! * **MTTD** — mean time-to-detect: the average gap between a fault
//!   window opening and the first relevant alert firing.
//!
//! "Relevant" is a fixed fault-kind → detector map (`relevant_detectors`):
//! a validator crash is *supposed* to be caught by the client-staleness
//! watchdog and the stuck-packet detector; a fee-spike alert during a
//! validator crash would be a false positive, not a lucky catch.

use chaos::{ChaosPlan, FaultEvent};
use serde::{Deserialize, Serialize};

use crate::alerts::AlertRecord;

/// Every fault-kind slug ([`chaos::Fault::kind`]), in the fixed coverage-matrix order.
const ALL_FAULT_KINDS: &[&str] = &[
    "validator-crash",
    "validator-latency",
    "validator-clock-skew",
    "relayer-halt",
    "chunk-drop",
    "chunk-duplicate",
    "chunk-reorder",
    "congestion-storm",
    "inclusion-failure",
    "counterparty-halt",
    "chain-halt",
    "link-down",
    "counterfeit-mint",
];

/// Which detectors are *expected* to catch a given fault kind. Alerts
/// from other detectors during that fault's window are neither credited
/// nor penalised — they are scored under their own kinds.
fn relevant_detectors(kind: &str) -> &'static [&'static str] {
    match kind {
        "validator-crash" => &["client.staleness", "packet.stuck"],
        "validator-latency" => &["latency.regression"],
        "validator-clock-skew" => &["latency.regression"],
        "relayer-halt" => &["client.staleness", "packet.stuck"],
        "chunk-drop" => &["latency.regression", "packet.stuck", "relayer.retries"],
        // A duplicated chunk is an untracked second copy: its fee never
        // reaches the job accounting, so the duplicate counter — not the
        // fee stream — is the observable.
        "chunk-duplicate" => &["relayer.retries"],
        "chunk-reorder" => &["fee.spike", "latency.regression", "relayer.retries"],
        "congestion-storm" => &["latency.regression", "fee.spike", "relayer.retries"],
        // A missed inclusion requeues the tx for a later slot — a
        // sub-second delay invisible to relayer retries and job latency.
        // The chain's own inclusion-failure count is the observable.
        "inclusion-failure" => &["host.inclusion", "latency.regression"],
        "counterparty-halt" => &["client.staleness", "packet.stuck"],
        "chain-halt" => &["chain.staleness"],
        "link-down" => &["packet.stuck"],
        "counterfeit-mint" => &["supply.drift"],
        _ => &[],
    }
}

/// Score of one injected fault window.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EventScore {
    /// Fault-kind slug.
    pub kind: String,
    /// Attribution label of the injected fault.
    pub label: String,
    /// Window start, simulated ms.
    pub from_ms: u64,
    /// Window end (exclusive), simulated ms.
    pub until_ms: u64,
    /// Whether a relevant alert fired inside the window (+ grace).
    pub detected: bool,
    /// `first relevant fired_ms − from_ms`, when detected.
    pub time_to_detect_ms: Option<u64>,
    /// Detector of the first relevant alert, when detected.
    pub detected_by: Option<String>,
}

/// Aggregate score of one fault kind.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KindScore {
    /// Fault-kind slug.
    pub kind: String,
    /// Detectors expected to catch this kind.
    pub detectors: Vec<String>,
    /// Injected windows of this kind.
    pub injected: u64,
    /// Windows a relevant alert caught.
    pub detected: u64,
    /// Relevant alerts inside some window (+ grace).
    pub true_positive_alerts: u64,
    /// Relevant alerts outside every window: false alarms.
    pub false_positive_alerts: u64,
    /// `TP / (TP + FP)`; `1.0` when the relevant detectors stayed silent
    /// (no alarms means no false alarms).
    pub precision: f64,
    /// `detected / injected`; `1.0` when nothing was injected.
    pub recall: f64,
    /// Mean time-to-detect over the detected windows, `None` when none
    /// were detected.
    pub mean_time_to_detect_ms: Option<u64>,
}

/// The full detection-quality report of one scenario (or a merged
/// battery of scenarios).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Grace period appended to each fault window when attributing
    /// alerts, ms.
    pub grace_ms: u64,
    /// Per-window detail.
    pub events: Vec<EventScore>,
    /// Per-kind aggregates, in `ALL_FAULT_KINDS` order.
    pub kinds: Vec<KindScore>,
    /// Every alert the monitor fired, relevant or not.
    pub alerts_total: u64,
}

impl EvalReport {
    /// Folds another scenario's report into this one (the bench runs one
    /// scenario per fault kind and merges). Kinds present in both are
    /// re-aggregated from their combined events and alert counts.
    pub fn merge(&mut self, other: EvalReport) {
        self.events.extend(other.events);
        self.alerts_total += other.alerts_total;
        for kind in other.kinds {
            match self.kinds.iter_mut().find(|k| k.kind == kind.kind) {
                None => self.kinds.push(kind),
                Some(existing) => {
                    existing.injected += kind.injected;
                    existing.detected += kind.detected;
                    existing.true_positive_alerts += kind.true_positive_alerts;
                    existing.false_positive_alerts += kind.false_positive_alerts;
                    existing.recompute(&self.events);
                }
            }
        }
        let order =
            |k: &KindScore| ALL_FAULT_KINDS.iter().position(|s| *s == k.kind).unwrap_or(usize::MAX);
        self.kinds.sort_by_key(order);
    }

    /// The score row of one kind, if present.
    pub fn kind(&self, kind: &str) -> Option<&KindScore> {
        self.kinds.iter().find(|k| k.kind == kind)
    }
}

impl KindScore {
    fn recompute(&mut self, events: &[EventScore]) {
        let alarms = self.true_positive_alerts + self.false_positive_alerts;
        self.precision =
            if alarms == 0 { 1.0 } else { self.true_positive_alerts as f64 / alarms as f64 };
        self.recall =
            if self.injected == 0 { 1.0 } else { self.detected as f64 / self.injected as f64 };
        let detections: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == self.kind)
            .filter_map(|e| e.time_to_detect_ms)
            .collect();
        self.mean_time_to_detect_ms = if detections.is_empty() {
            None
        } else {
            Some(detections.iter().sum::<u64>() / detections.len() as u64)
        };
    }
}

/// Scores the alerts fired during one run against the plan that was
/// injected into it.
///
/// Each fault window `[from_ms, until_ms)` is widened by `grace_ms` on
/// the right — detectors legitimately fire *after* a fault ends (a stuck
/// packet is only visibly stuck once its SLO elapses). The same alert
/// may be credited to at most one window of a kind (earliest first), but
/// windows of different kinds are scored independently.
pub fn score(plan: &ChaosPlan, records: &[AlertRecord], grace_ms: u64) -> EvalReport {
    let mut events: Vec<EventScore> = Vec::new();
    for event in &plan.events {
        events.push(score_event(event, records, grace_ms));
    }

    let mut kinds: Vec<KindScore> = Vec::new();
    for &kind in ALL_FAULT_KINDS {
        let windows: Vec<&FaultEvent> =
            plan.events.iter().filter(|e| e.fault.kind() == kind).collect();
        if windows.is_empty() {
            continue;
        }
        let relevant = relevant_detectors(kind);
        let relevant_alerts: Vec<&AlertRecord> =
            records.iter().filter(|r| relevant.contains(&r.detector.as_str())).collect();
        let (mut tp, mut fp) = (0u64, 0u64);
        for alert in &relevant_alerts {
            let inside = windows.iter().any(|w| {
                alert.fired_ms >= w.from_ms && alert.fired_ms < w.until_ms.saturating_add(grace_ms)
            });
            if inside {
                tp += 1;
            } else {
                fp += 1;
            }
        }
        let scored: Vec<&EventScore> = events.iter().filter(|e| e.kind == kind).collect();
        let mut row = KindScore {
            kind: kind.to_string(),
            detectors: relevant.iter().map(|d| d.to_string()).collect(),
            injected: scored.len() as u64,
            detected: scored.iter().filter(|e| e.detected).count() as u64,
            true_positive_alerts: tp,
            false_positive_alerts: fp,
            precision: 0.0,
            recall: 0.0,
            mean_time_to_detect_ms: None,
        };
        row.recompute(&events);
        kinds.push(row);
    }

    EvalReport { grace_ms, events, kinds, alerts_total: records.len() as u64 }
}

fn score_event(event: &FaultEvent, records: &[AlertRecord], grace_ms: u64) -> EventScore {
    let kind = event.fault.kind();
    let relevant = relevant_detectors(kind);
    let first_hit = records
        .iter()
        .filter(|r| relevant.contains(&r.detector.as_str()))
        .filter(|r| {
            r.fired_ms >= event.from_ms && r.fired_ms < event.until_ms.saturating_add(grace_ms)
        })
        .min_by_key(|r| r.fired_ms);
    EventScore {
        kind: kind.to_string(),
        label: event.fault.label(),
        from_ms: event.from_ms,
        until_ms: event.until_ms,
        detected: first_hit.is_some(),
        time_to_detect_ms: first_hit.map(|r| r.fired_ms.saturating_sub(event.from_ms)),
        detected_by: first_hit.map(|r| r.detector.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos::Fault;

    fn record(detector: &str, fired_ms: u64) -> AlertRecord {
        AlertRecord {
            detector: detector.to_string(),
            target: "t".to_string(),
            pending_ms: fired_ms.saturating_sub(1),
            fired_ms,
            resolved_ms: None,
            details: String::new(),
        }
    }

    #[test]
    fn every_fault_variant_has_a_kind_and_relevant_detectors() {
        let faults = [
            Fault::ValidatorCrash { validator: 0 },
            Fault::ValidatorLatencySpike { validator: 0, factor: 2.0 },
            Fault::ValidatorClockSkew { validator: 0, offset_ms: 1 },
            Fault::RelayerHalt,
            Fault::ChunkDrop { probability: 0.5 },
            Fault::ChunkDuplicate { probability: 0.5 },
            Fault::ChunkReorder { probability: 0.5 },
            Fault::CongestionStorm { load: 0.9 },
            Fault::InclusionFailureBurst { probability: 0.5 },
            Fault::CounterpartyHalt,
            Fault::ChainHalt { chain: "b".into() },
            Fault::LinkDown { link: "a<>b".into() },
            Fault::CounterfeitMint { account: "m".into(), denom: "d".into(), amount: 1 },
        ];
        assert_eq!(faults.len(), ALL_FAULT_KINDS.len());
        for fault in &faults {
            let kind = fault.kind();
            assert!(ALL_FAULT_KINDS.contains(&kind), "{kind} missing from ALL_FAULT_KINDS");
            assert!(!relevant_detectors(kind).is_empty(), "{kind} has no relevant detectors");
            assert!(fault.label().starts_with(kind), "label {} !~ {kind}", fault.label());
        }
    }

    #[test]
    fn detection_inside_window_plus_grace_counts_with_mttd() {
        let plan = ChaosPlan::new(1).with(1_000, 2_000, Fault::RelayerHalt);
        // Stuck-packet alert 1.5 s after the halt *ended* — inside grace.
        let records = vec![record("packet.stuck", 3_500), record("fee.spike", 1_200)];
        let report = score(&plan, &records, 2_000);
        let row = report.kind("relayer-halt").unwrap();
        assert_eq!(row.injected, 1);
        assert_eq!(row.detected, 1);
        assert_eq!(row.recall, 1.0);
        assert_eq!(row.precision, 1.0, "the fee.spike alert is another kind's business");
        assert_eq!(row.mean_time_to_detect_ms, Some(2_500));
        assert_eq!(report.events[0].detected_by.as_deref(), Some("packet.stuck"));
        assert_eq!(report.alerts_total, 2);
    }

    #[test]
    fn relevant_alert_outside_every_window_is_a_false_positive() {
        let plan = ChaosPlan::new(1).with(10_000, 20_000, Fault::CounterpartyHalt);
        let records = vec![record("client.staleness", 5_000)];
        let report = score(&plan, &records, 0);
        let row = report.kind("counterparty-halt").unwrap();
        assert_eq!(row.detected, 0);
        assert_eq!(row.recall, 0.0);
        assert_eq!(row.false_positive_alerts, 1);
        assert_eq!(row.precision, 0.0);
        assert_eq!(row.mean_time_to_detect_ms, None);
    }

    #[test]
    fn merge_combines_single_kind_scenarios_into_a_matrix() {
        let halt_plan = ChaosPlan::new(1).with(1_000, 2_000, Fault::RelayerHalt);
        let mint_plan = ChaosPlan::new(2)
            .at(500, Fault::CounterfeitMint { account: "m".into(), denom: "d".into(), amount: 9 });
        let mut report = score(&halt_plan, &[record("packet.stuck", 1_500)], 1_000);
        report.merge(score(&mint_plan, &[record("supply.drift", 700)], 1_000));
        assert_eq!(report.kinds.len(), 2);
        // Matrix order follows ALL_FAULT_KINDS, not merge order.
        assert_eq!(report.kinds[0].kind, "relayer-halt");
        assert_eq!(report.kinds[1].kind, "counterfeit-mint");
        assert_eq!(report.alerts_total, 2);
        assert!(report.kinds.iter().all(|k| k.recall == 1.0 && k.precision == 1.0));
    }
}
