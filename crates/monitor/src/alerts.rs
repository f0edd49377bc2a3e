//! Alert lifecycle: a deterministic Pending → Firing → Resolved state
//! machine with debounce and hold-down.
//!
//! Detectors report *instantaneous* findings ("this target looks
//! unhealthy right now"); the [`AlertBook`] turns those into stable
//! alerts. A finding must persist for `debounce_ms` before the alert
//! fires (one slow evaluation is not an incident), and a firing alert
//! must observe `hold_down_ms` of continuous health before it resolves
//! (a single healthy sample during an outage is not a recovery). Every
//! transition is journaled through [`Telemetry::alert`], so the alert
//! stream is part of the same byte-reproducible record as the packet
//! lifecycle events it annotates.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use telemetry::{AlertTransition, Telemetry, TraceId};

/// One unhealthy observation reported by a detector at a single
/// evaluation instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// What is unhealthy (e.g. `guest.head`, `channel-0#17`).
    pub target: String,
    /// Human-readable diagnosis, deterministic across runs.
    pub details: String,
    /// Packet/route traces the finding implicates, if any.
    pub traces: Vec<TraceId>,
}

impl Finding {
    /// Convenience constructor for findings without linked traces.
    pub fn new(target: impl Into<String>, details: impl Into<String>) -> Self {
        Self { target: target.into(), details: details.into(), traces: Vec::new() }
    }
}

/// A completed or still-firing alert, as kept by the [`AlertBook`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlertRecord {
    /// Detector that raised the alert.
    pub detector: String,
    /// Target the alert is about.
    pub target: String,
    /// When the condition was first observed (start of debounce).
    pub pending_ms: u64,
    /// When the alert fired (debounce satisfied).
    pub fired_ms: u64,
    /// When the alert resolved; `None` while still firing.
    pub resolved_ms: Option<u64>,
    /// Diagnosis captured at fire time.
    pub details: String,
}

#[derive(Clone, Debug)]
enum AlertState {
    /// Condition observed, debounce running.
    Pending { since: u64 },
    /// Alert fired; `healthy_since` tracks the hold-down timer, and
    /// `record` indexes the open [`AlertRecord`].
    Firing { healthy_since: Option<u64>, record: usize },
}

/// The per-(detector, target) alert state machine.
///
/// Call [`AlertBook::reconcile`] once per detector per evaluation tick
/// with that detector's current findings; the book diffs them against
/// its tracked state and emits the resulting transitions.
#[derive(Debug)]
pub struct AlertBook {
    debounce_ms: u64,
    hold_down_ms: u64,
    states: BTreeMap<(String, String), AlertState>,
    records: Vec<AlertRecord>,
}

impl AlertBook {
    /// An empty book with the given debounce and hold-down.
    pub fn new(debounce_ms: u64, hold_down_ms: u64) -> Self {
        Self { debounce_ms, hold_down_ms, states: BTreeMap::new(), records: Vec::new() }
    }

    /// Advances every alert owned by `detector` given its findings at
    /// `now_ms`. Targets present in `findings` are unhealthy; tracked
    /// targets absent from it are healthy. Transitions are journaled
    /// through `telemetry` in deterministic (target-sorted) order.
    pub fn reconcile(
        &mut self,
        now_ms: u64,
        telemetry: &Telemetry,
        detector: &str,
        findings: &[Finding],
    ) {
        let unhealthy: BTreeMap<&str, &Finding> =
            findings.iter().map(|f| (f.target.as_str(), f)).collect();

        // Unhealthy targets: open or advance their alerts.
        for (&target, finding) in &unhealthy {
            let key = (detector.to_string(), target.to_string());
            match self.states.get_mut(&key) {
                None => {
                    telemetry.alert(
                        now_ms,
                        AlertTransition::Pending,
                        detector,
                        target,
                        &finding.details,
                        &finding.traces,
                    );
                    if self.debounce_ms == 0 {
                        telemetry.alert(
                            now_ms,
                            AlertTransition::Firing,
                            detector,
                            target,
                            &finding.details,
                            &finding.traces,
                        );
                        self.records.push(AlertRecord {
                            detector: detector.to_string(),
                            target: target.to_string(),
                            pending_ms: now_ms,
                            fired_ms: now_ms,
                            resolved_ms: None,
                            details: finding.details.clone(),
                        });
                        let record = self.records.len() - 1;
                        self.states.insert(key, AlertState::Firing { healthy_since: None, record });
                    } else {
                        self.states.insert(key, AlertState::Pending { since: now_ms });
                    }
                }
                Some(AlertState::Pending { since }) => {
                    if now_ms.saturating_sub(*since) >= self.debounce_ms {
                        let pending_ms = *since;
                        telemetry.alert(
                            now_ms,
                            AlertTransition::Firing,
                            detector,
                            target,
                            &finding.details,
                            &finding.traces,
                        );
                        self.records.push(AlertRecord {
                            detector: detector.to_string(),
                            target: target.to_string(),
                            pending_ms,
                            fired_ms: now_ms,
                            resolved_ms: None,
                            details: finding.details.clone(),
                        });
                        let record = self.records.len() - 1;
                        self.states.insert(key, AlertState::Firing { healthy_since: None, record });
                    }
                }
                Some(AlertState::Firing { healthy_since, .. }) => {
                    // Condition back: cancel any hold-down in progress.
                    *healthy_since = None;
                }
            }
        }

        // Healthy targets: clear pendings, run hold-downs.
        let tracked: Vec<(String, String)> = self
            .states
            .keys()
            .filter(|(d, t)| d == detector && !unhealthy.contains_key(t.as_str()))
            .cloned()
            .collect();
        for key in tracked {
            match self.states.get_mut(&key) {
                Some(AlertState::Pending { .. }) => {
                    // Condition cleared before the debounce elapsed:
                    // silently drop (the pending journal entry remains,
                    // but no alert ever fired).
                    self.states.remove(&key);
                }
                Some(AlertState::Firing { healthy_since, record }) => match *healthy_since {
                    None => *healthy_since = Some(now_ms),
                    Some(since) => {
                        if now_ms.saturating_sub(since) >= self.hold_down_ms {
                            let record = *record;
                            self.records[record].resolved_ms = Some(now_ms);
                            telemetry.alert(
                                now_ms,
                                AlertTransition::Resolved,
                                &key.0,
                                &key.1,
                                &self.records[record].details,
                                &[],
                            );
                            self.states.remove(&key);
                        }
                    }
                },
                None => unreachable!("key collected from states above"),
            }
        }
    }

    /// Every alert that fired, in fire order. Unresolved alerts have
    /// `resolved_ms: None`.
    pub fn records(&self) -> &[AlertRecord] {
        &self.records
    }

    /// Number of alerts currently in the firing state.
    #[cfg(test)]
    pub(crate) fn firing_count(&self) -> usize {
        self.states.values().filter(|state| matches!(state, AlertState::Firing { .. })).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording() -> Telemetry {
        Telemetry::recording()
    }

    #[test]
    fn debounce_then_fire_then_hold_down_then_resolve() {
        let telemetry = recording();
        let mut book = AlertBook::new(120, 300);
        let finding = vec![Finding::new("guest.head", "stale")];

        book.reconcile(0, &telemetry, "client.staleness", &finding);
        assert!(book.records().is_empty(), "pending must not fire yet");

        book.reconcile(60, &telemetry, "client.staleness", &finding);
        assert!(book.records().is_empty(), "debounce not yet elapsed");

        book.reconcile(120, &telemetry, "client.staleness", &finding);
        assert_eq!(book.records().len(), 1);
        assert_eq!(book.records()[0].pending_ms, 0);
        assert_eq!(book.records()[0].fired_ms, 120);
        assert_eq!(book.firing_count(), 1);

        // Healthy, but hold-down keeps it firing for a while.
        book.reconcile(180, &telemetry, "client.staleness", &[]);
        book.reconcile(240, &telemetry, "client.staleness", &[]);
        assert_eq!(book.firing_count(), 1);

        book.reconcile(480, &telemetry, "client.staleness", &[]);
        assert_eq!(book.firing_count(), 0);
        assert_eq!(book.records()[0].resolved_ms, Some(480));

        let states: Vec<String> =
            telemetry.run_report("t", 0, 0).alerts.iter().map(|t| t.state.clone()).collect();
        assert_eq!(states, ["pending", "firing", "resolved"]);
    }

    #[test]
    fn transient_blip_never_fires() {
        let telemetry = recording();
        let mut book = AlertBook::new(120, 300);
        book.reconcile(0, &telemetry, "fee.spike", &[Finding::new("relayer-payer", "spike")]);
        book.reconcile(60, &telemetry, "fee.spike", &[]);
        book.reconcile(600, &telemetry, "fee.spike", &[Finding::new("relayer-payer", "spike")]);
        book.reconcile(660, &telemetry, "fee.spike", &[]);
        assert!(book.records().is_empty());
        // Two pendings journaled, nothing fired.
        let states: Vec<String> =
            telemetry.run_report("t", 0, 0).alerts.iter().map(|t| t.state.clone()).collect();
        assert_eq!(states, ["pending", "pending"]);
    }

    #[test]
    fn unhealthy_sample_during_hold_down_cancels_resolution() {
        let telemetry = recording();
        let mut book = AlertBook::new(0, 300);
        let finding = vec![Finding::new("t", "bad")];
        book.reconcile(0, &telemetry, "d", &finding);
        assert_eq!(book.firing_count(), 1, "zero debounce fires immediately");

        book.reconcile(100, &telemetry, "d", &[]); // hold-down starts
        book.reconcile(200, &telemetry, "d", &finding); // relapse
        book.reconcile(450, &telemetry, "d", &[]); // hold-down restarts here
        assert_eq!(book.firing_count(), 1, "old hold-down must have been cancelled");
        book.reconcile(750, &telemetry, "d", &[]);
        assert_eq!(book.firing_count(), 0);
        assert_eq!(book.records().len(), 1, "relapse must not open a second record");
    }

    #[test]
    fn detectors_are_isolated_and_ordering_is_deterministic() {
        let telemetry = recording();
        let mut book = AlertBook::new(0, 0);
        let findings = vec![Finding::new("b-target", "late"), Finding::new("a-target", "late")];
        book.reconcile(0, &telemetry, "packet.stuck", &findings);
        book.reconcile(0, &telemetry, "client.staleness", &[Finding::new("cp.head", "stale")]);
        let order: Vec<(String, String)> = telemetry
            .run_report("t", 0, 0)
            .alerts
            .iter()
            .filter(|t| t.state == "firing")
            .map(|t| (t.detector.clone(), t.target.clone()))
            .collect();
        // Within one reconcile call targets are visited in sorted order.
        assert_eq!(
            order,
            [
                ("packet.stuck".into(), "a-target".into()),
                ("packet.stuck".into(), "b-target".into()),
                ("client.staleness".into(), "cp.head".into()),
            ]
        );
    }
}
