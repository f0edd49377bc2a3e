//! Post-mortem bundles: when a chaos invariant fires or a monitor alert
//! reaches *Firing*, snapshot everything an operator would want on their
//! screen — the implicated packets' causal graphs, the last-N journal
//! records leading up to the trigger, and the metric families the
//! trigger's detector watches — into one deterministic JSON artifact.
//!
//! The bundle is collected *post-hoc* from the run report and the
//! exported journal, never during the run, so collecting it cannot
//! perturb the simulation: same-seed runs produce byte-identical
//! bundles.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::graph::CausalGraph;
use crate::journal::JournalRecord;
use crate::report::RunReport;

/// Default number of trailing journal records captured per trigger.
pub const POSTMORTEM_TAIL: usize = 32;

/// What tripped a post-mortem capture.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TriggerKind {
    /// A chaos-suite invariant violation.
    Invariant,
    /// A monitor alert transitioning to Firing.
    Alert,
}

/// One post-mortem capture: the trigger plus its forensic context.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PostmortemTrigger {
    /// Simulated time of the trigger.
    pub at_ms: u64,
    /// Invariant violation or firing alert.
    pub kind: TriggerKind,
    /// Invariant name, or `detector[target]` for alerts.
    pub source: String,
    /// Diagnosis captured at the trigger.
    pub details: String,
    /// Trace ids the trigger implicates.
    pub linked_traces: Vec<u64>,
    /// Causal graphs of the implicated packet lifecycles.
    pub graphs: Vec<CausalGraph>,
    /// Labels of implicated multi-hop routes (their per-leg packets
    /// appear in `graphs` when the report carries them).
    pub route_labels: Vec<String>,
    /// The last-N journal records at or before the trigger, in journal
    /// order.
    pub journal_tail: Vec<JournalRecord>,
    /// Counters from the metric families the trigger's source watches
    /// (shared leading name component), plus telemetry self-health.
    pub counters: BTreeMap<String, u64>,
    /// Gauges from the same metric families.
    pub gauges: BTreeMap<String, f64>,
}

/// Every post-mortem capture of one run, as a single artifact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PostmortemBundle {
    /// Scenario label, copied from the run report.
    pub scenario: String,
    /// Simulation seed, copied from the run report.
    pub seed: u64,
    /// Captures, ordered by trigger time (then kind, then source).
    pub triggers: Vec<PostmortemTrigger>,
}

/// The leading component of a dotted or dashed name: the metric-family
/// prefix a detector or invariant shares with the metrics it watches
/// (`client.staleness` → `client`, `ics20-conservation` → `ics20`).
fn family(name: &str) -> &str {
    name.split(['.', '-']).next().unwrap_or(name)
}

impl PostmortemBundle {
    /// Collects the bundle from a run report and the exported JSONL
    /// journal (as produced by `Telemetry::journal_jsonl`). Journal
    /// lines that fail to parse are skipped — a truncated journal from a
    /// crashed run still yields a usable bundle.
    pub fn collect(report: &RunReport, journal_jsonl: &str, tail: usize) -> Self {
        let journal: Vec<JournalRecord> =
            journal_jsonl.lines().filter_map(|line| serde_json::from_str(line).ok()).collect();

        let mut raw: Vec<(u64, TriggerKind, String, String, Vec<u64>)> = Vec::new();
        for violation in &report.violations {
            raw.push((
                violation.at_ms,
                TriggerKind::Invariant,
                violation.invariant.clone(),
                violation.details.clone(),
                violation.linked_traces.clone(),
            ));
        }
        for alert in &report.alerts {
            if alert.state != "firing" {
                continue;
            }
            raw.push((
                alert.at_ms,
                TriggerKind::Alert,
                format!("{}[{}]", alert.detector, alert.target),
                alert.details.clone(),
                alert.linked_traces.clone(),
            ));
        }
        raw.sort_by(|a, b| (a.0, &a.2, &a.3).cmp(&(b.0, &b.2, &b.3)));

        let triggers = raw
            .into_iter()
            .map(|(at_ms, kind, source, details, linked_traces)| {
                let mut graphs = Vec::new();
                let mut route_labels = Vec::new();
                for trace in &linked_traces {
                    if let Some(packet) = report.packets.iter().find(|p| p.trace == *trace) {
                        graphs.push(CausalGraph::from_packet(packet));
                    }
                    if let Some(route) = report.routes.iter().find(|r| r.trace == *trace) {
                        route_labels.push(route.label.clone());
                    }
                }
                // Journal order is seq order, which promotion and
                // retroactive events keep only loosely time-sorted —
                // filter by time, then keep the last `tail` by seq.
                let mut journal_tail: Vec<JournalRecord> =
                    journal.iter().filter(|r| r.at_ms <= at_ms).cloned().collect();
                if journal_tail.len() > tail {
                    journal_tail.drain(..journal_tail.len() - tail);
                }
                let prefix = family(&source).to_string();
                let counters: BTreeMap<String, u64> = report
                    .metrics
                    .counters
                    .iter()
                    .filter(|(name, _)| {
                        family(name) == prefix || name.starts_with("telemetry.errors.")
                    })
                    .map(|(name, value)| (name.clone(), *value))
                    .collect();
                let gauges: BTreeMap<String, f64> = report
                    .metrics
                    .gauges
                    .iter()
                    .filter(|(name, _)| family(name) == prefix)
                    .map(|(name, value)| (name.clone(), *value))
                    .collect();
                PostmortemTrigger {
                    at_ms,
                    kind,
                    source,
                    details,
                    linked_traces,
                    graphs,
                    route_labels,
                    journal_tail,
                    counters,
                    gauges,
                }
            })
            .collect();

        PostmortemBundle {
            scenario: report.meta.scenario.clone(),
            seed: report.meta.seed,
            triggers,
        }
    }

    /// Serializes as pretty JSON (deterministic key order).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("post-mortem bundle serializes")
    }

    /// Renders the bundle as text (the `trace_explorer --postmortem`
    /// view): each trigger with its causal graphs and journal tail.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "post-mortem bundle — scenario {} (seed {}): {} trigger(s)\n",
            self.scenario,
            self.seed,
            self.triggers.len(),
        ));
        for trigger in &self.triggers {
            out.push_str(&format!(
                "\ntrigger @{} ms: {} {} — {}\n",
                trigger.at_ms,
                match trigger.kind {
                    TriggerKind::Invariant => "invariant",
                    TriggerKind::Alert => "alert firing",
                },
                trigger.source,
                trigger.details,
            ));
            if !trigger.route_labels.is_empty() {
                out.push_str(&format!("  routes: {}\n", trigger.route_labels.join(", ")));
            }
            for graph in &trigger.graphs {
                for line in graph.render_text().lines() {
                    out.push_str(&format!("  {line}\n"));
                }
            }
            out.push_str(&format!("  journal tail ({} records):\n", trigger.journal_tail.len()));
            for record in &trigger.journal_tail {
                out.push_str(&format!(
                    "    #{:<6} @{:>10} ms  {}\n",
                    record.seq, record.at_ms, record.name
                ));
            }
            for (name, value) in &trigger.counters {
                out.push_str(&format!("  counter {name:<42} {value}\n"));
            }
            for (name, value) in &trigger.gauges {
                out.push_str(&format!("  gauge   {name:<42} {value}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{names, AlertTransition, Telemetry};

    fn seeded() -> (RunReport, String) {
        let telemetry = Telemetry::recording();
        let trace = telemetry.trace_for_packet("guest", "channel-0", 1).unwrap();
        telemetry.event(0, names::PACKET_SEND, &[trace], &[]);
        telemetry.event(5_000, names::PACKET_RECV, &[trace], &[]);
        telemetry.counter_add("mesh.supply.minted", 3);
        telemetry.gauge_set("mesh.load", 0.5);
        telemetry.violation(6_000, "mesh-supply", "voucher drift", &[], &[trace]);
        telemetry.alert(
            7_000,
            AlertTransition::Pending,
            "client.staleness",
            "guest.head",
            "warming",
            &[],
        );
        telemetry.alert(
            9_000,
            AlertTransition::Firing,
            "client.staleness",
            "guest.head",
            "stale",
            &[trace],
        );
        telemetry.event(60_000, names::PACKET_TIMEOUT, &[trace], &[]);
        (telemetry.run_report("pm-test", 3, 60_000), telemetry.journal_jsonl())
    }

    #[test]
    fn captures_violations_and_firing_alerts_only() {
        let (report, journal) = seeded();
        let bundle = PostmortemBundle::collect(&report, &journal, POSTMORTEM_TAIL);
        assert_eq!(bundle.triggers.len(), 2, "one violation + one firing (pending skipped)");
        assert_eq!(bundle.triggers[0].kind, TriggerKind::Invariant);
        assert_eq!(bundle.triggers[0].source, "mesh-supply");
        assert_eq!(bundle.triggers[1].kind, TriggerKind::Alert);
        assert_eq!(bundle.triggers[1].source, "client.staleness[guest.head]");
        // The implicated packet's causal graph rides along.
        assert_eq!(bundle.triggers[0].graphs.len(), 1);
        assert_eq!(bundle.triggers[0].graphs[0].sequence, 1);
        // The journal tail stops at the trigger.
        assert!(bundle.triggers[0].journal_tail.iter().all(|r| r.at_ms <= 6_000));
        assert!(!bundle.triggers[0].journal_tail.is_empty());
        // Metric families follow the source prefix.
        assert!(bundle.triggers[0].counters.contains_key("mesh.supply.minted"));
        assert!(bundle.triggers[0].gauges.contains_key("mesh.load"));
        assert!(!bundle.triggers[1].counters.contains_key("mesh.supply.minted"));
    }

    #[test]
    fn bundles_are_deterministic_and_round_trip() {
        let (report, journal) = seeded();
        let a = PostmortemBundle::collect(&report, &journal, 8);
        let b = PostmortemBundle::collect(&report, &journal, 8);
        assert_eq!(a.to_json(), b.to_json());
        let back: PostmortemBundle = serde_json::from_str(&a.to_json()).unwrap();
        assert_eq!(back, a);
        assert!(a.triggers.iter().all(|t| t.journal_tail.len() <= 8));
        let text = a.render_text();
        assert!(text.contains("invariant mesh-supply"));
        assert!(text.contains("alert firing client.staleness[guest.head]"));
    }

    #[test]
    fn truncated_journals_still_bundle() {
        let (report, journal) = seeded();
        // Chop the journal mid-line, as a crashed run would.
        let cut = journal.len() / 2;
        let bundle = PostmortemBundle::collect(&report, &journal[..cut], 4);
        assert_eq!(bundle.triggers.len(), 2, "triggers come from the report, not the journal");
    }
}
