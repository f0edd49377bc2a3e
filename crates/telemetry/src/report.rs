//! Aggregated run reports: everything a run produced, rendered once as
//! JSON (machine artifact) and once as text (human summary), from the
//! same data so the two can never drift apart.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::journal::{Fields, RecordKind};
use crate::metrics::MetricsSnapshot;
use crate::{names, Inner};

/// Identifying metadata of one simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunMeta {
    /// Scenario label (e.g. `paper`, `small`, a chaos scenario name).
    pub scenario: String,
    /// Simulation seed the run is a pure function of.
    pub seed: u64,
    /// Simulated duration in milliseconds.
    pub duration_ms: u64,
}

/// One journal event replayed into a packet's lifecycle view.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulated timestamp in milliseconds.
    pub at_ms: u64,
    /// Event name.
    pub name: String,
    /// Structured payload.
    pub fields: Fields,
}

/// One span linked to a packet trace.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpanReport {
    /// Span id.
    pub id: u64,
    /// Span name.
    pub name: String,
    /// Opening edge, simulated ms.
    pub start_ms: u64,
    /// Closing edge, simulated ms (`None` when still open at run end).
    pub end_ms: Option<u64>,
    /// Every trace this span is linked to.
    pub traces: Vec<u64>,
}

impl SpanReport {
    /// Span duration in milliseconds (`None` while open).
    pub fn duration_ms(&self) -> Option<u64> {
        self.end_ms.map(|end| end.saturating_sub(self.start_ms))
    }
}

/// The full lifecycle of one IBC packet as observed by telemetry.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PacketTraceReport {
    /// Trace id.
    pub trace: u64,
    /// Chain the packet originated on.
    pub origin: String,
    /// Source channel of the packet, as named on the origin chain.
    pub channel: String,
    /// ICS-04 sequence number.
    pub sequence: u64,
    /// First journal activity, simulated ms.
    pub first_ms: u64,
    /// Last journal activity, simulated ms.
    pub last_ms: u64,
    /// Whether the lifecycle closed (acknowledged or timed out).
    pub completed: bool,
    /// Point events, in journal order.
    pub events: Vec<TraceEvent>,
    /// Linked spans, in start order.
    pub spans: Vec<SpanReport>,
}

/// The end-to-end lifecycle of one multi-hop route: a single trace
/// linking every per-hop packet trace of an `A→B→…→Z` transfer (and of
/// its backward refund legs, when the route failed).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RouteTraceReport {
    /// Trace id.
    pub trace: u64,
    /// Stable route label assigned by the harness.
    pub label: String,
    /// First journal activity, simulated ms.
    pub first_ms: u64,
    /// Last journal activity, simulated ms.
    pub last_ms: u64,
    /// Number of packet legs committed for this route (forward and
    /// refund legs alike).
    pub legs: u64,
    /// Whether the funds reached the final receiver.
    pub delivered: bool,
    /// Whether the route failed and the refund reached the origin sender.
    pub refunded: bool,
    /// Point events, in journal order — the union of every linked leg's
    /// lifecycle plus the route-level milestones.
    pub events: Vec<TraceEvent>,
    /// Linked spans, in start order.
    pub spans: Vec<SpanReport>,
}

impl RouteTraceReport {
    /// End-to-end latency in milliseconds.
    pub fn latency_ms(&self) -> u64 {
        self.last_ms.saturating_sub(self.first_ms)
    }
}

/// One invariant violation with its forensic context.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ViolationReport {
    /// Simulated time of detection.
    pub at_ms: u64,
    /// Invariant name.
    pub invariant: String,
    /// Human-readable diagnosis.
    pub details: String,
    /// Labels of fault windows active at detection time.
    pub faults: Vec<String>,
    /// Trace ids of packets in flight at detection time.
    pub linked_traces: Vec<u64>,
}

/// The state a monitor alert moves into ([`crate::Telemetry::alert`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertTransition {
    /// Entered its debounce window (first unhealthy tick).
    Pending,
    /// Fired (unhealthy past the debounce window).
    Firing,
    /// Resolved (healthy past the hold-down).
    Resolved,
}

impl AlertTransition {
    /// The journal event that records the transition.
    pub fn event_name(self) -> &'static str {
        match self {
            AlertTransition::Pending => names::ALERT_PENDING,
            AlertTransition::Firing => names::ALERT_FIRING,
            AlertTransition::Resolved => names::ALERT_RESOLVED,
        }
    }

    /// The value of [`AlertTransitionReport::state`].
    pub fn as_str(self) -> &'static str {
        match self {
            AlertTransition::Pending => "pending",
            AlertTransition::Firing => "firing",
            AlertTransition::Resolved => "resolved",
        }
    }
}

/// One monitor-alert lifecycle transition (pending → firing → resolved),
/// recorded by [`crate::Telemetry::alert`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlertTransitionReport {
    /// Simulated time of the transition.
    pub at_ms: u64,
    /// Detector that owns the alert (e.g. `client.staleness`).
    pub detector: String,
    /// What the detector is watching (e.g. `guest.head`).
    pub target: String,
    /// `pending`, `firing` or `resolved`.
    pub state: String,
    /// Human-readable diagnosis captured at the transition.
    pub details: String,
    /// Trace ids of the packet lifecycles the alert implicates.
    pub linked_traces: Vec<u64>,
}

/// Where every generated transfer ended up: the per-reason breakdown
/// that explains the gap between `generated` and `delivered`, so a
/// throughput number can never hide a silent loss. `explained()` must
/// equal `generated` — [`DeliveryAccounting::unexplained`] is the
/// residual a gate can assert to be zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeliveryAccounting {
    /// Transfers the workload model generated.
    pub generated: u64,
    /// Transfers whose success acknowledgement closed the lifecycle.
    pub delivered: u64,
    /// Generated but never submitted: still sitting in the workload
    /// queue when the run ended.
    pub still_queued: u64,
    /// Submitted and refunded by a timeout close.
    pub timed_out: u64,
    /// Submitted and closed by an error acknowledgement (app-level
    /// rejection on the receiving chain).
    pub error_acked: u64,
    /// Submitted but still in flight — no terminal event by run end
    /// (stranded at export).
    pub stranded: u64,
    /// Rejected before commitment (e.g. send on a closed or unknown
    /// channel).
    pub rejected: u64,
}

impl DeliveryAccounting {
    /// Sum of every accounted outcome; equals `generated` when the
    /// ledger balances.
    pub fn explained(&self) -> u64 {
        self.delivered
            + self.still_queued
            + self.timed_out
            + self.error_acked
            + self.stranded
            + self.rejected
    }

    /// Transfers the breakdown fails to explain (0 when balanced).
    pub fn unexplained(&self) -> u64 {
        self.generated.saturating_sub(self.explained())
    }
}

/// The aggregated output of one run: metadata, metrics, packet traces,
/// invariant violations and monitor-alert transitions.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunReport {
    /// Run identity.
    pub meta: RunMeta,
    /// Snapshot of every counter, gauge and histogram.
    pub metrics: MetricsSnapshot,
    /// Per-packet lifecycle traces, by trace id.
    pub packets: Vec<PacketTraceReport>,
    /// End-to-end multi-hop route traces, by trace id (empty for
    /// single-link runs; `default` keeps older artifacts readable).
    #[serde(default)]
    pub routes: Vec<RouteTraceReport>,
    /// Invariant violations with linked traces.
    pub violations: Vec<ViolationReport>,
    /// Monitor-alert lifecycle transitions, in emission order (empty
    /// when no monitor ran; `default` keeps older artifacts readable).
    #[serde(default)]
    pub alerts: Vec<AlertTransitionReport>,
    /// Total journal records emitted.
    pub journal_len: u64,
    /// Per-reason delivery accounting, filled in by harnesses that run a
    /// workload model (`None` for bare telemetry runs and older
    /// artifacts).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub delivery: Option<DeliveryAccounting>,
}

impl RunReport {
    /// Assembles the report from the sink's journal, span table and trace
    /// indexes ([`crate::Telemetry::run_report`]).
    pub(crate) fn assemble(meta: RunMeta, inner: &Inner) -> Self {
        // One pass over the journal builds a trace → events index so the
        // per-packet assembly below is linear, not quadratic.
        let mut events_by_trace: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
        for record in &inner.journal {
            if record.kind != RecordKind::Event {
                continue;
            }
            for trace in &record.traces {
                events_by_trace.entry(*trace).or_default().push(TraceEvent {
                    at_ms: record.at_ms,
                    name: record.name.clone(),
                    fields: record.fields.clone(),
                });
            }
        }
        let mut spans_by_trace: BTreeMap<u64, Vec<SpanReport>> = BTreeMap::new();
        for (id, data) in &inner.spans {
            for trace in &data.traces {
                // Each per-trace copy records only its owning trace: a
                // relayer sweep span can link thousands of packets, and
                // embedding the full cross-reference list in every copy
                // made the report quadratic in batch size.
                spans_by_trace.entry(*trace).or_default().push(SpanReport {
                    id: *id,
                    name: data.name.clone(),
                    start_ms: data.start_ms,
                    end_ms: data.end_ms,
                    traces: vec![*trace],
                });
            }
        }
        // One trace's events and spans, with its first and last activity
        // (both 0 when it has neither).
        let mut lifecycle = |trace: u64| {
            let events = events_by_trace.remove(&trace).unwrap_or_default();
            let spans = spans_by_trace.remove(&trace).unwrap_or_default();
            let at = events.iter().map(|e| e.at_ms);
            let first_ms = at.clone().chain(spans.iter().map(|s| s.start_ms)).min().unwrap_or(0);
            let ends = spans.iter().map(|s| s.end_ms.unwrap_or(s.start_ms));
            let last_ms = at.chain(ends).max().unwrap_or(0);
            (first_ms, last_ms, events, spans)
        };

        let mut packets = Vec::with_capacity(inner.packet_traces.len());
        for ((origin, channel, sequence), trace) in &inner.packet_traces {
            let (first_ms, last_ms, events, spans) = lifecycle(trace.0);
            let completed = events
                .iter()
                .any(|e| e.name == names::PACKET_ACK || e.name == names::PACKET_TIMEOUT);
            packets.push(PacketTraceReport {
                trace: trace.0,
                origin: origin.clone(),
                channel: channel.clone(),
                sequence: *sequence,
                first_ms,
                last_ms,
                completed,
                events,
                spans,
            });
        }
        packets.sort_by_key(|p| p.trace);

        let mut routes = Vec::with_capacity(inner.route_traces.len());
        for (label, trace) in &inner.route_traces {
            let (first_ms, last_ms, events, spans) = lifecycle(trace.0);
            let legs = events.iter().filter(|e| e.name == names::PACKET_SEND).count() as u64;
            let delivered = events.iter().any(|e| e.name == names::ROUTE_DELIVERED);
            let refunded = events.iter().any(|e| e.name == names::ROUTE_REFUNDED);
            routes.push(RouteTraceReport {
                trace: trace.0,
                label: label.clone(),
                first_ms,
                last_ms,
                legs,
                delivered,
                refunded,
                events,
                spans,
            });
        }
        routes.sort_by_key(|r| r.trace);

        RunReport {
            meta,
            metrics: inner.metrics.snapshot(),
            packets,
            routes,
            violations: inner.violations.clone(),
            alerts: inner.alerts.clone(),
            journal_len: inner.journal.len() as u64,
            delivery: None,
        }
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("run report serializes")
    }

    /// The packet trace with the longest observed lifecycle, if any.
    pub fn slowest_packet(&self) -> Option<&PacketTraceReport> {
        self.packets.iter().max_by_key(|p| (p.last_ms.saturating_sub(p.first_ms), p.trace))
    }

    /// Looks up a packet trace by `(origin, channel, sequence)`.
    pub fn packet(&self, origin: &str, channel: &str, sequence: u64) -> Option<&PacketTraceReport> {
        self.packets
            .iter()
            .find(|p| p.origin == origin && p.channel == channel && p.sequence == sequence)
    }

    /// Looks up a route trace by its label.
    pub fn route(&self, label: &str) -> Option<&RouteTraceReport> {
        self.routes.iter().find(|r| r.label == label)
    }

    /// Telemetry's own error counters (`telemetry.errors.*`): silent
    /// registration or capacity problems inside the observability layer
    /// itself — invalid histogram bounds, cardinality-limited metric
    /// names. Deterministic order (by counter name).
    fn telemetry_errors(&self) -> Vec<(String, u64)> {
        self.metrics
            .counters
            .iter()
            .filter(|(name, value)| name.starts_with("telemetry.errors.") && **value > 0)
            .map(|(name, value)| (name.clone(), *value))
            .collect()
    }

    /// The health scorecard: per `(detector, target)` pair, how often the
    /// alert fired, how often it resolved, and whether it was still
    /// firing when the run ended. Deterministic order (by detector, then
    /// target).
    pub(crate) fn health_scorecard(&self) -> Vec<HealthRow> {
        let mut rows: std::collections::BTreeMap<(String, String), HealthRow> =
            std::collections::BTreeMap::new();
        for alert in &self.alerts {
            let row =
                rows.entry((alert.detector.clone(), alert.target.clone())).or_insert_with(|| {
                    HealthRow {
                        detector: alert.detector.clone(),
                        target: alert.target.clone(),
                        fired: 0,
                        resolved: 0,
                        active: false,
                    }
                });
            match alert.state.as_str() {
                "firing" => {
                    row.fired += 1;
                    row.active = true;
                }
                "resolved" => {
                    row.resolved += 1;
                    row.active = false;
                }
                _ => {}
            }
        }
        rows.into_values().collect()
    }

    /// Renders the human-readable summary (the text twin of
    /// [`RunReport::to_json`]).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let meta = &self.meta;
        out.push_str(&format!(
            "Run report — scenario {} (seed {}, {:.2} simulated days)\n",
            meta.scenario,
            meta.seed,
            meta.duration_ms as f64 / 86_400_000.0,
        ));
        out.push_str(&format!(
            "  journal: {} records   packets: {} ({} completed)   violations: {}\n",
            self.journal_len,
            self.packets.len(),
            self.packets.iter().filter(|p| p.completed).count(),
            self.violations.len(),
        ));
        if !self.routes.is_empty() {
            out.push_str(&format!(
                "  routes: {} ({} delivered, {} refunded)\n",
                self.routes.len(),
                self.routes.iter().filter(|r| r.delivered).count(),
                self.routes.iter().filter(|r| r.refunded).count(),
            ));
        }
        if let Some(delivery) = &self.delivery {
            out.push_str(&format!(
                "  delivery accounting: {} generated = {} delivered + {} still queued + \
                 {} timed out + {} error-acked + {} stranded + {} rejected",
                delivery.generated,
                delivery.delivered,
                delivery.still_queued,
                delivery.timed_out,
                delivery.error_acked,
                delivery.stranded,
                delivery.rejected,
            ));
            if delivery.unexplained() > 0 {
                out.push_str(&format!("  (UNEXPLAINED: {})", delivery.unexplained()));
            }
            out.push('\n');
        }
        if !self.metrics.counters.is_empty() {
            out.push_str("  counters:\n");
            for (name, value) in &self.metrics.counters {
                out.push_str(&format!("    {name:<42} {value}\n"));
            }
        }
        if !self.metrics.gauges.is_empty() {
            out.push_str("  gauges:\n");
            for (name, value) in &self.metrics.gauges {
                out.push_str(&format!("    {name:<42} {value}\n"));
            }
        }
        if !self.metrics.histograms.is_empty() {
            out.push_str("  histograms:\n");
            for (name, histogram) in &self.metrics.histograms {
                out.push_str(&format!(
                    "    {name:<42} n={} mean={:.2} min={:.2} max={:.2}{}\n",
                    histogram.count,
                    histogram.mean(),
                    histogram.min,
                    histogram.max,
                    if histogram.nan_count > 0 {
                        format!(" nan={}", histogram.nan_count)
                    } else {
                        String::new()
                    },
                ));
            }
        }
        if let Some(slowest) = self.slowest_packet() {
            out.push_str(&format!(
                "  slowest packet: {}/{}#{} — {:.1} s over {} events / {} spans\n",
                slowest.origin,
                slowest.channel,
                slowest.sequence,
                slowest.last_ms.saturating_sub(slowest.first_ms) as f64 / 1_000.0,
                slowest.events.len(),
                slowest.spans.len(),
            ));
        }
        let errors = self.telemetry_errors();
        if !errors.is_empty() {
            // Registration and capacity bugs inside telemetry itself:
            // an `Err` a caller swallowed still surfaces here.
            out.push_str("  telemetry self-health (non-zero error counters):\n");
            for (name, value) in &errors {
                out.push_str(&format!("    {name:<42} {value}\n"));
            }
        }
        if !self.metrics.cardinality_rejected.is_empty() {
            out.push_str(&format!(
                "  metric names rejected by the cardinality guard (first {}):\n",
                self.metrics.cardinality_rejected.len(),
            ));
            for name in &self.metrics.cardinality_rejected {
                out.push_str(&format!("    {name}\n"));
            }
        }
        let scorecard = self.health_scorecard();
        if !scorecard.is_empty() {
            out.push_str("  health scorecard:\n");
            for row in &scorecard {
                out.push_str(&format!(
                    "    {:<42} fired {}×  resolved {}×  {}\n",
                    format!("{}[{}]", row.detector, row.target),
                    row.fired,
                    row.resolved,
                    if row.active { "FIRING at run end" } else { "healthy at run end" },
                ));
            }
            for alert in &self.alerts {
                if alert.state == "firing" {
                    out.push_str(&format!(
                        "    alert @{} ms: {}[{}] {}\n",
                        alert.at_ms, alert.detector, alert.target, alert.details,
                    ));
                }
            }
        }
        for violation in &self.violations {
            out.push_str(&format!(
                "  violation @{} ms: {} [faults: {}] [traces: {}] {}\n",
                violation.at_ms,
                violation.invariant,
                violation.faults.join(", "),
                violation
                    .linked_traces
                    .iter()
                    .map(|t| t.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                violation.details,
            ));
        }
        out
    }
}

/// One row of `RunReport::health_scorecard`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct HealthRow {
    /// Detector name.
    pub detector: String,
    /// Watched target.
    pub target: String,
    /// Number of firing transitions.
    pub fired: u64,
    /// Number of resolved transitions.
    pub resolved: u64,
    /// Whether the alert was still firing when the run ended.
    pub active: bool,
}

/// Alert rows to weave into a lifecycle timeline: the firing/resolved
/// transitions whose `linked_traces` implicate `trace`. Pending
/// transitions are debounce bookkeeping and stay out of the rendering.
fn alert_rows(alerts: &[AlertTransitionReport], trace: u64) -> Vec<(u64, String)> {
    alerts
        .iter()
        .filter(|a| a.state != "pending" && a.linked_traces.contains(&trace))
        .map(|a| {
            (a.at_ms, format!("alert {} {}[{}] — {}", a.state, a.detector, a.target, a.details))
        })
        .collect()
}

/// One lifecycle's timeline under its `header` line: its events, its
/// spans with their durations and the alert transitions that implicate
/// `trace`, sorted by time and stamped relative to `base_ms`.
fn render_timeline(
    header: String,
    base_ms: u64,
    events: &[TraceEvent],
    spans: &[SpanReport],
    alerts: &[AlertTransitionReport],
    trace: u64,
) -> String {
    let mut rows: Vec<(u64, String)> = Vec::new();
    for event in events {
        // When weaving formatted alert rows in, drop the raw alert.*
        // journal events — they would repeat every transition verbatim.
        if !alerts.is_empty() && event.name.starts_with("alert.") {
            continue;
        }
        let fields = if event.fields.is_empty() {
            String::new()
        } else {
            let rendered: Vec<String> =
                event.fields.0.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("  [{}]", rendered.join(" "))
        };
        rows.push((event.at_ms, format!("event {}{}", event.name, fields)));
    }
    for span in spans {
        let duration = match span.duration_ms() {
            Some(ms) => format!("{:.1} s", ms as f64 / 1_000.0),
            None => "open at run end".to_string(),
        };
        rows.push((span.start_ms, format!("span  {} ({duration})", span.name)));
    }
    rows.extend(alert_rows(alerts, trace));
    rows.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let mut out = header;
    for (at_ms, line) in rows {
        out.push_str(&format!(
            "  +{:>9.1} s  {line}\n",
            at_ms.saturating_sub(base_ms) as f64 / 1_000.0
        ));
    }
    out
}

/// Pretty-prints one packet's lifecycle (used by `trace_explorer`), with
/// the monitor-alert transitions that implicate this packet woven into the
/// same timeline.
pub fn render_packet_trace_with_alerts(
    packet: &PacketTraceReport,
    alerts: &[AlertTransitionReport],
) -> String {
    let header = format!(
        "packet {}/{}#{} (trace {}) — {} → {} ms ({}){}\n",
        packet.origin,
        packet.channel,
        packet.sequence,
        packet.trace,
        packet.first_ms,
        packet.last_ms,
        if packet.completed { "completed" } else { "in flight" },
        if packet.spans.is_empty() { "" } else { ":" },
    );
    render_timeline(header, packet.first_ms, &packet.events, &packet.spans, alerts, packet.trace)
}

/// Pretty-prints one multi-hop route's end-to-end lifecycle: every leg's
/// packet events interleaved on one timeline (used by `trace_explorer`),
/// with the monitor-alert transitions that implicate this route woven in.
pub fn render_route_trace_with_alerts(
    route: &RouteTraceReport,
    alerts: &[AlertTransitionReport],
) -> String {
    let outcome = if route.delivered {
        "delivered"
    } else if route.refunded {
        "refunded"
    } else {
        "in flight"
    };
    let header = format!(
        "route {} (trace {}) — {} legs, {:.1} s end-to-end ({outcome})\n",
        route.label,
        route.trace,
        route.legs,
        route.latency_ms() as f64 / 1_000.0,
    );
    render_timeline(header, route.first_ms, &route.events, &route.spans, alerts, route.trace)
}
