//! Causal trace graphs: one packet's lifecycle events and relayer spans
//! stitched into a small DAG whose *critical path* partitions the
//! packet's end-to-end interval into named latency stages.
//!
//! The graph is built post-hoc from a [`PacketTraceReport`] — the same
//! replayed journal data the run report carries — so constructing it can
//! never perturb a run: same-seed runs produce byte-identical graphs
//! whether or not anyone asks for them.
//!
//! # Stage taxonomy
//!
//! Milestone events anchor the timeline; the gaps between consecutive
//! anchors become stages. Gaps bounded by two milestones on the *same*
//! machine are authoritative (`mempool_wait`, `finality_wait`,
//! `ack_write`); gaps that cross the relayer are wait regions, refined by
//! overlaying the relayer-job spans linked to the trace (`client_update`,
//! `relay_recv`, `ack_relay`, `timeout_relay`), with the uncovered
//! remainder attributed to `relayer_wait` (polling/queueing delay).
//! Anything the taxonomy cannot name is kept as `unattributed` — never
//! silently folded into a neighbour — so stage durations always sum to
//! exactly the packet's end-to-end span.

use serde::{Deserialize, Serialize};

use crate::names;
use crate::report::PacketTraceReport;

/// Canonical latency-stage names, in attribution priority order.
pub mod stages {
    /// Outbound tx sat in the guest mempool before inclusion.
    pub const MEMPOOL_WAIT: &str = "mempool_wait";
    /// Send included; waiting for the guest block to finalise.
    pub const FINALITY_WAIT: &str = "finality_wait";
    /// Covered by a light-client-update relayer job span.
    pub const CLIENT_UPDATE: &str = "client_update";
    /// Covered by a `recv_packet` relayer job span (proof build + submit).
    pub const RELAY_RECV: &str = "relay_recv";
    /// Destination received the packet; acknowledgement being written.
    pub const ACK_WRITE: &str = "ack_write";
    /// Covered by an `ack_packet` relayer job span.
    pub const ACK_RELAY: &str = "ack_relay";
    /// Covered by a `timeout_packet` relayer job span.
    pub const TIMEOUT_RELAY: &str = "timeout_relay";
    /// Waiting for the relayer to pick the packet up (polling, queueing).
    pub const RELAYER_WAIT: &str = "relayer_wait";
    /// Waiting for the timeout height after the packet stalled.
    pub const TIMEOUT_WAIT: &str = "timeout_wait";
    /// Application-stack dispatch on the destination (zero sim-time).
    pub const APP_DISPATCH: &str = "app_dispatch";
    /// Interval the taxonomy could not name.
    pub const UNATTRIBUTED: &str = "unattributed";

    /// Every stage, in canonical rendering order.
    pub const ALL: [&str; 11] = [
        MEMPOOL_WAIT,
        FINALITY_WAIT,
        CLIENT_UPDATE,
        RELAY_RECV,
        ACK_WRITE,
        ACK_RELAY,
        TIMEOUT_RELAY,
        RELAYER_WAIT,
        TIMEOUT_WAIT,
        APP_DISPATCH,
        UNATTRIBUTED,
    ];
}

/// Milestone event names, in canonical lifecycle order.
const MILESTONES: [&str; 7] = [
    names::PACKET_SUBMITTED,
    names::PACKET_SEND,
    names::PACKET_FINALISED,
    names::PACKET_RECV,
    names::PACKET_ACK_WRITTEN,
    names::PACKET_ACK,
    names::PACKET_TIMEOUT,
];

/// One instant of a causal graph: a lifecycle milestone or a relayer-span
/// boundary that the stage segmentation cut at.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalNode {
    /// Simulated timestamp, ms.
    pub at_ms: u64,
    /// What happened here (milestone event or span name).
    pub label: String,
}

/// One edge of a causal graph. Critical edges are the consecutive stage
/// segments whose durations partition the end-to-end interval; overlay
/// edges are the raw relayer-job spans (clipped to the packet's
/// interval) kept for context.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalEdge {
    /// Index of the source node.
    pub from: usize,
    /// Index of the target node.
    pub to: usize,
    /// Canonical stage name (see [`stages`]).
    pub stage: String,
    /// Edge duration, ms.
    pub duration_ms: u64,
    /// Whether the edge is part of the critical path.
    pub critical: bool,
}

/// The causal DAG of one packet's lifecycle, keyed by the packet's
/// `(origin, channel, sequence)` trace identity.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalGraph {
    /// Trace id.
    pub trace: u64,
    /// Chain the packet originated on.
    pub origin: String,
    /// Source channel as named on the origin chain.
    pub channel: String,
    /// ICS-04 sequence number.
    pub sequence: u64,
    /// First milestone instant (start of the attributed interval).
    pub start_ms: u64,
    /// Terminal instant (ack/timeout, or the last milestone seen).
    pub end_ms: u64,
    /// Whether the lifecycle closed (acknowledged or timed out).
    pub completed: bool,
    /// Whether the lifecycle closed with a timeout.
    pub timed_out: bool,
    /// Application-stack dispatches observed on this packet.
    pub app_dispatches: u64,
    /// Boundary instants, ascending in time.
    pub nodes: Vec<CausalNode>,
    /// Stage segments (critical) and clipped relayer spans (overlay).
    pub edges: Vec<CausalEdge>,
}

/// Maps a span name to the overlay stage it attributes time to, if any.
fn span_stage(name: &str) -> Option<&'static str> {
    match name {
        "relayer.job.recv_packet" => Some(stages::RELAY_RECV),
        "relayer.job.ack_packet" => Some(stages::ACK_RELAY),
        "relayer.job.timeout_packet" => Some(stages::TIMEOUT_RELAY),
        "relayer.job.client_update" | names::CP_CLIENT_UPDATE => Some(stages::CLIENT_UPDATE),
        _ => None,
    }
}

/// Overlay priority: when spans overlap, the more specific job wins.
fn overlay_priority(stage: &str) -> u8 {
    match stage {
        stages::RELAY_RECV | stages::ACK_RELAY | stages::TIMEOUT_RELAY => 2,
        stages::CLIENT_UPDATE => 1,
        _ => 0,
    }
}

/// The base stage of the gap between two consecutive milestone anchors.
fn base_stage(prev: &str, next: &str) -> &'static str {
    match (prev, next) {
        (names::PACKET_SUBMITTED, _) => stages::MEMPOOL_WAIT,
        (names::PACKET_SEND, names::PACKET_FINALISED) => stages::FINALITY_WAIT,
        (names::PACKET_RECV, names::PACKET_ACK_WRITTEN) => stages::ACK_WRITE,
        (_, names::PACKET_TIMEOUT) => stages::TIMEOUT_WAIT,
        (names::PACKET_SEND, _)
        | (names::PACKET_FINALISED, _)
        | (names::PACKET_ACK_WRITTEN, _)
        | (names::PACKET_RECV, _) => stages::RELAYER_WAIT,
        _ => stages::UNATTRIBUTED,
    }
}

/// Whether overlay spans may refine a base stage. Milestone-bounded
/// same-machine stages are authoritative; only wait regions are refined.
fn overlayable(base: &str) -> bool {
    matches!(base, stages::RELAYER_WAIT | stages::TIMEOUT_WAIT | stages::UNATTRIBUTED)
}

impl CausalGraph {
    /// Builds the causal graph of one packet lifecycle. Pure function of
    /// the report data: same report, same graph, byte for byte.
    pub fn from_packet(packet: &PacketTraceReport) -> Self {
        // First occurrence of each milestone, in canonical order, with
        // non-decreasing times enforced (a clamped anchor yields a
        // zero-length segment instead of a corrupted partition).
        let mut anchors: Vec<(u64, &str)> = Vec::new();
        for milestone in MILESTONES {
            let Some(event) = packet.events.iter().find(|e| e.name == milestone) else {
                continue;
            };
            let at = match anchors.last() {
                Some((prev, _)) => event.at_ms.max(*prev),
                None => event.at_ms,
            };
            anchors.push((at, milestone));
        }
        let app_dispatches =
            packet.events.iter().filter(|e| e.name == names::APP_DISPATCH).count() as u64;
        let completed = anchors
            .iter()
            .any(|(_, name)| *name == names::PACKET_ACK || *name == names::PACKET_TIMEOUT);
        let timed_out = anchors.iter().any(|(_, name)| *name == names::PACKET_TIMEOUT);

        let (start_ms, end_ms) = match (anchors.first(), anchors.last()) {
            (Some((start, _)), Some((end, _))) => (*start, *end),
            _ => (packet.first_ms, packet.first_ms),
        };

        // Relayer spans clipped to the interval, as overlay candidates.
        let mut overlays: Vec<(u64, u64, &'static str, u64)> = Vec::new();
        for span in &packet.spans {
            let Some(stage) = span_stage(&span.name) else { continue };
            let s = span.start_ms.max(start_ms);
            let e = span.end_ms.unwrap_or(end_ms).min(end_ms);
            if e > s {
                overlays.push((s, e, stage, span.id));
            }
        }
        overlays.sort_by_key(|(s, e, _, id)| (*s, *e, *id));

        // Segment each anchor gap: boundary sweep over the gap's cut
        // points; each elementary slice takes the highest-priority
        // overlay covering it, else the gap's base stage.
        let mut segments: Vec<(u64, u64, &'static str)> = Vec::new();
        for pair in anchors.windows(2) {
            let ((gap_start, prev), (gap_end, next)) = (pair[0], pair[1]);
            if gap_end <= gap_start {
                continue;
            }
            let base = base_stage(prev, next);
            if !overlayable(base) {
                segments.push((gap_start, gap_end, base));
                continue;
            }
            let mut cuts: Vec<u64> = vec![gap_start, gap_end];
            for (s, e, _, _) in &overlays {
                for t in [*s, *e] {
                    if t > gap_start && t < gap_end {
                        cuts.push(t);
                    }
                }
            }
            cuts.sort_unstable();
            cuts.dedup();
            for slice in cuts.windows(2) {
                let (s, e) = (slice[0], slice[1]);
                let stage = overlays
                    .iter()
                    .filter(|(os, oe, _, _)| *os <= s && *oe >= e)
                    .map(|(_, _, stage, id)| (*stage, *id))
                    .max_by_key(|(stage, id)| (overlay_priority(stage), u64::MAX - *id))
                    .map(|(stage, _)| stage)
                    .unwrap_or(base);
                segments.push((s, e, stage));
            }
        }
        // Merge adjacent same-stage slices.
        let mut merged: Vec<(u64, u64, &'static str)> = Vec::new();
        for (s, e, stage) in segments {
            match merged.last_mut() {
                Some((_, last_e, last_stage)) if *last_e == s && *last_stage == stage => {
                    *last_e = e;
                }
                _ => merged.push((s, e, stage)),
            }
        }

        // Nodes: every segment boundary, labelled by the milestone at
        // that instant when one exists, else by the span cut.
        let mut instants: Vec<u64> = Vec::new();
        if merged.is_empty() {
            instants.push(start_ms);
        }
        for (s, e, _) in &merged {
            instants.push(*s);
            instants.push(*e);
        }
        instants.sort_unstable();
        instants.dedup();
        let label_for = |at: u64| -> String {
            anchors
                .iter()
                .find(|(t, _)| *t == at)
                .map(|(_, name)| (*name).to_string())
                .unwrap_or_else(|| "span.boundary".to_string())
        };
        let nodes: Vec<CausalNode> =
            instants.iter().map(|at| CausalNode { at_ms: *at, label: label_for(*at) }).collect();
        let node_at = |at: u64| -> usize {
            instants.binary_search(&at).expect("segment boundaries are node instants")
        };

        let mut edges: Vec<CausalEdge> = Vec::new();
        for (s, e, stage) in &merged {
            edges.push(CausalEdge {
                from: node_at(*s),
                to: node_at(*e),
                stage: (*stage).to_string(),
                duration_ms: e - s,
                critical: true,
            });
        }
        // Overlay context: the raw clipped spans, as non-critical edges
        // between the nearest enclosing node instants.
        for (s, e, stage, _) in &overlays {
            let from = instants.partition_point(|t| t < s).min(instants.len() - 1);
            let to = instants.partition_point(|t| t <= e).saturating_sub(1);
            if to > from {
                edges.push(CausalEdge {
                    from,
                    to,
                    stage: (*stage).to_string(),
                    duration_ms: e - s,
                    critical: false,
                });
            }
        }

        CausalGraph {
            trace: packet.trace,
            origin: packet.origin.clone(),
            channel: packet.channel.clone(),
            sequence: packet.sequence,
            start_ms,
            end_ms,
            completed,
            timed_out,
            app_dispatches,
            nodes,
            edges,
        }
    }

    /// End-to-end span of the attributed interval, ms.
    pub fn end_to_end_ms(&self) -> u64 {
        self.end_ms.saturating_sub(self.start_ms)
    }

    /// The critical path: the stage segments whose durations partition
    /// `[start_ms, end_ms]` — they always sum to exactly
    /// [`CausalGraph::end_to_end_ms`].
    fn critical_path(&self) -> Vec<&CausalEdge> {
        self.edges.iter().filter(|e| e.critical).collect()
    }

    /// Total time attributed to `stage` on the critical path, ms.
    pub fn stage_ms(&self, stage: &str) -> u64 {
        self.edges.iter().filter(|e| e.critical && e.stage == stage).map(|e| e.duration_ms).sum()
    }

    /// Renders the critical path as one human-readable timeline.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "causal graph {}/{}#{} (trace {}) — {:.1} s end-to-end ({}{})\n",
            self.origin,
            self.channel,
            self.sequence,
            self.trace,
            self.end_to_end_ms() as f64 / 1_000.0,
            if self.completed { "completed" } else { "in flight" },
            if self.timed_out { ", timed out" } else { "" },
        ));
        let e2e = self.end_to_end_ms().max(1) as f64;
        for edge in self.critical_path() {
            out.push_str(&format!(
                "  +{:>9.1} s  {:<14} {:>9.1} s  {:>5.1}%  ({} → {})\n",
                (self.nodes[edge.from].at_ms - self.start_ms) as f64 / 1_000.0,
                edge.stage,
                edge.duration_ms as f64 / 1_000.0,
                edge.duration_ms as f64 / e2e * 100.0,
                self.nodes[edge.from].label,
                self.nodes[edge.to].label,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{SpanReport, TraceEvent};
    use crate::Fields;

    fn event(at_ms: u64, name: &str) -> TraceEvent {
        TraceEvent { at_ms, name: name.to_string(), fields: Fields::default() }
    }

    fn span(id: u64, name: &str, start_ms: u64, end_ms: u64) -> SpanReport {
        SpanReport { id, name: name.to_string(), start_ms, end_ms: Some(end_ms), traces: vec![0] }
    }

    fn packet(events: Vec<TraceEvent>, spans: Vec<SpanReport>) -> PacketTraceReport {
        let first_ms = events.iter().map(|e| e.at_ms).min().unwrap_or(0);
        let last_ms = events.iter().map(|e| e.at_ms).max().unwrap_or(0);
        PacketTraceReport {
            trace: 0,
            origin: "guest".to_string(),
            channel: "channel-0".to_string(),
            sequence: 1,
            first_ms,
            last_ms,
            completed: true,
            events,
            spans,
        }
    }

    #[test]
    fn critical_path_partitions_the_end_to_end_span() {
        // Full guest-origin lifecycle with overlapping relayer spans.
        let p = packet(
            vec![
                event(100, names::PACKET_SUBMITTED),
                event(500, names::PACKET_SEND),
                event(3_000, names::PACKET_FINALISED),
                event(9_000, names::PACKET_RECV),
                event(9_000, names::PACKET_ACK_WRITTEN),
                event(15_000, names::PACKET_ACK),
            ],
            vec![
                span(1, "relayer.job.client_update", 4_000, 6_000),
                span(2, "relayer.job.recv_packet", 6_000, 9_000),
                span(3, "relayer.job.ack_packet", 11_000, 15_000),
            ],
        );
        let graph = CausalGraph::from_packet(&p);
        assert_eq!(graph.end_to_end_ms(), 14_900);
        let critical: u64 = graph.critical_path().iter().map(|e| e.duration_ms).sum();
        assert_eq!(critical, graph.end_to_end_ms(), "stages must partition the span");
        assert_eq!(graph.stage_ms(stages::MEMPOOL_WAIT), 400);
        assert_eq!(graph.stage_ms(stages::FINALITY_WAIT), 2_500);
        assert_eq!(graph.stage_ms(stages::CLIENT_UPDATE), 2_000);
        assert_eq!(graph.stage_ms(stages::RELAY_RECV), 3_000);
        assert_eq!(graph.stage_ms(stages::ACK_WRITE), 0);
        assert_eq!(graph.stage_ms(stages::ACK_RELAY), 4_000);
        // finalised→recv gap uncovered portion + ack_written→ack gap
        // uncovered portion land on relayer_wait.
        assert_eq!(graph.stage_ms(stages::RELAYER_WAIT), 1_000 + 2_000);
        assert_eq!(graph.stage_ms(stages::UNATTRIBUTED), 0);
        assert!(graph.completed && !graph.timed_out);
    }

    #[test]
    fn timeout_lifecycle_attributes_the_wait() {
        let p = packet(
            vec![event(0, names::PACKET_SEND), event(60_000, names::PACKET_TIMEOUT)],
            vec![span(1, "relayer.job.timeout_packet", 55_000, 60_000)],
        );
        let graph = CausalGraph::from_packet(&p);
        assert!(graph.timed_out);
        assert_eq!(graph.stage_ms(stages::TIMEOUT_WAIT), 55_000);
        assert_eq!(graph.stage_ms(stages::TIMEOUT_RELAY), 5_000);
        let critical: u64 = graph.critical_path().iter().map(|e| e.duration_ms).sum();
        assert_eq!(critical, 60_000);
    }

    #[test]
    fn specific_jobs_beat_client_updates_on_overlap() {
        let p = packet(
            vec![event(0, names::PACKET_SEND), event(10_000, names::PACKET_RECV)],
            vec![
                span(1, "relayer.job.client_update", 0, 10_000),
                span(2, "relayer.job.recv_packet", 6_000, 10_000),
            ],
        );
        let graph = CausalGraph::from_packet(&p);
        assert_eq!(graph.stage_ms(stages::CLIENT_UPDATE), 6_000);
        assert_eq!(graph.stage_ms(stages::RELAY_RECV), 4_000);
        assert_eq!(graph.stage_ms(stages::RELAYER_WAIT), 0);
    }

    #[test]
    fn degenerate_lifecycles_build_empty_graphs() {
        let graph = CausalGraph::from_packet(&packet(vec![event(5, names::PACKET_SEND)], vec![]));
        assert_eq!(graph.end_to_end_ms(), 0);
        assert!(graph.critical_path().is_empty());
        assert!(!graph.completed);
        let none = CausalGraph::from_packet(&packet(vec![], vec![]));
        assert_eq!(none.end_to_end_ms(), 0);
    }

    #[test]
    fn graphs_are_deterministic() {
        let p = packet(
            vec![
                event(0, names::PACKET_SEND),
                event(7_000, names::PACKET_RECV),
                event(9_000, names::PACKET_ACK),
            ],
            vec![
                span(2, "relayer.job.recv_packet", 3_000, 7_000),
                span(1, "relayer.job.client_update", 1_000, 4_000),
            ],
        );
        let a = serde_json::to_string(&CausalGraph::from_packet(&p)).unwrap();
        let b = serde_json::to_string(&CausalGraph::from_packet(&p)).unwrap();
        assert_eq!(a, b);
        let back: CausalGraph = serde_json::from_str(&a).unwrap();
        assert_eq!(back, CausalGraph::from_packet(&p));
    }
}
