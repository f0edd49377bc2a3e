//! Deterministic observability for the guest-blockchain deployment.
//!
//! The simulation can already *summarize* a run (end-of-run statistics in
//! `testnet::metrics`), but the paper's most interesting results are
//! *lifecycle* observations — why one packet took 35,081 s, where compute
//! units go inside a 36.5-chunk light-client update, what was in flight
//! when an invariant broke. This crate adds that layer:
//!
//! - **Traces** follow one IBC packet across both chains and the relayer,
//!   keyed by `(origin chain, source channel, sequence)` — ICS-04 packet
//!   identity is only unique per source chain, and both chains may well
//!   name their end of the channel `channel-0`.
//! - **Spans** time multi-step operations (relayer jobs, chunked uploads)
//!   and may link several traces at once — a light-client update advances
//!   every packet waiting on it.
//! - **Events** are point-in-time records with structured fields.
//! - **Metrics** are counters, gauges and fixed-bucket histograms that
//!   components register into instead of ad-hoc locals. A writer that runs
//!   once per step holds a [`CounterHandle`], [`GaugeHandle`] or
//!   [`HistogramHandle`] instead of naming its metric on every write, and
//!   a gauge or histogram is read only through one.
//!
//! Everything is stamped with the *simulated* clock and allocated from
//! monotone counters — no wall clock, no entropy — so two same-seed runs
//! emit byte-identical JSONL journals and [`RunReport`] JSON. A
//! [`Telemetry`] handle is a cheap `Rc` clone; the
//! [`Telemetry::disabled`] handle makes every call a no-op so hot paths
//! pay nothing when observability is off.
//!
//! # Examples
//!
//! ```
//! use telemetry::Telemetry;
//!
//! let telemetry = Telemetry::recording();
//! let trace = telemetry.trace_for_packet("guest", "channel-0", 1).unwrap();
//! telemetry.event(5, "packet.send", &[trace], &[("fee", 5_000u64.into())]);
//! let span = telemetry.span_start(6, "relayer.job.recv_packet", &[trace]).unwrap();
//! telemetry.span_end(420, span);
//! telemetry.counter_add("relayer.chunks.submitted", 37);
//!
//! let report = telemetry.run_report("doc-test", 1, 1_000);
//! assert_eq!(report.packets.len(), 1);
//! assert!(report.packets[0].spans[0].duration_ms() == Some(414));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

mod artifact;
mod attribution;
mod graph;
mod handle;
mod ids;
mod journal;
mod metrics;
mod postmortem;
mod report;

pub use artifact::{Artifact, Flags, OutputOptions, Section};
pub use attribution::{AttributionReport, GroupStat, StageStat};
pub use graph::{stages, CausalEdge, CausalGraph, CausalNode};
pub use handle::{CounterHandle, GaugeHandle, HistogramHandle};
pub use ids::{SpanId, TraceId};
pub use journal::{FieldValue, Fields, JournalRecord, RecordKind};
pub use metrics::{
    validate_bounds, GaugeSeries, Histogram, HistogramBoundsError, MetricsRegistry,
    MetricsSnapshot, CARDINALITY_LIMITED, DEFAULT_BUCKETS, GAUGE_SERIES_CAP,
    METRIC_CARDINALITY_CAP,
};
pub use postmortem::{PostmortemBundle, PostmortemTrigger, TriggerKind, POSTMORTEM_TAIL};
pub use report::{
    render_packet_trace_with_alerts, render_route_trace_with_alerts, AlertTransition,
    AlertTransitionReport, DeliveryAccounting, HealthRow, PacketTraceReport, RouteTraceReport,
    RunMeta, RunReport, SpanReport, TraceEvent, ViolationReport,
};

/// Canonical event and span names, shared by every instrumented crate so
/// the journal stays greppable and reports can key on lifecycle stages.
pub mod names {
    /// `SendPacket` committed on the source chain.
    pub const PACKET_SEND: &str = "packet.send";
    /// `RecvPacket` executed on the destination chain.
    pub const PACKET_RECV: &str = "packet.recv";
    /// Acknowledgement written on the destination chain.
    pub const PACKET_ACK_WRITTEN: &str = "packet.ack_written";
    /// Acknowledgement delivered back to the source chain.
    pub const PACKET_ACK: &str = "packet.ack";
    /// Packet timed out on the source chain.
    pub const PACKET_TIMEOUT: &str = "packet.timeout";
    /// Outbound transfer entered the source mempool (tx submission);
    /// emitted retroactively once the tx executes and the packet's
    /// sequence is known, stamped with the submission instant.
    pub const PACKET_SUBMITTED: &str = "packet.submitted";
    /// The source block carrying the packet's send finalised — the
    /// per-packet finality milestone ([`GUEST_FINALISED`] is per block
    /// and carries no trace links).
    pub const PACKET_FINALISED: &str = "packet.finalised";
    /// The destination's application stack dispatched the packet
    /// (zero-width: app dispatch costs no simulated time).
    pub const APP_DISPATCH: &str = "app.dispatch";
    /// Guest block finalised (quorum of validator signatures).
    pub const GUEST_FINALISED: &str = "guest.block.finalised";
    /// Guest validator-set epoch rotated.
    pub const GUEST_EPOCH: &str = "guest.epoch.rotated";
    /// Relayer job span prefix; the job kind is appended.
    pub const RELAYER_JOB: &str = "relayer.job";
    /// Guest-side work waiting for a finalised guest header to reach the
    /// counterparty's light client; stretches across finality stalls.
    pub const CP_CLIENT_UPDATE: &str = "relayer.job.cp_client_update";
    /// A chunk transaction dropped before inclusion (fault injection).
    pub const CHUNK_DROP: &str = "relayer.chunk.drop";
    /// A chunk transaction retried after a failed execution.
    pub const CHUNK_RETRY: &str = "relayer.chunk.retry";
    /// A lost chunk transaction resubmitted after its timeout.
    pub const CHUNK_RESUBMIT: &str = "relayer.chunk.resubmit";
    /// Invariant violation detected by the chaos suite.
    pub const INVARIANT_VIOLATION: &str = "invariant.violation";
    /// A multi-hop route started (first leg committed on the origin).
    pub const ROUTE_START: &str = "route.start";
    /// An intermediate hop forwarded a route's funds onto its next leg.
    pub const PACKET_FORWARD: &str = "packet.forward";
    /// A multi-hop route delivered its funds to the final receiver.
    pub const ROUTE_DELIVERED: &str = "route.delivered";
    /// A multi-hop route failed and its refund reached the origin sender.
    pub const ROUTE_REFUNDED: &str = "route.refunded";
    /// A monitor alert entered its debounce window (first unhealthy tick).
    pub const ALERT_PENDING: &str = "alert.pending";
    /// A monitor alert fired (unhealthy past the debounce window).
    pub const ALERT_FIRING: &str = "alert.firing";
    /// A firing monitor alert resolved (healthy past the hold-down).
    pub const ALERT_RESOLVED: &str = "alert.resolved";
}

#[derive(Clone, Debug)]
struct SpanData {
    name: String,
    traces: Vec<u64>,
    start_ms: u64,
    end_ms: Option<u64>,
}

#[derive(Debug, Default)]
struct Inner {
    next_trace: u64,
    next_span: u64,
    packet_traces: BTreeMap<(String, String, u64), TraceId>,
    route_traces: BTreeMap<String, TraceId>,
    spans: BTreeMap<u64, SpanData>,
    journal: Vec<JournalRecord>,
    metrics: MetricsRegistry,
    violations: Vec<ViolationReport>,
    /// The key of every packet trace no terminal event has reached, by
    /// trace id.
    unfinished_packets: BTreeMap<u64, (String, String, u64)>,
    /// Those of them that saw an event, with the earliest one's time: the
    /// stuck-packet query walks these alone, never the finished lifecycles.
    open_packets: BTreeMap<(String, String, u64), (TraceId, u64)>,
    alerts: Vec<AlertTransitionReport>,
}

impl Inner {
    /// Keeps the open-packet index current for one event on `trace`.
    fn track_open_packet(&mut self, trace: TraceId, at_ms: u64, terminal: bool) {
        if terminal {
            if let Some(key) = self.unfinished_packets.remove(&trace.0) {
                self.open_packets.remove(&key);
            }
        } else if let Some(key) = self.unfinished_packets.get(&trace.0) {
            match self.open_packets.get_mut(key) {
                Some((_, first_ms)) => *first_ms = (*first_ms).min(at_ms),
                None => {
                    self.open_packets.insert(key.clone(), (trace, at_ms));
                }
            }
        }
    }

    /// Appends a record to the journal, assigning the next seq: the one
    /// way in, for events and span edges alike.
    fn journal_push(&mut self, mut record: JournalRecord) {
        record.seq = self.journal.len() as u64;
        self.journal.push(record);
    }
}

/// One still-open packet lifecycle, as returned by
/// [`Telemetry::open_packet_traces`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpenPacket {
    /// Chain the packet originated on.
    pub origin: String,
    /// Source channel as named on the origin chain.
    pub channel: String,
    /// ICS-04 sequence number.
    pub sequence: u64,
    /// The packet's trace id.
    pub trace: TraceId,
    /// First journal activity on the trace, simulated ms.
    pub first_ms: u64,
}

/// Handle to the run's telemetry sink.
///
/// Cloning shares the sink (`Rc`); a [`Telemetry::disabled`] handle turns
/// every call into a no-op. The handle is deliberately `!Send`: the whole
/// simulation is single-threaded per run, and same-seed determinism
/// depends on a single, ordered journal.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl Telemetry {
    /// A recording sink.
    pub fn recording() -> Self {
        Self { inner: Some(Rc::new(RefCell::new(Inner::default()))) }
    }

    /// A no-op sink: every method returns immediately.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Returns (allocating on first sight) the trace id of the packet
    /// identified by `(origin, channel, sequence)` — the origin chain plus
    /// the packet's source channel *as named on that chain*. The key is
    /// stable across both chains and the relayer; the origin disambiguates
    /// the common case where both chains name their channel `channel-0`.
    pub fn trace_for_packet(&self, origin: &str, channel: &str, sequence: u64) -> Option<TraceId> {
        let inner = self.inner.as_ref()?;
        let mut inner = inner.borrow_mut();
        let key = (origin.to_string(), channel.to_string(), sequence);
        if let Some(trace) = inner.packet_traces.get(&key) {
            return Some(*trace);
        }
        let trace = TraceId(inner.next_trace);
        inner.next_trace += 1;
        inner.unfinished_packets.insert(trace.0, key.clone());
        inner.packet_traces.insert(key, trace);
        Some(trace)
    }

    /// Returns (allocating on first sight) the trace id of a multi-hop
    /// *route* — one end-to-end lifecycle spanning every per-hop packet.
    /// `label` is the harness's stable route identity (e.g.
    /// `route-3:chain-a->chain-c`); per-hop packet traces are tied in by
    /// emitting their lifecycle events against both trace ids.
    pub fn trace_for_route(&self, label: &str) -> Option<TraceId> {
        let inner = self.inner.as_ref()?;
        let mut inner = inner.borrow_mut();
        if let Some(trace) = inner.route_traces.get(label) {
            return Some(*trace);
        }
        let trace = TraceId(inner.next_trace);
        inner.next_trace += 1;
        inner.route_traces.insert(label.to_string(), trace);
        Some(trace)
    }

    /// Looks up a packet trace without allocating one.
    pub fn lookup_packet_trace(
        &self,
        origin: &str,
        channel: &str,
        sequence: u64,
    ) -> Option<TraceId> {
        let inner = self.inner.as_ref()?;
        let inner = inner.borrow();
        inner.packet_traces.get(&(origin.to_string(), channel.to_string(), sequence)).copied()
    }

    /// Emits a point-in-time event linked to `traces`.
    pub fn event(&self, at_ms: u64, name: &str, traces: &[TraceId], fields: &[(&str, FieldValue)]) {
        let Some(inner) = self.inner.as_ref() else { return };
        let mut inner = inner.borrow_mut();
        let terminal = matches!(
            name,
            names::PACKET_ACK
                | names::PACKET_TIMEOUT
                | names::ROUTE_DELIVERED
                | names::ROUTE_REFUNDED
        );
        for trace in traces {
            inner.track_open_packet(*trace, at_ms, terminal);
        }
        inner.journal_push(JournalRecord {
            seq: 0,
            at_ms,
            kind: RecordKind::Event,
            name: name.to_string(),
            traces: traces.iter().map(|t| t.0).collect(),
            span: None,
            fields: Fields::from(fields),
        });
    }

    /// Packet lifecycles that saw journal activity at least `min_age_ms`
    /// ago and were never acknowledged or timed out — the stuck-packet
    /// detector's input. Maintained incrementally, so the query is a walk
    /// over the open lifecycles, not a journal replay and not a pass over
    /// every packet there ever was. Deterministic order (by origin,
    /// channel, sequence).
    pub fn open_packet_traces(&self, now_ms: u64, min_age_ms: u64) -> Vec<OpenPacket> {
        let Some(inner) = self.inner.as_ref() else { return Vec::new() };
        let inner = inner.borrow();
        inner
            .open_packets
            .iter()
            .filter(|(_, (_, first_ms))| now_ms.saturating_sub(*first_ms) >= min_age_ms)
            .map(|((origin, channel, sequence), (trace, first_ms))| OpenPacket {
                origin: origin.clone(),
                channel: channel.clone(),
                sequence: *sequence,
                trace: *trace,
                first_ms: *first_ms,
            })
            .collect()
    }

    /// Opens a span linked to `traces` and returns its id.
    pub fn span_start(&self, at_ms: u64, name: &str, traces: &[TraceId]) -> Option<SpanId> {
        let inner = self.inner.as_ref()?;
        let mut inner = inner.borrow_mut();
        let span = SpanId(inner.next_span);
        inner.next_span += 1;
        let trace_ids: Vec<u64> = traces.iter().map(|t| t.0).collect();
        inner.spans.insert(
            span.0,
            SpanData {
                name: name.to_string(),
                traces: trace_ids.clone(),
                start_ms: at_ms,
                end_ms: None,
            },
        );
        inner.journal_push(JournalRecord {
            seq: 0,
            at_ms,
            kind: RecordKind::SpanStart,
            name: name.to_string(),
            traces: trace_ids,
            span: Some(span.0),
            fields: Fields::default(),
        });
        Some(span)
    }

    /// Links an additional trace to an open span (e.g. a packet that
    /// started waiting on an in-flight light-client update).
    pub fn span_link(&self, span: SpanId, trace: TraceId) {
        let Some(inner) = self.inner.as_ref() else { return };
        let mut inner = inner.borrow_mut();
        if let Some(data) = inner.spans.get_mut(&span.0) {
            if !data.traces.contains(&trace.0) {
                data.traces.push(trace.0);
            }
        }
    }

    /// Closes a span.
    pub fn span_end(&self, at_ms: u64, span: SpanId) {
        let Some(inner) = self.inner.as_ref() else { return };
        let mut inner = inner.borrow_mut();
        let Some(data) = inner.spans.get_mut(&span.0) else { return };
        data.end_ms = Some(at_ms);
        let (name, traces) = (data.name.clone(), data.traces.clone());
        inner.journal_push(JournalRecord {
            seq: 0,
            at_ms,
            kind: RecordKind::SpanEnd,
            name,
            traces,
            span: Some(span.0),
            fields: Fields::default(),
        });
    }

    /// Adds `delta` to a named counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let Some(inner) = self.inner.as_ref() else { return };
        inner.borrow_mut().metrics.counter_add(name, delta);
    }

    /// Sets a named gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let Some(inner) = self.inner.as_ref() else { return };
        inner.borrow_mut().metrics.gauge_set(name, value);
    }

    /// Sets a named gauge and records the write in its bounded
    /// timestamped series (see [`GaugeSeries`]); windowed detectors query
    /// the series through [`GaugeHandle::last_change`] and
    /// [`GaugeHandle::value_at`].
    pub fn gauge_set_at(&self, at_ms: u64, name: &str, value: f64) {
        let Some(inner) = self.inner.as_ref() else { return };
        inner.borrow_mut().metrics.gauge_set_at(at_ms, name, value);
    }

    /// Registers a histogram with explicit bucket bounds. Invalid layouts
    /// (empty, non-finite, unsorted or duplicate bounds) are refused with
    /// a deterministic error, tallied under the
    /// `telemetry.errors.invalid_histogram_bounds` counter so a swallowed
    /// `Err` still shows up in the run report.
    pub fn register_histogram(
        &self,
        name: &str,
        bounds: &[f64],
    ) -> Result<(), HistogramBoundsError> {
        let Some(inner) = self.inner.as_ref() else { return Ok(()) };
        let result = inner.borrow_mut().metrics.register_histogram(name, bounds);
        if result.is_err() {
            inner.borrow_mut().metrics.counter_add("telemetry.errors.invalid_histogram_bounds", 1);
        }
        result
    }

    /// Records a histogram observation (NaN is tallied, never folded in).
    pub fn observe(&self, name: &str, value: f64) {
        let Some(inner) = self.inner.as_ref() else { return };
        inner.borrow_mut().metrics.observe(name, value);
    }

    /// Reads a counter (0 when absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.as_ref().map(|inner| inner.borrow().metrics.counter(name)).unwrap_or(0)
    }

    /// Records an invariant violation with its forensic links.
    pub fn violation(
        &self,
        at_ms: u64,
        invariant: &str,
        details: &str,
        faults: &[String],
        traces: &[TraceId],
    ) {
        let Some(inner) = self.inner.as_ref() else { return };
        self.event(
            at_ms,
            names::INVARIANT_VIOLATION,
            traces,
            &[("invariant", invariant.into()), ("details", details.into())],
        );
        inner.borrow_mut().violations.push(ViolationReport {
            at_ms,
            invariant: invariant.to_string(),
            details: details.to_string(),
            faults: faults.to_vec(),
            linked_traces: traces.iter().map(|t| t.0).collect(),
        });
    }

    /// Records one alert lifecycle transition: a journal event (named by
    /// [`AlertTransition::event_name`], linked to the packet traces the
    /// alert implicates) plus an append-only [`AlertTransitionReport`] that
    /// surfaces in the run report's health scorecard. The monitor crate's
    /// state machine decides *when* to call this; telemetry only records.
    pub fn alert(
        &self,
        at_ms: u64,
        state: AlertTransition,
        detector: &str,
        target: &str,
        details: &str,
        traces: &[TraceId],
    ) {
        let Some(inner) = self.inner.as_ref() else { return };
        self.event(
            at_ms,
            state.event_name(),
            traces,
            &[
                ("detector", detector.into()),
                ("target", target.into()),
                ("details", details.into()),
            ],
        );
        inner.borrow_mut().alerts.push(AlertTransitionReport {
            at_ms,
            detector: detector.to_string(),
            target: target.to_string(),
            state: state.as_str().to_string(),
            details: details.to_string(),
            linked_traces: traces.iter().map(|t| t.0).collect(),
        });
    }

    /// Every alert transition recorded so far, in emission order.
    pub fn alert_transitions(&self) -> Vec<AlertTransitionReport> {
        self.inner.as_ref().map(|inner| inner.borrow().alerts.clone()).unwrap_or_default()
    }

    /// Number of journal records so far.
    pub fn journal_len(&self) -> u64 {
        self.inner.as_ref().map(|inner| inner.borrow().journal.len() as u64).unwrap_or(0)
    }

    /// Renders the journal as JSONL — one JSON record per line, in
    /// emission order.
    pub fn journal_jsonl(&self) -> String {
        let Some(inner) = self.inner.as_ref() else { return String::new() };
        let inner = inner.borrow();
        // Pre-size from a typical line length so a heavy run's export
        // does one allocation, not a doubling cascade.
        let mut out = String::with_capacity(inner.journal.len().saturating_mul(160));
        for record in &inner.journal {
            out.push_str(&serde_json::to_string(record).expect("journal record serializes"));
            out.push('\n');
        }
        out
    }

    /// Snapshot of the metrics registry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.as_ref().map(|inner| inner.borrow().metrics.snapshot()).unwrap_or_default()
    }

    /// Builds the aggregated [`RunReport`] for this run (an empty one for
    /// a disabled sink).
    pub fn run_report(&self, scenario: &str, seed: u64, duration_ms: u64) -> RunReport {
        let meta = RunMeta { scenario: scenario.to_string(), seed, duration_ms };
        match self.inner.as_ref() {
            Some(inner) => RunReport::assemble(meta, &inner.borrow()),
            None => RunReport::assemble(meta, &Inner::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let telemetry = Telemetry::disabled();
        assert!(telemetry.trace_for_packet("guest", "channel-0", 1).is_none());
        assert!(telemetry.span_start(0, "noop", &[]).is_none());
        telemetry.event(0, "noop", &[], &[]);
        telemetry.counter_add("noop", 1);
        assert_eq!(telemetry.counter("noop"), 0);
        assert_eq!(telemetry.journal_len(), 0);
        assert!(telemetry.journal_jsonl().is_empty());
    }

    #[test]
    fn packet_trace_ids_are_stable() {
        let telemetry = Telemetry::recording();
        let a = telemetry.trace_for_packet("guest", "channel-0", 7).unwrap();
        let b = telemetry.trace_for_packet("guest", "channel-0", 7).unwrap();
        let c = telemetry.trace_for_packet("guest", "channel-1", 7).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(telemetry.lookup_packet_trace("guest", "channel-0", 7), Some(a));
        assert_eq!(telemetry.lookup_packet_trace("guest", "channel-9", 7), None);
    }

    #[test]
    fn spans_link_multiple_traces() {
        let telemetry = Telemetry::recording();
        let a = telemetry.trace_for_packet("guest", "channel-0", 1).unwrap();
        let b = telemetry.trace_for_packet("guest", "channel-0", 2).unwrap();
        let span = telemetry.span_start(10, "relayer.job.client_update", &[a]).unwrap();
        telemetry.span_link(span, b);
        telemetry.span_end(50, span);
        let report = telemetry.run_report("test", 0, 100);
        assert_eq!(report.packets.len(), 2);
        for packet in &report.packets {
            assert_eq!(packet.spans.len(), 1, "span must appear under both traces");
            assert_eq!(packet.spans[0].duration_ms(), Some(40));
        }
    }

    #[test]
    fn completion_follows_ack_and_timeout() {
        let telemetry = Telemetry::recording();
        let a = telemetry.trace_for_packet("guest", "channel-0", 1).unwrap();
        let b = telemetry.trace_for_packet("guest", "channel-0", 2).unwrap();
        telemetry.event(1, names::PACKET_SEND, &[a], &[]);
        telemetry.event(2, names::PACKET_SEND, &[b], &[]);
        telemetry.event(9, names::PACKET_ACK, &[a], &[]);
        let report = telemetry.run_report("test", 0, 100);
        assert!(report.packet("guest", "channel-0", 1).unwrap().completed);
        assert!(!report.packet("guest", "channel-0", 2).unwrap().completed);
    }

    #[test]
    fn journal_is_deterministic() {
        let run = || {
            let telemetry = Telemetry::recording();
            let trace = telemetry.trace_for_packet("guest", "channel-0", 1).unwrap();
            telemetry.event(3, names::PACKET_SEND, &[trace], &[("fee", 5u64.into())]);
            let span = telemetry.span_start(4, "relayer.job.recv_packet", &[trace]).unwrap();
            telemetry.span_end(8, span);
            telemetry.observe("latency_ms", 5.0);
            telemetry.observe("latency_ms", f64::NAN);
            telemetry.counter_add("chunks", 3);
            // Timeouts and strands, a refunded route and an alert.
            drive_packets(&telemetry, 12);
            let route = telemetry.trace_for_route("route-0:a->b").unwrap();
            telemetry.event(1, names::ROUTE_START, &[route], &[]);
            telemetry.event(50, names::ROUTE_REFUNDED, &[route], &[]);
            telemetry.alert(
                80,
                AlertTransition::Firing,
                "packet.stuck",
                "guest",
                "stuck",
                &[trace],
            );
            (telemetry.journal_jsonl(), telemetry.run_report("t", 1, 10))
        };
        let (journal_a, report_a) = run();
        let (journal_b, report_b) = run();
        assert_eq!(journal_a, journal_b);
        assert_eq!(report_a.to_json(), report_b.to_json());
        // What a caller emits is kept, in order: seq is the line number.
        assert_eq!(journal_a.lines().count() as u64, report_a.journal_len);
        assert_eq!(report_a.journal_len, 3 + (12 * 2 + 3 + 4) + 2 + 1);
        for (index, line) in journal_a.lines().enumerate() {
            let record: JournalRecord = serde_json::from_str(line).unwrap();
            assert_eq!(record.seq, index as u64);
        }
        let route = report_a.route("route-0:a->b").expect("route reported");
        assert!(route.refunded && !route.delivered);
        assert_eq!((route.first_ms, route.last_ms), (1, 50));
    }

    #[test]
    fn nan_observations_are_tallied_not_folded() {
        let telemetry = Telemetry::recording();
        telemetry.observe("x", 1.0);
        telemetry.observe("x", f64::NAN);
        telemetry.observe("x", 3.0);
        let snapshot = telemetry.metrics_snapshot();
        let histogram = &snapshot.histograms["x"];
        assert_eq!(histogram.count, 2);
        assert_eq!(histogram.nan_count, 1);
        assert_eq!(histogram.mean(), 2.0);
        assert!(histogram.sum.is_finite());
    }

    #[test]
    fn route_traces_link_per_hop_packets() {
        let telemetry = Telemetry::recording();
        let route = telemetry.trace_for_route("route-0:a->c").unwrap();
        assert_eq!(telemetry.trace_for_route("route-0:a->c"), Some(route));

        // Two legs, each with its own packet trace; every lifecycle event
        // is emitted against both the leg's and the route's trace.
        let leg_a = telemetry.trace_for_packet("chain-a", "channel-0", 1).unwrap();
        let leg_b = telemetry.trace_for_packet("chain-b", "channel-1", 1).unwrap();
        telemetry.event(10, names::ROUTE_START, &[route], &[]);
        telemetry.event(10, names::PACKET_SEND, &[leg_a, route], &[]);
        telemetry.event(20, names::PACKET_RECV, &[leg_a, route], &[]);
        telemetry.event(20, names::PACKET_FORWARD, &[leg_a, route], &[]);
        telemetry.event(21, names::PACKET_SEND, &[leg_b, route], &[]);
        telemetry.event(35, names::PACKET_RECV, &[leg_b, route], &[]);
        telemetry.event(35, names::ROUTE_DELIVERED, &[route], &[]);

        let report = telemetry.run_report("t", 0, 100);
        assert_eq!(report.packets.len(), 2);
        let route = report.route("route-0:a->c").expect("route reported");
        assert_eq!(route.legs, 2, "one packet.send per leg");
        assert!(route.delivered);
        assert!(!route.refunded);
        assert_eq!((route.first_ms, route.last_ms), (10, 35));
        assert_eq!(report.slowest_route().unwrap().label, "route-0:a->c");
        // The rendering interleaves both legs on one timeline.
        let rendered = render_route_trace_with_alerts(route, &[]);
        assert!(rendered.contains("2 legs"));
        assert!(rendered.contains(names::PACKET_FORWARD));
    }

    /// A packet's and a route's timelines with a firing and a resolved alert
    /// woven in: the raw `alert.*` events give way to the formatted rows,
    /// and a pending transition stays out.
    #[test]
    fn alerts_weave_into_packet_and_route_timelines() {
        let telemetry = Telemetry::recording();
        let route = telemetry.trace_for_route("route-0:a->b").unwrap();
        let packet = telemetry.trace_for_packet("chain-a", "channel-0", 7).unwrap();
        telemetry.event(1_000, names::ROUTE_START, &[route], &[]);
        telemetry.event(1_000, names::PACKET_SEND, &[packet, route], &[("amount", 5u64.into())]);
        let relay = telemetry.span_start(2_000, "relay", &[packet, route]).unwrap();
        for (at_ms, state) in [
            (3_000, AlertTransition::Pending),
            (4_500, AlertTransition::Firing),
            (9_000, AlertTransition::Resolved),
        ] {
            telemetry.alert(at_ms, state, "packet.stuck", "channel-0", "age 3 s", &[packet, route]);
        }
        telemetry.span_end(8_000, relay);
        telemetry.event(8_000, names::PACKET_RECV, &[packet, route], &[]);
        telemetry.event(8_000, names::ROUTE_DELIVERED, &[route], &[]);
        telemetry.span_start(8_500, "ack", &[packet]);

        let report = telemetry.run_report("t", 0, 10_000);
        let alerts = telemetry.alert_transitions();
        assert_eq!(
            render_packet_trace_with_alerts(&report.packets[0], &alerts),
            "packet chain-a/channel-0#7 (trace 1) — 1000 → 9000 ms (in flight):\n\
             \x20 +      0.0 s  event packet.send  [amount=5]\n\
             \x20 +      1.0 s  span  relay (6.0 s)\n\
             \x20 +      3.5 s  alert firing packet.stuck[channel-0] — age 3 s\n\
             \x20 +      7.0 s  event packet.recv\n\
             \x20 +      7.5 s  span  ack (open at run end)\n\
             \x20 +      8.0 s  alert resolved packet.stuck[channel-0] — age 3 s\n"
        );
        assert_eq!(
            render_route_trace_with_alerts(report.route("route-0:a->b").unwrap(), &alerts),
            "route route-0:a->b (trace 0) — 1 legs, 8.0 s end-to-end (delivered)\n\
             \x20 +      0.0 s  event packet.send  [amount=5]\n\
             \x20 +      0.0 s  event route.start\n\
             \x20 +      1.0 s  span  relay (6.0 s)\n\
             \x20 +      3.5 s  alert firing packet.stuck[channel-0] — age 3 s\n\
             \x20 +      7.0 s  event packet.recv\n\
             \x20 +      7.0 s  event route.delivered\n\
             \x20 +      8.0 s  alert resolved packet.stuck[channel-0] — age 3 s\n"
        );
    }

    #[test]
    fn open_packet_traces_tracks_completion_incrementally() {
        let telemetry = Telemetry::recording();
        let a = telemetry.trace_for_packet("guest", "channel-0", 1).unwrap();
        let b = telemetry.trace_for_packet("guest", "channel-0", 2).unwrap();
        telemetry.event(100, names::PACKET_SEND, &[a], &[]);
        telemetry.event(500, names::PACKET_SEND, &[b], &[]);
        telemetry.event(900, names::PACKET_ACK, &[a], &[]);
        // Only b is open; a completed, and a young packet is filtered by age.
        let open = telemetry.open_packet_traces(1_000, 0);
        assert_eq!(open.len(), 1);
        assert_eq!((open[0].sequence, open[0].first_ms), (2, 500));
        assert!(telemetry.open_packet_traces(1_000, 600).is_empty(), "b is only 500 ms old");
        // A trace with no events yet is not "open" (no activity to age).
        let _c = telemetry.trace_for_packet("guest", "channel-0", 3).unwrap();
        assert_eq!(telemetry.open_packet_traces(10_000, 0).len(), 1);
        // Disabled handles return nothing.
        assert!(Telemetry::disabled().open_packet_traces(1_000, 0).is_empty());
    }

    /// The open-packet index against a recount from the journal, the slow
    /// way: every packet trace ever allocated, every record that names it.
    #[test]
    fn open_packet_index_matches_a_journal_recount() {
        let telemetry = Telemetry::recording();
        drive_packets(&telemetry, 40);
        // Out-of-order activity, a second channel, repeated terminals, an
        // event after completion and a trace that never sees one.
        let late = telemetry.trace_for_packet("cp", "channel-7", 3).unwrap();
        telemetry.event(700, names::PACKET_RECV, &[late], &[]);
        telemetry.event(650, names::PACKET_SEND, &[late], &[]);
        let done = telemetry.trace_for_packet("guest", "channel-0", 2).unwrap();
        telemetry.event(800, names::PACKET_ACK, &[done], &[]);
        telemetry.event(810, names::PACKET_RECV, &[done], &[]);
        let _silent = telemetry.trace_for_packet("cp", "channel-7", 4).unwrap();
        let route = telemetry.trace_for_route("route-0:a->b").unwrap();
        let leg = telemetry.trace_for_packet("a", "channel-1", 1).unwrap();
        telemetry.event(820, names::PACKET_SEND, &[leg, route], &[]);

        let recount = |now_ms: u64, min_age_ms: u64| {
            let inner = telemetry.inner.as_ref().unwrap().borrow();
            let mut open = Vec::new();
            for ((origin, channel, sequence), trace) in &inner.packet_traces {
                let records: Vec<_> =
                    inner.journal.iter().filter(|r| r.traces.contains(&trace.0)).collect();
                let completed = records
                    .iter()
                    .any(|r| [names::PACKET_ACK, names::PACKET_TIMEOUT].contains(&r.name.as_str()));
                let Some(first_ms) = records.iter().map(|r| r.at_ms).min() else { continue };
                if completed || now_ms.saturating_sub(first_ms) < min_age_ms {
                    continue;
                }
                open.push(OpenPacket {
                    origin: origin.clone(),
                    channel: channel.clone(),
                    sequence: *sequence,
                    trace: *trace,
                    first_ms,
                });
            }
            open
        };
        for (now_ms, min_age_ms) in [(1_000, 0), (1_000, 500), (400, 100), (0, 0), (5_000, 4_300)] {
            let open = telemetry.open_packet_traces(now_ms, min_age_ms);
            assert_eq!(open, recount(now_ms, min_age_ms), "now {now_ms}, age {min_age_ms}");
        }
        let open = telemetry.open_packet_traces(1_000, 0);
        assert!(open.iter().any(|p| p.origin == "cp" && p.first_ms == 650));
        assert!(open.iter().any(|p| p.origin == "a"), "a leg is tracked beside its route");
        assert!(!open.iter().any(|p| p.sequence == 4 && p.origin == "cp"));
        assert_eq!(open.len(), 16 + 2, "the odd sequences not divisible by five, plus two");
    }

    #[test]
    fn gauge_series_queries_answer_through_the_handle() {
        let telemetry = Telemetry::recording();
        let g = telemetry.gauge_handle("g");
        assert_eq!((g.get(), g.last_change()), (None, None));
        telemetry.gauge_set_at(0, "g", 10.0);
        telemetry.gauge_set_at(60_000, "g", 10.0);
        telemetry.gauge_set_at(120_000, "g", 12.0);
        assert_eq!(g.last_change(), Some((120_000, 12.0)));
        assert_eq!(g.value_at(90_000), Some(10.0));
        assert_eq!(g.get(), Some(12.0));
        // Plain gauge_set still records no series.
        telemetry.gauge_set("plain", 1.0);
        let plain = telemetry.gauge_handle("plain");
        assert_eq!((plain.get(), plain.last_change()), (Some(1.0), None));
        let snapshot = telemetry.metrics_snapshot();
        assert_eq!(snapshot.gauges["g"], 12.0);
        assert_eq!(snapshot.gauges["plain"], 1.0);
    }

    #[test]
    fn invalid_histogram_bounds_err_and_count() {
        let telemetry = Telemetry::recording();
        let err = telemetry.register_histogram("bad", &[5.0, 1.0]).unwrap_err();
        assert_eq!(err, HistogramBoundsError::NotAscending { index: 1 });
        assert_eq!(telemetry.counter("telemetry.errors.invalid_histogram_bounds"), 1);
        assert!(telemetry.histogram_handle("bad").snapshot().is_none());
        assert!(telemetry.register_histogram("good", &[1.0, 5.0]).is_ok());
        assert!(Telemetry::disabled().register_histogram("x", &[9.0, 2.0]).is_ok(), "no-op sink");
    }

    #[test]
    fn alerts_journal_and_report() {
        let telemetry = Telemetry::recording();
        let trace = telemetry.trace_for_packet("guest", "channel-0", 1).unwrap();
        telemetry.alert(
            10,
            AlertTransition::Pending,
            "client.staleness",
            "guest.head",
            "no head change",
            &[],
        );
        telemetry.alert(
            70,
            AlertTransition::Firing,
            "client.staleness",
            "guest.head",
            "stale 60 s",
            &[trace],
        );
        telemetry.alert(
            200,
            AlertTransition::Resolved,
            "client.staleness",
            "guest.head",
            "recovered",
            &[],
        );
        let report = telemetry.run_report("t", 0, 300);
        assert_eq!(report.alerts.len(), 3);
        assert_eq!(report.alerts[1].linked_traces, vec![trace.0]);
        let scorecard = report.health_scorecard();
        assert_eq!(scorecard.len(), 1);
        assert_eq!((scorecard[0].fired, scorecard[0].resolved, scorecard[0].active), (1, 1, false));
        // The firing transition is an event on the linked packet trace.
        assert!(report.packets[0].events.iter().any(|e| e.name == names::ALERT_FIRING));
        let text = report.render_text();
        assert!(text.contains("health scorecard"));
        assert!(text.contains("client.staleness[guest.head]"));
        // JSON round-trips with the new field, and old JSON (without it)
        // still deserializes.
        let back: RunReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back.alerts.len(), 3);
    }

    /// Drives `n` packet lifecycles through a sink: even sequences ack
    /// normally, sequences divisible by 5 time out, the rest strand.
    fn drive_packets(telemetry: &Telemetry, n: u64) {
        for sequence in 0..n {
            let trace = telemetry.trace_for_packet("guest", "channel-0", sequence).unwrap();
            telemetry.event(
                sequence * 10,
                names::PACKET_SEND,
                &[trace],
                &[("seq", sequence.into())],
            );
            telemetry.event(sequence * 10 + 3, names::PACKET_RECV, &[trace], &[]);
            if sequence % 5 == 0 {
                telemetry.event(sequence * 10 + 9, names::PACKET_TIMEOUT, &[trace], &[]);
            } else if sequence % 2 == 0 {
                telemetry.event(sequence * 10 + 9, names::PACKET_ACK, &[trace], &[]);
            }
            telemetry.counter_add("packets.started", 1);
        }
    }

    #[test]
    fn violations_carry_linked_traces() {
        let telemetry = Telemetry::recording();
        let trace = telemetry.trace_for_packet("guest", "channel-0", 1).unwrap();
        telemetry.violation(42, "ics20-conservation", "minted out of thin air", &[], &[trace]);
        let report = telemetry.run_report("t", 0, 100);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].linked_traces, vec![trace.0]);
        // The violation is also a journal event linked to the trace.
        assert!(report.packets[0].events.iter().any(|e| e.name == names::INVARIANT_VIOLATION));
    }
}
