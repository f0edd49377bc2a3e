//! Per-layer metrics of a traced run, read back from outside: the
//! testnet's own `profile_report()`, the relayer's job records, the
//! delivery ledger, telemetry counters, latency attribution, and the
//! benchmark's spans and grid samples. Nothing here reaches into a crate.

use std::collections::BTreeMap;

use host_sim::lamports_to_cents;
use mesh::{ica_port, nft_port};
use profiler::ProfileReport;
use relayer::{JobKind, JobRecord};
use telemetry::stages;
use testnet::Testnet;
use workload::ArrivalCurve;

use crate::stats::{percentile, ratio, sim_s};
use crate::trace::{wall_ms_of, Span};
use crate::workloads::{latencies_ms, GridSample, Kind, Net, Rep, Sim, Workload, DRAINED_BACKLOG};

pub type Values = BTreeMap<&'static str, f64>;

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
    ratio(sum, count as f64)
}

/// Total wall of every profiler scope called `name`, wherever it nests.
fn scope_ms(profile: &ProfileReport, name: &str) -> f64 {
    profile.entries.iter().filter(|e| e.name == name).fold(0.0, |total, e| total + e.wall_ms)
}

/// Wall of the chunks covering the first and the last simulated hour.
fn first_and_last_hour_s(spans: &[Span], chunk_ms: u64) -> (f64, f64) {
    let chunks: Vec<f64> =
        spans.iter().filter(|s| s.name == "testnet.chunk").map(|s| s.wall_ms() / 1_000.0).collect();
    let per_hour = ((testnet::HOUR_MS / chunk_ms.max(1)) as usize).clamp(1, chunks.len().max(1));
    let first = chunks.iter().take(per_hour).sum();
    let last = chunks.iter().rev().take(per_hour).sum();
    (first, last)
}

fn jobs(records: &[JobRecord], kind: JobKind) -> impl Iterator<Item = &JobRecord> {
    records.iter().filter(move |r| r.kind == kind)
}

/// `(saturated delivery rate, drain time)` of a storm: packets delivered
/// between surge start and the first grid point after the surge where at
/// most `DRAINED_BACKLOG` packets remain in the link. Zeros if it never
/// drains inside the run.
fn storm_drain(grid: &[GridSample], surge_start_ms: u64, surge_end_ms: u64) -> (f64, f64) {
    let delivered_at = |sample: &GridSample| sample.ledger.map_or(0, |l| l.delivered);
    let before = grid.iter().rev().find(|s| s.at_ms <= surge_start_ms).map_or(0, delivered_at);
    let drained = grid.iter().find(|s| {
        s.at_ms >= surge_end_ms
            && s.ledger.is_some_and(|l| l.still_queued + l.stranded <= DRAINED_BACKLOG)
    });
    match drained {
        Some(sample) => (
            ratio((delivered_at(sample) - before) as f64, sim_s(sample.at_ms - surge_start_ms)),
            sim_s(sample.at_ms - surge_end_ms),
        ),
        None => (0.0, 0.0),
    }
}

fn testnet_layers(
    values: &mut Values,
    workload: &Workload,
    testnet: &Testnet,
    rep: &Rep,
    sim: &Sim,
    spans: &[Span],
) {
    let report = &rep.report;
    let counter = |name: &str| report.metrics.counters.get(name).copied().unwrap_or(0) as f64;
    let profile = testnet.profile_report();
    let run_ms = wall_ms_of(spans, "testnet.run");

    // Harness: how the run loop's wall splits over the step's phases.
    let step = profile.entry("step");
    let named_ms = step.map_or(0.0, |s| s.wall_ms - s.self_ms);
    values.insert("testnet.steps", step.map_or(0.0, |s| s.calls as f64));
    values.insert("testnet.step_self_ms", step.map_or(0.0, |s| s.self_ms));
    values.insert("testnet.unattributed_pct", 100.0 - ratio(named_ms, run_ms) * 100.0);
    values.insert("testnet.schedule_fire_ms", scope_ms(&profile, "schedule.fire"));
    values.insert("testnet.resolve_tx_ms", scope_ms(&profile, "resolve.tx"));
    let Kind::Testnet { chunk_ms, .. } = workload.kind else { unreachable!("a testnet ran") };
    let (first_hour, last_hour) = first_and_last_hour_s(spans, chunk_ms);
    values.insert("testnet.wall_first_hour_s", first_hour);
    values.insert("testnet.wall_last_hour_s", last_hour);
    values.insert("testnet.wall_growth_ratio", ratio(last_hour, first_hour));

    values.insert("host-sim.block_ms", scope_ms(&profile, "host.block"));
    values.insert("host-sim.tx_execute_ms", scope_ms(&profile, "tx.execute"));
    values
        .insert("host-sim.txs_executed", counter("host.txs.included") + counter("host.txs.failed"));
    values.insert("host-sim.inclusion_failures", counter("host.inclusion_failures"));
    let mut depths: Vec<usize> = rep.grid.iter().map(|s| s.mempool).collect();
    depths.sort_unstable();
    values.insert("host-sim.mempool_depth_p95", percentile(&depths, 0.95) as f64);

    values.insert("counterparty-sim.block_ms", scope_ms(&profile, "cp.block"));
    values.insert("counterparty-sim.snapshot_ms", scope_ms(&profile, "cp.snapshot"));
    values.insert("counterparty-sim.sign_ms", scope_ms(&profile, "cp.sign"));
    values.insert("counterparty-sim.blocks", counter("cp.blocks"));

    values.insert("relayer.tick_ms", scope_ms(&profile, "relayer.tick"));
    values.insert(
        "relayer.guest_events_ms",
        profile.entry("step;relayer.tick;guest.events").map_or(0.0, |e| e.wall_ms),
    );
    values.insert("relayer.scan_host_ms", scope_ms(&profile, "scan.host"));
    values.insert("relayer.job_activate_ms", scope_ms(&profile, "job.activate"));
    values.insert("relayer.chunk_plan_ms", scope_ms(&profile, "chunk.plan"));
    values.insert("workload.arrivals_ms", scope_ms(&profile, "workload.arrivals"));
    values.insert("telemetry.record_ms", scope_ms(&profile, "telemetry.record"));
    values.insert("monitor.tick_ms", scope_ms(&profile, "monitor.tick"));
    values.insert("chaos.audit_ms", scope_ms(&profile, "invariants.audit"));

    // Relayer: work done per job kind, and what it cost.
    let records = testnet.relayer.records();
    let delivered = counter("guest.packets.acked") + counter("cp.packets.acked")
        - counter("guest.acks.error")
        - counter("cp.acks.error");
    for (kind, count, txs) in [
        (JobKind::ClientUpdate, "relayer.jobs_client_update", "relayer.tx_per_client_update"),
        (JobKind::RecvPacket, "relayer.jobs_recv_packet", "relayer.tx_per_recv"),
        (JobKind::AckPacket, "relayer.jobs_ack_packet", "relayer.tx_per_ack"),
    ] {
        values.insert(count, jobs(records, kind).count() as f64);
        values.insert(txs, mean(jobs(records, kind).map(|r| r.tx_count as f64)));
    }
    values.insert(
        "relayer.packets_per_client_update",
        ratio(
            values["relayer.jobs_recv_packet"] + values["relayer.jobs_ack_packet"],
            values["relayer.jobs_client_update"],
        ),
    );
    values.insert("relayer.failed_jobs", testnet.relayer.failed_jobs() as f64);
    values.insert("relayer.resubmissions", testnet.relayer.resubmissions() as f64);
    let fees: u64 = records.iter().map(|r| r.fee_lamports).sum();
    values.insert("relayer.cost_cents_per_packet", ratio(lamports_to_cents(fees), delivered));
    values.insert(
        "relayer.backlog_peak",
        rep.grid.iter().map(|s| s.backlog).max().unwrap_or(0) as f64,
    );
    values.insert(
        "relayer.job_slot_busy_share",
        ratio(rep.grid.iter().filter(|s| s.job_in_flight).count() as f64, rep.grid.len() as f64),
    );

    // The guest contract and the paper's own figures.
    let evaluation = testnet::report_of(testnet, rep.sim_ms);
    let mut intervals_ms: Vec<u64> =
        evaluation.fig6_block_intervals_min.iter().map(|min| (min * 60_000.0) as u64).collect();
    intervals_ms.sort_unstable();
    values.insert("core.blocks", testnet.contract.borrow().head_height() as f64);
    values.insert("core.block_interval_p50_s", sim_s(percentile(&intervals_ms, 0.50)));
    values.insert("core.trie_bytes", evaluation.storage.trie_bytes as f64);
    values.insert("core.sealed_reclaimed", evaluation.storage.sealed_reclaimed as f64);
    // The paper's figures are defined on its own two-stream workload.
    if testnet.config().traffic.is_none() {
        let at_cutoff = evaluation
            .fig6_block_intervals_min
            .iter()
            .filter(|m| (59.0..70.0).contains(*m))
            .count();
        let mut finality_ms: Vec<u64> =
            evaluation.fig2_send_latency_s.iter().map(|s| (s * 1_000.0) as u64).collect();
        finality_ms.sort_unstable();
        values.insert(
            "testnet.paper.client_update_tx_mean",
            mean(evaluation.fig4_update_tx_counts.iter().map(|n| *n as f64)),
        );
        values.insert(
            "testnet.paper.cutoff_block_share",
            ratio(at_cutoff as f64, evaluation.fig6_block_intervals_min.len() as f64),
        );
        values.insert(
            "testnet.paper.recv_tx_mean",
            mean(evaluation.recv_tx_counts.iter().map(|n| *n as f64)),
        );
        values.insert("testnet.paper.send_finality_p50_s", sim_s(percentile(&finality_ms, 0.50)));
        values.insert("testnet.paper.deposit_usd", evaluation.storage.deposit_usd);
    }

    // The link as its users saw it, per direction and under the storm.
    values.insert("testnet.latency_p50_s", sim_s(percentile(&sim.latencies_ms, 0.50)));
    values.insert("testnet.latency_p95_s", sim_s(percentile(&sim.latencies_ms, 0.95)));
    for (origin, name) in
        [("guest", "testnet.latency_out_p95_s"), ("cp", "testnet.latency_in_p95_s")]
    {
        let latencies = latencies_ms(report, rep.window_ms, |p| p.origin == origin);
        values.insert(name, sim_s(percentile(&latencies, 0.95)));
    }
    values.insert(
        "testnet.undelivered_share",
        1.0 - ratio(sim.succeeded as f64, sim.attempted as f64),
    );
    if let Some(ArrivalCurve::AirdropStorm { at_ms, duration_ms, .. }) =
        testnet.config().traffic.as_ref().map(|t| t.curve)
    {
        let (rate, drain_s) = storm_drain(&rep.grid, at_ms, at_ms + duration_ms);
        values.insert("testnet.saturated_delivered_per_sim_s", rate);
        values.insert("testnet.drain_s", drain_s);
    }

    // Offered load: if `generated` moves, the comparison is void.
    let outbound = report.packets.iter().filter(|p| p.origin == "guest").count() as f64;
    match testnet.delivery_accounting() {
        Some(ledger) => {
            values.insert("workload.generated", ledger.generated as f64);
            values.insert("workload.rejected", ledger.rejected as f64);
        }
        None => {
            values.insert("workload.generated", report.packets.len() as f64);
        }
    }
    values.insert("workload.outbound_share", ratio(outbound, report.packets.len() as f64));

    values.insert(
        "ibc-core.packets_sent",
        counter("guest.packets.sent") + counter("cp.packets.sent"),
    );
    values.insert(
        "ibc-core.packets_acked",
        counter("guest.packets.acked") + counter("cp.packets.acked"),
    );
    values.insert(
        "ibc-core.packets_timed_out",
        counter("guest.packets.timed_out") + counter("cp.packets.timed_out"),
    );
    values.insert("ibc-core.acks_error", counter("guest.acks.error") + counter("cp.acks.error"));
    values.insert("monitor.alerts_fired", testnet.alert_records().len() as f64);
    values.insert("chaos.violations", testnet.invariant_violations().len() as f64);
}

fn mesh_layers(
    values: &mut Values,
    mesh: &mesh::Mesh,
    outcome: &mesh::TrafficOutcome,
    rep: &Rep,
    sim: &Sim,
) {
    let counter = |name: &str| rep.report.metrics.counters.get(name).copied().unwrap_or(0) as f64;
    let mut route_ms: Vec<u64> = mesh.routes().iter().filter_map(|r| r.latency_ms()).collect();
    route_ms.sort_unstable();
    values.insert("mesh.routes_sent", mesh.routes().len() as f64);
    values.insert("mesh.routes_delivered", outcome.delivered as f64);
    values.insert("mesh.routes_refunded", outcome.refunded as f64);
    values.insert("mesh.legs_in_flight_end", mesh.total_in_flight() as f64);
    values.insert("mesh.relay_errors", mesh.relay_errors() as f64);
    values.insert("mesh.stuck_refunds", mesh.stuck_refunds() as f64);
    values.insert("mesh.latency_p50_s", sim_s(percentile(&sim.latencies_ms, 0.50)));
    values.insert("mesh.latency_p95_s", sim_s(percentile(&sim.latencies_ms, 0.95)));
    values.insert("mesh.route_latency_p95_s", sim_s(percentile(&route_ms, 0.95)));

    let recv_errors: u64 = [ibc_core::types::PortId::transfer(), nft_port(), ica_port()]
        .iter()
        .flat_map(|port| mesh.nodes().iter().map(move |node| node.stack_on(port).counters()))
        .map(|c| c.recv_errors)
        .sum();
    values.insert("apps.recv_errors", recv_errors as f64);

    values.insert(
        "workload.generated",
        (outcome.sent + outcome.skipped_broke + outcome.unroutable) as f64,
    );
    values.insert("workload.rejected", (outcome.skipped_broke + outcome.unroutable) as f64);
    values.insert("ibc-core.packets_sent", counter("mesh.packets.sent"));
    values.insert("ibc-core.packets_acked", counter("mesh.packets.delivered"));
    values.insert("ibc-core.packets_timed_out", counter("mesh.packets.timed_out"));
    values.insert("ibc-core.acks_error", counter("mesh.acks.error"));
    values.insert("monitor.alerts_fired", mesh.alert_records().len() as f64);
}

/// Every trace-derived per-layer value of one traced run. `bare_run_s` is
/// the same-seed untraced run loop the tracing overhead is measured against.
pub fn collect(
    workload: &Workload,
    rep: &Rep,
    sim: &Sim,
    spans: &[Span],
    bare_run_s: f64,
) -> Values {
    let mut values = Values::new();
    match &rep.net {
        Net::Testnet(testnet) => testnet_layers(&mut values, workload, testnet, rep, sim, spans),
        Net::Mesh(mesh, outcome) => mesh_layers(&mut values, mesh, outcome, rep, sim),
    }
    values.insert("mesh.build_ms", wall_ms_of(spans, "mesh.build"));
    values.insert("mesh.run_ms", wall_ms_of(spans, "mesh.run"));

    let attribution = &sim.attribution;
    values.insert("telemetry.attribution_ms", sim.attribution_ms);
    let stage = |name: &str| attribution.stage(name);
    values.insert("telemetry.coverage_pct", attribution.coverage_pct());
    values.insert(
        "core.finality_wait_p95_s",
        stage(stages::FINALITY_WAIT).map_or(0.0, |s| sim_s(s.p95_ms)),
    );
    values
        .insert("relayer.wait_share_pct", stage(stages::RELAYER_WAIT).map_or(0.0, |s| s.share_pct));
    values
        .insert("relayer.wait_p95_s", stage(stages::RELAYER_WAIT).map_or(0.0, |s| sim_s(s.p95_ms)));
    values.insert(
        "relayer.client_update_p95_s",
        stage(stages::CLIENT_UPDATE).map_or(0.0, |s| sim_s(s.p95_ms)),
    );
    for (app, name) in [
        ("transfer", "apps.transfer.latency_p95_s"),
        ("nft", "apps.nft.latency_p95_s"),
        ("ica", "apps.ica.latency_p95_s"),
    ] {
        values.insert(name, attribution.app(app).map_or(0.0, |a| sim_s(a.p95_ms)));
    }

    values.insert("telemetry.run_report_ms", wall_ms_of(spans, "telemetry.run_report"));
    values.insert("telemetry.to_json_ms", wall_ms_of(spans, "telemetry.to_json"));
    values.insert("telemetry.report_bytes", rep.report_json.len() as f64);
    values.insert("telemetry.journal_len", rep.report.journal_len as f64);
    values.insert("profiler.trace_overhead_pct", (ratio(rep.run_s, bare_run_s) - 1.0) * 100.0);
    values
}
