//! The benchmark's contract: every metric it emits, with unit, better
//! direction, clock and regression bound. `BENCHMARK.json` is this file
//! rendered (`benchmark schema`), and the self-test checks they agree.

use serde_json::Value;

use crate::json::{count, number, object, text};
use crate::workloads::WORKLOADS;

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 25;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

/// What a value is read from, which decides how two runs compare.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Wall clock or process memory: varies run to run, compared by bound.
    Wall,
    /// Sim clock or a count: a pure function of the seed, compared exactly.
    Sim,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
}

pub struct EndToEnd {
    pub metric: Metric,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn wall(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, clock: Clock::Wall }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, clock: Clock::Sim }
}

use Better::{Higher, Lower};

/// What a user of the simulator (wall clock, memory) and a user of the
/// modelled link (sim-clock latency) see. Every workload emits every one.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { metric: wall("setup_s", "s", Lower), bound: 0.25 },
    EndToEnd { metric: wall("wall_s_per_sim_hour", "s", Lower), bound: 0.25 },
    EndToEnd { metric: wall("packets_per_wall_s", "1/s", Higher), bound: 0.25 },
    EndToEnd { metric: wall("peak_rss_mib", "MiB", Lower), bound: 0.10 },
    EndToEnd { metric: sim("latency_iqm_s", "sim_s", Lower), bound: 0.20 },
    EndToEnd { metric: sim("latency_p90_s", "sim_s", Lower), bound: 0.25 },
];

/// Single layers, named `<crate-dir>.<metric>`. Probes time a layer's
/// public functions directly; the rest is read back from the traced run.
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // sim-crypto (probes)
    wall("sim-crypto.sha256_mib_per_s", "MiB/s", Higher),
    wall("sim-crypto.sign_ns", "ns", Lower),
    wall("sim-crypto.verify_ns", "ns", Lower),
    // sealable-trie (probes, 10 k IBC-path keys unless named otherwise)
    wall("sealable-trie.insert_ns", "ns", Lower),
    wall("sealable-trie.get_ns", "ns", Lower),
    wall("sealable-trie.prove_ns", "ns", Lower),
    wall("sealable-trie.verify_ns", "ns", Lower),
    wall("sealable-trie.seal_ns", "ns", Lower),
    wall("sealable-trie.clone_us_10k", "us", Lower),
    wall("sealable-trie.clone_us_100k", "us", Lower),
    sim("sealable-trie.bytes_per_entry", "B", Lower),
    // host-sim
    wall("host-sim.advance_slot_empty_ns", "ns", Lower),
    wall("host-sim.tx_execute_us", "us", Lower),
    wall("host-sim.mempool_drain_ns_per_tx", "ns", Lower),
    wall("host-sim.block_ms", "ms", Lower),
    wall("host-sim.tx_execute_ms", "ms", Lower),
    sim("host-sim.txs_executed", "count", Lower),
    sim("host-sim.inclusion_failures", "count", Lower),
    sim("host-sim.mempool_depth_p95", "count", Lower),
    // core (the guest contract)
    wall("core.generate_sign_finalise_us", "us", Lower),
    wall("core.light_client_update_us", "us", Lower),
    sim("core.blocks", "count", Lower),
    sim("core.block_interval_p50_s", "sim_s", Lower),
    sim("core.finality_wait_p95_s", "sim_s", Lower),
    sim("core.trie_bytes", "B", Lower),
    sim("core.sealed_reclaimed", "count", Higher),
    // ibc-core
    wall("ibc-core.packet_commitment_ns", "ns", Lower),
    wall("ibc-core.send_recv_ack_us", "us", Lower),
    wall("ibc-core.update_client_us", "us", Lower),
    sim("ibc-core.packets_sent", "count", Higher),
    sim("ibc-core.packets_acked", "count", Higher),
    sim("ibc-core.packets_timed_out", "count", Lower),
    sim("ibc-core.acks_error", "count", Lower),
    // apps
    wall("apps.stack_overhead_ns", "ns", Lower),
    wall("apps.transfer_recv_us", "us", Lower),
    wall("apps.nft_recv_us", "us", Lower),
    wall("apps.ica_batch_us", "us", Lower),
    sim("apps.transfer.latency_p95_s", "sim_s", Lower),
    sim("apps.nft.latency_p95_s", "sim_s", Lower),
    sim("apps.ica.latency_p95_s", "sim_s", Lower),
    sim("apps.recv_errors", "count", Lower),
    // counterparty-sim
    wall("counterparty-sim.produce_block_us_10k", "us", Lower),
    wall("counterparty-sim.prove_at_us", "us", Lower),
    wall("counterparty-sim.block_ms", "ms", Lower),
    wall("counterparty-sim.snapshot_ms", "ms", Lower),
    wall("counterparty-sim.sign_ms", "ms", Lower),
    sim("counterparty-sim.blocks", "count", Lower),
    // relayer
    wall("relayer.plan_op_us", "us", Lower),
    wall("relayer.tick_ms", "ms", Lower),
    wall("relayer.guest_events_ms", "ms", Lower),
    wall("relayer.scan_host_ms", "ms", Lower),
    wall("relayer.job_activate_ms", "ms", Lower),
    wall("relayer.chunk_plan_ms", "ms", Lower),
    sim("relayer.jobs_client_update", "count", Lower),
    sim("relayer.jobs_recv_packet", "count", Higher),
    sim("relayer.jobs_ack_packet", "count", Higher),
    sim("relayer.tx_per_client_update", "count", Lower),
    sim("relayer.tx_per_recv", "count", Lower),
    sim("relayer.tx_per_ack", "count", Lower),
    sim("relayer.packets_per_client_update", "ratio", Higher),
    sim("relayer.failed_jobs", "count", Lower),
    sim("relayer.resubmissions", "count", Lower),
    sim("relayer.wait_share_pct", "%", Lower),
    sim("relayer.wait_p95_s", "sim_s", Lower),
    sim("relayer.client_update_p95_s", "sim_s", Lower),
    sim("relayer.backlog_peak", "count", Lower),
    sim("relayer.job_slot_busy_share", "ratio", Lower),
    sim("relayer.cost_cents_per_packet", "cents", Lower),
    // workload
    wall("workload.next_arrival_ns.steady", "ns", Lower),
    wall("workload.next_arrival_ns.diurnal", "ns", Lower),
    wall("workload.next_arrival_ns.flash_crowd", "ns", Lower),
    wall("workload.next_arrival_ns.airdrop_storm", "ns", Lower),
    wall("workload.arrivals_ms", "ms", Lower),
    sim("workload.generated", "count", Higher),
    sim("workload.rejected", "count", Lower),
    sim("workload.outbound_share", "ratio", Higher),
    // testnet (the harness, and the link it models)
    sim("testnet.steps", "count", Lower),
    wall("testnet.step_self_ms", "ms", Lower),
    wall("testnet.unattributed_pct", "%", Lower),
    wall("testnet.schedule_fire_ms", "ms", Lower),
    wall("testnet.resolve_tx_ms", "ms", Lower),
    wall("testnet.wall_first_hour_s", "s", Lower),
    wall("testnet.wall_last_hour_s", "s", Lower),
    wall("testnet.wall_growth_ratio", "ratio", Lower),
    sim("testnet.latency_p50_s", "sim_s", Lower),
    sim("testnet.latency_p95_s", "sim_s", Lower),
    sim("testnet.latency_out_p95_s", "sim_s", Lower),
    sim("testnet.latency_in_p95_s", "sim_s", Lower),
    sim("testnet.undelivered_share", "ratio", Lower),
    sim("testnet.saturated_delivered_per_sim_s", "1/sim_s", Higher),
    sim("testnet.drain_s", "sim_s", Lower),
    sim("testnet.paper.client_update_tx_mean", "count", Lower),
    sim("testnet.paper.cutoff_block_share", "ratio", Lower),
    sim("testnet.paper.recv_tx_mean", "count", Lower),
    sim("testnet.paper.send_finality_p50_s", "sim_s", Lower),
    sim("testnet.paper.deposit_usd", "usd", Lower),
    // mesh
    wall("mesh.step_idle_us", "us", Lower),
    wall("mesh.build_ms", "ms", Lower),
    wall("mesh.run_ms", "ms", Lower),
    sim("mesh.routes_sent", "count", Higher),
    sim("mesh.routes_delivered", "count", Higher),
    sim("mesh.routes_refunded", "count", Lower),
    sim("mesh.legs_in_flight_end", "count", Lower),
    sim("mesh.relay_errors", "count", Lower),
    sim("mesh.stuck_refunds", "count", Lower),
    sim("mesh.latency_p50_s", "sim_s", Lower),
    sim("mesh.latency_p95_s", "sim_s", Lower),
    sim("mesh.route_latency_p95_s", "sim_s", Lower),
    // telemetry
    wall("telemetry.run_report_ms", "ms", Lower),
    wall("telemetry.to_json_ms", "ms", Lower),
    sim("telemetry.report_bytes", "B", Lower),
    wall("telemetry.attribution_ms", "ms", Lower),
    sim("telemetry.journal_len", "count", Lower),
    wall("telemetry.record_ms", "ms", Lower),
    sim("telemetry.coverage_pct", "%", Higher),
    // monitor, chaos, profiler
    wall("monitor.tick_ms", "ms", Lower),
    sim("monitor.alerts_fired", "count", Lower),
    wall("chaos.audit_ms", "ms", Lower),
    sim("chaos.violations", "count", Lower),
    wall("profiler.trace_overhead_pct", "%", Lower),
];

fn metric_entry(metric: &Metric) -> Vec<(&'static str, Value)> {
    let better = match metric.better {
        Lower => "lower",
        Higher => "higher",
    };
    vec![("name", text(metric.name)), ("unit", text(metric.unit)), ("better", text(better))]
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let command = ["bash", "benchmark/run.sh"].map(text).to_vec();
    let workloads = WORKLOADS
        .iter()
        .map(|w| object(vec![("name", text(w.name)), ("why", text(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|e| {
            let mut entry = metric_entry(&e.metric);
            entry.push(("bound", number(e.bound)));
            object(entry)
        })
        .collect();
    let per_layer = PER_LAYER.iter().map(|m| object(metric_entry(m))).collect();
    let root = object(vec![
        ("command", Value::Array(command)),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", count(RUN_SECONDS)),
        ("workloads", Value::Array(workloads)),
        ("end_to_end", Value::Array(end_to_end)),
        ("per_layer", Value::Array(per_layer)),
    ]);
    let mut out = serde_json::to_string_pretty(&root).expect("a Value serializes");
    out.push('\n');
    out
}
