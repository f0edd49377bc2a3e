//! Apps mix — the stacked application/middleware framework under an
//! airdrop-storm workload split across all three shipped applications.
//!
//! One 4-chain line mesh runs an [`workload::AppMix::even`] traffic
//! stream — a third plain ICS-20 transfers, a third ICS-721-style NFT
//! transfers, a third ICS-27-style interchain-account batches — with the
//! ICS-29 fee middleware escrowing a flat packet fee on every routed
//! transfer. The artifact audits the whole stack:
//!
//! 1. every application port actually delivered packets (per-app stack
//!    counters);
//! 2. fee conservation: escrowed = paid + refunded + pending, and the
//!    escrow account's holdings match the registered pending fees
//!    exactly ([`mesh::Mesh::fee_imbalance`] = 0);
//! 3. NFT conservation: every voucher token is backed by an escrowed
//!    original one hop back ([`mesh::Mesh::nft_supply_drift`] = 0);
//! 4. determinism: a second same-seed run produces a byte-identical
//!    telemetry run report.
//!
//! Usage: `cargo run --release -p bench --bin apps_mix -- \
//!   [--users N] [--hours N] [--seed N] [--quiet] [--json <path>]`

use apps::PacketFee;
use mesh::{ica_port, nft_port, Mesh, MeshConfig, TrafficOutcome};
use monitor::MonitorConfig;
use telemetry::Flags;
use testnet::Artifact;
use workload::{AppMix, TrafficConfig};

const HOUR_MS: u64 = 60 * 60 * 1_000;
/// Mean inter-arrival gap: one arrival a minute at base intensity; the
/// storm surge multiplies that 40× for half an hour.
const MEAN_GAP_MS: u64 = 60_000;
/// Flat ICS-29 fee escrowed per routed transfer (recv/ack/timeout).
const PACKET_FEE: PacketFee = PacketFee { recv_fee: 5, ack_fee: 3, timeout_fee: 2 };

/// Builds the mesh and drives the mixed workload through it.
fn run_mix(users: u32, hours: u64, seed: u64) -> (Mesh, TrafficOutcome) {
    let mut config = MeshConfig::line(4, seed);
    config.packet_fee = Some(PACKET_FEE);
    let mut net = Mesh::build(config).expect("line topologies validate");
    net.enable_monitor(MonitorConfig::small());
    let traffic = TrafficConfig::airdrop_storm(users, MEAN_GAP_MS).with_app_mix(AppMix::even());
    let outcome = net
        .run_with_traffic(&traffic, seed, hours * HOUR_MS, 2 * HOUR_MS)
        .expect("a 4-chain line accepts traffic");
    (net, outcome)
}

/// Per-app counter sums over every chain's stack on `port`.
fn app_counters(net: &Mesh, port: &ibc_core::types::PortId) -> apps::StackCounters {
    let mut total = apps::StackCounters::default();
    for node in net.nodes() {
        let c = node.stack_on(port).counters();
        total.received += c.received;
        total.recv_errors += c.recv_errors;
        total.acked += c.acked;
        total.timed_out += c.timed_out;
    }
    total
}

fn main() {
    let mut flags = Flags::from_env();
    let users = flags.value("--users", 96u32);
    let hours = flags.value("--hours", 2u64).clamp(2, 24);
    let seed = flags.value("--seed", 2026u64);
    let output = flags.output();

    let mut artifact = Artifact::new(
        format!(
            "Apps mix — transfer/NFT/ICA traffic over stacked middleware, \
             {users} users, {hours} simulated hour(s) + drain (seed {seed})"
        ),
        "apps_mix",
    );

    let (net, outcome) = run_mix(users, hours, seed);

    let section = artifact.section("traffic outcome (airdrop storm, even 3-way app mix)");
    section
        .line(format!(
            "sent={} delivered={} refunded={} skipped={} unroutable={} in_flight={}",
            outcome.sent,
            outcome.delivered,
            outcome.refunded,
            outcome.skipped_broke,
            outcome.unroutable,
            outcome.in_flight,
        ))
        .value("sent", outcome.sent as f64)
        .value("delivered", outcome.delivered as f64)
        .value("refunded", outcome.refunded as f64)
        .value("unroutable", outcome.unroutable as f64)
        .value("in_flight", outcome.in_flight as f64);

    let section = artifact.section("per-application delivery (stack counters, all chains)");
    section.line(format!(
        "{:<10} {:>10} {:>12} {:>8} {:>10}",
        "app", "received", "recv_errors", "acked", "timed_out"
    ));
    let ports = [
        ("transfer", ibc_core::types::PortId::transfer()),
        ("nft", nft_port()),
        ("ica", ica_port()),
    ];
    for (label, port) in &ports {
        let c = app_counters(&net, port);
        section
            .line(format!(
                "{label:<10} {:>10} {:>12} {:>8} {:>10}",
                c.received, c.recv_errors, c.acked, c.timed_out
            ))
            .value(&format!("apps_{label}_received"), c.received as f64)
            .value(&format!("apps_{label}_acked"), c.acked as f64)
            .value(&format!("apps_{label}_recv_errors"), c.recv_errors as f64)
            .value(&format!("apps_{label}_timed_out"), c.timed_out as f64);
    }

    let section = artifact.section("ICS-29 fee conservation");
    let totals = net.fee_totals();
    let imbalance = net.fee_imbalance();
    let conserved = totals.escrowed == totals.paid + totals.refunded + totals.pending;
    let fee_alerts =
        net.alert_records().iter().filter(|a| a.detector.contains("fee-conservation")).count();
    section
        .line(format!(
            "escrowed={} paid={} refunded={} pending={} imbalance={imbalance}",
            totals.escrowed, totals.paid, totals.refunded, totals.pending
        ))
        .line(format!("escrowed = paid + refunded + pending: {conserved}"))
        .line(format!("fee-conservation monitor alerts fired: {fee_alerts}"))
        .value("fee_escrowed", totals.escrowed as f64)
        .value("fee_paid", totals.paid as f64)
        .value("fee_refunded", totals.refunded as f64)
        .value("fee_pending", totals.pending as f64)
        .value("fee_imbalance", imbalance as f64)
        .value("fee_conserved", u8::from(conserved).into())
        .value("fee_alerts", fee_alerts as f64);

    let section = artifact.section("ICS-721 NFT conservation");
    let tokens: u64 = net.nodes().iter().map(|n| n.nfts().nft().total_tokens()).sum();
    let drift = net.nft_supply_drift();
    section
        .line(format!(
            "tokens mesh-wide={tokens} unbacked vouchers={drift} legs in flight={}",
            net.total_in_flight()
        ))
        .value("nft_tokens_total", tokens as f64)
        .value("nft_supply_drift", drift as f64)
        .value("legs_in_flight", net.total_in_flight() as f64);

    let section = artifact.section("determinism (same seed, second run)");
    let (net2, outcome2) = run_mix(users, hours, seed);
    let deterministic = outcome == outcome2
        && net.run_report("apps_mix").to_json() == net2.run_report("apps_mix").to_json();
    section
        .line(format!("second run byte-identical telemetry + outcome: {deterministic}"))
        .value("determinism_ok", u8::from(deterministic).into());

    artifact.emit(output.quiet, output.json.as_deref());
}
