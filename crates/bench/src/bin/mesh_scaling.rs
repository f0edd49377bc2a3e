//! Mesh scaling — multi-hop routing latency and relay cost as the
//! topology grows (2→8 chains) and routes lengthen (1→3 hops).
//!
//! Three parts:
//! 1. A 3-chain A→B→C round trip with a full supply audit: the stacked
//!    voucher must unwind to the base denomination with zero net supply
//!    change on every chain — the subsystem's headline invariant.
//! 2. Latency/cost vs *chain count*: line topologies of 2..=N chains,
//!    an hourly end-to-end transfer each, same per-link fee schedule.
//! 3. Latency/cost vs *hop count*: one line topology, destinations at
//!    increasing distance.
//!
//! Deterministic: the same seed reproduces byte-identical JSON.
//!
//! Usage: `cargo run --release -p bench --bin mesh_scaling -- \
//!   [--chains N] [--hops N] [--days N] [--seed N] [--quiet] \
//!   [--json <path>] [--run-report <path>]`

use mesh::{chain_denom, chain_name, Mesh, MeshConfig, PathPolicy};
use relayer::LinkFee;
use sim_crypto::time::HOUR_MS;
use telemetry::{Artifact, Flags, Section};

/// Generous per-route settle budget; healthy routes settle in minutes.
const SETTLE_BUDGET_MS: u64 = 2 * HOUR_MS;
const FEE: LinkFee = LinkFee { per_message: 10, per_signature: 1 };

/// A line mesh of `n` chains with the benchmark's fee schedule.
fn fee_line(n: usize, seed: u64) -> Mesh {
    let mut config = MeshConfig::line(n, seed);
    for link in &mut config.links {
        link.fee = FEE;
    }
    Mesh::build(config).expect("line topologies validate")
}

/// Sends `routes` hourly transfers `chain-a → chain-<last>` and returns
/// `(mean settle latency ms, fees charged, client updates, delivered)`.
fn drive(net: &mut Mesh, routes: usize, to: &str) -> (f64, u64, u64, usize) {
    net.mint(&chain_name(0), "alice", &chain_denom(0), 1_000_000).expect("chain-a exists");
    let mut ids = Vec::new();
    for _ in 0..routes {
        let id = net
            .send_along_route(
                &chain_name(0),
                to,
                "alice",
                "zara",
                &chain_denom(0),
                100,
                &PathPolicy::FewestHops,
            )
            .expect("line routes resolve");
        ids.push(id);
        net.run_for(HOUR_MS);
    }
    // Let the last route settle and the ack tail drain.
    let last = *ids.last().expect("at least one route");
    net.run_until_settled(last, SETTLE_BUDGET_MS);
    net.run_for(10 * 60 * 1_000);

    let mut latencies = Vec::new();
    let mut delivered = 0usize;
    for &id in &ids {
        let route = &net.routes()[id];
        if route.delivered {
            delivered += 1;
        }
        if let Some(latency) = route.latency_ms() {
            latencies.push(latency as f64);
        }
    }
    let mean = if latencies.is_empty() {
        f64::NAN
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    let fees: u64 = net.links().iter().map(|l| l.fees_charged).sum();
    let updates: u64 = net.links().iter().map(|l| l.client_updates).sum();
    (mean, fees, updates, delivered)
}

/// Part 1: the A→B→C round trip with the supply audit.
fn round_trip(section: &mut Section, seed: u64) -> Mesh {
    let mut net = fee_line(3, seed);
    net.mint("chain-a", "alice", "tok-a", 1_000).expect("chain-a exists");

    let out = net
        .send_along_route(
            "chain-a",
            "chain-c",
            "alice",
            "carol",
            "tok-a",
            400,
            &PathPolicy::FewestHops,
        )
        .expect("a 2-hop route exists");
    let out_ok = net.run_until_settled(out, SETTLE_BUDGET_MS);

    // The stacked voucher as named on chain-c: both hop prefixes.
    let stacked = {
        let port = ibc_core::types::PortId::transfer();
        let ab = &net.links()[0];
        let bc = &net.links()[1];
        format!(
            "{}{}tok-a",
            ibc_core::ics20::voucher_prefix(&port, &bc.b_channel),
            ibc_core::ics20::voucher_prefix(&port, &ab.b_channel),
        )
    };
    let carol_voucher = net.balance("chain-c", "carol", &stacked);

    let back = net
        .send_along_route(
            "chain-c",
            "chain-a",
            "carol",
            "alice",
            &stacked,
            400,
            &PathPolicy::FewestHops,
        )
        .expect("the return route exists");
    let back_ok = net.run_until_settled(back, SETTLE_BUDGET_MS);
    net.run_for(10 * 60 * 1_000);

    let alice = net.balance("chain-a", "alice", "tok-a");
    let supply_a = net.node("chain-a").expect("chain-a").transfers().total_supply("tok-a");
    let vouchers: Vec<u128> =
        ["chain-a", "chain-b", "chain-c"].iter().map(|c| net.voucher_outstanding(c)).collect();
    let conserved = alice == 1_000
        && supply_a == 1_000
        && vouchers.iter().all(|&v| v == 0)
        && net.total_in_flight() == 0;

    section
        .line(format!("outbound A→B→C   delivered={} voucher[carol]={carol_voucher}", out_ok))
        .line(format!("return   C→B→A   delivered={back_ok}"))
        .line(format!(
            "audit: alice={alice}/1000 supply(tok-a)={supply_a}/1000 vouchers={vouchers:?} in_flight={}",
            net.total_in_flight()
        ))
        .line(format!("supply conserved on all three chains: {conserved}"))
        .value("round_trip_delivered", u8::from(out_ok && back_ok).into())
        .value("round_trip_conserved", u8::from(conserved).into())
        .value("round_trip_alice_final", alice as f64)
        .value(
            "round_trip_latency_out_ms",
            net.routes()[out].latency_ms().map_or(f64::NAN, |l| l as f64),
        )
        .value(
            "round_trip_latency_back_ms",
            net.routes()[back].latency_ms().map_or(f64::NAN, |l| l as f64),
        );
    net
}

fn main() {
    let mut flags = Flags::from_env();
    let chains = flags.value("--chains", 3usize).clamp(2, 8);
    let hops = flags.value("--hops", 2usize).clamp(1, 3);
    let days = flags.value("--days", 1u64);
    let seed = flags.value("--seed", 2026u64);
    let run_report_path: Option<String> = flags.optional("--run-report");
    let output = flags.output();
    let routes_per_run = (days * 24 / 4).max(2) as usize; // one per 4 sim hours

    let mut artifact = Artifact::new(
        format!(
            "Mesh scaling — {chains}-chain topologies, routes up to {hops} hops, \
             {days} simulated day(s) (seed {seed})"
        ),
        "mesh_scaling",
    );

    let trip = artifact.section("3-chain round trip (A→B→C→B→A) with supply audit");
    let trip_net = round_trip(trip, seed);

    let by_chains = artifact.section("latency & relay cost vs chain count (line topology)");
    by_chains.line(format!(
        "{:<8} {:>6} {:>14} {:>10} {:>10} {:>10}",
        "chains", "hops", "mean settle s", "fees", "updates", "delivered"
    ));
    for n in 2..=chains {
        let mut net = fee_line(n, seed);
        let dst = chain_name(n - 1);
        let (mean_ms, fees, updates, delivered) = drive(&mut net, routes_per_run, &dst);
        by_chains
            .line(format!(
                "{n:<8} {:>6} {:>14.1} {fees:>10} {updates:>10} {delivered:>9}/{routes_per_run}",
                n - 1,
                mean_ms / 1_000.0,
            ))
            .value(&format!("chains{n}_mean_settle_ms"), mean_ms)
            .value(&format!("chains{n}_fees"), fees as f64)
            .value(&format!("chains{n}_delivered"), delivered as f64);
    }

    let by_hops = artifact.section("latency & relay cost vs hop count (fixed topology)");
    by_hops.line(format!(
        "{:<8} {:>14} {:>10} {:>10} {:>10}",
        "hops", "mean settle s", "fees", "updates", "delivered"
    ));
    for h in 1..=hops {
        let mut net = fee_line(hops + 1, seed);
        let dst = chain_name(h);
        let (mean_ms, fees, updates, delivered) = drive(&mut net, routes_per_run, &dst);
        by_hops
            .line(format!(
                "{h:<8} {:>14.1} {fees:>10} {updates:>10} {delivered:>9}/{routes_per_run}",
                mean_ms / 1_000.0,
            ))
            .value(&format!("hops{h}_mean_settle_ms"), mean_ms)
            .value(&format!("hops{h}_fees"), fees as f64)
            .value(&format!("hops{h}_delivered"), delivered as f64);
    }

    if let Some(path) = run_report_path {
        let report = trip_net.run_report("mesh_scaling_round_trip");
        std::fs::write(&path, report.to_json()).expect("write run report");
        if !output.quiet {
            println!("run report written to {path}");
        }
    }
    artifact.emit(output.quiet, output.json.as_deref());
}
