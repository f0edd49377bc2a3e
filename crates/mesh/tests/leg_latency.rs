//! A leg's send → acknowledgement latency is bounded by the chain and
//! relayer cadences, not by how busy the chains are. The link relayer
//! proves each step at its source's latest commit once that commit holds
//! it, so under steady traffic a leg waits at most for the block that
//! commits its send and the relay tick after it, then the same again for
//! the written acknowledgement — never for a moment when the source's
//! live store happens to equal its last commit.

use mesh::{HostProfile, Mesh, MeshConfig};
use telemetry::names;
use workload::{AppMix, TrafficConfig};

const MINUTE_MS: u64 = 60_000;
/// The mesh's harness step and relay interval (`topology.rs`).
const STEP_MS: u64 = 1_000;
const RELAY_INTERVAL_MS: u64 = 2_000;

/// Runs mixed-app traffic for 20 minutes, drains for 10, and returns the
/// slowest leg from its send to the acknowledgement on its sender, in ms.
fn slowest_acked_leg(config: MeshConfig) -> u64 {
    let seed = config.seed;
    let mut net = Mesh::build(config).unwrap();
    let traffic = TrafficConfig::steady(120, 10_000).with_app_mix(AppMix::even());
    let outcome = net.run_with_traffic(&traffic, seed, 20 * MINUTE_MS, 10 * MINUTE_MS).unwrap();
    assert!(outcome.delivered > 0, "{outcome:?}");
    assert_eq!(net.supply_drift(), 0);
    assert_eq!(net.relay_errors(), 0);

    let at = |events: &[telemetry::TraceEvent], name: &str| {
        events.iter().find(|event| event.name == name).map(|event| event.at_ms)
    };
    let report = net.run_report("leg_latency");
    let legs: Vec<u64> = report
        .packets
        .iter()
        .filter_map(|leg| {
            Some(at(&leg.events, names::PACKET_ACK)? - at(&leg.events, names::PACKET_SEND)?)
        })
        .collect();
    assert!(legs.len() > 100, "{} acknowledged legs", legs.len());
    legs.into_iter().max().unwrap()
}

/// Two blocks of the slowest chain and two relay ticks — the send's, then
/// the acknowledgement's — plus a harness step each for dispatching them.
fn bound_ms(config: &MeshConfig) -> u64 {
    let block_ms = config.chains.iter().map(|c| c.profile.chain_config().block_interval_ms);
    2 * (block_ms.max().unwrap() + RELAY_INTERVAL_MS) + 2 * STEP_MS
}

#[test]
fn a_busy_cosmos_line_acknowledges_every_leg_within_two_blocks_and_ticks() {
    let config = MeshConfig::line(4, 7);
    let bound = bound_ms(&config);
    assert_eq!(bound, 18_000);
    let slowest = slowest_acked_leg(config);
    assert!(slowest <= bound, "slowest acknowledged leg {slowest} ms > {bound} ms");
}

/// Chains of different cadences: a step committed by a fast chain's block
/// must be provable from that block's height, not from the height the
/// relayer happened to see when it drained the event.
#[test]
fn a_busy_mixed_cadence_line_acknowledges_every_leg_within_the_same_bound() {
    let mut config = MeshConfig::line(4, 7);
    let profiles = [
        HostProfile::CosmosLike,
        HostProfile::NearLike,
        HostProfile::TronLike,
        HostProfile::CosmosLike,
    ];
    for (chain, profile) in config.chains.iter_mut().zip(profiles) {
        chain.profile = profile;
    }
    let bound = bound_ms(&config);
    assert_eq!(bound, 18_000);
    let slowest = slowest_acked_leg(config);
    assert!(slowest <= bound, "slowest acknowledged leg {slowest} ms > {bound} ms");
}
