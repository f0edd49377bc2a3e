//! Mesh quickstart: three chains, two IBC links, one multi-hop transfer.
//!
//! Builds a `chain-a — chain-b — chain-c` line topology, routes a token
//! from A to C through B (each hop escrows and mints with a stacked
//! voucher prefix), then sends it home again and checks the round trip
//! unwound to the base denomination with zero net supply change.
//!
//! ```text
//! cargo run --release --example mesh_quickstart
//! ```

use be_my_guest::ibc_core::ics20::voucher_prefix;
use be_my_guest::ibc_core::types::PortId;
use be_my_guest::mesh::{Mesh, MeshConfig, PathPolicy};
use be_my_guest::sim_crypto::time::HOUR_MS;

fn main() {
    // Three chains on one shared clock, a relayer per link. `line` wires
    // a<>b and b<>c; `ring`/`full` or a hand-built `MeshConfig` give
    // richer topologies.
    let mut net = Mesh::build(MeshConfig::line(3, 2026)).expect("config validates");
    net.mint("chain-a", "alice", "tok-a", 1_000).expect("chain-a exists");
    println!("topology: chain-a <-> chain-b <-> chain-c  (2 links, 2 relayers)");

    // One call routes the whole journey: the routing table picks the path
    // (here the only one: via chain-b) and the hop list rides in the
    // packet memo for the forward middleware on each intermediate chain.
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
        .expect("a route exists");
    let delivered = net.run_until_settled(out, HOUR_MS);
    println!("outbound A→B→C delivered: {delivered}");

    // On chain-c the token is a voucher with BOTH hop prefixes stacked —
    // the on-chain record of the path it travelled.
    let port = PortId::transfer();
    let stacked = format!(
        "{}{}tok-a",
        voucher_prefix(&port, &net.links()[1].b_channel),
        voucher_prefix(&port, &net.links()[0].b_channel),
    );
    println!("carol holds {} of `{stacked}`", net.balance("chain-c", "carol", &stacked));

    // Send it home. Each hop recognises its own prefix and unwinds it:
    // burn on chain-c, burn on chain-b, release from escrow on chain-a.
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
    let returned = net.run_until_settled(back, HOUR_MS);
    net.run_for(10 * 60 * 1_000); // drain the ack tail
    println!("return C→B→A delivered: {returned}");

    // The audit: sender made whole, base supply unchanged, no vouchers
    // left anywhere, nothing still in flight.
    assert_eq!(net.balance("chain-a", "alice", "tok-a"), 1_000);
    assert_eq!(net.node("chain-a").expect("chain-a").transfers().total_supply("tok-a"), 1_000);
    for chain in ["chain-a", "chain-b", "chain-c"] {
        assert_eq!(net.voucher_outstanding(chain), 0, "{chain} must hold no vouchers");
    }
    assert_eq!(net.total_in_flight(), 0);
    println!("round trip audited: supply conserved on all three chains");

    // The run report ties it together: one route trace per transfer,
    // linking every per-hop packet trace.
    let report = net.run_report("mesh-quickstart");
    for route in &report.routes {
        println!(
            "route {} — {} legs, {:.1} s end-to-end, delivered={}",
            route.label,
            route.legs,
            route.latency_ms() as f64 / 1_000.0,
            route.delivered,
        );
    }
}
