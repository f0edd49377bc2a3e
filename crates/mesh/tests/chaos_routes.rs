//! Chaos faults scoped to mesh nodes and links: halting a chain or
//! downing a link along an A→B→C route must either delay delivery (fault
//! shorter than the hop timeout) or unwind the transfer hop by hop,
//! refunding the original sender with zero net supply change.

use chaos::{ChaosPlan, Fault};
use mesh::{Mesh, MeshConfig, PathPolicy};

const HOP_TIMEOUT_MS: u64 = 120_000;
const FAULT_UNTIL_MS: u64 = 300_000;
const SETTLE_BUDGET_MS: u64 = 10 * 60 * 1_000;
const DRAIN_MS: u64 = 60 * 1_000;

fn faulted_line(seed: u64, fault: Fault, until_ms: u64) -> Mesh {
    let mut config = MeshConfig::line(3, seed);
    config.hop_timeout_ms = HOP_TIMEOUT_MS;
    config.chaos = ChaosPlan::new(seed).with(0, until_ms, fault);
    Mesh::build(config).unwrap()
}

/// The differential check on the banks' per-denom running totals: every
/// scenario ends by recounting every chain's bank account by account.
fn assert_banks_recount(net: &Mesh) {
    for node in net.nodes() {
        let bank = node.transfers();
        for denom in bank.denoms() {
            let recount: u128 = bank.holders(&denom).map(|(_, amount)| amount).sum();
            assert_eq!(recount, bank.total_supply(&denom), "{denom} on {}", node.name);
        }
    }
}

/// Asserts the transfer unwound completely: sender made whole, no
/// vouchers left anywhere, no leg still awaiting settlement.
fn assert_unwound(net: &Mesh, route: usize) {
    assert!(net.routes()[route].refunded, "route must refund");
    assert!(!net.routes()[route].delivered);
    assert_eq!(net.balance("chain-a", "alice", "tok-a"), 1_000, "sender made whole");
    assert_eq!(net.node("chain-a").unwrap().transfers().total_supply("tok-a"), 1_000);
    for chain in ["chain-a", "chain-b", "chain-c"] {
        assert_eq!(net.voucher_outstanding(chain), 0, "{chain} must hold no vouchers");
    }
    assert_eq!(net.total_in_flight(), 0, "no leg may stay in flight");
    assert_eq!(net.stuck_refunds(), 0);
    assert_banks_recount(net);
}

#[test]
fn halted_middle_chain_refunds_the_sender() {
    let fault = Fault::ChainHalt { chain: "chain-b".into() };
    let mut net = faulted_line(21, fault, FAULT_UNTIL_MS);
    net.mint("chain-a", "alice", "tok-a", 1_000).unwrap();
    let route = net
        .send_along_route(
            "chain-a",
            "chain-c",
            "alice",
            "carol",
            "tok-a",
            300,
            &PathPolicy::FewestHops,
        )
        .unwrap();
    assert!(net.run_until_settled(route, SETTLE_BUDGET_MS), "route must settle after the halt");
    net.run_for(DRAIN_MS);
    // The first leg never reached B: the origin chain itself timed the
    // packet out and reversed the escrow.
    assert_unwound(&net, route);
}

#[test]
fn halted_final_chain_unwinds_the_forwarded_hop() {
    let fault = Fault::ChainHalt { chain: "chain-c".into() };
    let mut net = faulted_line(22, fault, FAULT_UNTIL_MS);
    net.mint("chain-a", "alice", "tok-a", 1_000).unwrap();
    let route = net
        .send_along_route(
            "chain-a",
            "chain-c",
            "alice",
            "carol",
            "tok-a",
            300,
            &PathPolicy::FewestHops,
        )
        .unwrap();
    assert!(net.run_until_settled(route, SETTLE_BUDGET_MS), "route must settle after the halt");
    net.run_for(DRAIN_MS);
    // A→B delivered, then B→C expired: the middleware's refund transfer
    // must carry the funds backwards B→A.
    assert_unwound(&net, route);
    assert_eq!(net.balance("chain-c", "carol", "tok-a"), 0);
}

#[test]
fn downed_link_unwinds_like_a_halted_chain() {
    let fault = Fault::LinkDown { link: "chain-b<>chain-c".into() };
    let mut net = faulted_line(23, fault, FAULT_UNTIL_MS);
    net.mint("chain-a", "alice", "tok-a", 1_000).unwrap();
    let route = net
        .send_along_route(
            "chain-a",
            "chain-c",
            "alice",
            "carol",
            "tok-a",
            300,
            &PathPolicy::FewestHops,
        )
        .unwrap();
    assert!(net.run_until_settled(route, SETTLE_BUDGET_MS), "route must settle after the outage");
    net.run_for(DRAIN_MS);
    assert_unwound(&net, route);
    // The healthy A—B link kept relaying: it carried the forward leg and
    // later the refund leg.
    assert!(net.links()[0].deliveries >= 2);
}

#[test]
fn transient_halt_shorter_than_the_timeout_only_delays_delivery() {
    let fault = Fault::ChainHalt { chain: "chain-b".into() };
    let mut net = faulted_line(24, fault, 60_000);
    net.mint("chain-a", "alice", "tok-a", 1_000).unwrap();
    let route = net
        .send_along_route(
            "chain-a",
            "chain-c",
            "alice",
            "carol",
            "tok-a",
            300,
            &PathPolicy::FewestHops,
        )
        .unwrap();
    assert!(net.run_until_settled(route, SETTLE_BUDGET_MS));
    net.run_for(DRAIN_MS);
    assert!(net.routes()[route].delivered, "a transient halt must not lose the transfer");
    assert!(!net.routes()[route].refunded);
    assert_eq!(net.balance("chain-a", "alice", "tok-a"), 700);
    assert_eq!(net.total_in_flight(), 0);
    assert_banks_recount(&net);
}

#[test]
fn refund_report_marks_the_route_refunded_not_delivered() {
    let fault = Fault::ChainHalt { chain: "chain-c".into() };
    let mut net = faulted_line(25, fault, FAULT_UNTIL_MS);
    net.mint("chain-a", "alice", "tok-a", 1_000).unwrap();
    let route = net
        .send_along_route(
            "chain-a",
            "chain-c",
            "alice",
            "carol",
            "tok-a",
            300,
            &PathPolicy::FewestHops,
        )
        .unwrap();
    assert!(net.run_until_settled(route, SETTLE_BUDGET_MS));
    net.run_for(DRAIN_MS);

    let report = net.run_report("chaos_refund");
    let label = &net.routes()[route].label;
    let summary = report.routes.iter().find(|r| &r.label == label).expect("route trace");
    assert!(summary.refunded);
    assert!(!summary.delivered);
    assert!(
        summary.legs >= 2,
        "the forward leg and the refund leg must both link to the route trace"
    );
    assert!(summary.events.iter().any(|e| e.name == "packet.timeout"));
    assert_banks_recount(&net);
}
