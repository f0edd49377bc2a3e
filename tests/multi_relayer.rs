//! §III-C: "Relayers … are permissionless and can be run by anyone." Two
//! independent relayers serve the same link; safety must hold — every
//! packet delivered exactly once, no corrupted staging, the loser of each
//! race fails gracefully. The second relayer is first-class harness
//! support: `Testnet::add_relayer` gives it a funded payer and ticks it
//! inside `net.step()`.

use be_my_guest::relayer::JobKind;
use be_my_guest::testnet::{Testnet, TestnetConfig, CP_DENOM, GUEST_USER};

#[test]
fn two_relayers_race_without_violating_safety() {
    let mut config = TestnetConfig::small(51);
    config.workload.inbound_mean_gap_ms = 50_000;
    config.workload.outbound_mean_gap_ms = 80_000;
    let mut net = Testnet::build(config);

    // A second, independent relayer with its own fee payer, ticked by the
    // harness right after the primary. It sees the same host blocks (and
    // therefore the same guest events); counterparty events are drained by
    // whichever relayer polls first.
    let second = net.add_relayer();
    assert_eq!(second, 0, "first extra relayer");
    assert_eq!(net.extra_relayers.len(), 1);

    net.run_for(20 * 60 * 1000);

    // Work happened, split across both relayers.
    let first_jobs = net.relayer.records().len();
    let second_jobs = net.extra_relayers[second].records().len();
    assert!(first_jobs + second_jobs > 0, "the link is being served");

    // Deliveries happened exactly once each: the guest's voucher balance
    // equals the counterparty escrow (conservation under racing).
    let port = net.endpoints().port.clone();
    let guest_channel = net.endpoints().guest_channel.clone();
    let cp_channel = net.endpoints().cp_channel.clone();
    let voucher = format!("transfer/{guest_channel}/{CP_DENOM}");
    let contract = net.contract.clone();
    let minted = {
        let mut guard = contract.borrow_mut();
        guard
            .ibc_mut()
            .module_mut(&port)
            .unwrap()
            .ics20_mut()
            .unwrap()
            .balance(GUEST_USER, &voucher)
    };
    let escrowed = net
        .cp
        .ibc_mut()
        .module_mut(&port)
        .unwrap()
        .ics20_mut()
        .unwrap()
        .balance(&format!("escrow:{cp_channel}"), CP_DENOM);
    assert!(minted > 0, "inbound transfers delivered");
    assert!(escrowed >= minted, "no double-mint from racing relayers");

    // Both relayers made at least some client updates (both watch the
    // host event stream), and any lost races are visible as failed jobs —
    // never as corrupted state.
    let updates: usize = [net.relayer.records(), net.extra_relayers[second].records()]
        .iter()
        .map(|r| r.iter().filter(|j| j.kind == JobKind::ClientUpdate).count())
        .sum();
    assert!(updates > 0);
}
